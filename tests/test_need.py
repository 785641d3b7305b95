"""The call-by-need run-time enumerator against the breadth-first walk it
replaced in the harness (oracles.capped_runtime_denotation, the capped
form of runtime_denotation): on the harness's searches, for generated
programs and their pST outputs, and on the paper's programs. Where the
walk was not cut, the enumerator must prove the same totals; where it
was, the walk's totals must lie inside the enumerator's. Also the value
budget, for value sets and for match lists."""

import os

import pytest

from oracles import capped_runtime_denotation
from pluralrw.calculi import BudgetExceeded, DenotationStream
from pluralrw.harness import GenConfig, _expr_rng, gen_ground_expr, gen_program
from pluralrw.rewriting import NeedEnumerator
from pluralrw.syntax import parse_expression, parse_program
from pluralrw.transform import pst_optimized, pst_simple

PROGRAMS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "programs")

# the harness's run-time depth: its depth 4 times its run-time scale
DEPTH = 16
# the walk the harness ran: 2^4 steps per node of the program's rules,
# at most 5,000 expressions, none larger than 256 nodes
WALK_NODE_CAP = 5_000
WALK_SIZE_CAP = 256


def _walk(program, expr):
    steps = 16 * max(1, sum(r.lhs.size + r.rhs.size for r in program.rules))
    return capped_runtime_denotation(program, expr, steps, WALK_NODE_CAP, WALK_SIZE_CAP)


def _need(program, expr, depth=DEPTH):
    stream = DenotationStream(NeedEnumerator(program), expr, depth)
    return frozenset(stream), stream.complete


def _searches(seed):
    # the hierarchy suite's expressions on the source program, and the pst
    # suite's on the source program and both of its pST outputs
    program = gen_program(GenConfig(seed=seed))
    rng = _expr_rng(seed)
    for _ in range(3):
        yield "source", program, gen_ground_expr(program, rng)
    rng = _expr_rng(seed)
    targets = (("source", program), ("pst-optimized", pst_optimized(program).output),
               ("pst-simple", pst_simple(program).output))
    for expr in [gen_ground_expr(program, rng, 2) for _ in range(2)]:
        for label, target in targets:
            yield label, target, expr


def _assert_agrees(program, expr, depth=DEPTH):
    walked, cut = _walk(program, expr)
    got, complete = _need(program, expr, depth)
    if cut:
        assert walked <= got
    else:
        assert complete and got == walked


@pytest.mark.parametrize("seed", range(1, 41))
def test_need_proves_what_an_uncut_walk_reaches(seed):
    for label, program, expr in _searches(seed):
        try:
            _assert_agrees(program, expr)
        except AssertionError as err:
            raise AssertionError("%s %r" % (label, expr)) from err


def _paper(name):
    with open(os.path.join(PROGRAMS, name)) as f:
        return parse_program(f.read())


@pytest.mark.parametrize("name,query", (
    ("dungeon.plural", "escapeHow"),
    ("clerks.plural", "twoclerks"),
    ("clerks.plural", "nClerks(s(s(z)))"),
))
@pytest.mark.parametrize("engine", ("run-time", "pst-optimized", "pst-simple"))
def test_need_holds_the_walk_on_the_paper_programs(name, query, engine):
    program = _paper(name)
    if engine != "run-time":
        program = (pst_optimized if engine == "pst-optimized" else pst_simple)(program).output
    _assert_agrees(program, parse_expression(query, program.signature), 40)


EXPLODING = parse_program("""
plural EXPLODING is
  copy(X) -> p(X, X) .
  both(p(w(X), w(Y))) -> X ? Y .
endp
""")


@pytest.mark.parametrize("query,values,needed", (
    # the copy's value set holds 25 pairs
    ("copy(a ? b ? c ? d ? e)", 25, 25),
    # 5 values, but the pair pattern has 25 matches
    ("both(copy(w(a) ? w(b) ? w(c) ? w(d) ? w(e)))", 5, 25),
))
def test_the_budget_trips_one_below_the_largest_set(query, values, needed):
    expr = parse_expression(query, EXPLODING.signature)
    got, complete = _need(EXPLODING, expr, None)
    assert complete and len(got) == values
    stream = DenotationStream(NeedEnumerator(EXPLODING, value_budget=needed), expr, None)
    assert frozenset(stream) == got and stream.complete
    # the calculi's message: both engines share one budget check
    message = "value set of size %d exceeds the budget %d" % (needed, needed - 1)
    with pytest.raises(BudgetExceeded, match=message):
        list(DenotationStream(NeedEnumerator(EXPLODING, value_budget=needed - 1), expr, None))


def test_the_read_record_keeps_one_pair_per_match_list_node():
    # pST escapeHow at depth 40 records about 75,000 reads of 1,015
    # distinct match-list nodes: each node is one (pattern, expr) object
    program = pst_optimized(_paper("dungeon.plural")).output
    enum = NeedEnumerator(program)
    list(DenotationStream(enum, parse_expression("escapeHow", program.signature), 40))
    pairs = [y for reads in enum._record.values() for y in reads if isinstance(y, tuple)]
    assert len(pairs) > 50 * len(set(pairs))
    assert len({id(y) for y in pairs}) == len(set(pairs)) == 1015
