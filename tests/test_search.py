"""The memoized rewrite search against the one_step-driven searches it
replaced (kept in oracles.py): the same states in the same order with the
same lengths, the same cut flags under every cap, and the same `show
path` derivations."""

import os

import pytest

from oracles import (
    reference_bounded_reach,
    reference_find_path,
    reference_one_step,
    reference_reach,
)
from pluralrw import harness
from pluralrw.harness import GenConfig, _bounded_reach, _expr_rng, gen_ground_expr, gen_program
from pluralrw.repl import _find_path
from pluralrw.rewriting import (
    BREADTH_FIRST,
    DEPTH_FIRST,
    ReachStream,
    SearchStrategy,
    one_step,
    reachable,
)
from pluralrw.syntax import parse_expression, parse_program
from pluralrw.transform import pst_optimized, pst_simple

PROGRAMS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "programs")

# harness seeds whose queries reach tens to thousands of states
SEEDS = (23, 30, 45, 48, 74)


def _cases():
    # each case carries a derivation-length bound; the transformed programs
    # get the pst suite's shallow queries and a smaller bound, because
    # their routed copies multiply the states
    for seed in SEEDS:
        program = gen_program(GenConfig(seed=seed))
        rng = _expr_rng(seed)
        deep = [gen_ground_expr(program, rng) for _ in range(2)]
        shallow = [gen_ground_expr(program, rng, 2) for _ in range(2)]
        for label, target, exprs, bound in (
            ("source", program, deep + shallow, 3),
            ("pst-optimized", pst_optimized(program).output, shallow, 2),
            ("pst-simple", pst_simple(program).output, shallow, 2),
        ):
            for i, e in enumerate(exprs):
                yield pytest.param(target, e, bound, id="seed%d-%s-%d" % (seed, label, i))


def _paper_cases():
    with open(os.path.join(PROGRAMS, "dungeon.plural")) as f:
        dungeon = parse_program(f.read())
    with open(os.path.join(PROGRAMS, "clerks.plural")) as f:
        clerks = parse_program(f.read())
    for name, program, query in (
        ("dungeon", dungeon, "escapeHow"),
        ("clerks", clerks, "twoclerks"),
        ("clerks-n", clerks, "nClerks(s(s(z)))"),
    ):
        e = parse_expression(query, program.signature)
        yield pytest.param(program, e, 3, id=name)
        yield pytest.param(pst_optimized(program).output, e, 2, id=name + "-pst")


CASES = list(_cases())
PAPER_CASES = list(_paper_cases())


def _steps(chain):
    return [(s.rule_index, s.position, s.result) for s in chain]


@pytest.mark.parametrize("program,expr,bound", CASES + PAPER_CASES)
def test_one_step_matches_the_reference(program, expr, bound):
    got = one_step(program, expr)
    want = reference_one_step(program, expr)
    assert [(s.rule_index, s.position, s.matcher, s.result) for s in got] == [
        (s.rule_index, s.position, s.matcher, s.result) for s in want
    ]


@pytest.mark.parametrize("kind", (BREADTH_FIRST, DEPTH_FIRST))
@pytest.mark.parametrize("program,expr,bound", CASES + PAPER_CASES)
def test_reach_visits_what_the_reference_visits(program, expr, bound, kind):
    for n in (bound, bound + 1):
        strategy = SearchStrategy(kind, n)
        want, exhausted = reference_reach(program, expr, strategy)
        stream = reachable(program, expr, strategy)
        assert list(stream) == want
        assert stream.exhausted == exhausted


@pytest.mark.parametrize("program,expr,bound", CASES)
def test_bounded_reach_cuts_where_the_reference_cuts(program, expr, bound):
    for n, node_cap in ((30, 40), (30, 400), (bound, harness.NODE_CAP)):
        want = reference_bounded_reach(program, expr, n, node_cap, harness.SIZE_CAP)
        assert _bounded_reach(program, expr, n, node_cap) == want
    # a small size cap, so oversized successors are turned away too
    want = reference_bounded_reach(program, expr, 30, 400, 12)
    fnames = frozenset(program.signature.functions)
    stream = ReachStream(program, expr, SearchStrategy(BREADTH_FIRST, 30), 400, 12)
    got = frozenset(e for e, _n in stream if e.total and e.symbols.isdisjoint(fnames))
    assert (got, not (stream.exhausted or stream.capped)) == want


@pytest.mark.parametrize("program,expr,bound", CASES + PAPER_CASES)
def test_show_path_matches_the_reference_and_replays(program, expr, bound):
    targets = [e for e, _n in reachable(program, expr, SearchStrategy(BREADTH_FIRST, bound))]
    # the start, the last state reached, and a few in between
    for target in targets[:: max(1, len(targets) // 4)] + targets[-1:]:
        chain = _find_path(program, expr, target, bound)
        assert _steps(chain) == _steps(reference_find_path(program, expr, target, bound))
        source = expr
        for step in chain:
            assert step.replay(program, source)
            source = step.result
        assert source is target
