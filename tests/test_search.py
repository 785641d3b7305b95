"""one_step against its reference, and the memoized breadth-first
rewrite walk (oracles.ReachStream, the oracle the call-by-need enumerator
is gated against) against the one_step-driven searches it replaced: the
same states in the same order with the same lengths, the same cut flags
under every cap, and the same shortest derivations from its links;
against a depth-first reference, the same states at their shortest
lengths; and no successors built for a state at the bound or past a full
node cap, beyond what settling `exhausted` needs."""

import os
import sys

import pytest

from oracles import (
    ReachStream,
    depth_first_reach,
    is_reference_step,
    linked_find_path,
    reachable,
    reference_find_path,
    reference_one_step,
    reference_reach,
    total_cterms,
)
from pluralrw.harness import GenConfig, _expr_rng, gen_ground_expr, gen_program
from pluralrw.rewriting import one_step
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
# these ids keep the suffix they had beside depth-first cases, so results stay comparable
REACH_CASES = [pytest.param(*p.values, id=p.id + "-breadth-first") for p in CASES + PAPER_CASES]


def _steps(chain):
    return [(s.rule_index, s.position, s.result) for s in chain]


@pytest.mark.parametrize("program,expr,bound", CASES + PAPER_CASES)
def test_one_step_matches_the_reference(program, expr, bound):
    got = one_step(program, expr)
    want = reference_one_step(program, expr)
    assert [(s.rule_index, s.position, s.matcher, s.result) for s in got] == [
        (s.rule_index, s.position, s.matcher, s.result) for s in want
    ]


def _assert_shortest_within(program, expr, bound, stream, node_cap=sys.maxsize,
                            size_cap=sys.maxsize):
    # against the depth-first reference, which shares no visit order with
    # the stream: the first min(node_cap, |reach|) states a breadth-first
    # search admits, each at its shortest length; capped when the size cap
    # turned one away or the states outnumber the node cap; and, when all
    # were admitted, the same bound flag
    shortest, exhausted, capped = depth_first_reach(program, expr, bound, size_cap)
    got = list(stream)
    assert len(got) == len({e for e, _n in got}) == min(node_cap, len(shortest))
    assert all(shortest.get(e) == n for e, n in got)
    assert stream.capped == (capped or len(shortest) > node_cap)
    if len(shortest) <= node_cap:
        assert stream.exhausted == exhausted


# "order" is the order of the reference the breadth-first stream is checked
# against: breadth-first for the same visits in the same order, depth-first
# for the same states at their shortest lengths
@pytest.mark.parametrize("order", ("breadth-first", "depth-first"))
@pytest.mark.parametrize("program,expr,bound", CASES + PAPER_CASES)
def test_reach_visits_what_the_reference_visits(program, expr, bound, order):
    for n in (bound, bound + 1):
        stream = reachable(program, expr, n)
        if order == "depth-first":
            _assert_shortest_within(program, expr, n, stream)
            continue
        want, exhausted, capped = reference_reach(program, expr, n)
        assert list(stream) == want
        assert (stream.exhausted, stream.capped) == (exhausted, capped)


def _caps(program, expr, bound):
    # (node cap, size cap) pairs that fill before the bound: one node, half
    # the states the uncapped search visits, and their median size
    visits = reference_reach(program, expr, bound)[0]
    half = max(1, len(visits) // 2)
    median = sorted(e.size for e, _n in visits)[len(visits) // 2]
    return ((1, sys.maxsize), (half, sys.maxsize), (sys.maxsize, median), (half, median))


@pytest.mark.parametrize("order", ("breadth-first", "depth-first"))
@pytest.mark.parametrize("program,expr,bound", CASES + PAPER_CASES)
def test_reach_flags_match_the_reference_under_caps(program, expr, bound, order):
    bound += 1
    for node_cap, size_cap in _caps(program, expr, bound):
        stream = ReachStream(program, expr, bound, node_cap, size_cap)
        if order == "depth-first":
            _assert_shortest_within(program, expr, bound, stream, node_cap, size_cap)
            continue
        want, exhausted, capped = reference_reach(program, expr, bound, node_cap, size_cap)
        assert list(stream) == want
        assert stream.exhausted == exhausted
        assert stream.capped == capped


class _CountingStream(ReachStream):
    """Records each expression whose successors the search asks for, not
    the subterms its memo recurses into."""

    def __init__(self, *args):
        self.asked = []
        self._nested = False
        super().__init__(*args)

    def _successors(self, t):
        if self._nested:
            return super()._successors(t)
        self.asked.append(t)
        self._nested = True
        try:
            return super()._successors(t)
        finally:
            self._nested = False


@pytest.mark.parametrize("program,expr,bound", REACH_CASES)
def test_reach_builds_no_successor_it_cannot_use(program, expr, bound):
    bound += 1
    for node_cap, size_cap in ((sys.maxsize, sys.maxsize),) + _caps(program, expr, bound):
        stream = _CountingStream(program, expr, bound, node_cap, size_cap)
        cut = []
        while True:
            # once the node cap is full and has turned one away, every new
            # successor would be turned away too
            full = stream.capped and len(stream.parents) >= node_cap
            before = len(stream.asked)
            try:
                e, n = next(stream)
            except StopIteration:
                break
            if n >= bound:
                cut.append(e)
            assert stream.asked[before:] == ([] if n >= bound or full else [e])
        # settling `exhausted` asks for the cut expressions in yield order,
        # up to and including the first with a successor never reached
        want = []
        for e in cut:
            want.append(e)
            if any(s.result not in stream.parents for s in one_step(program, e)):
                break
        assert stream.asked[before:] == want


SIZE_CAP = 256


@pytest.mark.parametrize("program,expr,bound", CASES)
def test_bounded_reach_cuts_where_the_reference_cuts(program, expr, bound):
    # the total c-terms of a search cut by a node or size cap, and its flags
    fnames = frozenset(program.signature.functions)
    for n, node_cap in ((30, 40), (30, 400), (bound, 20_000)):
        visits, exhausted, capped = reference_reach(program, expr, n, node_cap, SIZE_CAP)
        totals = frozenset(e for e, _n in visits if e.total and e.symbols.isdisjoint(fnames))
        search = ReachStream(program, expr, n, node_cap, SIZE_CAP)
        assert frozenset(total_cterms(search)) == totals
        assert (search.exhausted, search.capped) == (exhausted, capped)


@pytest.mark.parametrize("program,expr,bound", CASES + PAPER_CASES)
def test_show_path_matches_the_reference_and_replays(program, expr, bound):
    targets = [e for e, _n in reachable(program, expr, bound)]
    # the start, the last state reached, and a few in between
    for target in targets[:: max(1, len(targets) // 4)] + targets[-1:]:
        chain = linked_find_path(program, expr, target, bound)
        assert _steps(chain) == _steps(reference_find_path(program, expr, target, bound))
        source = expr
        for step in chain:
            assert is_reference_step(program, source, step)
            source = step.result
        assert source is target
