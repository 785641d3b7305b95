"""Every harness suite, run end to end on a few cheap seeds."""

import pytest

from oracles import fresh_query
from pluralrw import harness, terms
from pluralrw.calculi import Enumerator
from pluralrw.harness import SUITES, run_suite
from pluralrw.sweep import DenotationStream
from pluralrw.syntax import format_term
from pluralrw.terms import BOT, app

SEEDS = (6, 8, 10)

# (checked, failed) per suite; rightlinear refuses seed 8, whose program
# copies a variable in a right-hand side
EXPECTED = {
    "hierarchy": (9, 0),
    "pst": (6, 0),
    "cab": (9, 0),
    "bubbling": (3, 0),
    "compress": (3, 0),
    "rightlinear": (6, 0),
}


# (checked, failed) per suite at depth 4 on seeds 1..40 and on 41..80,
# the table in ROADMAP.md; the same under every hash seed tried
RANGES = {
    "hierarchy": ((119, 0), (120, 0)),
    "pst": ((78, 0), (80, 0)),
    "cab": ((120, 0), (120, 0)),
    "bubbling": ((39, 0), (40, 0)),
    "compress": ((40, 0), (40, 0)),
    "rightlinear": ((93, 0), (99, 0)),
}


def test_every_suite_is_pinned():
    assert set(EXPECTED) == set(RANGES) == set(SUITES)


@pytest.mark.parametrize("suite", SUITES)
def test_suite_counts_on_seeds_1_to_80(suite):
    got = tuple(run_suite(suite, seeds, 4, out=lambda line: None)
                for seeds in (range(1, 41), range(41, 81)))
    assert got == RANGES[suite]


@pytest.mark.parametrize("suite", SUITES)
def test_suite_runs_clean(suite):
    witnesses = []
    assert run_suite(suite, SEEDS, 4, out=witnesses.append) == EXPECTED[suite]
    assert witnesses == []


def test_hierarchy_runs_clean_on_seed_76():
    # its beta-plural f2(f2(0,0),0 ? f2(0,0)) asks for the same argument
    # sets at every depth: seconds with the enumerator's choice and body
    # caches, a minute without them
    assert run_suite("hierarchy", [76], 4, out=lambda line: None) == (3, 0)


def test_hierarchy_seed_32_builds_no_set_past_the_cap():
    # call-time f1(d(f1(1),f1(1))) reaches a function-free body whose
    # down-closure has about 59,000 terms. Its antichain is the body
    # alone, so the check is judged, and none of those terms is built.
    # The intern table is shared by the whole test process, so only its
    # growth during this run is measured.
    before = _interned_terms()
    assert run_suite("hierarchy", [32], 4, out=lambda line: None) == (3, 0)
    assert _interned_terms() - before < 10_000


def _interned_terms():
    # the table maps each kind to names, each name to its terms
    return sum(len(by_children) for by_name in terms._TABLE for by_children in by_name.values())


CHECKS = {
    "hierarchy": "check_hierarchy",
    "cab": "check_cab_equivalence",
    "pst": "check_pst_adequacy",
    "bubbling": "check_bubbling",
}


@pytest.mark.parametrize("suite,seed,deepened", [
    ("hierarchy", 23, 2), ("hierarchy", 30, 1), ("hierarchy", 32, 0), ("cab", 23, 0),
    ("pst", 23, 2), ("bubbling", 2, 0), ("bubbling", 23, 4),
])
def test_deepening_continues_one_stream_per_side(monkeypatch, suite, seed, deepened):
    # where a side is deepened, a judgement missed at the check's own
    # depth; the other cases are judged there. Bubbling seed 2 has a
    # bare-hole context, so its two sides coincide. Each side opens one
    # stream, every stream a check sweeps is one of its sides', and each
    # sweeps each depth once: a deepened side goes on from the depth it
    # reached
    per_check = []
    check = getattr(harness, CHECKS[suite])
    advance = DenotationStream._advance
    init = harness._Side.__init__

    def noted_init(side, *args):
        init(side, *args)
        per_check[-1][side._stream] = side, []

    def noted_advance(stream):
        advance(stream)
        assert stream in per_check[-1]
        depths = per_check[-1][stream][1]
        if stream.swept not in depths[-1:]:
            depths.append(stream.swept)

    def fresh_check(*args):
        per_check.append({})
        return check(*args)

    monkeypatch.setattr(harness._Side, "__init__", noted_init)
    monkeypatch.setattr(DenotationStream, "_advance", noted_advance)
    monkeypatch.setattr(harness, CHECKS[suite], fresh_check)
    run_suite(suite, [seed], 4, out=lambda line: None)
    assert per_check
    opened = [pair for sides in per_check for pair in sides.values()]
    for _side, depths in opened:
        assert depths == list(range(len(depths)))
    # pinned, so that a change to the inputs shows
    assert sum(max(side._at, default=1) > 1 for side, _depths in opened) == deepened


class _Fixed:
    """An engine whose root set at depth k is sets[k], or the last one,
    where the stream proves its fixpoint."""

    def __init__(self, *sets):
        self.sets = [frozenset(s) for s in sets]

    def begin_sweep(self):
        pass

    def values(self, expr, k):
        return self.sets[min(k, len(self.sets) - 1)]

    def confirm_fixpoint(self, depth):
        return True


class _Lending(harness._Engines):
    """Lends one engine for every program and mode."""

    def __init__(self, enum):
        super().__init__()
        self.enum = enum

    def engine(self, program, mode):
        return self.enum


def test_equal_compares_the_maximal_values_each_side_yielded():
    # a bounded set need not hold the sets of lower depths, so one stream
    # can yield c(_|_) and later c(0), and another c(0) alone: the same
    # down-closed denotation
    zero = app("0")
    program = harness.gen_program(harness.GenConfig(seed=1))
    expr = app("c", (zero,))

    def side(*sets):
        return harness._Side(program, harness.ALPHA, expr, 4, _Lending(_Fixed(*sets)))

    judge = harness._Judge(program, expr)
    judge.equal("same", side({BOT, app("c", (BOT,))}, {expr}), side({expr}))
    assert not judge.inconclusive and judge.failures == []
    # c(_|_) is maximal on the right, but lies below c(0) on the left
    judge.equal("differ", side({BOT, app("c", (BOT,))}, {expr}), side({app("c", (BOT,)), app("1")}))
    assert [line.rsplit("\t", 1)[1] for line in judge.failures] == ["1", "c(0)"]


def test_shared_engines_and_continued_sides_answer_as_fresh_ones(monkeypatch):
    # every side the suites build on seeds 1..40 at depth 4, at every scale
    # asked, against a fresh engine at its depth and VALUE_CAP: the same
    # (values, complete, capped)
    drain = harness._drain
    counts = {"calculi": 0, "need": 0}

    def checked(stream, got, depth):
        enum = stream.enum
        answer = drain(stream, got, depth)
        assert answer == fresh_query(enum, stream.expr, depth, harness.VALUE_CAP), (
            format_term(stream.expr), depth)
        counts["calculi" if isinstance(enum, Enumerator) else "need"] += 1
        return answer

    monkeypatch.setattr(harness, "_drain", checked)
    for suite in ("hierarchy", "pst", "cab", "bubbling", "rightlinear"):
        run_suite(suite, range(1, 41), 4, out=lambda line: None)
    # pinned, so that a change to the inputs shows
    assert counts == {"calculi": 1050, "need": 280}


@pytest.mark.parametrize("depth", ("-1", "x", "0"))
def test_the_cli_rejects_a_depth_that_is_not_a_non_negative_integer(depth, capsys):
    # depth 0 too: every set at it is {_|_}, so its checks judge nothing
    with pytest.raises(SystemExit) as stop:
        harness.main(["--suite", "compress", "--seeds", "1", "--depth", depth])
    assert stop.value.code == 2
    assert "argument --depth: needs a positive integer" in capsys.readouterr().err


@pytest.mark.parametrize("seeds,message", (
    ("x", "needs a seed A or a range A..B of non-negative integers, not 'x'"),
    ("5..3", "empty seed range '5..3'"),
    ("1..", "needs a seed A or a range A..B of non-negative integers, not '1..'"),
))
def test_the_cli_rejects_seeds_that_are_not_a_seed_or_a_range(seeds, message, capsys):
    with pytest.raises(SystemExit) as stop:
        harness.main(["--suite", "compress", "--seeds", seeds])
    assert stop.value.code == 2
    assert "argument --seeds: " + message in capsys.readouterr().err


def test_a_huge_seed_range_is_parsed_without_listing_its_seeds():
    seeds = harness._seeds("1..10000000000")
    assert isinstance(seeds, range) and len(seeds) == 10 ** 10
    assert (seeds[0], seeds[-1]) == (1, 10 ** 10)
