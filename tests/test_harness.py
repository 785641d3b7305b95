"""Every harness suite, run end to end on a few cheap seeds."""

import pytest

from pluralrw import harness, terms
from pluralrw.harness import SUITES, run_suite
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


def test_every_suite_is_pinned():
    assert set(EXPECTED) == set(SUITES)


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


@pytest.mark.parametrize(
    "suite,seed",
    [("hierarchy", 23), ("hierarchy", 30), ("hierarchy", 32), ("cab", 23), ("pst", 23), ("bubbling", 2)],
)
def test_deepening_computes_each_denotation_once_per_check(monkeypatch, suite, seed):
    # on these seeds an inclusion misses at the check's own depth, and the
    # deepening retry used to enumerate that depth's set a second time;
    # bubbling seed 2 has a bare-hole context, so its two sides coincide
    per_check = []
    denotation = harness._denotation
    check = getattr(harness, CHECKS[suite])

    def counted(program, mode, expr, depth, cap=harness.VALUE_CAP):
        per_check[-1].append((mode, expr, depth, cap))
        return denotation(program, mode, expr, depth, cap)

    def fresh_check(*args):
        per_check.append([])
        return check(*args)

    monkeypatch.setattr(harness, "_denotation", counted)
    monkeypatch.setattr(harness, CHECKS[suite], fresh_check)
    run_suite(suite, [seed], 4, out=lambda line: None)
    assert per_check
    for calls in per_check:
        assert len(calls) == len(set(calls))


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


def test_equal_compares_the_maximal_values_each_side_yielded():
    # a bounded set need not hold the sets of lower depths, so one stream
    # can yield c(_|_) and later c(0), and another c(0) alone: the same
    # down-closed denotation
    zero = app("0")
    program = harness.gen_program(harness.GenConfig(seed=1))
    expr = app("c", (zero,))

    def side(*values):
        return harness._Side(lambda f: (frozenset(values), True, False))

    judge = harness._Judge(program, expr)
    judge.equal("same", side(BOT, app("c", (BOT,)), expr), side(expr))
    assert not judge.inconclusive and judge.failures == []
    # c(_|_) is maximal on the right, but lies below c(0) on the left
    judge.equal("differ", side(BOT, app("c", (BOT,)), expr), side(app("c", (BOT,)), app("1")))
    assert [line.rsplit("\t", 1)[1] for line in judge.failures] == ["1", "c(0)"]
