"""Freezing against both engines without it (oracles.UnfrozenEnumerator
and oracles.UnfrozenNeedEnumerator): on every denotation and run-time
search that the harness suites ask for on seeds 1..40 at depth 4, and on
every paper job of the benchmark. Each pair must yield the same values
at the same depths, sweep as deep, prove alike and trip the budget
alike. The frozen engine must already hold, frozen or memoized, the
unfrozen one's set or match list at every node and depth the unfrozen
memo holds.

On the same inputs, the reads the sweeper records for each memo entry at
depth >= 1, less settled nodes and repeats, must be the reads
oracles.derived_reads derives from the node's kind, in the same order:
the fixpoint proof walks the record."""

import os
import re
import sys

import pytest

from oracles import (
    UnfrozenEnumerator,
    UnfrozenNeedEnumerator,
    derived_reads,
    is_reference_step,
    replay_trace,
)
from pluralrw import harness
from pluralrw.calculi import BudgetExceeded, DenotationStream, Enumerator
from pluralrw.harness import run_suite
from pluralrw.repl import _find_path
from pluralrw.rewriting import NeedEnumerator
from pluralrw.syntax import format_term, parse_expression, parse_program
from pluralrw.transform import pst

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

from paperjobs import PAPER_DENOTE, PAPER_REWRITE  # noqa: E402


def _like(enum, unfrozen=False):
    """A fresh engine with enum's program, mode and budget, unfrozen if
    asked."""
    if isinstance(enum, Enumerator):
        cls = UnfrozenEnumerator if unfrozen else Enumerator
        return cls(enum.program, enum.mode, value_budget=enum._budget)
    cls = UnfrozenNeedEnumerator if unfrozen else NeedEnumerator
    return cls(enum.program, value_budget=enum._budget)


def _run(enum, expr, depth, cap=None, totals_only=False):
    """(depth, value) per value the stream yields, then ("tripped",
    depth) if the budget stopped it, or "capped" past cap yields; and the
    stream."""
    stream = DenotationStream(enum, expr, depth, totals_only)
    rows = []
    try:
        for value in stream:
            rows.append((stream.swept, value))
            if cap is not None and len(rows) > cap:
                rows.append("capped")
                break
    except BudgetExceeded:
        rows.append(("tripped", stream.swept + 1))
    return rows, stream


def _assert_agree(make, expr, depth, cap=None, totals_only=False):
    """Runs a frozen engine and its unfrozen twin; returns the frozen
    stream."""
    frozen = make()
    got, stream = _run(frozen, expr, depth, cap, totals_only)
    unfrozen = _like(frozen, unfrozen=True)
    want, twin_stream = _run(unfrozen, expr, depth, cap, totals_only)
    assert not unfrozen._frozen
    assert got == want
    assert (stream.swept, stream.complete) == (twin_stream.swept, twin_stream.complete)
    for (node, k), entry in unfrozen._memo.items():
        assert frozen._lookup(node, k, read=False) == entry, (node, k)
    return stream


def _distinct_unsettled(enum, nodes):
    return list(dict.fromkeys(y for y in nodes if not enum._settled(y)))


def _assert_recorded_reads_are_derived(enum):
    """The reads recorded for each memo entry at k >= 1, less settled
    nodes and repeats, are the derived ones, in order."""
    for node, k in list(enum._memo):
        if k >= 1:
            recorded = _distinct_unsettled(enum, enum._record[node, k])
            assert recorded == _distinct_unsettled(enum, derived_reads(enum, node, k)), (node, k)


def _harness_runs(monkeypatch, check):
    """Runs check(enum, expr, depth, cap) on every denotation and run-time
    search the harness suites ask for on seeds 1..40 at depth 4, before
    the harness runs it; returns how many of each there were."""
    drain = harness._drain
    counts = {"calculi": 0, "need": 0}

    def checked(enum, expr, depth, cap):
        check(enum, expr, depth, cap)
        counts["calculi" if isinstance(enum, Enumerator) else "need"] += 1
        return drain(enum, expr, depth, cap)

    monkeypatch.setattr(harness, "_drain", checked)
    for suite in ("hierarchy", "pst", "cab", "bubbling", "rightlinear"):
        run_suite(suite, range(1, 41), 4, out=lambda line: None)
    return counts


def test_freezing_changes_no_harness_denotation_or_search(monkeypatch):
    def paired(enum, expr, depth, cap):
        _assert_agree(lambda: _like(enum), expr, depth, cap)

    # pinned, so that a change to the inputs shows
    assert _harness_runs(monkeypatch, paired) == {"calculi": 1050, "need": 280}


def test_the_record_holds_the_derived_reads_of_every_harness_denotation_and_search(
        monkeypatch):
    def recorded(enum, expr, depth, cap):
        fresh = _like(enum)
        _run(fresh, expr, depth, cap)
        _assert_recorded_reads_are_derived(fresh)

    assert _harness_runs(monkeypatch, recorded) == {"calculi": 1050, "need": 280}


_DEPTH = re.compile(r"^depth = (\d+|inf) (.+)$")
_PROGRAMS = {}


def _program(path):
    if path not in _PROGRAMS:
        with open(os.path.join(ROOT, path)) as f:
            _PROGRAMS[path] = parse_program(f.read())
    return _PROGRAMS[path]


def _job_engine(job):
    """A fresh frozen engine for the job, as the REPL makes it."""
    program = _program(job.program)
    if job.semantics == "run-time":
        return NeedEnumerator(program)
    if job.engine == "rewrite-via-pST":
        return NeedEnumerator(pst(program).output)
    return Enumerator(program, job.semantics)


def _job_query(job):
    """The job's expression and depth bound, None for inf."""
    word, query = _DEPTH.match(job.query).groups()
    expr = parse_expression(query, _job_engine(job).program.signature)
    return expr, None if word == "inf" else int(word)


@pytest.mark.parametrize("job", PAPER_DENOTE + PAPER_REWRITE, ids=lambda job: job.label)
def test_freezing_changes_no_paper_job(job):
    expr, depth = _job_query(job)
    stream = _assert_agree(lambda: _job_engine(job), expr, depth, totals_only=True)
    assert stream.complete or stream.swept == depth
    # rebuilding a derivation of each value leaves the memo, the frozen
    # table and the read record as the sweeps made them
    enum = stream.enum
    tables = dict(enum._memo), dict(enum._frozen), dict(enum._record)
    for value in enum.values(expr, stream.swept):
        if isinstance(enum, Enumerator):
            assert replay_trace(enum.program, enum.mode, stream.derivation(value))
            continue
        steps = _find_path(enum, expr, value, stream.swept)
        assert steps[-1].result is value
        assert all(is_reference_step(enum.program, source, step)
                   for source, step in zip([expr] + [s.result for s in steps], steps))
    assert (enum._memo, enum._frozen, enum._record) == tables


@pytest.mark.parametrize("job", PAPER_DENOTE + PAPER_REWRITE, ids=lambda job: job.label)
def test_the_record_holds_the_derived_reads_of_every_paper_job(job):
    expr, depth = _job_query(job)
    _rows, stream = _run(_job_engine(job), expr, depth, totals_only=True)
    _assert_recorded_reads_are_derived(stream.enum)


GEN_3 = parse_program("""plural gen-3 is
  f1(d(0,d(X1,X2))) -> d(1,X2) .
  f1(0) -> 0 .
endp""")


def test_a_read_behind_a_cached_unfolding_still_counts():
    # f1's two patterns are matched in turn against the inner call
    # f1(0 ? 0) at the same depth. The first match list unfolds it and
    # caches its bodies; the second finds them cached. At depth 1, `0 ? 0`
    # has no value at depth 0, so the inner call has no bodies and both
    # lists are empty. Unless the cache hit counts the first list's read of
    # `0 ? 0` at depth 0, which is not frozen, the second list freezes
    # empty from depth 1 and the outer call never reaches 0 (harness seed
    # 3, source program)
    expr = parse_expression("f1(f1(0 ? 0))", GEN_3.signature)
    stream = _assert_agree(lambda: NeedEnumerator(GEN_3), expr, 16)
    assert [format_term(t) for t in stream.enum.values(expr, stream.swept)] == ["0"]
    assert stream.complete


class _ForgetfulBodies(dict):
    def get(self, key, default=None):
        got = super().get(key, default)
        return got if got is None else got[:2] + ((),)


class _NoReplayNeedEnumerator(NeedEnumerator):
    """A mutant: a cached unfolding records none of the argument reads
    it stands for."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._bodies = _ForgetfulBodies()


def test_the_record_gate_catches_a_cached_unfolding_that_records_no_reads():
    # the second match list of f1(0 ? 0) in f1(f1(0 ? 0)) finds the
    # bodies cached: unless the hit records the first list's reads again,
    # its record misses the matches against `0 ? 0`
    expr = parse_expression("f1(f1(0 ? 0))", GEN_3.signature)
    good = _run(NeedEnumerator(GEN_3), expr, 16)[1].enum
    _assert_recorded_reads_are_derived(good)
    mutant = _run(_NoReplayNeedEnumerator(GEN_3), expr, 16)[1].enum
    with pytest.raises(AssertionError):
        _assert_recorded_reads_are_derived(mutant)
