"""Freezing against both engines without it (oracles.UnfrozenEnumerator
and oracles.UnfrozenNeedEnumerator): on every denotation and run-time
search that the harness suites ask for on seeds 1..40 at depth 4, and on
every paper job of the benchmark. Each pair must yield the same values
at the same depths, sweep as deep, prove alike and trip the budget
alike. The frozen engine must already hold, frozen or memoized, the
unfrozen one's set or match list at every node and depth the unfrozen
memo holds."""

import os
import re
import sys

import pytest

from oracles import UnfrozenEnumerator, UnfrozenNeedEnumerator, is_reference_step, replay_trace
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


@pytest.fixture
def paired(monkeypatch):
    """Makes every harness denotation and run-time search also run a
    frozen engine against its unfrozen twin, and counts them."""
    drain = harness._drain
    counts = {"calculi": 0, "need": 0}

    def checked(enum, expr, depth, cap):
        _assert_agree(lambda: _like(enum), expr, depth, cap)
        counts["calculi" if isinstance(enum, Enumerator) else "need"] += 1
        return drain(enum, expr, depth, cap)

    monkeypatch.setattr(harness, "_drain", checked)
    return counts


def test_freezing_changes_no_harness_denotation_or_search(paired):
    for suite in ("hierarchy", "pst", "cab", "bubbling", "rightlinear"):
        run_suite(suite, range(1, 41), 4, out=lambda line: None)
    # pinned, so that a change to the inputs shows
    assert paired == {"calculi": 1050, "need": 280}


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


@pytest.mark.parametrize("job", PAPER_DENOTE + PAPER_REWRITE, ids=lambda job: job.label)
def test_freezing_changes_no_paper_job(job):
    word, query = _DEPTH.match(job.query).groups()
    program = _job_engine(job).program
    expr = parse_expression(query, program.signature)
    depth = None if word == "inf" else int(word)
    stream = _assert_agree(lambda: _job_engine(job), expr, depth, totals_only=True)
    assert stream.complete or stream.swept == depth
    # rebuilding a derivation of each value leaves both tables as the sweeps
    # made them
    enum = stream.enum
    tables = dict(enum._memo), dict(enum._frozen)
    for value in enum.values(expr, stream.swept):
        if isinstance(enum, Enumerator):
            assert replay_trace(enum.program, enum.mode, stream.derivation(value))
            continue
        steps = _find_path(enum, expr, value, stream.swept)
        assert steps[-1].result is value
        assert all(is_reference_step(enum.program, source, step)
                   for source, step in zip([expr] + [s.result for s in steps], steps))
    assert (enum._memo, enum._frozen) == tables


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
