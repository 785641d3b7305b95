"""The benchmark's own arithmetic: the tail-percentile rule, the count of
subset candidates, and self time from nested spans."""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(HERE)), "src"))

import pytest  # noqa: E402

from benchstats import Tracer, ops_beyond, subset_candidates, tail  # noqa: E402
from pluralrw.disjsubst import compressible_subsets  # noqa: E402
from pluralrw.terms import app  # noqa: E402


@pytest.mark.parametrize(
    "n, pct",
    [(99, 100.0), (100, 90.0), (199, 90.0), (200, 95.0), (400, 95.0), (1000, 99.0),
     (10_000, 99.9)],
)
def test_tail_takes_highest_percentile_with_ten_beyond(n, pct):
    values = list(range(1, n + 1))
    got_pct, got = tail(values)
    assert got_pct == pct
    if pct == 100.0:
        assert got == n
    else:
        assert n - got == ops_beyond(n, pct) >= 10


def test_tail_ignores_input_order():
    values = [5.0, 1.0, 4.0, 2.0, 3.0] * 40
    assert tail(values) == (95.0, 5.0)
    assert tail([3.0, 9.0, 1.0]) == (100.0, 9.0)


@pytest.mark.parametrize("n, width, want", [
    (5, 2, 5 + 10), (5, 0, 31), (5, None, 31), (4, 9, 15), (0, 4, 0), (6, 1, 6),
])
def test_subset_candidates(n, width, want):
    assert subset_candidates(n, width) == want


@pytest.mark.parametrize("n, width", [(1, 4), (4, 2), (5, 4), (6, 0)])
def test_subset_candidates_match_what_compressible_subsets_tries(n, width):
    # one variable: every subset is compressible, so all candidates come out
    thetas = [{"X": app("c%d" % i)} for i in range(n)]
    assert len(list(compressible_subsets(thetas, width))) == subset_candidates(n, width)


def _clock(*ticks):
    it = iter(ticks)
    return lambda: next(it)


def test_self_time_subtracts_child_spans():
    tr = Tracer(clock=_clock(0, 1, 2, 3, 4, 5, 9, 10))
    tr.enter("op")        # 0
    tr.enter("layer")     # 1
    tr.enter("leaf")      # 2
    tr.exit()             # 3: leaf 1
    tr.exit()             # 4: layer 3, 1 of it in leaf
    tr.enter("layer")     # 5
    tr.exit()             # 9: layer 4
    tr.exit()             # 10: op 10, 7 of it in layers
    assert tr.total_s == {"op": 10, "layer": 7, "leaf": 1}
    assert tr.self_s == {"op": 3, "layer": 6, "leaf": 1}
    assert tr.calls == {"op": 1, "layer": 2, "leaf": 1}
    assert sum(tr.self_s.values()) == tr.total_s["op"]


def test_unwind_closes_interrupted_spans():
    tr = Tracer(clock=_clock(0, 2, 7, 7))
    tr.enter("op")
    tr.enter("layer")
    assert tr.depth == 2
    tr.unwind(0)
    assert tr.depth == 0
    assert tr.self_s == {"layer": 5, "op": 2}
