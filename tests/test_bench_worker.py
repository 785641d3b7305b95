"""The benchmark's worker hooks the program by name: it captures each
eval's stream through `repl.enumerate_values` and `repl.reachable`, its
tracer wraps `repl._find_path`, the `one_step` of repl and harness and
`calculi.down_closure`, and it runs each gating check through its
`harness.check_*` name. A paper-rewrite repetition and a harness-gate
repetition, untraced and traced, must end with every op ok; the
paper-rewrite `show path` op is one of them."""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

TRACED = pytest.mark.parametrize("traced", (False, True), ids=("untraced", "traced"))


def _repetition(workload, traced, *extra):
    cmd = [sys.executable, "-s", os.path.join(ROOT, "perfbench", "worker.py"),
           "--workload", workload, "--budget", "60", *extra] + (["--trace"] if traced else [])
    proc = subprocess.run(cmd, cwd=ROOT, env=dict(os.environ, PYTHONHASHSEED="0"),
                          capture_output=True, text=True, timeout=120, check=True)
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    assert ("layers" in report) == traced
    return report["ops"]


@TRACED
def test_a_paper_rewrite_repetition_ends_with_every_op_ok(traced):
    statuses = {op["label"]: op["status"] for op in _repetition("paper-rewrite", traced)}
    assert any(label.endswith(" / show path") for label in statuses)
    assert set(statuses.values()) == {"ok"}, statuses


@TRACED
def test_a_harness_gate_repetition_ends_with_every_op_ok(traced):
    # seed 32's hierarchy check trips the value cap on a function-free set
    ops = _repetition("harness-gate", traced, "--harness-seeds", "32..32")
    assert {op["label"] for op in ops} == set(("hierarchy", "pst", "cab", "bubbling", "compress"))
    assert {op["status"] for op in ops} == {"ok"}, ops
