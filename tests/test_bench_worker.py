"""The benchmark's worker hooks the program by name: it captures each
eval's stream through `repl.enumerate_values` and `repl.reachable`, its
tracer wraps `repl._find_path`, the `one_step` of repl and harness,
`calculi.down_closure` and the `values`, `begin_sweep` and
`confirm_fixpoint` of `calculi.Enumerator`, and it runs each gating check
through its `harness.check_*` name. A repetition of each workload,
untraced and traced, must end with every op ok; the paper-rewrite
`show path` op is one of them, and a traced paper-denote repetition must
count sweeps and time fixpoint checks."""

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
    return report


@TRACED
def test_a_paper_denote_repetition_ends_with_every_op_ok(traced):
    report = _repetition("paper-denote", traced)
    assert {op["status"] for op in report["ops"]} == {"ok"}, report["ops"]
    if traced:
        layers = report["layers"]
        assert layers["calculi.sweeps"] > 0 and layers["calculi.confirm_ms"] > 0, layers


@TRACED
def test_a_paper_rewrite_repetition_ends_with_every_op_ok(traced):
    statuses = {op["label"]: op["status"] for op in _repetition("paper-rewrite", traced)["ops"]}
    assert any(label.endswith(" / show path") for label in statuses)
    assert set(statuses.values()) == {"ok"}, statuses


@TRACED
def test_a_harness_gate_repetition_ends_with_every_op_ok(traced):
    # seed 32's hierarchy check trips the value cap on a function-free set
    ops = _repetition("harness-gate", traced, "--harness-seeds", "32..32")["ops"]
    assert {op["label"] for op in ops} == set(("hierarchy", "pst", "cab", "bubbling", "compress"))
    assert {op["status"] for op in ops} == {"ok"}, ops
