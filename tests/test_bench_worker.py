"""The benchmark's worker hooks the program by name: it captures each
eval's stream through `repl.enumerate_values` and `repl.reachable`, and
its tracer wraps `repl._find_path` and the `one_step` of repl and harness.
A paper-rewrite repetition, untraced and traced, must end with every op
ok; its `show path` op is one of them."""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("traced", (False, True), ids=("untraced", "traced"))
def test_a_paper_rewrite_repetition_ends_with_every_op_ok(traced):
    cmd = [sys.executable, "-s", os.path.join(ROOT, "perfbench", "worker.py"),
           "--workload", "paper-rewrite", "--budget", "60"] + (["--trace"] if traced else [])
    proc = subprocess.run(cmd, cwd=ROOT, env=dict(os.environ, PYTHONHASHSEED="0"),
                          capture_output=True, text=True, timeout=120, check=True)
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    statuses = {op["label"]: op["status"] for op in report["ops"]}
    assert any(label.endswith(" / show path") for label in statuses)
    assert set(statuses.values()) == {"ok"}, statuses
    assert ("layers" in report) == traced
