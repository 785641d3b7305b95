"""The pluralrw benchmark. Run it from the root of a checkout:

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
      [--harness-seeds A..B]

Workloads (the reasons are in BENCHMARK.json):
  paper-denote   the paper's programs on the calculi engine
  paper-rewrite  the same programs by rewriting: pST and run-time choice
  harness-gate   the five gating harness suites, depth 4, --harness-seeds

Each repetition runs the workload's whole job list in a fresh interpreter
(worker.py); repetitions follow each other until --seconds have passed,
and every reported value is the median over them. The job lists are
fixed (the paper's programs, the harness seed range), so the same
inputs run whatever --seed says; the seed is recorded. Every answer is
checked: paper queries against the hand-written reference in
paperjobs.py, harness checks by their own verdict. With --trace 1 the
repetitions alternate traced and untraced ones and the per-layer
metrics come from the traced ones.

setup_s is the import of pluralrw plus, per paper job, `load` (parse and
C_AB banner) and, for pST jobs, `showTr` (pST transform and printing);
it is sampled in every repetition and in SETUP_SAMPLES extra processes.
An op is one query from `eval` to the end of its stream, one `show
path`, or one harness check.

The last line of output is one JSON object with `correct`, `attempted`,
`failed` and `metrics`; the line before it, starting with `meta `, holds
what the numbers depend on and how the ops ended.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import benchstats  # noqa: E402

WORKLOADS = ("paper-denote", "paper-rewrite", "harness-gate")
# a run must end within 180 s: no repetition starts that would end after
# RUN_LIMIT_S, and the short set-up samples stop SETUP_LIMIT_S later
RUN_LIMIT_S = 150.0
SETUP_LIMIT_S = 10.0
SETUP_SAMPLES = 10
FAILED = ("wrong", "crashed", "capped")


def _worker(args, budget, traced=False, setup_only=False):
    cmd = [
        sys.executable, "-s", os.path.join(HERE, "worker.py"),
        "--workload", args.workload,
        "--budget", "%.3f" % budget, "--harness-seeds", args.harness_seeds,
    ]
    if traced:
        cmd.append("--trace")
    if setup_only:
        cmd.append("--setup-only")
    # budgeted enumerations in the harness stop at a point that depends on
    # set iteration order, so a fixed hash seed keeps per-layer counts exact
    env = dict(os.environ, PYTHONHASHSEED="0")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              timeout=budget + 5.0, text=True)
    except subprocess.TimeoutExpired:
        return None
    if proc.returncode != 0 or not proc.stdout.strip():
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _src_files():
    pkg = os.path.join(ROOT, "src", "pluralrw")
    return [os.path.join(pkg, f) for f in sorted(os.listdir(pkg)) if f.endswith(".py")]


def _git_rev():
    git_dir = os.path.join(ROOT, ".git")
    if not os.path.isdir(git_dir):
        return None
    try:
        out = subprocess.run(["git", "--git-dir", git_dir, "rev-parse", "HEAD"],
                             stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def _metadata(args):
    digest = hashlib.sha256()
    lines = 0
    for path in _src_files():
        with open(path, "rb") as f:
            data = f.read()
        digest.update(data)
        lines += data.count(b"\n")
    return {
        "python": platform.python_version(),
        "git_rev": _git_rev(),
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
        "nproc": os.cpu_count(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "harness_seeds": args.harness_seeds if args.workload == "harness-gate" else None,
    }


def end_to_end(reps, setups):
    """End-to-end metrics over the untraced repetitions. Ops run in a
    fixed order, so each op's time is its median over the repetitions
    before the percentiles are taken."""
    op_ms = [benchstats.median(ms) for ms in zip(*([o["ms"] for o in r["ops"]] for r in reps))]

    def med(key):
        return benchstats.median([r[key] for r in reps])

    return {
        "setup_s": benchstats.median(setups),
        "wall_s": med("wall_s"),
        "cpu_s": med("cpu_s"),
        "op_p50_ms": benchstats.median(op_ms),
        "op_tail_ms": benchstats.tail(op_ms)[1],
        "peak_rss_mb": med("peak_rss_mb"),
        "judged_ratio": benchstats.median([
            benchstats.ratio(sum(o["definite"] for o in r["ops"]), len(r["ops"])) for r in reps]),
    }


def _repetitions(args, t_start):
    """Repetitions until --seconds have passed, alternating traced and
    untraced ones under --trace 1. None starts that would not end within
    the run limit, and none after one was lost (crashed or timed out)."""
    plain, traced, lost = [], [], 0
    longest = 0.0
    while not lost:
        elapsed = time.perf_counter() - t_start
        if elapsed >= args.seconds and plain and (traced or not args.trace):
            break
        if (plain or traced) and elapsed + longest > RUN_LIMIT_S:
            break
        want_traced = bool(args.trace) and len(traced) <= len(plain)
        t0 = time.perf_counter()
        rep = _worker(args, RUN_LIMIT_S - elapsed, traced=want_traced)
        longest = max(longest, time.perf_counter() - t0)
        if rep is None:
            lost += 1
        else:
            (traced if want_traced else plain).append(rep)
    return plain, traced, lost


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--harness-seeds", default="1..40",
                   help="harness seed range A..B; keep a second range for claim checks")
    args = p.parse_args(argv)
    try:
        benchstats.parse_seeds(args.harness_seeds)
    except ValueError as exc:
        p.error("--harness-seeds: %s" % exc)
    t_start = time.perf_counter()

    bench_file = os.path.join(ROOT, "BENCHMARK.json")
    pkg = os.path.join(ROOT, "src", "pluralrw", "__init__.py")
    if not (os.path.isfile(bench_file) and os.path.isfile(pkg)):
        print("perfbench: run from a pluralrw checkout (no src/pluralrw or BENCHMARK.json)",
              file=sys.stderr)
        return 2
    with open(bench_file) as f:
        wanted = json.load(f)["per_layer" if args.trace else "end_to_end"]

    plain, traced, lost = _repetitions(args, t_start)
    reps = plain + traced
    if not (traced if args.trace else plain):
        print("perfbench: no repetition of %s finished" % args.workload, file=sys.stderr)
        return 3
    ops = [o for r in reps for o in r["ops"]]
    per_rep = len(reps[0]["ops"])
    attempted = len(ops) + lost * per_rep
    failed = sum(o["status"] in FAILED for o in ops) + lost * per_rep
    meta = _metadata(args)
    meta.update({
        "repetitions": len(plain),
        "traced_repetitions": len(traced),
        "lost_repetitions": lost,
        "ops_per_repetition": per_rep,
        "ops_failed": benchstats.ratio(failed, attempted),
        "failed_ops": sorted({"%s: %s" % (o["status"], o["label"])
                              for o in ops if o["status"] in FAILED}),
    })
    if args.trace:
        # the low median is one of the samples, so counts stay whole numbers
        values = {k: statistics.median_low([r["layers"][k] for r in traced])
                  for k in traced[0]["layers"]}
        if plain:
            meta["trace_overhead_s"] = (
                benchstats.median([r["wall_s"] for r in traced])
                - benchstats.median([r["wall_s"] for r in plain]))
    else:
        setups = [r["setup_s"] for r in plain]
        for _ in range(SETUP_SAMPLES):
            left = RUN_LIMIT_S + SETUP_LIMIT_S - (time.perf_counter() - t_start)
            if left <= 0:
                break
            rep = _worker(args, min(3.0, left), setup_only=True)
            if rep is not None:
                setups.append(rep["setup_s"])
        values = end_to_end(plain, setups)
        meta["setup_samples"] = len(setups)
        meta["op_tail_percentile"] = benchstats.tail(range(per_rep))[0]
        meta["wall_s_samples"] = [r["wall_s"] for r in plain]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    correct = not any(o["status"] in ("wrong", "crashed") for o in ops) and not lost
    print("meta " + json.dumps(meta, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
