"""One repetition of a workload, in a fresh interpreter.

The term intern table and the down-closure cache of pluralrw are global,
so a second pass in the same process runs faster than the first; every
repetition therefore gets its own process. run.py starts this script and
reads the one JSON object it prints:

  python3 perfbench/worker.py --workload NAME --budget S
      [--trace] [--setup-only] [--harness-seeds A..B]
"""

import argparse
import gc
import json
import os
import resource
import signal
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import benchstats  # noqa: E402
import paperjobs  # noqa: E402

HARNESS_DEPTH = 4
# wall-clock seconds after which an op counts as capped: pure beta-plural
# nClerks below depth 14 and pST nClerks at bound 12 each ran for minutes
OP_CAP_S = 60.0


class OpCapped(BaseException):
    """Raised by the wall-clock alarm inside an op that overran its cap.
    A BaseException, so no handler in the program swallows it."""


def _alarm(signum, frame):
    raise OpCapped()


class Ops:
    """Runs ops under a wall-clock cap and records each outcome: ok, wrong,
    crashed or capped, with its time and whether its answer is definite."""

    def __init__(self, deadline, tracer):
        self.deadline = deadline
        self.tracer = tracer
        self.records = []

    def run(self, label, fn, span=None):
        """fn() returns (answer_ok, definite)."""
        tr = self.tracer
        depth = tr.depth if tr else 0
        cap = min(OP_CAP_S, self.deadline - time.perf_counter())
        t0 = time.perf_counter()
        status, definite = "capped", False
        if cap > 0:
            if tr and span:
                tr.enter(span)
            signal.setitimer(signal.ITIMER_REAL, cap)
            try:
                try:
                    ok, definite = fn()
                finally:
                    signal.setitimer(signal.ITIMER_REAL, 0)
                status = "ok" if ok else "wrong"
            except OpCapped:
                definite = False
            except Exception:  # the run goes on; the op counts as failed
                traceback.print_exc(file=sys.stderr)
                status, definite = "crashed", False
        if tr:
            tr.unwind(depth)
        self.record(label, 1000.0 * (time.perf_counter() - t0), status, definite)
        return status

    def record(self, label, ms, status, definite=False):
        self.records.append({"label": label, "ms": ms, "status": status, "definite": definite})


def _import_program():
    if not os.path.isfile(os.path.join(SRC, "pluralrw", "__init__.py")):
        raise SystemExit("perfbench: no src/pluralrw under %s" % ROOT)
    sys.path.insert(0, SRC)
    from pluralrw import harness, repl

    return harness, repl


def _capture_streams(repl):
    """Keep the stream each eval starts, so a drained stream can say
    whether it was complete (calculi) or cut by its bound (rewriting)."""
    last = {}

    def keep(fn):
        def wrapped(*args, **kwargs):
            last["stream"] = fn(*args, **kwargs)
            return last["stream"]

        return wrapped

    repl.enumerate_values = keep(repl.enumerate_values)
    repl.reachable = keep(repl.reachable)
    return last


def _paper_setup(repl, jobs):
    """One loaded session per job, so a job's stream and memo die with
    it instead of staying alive beside the next job's."""
    sessions = []
    for job in jobs:
        session = repl.Session()
        session.execute("load " + os.path.join(ROOT, job.program))
        if job.engine == paperjobs.PST:
            session.execute("showTr")
        sessions.append(session)
    return sessions


def _run_paper(ops, sessions, jobs, last, tr):
    def command(session, line, span):
        if tr is None:
            return session.execute(line)
        tr.enter(span)
        try:
            return session.execute(line)
        finally:
            tr.exit()

    for i, job in enumerate(jobs):
        session = sessions[i]
        sessions[i] = None
        session.execute("semantics " + job.semantics)
        session.execute("engine " + job.engine)
        answers = []

        def query():
            last.clear()
            lines = command(session, "eval " + job.query, "repl.eval")
            while lines[0].startswith("Result: "):
                answers.append(lines[0][len("Result: "):])
                lines = command(session, "more", "repl.more")
            if lines not in (["No solution."], ["No more solutions."]):
                return False, False
            stream = last["stream"]
            if hasattr(stream, "complete"):
                definite = stream.complete
            else:
                definite = not stream.exhausted
            return job.verdict(frozenset(answers)), definite

        status = ops.run(job.label, query)
        if job.show_path and status != "ok":
            # no last result to show a path for: the op fails with its query
            ops.record(job.label + " / show path", 0.0, status)
        elif job.show_path:

            def show_path():
                lines = command(session, "show path", "repl.show_path")
                found = bool(answers) and lines[-1].startswith("-> %s   [" % answers[-1])
                return found, found

            ops.run(job.label + " / show path", show_path)
        # a rewrite stream is a generator that refers back to its session;
        # reboot breaks that cycle so the search is freed now, not at the
        # next cyclic collection
        session.execute("reboot")


_CHECKS = {
    "hierarchy": "check_hierarchy",
    "pst": "check_pst_adequacy",
    "cab": "check_cab_equivalence",
    "bubbling": "check_bubbling",
    "compress": "check_compress",
}


def _run_harness(ops, harness, seeds):
    """Each check the suites make is one op. A check that crashed or ran
    past its cap is handed back to run_suite as refused, so the suite
    goes on; the op record keeps the failure. Counterexamples go to
    stderr."""
    for suite, name in _CHECKS.items():
        check = getattr(harness, name)

        def wrapped(*args, _suite=suite, _check=check):
            got = []

            def op():
                report = _check(*args)
                got.append(report)
                return report.ok or report.refused, not report.refused

            ops.run(_suite, op, span="harness." + _suite)
            return got[0] if got else harness.CheckReport(_suite, False, refused=True)

        setattr(harness, name, wrapped)
    for suite in harness.GATING_SUITES:
        harness.run_suite(suite, seeds, HARNESS_DEPTH,
                          out=lambda line: print(line, file=sys.stderr))


def main(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--budget", type=float, required=True)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--harness-seeds", default="1..40")
    args = p.parse_args(argv)
    deadline = time.perf_counter() + args.budget
    signal.signal(signal.SIGALRM, _alarm)

    paper = {"paper-denote": paperjobs.PAPER_DENOTE, "paper-rewrite": paperjobs.PAPER_REWRITE}
    if args.workload not in paper and args.workload != "harness-gate":
        raise SystemExit("perfbench: unknown workload %r" % args.workload)

    # set-up: import the program, then load and transform what the jobs use
    t_setup = time.perf_counter()
    harness, repl = _import_program()
    tr = None
    if args.trace:
        import layers

        tr = benchstats.Tracer()
        layers.install(tr)
    last = _capture_streams(repl)
    jobs = paper.get(args.workload)
    if jobs:
        sessions = _paper_setup(repl, jobs)
    setup_s = time.perf_counter() - t_setup
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    ops = Ops(deadline, tr)
    t0, c0 = time.perf_counter(), time.process_time()
    if jobs:
        _run_paper(ops, sessions, jobs, last, tr)
    else:
        _run_harness(ops, harness, benchstats.parse_seeds(args.harness_seeds))
    wall_s = time.perf_counter() - t0
    cpu_s = time.process_time() - c0
    out = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ops": ops.records,
    }
    if tr is not None:
        from pluralrw.terms import Term

        live = sum(1 for o in gc.get_objects() if type(o) is Term)
        judged = {s: sum(r["definite"] for r in ops.records if r["label"] == s)
                  for s in harness.GATING_SUITES}
        out["layers"] = layers.per_layer(tr, live, judged)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
