"""Per-layer tracing from outside the program.

`install` replaces the names through which one pluralrw module calls
another with wrappers that record spans and counts in a Tracer. Each
name is patched where the calling module binds it (`calculi.match_value`
is the name calculi imported from terms), so a span says which layer
called which; methods are patched on their class. Nothing under src/
changes. `per_layer` turns the tracer's sums into the metrics named in
BENCHMARK.json: `_ms` metrics of the repl and harness ops are inclusive
op time, all other `_ms` metrics are self time.
"""

from pluralrw import calculi, disjsubst, harness, repl, rewriting

from benchstats import ratio, subset_candidates

SUITES = harness.GATING_SUITES

# spans that time whole ops; the worker opens them
OP_SPANS = ("repl.eval", "repl.more", "repl.show_path") + tuple(
    "harness." + s for s in SUITES
)

# (module, name bound there, span name)
_SPANS = (
    (repl, "parse_program", "syntax.parse"),
    (repl, "parse_expression", "syntax.parse"),
    (repl, "format_term", "syntax.format"),
    (repl, "format_rule", "syntax.format"),
    (repl, "format_program", "syntax.format"),
    (calculi, "format_term", "syntax.format"),
    (harness, "format_term", "syntax.format"),
    (harness, "format_program", "syntax.format"),
    (repl, "pst", "transform.pst"),
    (harness, "pst_optimized", "transform.pst"),
    (harness, "pst_simple", "transform.pst"),
    (repl, "is_class_cab", "transform.cab"),
    (harness, "is_class_cab", "transform.cab"),
    (calculi, "question_combine_set", "disjsubst.combine"),
    (calculi, "down_closure", "terms.down_closure"),
    (disjsubst, "apply_subst", "terms.apply_subst.disjsubst"),
    (rewriting, "apply_subst", "terms.apply_subst.rewriting"),
    (rewriting, "replace_at", "terms.replace_at"),
)


def _span(tr, name, fn):
    enter, leave = tr.enter, tr.exit

    def wrapped(*args, **kwargs):
        enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            leave()

    return wrapped


def _match(tr, caller, fn):
    enter, leave, counts = tr.enter, tr.exit, tr.counts
    name = "terms.match." + caller
    hits = name + ".hits"

    def wrapped(pattern, value):
        enter(name)
        try:
            m = fn(pattern, value)
        finally:
            leave()
        if m is not None:
            counts[hits] += 1
        return m

    return wrapped


def _maximal(tr, fn):
    enter, leave, counts = tr.enter, tr.exit, tr.counts

    def wrapped(thetas):
        enter("disjsubst.maximal")
        try:
            thetas = list(thetas)
            kept = fn(thetas)
        finally:
            leave()
        counts["disjsubst.maximal.in"] += len(thetas)
        counts["disjsubst.maximal.out"] += len(kept)
        return kept

    return wrapped


def _subsets(tr, fn):
    enter, leave, counts = tr.enter, tr.exit, tr.counts

    def wrapped(thetas, width):
        counts["disjsubst.subsets.candidates"] += subset_candidates(len(thetas), width)
        it = fn(thetas, width)
        while True:
            # time only the generator's own steps, not the consumer's
            enter("disjsubst.subsets")
            try:
                combo = next(it)
            except StopIteration:
                return
            finally:
                leave()
            counts["disjsubst.subsets.yielded"] += 1
            yield combo

    return wrapped


def _install_calculi(tr):
    enter, leave, counts = tr.enter, tr.exit, tr.counts
    enum = calculi.Enumerator
    values, confirm, begin = enum.values, enum.confirm_fixpoint, enum.begin_sweep
    inside = [False]

    def traced_values(self, expr, k):
        counts["calculi.values_calls"] += 1
        if inside[0]:
            return values(self, expr, k)
        # an outermost call outside confirm_fixpoint is one depth's sweep
        inside[0] = True
        enter("calculi.sweep")
        try:
            return values(self, expr, k)
        finally:
            leave()
            inside[0] = False

    def traced_confirm(self, depth):
        inside[0] = True
        enter("calculi.confirm")
        try:
            return confirm(self, depth)
        finally:
            leave()
            inside[0] = False

    def traced_begin(self):
        counts["calculi.sweeps"] += 1
        return begin(self)

    enum.values = traced_values
    enum.confirm_fixpoint = traced_confirm
    enum.begin_sweep = traced_begin

    stream_next = calculi.DenotationStream.__next__

    def traced_next(self):
        try:
            return stream_next(self)
        except calculi.BudgetExceeded:
            counts["calculi.capped"] += 1
            raise

    calculi.DenotationStream.__next__ = traced_next


def _install_disjsubst(tr):
    counts = tr.counts
    cls = disjsubst.DisjSubst
    init = cls.__init__

    def counted_init(self, alts):
        counts["disjsubst.built"] += 1
        init(self, alts)

    cls.__init__ = counted_init
    cls.apply = _span(tr, "disjsubst.apply", cls.apply)
    calculi.maximal_substs = _maximal(tr, calculi.maximal_substs)
    calculi.compressible_subsets = _subsets(tr, calculi.compressible_subsets)


def _install_rewriting(tr):
    enter, leave, counts = tr.enter, tr.exit, tr.counts
    search = {"seen": set()}

    def starts_search(fn):
        # every search routine takes its start expression second
        def wrapped(*args, **kwargs):
            search["seen"] = {args[1]}
            return fn(*args, **kwargs)

        return wrapped

    def traced_one_step(fn):
        def wrapped(program, expr):
            enter("rewriting.one_step")
            try:
                steps = fn(program, expr)
            finally:
                leave()
            seen = search["seen"]
            fresh = 0
            for step in steps:
                if step.result not in seen:
                    seen.add(step.result)
                    fresh += 1
            counts["rewriting.successors"] += len(steps)
            counts["rewriting.new"] += fresh
            return steps

        return wrapped

    repl.reachable = starts_search(repl.reachable)
    repl._find_path = starts_search(repl._find_path)
    harness._bounded_reach = starts_search(harness._bounded_reach)
    for module in (rewriting, repl, harness):
        module.one_step = traced_one_step(module.one_step)
    rewriting.match_value = _match(tr, "rewriting", rewriting.match_value)


def install(tr):
    """Wrap every traced name; call once per process, before set-up."""
    for module, name, span in _SPANS:
        setattr(module, name, _span(tr, span, getattr(module, name)))
    calculi.match_value = _match(tr, "calculi", calculi.match_value)
    _install_calculi(tr)
    _install_disjsubst(tr)
    _install_rewriting(tr)


def per_layer(tr, live_terms, judged):
    """The per-layer metrics. `judged` maps each suite to its count of
    checks with a definite verdict. `bench.unattributed_ms` is op time
    inside no layer span: REPL and harness code, and the loops of
    DenotationStream and ReachStream."""
    def self_ms(name):
        return 1000.0 * tr.self_s.get(name, 0.0)

    def op_ms(name):
        return 1000.0 * tr.total_s.get(name, 0.0)

    c, calls = tr.counts, tr.calls
    out = {
        "repl.eval_ms": op_ms("repl.eval"),
        "repl.more_ms": op_ms("repl.more"),
        "repl.show_path_ms": op_ms("repl.show_path"),
        "syntax.parse_ms": self_ms("syntax.parse"),
        "syntax.format_ms": self_ms("syntax.format"),
        "transform.pst_ms": self_ms("transform.pst"),
        "transform.cab_ms": self_ms("transform.cab"),
        "calculi.sweeps": c["calculi.sweeps"],
        "calculi.sweep_ms": self_ms("calculi.sweep"),
        "calculi.confirm_ms": self_ms("calculi.confirm"),
        "calculi.values_calls": c["calculi.values_calls"],
        "calculi.capped": c["calculi.capped"],
        "disjsubst.combine_calls": calls["disjsubst.combine"],
        "disjsubst.combine_ms": self_ms("disjsubst.combine"),
        "disjsubst.subsets_ms": self_ms("disjsubst.subsets"),
        "disjsubst.subsets_yield_ratio": ratio(
            c["disjsubst.subsets.yielded"], c["disjsubst.subsets.candidates"]),
        "disjsubst.maximal_ms": self_ms("disjsubst.maximal"),
        "disjsubst.maximal_kept_ratio": ratio(
            c["disjsubst.maximal.out"], c["disjsubst.maximal.in"]),
        "disjsubst.apply_ms": self_ms("disjsubst.apply"),
        "disjsubst.built": c["disjsubst.built"],
        "terms.down_closure_ms": self_ms("terms.down_closure"),
        "terms.replace_at_calls": calls["terms.replace_at"],
        "terms.replace_at_ms": self_ms("terms.replace_at"),
        "terms.live_terms": live_terms,
        "rewriting.nodes": calls["rewriting.one_step"],
        "rewriting.one_step_ms": self_ms("rewriting.one_step"),
        "rewriting.successors": c["rewriting.successors"],
        "rewriting.new_ratio": ratio(c["rewriting.new"], c["rewriting.successors"]),
        "bench.unattributed_ms": sum(self_ms(n) for n in OP_SPANS),
    }
    for caller in ("calculi", "rewriting"):
        span = "terms.match." + caller
        out["terms.match_calls." + caller] = calls[span]
        out["terms.match_ms." + caller] = self_ms(span)
        out["terms.match_hit_ratio." + caller] = ratio(c[span + ".hits"], calls[span])
    for caller in ("disjsubst", "rewriting"):
        out["terms.apply_subst_ms." + caller] = self_ms("terms.apply_subst." + caller)
    for suite in SUITES:
        out["harness.%s_ms" % suite] = op_ms("harness." + suite)
        out["harness.%s_judged_ratio" % suite] = ratio(judged[suite], calls["harness." + suite])
    return out
