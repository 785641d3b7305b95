"""Randomized differential checks across the semantics implementations.

Small constructor-based programs are generated deterministically from a
seed, then the per-mode denotations are computed at matched bounds and
compared against the inclusions they must satisfy. Violations come out as
machine-readable witness lines, one per line: program text, expression,
semantics pair, witness term. A command line runner drives seed ranges.

Every check judges by one rule. A semantics is deepened through the
scales of _GROW_FACTORS, which multiply its depth; its value cap stays
VALUE_CAP. A side deepens by continuing its own stream, which keeps its
yields and sweeps on from the depth it reached; a seed's checks share
one engine per program and semantics (_Engines, _Side). Run-time choice,
the source programs' and the pST outputs', is enumerated by call-by-need
(rewriting.NeedEnumerator), not by a walk over rewrite steps, at a depth
_RUN_TIME_SCALE times the check's. Any bounded set is a sound subset of
its denotation, so coverage at any scale proves an inclusion; only a set
with a proven fixpoint can condemn one (equality needs both sides proven
at the same scale). A set cut by a value cap stops the deepening. A
check whose judgements were all cut short, and that found no violation,
refuses to judge rather than cry wolf.
"""

from __future__ import annotations

import argparse
import random
import sys
from itertools import product
from typing import FrozenSet, List, Optional, Sequence, Tuple

from .calculi import (
    ALPHA,
    BETA,
    BudgetExceeded,
    CALL_TIME,
    Enumerator,
    maximal_terms,
)
from .disjsubst import image_of, is_compressible
from .rewriting import NeedEnumerator
# one_step is bound here for perfbench/layers.py, which traces it by module
from .rewriting import one_step  # noqa: F401
from .sweep import DenotationStream
from .syntax import Program, assemble_program, format_program, format_term
from .terms import APP, BOT, Term, app, apply_subst, term_key, var
from .transform import is_class_cab, pst_optimized, pst_simple

HOLE_NAME = "HOLE"
HOLE = var(HOLE_NAME)

_CONSTRUCTORS = (("0", 0), ("1", 0), ("c", 1), ("d", 2))

GATING_SUITES = ("hierarchy", "pst", "cab", "bubbling", "compress")
SUITES = GATING_SUITES + ("rightlinear",)


_MAX_FUNCTIONS = 3
_MAX_ARITY = 2
_MAX_RULES = 3
_MAX_RHS_DEPTH = 3


class GenConfig:
    """Knobs for the random program generator. Deterministic per seed."""

    __slots__ = ("seed", "shared_var_prob", "force_cab")

    def __init__(self, seed: int, shared_var_prob: float = 0.35, force_cab: bool = False):
        if not 0.0 <= shared_var_prob <= 1.0:
            raise ValueError("shared_var_prob must be a probability")
        self.seed = seed
        self.shared_var_prob = shared_var_prob
        self.force_cab = force_cab


def _gen_pattern(rng: random.Random, cons, depth: int, namer) -> Term:
    roll = rng.random()
    if depth <= 0 or roll < 0.45:
        return var(namer())
    name, ar = rng.choice(cons)
    return app(name, tuple(_gen_pattern(rng, cons, depth - 1, namer) for _ in range(ar)))


def _gen_rhs(rng, cons, callables, recursive, arg_vars, cfg, used_by_arg, used):
    """One rhs term. `used_by_arg`/`used` persist across the whole rhs so
    the force-C_AB discipline (one rhs variable per lhs argument) and the
    shared-variable bias see every choice made so far."""

    def pick_var() -> Optional[Term]:
        if used and rng.random() < cfg.shared_var_prob:
            return var(rng.choice(sorted(used)))
        open_args = []
        for i, names in enumerate(arg_vars):
            if not names:
                continue
            if cfg.force_cab and i in used_by_arg:
                open_args.append((i, [used_by_arg[i]]))
            else:
                open_args.append((i, names))
        if not open_args:
            return None
        i, names = rng.choice(open_args)
        name = rng.choice(names)
        used_by_arg.setdefault(i, name)
        used.add(name)
        return var(name)

    def build(depth: int, allow_rec: bool, fun_budget: int) -> Term:
        roll = rng.random()
        if depth <= 0:
            picked = pick_var() if roll < 0.5 else None
            if picked is not None:
                return picked
            return app(rng.choice([n for n, a in cons if a == 0]))
        if roll < 0.3:
            picked = pick_var()
            if picked is not None:
                return picked
            roll = 0.5
        if allow_rec and recursive is not None and fun_budget > 0 and roll > 0.78:
            fname, arity, j, inner = recursive
            args = [
                var(inner) if i == j else build(0, False, 0) for i in range(arity)
            ]
            return app(fname, tuple(args))
        if callables and fun_budget > 0 and roll > 0.62:
            fname, arity = rng.choice(callables)
            return app(
                fname,
                tuple(build(depth - 1, False, fun_budget - 1) for _ in range(arity)),
            )
        name, ar = rng.choice(cons)
        return app(name, tuple(build(depth - 1, allow_rec, fun_budget) for _ in range(ar)))

    # composition towers multiply value sets, so only two nested calls
    return build(_MAX_RHS_DEPTH, True, 2)


def gen_program(cfg: GenConfig) -> Program:
    """A valid left-linear constructor-based program, deterministic in
    cfg.seed. Function calls are acyclic except for self-recursion that
    routes a variable from strictly inside a constructor pattern back into
    the same argument position, so rewriting always terminates."""
    rng = random.Random(cfg.seed)
    cons = list(_CONSTRUCTORS)
    funs = [
        ("f%d" % (i + 1), rng.randint(1, _MAX_ARITY))
        for i in range(rng.randint(1, _MAX_FUNCTIONS))
    ]
    raw: List[Tuple[Term, Term]] = []
    for fi, (fname, arity) in enumerate(funs):
        for _ in range(rng.randint(1, _MAX_RULES)):
            counter = [0]

            def namer():
                counter[0] += 1
                return "X%d" % counter[0]

            pats = [_gen_pattern(rng, cons, 2, namer) for _ in range(arity)]
            lhs = app(fname, tuple(pats))
            arg_vars = [sorted(p.varset) for p in pats]
            recursive = None
            guarded = [
                (j, p) for j, p in enumerate(pats) if p.kind == APP and p.varset
            ]
            if guarded and rng.random() < 0.3:
                j, p = rng.choice(guarded)
                recursive = (fname, arity, j, rng.choice(sorted(p.varset)))
            rhs = _gen_rhs(
                rng, cons, funs[:fi], recursive, arg_vars, cfg, {}, set()
            )
            raw.append((lhs, rhs))
    return assemble_program("gen-%d" % cfg.seed, raw)


def gen_ground_expr(program: Program, rng: random.Random, max_depth: int = 3) -> Term:
    """A random ground expression over the program's signature, mixing
    function calls, constructor terms and the choice operator."""
    sig = program.signature
    funs = sorted(
        (n, a) for n, a in sig.functions.items() if n not in ("?", "if_then")
    )
    cons = sorted(
        (n, a) for n, a in sig.constructors.items() if n not in ("tt", "ff")
    )
    nullary = [n for n, a in cons if a == 0] or ["tt"]

    def build(depth: int, fun_budget: int) -> Term:
        if depth <= 0:
            return app(rng.choice(nullary))
        roll = rng.random()
        if funs and fun_budget > 0 and roll < 0.55:
            fname, arity = rng.choice(funs)
            return app(fname, tuple(build(depth - 1, fun_budget - 1) for _ in range(arity)))
        if roll < 0.75:
            return app("?", (build(depth - 1, fun_budget), build(depth - 1, fun_budget)))
        name, ar = rng.choice(cons if cons else [("tt", 0)])
        return app(name, tuple(build(depth - 1, fun_budget) for _ in range(ar)))

    return build(max_depth, 2)


class CheckReport:
    """Outcome of one differential check.

    ok is the verdict; failures holds machine-readable witness lines.
    refused marks inputs the check declines to judge (e.g. a non-constructor
    context, or a check whose judgements were all cut short)."""

    __slots__ = ("name", "ok", "failures", "refused")

    def __init__(self, name, ok, failures=(), refused=False):
        self.name = name
        self.ok = ok
        self.failures = tuple(failures)
        self.refused = refused

    def __repr__(self):
        state = "refused" if self.refused else ("ok" if self.ok else "FAIL")
        return "<CheckReport %s %s failures=%d>" % (self.name, state, len(self.failures))


def witness_line(program: Program, expr: Term, pair: str, witness: Term) -> str:
    text = " ".join(format_program(program).split())
    return "\t".join((text, format_term(expr), pair, format_term(witness)))


VALUE_CAP = 2_000
# the mode under which an engine table keeps a program's NeedEnumerator
_RUN_TIME = "run-time"


class _Engines:
    """The engines of one seed's checks: an Enumerator per (program,
    mode) and a NeedEnumerator per program, made on first use at
    VALUE_CAP, and the pST outputs of each source program. The seed's
    checks share their memo, frozen table and caches, which any queries
    may share (calculi.Enumerator), and the table dies with the seed."""

    __slots__ = ("_engines", "_pst")

    def __init__(self):
        self._engines = {}
        self._pst = {}

    def engine(self, program: Program, mode: str):
        key = program, mode
        got = self._engines.get(key)
        if got is None:
            got = self._engines[key] = (
                NeedEnumerator(program, value_budget=VALUE_CAP) if mode == _RUN_TIME
                else Enumerator(program, mode, value_budget=VALUE_CAP))
        return got

    def pst(self, program: Program) -> Tuple[Program, Program]:
        """The optimized and the simple pST output of program."""
        got = self._pst.get(program)
        if got is None:
            got = self._pst[program] = pst_optimized(program).output, pst_simple(program).output
        return got


def _drain(stream, got, depth):
    """Continues stream to the depth bound, appending what it yields to
    got, the values of its earlier bounds. Every harness query passes
    through here. Returns the maximal values yielded so far, whether the
    stream proved its fixpoint (everything below the yields is then the
    whole denotation), and whether the enumeration was abandoned because
    it outgrew VALUE_CAP, which counts the yields and, as the engine's
    budget, each memoized set, and for a NeedEnumerator each match list.
    A capped set is still a sound subset of the real one, but proves
    nothing about what the semantics cannot reach."""
    stream.deepen(depth)
    try:
        for t in stream:
            got.append(t)
            if len(got) > VALUE_CAP:
                return frozenset(got), False, True
    except BudgetExceeded:
        return frozenset(got), False, True
    return frozenset(got), stream.complete, False


def _totals(terms: FrozenSet[Term]) -> FrozenSet[Term]:
    return frozenset(t for t in terms if t.total)


_GROW_FACTORS = (1, 2, 4)
# a run-time variable binds its argument unevaluated, so the argument's
# unfoldings count again inside the body that uses it, where a calculus
# binds values: run-time sets get this many times the check's depth
_RUN_TIME_SCALE = _GROW_FACTORS[-1]


class _Side:
    """One semantics of one check on one expression, deepened on demand.
    at(f) is the (values, complete, capped) of scale f, computed at most
    once (_drain): the stream's yields to depth*f. The scales are asked in
    increasing order. The side deepens by continuing its one stream, on
    the seed's shared engine: the bound rises, and the yields it has are
    kept. A fresh stream at the deeper bound makes the same sweeps and
    proof attempts and yields the same values."""

    __slots__ = ("_depth", "_stream", "_got", "_at")

    def __init__(self, program: Program, mode: str, expr: Term, depth: int, engines: _Engines):
        self._depth = depth
        self._stream = DenotationStream(engines.engine(program, mode), expr, depth)
        self._got: List[Term] = []
        self._at = {}

    def at(self, f: int):
        got = self._at.get(f)
        if got is None:
            got = self._at[f] = _drain(self._stream, self._got, self._depth * f)
        return got

    def totals(self) -> FrozenSet[Term]:
        """The total values at the check's own bound (scale 1)."""
        return _totals(self.at(1)[0])


def _bounded_reach(program, expr, depth, engines) -> _Side:
    """The total c-terms rewriting reaches from expr, by call-by-need
    enumeration, as a side of a check."""
    return _Side(program, _RUN_TIME, expr, depth * _RUN_TIME_SCALE, engines)


class _Judge:
    """Witness lines and refusal state of one check on one expression.
    Values that a judgement finds missing deepen the larger side before
    they count."""

    def __init__(self, program: Program, expr: Term):
        self.program = program
        self.expr = expr
        self.failures: List[str] = []
        self.inconclusive = False

    def condemn(self, pair: str, missing) -> None:
        for t in sorted(missing, key=term_key):
            self.failures.append(witness_line(self.program, self.expr, pair, t))

    def included(self, pair: str, small: FrozenSet[Term], big: _Side) -> None:
        """small lies inside the denotation of big. Values already present
        in an argument can take many levels to propagate through rule
        bodies (a disjunctive binding unfolds one alternative per level),
        so a single doubling is not enough."""
        missing = small
        for f in _GROW_FACTORS:
            got, complete, capped = big.at(f)
            if small <= got:
                return
            if capped:
                break
            missing = missing - got
            if complete:
                self.condemn(pair, missing)
                return
        self.inconclusive = True

    def equal(self, pair: str, a: _Side, b: _Side) -> None:
        """a and b have one denotation, judged only where both sets are
        proven complete at the same scale. A side's denotation is what lies
        below its yields, which can hold comparable values, as bounded sets
        are not monotone in depth. The denotations differ exactly when a
        maximal value of all the yields came from one side only."""
        for f in _GROW_FACTORS:
            got_a, complete_a, capped_a = a.at(f)
            got_b, complete_b, capped_b = b.at(f)
            if complete_a and complete_b:
                self.condemn(pair, maximal_terms(got_a | got_b) - (got_a & got_b))
                return
            if capped_a or capped_b:
                break
        self.inconclusive = True

    def report(self, name: str) -> CheckReport:
        if self.inconclusive and not self.failures:
            return CheckReport(name, False, refused=True)
        return CheckReport(name, not self.failures, self.failures)


def check_hierarchy(program: Program, expr: Term, depth: int, engines: _Engines) -> CheckReport:
    """Total values must grow along call-time, run-time, beta, alpha."""
    ct = _Side(program, CALL_TIME, expr, depth, engines)
    rt = _bounded_reach(program, expr, depth, engines)
    beta = _Side(program, BETA, expr, depth, engines)
    alpha = _Side(program, ALPHA, expr, depth, engines)
    judge = _Judge(program, expr)
    judge.included("%s<=run-time" % CALL_TIME, ct.totals(), rt)
    judge.included("run-time<=%s" % BETA, rt.totals(), beta)
    judge.included("%s<=%s" % (BETA, ALPHA), beta.totals(), alpha)
    return judge.report("hierarchy")


def check_cab_equivalence(program: Program, expr: Term, depth: int,
                          engines: _Engines) -> CheckReport:
    """Alpha and beta total values agree on programs whose rules pass at
    most one variable per argument to the rhs: mutual inclusion."""
    member, _ = is_class_cab(program)
    if not member:
        return CheckReport("cab", False, refused=True)
    alpha = _Side(program, ALPHA, expr, depth, engines)
    beta = _Side(program, BETA, expr, depth, engines)
    judge = _Judge(program, expr)
    judge.included("%s<=%s" % (ALPHA, BETA), alpha.totals(), beta)
    judge.included("%s<=%s" % (BETA, ALPHA), beta.totals(), alpha)
    return judge.report("cab")


def check_pst_adequacy(program: Program, expr: Term, depth: int,
                       engines: _Engines) -> CheckReport:
    """Rewriting the transformed program must stay inside the alpha-plural
    totals of the source, and must reach all of them when both sides
    prove their fixpoints. Where both are proven, the simple and optimized
    transforms must reach identical totals."""
    opt, sim = engines.pst(program)
    reached, complete, _capped = _bounded_reach(opt, expr, depth, engines).at(1)
    alpha = _Side(program, ALPHA, expr, depth, engines)
    judge = _Judge(program, expr)
    judge.included("pst-reach<=%s" % ALPHA, reached, alpha)
    if complete and alpha.at(1)[1]:  # alpha proved its fixpoint
        judge.condemn("%s<=pst-reach" % ALPHA, alpha.totals() - reached)
    if complete:
        # an unproven set cannot be judged equal to anything
        plain, plain_complete, _capped = _bounded_reach(sim, expr, depth, engines).at(1)
        if plain_complete:
            judge.condemn("pst-simple=pst-optimized", plain ^ reached)
    return judge.report("pst")


def _hole_positions(context: Term) -> int:
    if context is HOLE:
        return 1
    if context.kind == APP:
        return sum(_hole_positions(c) for c in context.children)
    return 0


def is_c_context(context: Term, program: Program) -> bool:
    """One hole, and every application node is a constructor."""
    if _hole_positions(context) != 1:
        return False
    stack = [context]
    while stack:
        t = stack.pop()
        if t.kind == APP:
            if program.signature.is_function(t.name):
                return False
            stack.extend(t.children)
    return True


def plug(context: Term, filler: Term) -> Term:
    return apply_subst(context, {HOLE_NAME: filler})


def check_bubbling(program: Program, context: Term, e1: Term, e2: Term, depth: int,
                   engines: _Engines) -> CheckReport:
    """A choice below a constructor context may bubble to the top: the
    value sets of C[e1?e2] and C[e1]?C[e2] agree under the plural modes.
    Contexts containing function symbols are refused, the law does not
    cover them."""
    if not is_c_context(context, program):
        return CheckReport("bubbling", False, refused=True)
    inside = plug(context, app("?", (e1, e2)))
    outside = app("?", (plug(context, e1), plug(context, e2)))
    judge = _Judge(program, inside)
    for mode in (ALPHA, BETA):
        # equality, not inclusion: the rootward choice shifts depths, so
        # bounded sets differ transiently
        a = _Side(program, mode, inside, depth, engines)
        # a bare hole makes both sides one interned expression
        b = a if outside is inside else _Side(program, mode, outside, depth, engines)
        judge.equal("bubbling-%s" % mode, a, b)
    return judge.report("bubbling")


def brute_force_compressible(thetas: Sequence[dict]) -> bool:
    """Definition form: the realized image tuples must be the full product
    of the per-variable image columns."""
    pool = [dict(t) for t in thetas]
    names = sorted(set().union(*pool) if pool else set())
    if not names:
        return True
    realized = {tuple(image_of(t, x) for x in names) for t in pool}
    columns = [{image_of(t, x) for t in pool} for x in names]
    return realized == set(product(*columns))


_THETA_IMAGES = (
    BOT,
    app("0"),
    app("1"),
    app("c", (app("0"),)),
    app("c", (BOT,)),
    app("d", (app("0"), app("1"))),
    app("d", (var("X"), app("1"))),
)


def random_theta_set(seed: int, max_substs: int = 5) -> List[dict]:
    rng = random.Random(seed)
    names = rng.sample(("X", "Y", "Z"), rng.randint(1, 3))
    out = []
    for _ in range(rng.randint(1, max_substs)):
        theta = {}
        for x in names:
            if rng.random() < 0.85:
                theta[x] = rng.choice(_THETA_IMAGES)
        out.append(theta)
    return out


def check_compress(seed: int) -> CheckReport:
    """The compressibility test must agree with the brute-force product
    construction on a random substitution set."""
    thetas = random_theta_set(seed)
    got = is_compressible(thetas)
    want = brute_force_compressible(thetas)
    if got == want:
        return CheckReport("compress", True)
    desc = "; ".join(
        "[%s]" % ", ".join("%s/%s" % (x, format_term(t[x])) for x in sorted(t))
        for t in thetas
    )
    line = "\t".join((desc, "-", "is_compressible=brute-force", "got=%s want=%s" % (got, want)))
    return CheckReport("compress", False, (line,))


def check_right_linear(program: Program, expr: Term, depth: int,
                       engines: _Engines) -> CheckReport:
    """Exploratory: on right-linear programs call-time and beta-plural
    totals are expected to agree. Counterexamples are reported for study
    and never gate anything."""
    from .terms import is_linear

    if not all(is_linear((r.rhs,)) for r in program.rules):
        return CheckReport("rightlinear", False, refused=True)
    ct = _Side(program, CALL_TIME, expr, depth, engines)
    beta = _Side(program, BETA, expr, depth, engines)
    if ct.at(1)[2] or beta.at(1)[2]:  # either set outgrew the value cap
        return CheckReport("rightlinear", False, refused=True)
    judge = _Judge(program, expr)
    judge.included("%s<=%s" % (BETA, CALL_TIME), beta.totals(), ct)
    return judge.report("rightlinear")


def _expr_rng(seed: int) -> random.Random:
    return random.Random(seed * 1000003 + 17)


def run_suite(suite: str, seeds: Sequence[int], depth: int, out=None) -> Tuple[int, int]:
    """Run one suite over a seed range. Returns (checked, failed) and
    writes witness lines through `out` (default: stdout)."""
    emit = out if out is not None else lambda line: print(line)
    checked = failed = 0

    def record(report: CheckReport):
        nonlocal checked, failed
        if report.refused:
            return
        checked += 1
        if not report.ok:
            failed += 1
            for line in report.failures:
                emit(line)

    for seed in seeds:
        if suite == "compress":
            record(check_compress(seed))
            continue
        force = suite == "cab"
        cfg = GenConfig(seed=seed, force_cab=force)
        if suite == "rightlinear":
            cfg.shared_var_prob = 0.0
        program = gen_program(cfg)
        rng = _expr_rng(seed)
        # the seed's checks share its engines, passed last and by position,
        # as perfbench/worker.py forwards positional arguments only
        engines = _Engines()
        if suite == "hierarchy":
            for _ in range(3):
                record(check_hierarchy(program, gen_ground_expr(program, rng), depth, engines))
        elif suite == "cab":
            for _ in range(3):
                record(check_cab_equivalence(
                    program, gen_ground_expr(program, rng), depth, engines))
        elif suite == "pst":
            # shallow expressions: the transforms copy routed arguments, and
            # each copy of a nested choice is evaluated apart
            for _ in range(2):
                record(check_pst_adequacy(
                    program, gen_ground_expr(program, rng, 2), depth, engines))
        elif suite == "bubbling":
            ctx = _gen_context(program, rng)
            e1 = gen_ground_expr(program, rng, 2)
            e2 = gen_ground_expr(program, rng, 2)
            record(check_bubbling(program, ctx, e1, e2, depth, engines))
        elif suite == "rightlinear":
            for _ in range(3):
                record(check_right_linear(program, gen_ground_expr(program, rng), depth, engines))
        else:
            raise ValueError("unknown suite %r" % suite)
    return checked, failed


def _ground_cterm(rng: random.Random, cons, depth: int) -> Term:
    nullary = [n for n, a in cons if a == 0] or ["tt"]
    if depth <= 0 or rng.random() < 0.4:
        return app(rng.choice(nullary))
    name, ar = rng.choice(cons)
    return app(name, tuple(_ground_cterm(rng, cons, depth - 1) for _ in range(ar)))


def _gen_context(program: Program, rng: random.Random) -> Term:
    """A one- or two-level constructor context with ground c-term siblings."""
    cons = sorted(
        (n, a)
        for n, a in program.signature.constructors.items()
        if n not in ("tt", "ff")
    )
    spine = [(n, a) for n, a in cons if a > 0]
    if not spine:
        return HOLE
    ctx = HOLE
    for _ in range(rng.randint(1, 2)):
        name, ar = rng.choice(spine)
        slot = rng.randrange(ar)
        children = tuple(
            ctx if i == slot else _ground_cterm(rng, cons, 1) for i in range(ar)
        )
        ctx = app(name, children)
    return ctx


def _seeds(text: str) -> range:
    lo, dots, hi = text.partition("..")
    if not lo.isdecimal() or dots and not hi.isdecimal():
        raise argparse.ArgumentTypeError(
            "needs a seed A or a range A..B of non-negative integers, not %r" % text)
    if dots and int(hi) < int(lo):
        raise argparse.ArgumentTypeError("empty seed range %r" % text)
    return range(int(lo), int(hi if dots else lo) + 1)


def _depth(text: str) -> int:
    # at depth 0 every set is {_|_}, at every scale: the checks would judge
    # nothing
    if not text.isdecimal() or int(text) == 0:
        raise argparse.ArgumentTypeError("needs a positive integer, not %r" % text)
    return int(text)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="pluralrw-harness",
        description="differential checks over randomly generated programs",
    )
    parser.add_argument("--seeds", type=_seeds, default="1..20",
                        help="seed range A..B or a single seed")
    parser.add_argument("--depth", type=_depth, default=4, help="enumeration depth bound")
    parser.add_argument("--suite", choices=SUITES, default="hierarchy")
    args = parser.parse_args(argv)
    seeds = args.seeds
    checked, failed = run_suite(args.suite, seeds, args.depth)
    # the seeds in canonical form: A..B, or A for a single seed
    shown = seeds.start if len(seeds) == 1 else "%d..%d" % (seeds.start, seeds[-1])
    print(
        "suite=%s seeds=%s depth=%d checked=%d failed=%d"
        % (args.suite, shown, args.depth, checked, failed),
        file=sys.stderr,
    )
    if args.suite == "rightlinear":
        return 0
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
