"""Independent reference implementations used to cross-check the package,
and the helpers only the tests use.

The references deliberately reimplement the checked operations from their
definitions, by different algorithms than the package uses.
"""

import random
import sys
from collections import deque
from itertools import product
from math import prod

from pluralrw.calculi import (
    _MATCHER_GUARD,
    BudgetExceeded,
    DenotationStream,
    Enumerator,
    enumerate_values,
)
from pluralrw.disjsubst import (
    DisjSubst,
    compressible_subsets,
    image_of,
    is_compressible,
    maximal_substs,
    question_combine_set,
)
from pluralrw.syntax import SG
from pluralrw.terms import (
    APP,
    BOT,
    VAR,
    app,
    apply_subst,
    approx_leq,
    down_closure,
    match_value,
    replace_at,
    term_key,
    var,
)
from pluralrw.rewriting import (
    DEFAULT_BOUND,
    ReachStream,
    RewriteStep,
    reachable,
    total_cterms,
)


_TERM_POOL = (
    BOT,
    app("0"),
    app("1"),
    app("c", (app("0"),)),
    app("c", (app("1"),)),
    app("c", (BOT,)),
    app("d", (app("0"), app("1"))),
)


def random_theta_set(seed, max_substs=5, names=("X", "Y", "Z")):
    """A small random set of plain substitutions; some bindings are left
    out so identity images get exercised."""
    rng = random.Random(seed)
    chosen = rng.sample(names, rng.randint(1, len(names)))
    out = []
    for _ in range(rng.randint(1, max_substs)):
        theta = {}
        for x in chosen:
            if rng.random() < 0.8:
                theta[x] = rng.choice(_TERM_POOL)
        out.append(theta)
    return out


# ---- rewriting: one_step and the breadth-first searches over it, as
# they were before the memoized search replaced them ----


def _redexes(t):
    for i, c in enumerate(t.children, start=1):
        for pos, sub in _redexes(c):
            yield (i,) + pos, sub
    yield (), t


def reference_one_step(program, expr):
    """Every position against every rule, each result rebuilt from the
    root: leftmost-innermost positions, rules in program order."""
    sig = program.signature
    steps = []
    for pos, sub in _redexes(expr):
        if sub.kind != APP or not sig.is_function(sub.name):
            continue
        for idx, rule in enumerate(program.all_rules):
            if rule.name != sub.name:
                continue
            m = match_value(rule.lhs, sub)
            if m is None:
                continue
            result = replace_at(expr, pos, apply_subst(rule.rhs, m))
            steps.append(RewriteStep(idx, pos, m, result))
    return steps


def is_reference_step(program, source, step):
    """Whether step is one of reference_one_step's steps out of source:
    the same rule, position, matcher and result."""
    fields = (step.rule_index, step.position, step.matcher, step.result)
    return any(
        fields == (s.rule_index, s.position, s.matcher, s.result)
        for s in reference_one_step(program, source)
    )


def reference_reach(program, expr, bound, node_cap=sys.maxsize, size_cap=sys.maxsize):
    """(expression, length) pairs in breadth-first visit order, whether the
    bound cut off an expression never reached another way, and whether a
    cap turned one away: expressions larger than size_cap, or met once
    node_cap were seen. Every visited expression is expanded, caps or
    bound regardless."""
    visited = {expr}
    suppressed = set()
    capped = False
    queue = deque(((expr, 0),))
    out = []
    while queue:
        cur, n = queue.popleft()
        out.append((cur, n))
        succs = [s.result for s in reference_one_step(program, cur)]
        if bound is not None and n >= bound:
            suppressed.update(s for s in succs if s not in visited)
            continue
        for s in succs:
            if s in visited:
                continue
            if s.size > size_cap or len(visited) >= node_cap:
                capped = True
                continue
            visited.add(s)
            queue.append((s, n + 1))
    return out, not suppressed.issubset(visited), capped


def depth_first_reach(program, expr, bound, size_cap=sys.maxsize):
    """Every expression within `bound` steps of expr through expressions no
    larger than size_cap, mapped to its shortest derivation length, found
    depth-first: a stack, and an expression expanded again whenever a
    shorter derivation reaches it. Also whether the bound cut off an
    expression never reached, and whether size_cap turned one away from an
    expression below the bound. None of this depends on the search order."""
    succs = {}

    def successors(e):
        if e not in succs:
            succs[e] = [s.result for s in reference_one_step(program, e)]
        return succs[e]

    shortest = {expr: 0}
    stack = [(expr, 0)]
    while stack:
        cur, n = stack.pop()
        if n > shortest[cur] or (bound is not None and n >= bound):
            continue
        for s in reversed(successors(cur)):
            if s.size <= size_cap and n + 1 < shortest.get(s, sys.maxsize):
                shortest[s] = n + 1
                stack.append((s, n + 1))
    below = [e for e, n in shortest.items() if bound is None or n < bound]
    at_bound = [e for e, n in shortest.items() if n == bound]
    exhausted = any(s not in shortest for e in at_bound for s in successors(e))
    capped = any(s.size > size_cap for e in below for s in successors(e))
    return shortest, exhausted, capped


def reference_find_path(program, start, target, bound):
    """A shortest derivation by breadth-first parent links, or None."""
    if target == start:
        return []
    parents = {start: None}
    queue = deque(((start, 0),))
    while queue:
        cur, n = queue.popleft()
        if bound is not None and n >= bound:
            continue
        for step in reference_one_step(program, cur):
            r = step.result
            if r in parents:
                continue
            parents[r] = (cur, step)
            if r == target:
                chain = []
                node = r
                while parents[node] is not None:
                    prev, st = parents[node]
                    chain.append(st)
                    node = prev
                chain.reverse()
                return chain
            queue.append((r, n + 1))
    return None


def down_closed(antichain):
    """The down-closed value set an enumerator's antichain stands for."""
    return frozenset().union(*map(down_closure, antichain))


# ---- calculi: the singular and alpha-plural matcher choice as it was
# before only the maximal values were matched ----


def reference_maximal_matchers(pattern, dom, vset):
    """The maximal matchers of a down-closed value set restricted to dom:
    match every value of the set, restrict each matcher, keep the maximal
    ones."""
    matchers = []
    for t in vset:
        m = match_value(pattern, t)
        if m is not None:
            matchers.append({x: img for x, img in m.items() if x in dom})
    return maximal_substs(matchers)


# ---- calculi: the beta-plural matcher choice as it was before only the
# maximal values were matched and only the maximal compressible sets passed ----


class OracleGaveUp(Exception):
    """The all-subsets reference met more matchers than it can enumerate
    the subsets of."""


# every subset of this many matchers over one variable is compressible:
# 2**12 - 1 choices for one argument
ORACLE_MATCHERS = 12


def reference_beta_choices(pattern, dom, vset, budget):
    """(matchers, ?-combination) pairs of a beta-plural argument: match
    every value of a down-closed set, restrict, deduplicate, then
    ?-combine every compressible subset, of any size, and deduplicate
    again. Gives up past ORACLE_MATCHERS matchers."""
    if pattern.kind == VAR and pattern.name not in dom:
        return [(({},), DisjSubst({}))]
    matchers = []
    seen = set()
    for t in vset:
        m = match_value(pattern, t)
        if m is None:
            continue
        if dom != frozenset(m):
            m = {x: img for x, img in m.items() if x in dom}
        frozen = frozenset(m.items())
        if frozen not in seen:
            seen.add(frozen)
            matchers.append(m)
    if not matchers:
        return []
    if budget is not None and len(matchers) > _MATCHER_GUARD:
        raise BudgetExceeded(
            "%d matchers for one argument overrun the budget" % len(matchers)
        )
    if len(matchers) > ORACLE_MATCHERS:
        raise OracleGaveUp("%d matchers" % len(matchers))
    choices = []
    seen_ds = set()
    for combo in compressible_subsets(matchers, None):
        ds = question_combine_set(combo)
        if ds not in seen_ds:
            seen_ds.add(ds)
            choices.append((combo, ds))
    return choices


class AllSubsetsEnumerator(Enumerator):
    """Each beta-plural argument passes every compressible subset of all
    the matchers of its whole down-closed value set
    (reference_beta_choices); the other arguments choose as the package
    does."""

    def _choose(self, pattern, dom, singular, vset):
        if singular or self._alpha:
            return super()._choose(pattern, dom, singular, vset)
        return reference_beta_choices(pattern, dom, down_closed(vset), self._budget)


# ---- calculi: the built-ins unfolded through their rules, as they were
# before values evaluated them natively ----


class PickedBuiltinsEnumerator(Enumerator):
    """Every call, `?` and `if_then` included, unfolds through its rules:
    one pick per maximal value of a singular argument, and one memo entry
    per instantiated body."""

    def _call_values(self, expr, k):
        parts = []
        for _rule, _per_arg, bodies in self._unfold(expr, k):
            parts.extend(self.values(inst, k - 1) for inst in bodies)
        return self._union(parts)


# ---- calculi: every call's matcher choices and bodies rebuilt per call,
# as they were before the enumerator cached them ----


class UncachedEnumerator(Enumerator):
    """Each call to a user function recomputes every argument's choices
    and every pick's ?-combination and body, with the budget counted pick
    by pick; the built-ins stay native."""

    def _call_values(self, expr, k):
        if k > 0 and expr.name in ("?", "if_then"):
            return super()._call_values(expr, k)
        return self._union([self.values(inst, k - 1) for inst in self._uncached_bodies(expr, k)])

    def _uncached_bodies(self, expr, k):
        if k < 1:
            return
        for rule, doms, tags in self._rules(expr.name):
            per_arg = []
            for i, pattern in enumerate(rule.args):
                vset = self.values(expr.children[i], k - 1)
                choices = self._choose(pattern, doms[i], tags[i] == SG, vset)
                if not choices:
                    break
                per_arg.append(choices)
            else:
                picks = 0
                for pick in product(*per_arg):
                    if self._budget is not None:
                        picks += 1
                        if picks > self._budget:
                            raise BudgetExceeded("substitution picks overrun the budget")
                    yield DisjSubst.join([ds for _, ds in pick]).apply(rule.rhs)


# ---- calculi: every value set kept down-closed, as it was before the
# memo kept only its maximal antichain ----


def closure_size(t):
    """len(down_closure(t)), without building it."""
    if t.kind != APP:
        return 1 if t is BOT else 2
    return 1 + prod(map(closure_size, t.children))


def sweep_maximal_terms(terms):
    """Maximal elements of a down-closed value set: a heavy-to-light sweep
    with domination tested as membership in the kept terms'
    down-closures. Weight strictly decreases along proper approximation,
    so every dominator precedes its victims."""
    kept = []
    closures = []
    for t in sorted(terms, key=lambda t: -t.weight):
        if not any(t in dc for dc in closures):
            kept.append(t)
            closures.append(down_closure(t))
    return frozenset(kept)


class DownClosedEnumerator(Enumerator):
    """Every memoized set holds all of its values, not only the maximal
    ones: a function-free expression's set is its down-closure, a
    constructor's is _|_ and the root over the product of its children's
    sets, and a `?` or call unions its parts. Matching reads the maximal
    values, found by sweep_maximal_terms. The budget counts the members of
    the down-closed sets, and a function-free or constructor set is sized
    before it is built."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._tops = {}

    def values(self, expr, k):
        key = (expr, k)
        got = self._memo.get(key)
        if got is not None:
            return got
        if self._constant(expr):
            self._fit(closure_size(expr))
            result = down_closure(expr)
        elif self.sig.is_function(expr.name):
            result = self._call_values(expr, k)
            self._fit(len(result))
        else:
            result = self._constructor_values(expr, k)
        prev = self._memo.get((expr, k - 1)) if k > 0 else None
        if prev is not result and prev == result:
            result = prev
        self._memo[key] = result
        return result

    def _union(self, parts):
        return frozenset((BOT,)).union(*parts)

    def _constructor_values(self, expr, k):
        child_sets = [self.values(c, k) for c in expr.children]
        self._fit(1 + prod(map(len, child_sets)))
        return frozenset((BOT,)).union(app(expr.name, combo) for combo in product(*child_sets))

    def _choose(self, pattern, dom, singular, vset):
        top = self._tops.get(vset)
        if top is None:
            top = self._tops[vset] = sweep_maximal_terms(vset)
        return super()._choose(pattern, dom, singular, top)


# ---- calculi: the fixpoint check over the whole support, as it was
# before the check walked the root's read-closure ----


class SupportWideEnumerator(Enumerator):
    """Keeps every non-constant expression ever evaluated (the support), in
    the order first touched, and whether the sweep made an entry that
    differs from its depth-1 counterpart (dirty). A check at depth d fails
    on a dirty sweep; otherwise it evaluates the whole support at d, again
    until the support stops growing, and passes if that made no dirty
    entry. A stream calls it only where the root's set repeats, which a
    clean sweep implies, so it proves where the old stream proved."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._support = {}
        self._dirty = True

    def begin_sweep(self):
        self._dirty = False

    def values(self, expr, k):
        got = self._memo.get((expr, k))
        if got is not None:
            return got
        constant = self._constant(expr)
        if not constant:
            self._support[expr] = None  # parents before children
        result = super().values(expr, k)
        if not constant and result is not self._memo.get((expr, k - 1)):
            self._dirty = True
        return result

    def confirm_fixpoint(self, depth):
        if self._dirty:
            return False
        while True:
            snapshot = list(self._support)
            for x in snapshot:
                self.values(x, depth)
            if len(self._support) == len(snapshot):
                return not self._dirty


# ---- helpers only the tests use, over the public enumerator and stream ----


def derives(program, mode, expr, target, depth):
    """A replayable derivation of expr =>> target within the depth bound,
    or None. The derivation uses the least sufficient depth."""
    stream = enumerate_values(program, mode, expr, depth)
    for value in stream:
        if approx_leq(target, value):
            return stream.derivation(target)
    return None


def shell(t, sig):
    """The outer constructor part: function-rooted subterms become _|_."""
    if t.kind != APP:
        return t
    if sig.is_function(t.name):
        return BOT
    return app(t.name, tuple(shell(c, sig) for c in t.children))


def runtime_denotation(program, expr, bound=DEFAULT_BOUND, totals_only=True):
    """The run-time denotation of expr, up to the given derivation length.

    With totals_only, the reachable total c-terms: these are exactly the
    maximal elements of the denotation. Otherwise the full down-closure
    of the shells of all reachable expressions, which is exponential in
    term size and meant for small terms.
    """
    if totals_only:
        return capped_runtime_denotation(program, expr, bound)[0]
    stream = reachable(program, expr, bound)
    out = set()
    for e, _n in stream:
        out |= down_closure(shell(e, program.signature))
    return frozenset(out)


def capped_runtime_denotation(program, expr, bound, node_cap=sys.maxsize,
                              size_cap=sys.maxsize):
    """runtime_denotation's totals by a breadth-first walk under node and
    size caps, and whether the bound or a cap cut the walk: only an uncut
    walk has found the whole denotation."""
    search = ReachStream(program, expr, bound, node_cap, size_cap)
    return frozenset(total_cterms(search)), search.exhausted or search.capped


def values_at(program, mode, expr, depth, totals_only=False, enum=None):
    """The down-closed value set at one exact depth, or its totals."""
    if enum is None:
        enum = Enumerator(program, mode)
    got = enum.values(expr, depth)
    if totals_only:
        return frozenset(t for t in got if t.total)
    return down_closed(got)


def saturated_at(stream):
    """Least depth whose set equals that of the last depth the drained
    stream swept; None when that sweep was still growing an unproven
    bound. The sets come back from the stream's memo."""
    if stream.swept < 0:
        return None
    history = [stream.enum.values(stream.expr, d) for d in range(stream.swept + 1)]
    least = history.index(history[-1])
    if least == stream.swept and not stream.complete:
        return None
    return least


def saturates(program, mode, expr, depth):
    """Least depth at which the value set has already stopped growing, if
    the bound (or a proven fixpoint) shows it stopped; None otherwise."""
    stream = DenotationStream(Enumerator(program, mode), expr, depth)
    for _ in stream:
        pass
    return saturated_at(stream)


def positions(t):
    """All positions of t, root first, children left to right (1-based)."""
    yield ()
    for i, c in enumerate(t.children, start=1):
        for rest in positions(c):
            yield (i,) + rest


def restrict(theta, keep):
    keep = set(keep)
    return {x: t for x, t in theta.items() if x in keep}


def compressible_completion(thetas):
    """cc: all coordinate recombinations, one image per variable per member."""
    pool = [dict(t) for t in thetas]
    if not pool:
        raise ValueError("compressible completion of an empty set")
    names = sorted(set().union(*pool))
    columns = [sorted({image_of(t, x) for t in pool}, key=term_key) for x in names]
    seen = set()
    out = []
    for picked in product(*columns):
        theta = {x: img for x, img in zip(names, picked) if img is not var(x)}
        frozen = frozenset(theta.items())
        if frozen not in seen:
            seen.add(frozen)
            out.append(theta)
    return out


def restrict_compressible(thetas, keep):
    """Restrict a compressible set to a variable subset; stays compressible."""
    pool = [dict(t) for t in thetas]
    if not is_compressible(pool):
        raise ValueError("restrict_compressible: input set is not compressible")
    keep = set(keep)
    seen = set()
    out = []
    for t in pool:
        r = restrict(t, keep)
        frozen = frozenset(r.items())
        if frozen not in seen:
            seen.add(frozen)
            out.append(r)
    assert is_compressible(out)
    return out
