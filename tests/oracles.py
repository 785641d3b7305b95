"""Independent reference implementations used to cross-check the package,
and the helpers only the tests use.

The references deliberately reimplement the checked operations from their
definitions, by different algorithms than the package uses.
"""

import random
import sys
from collections import deque
from itertools import islice, product
from math import prod

from pluralrw.calculi import (
    _MATCHER_GUARD,
    _OR_TAG,
    BETA,
    COMBINED_BETA,
    BudgetExceeded,
    DenotationStream,
    Enumerator,
    _arg_tags,
    _premises,
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
    Term,
    _make,
    app,
    apply_subst,
    approx_leq,
    down_closure,
    match_value,
    replace_at,
    term_key,
    var,
)
from pluralrw.rewriting import NeedEnumerator, RewriteStep, _root_steps, one_step


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


# ---- rewriting: the memoized breadth-first walk over every
# interleaving, which answered run-time and pST queries before the
# call-by-need enumerator ----

DEFAULT_BOUND = 10_000


class ReachStream:
    """Iterator of (expression, derivation length) pairs, deduplicated,
    breadth-first.

    Yields by increasing derivation length, so each length is the
    shortest. `bound` limits that length; None means unbounded, and then
    termination relies on the reachable state space being finite.
    `parents` maps each expression seen to the one it was first reached
    from (None for the start), so its links are shortest derivations.
    Expressions larger than size_cap or past node_cap seen are turned
    away; once drained, `capped` tells whether a cap turned one away, and
    `exhausted` whether the bound cut off one never reached another way.

    An expression is expanded before it is yielded, so `parents` already
    holds its successors, except in two cases where no successor of it
    could enter `parents`. One at the bound is put on a cut list instead.
    One met after the node cap is full and has turned a successor away is
    not expanded at all: each new successor would be turned away too, and
    `capped` is already set. At the drain, `exhausted` is settled from the
    cut list: its successors are built, while the memo still lives, until
    one is not in `parents`. `parents` only grows, so that is the flag a
    check of each successor at its cut gives.
    """

    __slots__ = ("exhausted", "capped", "parents", "program", "_fnames", "bound",
                 "_node_cap", "_size_cap", "_todo", "_cut", "_memo")

    def __init__(self, program, expr, bound, node_cap=sys.maxsize, size_cap=sys.maxsize):
        self.exhausted = self.capped = False
        self.parents = {expr: None}
        self.program, self.bound = program, bound
        self._fnames = frozenset(program.signature.functions)
        self._node_cap, self._size_cap = node_cap, size_cap
        self._todo = deque(((expr, 0),))
        self._cut, self._memo = [], {}  # both dropped once drained

    def __iter__(self):
        return self

    def __next__(self):
        if self._todo:
            return self._expand()
        if self._memo is not None:  # drained just now: settle, drop the memo
            parents = self.parents
            self.exhausted = any(s not in parents for c in self._cut for s in self._successors(c))
            self._memo = self._cut = None
        raise StopIteration

    def _expand(self):
        parents = self.parents
        cur, n = self._todo.popleft()
        if self.bound is not None and n >= self.bound:
            self._cut.append(cur)
            return cur, n
        if self.capped and len(parents) >= self._node_cap:
            return cur, n
        for s in self._successors(cur):
            if s in parents:
                continue
            if s.size > self._size_cap or len(parents) >= self._node_cap:
                self.capped = True
                continue
            parents[s] = cur
            self._todo.append((s, n + 1))
        return cur, n

    def _successors(self, t):
        # the results of one_step(program, t), in its order, memoized
        got = self._memo.get(t)
        if got is None:
            got = ()
            if not t.symbols.isdisjoint(self._fnames):
                kids, name = t.children, t.name
                got = tuple(
                    [_make(APP, name, kids[:i] + (r,) + kids[i + 1:])
                     for i, c in enumerate(kids) for r in self._successors(c)]
                    + [contractum for _i, _m, contractum in _root_steps(self.program, t)]
                )
            self._memo[t] = got
        return got


def reachable(program, expr, bound=DEFAULT_BOUND):
    """Stream the expressions reachable from expr within the
    derivation-length bound (None for none), each exactly once.
    """
    if not expr.total:
        raise ValueError("rewriting inputs must be total expressions")
    if bound is not None and bound < 0:
        raise ValueError("bound must be non-negative")
    return ReachStream(program, expr, bound)


def total_cterms(search):
    """The total c-terms among the expressions a search yields, in its
    order."""
    fnames = search._fnames
    for e, _n in search:
        if e.total and e.symbols.isdisjoint(fnames):
            yield e


def linked_find_path(program, start, target, bound):
    """A shortest derivation of a target reachable within the bound, read
    from a walk's links: each link the first one_step step making its
    expression."""
    search = ReachStream(program, start, bound)
    for _e in search:
        if target in search.parents:
            break
    steps, node, parents = [], target, search.parents
    while parents[node] is not None:
        prev = parents[node]
        steps.append(next(s for s in one_step(program, prev) if s.result is node))
        node = prev
    return steps[::-1]


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
        # an argument the body ignores passes no value set
        if singular or self._alpha or vset is None:
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
        for rule, doms, tags, _build in self._rules(expr.name):
            per_arg = []
            for i, pattern in enumerate(rule.args):
                ignored = pattern.kind == VAR and pattern.name not in doms[i]
                vset = None if ignored else self.values(expr.children[i], k - 1)
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


# ---- both engines: every body built from its rule's builder, checked
# against the join and generic substitution it replaced ----


class JoinedBodiesEnumerator(Enumerator):
    """Checks that every body _instantiate builds is the one that
    DisjSubst.join of its pick's ?-combinations applies to the rule's
    body, pick by pick in product order, the budget cutting both alike;
    `checked` counts the bodies."""

    checked = 0

    def _instantiate(self, rule, build, per_arg):
        bodies, overrun = super()._instantiate(rule, build, per_arg)
        picks = product(*per_arg)
        if self._budget is not None:
            picks = islice(picks, self._budget + 1)
        want = [DisjSubst.join([ds for _, ds in pick]).apply(rule.rhs) for pick in picks]
        assert overrun == (self._budget is not None and len(want) > self._budget)
        assert len(bodies) == len(want[:self._budget])
        assert all(got is body for got, body in zip(bodies, want))
        self.checked += len(bodies)
        return bodies, overrun


class SubstitutedBodiesNeedEnumerator(NeedEnumerator):
    """Each rule's builder checks every body it builds, for
    _build_bodies and for build_path alike, against apply_subst of the
    rule's body under the same match; `checked` counts the bodies."""

    checked = 0

    def _rule_table(self, fname):
        fresh = fname not in self._rules
        table = super()._rule_table(fname)
        if fresh:
            rules = self.program.rules_by_root.get(fname, ())
            table[:] = [(self._checked(build, rule.rhs), patterns, names, plain)
                        for (_i, rule), (build, patterns, names, plain) in zip(rules, table)]
        return table

    def _checked(self, build, rhs):
        def checked(mapping):
            got = build(mapping)
            assert got is apply_subst(rhs, mapping)
            self.checked += 1
            return got

        return checked


# ---- both engines as they were before a node froze once everything it
# read was frozen ----


class _NeverFreezes:
    """Mixed in before an engine, computes every node at every depth
    asked."""

    def _compute(self, node, k):
        self._thaws += 1  # a thaw in every computation, so no node freezes
        return super()._compute(node, k)


class UnfrozenEnumerator(_NeverFreezes, Enumerator):
    """Computes every node at every depth asked: the memo holds an entry
    per node and depth reached."""


class UnfrozenNeedEnumerator(_NeverFreezes, NeedEnumerator):
    """Computes every set and match list at every depth asked."""


# ---- both engines: the reads of a node, derived from its kind, as the
# fixpoint proof walked them before the sweeper recorded them ----


def derived_reads(enum, node, k):
    """What the enumerator's set of node at k >= 1 reads, in the order it
    reads them, derived from the node and the sets it finds; settled nodes
    included, and variable patterns the body ignores left out. For a
    NeedEnumerator the node is e (the set of e) or (p, e) (the match list
    of the constructor pattern p against e), and wildcard patterns are
    left out too."""
    if isinstance(enum, Enumerator):
        return list(_calculi_reads(enum, node, k))
    return list(_need_reads(enum, node, k))


def _calculi_reads(enum, expr, k):
    if expr.name not in enum._fnames or expr.name == "?":
        yield from expr.children
    elif expr.name == "if_then":
        cond, then = expr.children
        yield cond
        if app("tt") in enum.values(cond, k - 1):
            yield then
    else:
        for rule, per_arg, bodies in enum._unfold(expr, k):
            for arg, pattern in zip(expr.children[: len(per_arg) + 1], rule.args):
                if pattern.kind != VAR or pattern.name in rule.rhs.varset:
                    yield arg
            yield from bodies


def _need_reads(enum, node, k):
    pattern, x = (None, node) if isinstance(node, Term) else node
    if x.name in enum._fnames:
        for _rhs, patterns, _names, _plain in enum._rule_table(x.name):
            for p, arg in zip(patterns, x.children):
                if p.kind == APP:
                    yield p, arg
                    if not enum.matches(p, arg, k - 1):
                        break
        # in term order, so the entries a failing check forces do not
        # depend on where the bodies lie in memory
        for body in sorted(enum._unfold(x, k), key=term_key):
            yield body if pattern is None else (pattern, body)
    elif pattern is None:
        yield from x.children
    elif x.name == pattern.name:
        for q, c in zip(pattern.children, x.children):
            if q.kind == APP:
                yield q, c


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


class DownClosedEnumerator(_NeverFreezes, Enumerator):
    """Every memoized set holds all of its values, not only the maximal
    ones: a function-free expression's set is its down-closure, a
    constructor's is _|_ and the root over the product of its children's
    sets, and a `?` or call unions its parts. Matching reads the maximal
    values, found by sweep_maximal_terms. The budget counts the members of
    the down-closed sets, and a function-free or constructor set is sized
    before it is built. A function-free set gets no memo entry. No node
    freezes."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._tops = {}

    def values(self, expr, k):
        if self._settled(expr):
            self._fit(closure_size(expr))
            return down_closure(expr)
        return self._eval(expr, k)

    def _union(self, parts):
        return frozenset((BOT,)).union(*parts)

    def _constructor_values(self, expr, k):
        child_sets = [self.values(c, k) for c in expr.children]
        self._fit(1 + prod(map(len, child_sets)))
        return frozenset((BOT,)).union(app(expr.name, combo) for combo in product(*child_sets))

    def _choose(self, pattern, dom, singular, vset):
        # an argument the body ignores passes no value set
        if vset is None:
            return super()._choose(pattern, dom, singular, vset)
        top = self._tops.get(vset)
        if top is None:
            top = self._tops[vset] = sweep_maximal_terms(vset)
        return super()._choose(pattern, dom, singular, top)


# ---- calculi: the fixpoint check over the whole support, as it was
# before the check walked the root's read-closure ----


class SupportWideEnumerator(_NeverFreezes, Enumerator):
    """Keeps every non-constant expression ever evaluated (the support), in
    the order first touched, and whether the sweep made an entry that
    differs from its depth-1 counterpart (dirty). A check at depth d fails
    on a dirty sweep; otherwise it evaluates the whole support at d, again
    until the support stops growing, and passes if that made no dirty
    entry. A stream calls it only where the root's set repeats, which a
    clean sweep implies, so it proves where the old stream proved. No
    node freezes: the dirty test reads every node's depth k-1 entry."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._support = {}
        self._dirty = True

    def begin_sweep(self):
        super().begin_sweep()
        self._dirty = False

    def values(self, expr, k):
        got = self._memo.get((expr, k))
        if got is not None:
            return got
        constant = self._settled(expr)
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


# ---- both engines: one harness query on an engine of its own, as the
# harness asked each before a seed's checks shared their engines ----


def fresh_query(enum, expr, depth, cap):
    """(values, complete, capped) of expr on a fresh engine with enum's
    program and mode at the budget cap, drained by a fresh stream to depth
    unless it yields more than cap values or trips the budget."""
    if isinstance(enum, NeedEnumerator):
        fresh = NeedEnumerator(enum.program, value_budget=cap)
    else:
        fresh = Enumerator(enum.program, enum.mode, value_budget=cap)
    stream = DenotationStream(fresh, expr, depth)
    got = set()
    try:
        for t in stream:
            got.add(t)
            if len(got) > cap:
                return frozenset(got), False, True
    except BudgetExceeded:
        return frozenset(got), False, True
    return frozenset(got), stream.complete, False


# ---- calculi: the replay of a derivation, which every derivation a
# stream rebuilt once had to pass ----


def replay_trace(program, mode, node):
    """Structural validity of a derivation tree for the given calculus."""
    sig = program.signature
    if node.tag == "B":
        return node.value is BOT
    if node.tag == "RR":
        return node.source.kind == VAR and node.value is node.source
    if node.tag == "DC":
        e, t = node.source, node.value
        if e.kind != APP or t.kind != APP or e.name != t.name or sig.is_function(e.name):
            return False
        if len(node.children) != len(e.children):
            return False
        return all(
            kid.source is e.children[i]
            and kid.value is t.children[i]
            and replay_trace(program, mode, kid)
            for i, kid in enumerate(node.children)
        )
    if node.tag != _OR_TAG[mode]:
        return False
    e, rule, choices, theta = node.source, node.rule, node.choices, node.subst
    if e.kind != APP or not sig.is_function(e.name):
        return False
    if not any(r is rule for _i, r in program.rules_by_root.get(e.name, ())):
        return False
    if len(choices) != len(rule.args):
        return False
    tags = _arg_tags(program, mode, e.name, len(rule.args))
    for i, combo in enumerate(choices):
        if not combo:
            return False
        if tags[i] == SG and len(combo) != 1:
            return False
        if mode in (BETA, COMBINED_BETA) and not is_compressible(combo):
            return False
    if DisjSubst.join([question_combine_set(combo) for combo in choices]) != theta:
        return False
    if not node.children or node.children[-1].source is not theta.apply(rule.rhs):
        return False
    premises = node.children[:-1]
    expected = list(_premises(rule, choices))
    if len(premises) != len(expected):
        return False
    for kid, (arg_index, premise_value) in zip(premises, expected):
        if kid.source is not e.children[arg_index]:
            return False
        if kid.value is not premise_value:
            return False
        if not replay_trace(program, mode, kid):
            return False
    body = node.children[-1]
    if body.value is not node.value:
        return False
    return replay_trace(program, mode, body)


# ---- helpers only the tests use, over the public enumerator and stream ----


def derives(program, mode, expr, target, depth):
    """A replayable derivation of expr =>> target within the depth bound,
    or None. The derivation uses the least sufficient depth."""
    stream = enumerate_values(program, mode, expr, depth)
    for value in stream:
        if approx_leq(target, value):
            trace = stream.derivation(target)
            assert replay_trace(program, mode, trace)
            return trace
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
