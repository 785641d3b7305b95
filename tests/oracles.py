"""Independent reference implementations used to cross-check the package.

These deliberately reimplement the checked operations from their
definitions, by different algorithms than the package uses.
"""

import random
from collections import deque

from pluralrw.terms import APP, BOT, app, apply_subst, match_value, replace_at, var
from pluralrw.rewriting import BREADTH_FIRST, RewriteStep


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


def reference_reach(program, expr, strategy):
    """(expression, length) pairs in visit order, and whether the bound
    cut off an expression never reached another way."""
    bound = strategy.bound
    visited = {expr}
    suppressed = set()
    queue = deque(((expr, 0),))
    if strategy.kind == BREADTH_FIRST:
        pop, order = queue.popleft, iter
    else:
        pop, order = queue.pop, reversed
    out = []
    while queue:
        cur, n = pop()
        out.append((cur, n))
        succs = [s.result for s in reference_one_step(program, cur)]
        if bound is not None and n >= bound:
            suppressed.update(s for s in succs if s not in visited)
            continue
        for s in order(succs):
            if s not in visited:
                visited.add(s)
                queue.append((s, n + 1))
    return out, not suppressed.issubset(visited)


def reference_bounded_reach(program, expr, bound, node_cap, size_cap):
    """Reachable totals under a length bound, a node cap and a size cap,
    and whether nothing was cut."""
    fnames = frozenset(program.signature.functions)
    visited = {expr}
    queue = deque(((expr, 0),))
    out = set()
    complete = True
    while queue:
        cur, n = queue.popleft()
        if cur.total and cur.symbols.isdisjoint(fnames):
            out.add(cur)
        succs = [s.result for s in reference_one_step(program, cur)]
        if n >= bound:
            if any(s not in visited for s in succs):
                complete = False
            continue
        for s in succs:
            if s not in visited:
                if s.size > size_cap or len(visited) >= node_cap:
                    complete = False
                    continue
                visited.add(s)
                queue.append((s, n + 1))
    return frozenset(out), complete


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
