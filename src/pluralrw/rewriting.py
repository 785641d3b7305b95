"""Plain term rewriting, which is what run-time choice means here.

Once a rule copies an argument, the copies evolve independently, so the
set of reachable expressions is the whole story. This module provides
the one-step relation, bounded breadth-first reachability search, the
total c-terms a search reaches (the maximal elements of the run-time
denotation), and the NeedEnumerator, which finds those c-terms without
the search.

Every search is a ReachStream, which memoizes successors per interned
subterm for the life of that one search. They are a pure function of the
program and the term: none for a term without function symbols, else
each child's successors left to right, wrapped back into the term, then
the contracta at its root in program order. That is `one_step`'s order,
so the search yields what a search calling `one_step` on every state
would, in the same order and with the same cut flags; yet a subterm
shared by many states is matched once, a successor costs one application
per new ancestor, and a state none of whose successors could be visited
is not expanded (see ReachStream).

The harness does not walk: it asks a NeedEnumerator for the total
c-terms alone, by call-by-need evaluation (Antoy, Echahed and Hanus,
"A needed narrowing strategy", JACM 2000) read as a value semantics, as
in CRWL (Gonzalez-Moreno et al., JLP 1999). The rules are left-linear
constructor rules. So in a derivation from f(e1..en) to a c-term, a
step inside a subterm that the root step binds to a pattern variable
commutes past that root step: it becomes one step in each copy of the
variable in the body, or none where the body drops it, and the pattern
still matches, being linear. Only the steps at pattern positions must
come first. So the c-terms reachable from f(e1..en) are those reachable
from r.sigma, for each rule f(p1..pn) -> r and each way of rewriting
every ei to pi.sigma by steps at pattern positions only; sigma binds the
subexpressions found at the variables' positions, unevaluated. A
constructor's c-terms are the product of its children's, and a
function-free expression is its own. With k nested unfoldings, a set
holds the total c-terms:
- of a function-free total e: {e};
- of c(e1..en): the product of the sets of the ei at k;
- of a call at k >= 1: the union of the sets of r.sigma at k-1, over
  each rule and each sigma in match(pi, ei, k-1), one per argument;
- match(X, e, k) = {X -> e}; match(c(q1..qm), c(e1..em), k) is the
  product of the children's matches at k; a call is first unfolded one
  level, like a call's set, and its bodies matched at k-1.
`?` and `if_then` unfold through their rules like any call. Every value
is reached (each match stands for steps at pattern positions), and
every reachable total c-term is found at some k, by the commutation
above. Copies of a variable are evaluated apart: that is run-time
choice.

Sets and match lists grow with k, by induction on k. So a fixpoint is
proven as the calculi prove theirs, on a read-closure. A set reads its
constructor children; a call reads its argument matches at k-1, up to
the first argument none matches, and its bodies at k-1; a match reads
its children's matches, or, on a call, that call's argument matches
and the bodies' matches. Take the closure of the root's reads at depth
d. If every member's set or match list at d equals the one at d-1, then
each is unchanged at every depth past d, by induction on the depth and
then on the size of the expression: a call at d+n+1 reads at d+n the
matches it read at d, which equal those at d-1, so it unfolds to the
same bodies, whose sets are the same too. Variable patterns, and the
_|_ wildcards that stand for variables a body ignores, are left out of
the closure: their one match does not depend on the depth.
"""

from __future__ import annotations

import sys
from collections import deque
from itertools import chain, product
from math import prod
from typing import Dict, FrozenSet, Iterator, List, Optional, Tuple

from .calculi import BudgetExceeded
from .syntax import Program
from .terms import (
    APP,
    BOT,
    VAR,
    Term,
    _make,
    apply_subst,
    match_value,
    replace_at,
)

DEFAULT_BOUND = 10_000


class RewriteStep:
    """One application of rule `rule_index` (into Program.all_rules) at
    `position`, with `matcher` binding the rule's variables: the subterm
    of the source at `position` is lhs·matcher, and `result` is the source
    with that subterm replaced by rhs·matcher."""

    __slots__ = ("rule_index", "position", "matcher", "result")

    def __init__(self, rule_index: int, position: Tuple[int, ...],
                 matcher: Dict[str, Term], result: Term):
        self.rule_index = rule_index
        self.position = position
        self.matcher = matcher
        self.result = result

    def __repr__(self):
        return "<step rule %d at %r>" % (self.rule_index, self.position)


def _redexes(t: Term) -> Iterator[Tuple[Tuple[int, ...], Term]]:
    # (position, subterm) pairs, leftmost-innermost order
    for i, c in enumerate(t.children, start=1):
        for pos, sub in _redexes(c):
            yield (i,) + pos, sub
    yield (), t


def _root_steps(program: Program, t: Term) -> Iterator[Tuple[int, Dict[str, Term], Term]]:
    # (rule index, matcher, contractum) for each rule rewriting t at its root
    for idx, rule in program.rules_by_root.get(t.name, ()):
        m = match_value(rule.lhs, t)
        if m is not None:
            yield idx, m, apply_subst(rule.rhs, m)


def one_step(program: Program, expr: Term) -> List[RewriteStep]:
    """All single rewrite steps out of expr, in a deterministic order:
    leftmost-innermost positions, rules in program order (user rules
    before the built-ins). Empty list means expr is a normal form.
    """
    if not expr.total:
        raise ValueError("rewriting inputs must be total expressions")
    return [RewriteStep(idx, pos, m, replace_at(expr, pos, contractum))
            for pos, sub in _redexes(expr) for idx, m, contractum in _root_steps(program, sub)]


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

    def __init__(self, program: Program, expr: Term, bound: Optional[int],
                 node_cap: int = sys.maxsize, size_cap: int = sys.maxsize):
        self.exhausted = self.capped = False
        self.parents: Dict[Term, Optional[Term]] = {expr: None}
        self.program, self.bound = program, bound
        self._fnames = frozenset(program.signature.functions)
        self._node_cap, self._size_cap = node_cap, size_cap
        self._todo = deque(((expr, 0),))
        self._cut, self._memo = [], {}  # both dropped once drained

    def __iter__(self):
        return self

    def __next__(self) -> Tuple[Term, int]:
        if self._todo:
            return self._expand()
        if self._memo is not None:  # drained just now: settle, drop the memo
            parents = self.parents
            self.exhausted = any(s not in parents for c in self._cut for s in self._successors(c))
            self._memo = self._cut = None
        raise StopIteration

    def _expand(self) -> Tuple[Term, int]:
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

    def _successors(self, t: Term) -> Tuple[Term, ...]:
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


def reachable(program: Program, expr: Term,
              bound: Optional[int] = DEFAULT_BOUND) -> ReachStream:
    """Stream the expressions reachable from expr within the
    derivation-length bound (None for none), each exactly once.
    """
    if not expr.total:
        raise ValueError("rewriting inputs must be total expressions")
    if bound is not None and bound < 0:
        raise ValueError("bound must be non-negative")
    return ReachStream(program, expr, bound)


def total_cterms(search: ReachStream) -> Iterator[Term]:
    """The total c-terms among the expressions a search yields, in its
    order."""
    fnames = search._fnames
    for e, _n in search:
        if e.total and e.symbols.isdisjoint(fnames):
            yield e


_NONE: FrozenSet = frozenset()
_ANY: FrozenSet = frozenset(((),))  # the one empty match of a wildcard


def _bind(pattern: Term, t: Term, out: list) -> bool:
    # match a function-free t, appending the images in pattern order; _|_
    # in the pattern is a wildcard
    if pattern.kind == VAR:
        out.append(t)
        return True
    if pattern is BOT:
        return True
    return (t.kind == APP and t.name == pattern.name
            and all(_bind(q, c, out) for q, c in zip(pattern.children, t.children)))


def _pattern_vars(pattern: Term) -> List[str]:
    if pattern.kind == VAR:
        return [pattern.name]
    return [x for c in pattern.children for x in _pattern_vars(c)]


class NeedEnumerator:
    """Call-by-need run-time denotations of one program: values(e, k) is
    the set of total c-terms reachable from e with at most k nested
    unfoldings, and matches(p, e, k) the matches of a constructor pattern
    p that e can be rewritten to, each a tuple of unevaluated expressions
    in the pattern's variable order (module docstring). Each rule's
    patterns have the variables its body ignores cut to _|_, a wildcard.

    It speaks the calculi's sweep protocol, so a DenotationStream drives
    it: begin_sweep, then values(root, d); where that repeats the depth
    d-1 set, confirm_fixpoint(d) with self.root the root. With a
    value_budget, a set or match list larger than it raises
    BudgetExceeded; a product is sized before it is built."""

    def __init__(self, program: Program, value_budget: Optional[int] = None):
        self.program = program
        self.root: Optional[Term] = None
        self._budget = value_budget
        self._fnames = frozenset(program.signature.functions)
        # (expr, k) -> set; (pattern, expr, k) -> match list
        self._memo: Dict[tuple, FrozenSet] = {}
        self._bodies: Dict[Tuple[Term, int], FrozenSet[Term]] = {}
        self._rules: Dict[str, list] = {}

    def begin_sweep(self):
        pass

    @property
    def memo_entries(self) -> int:
        return len(self._memo)

    def _fit(self, size: int) -> None:
        if self._budget is not None and size > self._budget:
            raise BudgetExceeded(
                "a set or match list of size %d exceeds the budget %d" % (size, self._budget)
            )

    def _keep(self, key: tuple, prev_key: tuple, result: FrozenSet) -> FrozenSet:
        # share the depth k-1 object when the set did not change, so
        # unchanged sets compare by identity at the next depth
        prev = self._memo.get(prev_key)
        if prev is not None and prev == result:
            result = prev
        self._memo[key] = result
        return result

    def _rule_table(self, fname: str) -> list:
        """Per rule of fname: its body, its patterns with the variables
        the body ignores cut to _|_, their variables in order, and whether
        every pattern is a variable or _|_ (then its one match list does
        not depend on the depth)."""
        got = self._rules.get(fname)
        if got is None:
            got = self._rules[fname] = []
            for _i, rule in self.program.rules_by_root.get(fname, ()):
                rhs = rule.rhs
                patterns = tuple(
                    p if p.varset <= rhs.varset
                    else apply_subst(p, dict.fromkeys(p.varset - rhs.varset, BOT))
                    for p in rule.args
                )
                names = [x for p in patterns for x in _pattern_vars(p)]
                got.append((rhs, patterns, names, all(p.kind != APP for p in patterns)))
        return got

    def values(self, expr: Term, k: int) -> FrozenSet[Term]:
        fnames = self._fnames
        if expr.symbols.isdisjoint(fnames):
            return frozenset((expr,)) if expr.total else _NONE
        key = (expr, k)
        got = self._memo.get(key)
        if got is not None:
            return got
        if expr.name in fnames:
            out = set()
            for body in self._unfold(expr, k):
                if not body.symbols.isdisjoint(fnames):
                    out.update(self.values(body, k - 1))
                elif body.total:
                    out.add(body)
            self._fit(len(out))
            result = frozenset(out)
        else:
            parts = [self.values(c, k) for c in expr.children]
            self._fit(prod(map(len, parts)))
            result = frozenset(_make(APP, expr.name, combo) for combo in product(*parts))
        return self._keep(key, (expr, k - 1), result)

    def matches(self, pattern: Term, expr: Term, k: int) -> FrozenSet[tuple]:
        """The match list of a constructor pattern (an APP) against expr."""
        if expr.symbols.isdisjoint(self._fnames):
            out: list = []
            return frozenset((tuple(out),)) if _bind(pattern, expr, out) else _NONE
        key = (pattern, expr, k)
        got = self._memo.get(key)
        if got is not None:
            return got
        if expr.name in self._fnames:
            found = set()
            for body in self._unfold(expr, k):
                found.update(self.matches(pattern, body, k - 1))
            self._fit(len(found))
            result = frozenset(found)
        elif expr.name == pattern.name:
            result = self._product([self._arg_matches(q, c, k)
                                    for q, c in zip(pattern.children, expr.children)])
        else:
            result = _NONE
        return self._keep(key, (pattern, expr, k - 1), result)

    def _arg_matches(self, pattern: Term, expr: Term, k: int):
        # the match list of any pattern: one match for a variable or a
        # wildcard, whatever the depth
        if pattern.kind == VAR:
            return ((expr,),)
        if pattern is BOT:
            return _ANY
        return self.matches(pattern, expr, k)

    def _product(self, lists) -> FrozenSet[tuple]:
        self._fit(prod(map(len, lists)))
        return frozenset(tuple(chain.from_iterable(combo)) for combo in product(*lists))

    def _unfold(self, call: Term, k: int) -> FrozenSet[Term]:
        """The bodies r.sigma of the call at depth k, over its rules and
        the matches of its arguments at k-1; none at k = 0. Where every
        argument match list read is the object read at depth k-1, the
        bodies are those of depth k-1."""
        if k < 1:
            return _NONE
        key = (call, k)
        got = self._bodies.get(key)
        if got is not None:
            return got
        fnames, memo = self._fnames, self._memo
        prev = self._bodies.get((call, k - 1))
        same = prev is not None
        picks = []
        for rhs, patterns, names, plain in self._rule_table(call.name):
            if plain:
                picks.append((rhs, names, [(tuple(
                    a for p, a in zip(patterns, call.children) if p.kind == VAR),)]))
                continue
            lists = []
            for p, arg in zip(patterns, call.children):
                found = self._arg_matches(p, arg, k - 1)
                if same and p.kind == APP and not arg.symbols.isdisjoint(fnames):
                    same = found is memo.get((p, arg, k - 2))
                if not found:
                    break
                lists.append(found)
            else:
                picks.append((rhs, names, lists))
        if same:
            got = prev
        else:
            out = set()
            for rhs, names, lists in picks:
                for m in lists[0] if len(lists) == 1 else self._product(lists):
                    out.add(apply_subst(rhs, dict(zip(names, m))))
            got = frozenset(out)
            if prev == got:
                got = prev
        self._bodies[key] = got
        return got

    def confirm_fixpoint(self, depth: int) -> bool:
        """Whether values(self.root, depth + n) equals values(self.root,
        depth) for every n, by a breadth-first walk over the read-closure
        (module docstring). A node is (None, expr) for a set, (pattern,
        expr) for a match list."""
        seen = {(None, self.root)}
        todo = deque(seen)
        while todo:
            pattern, x = todo.popleft()
            if x.symbols.isdisjoint(self._fnames):
                continue
            if pattern is None:
                before, now = self.values(x, depth - 1), self.values(x, depth)
            else:
                before, now = self.matches(pattern, x, depth - 1), self.matches(pattern, x, depth)
            if now is not before and now != before:
                return False
            for node in self._reads(pattern, x, depth):
                if node not in seen:
                    seen.add(node)
                    todo.append(node)
        return True

    def _reads(self, pattern: Optional[Term], x: Term, k: int):
        """What the set (pattern None) or the match list of x at k reads,
        for k >= 1, leaving out variable and wildcard patterns."""
        if x.name in self._fnames:
            for _rhs, patterns, _names, _plain in self._rules[x.name]:
                for p, arg in zip(patterns, x.children):
                    if p.kind == APP:
                        yield p, arg
                        if not self.matches(p, arg, k - 1):
                            break
            for body in self._unfold(x, k):
                yield pattern, body
        elif pattern is None:
            for c in x.children:
                yield None, c
        elif x.name == pattern.name:
            for q, c in zip(pattern.children, x.children):
                if q.kind == APP:
                    yield q, c
