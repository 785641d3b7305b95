"""Plain term rewriting, which is what run-time choice means here.

Once a rule copies an argument, the copies evolve independently, so the
set of reachable expressions is the whole story. This module provides
the one-step relation, bounded breadth-first reachability search, and
the total c-terms a search reaches: the maximal elements of the run-time
denotation.

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
"""

import sys
from collections import deque
from typing import Dict, Iterator, List, Optional, Tuple

from .syntax import Program
from .terms import (
    APP,
    Term,
    _make,
    apply_subst,
    match_value,
    replace_at,
    subterm_at,
)

DEFAULT_BOUND = 10_000


class RewriteStep:
    """One application of rule `rule_index` (into Program.all_rules) at
    `position`, with `matcher` binding the rule's variables.

    Internal equations, checkable against the expression it was taken
    from:  result == replace_at(source, position, rhs·matcher)  and
    subterm_at(source, position) == lhs·matcher.
    """

    __slots__ = ("rule_index", "position", "matcher", "result")

    def __init__(self, rule_index: int, position: Tuple[int, ...],
                 matcher: Dict[str, Term], result: Term):
        self.rule_index = rule_index
        self.position = position
        self.matcher = matcher
        self.result = result

    def replay(self, program: Program, source: Term) -> bool:
        """Recheck both internal equations against the source expression."""
        rule = program.all_rules[self.rule_index]
        sub = subterm_at(source, self.position)
        if apply_subst(rule.lhs, self.matcher) is not sub:
            return False
        rebuilt = replace_at(source, self.position, apply_subst(rule.rhs, self.matcher))
        return rebuilt is self.result

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

