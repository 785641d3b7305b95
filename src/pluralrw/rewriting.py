"""Plain term rewriting, which is what run-time choice means here.

Once a rule copies an argument, the copies evolve independently, so the
set of reachable expressions is the whole story. This module provides
the one-step relation and the NeedEnumerator, which finds the total
c-terms reachable from an expression (the maximal elements of the
run-time denotation) without walking the reachable expressions.

The harness and the REPL ask a NeedEnumerator for the total c-terms,
by call-by-need evaluation (Antoy, Echahed and Hanus, "A needed
narrowing strategy", JACM 2000) read as a value semantics, as in CRWL
(Gonzalez-Moreno et al., JLP 1999). The rules are left-linear
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

Sets and match lists grow with k, by induction on k. A node is e for
the set of e, (p, e) for the match list of p against e, and a
fixpoint is proven on its recorded read-closure (sweep). A call reads
its arguments' match lists on every unfolding, and its bodies are kept
per call and the constructor-pattern lists read, which is all they
depend on: a call that finds the lists it found one depth down unfolds
to the same bodies at once. A variable pattern, and a _|_ wildcard that
stands for a variable the body ignores, match without evaluating their
argument: their one match does not depend on the depth. A function-free
expression is settled (sweep): its set and match lists are answered at
once, with no memo entry.

Derivations are not recorded while sets are computed. build_path
rebuilds one from the memo afterwards, by the argument above read
backwards. For a value of a call at k it takes the first rule and
argument matches at k-1, in program order and then canonical term order,
whose body yields the value at k-1; rewrites each argument to its
pattern instance by steps at pattern positions, following the matches;
takes the root step to the body; and goes on in the body. A constructor
rewrites its children left to right. A match of a call is rebuilt the
same way, with the pattern in place of the value. The sweep that made
an entry made every entry this reads, or found it frozen, and a frozen
node reads only frozen nodes, so neither the memo, the frozen table nor
the read record grows. The derivation is a real one, but not always a
shortest one.
"""

from __future__ import annotations

from itertools import chain, product
from math import prod
from typing import Dict, FrozenSet, Iterator, List, Optional, Tuple

from .sweep import Sweeper
from .syntax import Program, format_term
from .terms import (
    APP,
    BOT,
    VAR,
    Term,
    _make,
    apply_subst,
    instantiator,
    match_value,
    replace_at,
    term_key,
)

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


def _match_key(match: tuple) -> list:
    return [term_key(t) for t in match]


def _pattern_vars(pattern: Term) -> List[str]:
    if pattern.kind == VAR:
        return [pattern.name]
    return [x for c in pattern.children for x in _pattern_vars(c)]


class NeedEnumerator(Sweeper):
    """Call-by-need run-time denotations of one program: values(e, k) is
    the set of total c-terms reachable from e with at most k nested
    unfoldings, and matches(p, e, k) the matches of a constructor pattern
    p that e can be rewritten to, each a tuple of unevaluated expressions
    in the pattern's variable order (module docstring). Each rule's
    patterns have the variables its body ignores cut to _|_, a wildcard.

    A DenotationStream drives it by the sweep protocol, with its memo
    keyed (expr, k) for a set and ((pattern, expr), k) for a match list.
    build_path rebuilds a rewrite derivation of a value from the memo."""

    def __init__(self, program: Program, value_budget: Optional[int] = None):
        super().__init__(program, value_budget)
        # per (call, its constructor-pattern match lists read): its bodies
        self._bodies: Dict[Tuple[Term, tuple], Tuple[Term, ...]] = {}
        self._rules: Dict[str, list] = {}
        # one (pattern, expr) object per match-list node, which the read
        # record then keeps once, not once per read
        self._pairs: Dict[Tuple[Term, Term], Tuple[Term, Term]] = {}

    def _rule_table(self, fname: str) -> list:
        """Per rule of fname: its body's builder (terms.instantiator), its
        patterns with the variables the body ignores cut to _|_, their
        variables in order, and whether every pattern is a variable or
        _|_ (then its one match list does not depend on the depth)."""
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
                got.append((instantiator(rhs), patterns, names,
                            all(p.kind != APP for p in patterns)))
        return got

    def values(self, expr: Term, k: int) -> FrozenSet[Term]:
        if expr.symbols.isdisjoint(self._fnames):
            return frozenset((expr,)) if expr.total else _NONE
        return self._eval(expr, k)

    def matches(self, pattern: Term, expr: Term, k: int) -> FrozenSet[tuple]:
        """The match list of a constructor pattern (an APP) against expr."""
        if expr.symbols.isdisjoint(self._fnames):
            out: list = []
            return frozenset((tuple(out),)) if _bind(pattern, expr, out) else _NONE
        node = pattern, expr
        return self._eval(self._pairs.setdefault(node, node), k)

    def _expr(self, node) -> Term:
        return node if isinstance(node, Term) else node[1]

    def _compute(self, node, k: int) -> FrozenSet:
        fnames = self._fnames
        if isinstance(node, Term):
            if node.name in fnames:
                out = set()
                for body in self._unfold(node, k):
                    if not body.symbols.isdisjoint(fnames):
                        out.update(self.values(body, k - 1))
                    elif body.total:
                        out.add(body)
                return frozenset(out)
            parts = [self.values(c, k) for c in node.children]
            self._fit(prod(map(len, parts)))
            return frozenset(_make(APP, node.name, combo) for combo in product(*parts))
        pattern, expr = node
        if expr.name in fnames:
            found = set()
            for body in self._unfold(expr, k):
                found.update(self.matches(pattern, body, k - 1))
            return frozenset(found)
        if expr.name == pattern.name:
            return self._product([self._arg_matches(q, c, k)
                                  for q, c in zip(pattern.children, expr.children)])
        return _NONE

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

    def _unfold(self, call: Term, k: int) -> Tuple[Term, ...]:
        """The bodies r.sigma of the call at depth k, in term order, over
        its rules and the matches of its arguments at k-1; none at k = 0.
        The constructor patterns' match lists are read on every
        unfolding, each rule's left to right up to its first empty one, and
        the bodies are built only where _bodies holds none for the call and
        the lists read: a hit stands for no read (sweep). Term order keeps
        the read record, and so the entries a failing proof forces, apart
        from where the bodies lie in memory."""
        if k < 1:
            return ()
        rules = self._rule_table(call.name)
        picks, read = [], []
        for build, patterns, names, plain in rules:
            if plain:
                continue
            lists = []
            for p, arg in zip(patterns, call.children):
                found = self._arg_matches(p, arg, k - 1)
                if p.kind == APP:
                    read.append(found)
                if not found:
                    break
                lists.append(found)
            else:
                picks.append((build, names, lists))
        key = call, tuple(read)
        got = self._bodies.get(key)
        if got is None:
            # a plain rule's one match binds the arguments at its variables
            out = {build(dict(zip(names, (a for p, a in zip(patterns, call.children)
                                          if p.kind == VAR))))
                   for build, patterns, names, plain in rules if plain}
            for build, names, lists in picks:
                for m in lists[0] if len(lists) == 1 else self._product(lists):
                    out.add(build(dict(zip(names, m))))
            got = self._bodies[key] = tuple(sorted(out, key=term_key))
        return got

    def build_path(self, expr: Term, k: int, value: Term) -> List[RewriteStep]:
        """A rewrite derivation of expr to a value in values(expr, k),
        rebuilt from the memo (module docstring): its steps in order. Each
        step's matcher, which binds the variables the body ignores too, is
        read off the term the step rewrites."""
        out: list = []
        self._path_to_value(expr, k, value, (), out)
        steps, node = [], expr
        for pos, idx, contractum in out:
            redex = node
            for i in pos:
                redex = redex.children[i - 1]
            node = replace_at(node, pos, contractum)
            m = match_value(self.program.all_rules[idx].lhs, redex)
            steps.append(RewriteStep(idx, pos, m, node))
        return steps

    def _path_to_value(self, expr, k, value, pos, out):
        if expr.symbols.isdisjoint(self._fnames):
            return
        if expr.name in self._fnames:
            body = self._root_step(expr, k, pos, out, lambda b: value in self.values(b, k - 1))
            self._path_to_value(body, k - 1, value, pos, out)
        else:
            for i, (c, v) in enumerate(zip(expr.children, value.children), start=1):
                self._path_to_value(c, k, v, pos + (i,), out)

    def _path_to_match(self, pattern, expr, k, match, pos, out):
        # rewrite expr, at pattern positions only, to the instance of the
        # constructor pattern that binds match
        if expr.symbols.isdisjoint(self._fnames):
            return
        if expr.name in self._fnames:
            body = self._root_step(expr, k, pos, out,
                                   lambda b: match in self.matches(pattern, b, k - 1))
            self._path_to_match(pattern, body, k - 1, match, pos, out)
            return
        at = 0
        for i, (q, c) in enumerate(zip(pattern.children, expr.children), start=1):
            n = len(_pattern_vars(q))
            if q.kind == APP:
                self._path_to_match(q, c, k, match[at:at + n], pos + (i,), out)
            at += n

    def _root_step(self, call, k, pos, out, wanted):
        # the first body of the call at k that is wanted, in rule order and
        # then canonical term order of the argument matches; the steps to
        # it go to out, each as (position, rule index, contractum), and it
        # is returned
        for (idx, _rule), (build, patterns, names, _plain) in zip(
                self.program.rules_by_root[call.name], self._rule_table(call.name)):
            lists = []
            for p, arg in zip(patterns, call.children):
                found = self._arg_matches(p, arg, k - 1)
                if not found:
                    break
                lists.append(sorted(found, key=_match_key))
            else:
                for combo in product(*lists):
                    body = build(dict(zip(names, chain.from_iterable(combo))))
                    if wanted(body):
                        for i, (p, arg, m) in enumerate(zip(patterns, call.children, combo), 1):
                            if p.kind == APP:
                                self._path_to_match(p, arg, k - 1, m, pos + (i,), out)
                        out.append((pos, idx, body))
                        return body
        raise ValueError("no body of %s at depth %d is the one sought" % (format_term(call), k))
