"""Bounded enumeration of denotations for the five parameter-passing modes.

The enumerator computes, for an expression e and depth k, the set of
partial c-term values derivable with at most k nested function
unfoldings. Bottom is always a value; a variable is a value of itself;
constructor applications combine child values at the same depth; and a
function application consults each rule: per argument, the derivable
values at depth k-1 are matched against the pattern and the resulting
substitutions are combined into a disjunctive substitution according to
the mode of the argument (singular arguments pass exactly one
substitution; alpha-plural arguments pass the whole match set at once;
beta-plural arguments pass any compressible set, of which the maximal
ones suffice). The instantiated right-hand side is then evaluated at
depth k-1.

A value set is down-closed (polarity): with a value t it holds every value
below t in the approximation ordering. So it is fixed by its maximal
elements, an antichain (De Wulf, Doyen, Henzinger and Raskin,
"Antichains", CAV 2006), and values returns, and the memo keeps, only
that. A set holds the values below the members of its antichain, which
per operation is:
- for a function-free expression e: {e}, the top of its down-closure;
- for a constructor c(e1..en): c(A1 x ... x An), Ai the antichain of ei.
  _|_ and every c(t1..tn) of the set lie below one of these, and any two
  of them differ in a column of incomparable members;
- for `?` and a call: the maximal elements of the union of their parts'
  antichains, as the down-closure of a union is the union of the
  down-closures (maximal_terms).
Matching reads only the maximal values (below). Down-closed sets are equal
exactly when their antichains are, so the fixpoint test compares
antichains. A total value is maximal in every set that holds it, so a
set's totals are its antichain's. A value budget counts antichain members.

Matchers are restricted to the pattern variables that the rule body
actually uses. Singular and alpha-plural arguments keep only the maximal
matchers under pointwise approximation; both steps preserve the computed
denotation (a dominated matcher binds a shorter disjunction whose value set
the dominating one already yields, and value sets are down-closed).
Dropping dominated matchers can shorten the disjunctions an instantiated
body carries, so individual values may surface at a smaller depth than
they would with the full matcher set; the limit is unchanged.

Every mode matches only the maximal values of the argument's set, the
members of its antichain, and loses no matcher by it. Patterns are linear
total constructor terms, so matching is upward closed (if t matches and
t <= t', t' matches) and order-reflecting (p.theta <= p.sigma iff
theta <= sigma). Every matcher's value lies below a maximal value, which
then matches with a matcher above it; so the maximal matchers are exactly
the matchers of the maximal values, and they form an antichain.
Restriction to the body's variables is monotone, so the maximal
restricted matchers are the maximal restrictions of that antichain: a
maximality sweep is needed only when the pattern binds a variable the
body ignores. The modes then differ only in the matcher sets they pass,
and each passed set is ?-combined and deduplicated by one tail: a
singular argument passes each maximal matcher on its own, an alpha-plural
one all of them.

Beta-plural arguments pass compressible sets of matchers: sets whose
image tuples form a full product S1 x ... x Sn over the variables. They
cannot choose among the maximal matchers alone, because dominated
matchers can be compressible together where their dominators are not.
{X/a,Y/_|_} and {X/c,Y/_|_} compress to X/(a?c), while their dominators
{X/a,Y/b} and {X/c,Y/d} do not. All matchers still follow from the
maximal ones, by pointwise down-closure. If theta matches a value t and
sigma <= theta pointwise, then p.sigma <= p.theta = t, so the down-closed
set holds p.sigma, and by linearity p.sigma matches with sigma itself;
restricting to the body's variables keeps this. Every matcher lies below
a maximal one. So the restricted matchers of the whole set are exactly
the substitutions pointwise below the maximal restricted matchers: per
maximal matcher, the product of the down-closures of its images.

Of those compressible sets beta passes only the ⊆-maximal ones, the
maximal products inside the matchers, each cut column by column to its
maximal images. Neither step loses a value of the limit:
- lengthening a disjunction only adds values: a compressible set inside
  a larger one ?-combines, per variable, to a sub-chain of the larger
  one's chain, and every copy of the longer chain can still select each
  old alternative;
- a dominated alternative in a chain adds nothing to a down-closed set: a
  copy that selects u <= v yields a value below the one that selects v,
  and the set holds everything below its values.
The cut keeps a sub-product, so the set stays compressible. Over one
variable every set is compressible, the one maximal product is the whole
down-closed column, and its cut is alpha's chain of the maximal matchers,
so beta passes what alpha passes. So it does below one maximal matcher,
whose down-closure is itself a product. Chains of other lengths can move the
depth at which a value first surfaces, not the limit.

The built-ins are evaluated without their rules. `?` passes both
arguments singularly in every mode, and its rules X ? Y -> X and
X ? Y -> Y make one pick per maximal value t of either side, whose body is
t itself. t is function-free, so its antichain at any depth is {t}, and
the maximal elements of the union of those over the maximal t of
values(e1, k-1) are that antichain itself. Hence, at every k >= 1 and in
every mode, values(e1 ? e2, k) is the maximal elements of
values(e1, k-1) | values(e2, k-1).
The rule if tt then E -> E likewise gives values(if_then(c, e), k) =
values(e, k-1) when tt is in values(c, k-1), and {_|_} otherwise; both
give {_|_} at k = 0. Programs can neither redefine nor annotate the
built-ins (syntax.assemble_program), so this holds for every program.

Derivations are not recorded while values are computed. build_trace
rebuilds one from the memo and the frozen table afterwards: B for bottom,
RR for a variable, DC for a constructor, and for a call, built-ins
included, the first pick, in evaluation order, whose instantiated body
holds the value one level down.
A DenotationStream rebuilds the derivation of a value it yielded at the
depth it yielded it; equal memo entries give equal picks, so the stream
gives the derivation a fresh one stopped at that depth would. Every
expression a derivation asks for was computed by the sweeps or is frozen,
but for settled ones, so the memo, the frozen table and the read record
stay what the sweeps made.

Each enumerator keeps three caches, which live and die with it:
_choice_cache holds an argument's matcher choices per (pattern, variables
used, singular, value set); _body_cache a rule's instantiated bodies, in
the order of the choices' product, per (rule, value sets of the arguments
consulted); _union_cache the maximal elements of the union of each set of
distinct parts. A body is built by its rule's builder (terms.instantiator),
made once per rule per enumerator with the rule's entry in _rule_cache,
under the merged ?-chains of the pick's choices (DisjSubst.chains): the
term DisjSubst.join of the choices would apply, with no join, hash or
chain built per pick. None loses or adds a value: the picks read nothing but
the rule, the mode and those argument sets, the mode is fixed per
enumerator, and a union reads nothing but its parts, so equal keys give
equal entries. Every body still goes through values, so the same values
calls happen in the same order, with the same stop at the first argument
without choices, and the memo, the fixpoint test and the budget trips
come out as they would without the caches. values keeps the old object
for a set that did not change from one depth to the next, so a call whose
arguments stopped changing finds its choices, bodies and union at once.
Freezing (sweep) subsumes the caches for a frozen call, a lookup that
asks none of them; they serve a call whose arguments froze before its
bodies did.

Sets are not monotone in depth: dropping a dominated matcher can lengthen
a ?-chain, so a value can vanish and resurface later. A node of the
fixpoint proof (sweep) is an expression, and the proof walks the reads
values made. A call that finds the sets it found one depth down makes the
same choices, bodies and union; `?` and if_then alike. An argument whose
pattern is a variable the body ignores is not evaluated: its one choice
does not depend on its set. A function-free expression is settled (sweep):
values answers it at once and keeps no memo entry for it.
"""

from __future__ import annotations

from collections import deque
from itertools import islice, product
from math import prod
from typing import Dict, FrozenSet, List, Optional, Tuple

from .disjsubst import (
    DisjSubst,
    maximal_products,
    maximal_substs,
    question_combine_set,
)
# compressible_subsets is bound here for perfbench/layers.py, which traces
# it by module
from .disjsubst import compressible_subsets  # noqa: F401
from .sweep import BudgetExceeded, Sweeper
from .syntax import PL, SG, Program, format_term
from .terms import (
    APP,
    BOT,
    VAR,
    Term,
    _make,
    app,
    apply_subst,
    approx_leq,
    down_closure,
    instantiator,
    match_value,
    term_key,
    var,
)

CALL_TIME = "call-time"
ALPHA = "alpha-plural"
BETA = "beta-plural"
COMBINED_ALPHA = "combined-alpha"
COMBINED_BETA = "combined-beta"

MODES = (CALL_TIME, ALPHA, BETA, COMBINED_ALPHA, COMBINED_BETA)

_OR_TAG = {
    CALL_TIME: "OR",
    ALPHA: "APOR",
    BETA: "BPOR",
    COMBINED_ALPHA: "SAPOR",
    COMBINED_BETA: "SBPOR",
}

_BOTTOM_ONLY: FrozenSet[Term] = frozenset((BOT,))
_TT = app("tt")


def _rank(t: Term) -> tuple:
    # heaviest first, so that derivations do not depend on set order
    return (-t.weight, term_key(t))


def maximal_terms(terms: FrozenSet[Term]) -> FrozenSet[Term]:
    """The maximal elements of a set of values under approximation.

    A total value lies below no other, and proper approximation keeps the
    root symbol and lowers the weight (non-bottom node count). So the
    members are taken heaviest first, and a partial one is tested only
    against the members kept so far with its root; _|_ is kept only alone.
    A dropped member lies below a kept one: its dominator is kept, or lies
    below a heavier kept one."""
    if all(t.total for t in terms):
        return terms
    kept: Dict[str, List[Term]] = {}
    dominated = [BOT] if BOT in terms and len(terms) > 1 else []
    for t in sorted(terms, key=lambda t: -t.weight):
        if t.kind == APP:
            same_root = kept.setdefault(t.name, [])
            if t.total or not any(u.weight > t.weight and approx_leq(t, u)
                                  for u in same_root):
                same_root.append(t)
            else:
                dominated.append(t)
    return terms.difference(dominated) if dominated else terms


def _holds(antichain: FrozenSet[Term], value: Term) -> bool:
    """Whether the down-closed set the antichain stands for holds value."""
    return value in antichain or (
        not value.total and any(approx_leq(value, t) for t in antichain)
    )


# guard on the beta path over two or more variables, the only one that
# searches products: the number of fiber meets it visits can grow
# exponentially in its matchers, so past this size a budgeted run bails
# out instead of stalling
_MATCHER_GUARD = 48


def _arg_tags(program: Program, mode: str, fname: str, arity: int) -> Tuple[str, ...]:
    """How each argument of fname is passed under the mode: SG or PL."""
    # for ? and if_then this serves only build_trace, through _unfold
    if mode == CALL_TIME or fname in ("?", "if_then"):
        return (SG,) * arity
    if mode in (ALPHA, BETA):
        return (PL,) * arity
    return program.plurality_of(fname)


def _merged(pick) -> dict:
    # the ?-chains of a pick's choices, over their disjoint domains
    out: dict = {}
    for _, ds in pick:
        out.update(ds.chains)
    return out


def _premises(rule, choices):
    """(argument index, premise value) per matcher passed: the rule's
    pattern under the matcher, with pattern variables the body ignores
    cut to bottom."""
    for i, combo in enumerate(choices):
        pattern = rule.args[i]
        ignored = pattern.varset - rule.rhs.varset
        for m in combo:
            padded = dict.fromkeys(ignored, BOT)
            padded.update(m)
            yield i, apply_subst(pattern, padded)


class TraceNode:
    """One step of a derivation: tag, statement source =>> value, and for
    OR steps the rule applied, the parameter-passing substitution and the
    matchers passed per argument. Children are the premise subtrees; for
    OR steps the last child derives the instantiated rule body."""

    __slots__ = ("tag", "source", "value", "rule", "subst", "choices", "children")

    def __init__(self, tag, source, value, rule=None, subst=None, choices=None, children=()):
        self.tag = tag
        self.source = source
        self.value = value
        self.rule = rule
        self.subst = subst
        self.choices = choices
        self.children = tuple(children)

    def render(self, indent: int = 0) -> str:
        pad = "  " * indent
        line = "%s%s  %s =>> %s" % (
            pad,
            self.tag,
            format_term(self.source),
            format_term(self.value),
        )
        if self.subst is not None and self.subst.alts:
            line += "  via %r" % self.subst
        parts = [line]
        for child in self.children:
            parts.append(child.render(indent + 1))
        return "\n".join(parts)

    def __repr__(self):
        return "<trace %s: %s =>> %s>" % (
            self.tag,
            format_term(self.source),
            format_term(self.value),
        )


class Enumerator(Sweeper):
    """Memoized value-set computation for one (program, mode).

    values may be asked for any expressions and depths; the memo is shared,
    which keeps multi-query tests cheap. A DenotationStream may use an
    enumerator that served other queries: its fixpoint test reads sets and
    recorded reads only, which no earlier entry changes. So the harness
    shares one enumerator per program and mode across a seed's checks.
    """

    def __init__(
        self,
        program: Program,
        mode: str,
        value_budget: Optional[int] = None,
    ):
        if mode not in MODES:
            raise ValueError("unknown mode %r" % mode)
        super().__init__(program, value_budget)
        self.mode = mode
        self._alpha = mode in (ALPHA, COMBINED_ALPHA)
        self._or_tag = _OR_TAG[mode]
        self._rule_cache: Dict[str, list] = {}
        self._union_cache: Dict[FrozenSet[FrozenSet[Term]], FrozenSet[Term]] = {}
        self._choice_cache: Dict[tuple, list] = {}
        self._body_cache: Dict[tuple, Tuple[Tuple[Term, ...], bool]] = {}

    def _rules(self, fname: str):
        cached = self._rule_cache.get(fname)
        if cached is None:
            cached = []
            for _i, rule in self.program.rules_by_root.get(fname, ()):
                doms = tuple(
                    frozenset(p.varset & rule.rhs.varset) for p in rule.args
                )
                tags = _arg_tags(self.program, self.mode, fname, len(rule.args))
                cached.append((rule, doms, tags, instantiator(rule.rhs)))
            self._rule_cache[fname] = cached
        return cached

    def values(self, expr: Term, k: int) -> FrozenSet[Term]:
        # a function-free expression is its own maximal value at every
        # depth, answered without a memo entry (sweep)
        if expr.symbols.isdisjoint(self._fnames):
            return frozenset((expr,))
        return self._eval(expr, k)

    def _compute(self, expr, k):
        if expr.name in self._fnames:
            return self._call_values(expr, k)
        return self._constructor_values(expr, k)

    def _call_values(self, expr, k):
        # the built-ins natively, by the argument in the module docstring;
        # every other call through its picks
        if k > 0 and expr.name == "?":
            return self._union([self.values(c, k - 1) for c in expr.children])
        if k > 0 and expr.name == "if_then":
            cond, then = expr.children
            if _TT in self.values(cond, k - 1):
                return self.values(then, k - 1)
            return _BOTTOM_ONLY
        parts = []
        for _rule, _per_arg, bodies in self._unfold(expr, k):
            parts.extend(self.values(inst, k - 1) for inst in bodies)
        return self._union(parts)

    def _union(self, parts: List[FrozenSet[Term]]) -> FrozenSet[Term]:
        # repeated unions of the same parts come out of _union_cache as the
        # same object, so the unchanged-set check in values stays an
        # identity test instead of a big-set comparison
        uniq = list({id(p): p for p in parts}.values())
        if not uniq:
            return _BOTTOM_ONLY
        if len(uniq) == 1:
            return uniq[0]
        ckey = frozenset(uniq)
        result = self._union_cache.get(ckey)
        if result is None:
            result = maximal_terms(frozenset().union(*uniq))
            self._union_cache[ckey] = result
        return result

    def _constructor_values(self, expr, k):
        child_sets = [self.values(c, k) for c in expr.children]
        self._fit(prod(map(len, child_sets)))
        name = expr.name
        return frozenset(_make(APP, name, combo) for combo in product(*child_sets))

    def _unfold(self, expr, k):
        """Every rule of the call expr at depth k, in evaluation order:
        (rule, per argument its (matchers, ?-combination) choices, the
        instantiated bodies in the order of the choices' product). A rule
        stops, with no bodies, at its first argument, left to right, that
        no value at depth k-1 matches. An argument the body ignores passes
        no value set (module docstring). A rule whose picks overran the
        budget raises once its consumer is done with the bodies built."""
        if k < 1:
            return
        kprev = k - 1
        for rule, doms, tags, build in self._rules(expr.name):
            per_arg: List[list] = []
            vsets = []
            for i, pattern in enumerate(rule.args):
                vset = (None if pattern.kind == VAR and not doms[i]
                        else self.values(expr.children[i], kprev))
                choices = self._choices(pattern, doms[i], tags[i] == SG, vset)
                if not choices:
                    yield rule, per_arg, ()
                    break
                per_arg.append(choices)
                vsets.append(vset)
            else:
                key = (rule, tuple(vsets))
                got = self._body_cache.get(key)
                if got is None:
                    got = self._body_cache[key] = self._instantiate(rule, build, per_arg)
                bodies, overrun = got
                yield rule, per_arg, bodies
                if overrun:
                    raise BudgetExceeded("substitution picks overrun the budget")

    def _instantiate(self, rule, build, per_arg):
        """The rule's body under each pick of one choice per argument, in
        product order, and whether there were more picks than the budget;
        then only the first budget many are built. build is the body's
        builder, and a pick's substitution is the merged ?-chains of its
        choices: the arguments bind disjoint variables, a linear
        left-hand side's."""
        picks = product(*per_arg)
        overrun = False
        if self._budget is not None:
            picks = list(islice(picks, self._budget + 1))
            overrun = len(picks) > self._budget
            del picks[self._budget:]
        if len(per_arg) == 1:
            bodies = tuple(build(ds.chains) for ((_, ds),) in picks)
        else:
            bodies = tuple(build(_merged(pick)) for pick in picks)
        return bodies, overrun

    def _choices(self, pattern, dom, singular, vset):
        """What one argument can pass, computed once per enumerator for
        each (pattern, dom, singular, vset)."""
        key = (pattern, dom, singular, vset)
        got = self._choice_cache.get(key)
        if got is None:
            got = self._choice_cache[key] = self._choose(pattern, dom, singular, vset)
        return got

    def _choose(self, pattern, dom, singular, vset):
        """What one argument can pass: (matchers, ?-combination) pairs,
        empty when no value in vset matches the pattern. Every mode starts
        from the maximal restricted matchers and differs only in the
        matcher sets it passes."""
        if pattern.kind == VAR and pattern.name not in dom:
            # body ignores this argument, and vset is None; every value
            # matches trivially
            return [(({},), DisjSubst({}))]
        # the maximal matchers are the matchers of the maximal values
        maximal = [m for t in sorted(vset, key=_rank)
                   if (m := match_value(pattern, t)) is not None]
        if not maximal:
            return []
        if not pattern.varset <= dom:
            maximal = maximal_substs(
                {x: img for x, img in m.items() if x in dom} for m in maximal
            )
        if singular:
            passed = [(m,) for m in maximal]
        elif self._alpha or len(dom) < 2 or len(maximal) == 1:
            # over one variable, or below one maximal matcher, beta's one
            # maximal product, cut to its maximal images, is alpha's chain
            # (module docstring)
            passed = [tuple(maximal)]
        else:
            passed = self._maximal_products(maximal, sorted(dom))
        choices = []
        seen = set()
        for combo in passed:
            ds = question_combine_set(combo)
            if ds not in seen:
                seen.add(ds)
                choices.append((combo, ds))
        return choices

    def _maximal_products(self, maximal, names):
        """The maximal compressible subsets of the matchers below the
        maximal ones, each cut column by column to its maximal images, in
        canonical order. The matchers below are taken as image tuples over
        names: per maximal matcher, the product of the down-closures of its
        images (module docstring)."""
        idents = [var(x) for x in names]
        below = set()
        for m in maximal:
            below.update(product(*(down_closure(m.get(x, i)) for x, i in zip(names, idents))))
        if self._budget is not None and len(below) > _MATCHER_GUARD:
            raise BudgetExceeded(
                "%d matchers for one argument overrun the budget" % len(below)
            )
        cuts = sorted(
            (tuple(sorted(maximal_terms(column), key=_rank) for column in columns)
             for columns in maximal_products(below)),
            key=lambda cut: [[term_key(t) for t in column] for column in cut],
        )
        return [
            tuple(
                {x: t for x, t, i in zip(names, images, idents) if t is not i}
                for images in product(*cut)
            )
            for cut in cuts
        ]

    def build_trace(self, expr: Term, k: int, value: Term) -> TraceNode:
        """A derivation of expr =>> value at depth k, rebuilt from the memo.

        A call takes the first pick, in evaluation order, whose body holds
        the value at depth k-1; other nodes follow from the value's shape.
        Raises ValueError when value is not in values(expr, k)."""
        if value is BOT:
            return TraceNode("B", expr, BOT)
        if expr.kind == VAR and value is expr:
            return TraceNode("RR", expr, value)
        if expr.kind == APP and expr.name in self._fnames:
            for rule, per_arg, bodies in self._unfold(expr, k):
                for pick, inst in zip(product(*per_arg), bodies):
                    if _holds(self.values(inst, k - 1), value):
                        theta = DisjSubst.join([ds for _, ds in pick])
                        choices = tuple(c for c, _ in pick)
                        kids = [
                            self.build_trace(expr.children[i], k - 1, v)
                            for i, v in _premises(rule, choices)
                        ]
                        kids.append(self.build_trace(inst, k - 1, value))
                        return TraceNode(self._or_tag, expr, value, rule, theta, choices, kids)
        elif expr.kind == APP and value.kind == APP and value.name == expr.name:
            kids = [
                self.build_trace(c, k, v) for c, v in zip(expr.children, value.children)
            ]
            return TraceNode("DC", expr, value, children=kids)
        raise ValueError(
            "%s is not a value of %s at depth %d" % (format_term(value), format_term(expr), k)
        )


class DenotationStream:
    """Deduplicated stream of maximal values: strata by increasing depth,
    canonical term order within a stratum, totals only if asked. `depth`
    bounds the sweeps; None means unbounded (the stream then ends only on
    a proven fixpoint). `swept` is the deepest depth swept so far, -1
    before the first sweep. `complete` is set when the stream proved at
    depth `swept` that it can never yield more (fixpoint), as opposed to
    hitting the bound."""

    def __init__(self, enum: Sweeper, expr: Term, depth: Optional[int],
                 totals_only: bool = False):
        if depth is not None and depth < 0:
            raise ValueError("depth must be non-negative")
        self.enum = enum
        self.expr = expr
        self.depth = depth
        self.totals_only = totals_only
        self.swept = -1
        self._yielded: set = set()
        self._buffer: deque = deque()
        self.done = False
        self.complete = False

    def __iter__(self):
        return self

    def __next__(self) -> Term:
        while not self._buffer and not self.done:
            self._advance()
        if self._buffer:
            return self._buffer.popleft()
        raise StopIteration

    def _advance(self):
        d = self.swept + 1
        if self.depth is not None and d > self.depth:
            self.done = True
            return
        self.enum.begin_sweep()
        current = self.enum.values(self.expr, d)
        fresh = current - self._yielded
        if self.totals_only:
            fresh = [t for t in fresh if t.total]
        stratum = sorted(fresh, key=term_key)
        self._yielded.update(stratum)
        self._buffer.extend(stratum)
        self.swept = d
        if d > 0 and current == self.enum.values(self.expr, d - 1):
            self.enum.root = self.expr
            self.done = self.complete = self.enum.confirm_fixpoint(d)

    def deepen(self, depth: Optional[int]) -> None:
        """Raises the bound to depth, None for no bound. A stream that
        stopped at its old bound goes on, with the sweeps and proof
        attempts a fresh stream bounded at depth makes past the old
        bound."""
        if depth is not None and (self.depth is None or depth < self.depth):
            raise ValueError("a bound only rises: %s to %d" % (self.depth, depth))
        self.depth = depth
        self.done = self.complete

    def derivation(self, value: Term) -> TraceNode:
        """A derivation of a value the stream yielded, rebuilt at the least
        swept depth whose set holds it. Raises ValueError when no swept
        depth does."""
        for depth in range(self.swept + 1):
            if _holds(self.enum.values(self.expr, depth), value):
                return self.enum.build_trace(self.expr, depth, value)
        raise ValueError("%s is not a value of %s at depth %d or below" % (
            format_term(value), format_term(self.expr), self.swept))


def enumerate_values(program: Program, mode: str, expr: Term, depth: Optional[int],
                     totals_only: bool = False) -> DenotationStream:
    return DenotationStream(Enumerator(program, mode), expr, depth, totals_only)

