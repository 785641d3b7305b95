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
beta-plural arguments pass any compressible subset up to the configured
width). The instantiated right-hand side is then evaluated at depth k-1.

Matchers are restricted to the pattern variables that the rule body
actually uses. Singular and alpha-plural arguments keep only the maximal
matchers under pointwise approximation; both steps preserve the computed
denotation (a dominated matcher binds a shorter disjunction whose value set
the dominating one already yields, and value sets are down-closed).
Dropping dominated matchers can shorten the disjunctions an instantiated
body carries, so individual values may surface at a smaller depth than
they would with the full matcher set; the limit is unchanged.

Beta-plural arguments cannot prune first: they enumerate the compressible
subsets of all matchers, because dominated matchers can be compressible
together where their dominators are not. {X/a,Y/_|_} and {X/c,Y/_|_}
compress to X/(a?c), while their dominators {X/a,Y/b} and {X/c,Y/d} do
not; pruning before choosing subsets would lose X/(a?c).

Derivations are not recorded while values are computed. build_trace
rebuilds one from the memo afterwards: B for bottom, RR for a variable, DC
for a constructor, and for a call the first pick, in evaluation order,
whose instantiated body holds the value one level down.

Sets are not monotone in depth: dropping a dominated matcher can lengthen
a ?-chain, so a value can vanish and resurface later. The fixpoint test
needs no monotonicity: a sweep at depth d that changes no memo entry from
depth d-1 makes every later sweep repeat it; unbounded streams stop there.
"""

from __future__ import annotations

from itertools import product
from typing import Dict, FrozenSet, List, Optional, Tuple

from .disjsubst import (
    DisjSubst,
    PSubst,
    compressible_subsets,
    is_compressible,
    maximal_substs,
    question_combine_set,
)
from .syntax import PL, SG, Program, format_term
from .terms import (
    APP,
    BOT,
    BOTTOM,
    VAR,
    Term,
    app,
    apply_subst,
    down_closure,
    match_value,
    term_key,
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


def _maximal_terms(terms) -> List[Term]:
    """Maximal elements of a value set under approximation.

    Heavy-to-light sweep with domination tested as membership in the
    kept terms' down-closures: one hash lookup instead of a tree walk,
    which matters because value sets are down-closed and huge while their
    generator antichain stays small.  Weight (non-bottom node count)
    strictly decreases along proper approximation, so every dominator
    precedes its victims and one sweep suffices.
    """
    pool = sorted(terms, key=lambda t: -t.weight)
    kept: List[Term] = []
    closures: List[frozenset] = []
    for t in pool:
        if not any(t in dc for dc in closures):
            kept.append(t)
            closures.append(down_closure(t))
    return kept


class BudgetExceeded(RuntimeError):
    """Raised when an enumeration outgrows the enumerator's value budget.

    Only enumerators constructed with a budget raise this; interactive use
    runs unbudgeted. The sets memoized before the overflow stay valid."""


# quartic guard: candidate matcher sets feed subset enumeration, which is
# O(n^width); past this size a budgeted run bails out instead of stalling
_MATCHER_GUARD = 48


class EnumConfig:
    """depth None means unbounded (terminates only on a proven fixpoint)."""

    __slots__ = ("depth", "plural_width", "totals_only")

    def __init__(self, depth=12, plural_width=4, totals_only=False):
        if depth is not None and depth < 0:
            raise ValueError("depth must be non-negative")
        if plural_width is not None and plural_width < 1:
            raise ValueError("plural_width must be positive")
        self.depth = depth
        self.plural_width = plural_width
        self.totals_only = totals_only


def _arg_tags(program: Program, mode: str, fname: str, arity: int) -> Tuple[str, ...]:
    """How each argument of fname is passed under the mode: SG or PL."""
    if mode == CALL_TIME or fname in ("?", "if_then"):
        return (SG,) * arity
    if mode in (ALPHA, BETA):
        return (PL,) * arity
    return program.plurality_of(fname)


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


class Enumerator:
    """Memoized value-set computation for one (program, mode, width).

    Safe to reuse across expressions and depths; the memo is shared, which
    keeps iterative deepening and multi-query tests cheap.
    """

    def __init__(
        self,
        program: Program,
        mode: str,
        plural_width: int = 4,
        value_budget: Optional[int] = None,
    ):
        if mode not in MODES:
            raise ValueError("unknown mode %r" % mode)
        self.program = program
        self.mode = mode
        self.width = plural_width
        self.sig = program.signature
        self._budget = value_budget
        self._memo: Dict[Tuple[Term, int], FrozenSet[Term]] = {}
        self._dirty = True
        self._support: set = set()
        self._alpha = mode in (ALPHA, COMBINED_ALPHA)
        self._or_tag = _OR_TAG[mode]
        self._rule_cache: Dict[str, list] = {}
        self._fnames = frozenset(program.signature.functions)
        self._max_cache: Dict[FrozenSet[Term], List[Term]] = {}
        self._union_cache: Dict[FrozenSet[FrozenSet[Term]], FrozenSet[Term]] = {}

    # sweep protocol: begin_sweep, then values(expr, d). A sweep that
    # created no entry differing from its depth d-1 counterpart MAY be at
    # a fixpoint, but lazy evaluation can stall a still-growing chain out
    # of view; confirm_fixpoint re-evaluates every expression ever touched
    # at the current depth, which makes the verdict sound.
    def begin_sweep(self):
        self._dirty = False

    @property
    def sweep_clean(self) -> bool:
        return not self._dirty

    def confirm_fixpoint(self, depth: int) -> bool:
        while True:
            snapshot = list(self._support)
            for x in snapshot:
                self.values(x, depth)
            if len(self._support) == len(snapshot):
                break
        return not self._dirty

    def _rules(self, fname: str):
        cached = self._rule_cache.get(fname)
        if cached is None:
            cached = []
            for _i, rule in self.program.rules_by_root.get(fname, ()):
                doms = tuple(
                    frozenset(p.varset & rule.rhs.varset) for p in rule.args
                )
                tags = _arg_tags(self.program, self.mode, fname, len(rule.args))
                cached.append((rule, doms, tags))
            self._rule_cache[fname] = cached
        return cached

    def values(self, expr: Term, k: int) -> FrozenSet[Term]:
        key = (expr, k)
        got = self._memo.get(key)
        if got is not None:
            return got
        self._support.add(expr)
        if expr.kind != APP:
            result = _BOTTOM_ONLY if expr.kind == BOTTOM else frozenset((BOT, expr))
        elif expr.symbols.isdisjoint(self._fnames):
            # function-free expressions are their own down-closure at any depth
            result = down_closure(expr)
        elif self.sig.is_function(expr.name):
            result = self._union(
                [self.values(inst, k - 1) for _r, _p, _t, inst in self._picks(expr, k)]
            )
        else:
            result = self._constructor_values(expr, k)
        if self._budget is not None and len(result) > self._budget:
            raise BudgetExceeded(
                "value set of size %d exceeds the budget %d" % (len(result), self._budget)
            )
        prev = self._memo.get((expr, k - 1)) if k > 0 else None
        if prev is result:
            pass
        elif prev == result:
            # share the object so unchanged sets can be recognized by
            # identity at the next depth
            result = prev
        else:
            self._dirty = True
        self._memo[key] = result
        return result

    def _union(self, parts: List[FrozenSet[Term]]) -> FrozenSet[Term]:
        # union the per-pick result sets by reference; repeated unions of
        # the same parts (the common case once low levels stabilize) come
        # out of the cache as the same object, so the unchanged-set check
        # in values stays an identity test instead of a big-set comparison
        uniq = list({id(p): p for p in parts}.values())
        if not uniq:
            return _BOTTOM_ONLY
        if len(uniq) == 1:
            return uniq[0]
        ckey = frozenset(uniq)
        result = self._union_cache.get(ckey)
        if result is None:
            result = frozenset().union(*uniq)
            self._union_cache[ckey] = result
        return result

    def _constructor_values(self, expr, k):
        child_sets = [self.values(c, k) for c in expr.children]
        if k > 0:
            prev = self._memo.get((expr, k - 1))
            if prev is not None and all(
                cs is self._memo.get((c, k - 1))
                for cs, c in zip(child_sets, expr.children)
            ):
                return prev
        out = {BOT}
        budget = self._budget
        for combo in product(*child_sets):
            out.add(app(expr.name, combo))
            if budget is not None and len(out) > budget:
                raise BudgetExceeded("constructor product exceeds the budget")
        return frozenset(out)

    def _picks(self, expr, k):
        """Every way to unfold the call expr at depth k, in evaluation
        order: (rule, one (matchers, ?-combination) choice per argument,
        theta, instantiated body). A rule stops at its first argument, left
        to right, that no value at depth k-1 matches."""
        if k < 1:
            return
        kprev = k - 1
        for rule, doms, tags in self._rules(expr.name):
            per_arg: List[list] = []
            for i, pattern in enumerate(rule.args):
                vset = self.values(expr.children[i], kprev)
                choices = self._choices(pattern, doms[i], tags[i] == SG, vset)
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
                    alts: dict = {}
                    for _, ds in pick:
                        alts.update(ds.alts)
                    theta = DisjSubst(alts)
                    yield rule, pick, theta, theta.apply(rule.rhs)

    def _choices(self, pattern, dom, singular, vset):
        """What one argument can pass: (matchers, ?-combination) pairs,
        empty when no value in vset matches the pattern."""
        if pattern.kind == VAR and pattern.name not in dom:
            # body ignores this argument; every value matches trivially
            return [(({},), DisjSubst({}))]
        if pattern.kind == VAR and (singular or self._alpha):
            # variable pattern: the maximal values are the maximal
            # matchers; skip matching and the dict-based maximality sweep
            top = self._max_cache.get(vset)
            if top is None:
                top = self._max_cache[vset] = _maximal_terms(vset)
            name = pattern.name
            maximal = [{name: t} for t in top]
        else:
            matchers: List[PSubst] = []
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
            if self._budget is not None and len(matchers) > _MATCHER_GUARD:
                raise BudgetExceeded(
                    "%d matchers for one argument overrun the budget" % len(matchers)
                )
            if not (singular or self._alpha):
                choices = []
                seen_ds = set()
                for combo in compressible_subsets(matchers, self.width):
                    ds = question_combine_set(combo)
                    if ds not in seen_ds:
                        seen_ds.add(ds)
                        choices.append((combo, ds))
                return choices
            maximal = maximal_substs(matchers)
        if singular:
            return [((m,), DisjSubst.plain(m)) for m in maximal]
        combo = tuple(maximal)
        return [(combo, question_combine_set(combo))]

    def build_trace(self, expr: Term, k: int, value: Term) -> TraceNode:
        """A derivation of expr =>> value at depth k, rebuilt from the memo.

        A call takes the first pick, in evaluation order, whose body holds
        the value at depth k-1; other nodes follow from the value's shape.
        Raises ValueError when value is not in values(expr, k)."""
        if value is BOT:
            return TraceNode("B", expr, BOT)
        if expr.kind == VAR and value is expr:
            return TraceNode("RR", expr, value)
        if expr.kind == APP and self.sig.is_function(expr.name):
            for rule, pick, theta, inst in self._picks(expr, k):
                if value in self.values(inst, k - 1):
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


def replay_trace(program: Program, mode: str, node: TraceNode) -> bool:
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
    alts: dict = {}
    for i, combo in enumerate(choices):
        if not combo:
            return False
        if tags[i] == SG and len(combo) != 1:
            return False
        if mode in (BETA, COMBINED_BETA) and not is_compressible(combo):
            return False
        alts.update(question_combine_set(combo).alts)
    if DisjSubst(alts) != theta:
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


class DenotationStream:
    """Deduplicated value stream: strata by increasing depth, canonical
    term order within a stratum. `complete` is set when the stream proved
    it can never yield more (fixpoint), as opposed to hitting the bound."""

    def __init__(self, enum: Enumerator, expr: Term, cfg: EnumConfig):
        self.enum = enum
        self.expr = expr
        self.cfg = cfg
        self._depth_next = 0
        self._yielded: set = set()
        self._buffer: List[Term] = []
        self._history: List[FrozenSet[Term]] = []
        self.done = False
        self.complete = False

    def __iter__(self):
        return self

    def __next__(self) -> Term:
        while not self._buffer and not self.done:
            self._advance()
        if self._buffer:
            return self._buffer.pop(0)
        raise StopIteration

    def _advance(self):
        d = self._depth_next
        if self.cfg.depth is not None and d > self.cfg.depth:
            self.done = True
            return
        self.enum.begin_sweep()
        current = self.enum.values(self.expr, d)
        self._history.append(current)
        fresh = current - self._yielded
        if self.cfg.totals_only:
            fresh = [t for t in fresh if t.total]
        stratum = sorted(fresh, key=term_key)
        self._yielded.update(stratum)
        self._buffer.extend(stratum)
        self._depth_next = d + 1
        if d > 0 and self.enum.sweep_clean and self.enum.confirm_fixpoint(d):
            self.done = True
            self.complete = True

    def saturated_at(self) -> Optional[int]:
        """Least depth whose set equals the final one; None when the final
        sweep was still growing an unproven bound."""
        if not self._history:
            return None
        final = self._history[-1]
        least = None
        for d, v in enumerate(self._history):
            if v == final:
                least = d
                break
        if least is None:
            return None
        if least == len(self._history) - 1 and not self.complete:
            return None
        return least


def enumerate_values(program: Program, mode: str, expr: Term, cfg: EnumConfig) -> DenotationStream:
    return DenotationStream(Enumerator(program, mode, cfg.plural_width), expr, cfg)


def values_at(
    program: Program,
    mode: str,
    expr: Term,
    depth: int,
    plural_width: int = 4,
    totals_only: bool = False,
    enum: Optional[Enumerator] = None,
) -> FrozenSet[Term]:
    """The value set at one exact depth; convenience for tests and checks."""
    if enum is None:
        enum = Enumerator(program, mode, plural_width)
    got = enum.values(expr, depth)
    if totals_only:
        return frozenset(t for t in got if t.total)
    return got


def saturates(program: Program, mode: str, expr: Term, cfg: EnumConfig) -> Optional[int]:
    """Least depth at which the value set has already stopped growing, if
    the bound (or a proven fixpoint) shows it stopped; None otherwise."""
    stream = DenotationStream(Enumerator(program, mode, cfg.plural_width), expr, cfg)
    for _ in stream:
        pass
    return stream.saturated_at()


def derives(
    program: Program, mode: str, expr: Term, target: Term, cfg: EnumConfig
) -> Optional[TraceNode]:
    """A replayable derivation of expr =>> target within the depth bound,
    or None. The derivation uses the least sufficient depth."""
    enum = Enumerator(program, mode, cfg.plural_width)
    d = 0
    while cfg.depth is None or d <= cfg.depth:
        enum.begin_sweep()
        got = enum.values(expr, d)
        if target in got:
            trace = enum.build_trace(expr, d, target)
            assert replay_trace(program, mode, trace)
            return trace
        if d > 0 and enum.sweep_clean and enum.confirm_fixpoint(d):
            return None
        d += 1
    return None
