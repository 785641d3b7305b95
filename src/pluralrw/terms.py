"""Terms, orderings, matching and the shared low-level vocabulary.

Expressions are trees built from three node kinds: variables, an explicit
"undefined" leaf (input token ``bot``, printed ``_|_``), and applications
of named symbols. Whether an application is a constructor or a defined
function is not a property of the tree; it is decided by the Signature the
term is used with, so the same term values can be shared freely between
programs.

Terms are interned: structurally equal terms are the same object, so
equality and the hash are those of identity. Frequently needed facts
(depth, size, weight, variable set, applied symbols, totality) are stored
on the node at construction time, in one pass over its children. The
canonical sort key is built the first time the term is sorted
(`term_key`): the rewriting engine never sorts its states. This is what
keeps the enumerator and the rewrite search affordable. Interning is not
thread safe; build terms from one thread and share them read-only
afterwards.

A term is instantiated in one of two ways. apply_subst walks the term
and tests the mapping at every node; it serves one-off substitutions.
instantiator compiles a term once into a builder of its instances, a
tree of closures over the subterms that hold a variable, which the
engines make for each rule body they unfold and call for every
instance. Both give the same interned term.

The intern table holds one dict per node kind, from name to a dict keyed
by the children tuple that the term itself keeps, so a term costs one
probe and no object besides itself and its children tuple. A variable and
a constant of the same name live under different kinds and stay distinct.

Three tables live as long as the process and never shrink: the intern
table, one object per distinct variable or symbol set (so a full garbage
collection scans no per-term copy; each symbol name also maps to its
singleton set there), and the down-closure of each term asked for one. A
down-closure depends on nothing but its term, so every program, mode and
enumerator shares it.
"""

from __future__ import annotations

from itertools import product
from typing import Callable, Mapping, Optional, Sequence

BOTTOM, VAR, APP = 0, 1, 2


class Term:
    __slots__ = (
        "kind",
        "name",
        "children",
        "depth",
        "size",
        "weight",
        "total",
        "varset",
        "symbols",
        "_key",
    )

    kind: int
    name: str
    children: tuple["Term", ...]
    depth: int
    size: int
    weight: int
    total: bool
    varset: frozenset
    symbols: frozenset

    def __repr__(self) -> str:  # debugging aid, not the surface printer
        if self.kind == BOTTOM:
            return "_|_"
        if self.kind == VAR:
            return self.name
        if not self.children:
            return self.name
        return "%s(%s)" % (self.name, ",".join(repr(c) for c in self.children))


_TABLE: tuple = ({}, {}, {})  # per kind: name -> {children: term}
_SETS: dict = {}  # each distinct set -> its one object; symbol name -> its singleton


def _shared(s: frozenset) -> frozenset:
    return _SETS.setdefault(s, s)


_EMPTY = _shared(frozenset())


def _make(kind: int, name: str, children: tuple) -> Term:
    by_name = _TABLE[kind]
    table = by_name.get(name)
    if table is None:
        table = by_name[name] = {}
    else:
        t = table.get(children)
        if t is not None:
            return t
    t = Term.__new__(Term)
    t.kind = kind
    t.name = name
    t.children = children
    if kind == APP:
        depth = 0
        size = weight = 1
        total = True
        vs = _EMPTY
        sy = _SETS.get(name)
        if sy is None:
            sy = _SETS[name] = _shared(frozenset((name,)))
        for c in children:
            if c.depth > depth:
                depth = c.depth
            size += c.size
            weight += c.weight
            if not c.total:
                total = False
            # a child's set that covers the one so far replaces it, and
            # one that adds nothing leaves it: no union in either case
            s = c.varset
            if s is not vs:
                if vs <= s:
                    vs = s
                elif not s <= vs:
                    vs = _shared(vs | s)
            s = c.symbols
            if s is not sy:
                if sy <= s:
                    sy = s
                elif not s <= sy:
                    sy = _shared(sy | s)
        t.depth = depth + 1
        t.size = size
        t.weight = weight
        t.total = total
        t.varset = vs
        t.symbols = sy
        t._key = None  # built by term_key when first sorted
    elif kind == VAR:
        t.depth = 0
        t.size = t.weight = 1
        t.total = True
        t.varset = _shared(frozenset((name,)))
        t.symbols = _EMPTY
        t._key = (0, 1, name)
    else:
        t.depth = t.weight = 0
        t.size = 1
        t.total = False
        t.varset = t.symbols = _EMPTY
        t._key = (0, 0)
    table[children] = t
    return t


BOT: Term = _make(BOTTOM, "", ())


def var(name: str) -> Term:
    return _make(VAR, name, ())


def app(name: str, children: Sequence[Term] = ()) -> Term:
    return _make(APP, name, tuple(children))


def term_key(t: Term) -> tuple:
    """Canonical sort key: by depth, with _|_ least and variables before
    applications, then by root name and children.

    An application's key is built the first time it is asked for, and
    kept. The walk is a loop over an explicit stack, so a deep term is
    keyed without Python recursion."""
    if t._key is None:
        stack = [t]
        while stack:
            u = stack.pop()
            if u._key is not None:
                continue
            pending = [c for c in u.children if c._key is None]
            if pending:
                stack.append(u)
                stack.extend(pending)
            else:
                u._key = (u.depth, 2, u.name, tuple(c._key for c in u.children))
    return t._key


def approx_leq(a: Term, b: Term) -> bool:
    """The approximation ordering: a is b with some subterms cut to _|_."""
    if a is BOT or a is b:
        return True
    if a.kind != APP or b.kind != APP or a.name != b.name:
        return False
    if len(a.children) != len(b.children):
        return False
    return all(approx_leq(x, y) for x, y in zip(a.children, b.children))


_DC_CACHE: dict = {}


def down_closure(t: Term) -> frozenset:
    """All terms below t in the approximation ordering: _|_, and the root
    over every choice from its children's down-closures.

    Exponential in the size of t; memoized on the interned term so shared
    subterms pay once.
    """
    if t is BOT:
        return frozenset((BOT,))
    if t.kind == VAR:
        return frozenset((BOT, t))
    got = _DC_CACHE.get(t)
    if got is None:
        out = {BOT}
        out.update(
            _make(APP, t.name, combo) for combo in product(*map(down_closure, t.children))
        )
        got = _DC_CACHE[t] = frozenset(out)
    return got


def apply_subst(t: Term, mapping: Mapping[str, Term]) -> Term:
    if not mapping or t.varset.isdisjoint(mapping):
        return t
    if t.kind == VAR:
        return mapping.get(t.name, t)
    return _make(APP, t.name, tuple(apply_subst(c, mapping) for c in t.children))


def instantiator(t: Term) -> Callable[[Mapping[str, Term]], Term]:
    """The builder of t's instances: instantiator(t)(mapping) is the term
    apply_subst(t, mapping) returns, interned terms being one object per
    structure. It is made once per term and then tests nothing: a ground
    subterm is returned as it is, a variable looks itself up, and an
    application interns its rebuilt children."""
    if not t.varset:
        return lambda mapping: t
    if t.kind == VAR:
        name = t.name
        return lambda mapping: mapping.get(name, t)
    name = t.name
    parts = tuple(map(instantiator, t.children))
    if len(parts) == 1:
        (a,) = parts
        return lambda mapping: _make(APP, name, (a(mapping),))
    if len(parts) == 2:
        a, b = parts
        return lambda mapping: _make(APP, name, (a(mapping), b(mapping)))
    if len(parts) == 3:
        a, b, c = parts
        return lambda mapping: _make(APP, name, (a(mapping), b(mapping), c(mapping)))
    return lambda mapping: _make(APP, name, tuple([p(mapping) for p in parts]))


def match_value(pattern: Term, value: Term) -> Optional[dict]:
    """Match a linear constructor pattern against a partial value.

    Returns the unique binding map (identity bindings omitted) such that
    applying it to the pattern reproduces the value, or None. _|_ in the
    value matches only pattern variables.
    """
    out: dict = {}
    if _match(pattern, value, out):
        return out
    return None


def _match(p: Term, t: Term, out: dict) -> bool:
    if p.kind == VAR:
        if p.name in out:
            return out[p.name] is t  # repeated var: tolerate, require same value
        if not (t.kind == VAR and t.name == p.name):
            out[p.name] = t
        return True
    if p.kind == BOTTOM:
        return t is BOT
    if t.kind != APP or t.name != p.name or len(t.children) != len(p.children):
        return False
    return all(_match(pc, tc, out) for pc, tc in zip(p.children, t.children))


class PositionError(ValueError):
    pass


def replace_at(t: Term, pos: Sequence[int], repl: Term) -> Term:
    if not pos:
        return repl
    i = pos[0]
    if t.kind != APP or not (1 <= i <= len(t.children)):
        raise PositionError("no position %r in %r" % (tuple(pos), t))
    kids = list(t.children)
    kids[i - 1] = replace_at(kids[i - 1], pos[1:], repl)
    return _make(APP, t.name, tuple(kids))


class SignatureError(ValueError):
    pass


class Signature:
    """Disjoint constructor and function symbol tables with arities.

    The choice operator `?` and the conditional `if_then` are functions of
    arity 2 in every signature. tt and ff are always nullary constructors.
    """

    __slots__ = ("constructors", "functions")

    def __init__(self, constructors=None, functions=None):
        self.constructors = dict(constructors or {})
        self.functions = dict(functions or {})
        for builtin in ("?", "if_then"):
            have = self.functions.setdefault(builtin, 2)
            if have != 2:
                raise SignatureError("%s must have arity 2" % builtin)
        for const in ("tt", "ff"):
            have = self.constructors.setdefault(const, 0)
            if have != 0:
                raise SignatureError("%s must be a constant" % const)
        clash = set(self.constructors) & set(self.functions)
        if clash:
            raise SignatureError(
                "symbols are both constructor and function: %s" % ", ".join(sorted(clash))
            )
        for table in (self.constructors, self.functions):
            for name, ar in table.items():
                if not isinstance(ar, int) or ar < 0:
                    raise SignatureError("bad arity for %s: %r" % (name, ar))

    def is_function(self, name: str) -> bool:
        return name in self.functions

    def arity(self, name: str) -> Optional[int]:
        if name in self.constructors:
            return self.constructors[name]
        return self.functions.get(name)

    def ensure_constant(self, name: str) -> None:
        """Register an ad-hoc nullary constructor (used by query parsing)."""
        if name in self.functions:
            raise SignatureError("%s is a function" % name)
        have = self.constructors.setdefault(name, 0)
        if have != 0:
            raise SignatureError("%s already has arity %d" % (name, have))

    def is_cterm(self, t: Term) -> bool:
        """No defined function symbol anywhere in t."""
        return t.symbols.isdisjoint(self.functions)


def is_linear(terms: Sequence[Term]) -> bool:
    """True when no variable occurs twice across the given tuple of terms."""
    seen: set = set()
    total = 0
    for t in terms:
        total += _count_var_occurrences(t)
        seen |= t.varset
    return total == len(seen)


def _count_var_occurrences(t: Term) -> int:
    if t.kind == VAR:
        return 1
    return sum(_count_var_occurrences(c) for c in t.children)
