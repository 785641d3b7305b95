"""Disjunctive substitutions and the algebra of plural parameter passing.

A plain substitution (PSubst) is a dict mapping variable names to partial
c-terms, identity bindings omitted. A DisjSubst maps each variable to a
non-empty disjunction of partial c-terms; plain substitutions embed as the
all-singleton case. The one ?-combination, question_combine_set, turns
the set of plain substitutions an argument passes into a DisjSubst; its
result does not depend on the order of the set. It, the compressibility
test and the search for maximal compressible sets live here; the calculi
consume them for parameter passing.

Alternative lists are kept deduplicated and canonically sorted. Denotation
is invariant under reordering and duplication of alternatives, so nothing
is lost, and streams become deterministic.
"""

from __future__ import annotations

from itertools import combinations, product
from typing import Dict, Iterable, Iterator, List, Mapping, Sequence, Tuple

from .terms import VAR, Term, app, apply_subst, approx_leq, term_key, var

PSubst = Dict[str, Term]


def image_of(theta: Mapping[str, Term], name: str) -> Term:
    """X under theta; identity for variables outside the domain."""
    return theta.get(name, var(name))


def subst_key(theta: Mapping[str, Term]) -> tuple:
    """Canonical substitution order: by sorted (variable, image) items."""
    return tuple(sorted((x, term_key(t)) for x, t in theta.items()))


def subst_leq(a: Mapping[str, Term], b: Mapping[str, Term]) -> bool:
    """Pointwise approximation over the union of both domains."""
    names = set(a) | set(b)
    return all(approx_leq(image_of(a, x), image_of(b, x)) for x in names)


def maximal_substs(thetas: Iterable[Mapping[str, Term]]) -> List[PSubst]:
    """The maximal elements under pointwise approximation, input order kept."""
    uniq: List[PSubst] = []
    seen = set()
    for t in thetas:
        d = dict(t)
        frozen = frozenset(d.items())
        if frozen not in seen:
            seen.add(frozen)
            uniq.append(d)
    if len(uniq) <= 1:
        return uniq
    # sweep heavy-to-light so every dominator is met before its victims;
    # identity bindings score zero whether explicit or dropped, so the
    # weight is consistent across the union domains subst_leq inspects,
    # and it strictly decreases along proper pointwise approximation
    order = sorted(
        range(len(uniq)),
        key=lambda i: -sum(t.weight - 1 for t in uniq[i].values()),
    )
    kept: List[int] = []
    for i in order:
        c = uniq[i]
        if not any(subst_leq(c, uniq[j]) for j in kept):
            kept.append(i)
    kept.sort()
    return [uniq[i] for i in kept]


class DisjSubst:
    """Map from variable names to non-empty disjunctions of partial c-terms.

    Stored canonicalized: alternatives sorted by the canonical term order
    with duplicates collapsed; a variable bound only to itself is dropped
    from the domain. Hashable, so substitution choices deduplicate. Each
    variable's ?-chain is built once, with the DisjSubst: `chains` maps
    every bound variable to it, and is the plain substitution that
    instantiates a body under this DisjSubst.
    """

    __slots__ = ("alts", "chains", "_hash")

    def __init__(self, alts: Mapping[str, Sequence[Term]]):
        canon: Dict[str, Tuple[Term, ...]] = {}
        for name, terms in alts.items():
            if not terms:
                raise ValueError("empty disjunction for %s" % name)
            unique = (terms[0],) if len(terms) == 1 else tuple(sorted(set(terms), key=term_key))
            if len(unique) == 1 and unique[0].kind == VAR and unique[0].name == name:
                continue
            canon[name] = unique
        self.alts = canon
        self.chains = {name: _chain(ts) for name, ts in canon.items()}
        self._hash = hash(tuple(sorted((n, ts) for n, ts in canon.items())))

    @classmethod
    def join(cls, parts: Sequence["DisjSubst"]) -> "DisjSubst":
        """The union of DisjSubsts over disjoint domains, such as the
        per-argument choices of a linear left-hand side. The parts are
        canonical already, so no alternative list is sorted again and no
        chain is built again; the result equals, and hashes as, DisjSubst
        of the merged alternatives."""
        if len(parts) == 1:
            return parts[0]
        alts: Dict[str, Tuple[Term, ...]] = {}
        chains: Dict[str, Term] = {}
        for part in parts:
            alts.update(part.alts)
            chains.update(part.chains)
        out = cls.__new__(cls)
        out.alts = alts
        out.chains = chains
        out._hash = hash(tuple(sorted(alts.items())))
        return out

    def apply(self, t: Term) -> Term:
        return apply_subst(t, self.chains)

    def __eq__(self, other):
        return isinstance(other, DisjSubst) and self.alts == other.alts

    def __hash__(self):
        return self._hash

    def __repr__(self):
        inner = ", ".join(
            "%s/%s" % (x, " ? ".join(repr(t) for t in ts))
            for x, ts in sorted(self.alts.items())
        )
        return "[%s]" % inner


def _chain(ts: Tuple[Term, ...]) -> Term:
    # the alternatives as a right-nested ?-term
    out = ts[-1]
    for t in reversed(ts[:-1]):
        out = app("?", (t, out))
    return out


def question_combine_set(thetas: Sequence[Mapping[str, Term]]) -> DisjSubst:
    """?-combine a set of plain substitutions.

    For each variable in the union of the domains: if every substitution
    binds it, the disjunction collects all its images; otherwise the
    variable itself is an extra alternative and the images come from
    exactly the substitutions that do bind it. DisjSubst sorts each
    disjunction canonically, so the result does not depend on the order
    of the set.
    """
    if not thetas:
        raise ValueError("cannot ?-combine an empty set")
    if len(thetas) == 1:
        # every variable is bound by every substitution, once
        return DisjSubst({x: (t,) for x, t in thetas[0].items()})
    alts: Dict[str, List[Term]] = {}
    for x in set().union(*thetas):
        images = [t[x] for t in thetas if x in t]
        alts[x] = images if len(images) == len(thetas) else [var(x)] + images
    return DisjSubst(alts)


def _tuples_over(thetas: Sequence[Mapping[str, Term]], names: Sequence[str]):
    return [tuple(image_of(t, x) for x in names) for t in thetas]


def is_compressible(thetas: Iterable[Mapping[str, Term]]) -> bool:
    """Whether the variable-image tuples of the set form a full product.

    The recombination criterion: for every way of picking one member
    substitution per variable there must be a member realizing exactly the
    picked images, coordinate by coordinate. The realized tuples always lie
    in the product of the per-variable image columns, so that holds exactly
    when there are as many distinct tuples as the product has elements.
    Empty sets, singletons and single-variable domains are immediate.
    """
    pool = [dict(t) for t in thetas]
    names = sorted(set().union(*pool) if pool else set())
    if len(pool) <= 1 or len(names) <= 1:
        return True
    rows = set(_tuples_over(pool, names))
    size = 1
    for i in range(len(names)):
        size *= len({r[i] for r in rows})
    return len(rows) == size


def maximal_products(rows) -> List[Tuple[frozenset, ...]]:
    """The ⊆-maximal products S1 x ... x Sn inside a non-empty set of
    n-tuples, n >= 1, each as its columns (S1, ..., Sn). A compressible
    substitution set is the product of its image columns, so over a set's
    image tuples these are its ⊆-maximal compressible subsets.

    By the first column: a product S1 x R lies inside the rows exactly when
    R lies inside the meet of the fibers {r : (a,) + r in rows} of every a
    in S1. So each maximal product is, for some meet of fibers, a maximal
    product R inside it with S1 every a whose fiber holds R; running over
    the distinct meets finds each one. Each one found is maximal: the meet
    over its S1 lies between R and the meet R came from, so R is maximal
    there too.
    """
    if len(next(iter(rows))) == 1:
        return [(frozenset(r[0] for r in rows),)]
    grouped: Dict[Term, set] = {}
    for r in rows:
        grouped.setdefault(r[0], set()).add(r[1:])
    fibers = {a: frozenset(f) for a, f in grouped.items()}
    meets: set = set()
    for f in fibers.values():
        meets |= {f & g for g in meets}
        meets.add(f)
    meets.discard(frozenset())
    out = set()
    for meet in meets:
        for rest in maximal_products(meet):
            cells = set(product(*rest))
            out.add((frozenset(a for a, f in fibers.items() if cells <= f),) + rest)
    return list(out)


def compressible_subsets(
    thetas: Sequence[Mapping[str, Term]], width: int
) -> Iterator[Tuple[PSubst, ...]]:
    """Non-empty compressible subsets of at most `width` substitutions,
    of any size when width is None or 0.

    Input is canonically ordered first so enumeration order is stable. The
    calculi pass only the maximal ones (maximal_products); every subset
    serves as the tests' reference.
    """
    pool = sorted((dict(t) for t in thetas), key=subst_key)
    top = min(width, len(pool)) if width else len(pool)
    for size in range(1, top + 1):
        for combo in combinations(pool, size):
            if size == 1 or is_compressible(combo):
                yield combo
