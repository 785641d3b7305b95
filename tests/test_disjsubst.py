import random
from itertools import product

import pytest
from hypothesis import given, strategies as st

from pluralrw.terms import BOT, app, approx_leq, var
from pluralrw.disjsubst import (
    DisjSubst,
    compressible_subsets,
    image_of,
    is_compressible,
    maximal_products,
    maximal_substs,
    question_combine_set,
    subst_key,
    subst_leq,
)

from pluralrw.harness import brute_force_compressible

from oracles import compressible_completion, random_theta_set, restrict, restrict_compressible

zero = app("0")
one = app("1")
X, Y = var("X"), var("Y")

T00 = {"X": zero, "Y": zero}
T11 = {"X": one, "Y": one}
T01 = {"X": zero, "Y": one}
T10 = {"X": one, "Y": zero}


def frozen(thetas):
    return {frozenset(t.items()) for t in thetas}


def test_question_combine_all_domains_agree():
    ds = question_combine_set([T00, T11])
    assert ds.alts == {"X": (zero, one), "Y": (zero, one)}


def test_question_combine_singleton_is_identity():
    ds = question_combine_set([T01])
    assert ds.alts == {"X": (zero,), "Y": (one,)}
    assert question_combine_set([{"X": X, "Y": one}]).alts == {"Y": (one,)}


def test_question_combine_missing_variable_adds_identity_alternative():
    ds = question_combine_set([{"X": zero}, {"Y": one}])
    assert ds.alts == {"X": (X, zero), "Y": (Y, one)}


def test_question_combine_domain_is_union():
    thetas = [{"X": zero}, {"Y": one}, {"X": one, "Y": zero}]
    assert set(question_combine_set(thetas).alts) == {"X", "Y"}


def test_question_combine_rejects_empty():
    with pytest.raises(ValueError):
        question_combine_set([])


def test_question_combine_set_does_not_depend_on_order():
    assert question_combine_set([T11, T00]) == question_combine_set([T00, T11])


def test_disjsubst_canonicalizes():
    a = DisjSubst({"X": (one, zero, one)})
    assert a.alts == {"X": (zero, one)}
    assert a == DisjSubst({"X": (zero, one)})
    assert hash(a) == hash(DisjSubst({"X": (zero, one)}))


def test_disjsubst_drops_identity_singleton():
    assert set(DisjSubst({"X": (X,), "Y": (zero,)}).alts) == {"Y"}
    assert DisjSubst({"X": [X, X]}).alts == {}
    with pytest.raises(ValueError):
        DisjSubst({"X": ()})


def test_disjsubst_chain_and_apply():
    # a chain per bound variable, built with the DisjSubst
    ds = question_combine_set([T00, T11])
    assert ds.chains == {"X": app("?", (zero, one)), "Y": app("?", (zero, one))}
    assert question_combine_set([T00, {"X": zero}]).chains == {
        "X": zero, "Y": app("?", (Y, zero))}
    t = ds.apply(app("d", (X, Y)))
    assert t is app("d", (app("?", (zero, one)), app("?", (zero, one))))


def test_subst_leq_uses_identity_images():
    assert subst_leq({"X": BOT}, {"X": zero})
    assert not subst_leq({}, {"X": zero})  # X vs 0 are incomparable
    assert subst_leq({"X": BOT, "Y": zero}, {"X": one, "Y": zero})
    assert not subst_leq({"X": zero}, {"X": one})


def test_maximal_substs():
    got = maximal_substs([{"X": BOT, "Y": BOT}, T00, T11, {"X": zero, "Y": BOT}])
    assert frozen(got) == frozen([T00, T11])
    assert maximal_substs([T00, T00]) == [T00]


def test_is_compressible_examples():
    assert not is_compressible([T00, T11])
    assert is_compressible([T00, T01, T10, T11])
    assert is_compressible([T01])
    assert is_compressible([])
    assert is_compressible([{"X": zero}, {"X": one}])  # one variable
    assert is_compressible([{"X": zero, "Y": BOT}, {"X": one, "Y": BOT}])


def test_compressible_completion_examples():
    assert frozen(compressible_completion([T00, T11])) == frozen([T00, T01, T10, T11])
    assert frozen(compressible_completion([T01])) == frozen([T01])
    single = [{"X": zero}, {"X": one}]
    assert frozen(compressible_completion(single)) == frozen(single)
    with pytest.raises(ValueError):
        compressible_completion([])


def test_restrict_compressible():
    with pytest.raises(ValueError):
        restrict_compressible([T00, T11], {"X"})
    got = restrict_compressible(
        [{"X": zero, "Y": BOT}, {"X": one, "Y": BOT}], {"X"}
    )
    assert frozen(got) == frozen([{"X": zero}, {"X": one}])
    got = restrict_compressible(compressible_completion([T00, T11]), {"Y"})
    assert frozen(got) == frozen([{"Y": zero}, {"Y": one}])


def test_compressible_subsets_single_variable_gives_all():
    pool = [{"X": zero}, {"X": one}, {"X": BOT}]
    subsets = list(compressible_subsets(pool, width=4))
    assert len(subsets) == 7  # every non-empty subset of three substs


def test_compressible_subsets_filters_noncompressible():
    subsets = [set(map(lambda d: frozenset(d.items()), s))
               for s in compressible_subsets([T00, T11], width=4)]
    assert {frozenset(T00.items())} in subsets
    assert {frozenset(T11.items())} in subsets
    assert {frozenset(T00.items()), frozenset(T11.items())} not in subsets


def test_compressible_subsets_respects_width():
    pool = [{"X": zero}, {"X": one}, {"X": BOT}, {"X": app("c", (zero,))}]
    assert all(len(s) <= 2 for s in compressible_subsets(pool, width=2))


def test_maximal_products_are_the_maximal_compressible_subsets():
    # against every compressible subset, of any size, kept where no other
    # contains it
    for seed in range(1, 301):
        pool = random_theta_set(seed, 8, ("X", "Y") if seed % 2 else ("X", "Y", "Z"))
        names = sorted(set().union(*pool)) or ["X"]
        rows = {tuple(image_of(t, x) for x in names) for t in pool}
        subsets = [
            frozenset(tuple(image_of(t, x) for x in names) for t in combo)
            for combo in compressible_subsets(pool, None)
        ]
        want = {s for s in subsets if not any(s < other for other in subsets)}
        got = {frozenset(product(*columns)) for columns in maximal_products(rows)}
        assert got == want, "seed %d: %r" % (seed, pool)


def test_cross_check_500_seeds():
    for seed in range(1, 501):
        thetas = random_theta_set(seed)
        assert is_compressible(thetas) == brute_force_compressible(thetas), (
            "seed %d: %r" % (seed, thetas)
        )


# derived law checks over random substitution sets

substs = st.dictionaries(
    st.sampled_from(["X", "Y", "Z"]),
    st.sampled_from([BOT, zero, one, app("c", (zero,)), app("c", (BOT,))]),
    max_size=3,
)
theta_sets = st.lists(substs, min_size=1, max_size=4)


@given(theta_sets)
def test_combine_domain_law(thetas):
    expect = set().union(*(set(t) for t in thetas))
    assert set(question_combine_set(thetas).alts) == expect


@given(theta_sets, theta_sets)
def test_combine_monotone_in_subset(small, extra):
    big = small + extra
    a = question_combine_set(small)
    b = question_combine_set(big)
    for x in a.alts:
        for alt in a.alts[x]:
            assert any(approx_leq(alt, other) for other in b.alts.get(x, (var(x),)))


@given(theta_sets)
def test_completion_laws(thetas):
    cc = compressible_completion(thetas)
    assert is_compressible(cc)
    assert brute_force_compressible(cc)
    doms = set().union(*(set(t) for t in thetas))
    pruned = {x for x in doms if any(x in t for t in cc)}
    assert pruned <= doms
    for t in thetas:
        restricted = restrict(t, doms)
        assert frozenset(restricted.items()) in {frozenset(c.items()) for c in cc}
    again = compressible_completion(cc)
    assert frozen(again) == frozen(cc)


@given(theta_sets)
def test_compressible_agrees_with_brute_force(thetas):
    assert is_compressible(thetas) == brute_force_compressible(thetas)


def test_subst_key_orders_deterministically():
    ordered = sorted([T11, T00, {"X": zero}], key=subst_key)
    assert ordered[0] == {"X": zero}
    assert ordered[1] == T00
    assert ordered[2] == T11


def test_image_of_identity():
    assert image_of({}, "X") is X
    assert image_of(T00, "X") is zero


def random_disjoint_parts(seed):
    """One to four canonical DisjSubsts over disjoint variable sets, each
    the ?-combination of a random substitution set, as a rule's
    per-argument choices are."""
    rng = random.Random(seed)
    names = ["X%d" % i for i in range(rng.randint(0, 8))]
    rng.shuffle(names)
    cuts = sorted(rng.randint(0, len(names)) for _ in range(rng.randint(0, 3)))
    parts = []
    for lo, hi in zip([0] + cuts, cuts + [len(names)]):
        group = names[lo:hi]
        if group:
            parts.append(question_combine_set(random_theta_set(seed * 7 + lo, names=group)))
        else:
            parts.append(DisjSubst({}))
    return parts


def test_join_equals_disjsubst_of_the_merged_alternatives():
    for seed in range(500):
        parts = random_disjoint_parts(seed)
        merged = {}
        for part in parts:
            merged.update(part.alts)
        want = DisjSubst(merged)
        got = DisjSubst.join(parts)
        assert got == want and want == got, seed
        assert hash(got) == hash(want), seed
        assert got.alts == want.alts, seed
        assert got.chains == want.chains, seed
        body = app("l", tuple(var(x) for x in sorted(merged)) + (var("W"),))
        assert got.apply(body) is want.apply(body), seed
        assert len({got, want}) == 1
