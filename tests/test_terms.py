from hypothesis import example, given, strategies as st

from pluralrw.terms import (
    APP,
    BOT,
    BOTTOM,
    VAR,
    PositionError,
    Signature,
    SignatureError,
    app,
    approx_leq,
    apply_subst,
    down_closure,
    instantiator,
    is_linear,
    match_value,
    replace_at,
    term_key,
    var,
)

import pytest

from oracles import shell

X = var("X")
Y = var("Y")
zero = app("0")
one = app("1")


def c(*args):
    return app("c", args)


def d(*args):
    return app("d", args)


def f(*args):
    return app("f", args)


SIG = Signature(
    constructors={"0": 0, "1": 0, "c": 2, "d": 2},
    functions={"f": 1},
)


def test_interning_gives_identity_equality():
    assert c(zero, one) is c(app("0"), app("1"))
    assert var("X") is X
    assert app("0") is not app("1")


def test_a_variable_and_a_constant_of_one_name_are_distinct():
    assert var("a") is not app("a")
    assert (var("a").kind, app("a").kind) == (VAR, APP)


def test_a_deep_term_is_keyed_and_sorted_without_recursion():
    t = app("z_deep")
    for _ in range(5000):
        t = app("s_deep", (t,))
    parent = app("s_deep", (t,))
    assert sorted([parent, t], key=term_key) == [t, parent]
    assert term_key(t)[:3] == (5001, 2, "s_deep")


def test_approx_leq_bottom_is_least():
    assert approx_leq(BOT, d(zero, one))
    assert approx_leq(BOT, BOT)
    assert approx_leq(BOT, X)


def test_approx_leq_pointwise():
    assert approx_leq(c(BOT, zero), c(one, zero))
    assert not approx_leq(d(zero, one), d(one, one))
    assert not approx_leq(X, Y)
    assert not approx_leq(zero, BOT)
    assert not approx_leq(c(zero, zero), d(zero, zero))


def test_shell_cuts_function_roots():
    assert shell(f(zero), SIG) is BOT
    assert shell(c(f(zero), one), SIG) is c(BOT, one)
    assert shell(d(zero, one), SIG) is d(zero, one)
    assert shell(X, SIG) is X
    assert shell(BOT, SIG) is BOT


def test_apply_subst():
    assert apply_subst(d(X, X), {"X": zero}) is d(zero, zero)
    assert apply_subst(X, {}) is X
    alt = app("?", (zero, one))
    assert apply_subst(app("c2", (X,)), {"X": alt}) is app("c2", (alt,))


def test_match_value_decomposes():
    assert match_value(app("c2", (X,)), app("c2", (zero,))) == {"X": zero}
    assert match_value(app("c2", (X,)), BOT) is None
    assert match_value(d(X, Y), d(zero, BOT)) == {"X": zero, "Y": BOT}


def test_match_value_drops_identity_bindings():
    # dom(theta) holds only variables actually moved
    assert match_value(d(X, Y), d(X, zero)) == {"Y": zero}
    assert match_value(X, X) == {}


def test_match_value_mismatch():
    assert match_value(zero, one) is None
    assert match_value(c(X, Y), d(zero, one)) is None
    assert match_value(zero, X) is None


def test_replace_at():
    nine = app("9")
    assert replace_at(d(zero, one), (2,), nine) is d(zero, nine)
    assert replace_at(zero, (), nine) is nine


def test_position_errors():
    with pytest.raises(PositionError):
        replace_at(X, (1,), zero)
    with pytest.raises(PositionError):
        replace_at(d(zero, one), (3,), zero)
    with pytest.raises(PositionError):
        replace_at(d(zero, one), (1, 1), zero)


def test_signature_rejects_overlap():
    with pytest.raises(SignatureError):
        Signature(constructors={"f": 1}, functions={"f": 1})
    with pytest.raises(SignatureError):
        Signature(functions={"?": 3})
    with pytest.raises(SignatureError):
        Signature(constructors={"tt": 2})


def test_signature_builtins_present():
    s = Signature()
    assert s.functions["?"] == 2
    assert s.functions["if_then"] == 2
    assert s.constructors["tt"] == 0


def test_signature_cterm_and_arity():
    assert SIG.is_cterm(c(zero, X))
    assert not SIG.is_cterm(f(zero))
    # unknown symbols count as constructors
    assert SIG.is_cterm(app("fresh"))


def test_ensure_constant():
    s = Signature(functions={"g": 1})
    s.ensure_constant("pepe")
    assert s.constructors["pepe"] == 0
    s.ensure_constant("pepe")
    with pytest.raises(SignatureError):
        s.ensure_constant("g")


def test_down_closure_small():
    assert down_closure(BOT) == {BOT}
    assert down_closure(X) == {BOT, X}
    assert down_closure(c(zero, one)) == {
        BOT,
        c(BOT, BOT),
        c(zero, BOT),
        c(BOT, one),
        c(zero, one),
    }


def test_linear():
    assert is_linear((c(X, Y),))
    assert not is_linear((c(X, X),))
    assert not is_linear((X, c(Y, X)))
    assert is_linear(())


def test_canonical_order_groups_by_depth():
    ordered = sorted([d(zero, one), BOT, X, zero, c(zero, zero)], key=term_key)
    assert ordered[0] is BOT
    assert ordered[1] is X
    assert ordered[2] is zero
    assert {ordered[3], ordered[4]} == {d(zero, one), c(zero, zero)}
    assert ordered[3] is c(zero, zero)  # 'c' before 'd' at equal depth


# random partial c-terms over {0, 1, c/2, d/2} and variables X, Y, Z

cterms = st.recursive(
    st.sampled_from([BOT, zero, one, var("X"), var("Y"), var("Z")]),
    lambda sub: st.tuples(st.sampled_from(["c", "d"]), sub, sub).map(
        lambda t: app(t[0], (t[1], t[2]))
    ),
    max_leaves=8,
)


# random terms, function symbols and a constant named like a variable
# included, with up to three children per application

anyterms = st.recursive(
    st.sampled_from([BOT, zero, var("X"), var("Y"), app("X")]),
    lambda sub: st.tuples(st.sampled_from(["c", "f", "X"]), st.lists(sub, max_size=3)).map(
        lambda t: app(t[0], t[1])
    ),
    max_leaves=10,
)


def _fields(t):
    """(depth, size, weight, total, varset, symbols, sort key), recomputed
    from the children by the definitions, none read from a stored field."""
    if t.kind == BOTTOM:
        return 0, 1, 0, False, frozenset(), frozenset(), (0, 0)
    if t.kind == VAR:
        return 0, 1, 1, True, frozenset((t.name,)), frozenset(), (0, 1, t.name)
    kids = [_fields(c) for c in t.children]
    depth = 1 + max((k[0] for k in kids), default=0)
    return (
        depth,
        1 + sum(k[1] for k in kids),
        1 + sum(k[2] for k in kids),
        all(k[3] for k in kids),
        frozenset().union(*(k[4] for k in kids)),
        frozenset((t.name,)).union(*(k[5] for k in kids)),
        (depth, 2, t.name, tuple(k[6] for k in kids)),
    )


@given(anyterms)
def test_every_stored_field_is_its_definition(t):
    key = term_key(t)  # the root first, before any child is asked for
    stored = (t.depth, t.size, t.weight, t.total, t.varset, t.symbols, key)
    assert stored == _fields(t)
    # equality and the hash are identity, which holds because equal
    # structure gives one object
    assert _rebuilt(t) is t


def _rebuilt(t):
    """t built again from the leaves up, each children tuple a new one."""
    if t.kind != APP:
        return t
    return app(t.name, [_rebuilt(c) for c in t.children])


@given(cterms, cterms, cterms)
def test_approx_leq_is_a_partial_order(a, b, e):
    assert approx_leq(a, a)
    if approx_leq(a, b) and approx_leq(b, a):
        assert a is b
    if approx_leq(a, b) and approx_leq(b, e):
        assert approx_leq(a, e)


@given(cterms)
def test_bottom_below_everything(t):
    assert approx_leq(BOT, t)


@given(cterms, cterms)
def test_shell_monotone(a, b):
    if approx_leq(a, b):
        assert approx_leq(shell(a, SIG), shell(b, SIG))


@given(cterms)
def test_shell_fixes_cterms(t):
    assert shell(t, SIG) is t


@given(cterms)
def test_down_closure_members_below(t):
    members = down_closure(t)
    assert t in members
    assert all(approx_leq(u, t) for u in members)


def test_terms_with_equal_symbol_and_variable_sets_share_them():
    # one object per distinct set, so a full collection scans no copies
    a = app("f", (app("c", (var("X"),)),))
    b = app("f", (app("c", (app("c", (var("X"), var("X"))),)),))
    assert a.symbols is b.symbols == frozenset(("f", "c"))
    assert a.varset is b.varset == frozenset(("X",))


def _linearize(t, seen, counter):
    """Rewrite a random term into a total linear pattern: repeated variables
    and _|_ leaves become fresh variables."""
    if t is BOT or (t.kind == 1 and t.name in seen):
        fresh = var("V%d" % counter[0])
        counter[0] += 1
        return fresh
    if t.kind == 1:
        seen.add(t.name)
        return t
    if t.children:
        return app(t.name, tuple(_linearize(c_, seen, counter) for c_ in t.children))
    return t


@given(cterms, st.dictionaries(st.sampled_from(["X", "Y", "Z"]), cterms))
def test_match_recovers_applied_substitution(t, binding):
    pattern = _linearize(t, set(), [0])
    image = apply_subst(pattern, binding)
    got = match_value(pattern, image)
    assert got is not None
    assert apply_subst(pattern, got) is image
    assert set(got) <= pattern.varset


# images a substitution may bind: partial c-terms, _|_, variables and
# ?-chains of them, as a DisjSubst's chains are
images = st.one_of(
    cterms,
    st.lists(cterms, min_size=2, max_size=3).map(
        lambda ts: app("?", (ts[0], ts[1])) if len(ts) == 2
        else app("?", (ts[0], app("?", (ts[1], ts[2]))))
    ),
)


@given(anyterms, st.dictionaries(st.sampled_from(["X", "Y", "Z"]), images))
@example(d(X, X), {"X": app("?", (zero, one))})
@example(d(X, c(zero, Y)), {"X": BOT})
@example(c(X, Y), {"Y": one})
@example(c(zero, one), {"X": one})
@example(f(d(X, Y)), {})
@example(app("e", (X, zero, d(Y, X), var("Z"))), {"X": one, "Z": BOT})
def test_instantiator_builds_what_apply_subst_returns(t, mapping):
    # repeated variables, ground subterms, variables outside the mapping,
    # _|_ images and an empty mapping all give the very same term
    assert instantiator(t)(mapping) is apply_subst(t, mapping)

