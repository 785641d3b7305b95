import random

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from pluralrw.calculi import (
    ALPHA,
    BETA,
    CALL_TIME,
    COMBINED_ALPHA,
    COMBINED_BETA,
    MODES,
    BudgetExceeded,
    EnumConfig,
    Enumerator,
    derives,
    enumerate_values,
    replay_trace,
    saturates,
    values_at,
)
from pluralrw.harness import VALUE_CAP, GenConfig, gen_ground_expr, gen_program
from pluralrw.syntax import parse_expression, parse_program
from pluralrw.terms import BOT, app, down_closure, positions, replace_at, shell, term_key, var

def prog(body):
    return parse_program("plural T is\n%s\nendp" % body)


P1 = prog("f(c(X)) -> d(X,X) .")

EP3 = prog(
    """
    f(c(X)) -> d(X,X) .
    h(d(X,Y)) -> d(X,X) .
    g(d(X,Y)) -> l(X,X,Y,Y) .
    k(d(X,Y)) -> d(X,Y) .
    """
)

P4 = prog(
    """
    f is sp .
    f(X,c(Y)) -> d(X,X,Y,Y) .
    """
)

FROM = prog("from(X) -> X ? s(from(X)) .")


def ex(program, text):
    return parse_expression(text, program.signature)


def totals(program, mode, text, depth=8, width=4):
    return values_at(program, mode, ex(program, text), depth, width, totals_only=True)


def tset(program, texts):
    return frozenset(ex(program, t) for t in texts)


ALL_FOUR_D = ("d(0,0)", "d(0,1)", "d(1,0)", "d(1,1)")


def test_calltime_shares_inside_one_argument():
    assert totals(P1, CALL_TIME, "f(c(0?1))") == tset(P1, ("d(0,0)", "d(1,1)"))


def test_calltime_full_set_is_union_of_down_closures():
    got = values_at(P1, CALL_TIME, ex(P1, "f(c(0?1))"), 8)
    want = down_closure(ex(P1, "d(0,0)")) | down_closure(ex(P1, "d(1,1)"))
    assert got == want


def test_plural_modes_mix_alternatives_across_copies():
    want = tset(P1, ALL_FOUR_D)
    assert totals(P1, ALPHA, "f(c(0)?c(1))") == want
    assert totals(P1, BETA, "f(c(0)?c(1))") == want
    assert totals(P1, ALPHA, "f(c(0?1))") == want
    assert totals(P1, BETA, "f(c(0?1))") == want


def test_calltime_distributes_over_argument_disjunction():
    assert totals(P1, CALL_TIME, "f(c(0)?c(1))") == tset(P1, ("d(0,0)", "d(1,1)"))


def test_h_mixes_under_both_plural_modes():
    want = tset(EP3, ALL_FOUR_D)
    assert totals(EP3, ALPHA, "h(d(0,0)?d(1,1))") == want
    assert totals(EP3, BETA, "h(d(0,0)?d(1,1))") == want


def test_g_beta_keeps_argument_components_together():
    # the duplicated pair variables may not be recombined: only the two
    # component-preserving totals survive the compressibility requirement
    assert totals(EP3, BETA, "g(d(0,0)?d(1,1))") == tset(
        EP3, ("l(0,0,0,0)", "l(1,1,1,1)")
    )


def test_g_alpha_recombines_freely():
    want = frozenset(
        ex(EP3, "l(%s,%s,%s,%s)" % (a, b, c, d))
        for a in "01"
        for b in "01"
        for c in "01"
        for d in "01"
    )
    assert totals(EP3, ALPHA, "g(d(0,0)?d(1,1))") == want


def test_k_beta_agrees_with_calltime_but_alpha_does_not():
    keep = tset(EP3, ("d(0,0)", "d(1,1)"))
    assert totals(EP3, CALL_TIME, "k(d(0,0)?d(1,1))") == keep
    assert totals(EP3, BETA, "k(d(0,0)?d(1,1))") == keep
    assert totals(EP3, ALPHA, "k(d(0,0)?d(1,1))") == tset(EP3, ALL_FOUR_D)


def test_combined_singular_first_argument_plural_second():
    query = ex(P4, "f(0?1, c(0)?c(1))")
    got = values_at(P4, COMBINED_ALPHA, query, 12, totals_only=True)
    assert ex(P4, "d(0,0,0,1)") in got
    assert ex(P4, "d(0,1,0,1)") not in got
    for t in got:
        assert t.children[0] is t.children[1]


def test_combined_beta_also_keeps_singular_argument_rigid():
    query = ex(P4, "f(0?1, c(0)?c(1))")
    got = values_at(P4, COMBINED_BETA, query, 12, totals_only=True)
    assert ex(P4, "d(0,0,0,1)") in got
    assert ex(P4, "d(0,1,0,1)") not in got


def test_union_law_at_saturation():
    for mode in (CALL_TIME, ALPHA, BETA):
        both = values_at(P1, mode, ex(P1, "f(c(0)) ? c(1)"), 8)
        left = values_at(P1, mode, ex(P1, "f(c(0))"), 7)
        right = values_at(P1, mode, ex(P1, "c(1)"), 7)
        assert both == left | right


def test_builtins_stay_singular_in_every_mode():
    for mode in MODES:
        assert values_at(P1, mode, ex(P1, "0?1"), 4) == tset(P1, ("bot", "0", "1"))
        assert values_at(P1, mode, ex(P1, "if tt then 0"), 4) == tset(P1, ("bot", "0"))


def test_identity_matching_keeps_free_variables():
    for mode in (CALL_TIME, ALPHA):
        got = values_at(P1, mode, ex(P1, "f(c(X))"), 6)
        assert ex(P1, "d(X,X)") in got
        assert got == down_closure(ex(P1, "d(X,X)"))


def test_width_one_disables_mixing():
    narrow = values_at(P1, BETA, ex(P1, "f(c(0?1))"), 8, plural_width=1, totals_only=True)
    assert narrow == tset(P1, ("d(0,0)", "d(1,1)"))


cterms = st.recursive(
    st.sampled_from(
        [BOT, app("0"), app("1"), var("X"), var("Y")]
    ),
    lambda kids: st.builds(lambda a: app("c", (a,)), kids)
    | st.builds(lambda a, b: app("d", (a, b)), kids, kids),
    max_leaves=4,
)


@given(cterms)
@settings(max_examples=60, deadline=None)
def test_values_of_cterm_are_its_down_closure(t):
    for depth in (0, 3):
        assert values_at(P1, CALL_TIME, t, depth) == down_closure(t)
        assert values_at(P1, BETA, t, depth) == down_closure(t)


exprs = st.recursive(
    st.sampled_from([BOT, app("0"), app("1"), var("X")]),
    lambda kids: st.builds(lambda a: app("c", (a,)), kids)
    | st.builds(lambda a: app("f", (a,)), kids)
    | st.builds(lambda a, b: app("?", (a, b)), kids, kids),
    max_leaves=4,
)


@given(exprs)
@settings(max_examples=60, deadline=None)
def test_shell_is_a_value_at_depth_zero(e):
    assert shell(e, P1.signature) in values_at(P1, CALL_TIME, e, 0)


@given(exprs)
@settings(max_examples=40, deadline=None)
def test_value_sets_grow_monotonically_with_depth(e):
    for mode in (CALL_TIME, ALPHA, BETA):
        enum = Enumerator(P1, mode)
        previous = frozenset()
        for depth in range(5):
            current = enum.values(e, depth)
            assert previous <= current
            previous = current


@given(exprs)
@settings(max_examples=40, deadline=None)
def test_value_sets_are_down_closed(e):
    for mode in (CALL_TIME, ALPHA, BETA):
        got = values_at(P1, mode, e, 3)
        for t in got:
            assert down_closure(t) <= got


@given(exprs, st.data())
@settings(max_examples=60, deadline=None)
def test_polarity_masking_a_subterm_only_shrinks_values(e, data):
    pos = data.draw(st.sampled_from(list(positions(e))))
    smaller = replace_at(e, pos, BOT)
    for mode in (CALL_TIME, ALPHA, BETA):
        assert values_at(P1, mode, smaller, 4) <= values_at(P1, mode, e, 4)


def test_combined_all_singular_collapses_to_calltime():
    for text in ("f(c(0?1))", "f(c(0)?c(1))", "c(f(c(0)))"):
        e = ex(P1, text)
        want = values_at(P1, CALL_TIME, e, 6)
        assert values_at(P1, COMBINED_ALPHA, e, 6) == want
        assert values_at(P1, COMBINED_BETA, e, 6) == want


def test_combined_all_plural_collapses_to_pure_modes():
    allpl = prog(
        """
        f is plural .
        f(c(X)) -> d(X,X) .
        """
    )
    e = ex(allpl, "f(c(0)?c(1))")
    assert values_at(allpl, COMBINED_ALPHA, e, 6) == values_at(allpl, ALPHA, e, 6)
    assert values_at(allpl, COMBINED_BETA, e, 6) == values_at(allpl, BETA, e, 6)


def test_saturates_ground_term_immediately():
    assert saturates(P1, CALL_TIME, ex(P1, "0"), EnumConfig(depth=1)) == 0


def test_saturates_after_finitely_many_unfoldings():
    got = saturates(P1, CALL_TIME, ex(P1, "f(c(0?1))"), EnumConfig(depth=8))
    assert got is not None and 2 <= got <= 4


def test_saturates_none_for_productive_recursion():
    assert saturates(FROM, CALL_TIME, ex(FROM, "from(z)"), EnumConfig(depth=10)) is None


def test_saturates_with_unbounded_depth_uses_fixpoint():
    got = saturates(P1, ALPHA, ex(P1, "f(c(0)?c(1))"), EnumConfig(depth=None))
    assert got is not None


def test_stream_yields_totals_in_stratified_canonical_order():
    cfg = EnumConfig(depth=8, totals_only=True)
    stream = enumerate_values(P1, CALL_TIME, ex(P1, "f(c(0?1))"), cfg)
    assert list(stream) == [ex(P1, "d(0,0)"), ex(P1, "d(1,1)")]
    assert stream.complete
    assert stream.saturated_at() is not None


def test_stream_first_value_is_bottom_when_partials_included():
    stream = enumerate_values(P1, CALL_TIME, ex(P1, "f(c(0?1))"), EnumConfig(depth=8))
    assert next(iter(stream)) is BOT


def test_stream_unbounded_depth_stops_at_fixpoint():
    cfg = EnumConfig(depth=None, totals_only=True)
    stream = enumerate_values(P1, BETA, ex(P1, "f(c(0)?c(1))"), cfg)
    assert frozenset(stream) == tset(P1, ALL_FOUR_D)
    assert stream.complete


def test_stream_yields_each_value_once_though_sets_are_not_monotone():
    # at depth 2 the argument's only total value is c(1), so X binds it
    # alone; at depth 3 the values of f(0) join c(1) on X's ?-chain, and
    # choosing c(1) in both copies then takes a level more
    p = prog("f(X) -> 1 .\nf(0) -> 0 .\nf(X) -> c(d(X,X)) .")
    e = ex(p, "f(f(0) ? c(1))")
    twice = ex(p, "c(d(c(1),c(1)))")
    enum = Enumerator(p, ALPHA)
    assert twice in enum.values(e, 2) and twice not in enum.values(e, 3)
    stream = enumerate_values(p, ALPHA, e, EnumConfig(depth=None, totals_only=True))
    got = list(stream)
    assert stream.complete and twice in got
    assert len(got) == len(set(got)) == 18


def test_stream_reports_bound_exhaustion():
    cfg = EnumConfig(depth=4, totals_only=True)
    stream = enumerate_values(FROM, CALL_TIME, ex(FROM, "from(z)"), cfg)
    list(stream)
    assert stream.done and not stream.complete
    assert stream.saturated_at() is None


def test_plateau_within_bound_counts_as_observed_saturation():
    # growth of from(z) stalls at odd depths; the bound only certifies
    # what it can see
    cfg = EnumConfig(depth=3)
    stream = enumerate_values(FROM, CALL_TIME, ex(FROM, "from(z)"), cfg)
    list(stream)
    assert not stream.complete
    assert stream.saturated_at() == 2


def test_derives_builds_replayable_calltime_trace():
    trace = derives(P1, CALL_TIME, ex(P1, "f(c(0?1))"), ex(P1, "d(0,0)"), EnumConfig(depth=8))
    assert trace is not None
    assert trace.tag == "OR"
    assert replay_trace(P1, CALL_TIME, trace)
    assert "=>>" in trace.render()


def test_derives_bottom_needs_no_unfolding():
    trace = derives(P1, CALL_TIME, ex(P1, "f(c(0))"), BOT, EnumConfig(depth=0))
    assert trace is not None and trace.tag == "B"


def test_derives_respects_mode_distinctions():
    query = ex(EP3, "k(d(0,0)?d(1,1))")
    mixed = ex(EP3, "d(0,1)")
    assert derives(EP3, CALL_TIME, query, mixed, EnumConfig(depth=8)) is None
    assert derives(EP3, BETA, query, mixed, EnumConfig(depth=8)) is None
    trace = derives(EP3, ALPHA, query, mixed, EnumConfig(depth=8))
    assert trace is not None and trace.tag == "APOR"


def test_derives_beta_trace_for_component_preserving_value():
    trace = derives(
        EP3, BETA, ex(EP3, "g(d(0,0)?d(1,1))"), ex(EP3, "l(0,0,0,0)"), EnumConfig(depth=8)
    )
    assert trace is not None and trace.tag == "BPOR"
    assert replay_trace(EP3, BETA, trace)


def test_replay_rejects_trace_from_wrong_mode():
    trace = derives(P1, CALL_TIME, ex(P1, "f(c(0))"), ex(P1, "d(0,0)"), EnumConfig(depth=6))
    assert trace is not None
    assert not replay_trace(P1, ALPHA, trace)


def test_shared_enumerator_memo_is_consistent():
    enum = Enumerator(EP3, BETA)
    direct = values_at(EP3, BETA, ex(EP3, "g(d(0,0)?d(1,1))"), 8)
    warm = enum.values(ex(EP3, "h(d(0,0)?d(1,1))"), 8)
    again = enum.values(ex(EP3, "g(d(0,0)?d(1,1))"), 8)
    assert again == direct
    assert enum.values(ex(EP3, "h(d(0,0)?d(1,1))"), 8) == warm


FACTS = prog("g(a) -> t .\ng(b) -> t .")


def test_replay_follows_the_rule_the_trace_names():
    # both facts agree on theta and body; only the rule tells them apart
    trace = derives(FACTS, CALL_TIME, ex(FACTS, "g(b)"), ex(FACTS, "t"), EnumConfig(depth=2))
    assert trace is not None and replay_trace(FACTS, CALL_TIME, trace)
    assert trace.rule is FACTS.rules[1]
    trace.rule = FACTS.rules[0]
    assert not replay_trace(FACTS, CALL_TIME, trace)
    trace.rule = P1.rules[0]
    assert not replay_trace(FACTS, CALL_TIME, trace)


@pytest.mark.parametrize("force_cab", (False, True))
def test_every_value_of_harness_programs_has_a_replayable_derivation(force_cab):
    # sets past the harness's value cap are skipped, as the harness
    # refuses them: seed 23's f2(f2(0)) outgrows it in every mode but
    # alpha-plural
    cfg = EnumConfig(depth=3)
    skipped = 0
    for seed in range(1, 31):
        program = gen_program(GenConfig(seed=seed, force_cab=force_cab))
        rng = random.Random(seed)
        for _ in range(3):
            expr = gen_ground_expr(program, rng, 2)
            for mode in MODES:
                try:
                    got = Enumerator(program, mode, value_budget=VALUE_CAP).values(expr, 3)
                except BudgetExceeded:
                    skipped += 1
                    continue
                for value in sorted((t for t in got if t.total), key=term_key):
                    trace = derives(program, mode, expr, value, cfg)
                    assert trace is not None, (seed, mode, value)
                    assert replay_trace(program, mode, trace), (seed, mode, value)
    assert skipped == 4
