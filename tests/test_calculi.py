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
    _OR_TAG,
    BudgetExceeded,
    DenotationStream,
    Enumerator,
    enumerate_values,
    maximal_terms,
)
from pluralrw.disjsubst import question_combine_set
from pluralrw import harness
from pluralrw.harness import (
    VALUE_CAP,
    GenConfig,
    _expr_rng,
    gen_ground_expr,
    gen_program,
    run_suite,
)
from pluralrw.rewriting import NeedEnumerator
from pluralrw.syntax import (
    BUILTIN_RULES,
    SG,
    format_program,
    format_term,
    parse_expression,
    parse_program,
)
from pluralrw.terms import (
    BOT,
    VAR,
    app,
    approx_leq,
    down_closure,
    match_value,
    replace_at,
    term_key,
    var,
)

from oracles import (
    AllSubsetsEnumerator,
    DownClosedEnumerator,
    OracleGaveUp,
    PickedBuiltinsEnumerator,
    SupportWideEnumerator,
    UncachedEnumerator,
    UnfrozenEnumerator,
    derives,
    down_closed,
    positions,
    reference_maximal_matchers,
    replay_trace,
    saturated_at,
    saturates,
    shell,
    sweep_maximal_terms,
    values_at,
)

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


def _load(path):
    with open(path) as f:
        return parse_program(f.read())


CLERKS = _load("programs/clerks.plural")
DUNGEON = _load("programs/dungeon.plural")


def ex(program, text):
    return parse_expression(text, program.signature)


def totals(program, mode, text, depth=8):
    return values_at(program, mode, ex(program, text), depth, totals_only=True)


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


def _choice_reprs(program, mode, fname, arg_text, k=2):
    # the ?-combinations the first rule of fname passes for its first
    # argument, given the values of arg_text at depth k
    enum = Enumerator(program, mode)
    rule, doms, tags = enum._rules(fname)[0]
    vset = enum.values(ex(program, arg_text), k)
    return [repr(ds) for _, ds in enum._choices(rule.args[0], doms[0], tags[0] == SG, vset)]


def test_beta_passes_the_maximal_products_cut_to_maximal_images():
    # the matchers of d(X,Y) below X/0,Y/0 and X/1,Y/1 hold four maximal
    # products; each passes with its maximal images only, in canonical order
    assert _choice_reprs(EP3, BETA, "g", "d(0,0)?d(1,1)") == [
        "[X/_|_, Y/0 ? 1]", "[X/0, Y/0]", "[X/0 ? 1, Y/_|_]", "[X/1, Y/1]",
    ]


def test_beta_passes_alphas_chain_over_one_variable_or_below_one_matcher():
    for program, fname, arg in (
        (P1, "f", "c(0?1)"),
        (P1, "f", "c(0)?c(1)"),
        (P1, "f", "c(d(0,bot)?d(bot,1)?d(0,1))"),
        (EP3, "g", "d(0,1)"),
        (EP3, "g", "d(0,bot)?d(0,1)"),
        (EP3, "g", "d(0?1,1)"),
    ):
        got = _choice_reprs(program, BETA, fname, arg)
        assert got == _choice_reprs(program, ALPHA, fname, arg), arg


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


@given(st.frozensets(cterms, min_size=1, max_size=12), st.lists(cterms, max_size=3))
@settings(max_examples=200, deadline=None)
def test_maximal_terms_agrees_with_the_down_closure_sweep(terms, extra):
    # random partial sets, not down-closed; and with the down-closures of
    # a few more terms added, so that chains of dominated members occur
    assert maximal_terms(terms) == sweep_maximal_terms(terms)
    closed = terms.union(*map(down_closure, extra))
    assert maximal_terms(closed) == sweep_maximal_terms(closed)


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
            current = down_closed(enum.values(e, depth))
            assert previous <= current
            previous = current


@given(exprs)
@settings(max_examples=40, deadline=None)
def test_value_sets_are_down_closed(e):
    # each memo entry is an antichain, and the set it stands for is the
    # down-closed set the enumerator that keeps every value builds
    for mode in (CALL_TIME, ALPHA, BETA):
        got = Enumerator(P1, mode).values(e, 3)
        assert not any(s is not t and approx_leq(s, t) for s in got for t in got)
        want = DownClosedEnumerator(P1, mode).values(e, 3)
        assert all(down_closure(t) <= want for t in want)
        assert down_closed(got) == want


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
    assert saturates(P1, CALL_TIME, ex(P1, "0"), 1) == 0


def test_saturates_after_finitely_many_unfoldings():
    got = saturates(P1, CALL_TIME, ex(P1, "f(c(0?1))"), 8)
    assert got is not None and 2 <= got <= 4


def test_saturates_none_for_productive_recursion():
    assert saturates(FROM, CALL_TIME, ex(FROM, "from(z)"), 10) is None


def test_saturates_with_unbounded_depth_uses_fixpoint():
    got = saturates(P1, ALPHA, ex(P1, "f(c(0)?c(1))"), None)
    assert got is not None


def test_a_stream_rejects_a_negative_depth():
    with pytest.raises(ValueError, match="non-negative"):
        DenotationStream(Enumerator(P1, CALL_TIME), ex(P1, "f(c(0))"), depth=-1)


def test_stream_yields_totals_in_stratified_canonical_order():
    stream = enumerate_values(P1, CALL_TIME, ex(P1, "f(c(0?1))"), 8, totals_only=True)
    assert list(stream) == [ex(P1, "d(0,0)"), ex(P1, "d(1,1)")]
    assert stream.complete
    assert saturated_at(stream) is not None


def test_stream_first_value_is_bottom_when_partials_included():
    stream = enumerate_values(P1, CALL_TIME, ex(P1, "f(c(0?1))"), 8)
    assert next(iter(stream)) is BOT


def test_stream_unbounded_depth_stops_at_fixpoint():
    stream = enumerate_values(P1, BETA, ex(P1, "f(c(0)?c(1))"), None, totals_only=True)
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
    stream = enumerate_values(p, ALPHA, e, None, totals_only=True)
    got = list(stream)
    assert stream.complete and twice in got
    assert len(got) == len(set(got)) == 18


def test_stream_reports_bound_exhaustion():
    stream = enumerate_values(FROM, CALL_TIME, ex(FROM, "from(z)"), 4, totals_only=True)
    list(stream)
    assert stream.done and not stream.complete
    assert saturated_at(stream) is None


def test_a_stream_over_a_warmed_enumerator_gives_what_a_fresh_one_gives():
    # the fixpoint check reads set values only, so entries made before the
    # stream began, deeper ones included, change neither its strata nor
    # where it proves
    cases = (
        (FROM, CALL_TIME, "from(z)", "from(s(z))", 6),
        (CLERKS, COMBINED_ALPHA, "nClerks(s(s(z)))", "twoclerks", None),
        (DUNGEON, ALPHA, "escapeHow", "askWho(guardians, key)", None),
    )
    for program, mode, query, other, depth in cases:
        expr = ex(program, query)
        fresh = _stream_run(Enumerator(program, mode), expr, depth)
        for warm in (other, query):
            used = Enumerator(program, mode)
            used.values(ex(program, warm), 6)
            assert _stream_run(used, expr, depth) == fresh, (query, warm)
        used = Enumerator(program, mode)
        _stream_run(used, expr, 4)
        assert _stream_run(used, expr, depth) == fresh, query
    # the last case proves its fixpoint
    assert fresh[1:] == (True, 36)


def test_plateau_within_bound_counts_as_observed_saturation():
    # growth of from(z) stalls at odd depths; the bound only certifies
    # what it can see
    stream = enumerate_values(FROM, CALL_TIME, ex(FROM, "from(z)"), 3)
    list(stream)
    assert not stream.complete
    assert saturated_at(stream) == 2


def test_derives_builds_replayable_calltime_trace():
    trace = derives(P1, CALL_TIME, ex(P1, "f(c(0?1))"), ex(P1, "d(0,0)"), 8)
    assert trace is not None
    assert trace.tag == "OR"
    assert replay_trace(P1, CALL_TIME, trace)
    assert "=>>" in trace.render()


def test_derives_bottom_needs_no_unfolding():
    trace = derives(P1, CALL_TIME, ex(P1, "f(c(0))"), BOT, 0)
    assert trace is not None and trace.tag == "B"


def test_derives_respects_mode_distinctions():
    query = ex(EP3, "k(d(0,0)?d(1,1))")
    mixed = ex(EP3, "d(0,1)")
    assert derives(EP3, CALL_TIME, query, mixed, 8) is None
    assert derives(EP3, BETA, query, mixed, 8) is None
    trace = derives(EP3, ALPHA, query, mixed, 8)
    assert trace is not None and trace.tag == "APOR"


def test_derives_beta_trace_for_component_preserving_value():
    trace = derives(
        EP3, BETA, ex(EP3, "g(d(0,0)?d(1,1))"), ex(EP3, "l(0,0,0,0)"), 8
    )
    assert trace is not None and trace.tag == "BPOR"
    assert replay_trace(EP3, BETA, trace)


def test_replay_rejects_trace_from_wrong_mode():
    trace = derives(P1, CALL_TIME, ex(P1, "f(c(0))"), ex(P1, "d(0,0)"), 6)
    assert trace is not None
    assert not replay_trace(P1, ALPHA, trace)


def test_shared_enumerator_memo_is_consistent():
    enum = Enumerator(EP3, BETA)
    direct = Enumerator(EP3, BETA).values(ex(EP3, "g(d(0,0)?d(1,1))"), 8)
    warm = enum.values(ex(EP3, "h(d(0,0)?d(1,1))"), 8)
    again = enum.values(ex(EP3, "g(d(0,0)?d(1,1))"), 8)
    assert again == direct
    assert enum.values(ex(EP3, "h(d(0,0)?d(1,1))"), 8) == warm


def _builtin_steps(node):
    """The OR steps of a derivation whose source is a `?` or if_then call."""
    if node.rule is not None and node.source.name in ("?", "if_then"):
        yield node
    for kid in node.children:
        yield from _builtin_steps(kid)


def test_derivations_name_the_builtin_rules_in_every_mode():
    # values skips the built-in rules; build_trace and replay_trace do not
    cases = (
        ("0?1", "0", BUILTIN_RULES[0]),
        ("0?1", "1", BUILTIN_RULES[1]),
        ("if tt then 0", "0", BUILTIN_RULES[2]),
    )
    for mode in MODES:
        for text, target, rule in cases:
            trace = derives(P1, mode, ex(P1, text), ex(P1, target), 4)
            assert trace is not None and replay_trace(P1, mode, trace), (mode, text)
            assert trace.tag == _OR_TAG[mode] and trace.rule is rule, (mode, text)
            assert trace.children[-1].source is ex(P1, target)


def test_twoclerks_derivation_names_the_builtin_rules():
    target = ex(CLERKS, "p(maria,laura)")
    trace = derives(CLERKS, ALPHA, ex(CLERKS, "twoclerks"), target, 8)
    assert trace is not None and replay_trace(CLERKS, ALPHA, trace)
    steps = list(_builtin_steps(trace))
    # maria and laura come from the two later branches of madrid ? vigo ? badajoz
    assert {step.rule for step in steps} == set(BUILTIN_RULES[:2])
    for step in steps:
        assert step.tag == "APOR"
        # premises per argument, then the body: the rule names the argument
        # whose premise derives the body's source
        side = BUILTIN_RULES.index(step.rule)
        premise = step.children[side]
        assert premise.source is step.source.children[side]
        assert premise.value is step.children[-1].source


FACTS = prog("g(a) -> t .\ng(b) -> t .")


def test_replay_follows_the_rule_the_trace_names():
    # both facts agree on theta and body; only the rule tells them apart
    trace = derives(FACTS, CALL_TIME, ex(FACTS, "g(b)"), ex(FACTS, "t"), 2)
    assert trace is not None and replay_trace(FACTS, CALL_TIME, trace)
    assert trace.rule is FACTS.rules[1]
    trace.rule = FACTS.rules[0]
    assert not replay_trace(FACTS, CALL_TIME, trace)
    trace.rule = P1.rules[0]
    assert not replay_trace(FACTS, CALL_TIME, trace)


def _harness_programs(seeds):
    """(seed, generated program) for each seed, then seed 19 under
    force_cab: of seeds 1..40 the only one whose program force_cab
    changes, so the others need not run twice."""
    for seed in seeds:
        yield seed, gen_program(GenConfig(seed=seed))
    program = gen_program(GenConfig(seed=19, force_cab=True))
    assert format_program(program) != format_program(gen_program(GenConfig(seed=19)))
    yield 19, program


# a value budget at which a few antichains of harness programs still trip,
# so that the gates below cover the budget path: at VALUE_CAP none does
TRIP_BUDGET = 50


def test_an_antichain_over_the_budget_raises():
    # each copy of X picks its own alternative: 5**5 maximal values, all
    # total, at the depth that proves them
    p = prog("g is plural .\ng(X) -> p(X,X,X,X,X) .")
    e = ex(p, "g(a ? b ? c ? d ? e)")

    def stream(budget):
        return DenotationStream(Enumerator(p, BETA, value_budget=budget), e, None)

    whole = stream(5 ** 5)
    assert sum(t.total for t in whole) == 5 ** 5 and whole.complete
    with pytest.raises(BudgetExceeded, match="value set of size 3125 exceeds the budget 3124"):
        list(stream(5 ** 5 - 1))


def test_a_raised_budget_rebuilds_the_bodies_it_cut():
    # g's call-time picks are 3 x 3 matchers at depth 4, but every body
    # evaluates to 0: the picks overrun a budget of 4 that no set reaches.
    # The cut bodies stay cached; served again, they would trip again
    p = prog("g(X, Y) -> h(X, Y) .\nh(X, Y) -> 0 .\nk(X) -> c(X) .")
    e = ex(p, "g(0 ? 1 ? k(0), 0 ? 1 ? k(1))")
    enum = Enumerator(p, CALL_TIME, value_budget=4)
    assert enum.values(e, 3) == {app("0")}
    with pytest.raises(BudgetExceeded, match="substitution picks overrun the budget"):
        enum.values(e, 4)
    assert any(overrun for _bodies, overrun in enum._body_cache.values())
    enum.raise_budget(9)
    fresh = Enumerator(p, CALL_TIME, value_budget=9)
    assert [enum.values(e, k) for k in range(7)] == [fresh.values(e, k) for k in range(7)]
    with pytest.raises(ValueError, match="a budget only rises"):
        enum.raise_budget(4)


def test_every_value_of_harness_programs_has_a_replayable_derivation():
    # sets past the budget are skipped, as the harness refuses them: seed
    # 23's f2(f2(0)) outgrows it in every mode but the two pure plural
    # ones, with 110 maximal values against their 13
    skipped = 0
    for seed, program in _harness_programs(range(1, 31)):
        rng = random.Random(seed)
        for _ in range(3):
            expr = gen_ground_expr(program, rng, 2)
            for mode in MODES:
                try:
                    got = Enumerator(program, mode, value_budget=TRIP_BUDGET).values(expr, 3)
                except BudgetExceeded:
                    skipped += 1
                    continue
                for value in sorted((t for t in got if t.total), key=term_key):
                    trace = derives(program, mode, expr, value, 3)
                    assert trace is not None, (seed, mode, value)
                    assert replay_trace(program, mode, trace), (seed, mode, value)
    assert skipped == 3


class _CheckedChoices(UnfrozenEnumerator):
    """An enumerator that checks every singular and alpha-plural matcher
    choice against the reference, which matches every value of the
    down-closed set the antichain stands for, as the same maximal
    matchers. `pruned` counts the choices whose restricted matchers of the
    maximal values were not yet an antichain. No node freezes, so every
    argument is reached at every depth. Beta-plural choices pass fewer
    sets than the reference's every compressible subset; they are checked
    by their denotations
    (test_maximal_products_prove_what_every_compressible_subset_proves)."""

    checked = pruned = 0

    def _choices(self, pattern, dom, singular, vset):
        if not (singular or self._alpha):
            return super()._choices(pattern, dom, singular, vset)
        got = super()._choices(pattern, dom, singular, vset)
        # an argument the body ignores has no value set: one empty matcher
        want = ([{}] if vset is None
                else reference_maximal_matchers(pattern, dom, down_closed(vset)))
        frozen = {frozenset(m.items()) for m in want}
        if not want:
            assert got == []
        elif singular:
            assert {frozenset(c[0].items()) for c, _ in got} == frozen
            assert len(got) == len(frozen)
            assert all(len(c) == 1 and ds == question_combine_set(c) for c, ds in got)
        else:
            [(combo, ds)] = got
            assert {frozenset(m.items()) for m in combo} == frozen
            assert len(combo) == len(frozen)
            assert ds == question_combine_set(want)
        _CheckedChoices.checked += 1
        if pattern.kind != VAR and not pattern.varset <= dom and want:
            matched = sum(match_value(pattern, t) is not None for t in vset)
            _CheckedChoices.pruned += len(want) < matched
        return got


PAPER_QUERIES = (
    (CLERKS, "twoclerks"),
    (CLERKS, "nClerks(s(s(z)))"),
    (CLERKS, "nClerksNG(s(s(z)))"),
    (DUNGEON, "escapeHow"),
)

# the four queries leave few singular or alpha-plural choices once `?` is
# evaluated natively; these two add an if_then chain and a guardian asked
# two messages
MORE_PAPER_QUERIES = (
    (CLERKS, "newIns(pepe, cons(maria, nil))"),
    (DUNGEON, "askWho(guardians, item(treasure-map) ? sirens-secret)"),
)

# the paper cases add values that hold free variables named like pattern
# variables, which a matcher then binds to themselves
FREE_VARIABLE_QUERIES = (
    (P1, "f(c(X) ? c(0))"),
    (EP3, "g(d(X,Y) ? d(0,1))"),
    (EP3, "h(d(X,0) ? d(1,Y))"),
    (P4, "f(X ? 0, c(Y) ? c(1))"),
)

# the paper queries' sweeps: at depth 7 pure beta-plural nClerksNG runs
# for seconds before the value cap stops it
PAPER_DEPTHS = range(7)


def _differential_cases(kind):
    if kind == "paper":
        for program, q in PAPER_QUERIES + MORE_PAPER_QUERIES:
            yield program, ex(program, q), PAPER_DEPTHS
        for program, q in FREE_VARIABLE_QUERIES:
            yield program, ex(program, q), range(5)
        return
    for seed, program in _harness_programs(range(1, 31)):
        rng = _expr_rng(seed)
        for max_depth in (3, 3, 2):
            yield program, gen_ground_expr(program, rng, max_depth), range(5)


@pytest.mark.parametrize("kind", ("plain", "paper"))
def test_maximal_value_matching_agrees_with_matching_every_value(kind):
    # ROADMAP aim 3: the matcher choice from the maximal values against
    # matching every value, for every argument reached at depths 0..4
    # (paper queries 0..6) in every mode
    _CheckedChoices.checked = _CheckedChoices.pruned = 0
    for program, expr, depths in _differential_cases(kind):
        for mode in MODES:
            enum = _CheckedChoices(program, mode, value_budget=VALUE_CAP)
            try:
                for depth in depths:
                    enum.values(expr, depth)
            except BudgetExceeded:
                pass
    assert _CheckedChoices.checked > 1000
    if kind != "paper":
        assert _CheckedChoices.pruned > 0


def _sweeps(enum, expr, depths):
    """The value set at each depth, ending in None where the budget
    tripped."""
    rows = []
    try:
        for depth in depths:
            rows.append(enum.values(expr, depth))
    except BudgetExceeded:
        rows.append(None)
    return rows


def _builtin_cases():
    for seed, program in _harness_programs(range(1, 41)):
        rng = _expr_rng(seed)
        for _ in range(3):
            yield program, gen_ground_expr(program, rng), range(5)
    for program, q in PAPER_QUERIES + MORE_PAPER_QUERIES:
        yield program, ex(program, q), PAPER_DEPTHS


def test_native_builtins_agree_with_unfolding_their_rules():
    # ROADMAP aim 3: `?` and if_then evaluated natively against the same
    # calls unfolded pick by pick, on every (expression, depth) memoized,
    # with the budget tripping on the same rows
    capped = 0
    for program, expr, depths in _builtin_cases():
        for mode in MODES:
            native = Enumerator(program, mode, value_budget=TRIP_BUDGET)
            picked = PickedBuiltinsEnumerator(program, mode, value_budget=TRIP_BUDGET)
            got = _sweeps(native, expr, depths)
            assert got == _sweeps(picked, expr, depths), (format_term(expr), mode)
            for (node, k), vset in native._memo.items():
                assert picked._lookup(node, k, read=False) == vset, (format_term(node), k, mode)
            capped += got[-1] is None
    # pinned, so that a change to the inputs shows
    assert capped == 3


# the paper queries in the modes where both enumerators prove a fixpoint
# within seconds
PAPER_FIXPOINTS = (
    (DUNGEON, "escapeHow", (COMBINED_ALPHA, ALPHA)),
    (CLERKS, "twoclerks", MODES),
    (CLERKS, "nClerks(s(s(z)))", (CALL_TIME, COMBINED_ALPHA, COMBINED_BETA)),
    (CLERKS, "nClerksNG(s(s(z)))", (CALL_TIME,)),
)


@pytest.mark.parametrize(
    "program,query,modes", PAPER_FIXPOINTS, ids=[q for _p, q, _m in PAPER_FIXPOINTS]
)
def test_native_builtins_prove_the_same_fixpoints(program, query, modes):
    # the same strata in the same order, proven complete at the same depth
    expr = ex(program, query)
    for mode in modes:
        runs = []
        for cls in (Enumerator, PickedBuiltinsEnumerator):
            stream = DenotationStream(cls(program, mode), expr, None)
            runs.append((list(stream), stream.complete, stream.swept))
        assert runs[0] == runs[1], mode
        assert runs[0][1], mode


def _stream_run(enum, expr, depth):
    """(depth, value) per value the stream yields, then ("tripped",
    depth) if the budget stopped it there; and complete and swept."""
    stream = DenotationStream(enum, expr, depth)
    rows = []
    try:
        for value in stream:
            rows.append((stream.swept, value))
    except BudgetExceeded:
        rows.append(("tripped", stream.swept + 1))
    return rows, stream.complete, stream.swept


@pytest.mark.parametrize("kind", ("plain", "paper"))
def test_cached_choices_and_bodies_agree_with_rebuilding_them_per_call(kind):
    # the per-enumerator caches against the path that rebuilds every
    # argument's choices and every pick's body on each call: the same
    # memo, keys and sets, the same strata, and the budget tripping at the
    # same depth
    tripped = 0
    for program, expr, depths in _differential_cases(kind):
        for mode in MODES:
            cached = Enumerator(program, mode, value_budget=TRIP_BUDGET)
            uncached = UncachedEnumerator(program, mode, value_budget=TRIP_BUDGET)
            got = _stream_run(cached, expr, depths[-1])
            assert got == _stream_run(uncached, expr, depths[-1]), (format_term(expr), mode)
            assert cached._memo == uncached._memo, (format_term(expr), mode)
            tripped += got[0][-1][0] == "tripped"
    # pinned, so that a change to the inputs shows; the paper queries'
    # sweeps stop short of the budget
    assert tripped == {"plain": 3, "paper": 0}[kind]


class _TripKey:
    """Keeps the innermost values call that a BudgetExceeded left."""

    tripped = None

    def values(self, expr, k):
        try:
            return super().values(expr, k)
        except BudgetExceeded:
            if self.tripped is None:
                self.tripped = (expr, k)
            raise


class _Antichains(_TripKey, UnfrozenEnumerator):
    pass


class _DownClosed(_TripKey, DownClosedEnumerator):
    pass


def _kept(memo):
    """Per memo entry (e, k) whose (e, k-1) was made first, whether it is
    that entry's object. values can keep only an entry made first; the
    down-closure of a function-free expression is one object per process,
    so its entries are the same object in whatever order they were made."""
    order = {key: i for i, key in enumerate(memo)}
    return [
        vset is memo[(e, k - 1)]
        for (e, k), vset in memo.items()
        if order.get((e, k - 1), len(order)) < order[(e, k)]
    ]


def _harness_asked(monkeypatch):
    """(program, mode, expr, depth, cap) per denotation that the hierarchy,
    pst, cab and bubbling suites ask for on seeds 1..10, 21 and 32, at
    every scale."""
    asked = []
    drain = harness._drain

    def noted(stream, got, depth, cap):
        enum = stream.enum
        if not isinstance(enum, NeedEnumerator):
            asked.append((enum.program, enum.mode, stream.expr, depth, cap))
        return drain(stream, got, depth, cap)

    monkeypatch.setattr(harness, "_drain", noted)
    for suite in ("hierarchy", "pst", "cab", "bubbling"):
        run_suite(suite, list(range(1, 11)) + [21, 32], 4, out=lambda line: None)
    return asked


# the paper-denote jobs of the benchmark that PAPER_FIXPOINTS leaves out
PAPER_JOBS = (
    (DUNGEON, COMBINED_BETA, "escapeHow", 9),
    (CLERKS, COMBINED_ALPHA, "nClerks(s(s(s(z))))", None),
    (CLERKS, COMBINED_BETA, "nClerks(s(s(s(z))))", None),
    (CLERKS, COMBINED_ALPHA, "nClerksNG(s(s(z)))", 16),
)


def _antichain_cases(kind, monkeypatch):
    """(program, mode, expr, depth, budget) per denotation: every one the
    hierarchy, pst, cab and bubbling suites ask for on seeds 1..10, 21 and
    32. Or the paper queries in every mode, at depth 6 under the value
    cap, and the paper jobs of the benchmark, unbounded where they prove
    their fixpoint."""
    if kind == "paper":
        for program, q in PAPER_QUERIES + MORE_PAPER_QUERIES:
            for mode in MODES:
                yield program, mode, ex(program, q), PAPER_DEPTHS[-1], VALUE_CAP
        for program, q, modes in PAPER_FIXPOINTS:
            for mode in modes:
                yield program, mode, ex(program, q), None, None
        for program, mode, q, depth in PAPER_JOBS:
            yield program, mode, ex(program, q), depth, None
        return
    yield from _harness_asked(monkeypatch)


def _totals_run(run):
    rows, complete, swept = run
    return [row for row in rows if row[0] == "tripped" or row[1].total], complete, swept


@pytest.mark.parametrize("kind", ("harness", "paper"))
def test_antichains_are_the_maximal_values_of_the_down_closed_sets(kind, monkeypatch):
    # ROADMAP aim 3: the memo of maximal antichains against the memo of
    # whole down-closed sets, wherever neither trips its budget: the same
    # memo keys in the same order, each antichain the maximal values of
    # the old set, the same sets kept from one depth to the next, and the
    # same strata of totals, complete and swept. The antichains trip
    # their budget only where the down-closed sets do
    cases = compared = 0
    for program, mode, expr, depth, budget in _antichain_cases(kind, monkeypatch):
        where = (format_term(expr), mode, depth)
        new = _Antichains(program, mode, value_budget=budget)
        old = _DownClosed(program, mode, value_budget=budget)
        got = _totals_run(_stream_run(new, expr, depth))
        want = _totals_run(_stream_run(old, expr, depth))
        assert new.tripped is None or old.tripped is not None, where
        cases += 1
        if old.tripped is not None:
            continue
        assert got == want, where
        assert list(new._memo) == list(old._memo), where
        for key, vset in old._memo.items():
            assert new._memo[key] == sweep_maximal_terms(vset), where
        assert _kept(new._memo) == _kept(old._memo), where
        compared += 1
    # pinned, so that a change to the inputs shows
    assert (cases, compared) == {"harness": (250, 241), "paper": (45, 45)}[kind]


# no antichain of these harness denotations holds more than 10 values; at
# this budget a few of them trip
FIXPOINT_BUDGET = 4


def _fixpoint_cases(kind, monkeypatch):
    """(program, mode, expr, depth, budget) per denotation: every one the
    hierarchy, pst, cab and bubbling suites ask for on seeds 1..10, 21
    and 32, asked as the support-wide check asks them, which escalates
    wherever the read-closure check does. Each runs under a budget of
    FIXPOINT_BUDGET values in place of the harness's cap, which none of
    their antichains reaches. Or the paper queries where they
    prove their fixpoint, and combined-alpha nClerksNG, which only the
    read-closure check proves by depth 16."""
    if kind == "paper":
        for program, q, modes in PAPER_FIXPOINTS:
            for mode in modes:
                yield program, mode, ex(program, q), None, None
        yield CLERKS, COMBINED_ALPHA, ex(CLERKS, "nClerksNG(s(s(z)))"), 16, None
        return
    monkeypatch.setattr(harness, "Enumerator", SupportWideEnumerator)
    for program, mode, expr, depth, _cap in _harness_asked(monkeypatch):
        yield program, mode, expr, depth, FIXPOINT_BUDGET


def _drained(enum, expr, depth):
    """The root's set at each depth the stream swept, what it yielded,
    whether it proved its fixpoint, and whether the budget stopped it."""
    stream = DenotationStream(enum, expr, depth)
    got, tripped = set(), False
    try:
        got.update(stream)
    except BudgetExceeded:
        tripped = True
    sets = [enum.values(expr, d) for d in range(stream.swept + 1)]
    return sets, got, stream.complete, tripped


@pytest.mark.parametrize("kind", ("harness", "paper"))
def test_the_read_closure_check_proves_what_the_support_wide_check_proves(kind, monkeypatch):
    # ROADMAP aim 3: the fixpoint check over the root's read-closure
    # against the check over the whole support. The same sets at every
    # depth both swept, a proof no later, the same answers where both
    # prove, the old set at its bound where only the new check proves,
    # and every proof borne out by a fresh enumerator four depths further
    cases = earlier = tripped = 0
    for program, mode, expr, depth, budget in _fixpoint_cases(kind, monkeypatch):
        where = (format_term(expr), mode, depth)
        new = _drained(Enumerator(program, mode, value_budget=budget), expr, depth)
        old = _drained(SupportWideEnumerator(program, mode, value_budget=budget), expr, depth)
        (new_sets, new_got, new_complete, new_tripped) = new
        (old_sets, old_got, old_complete, old_tripped) = old
        shared = min(len(new_sets), len(old_sets))
        assert new_sets[:shared] == old_sets[:shared], where
        assert new_tripped == old_tripped, where
        if new_tripped:
            assert len(new_sets) == len(old_sets), where
        if old_complete:
            assert new_complete and len(new_sets) <= len(old_sets), where
        if new_complete:
            assert new_got == old_got and new_sets[-1] == old_sets[-1], where
            fresh = Enumerator(program, mode, value_budget=budget)
            proven = len(new_sets) - 1
            for later in range(proven + 1, proven + 5):
                assert fresh.values(expr, later) == new_sets[-1], (where, later)
            earlier += len(new_sets) < len(old_sets) or not old_complete
        cases += 1
        tripped += new_tripped
    # pinned, so that a change to the inputs shows
    assert (cases, earlier, tripped) == {"harness": (250, 83, 5), "paper": (12, 7, 0)}[kind]


# beta-plural arguments over two and three pattern variables, which the
# harness programs lack: their maximal products take a search
PRODUCTS = prog(
    """
    g is plural .
    g(d(X,Y)) -> l(X,X,Y,Y) .
    k is plural .
    k(d(X,Y)) -> d(X,Y) .
    t is plural .
    t(d(X,d(Y,Z))) -> l(X,Y,Z,X) .
    u is sp .
    u(X, d(Y,Z)) -> d(X, d(Y,Z)) .
    u(c(X), Y) -> l(X,X,Y,Y) .
    w is plural .
    w(d(X,Y)) -> X ? w(d(Y,X)) .
    v(d(X,Y)) -> d(Y,X) .
    """
)


def _product_query(rng):
    """A call of PRODUCTS on ?-chains of one to three constructor terms."""
    def chain(leaf):
        return " ? ".join(leaf() for _ in range(rng.randint(1, 3)))

    def bit():
        return rng.choice(("0", "1", "0 ? 1", "bot"))

    def pair():
        return "d(%s,%s)" % (bit(), bit())

    f = rng.choice("gkwvtu")
    if f == "t":
        return "t(%s)" % chain(lambda: "d(%s,d(%s,%s))" % (bit(), bit(), bit()))
    if f == "u":
        return "u(%s, %s)" % (chain(lambda: "c(%s)" % bit()), chain(pair))
    inner = chain(pair)
    if rng.random() < 0.3:
        inner = "%s(%s)" % (rng.choice("kv"), inner)
    return "%s(%s)" % (f, inner)


def _beta_cases(kind, monkeypatch):
    """(program, mode, expr, depth, budget) per beta-plural and
    combined-beta denotation: every one the hierarchy, pst, cab and
    bubbling suites ask for on seeds 1..10, 21 and 32; or the paper
    queries and the small ones above; or 40 calls of PRODUCTS. The last
    two run under the value cap to depth 40."""
    if kind == "harness":
        asked = _harness_asked(monkeypatch)
        yield from (case for case in asked if case[1] in (BETA, COMBINED_BETA))
        return
    if kind == "paper":
        queries = PAPER_QUERIES + MORE_PAPER_QUERIES + FREE_VARIABLE_QUERIES + tuple(
            (EP3, "%s(d(0,0)?d(1,1))" % f) for f in "ghk"
        )
    else:
        rng = random.Random(1)
        queries = [(PRODUCTS, _product_query(rng)) for _ in range(40)]
    for program, q in queries:
        for mode in (BETA, COMBINED_BETA):
            yield program, mode, ex(program, q), 40, VALUE_CAP


class _Searched(Enumerator):
    """Counts the product searches of beta-plural arguments."""

    searches = 0

    def _maximal_products(self, maximal, names):
        self.searches += 1
        return super()._maximal_products(maximal, names)


@pytest.mark.parametrize("kind", ("harness", "paper", "products"))
def test_maximal_products_prove_what_every_compressible_subset_proves(kind, monkeypatch):
    # ROADMAP aim 3: beta passing only the maximal compressible sets, cut to
    # their maximal images, against passing every compressible subset of
    # every matcher: wherever both prove their fixpoint, the same answers
    # and the same set. The reference gives up on arguments with more
    # matchers than it can take the subsets of
    cases = proven = gave_up = searched = 0
    for program, mode, expr, depth, budget in _beta_cases(kind, monkeypatch):
        where = (format_term(expr), mode, depth)
        enum = _Searched(program, mode, value_budget=budget)
        sets, got, complete, _ = _drained(enum, expr, depth)
        try:
            ref_sets, ref_got, ref_complete, _ = _drained(
                AllSubsetsEnumerator(program, mode, value_budget=budget), expr, depth
            )
        except OracleGaveUp:
            gave_up += 1
            ref_complete = False
        if complete and ref_complete:
            # yields of other depths can differ below the maximal ones
            assert down_closed(got) == down_closed(ref_got), where
            assert sets[-1] == ref_sets[-1], where
            proven += 1
            searched += enum.searches > 0
        cases += 1
    # pinned, so that a change to the inputs shows
    assert (cases, proven, gave_up, searched) == {
        "harness": (95, 77, 6, 0),
        "paper": (26, 21, 1, 3),
        "products": (80, 76, 2, 42),
    }[kind]


class _CountedWork(Enumerator):
    """Keeps every uncached choice computation and body build, and counts
    the choice lookups, which _CheckedChoices also sees all of."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.chosen = []
        self.built = []
        self.lookups = 0

    def _choices(self, pattern, dom, singular, vset):
        self.lookups += 1
        return super()._choices(pattern, dom, singular, vset)

    def _choose(self, pattern, dom, singular, vset):
        got = super()._choose(pattern, dom, singular, vset)
        self.chosen.append(got)
        return got

    def _instantiate(self, rule, per_arg):
        got = super()._instantiate(rule, per_arg)
        self.built.append(got)
        return got


def _assert_built_once_per_key(enum):
    # every computation is kept, so distinct results have distinct ids:
    # each cached entry is one computation and no key was computed twice
    for computed, cache in ((enum.chosen, enum._choice_cache), (enum.built, enum._body_cache)):
        assert len(computed) == len(cache)
        assert {id(v) for v in cache.values()} == {id(v) for v in computed}


def test_choices_and_bodies_are_built_once_per_key_on_escape_how():
    # the stream to its proof at depth 19: one chain per argument makes a
    # single depth too cheap to show the caches
    enum = _CountedWork(DUNGEON, COMBINED_BETA)
    stream = DenotationStream(enum, ex(DUNGEON, "escapeHow"), None)
    for _ in stream:
        pass
    assert stream.complete
    _assert_built_once_per_key(enum)
    # most lookups find an argument set seen before: 611 for 154 choices.
    # A frozen call is looked up, not recomputed, and looks up no
    # argument set
    assert enum.lookups > 3 * len(enum.chosen)


def test_choices_and_bodies_are_built_once_per_key_on_a_harness_seed(monkeypatch):
    # seed 21's beta-plural sets stop changing from one depth to the next
    made = []

    class Recorded(_CountedWork):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    monkeypatch.setattr(harness, "Enumerator", Recorded)
    assert harness.run_suite("hierarchy", [21], 4, out=lambda line: None) == (3, 0)
    assert made
    for enum in made:
        _assert_built_once_per_key(enum)
    # 207 lookups for 144 choices
    assert sum(e.lookups for e in made) > 1.4 * sum(len(e.chosen) for e in made)
