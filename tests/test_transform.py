from pluralrw.calculi import ALPHA, BETA
from pluralrw.rewriting import reachable
from pluralrw.syntax import BUILTIN_RULES, parse_expression, parse_program
from pluralrw.terms import app, var
from pluralrw.transform import (
    OPT_IDENTITY,
    OPT_PARTIAL,
    SIMPLE,
    UNTOUCHED,
    is_class_cab,
    pst,
    pst_optimized,
    pst_simple,
)

from oracles import runtime_denotation, values_at


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

CLERKS = parse_program(open("programs/clerks.plural").read())


def ex(program, text):
    return parse_expression(text, program.signature)


def test_simple_transform_shape():
    out = pst_simple(P1).output
    y = var("Y1")
    proj = lambda t: app("proj$0$X", (t,))
    assert [(r.lhs, r.rhs) for r in out.rules] == [
        (app("f", (y,)), app("if_then", (app("match$0", (y,)), app("d", (proj(y), proj(y)))))),
        (app("match$0", (app("c", (var("X"),)),)), app("tt")),
        (proj(app("c", (var("X"),))), var("X")),
    ]
    assert pst_simple(P1).cases == (SIMPLE,)
    assert pst_simple(P1).fresh == {"match$0": 0, "proj$0$X": 0}


def test_simple_transform_skips_projections_for_unused_variables():
    out = pst_simple(prog("null(nil) -> tt .")).output
    assert [r.name for r in out.rules] == ["null", "match$0"]
    null_rule = out.rules[0]
    assert null_rule.args[0].kind == 1
    assert null_rule.rhs.name == "if_then"


def test_builtins_pass_through_unchanged():
    empty = parse_program("plural T is\nendp")
    for transform in (pst_simple, pst_optimized):
        report = transform(empty)
        assert report.output.rules == ()
        assert report.output.all_rules == BUILTIN_RULES
        assert report.cases == ()


def test_optimized_keeps_variable_and_ground_arguments():
    assert pst_optimized(prog("pair(X) -> d(X,X) .")).cases == (UNTOUCHED,)
    assert pst_optimized(prog("null(nil) -> tt .")).cases == (UNTOUCHED,)
    mixed = pst_optimized(prog("f(X, c(Y)) -> d(X,X,Y,Y) ."))
    assert mixed.cases == (OPT_PARTIAL,)
    rule = mixed.output.rules[0]
    # the variable argument survives, only the matched one is rerouted
    assert rule.args[0] == var("X")
    assert rule.args[1].kind == 1 and rule.args[1].name != "Y"
    assert pst_optimized(P1).cases == (OPT_IDENTITY,)


def test_optimized_modifies_only_find_in_the_twoclerks_fragment():
    fragment = prog(
        """
        branches -> madrid ? vigo ? badajoz .
        employees(madrid) -> e(pepe, men, clerk) ? e(paco, men, boss) .
        employees(vigo) -> e(maria, women, clerk) ? e(jaime, men, boss) .
        employees(badajoz) -> e(laura, women, clerk) ? e(david, men, clerk) .
        twoclerks -> find(employees(branches)) .
        find(e(N, G, clerk)) -> p(N, N) .
        """
    )
    report = pst_optimized(fragment)
    touched = [r.name for r, c in zip(fragment.rules, report.cases) if c != UNTOUCHED]
    assert touched == ["find"]


def test_fresh_symbols_do_not_collide_even_when_iterated():
    once = pst_simple(P1)
    src = set(P1.signature.constructors) | set(P1.signature.functions)
    assert not src & set(once.fresh)
    twice = pst_simple(once.output)
    outer = set(once.output.signature.constructors) | set(once.output.signature.functions)
    assert not outer & set(twice.fresh)


def test_output_is_a_valid_program():
    for source in (P1, EP3, CLERKS):
        for transform in (pst_simple, pst_optimized):
            out = transform(source).output
            assert all(r.rhs.varset <= r.lhs.varset for r in out.rules)


def test_transformed_rewriting_recombines_choices():
    out = pst(P1).output
    e = ex(out, "f(c(0) ? c(1))")
    hits = [n for x, n in reachable(out, e, 20)
            if x == ex(out, "d(0,1)")]
    assert hits and hits[0] <= 10


def test_transformed_rewriting_matches_plural_values_at_saturation():
    out = pst(P1).output
    e_src = ex(P1, "f(c(0) ? c(1))")
    e_out = ex(out, "f(c(0) ? c(1))")
    want = values_at(P1, ALPHA, e_src, 8, totals_only=True)
    assert runtime_denotation(out, e_out, 50) == want
    # restricted form: this program is in the agreement class, so the
    # compressed semantics coincides as well
    assert is_class_cab(P1)[0]
    assert values_at(P1, BETA, e_src, 8, totals_only=True) == want


def test_transformed_rewriting_is_sound_at_any_bound():
    out = pst(EP3).output
    for text in ("h(d(0,0) ? d(1,1))", "g(d(0,0) ? d(1,1))", "k(d(0,0) ? d(1,1))"):
        want = values_at(EP3, ALPHA, ex(EP3, text), 10, totals_only=True)
        for bound in (2, 5, 50):
            got = runtime_denotation(out, ex(out, text), bound)
            assert got <= want
        assert runtime_denotation(out, ex(out, text), 50) == want


def test_simple_and_optimized_agree_on_reachable_values():
    for source in (P1, EP3):
        simple = pst_simple(source).output
        fast = pst_optimized(source).output
        for text in ("f(c(0) ? c(1))", "f(c(0 ? 1))"):
            a = runtime_denotation(simple, ex(simple, text), 50)
            b = runtime_denotation(fast, ex(fast, text), 50)
            assert a == b


def test_class_membership_counts_shared_variables():
    ok = prog("f(c(X)) -> d(X,X) .\nh(d(X,Y)) -> d(X,X) .")
    assert is_class_cab(ok) == (True, [])
    bad = prog("g(d(X,Y)) -> l(X,X,Y,Y) .")
    verdict, violations = is_class_cab(bad)
    assert not verdict
    assert [(v[0].name, v[1], v[2]) for v in violations] == [
        ("g", 1, frozenset({"X", "Y"}))
    ]


def test_class_membership_can_exempt_singular_arguments():
    raw_verdict, raw_violations = is_class_cab(CLERKS)
    assert not raw_verdict
    assert {v[0].name for v in raw_violations} == {"diffL", "take", "findClerkNG"}
    assert is_class_cab(CLERKS, respect_plurality=True) == (True, [])
