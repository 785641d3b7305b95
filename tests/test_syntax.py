from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from pluralrw.harness import GenConfig, gen_program
from pluralrw.terms import BOT, Signature, app, var
from pluralrw.syntax import (
    BUILTIN_RULES,
    ParseError,
    ProgramError,
    format_program,
    format_rule,
    format_term,
    lex,
    parse_expression,
    parse_program,
)

PROGRAMS = Path(__file__).resolve().parents[1] / "programs"

SAMPLE = "plural SAMPLE-PROGRAM is f is plural . f(c(X)) -> p(X, X) . endp"


def sig_p1():
    return parse_program("plural P1 is f(c(X)) -> d(X, X) . endp").signature


def test_sample_program_classification():
    p = parse_program(SAMPLE)
    assert p.name == "SAMPLE-PROGRAM"
    assert set(p.signature.functions) == {"f", "?", "if_then"}
    assert {"c", "p"} <= set(p.signature.constructors)
    assert p.plurality["f"] == ("pl",)
    assert p.plurality_of("?") == ("sg", "sg")
    assert len(p.rules) == 1
    assert len(p.all_rules) == 1 + len(BUILTIN_RULES)


def test_default_plurality_is_singular():
    p = parse_program("plural M is g(X, Y) -> c(X, Y) . endp")
    assert p.plurality_of("g") == ("sg", "sg")


def test_nonlinear_lhs_rejected():
    with pytest.raises(ProgramError) as e:
        parse_program("plural M is f(X, X) -> X . endp")
    assert any("non-linear" in d for d in e.value.diagnostics)


def test_extra_variable_rejected():
    with pytest.raises(ProgramError) as e:
        parse_program("plural M is f -> d(X, X) . endp")
    assert any("extra variable" in d for d in e.value.diagnostics)


def test_arity_clash_rejected():
    with pytest.raises(ProgramError) as e:
        parse_program("plural M is f(c(X)) -> c(X, X) . endp")
    assert any("arity clash for c" in d for d in e.value.diagnostics)


def test_function_symbol_in_lhs_argument_rejected():
    text = "plural M is g(X) -> X . f(g(X)) -> X . endp"
    with pytest.raises(ProgramError) as e:
        parse_program(text)
    assert any("not a total c-term" in d for d in e.value.diagnostics)


def test_bottom_in_rule_rejected():
    with pytest.raises(ProgramError):
        parse_program("plural M is f(bot) -> 0 . endp")
    with pytest.raises(ProgramError) as e:
        parse_program("plural M is f(X) -> bot . endp")
    assert any("right-hand side" in d for d in e.value.diagnostics)


def test_builtins_not_redefinable():
    with pytest.raises(ProgramError) as e:
        parse_program("plural M is X ? Y -> X . endp")
    assert any("built-in" in d for d in e.value.diagnostics)


def test_variable_lhs_rejected():
    with pytest.raises(ProgramError) as e:
        parse_program("plural M is X -> 0 . endp")
    assert any("not a function application" in d for d in e.value.diagnostics)


def test_annotation_validation():
    with pytest.raises(ProgramError) as e:
        parse_program("plural M is f is sp . f(X) -> X . endp")
    assert any("positions" in d for d in e.value.diagnostics)
    with pytest.raises(ProgramError) as e:
        parse_program("plural M is g is plural . f(X) -> X . endp")
    assert any("no rules" in d for d in e.value.diagnostics)
    with pytest.raises(ProgramError) as e:
        parse_program("plural M is f is plural . f is singular . f(X) -> X . endp")
    assert any("conflicting" in d for d in e.value.diagnostics)


def test_annotation_before_or_after_rules():
    a = parse_program("plural M is f is plural . f(X) -> X . endp")
    b = parse_program("plural M is f(X) -> X . f is plural . endp")
    assert a.plurality["f"] == b.plurality["f"] == ("pl",)


def test_sp_string_annotation():
    p = parse_program("plural M is f is sp . f(X, Y) -> c(X, Y) . endp")
    assert p.plurality["f"] == ("sg", "pl")


def test_syntax_error_reports_location():
    with pytest.raises(ParseError) as e:
        parse_program("plural M is\nf(X) -> . endp")
    assert str(e.value).startswith("2:")
    with pytest.raises(ParseError):
        parse_program("plural M is f(X) -> X .")  # missing endp
    with pytest.raises(ParseError):
        parse_program("plural M is endp trailing")


# (program text, line:col: message); the parse stops at the first error
PROGRAM_ERRORS = [
    ("plural M is f(X) -> X ; endp", "1:23: unexpected character ';'"),
    ("plural M is\r\nf(X) -> \u00e9 . endp", "2:9: unexpected character '\u00e9'"),
    ("plural M is f(X)--> X . endp", "1:17: unexpected character '-'"),
    ("plural M is _ endp", "1:13: unexpected character '_'"),
    ("plural M is f(X) -> X .", "1:24: missing endp"),
    ("plural M is f(X) -> X .\n\n", "3:1: missing endp"),
    ("plural M is endp trailing", "1:18: trailing input after endp"),
    ("plural M is f(X) -> X . endp\n\n\nextra", "4:1: trailing input after endp"),
    ("plural M is f(X) -> X . endp ?", "1:30: trailing input after endp"),
    ("plural M is f(X) -> G(X) . endp", "1:21: variable G cannot take arguments"),
    ("plural M is f is ? . endp", "1:18: expected singular, plural, or an s/p string"),
    ("plural M is f is . endp", "1:18: expected singular, plural, or an s/p string"),
    ("plural M is f is plural endp", "1:25: expected '.', found 'endp'"),
    ("", "1:1: expected 'plural', found 'end of input'"),
    ("   \n\t ", "2:3: expected 'plural', found 'end of input'"),
    ("plural is endp", "1:8: expected 'ident', found 'is'"),
    ("plural M is\nf(X) -> . endp", "2:9: expected an expression"),
    ("plural M is f(X -> X . endp", "1:17: expected ')', found '->'"),
    ("plural M is f(X) X . endp", "1:18: expected 'arrow', found 'X'"),
    ("plural M is\n  f(c(X)) -> d(X,\n     X . endp", "3:8: expected ')', found '.'"),
    ("plural M is f(X,) -> X . endp", "1:17: expected an expression"),
    ("plural M is if X -> X . endp", "1:18: expected 'then', found '->'"),
    ("plural M is f(X) -> if X . endp", "1:26: expected 'then', found '.'"),
    ("plural M is f(X _|_) -> X . endp", "1:17: expected ')', found 'bot'"),
]

# (query text, line:col: message), against sig_p1
EXPRESSION_ERRORS = [
    ("@", "1:1: unexpected character '@'"),
    ("X(0)", "1:1: variable X cannot take arguments"),
    ("f(\n  X(1))", "2:3: variable X cannot take arguments"),
    ("", "1:1: expected an expression"),
    ("then", "1:1: expected an expression"),
    ("0 ?", "1:4: expected an expression"),
    ("0 ? ?", "1:5: expected an expression"),
    ("0 ?\n\n", "3:1: expected an expression"),
    ("f(0,", "1:5: expected an expression"),
    ("(0", "1:3: expected ')', found 'end of input'"),
    ("c(0 1)", "1:5: expected ')', found '1'"),
    ("f(0) 1", "1:6: trailing input after expression"),
    ("0 ->", "1:3: trailing input after expression"),
    ("f()(", "1:4: trailing input after expression"),
]


@pytest.mark.parametrize("text, message", PROGRAM_ERRORS)
def test_program_parse_error_texts(text, message):
    with pytest.raises(ParseError) as e:
        parse_program(text)
    assert str(e.value) == message
    line, col = message.split(":")[:2]
    assert (e.value.line, e.value.col) == (int(line), int(col))


@pytest.mark.parametrize("text, message", EXPRESSION_ERRORS)
def test_expression_parse_error_texts(text, message):
    with pytest.raises(ParseError) as e:
        parse_expression(text, sig_p1())
    assert str(e.value) == message


def test_lexer_splits_arrow_from_hyphenated_names():
    kinds, texts = lex("treasure-map->X-1")
    assert list(zip(kinds, texts)) == [
        ("ident", "treasure-map"),
        ("arrow", "->"),
        ("ident", "X-1"),
        ("eof", ""),
    ]


def test_parse_expression_shapes():
    sig = sig_p1()
    t = parse_expression("f(c(0) ? c(1))", sig)
    assert t is app("f", (app("?", (app("c", (app("0"),)), app("c", (app("1"),)))),))
    t2 = parse_expression("0 ? 1 ? 2", sig)
    assert t2 is app("?", (app("0"), app("?", (app("1"), app("2")))))


def test_parse_expression_arity_and_unknown_errors():
    sig = sig_p1()
    with pytest.raises(ProgramError):
        parse_expression("c(0, 1)", sig)
    with pytest.raises(ProgramError):
        parse_expression("mystery(0)", sig)


def test_parse_expression_registers_fresh_constants():
    sig = sig_p1()
    t = parse_expression("f(c(pepe))", sig)
    assert t is app("f", (app("c", (app("pepe"),)),))
    assert sig.constructors["pepe"] == 0


def test_parse_expression_variables_and_bottom():
    sig = sig_p1()
    assert parse_expression("X", sig) is var("X")
    assert parse_expression("bot", sig) is BOT
    assert parse_expression("_|_", sig) is BOT
    with pytest.raises(ParseError):
        parse_expression("X(0)", sig)
    with pytest.raises(ParseError):
        parse_expression("0 ? ", sig)


def test_nullary_application_both_forms():
    p = parse_program("plural M is branches -> madrid . endp")
    sig = p.signature
    assert parse_expression("branches", sig) is parse_expression("branches()", sig)


def test_if_then_parsing():
    sig = sig_p1()
    t = parse_expression("if tt then 0 ? 1", sig)
    assert t.name == "if_then"
    assert t.children[1].name == "?"
    nested = parse_expression("if tt then if ff then 0", sig)
    assert nested.children[1].name == "if_then"


def test_format_term_examples():
    assert format_term(app("d", (app("0"), app("1")))) == "d(0,1)"
    assert format_term(BOT) == "_|_"
    assert format_term(app("cons", (app("pepe"), app("nil")))) == "cons(pepe,nil)"
    assert format_term(app("branches")) == "branches"
    assert format_term(var("X")) == "X"


def test_format_disjunction_parenthesization():
    a, b, c = app("a"), app("b"), app("c")
    assert format_term(app("?", (app("?", (a, b)), c))) == "(a ? b) ? c"
    assert format_term(app("?", (a, app("?", (b, c))))) == "a ? b ? c"
    ift = app("if_then", (a, b))
    assert format_term(app("?", (ift, c))) == "(if a then b) ? c"
    assert format_term(app("?", (a, ift))) == "a ? (if a then b)"
    assert format_term(app("if_then", (a, app("?", (b, c))))) == "if a then b ? c"
    assert format_term(app("f", (app("?", (a, b)),))) == "f(a ? b)"


def test_format_rule():
    p = parse_program(SAMPLE)
    assert format_rule(p.rules[0]) == "f(c(X)) -> p(X,X) ."


def test_fixture_programs_load_cleanly():
    clerks = parse_program((PROGRAMS / "clerks.plural").read_text())
    assert clerks.name == "CLERKS"
    assert clerks.plurality["find"] == ("pl",)
    assert clerks.plurality["nVals"] == ("sg", "pl")
    assert clerks.plurality_of("employees") == ("sg",)
    dungeon = parse_program((PROGRAMS / "dungeon.plural").read_text())
    assert dungeon.name == "DUNGEON"
    assert dungeon.plurality["ask"] == ("sg", "pl")
    assert dungeon.plurality["discoverHow"] == ("pl",)
    assert "treasure-map" in dungeon.signature.constructors


def test_format_program_reparses():
    programs = [parse_program((PROGRAMS / f).read_text())
                for f in ("clerks.plural", "dungeon.plural")]
    programs += [gen_program(GenConfig(seed, force_cab=cab))
                 for seed in range(1, 401) for cab in (False, True)]
    for p in programs:
        again = parse_program(format_program(p))
        assert again.name == p.name
        # terms are interned and compare by identity
        assert [(r.lhs, r.rhs) for r in again.rules] == [(r.lhs, r.rhs) for r in p.rules]
        assert set(again.signature.functions) == set(p.signature.functions)
        for fn in p.signature.functions:
            assert again.plurality_of(fn) == p.plurality_of(fn)


# round-trip: printing then parsing is the identity

_SIG = Signature(
    constructors={"0": 0, "1": 0, "c": 2, "cons": 2, "nil": 0},
    functions={"f": 1},
)

exprs = st.recursive(
    st.sampled_from([BOT, app("0"), app("1"), app("nil"), var("X"), var("Ys")]),
    lambda sub: st.one_of(
        st.tuples(sub, sub).map(lambda p: app("c", p)),
        st.tuples(sub, sub).map(lambda p: app("cons", p)),
        sub.map(lambda x: app("f", (x,))),
        st.tuples(sub, sub).map(lambda p: app("?", p)),
        st.tuples(sub, sub).map(lambda p: app("if_then", p)),
    ),
    max_leaves=10,
)


@given(exprs)
def test_print_parse_round_trip(t):
    assert parse_expression(format_term(t), _SIG) is t
