import pytest

from pluralrw.repl import BANNER_OK, CommandError, Session, main

P1_BODY = "f(c(X)) -> d(X,X) ."


def load(session, tmp_path, body, name="m.plural"):
    f = tmp_path / name
    f.write_text("plural T is\n%s\nendp" % body)
    return session.execute("load %s" % f)


def drain(session, limit=500):
    results = []
    while True:
        lines = session.execute("more")
        if lines == ["No more solutions."]:
            return results
        assert lines[0].startswith("Result: ")
        results.append(lines[0][len("Result: "):])
        assert len(results) < limit


def test_load_prints_banner_for_agreeing_programs():
    s = Session()
    out = s.execute("load programs/clerks.plural")
    assert out == ["Module introduced.", BANNER_OK]


def test_load_caveat_names_the_first_offending_rule(tmp_path):
    s = Session()
    out = load(s, tmp_path, "g is plural .\ng(d(X,Y)) -> l(X,X,Y,Y) .")
    assert out[0] == "Module introduced."
    assert out[1] != BANNER_OK
    assert "g(d(X,Y))" in out[1]


def test_load_rejects_invalid_module_and_keeps_session(tmp_path):
    s = Session()
    load(s, tmp_path, P1_BODY)
    bad = tmp_path / "bad.plural"
    bad.write_text("plural T is\nf(X) -> d(X,Y) .\nendp")
    with pytest.raises(CommandError, match="extra variable"):
        s.execute("load %s" % bad)
    assert s.execute("eval f(c(0))") == ["Result: d(0,0)"]


def test_eval_and_more_follow_the_call_time_stream(tmp_path):
    s = Session()
    load(s, tmp_path, P1_BODY)
    s.execute("semantics call-time")
    assert s.execute("eval f(c(0) ? c(1))") == ["Result: d(0,0)"]
    assert s.execute("more") == ["Result: d(1,1)"]
    assert s.execute("more") == ["No more solutions."]
    assert s.execute("more") == ["No more solutions."]


def test_twoclerks_transcript_lines():
    s = Session()
    s.execute("load programs/clerks.plural")
    first = s.execute("(eval twoclerks .)")
    assert first == ["Result: p(pepe,pepe)"]
    rest = drain(s)
    assert "p(pepe,maria)" in rest


def test_more_needs_a_stream():
    s = Session()
    with pytest.raises(CommandError):
        s.execute("more")


def test_eval_needs_a_module():
    s = Session()
    with pytest.raises(CommandError):
        s.execute("eval f(c(0))")


def test_run_time_semantics_rewrites_the_loaded_rules(tmp_path):
    s = Session()
    load(s, tmp_path, P1_BODY)
    s.execute("semantics run-time")
    first = s.execute("eval f(c(0 ? 1))")
    mixed = {first[0][len("Result: "):]} | set(drain(s))
    assert mixed == {"d(0,0)", "d(0,1)", "d(1,0)", "d(1,1)"}
    # with the choice outside the matched pattern the copies stay aligned
    first = s.execute("eval f(c(0) ? c(1))")
    aligned = {first[0][len("Result: "):]} | set(drain(s))
    assert aligned == {"d(0,0)", "d(1,1)"}


def test_pst_engine_agrees_with_plural_calculi(tmp_path):
    a = Session()
    load(a, tmp_path, P1_BODY)
    a.execute("semantics alpha-plural")
    first_a = a.execute("eval f(c(0) ? c(1))")
    calculi = {first_a[0][len("Result: "):]} | set(drain(a))

    b = Session()
    load(b, tmp_path, P1_BODY)
    b.execute("semantics alpha-plural")
    b.execute("engine rewrite-via-pST")
    first_b = b.execute("eval f(c(0) ? c(1))")
    rewriting = {first_b[0][len("Result: "):]} | set(drain(b))
    assert calculi == rewriting == {"d(0,0)", "d(0,1)", "d(1,0)", "d(1,1)"}


def test_depth_clause_and_parenthesized_form(tmp_path):
    s = Session()
    load(s, tmp_path, P1_BODY)
    assert s.execute("(eval depth = 0 f(c(0)) .)") == ["No solution."]
    assert s.execute("(eval depth = 8 f(c(0)) .)") == ["Result: d(0,0)"]
    assert s.execute("eval depth = inf f(c(0))") == ["Result: d(0,0)"]


def test_strategies_reach_the_same_solutions(tmp_path):
    results = {}
    for strategy in ("breadth-first", "depth-first"):
        s = Session()
        load(s, tmp_path, P1_BODY)
        s.execute("semantics run-time")
        s.execute(strategy)
        first = s.execute("eval f(c(0 ? 1))")
        results[strategy] = {first[0][len("Result: "):]} | set(drain(s))
    assert results["breadth-first"] == results["depth-first"]


def test_show_tr_prints_the_transformed_program(tmp_path):
    s = Session()
    load(s, tmp_path, P1_BODY)
    out = s.execute("showTr")
    assert any("match$0" in line for line in out)
    assert any("proj$0$X" in line for line in out)
    assert out[-1] == "endp"


def test_show_path_for_the_calculi_engine(tmp_path):
    s = Session()
    load(s, tmp_path, P1_BODY)
    s.execute("eval f(c(0))")
    path = s.execute("show path")
    assert "=>>" in path[0]
    assert "d(0,0)" in path[0]


def test_show_path_names_the_fact_it_applied():
    # every neq fact has the body tt and no variables, so only the rule
    # itself tells neq(david,laura) -> tt from neq(pepe,paco) -> tt
    s = Session()
    s.execute("load programs/clerks.plural")
    assert s.execute("eval depth = inf nClerks(s(s(z)))") == [
        "Result: cons(david,cons(laura,nil))"
    ]
    path = s.execute("show path")
    assert path[0].startswith("SAPOR  nClerks(s(s(z))) =>> cons(david,cons(laura,nil))")
    at = next(i for i, line in enumerate(path) if "SAPOR  neq(david,laura) =>> tt" in line)
    assert [line.strip() for line in path[at + 1:at + 4]] == [
        "DC  david =>> david",
        "DC  laura =>> laura",
        "DC  tt =>> tt",
    ]


def test_show_path_for_the_rewrite_engine(tmp_path):
    s = Session()
    load(s, tmp_path, P1_BODY)
    s.execute("semantics run-time")
    s.execute("eval f(c(0))")
    path = s.execute("show path")
    assert path[0] == "f(c(0))"
    assert path[-1].startswith("-> d(0,0)")


def test_path_on_appends_derivations_to_results(tmp_path):
    s = Session()
    load(s, tmp_path, P1_BODY)
    s.execute("path on")
    out = s.execute("eval f(c(0))")
    assert out[0] == "Result: d(0,0)"
    assert len(out) > 1 and "=>>" in out[1]


def test_reboot_restores_every_default(tmp_path):
    s = Session()
    load(s, tmp_path, P1_BODY)
    s.execute("semantics run-time")
    s.execute("depth 3")
    s.execute("width 2")
    s.execute("reboot")
    assert s.program is None
    assert s.semantics == "combined-alpha"
    assert s.width == 4
    with pytest.raises(CommandError):
        s.execute("more")


def test_unknown_inputs_are_rejected():
    s = Session()
    with pytest.raises(CommandError):
        s.execute("frobnicate")
    with pytest.raises(CommandError):
        s.execute("semantics nonsense")
    with pytest.raises(CommandError):
        s.execute("depth minus-one")


def test_script_mode_runs_and_exits_cleanly(tmp_path, capsys):
    script = tmp_path / "session.cmd"
    script.write_text(
        "# transcript replay\n"
        "load programs/clerks.plural\n"
        "(eval twoclerks .)\n"
        "more\n"
        "quit\n"
        "eval neverreached\n"
    )
    code = main(["--run", str(script)])
    out = capsys.readouterr().out
    assert code == 0
    assert "Module introduced." in out
    assert "Result: p(pepe,pepe)" in out


def test_script_mode_fails_fast_on_errors(tmp_path, capsys):
    script = tmp_path / "broken.cmd"
    script.write_text("eval f(c(0))\n")
    code = main(["--run", str(script)])
    err = capsys.readouterr().err
    assert code == 1
    assert "Error:" in err


def test_startup_flags_mirror_commands(tmp_path, capsys):
    script = tmp_path / "probe.cmd"
    f = tmp_path / "m.plural"
    f.write_text("plural T is\n%s\nendp" % P1_BODY)
    script.write_text("load %s\neval f(c(0) ? c(1))\n" % f)
    code = main(["--run", str(script), "--semantics", "call-time", "--depth", "8"])
    out = capsys.readouterr().out
    assert code == 0
    assert "Result: d(0,0)" in out
