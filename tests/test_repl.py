import os
import subprocess
import sys
from pathlib import Path

import pytest

from pluralrw.calculi import Enumerator, enumerate_values
from pluralrw.repl import BANNER_OK, PST_NOTICE, CommandError, Session, _interact, main
from pluralrw.rewriting import NeedEnumerator
from pluralrw.sweep import DenotationStream
from pluralrw.syntax import parse_expression
from pluralrw.transform import pst

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


def test_load_reports_a_module_that_is_not_utf8(tmp_path):
    s = Session()
    load(s, tmp_path, P1_BODY)
    bad = tmp_path / "bad.plural"
    bad.write_bytes(b"\xff\xfe")
    with pytest.raises(CommandError, match="cannot read %s: .*utf-8" % bad):
        s.execute("load %s" % bad)
    assert s.execute("eval f(c(0))") == ["Result: d(0,0)"]


def test_script_mode_reports_files_that_are_not_utf8(tmp_path, capsys):
    bad = tmp_path / "bad.plural"
    bad.write_bytes(b"\xff\xfe")
    loads = tmp_path / "loads.cmd"
    loads.write_text("load %s\n" % bad)
    for script, unread in ((loads, bad), (bad, bad)):
        assert main(["--run", str(script)]) == 1
        assert "Error: cannot read %s: " % unread in capsys.readouterr().err


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


def test_the_pst_engine_says_what_it_computes_under_another_semantics():
    # pST rewriting is faithful to alpha-plural; the session's default
    # semantics is combined-alpha
    s = Session()
    s.execute("load programs/dungeon.plural")
    notice = PST_NOTICE % ("rewrite-via-pST", "combined-alpha")
    assert s.execute("engine rewrite-via-pST") == [notice]
    assert s.execute("semantics call-time") == [PST_NOTICE % ("rewrite-via-pST", "call-time")]
    assert s.execute("semantics alpha-plural") == []
    assert s.execute("semantics run-time") == []
    assert s.execute("semantics beta-plural") == [PST_NOTICE % ("rewrite-via-pST", "beta-plural")]
    assert s.execute("engine calculi") == []
    assert s.execute("semantics combined-beta") == []
    s.execute("semantics combined-alpha")
    assert s.execute("engine rewrite-via-pST") == [notice]
    # only the settings replies carry it: results, paths and the end of
    # the stream read as they did
    replies = [s.execute("path on"), s.execute("eval depth = 4 escapeHow")]
    while replies[-1][0].startswith("Result: "):
        replies.append(s.execute("more"))
    replies.append(s.execute("show path"))
    assert replies[-2] == ["No more solutions."]
    assert not any(line.startswith("Note:") for reply in replies for line in reply)


def test_the_engine_flag_prints_the_pst_notice(tmp_path, capsys):
    script = tmp_path / "probe.cmd"
    script.write_text("load programs/dungeon.plural\n")
    assert main(["--run", str(script), "--engine", "rewrite-via-pST"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == (
        PST_NOTICE % ("rewrite-via-pST", "combined-alpha"))
    assert main(["--run", str(script), "--semantics", "alpha-plural",
                 "--engine", "rewrite-via-pST"]) == 0
    assert "Note:" not in capsys.readouterr().out


def test_depth_clause_and_parenthesized_form(tmp_path):
    s = Session()
    load(s, tmp_path, P1_BODY)
    assert s.execute("(eval depth = 0 f(c(0)) .)") == ["No solution."]
    assert s.execute("(eval depth = 8 f(c(0)) .)") == ["Result: d(0,0)"]
    assert s.execute("eval depth = inf f(c(0))") == ["Result: d(0,0)"]


@pytest.mark.parametrize("command", ("breadth-first", "depth-first"))
def test_search_order_commands_are_unknown(command):
    with pytest.raises(CommandError, match="unknown command %r" % command):
        Session().execute(command)


def test_run_time_rewriting_of_an_infinite_stream_yields_its_first_values(tmp_path):
    # one_step lists the redex from(z) before the root ?, so a search that
    # kept unfolding it first would print nothing
    s = Session()
    load(s, tmp_path, "from(X) -> X ? s(from(X)) .")
    s.execute("semantics run-time")
    assert s.execute("eval depth = 200 from(z)") == ["Result: z"]
    assert s.execute("more") == ["Result: s(z)"]
    assert s.execute("more") == ["Result: s(s(z))"]


def test_show_tr_prints_the_transformed_program(tmp_path):
    s = Session()
    load(s, tmp_path, P1_BODY)
    out = s.execute("showTr")
    assert any("match$0" in line for line in out)
    assert any("proj$0$X" in line for line in out)
    assert out[-1] == "endp"


def test_show_tr_and_a_pst_eval_transform_the_program_once(tmp_path, monkeypatch):
    calls = []

    def counted(program):
        calls.append(program)
        return pst(program)

    monkeypatch.setattr("pluralrw.repl.pst", counted)
    s = Session()
    load(s, tmp_path, P1_BODY)
    s.execute("showTr")
    s.execute("semantics alpha-plural")
    s.execute("engine rewrite-via-pST")
    assert s.execute("eval f(c(0))") == ["Result: d(0,0)"]
    assert calls == [s.program]


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
    s.execute("path on")
    s.execute("reboot")
    assert s.program is None
    assert s.semantics == "combined-alpha"
    assert not s.path_on
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


def test_there_is_no_width_to_set(capsys):
    # beta-plural passes its maximal compressible sets, whatever their size
    with pytest.raises(CommandError, match="unknown command 'width'"):
        Session().execute("width 2")
    assert not any("width" in line for line in Session().execute("help"))
    with pytest.raises(SystemExit):
        main(["--width", "2"])
    assert "unrecognized arguments: --width" in capsys.readouterr().err


def test_beta_passes_all_five_copies_of_a_chain_proven_complete(tmp_path):
    # each copy of X selects its own alternative: 5**5 totals under both
    # beta modes, as under alpha-plural. A width of 4 kept the 120 totals
    # with five distinct arguments out and still said "proven complete"
    s = Session()
    load(s, tmp_path, "g is plural .\ng(X) -> p(X,X,X,X,X) .")
    for semantics in ("beta-plural", "combined-beta", "alpha-plural"):
        s.execute("semantics " + semantics)
        first = s.execute("eval g(a ? b ? c ? d ? e)")[0][len("Result: "):]
        results = {first, *drain(s, limit=4000)}
        assert len(results) == 5 ** 5 and "p(a,b,c,d,e)" in results, semantics
        assert s.execute("stats")[0] == "proven complete at depth 6", semantics


def test_deep_input_is_a_clear_error_not_a_crash():
    s = Session()
    s.execute("load programs/clerks.plural")
    s.execute("eval twoclerks")
    deep = "s(" * 3000 + "z" + ")" * 3000
    with pytest.raises(CommandError, match="nested too deeply"):
        s.execute("eval " + deep)
    with pytest.raises(CommandError, match="no active eval"):
        s.execute("more")
    assert s.execute("eval s(z)") == ["Result: s(z)"]


def test_ctrl_c_drops_the_eval_and_returns_to_the_prompt(monkeypatch, capsys):
    s = Session()
    s.execute("load programs/clerks.plural")
    s.execute("eval twoclerks")
    lines = iter(["more", "more", "quit"])
    monkeypatch.setattr("builtins.input", lambda prompt: next(lines))
    execute = s.execute
    seen = []

    def interrupted_once(line):
        seen.append(line)
        if len(seen) == 1:
            raise KeyboardInterrupt
        return execute(line)

    monkeypatch.setattr(s, "execute", interrupted_once)
    try:
        assert _interact(s) == 0
    except KeyboardInterrupt:
        pytest.fail("Ctrl-C ended the session")
    out = capsys.readouterr().out.splitlines()
    assert "Interrupted." in out
    assert "Error: no active eval to continue" in out
    assert seen == ["more", "more", "quit"]


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


def test_show_path_does_not_depend_on_the_hash_seed(tmp_path):
    # ties among maximal values break by the canonical term order, not by
    # set iteration order, so a derivation prints the same in every run
    script = tmp_path / "alpha.cmd"
    script.write_text(
        "load programs/clerks.plural\nsemantics alpha-plural\neval twoclerks\n"
        + "more\n" * 16
        + "show path\n"
    )
    root = Path(__file__).resolve().parents[1]
    outputs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=str(root / "src"))
        proc = subprocess.run(
            [sys.executable, "-m", "pluralrw.repl", "--run", str(script)],
            cwd=root, env=env, capture_output=True, text=True, check=True,
        )
        outputs.append(proc.stdout)
    assert "APOR  twoclerks =>> " in outputs[0]
    assert outputs[0] == outputs[1]


def test_stats_says_how_complete_a_calculi_eval_is(tmp_path):
    s = Session()
    with pytest.raises(CommandError, match="no eval"):
        s.execute("stats")
    load(s, tmp_path, P1_BODY + "\nfrom(X) -> X ? s(from(X)) .")
    s.execute("semantics call-time")
    s.execute("eval f(c(0) ? c(1))")
    state, memo = s.execute("stats")
    assert state.startswith("depth ") and state.endswith(" swept so far; more may follow")
    assert memo.startswith("memo entries: ")
    assert drain(s) == ["d(1,1)"]
    # the same stream run directly says what to expect
    expr = parse_expression("f(c(0) ? c(1))", s.program.signature)
    stream = enumerate_values(s.program, "call-time", expr, None)
    list(stream)
    assert stream.complete
    assert s.execute("stats") == [
        "proven complete at depth %d" % stream.swept,
        "memo entries: %d" % stream.enum.memo_entries,
    ]
    assert s.execute("eval depth = 4 from(z)") == ["Result: z"]
    drain(s)
    assert s.execute("stats")[0] == "depth bound 4 reached; more may exist"
    with pytest.raises(CommandError, match="takes no arguments"):
        s.execute("stats now")


def test_more_ends_a_stream_whose_root_ignores_a_growing_argument(tmp_path):
    # h grows at every depth, but f never reads its argument: the fixpoint
    # needs only what g reads, so `more` ends instead of sweeping forever
    s = Session()
    load(s, tmp_path, "h -> z ? s(h) .\nf(X) -> a .\ng -> f(h) .")
    s.execute("semantics call-time")
    assert s.execute("eval depth = inf g") == ["Result: a"]
    assert s.execute("more") == ["No more solutions."]
    assert s.execute("stats")[0] == "proven complete at depth 3"


def test_stats_says_how_a_rewrite_search_ended(tmp_path):
    # rewriting is enumerated by depth like the calculi, and says so alike
    s = Session()
    load(s, tmp_path, P1_BODY)
    s.execute("semantics run-time")
    s.execute("eval f(c(0 ? 1))")
    state, memo = s.execute("stats")
    assert state.startswith("depth ") and state.endswith(" swept so far; more may follow")
    assert memo.startswith("memo entries: ")
    drain(s)
    # the same stream run directly says what to expect
    expr = parse_expression("f(c(0 ? 1))", s.program.signature)
    stream = DenotationStream(NeedEnumerator(s.program), expr, None)
    list(stream)
    assert stream.complete
    assert s.execute("stats") == [
        "proven complete at depth %d" % stream.swept,
        "memo entries: %d" % stream.enum.memo_entries,
    ]
    assert s.execute("eval depth = 1 f(c(0 ? 1))") == ["No solution."]
    assert s.execute("stats")[0] == "depth bound 1 reached; more may exist"
    s.execute("reboot")
    with pytest.raises(CommandError, match="no eval"):
        s.execute("stats")


@pytest.mark.parametrize("settings", (
    ("semantics run-time",), ("semantics combined-alpha", "engine rewrite-via-pST"),
), ids=("run-time", "pst"))
def test_every_engine_defaults_to_twelve_unfoldings(settings):
    # escapeHow is never proven by rewriting: without a depth clause the
    # stream ends at the default depth instead of sweeping on
    s = Session()
    s.execute("load programs/dungeon.plural")
    for line in settings:
        s.execute(line)
    assert s.execute("eval escapeHow")[0].startswith("Result: ")
    drain(s)
    assert s.execute("stats")[0] == "depth bound 12 reached; more may exist"


def test_help_lists_stats_and_rewriting_refuses_bottom(tmp_path):
    s = Session()
    assert any(line.split()[:1] == ["stats"] for line in s.execute("help"))
    load(s, tmp_path, P1_BODY)
    s.execute("semantics run-time")
    with pytest.raises(CommandError, match="total expression"):
        s.execute("eval f(bot)")


@pytest.mark.parametrize("semantics", ("call-time", "run-time"))
def test_an_eval_without_results_leaves_no_path_to_show(tmp_path, semantics):
    s = Session()
    load(s, tmp_path, P1_BODY)
    s.execute("semantics " + semantics)
    assert s.execute("eval f(c(0))") == ["Result: d(0,0)"]
    assert s.execute("eval depth = 0 f(c(1))") == ["No solution."]
    with pytest.raises(CommandError, match="no result to show a path for"):
        s.execute("show path")


@pytest.mark.parametrize("settings", (("semantics call-time",), ("semantics run-time",)))
def test_show_path_reads_an_interrupted_eval(tmp_path, monkeypatch, settings):
    # what Ctrl-C leaves: a sweep stopped where it stood, and a dropped
    # stream; the memo of the depths already swept stays valid
    s = Session()
    load(s, tmp_path, P1_BODY + "\nfrom(X) -> X ? s(from(X)) .")
    for line in settings:
        s.execute(line)
    s.execute("eval depth = 6 from(z)")
    s.execute("more")
    before = s.execute("show path")

    def interrupted(*args):
        raise KeyboardInterrupt

    monkeypatch.setattr(Enumerator, "values", interrupted)
    monkeypatch.setattr(NeedEnumerator, "values", interrupted)
    with pytest.raises(KeyboardInterrupt):
        s.execute("more")
    s.drop_stream()
    monkeypatch.undo()
    assert s.execute("show path") == before
    with pytest.raises(CommandError, match="no active eval"):
        s.execute("more")
    with pytest.raises(CommandError, match="no eval to report on"):
        s.execute("stats")


def test_superscript_digits_are_a_clear_error(tmp_path, monkeypatch, capsys):
    # str.isdigit accepts them, int() does not
    s = Session()
    for line in ("depth \u00b2", "depth 1\u00b3"):
        with pytest.raises(CommandError, match="needs a"):
            s.execute(line)
    s.execute("depth \u0663")  # ARABIC-INDIC DIGIT THREE is a decimal digit
    assert s.depth == 3
    script = tmp_path / "probe.cmd"
    script.write_text("quit\n")
    assert main(["--run", str(script), "--depth", "\u00b2"]) == 2
    assert "Error: depth needs" in capsys.readouterr().err
    lines = iter(["depth \u00b2", "quit"])
    monkeypatch.setattr("builtins.input", lambda prompt: next(lines))
    assert _interact(Session()) == 0
    assert "Error: depth needs a non-negative number or inf" in capsys.readouterr().out


def test_transcripts_and_harness_verdicts_do_not_depend_on_the_hash_seed(tmp_path):
    # terms hash by identity, so set iteration order follows memory
    # addresses rather than the hash seed; no output may depend on it
    script = tmp_path / "paper.cmd"
    script.write_text(
        "path on\nload programs/dungeon.plural\nsemantics combined-alpha\n"
        "eval depth = inf escapeHow\n" + "more\n" * 9 + "stats\nshow path\n"
        "semantics run-time\neval depth = 5 escapeHow\nmore\nstats\nshow path\n"
        "load programs/clerks.plural\nsemantics beta-plural\n"
        "eval depth = inf twoclerks\n" + "more\n" * 16 + "stats\nshow path\n"
        "semantics combined-alpha\nengine rewrite-via-pST\neval depth = inf twoclerks\n"
        "more\nmore\nshow path\nstats\n"
    )
    root = Path(__file__).resolve().parents[1]
    runs = (
        ["pluralrw.repl", "--run", str(script)],
        ["pluralrw.harness", "--suite", "hierarchy", "--seeds", "21..24"],
        ["pluralrw.harness", "--suite", "bubbling", "--seeds", "1..8"],
    )
    outputs = []
    for seed in ("0", "7"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=str(root / "src"))
        outputs.append([
            subprocess.run(
                [sys.executable, "-m"] + args, cwd=root, env=env, capture_output=True,
            )
            for args in runs
        ])
    for first, second in zip(*outputs):
        assert first.returncode == second.returncode == 0
        assert (first.stdout, first.stderr) == (second.stdout, second.stderr)
    transcript = outputs[0][0].stdout.decode()
    assert transcript.count("proven complete") == 2 and "BPOR  twoclerks =>> " in transcript


def test_the_proving_depth_does_not_depend_on_the_hash_seed(tmp_path):
    # confirm_fixpoint walks the root's read-closure in list order; when
    # an earlier check walked the support in set order, this query was
    # proven complete at depth 3 or 4 by hash seed
    module = tmp_path / "m.plural"
    module.write_text("plural T is\n%s\nendp" % P1_BODY)
    script = tmp_path / "fixpoint.cmd"
    script.write_text(
        "load %s\nsemantics call-time\neval f(c(0) ? c(1))\nmore\nmore\nstats\n"
        "load programs/clerks.plural\nsemantics call-time\neval depth = inf twoclerks\n"
        % module
        + "more\n" * 4
        + "stats\n"
    )
    root = Path(__file__).resolve().parents[1]
    outputs = set()
    for seed in ("0", "1", "2", "3", "4", "5"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=str(root / "src"))
        proc = subprocess.run(
            [sys.executable, "-m", "pluralrw.repl", "--run", str(script)],
            cwd=root, env=env, capture_output=True, text=True, check=True,
        )
        outputs.add(proc.stdout)
    assert len(outputs) == 1
    states = [line for line in outputs.pop().splitlines() if line.startswith("proven")]
    assert states == ["proven complete at depth 3", "proven complete at depth 7"]


def test_input_300_deep_still_answers():
    s = Session()
    s.execute("load programs/clerks.plural")
    assert s.execute("eval take(" + "s(" * 300 + "z" + ")" * 300 + ", nil)") == ["No solution."]


def test_a_rejected_query_leaves_the_signature_as_it_was():
    s = Session()
    s.execute("load programs/clerks.plural")
    before = dict(s.program.signature.constructors)
    with pytest.raises(CommandError, match="take takes 2 arguments, given 1"):
        s.execute("eval cons(zzz, take(z))")
    assert s.program.signature.constructors == before
    assert s.execute("eval cons(zzz, nil)") == ["Result: cons(zzz,nil)"]
    assert s.program.signature.constructors["zzz"] == 0
