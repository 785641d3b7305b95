from pluralrw.calculi import BETA
from pluralrw.rewriting import one_step, reachable
from pluralrw.syntax import parse_expression, parse_program
from pluralrw.terms import BOT, down_closure

import pytest

from oracles import depth_first_reach, runtime_denotation, values_at


def prog(body):
    return parse_program("plural T is\n%s\nendp" % body)


P1 = prog("f(c(X)) -> d(X,X) .")
LOOP = prog("f(X) -> f(X) .")
FROM = prog("from(X) -> X ? s(from(X)) .")


def ex(program, text):
    return parse_expression(text, program.signature)


def tset(program, texts):
    return frozenset(ex(program, t) for t in texts)


def test_choice_argument_blocks_pattern_until_decided():
    e = ex(P1, "f(c(0) ? c(1))")
    steps = one_step(P1, e)
    # c(0)?c(1) does not match c(X), so only the two ? rules fire, inside
    assert [s.position for s in steps] == [(1,), (1,)]
    assert {s.result for s in steps} == tset(P1, ["f(c(0))", "f(c(1))"])


def test_direct_match_steps_at_root():
    e = ex(P1, "f(c(0))")
    steps = one_step(P1, e)
    assert any(
        s.position == () and s.result == ex(P1, "d(0,0)") for s in steps
    )
    root = [s for s in steps if s.position == ()][0]
    assert root.matcher == {"X": ex(P1, "0")}


def test_builtin_conditional_steps_at_root():
    e = ex(P1, "if tt then 0")
    steps = one_step(P1, e)
    assert [(s.position, s.result) for s in steps] == [((), ex(P1, "0"))]


def test_cterm_is_normal_form():
    t = ex(P1, "d(c(0), 1)")
    assert one_step(P1, t) == []
    assert list(reachable(P1, t)) == [(t, 0)]


def test_rejects_partial_input():
    with pytest.raises(ValueError):
        one_step(P1, BOT)
    with pytest.raises(ValueError):
        reachable(P1, BOT)


def test_rejects_a_negative_bound():
    with pytest.raises(ValueError, match="non-negative"):
        reachable(P1, ex(P1, "f(c(0))"), -1)


def test_steps_enumerate_leftmost_innermost():
    e = ex(P1, "d(f(c(0)), f(c(1)))")
    steps = one_step(P1, e)
    assert [s.position for s in steps] == [(1,), (2,)]


def test_every_step_replays():
    todo = [ex(P1, "f(c(0) ? c(1))"), ex(P1, "f(c(0 ? 1))")]
    seen = set(todo)
    while todo:
        e = todo.pop()
        for s in one_step(P1, e):
            assert s.replay(P1, e)
            if s.result not in seen:
                seen.add(s.result)
                todo.append(s.result)


def test_replay_rejects_foreign_source():
    e = ex(P1, "f(c(0))")
    step = [s for s in one_step(P1, e) if s.position == ()][0]
    assert not step.replay(P1, ex(P1, "f(c(1))"))


def test_run_time_choice_mixes_shared_argument():
    # a single decided alternative keeps copies aligned...
    assert runtime_denotation(P1, ex(P1, "f(c(0) ? c(1))"), 20) == tset(
        P1, ["d(0,0)", "d(1,1)"]
    )
    # ...but an undecided choice inside the matched argument gets copied
    assert runtime_denotation(P1, ex(P1, "f(c(0 ? 1))"), 20) == tset(
        P1, ["d(0,0)", "d(0,1)", "d(1,0)", "d(1,1)"]
    )


def test_partials_of_an_unproductive_loop():
    assert runtime_denotation(LOOP, ex(LOOP, "f(0)"), 5, totals_only=False) == frozenset(
        (BOT,)
    )


def test_partials_are_shell_closures():
    got = runtime_denotation(P1, ex(P1, "f(c(0))"), 20, totals_only=False)
    assert down_closure(ex(P1, "d(0,0)")) <= got
    assert BOT in got


def test_bfs_reports_shortest_lengths():
    lengths = {}
    for e, n in reachable(P1, ex(P1, "f(c(0) ? c(1))")):
        lengths[e] = n
    assert lengths[ex(P1, "f(c(0) ? c(1))")] == 0
    assert lengths[ex(P1, "f(c(0))")] == 1
    assert lengths[ex(P1, "d(0,0)")] == 2
    ns = [n for _, n in sorted(lengths.items(), key=lambda kv: kv[1])]
    assert ns == sorted(ns)


def test_bfs_and_dfs_agree_when_neither_hits_the_bound():
    # the breadth-first stream against the depth-first reference
    for text in ("f(c(0) ? c(1))", "f(c(0 ? 1))", "d(f(c(0)), f(c(1)))"):
        e = ex(P1, text)
        bfs = reachable(P1, e, 50)
        bset = {x for x, _ in bfs}
        dfs, exhausted, _capped = depth_first_reach(P1, e, 50)
        assert not bfs.exhausted and not exhausted
        assert bset == set(dfs)


def test_bound_exhaustion_is_flagged():
    e = ex(FROM, "from(z)")
    cut = reachable(FROM, e, 3)
    seen = list(cut)
    assert cut.exhausted
    assert all(n <= 3 for _, n in seen)
    done = reachable(P1, ex(P1, "f(c(0))"), 50)
    list(done)
    assert not done.exhausted


def test_one_step_is_sound_for_compressed_plural_values():
    # stepping never invents values: saturated sets only shrink or stay
    for text in ("f(c(0) ? c(1))", "f(c(0 ? 1))"):
        e = ex(P1, text)
        before = values_at(P1, BETA, e, 8)
        for s in one_step(P1, e):
            assert values_at(P1, BETA, s.result, 8) <= before
