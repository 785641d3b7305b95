"""`show path` and `path on` read the eval that produced the answer.

On the paper queries, the derivation printed after every result equals a
freshly computed one from `derives` for the calculi. A rewrite path is
rebuilt from the call-by-need enumerator's memo: it must start at the
query, end at the value, replay step by step through
`oracles.reference_one_step`, and be no shorter than the breadth-first
reference's shortest derivation. The same replay gate covers every value
of the harness's run-time searches and of the paper programs. Printing
paths builds no enumerator, stream or search, and leaves the memo and the
read record as the sweeps made them."""

import os

import pytest

from oracles import derives, is_reference_step, reference_find_path
from pluralrw.calculi import Enumerator
from pluralrw.repl import Session, _find_path
from pluralrw.rewriting import NeedEnumerator
from pluralrw.sweep import DenotationStream
from pluralrw.syntax import format_term, parse_expression, parse_program
from pluralrw.transform import pst, pst_optimized, pst_simple
from test_need import DEPTH, _searches

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DUNGEON = os.path.join(ROOT, "programs", "dungeon.plural")
CLERKS = os.path.join(ROOT, "programs", "clerks.plural")

CALCULI, PST = "calculi", "rewrite-via-pST"

# paper queries that finish in about a second, a fresh derivation per
# result included: (program, semantics, engine, depth bound, query)
CALCULI_QUERIES = (
    (DUNGEON, "combined-alpha", None, "escapeHow"),
    (DUNGEON, "combined-beta", 7, "escapeHow"),
    (CLERKS, "call-time", None, "twoclerks"),
    (CLERKS, "alpha-plural", None, "twoclerks"),
    (CLERKS, "beta-plural", None, "twoclerks"),
    (CLERKS, "combined-alpha", None, "nClerks(s(s(z)))"),
    (CLERKS, "combined-beta", None, "nClerks(s(s(z)))"),
)
# the same by rewriting, with the results checked against the reference:
# it takes about a second per pST twoclerks result, so it checks the
# first and the last of its 16
REWRITE_QUERIES = (
    (CLERKS, "combined-alpha", PST, None, "twoclerks", slice(None, None, 15)),
    (DUNGEON, "combined-alpha", PST, 6, "escapeHow", slice(None)),
    (DUNGEON, "run-time", CALCULI, 6, "escapeHow", slice(None)),
    (CLERKS, "run-time", CALCULI, None, "twoclerks", slice(None)),
)


def test_a_path_to_a_value_never_reached_is_refused():
    # run-time choice pairs each clerk with themself
    with open(CLERKS) as f:
        program = parse_program(f.read())
    expr = parse_expression("twoclerks", program.signature)
    value = parse_expression("p(maria,laura)", program.signature)
    stream = DenotationStream(NeedEnumerator(program), expr, None)
    assert value not in set(stream) and stream.complete
    with pytest.raises(ValueError, match=r"^p\(maria,laura\) is not a value of twoclerks"):
        _find_path(stream.enum, expr, value, stream.swept)


def _session(program, semantics, engine, *settings):
    s = Session()
    for line in ("load " + program, "semantics " + semantics, "engine " + engine) + settings:
        s.execute(line)
    return s


def _eval_line(depth, query):
    return "eval depth = %s %s" % ("inf" if depth is None else depth, query)


def _results_with_paths(s, depth, query):
    """(result, the lines `show path` prints for it) per result of the eval,
    each compared with what `path on` printed after it."""
    s.execute("path on")
    lines = s.execute(_eval_line(depth, query))
    out = []
    while lines[0].startswith("Result: "):
        path = s.execute("show path")
        assert lines[1:] == path
        out.append((lines[0][len("Result: "):], path))
        lines = s.execute("more")
    assert out
    return out


def _rendered(start, chain):
    lines = [format_term(start)]
    for step in chain:
        where = ".".join(str(i) for i in step.position) or "root"
        lines.append("-> %s   [rule %d at %s]" % (format_term(step.result), step.rule_index, where))
    return lines


def _assert_replays(program, start, value, chain):
    source = start
    for step in chain:
        assert is_reference_step(program, source, step)
        source = step.result
    assert source is value


@pytest.mark.parametrize(
    "program,semantics,depth,query", CALCULI_QUERIES,
    ids=["%s-%s" % (m, q) for _p, m, _d, q in CALCULI_QUERIES],
)
def test_calculi_paths_equal_a_fresh_derivation(program, semantics, depth, query):
    s = _session(program, semantics, CALCULI)
    expr = parse_expression(query, s.program.signature)
    for text, path in _results_with_paths(s, depth, query):
        value = parse_expression(text, s.program.signature)
        assert path == derives(s.program, semantics, expr, value, depth).render().splitlines()


@pytest.mark.parametrize(
    "program,semantics,engine,depth,query,checked", REWRITE_QUERIES,
    # these ids keep the suffix they had beside depth-first cases, so results stay comparable
    ids=["%s-%s-breadth-first" % (m if e == CALCULI else "pst", q)
         for _p, m, e, _d, q, _c in REWRITE_QUERIES],
)
def test_rewrite_paths_equal_the_reference_shortest_derivation(
    program, semantics, engine, depth, query, checked
):
    # a rebuilt path is a real derivation, not always a shortest one: the
    # reference, bounded by its length, finds one no longer
    s = _session(program, semantics, engine)
    target = pst(s.program).output if engine == PST else s.program
    expr = parse_expression(query, s.program.signature)
    for text, path in _results_with_paths(s, depth, query)[checked]:
        value = parse_expression(text, s.program.signature)
        chain = _find_path(s._search.enum, expr, value, s._search.swept)
        assert path == _rendered(expr, chain)
        _assert_replays(target, expr, value, chain)
        shortest = reference_find_path(target, expr, value, len(chain))
        assert shortest is not None and len(shortest) <= len(chain)


def _assert_every_value_has_a_replaying_path(program, expr, depth):
    enum = NeedEnumerator(program)
    stream = DenotationStream(enum, expr, depth, totals_only=True)
    values = list(stream)
    tables = dict(enum._memo), dict(enum._frozen), dict(enum._record)
    for value in values:
        _assert_replays(program, expr, value, _find_path(enum, expr, value, stream.swept))
    assert (enum._memo, enum._frozen, enum._record) == tables
    return len(values)


@pytest.mark.parametrize("seed", range(1, 41))
def test_every_run_time_value_of_the_harness_searches_has_a_replaying_path(seed):
    for label, program, expr in _searches(seed):
        try:
            _assert_every_value_has_a_replaying_path(program, expr, DEPTH)
        except AssertionError as err:
            raise AssertionError("%s %r" % (label, expr)) from err


# pST-simple nClerks is left out: its paths take seconds
@pytest.mark.parametrize("path,query,engine", [
    pytest.param(p, q, e, id="%s-%s-%s" % (os.path.basename(p), q, e))
    for p, q in ((DUNGEON, "escapeHow"), (CLERKS, "twoclerks"), (CLERKS, "nClerks(s(s(z)))"))
    for e in ("run-time", "pst-optimized", "pst-simple")
    if (q, e) != ("nClerks(s(s(z)))", "pst-simple")
])
def test_every_rewrite_value_of_the_paper_programs_has_a_replaying_path(path, query, engine):
    with open(path) as f:
        program = parse_program(f.read())
    if engine != "run-time":
        program = (pst_optimized if engine == "pst-optimized" else pst_simple)(program).output
    expr = parse_expression(query, program.signature)
    assert _assert_every_value_has_a_replaying_path(program, expr, 40) > 0


@pytest.fixture
def built(monkeypatch):
    """The names of the classes of every Enumerator, NeedEnumerator and
    DenotationStream made while the test runs, in order."""
    made = []
    for cls in (Enumerator, NeedEnumerator, DenotationStream):
        def counted(self, *args, _init=cls.__init__, _name=cls.__name__, **kwargs):
            made.append(_name)
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counted)
    return made


@pytest.mark.parametrize("setting", (
    "semantics combined-alpha", "semantics run-time", "engine rewrite-via-pST",
), ids=("calculi", "run-time", "pst"))
def test_paths_build_no_search(built, setting):
    s = Session()
    for line in ("load " + CLERKS, setting):
        s.execute(line)
    s.execute("eval twoclerks")
    s.execute("more")
    del built[:]
    s.execute("show path")
    assert built == []
    s.execute("path on")
    results = 0
    while s.execute("more")[0].startswith("Result: "):
        results += 1
    assert results > 0
    assert built == []


def test_printing_paths_leaves_the_eval_and_its_stats_as_they_were():
    # a derivation reads `?` bodies that no sweep evaluates. They are
    # settled, so they make no memo entry nor read record: `stats` and what
    # the stream does must not change
    outputs = []
    for path in ("path off", "path on"):
        s = _session(CLERKS, "combined-alpha", CALCULI, path)
        lines = s.execute("eval depth = inf nClerks(s(s(z)))")
        results = []
        while lines[0].startswith("Result: "):
            results.append(lines[0])
            lines = s.execute("more")
        outputs.append((results, s.execute("stats"), len(s._search.enum._record)))
    assert outputs[0] == outputs[1]
    assert outputs[0][1][0] == "proven complete at depth 12"


def test_rewrite_paths_leave_the_memo_as_the_sweeps_made_it():
    # stats reads the memo; `show path` and `path on` must not add to it
    outputs = []
    for path in ("path off", "path on"):
        s = _session(DUNGEON, "combined-alpha", PST, path)
        lines = s.execute("eval depth = 40 escapeHow")
        results = []
        while lines[0].startswith("Result: "):
            results.append(lines[0])
            lines = s.execute("more")
        stats = s.execute("stats")
        assert s.execute("show path")[-1].startswith("-> " + results[-1][len("Result: "):])
        assert s.execute("stats") == stats
        outputs.append((results, stats))
    assert outputs[0] == outputs[1]
    assert len(outputs[0][0]) == 33
    assert outputs[0][1][0] == "depth bound 40 reached; more may exist"
