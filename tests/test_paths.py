"""`show path` and `path on` read the search that produced the answer.

On the paper queries, the derivation printed after every result equals a
freshly computed one: a fresh `derives` for the calculi, and the
breadth-first reference for rewriting. Printing paths builds no
enumerator, stream or search."""

import os

import pytest

from oracles import derives, reference_find_path
from pluralrw.calculi import DenotationStream, EnumConfig, Enumerator
from pluralrw.repl import Session
from pluralrw.rewriting import ReachStream
from pluralrw.syntax import format_term, parse_expression
from pluralrw.transform import pst

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
# the same, with the results checked: the reference takes about a second
# per pST twoclerks result, so it checks the first and the last of its 16
REWRITE_QUERIES = (
    (CLERKS, "combined-alpha", PST, None, "twoclerks", slice(None, None, 15)),
    (DUNGEON, "combined-alpha", PST, 6, "escapeHow", slice(None)),
    (DUNGEON, "run-time", CALCULI, 6, "escapeHow", slice(None)),
    (CLERKS, "run-time", CALCULI, None, "twoclerks", slice(None)),
)


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


@pytest.mark.parametrize(
    "program,semantics,depth,query", CALCULI_QUERIES,
    ids=["%s-%s" % (m, q) for _p, m, _d, q in CALCULI_QUERIES],
)
def test_calculi_paths_equal_a_fresh_derivation(program, semantics, depth, query):
    s = _session(program, semantics, CALCULI)
    expr = parse_expression(query, s.program.signature)
    cfg = EnumConfig(depth=depth)
    for text, path in _results_with_paths(s, depth, query):
        value = parse_expression(text, s.program.signature)
        assert path == derives(s.program, semantics, expr, value, cfg).render().splitlines()


@pytest.mark.parametrize(
    "program,semantics,engine,depth,query,checked", REWRITE_QUERIES,
    # these ids keep the suffix they had beside depth-first cases, so results stay comparable
    ids=["%s-%s-breadth-first" % (m if e == CALCULI else "pst", q)
         for _p, m, e, _d, q, _c in REWRITE_QUERIES],
)
def test_rewrite_paths_equal_the_reference_shortest_derivation(
    program, semantics, engine, depth, query, checked
):
    s = _session(program, semantics, engine)
    target = pst(s.program).output if engine == PST else s.program
    expr = parse_expression(query, s.program.signature)
    for text, path in _results_with_paths(s, depth, query)[checked]:
        value = parse_expression(text, s.program.signature)
        assert path == _rendered(expr, reference_find_path(target, expr, value, depth))


@pytest.fixture
def built(monkeypatch):
    """The names of the classes of every Enumerator, DenotationStream and
    ReachStream made while the test runs, in order."""
    made = []
    for cls in (Enumerator, DenotationStream, ReachStream):
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
    # a derivation reads `?` bodies that no sweep evaluates; their memo
    # entries must not show in `stats` nor change what the stream does
    outputs = []
    for path in ("path off", "path on"):
        s = _session(CLERKS, "combined-alpha", CALCULI, path)
        lines = s.execute("eval depth = inf nClerks(s(s(z)))")
        results = []
        while lines[0].startswith("Result: "):
            results.append(lines[0])
            lines = s.execute("more")
        outputs.append((results, s.execute("stats")))
    assert outputs[0] == outputs[1]
    assert outputs[0][1][0] == "proven complete at depth 12"
