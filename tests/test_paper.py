"""Golden answers for the paper's two example programs: under combined
alpha-plural semantics, the REPL's default, and under the pure
alpha-plural, pure beta-plural and combined beta-plural modes; by
rewriting in the REPL, the results, `stats` and `show path` of pST and
run-time choice at the depth bounds the benchmark runs and where the
answers are complete; and the run-time and pST answers of call-by-need
enumeration, which the REPL's rewriting uses too."""

from itertools import permutations, product

from pluralrw.calculi import (
    ALPHA,
    BETA,
    COMBINED_ALPHA,
    COMBINED_BETA,
    enumerate_values,
)
from pluralrw.repl import Session
from pluralrw.rewriting import NeedEnumerator
from pluralrw.sweep import DenotationStream
from pluralrw.syntax import format_term, parse_expression, parse_program
from pluralrw.transform import pst_optimized


def load(path):
    with open(path) as f:
        return parse_program(f.read())


DUNGEON = load("programs/dungeon.plural")
CLERKS = load("programs/clerks.plural")

# the paper's nine ways out of the dungeon
ESCAPE_HOW = {
    "p(ulysses,trojan-gold)",
    "p(circe,sirens-secret)",
    "p(circe,item(treasure-map))",
    "p(calypso,item(chest-code))",
    "p(aeolus,combine(treasure-map,treasure-map))",
    "p(aeolus,combine(treasure-map,chest-code))",
    "p(aeolus,combine(chest-code,treasure-map))",
    "p(aeolus,combine(chest-code,chest-code))",
    "p(polyphemus,key)",
}

# pure alpha-plural ignores `ask is sp`, so the guardian in askWho's pair
# is decoupled from the one asked: every guardian pairs with every message
MESSAGES = ("sirens-secret", "item(treasure-map)", "item(chest-code)", "key") + tuple(
    "combine(%s,%s)" % pair for pair in product(("treasure-map", "chest-code"), repeat=2)
)
ESCAPE_HOW_ALPHA = {"p(ulysses,trojan-gold)"} | {
    "p(%s,%s)" % gm for gm in product(("circe", "calypso", "aeolus", "polyphemus"), MESSAGES)
}

CLERK_NAMES = ("pepe", "maria", "laura", "david")
TWO_DISTINCT_CLERKS = {"cons(%s,cons(%s,nil))" % pair for pair in permutations(CLERK_NAMES, 2)}
CLERKS_WITH_GENDER = ("p(pepe,men)", "p(maria,women)", "p(laura,women)", "p(david,men)")
NCLERKS_NG_2 = {
    "cons(%s,cons(%s,nil))" % pair for pair in permutations(CLERKS_WITH_GENDER, 2)
}


def totals(program, query, depth, mode=COMBINED_ALPHA):
    expr = parse_expression(query, program.signature)
    stream = enumerate_values(program, mode, expr, depth, totals_only=True)
    return {format_term(t) for t in stream}, stream.complete


def test_escape_how_is_the_papers_nine_answers_proven_at_depth_19():
    # a bound of 19 lets the stream prove its fixpoint, 18 does not
    assert totals(DUNGEON, "escapeHow", 19) == (ESCAPE_HOW, True)
    assert totals(DUNGEON, "escapeHow", 18) == (ESCAPE_HOW, False)


def test_n_clerks_ng_lists_two_distinct_named_clerks_proven_complete():
    # like nClerks, but each clerk keeps their gender: p(name, gender)
    for mode, depth in ((COMBINED_ALPHA, 12), (COMBINED_BETA, 12)):
        assert totals(CLERKS, "nClerksNG(s(s(z)))", depth, mode) == (NCLERKS_NG_2, True), mode
        assert totals(CLERKS, "nClerksNG(s(s(z)))", depth - 1, mode)[1] is False, mode


def test_n_clerks_lists_two_distinct_clerks_in_either_order():
    assert len(TWO_DISTINCT_CLERKS) == 12
    assert totals(CLERKS, "nClerks(s(s(z)))", None) == (TWO_DISTINCT_CLERKS, True)


def test_pure_alpha_escape_how_pairs_every_guardian_with_every_message():
    assert len(ESCAPE_HOW_ALPHA) == 33 and ESCAPE_HOW < ESCAPE_HOW_ALPHA
    assert totals(DUNGEON, "escapeHow", None, ALPHA) == (ESCAPE_HOW_ALPHA, True)


def test_combined_beta_escape_how_is_the_papers_nine_answers_proven_at_depth_19():
    assert totals(DUNGEON, "escapeHow", 19, COMBINED_BETA) == (ESCAPE_HOW, True)
    assert totals(DUNGEON, "escapeHow", 18, COMBINED_BETA) == (ESCAPE_HOW, False)


def test_pure_beta_escape_how_gives_pure_alphas_answers_proven_at_depth_36():
    # every plural argument here binds one variable, where beta passes
    # alpha's chain
    assert totals(DUNGEON, "escapeHow", 36, BETA) == (ESCAPE_HOW_ALPHA, True)
    assert totals(DUNGEON, "escapeHow", 35, BETA) == (ESCAPE_HOW_ALPHA, False)


def test_combined_beta_n_clerks_lists_two_distinct_clerks():
    assert totals(CLERKS, "nClerks(s(s(z)))", None, COMBINED_BETA) == (TWO_DISTINCT_CLERKS, True)


def rewrite(path, semantics, query, engine=None):
    """The results of a REPL eval by rewriting, its `stats` reply, and the
    first and last lines of `show path` after the last result. The memo
    holds a frozen node only at the depth it froze from (sweep), so the
    memo entries count the nodes computed, not the nodes reached."""
    s = Session()
    s.execute("load " + path)
    s.execute("semantics " + semantics)
    if engine is not None:
        s.execute("engine " + engine)
    results, lines = [], s.execute("eval " + query)
    while lines[0].startswith("Result: "):
        results.append(lines[0][len("Result: "):])
        lines = s.execute("more")
    stats = s.execute("stats")
    if not results:
        return results, stats, None
    path = s.execute("show path")
    assert path[-1].startswith("-> %s   [" % results[-1])
    return results, stats, (path[0], path[-1])


def test_pst_escape_how_at_depth_6_finds_only_ulysses():
    assert rewrite("programs/dungeon.plural", "combined-alpha", "depth = 6 escapeHow",
                   "rewrite-via-pST") == (
        ["p(ulysses,trojan-gold)"],
        ["depth bound 6 reached; more may exist", "memo entries: 155"],
        ("escapeHow", "-> p(ulysses,trojan-gold)   [rule 16 at root]"),
    )


def test_run_time_escape_how_and_n_clerks_at_their_depth_bounds():
    assert rewrite("programs/dungeon.plural", "run-time", "depth = 6 escapeHow") == (
        ["p(ulysses,trojan-gold)"],
        ["depth bound 6 reached; more may exist", "memo entries: 130"],
        ("escapeHow", "-> p(ulysses,trojan-gold)   [rule 12 at root]"),
    )
    assert rewrite("programs/clerks.plural", "run-time", "depth = 8 nClerks(s(s(z)))") == (
        [],
        ["depth bound 8 reached; more may exist", "memo entries: 161"],
        None,
    )


def test_the_repl_reaches_every_pure_alpha_answer_of_pst_escape_how():
    results, stats, path = rewrite("programs/dungeon.plural", "combined-alpha",
                                   "depth = 40 escapeHow", "rewrite-via-pST")
    assert len(results) == len(ESCAPE_HOW_ALPHA) and set(results) == ESCAPE_HOW_ALPHA
    assert stats == ["depth bound 40 reached; more may exist", "memo entries: 26579"]
    assert path == ("escapeHow", "-> p(polyphemus,key)   [rule 6 at 2]")


def test_the_repl_proves_every_run_time_two_list_of_clerks():
    results, stats, path = rewrite("programs/clerks.plural", "run-time",
                                   "depth = inf nClerks(s(s(z)))")
    want = {"cons(%s,cons(%s,nil))" % pair for pair in product(CLERK_NAMES, repeat=2)}
    assert len(results) == 16 and set(results) == want
    assert stats == ["proven complete at depth 13", "memo entries: 174"]
    assert path == ("nClerks(s(s(z)))", "-> cons(pepe,cons(pepe,nil))   [rule 43 at 2.2]")


def need(program, query, depth):
    """The run-time totals of a query by call-by-need enumeration, and
    whether they are proven complete."""
    expr = parse_expression(query, program.signature)
    stream = DenotationStream(NeedEnumerator(program), expr, depth)
    return {format_term(t) for t in stream}, stream.complete


def test_pst_optimized_escape_how_reaches_every_pure_alpha_answer():
    # the walk finds only ulysses' pair within 8 steps; call-by-need has
    # all 33 at depth 27, unproven, as discoverHow's argument keeps growing
    assert need(pst_optimized(DUNGEON).output, "escapeHow", 40) == (ESCAPE_HOW_ALPHA, False)


def test_run_time_escape_how_never_combines_two_different_items():
    # ask(aeolus, item(M)) rewrites its message to a single item, so M is
    # one constant and combine(M, M) repeats it: run-time choice never
    # builds combine(treasure-map,chest-code), nor polyphemus' key, and
    # reaches 21 of the 33 pure alpha-plural answers. Each discoverHow
    # unfolding nests a larger unevaluated argument, so nothing repeats
    # for a fixpoint proof.
    mixed = ("combine(treasure-map,chest-code)", "combine(chest-code,treasure-map)", "key")
    missing = {"p(%s,%s)" % (g, m)
               for g in ("circe", "calypso", "aeolus", "polyphemus") for m in mixed}
    assert need(DUNGEON, "escapeHow", 40) == (ESCAPE_HOW_ALPHA - missing, False)


def test_run_time_twoclerks_proves_each_clerk_paired_with_themself():
    assert need(CLERKS, "twoclerks", None) == ({"p(%s,%s)" % (c, c) for c in CLERK_NAMES}, True)


def test_run_time_n_clerks_proves_every_two_list_of_clerks():
    # run-time choice copies the clerk before diffL compares it, so a list
    # may repeat a clerk
    want = {"cons(%s,cons(%s,nil))" % pair for pair in product(CLERK_NAMES, repeat=2)}
    assert need(CLERKS, "nClerks(s(s(z)))", None) == (want, True)
