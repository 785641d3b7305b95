"""Golden answers for the paper's two example programs under combined
alpha-plural semantics, the REPL's default."""

from itertools import permutations

from pluralrw.calculi import COMBINED_ALPHA, EnumConfig, enumerate_values
from pluralrw.syntax import format_term, parse_expression, parse_program


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

CLERK_NAMES = ("pepe", "maria", "laura", "david")


def totals(program, query, depth):
    stream = enumerate_values(
        program,
        COMBINED_ALPHA,
        parse_expression(query, program.signature),
        EnumConfig(depth=depth, totals_only=True),
    )
    return {format_term(t) for t in stream}, stream.complete


def test_escape_how_is_the_papers_nine_answers_proven_at_depth_26():
    # a bound of 26 lets the stream prove its fixpoint, 25 does not
    assert totals(DUNGEON, "escapeHow", 26) == (ESCAPE_HOW, True)
    assert totals(DUNGEON, "escapeHow", 25) == (ESCAPE_HOW, False)


def test_n_clerks_lists_two_distinct_clerks_in_either_order():
    want = {"cons(%s,cons(%s,nil))" % pair for pair in permutations(CLERK_NAMES, 2)}
    assert len(want) == 12
    assert totals(CLERKS, "nClerks(s(s(z)))", None) == (want, True)
