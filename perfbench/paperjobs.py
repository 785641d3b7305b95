"""Reference answers for the paper's programs and the two paper job lists.

The answers are written out by hand from the programs in programs/ and
from arXiv 1203.2431, not recorded from a run. Each job names how its
answers must relate to its reference set:

  equal     a proven fixpoint or an uncut search: the exact set
  contains  the set must hold at least the reference
  within    a bounded or cut search: a subset of the reference
"""

from itertools import permutations, product

CLERKS = (("pepe", "men"), ("maria", "women"), ("laura", "women"), ("david", "men"))
NAMES = tuple(n for n, _ in CLERKS)


def cons_list(items):
    out = "nil"
    for item in reversed(items):
        out = "cons(%s,%s)" % (item, out)
    return out


# the paper's nine ways out of the dungeon under combined alpha-plural
ESCAPE_HOW = frozenset((
    "p(ulysses,trojan-gold)",
    "p(circe,sirens-secret)",
    "p(circe,item(treasure-map))",
    "p(calypso,item(chest-code))",
    "p(aeolus,combine(treasure-map,treasure-map))",
    "p(aeolus,combine(treasure-map,chest-code))",
    "p(aeolus,combine(chest-code,treasure-map))",
    "p(aeolus,combine(chest-code,chest-code))",
    "p(polyphemus,key)",
))

# pure alpha-plural ignores `ask is sp`, so the guardian in askWho's
# pair is decoupled from the one asked: every guardian pairs with every
# message. Run-time choice and rewriting the pST program stay inside it.
_MESSAGES = (
    ("sirens-secret", "item(treasure-map)", "item(chest-code)", "key")
    + tuple("combine(%s,%s)" % ab for ab in product(("treasure-map", "chest-code"), repeat=2))
)
ESCAPE_HOW_ALPHA = frozenset(
    ("p(ulysses,trojan-gold)",)
    + tuple("p(%s,%s)" % gm for gm in product(
        ("circe", "calypso", "aeolus", "polyphemus"), _MESSAGES))
)

TWOCLERKS_SAME = frozenset("p(%s,%s)" % (c, c) for c in NAMES)
TWOCLERKS_ANY = frozenset("p(%s,%s)" % ab for ab in product(NAMES, repeat=2))

NCLERKS = {
    n: frozenset(cons_list(p) for p in permutations(NAMES, n)) for n in (2, 3)
}
# run-time choice copies the clerk before diffL compares it, so a list
# may repeat a clerk
NCLERKS_2_ANY = frozenset(cons_list(p) for p in product(NAMES, repeat=2))
NCLERKS_NG_2 = frozenset(
    cons_list(p) for p in permutations(("p(%s,%s)" % c for c in CLERKS), 2)
)

DUNGEON = "programs/dungeon.plural"
CLERKS_PROGRAM = "programs/clerks.plural"


class Job:
    """One REPL query run to the end of its stream. `show_path` adds a
    second op, `show path` on the query's last result."""

    __slots__ = ("program", "semantics", "engine", "query", "expect", "reference", "show_path")

    def __init__(self, program, semantics, engine, query, expect, reference, show_path=False):
        self.program = program
        self.semantics = semantics
        self.engine = engine
        self.query = query
        self.expect = expect
        self.reference = reference
        self.show_path = show_path

    @property
    def label(self):
        return "%s/%s %s" % (self.semantics, self.engine, self.query)

    def verdict(self, answers):
        """True when the answer set relates to the reference as promised."""
        if self.expect == "equal":
            return answers == self.reference
        if self.expect == "contains":
            return answers >= self.reference
        return answers <= self.reference


CA, CB = "combined-alpha", "combined-beta"
CALC, PST = "calculi", "rewrite-via-pST"
RT = "run-time"
INF = "depth = inf "

PAPER_DENOTE = (
    Job(DUNGEON, CA, CALC, INF + "escapeHow", "equal", ESCAPE_HOW),
    Job(DUNGEON, "alpha-plural", CALC, INF + "escapeHow", "contains", ESCAPE_HOW),
    # depth 10 takes four times as long as depth 9, depth 11 twenty times
    Job(DUNGEON, CB, CALC, "depth = 9 escapeHow", "within", ESCAPE_HOW),
    Job(CLERKS_PROGRAM, "call-time", CALC, INF + "twoclerks", "equal", TWOCLERKS_SAME),
) + tuple(
    Job(CLERKS_PROGRAM, m, CALC, INF + "twoclerks", "equal", TWOCLERKS_ANY)
    for m in ("alpha-plural", "beta-plural", CA, CB)
) + (
    Job(CLERKS_PROGRAM, "call-time", CALC, INF + "nClerks(s(s(z)))", "equal", frozenset()),
) + tuple(
    Job(CLERKS_PROGRAM, m, CALC, INF + q, "equal", NCLERKS[n])
    for m in (CA, CB)
    for q, n in (("nClerks(s(s(z)))", 2), ("nClerks(s(s(s(z))))", 3))
) + (
    Job(CLERKS_PROGRAM, CA, CALC, "depth = 16 nClerksNG(s(s(z)))", "within", NCLERKS_NG_2),
)

# rewrite bounds are cliffs (pST nClerks: 3 s at bound 6, 43 s at 7), so
# each one is pinned
PAPER_REWRITE = (
    Job(CLERKS_PROGRAM, CA, PST, INF + "twoclerks", "equal", TWOCLERKS_ANY, show_path=True),
    Job(DUNGEON, CA, PST, "depth = 6 escapeHow", "within", ESCAPE_HOW_ALPHA),
    Job(DUNGEON, RT, CALC, "depth = 6 escapeHow", "within", ESCAPE_HOW_ALPHA),
    # find matches an evaluated e(N,G,clerk), so both copies of N agree
    Job(CLERKS_PROGRAM, RT, CALC, INF + "twoclerks", "equal", TWOCLERKS_SAME),
    Job(CLERKS_PROGRAM, RT, CALC, "depth = 8 nClerks(s(s(z)))", "within", NCLERKS_2_ANY),
)
