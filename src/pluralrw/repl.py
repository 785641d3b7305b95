"""Interactive interpreter and batch command runner.

Commands are accepted bare (`eval twoclerks .`) or in the parenthesized
form `(eval twoclerks .)`; the trailing dot is optional either way.

  load PATH                 parse, validate and introduce a module
  eval [depth = N] EXPR     start a value stream, print the first result
  more                      print the next result of the active stream
  semantics NAME            call-time | run-time | alpha-plural |
                            beta-plural | combined-alpha | combined-beta
  engine NAME               calculi | rewrite-via-pST
  depth N                   default ceiling (a number, or inf): nested
                            function unfoldings, for every engine
  path on | path off        print a derivation after each result
  show path                 print a derivation of the last result,
                            rebuilt from its eval's memo
  stats                     how complete the last eval is, and what it cost
  showTr                    print the transformed (match/proj) program
  reboot                    forget the module and restore every default
  help                      this summary
  quit                      leave the interpreter

Evaluation is driven by the active semantics and engine: the calculi
engine enumerates denotations directly, `engine rewrite-via-pST` rewrites
the transformed program instead (faithful for alpha-plural; for
beta-plural only on programs the load banner approves), and `semantics
run-time` always means plain rewriting of the loaded rules. The `engine`
and `semantics` replies say so when the pST engine is selected under a
semantics other than those two; results and paths never do. Both kinds
of rewriting are answered by call-by-need enumeration of the reachable
total c-terms (rewriting.NeedEnumerator), driven by the same
DenotationStream as the calculi, so `stats` reads alike for every engine;
a rewrite path is rebuilt from that enumerator's memo.
"""

import argparse
import gc
import re
import sys
from typing import Iterator, List, Optional

from .calculi import (
    ALPHA,
    COMBINED_ALPHA,
    MODES,
    DenotationStream,
    enumerate_values,
)
from .rewriting import NeedEnumerator, RewriteStep
# one_step is bound here for perfbench/layers.py, which traces it by module
from .rewriting import one_step  # noqa: F401
from .syntax import (
    ParseError,
    Program,
    ProgramError,
    format_program,
    format_rule,
    format_term,
    parse_expression,
    parse_program,
)
from .terms import Term
from .transform import is_class_cab, pst

RUN_TIME = "run-time"
ENGINE_CALCULI = "calculi"
ENGINE_PST = "rewrite-via-pST"

DEFAULT_DEPTH = 12

PROMPT = "pluralrw> "

BANNER_OK = "Both alpha and beta plural semantics supported for this program."

PST_NOTICE = ("Note: engine %s computes alpha-plural rewriting of the pST output; "
              "under semantics %s its results can differ from the calculi's.")

_UNSET = object()

_DEPTH_CLAUSE = re.compile(r"^depth\s*=\s*(\d+|inf)\s+(.+)$", re.DOTALL)


class CommandError(Exception):
    pass


def reachable(program: Program, expr: Term, depth: Optional[int]) -> DenotationStream:
    """The total c-terms rewriting reaches from expr within the depth
    bound (None for none), by call-by-need enumeration."""
    return DenotationStream(NeedEnumerator(program), expr, depth, totals_only=True)


def _find_path(enum: NeedEnumerator, start: Term, target: Term,
               depth: int) -> List[RewriteStep]:
    """A rewrite derivation of target from start, rebuilt from the
    enumerator's memo at the least depth up to `depth` whose set holds
    target. Raises ValueError when none does."""
    for least in range(depth + 1):
        if target in enum.values(start, least):
            return enum.build_path(start, least, target)
    raise ValueError("%s is not a value of %s at depth %d or below" % (
        format_term(target), format_term(start), depth))


class Session:
    """One interpreter state: the loaded module, the active semantics,
    engine and depth, and the live result stream."""

    def __init__(self):
        self._reset()

    def _reset(self):
        self.program: Optional[Program] = None
        self.semantics = COMBINED_ALPHA
        self.engine = ENGINE_CALCULI
        self.depth = _UNSET
        self.path_on = False
        self.finished = False
        self._stream: Optional[Iterator[Term]] = None
        self._search: Optional[DenotationStream] = None  # the stream behind it
        self._drained = False
        self._last_result: Optional[Term] = None
        self._pst_cache: Optional[Program] = None

    # ---- command dispatch ----

    def execute(self, line: str) -> List[str]:
        """Run one command line, returning the lines it prints."""
        text = line.strip()
        if text.startswith("(") and text.endswith(")"):
            text = text[1:-1].strip()
        if text.endswith("."):
            text = text[:-1].rstrip()
        if not text:
            return []
        head, _, rest = text.partition(" ")
        rest = rest.strip()
        handler = {
            "load": self._cmd_load,
            "eval": self._cmd_eval,
            "more": self._cmd_more,
            "semantics": self._cmd_semantics,
            "engine": self._cmd_engine,
            "depth": self._cmd_depth,
            "path": self._cmd_path,
            "show": self._cmd_show,
            "showTr": self._cmd_show_tr,
            "stats": self._cmd_stats,
            "reboot": self._cmd_reboot,
            "help": self._cmd_help,
            "quit": self._cmd_quit,
            "exit": self._cmd_quit,
        }.get(head)
        if handler is None:
            raise CommandError("unknown command %r (try help)" % head)
        try:
            return handler(rest)
        except RecursionError:
            self.drop_stream()
            raise CommandError("input nested too deeply for the interpreter's recursion limit") from None

    def drop_stream(self):
        """Forget the active eval, whose stream may be left half advanced;
        `show path` still reads its search."""
        self._stream = None

    def _require_program(self) -> Program:
        if self.program is None:
            raise CommandError("no module loaded")
        return self.program

    def _no_args(self, rest: str, name: str):
        if rest:
            raise CommandError("%s takes no arguments" % name)

    # ---- module handling ----

    def _cmd_load(self, rest: str) -> List[str]:
        if not rest:
            raise CommandError("load needs a file path")
        try:
            with open(rest, encoding="utf-8") as f:
                text = f.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise CommandError("cannot read %s: %s" % (rest, exc))
        try:
            program = parse_program(text)
        except (ParseError, ProgramError) as exc:
            raise CommandError("module rejected: %s" % exc)
        self.program = program
        self.drop_stream()
        self._search = None
        self._last_result = None
        self._pst_cache = None
        lines = ["Module introduced."]
        ok, violations = is_class_cab(program, respect_plurality=True)
        if ok:
            lines.append(BANNER_OK)
        else:
            rule, arg, shared = violations[0]
            lines.append(
                "Alpha and beta plural semantics may differ here: rule %s "
                "passes %d variables through plural argument %d."
                % (format_rule(rule), len(shared), arg)
            )
        # what a load builds lives as long as the session: move every live
        # object to the oldest generation, scanning none, so that young
        # collections during queries do not walk it (freeze alone would
        # hide it from gc.get_objects and never collect its cycles)
        gc.freeze()
        gc.unfreeze()
        return lines

    def _pst_program(self) -> Program:
        if self._pst_cache is None:
            self._pst_cache = pst(self._require_program()).output
        return self._pst_cache

    # ---- evaluation ----

    def _rewrite_active(self) -> bool:
        return self.semantics == RUN_TIME or self.engine == ENGINE_PST

    def _current_depth(self):
        return DEFAULT_DEPTH if self.depth is _UNSET else self.depth

    def _cmd_eval(self, rest: str) -> List[str]:
        program = self._require_program()
        if not rest:
            raise CommandError("eval needs an expression")
        depth = _UNSET
        clause = _DEPTH_CLAUSE.match(rest)
        if clause is not None:
            word = clause.group(1)
            depth = None if word == "inf" else int(word)
            rest = clause.group(2).strip()
        try:
            expr = parse_expression(rest, program.signature)
        except (ParseError, ProgramError) as exc:
            raise CommandError("bad expression: %s" % exc)
        if depth is _UNSET:
            depth = self._current_depth()
        if self._rewrite_active():
            if not expr.total:
                raise CommandError("rewriting needs a total expression, without bot")
            target = program if self.semantics == RUN_TIME else self._pst_program()
            self._search = self._stream = reachable(target, expr, depth)
        else:
            self._search = self._stream = enumerate_values(
                program, self.semantics, expr, depth, totals_only=True)
        self._drained = False
        self._last_result = None
        return self._next_result("No solution.")

    def _cmd_more(self, rest: str) -> List[str]:
        self._no_args(rest, "more")
        if self._stream is None:
            raise CommandError("no active eval to continue")
        return self._next_result("No more solutions.")

    def _next_result(self, empty_message: str) -> List[str]:
        assert self._stream is not None
        try:
            value = next(self._stream)
        except StopIteration:
            self._drained = True
            return [empty_message]
        self._last_result = value
        lines = ["Result: %s" % format_term(value)]
        if self.path_on:
            lines.extend(self._path_lines())
        return lines

    # ---- derivations ----

    def _path_lines(self) -> List[str]:
        # read from the search that yielded the last result
        search, value = self._search, self._last_result
        if value is None:
            raise CommandError("no result to show a path for")
        if not isinstance(search.enum, NeedEnumerator):
            return search.derivation(value).render().splitlines()
        lines = [format_term(search.expr)]
        for step in _find_path(search.enum, search.expr, value, search.swept):
            where = ".".join(str(i) for i in step.position) or "root"
            lines.append(
                "-> %s   [rule %d at %s]"
                % (format_term(step.result), step.rule_index, where)
            )
        return lines

    def _cmd_show(self, rest: str) -> List[str]:
        if rest != "path":
            raise CommandError("unknown command %r (try help)" % ("show " + rest).strip())
        return self._path_lines()

    def _cmd_stats(self, rest: str) -> List[str]:
        self._no_args(rest, "stats")
        if self._stream is None:
            raise CommandError("no eval to report on")
        search = self._search
        if search.complete:
            state = "proven complete at depth %d" % search.swept
        elif self._drained:
            state = "depth bound %d reached; more may exist" % search.depth
        else:
            state = "depth %d swept so far; more may follow" % search.swept
        return [state, "memo entries: %d" % search.enum.memo_entries]

    def _cmd_show_tr(self, rest: str) -> List[str]:
        self._no_args(rest, "showTr")
        return format_program(self._pst_program()).splitlines()

    # ---- settings ----

    def _cmd_semantics(self, rest: str) -> List[str]:
        if rest not in MODES and rest != RUN_TIME:
            raise CommandError(
                "unknown semantics %r (one of %s)"
                % (rest, ", ".join(MODES + (RUN_TIME,)))
            )
        self.semantics = rest
        return self._pst_notice()

    def _cmd_engine(self, rest: str) -> List[str]:
        if rest == ENGINE_CALCULI:
            self.engine = ENGINE_CALCULI
        elif rest.lower() == ENGINE_PST.lower():
            self.engine = ENGINE_PST
        else:
            raise CommandError(
                "unknown engine %r (one of %s, %s)" % (rest, ENGINE_CALCULI, ENGINE_PST)
            )
        return self._pst_notice()

    def _pst_notice(self) -> List[str]:
        # pST is faithful to alpha-plural, and run-time means plain
        # rewriting of the loaded rules whatever the engine
        if self.engine == ENGINE_PST and self.semantics not in (ALPHA, RUN_TIME):
            return [PST_NOTICE % (ENGINE_PST, self.semantics)]
        return []

    def _cmd_depth(self, rest: str) -> List[str]:
        if rest == "inf":
            self.depth = None
        # isdecimal, not isdigit: int() refuses superscript digits
        elif rest.isdecimal():
            self.depth = int(rest)
        else:
            raise CommandError("depth needs a non-negative number or inf")
        return []

    def _cmd_path(self, rest: str) -> List[str]:
        if rest == "on":
            self.path_on = True
        elif rest == "off":
            self.path_on = False
        else:
            raise CommandError("path needs on or off")
        return []

    def _cmd_reboot(self, rest: str) -> List[str]:
        self._no_args(rest, "reboot")
        self._reset()
        return []

    def _cmd_help(self, rest: str) -> List[str]:
        self._no_args(rest, "help")
        return __doc__.strip().splitlines()

    def _cmd_quit(self, rest: str) -> List[str]:
        self._no_args(rest, "quit")
        self.finished = True
        return []


def _run_script(session: Session, path: str) -> int:
    try:
        with open(path, encoding="utf-8") as f:
            text = f.read()
    except (OSError, UnicodeDecodeError) as exc:
        print("Error: cannot read %s: %s" % (path, exc), file=sys.stderr)
        return 1
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            for out in session.execute(line):
                print(out)
        except CommandError as exc:
            print("Error: %s" % exc, file=sys.stderr)
            return 1
        if session.finished:
            break
    return 0


def _interact(session: Session) -> int:
    while not session.finished:
        try:
            line = input(PROMPT)
            for out in session.execute(line):
                print(out)
        except EOFError:
            print()
            break
        except CommandError as exc:
            print("Error: %s" % exc)
        except KeyboardInterrupt:
            session.drop_stream()
            print("\nInterrupted.")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="pluralrw",
        description="Interpreter for left-linear constructor rewrite systems "
        "under singular, plural and combined semantics.",
    )
    parser.add_argument("--run", metavar="SCRIPT",
                        help="execute commands from a file and exit")
    parser.add_argument("--semantics", choices=MODES + (RUN_TIME,))
    parser.add_argument("--engine", choices=(ENGINE_CALCULI, ENGINE_PST))
    parser.add_argument("--depth", help="default depth ceiling (number or inf)")
    args = parser.parse_args(argv)

    session = Session()
    try:
        if args.semantics:
            session.execute("semantics " + args.semantics)
        if args.engine:
            for out in session.execute("engine " + args.engine):
                print(out)
        if args.depth:
            session.execute("depth " + args.depth)
    except CommandError as exc:
        print("Error: %s" % exc, file=sys.stderr)
        return 2

    if args.run:
        return _run_script(session, args.run)
    return _interact(session)


if __name__ == "__main__":
    sys.exit(main())
