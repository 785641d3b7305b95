"""Concrete syntax: lexing, parsing, validation and printing.

Programs look like

    plural CLERKS is
      find is plural .
      find(e(N, G, clerk)) -> p(N, N) .
    endp

Statements are rewrite rules ``lhs -> rhs .`` and plurality annotations
``f is singular .`` / ``f is plural .`` / ``f is sp .`` (one character per
argument). Identifiers are alphanumeric with interior hyphens; an
uppercase first letter makes a variable. `?` is infix right-associative,
`if E then E` is mixfix sugar for the binary function if_then, and the
undefined value is written `bot` (or `_|_`) on input and `_|_` on output.
Expressions follow

    expr := 'if' expr 'then' expr | atom ('?' atom)*
    atom := '(' expr ')' | 'bot' | ident | ident '(' ')'
          | ident '(' expr (',' expr)* ')'

The lexer is one regular-expression scan to a list of token kinds, which
the parser indexes: punctuation and keywords are their own kind. Tokens
carry no position; a `ParseError` finds its token's line and column by
scanning again, so positions cost nothing unless the input is rejected.

Symbols are classified by use: rule roots are functions, everything else
applied is a constructor. The two rules for `?` and the one for `if_then`
are part of every program and are appended after the user rules.
"""

from __future__ import annotations

import re
from itertools import repeat
from typing import List, Sequence, Tuple

from .terms import (
    BOT,
    Signature,
    SignatureError,
    Term,
    app,
    is_linear,
    var,
)

SG, PL = "sg", "pl"


class ParseError(ValueError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__("%d:%d: %s" % (line, col, message))
        self.line = line
        self.col = col


class ProgramError(ValueError):
    """Validation failure; carries every diagnostic found, not just the first."""

    def __init__(self, diagnostics: Sequence[str]):
        super().__init__("; ".join(diagnostics))
        self.diagnostics = list(diagnostics)


# A match starts at its token and takes the whitespace after it, so a
# search skips leading whitespace in linear time. A character no token
# starts with matches alone and leaves the group empty.
_TOKEN_RE = re.compile(r"(?:([A-Za-z0-9]+(?:-[A-Za-z0-9]+)*|->|_\|_|[().,?=])|\S)\s*")

# kind of every token text that is not an identifier; "" closes the input
_KINDS = {t: t for t in ("plural", "is", "endp", "if", "then", "singular", "bot",
                         "(", ")", ".", ",", "?", "=")}
_KINDS.update({"->": "arrow", "_|_": "bot", "": "eof"})


def lex(text: str) -> Tuple[List[str], List[str]]:
    """The kinds and texts of the tokens of `text`, each list closed by an
    end-of-input entry (kind "eof", text "")."""
    texts = _TOKEN_RE.findall(text)
    if "" in texts:
        start = _token_start(text, texts.index(""))
        raise ParseError("unexpected character %r" % text[start], *_line_col(text, start))
    texts.append("")
    return list(map(_KINDS.get, texts, repeat("ident"))), texts


def _token_start(text: str, index: int) -> int:
    for n, m in enumerate(_TOKEN_RE.finditer(text)):
        if n == index:
            return m.start()
    return len(text)


def _line_col(text: str, offset: int) -> Tuple[int, int]:
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


class _Parser:
    """Recursive descent over the token kinds; `i` indexes the next token."""

    def __init__(self, text: str):
        self.text = text
        self.kinds, self.texts = lex(text)
        self.i = 0

    def error(self, message: str) -> ParseError:
        return ParseError(message, *_line_col(self.text, _token_start(self.text, self.i)))

    def expect(self, kind: str) -> str:
        i = self.i
        if self.kinds[i] != kind:
            found = "bot" if self.kinds[i] == "bot" else self.texts[i] or "end of input"
            raise self.error("expected %r, found %r" % (kind, found))
        self.i = i + 1
        return self.texts[i]

    def expr(self) -> Term:
        kinds = self.kinds
        if kinds[self.i] == "if":
            self.i += 1
            cond = self.expr()
            self.expect("then")
            return app("if_then", (cond, self.expr()))
        t = self.atom()
        if kinds[self.i] != "?":
            return t
        alternatives = [t]
        while kinds[self.i] == "?":
            self.i += 1
            alternatives.append(self.atom())
        t = alternatives.pop()
        while alternatives:
            t = app("?", (alternatives.pop(), t))
        return t

    def atom(self) -> Term:
        kinds = self.kinds
        i = self.i
        kind = kinds[i]
        if kind == "ident":
            name = self.texts[i]
            if kinds[i + 1] != "(":
                self.i = i + 1
                return var(name) if name[0].isupper() else app(name)
            if name[0].isupper():
                raise self.error("variable %s cannot take arguments" % name)
            if kinds[i + 2] == ")":  # nullary application written f()
                self.i = i + 3
                return app(name)
            self.i = i + 2
            args = [self.expr()]
            while kinds[self.i] == ",":
                self.i += 1
                args.append(self.expr())
            self.expect(")")
            return app(name, tuple(args))
        if kind == "(":
            self.i = i + 1
            inner = self.expr()
            self.expect(")")
            return inner
        if kind == "bot":
            self.i = i + 1
            return BOT
        raise self.error("expected an expression")


class Rule:
    __slots__ = ("lhs", "rhs")

    def __init__(self, lhs: Term, rhs: Term):
        self.lhs = lhs
        self.rhs = rhs

    @property
    def name(self) -> str:
        return self.lhs.name

    @property
    def args(self) -> Tuple[Term, ...]:
        return self.lhs.children

    def __repr__(self):
        return "<rule %s>" % format_rule(self)


BUILTIN_RULES: Tuple[Rule, ...] = (
    Rule(app("?", (var("X"), var("Y"))), var("X")),
    Rule(app("?", (var("X"), var("Y"))), var("Y")),
    Rule(app("if_then", (app("tt"), var("E"))), var("E")),
)


class Program:
    """A validated program: user rules, inferred signature, plurality map.

    `rules` holds the user rules in source order; `all_rules` appends the
    built-in rules for `?` and `if_then`; `rules_by_root[f]` holds f's
    (index into all_rules, rule) pairs in that order. `plurality[f]` is a
    tuple over {"sg","pl"}, one entry per argument, default all-singular.
    """

    __slots__ = ("name", "signature", "rules", "all_rules", "rules_by_root", "plurality")

    def __init__(self, name: str, signature: Signature, rules: Sequence[Rule], plurality: dict):
        self.name = name
        self.signature = signature
        self.rules = tuple(rules)
        self.all_rules = self.rules + BUILTIN_RULES
        self.plurality = dict(plurality)
        by_name: dict = {}
        for i, r in enumerate(self.all_rules):
            by_name.setdefault(r.name, []).append((i, r))
        self.rules_by_root = {k: tuple(v) for k, v in by_name.items()}

    def plurality_of(self, fname: str) -> Tuple[str, ...]:
        got = self.plurality.get(fname)
        if got is not None:
            return got
        return (SG,) * (self.signature.functions.get(fname) or 0)

    def __repr__(self):
        return "<program %s: %d rules>" % (self.name, len(self.rules))


def _collect_arities(t: Term, seen: dict, diagnostics: List[str]) -> None:
    if t.kind != 2:
        return
    prior = seen.get(t.name)
    if prior is None:
        seen[t.name] = len(t.children)
    elif prior != len(t.children):
        diagnostics.append(
            "arity clash for %s: used with %d and %d arguments"
            % (t.name, prior, len(t.children))
        )
    for c in t.children:
        _collect_arities(c, seen, diagnostics)


def assemble_program(
    name: str,
    raw_rules: Sequence[Tuple[Term, Term]],
    annotations: Sequence[Tuple[str, str]] = (),
) -> Program:
    """Validate raw (lhs, rhs) pairs and annotations into a Program.

    Annotation values may be "singular", "plural" or an s/p string. Raises
    ProgramError with the full diagnostic list on any violation.
    """
    diagnostics: List[str] = []
    arities: dict = {}
    for lhs, rhs in raw_rules:
        _collect_arities(lhs, arities, diagnostics)
        _collect_arities(rhs, arities, diagnostics)

    functions = {"?": 2, "if_then": 2}
    for lhs, _ in raw_rules:
        if lhs.kind != 2:
            diagnostics.append("left-hand side %r is not a function application" % lhs)
            continue
        if lhs.name in ("?", "if_then"):
            diagnostics.append("cannot redefine built-in %s" % lhs.name)
            continue
        functions[lhs.name] = arities.get(lhs.name, len(lhs.children))

    constructors = {n: a for n, a in arities.items() if n not in functions}
    try:
        signature = Signature(constructors=constructors, functions=functions)
    except SignatureError as exc:
        diagnostics.append(str(exc))
        raise ProgramError(diagnostics)

    rules: List[Rule] = []
    for lhs, rhs in raw_rules:
        if lhs.kind != 2 or lhs.name in ("?", "if_then"):
            continue
        head = "rule for %s" % lhs.name
        if not is_linear(lhs.children):
            diagnostics.append("%s: non-linear left-hand side %s" % (head, format_term(lhs)))
        for arg in lhs.children:
            if not (arg.total and signature.is_cterm(arg)):
                diagnostics.append(
                    "%s: left-hand side argument %s is not a total c-term"
                    % (head, format_term(arg))
                )
        if not rhs.total:
            diagnostics.append("%s: right-hand side contains %s" % (head, format_term(BOT)))
        extra = rhs.varset - lhs.varset
        if extra:
            diagnostics.append(
                "%s: extra variable%s %s in right-hand side"
                % (head, "s" if len(extra) > 1 else "", ", ".join(sorted(extra)))
            )
        rules.append(Rule(lhs, rhs))

    plurality: dict = {"?": (SG, SG), "if_then": (SG, SG)}
    for fname, spec in annotations:
        arity = functions.get(fname)
        if fname in ("?", "if_then"):
            diagnostics.append("cannot annotate built-in %s" % fname)
            continue
        if arity is None:
            diagnostics.append("plurality annotation for %s, which has no rules" % fname)
            continue
        if spec == "singular":
            tags: Tuple[str, ...] = (SG,) * arity
        elif spec == "plural":
            tags = (PL,) * arity
        elif not re.fullmatch(r"[sp]+", spec):
            diagnostics.append("bad plurality annotation %r for %s" % (spec, fname))
            continue
        elif len(spec) != arity:
            diagnostics.append(
                "plurality annotation %r for %s has %d positions, %s takes %d arguments"
                % (spec, fname, len(spec), fname, arity)
            )
            continue
        else:
            tags = tuple(SG if ch == "s" else PL for ch in spec)
        if fname in plurality and plurality[fname] != tags:
            diagnostics.append("conflicting plurality annotations for %s" % fname)
            continue
        plurality[fname] = tags

    if diagnostics:
        raise ProgramError(diagnostics)
    return Program(name, signature, rules, plurality)


def parse_program(text: str) -> Program:
    p = _Parser(text)
    kinds, texts = p.kinds, p.texts
    p.expect("plural")
    name = p.expect("ident")
    p.expect("is")
    raw_rules: List[Tuple[Term, Term]] = []
    annotations: List[Tuple[str, str]] = []
    while kinds[p.i] != "endp":
        i = p.i
        if kinds[i] == "eof":
            raise p.error("missing endp")
        if kinds[i] == "ident" and kinds[i + 1] == "is":
            p.i = i + 2
            if kinds[i + 2] not in ("singular", "plural", "ident"):
                raise p.error("expected singular, plural, or an s/p string")
            annotations.append((texts[i], texts[i + 2]))
            p.i = i + 3
            p.expect(".")
            continue
        lhs = p.expr()
        p.expect("arrow")
        rhs = p.expr()
        p.expect(".")
        raw_rules.append((lhs, rhs))
    p.i += 1
    if kinds[p.i] != "eof":
        raise p.error("trailing input after endp")
    return assemble_program(name, raw_rules, annotations)


def parse_expression(text: str, sig: Signature) -> Term:
    """Parse a query expression against a program signature.

    Unknown symbols applied to arguments are errors; unknown bare
    lowercase identifiers are registered as fresh constants so queries can
    mention ad-hoc atoms (seeds, probe values), once the whole expression
    has resolved: a rejected query leaves the signature as it was.
    """
    p = _Parser(text)
    t = p.expr()
    if p.kinds[p.i] != "eof":
        raise p.error("trailing input after expression")
    fresh: List[str] = []
    _resolve(t, sig, fresh)
    for name in fresh:
        sig.ensure_constant(name)
    return t


def _resolve(t: Term, sig: Signature, fresh: List[str]) -> None:
    if t.kind != 2:
        return
    arity = sig.arity(t.name)
    if arity is None:
        if t.children:
            raise ProgramError(["unknown symbol %s" % t.name])
        fresh.append(t.name)
    elif arity != len(t.children):
        raise ProgramError(
            ["%s takes %d argument%s, given %d"
             % (t.name, arity, "" if arity == 1 else "s", len(t.children))]
        )
    for c in t.children:
        _resolve(c, sig, fresh)


# printing: level 0 admits if_then, level 1 admits ?, level 2 only atoms

def format_term(t: Term) -> str:
    return _fmt(t, 0)


def _fmt(t: Term, level: int) -> str:
    if t is BOT:
        return "_|_"
    if t.kind == 1:
        return t.name
    if t.name == "if_then" and len(t.children) == 2:
        s = "if %s then %s" % (_fmt(t.children[0], 0), _fmt(t.children[1], 0))
        return s if level == 0 else "(%s)" % s
    if t.name == "?" and len(t.children) == 2:
        s = "%s ? %s" % (_fmt(t.children[0], 2), _fmt(t.children[1], 1))
        return s if level <= 1 else "(%s)" % s
    if not t.children:
        return t.name
    return "%s(%s)" % (t.name, ",".join(_fmt(c, 0) for c in t.children))


def format_rule(r: Rule) -> str:
    return "%s -> %s ." % (format_term(r.lhs), format_term(r.rhs))


def format_program(p: Program) -> str:
    lines = ["plural %s is" % p.name]
    for fname in sorted(p.plurality):
        if fname in ("?", "if_then"):
            continue
        tags = p.plurality[fname]
        if all(t == SG for t in tags):
            continue
        if all(t == PL for t in tags) and tags:
            lines.append("  %s is plural ." % fname)
        else:
            lines.append("  %s is %s ." % (fname, "".join("s" if t == SG else "p" for t in tags)))
    for r in p.rules:
        lines.append("  %s" % format_rule(r))
    lines.append("endp")
    return "\n".join(lines)
