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

Symbols are classified by use: rule roots are functions, everything else
applied is a constructor. The two rules for `?` and the one for `if_then`
are part of every program and are appended after the user rules.
"""

from __future__ import annotations

import re
from typing import List, Optional, Sequence, Tuple

from .terms import (
    BOT,
    Signature,
    SignatureError,
    Term,
    app,
    is_linear,
    var,
)

KEYWORDS = frozenset(("plural", "is", "endp", "if", "then", "singular", "bot"))

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


class Token:
    __slots__ = ("kind", "text", "line", "col")

    def __init__(self, kind: str, text: str, line: int, col: int):
        self.kind = kind
        self.text = text
        self.line = line
        self.col = col

    def __repr__(self):
        return "Token(%s, %r)" % (self.kind, self.text)


_TOKEN_RE = re.compile(
    r"""(?P<ws>\s+)
      | (?P<ident>[A-Za-z0-9]+(?:-[A-Za-z0-9]+)*)
      | (?P<arrow>->)
      | (?P<bottom>_\|_)
      | (?P<punct>[().,?=])
    """,
    re.VERBOSE,
)


def lex(text: str) -> List[Token]:
    tokens: List[Token] = []
    pos = 0
    line = 1
    bol = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError("unexpected character %r" % text[pos], line, pos - bol + 1)
        col = pos - bol + 1
        kind = m.lastgroup
        word = m.group()
        if kind == "ws":
            nl = word.count("\n")
            if nl:
                line += nl
                bol = pos + word.rindex("\n") + 1
        elif kind == "ident":
            if word in KEYWORDS:
                tokens.append(Token("kw", word, line, col))
            else:
                tokens.append(Token("ident", word, line, col))
        elif kind == "bottom":
            tokens.append(Token("kw", "bot", line, col))
        else:
            tokens.append(Token(kind, word, line, col))
        pos = m.end()
    tokens.append(Token("eof", "", line, pos - bol + 1))
    return tokens


class _Parser:
    def __init__(self, tokens: List[Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self, ahead: int = 0) -> Token:
        return self.tokens[min(self.pos + ahead, len(self.tokens) - 1)]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def error(self, message: str) -> "ParseError":
        tok = self.peek()
        return ParseError(message, tok.line, tok.col)

    def at(self, kind: str, text: Optional[str] = None) -> bool:
        tok = self.peek()
        return tok.kind == kind and (text is None or tok.text == text)

    def expect(self, kind: str, text: Optional[str] = None) -> Token:
        if not self.at(kind, text):
            want = text if text is not None else kind
            raise self.error("expected %r, found %r" % (want, self.peek().text or "end of input"))
        return self.advance()

    # expression grammar:
    #   expr := 'if' expr 'then' expr | disj
    #   disj := atom ('?' disj)?
    #   atom := '(' expr ')' | 'bot' | ident | ident '(' expr (',' expr)* ')'
    def expr(self) -> Term:
        if self.at("kw", "if"):
            self.advance()
            cond = self.expr()
            self.expect("kw", "then")
            return app("if_then", (cond, self.expr()))
        return self.disj()

    def disj(self) -> Term:
        left = self.atom()
        if self.at("punct", "?"):
            self.advance()
            return app("?", (left, self.disj()))
        return left

    def atom(self) -> Term:
        if self.at("kw", "bot"):
            self.advance()
            return BOT
        if self.at("punct", "("):
            self.advance()
            inner = self.expr()
            self.expect("punct", ")")
            return inner
        if self.at("ident"):
            tok = self.advance()
            if self.at("punct", "("):
                if tok.text[0].isupper():
                    raise ParseError(
                        "variable %s cannot take arguments" % tok.text, tok.line, tok.col
                    )
                self.advance()
                if self.at("punct", ")"):  # nullary application written f()
                    self.advance()
                    return app(tok.text)
                args = [self.expr()]
                while self.at("punct", ","):
                    self.advance()
                    args.append(self.expr())
                self.expect("punct", ")")
                return app(tok.text, tuple(args))
            if tok.text[0].isupper():
                return var(tok.text)
            return app(tok.text)
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
    p = _Parser(lex(text))
    p.expect("kw", "plural")
    name = p.expect("ident").text
    p.expect("kw", "is")
    raw_rules: List[Tuple[Term, Term]] = []
    annotations: List[Tuple[str, str]] = []
    while not p.at("kw", "endp"):
        if p.at("eof"):
            raise p.error("missing endp")
        if p.at("ident") and p.peek(1).kind == "kw" and p.peek(1).text == "is":
            fname = p.advance().text
            p.advance()
            if p.at("kw", "singular") or p.at("kw", "plural") or p.at("ident"):
                annotations.append((fname, p.advance().text))
            else:
                raise p.error("expected singular, plural, or an s/p string")
            p.expect("punct", ".")
            continue
        lhs = p.expr()
        p.expect("arrow")
        rhs = p.expr()
        p.expect("punct", ".")
        raw_rules.append((lhs, rhs))
    p.expect("kw", "endp")
    if not p.at("eof"):
        raise p.error("trailing input after endp")
    return assemble_program(name, raw_rules, annotations)


def parse_expression(text: str, sig: Signature) -> Term:
    """Parse a query expression against a program signature.

    Unknown symbols applied to arguments are errors; unknown bare
    lowercase identifiers are registered as fresh constants so queries can
    mention ad-hoc atoms (seeds, probe values).
    """
    p = _Parser(lex(text))
    t = p.expr()
    if not p.at("eof"):
        raise p.error("trailing input after expression")
    _resolve(t, sig)
    return t


def _resolve(t: Term, sig: Signature) -> None:
    if t.kind != 2:
        return
    arity = sig.arity(t.name)
    if arity is None:
        if t.children:
            raise ProgramError(["unknown symbol %s" % t.name])
        sig.ensure_constant(t.name)
    elif arity != len(t.children):
        raise ProgramError(
            ["%s takes %d argument%s, given %d"
             % (t.name, arity, "" if arity == 1 else "s", len(t.children))]
        )
    for c in t.children:
        _resolve(c, sig)


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
