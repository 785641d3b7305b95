"""Non-deterministic constructor rewriting with singular and plural arguments.

Subpackages:
  terms      term representation, orderings, matching
  syntax     concrete syntax: lexer, parser, printer, programs
  disjsubst  disjunctive substitutions and compressibility
  calculi    denotation enumerators for the five semantics
  rewriting  plain term rewriting engine, call-by-need run-time sets
  transform  the plural-to-rewriting program transformation
  repl       interactive command loop
  harness    randomized differential test harness
"""

__version__ = "0.1.0"
