"""The layering of the package, read from its sources: the sweep
protocol depends on neither engine, the rewriting engine does not depend
on the calculi, and only the sweep protocol writes its tables."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "pluralrw"


def _imported(module):
    """The sibling modules a module of the package imports from."""
    found = set()
    for node in ast.walk(ast.parse((SRC / (module + ".py")).read_text())):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1 and node.module:
                found.add(node.module.split(".")[0])
            elif node.level == 1 or node.module == "pluralrw":
                found.update(alias.name for alias in node.names)
            elif node.module and node.module.startswith("pluralrw."):
                found.add(node.module.split(".")[1])
        elif isinstance(node, ast.Import):
            found.update(alias.name.split(".")[1] for alias in node.names
                         if alias.name.startswith("pluralrw."))
    return found


def test_sweep_imports_neither_engine():
    assert not _imported("sweep") & {"calculi", "rewriting"}


def test_rewriting_imports_nothing_from_calculi():
    assert "calculi" not in _imported("rewriting")


def test_the_reader_finds_the_imports_that_are_there():
    # else the tests above would pass on a reader that finds nothing
    assert {"sweep", "syntax", "terms"} <= _imported("calculi")
    assert "sweep" in _imported("rewriting")


# the sweep protocol's tables: the memo, the frozen table, the read record
_TABLES = {"_memo", "_frozen", "_record"}
_MUTATORS = {"clear", "pop", "popitem", "setdefault", "update"}


def _table(node):
    """The table an expression names, t or t[...], else None."""
    if isinstance(node, ast.Subscript):
        node = node.value
    if isinstance(node, ast.Attribute) and node.attr in _TABLES:
        return node.attr
    return None


def _table_writes(path):
    """The tables a source assigns into or deletes from, by line, through
    the attribute: a write through an alias is not seen."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, (ast.Assign, ast.Delete)):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr in _MUTATORS):
            targets = [node.func.value]
        else:
            continue
        found.update((_table(t), node.lineno) for t in targets if _table(t))
    return found


def test_only_the_sweep_protocol_writes_its_tables():
    writers = {path.name: _table_writes(path) for path in sorted(SRC.glob("*.py"))}
    assert {name for name, writes in writers.items() if writes} == {"sweep.py"}
    # else the test above would pass on a scanner that finds nothing
    assert {table for table, _line in writers["sweep.py"]} == _TABLES
