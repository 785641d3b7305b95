"""The import layering of the package, read from its sources: the sweep
protocol depends on neither engine, and the rewriting engine does not
depend on the calculi."""

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
