"""The layering of the package, read from its sources: the sweep
protocol depends on neither engine, the rewriting engine does not depend
on the calculi, only the sweep protocol writes its tables and its
bookkeeping of reads, the latter only where a node is evaluated, and the
value budget is set once, when a sweeper is built."""

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


# the sweep protocol's state: the memo, the frozen table, the read
# record, the reads of the computation under way and the thaw count
_TABLES = {"_memo", "_frozen", "_record", "_reading", "_thaws"}
_MUTATORS = {"append", "clear", "extend", "pop", "popitem", "setdefault", "update"}


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


def _writes_in(path, attrs):
    """(class, function) per assignment to, deletion from or mutating
    call on an attribute named in attrs, in a source, through any
    object."""
    found = []

    def visit(node, cls, fn):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, child.name, fn)
                continue
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, cls, child.name)
                continue
            if isinstance(child, (ast.Assign, ast.Delete)):
                targets = child.targets
            elif isinstance(child, (ast.AugAssign, ast.AnnAssign)):
                targets = [child.target]
            elif (isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute)
                  and child.func.attr in _MUTATORS):
                targets = [child.func.value]
            else:
                targets = []
            for t in targets:
                if isinstance(t, ast.Subscript):
                    t = t.value
                if isinstance(t, ast.Attribute) and t.attr in attrs:
                    found.append((cls, fn))
            visit(child, cls, fn)

    visit(ast.parse(path.read_text()), None, None)
    return found


def test_the_value_budget_is_set_only_when_a_sweeper_is_built():
    writes = {path.name: _writes_in(path, {"_budget"}) for path in sorted(SRC.glob("*.py"))}
    assert {name: found for name, found in writes.items() if found} == {
        "sweep.py": [("Sweeper", "__init__")]}


def test_reads_are_recorded_and_thaws_counted_only_where_a_node_is_evaluated():
    # so no cache stands for reads: a read is recorded and its thaw
    # counted by Sweeper._eval alone, and begin_sweep only drops a
    # record an exception left open
    writers = set(_writes_in(SRC / "sweep.py", {"_reading", "_thaws"}))
    assert writers == {("Sweeper", "__init__"), ("Sweeper", "begin_sweep"), ("Sweeper", "_eval")}
