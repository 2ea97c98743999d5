"""The functions of the package that write a file.

Every results table goes through ``common.write_results``; the only other
files the package writes are a checkpoint and an edge list.  A function that
opens a file for writing, or serializes JSON, anywhere else is a second table
writer, with its own format, that the golden fixture and the CLI tests would
each have to learn about.
"""

import ast
from pathlib import Path

import sgnn_lab

PACKAGE = Path(sgnn_lab.__file__).parent

WRITERS = {"common.write_results", "model.save_checkpoint", "graphs.save_edge_list"}


def _writes(call: ast.Call) -> bool:
    """Whether ``call`` is ``open``/``.open`` with a writing mode (or a mode that is not a
    literal), ``.write_text``/``.write_bytes``, or ``json.dump``/``json.dumps``."""
    func = call.func
    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
    if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name) \
            and func.value.id == "json":
        return name in ("dump", "dumps")
    if name in ("write_text", "write_bytes"):
        return True
    if name != "open":
        return False
    # builtin open takes the mode second, Path.open first
    position = 1 if isinstance(func, ast.Name) else 0
    mode = next((kw.value for kw in call.keywords if kw.arg == "mode"),
                call.args[position] if len(call.args) > position else ast.Constant("r"))
    return not isinstance(mode, ast.Constant) or any(c in str(mode.value) for c in "wax+")


def _writers(root: Path) -> set:
    """Qualified names (module.function, module.Class.method) of the functions of the
    package at ``root`` that write a file; a call counts for its innermost function."""
    found = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}"
            elif isinstance(child, ast.Call) and _writes(child):
                found.add(scope)
            visit(child, inner)

    for path in sorted(root.rglob("*.py")):
        parts = path.relative_to(root).with_suffix("").parts
        visit(ast.parse(path.read_text()), ".".join(p for p in parts if p != "__init__"))
    return found


def test_the_file_writers_are_the_three_pinned_functions():
    assert _writers(PACKAGE) == WRITERS


def test_the_scan_sees_each_kind_of_write(tmp_path):
    (tmp_path / "mod.py").write_text(
        "import json\n"
        "def reads(p):\n    return open(p).read() + p.open('rb').read()\n"
        "def appends(p):\n    open(p, mode='a')\n"
        "class Report:\n    def to_json(self):\n        return json.dumps({})\n"
        "def unknown_mode(p, m):\n    p.open(m)\n"
        "def text(p):\n    p.write_text('')\n")
    assert _writers(tmp_path) == {"mod.appends", "mod.Report.to_json", "mod.unknown_mode",
                                  "mod.text"}
