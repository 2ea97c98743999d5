"""The private names one library module takes from another.

A private name used across modules is a decision that both modules know.  The
allow-list keeps that set from growing unnoticed; in particular a forward pass's
internals (its realization sets, its cache, its gradient) stay inside ``model``.
"""

import ast
from pathlib import Path

import sgnn_lab

PACKAGE = Path(sgnn_lab.__file__).parent

# (defining module, private name) -> the modules that use it
ALLOWED = {
    ("graphs", "_edge_values"): {"model", "variance"},
    ("graphs", "_realized_mats"): {"model", "variance"},
    ("model", "_activate"): {"variance"},
    ("filters", "_taps"): {"spectral", "variance"},
    ("training", "_loss_pair"): {"cli"},
}


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _cross_module_private_names(root: Path) -> dict:
    """Every private name a module of the package at ``root`` imports from another
    module, or reads as an attribute of an imported module, with its users."""
    used = {}
    for path in sorted(root.rglob("*.py")):
        # a package's __init__ stays a part, so that a relative level counts from it
        parts = path.relative_to(root).with_suffix("").parts
        user = ".".join(p for p in parts if p != "__init__")
        modules = {}  # names bound to package modules by `from . import x`
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                if node.level:
                    source = list(parts[:len(parts) - node.level]) + (node.module or "").split(".")
                elif (node.module or "").startswith(f"{root.name}."):
                    source = node.module.split(".")[1:]
                else:
                    continue
                source = ".".join(p for p in source if p)
                for alias in node.names:
                    if node.module is None:
                        modules[alias.asname or alias.name] = ".".join(
                            p for p in (source, alias.name) if p)
                    elif _private(alias.name):
                        used.setdefault((source, alias.name), set()).add(user)
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in modules and _private(node.attr)):
                used.setdefault((modules[node.value.id], node.attr), set()).add(user)
    return used


def test_private_names_used_across_modules_are_the_allow_list():
    assert _cross_module_private_names(PACKAGE) == ALLOWED
