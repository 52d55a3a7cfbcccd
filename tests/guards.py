"""AST reading shared by the one-routine guards, ``tests/test_one_*.py``.

Each guard parses package modules and asks where a name is defined, used
or called: the parse, the map from a node to its parent, the scope around
a node and the "bare name or attribute" test are kept here once.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "brauerkit"


def parse(path) -> ast.Module:
    """The tree of the file at ``path``, a file name read in the package."""
    path = PACKAGE / path
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def trees():
    """(file name, tree) of each module of the package, in name order."""
    for path in sorted(PACKAGE.glob("*.py")):
        yield path.name, parse(path)


def parents(tree) -> dict:
    """A map from each node of ``tree`` to its parent."""
    return {
        child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)
    }


def scope(parent, node) -> str:
    """The classes and functions around ``node``, joined by dots, or
    ``<module>``."""
    names = []
    while node in parent:
        node = parent[node]
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
    return ".".join(reversed(names)) or "<module>"


def named(node, name: str) -> bool:
    """Whether ``node`` refers to ``name``, bare or as an attribute."""
    return (isinstance(node, ast.Name) and node.id == name) or (
        isinstance(node, ast.Attribute) and node.attr == name
    )


def raises(node, name: str) -> bool:
    """Whether ``node`` is a ``raise`` of the exception class ``name``."""
    exc = node.exc if isinstance(node, ast.Raise) else None
    if isinstance(exc, ast.Call):
        exc = exc.func
    return isinstance(exc, ast.Name) and exc.id == name


def uses(tree, name: str) -> list:
    """Every node in ``tree`` that refers to ``name``, bare or as an attribute."""
    return [node for node in ast.walk(tree) if named(node, name)]


def call_sites(tree, name: str) -> list[str]:
    """``scope:line`` of each call of ``name`` in ``tree``."""
    parent = parents(tree)
    return [
        f"{scope(parent, node)}:{node.lineno}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and named(node.func, name)
    ]
