"""A cap bounds what one call lists.

``compute_G`` is charged with its witness pairs and the family enumerators
with their members, none of them with the group they never list.  Only
``FinAbGroup.coordinate_table`` builds a table of the whole group, so only
``finab`` may raise ``TableTooLargeError``; a ``check_table`` charge of a
table that is never built would be a second meaning of the cap.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "brauerkit"


def _trees():
    for path in sorted(PACKAGE.glob("*.py")):
        yield path.name, ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _is_table_raise(node) -> bool:
    exc = node.exc if isinstance(node, ast.Raise) else None
    if isinstance(exc, ast.Call):
        exc = exc.func
    return isinstance(exc, ast.Name) and exc.id == "TableTooLargeError"


def _names_check_table(node) -> bool:
    return (
        (isinstance(node, ast.Attribute) and node.attr == "check_table")
        or (isinstance(node, ast.Name) and node.id == "check_table")
        or (isinstance(node, ast.FunctionDef) and node.name == "check_table")
        or (isinstance(node, ast.Constant) and node.value == "check_table")
    )


def test_table_too_large_is_raised_only_in_finab():
    sites = [
        f"{name}:{node.lineno}"
        for name, tree in _trees()
        for node in ast.walk(tree)
        if _is_table_raise(node)
    ]
    outside = [site for site in sites if not site.startswith("finab.py:")]
    assert sites and not outside, outside


def test_nothing_charges_a_table_it_does_not_build():
    sites = [
        f"{name}:{node.lineno}"
        for name, tree in _trees()
        for node in ast.walk(tree)
        if _names_check_table(node)
    ]
    assert not sites, sites
