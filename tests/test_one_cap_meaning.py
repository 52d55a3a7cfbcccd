"""A cap bounds what one call lists.

``compute_G`` is charged with its witness pairs and the family enumerators
with their members, none of them with the group they never list.  Only
``FinAbGroup.coordinate_table`` builds a table of the whole group, so only
``finab`` may raise ``TableTooLargeError``; a ``check_table`` charge of a
table that is never built would be a second meaning of the cap.
"""

import ast

from guards import named, raises, trees


def _names_check_table(node) -> bool:
    return (
        named(node, "check_table")
        or (isinstance(node, ast.FunctionDef) and node.name == "check_table")
        or (isinstance(node, ast.Constant) and node.value == "check_table")
    )


def test_table_too_large_is_raised_only_in_finab():
    sites = [
        f"{name}:{node.lineno}"
        for name, tree in trees()
        for node in ast.walk(tree)
        if raises(node, "TableTooLargeError")
    ]
    outside = [site for site in sites if not site.startswith("finab.py:")]
    assert sites and not outside, outside


def test_nothing_charges_a_table_it_does_not_build():
    sites = [
        f"{name}:{node.lineno}"
        for name, tree in trees()
        for node in ast.walk(tree)
        if _names_check_table(node)
    ]
    assert not sites, sites
