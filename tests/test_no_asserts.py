"""The library signals broken invariants with exceptions, never ``assert``.

An ``assert`` statement disappears under ``python -O``, so a check the
library relies on must raise instead.
"""

import ast

from guards import trees


def test_library_has_no_assert_statements():
    found = [
        f"{name}:{node.lineno}"
        for name, tree in trees()
        for node in ast.walk(tree)
        if isinstance(node, ast.Assert)
    ]
    assert not found, f"assert statements in the library: {found}"
