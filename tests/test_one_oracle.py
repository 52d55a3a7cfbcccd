"""``brauerkit.oracle`` is the one naive oracle, for ``selftest`` and the
tests alike.  It imports the standard library and numpy only, so it can
share no canonical form, solver or bug with the code it checks.  A
``_brute*`` routine in ``cli``, a ``coordinate_table`` filter in a
``_suite_*`` or an oracle routine in ``tests/brute.py`` would be a second
copy of the oracle to keep in step.
"""

import ast
import sys

import brute
from guards import named, parents, parse, scope

from brauerkit import oracle


def test_the_oracle_imports_only_the_standard_library_and_numpy():
    roots = []
    for node in ast.walk(parse("oracle.py")):
        if isinstance(node, ast.ImportFrom):
            roots.append("." if node.level else node.module.split(".")[0])
        elif isinstance(node, ast.Import):
            roots += [alias.name.split(".")[0] for alias in node.names]
    outside = [root for root in roots if root not in sys.stdlib_module_names | {"numpy"}]
    assert roots and not outside, outside


def test_the_selftest_has_no_brute_force_of_its_own():
    tree = parse("cli.py")
    parent = parents(tree)
    brutes = [
        node.name
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name.startswith("_brute")
    ]
    tables = [
        f"{scope(parent, node)}:{node.lineno}"
        for node in ast.walk(tree)
        if named(node, "coordinate_table") and scope(parent, node).startswith("_suite_")
    ]
    assert not brutes and not tables, (brutes, tables)


def test_tests_take_the_oracle_routines_from_the_oracle_alone():
    # neither defined in tests/brute.py nor imported into it
    assert not [name for name in oracle.__all__ if hasattr(brute, name)]

