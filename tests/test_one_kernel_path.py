"""Every kernel in the package comes from one routine, ``howell_kernel``.

In ``brauer`` every kernel comes from one step, ``_cut``: restriction
kernels and the hand-given and added parts of a family cut a form
submodule by constraint rows.  The floors (``compute_G`` and an
enumerated family's chart) are verified with no kernel solved, and only a
floor check that misses builds its cut, through ``_cut``.  A second
``howell_kernel`` site in ``brauer.py`` would be a second kernel path to
keep in step.

``howell_kernel`` itself takes a Howell form and a modulus and returns the
kernel, nothing else: ``solve_mod`` reads its particular solution off the
kernel of [A | -c], so no caller needs a right-hand side.  It is called
from ``_cut``, ``sympl.radical`` and ``solve_mod`` only.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "brauerkit"
BRAUER = PACKAGE / "brauer.py"


def _parse(path):
    """The module's tree and a map from each node to its parent."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    parent = {
        child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)
    }
    return tree, parent


def _enclosing_function(parent, node):
    """Name of the innermost function around ``node``, or ``<module>``."""
    scope = node
    while scope in parent and not isinstance(scope, ast.FunctionDef):
        scope = parent[scope]
    return scope.name if isinstance(scope, ast.FunctionDef) else "<module>"


def test_brauer_uses_howell_kernel_only_in_cut():
    tree, parent = _parse(BRAUER)
    sites = []
    for node in ast.walk(tree):
        named = isinstance(node, ast.Name) and node.id == "howell_kernel"
        if named or isinstance(node, ast.Attribute) and node.attr == "howell_kernel":
            sites.append(f"{_enclosing_function(parent, node)}:{node.lineno}")
    assert len(sites) == 1 and sites[0].startswith("_cut:"), sites


def test_howell_kernel_takes_a_form_and_a_modulus_and_has_three_callers():
    defs, callers = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        tree, parent = _parse(path)
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and node.name == "howell_kernel":
                defs.append((path.stem, node.args))
            if not isinstance(node, ast.Call):
                continue
            f = node.func
            if (isinstance(f, ast.Name) and f.id == "howell_kernel") or (
                isinstance(f, ast.Attribute) and f.attr == "howell_kernel"
            ):
                callers.append(f"{path.stem}.{_enclosing_function(parent, node)}")
    assert [stem for stem, _ in defs] == ["zmodlinalg"], defs
    args = defs[0][1]
    assert [a.arg for a in args.posonlyargs + args.args] == ["H", "n"]
    assert not (args.vararg or args.kwonlyargs or args.kwarg or args.defaults)
    assert sorted(callers) == ["brauer._cut", "sympl.radical", "zmodlinalg.solve_mod"]
