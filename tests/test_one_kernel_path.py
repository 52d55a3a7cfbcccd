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

from guards import call_sites, parents, parse, scope, trees, uses


def test_brauer_uses_howell_kernel_only_in_cut():
    tree = parse("brauer.py")
    parent = parents(tree)
    sites = [f"{scope(parent, node)}:{node.lineno}" for node in uses(tree, "howell_kernel")]
    assert len(sites) == 1 and sites[0].startswith("_cut:"), sites


def test_howell_kernel_takes_a_form_and_a_modulus_and_has_three_callers():
    defs, callers = [], []
    for name, tree in trees():
        stem = name.removesuffix(".py")
        defs += [
            (stem, node.args)
            for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef) and node.name == "howell_kernel"
        ]
        callers += [
            f"{stem}.{site.split(':')[0]}" for site in call_sites(tree, "howell_kernel")
        ]
    assert [stem for stem, _ in defs] == ["zmodlinalg"], defs
    args = defs[0][1]
    assert [a.arg for a in args.posonlyargs + args.args] == ["H", "n"]
    assert not (args.vararg or args.kwonlyargs or args.kwarg or args.defaults)
    assert sorted(callers) == ["brauer._cut", "sympl.radical", "zmodlinalg.solve_mod"]
