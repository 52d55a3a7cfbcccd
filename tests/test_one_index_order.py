"""The i < j index order has one producer, ``sympl._upper_pairs``.

Minor rows (``brauer._minor_rows``) and form coefficient vectors
(``AltForm.vector``) must list the pairs i < j in the same order, or a
constraint row would pair each minor with the wrong coefficient.  A second
``np.triu_indices`` or a second ``_upper_pairs`` would be a second copy of
that order to keep in step.
"""

import ast

from guards import parse, trees

from brauerkit import brauer, sympl


def test_triu_indices_appears_only_in_sympl():
    sites = [
        f"{name}:{node.lineno}"
        for name, tree in trees()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "triu_indices"
    ]
    assert sites and all(site.startswith("sympl.py:") for site in sites), sites


def test_brauer_defines_no_upper_pairs():
    defined = [
        node.lineno
        for node in ast.walk(parse("brauer.py"))
        if isinstance(node, ast.FunctionDef) and node.name == "_upper_pairs"
    ]
    assert not defined, defined
    # nor binds the name to anything but sympl's
    assert brauer._upper_pairs is sympl._upper_pairs

