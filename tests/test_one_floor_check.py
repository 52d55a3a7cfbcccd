"""Both floors are checked by one routine, by value.

The cut of every form by the witness pairs (``compute_G``), and by the
block heads of an enumerated family, must be its floor, span(e) or {0},
each checked once over Z/r.  ``_cut_to_floor`` verifies that without
building the cut: one Howell form of the rows gives the cut's order, since
|ker N| |span N| = r^m, and one product checks that the rows kill the
floor, so no kernel is solved.  Only a miss builds the cut, to raise the
one error.  A second site that builds an "is outside" error would be a
second floor check to keep in step, and one that compared orders alone
would pass a cut of the floor's order that is not the floor.  The chart's
lazy generator (``_block``, ``_lex``, ``_solve``) is gone: the heads are
written down.  A family's heads are checked over Z/r, not once per prime
power q over ``SymplecticSpace(g, q)``: the one check passes iff every
per-q check would, so a loop over ``_prime_powers`` in the intersection
would be a second route to the same answer.
"""

import ast

from guards import call_sites, named, parents, parse, scope, uses


def _docstrings(tree) -> set:
    return {
        node.body[0].value
        for node in ast.walk(tree)
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef))
        and node.body
        and isinstance(node.body[0], ast.Expr)
        and isinstance(node.body[0].value, ast.Constant)
    }


def test_the_floor_routine_has_two_callers():
    scopes = sorted(
        site.split(":")[0] for site in call_sites(parse("brauer.py"), "_cut_to_floor")
    )
    assert scopes == ["BicyclicFamily._intersection", "compute_G"], scopes


def test_only_the_floor_routine_words_an_off_floor_error():
    tree = parse("brauer.py")
    parent, docstrings = parents(tree), _docstrings(tree)
    sites = sorted(
        f"{scope(parent, node)}:{node.lineno}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant)
        and isinstance(node.value, str)
        and "is outside" in node.value
        and node not in docstrings
    )
    assert sites and all(site.startswith("_cut_to_floor:") for site in sites), sites


def test_no_lazy_chart_generator_remains():
    tree = parse("brauer.py")
    names = {
        node.id if isinstance(node, ast.Name) else node.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.FunctionDef))
    }
    assert not names & {"_block", "_lex", "_solve", "_entries", "_off_floor"}


_LOOPS = (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def test_a_chart_floor_is_one_check_over_z_r():
    tree = parse("brauer.py")
    parent = parents(tree)
    func = next(
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == "_intersection"
    )
    checks = [
        node
        for node in ast.walk(func)
        if isinstance(node, ast.Call) and named(node.func, "_cut_to_floor")
    ]
    assert len(checks) == 1, [node.lineno for node in checks]
    node = checks[0]
    while node is not func:
        node = parent[node]
        assert not isinstance(node, _LOOPS), f"_cut_to_floor in a loop at line {node.lineno}"
    assert not uses(func, "_prime_powers") and not uses(func, "SymplecticSpace")
