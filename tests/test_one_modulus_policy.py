"""Every int64 exactness decision lives in ``zmodlinalg``.

The Z/r routines share one limit, n <= 2^31, checked by
``zmodlinalg._check_modulus``, and one headroom, the residue products an
int64 entry can take between reductions mod n, ``zmodlinalg._headroom``.
A ``raise ModulusTooLargeError`` or a ``2**63`` bound anywhere else would
be a second limit to keep in step with them.
"""

import ast

from guards import parse, raises, trees, uses


def _is_two_to_the_63(node) -> bool:
    return (
        isinstance(node, ast.BinOp)
        and isinstance(node.op, ast.Pow)
        and isinstance(node.left, ast.Constant)
        and node.left.value == 2
        and isinstance(node.right, ast.Constant)
        and node.right.value == 63
    )


def test_int64_limit_is_decided_only_in_zmodlinalg():
    sites = [
        f"{name}:{node.lineno}"
        for name, tree in trees()
        for node in ast.walk(tree)
        if raises(node, "ModulusTooLargeError") or _is_two_to_the_63(node)
    ]
    outside = [site for site in sites if not site.startswith("zmodlinalg.py:")]
    assert sites and not outside, outside
    # within zmodlinalg, 2**63 is read only by the limit and the headroom,
    # and _matmul_mod and howell_form take the headroom from _headroom
    tree = parse("zmodlinalg.py")
    funcs = [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)]
    owners = {f.name for f in funcs if any(map(_is_two_to_the_63, ast.walk(f)))}
    inside = [n for f in funcs for n in ast.walk(f) if _is_two_to_the_63(n)]
    every = [node for node in ast.walk(tree) if _is_two_to_the_63(node)]
    assert owners == {"_check_modulus", "_headroom"} and len(inside) == len(every)
    users = {f.name for f in funcs if f.name != "_headroom" and uses(f, "_headroom")}
    assert users == {"_matmul_mod", "howell_form"}


def test_brauer_checks_the_modulus_only_in_compute_G_and_with_pair():
    # compute_G checks it before charging the cap, so a public caller sees
    # the modulus refusal first, and with_pair before the chart key, which
    # converts nothing; everywhere else in brauer caller input is checked by
    # _residues, the one conversion
    tree = parse("brauer.py")
    checkers = [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name in ("compute_G", "with_pair")
    ]
    assert sorted(node.name for node in checkers) == ["compute_G", "with_pair"]
    sites = uses(tree, "_check_modulus")
    assert all(uses(node, "_check_modulus") for node in checkers)
    assert sites and sorted(map(id, sites)) == sorted(
        id(use) for node in checkers for use in uses(node, "_check_modulus")
    )
