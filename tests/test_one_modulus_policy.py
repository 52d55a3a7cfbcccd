"""Every int64 exactness decision lives in ``zmodlinalg``.

The Z/r routines share one limit, n <= 2^31, checked by
``zmodlinalg._check_modulus``, and one headroom, the residue products an
int64 entry can take between reductions mod n, ``zmodlinalg._headroom``.
A ``raise ModulusTooLargeError`` or a ``2**63`` bound anywhere else would
be a second limit to keep in step with them.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "brauerkit"


def _is_modulus_raise(node) -> bool:
    exc = node.exc if isinstance(node, ast.Raise) else None
    if isinstance(exc, ast.Call):
        exc = exc.func
    return isinstance(exc, ast.Name) and exc.id == "ModulusTooLargeError"


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
    sites = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if _is_modulus_raise(node) or _is_two_to_the_63(node):
                sites.append(f"{path.name}:{node.lineno}")
    outside = [site for site in sites if not site.startswith("zmodlinalg.py:")]
    assert sites and not outside, outside
    # within zmodlinalg, 2**63 is read only by the limit and the headroom,
    # and _matmul_mod and howell_form take the headroom from _headroom
    tree = ast.parse((PACKAGE / "zmodlinalg.py").read_text(encoding="utf-8"))
    funcs = [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)]
    owners = {f.name for f in funcs if any(map(_is_two_to_the_63, ast.walk(f)))}
    inside = [n for f in funcs for n in ast.walk(f) if _is_two_to_the_63(n)]
    every = [node for node in ast.walk(tree) if _is_two_to_the_63(node)]
    assert owners == {"_check_modulus", "_headroom"} and len(inside) == len(every)
    users = {f.name for f in funcs if f.name != "_headroom" and _uses(f, "_headroom")}
    assert users == {"_matmul_mod", "howell_form"}


def _uses(tree, name: str) -> list:
    """Every node in ``tree`` that refers to ``name``, bare or as an attribute."""
    return [
        node
        for node in ast.walk(tree)
        if (isinstance(node, ast.Name) and node.id == name)
        or (isinstance(node, ast.Attribute) and node.attr == name)
    ]


def test_brauer_checks_the_modulus_only_in_compute_G_and_with_pair():
    # compute_G checks it before charging the cap, so a public caller sees
    # the modulus refusal first, and with_pair before the chart key, which
    # converts nothing; everywhere else in brauer caller input is checked by
    # _residues, the one conversion
    tree = ast.parse((PACKAGE / "brauer.py").read_text(encoding="utf-8"))
    checkers = [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name in ("compute_G", "with_pair")
    ]
    assert sorted(node.name for node in checkers) == ["compute_G", "with_pair"]
    uses = _uses(tree, "_check_modulus")
    assert all(_uses(node, "_check_modulus") for node in checkers)
    assert uses and sorted(map(id, uses)) == sorted(
        id(use) for node in checkers for use in _uses(node, "_check_modulus")
    )
