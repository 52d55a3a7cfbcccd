"""Every int64 and int32 exactness decision lives in ``zmodlinalg``.

The Z/r routines share one limit, n <= 2^31, checked by
``zmodlinalg._check_modulus``, and one headroom, the residue products an
int64 or int32 entry can take between reductions mod n,
``zmodlinalg._headroom``.  ``howell_form`` alone works in int32, for
n <= 2^15, as ``_work_dtype`` picks it.  A ``raise ModulusTooLargeError``,
a ``2**63`` or ``2**31`` bound, a division by (n - 1)^2 or an ``np.int32``
anywhere else would be a second limit to keep in step with them.
"""

import ast

from guards import named, parse, raises, trees, uses


def _is_two_to_the(node, k: int) -> bool:
    return (
        isinstance(node, ast.BinOp)
        and isinstance(node.op, ast.Pow)
        and isinstance(node.left, ast.Constant)
        and node.left.value == 2
        and isinstance(node.right, ast.Constant)
        and node.right.value == k
    )


def _is_two_to_the_63(node) -> bool:
    return _is_two_to_the(node, 63)


def _is_two_to_the_31(node) -> bool:
    return _is_two_to_the(node, 31)


def _is_int32(node) -> bool:
    return named(node, "int32")


def _is_headroom_division(node) -> bool:
    """``x // (y - 1) ** 2``, the division that turns a dtype's top into a
    count of residue products."""
    if not (isinstance(node, ast.BinOp) and isinstance(node.op, ast.FloorDiv)):
        return False
    square = node.right
    return (
        isinstance(square, ast.BinOp)
        and isinstance(square.op, ast.Pow)
        and isinstance(square.right, ast.Constant)
        and square.right.value == 2
        and isinstance(square.left, ast.BinOp)
        and isinstance(square.left.op, ast.Sub)
        and isinstance(square.left.right, ast.Constant)
        and square.left.right.value == 1
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
    assert users == {"_matmul_mod", "_work_dtype", "howell_form"}


def test_int32_is_picked_only_by_work_dtype_and_headroom_only_by_headroom():
    # np.int32, 2**31 and the division by (n - 1)^2 are read only in
    # zmodlinalg: np.int32 by _headroom, which computes both headrooms, and
    # _work_dtype, which picks the dtype, the other two by _headroom alone
    for name, tree in trees():
        if name != "zmodlinalg.py":
            nodes = list(ast.walk(tree))
            assert not any(map(_is_int32, nodes)), name
            assert not any(map(_is_two_to_the_31, nodes)), name
            assert not any(map(_is_headroom_division, nodes)), name
    tree = parse("zmodlinalg.py")
    funcs = [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)]

    def owners(pred) -> list[str]:
        # one entry per site, so a second site in the same function shows
        return sorted(f.name for f in funcs for node in ast.walk(f) if pred(node))

    def sites(pred) -> int:
        return sum(map(pred, ast.walk(tree)))

    assert owners(_is_int32) == ["_headroom", "_work_dtype", "_work_dtype"]
    assert owners(_is_two_to_the_31) == ["_headroom"]
    assert owners(_is_headroom_division) == ["_headroom"]
    # and no site outside a function
    assert sites(_is_int32) == 3
    assert sites(_is_two_to_the_31) == sites(_is_headroom_division) == 1
    # howell_form alone works in the dtype _work_dtype picks
    callers = {f.name for f in funcs if uses(f, "_work_dtype")} - {"_work_dtype"}
    assert callers == {"howell_form"}


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
