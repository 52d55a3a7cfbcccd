"""Every int64 exactness decision lives in ``zmodlinalg``.

The Z/r routines share one limit, n <= 2^31, checked by
``zmodlinalg._check_modulus``.  A ``raise ModulusTooLargeError`` or a
``2**63`` bound in any other module would be a second limit to keep in
step with it.
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
