"""Every kernel in ``brauer`` comes from one step, ``_cut``.

The witness cut of ``compute_G``, restriction kernels and family
intersections all cut a form submodule by constraint rows.  A second
``howell_kernel`` site in ``brauer.py`` would be a second kernel path to
keep in step.
"""

import ast
from pathlib import Path

BRAUER = Path(__file__).resolve().parent.parent / "src" / "brauerkit" / "brauer.py"


def test_brauer_uses_howell_kernel_only_in_cut():
    tree = ast.parse(BRAUER.read_text(encoding="utf-8"), filename=str(BRAUER))
    parent = {
        child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)
    }
    sites = []
    for node in ast.walk(tree):
        named = isinstance(node, ast.Name) and node.id == "howell_kernel"
        if named or isinstance(node, ast.Attribute) and node.attr == "howell_kernel":
            scope = node
            while scope in parent and not isinstance(scope, ast.FunctionDef):
                scope = parent[scope]
            where = scope.name if isinstance(scope, ast.FunctionDef) else "<module>"
            sites.append(f"{where}:{node.lineno}")
    assert len(sites) == 1 and sites[0].startswith("_cut:"), sites
