"""Every exported name resolves, and each ``__all__`` lists it once.

A deletion that leaves its name behind in an ``__all__`` fails here rather
than at the first ``from ... import *``.
"""

import importlib
import pkgutil

import pytest

import brauerkit

# every layer that declares ``__all__``; ``__main__`` would run the CLI
MODULES = [
    module
    for module in [brauerkit] + [
        importlib.import_module(f"brauerkit.{info.name}")
        for info in pkgutil.iter_modules(brauerkit.__path__)
        if info.name != "__main__"
    ]
    if hasattr(module, "__all__")
]


def test_every_layer_declares_its_exports():
    assert len(MODULES) >= 6


@pytest.mark.parametrize("module", MODULES, ids=lambda module: module.__name__)
def test_all_names_resolve_once(module):
    exported = module.__all__
    assert len(exported) == len(set(exported)), sorted(
        n for n in set(exported) if exported.count(n) > 1
    )
    missing = [n for n in exported if not hasattr(module, n)]
    assert not missing, f"{module.__name__}.__all__ names missing attributes: {missing}"
