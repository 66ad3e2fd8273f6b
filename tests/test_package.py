import importlib
import pkgutil

import pytest

import aldkit

MODULES = ["aldkit"] + [
    f"aldkit.{info.name}" for info in pkgutil.iter_modules(aldkit.__path__)
    if info.name != "__main__"
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    # A removed definition must not leave its name behind in __all__.
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported)
    assert [n for n in exported if not hasattr(module, n)] == []
