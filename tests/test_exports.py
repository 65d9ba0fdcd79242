import importlib
import pkgutil

import pytest

import opspectra

MODULES = sorted(
    info.name for info in pkgutil.iter_modules(opspectra.__path__)
    if not info.name.startswith("_")
)


@pytest.mark.parametrize("name", ["opspectra"] + [f"opspectra.{m}" for m in MODULES])
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names undefined attributes {missing}"
    assert len(set(exported)) == len(exported), f"{name}.__all__ repeats a name"

