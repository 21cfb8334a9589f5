import importlib
import pkgutil

import pytest

import shrinkdist

MODULES = [importlib.import_module(f"shrinkdist.{m.name}") for m in pkgutil.iter_modules(shrinkdist.__path__)]


@pytest.mark.parametrize("module", [m for m in MODULES if hasattr(m, "__all__")], ids=lambda m: m.__name__)
def test_all_names_resolve(module):
    # tools that wrap the public API call getattr on every __all__ entry
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing
