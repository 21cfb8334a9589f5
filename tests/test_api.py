import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import shrinkdist

MODULES = [importlib.import_module(f"shrinkdist.{m.name}") for m in pkgutil.iter_modules(shrinkdist.__path__)]


@pytest.mark.parametrize("module", [m for m in MODULES if hasattr(m, "__all__")], ids=lambda m: m.__name__)
def test_all_names_resolve(module):
    # tools that wrap the public API call getattr on every __all__ entry
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing


def test_readme_python_blocks_run():
    # every python block of the README, in order, in one namespace
    readme = Path(__file__).resolve().parent.parent / "README.md"
    blocks = re.findall(r"^```python\n(.*?)^```", readme.read_text(), flags=re.M | re.S)
    assert len(blocks) >= 5
    namespace = {}
    for block in blocks:
        exec(compile(block, str(readme), "exec"), namespace)
