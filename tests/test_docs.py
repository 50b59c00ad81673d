"""The README's Python examples run, and every exported name resolves."""

import importlib
import pkgutil
import re
from pathlib import Path

import asymflux

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run():
    """Every ```python block of README.md, in order, in one namespace."""
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(),
                        flags=re.DOTALL | re.MULTILINE)
    assert blocks
    namespace = {}
    for k, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {k}", "exec"), namespace)


def test_all_exports_resolve():
    """Each name in ``asymflux.__all__`` and in every module's ``__all__``
    is an attribute of that module."""
    modules = [asymflux] + [importlib.import_module(f"asymflux.{info.name}")
                            for info in pkgutil.iter_modules(asymflux.__path__)]
    for module in modules:
        missing = [name for name in getattr(module, "__all__", ())
                   if not hasattr(module, name)]
        assert not missing, f"{module.__name__}.__all__: {missing}"
