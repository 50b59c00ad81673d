"""The README's Python and CLI examples run, and every exported name
resolves."""

import importlib
import pkgutil
import re
from pathlib import Path

import asymflux
from asymflux.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run():
    """Every ```python block of README.md, in order, in one namespace."""
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(),
                        flags=re.DOTALL | re.MULTILINE)
    assert blocks
    namespace = {}
    for k, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {k}", "exec"), namespace)


def test_readme_cli_examples_run(tmp_path, monkeypatch):
    """Every ``asymflux`` line of the README's CLI block exits 0, run in a
    scratch directory because the ``--csv-dir`` example writes its CSVs."""
    block = re.search(r"^## CLI\n\n```sh\n(.*?)^```", README.read_text(),
                      flags=re.DOTALL | re.MULTILINE).group(1)
    commands = [line.split()[1:] for line in block.splitlines()
                if line.startswith("asymflux ")]
    assert commands
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert main(argv + ["--no-timings"]) == 0, argv


def test_all_exports_resolve():
    """Each name in ``asymflux.__all__`` and in every module's ``__all__``
    is an attribute of that module."""
    modules = [asymflux] + [importlib.import_module(f"asymflux.{info.name}")
                            for info in pkgutil.iter_modules(asymflux.__path__)]
    for module in modules:
        missing = [name for name in getattr(module, "__all__", ())
                   if not hasattr(module, name)]
        assert not missing, f"{module.__name__}.__all__: {missing}"
