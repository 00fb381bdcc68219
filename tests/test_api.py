"""The published names: every exported name resolves, and README lists the API."""

import importlib
import pkgutil
import re

import ruma
from conftest import REPO_ROOT


def test_every_exported_name_resolves():
    names = ["ruma"] + [f"ruma.{m.name}" for m in pkgutil.iter_modules(ruma.__path__)]
    for name in names:
        module = importlib.import_module(name)
        missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
        assert not missing, f"{name}.__all__ names what it lacks: {missing}"


def test_readme_lists_the_library_api():
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    line = re.search(r"^Library API: (.*)$", readme, re.MULTILINE)
    assert line, "README has no 'Library API:' line"
    assert re.findall(r"`(\w+)`", line.group(1)) == ruma.__all__
