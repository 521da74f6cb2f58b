"""Every exported name resolves: a rename cannot leave a stale entry in an ``__all__``.

The package loads its submodules on first use, so every name is also checked
through a package that has not loaded them yet.
"""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import tffilter

MODULES = ["tffilter"] + [
    f"tffilter.{info.name}" for info in pkgutil.iter_modules(tffilter.__path__)
]


@pytest.mark.parametrize("module_name", MODULES)
def test_every_name_in_all_resolves(module_name):
    module = importlib.import_module(module_name)
    exported = getattr(module, "__all__", [])
    assert len(exported) == len(set(exported)), "duplicate names in __all__"
    missing = [name for name in exported if not hasattr(module, name)]
    assert missing == []


def test_one_version_string():
    # the package, its manifests and its distribution metadata carry one version
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(tffilter.__file__).parents[2] / "pyproject.toml"
    with pyproject.open("rb") as handle:
        assert tomllib.load(handle)["project"]["version"] == tffilter.__version__


def test_lazy_package_resolves_every_name_from_its_module():
    # in a fresh interpreter, so that no submodule is loaded before the lookups
    script = """
import importlib, pkgutil, sys, tffilter
assert not [m for m in sys.modules if m.startswith("tffilter.")]
submodules = sorted(info.name for info in pkgutil.iter_modules(tffilter.__path__))
assert set(tffilter.__all__) | set(submodules) <= set(dir(tffilter))
for name in submodules:
    assert getattr(tffilter, name) is importlib.import_module("tffilter." + name), name
for name in tffilter.__all__:
    value = getattr(tffilter, name)
    owners = [m for m in submodules if getattr(sys.modules["tffilter." + m], name, None) is value]
    assert name == "__version__" or owners, name
print("ok")
"""
    env = dict(os.environ)
    src = str(Path(tffilter.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.stdout == "ok\n", proc.stderr


def test_unknown_package_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        tffilter.no_such_name
    assert not hasattr(tffilter, "_no_such_private_name")


def test_star_import_binds_every_name_in_all():
    namespace: dict = {}
    exec("from tffilter import *", namespace)
    assert set(tffilter.__all__) <= set(namespace)
