"""Every exported name resolves: a rename cannot leave a stale entry in an ``__all__``."""

import importlib
import pkgutil
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
