"""The benchmark tracer's function names still resolve in the package."""

import ast
import importlib
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def traced_names() -> list[tuple[str, str]]:
    """(layer, qualified name) pairs of ``TRACED`` in the tracer, read from its source."""
    tree = ast.parse(TRACER.read_text("utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["TRACED"]:
            traced = ast.literal_eval(node.value)
            return [(layer, qual) for layer, names in traced.items() for qual in names]
    raise AssertionError("perfbench/tracer.py defines no TRACED table")


@pytest.mark.parametrize("layer, qual", traced_names(), ids=lambda v: v)
def test_traced_name_resolves(layer, qual):
    # a traced --trace 1 run wraps each of these by name; a deleted or renamed
    # function would break it only when the benchmark next runs traced
    obj = importlib.import_module(f"tffilter.{layer}")
    for attr in qual.split("."):
        obj = getattr(obj, attr)
    assert callable(obj)


@pytest.mark.parametrize("optimize", [False, True], ids=["grid", "optimize"])
def test_both_qkd_paths_call_domain(optimize, monkeypatch, tmp_path):
    # a traced run wraps FilterCharacteristic.domain on its class, as here, and
    # takes max() over the spans of each of the qkd and qkd_grid ops: a path that
    # stopped calling domain() would make that run raise ValueError
    from tffilter import cli
    from tffilter.qkd import FilterCharacteristic

    calls = []
    domain = FilterCharacteristic.domain
    monkeypatch.setattr(FilterCharacteristic, "domain", lambda fc: calls.append(fc) or domain(fc))
    argv = ["qkd", "--filter", "all", "--ny-min", "1e-4", "--ny-max", "1", "--points", "50"]
    argv += (["--optimize"] if optimize else []) + ["--out", str(tmp_path / "rates.csv")]
    assert cli.main(argv) == 0
    assert len({id(fc) for fc in calls}) == 4  # gaussian, slepian and the two reference points
