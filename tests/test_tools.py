"""The measuring scripts under ``tools/``: line counts and the two-tree comparison.

``code_lines`` reads a small package written here.  ``compare`` is stopped by
its argument checks on every workload, and runs on fake workers that stand in
for two trees: ``ladder`` workers whose ladders stop on other grid levels, and
``noise`` and ``cli`` workers whose outputs differ.  One short ``ladder`` run
and one short ``noise`` run each compare this checkout with itself in two
worker processes.
"""

import importlib.util
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def load_tool(name: str):
    spec = importlib.util.spec_from_file_location(f"tools_{name}", TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SOURCE = '''"""A module docstring
over two lines."""

# a comment-only line
import os  # a comment after code


class Box:
    """A class docstring."""

    label = """a string literal
that is no docstring"""

    def size(self):
        """A function docstring."""

        "a later string statement, which is no docstring"
        return len(self.label)


async def wait():
    """An async function docstring."""
    return os.sep
'''

# import, class, the two lines of the label, def, the later string, return,
# async def and its return
CODE_LINES = 9

SETTABLE = '''from dataclasses import dataclass, field
import dataclasses


@dataclass(frozen=True)
class Point:
    x: float
    y: float = 0.0
    tags: list = field(default_factory=list)
    LIMIT = 3  # no annotation, so no field


@dataclasses.dataclass
class Pair:
    left: int


class Plain:
    size: int = 1  # not a dataclass

    def scale(self, by, *, floor=0.0):
        return max(self.size * by, floor)

    @classmethod
    def make(cls, size=1):
        return cls()


def spread(first, /, second=2, *rest, key=None, **options):
    def inner(a, b=1):
        return a + b

    return inner(first)
'''

# Point's three fields (two defaults) and Pair's one; scale's by and floor
# (one default); make's size (one); spread's five (two) and inner's two (one)
SETTABLE_VALUES, WITH_DEFAULTS = 14, 7


def test_code_lines_counts_only_code(tmp_path, capsys):
    code_lines = load_tool("code_lines")
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "mod.py").write_text(SOURCE, encoding="utf-8")
    (pkg / "empty.py").write_text('"""Only a docstring."""\n\n# and a comment\n', encoding="utf-8")
    assert code_lines.code_lines(pkg / "mod.py") == CODE_LINES
    assert code_lines.code_lines(pkg / "empty.py") == 0
    assert code_lines.main([str(pkg)]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows == [
        ["module", "code", "settable", "defaults"],
        ["empty.py", "0", "0", "0"],
        ["mod.py", str(CODE_LINES), "0", "0"],
        ["total", str(CODE_LINES), "0", "0"],
    ]


def test_code_lines_counts_settable_values(tmp_path, capsys):
    code_lines = load_tool("code_lines")
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "values.py").write_text(SETTABLE, encoding="utf-8")
    (pkg / "mod.py").write_text(SOURCE, encoding="utf-8")
    assert code_lines.settable_values(pkg / "values.py") == (SETTABLE_VALUES, WITH_DEFAULTS)
    assert code_lines.main([str(pkg)]) == 0
    total = capsys.readouterr().out.splitlines()[-1].split()
    assert total[0] == "total" and total[2:] == [str(SETTABLE_VALUES), str(WITH_DEFAULTS)]


def package_tree(path: Path) -> Path:
    """A directory that holds an empty ``src/tffilter`` package."""
    (path / "src" / "tffilter").mkdir(parents=True)
    (path / "src" / "tffilter" / "__init__.py").write_text("", encoding="utf-8")
    return path


WORKLOADS = ["ladder", "noise", "cli"]


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("passes", ["0", "-3"])
def test_compare_refuses_fewer_than_one_pass(workload, passes, tmp_path, capsys, monkeypatch):
    compare = load_tool("compare")
    monkeypatch.setattr(compare, "start_worker", lambda *args: pytest.fail("a worker was started"))
    tree = package_tree(tmp_path / "tree")
    with pytest.raises(SystemExit) as exc:
        compare.main([str(tree), str(tree), "--workload", workload, "--passes", passes])
    assert exc.value.code == 2
    assert "--passes must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("workload", WORKLOADS)
def test_compare_refuses_a_tree_without_the_package(workload, tmp_path, capsys, monkeypatch):
    compare = load_tool("compare")
    monkeypatch.setattr(compare, "start_worker", lambda *args: pytest.fail("a worker was started"))
    good = package_tree(tmp_path / "good")
    bare = tmp_path / "bare"
    bare.mkdir()
    for base, changed in ((bare, good), (good, bare)):
        with pytest.raises(SystemExit) as exc:
            compare.main([str(base), str(changed), "--workload", workload])
        assert exc.value.code == 2
        assert "holds no src/tffilter" in capsys.readouterr().err


def test_compare_runs_the_benchmark_ladders():
    # the 12 ops of perfbench's ladder workload, by the names it reports
    compare = load_tool("compare")
    names = [name for name, *_ in compare.Ladder.OPS]
    assert len(names) == len(set(names)) == 12
    assert names[:2] == ["gaussian_bt0.1_frequency_first", "gaussian_bt0.1_time_first"]
    assert names[-2:] == ["rectangular_bt0.8", "rectangular_bt4"]


class FakeWorker:
    """Stands in for a worker process of ``workload``, in this process and
    with no pinning: its ops run as ``workload.run`` and take 1 ms each, and
    its report is ``workload.report()``."""

    def __init__(self, workload):
        self.workload = workload
        self.stdin = self

    def close(self):
        pass

    def wait(self):
        return 0


def fake_workload(workload_class, **attributes):
    """A ``workload_class`` object that holds only ``attributes``: its
    ``__init__``, which imports the tree's package, is not run."""
    workload = workload_class.__new__(workload_class)
    workload.__dict__.update(attributes)
    return workload


def compare_fakes(compare, workload, make_workload, tmp_path, monkeypatch):
    """Exit code of a 2-pass ``compare.main`` of ``workload`` over two fake
    trees, whose workers hold ``make_workload(side)``."""
    sides = {package_tree(tmp_path / side): side for side in ("base", "changed")}

    def ask(worker, request):
        if not request:
            return worker.workload.report()
        for index, seed in zip(request["order"], request["seeds"]):
            worker.workload.run(index, seed)
        return [1e-3] * len(request["order"])

    monkeypatch.setattr(compare, "start_worker", lambda tree, name: FakeWorker(make_workload(sides[tree])))
    monkeypatch.setattr(compare, "ask", ask)
    argv = [str(tmp_path / "base"), str(tmp_path / "changed"), "--workload", workload, "--passes", "2"]
    return compare.main(argv)


def section(out: str, title: str) -> list[str]:
    """The rows that follow the line ``title:`` in ``out``."""
    lines = out.splitlines()
    start = lines.index(f"{title}:") + 1
    end = next((i for i in range(start, len(lines)) if not lines[i].startswith("  ")), len(lines))
    return lines[start:end]


@pytest.mark.parametrize(
    "base_levels, changed_levels, code",
    [
        ([64, 91], [64, 91], 0),
        ([64, 91, 128], [91, 128], 0),
        ([64, 91], [91, 128], 1),
        ([64, 91], [64, 91, 128], 1),
    ],
    ids=["same", "shorter-same-last-two", "other-last-two", "one-level-finer"],
)
def test_compare_fails_on_other_last_two_levels(base_levels, changed_levels, code, tmp_path, capsys, monkeypatch):
    # equal values are not enough: a tree whose ladders stop on other grids exits 1
    compare = load_tool("compare")
    levels = {"base": base_levels, "changed": changed_levels}

    def make_workload(side):
        grid = SimpleNamespace(resolutions=tuple(levels[side]), edge_ring_ratio=1e-20)
        ladder = SimpleNamespace(
            singular_values=np.array([1.0, 0.5]), total_power=1.25, parities=(1, -1), grid_report=grid,
            input_modes=(SimpleNamespace(values=np.ones(4, dtype=complex)),), output_modes=(),
        )
        return fake_workload(compare.Ladder, run=lambda index, seed: ladder)

    assert compare_fakes(compare, "ladder", make_workload, tmp_path, monkeypatch) == code
    out = capsys.readouterr().out
    rows = section(out, "grid levels of each op (the last two compared)")
    assert len(rows) == len(compare.Ladder.OPS)
    assert all(row.endswith("same" if code == 0 else "DIFFERENT") for row in rows)
    assert all(f"changed {tuple(changed_levels)}" in row for row in rows)
    assert section(out, "singular values") == ["  largest |difference| of a singular value: 0"]


@pytest.mark.parametrize("differ, code", [(False, 0), (True, 1)], ids=["same", "other-bytes"])
def test_compare_fails_on_other_cli_data_files(differ, code, tmp_path, capsys, monkeypatch):
    compare = load_tool("compare")

    def make_workload(side):
        out = tmp_path / f"out_{side}"
        out.mkdir()

        def run(index, seed):
            # every command writes its data file; with ``differ`` the two sides' snr.json differ
            name, _, suffix = compare.Cli.OPS[index]
            text = f"{name} {side if differ and name == 'snr' else 'data'}\n"
            (out / (name + suffix)).write_text(text, encoding="utf-8")

        return fake_workload(compare.Cli, out=out, run=run)

    assert compare_fakes(compare, "cli", make_workload, tmp_path, monkeypatch) == code
    rows = section(capsys.readouterr().out, "sha256 of the data files")
    verdicts = [row.split()[-1] for row in rows]
    assert [row.split()[0] for row in rows] == [name + suffix for name, _, suffix in compare.Cli.OPS]
    assert verdicts == ["same", "same", "same", "DIFFERENT" if differ else "same", "same", "same"]


@pytest.mark.parametrize("differ, code", [(False, 0), (True, 1)], ids=["same", "other-report"])
def test_compare_fails_on_other_noise_reports(differ, code, tmp_path, capsys, monkeypatch):
    import tffilter as tf

    compare = load_tool("compare")

    def make_workload(side):
        noise = 0.25 if differ and side == "changed" else 0.2

        def run(index, seed):
            if compare.Noise.OPS[index][0] == "correlation_gaussian":
                fields = ("times", "lags", "empirical", "analytic", "stderr")
                return SimpleNamespace(**{field: np.full(3, noise) for field in fields})
            return tf.EnergyReport(1.0 + noise, 1.0, noise, 0.01, 1.0 / noise, 2048, seed)

        return fake_workload(compare.Noise, np=np, tf=tf, run=run)

    assert compare_fakes(compare, "noise", make_workload, tmp_path, monkeypatch) == code
    out = capsys.readouterr().out
    assert section(out, "peak resident set of the worker")[0].split()[:2] == ["ru_maxrss", "base"]
    rows = section(out, f"sha256 of each op's report at seed {compare.Noise.DIGEST_SEED}")
    assert [row.split()[0] for row in rows] == [name for name, *_ in compare.Noise.OPS]
    assert all(row.endswith("DIFFERENT" if differ else "same") for row in rows)


def compare_checkout_with_itself(workload: str) -> str:
    """The printed lines of a one-pass ``compare`` of this checkout with itself."""
    checkout = Path(__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, str(TOOLS / "compare.py"), str(checkout), str(checkout), "--workload", workload,
         "--passes", "1"],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_compare_noise_of_a_checkout_with_itself():
    # the benchmark's three noise ops, one pass per side: equal reports, exit 0
    compare = load_tool("compare")
    out = compare_checkout_with_itself("noise")
    lines = out.splitlines()
    names = [name for name, *_ in compare.Noise.OPS]
    assert names == ["ensemble_gaussian", "ensemble_rectangular", "correlation_gaussian"]
    assert lines[0] == "noise: median of 1 passes per op, in ms (seed 1)"
    assert [line.split()[0] for line in lines[2:6]] == [*names, "sum"]
    assert section(out, "peak resident set of the worker")[0].split()[1] == "base"
    rows = section(out, "sha256 of each op's report at seed 12345")
    assert [row.split()[-1] for row in rows] == ["same"] * 3


def test_compare_ladder_of_a_checkout_with_itself():
    # the benchmark's 12 ladders, one pass per side: equal levels and digests, exit 0
    compare = load_tool("compare")
    out = compare_checkout_with_itself("ladder")
    names = [name for name, *_ in compare.Ladder.OPS]
    levels = section(out, "grid levels of each op (the last two compared)")
    assert [line.split()[0] for line in levels] == names
    assert all(line.endswith("same") for line in levels)
    digests = section(out, "sha256 of each op's SchmidtResult")
    assert [line.split()[0] for line in digests] == [*names, "every"]
    assert all(line.endswith("same") for line in digests)
    assert out.splitlines()[-1] == "  largest |difference| of a singular value: 0"
