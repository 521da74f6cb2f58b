"""The measuring scripts under ``tools/``: line counts and the three tree comparisons.

``code_lines`` reads a small package written here, and ``cold_cli``,
``ladder_ops`` and ``noise_ops`` are stopped by their argument checks.
``ladder_ops`` compares the grid levels of fake workers' ladders.  One short
``ladder_ops`` run and one short ``noise_ops`` run each compare this checkout
with itself in two worker processes.
"""

import importlib.util
import subprocess
import sys
from pathlib import Path

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


def test_cold_cli_refuses_zero_rounds(tmp_path, capsys):
    cold_cli = load_tool("cold_cli")
    tree = tmp_path / "tree"
    (tree / "src" / "tffilter").mkdir(parents=True)
    (tree / "src" / "tffilter" / "__init__.py").write_text("", encoding="utf-8")
    with pytest.raises(SystemExit) as exc:
        cold_cli.main([str(tree), str(tree), "--rounds", "0"])
    assert exc.value.code == 2
    assert "--rounds must be >= 1" in capsys.readouterr().err


def test_cold_cli_refuses_a_tree_without_the_package(tmp_path, capsys):
    cold_cli = load_tool("cold_cli")
    good = tmp_path / "good"
    (good / "src" / "tffilter").mkdir(parents=True)
    (good / "src" / "tffilter" / "__init__.py").write_text("", encoding="utf-8")
    bare = tmp_path / "bare"
    bare.mkdir()
    for base, changed in ((bare, good), (good, bare)):
        with pytest.raises(SystemExit) as exc:
            cold_cli.main([str(base), str(changed)])
        assert exc.value.code == 2
        assert "holds no src/tffilter" in capsys.readouterr().err


@pytest.mark.parametrize("passes", ["0", "-3"])
def test_ladder_ops_refuses_fewer_than_one_pass(passes, tmp_path, capsys, monkeypatch):
    ladder_ops = load_tool("ladder_ops")
    monkeypatch.setattr(ladder_ops, "start_worker", lambda tree: pytest.fail("a worker was started"))
    tree = tmp_path / "tree"
    (tree / "src" / "tffilter").mkdir(parents=True)
    (tree / "src" / "tffilter" / "__init__.py").write_text("", encoding="utf-8")
    with pytest.raises(SystemExit) as exc:
        ladder_ops.main([str(tree), str(tree), "--passes", passes])
    assert exc.value.code == 2
    assert "--passes must be >= 1" in capsys.readouterr().err


def test_ladder_ops_refuses_a_tree_without_the_package(tmp_path, capsys, monkeypatch):
    ladder_ops = load_tool("ladder_ops")
    monkeypatch.setattr(ladder_ops, "start_worker", lambda tree: pytest.fail("a worker was started"))
    good = tmp_path / "good"
    (good / "src" / "tffilter").mkdir(parents=True)
    (good / "src" / "tffilter" / "__init__.py").write_text("", encoding="utf-8")
    bare = tmp_path / "bare"
    bare.mkdir()
    for base, changed in ((bare, good), (good, bare)):
        with pytest.raises(SystemExit) as exc:
            ladder_ops.main([str(base), str(changed)])
        assert exc.value.code == 2
        assert "holds no src/tffilter" in capsys.readouterr().err


def test_ladder_ops_runs_the_benchmark_ladders():
    # the 12 ops of perfbench's ladder workload, by the names it reports
    ladder_ops = load_tool("ladder_ops")
    names = [name for name, *_ in ladder_ops.OPS]
    assert len(names) == len(set(names)) == 12
    assert names[:2] == ["gaussian_bt0.1_frequency_first", "gaussian_bt0.1_time_first"]
    assert names[-2:] == ["rectangular_bt0.8", "rectangular_bt4"]


def package_tree(path: Path) -> Path:
    """A directory that holds an empty ``src/tffilter`` package."""
    (path / "src" / "tffilter").mkdir(parents=True)
    (path / "src" / "tffilter" / "__init__.py").write_text("", encoding="utf-8")
    return path


@pytest.mark.parametrize("passes", ["0", "-3"])
def test_noise_ops_refuses_fewer_than_one_pass(passes, tmp_path, capsys, monkeypatch):
    noise_ops = load_tool("noise_ops")
    monkeypatch.setattr(noise_ops, "start_worker", lambda tree: pytest.fail("a worker was started"))
    tree = package_tree(tmp_path / "tree")
    with pytest.raises(SystemExit) as exc:
        noise_ops.main([str(tree), str(tree), "--passes", passes])
    assert exc.value.code == 2
    assert "--passes must be >= 1" in capsys.readouterr().err


def test_noise_ops_refuses_a_tree_without_the_package(tmp_path, capsys, monkeypatch):
    noise_ops = load_tool("noise_ops")
    monkeypatch.setattr(noise_ops, "start_worker", lambda tree: pytest.fail("a worker was started"))
    good = package_tree(tmp_path / "good")
    bare = tmp_path / "bare"
    bare.mkdir()
    for base, changed in ((bare, good), (good, bare)):
        with pytest.raises(SystemExit) as exc:
            noise_ops.main([str(base), str(changed)])
        assert exc.value.code == 2
        assert "holds no src/tffilter" in capsys.readouterr().err


def test_noise_ops_compares_a_checkout_with_itself():
    # the benchmark's three noise ops, one pass per side: equal reports, exit 0
    noise_ops = load_tool("noise_ops")
    assert noise_ops.OPS == ("ensemble_gaussian", "ensemble_rectangular", "correlation_gaussian")
    checkout = Path(__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, str(TOOLS / "noise_ops.py"), str(checkout), str(checkout), "--passes", "1"],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "median of 1 passes per op, in ms (seed 1)"
    assert [line.split()[0] for line in lines[2:5]] == list(noise_ops.OPS)
    assert lines[5].startswith("peak RSS of each worker: base ")
    assert [line.split()[-1] for line in lines[7:10]] == ["same"] * 3


class FakeWorker:
    """Stands in for a ladder_ops worker process: every op takes 1 ms, and
    every op's ladder is [1.0, 0.5] on ``levels``."""

    def __init__(self, levels):
        self.levels = levels
        self.stdin = self

    def close(self):
        pass

    def wait(self, timeout=None):
        return 0


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
def test_ladder_ops_fails_on_other_last_two_levels(
    base_levels, changed_levels, code, tmp_path, capsys, monkeypatch
):
    # equal digests are not enough: a tree whose ladders stop on other grids exits 1
    ladder_ops = load_tool("ladder_ops")
    levels = {"base": base_levels, "changed": changed_levels}
    trees = {package_tree(tmp_path / side): side for side in levels}
    monkeypatch.setattr(ladder_ops, "start_worker", lambda tree: FakeWorker(levels[trees[tree]]))

    def ask(worker, request):
        if request.get("values"):
            return [[[1.0, 0.5]] * len(ladder_ops.OPS), [worker.levels] * len(ladder_ops.OPS)]
        return [1e-3] * len(request["order"])

    monkeypatch.setattr(ladder_ops, "ask", ask)
    assert ladder_ops.main([str(tmp_path / "base"), str(tmp_path / "changed"), "--passes", "2"]) == code
    out = capsys.readouterr().out
    assert out.count("same last two" if code == 0 else "DIFFERENT") == len(ladder_ops.OPS)
    assert f"changed {tuple(changed_levels)}" in out


def test_ladder_ops_compares_a_checkout_with_itself():
    # the benchmark's 12 ladders, one pass per side: equal levels and digests, exit 0
    ladder_ops = load_tool("ladder_ops")
    checkout = Path(__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, str(TOOLS / "ladder_ops.py"), str(checkout), str(checkout), "--passes", "1"],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    ops = len(ladder_ops.OPS)
    assert lines[2 + ops + 1] == "grid levels of each op:"
    levels = lines[2 + ops + 2: 2 + 2 * ops + 2]
    assert [line.split()[0] for line in levels] == [name for name, *_ in ladder_ops.OPS]
    assert all(line.endswith("same last two") for line in levels)
    assert lines[-1] == "largest |difference| of a singular value: 0"
