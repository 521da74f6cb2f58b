"""The measuring scripts under ``tools/``: line counts and the two-tree comparison.

``code_lines`` reads a small package written here.  ``compare`` is stopped by
its argument checks on every workload, offers exactly the benchmark's
workloads, and its workers send exactly the op names of
``perfbench/worker.py``'s workloads.  It runs on fake workers that stand in
for two trees: workers that name other ops, ``ladder`` workers whose ladders
stop on other grid levels, ``noise`` and ``cli`` workers whose outputs differ,
and workers whose results agree but whose accuracy checks do not.  One short
``ladder`` run and one short ``noise`` run each compare this checkout with
itself in two worker processes.
"""

import dataclasses
import importlib.util
import json
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

CHECKOUT = Path(__file__).resolve().parents[1]
TOOLS = CHECKOUT / "tools"
PERFBENCH = CHECKOUT / "perfbench"


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


@pytest.fixture
def perfbench(tmp_path, monkeypatch):
    """``perfbench/worker.py``, loaded from a scratch directory, which the
    ``cli`` workload writes its data files under."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spec = importlib.util.spec_from_file_location("perfbench_worker", PERFBENCH / "worker.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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


def test_compare_offers_the_benchmark_workloads(perfbench):
    assert sorted(load_tool("compare").WORKLOADS) == sorted(perfbench.WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_compare_times_the_benchmark_ops(workload, perfbench):
    # a worker of this checkout sends the op names of perfbench's workload at
    # the run's seed, and the parent times exactly those ops, by index
    compare = load_tool("compare")
    proc = compare.start_worker(CHECKOUT, workload, 7)
    names, _ = proc.communicate(timeout=120)
    assert proc.returncode == 0
    assert json.loads(names) == [op.name for op in perfbench.WORKLOADS[workload](7).ops]


def test_compare_refuses_workers_that_name_other_ops(tmp_path, capsys, monkeypatch):
    compare = load_tool("compare")
    ops = {"base": ["a", "b"], "changed": ["a", "c"]}
    with pytest.raises(SystemExit) as exc:
        compare_fakes(compare, "ladder", lambda side: fake_workload(ops[side], None), tmp_path, monkeypatch)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and "the two trees name other ops" in err


class FakeWorker:
    """Stands in for a worker process, in this process and with no pinning.
    It sends the op names of ``workload``, answers a timing request with 1 ms
    per op without running them, and a report request with
    ``compare.report(workload)``."""

    def __init__(self, compare, workload):
        self.compare, self.workload = compare, workload
        self.lines = [json.dumps([op.name for op in workload.ops])]
        self.stdin = self.stdout = self

    def write(self, line):
        request = json.loads(line)
        reply = [1e-3] * len(request["order"]) if request else self.compare.report(self.workload)
        self.lines.append(json.dumps(reply))

    def readline(self):
        return self.lines.pop(0) + "\n"

    def flush(self):
        pass

    def close(self):
        pass

    def wait(self):
        return 0


def fake_workload(names, run, replays=None):
    """A workload of ops ``names``: op ``name`` returns ``run(name)`` and
    passes its check; with ``replays`` it has ``replay_checks``."""
    ops = [SimpleNamespace(name=name, run=lambda op_id, name=name: run(name), check=lambda result: None)
           for name in names]
    workload = SimpleNamespace(ops=ops)
    if replays is not None:
        workload.replay_checks = lambda: list(replays)
    return workload


def compare_fakes(compare, workload, make_workload, tmp_path, monkeypatch):
    """Exit code of a 2-pass ``compare.main`` of ``workload`` over two fake
    trees, whose workers hold ``make_workload(side)``."""
    sides = {package_tree(tmp_path / side): side for side in ("base", "changed")}
    monkeypatch.setattr(compare, "start_worker",
                        lambda tree, name, seed: FakeWorker(compare, make_workload(sides[tree])))
    argv = [str(tmp_path / "base"), str(tmp_path / "changed"), "--workload", workload, "--passes", "2"]
    return compare.main(argv)


def section(out: str, title: str) -> list[str]:
    """The rows that follow the line ``title:`` in ``out``."""
    lines = out.splitlines()
    start = lines.index(f"{title}:") + 1
    end = next((i for i in range(start, len(lines)) if not lines[i].startswith("  ")), len(lines))
    return lines[start:end]


@pytest.fixture(scope="module")
def ladder():
    import tffilter as tf

    return tf.decompose_filter(tf.gaussian_sif(0.5, 1.0), keep=2)


LADDER_OPS = ["gaussian_bt0.5_frequency_first", "rectangular_bt4"]


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
def test_compare_fails_on_other_last_two_levels(base_levels, changed_levels, code, ladder, tmp_path, capsys,
                                                monkeypatch):
    # equal values are not enough: a tree whose ladders stop on other grids exits 1
    compare = load_tool("compare")
    levels = {"base": base_levels, "changed": changed_levels}

    def make_workload(side):
        grid = dataclasses.replace(ladder.grid_report, resolutions=tuple(levels[side]))
        return fake_workload(LADDER_OPS, lambda name: dataclasses.replace(ladder, grid_report=grid))

    assert compare_fakes(compare, "ladder", make_workload, tmp_path, monkeypatch) == code
    out = capsys.readouterr().out
    rows = section(out, "grid levels of each op (the last two compared)")
    assert [row.split()[0] for row in rows] == LADDER_OPS
    assert all(row.endswith("same" if code == 0 else "DIFFERENT") for row in rows)
    assert all(f"changed {tuple(changed_levels)}" in row for row in rows)
    assert section(out, "singular values") == ["  largest |difference| of a singular value: 0"]


CLI_OPS = {"decompose": ".csv", "snr": ".json", "qkd": ".csv"}


@pytest.mark.parametrize("differ, code", [(False, 0), (True, 1)], ids=["same", "other-bytes"])
def test_compare_fails_on_other_cli_data_files(differ, code, tmp_path, capsys, monkeypatch):
    compare = load_tool("compare")

    def make_workload(side):
        out = tmp_path / f"out_{side}"
        out.mkdir()

        def run(name):
            # every command writes its data file; with ``differ`` the two sides' snr.json differ
            path = out / (name + CLI_OPS[name])
            path.write_text(f"{name} {side if differ and name == 'snr' else 'data'}\n", encoding="utf-8")
            return str(path)

        return fake_workload(CLI_OPS, run)

    assert compare_fakes(compare, "cli", make_workload, tmp_path, monkeypatch) == code
    rows = section(capsys.readouterr().out, "sha256 of each op's result at seed 12345")
    assert [row.split()[0] for row in rows] == [*CLI_OPS, "every"]
    other = "DIFFERENT" if differ else "same"
    assert [row.split()[-1] for row in rows] == ["same", other, "same", other]


NOISE_OPS = ["ensemble_gaussian", "ensemble_rectangular", "correlation_gaussian"]


def noise_workload(noise: float, replays=(None, None)):
    """A fake ``noise`` workload whose reports all hold ``noise``."""
    import tffilter as tf

    def run(name):
        if name == "correlation_gaussian":
            arrays = {field: np.full(3, noise) for field in ("times", "lags", "empirical", "analytic", "stderr")}
            return tf.CorrelationSurface(**arrays, trials=2048)
        return tf.EnergyReport(1.0 + noise, 1.0, noise, 0.01, 1.0 / noise, 2048, 12345)

    return fake_workload(NOISE_OPS, run, replays=replays)


@pytest.mark.parametrize("differ, code", [(False, 0), (True, 1)], ids=["same", "other-report"])
def test_compare_fails_on_other_noise_reports(differ, code, tmp_path, capsys, monkeypatch):
    compare = load_tool("compare")

    def make_workload(side):
        return noise_workload(0.25 if differ and side == "changed" else 0.2)

    assert compare_fakes(compare, "noise", make_workload, tmp_path, monkeypatch) == code
    out = capsys.readouterr().out
    assert section(out, "peak resident set of the worker")[0].split()[:2] == ["ru_maxrss", "base"]
    rows = section(out, "sha256 of each op's result at seed 12345")
    assert [row.split()[0] for row in rows] == [*NOISE_OPS, "every"]
    assert all(row.endswith("DIFFERENT" if differ else "same") for row in rows)
    checks = section(out, "accuracy checks at seed 12345")
    assert [row.split()[-1] for row in checks] == ["same"] * 5


@pytest.mark.parametrize("where", ["op", "replay"])
def test_compare_fails_on_another_accuracy_verdict(where, tmp_path, capsys, monkeypatch):
    # equal results are not enough: a side whose check fails exits 1
    compare = load_tool("compare")
    wrong = "noise energy 0.25 vs 0.2"

    def make_workload(side):
        if side == "base":
            return noise_workload(0.2)
        if where == "replay":
            return noise_workload(0.2, replays=(None, wrong))
        workload = noise_workload(0.2)
        workload.ops[1].check = lambda result: wrong
        return workload

    assert compare_fakes(compare, "noise", make_workload, tmp_path, monkeypatch) == 1
    out = capsys.readouterr().out
    assert all(row.endswith("same") for row in section(out, "sha256 of each op's result at seed 12345"))
    checks = section(out, "accuracy checks at seed 12345")
    assert [row.split()[0] for row in checks] == [*NOISE_OPS, "replay", "replay"]
    differs = 4 if where == "replay" else 1
    assert [row.endswith("DIFFERENT") for row in checks] == [i == differs for i in range(5)]
    assert checks[differs].split("changed ")[1] == f"{wrong}  DIFFERENT"


def compare_checkout_with_itself(workload: str) -> str:
    """The printed lines of a one-pass ``compare`` of this checkout with itself."""
    proc = subprocess.run(
        [sys.executable, str(TOOLS / "compare.py"), str(CHECKOUT), str(CHECKOUT), "--workload", workload,
         "--passes", "1"],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def assert_all_same(out: str, title: str, names: list[str]) -> None:
    rows = section(out, title)
    assert [row.split()[0] for row in rows] == names
    assert all(row.endswith("same") for row in rows)


def test_compare_noise_of_a_checkout_with_itself():
    # the benchmark's three noise ops, one pass per side: passing checks and equal reports, exit 0
    out = compare_checkout_with_itself("noise")
    lines = out.splitlines()
    assert lines[0] == "noise: median of 1 passes per op, in ms (seed 1)"
    assert [line.split()[0] for line in lines[2:6]] == [*NOISE_OPS, "sum"]
    assert section(out, "peak resident set of the worker")[0].split()[1] == "base"
    assert_all_same(out, "accuracy checks at seed 12345", [*NOISE_OPS, "replay", "replay"])
    assert all(row.endswith("base ok  changed ok  same") for row in section(out, "accuracy checks at seed 12345"))
    assert_all_same(out, "sha256 of each op's result at seed 12345", [*NOISE_OPS, "every"])


def test_compare_ladder_of_a_checkout_with_itself(perfbench):
    # the benchmark's 12 ladders, one pass per side: equal levels and digests, exit 0
    names = [op.name for op in perfbench.WORKLOADS["ladder"](1).ops]
    out = compare_checkout_with_itself("ladder")
    assert_all_same(out, "accuracy checks at seed 12345", names)
    assert all(row.endswith("base ok  changed ok  same") for row in section(out, "accuracy checks at seed 12345"))
    assert_all_same(out, "sha256 of each op's result at seed 12345", [*names, "every"])
    assert_all_same(out, "grid levels of each op (the last two compared)", names)
    assert out.splitlines()[-1] == "  largest |difference| of a singular value: 0"
