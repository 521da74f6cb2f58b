"""Command-line surface: formats, exit codes, reproducibility."""

import ast
import contextlib
import csv
import importlib
import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tffilter
import tffilter.cli
from tffilter.cli import main, parse_bt
from tffilter.gaussian import gaussian_sif, hermite_gaussian_mode_set
from tffilter.qkd import (
    QPG_REFERENCE_POINTS,
    FilterCharacteristic,
    normalized_key_rate,
    optimize_over_efficiency,
)
from tffilter.slepian import slepian_tradeoff


def run(*argv) -> int:
    return main(list(argv))


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


class TestParseBt:
    def test_plain_real(self):
        assert parse_bt("0.5") == 0.5

    def test_two_pi_literal(self):
        assert parse_bt("2.3/2pi") == pytest.approx(2.3 / (2.0 * math.pi))

    def test_case_and_spaces(self):
        assert parse_bt(" 0.6 / 2PI ") == pytest.approx(0.6 / (2.0 * math.pi))

    def test_garbage_raises_usage(self):
        from tffilter.cli import UsageError

        with pytest.raises(UsageError):
            parse_bt("half")


class TestDecompose:
    def test_gaussian_known_leading_value(self, tmp_path):
        out = tmp_path / "g.csv"
        rc = run(
            "decompose", "--filter", "gaussian", "--bt", "0.5",
            "--n-modes", "10", "--out", str(out),
        )
        assert rc == 0
        header, rows = read_csv(out)
        assert header[0].startswith("n")
        assert "lambda_n" in header[1]
        assert float(rows[0][1]) == pytest.approx(0.643594252906, abs=1e-9)
        cums = [float(r[3]) for r in rows]
        assert all(b >= a for a, b in zip(cums, cums[1:]))

    def test_slepian_passthrough(self, tmp_path):
        out = tmp_path / "s.csv"
        rc = run(
            "decompose", "--filter", "slepian", "--bt", "0.6366",
            "--n-modes", "5", "--out", str(out),
        )
        assert rc == 0
        _, rows = read_csv(out)
        from tffilter.slepian import slepian_singular_values

        lam = slepian_singular_values(0.5 * math.pi * 0.6366, 5)
        got = np.array([float(r[1]) for r in rows])
        assert np.max(np.abs(got - lam)) < 1e-11

    def test_two_pi_caption_form(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        run("decompose", "--filter", "gaussian", "--bt", "0.6/2pi", "--out", str(a))
        run(
            "decompose", "--filter", "gaussian",
            "--bt", str(0.6 / (2.0 * math.pi)), "--out", str(b),
        )
        assert a.read_bytes() == b.read_bytes()

    def test_missing_bt_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            run("decompose", "--filter", "gaussian")
        assert exc.value.code == 2

    def test_bad_bt_returns_2(self):
        assert run("decompose", "--filter", "gaussian", "--bt", "x") == 2

    def test_slepian_mode_cap_returns_3(self):
        assert (
            run("decompose", "--filter", "slepian", "--bt", "1.0", "--n-modes", "80")
            == 3
        )

    def test_lf_line_endings(self, tmp_path):
        out = tmp_path / "g.csv"
        run("decompose", "--filter", "gaussian", "--bt", "0.5", "--out", str(out))
        raw = out.read_bytes()
        assert b"\r" not in raw
        assert raw.endswith(b"\n")


class TestTradeoff:
    def test_gaussian_rowwise_identity(self, tmp_path):
        out = tmp_path / "t.csv"
        rc = run(
            "tradeoff", "--filter", "gaussian", "--bt-min", "0.01/2pi",
            "--bt-max", "60/2pi", "--points", "40", "--out", str(out),
        )
        assert rc == 0
        _, rows = read_csv(out)
        data = [r for r in rows if r[0] == "gaussian"]
        for r in data:
            eta, xi = float(r[2]), float(r[3])
            assert abs(xi - (1.0 - eta**2)) < 1e-12

    def test_slepian_bt_identity(self, tmp_path):
        out = tmp_path / "t.csv"
        run(
            "tradeoff", "--filter", "slepian", "--bt-min", "0.1",
            "--bt-max", "3.0", "--points", "12", "--out", str(out),
        )
        _, rows = read_csv(out)
        data = [r for r in rows if r[0] == "slepian"]
        for r in data:
            bt, eta, xi = float(r[1]), float(r[2]), float(r[3])
            assert abs(xi * bt - eta) < 1e-5

    def test_reference_row_present(self, tmp_path):
        out = tmp_path / "t.csv"
        run(
            "tradeoff", "--filter", "gaussian", "--bt-min", "0.5",
            "--bt-max", "1.0", "--points", "3", "--out", str(out),
        )
        _, rows = read_csv(out)
        ref = [r for r in rows if r[0] == "qpg_reference"]
        assert len(ref) == 1
        assert float(ref[0][2]) == 0.99 and float(ref[0][3]) == 0.98
        assert ref[0][1] == ""  # no BT for a point characteristic

    def test_single_point_sweep(self, tmp_path):
        out = tmp_path / "t.csv"
        rc = run(
            "tradeoff", "--filter", "slepian", "--bt-min", "0.8",
            "--bt-max", "0.8", "--points", "1", "--out", str(out),
        )
        assert rc == 0
        _, rows = read_csv(out)
        assert len([r for r in rows if r[0] == "slepian"]) == 1

    def test_bad_range_returns_2(self):
        assert (
            run("tradeoff", "--filter", "gaussian", "--bt-min", "2", "--bt-max", "1")
            == 2
        )


class TestModes:
    def test_slepian_ground_mode_even_single_lobe(self, tmp_path):
        out = tmp_path / "m.csv"
        rc = run(
            "modes", "--filter", "slepian", "--c", "1.25",
            "--mode", "0", "--out", str(out),
        )
        assert rc == 0
        _, rows = read_csv(out)
        t = np.array([float(r[0]) for r in rows])
        re = np.array([float(r[1]) for r in rows])
        mid = re[np.argmin(np.abs(t))]
        assert mid == np.max(np.abs(re))  # peak at center
        assert np.max(np.abs(re - re[::-1])) < 1e-10  # even
        # single-lobed across the gate; the band-limited extension is allowed
        # its sinc-like sidelobes beyond it
        inside = np.abs(t) <= 1.0
        assert np.all(re[inside] > 0)

    def test_gaussian_first_mode_one_crossing(self, tmp_path):
        out = tmp_path / "m.csv"
        rc = run(
            "modes", "--filter", "gaussian", "--bt", "0.5",
            "--mode", "1", "--out", str(out),
        )
        assert rc == 0
        _, rows = read_csv(out)
        re = np.array([float(r[1]) for r in rows])
        im = np.array([float(r[2]) for r in rows])
        prof = im if np.max(np.abs(im)) > np.max(np.abs(re)) else re
        keep = np.abs(prof) > 1e-6 * np.max(np.abs(prof))
        signs = np.sign(prof[keep])
        assert np.sum(np.diff(signs) != 0) == 1

    @pytest.mark.parametrize("mode, which", [(0, "input"), (60, "output")])
    def test_gaussian_csv_is_the_library_mode_set(self, tmp_path, mode, which):
        out = tmp_path / "m.csv"
        rc = run(
            "modes", "--filter", "gaussian", "--bt", "0.5", "--mode", str(mode),
            "--which", which, "--out", str(out),
        )
        assert rc == 0
        ref = hermite_gaussian_mode_set(gaussian_sif(0.5, 1.0), None, mode + 1, which)[mode]
        _, rows = read_csv(out)
        got = np.array([[float(v) for v in r] for r in rows])
        assert np.array_equal(got[:, 0], ref.axis.points)
        assert np.array_equal(got[:, 1], ref.values.real)
        assert np.array_equal(got[:, 2], ref.values.imag)

    def test_huge_mode_index_returns_3(self):
        assert run("modes", "--filter", "slepian", "--c", "1.25", "--mode", "500") == 3

    @pytest.mark.filterwarnings("ignore::UserWarning")
    def test_unresolvable_mode_returns_3(self):
        # c = 0.05 resolves only a handful of concentrations above the floor
        assert run("modes", "--filter", "slepian", "--c", "0.05", "--mode", "12") == 3

    def test_slepian_needs_exactly_one_shape_flag(self):
        assert run("modes", "--filter", "slepian", "--mode", "0") == 2
        assert (
            run(
                "modes", "--filter", "slepian", "--c", "1.0",
                "--bt", "0.5", "--mode", "0",
            )
            == 2
        )

    def test_gaussian_rejects_c(self):
        assert run("modes", "--filter", "gaussian", "--c", "1.0", "--mode", "0") == 2


class TestSnr:
    def test_gaussian_report_fields(self, tmp_path):
        out = tmp_path / "r.json"
        rc = run(
            "snr", "--filter", "gaussian", "--bt", "0.5", "--trials", "200",
            "--seed", "7", "--out", str(out),
        )
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["snr_analytic"] == pytest.approx(8.2842712474619, rel=1e-9)
        emp = payload["empirical"]
        assert emp["trials"] == 200 and emp["seed"] == 7
        # 200 trials keeps this loose; the tight 3-sigma check runs in acceptance
        assert emp["snr_empirical"] == pytest.approx(payload["snr_analytic"], rel=0.2)

    def test_slepian_report_fields(self, tmp_path):
        out = tmp_path / "r.json"
        rc = run(
            "snr", "--filter", "slepian", "--bt", "2", "--trials", "3000",
            "--seed", "7", "--out", str(out),
        )
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["xi_analytic"] == pytest.approx(slepian_tradeoff(2.0)[1], rel=1e-12)
        assert payload["snr_analytic"] == pytest.approx(10.0 * payload["xi_analytic"], rel=1e-12)
        emp = payload["empirical"]
        assert emp["trials"] == 3000 and emp["seed"] == 7
        # <W_noise> = N_y * BT holds for the brick-wall pair as well
        assert abs(emp["w_noise_mean"] - 0.1 * 2.0) < 3.0 * emp["w_noise_stderr"]
        assert emp["snr_empirical"] == pytest.approx(payload["snr_analytic"], rel=0.05)

    def test_rerun_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = (
            "snr", "--filter", "gaussian", "--bt", "0.5",
            "--trials", "100", "--seed", "3",
        )
        run(*args, "--out", str(a))
        run(*args, "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_zero_trials_returns_2(self):
        assert (
            run(
                "snr", "--filter", "gaussian", "--bt", "0.5",
                "--trials", "0", "--seed", "1",
            )
            == 2
        )

    def test_seed_is_required(self):
        with pytest.raises(SystemExit) as exc:
            run("snr", "--filter", "gaussian", "--bt", "0.5", "--trials", "10")
        assert exc.value.code == 2

    def test_timestamp_only_in_manifest(self, tmp_path):
        out = tmp_path / "r.json"
        run(
            "snr", "--filter", "gaussian", "--bt", "0.5", "--trials", "50",
            "--seed", "2", "--out", str(out),
        )
        assert "timestamp" not in json.loads(out.read_text())
        manifest = json.loads((tmp_path / "r.json.manifest.json").read_text())
        assert "timestamp" in manifest
        assert manifest["command"] == "snr"
        assert manifest["seed"] == 2
        assert manifest["artifact_version"]

    def test_noiseless_run_writes_strict_json(self, tmp_path):
        # the infinite SNRs of a noiseless run are spelled as the CSV cells spell them
        out = tmp_path / "r.json"
        rc = run(
            "snr", "--filter", "gaussian", "--bt", "0.5", "--trials", "20",
            "--seed", "1", "--noise-psd", "0", "--out", str(out),
        )
        assert rc == 0

        def refuse(token):
            raise ValueError(f"non-standard JSON constant {token}")

        payload = json.loads(out.read_text(), parse_constant=refuse)
        assert payload["snr_analytic"] == "inf"
        assert payload["empirical"]["snr_empirical"] == "inf"
        assert payload["empirical"]["w_noise_mean"] == 0.0

    @pytest.mark.parametrize("psd", ["1e307", "1e308"])
    def test_noise_psd_near_the_float_limit_writes_finite_json(self, psd, tmp_path):
        # the mean noise energy, about N_y BT, is representable, so it is
        # reported, though sqrt(N_y / 2 dt) per sample would not be
        out = tmp_path / "r.json"
        rc = run(
            "snr", "--filter", "gaussian", "--bt", "0.5", "--trials", "20",
            "--seed", "1", "--noise-psd", psd, "--out", str(out),
        )
        assert rc == 0

        def refuse(token):
            raise ValueError(f"non-standard JSON constant {token}")

        emp = json.loads(out.read_text(), parse_constant=refuse)["empirical"]
        for key in ("w_total_mean", "w_noise_mean", "w_noise_stderr", "snr_empirical"):
            assert isinstance(emp[key], float) and np.isfinite(emp[key]), key
        assert 0.1 * float(psd) < emp["w_noise_mean"] < float(psd)


class TestQkd:
    def test_point_noiseless_rate(self, tmp_path):
        out = tmp_path / "q.csv"
        rc = run(
            "qkd", "--filter", "point:0.99,0.98", "--ny-min", "0",
            "--ny-max", "0", "--points", "1", "--out", str(out),
        )
        assert rc == 0
        _, rows = read_csv(out)
        assert len(rows) == 1
        assert float(rows[0][4]) == pytest.approx(0.9801, rel=1e-12)

    def test_all_families_present(self, tmp_path):
        out = tmp_path / "q.csv"
        rc = run(
            "qkd", "--filter", "all", "--ny-min", "1e-3", "--ny-max", "0.1",
            "--points", "3", "--optimize", "--out", str(out),
        )
        assert rc == 0
        _, rows = read_csv(out)
        fams = {r[0] for r in rows}
        assert fams == {
            "gaussian",
            "slepian",
            "point_0.99_0.98",
            "point_0.9999_0.9999",
        }

    def test_optimized_ordering(self, tmp_path):
        out = tmp_path / "q.csv"
        run(
            "qkd", "--filter", "all", "--ny-min", "1e-3", "--ny-max", "0.05",
            "--points", "4", "--optimize", "--out", str(out),
        )
        _, rows = read_csv(out)
        by_family = {}
        for r in rows:
            by_family.setdefault(r[0], []).append((float(r[1]), float(r[3])))
        for (ns, rs), (ng, rg) in zip(by_family["slepian"], by_family["gaussian"]):
            assert ns == ng
            assert rs >= rg - 1e-12

    def test_log_column_tracks_rate(self, tmp_path):
        out = tmp_path / "q.csv"
        run(
            "qkd", "--filter", "gaussian", "--ny-min", "0.01", "--ny-max", "0.01",
            "--points", "1", "--out", str(out),
        )
        _, rows = read_csv(out)
        for r in rows:
            rate, lg = float(r[4]), float(r[5])
            if rate > 0:
                assert lg == pytest.approx(np.log10(rate), rel=1e-9)
            else:
                assert lg == -np.inf

    @pytest.mark.parametrize("optimize", [False, True])
    def test_all_rows_are_the_library_values(self, tmp_path, optimize):
        out = tmp_path / "q.csv"
        flags = ["--optimize"] if optimize else []
        rc = run(
            "qkd", "--filter", "all", "--ny-min", "1e-3", "--ny-max", "0.5",
            "--points", "3", *flags, "--out", str(out),
        )
        assert rc == 0
        nys = np.geomspace(1e-3, 0.5, 3)
        families = [FilterCharacteristic.gaussian(), FilterCharacteristic.slepian()] + [
            FilterCharacteristic.fixed_point(eta, xi) for eta, xi in QPG_REFERENCE_POINTS
        ]
        want = []
        for fc in families:
            if optimize:
                for ny, res in zip(nys, optimize_over_efficiency(fc, nys)):
                    want.append([ny, res.eta, res.rate, res.no_key])
            else:
                etas, xis = fc.grid_points()
                for ny in nys:
                    rates = np.atleast_1d(normalized_key_rate(etas, xis, ny))
                    want.extend([ny, *cells] for cells in zip(etas, xis, rates))
        _, rows = read_csv(out)
        if optimize:
            got = [[float(r[1]), float(r[2]), float(r[3]), r[5] == "1"] for r in rows]
        else:
            got = [[float(v) for v in r[1:5]] for r in rows]
        assert got == want

    def test_overflowing_noise_reads_no_key(self, tmp_path):
        # (1 + n_y/xi)^2 overflows here; the rate is 0, not inf * 0
        out = tmp_path / "q.csv"
        noise = ["--ny-min", "1e200", "--ny-max", "1e308", "--points", "2"]
        assert run("qkd", "--filter", "point:0.9,0.9", *noise, "--optimize", "--out", str(out)) == 0
        _, rows = read_csv(out)
        assert [r[3:] for r in rows] == [["0.0", "-inf", "1"]] * 2
        assert run("qkd", "--filter", "all", *noise, "--out", str(out)) == 0
        _, rows = read_csv(out)
        assert {tuple(r[4:]) for r in rows} == {("0.0", "-inf")}

    def test_bad_point_spec_returns_2(self):
        assert run("qkd", "--filter", "point:0.99", "--ny-min", "0", "--ny-max", "1") == 2

    def test_negative_ny_returns_2(self):
        assert (
            run("qkd", "--filter", "gaussian", "--ny-min", "-1", "--ny-max", "1") == 2
        )

    def test_rerun_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = (
            "qkd", "--filter", "slepian", "--ny-min", "1e-3",
            "--ny-max", "0.1", "--points", "5", "--optimize",
        )
        run(*args, "--out", str(a))
        run(*args, "--out", str(b))
        assert a.read_bytes() == b.read_bytes()


_README_COMMANDS = {
    "decompose": (
        ("decompose", "--filter", "gaussian", "--bt", "0.5", "--n-modes", "10"),
        {"filter": "gaussian", "bt": "0.5", "n_modes": 10},
        None,
        {"backend": "analytic-mehler"},
    ),
    "tradeoff": (
        ("tradeoff", "--filter", "slepian", "--bt-min", "0.01", "--bt-max", "10",
         "--points", "80"),
        {"filter": "slepian", "bt_min": "0.01", "bt_max": "10", "points": 80},
        None,
        {"spacing": "log", "includes": "qpg_reference row"},
    ),
    "modes": (
        ("modes", "--filter", "slepian", "--c", "3.0", "--mode", "0"),
        {"filter": "slepian", "bt": None, "c": 3.0, "mode": 0, "which": "input"},
        None,
        {
            "axis": {"start": -4.0, "step": 0.00390625, "count": 2049},
            "normalization": "gate interval mapped to [-1, 1]",
        },
    ),
    "snr": (
        ("snr", "--filter", "gaussian", "--bt", "0.5", "--trials", "10000", "--seed", "7"),
        {
            "filter": "gaussian", "bt": "0.5", "signal_energy": 1.0, "noise_psd": 0.1,
            "trials": 10000,
        },
        7,
        {"time_axis": {"start": -5.333333333333333, "step": 0.08333333333333333, "count": 128}},
    ),
    "qkd": (
        ("qkd", "--filter", "all", "--ny-min", "1e-4", "--ny-max", "1", "--points", "50",
         "--optimize"),
        {"filter": "all", "ny_min": 1e-4, "ny_max": 1.0, "points": 50, "optimize": True},
        None,
        {"ny_spacing": "log", "eta_grid_points": 199},
    ),
}


class TestManifest:
    def test_sidecar_next_to_every_out_file(self, tmp_path):
        # the README commands, with the manifest fields their runs have always written
        for command, (argv, parameters, seed, grid_report) in _README_COMMANDS.items():
            out = tmp_path / command
            assert run(*argv, "--out", str(out)) == 0
            manifest = json.loads((tmp_path / f"{command}.manifest.json").read_text())
            assert set(manifest) == {
                "command", "parameters", "seed", "grid_report", "warnings", "artifact_version",
                "timestamp",
            }
            assert manifest["command"] == command
            assert manifest["parameters"] == parameters
            assert manifest["seed"] == seed
            assert manifest["grid_report"] == grid_report
            assert manifest["warnings"] == []
            assert manifest["artifact_version"] == tffilter.__version__

    def test_warnings_are_recorded_and_still_shown(self, tmp_path):
        # 20 brick-wall modes at BT 4: the solver warns that six of them are
        # unresolvable; the run still succeeds, stderr shows the warning as
        # before, and the manifest records it without a source path
        out = tmp_path / "ladder.csv"
        argv = ["decompose", "--filter", "slepian", "--bt", "4", "--n-modes", "20"]
        env = dict(os.environ, PYTHONPATH=str(Path(tffilter.__file__).resolve().parents[1]))
        proc = subprocess.run(
            [sys.executable, "-m", "tffilter.cli", *argv, "--out", str(out)],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        message = "concentrations beyond index 13 are below 1e-14 and numerically unresolvable"
        assert f"UserWarning: {message}" in proc.stderr
        assert proc.stderr.count("UserWarning") == 1
        manifest = json.loads((tmp_path / "ladder.csv.manifest.json").read_text())
        assert manifest["warnings"] == [{"category": "UserWarning", "message": message}]
        # in process the warning still reaches the caller's filters, and the data is the same
        again = tmp_path / "again.csv"
        with pytest.warns(UserWarning, match="index 13"):
            assert run(*argv, "--out", str(again)) == 0
        assert again.read_bytes() == out.read_bytes()

    def test_no_manifest_without_out(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert run("decompose", "--filter", "gaussian", "--bt", "0.5", "--n-modes", "2") == 0
        assert capsys.readouterr().out.startswith("n (index),")
        assert list(tmp_path.iterdir()) == []


class TestCountBound:
    @pytest.mark.parametrize(
        "argv, library",
        [
            (("decompose", "--filter", "gaussian", "--bt", "0.5", "--n-modes"),
             "gaussian_singular_values"),
            (("decompose", "--filter", "slepian", "--bt", "0.5", "--n-modes"),
             "slepian_singular_values"),
            (("tradeoff", "--filter", "gaussian", "--bt-min", "0.5", "--bt-max", "1", "--points"),
             "gaussian_tradeoff"),
            (("qkd", "--filter", "gaussian", "--ny-min", "0", "--ny-max", "1", "--points"),
             "normalized_key_rate"),
        ],
    )
    def test_above_the_bound_exits_2_before_the_library(
        self, monkeypatch, tmp_path, capsys, argv, library
    ):
        def refuse(*args, **kwargs):
            raise AssertionError("the library was called")

        # the CLI imports each library function inside its command, from the
        # module that defines it, so the patch goes on that module
        owner = importlib.import_module(getattr(tffilter, library).__module__)
        monkeypatch.setattr(owner, library, refuse)
        out = tmp_path / "out"
        assert run(*argv, str(tffilter.cli.MAX_COUNT + 1), "--out", str(out)) == 2
        assert f"must be <= {tffilter.cli.MAX_COUNT}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_the_bound_itself_runs(self, tmp_path):
        out = tmp_path / "g.csv"
        count = tffilter.cli.MAX_COUNT
        rc = run(
            "decompose", "--filter", "gaussian", "--bt", "0.5",
            "--n-modes", str(count), "--out", str(out),
        )
        assert rc == 0
        _, rows = read_csv(out)
        assert len(rows) == count


_BAD_NUMBER_PROBES = [
    ("decompose", "--filter", "gaussian", "--bt", "nan"),
    ("decompose", "--filter", "slepian", "--bt", "inf"),
    ("decompose", "--filter", "gaussian", "--bt", "inf/2pi"),
    ("tradeoff", "--filter", "gaussian", "--bt-min", "nan", "--bt-max", "1"),
    ("tradeoff", "--filter", "slepian", "--bt-min", "0.5", "--bt-max", "inf"),
    ("modes", "--filter", "slepian", "--c", "nan"),
    ("modes", "--filter", "slepian", "--c", "inf"),
    ("modes", "--filter", "gaussian", "--bt", "nan"),
    ("snr", "--filter", "gaussian", "--bt", "nan", "--trials", "10", "--seed", "1"),
    ("snr", "--filter", "gaussian", "--bt", "0.5", "--trials", "10", "--seed", "-1"),
    ("snr", "--filter", "gaussian", "--bt", "0.5", "--trials", "10", "--seed", "1",
     "--signal-energy", "inf"),
    ("snr", "--filter", "gaussian", "--bt", "0.5", "--trials", "10", "--seed", "1",
     "--noise-psd", "nan"),
    ("snr", "--filter", "gaussian", "--bt", "0.5", "--trials", str(2**32 + 1), "--seed", "1"),
    ("snr", "--filter", "gaussian", "--bt", "1e200", "--trials", str(2**32 + 1), "--seed", "1"),
    ("qkd", "--filter", "gaussian", "--ny-min", "nan", "--ny-max", "1"),
    ("qkd", "--filter", "slepian", "--ny-min", "0", "--ny-max", "inf"),
]


@pytest.mark.parametrize("argv", _BAD_NUMBER_PROBES, ids=" ".join)
def test_bad_numbers_exit_2(argv, tmp_path, capsys):
    # non-finite reals, a negative seed and more trials than one seed has
    # streams are usage errors, refused before any computation (BT 1e200
    # would exit 3): exit 2, an error line, no data file
    out = tmp_path / "out"
    try:
        code = main([*argv, "--out", str(out)])
    except SystemExit as exc:  # argparse refuses a bad --c, --ny-*, energy or seed
        code = exc.code
    assert code == 2
    assert "error:" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []  # neither a data file nor a manifest


@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.parametrize(
    "argv",
    [
        ("decompose", "--filter", "slepian", "--bt", "1.0", "--n-modes", "80"),
        ("decompose", "--filter", "slepian", "--bt", "1e5"),
        ("modes", "--filter", "slepian", "--c", "0.05", "--mode", "12"),
        ("snr", "--filter", "gaussian", "--bt", "1e-6", "--trials", "1", "--seed", "0"),
        # the prolate c = (pi / 2) 1e308 and the Gaussian mode reach at BT 1e-320
        # are past the float range: refused, not an overflow
        ("decompose", "--filter", "slepian", "--bt", "1e308"),
        ("modes", "--filter", "slepian", "--bt", "1e308"),
        ("modes", "--filter", "gaussian", "--bt", "1e-320"),
        # a Gaussian window whose constants leave the float range is refused
        # when it is built, not an overflow
        ("modes", "--filter", "gaussian", "--bt", "1e200"),
        ("snr", "--filter", "gaussian", "--bt", "1e200", "--trials", "1", "--seed", "0"),
        ("snr", "--filter", "gaussian", "--bt", "1e308", "--trials", "1", "--seed", "0"),
        # a finite signal energy whose filtered energy leaves the float range
        # is refused, not written as nan or inf
        ("snr", "--filter", "gaussian", "--bt", "0.5", "--trials", "3", "--seed", "1",
         "--signal-energy", "1e308"),
    ],
    ids=" ".join,
)
def test_numeric_failures_exit_3_and_write_nothing(argv, tmp_path, capsys):
    assert main([*argv, "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert "numeric failure:" in err
    assert "Traceback" not in err and "inf" not in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv",
    [
        ("decompose", "--filter", "gaussian", "--bt", "1e308", "--n-modes", "3"),
        ("decompose", "--filter", "gaussian", "--bt", "1e-320", "--n-modes", "3"),
        ("tradeoff", "--filter", "gaussian", "--bt-min", "1e-320", "--bt-max", "1e308"),
        ("tradeoff", "--filter", "slepian", "--bt-min", "1.7e308", "--bt-max", "1.7e308"),
        # its window is too narrow to evaluate, which the closed-form modes never do
        ("modes", "--filter", "gaussian", "--bt", "1e-200"),
    ],
    ids=" ".join,
)
def test_gaussian_ladder_at_the_float_range_ends_warns_nothing(argv, tmp_path):
    # the Mehler ratio reaches its limits u = 1 and u = 0 there without an overflow warning,
    # and the prolate c = (pi/2) BT its limit inf, where beta_0 = 1
    out = tmp_path / "out.csv"
    assert main([*argv, "--out", str(out)]) == 0
    assert json.loads((tmp_path / "out.csv.manifest.json").read_text())["warnings"] == []


# Every numeric flag of every command.  Reals come from the whole double range
# (Hypothesis floats, inf and nan among them, written as text), from its
# positive part, which most flags need, and from its edges; counts, --mode,
# --trials and --seed from small values plus the refused bounds.  Flags are
# passed as --flag=value, so argparse reads "-1.7e+308" as a value.
_REAL = st.one_of(
    st.floats().map(repr),
    st.floats(min_value=5e-324).map(repr),
    st.sampled_from(
        ["0.0", "-0.0", "5e-324", "2.2250738585072014e-308", "1.7e+308", "-1.7e+308", "inf", "-inf", "nan"]
    ),
)
_COUNT = st.sampled_from(["-1", "0", "1", "2", "3", str(tffilter.cli.MAX_COUNT + 1)])
_MODE = st.sampled_from(["-1", "0", "1", "2", "60", "61"])
_TRIALS = st.sampled_from(["-1", "0", "1", "2", "3", str(2**32 + 1)])
_SEED = st.sampled_from(["-1", "0", "7", str(2**64)])
_FAMILY = st.sampled_from(["gaussian", "slepian"])
_COMMANDS = st.one_of(
    st.builds(
        lambda f, bt, n: ["decompose", f"--filter={f}", f"--bt={bt}", f"--n-modes={n}"], _FAMILY, _REAL, _COUNT
    ),
    st.builds(
        lambda f, lo, hi, n: ["tradeoff", f"--filter={f}", f"--bt-min={lo}", f"--bt-max={hi}", f"--points={n}"],
        _FAMILY,
        _REAL,
        _REAL,
        _COUNT,
    ),
    st.builds(
        lambda f, flag, x, m, side: ["modes", f"--filter={f}", f"{flag}={x}", f"--mode={m}", f"--which={side}"],
        _FAMILY,
        st.sampled_from(["--bt", "--c"]),
        _REAL,
        _MODE,
        st.sampled_from(["input", "output"]),
    ),
    st.builds(
        lambda f, bt, e, n, t, s: [
            "snr", f"--filter={f}", f"--bt={bt}", f"--signal-energy={e}", f"--noise-psd={n}",
            f"--trials={t}", f"--seed={s}",
        ],
        _FAMILY,
        _REAL,
        _REAL,
        _REAL,
        _TRIALS,
        _SEED,
    ),
    st.builds(
        lambda f, lo, hi, n, opt: ["qkd", f"--filter={f}", f"--ny-min={lo}", f"--ny-max={hi}", f"--points={n}"]
        + ["--optimize"] * opt,
        st.one_of(
            st.sampled_from(["gaussian", "slepian", "all"]),
            st.builds(lambda eta, xi: f"point:{eta},{xi}", _REAL, _REAL),
        ),
        _REAL,
        _REAL,
        _COUNT,
        st.booleans(),
    ),
)


@pytest.mark.filterwarnings("ignore::UserWarning")
@settings(max_examples=800, deadline=None, derandomize=True)
@given(_COMMANDS)
def test_every_command_exits_0_2_or_3_anywhere_in_the_float_range(argv):
    # in process, on stdout; a RuntimeWarning is an error (pyproject.toml),
    # and any exception but argparse's SystemExit(2) fails the example
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 2, 3), argv


class TestTypedErrors:
    def test_prolate_basis_failure_exits_3(self, monkeypatch, tmp_path, capsys):
        import tffilter.slepian as slepian

        # flat coefficient vectors never decay into the basis tail, so the solver gives up;
        # both BT values (c = 0.79, 0.94) share a basis size, so they fail as one stack
        stacks = []

        def flat(d, e, want):
            stacks.append(d.shape[0])
            return np.zeros(d.shape[:-1] + (1,)) + np.arange(want), np.ones(d.shape + (want,))

        monkeypatch.setattr(slepian, "_lowest_eigenpairs", flat)
        rc = run(
            "tradeoff", "--filter", "slepian", "--bt-min", "0.5", "--bt-max", "0.6",
            "--points", "2", "--out", str(tmp_path / "t.csv"),
        )
        assert rc == 3
        assert stacks and set(stacks) == {2}
        assert "numeric failure: Legendre basis" in capsys.readouterr().err

    def test_prolate_eigensolver_failure_exits_3(self, monkeypatch, tmp_path, capsys):
        def fail(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", fail)
        rc = run(
            "qkd", "--filter", "slepian", "--ny-min", "1e-3", "--ny-max", "1e-3",
            "--points", "1", "--out", str(tmp_path / "q.csv"),
        )
        assert rc == 3
        assert "numeric failure: tridiagonal eigensolve failed" in capsys.readouterr().err

    def test_prolate_inversion_failure_exits_3(self, monkeypatch, tmp_path, capsys):
        import tffilter.slepian as slepian

        ground = slepian._ground_stacked

        def sluggish(cs):
            """Slopes that read 10x too steep: each miss shrinks, but slowly."""
            betas, slopes = ground(cs)
            return betas, 10.0 * slopes

        # the complement integrates these slopes too, but the first eta that
        # fails (0.005) lies below the switch, where only the Newton step reads them
        monkeypatch.setattr(slepian, "_ground_stacked", sluggish)
        rc = run(
            "qkd", "--filter", "slepian", "--ny-min", "1e-3", "--ny-max", "1e-3",
            "--points", "1", "--out", str(tmp_path / "q.csv"),
        )
        assert rc == 3
        assert "numeric failure: no prolate parameter found" in capsys.readouterr().err

    @pytest.mark.parametrize("family, bt", [("gaussian", "1e-6"), ("slepian", "1e-4")])
    def test_oversized_snr_grid_exits_3(self, monkeypatch, capsys, family, bt):
        import tffilter.noisesim as noisesim

        def refuse(*args):
            raise AssertionError("the grid was built")

        # refused before the axis, let alone a block of trials, is made
        monkeypatch.setattr(noisesim, "centered_axis", refuse)
        rc = run("snr", "--filter", family, "--bt", bt, "--trials", "1", "--seed", "0")
        assert rc == 3
        assert "sample limit of the noise ensembles" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "bt, family",
        [
            ("1e-300", "gaussian"),
            ("1e-300", "slepian"),
            ("1e-320", "gaussian"),
            ("1e-320", "slepian"),
            ("1e200", "slepian"),
            ("1e308", "slepian"),
        ],
    )
    def test_vast_snr_grid_is_refused_in_a_short_message(self, capsys, family, bt):
        # the refused size is printed as a float, not as a ~300-digit integer,
        # and a size beyond the float range is refused too, not an overflow
        rc = run("snr", "--filter", family, "--bt", bt, "--trials", "1", "--seed", "0")
        assert rc == 3
        err = capsys.readouterr().err
        assert re.fullmatch(
            r"numeric failure: BT = \S+ needs a \d\.\d+e\+\d{3}-sample time grid, "
            r"above the 131072-sample limit of the noise ensembles\n",
            err,
        ), err

    @pytest.mark.parametrize(
        "argv",
        [("modes", "--filter", "slepian", "--c", "1e300"), ("decompose", "--filter", "slepian", "--bt", "1e300")],
        ids=" ".join,
    )
    def test_vast_prolate_basis_is_refused_in_a_short_message(self, capsys, argv):
        # the refused basis size is printed to 16 digits, not as a ~300-digit integer
        assert run(*argv) == 3
        err = capsys.readouterr().err
        assert re.fullmatch(
            r"numeric failure: a \d\.\d{15}e\+300-term Legendre basis is above the "
            r"4096-term limit of the prolate solver\n",
            err,
        ), err
        assert len(err) < 120

    def test_oversized_mode_quadrature_exits_3(self, monkeypatch, capsys):
        import tffilter.slepian as slepian

        def refuse(count):
            raise AssertionError("the quadrature was built")

        # c = 501 solves on a 525-term basis, but its 6252-node rule is refused
        monkeypatch.setattr(slepian, "_legendre_rule", refuse)
        rc = run("modes", "--filter", "slepian", "--c", "501", "--mode", "0")
        assert rc == 3
        assert "node limit of the prolate modes" in capsys.readouterr().err

    def test_oversized_prolate_basis_exits_3(self, monkeypatch, capsys):
        import tffilter.slepian as slepian

        def refuse(size):
            raise AssertionError("the basis was built")

        # c = 1.57e5 would need two dense 78 571-square parity blocks
        monkeypatch.setattr(slepian, "_legendre_tables", refuse)
        rc = run("decompose", "--filter", "slepian", "--bt", "1e5", "--n-modes", "20")
        assert rc == 3
        assert "term limit of the prolate solver" in capsys.readouterr().err


def test_cli_imports_no_private_package_name():
    tree = ast.parse(Path(tffilter.cli.__file__).read_text(encoding="utf-8"))
    # every name the CLI takes from the package, module names included
    names = [
        name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level > 0
        for name in [node.module or "", *(alias.name for alias in node.names)]
    ]
    assert "optimize_over_efficiency" in names
    # a dunder such as __version__ is public by Python's naming convention
    private = [name for name in names if name.startswith("_") and not name.endswith("__")]
    assert private == []


# each README command and the qkd grid run, with the tffilter modules it may load
_FOOTPRINTS = [
    (("decompose", "--filter", "gaussian", "--bt", "0.5", "--n-modes", "10"),
     {"cli", "core", "gaussian"}),
    (("tradeoff", "--filter", "slepian", "--bt-min", "0.01", "--bt-max", "10", "--points", "80"),
     {"cli", "core", "metrics", "slepian"}),
    (("modes", "--filter", "slepian", "--c", "3.0", "--mode", "0"),
     {"cli", "core", "slepian"}),
    (("snr", "--filter", "gaussian", "--bt", "0.5", "--trials", "10000", "--seed", "7"),
     {"cli", "core", "gaussian", "metrics", "noisesim"}),
    (("qkd", "--filter", "all", "--ny-min", "1e-4", "--ny-max", "1", "--points", "50", "--optimize"),
     {"cli", "core", "metrics", "qkd", "slepian"}),
    (("qkd", "--filter", "all", "--ny-min", "1e-4", "--ny-max", "1", "--points", "50"),
     {"cli", "core", "metrics", "qkd", "slepian"}),
]


def _footprint_id(argv: tuple[str, ...]) -> str:
    """The command and its filter; the qkd run without --optimize is the grid run."""
    if argv[0] == "qkd" and "--optimize" not in argv:
        return "qkd grid"
    return " ".join(argv[:3])


def _fresh_python(script: str) -> str:
    """Standard output of ``script`` run in a fresh interpreter on this checkout's package."""
    env = dict(os.environ)
    src = str(Path(tffilter.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("argv, modules", _FOOTPRINTS, ids=[_footprint_id(argv) for argv, _ in _FOOTPRINTS])
def test_each_command_loads_only_its_modules(argv, modules, tmp_path):
    # a cold command pays for the modules it runs and no others; NumPy's
    # masked arrays (10-15 ms to import) are not among them, nor its
    # polynomial package, which only the prolate modes' Legendre series use
    script = (
        "import sys; from tffilter.cli import main; "
        f"assert main({[*argv, '--out', str(tmp_path / 'out')]!r}) == 0; "
        "print(sorted(m[9:] for m in sys.modules if m.startswith('tffilter.'))); "
        "print('numpy.ma' in sys.modules, 'numpy.polynomial' in sys.modules)"
    )
    loaded, numpy_packages = _fresh_python(script).splitlines()
    assert loaded == repr(sorted(modules))
    assert numpy_packages == f"False {argv[0] == 'modes'}"


def test_package_import_loads_no_numpy():
    script = "import sys, tffilter; print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'))"
    assert _fresh_python(script) == "[]\n"


# a cell csv.writer quotes (a carriage return too, in some Python versions),
# in each position it can take in a row
_QUOTED_CELLS = ["a,b", 'say "x"', "a\rb", "a\nb"]


def _csv_text(header, rows) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue()


@pytest.mark.parametrize(
    "argv",
    [
        ("decompose", "--filter", "gaussian", "--bt", "0.5", "--n-modes", "10"),
        ("decompose", "--filter", "slepian", "--bt", "4"),
        ("tradeoff", "--filter", "slepian", "--bt-min", "0.01", "--bt-max", "10", "--points", "80"),
        ("tradeoff", "--filter", "gaussian", "--bt-min", "0.01", "--bt-max", "10", "--points", "5"),
        ("modes", "--filter", "slepian", "--c", "3.0", "--mode", "0"),
        ("qkd", "--filter", "all", "--ny-min", "1e-4", "--ny-max", "1", "--points", "50", "--optimize"),
        ("qkd", "--filter", "all", "--ny-min", "1e-4", "--ny-max", "1", "--points", "50"),
    ],
    ids=" ".join,
)
@pytest.mark.filterwarnings("ignore::UserWarning")
def test_rows_are_written_as_csv_writes_them(argv, tmp_path):
    args = tffilter.cli.build_parser().parse_args(list(argv))
    (header, rows), _ = args.func(args)
    rows = list(rows)
    out = tmp_path / "out.csv"
    tffilter.cli._write_rows(str(out), header, rows)
    assert out.read_bytes() == _csv_text(header, rows).encode("utf-8")
    if argv[0] == "tradeoff":  # the reference row's empty bt cell
        assert rows[-1][:2] == ["qpg_reference", ""]


@pytest.mark.parametrize("cell", _QUOTED_CELLS, ids=repr)
@pytest.mark.parametrize("where", ["header", "first", "last"])
def test_a_cell_csv_would_quote_is_refused(cell, where, tmp_path):
    header, rows = ["a", "b", "c"], [["1", "2", "3"], ["4", "5", "6"]]
    if where == "header":
        header[1] = cell
    else:
        rows[1][0 if where == "first" else -1] = cell
    out = tmp_path / "out.csv"
    with pytest.raises(ValueError, match="CSV cell"):
        tffilter.cli._write_rows(str(out), header, rows)
    assert not out.exists()


@pytest.mark.parametrize("row", [[], [""]], ids=repr)
def test_an_empty_row_is_refused(row, tmp_path):
    # csv writes a row of one empty cell as "", and no command writes an
    # empty row; both would be an empty line, which the writer refuses
    with pytest.raises(ValueError, match="CSV cell"):
        tffilter.cli._write_rows(str(tmp_path / "out.csv"), ["a", "b"], [["1", "2"], row])


# run first in a child: its pools then size themselves from one CPU of the test's mask
_ONE_CPU = "import os; os.sched_setaffinity(0, {min(os.sched_getaffinity(0))}); "


def _fresh_process(script: str, env_update: dict[str, str] | None = None) -> str:
    """Stdout of a fresh process with the pool variables unset."""
    env = {
        k: v
        for k, v in os.environ.items()
        if k not in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
    }
    src = str(Path(tffilter.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    env.update(env_update or {})
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _threads_on_one_cpu(script: str) -> int:
    """Threads of a fresh process pinned to one CPU before ``script`` runs."""
    return int(_fresh_process(_ONE_CPU + script + "; print(len(os.listdir('/proc/self/task')))"))


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs CPU affinity masks")
class TestThreadCap:
    # the package has no thread setting: the affinity mask sizes every pool
    def test_cap_applies_before_numpy_loads(self):
        # OpenBLAS sizes its pool from the mask when numpy loads
        script = (
            "import tffilter.cli, numpy as np; "
            "np.linalg.svd(np.random.default_rng(0).standard_normal((300, 300)))"
        )
        assert _threads_on_one_cpu(script) == 1

    def test_cap_holds_through_the_schmidt_svds(self):
        # BT 20 ends on 724-point grids: blocks below 362 rows lower and restore
        # NumPy's BLAS thread count, and the 362-row blocks run on its pool
        script = (
            "from tffilter import decompose_filter, gaussian_sif; "
            "decompose_filter(gaussian_sif(20, 1), keep=10)"
        )
        assert _threads_on_one_cpu(script) == 1

    def test_cap_holds_through_a_slepian_qkd_run(self):
        # the prolate solves run NumPy's own LAPACK, in the pool the mask sized at import
        script = (
            "from tffilter.cli import main; "
            "assert main(['qkd', '--filter', 'slepian', '--ny-min', '1e-3', '--ny-max', '0.1', "
            "'--points', '5', '--optimize', '--out', os.devnull]) == 0"
        )
        assert _threads_on_one_cpu(script) == 1

    def test_cap_of_one_runs_the_noise_blocks_serially(self):
        # 300 trials take two blocks; one worker draws them with no thread of its own
        script = (
            "import tffilter as tf, numpy as np; spec, axis, mode, _ = tf.snr_setup('gaussian', 0.5); "
            "tf.run_ensemble(tf.NoiseEnsembleConfig(0.1, 1.0, mode, 300, 0), spec); "
            "tf.filtered_noise_correlation(tf.gaussian_sif(0.3, 1.0), 0.25, 1000, np.array([0.0]), seed=0)"
        )
        assert _threads_on_one_cpu(script) == 1

    def test_noise_pool_started_whole_and_reused(self):
        # a one-block call makes the pool with one thread per CPU of the mask; later calls add none
        workers = len(os.sched_getaffinity(0))
        if workers == 1:
            pytest.skip("one CPU runs the blocks with no pool")
        script = (
            "import os, tffilter as tf, numpy as np; spec, axis, mode, _ = tf.snr_setup('gaussian', 0.5); "
            "count = lambda: len(os.listdir('/proc/self/task')); before = count(); "
            "tf.run_ensemble(tf.NoiseEnsembleConfig(0.1, 1.0, mode, 1, 0), spec); "
            f"assert count() == before + {workers}, (before, count()); "
            "tf.run_ensemble(tf.NoiseEnsembleConfig(0.1, 1.0, mode, 2000, 1), spec); "
            "tf.filtered_noise_correlation(tf.gaussian_sif(0.3, 1.0), 0.25, 1000, np.array([0.0]), seed=0); "
            f"assert count() == before + {workers}, (before, count())"
        )
        _fresh_process(script)

    def test_noise_workers_ignore_a_non_ascii_digit_cap(self, monkeypatch):
        # with the deleted TF_FILTER_THREADS set to "\u00b2" (superscript two, which
        # passes str.isdigit() but not int()), the 3-CPU mask sizes the pool
        from tffilter.noisesim import _worker_count

        monkeypatch.setenv("TF_FILTER_THREADS", "\u00b2")
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        assert _worker_count() == 3

    def test_import_leaves_the_environment_alone(self):
        # import sets no pool variable, whatever the environment names
        script = "import os; before = dict(os.environ); import tffilter; assert dict(os.environ) == before"
        _fresh_process(script, {"TF_FILTER_THREADS": "1"})
