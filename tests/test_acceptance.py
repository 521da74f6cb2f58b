"""Acceptance gate: every numbered criterion at its stated tolerance.

Each test prints a PASS line with the measured figure once its assertions
hold, so the pytest log doubles as the acceptance record.
"""

import json
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from tffilter.core import (
    Domain,
    SampledAxis,
    StageOrder,
    build_operator,
    centered_axis,
    recommended_axes,
)
from tffilter.gaussian import (
    gaussian_sif,
    gaussian_singular_values,
    gaussian_tradeoff,
    hermite_gaussian_mode_set,
)
from tffilter.metrics import analytic_snr, bt_from_profiles, figures_from_singulars
from tffilter.noisesim import (
    NoiseEnsembleConfig,
    filtered_noise_correlation,
    run_ensemble,
)
from tffilter.qkd import (
    QBER_THRESHOLD,
    FilterCharacteristic,
    normalized_key_rate,
    optimize_over_efficiency,
    qber,
)
from tffilter.schmidt import decompose_filter, inner_product, schmidt_decompose
from tffilter.slepian import (
    full_line_gram,
    interval_gram,
    pswf_solve_legendre,
    rectangular_sif,
    slepian_tradeoff,
)

TWO_PI = 2.0 * np.pi


def report(tag: str, detail: str) -> None:
    print(f"{tag}: PASS ({detail})")


class TestC01MehlerOracle:
    @pytest.mark.parametrize("bt", [0.6 / TWO_PI, 2.3 / TWO_PI, 0.5, 2.0])
    def test_numeric_svd_matches_ladder(self, bt):
        started = time.perf_counter()
        spec = gaussian_sif(bt, 1.0)
        # one complex SVD of the whole mixed kernel on uniform axes built
        # here, independent of the grids, the refinement and the parity split
        # of decompose_filter: time rows and frequency columns over 1.1 times
        # the gate's and the window's 1e-14 radii
        t_half = 1.1 * spec.temporal.support(1e-14)
        w_half = 1.1 * spec.spectral.support(1e-14)
        rows = SampledAxis(-t_half, 2.0 * t_half / 1023, 1024, Domain.TIME)
        cols = SampledAxis(-w_half, 2.0 * w_half / 1023, 1024, Domain.ANGULAR_FREQUENCY)
        res = schmidt_decompose(build_operator(spec, rows, cols), keep=11)
        lam = gaussian_singular_values(bt, 11)
        rel = np.max(np.abs(res.singular_values - lam) / lam)
        elapsed = time.perf_counter() - started
        assert rel < 1e-7
        assert elapsed < 10.0
        report("C1", f"BT={bt:.4g}: max rel dev {rel:.3e} in {elapsed:.2f}s")


class TestC02BtIdentity:
    def test_analytic_backends_every_sweep_point(self):
        bts = np.geomspace(0.05, 5.0, 25)
        eg, xg = gaussian_tradeoff(bts)
        worst_g = np.max(np.abs(xg * bts - eg))
        assert worst_g < 1e-5
        es, xs = slepian_tradeoff(bts)
        worst_s = np.max(np.abs(xs * bts - es))
        assert worst_s < 1e-5
        report("C2", f"analytic xi*BT=eta devs: gaussian {worst_g:.2e}, slepian {worst_s:.2e}")

    def test_numeric_backend_and_frobenius_mass(self):
        # adaptive path for the smooth family
        spec_g = gaussian_sif(0.5, 1.0)
        res_g = decompose_filter(spec_g, keep=24)
        bt_g = bt_from_profiles(spec_g)
        fig_g = figures_from_singulars(
            res_g.singular_values, bt_hint=bt_g, total_sq=res_g.total_power
        )
        dev_g = abs(fig_g.efficiency / fig_g.discriminativity - bt_g)
        assert dev_g < 1e-4
        assert abs(res_g.total_power - bt_g) < 1e-4 * bt_g

        # the same adaptive path for the brick-wall family (Gauss-Legendre axes)
        devs = []
        for bt in (0.8, 2.0):
            spec_r = rectangular_sif(bt, 1.0)
            res_r = decompose_filter(spec_r, keep=24)
            bt_r = bt_from_profiles(spec_r)
            assert abs(res_r.total_power - bt_r) < 1e-4 * bt_r
            fig_r = figures_from_singulars(
                res_r.singular_values, bt_hint=bt_r, total_sq=res_r.total_power
            )
            devs.append(abs(fig_r.efficiency / fig_r.discriminativity - bt_r))
        assert max(devs) < 1e-4
        report(
            "C2",
            f"numeric eta/xi=BT devs: gaussian {dev_g:.2e}, rectangular {max(devs):.2e}",
        )


class TestC03GaussianTradeoff:
    def test_identity_across_sweep_range(self):
        bts = np.linspace(0.01 / TWO_PI, 60.0 / TWO_PI, 2000)
        eta, xi = gaussian_tradeoff(bts)
        dev = np.max(np.abs(xi - (1.0 - eta**2)))
        assert dev < 1e-12
        report("C3", f"max |xi-(1-eta^2)| = {dev:.2e} over {len(bts)} points")


class TestC04SlepianCrossMethod:
    @pytest.mark.parametrize("c", [0.5, 1.25, 3.0, 5.0])
    def test_eigenvalues_agree(self, c):
        # Legendre prolate solver vs the Gauss-Legendre Nystrom decomposition
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            lg = pswf_solve_legendre(c, 8)
        res = decompose_filter(rectangular_sif(c / (0.5 * np.pi), 1.0), keep=9)
        k = lg.resolvable_count
        dev = np.max(np.abs(res.singular_values[:k] ** 2 - lg.eigenvalues[:k]))
        assert dev < 1e-12
        report("C4", f"c={c}: cross-method |s_n^2 - beta_n| {dev:.2e} on {k} modes")

    @pytest.mark.parametrize("c", [0.5, 1.25, 3.0, 5.0])
    def test_double_orthogonality(self, c):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            sol = pswf_solve_legendre(c, 8)
        gi = interval_gram(sol)
        dev_i = np.max(np.abs(gi - np.diag(sol.eigenvalues)))
        assert dev_i < 1e-6
        # full-line identity carries a 1/sqrt(beta) noise factor: check it on
        # the numerically meaningful block only
        keep = np.flatnonzero(sol.eigenvalues >= 1e-10)
        gf = full_line_gram(sol)[np.ix_(keep, keep)]
        dev_f = np.max(np.abs(gf - np.eye(len(keep))))
        assert dev_f < 1e-6
        report(
            "C4",
            f"c={c}: interval gram dev {dev_i:.2e}, full-line dev {dev_f:.2e} "
            f"on {len(keep)} modes",
        )

    @pytest.mark.parametrize("c", [0.5, 1.25, 3.0, 5.0])
    def test_eigenvalue_sum_rule(self, c):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            sol = pswf_solve_legendre(c, 20)
        dev = abs(np.sum(sol.eigenvalues) - 2.0 * c / np.pi)
        assert dev < 1e-6
        report("C4", f"c={c}: |sum beta - 2c/pi| = {dev:.2e}")


class TestC05OrderSymmetry:
    @staticmethod
    def compare(res_ff, res_tf):
        """sv gap and worst overlap defect of the two orders, whose mode roles swap."""
        sv_dev = np.max(np.abs(res_ff.singular_values - res_tf.singular_values))
        assert sv_dev < 1e-12
        # overlap is only meaningful above the SVD noise floor
        worst = 0.0
        for n in range(20):
            if res_ff.singular_values[n] < 1e-6:
                break
            oi = abs(inner_product(res_ff.input_modes[n], res_tf.output_modes[n]))
            oo = abs(inner_product(res_ff.output_modes[n], res_tf.input_modes[n]))
            worst = max(worst, 1.0 - oi, 1.0 - oo)
        assert worst < 1e-12
        return sv_dev, worst

    def check_family(self, make_spec):
        # the adaptive ladders of both orders, compared on their final grids:
        # one order's frequency axis is the other's
        res_ff = decompose_filter(make_spec(StageOrder.FREQUENCY_FIRST), keep=20)
        res_tf = decompose_filter(make_spec(StageOrder.TIME_FIRST), keep=20)
        rep_ff, rep_tf = res_ff.grid_report, res_tf.grid_report
        assert rep_ff.final_rows.close_to(rep_tf.final_cols)
        assert rep_ff.final_cols.close_to(rep_tf.final_rows)
        return self.compare(res_ff, res_tf)

    def test_gaussian(self):
        sv_dev, worst = self.check_family(
            lambda order: gaussian_sif(2.0, 1.0, order=order)
        )
        report("C5", f"gaussian: sv dev {sv_dev:.2e}, worst overlap defect {worst:.2e}")

    def test_rectangular(self):
        sv_dev, worst = self.check_family(
            lambda order: rectangular_sif(2.0, 1.0, order=order)
        )
        report(
            "C5", f"rectangular: sv dev {sv_dev:.2e}, worst overlap defect {worst:.2e}"
        )

    def test_full_svd_path(self):
        # one complex SVD of each order's whole mixed kernel on a fixed grid
        ff = rectangular_sif(2.0, 1.0, order=StageOrder.FREQUENCY_FIRST)
        tf = rectangular_sif(2.0, 1.0, order=StageOrder.TIME_FIRST)
        rows, cols = recommended_axes(ff, resolution=256)
        res_ff = schmidt_decompose(build_operator(ff, rows, cols), keep=20)
        res_tf = schmidt_decompose(build_operator(tf, cols, rows), keep=20)
        sv_dev, worst = self.compare(res_ff, res_tf)
        report("C5", f"full SVD: sv dev {sv_dev:.2e}, worst overlap defect {worst:.2e}")


class TestC06SnrMonteCarlo:
    def test_gaussian_bt_half(self):
        started = time.perf_counter()
        spec = gaussian_sif(0.5, 1.0)
        axis = centered_axis(24.0 / 2048, 2048, Domain.TIME)
        mode = hermite_gaussian_mode_set(spec, axis, 1, "input")[0].normalized()
        cfg = NoiseEnsembleConfig(
            noise_psd=0.1,
            signal_energy=1.0,
            signal_mode=mode,
            trials=10_000,
            seed=2026,
        )
        rep = run_ensemble(cfg, spec)
        _, xi = gaussian_tradeoff(0.5)
        target = analytic_snr(1.0, 0.1, xi)
        assert target == pytest.approx(8.2842712474619, rel=1e-10)

        # empirical SNR = W_sig / mean(W_noise); propagate the stderr of the mean
        snr_sigma = rep.snr_empirical * rep.w_noise_stderr / rep.w_noise_mean
        snr_dev = abs(rep.snr_empirical - target)
        assert snr_dev < 3.0 * snr_sigma

        # mean filtered noise power: <W>/N_y = BT = eta/xi
        w_dev = abs(rep.w_noise_mean / 0.1 - 0.5)
        assert w_dev < 3.0 * rep.w_noise_stderr / 0.1

        elapsed = time.perf_counter() - started
        assert elapsed < 60.0
        report(
            "C6",
            f"SNR {rep.snr_empirical:.4f} vs {target:.4f} "
            f"({snr_dev / snr_sigma:.2f} sigma), <W>/N_y dev "
            f"{w_dev / (rep.w_noise_stderr / 0.1):.2f} sigma, {elapsed:.1f}s",
        )


class TestC07FilteredNoiseCoherence:
    @pytest.mark.parametrize(
        "bt,lags",
        [
            (0.05, [0.0, 0.5, 2.0, 8.0]),
            (1.0, [0.0, 0.2, 0.5, 1.5]),
        ],
    )
    def test_two_time_correlation(self, bt, lags):
        spec = gaussian_sif(bt, 1.0)
        surf = filtered_noise_correlation(
            spec, 0.3, 10_000, np.array(lags), seed=515
        )
        sigmas = np.abs(surf.empirical - surf.analytic) / surf.stderr
        worst = float(np.max(sigmas))
        assert worst < 5.0
        report("C7", f"BT={bt}: worst pointwise deviation {worst:.2f} sigma")


class TestC08QkdProperties:
    def test_a_noiseless_limits(self):
        for xi in (0.1, 0.5, 0.9999):
            assert qber(0.0, xi) == 0.0
        for eta in (0.2, 0.9, 0.9999):
            assert normalized_key_rate(eta, 0.7, 0.0) == pytest.approx(
                eta**2, rel=1e-14
            )
        report("C8a", "QBER(0, xi) = 0 and rate(n_y=0) = eta^2")

    def test_b_threshold(self):
        assert abs(QBER_THRESHOLD - 0.110028) < 1e-5
        eta, xi = 0.9, 0.8
        weight = 1.0 - 2.0 * QBER_THRESHOLD
        n_star = xi * (1.0 / np.sqrt(weight) - 1.0)
        assert qber(n_star, xi) == pytest.approx(QBER_THRESHOLD, rel=1e-12)
        assert normalized_key_rate(eta, xi, n_star * (1.0 + 1e-9)) == 0.0
        assert normalized_key_rate(eta, xi, n_star * (1.0 - 1e-9)) > 0.0
        report("C8b", f"rate support edge at QBER = {QBER_THRESHOLD:.6f}")

    def test_c_slepian_dominates_gaussian(self):
        nys = np.geomspace(1e-4, 1.0, 20)
        margin = np.inf
        slepian = optimize_over_efficiency(FilterCharacteristic.slepian(), nys)
        gaussian = optimize_over_efficiency(FilterCharacteristic.gaussian(), nys)
        for rs, rg in zip(slepian, gaussian):
            assert rs.rate >= rg.rate - 1e-12
            if rg.rate > 0:
                margin = min(margin, rs.rate / rg.rate)
        report("C8c", f"optimized slepian/gaussian rate ratio >= {margin:.4f}")

    def test_d_reference_point_dominates(self):
        fp = FilterCharacteristic.fixed_point(0.9999, 0.9999)
        nys = np.geomspace(1e-4, 2.0, 25)
        slepian = optimize_over_efficiency(FilterCharacteristic.slepian(), nys)
        gaussian = optimize_over_efficiency(FilterCharacteristic.gaussian(), nys)
        for ny, rs, rg in zip(nys, slepian, gaussian):
            fp_rate = fp.rate(0.9999, float(ny))
            if fp_rate == 0.0 and rs.rate == 0.0 and rg.rate == 0.0:
                continue
            assert fp_rate >= rs.rate - 1e-12
            assert fp_rate >= rg.rate - 1e-12
        report("C8d", "near-unity point characteristic dominates both SIF optima")

    def test_e_optimal_efficiency_monotone(self):
        nys = np.geomspace(1e-4, 0.3, 14)
        for name, fc in (
            ("gaussian", FilterCharacteristic.gaussian()),
            ("slepian", FilterCharacteristic.slepian()),
        ):
            etas = [res.eta for res in optimize_over_efficiency(fc, nys)]
            drops = [b - a for a, b in zip(etas, etas[1:])]
            assert all(d <= 1e-3 for d in drops), (name, etas)
        report("C8e", "optimal eta* non-increasing in n_y for both SIFs")


class TestC09ValidationScopeNote:
    def test_readme_states_what_is_pinned(self):
        readme = Path(__file__).resolve().parents[1] / "README.md"
        text = readme.read_text(encoding="utf-8").lower()
        assert "analytic identities" in text
        assert "cross-method" in text
        assert "ordering" in text
        assert "pixel" in text  # the explicit disclaimer about figure matching
        report("C9", "README spells out the validation scope")


class TestC10CliDeterminism:
    def run_twice(self, tmp_path, name, args):
        from tffilter.cli import main

        a = tmp_path / f"{name}_a.dat"
        b = tmp_path / f"{name}_b.dat"
        assert main(list(args) + ["--out", str(a)]) == 0
        assert main(list(args) + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes(), name
        return a.stat().st_size

    @pytest.mark.filterwarnings("ignore::UserWarning")
    def test_reruns_byte_identical(self, tmp_path):
        sizes = [
            self.run_twice(
                tmp_path,
                "decompose",
                ["decompose", "--filter", "slepian", "--bt", "2/2pi", "--n-modes", "8"],
            ),
            self.run_twice(
                tmp_path,
                "tradeoff",
                [
                    "tradeoff", "--filter", "gaussian", "--bt-min", "0.1",
                    "--bt-max", "2.0", "--points", "15",
                ],
            ),
            self.run_twice(
                tmp_path,
                "modes",
                ["modes", "--filter", "slepian", "--c", "3.0", "--mode", "1"],
            ),
            self.run_twice(
                tmp_path,
                "snr",
                [
                    "snr", "--filter", "gaussian", "--bt", "0.5",
                    "--trials", "300", "--seed", "11",
                ],
            ),
            self.run_twice(
                tmp_path,
                "qkd",
                [
                    "qkd", "--filter", "all", "--ny-min", "1e-3",
                    "--ny-max", "0.1", "--points", "4", "--optimize",
                ],
            ),
        ]
        report("C10", f"5 commands byte-stable across reruns ({sum(sizes)} bytes)")

    def test_stochastic_manifest_reproduces_run(self, tmp_path):
        # the manifest carries everything needed to regenerate the data file
        from tffilter.cli import main

        out = tmp_path / "r.json"
        args = [
            "snr", "--filter", "gaussian", "--bt", "0.5",
            "--trials", "120", "--seed", "77", "--out", str(out),
        ]
        assert main(args) == 0
        manifest = json.loads((tmp_path / "r.json.manifest.json").read_text())
        body1 = out.read_bytes()
        rebuilt = [
            "snr",
            "--filter", manifest["parameters"]["filter"],
            "--bt", manifest["parameters"]["bt"],
            "--trials", str(manifest["parameters"]["trials"]),
            "--seed", str(manifest["seed"]),
            "--out", str(out),
        ]
        assert main(rebuilt) == 0
        assert out.read_bytes() == body1
        report("C10", "manifest round-trip regenerates identical bytes")
