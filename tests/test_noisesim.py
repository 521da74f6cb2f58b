"""Monte Carlo noise ensembles: statistics, determinism, correlations."""

import os
import sys
import time
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tffilter.core import (
    Domain,
    ResolutionError,
    SampledAxis,
    SampledSignal,
    StageOrder,
    _check_grid,
    apply_filter,
    centered_axis,
    filter_samples,
)
from tffilter.gaussian import gaussian_sif, gaussian_singular_values, gaussian_tradeoff
from tffilter import noisesim
from tffilter.metrics import analytic_snr
from tffilter.noisesim import (
    RNG_ALGORITHM,
    NoiseEnsembleConfig,
    _keyed_streams,
    _trial_keys,
    _white_rows,
    filtered_noise_correlation,
    run_ensemble,
    sample_white_noise,
    snr_setup,
    trial_generator,
)
from tffilter.slepian import rectangular_sif


def unit_gaussian_mode(axis: SampledAxis) -> SampledSignal:
    t = axis.points
    return SampledSignal(axis, np.exp(-np.pi * t**2 / 2.0).astype(complex)).normalized()


@pytest.fixture()
def time_axis() -> SampledAxis:
    return centered_axis(16.0 / 1024, 1024, Domain.TIME)


class TestWhiteNoise:
    def test_flat_psd_across_band(self, time_axis):
        # periodogram of white noise averages to N_y at every frequency
        n_y = 0.37
        acc = None
        trials = 400
        for k in range(trials):
            noise = sample_white_noise(time_axis, n_y, trial_generator(7, k))
            from tffilter.core import fourier_forward

            spec = fourier_forward(noise)
            p = np.abs(spec.values) ** 2 / time_axis.span
            acc = p if acc is None else acc + p
        mean = acc / trials
        assert np.mean(mean) == pytest.approx(n_y, rel=0.05)
        # no trend: split-band means agree
        half = len(mean) // 2
        assert np.mean(mean[:half]) == pytest.approx(np.mean(mean[half:]), rel=0.1)

    def test_variance_split_between_quadratures(self, time_axis):
        noise = sample_white_noise(time_axis, 1.0, trial_generator(3, 0))
        re_var = np.var(noise.values.real)
        im_var = np.var(noise.values.imag)
        assert re_var == pytest.approx(im_var, rel=0.2)

    def test_energy_mean(self, time_axis):
        # <integral |y|^2 dt> = N_y * span / dt * (dt) ... = N_y * count
        n_y = 0.5
        vals = [
            sample_white_noise(time_axis, n_y, trial_generator(11, k)).energy()
            for k in range(200)
        ]
        expected = n_y * time_axis.count
        assert np.mean(vals) == pytest.approx(expected, rel=0.05)

    def test_requires_time_axis(self):
        fax = centered_axis(0.1, 64, Domain.ANGULAR_FREQUENCY)
        with pytest.raises(Exception):
            sample_white_noise(fax, 1.0, trial_generator(0, 0))


class TestDeterminism:
    def test_trial_generator_reproducible(self):
        a = trial_generator(123, 5).standard_normal(8)
        b = trial_generator(123, 5).standard_normal(8)
        assert np.array_equal(a, b)

    def test_trials_are_distinct_streams(self):
        a = trial_generator(123, 0).standard_normal(8)
        b = trial_generator(123, 1).standard_normal(8)
        assert not np.allclose(a, b)

    @pytest.mark.parametrize(
        "axis",
        [centered_axis(16.0 / 1024, 1024, Domain.TIME), SampledAxis(-0.7, 0.013, 301, Domain.TIME)],
    )
    def test_white_rows_replay_bit_for_bit(self, axis):
        # the (seed, trial) contract: each batched row is, bit for bit, the
        # trial's own stream drawn as one (2, n) block and scaled once
        seed, psd = 97, 0.37
        rows, draws = np.empty((5, axis.count), complex), np.empty((2, 2, axis.count))
        assert _white_rows(axis, psd, [trial_generator(seed, t) for t in range(5)], rows, draws) is rows
        scale = np.sqrt(psd / (2.0 * axis.step))
        for t, row in enumerate(rows):
            z = trial_generator(seed, t).standard_normal((2, axis.count))
            ref = scale * (z[0] + 1j * z[1])
            assert np.array_equal(row.view(np.uint64), ref.view(np.uint64))

    def test_staged_rows_replay_bit_for_bit(self):
        # 37 trials fill a buffer of 20 rows and then 17 of them, taking their
        # streams from one iterator, each staged 8 rows at a time; every row,
        # drawn on the re-keyed stream the ensembles use, is the one
        # sample_white_noise draws from the trial's own generator
        axis, seed, psd, trials = centered_axis(1.0 / 12.0, 128, Domain.TIME), 2**40 + 3, 0.37, 37
        streams = _keyed_streams(_trial_keys(seed, np.arange(trials)))
        buffer, draws = np.empty((20, axis.count), complex), np.empty((8, 2, axis.count))
        rows = []
        for first in range(0, trials, 20):
            count = min(20, trials - first)
            rows.extend(_white_rows(axis, psd, streams, buffer[:count], draws).copy())
        assert len(rows) == trials and next(streams, None) is None
        for t, row in enumerate(rows):
            ref = sample_white_noise(axis, psd, trial_generator(seed, t)).values
            assert np.array_equal(row.view(np.uint64), ref.view(np.uint64)), t

    def test_algorithm_name_pinned(self):
        assert RNG_ALGORITHM == "philox4x64"

    def test_ensemble_reproducible(self, time_axis):
        spec = gaussian_sif(0.5, 1.0)
        cfg = NoiseEnsembleConfig(
            noise_psd=0.1,
            signal_energy=1.0,
            signal_mode=unit_gaussian_mode(time_axis),
            trials=64,
            seed=99,
        )
        a = run_ensemble(cfg, spec)
        b = run_ensemble(cfg, spec)
        assert a.w_total_mean == b.w_total_mean
        assert a.snr_empirical == b.snr_empirical


class TestSnrSetup:
    @pytest.mark.parametrize(
        "family, bt, count",
        [("gaussian", 1e-6, 2**26), ("gaussian", 3e3, 2**19), ("slepian", 1e-4, 6_050_000)],
    )
    def test_oversized_grid_is_refused_before_it_is_built(self, monkeypatch, family, bt, count):
        def refuse(*args):
            raise AssertionError("the grid was built")

        monkeypatch.setattr(noisesim, "centered_axis", refuse)
        with pytest.raises(ResolutionError, match=f"needs a {count}-sample time grid"):
            snr_setup(family, bt)

    def test_grid_at_the_limit_is_kept(self):
        _, axis, _, _ = snr_setup("gaussian", 1e3)
        assert axis.count == noisesim.SNR_MAX_SAMPLES

    @pytest.mark.parametrize("bt", [1e-320, np.float64(1e-320), 5e-324], ids=str)
    def test_subnormal_bt_is_refused(self, bt):
        # the mode reach 6 / min(alpha, beta) is past the float range here: the
        # refusal names the size as a number, with no overflow warning on the way
        with pytest.raises(ResolutionError, match=r"needs a \d\.\d+e\+\d{3}-sample time grid") as exc:
            snr_setup("gaussian", bt)
        assert "inf" not in str(exc.value)

    @pytest.mark.parametrize(
        "bt, size",
        [
            (1e-320, "6.050067354294611e+322"),
            (1e200, "4.000000000000000e+201"),
            (1e308, "4.000000000000000e+309"),
        ],
        ids=str,
    )
    @pytest.mark.parametrize("as_type", [float, np.float64], ids=["float", "float64"])
    def test_brick_wall_size_past_the_float_range_is_exact(self, bt, size, as_type):
        # round(band_cells (2j + 1) / BT) with j = max(60, ceil(5 BT)) and
        # band_cells = max(5, 2 ceil(2 BT) + 1) is past the float range here;
        # the refusal gives it exactly, to 16 digits, with no overflow warning
        with pytest.raises(ResolutionError) as exc:
            snr_setup("slepian", as_type(bt))
        assert f"needs a {size}-sample time grid" in str(exc.value)

    @settings(max_examples=200, deadline=None, database=None)
    @given(st.floats(min_value=0.01, max_value=50.0))
    def test_gaussian_grid_is_minimal(self, bt):
        # dt = 1/(12 max(BT, 1)); the span covers the gate's 1e-12 support and
        # the mode reach 6 / min(alpha, beta), plus a margin of 1 on each side
        spec, axis, _, _ = snr_setup("gaussian", bt)
        assert axis.step == 1.0 / (12.0 * max(bt, 1.0))
        half = max(spec.temporal.support(1e-12), 6.0 / min(spec.alpha, spec.beta)) + 1.0
        assert_minimal_grid(spec, axis, 2.0 * half)


def meets_grid_criteria(spec, step: float, count: int, span: float) -> bool:
    """A power-of-two centered grid that passes the resolution guard and spans ``span``."""
    if count < 1 or count & (count - 1):
        return False
    try:
        _check_grid(spec, centered_axis(step, count, Domain.TIME))
    except ResolutionError:
        return False
    return count * step >= span


def assert_minimal_grid(spec, axis: SampledAxis, span: float) -> None:
    """``axis`` meets the grid criteria and half its count would not."""
    assert axis == centered_axis(axis.step, axis.count, Domain.TIME)
    assert meets_grid_criteria(spec, axis.step, axis.count, span)
    assert not meets_grid_criteria(spec, axis.step, axis.count // 2, span)


def transport_matrix(spec, axis: SampledAxis) -> np.ndarray:
    """The discrete transport F on ``axis``, y = F x: the filtered unit rows, transposed."""
    return filter_samples(spec, axis, np.eye(axis.count, dtype=complex)).T


class TestExactLaws:
    # White rows of per-sample variance N_y / dt give E[y y^dagger] = (N_y / dt) F F^dagger,
    # so the output energy W = dt |y|^2 has mean N_y ||F||_F^2 and variance
    # N_y^2 tr((F F^dagger)^2), with no draw.  These laws are what the grids are
    # sized to keep: N_y BT and N_y^2 sum s^4 for the Gaussian (Mehler) ladder.

    @pytest.mark.parametrize("bt", [0.1, 0.5, 1.0, 2.0, 4.0])
    def test_gaussian_snr_grid_keeps_the_energy_law(self, bt):
        spec, axis, mode, _ = snr_setup("gaussian", bt)
        f = transport_matrix(spec, axis)
        gram = f @ f.conj().T
        s = gaussian_singular_values(spec.bt, 400)
        assert np.vdot(f, f).real == pytest.approx(bt, rel=4e-15)
        assert np.trace(gram @ gram).real == pytest.approx(np.sum(s**4), rel=4e-15)
        # the ground mode keeps eta of its energy, the ensembles' w_signal
        assert apply_filter(spec, mode).energy() == pytest.approx(gaussian_tradeoff(bt)[0], rel=2e-15)

    @pytest.mark.parametrize("bt", [0.5, 1.0])
    def test_brick_wall_snr_grid_keeps_the_mean(self, bt):
        # band_cells (2j + 1) / BT is 1210 and 605 here, so the band edge is
        # mid-cell with the gate edge; at BT 2 it is 544.5, rounded to 544,
        # and the mean is 9.2e-4 off
        spec, axis, _, _ = snr_setup("slepian", bt)
        f = transport_matrix(spec, axis)
        assert np.vdot(f, f).real == pytest.approx(bt, rel=1e-14)

    @pytest.mark.parametrize(
        "bt, lags", [(0.5, [0.0, 0.5, 1.5, 4.0]), (1.0, [0.0, 0.2, 0.5, 1.5])], ids=["0.5", "1"]
    )
    def test_correlation_grid_keeps_the_two_time_law(self, bt, lags):
        # (1/dt) F F^dagger is the grid's covariance per unit N_y; at the probe
        # points it must be Q(t + tau) Q(t) rho(tau), rho(tau) = B exp(-pi B^2 tau^2),
        # to the FFTs' rounding (1.9e-14 of the peak on a 512-sample grid)
        spec, times, lags = gaussian_sif(bt, 1.0), np.linspace(-0.5, 0.5, 5), np.array(lags)
        axis, _ = noisesim._auto_correlation_axis(spec, 0.5 + lags.max())
        t_idx = np.rint((times - axis.start) / axis.step).astype(int)
        l_idx = np.rint(lags / axis.step).astype(int)
        f = transport_matrix(spec, axis)
        grid = (f @ f.conj().T)[t_idx[:, None] + l_idx, t_idx[:, None]] / axis.step
        t, tau = axis.points[t_idx][:, None], axis.step * l_idx
        exact = spec.temporal(t + tau) * spec.temporal(t) * bt * np.exp(-np.pi * (bt * tau) ** 2)
        assert np.max(np.abs(grid - exact)) <= 5e-14 * np.max(exact)


class TestEnsembleStatistics:
    def test_noise_energy_mean_matches_ladder(self):
        # W_noise = sum_n s_n^2 |a_n|^2 with a_n the noise's projection on input
        # mode n: independent circular complex Gaussians with E|a_n|^2 = N_y, so
        # |a_n|^2 is exponential with cumulants kappa_k = (k - 1)! N_y^k and W has
        #   mean N_y sum s^2 = N_y BT,  kappa_2 = N_y^2 sum s^4,  kappa_4 = 6 N_y^4 sum s^8.
        # The sample variance S^2 of n trials has Var S^2 = kappa_4 / n
        # + 2 kappa_2^2 / (n - 1); by the delta method the stderr S / sqrt(n)
        # scatters about N_y sqrt(sum s^4 / n) with relative standard deviation
        #   (1/2) sqrt(2 / (n - 1) + kappa_4 / (n kappa_2^2))   (0.025 here).
        spec, axis, mode, _ = snr_setup("gaussian", 0.5)
        n_y, trials = 0.2, 3000
        cfg = NoiseEnsembleConfig(
            noise_psd=n_y, signal_energy=0.0, signal_mode=mode, trials=trials, seed=17
        )
        rep = run_ensemble(cfg, spec)
        s = gaussian_singular_values(spec.bt, 60)  # s_59^2 ~ 1e-46
        kappa_2 = n_y**2 * np.sum(s**4)
        kappa_4 = 6.0 * n_y**4 * np.sum(s**8)
        stderr = np.sqrt(kappa_2 / trials)
        rel_sd = 0.5 * np.sqrt(2.0 / (trials - 1) + kappa_4 / (trials * kappa_2**2))
        assert abs(rep.w_noise_stderr / stderr - 1.0) < 4.0 * rel_sd
        assert abs(rep.w_noise_mean - n_y * 0.5) < 3.0 * stderr

    def test_signal_energy_through_filter(self, time_axis):
        # ground-mode signal keeps eta = u of its energy
        spec = gaussian_sif(0.5, 1.0)
        eta, _ = gaussian_tradeoff(0.5)
        mode = apply_filter(spec, unit_gaussian_mode(time_axis))
        # the packaged phi_0 proxy here is not exactly phi_0; just bound it
        assert mode.energy() <= eta + 1e-9

    def test_report_dict_round_trip(self, time_axis):
        spec = gaussian_sif(0.5, 1.0)
        cfg = NoiseEnsembleConfig(
            noise_psd=0.1,
            signal_energy=1.0,
            signal_mode=unit_gaussian_mode(time_axis),
            trials=32,
            seed=5,
        )
        rep = run_ensemble(cfg, spec)
        d = rep.as_dict()
        assert d["trials"] == 32
        assert d["seed"] == 5
        assert d["rng_algorithm"] == RNG_ALGORITHM
        assert d["snr_empirical"] == rep.snr_empirical

    def test_zero_noise_infinite_snr(self, time_axis):
        spec = gaussian_sif(0.5, 1.0)
        cfg = NoiseEnsembleConfig(
            noise_psd=0.0,
            signal_energy=1.0,
            signal_mode=unit_gaussian_mode(time_axis),
            trials=8,
            seed=1,
        )
        rep = run_ensemble(cfg, spec)
        assert rep.snr_empirical == np.inf
        assert rep.w_noise_mean == 0.0

    def test_validation(self, time_axis):
        mode = unit_gaussian_mode(time_axis)
        with pytest.raises(ValueError):
            NoiseEnsembleConfig(
                noise_psd=-0.1, signal_energy=1.0, signal_mode=mode, trials=4, seed=0
            )
        with pytest.raises(ValueError):
            NoiseEnsembleConfig(
                noise_psd=0.1, signal_energy=1.0, signal_mode=mode, trials=0, seed=0
            )
        crooked = SampledSignal(time_axis, 2.0 * mode.values)
        with pytest.raises(ValueError):
            NoiseEnsembleConfig(
                noise_psd=0.1, signal_energy=1.0, signal_mode=crooked, trials=4, seed=0
            )

    @pytest.mark.parametrize(
        "seed, error", [(-1, ValueError), (3.0, TypeError), ("3", TypeError), (3.5, TypeError)]
    )
    def test_seed_refused_at_the_boundary(self, time_axis, seed, error):
        # the errors SeedSequence would raise, refused before any trial is drawn
        mode = unit_gaussian_mode(time_axis)
        with pytest.raises(error):
            NoiseEnsembleConfig(
                noise_psd=0.1, signal_energy=1.0, signal_mode=mode, trials=4, seed=seed
            )
        with pytest.raises(error):
            filtered_noise_correlation(gaussian_sif(0.3, 1.0), 0.25, 1000, np.array([0.0]), seed=seed)
        with pytest.raises(error):
            np.random.SeedSequence(seed)

    def test_numpy_integer_seed_accepted(self, time_axis):
        mode = unit_gaussian_mode(time_axis)
        reports = [
            run_ensemble(
                NoiseEnsembleConfig(noise_psd=0.1, signal_energy=1.0, signal_mode=mode, trials=4, seed=seed),
                gaussian_sif(0.5, 1.0),
            )
            for seed in (np.uint64(2**40 + 3), 2**40 + 3)
        ]
        assert reports[0] == reports[1]

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_levels_refused(self, time_axis, bad):
        # each would run and return NaN; refused before any draw, as the CLI refuses them
        mode = unit_gaussian_mode(time_axis)
        for psd, energy in ((bad, 1.0), (0.1, bad)):
            with pytest.raises(ValueError, match="finite"):
                NoiseEnsembleConfig(
                    noise_psd=psd, signal_energy=energy, signal_mode=mode, trials=4, seed=0
                )
        with pytest.raises(ValueError, match="finite"):
            sample_white_noise(time_axis, bad, trial_generator(0, 0))
        with pytest.raises(ValueError, match="finite"):
            filtered_noise_correlation(gaussian_sif(0.3, 1.0), bad, 1000, np.array([0.0]), seed=0)

    def test_trials_fit_one_spawn_key_word(self, time_axis):
        # trial 2**32 would need a two-word spawn key; refused before any draw
        mode = unit_gaussian_mode(time_axis)
        NoiseEnsembleConfig(noise_psd=0.1, signal_energy=1.0, signal_mode=mode, trials=2**32, seed=0)
        with pytest.raises(ValueError):
            NoiseEnsembleConfig(
                noise_psd=0.1, signal_energy=1.0, signal_mode=mode, trials=2**32 + 1, seed=0
            )
        with pytest.raises(ValueError):
            filtered_noise_correlation(gaussian_sif(0.3, 1.0), 0.25, 2**32 + 1, np.array([0.0]), seed=0)


    def test_noise_scale_past_the_float_range_is_refused_before_any_draw(self, time_axis):
        # sqrt(N_y / 2 dt) overflows at N_y = 1e308 on a finite grid: one
        # sample is refused without taking a stream, rather than returned as NaN
        rng = trial_generator(0, 0)
        with pytest.raises(ResolutionError, match="past the float range"):
            sample_white_noise(time_axis, 1e308, rng)
        assert rng.standard_normal() == trial_generator(0, 0).standard_normal()

    def test_psd_whose_sample_scale_is_past_the_float_range_gives_finite_statistics(self, time_axis):
        # the ensembles draw at N_y 2**-k, so N_y = 1e308, whose per-sample
        # scale sqrt(N_y / 2 dt) is past the float range, still gives its
        # representable statistics (2**1020 gives them exactly, below)
        spec, mode = gaussian_sif(0.5, 1.0), unit_gaussian_mode(time_axis)
        cfg = NoiseEnsembleConfig(noise_psd=1e308, signal_energy=1.0, signal_mode=mode, trials=300, seed=0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = run_ensemble(cfg, spec)
            surface = filtered_noise_correlation(spec, 1e308, 1000, np.array([0.0, 0.2]), seed=0)
        assert all(np.isfinite(v) for v in (rep.w_total_mean, rep.w_noise_mean, rep.w_noise_stderr))
        assert rep.snr_empirical > 0
        for name in ("empirical", "stderr"):
            assert np.all(np.isfinite(getattr(surface, name))), name

    @pytest.mark.parametrize(
        "psd, energy", [(0.1, 1e308), (1e-10, 1e300)], ids=["signal_energy", "snr"]
    )
    def test_statistics_past_the_float_range_are_refused(self, psd, energy):
        # the filtered signal energy overflows; w_signal / w_noise_mean
        # overflows: each is refused, not reported as inf
        _, axis, mode, _ = snr_setup("gaussian", 0.5)
        cfg = NoiseEnsembleConfig(noise_psd=psd, signal_energy=energy, signal_mode=mode, trials=3, seed=1)
        with pytest.raises(ResolutionError, match="past the float range"):
            run_ensemble(cfg, gaussian_sif(0.5, 1.0))

    @pytest.mark.parametrize("power", [664, -664, 1020], ids=lambda p: f"2**{p}")
    def test_ensemble_statistics_scale_exactly_with_the_psd(self, power):
        # N_y = 2**664 (1.2e200) scales every noise sample by exactly 2**332,
        # so the noise energy and its stderr are those at N_y = 1 times N_y to
        # the bit: the noise is drawn at N_y 2**-k and the statistics scaled
        # back, so no sum overflows nor, at 2**-664, underflows
        _, axis, mode, _ = snr_setup("gaussian", 0.5)
        unit, scaled = (
            run_ensemble(
                NoiseEnsembleConfig(noise_psd=psd, signal_energy=1.0, signal_mode=mode, trials=300, seed=1),
                gaussian_sif(0.5, 1.0),
            )
            for psd in (1.0, 2.0**power)
        )
        assert scaled.w_noise_mean == unit.w_noise_mean * 2.0**power
        assert scaled.w_noise_stderr == unit.w_noise_stderr * 2.0**power > 0

    @pytest.mark.parametrize("power", [664, 996, -664, 1020], ids=lambda p: f"2**{p}")
    def test_correlation_moments_scale_exactly_with_the_psd(self, power):
        # the squares of the sample products (about N_y**2) would leave the
        # float range; drawn at N_y 2**-k and scaled back by 2**k, every array
        # is the unit one times N_y
        spec, lags = gaussian_sif(0.5, 1.0), np.array([0.0, 0.2])
        unit = filtered_noise_correlation(spec, 1.0, 1000, lags, seed=0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            scaled = filtered_noise_correlation(spec, 2.0**power, 1000, lags, seed=0)
        for name in ("empirical", "analytic", "stderr"):
            assert np.array_equal(getattr(scaled, name), getattr(unit, name) * 2.0**power), name

    def test_correlation_just_inside_the_float_range_scales_with_the_psd(self):
        spec, lags = gaussian_sif(0.5, 1.0), np.array([0.0, 0.2])
        unit = filtered_noise_correlation(spec, 1.0, 1000, lags, seed=0)
        huge = filtered_noise_correlation(spec, 1e150, 1000, lags, seed=0)
        for name in ("empirical", "analytic", "stderr"):
            np.testing.assert_allclose(getattr(huge, name) / 1e150, getattr(unit, name), rtol=1e-14)

    def test_finite_extremes_report_finite_statistics(self):
        # just inside the float range every statistic stays finite
        _, axis, mode, _ = snr_setup("gaussian", 0.5)
        cfg = NoiseEnsembleConfig(noise_psd=1e140, signal_energy=1e307, signal_mode=mode, trials=3, seed=1)
        rep = run_ensemble(cfg, gaussian_sif(0.5, 1.0))
        assert all(np.isfinite(v) for v in (rep.w_total_mean, rep.w_signal, rep.w_noise_mean,
                                            rep.w_noise_stderr, rep.snr_empirical))


# (filter, trials) pairs pushed through run_ensemble's batched path; 300
# trials cross the 256-trial block boundary
FAST_PATH_CASES = {
    "gaussian_frequency_first": (lambda: gaussian_sif(0.5, 1.0), 5),
    "rectangular_time_first": (lambda: rectangular_sif(2.0, 1.0, StageOrder.TIME_FIRST), 5),
    "second_block": (lambda: gaussian_sif(0.5, 1.0), 300),
}


class TestFastPathConsistency:
    @pytest.mark.parametrize("case", list(FAST_PATH_CASES))
    def test_batched_fft_equals_apply_filter(self, time_axis, case):
        # the batched ensemble must agree with the reference single-signal
        # path replayed trial by trial from the same (seed, trial) streams
        make_spec, trials = FAST_PATH_CASES[case]
        spec = make_spec()
        mode = unit_gaussian_mode(time_axis)
        cfg = NoiseEnsembleConfig(
            noise_psd=0.3, signal_energy=1.0, signal_mode=mode, trials=trials, seed=21
        )
        rep = run_ensemble(cfg, spec)
        y_sig = apply_filter(spec, mode).values
        w_noise, w_total = [], []
        for k in range(trials):
            nz = sample_white_noise(time_axis, 0.3, trial_generator(21, k))
            y = apply_filter(spec, nz).values
            w_noise.append(np.sum(np.abs(y) ** 2) * time_axis.measure)
            w_total.append(np.sum(np.abs(y + y_sig) ** 2) * time_axis.measure)
        assert rep.trials == trials
        assert rep.w_noise_mean == pytest.approx(np.mean(w_noise), rel=1e-12)
        assert rep.w_total_mean == pytest.approx(np.mean(w_total), rel=1e-12)
        stderr = np.std(w_noise, ddof=1) / np.sqrt(trials)
        assert rep.w_noise_stderr == pytest.approx(stderr, rel=1e-12)


# seeds on either side of the uint32 word boundaries of SeedSequence's entropy;
# 2**128 and beyond take more words than the four-word pool
SEED_BOUNDARIES = (0, 2**32 - 1, 2**32, 2**64, 2**128 - 1, 2**128, 2**160)
seeds = st.one_of(
    st.builds(lambda b, d: max(b + d, 0), st.sampled_from(SEED_BOUNDARIES), st.integers(-2, 2)),
    st.integers(min_value=0, max_value=2**192),
)


def reference_blocks(spec, axis, noise_psd, seed, trials):
    """The filtered blocks of _filtered_noise_blocks, each drawn whole from one
    trial_generator per trial and filtered by filter_samples."""
    for first in range(0, trials, noisesim._BATCH):
        block = range(first, min(first + noisesim._BATCH, trials))
        noise = [sample_white_noise(axis, noise_psd, trial_generator(seed, t)).values for t in block]
        yield filter_samples(spec, axis, np.stack(noise))


def reduced_reference_blocks(spec, axis, noise_psd, seed, trials, per_row, per_block):
    """_filtered_noise_blocks, serially on the reference blocks, each reduced whole."""
    return (per_block(*per_row(y)) for y in reference_blocks(spec, axis, noise_psd, seed, trials))


@pytest.fixture(scope="module")
def pools():
    """What noisesim._pool returns for 1, 2 and 3 workers."""
    made = {n: noisesim._start_pool(n) for n in (2, 3)}
    yield {1: (None, 1), **{n: (pool, n) for n, pool in made.items()}}
    for pool in made.values():
        pool.shutdown()


class TestWorkerPool:
    # blocks are reduced in their workers and added in block order; the trial
    # counts straddle the 256-row block edge and more blocks than workers + 1
    @pytest.mark.parametrize("trials", [1, 255, 256, 257, 300, 2048])
    @pytest.mark.parametrize("family, bt", [("gaussian", 0.5), ("slepian", 2.0)])
    def test_ensemble_independent_of_worker_count(self, monkeypatch, pools, family, bt, trials):
        spec, _, mode, _ = snr_setup(family, bt)
        cfg = NoiseEnsembleConfig(
            noise_psd=0.1, signal_energy=1.0, signal_mode=mode, trials=trials, seed=2**40 + trials
        )
        reports = []
        for workers in (1, 2, 3):
            monkeypatch.setattr(noisesim, "_pool", lambda pool=pools[workers]: pool)
            reports.append(run_ensemble(cfg, spec))
        assert reports[0] == reports[1] == reports[2]

    @pytest.mark.parametrize("trials", [1000, 1025, 2048])
    def test_correlation_independent_of_worker_count(self, monkeypatch, pools, trials):
        spec, lags = gaussian_sif(0.3, 1.0), np.array([0.0, 0.5, 2.0])
        surfaces = []
        for workers in (1, 2, 3):
            monkeypatch.setattr(noisesim, "_pool", lambda pool=pools[workers]: pool)
            surfaces.append(filtered_noise_correlation(spec, 0.25, trials, lags, seed=trials))
        for field in ("times", "lags", "empirical", "analytic", "stderr"):
            serial = getattr(surfaces[0], field)
            assert all(np.array_equal(getattr(s, field), serial) for s in surfaces[1:])

    def test_worker_error_reaches_the_caller(self, monkeypatch, pools):
        spec, _, mode, _ = snr_setup("gaussian", 0.5)
        cfg = NoiseEnsembleConfig(noise_psd=0.1, signal_energy=1.0, signal_mode=mode, trials=2048, seed=3)
        monkeypatch.setattr(noisesim, "_pool", lambda: pools[1])
        serial = run_ensemble(cfg, spec)
        monkeypatch.setattr(noisesim, "_pool", lambda: pools[3])
        chunks = noisesim._filtered_chunks
        started, running = [], set()

        def failing(transport, axis, noise_psd, seed, trials):
            started.append(trials.start)
            running.add(trials.start)
            try:
                if trials.start == 3 * noisesim._BATCH:
                    raise ResolutionError("block 3 failed")
                time.sleep(0.05)  # so later blocks are in flight when block 3 fails
                yield from chunks(transport, axis, noise_psd, seed, trials)
            finally:
                running.discard(trials.start)

        monkeypatch.setattr(noisesim, "_filtered_chunks", failing)
        with pytest.raises(ResolutionError, match="block 3 failed"):
            run_ensemble(cfg, spec)
        # the call returns once none of its blocks runs, and none starts after it
        assert not running
        count = len(started)
        time.sleep(0.2)
        assert len(started) == count
        monkeypatch.setattr(noisesim, "_filtered_chunks", chunks)
        assert run_ensemble(cfg, spec) == serial

    def test_concurrent_callers_share_one_pool(self, monkeypatch):
        # more callers than workers and more workers than cores, switching often:
        # the first calls race to make the pool, then share it
        monkeypatch.setattr(noisesim, "_pool_state", None)
        monkeypatch.setattr(noisesim, "_worker_count", lambda: 3)
        spec, _, mode, _ = snr_setup("gaussian", 0.5)
        cfgs = [NoiseEnsembleConfig(0.1, 1.0, mode, 600, seed) for seed in range(6)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(6) as callers:
                made = list(callers.map(lambda _: noisesim._pool(), range(6), timeout=60))
                reports = list(callers.map(lambda cfg: run_ensemble(cfg, spec), cfgs, timeout=60))
        finally:
            sys.setswitchinterval(interval)
            pool, _ = noisesim._pool()
            pool.shutdown()
        assert made == [(pool, 3)] * 6
        monkeypatch.setattr(noisesim, "_pool", lambda: (None, 1))
        assert reports == [run_ensemble(cfg, spec) for cfg in cfgs]

    @pytest.mark.parametrize("value, capped", [("3", 3), ("1", 1), (None, None), ("0", None), ("two", None)])
    def test_worker_count(self, monkeypatch, value, capped):
        # the CPUs of the affinity mask size the pool; with no masks, the CPU count does.
        # The deleted TF_FILTER_THREADS, whatever it holds, sizes nothing: capped is the
        # count it once gave, and the 4-CPU mask differs from each
        if value is None:
            monkeypatch.delenv("TF_FILTER_THREADS", raising=False)
        else:
            monkeypatch.setenv("TF_FILTER_THREADS", value)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5, 7}, raising=False)
        assert noisesim._worker_count() == 4 != capped
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: 5)
        assert noisesim._worker_count() == 5


class TestBlockKeys:
    @settings(max_examples=200, deadline=None, database=None)
    @given(seeds, st.lists(st.integers(min_value=0, max_value=2**32 - 1), min_size=1, max_size=6))
    def test_keys_are_seed_sequence_state(self, seed, trials):
        keys = _trial_keys(seed, np.array(trials))
        assert keys.dtype == np.uint64 and keys.shape == (len(trials), 2)
        for t, key in zip(trials, keys):
            ref = np.random.SeedSequence(entropy=seed, spawn_key=(t,)).generate_state(2, np.uint64)
            assert np.array_equal(key, ref)

    @pytest.mark.parametrize(
        "make_spec, axis",
        [
            (lambda: gaussian_sif(0.5, 1.0), centered_axis(1.0 / 12.0, 1024, Domain.TIME)),
            (
                lambda: rectangular_sif(2.0, 1.0, StageOrder.TIME_FIRST),
                centered_axis(1.0 / 121.0, 1024, Domain.TIME),
            ),
        ],
        ids=["gaussian", "brick_wall"],
    )
    def test_ensemble_equals_trial_generator_blocks(self, monkeypatch, make_spec, axis):
        # 300 trials cross the 256-row block edge; a seed past 2**32 takes two words
        spec = make_spec()
        mode = SampledSignal(axis, np.exp(-np.pi * axis.points**2).astype(complex)).normalized()
        cfg = NoiseEnsembleConfig(
            noise_psd=0.3, signal_energy=1.0, signal_mode=mode, trials=300, seed=2**40 + 9
        )
        rep = run_ensemble(cfg, spec)
        monkeypatch.setattr(noisesim, "_filtered_noise_blocks", reduced_reference_blocks)
        assert rep == run_ensemble(cfg, spec)

    def test_correlation_equals_trial_generator_blocks(self, monkeypatch):
        spec, lags = gaussian_sif(0.3, 1.0), np.array([0.0, 0.5, 2.0])
        surf = filtered_noise_correlation(spec, 0.25, 1000, lags, seed=41)
        monkeypatch.setattr(noisesim, "_filtered_noise_blocks", reduced_reference_blocks)
        ref = filtered_noise_correlation(spec, 0.25, 1000, lags, seed=41)
        for field in ("times", "lags", "empirical", "analytic", "stderr"):
            assert np.array_equal(getattr(surf, field), getattr(ref, field))


# (filter, time grid) pairs whose chunks hold 256 (N = 128), 60 (N = 544) and 32 (N = 1024)
# rows: the window-first Gaussian and the gate-first brick wall of `tffilter snr`, and N = 1024
CHUNK_GRIDS = {
    "gaussian_snr": lambda: snr_setup("gaussian", 0.5)[:2],
    "brick_wall_snr": lambda: snr_setup("slepian", 2.0)[:2],
    "n1024": lambda: (gaussian_sif(0.5, 1.0), centered_axis(1.0 / 12.0, 1024, Domain.TIME)),
}


class TestChunks:
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("grid", list(CHUNK_GRIDS))
    def test_rows_are_the_replayed_trials_across_chunk_and_block_edges(self, monkeypatch, pools, grid, workers):
        spec, axis = CHUNK_GRIDS[grid]()
        chunk = noisesim._CHUNK_BYTES // (16 * axis.count)
        trials, seed, psd = 300, 2**40 + 11, 0.3
        monkeypatch.setattr(noisesim, "_pool", lambda: pools[workers])
        # every row, copied out of the reused chunk buffer with the rows last
        blocks = noisesim._filtered_noise_blocks(
            spec, axis, psd, seed, trials, lambda y: (y.T.copy(),), lambda rows: (rows.T,)
        )
        rows = np.ascontiguousarray(np.concatenate([block for block, in blocks]))
        assert rows.shape == (trials, axis.count)
        for t in sorted({0, chunk - 1, chunk, 255, 256, trials - 1}):
            noise = sample_white_noise(axis, psd, trial_generator(seed, t)).values
            ref = filter_samples(spec, axis, noise)
            assert np.array_equal(rows[t].view(np.uint64), ref.view(np.uint64)), t

    @pytest.mark.parametrize("rows", [1, 3, None, 256], ids=["rows1", "rows3", "budget", "block"])
    def test_reports_do_not_depend_on_the_chunk_size(self, monkeypatch, rows):
        # past 8192 floats einsum sums a lone row in another order than each row
        # of a larger array, and 2**13 samples make 16384.  301 and 1025 trials
        # end in ragged blocks; every report equals the one reduced from whole blocks
        spec, axis = gaussian_sif(0.5, 1.0), centered_axis(1.0 / 12.0, 2**13, Domain.TIME)
        cfg = NoiseEnsembleConfig(0.3, 1.0, unit_gaussian_mode(axis), 301, 2**40 + 5)
        corr_spec, lags = gaussian_sif(0.3, 1.0), np.array([0.0, 0.5, 2.0])
        corr_axis, _ = noisesim._auto_correlation_axis(corr_spec, 0.5 + lags.max())
        monkeypatch.setattr(noisesim, "_pool", lambda: (None, 1))

        def chunks_of(count):
            if rows is not None:
                monkeypatch.setattr(noisesim, "_CHUNK_BYTES", 16 * rows * count)

        chunks_of(axis.count)
        report = run_ensemble(cfg, spec)
        chunks_of(corr_axis.count)
        surface = filtered_noise_correlation(corr_spec, 0.25, 1025, lags, seed=41)
        monkeypatch.setattr(noisesim, "_filtered_noise_blocks", reduced_reference_blocks)
        assert report == run_ensemble(cfg, spec)
        ref = filtered_noise_correlation(corr_spec, 0.25, 1025, lags, seed=41)
        for field in ("empirical", "stderr"):
            assert np.array_equal(getattr(surface, field), getattr(ref, field))

    @pytest.mark.parametrize("workers", [1, 2])
    def test_working_set_is_bounded(self, monkeypatch, pools, workers):
        # a whole block of 2**14 samples would take 64 MiB.  Each worker holds
        # one chunk and its float staging buffer, 2 _CHUNK_BYTES, beside a few
        # arrays of the grid: the filter's factors, the signal, the FFT's output
        n = 2**14
        spec, axis = gaussian_sif(0.5, 1.0), centered_axis(1.0 / 12.0, n, Domain.TIME)
        cfg = NoiseEnsembleConfig(0.1, 1.0, unit_gaussian_mode(axis), 300, 5)
        monkeypatch.setattr(noisesim, "_pool", lambda: pools[workers])
        tracemalloc.start()
        try:
            run_ensemble(cfg, spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= workers * 2 * noisesim._CHUNK_BYTES + 8 * 16 * n


class TestCorrelation:
    def test_analytic_agreement_moderate_bt(self):
        spec = gaussian_sif(0.3, 1.0)
        surf = filtered_noise_correlation(
            spec, 0.25, 2000, np.array([0.0, 0.5, 2.0]), seed=31
        )
        dev = np.abs(surf.empirical - surf.analytic) / surf.stderr
        assert np.max(dev) < 5.0

    def test_brick_wall_analytic_is_the_sinc(self):
        # rho(tau) = integral_{|w| < pi B} exp(-i w tau) dw / 2pi = sin(pi B tau) / (pi tau),
        # B at tau = 0 and 0 at the zeros tau = k / B, on the window's
        # Gauss-Legendre axis (a trapezoid over the band edge read rho(0) 1.2e-4 low)
        spec = rectangular_sif(2.0, 1.0)
        surf = filtered_noise_correlation(spec, 1.0, 1000, np.array([0.0, 0.5, 2.0]), seed=5)
        assert np.array_equal(surf.lags, [0.0, 0.5, 2.0])
        tau = np.where(surf.lags == 0.0, 1.0, surf.lags)
        rho = np.where(surf.lags == 0.0, 2.0, np.sin(2.0 * np.pi * tau) / (np.pi * tau))
        gate = spec.temporal
        expected = (
            gate(surf.times[:, None] + surf.lags[None, :])
            * np.conj(gate(surf.times))[:, None]
            * rho[None, :]
        )
        assert np.max(np.abs(surf.analytic - expected)) <= 1e-13

    @pytest.mark.parametrize(
        "spec, noise_psd",
        [(gaussian_sif(0.5, 1.0), 0.25), (rectangular_sif(2.0, 1.0), 1.0)],
        ids=["gaussian", "brick-wall"],
    )
    def test_even_window_analytic_is_exactly_real(self, spec, noise_psd):
        # an even window's rho(tau) is a cosine sum: no imaginary rounding,
        # and the real parts of the complex exponential sum within 1e-16
        surf = filtered_noise_correlation(spec, noise_psd, 1000, np.array([0.0, 0.5, 1.0]), seed=3)
        assert surf.analytic.dtype == complex
        assert np.all(surf.analytic.imag == 0.0)
        pts, wts = noisesim._window_power_moments(spec)
        rho = (np.exp(-1j * np.outer(surf.lags, pts)) @ wts) / (2.0 * np.pi)
        gate = spec.temporal
        complex_sum = (
            noise_psd
            * gate(surf.times[:, None] + surf.lags[None, :])
            * np.conj(gate(surf.times))[:, None]
            * rho[None, :]
        )
        assert np.max(np.abs(surf.analytic.real - complex_sum.real)) <= 1e-16

    def test_zero_lag_column_is_power(self):
        spec = gaussian_sif(0.3, 1.0)
        surf = filtered_noise_correlation(spec, 0.25, 1500, np.array([0.0]), seed=8)
        # tau = 0: correlation reduces to mean |y(t)|^2, strictly positive real
        col = surf.empirical[:, 0]
        assert np.max(np.abs(col.imag)) < np.max(col.real) * 0.05
        assert np.all(col.real > 0)

    def test_requires_enough_trials(self):
        spec = gaussian_sif(0.3, 1.0)
        with pytest.raises(ValueError):
            filtered_noise_correlation(spec, 0.25, 10, np.array([0.0]), seed=1)

    def test_requires_positive_noise(self):
        spec = gaussian_sif(0.3, 1.0)
        with pytest.raises(ValueError):
            filtered_noise_correlation(spec, 0.0, 2000, np.array([0.0]), seed=1)

    @pytest.mark.parametrize("name", ["lags"])
    @pytest.mark.parametrize("bad", [[np.nan], [0.0, np.inf], [-np.inf], []], ids=str)
    def test_non_finite_or_empty_probes_refused(self, name, bad):
        # refused by name before any grid snap, rather than as a cast warning,
        # a misleading "outside the grid" error or an empty-array reduction
        with pytest.raises(ValueError, match=f"^{name} must be"):
            filtered_noise_correlation(gaussian_sif(0.3, 1.0), 0.25, 1000, np.array(bad), seed=0)

    @pytest.mark.parametrize("lags", [[[0.0, 0.5]], 0.5], ids=["2-d", "0-d"])
    def test_lags_that_are_not_1d_are_refused_before_any_draw(self, monkeypatch, lags):
        def refuse(*args):
            raise AssertionError("a block was drawn")

        monkeypatch.setattr(noisesim, "_filtered_noise_blocks", refuse)
        with pytest.raises(ValueError, match="^lags must be a non-empty 1-D array of finite numbers$"):
            filtered_noise_correlation(gaussian_sif(0.3, 1.0), 0.25, 1000, np.array(lags), seed=0)

    @pytest.mark.parametrize(
        "family, bw, duration, reach",
        [
            ("gaussian", 0.5, 1.0, 4.5),  # demo 04's lags
            ("gaussian", 0.05, 1.0, 8.5),
            ("gaussian", 1.6, 1.0, 0.0),  # the resolution guard sets the span
            ("gaussian", 4.0, 2.0, 1.0),
            ("brick_wall", 2.0, 1.0, 2.5),
        ],
    )
    def test_default_grid_is_minimal(self, family, bw, duration, reach):
        # the rms angular frequency of |R~|^2: B sqrt(2 pi) for the Gaussian,
        # pi B / sqrt(3) for the brick wall
        if family == "gaussian":
            spec, sigma_w = gaussian_sif(bw, duration), bw * np.sqrt(2.0 * np.pi)
        else:
            spec, sigma_w = rectangular_sif(bw, duration), np.pi * bw / np.sqrt(3.0)
        axis, _ = noisesim._auto_correlation_axis(spec, reach)
        assert axis.step == min(1.0 / (10.0 * bw), duration / 8.0)
        span = max(8.0 * np.pi / sigma_w, 2.0 * (spec.temporal.support(1e-10) + reach))
        assert_minimal_grid(spec, axis, span)

    @pytest.mark.parametrize(
        "bt, lag", [(1.0, 1e6), (1.0, 1.7e308), (1e-4, 2.0)], ids=["lag-1e6", "lag-1.7e308", "bt-1e-4"]
    )
    def test_oversized_grid_is_refused_before_it_is_built(self, monkeypatch, bt, lag):
        # lag 1e6 asks for 2**25 samples, 137 GB per block of trials, and BT 1e-4
        # at lag 2 for 2**20 or more; lag 1.7e308 puts the span past the float
        # range.  Each is refused before the axis or any block, with no warning
        def refuse(*args):
            raise AssertionError("the grid was built")

        monkeypatch.setattr(noisesim, "centered_axis", refuse)
        monkeypatch.setattr(noisesim, "_filtered_noise_blocks", refuse)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ResolutionError, match="above the 131072-sample limit"):
                filtered_noise_correlation(gaussian_sif(bt, 1.0), 0.25, 1000, np.array([0.0, lag]), seed=0)

    @pytest.mark.parametrize("bt", [1e-300, 1e-320])
    def test_window_past_the_float_range_is_refused_before_it_is_evaluated(self, monkeypatch, bt):
        # the window's 1e-13 radius already asks for more than 2**17 samples,
        # so its moments, whose squares underflow, are never formed
        def refuse(spec):
            raise AssertionError("the window was evaluated")

        monkeypatch.setattr(noisesim, "_window_power_moments", refuse)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ResolutionError, match="above the 131072-sample limit"):
                filtered_noise_correlation(gaussian_sif(bt, 1.0), 0.25, 1000, np.array([0.0]), seed=0)

    def test_grid_at_the_limit_is_kept(self):
        # BT 1, T 1: dt = 0.1, so reach 6000 spans about 120 000 steps and 7000 about 140 000
        spec = gaussian_sif(1.0, 1.0)
        assert noisesim._auto_correlation_axis(spec, 6000.0)[0].count == noisesim.SNR_MAX_SAMPLES
        with pytest.raises(ResolutionError, match="above the 131072-sample limit"):
            noisesim._auto_correlation_axis(spec, 7000.0)

    def test_window_moments_evaluated_once(self, monkeypatch):
        # the default grid and the analytic surface share one |R~|^2 quadrature
        calls = []
        moments = noisesim._window_power_moments
        monkeypatch.setattr(
            noisesim, "_window_power_moments", lambda spec: calls.append(spec) or moments(spec)
        )
        filtered_noise_correlation(gaussian_sif(0.3, 1.0), 0.25, 1000, np.array([0.0]), seed=4)
        assert len(calls) == 1

    def test_surface_shapes(self):
        # five probe times across the gate duration T = 1, which the grid's
        # step, min(1/(10 B), T/8) = 1/8, holds exactly
        spec = gaussian_sif(0.3, 1.0)
        lags = np.array([0.0, 1.0])
        surf = filtered_noise_correlation(spec, 0.25, 1000, lags, seed=2)
        assert surf.empirical.shape == (5, 2)  # (times, lags)
        assert surf.analytic.shape == (5, 2)
        assert surf.trials == 1000
        assert np.array_equal(surf.times, np.linspace(-0.5, 0.5, 5))
