"""Monte Carlo noise ensembles: statistics, determinism, correlations."""

import numpy as np
import pytest

from tffilter.core import (
    Domain,
    ResolutionError,
    SampledAxis,
    SampledSignal,
    SpectralWindow,
    StageOrder,
    TemporalGate,
    apply_filter,
    centered_axis,
)
from tffilter.gaussian import gaussian_sif, gaussian_tradeoff
from tffilter import noisesim
from tffilter.metrics import analytic_snr
from tffilter.noisesim import (
    RNG_ALGORITHM,
    NoiseEnsembleConfig,
    _white_rows,
    filtered_noise_correlation,
    run_ensemble,
    sample_white_noise,
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
        rows = _white_rows(axis, psd, [trial_generator(seed, t) for t in range(5)])
        scale = np.sqrt(psd / (2.0 * axis.step))
        for t, row in enumerate(rows):
            z = trial_generator(seed, t).standard_normal((2, axis.count))
            ref = scale * (z[0] + 1j * z[1])
            assert np.array_equal(row.view(np.uint64), ref.view(np.uint64))

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


class TestEnsembleStatistics:
    def test_noise_energy_mean_matches_ladder(self, time_axis):
        # <W_noise> = N_y * sum lambda_n^2 = N_y * BT
        spec = gaussian_sif(0.5, 1.0)
        cfg = NoiseEnsembleConfig(
            noise_psd=0.2,
            signal_energy=0.0,
            signal_mode=unit_gaussian_mode(time_axis),
            trials=3000,
            seed=17,
        )
        rep = run_ensemble(cfg, spec)
        expected = 0.2 * 0.5
        assert abs(rep.w_noise_mean - expected) < 3.0 * rep.w_noise_stderr
        assert rep.w_noise_stderr < 0.01 * expected * 10

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


# (filter, trials) pairs pushed through run_ensemble's batched path; 300
# trials cross the 256-trial block boundary
FAST_PATH_CASES = {
    "gaussian_frequency_first": (lambda: gaussian_sif(0.5, 1.0), 5),
    "rectangular_time_first": (lambda: rectangular_sif(2.0, 1.0, StageOrder.TIME_FIRST), 5),
    "lone_spectral_window": (lambda: SpectralWindow(gaussian_sif(0.5, 1.0).spectral, 0.9), 5),
    "lone_temporal_gate": (lambda: TemporalGate(gaussian_sif(0.5, 1.0).temporal, 0.8), 5),
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
        gate = spec.temporal.gate
        expected = (
            spec.insertion_loss**2
            * gate(surf.times[:, None] + surf.lags[None, :])
            * np.conj(gate(surf.times))[:, None]
            * rho[None, :]
        )
        assert np.max(np.abs(surf.analytic - expected)) <= 1e-13

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

    def test_coarse_caller_axis_refused(self):
        # B = 4 Hz needs dt <= 0.025; a caller's coarser grid is refused just
        # as apply_filter refuses it
        spec = gaussian_sif(4.0, 1.0)
        coarse = centered_axis(0.2, 512, Domain.TIME)
        with pytest.raises(ResolutionError):
            apply_filter(spec, SampledSignal(coarse, np.zeros(512)))
        with pytest.raises(ResolutionError):
            filtered_noise_correlation(spec, 0.25, 1000, np.array([0.0]), seed=3, axis=coarse)

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
        spec = gaussian_sif(0.3, 1.0)
        lags = np.array([0.0, 1.0])
        times = np.array([-0.25, 0.0, 0.25])
        surf = filtered_noise_correlation(spec, 0.25, 1000, lags, seed=2, times=times)
        assert surf.empirical.shape == (3, 2)  # (times, lags)
        assert surf.analytic.shape == (3, 2)
        assert surf.trials == 1000
