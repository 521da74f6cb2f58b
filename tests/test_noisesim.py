"""Monte Carlo noise ensembles: statistics, determinism, correlations."""

import os
import sys
import time
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
        rows = _white_rows(axis, psd, 5, [trial_generator(seed, t) for t in range(5)])
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
        s = gaussian_singular_values(spec, 60)  # s_59^2 ~ 1e-46
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
        # the errors SeedSequence raises, before any trial is drawn
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
    """_filtered_noise_blocks rebuilt from one trial_generator per trial."""
    for first in range(0, trials, noisesim._BATCH):
        rngs = [trial_generator(seed, t) for t in range(first, min(first + noisesim._BATCH, trials))]
        yield filter_samples(spec, axis, _white_rows(axis, noise_psd, len(rngs), rngs))


def reduced_reference_blocks(spec, axis, noise_psd, seed, trials, reduce):
    """_filtered_noise_blocks, serially on the reference blocks."""
    return map(reduce, reference_blocks(spec, axis, noise_psd, seed, trials))


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
        block = noisesim._filtered_block
        started, running = [], set()

        def failing(spec, axis, noise_psd, seed, trials):
            started.append(trials.start)
            running.add(trials.start)
            try:
                if trials.start == 3 * noisesim._BATCH:
                    raise ResolutionError("block 3 failed")
                time.sleep(0.05)  # so later blocks are in flight when block 3 fails
                return block(spec, axis, noise_psd, seed, trials)
            finally:
                running.discard(trials.start)

        monkeypatch.setattr(noisesim, "_filtered_block", failing)
        with pytest.raises(ResolutionError, match="block 3 failed"):
            run_ensemble(cfg, spec)
        # the call returns once none of its blocks runs, and none starts after it
        assert not running
        count = len(started)
        time.sleep(0.2)
        assert len(started) == count
        monkeypatch.setattr(noisesim, "_filtered_block", block)
        assert run_ensemble(cfg, spec) == serial

    def test_concurrent_callers_share_one_pool(self, monkeypatch):
        # more callers than workers and more workers than cores, switching often:
        # the first calls race to make the pool, then share it
        monkeypatch.setattr(noisesim, "_pool_state", None)
        monkeypatch.setenv("TF_FILTER_THREADS", "3")
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

    @pytest.mark.parametrize("value, workers", [("3", 3), ("1", 1), (None, None), ("0", None), ("two", None)])
    def test_worker_count(self, monkeypatch, value, workers):
        # TF_FILTER_THREADS sizes the pool; unset or invalid, the CPUs of the affinity mask do
        if value is None:
            monkeypatch.delenv("TF_FILTER_THREADS", raising=False)
        else:
            monkeypatch.setenv("TF_FILTER_THREADS", value)
        assert noisesim._worker_count() == (workers or len(os.sched_getaffinity(0)))


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
            spec.insertion_loss**2
            * gate(surf.times[:, None] + surf.lags[None, :])
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
            * spec.insertion_loss**2
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

    @pytest.mark.parametrize("name", ["lags", "times"])
    @pytest.mark.parametrize("bad", [[np.nan], [0.0, np.inf], [-np.inf], []], ids=str)
    def test_non_finite_or_empty_probes_refused(self, name, bad):
        # refused by name before any grid snap, rather than as a cast warning,
        # a misleading "outside the grid" error or an empty-array reduction
        probes = {"lags": np.array([0.0]), "times": None, name: np.array(bad)}
        with pytest.raises(ValueError, match=f"^{name} must be"):
            filtered_noise_correlation(
                gaussian_sif(0.3, 1.0), 0.25, 1000, probes["lags"], seed=0, times=probes["times"]
            )

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
