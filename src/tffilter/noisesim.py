"""Monte Carlo noise transport through a filter.

Complex white noise with two-sided power spectral density N_y enters the
filter together with a deterministic signal prepared in a single mode.  The
ensemble statistics after filtering are known in closed form,

    E[W_noise] = N_y * sum_n s_n^2,
    <y(t1) conj(y(t2))> = N_y Q(t1) conj(Q(t2)) rho(t1 - t2)   (window first),
    rho(tau) = integral |R~(w)|^2 exp(-i w tau) dw / 2pi,

and this module estimates both empirically so the closed forms can be
certified at Monte Carlo precision.

Each block of trials is drawn into one complex array and filtered in place by
``core.filter_samples`` (pre-diagonal, FFT, mid-diagonal, FFT, post-diagonal),
the transport ``apply_filter`` uses for single signals.

Reproducibility: trial t draws from Philox keyed by
SeedSequence(entropy=seed, spawn_key=(t,)), so any trial can be replayed in
isolation and results are independent of batching.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import asdict, dataclass

import numpy as np

from .core import (
    Domain,
    DomainMismatchError,
    FilterSpec,
    SampledAxis,
    SampledSignal,
    Sif,
    StageOrder,
    _check_grid,
    _profile_axis,
    _uniform,
    apply_filter,
    centered_axis,
    filter_samples,
)
from .gaussian import gaussian_sif, gaussian_tradeoff, hermite_gaussian_mode_set
from .slepian import rectangular_filter_modes, rectangular_sif, slepian_tradeoff

__all__ = [
    "RNG_ALGORITHM",
    "NoiseEnsembleConfig",
    "EnergyReport",
    "trial_generator",
    "sample_white_noise",
    "run_ensemble",
    "snr_setup",
    "CorrelationSurface",
    "filtered_noise_correlation",
]

RNG_ALGORITHM = "philox4x64"

_BATCH = 256  # trials per filter_samples block


def trial_generator(seed: int, trial: int) -> np.random.Generator:
    """Independent, replayable stream for one trial."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(trial,))
    return np.random.Generator(np.random.Philox(ss))


def sample_white_noise(
    axis: SampledAxis, noise_psd: float, rng: np.random.Generator
) -> SampledSignal:
    """Band-unlimited complex white noise on a time grid.

    Per-sample variance N_y / dt (split evenly between quadratures), so the
    discrete autocorrelation approaches N_y * delta(t - t') as dt -> 0 and
    the expected energy on the grid is N_y * span / dt * dt = N_y * count * dt
    ... i.e. N_y per unit bandwidth across the grid's full Nyquist band.
    """
    if axis.domain is not Domain.TIME:
        raise DomainMismatchError("white noise is sampled on a time axis")
    if noise_psd < 0:
        raise ValueError("noise power spectral density must be nonnegative")
    return SampledSignal(axis, _white_rows(axis, noise_psd, [rng])[0])


def _white_rows(axis: SampledAxis, noise_psd: float, rngs: list[np.random.Generator]) -> np.ndarray:
    """One row of white noise per generator, as :func:`sample_white_noise` draws it."""
    scale = np.sqrt(noise_psd / (2.0 * _uniform(axis).step))
    rows = np.empty((len(rngs), axis.count), dtype=complex)
    draws = np.empty((2, axis.count))  # one buffer, refilled per trial in stream order
    for row, rng in zip(rows, rngs):
        rng.standard_normal(out=draws)
        row.real, row.imag = draws
    rows *= scale
    return rows


def _filtered_noise_blocks(
    spec: FilterSpec, axis: SampledAxis, noise_psd: float, seed: int, trials: int
) -> Iterator[np.ndarray]:
    """Filtered white noise of trials 0 .. trials-1, yielded in blocks of _BATCH rows."""
    for first in range(0, trials, _BATCH):
        rngs = [trial_generator(seed, t) for t in range(first, min(first + _BATCH, trials))]
        yield filter_samples(spec, axis, _white_rows(axis, noise_psd, rngs))


@dataclass(frozen=True)
class NoiseEnsembleConfig:
    """Inputs of one signal-plus-noise ensemble run."""

    noise_psd: float
    signal_energy: float
    signal_mode: SampledSignal
    trials: int
    seed: int

    def __post_init__(self) -> None:
        if self.noise_psd < 0:
            raise ValueError("noise_psd must be nonnegative")
        if self.signal_energy < 0:
            raise ValueError("signal_energy must be nonnegative")
        if self.trials < 1:
            raise ValueError("need at least one trial")
        if self.signal_mode.axis.domain is not Domain.TIME:
            raise DomainMismatchError("signal mode must live on a time axis")
        if abs(self.signal_mode.norm() - 1.0) > 1e-10:
            raise ValueError("signal mode must have unit norm (within 1e-10)")


@dataclass(frozen=True)
class EnergyReport:
    """Ensemble energy statistics behind the filter.

    ``w_total_mean`` tracks ``w_signal + w_noise_mean`` (exact in expectation;
    the signal-noise cross term averages to zero).  ``snr_empirical`` is
    w_signal / w_noise_mean, +inf for a noiseless run.
    """

    w_total_mean: float
    w_signal: float
    w_noise_mean: float
    w_noise_stderr: float
    snr_empirical: float
    trials: int
    seed: int
    rng_algorithm: str = RNG_ALGORITHM

    def as_dict(self) -> dict:
        return asdict(self)


def run_ensemble(cfg: NoiseEnsembleConfig, spec: FilterSpec) -> EnergyReport:
    """Push signal + noise through the filter for cfg.trials independent trials.

    The deterministic signal is filtered once; each trial filters a fresh
    white-noise draw and records the noise energy and the total (signal plus
    noise) energy at the filter output, the latter as w_noise + 2 Re<y_sig, y>
    + w_signal: both are one pass over the float view of each block.
    """
    axis = cfg.signal_mode.axis
    amp = np.sqrt(cfg.signal_energy)
    sig_in = SampledSignal(axis, amp * cfg.signal_mode.values)
    y_sig = apply_filter(spec, sig_in)
    w_signal = y_sig.energy()

    w_noise, cross = [], 0.0
    for y_noise in _filtered_noise_blocks(spec, axis, cfg.noise_psd, cfg.seed, cfg.trials):
        y_view = y_noise.view(float)
        w_noise.append(np.einsum("ij,ij->i", y_view, y_view) * axis.measure)
        cross += np.sum(y_view @ y_sig.values.view(float))
    w_noise = np.concatenate(w_noise)

    w_noise_mean = float(np.mean(w_noise))
    stderr = float(np.std(w_noise, ddof=1) / np.sqrt(cfg.trials)) if cfg.trials > 1 else 0.0
    snr = w_signal / w_noise_mean if w_noise_mean > 0 else float("inf")
    return EnergyReport(
        w_total_mean=float(w_noise_mean + 2.0 * cross * axis.measure / cfg.trials + w_signal),
        w_signal=float(w_signal),
        w_noise_mean=w_noise_mean,
        w_noise_stderr=stderr,
        snr_empirical=snr,
        trials=cfg.trials,
        seed=cfg.seed,
    )


def snr_setup(family: str, bt: float) -> tuple[Sif, SampledAxis, SampledSignal, float]:
    """(filter, time grid, unit input ground mode, analytic xi) for an SNR ensemble.

    ``family`` is "gaussian" (window then gate) or "slepian" (brick-wall gate
    then window), at time-bandwidth product ``bt`` with a unit gate duration.
    The grid is a centered power-of-two time axis for the Gaussian family; for
    the brick-wall family it puts the gate and band edges mid-cell.
    """
    if family == "gaussian":
        spec = gaussian_sif(bt, 1.0)
        dt = min(1.0 / (12.0 * bt), 1.0 / 12.0)
        gate_reach = spec.temporal.temporal_support(1e-12)
        mode_reach = 6.0 / min(spec.alpha, spec.beta)
        half = max(gate_reach, mode_reach) + 1.0
        count = 1 << max(10, int(np.ceil(np.log2(2.0 * half / dt))))
        mode_set, tradeoff = hermite_gaussian_mode_set, gaussian_tradeoff
    elif family == "slepian":
        spec = rectangular_sif(bt, 1.0, order=StageOrder.TIME_FIRST)
        # brick-wall edges quantize plain Riemann sums; put the gate edge and the
        # band edge exactly mid-cell so the discrete T and B sums are exact
        j = max(60, int(np.ceil(5.0 * bt)))
        dt = 1.0 / (2 * j + 1)
        band_cells = max(5, 2 * int(np.ceil(2.0 * bt)) + 1)
        count = int(round(band_cells * (2 * j + 1) / bt))
        mode_set, tradeoff = rectangular_filter_modes, slepian_tradeoff
    else:
        raise ValueError(f"unknown filter family {family!r}")
    axis = centered_axis(dt, count, Domain.TIME)
    mode = mode_set(spec, axis, 1, "input")[0].normalized()
    return spec, axis, mode, tradeoff(bt)[1]


# ---------------------------------------------------------------------------
# two-time correlation of filtered noise


@dataclass(frozen=True)
class CorrelationSurface:
    """Empirical vs analytic <y(t + tau) conj(y(t))> on a (times, lags) grid.

    ``stderr[i, j]`` is the Monte Carlo standard error of the complex sample
    mean at that point (sqrt of total complex variance / trials), the natural
    yardstick for |empirical - analytic|.
    """

    times: np.ndarray
    lags: np.ndarray
    empirical: np.ndarray
    analytic: np.ndarray
    stderr: np.ndarray
    trials: int


def _window_power_moments(spec: Sif) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights for integrals against |R~(w)|^2 dw.

    The nodes are the window's own axis (:func:`tffilter.core._profile_axis`),
    the weights 2 pi w |R~|^2 with w its quadrature weights under dw/2pi.
    """
    win = spec.spectral
    axis = _profile_axis(win)
    pts = axis.points
    return pts, 2.0 * np.pi * axis.quadrature_weights() * np.abs(win.window(pts)) ** 2


def _auto_correlation_axis(spec: Sif, max_reach: float, moments: tuple) -> SampledAxis:
    """Time grid dense and wide enough for faithful correlation statistics.

    dt resolves both the window (dt <= 1/(10 B)) and the gate; the span keeps
    the FFT frequency spacing below a quarter of the spectral width of
    |R~(w)|^2, so the grid-induced correlation bias stays far below the Monte
    Carlo noise floor.  ``moments`` is :func:`_window_power_moments` of ``spec``.
    """
    bw = spec.spectral.bandwidth_hz
    duration = spec.temporal.duration_s
    dt = min(1.0 / (10.0 * bw), duration / 8.0)
    pts, wts = moments
    total = np.sum(wts)
    sigma_w = np.sqrt(np.sum(wts * pts**2) / total)
    span_needed = max(
        2.0 * np.pi / (sigma_w / 4.0),
        2.0 * (spec.temporal.temporal_support(1e-10) + max_reach),
    )
    count = 1 << int(np.ceil(np.log2(span_needed / dt)))
    count = max(count, 512)
    return centered_axis(dt, count, Domain.TIME)


def filtered_noise_correlation(
    spec: Sif,
    noise_psd: float,
    trials: int,
    lags: np.ndarray,
    *,
    seed: int,
    times: np.ndarray | None = None,
    axis: SampledAxis | None = None,
) -> CorrelationSurface:
    """Estimate <y(t + tau) conj(y(t))> for window-then-gate white-noise input.

    Closed form: N_y Q(t + tau) conj(Q(t)) rho(tau) with rho the inverse
    transform of |R~|^2.  Probe times default to five points across the gate
    duration; times and lags are snapped to the simulation grid so empirical
    samples need no interpolation.  At least 1000 trials are required for the
    stderr estimate to be meaningful.  The grid, default or ``axis``, must pass
    the same resolution guard as :func:`tffilter.core.apply_filter`, else
    :class:`tffilter.core.ResolutionError` is raised.
    """
    if not isinstance(spec, Sif) or spec.order is not StageOrder.FREQUENCY_FIRST:
        raise ValueError("correlation analysis covers the window-then-gate composition")
    if trials < 1000:
        raise ValueError("need at least 1000 trials for stable error bars")
    if noise_psd <= 0:
        raise ValueError("noise_psd must be positive")
    lags = np.asarray(lags, dtype=float)
    if times is None:
        half = 0.5 * spec.temporal.duration_s
        times = np.linspace(-half, half, 5)
    times = np.asarray(times, dtype=float)
    reach = np.max(np.abs(times)) + np.max(np.abs(lags))
    pts, wts = _window_power_moments(spec)
    if axis is None:
        axis = _auto_correlation_axis(spec, reach, (pts, wts))
    if axis.domain is not Domain.TIME:
        raise DomainMismatchError("correlation runs on a time grid")
    _check_grid(spec, axis)

    # snap probes and lags onto the grid
    t_idx = np.rint((times - axis.start) / axis.step).astype(int)
    l_idx = np.rint(lags / axis.step).astype(int)
    if np.any(t_idx < 0) or np.any(t_idx >= axis.count):
        raise ValueError("probe times fall outside the grid")
    pair = t_idx[:, None] + l_idx[None, :]
    if np.any(pair < 0) or np.any(pair >= axis.count):
        raise ValueError("time + lag combinations fall outside the grid")
    times_g = axis.start + axis.step * t_idx
    lags_g = axis.step * l_idx

    s1 = np.zeros((len(times_g), len(lags_g)), dtype=complex)
    s2 = np.zeros((len(times_g), len(lags_g)))
    for y in _filtered_noise_blocks(spec, axis, noise_psd, seed, trials):
        z = y[:, pair] * np.conj(y[:, t_idx])[:, :, None]
        s1 += np.sum(z, axis=0)
        s2 += np.sum(np.abs(z) ** 2, axis=0)

    emp = s1 / trials
    var_c = s2 / trials - np.abs(emp) ** 2
    stderr = np.sqrt(np.maximum(var_c, 0.0) / trials)

    rho = (np.exp(-1j * np.outer(lags_g, pts)) @ wts) / (2.0 * np.pi)
    gate_t = spec.temporal.gate(times_g)
    gate_shift = spec.temporal.gate(times_g[:, None] + lags_g[None, :])
    analytic = (
        noise_psd
        * spec.insertion_loss**2
        * gate_shift
        * np.conj(gate_t)[:, None]
        * rho[None, :]
    )
    return CorrelationSurface(times_g, lags_g, emp, np.asarray(analytic, complex), stderr, trials)