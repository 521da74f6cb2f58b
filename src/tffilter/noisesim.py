"""Monte Carlo noise transport through a filter.

Complex white noise with two-sided power spectral density N_y enters the
filter together with a deterministic signal prepared in a single mode.  The
ensemble statistics after filtering are known in closed form,

    E[W_noise] = N_y * sum_n s_n^2,
    <y(t1) conj(y(t2))> = N_y Q(t1) conj(Q(t2)) rho(t1 - t2)   (window first),
    rho(tau) = integral |R~(w)|^2 exp(-i w tau) dw / 2pi,

and this module estimates both empirically so the closed forms can be
certified at Monte Carlo precision.

Trials run in blocks of 256.  A block is drawn, filtered and reduced in row
chunks of at most ``_CHUNK_BYTES`` (512 KiB) of complex samples: 32 rows at
1024 samples, the whole block at 128, one row at 2**17.  Every chunk of a
block is drawn into one complex buffer, its normals staged at most 16 rows
at a time in one float buffer, and filtered in place by the numerics of
``core.filter_samples`` (pre-diagonal, FFT, mid-diagonal, FFT,
post-diagonal), the transport ``apply_filter`` uses for single signals, with
its factors built once per ensemble or correlation.

Blocks run on one pool of worker threads per process, made on the first
ensemble or correlation and sized by the CPUs in the process's affinity mask
(``taskset``, ``os.sched_setaffinity``); one worker runs the blocks serially,
with no thread.  A worker draws, filters and reduces its block: each chunk
to its per-row terms (the row energies and cross terms of an ensemble, the
moment terms of a correlation), then the block's terms, concatenated, to its
partial sums (the cross sum, the two moment sums), so no sum depends on the
chunk size.  It returns only those, which the caller adds in block order with
no BLAS call, so every result is independent of the worker count.

Reproducibility: trial t draws from Philox keyed by
SeedSequence(entropy=seed, spawn_key=(t,)), so any trial can be replayed in
isolation with :func:`trial_generator` and results are independent of
batching.  The ensembles derive the keys of a whole block at once, running
SeedSequence's entropy mixing on uint32 arrays, and re-key one Philox per
trial; every row is bit for bit the one ``trial_generator`` draws.
"""

from __future__ import annotations

import os
import threading
from collections import deque
from collections.abc import Callable, Iterable, Iterator
from dataclasses import asdict, dataclass
from math import ceil, frexp, ldexp
from typing import TYPE_CHECKING

import numpy as np

from . import _EXPORTS
from .core import (
    Domain,
    DomainMismatchError,
    ResolutionError,
    SampledAxis,
    SampledSignal,
    Sif,
    StageOrder,
    _check_grid,
    _count,
    _profile_axis,
    _require_sif,
    _transport,
    _uniform,
    apply_filter,
    centered_axis,
)
from .gaussian import gaussian_sif, gaussian_tradeoff, hermite_gaussian_mode_set

if TYPE_CHECKING:  # imported when a pool is first made, not with the package
    from concurrent.futures import ThreadPoolExecutor

__all__ = _EXPORTS["noisesim"]

RNG_ALGORITHM = "philox4x64"

_BATCH = 256  # trials per block: the unit of keys, pool tasks and summation order
_CHUNK_BYTES = 2**19  # bytes of complex samples per chunk of a block's rows, at least one row
_STAGE = 16  # rows of normals per copy into their complex rows, at most one chunk
SNR_MAX_SAMPLES = 2**17  # largest noise grid: its 2 MiB rows, one at a time, need 4 MiB per worker
MAX_TRIALS = 2**32  # per seed: a trial index must fit one spawn-key word


def trial_generator(seed: int, trial: int) -> np.random.Generator:
    """Independent, replayable stream for one trial.

    It takes the seeds and trial indices that a run takes: ints (TypeError
    otherwise), a seed of at least 0 and a trial in 0 .. MAX_TRIALS - 1
    (ValueError otherwise), one spawn-key word as :func:`_trial_keys` mixes it.
    """
    trial = _count(trial, "trial", 0, MAX_TRIALS - 1)
    ss = np.random.SeedSequence(entropy=_count(seed, "seed", 0), spawn_key=(trial,))
    return np.random.Generator(np.random.Philox(ss))


def _check_level(name: str, value: float) -> None:
    """Refuse a NaN, infinite or negative power or energy before any draw."""
    if not (np.isfinite(value) and value >= 0):
        raise ValueError(f"{name} must be finite and nonnegative")


# SeedSequence's entropy mixing (numpy.random.bit_generator), pool of 4 words
_POOL = 4
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = 16


def _trial_keys(seed: int, indices: np.ndarray) -> np.ndarray:
    """SeedSequence(entropy=seed, spawn_key=(t,)).generate_state(2, np.uint64) per t.

    Runs SeedSequence's mixing with every word a uint32 array: the seed's
    words have one element, the trial word one per index t < 2**32, and
    NumPy broadcasting carries them together.  Returns shape (len(indices), 2);
    Philox keyed by a SeedSequence uses exactly that pair with a zero counter.
    ``seed`` is a Python int, as every run stores it.
    """
    words = [
        np.array([(seed >> shift) & _MASK32], np.uint32)
        for shift in range(0, max(seed.bit_length(), 1), 32)
    ]
    # a spawned sequence pads its run entropy with zeros to the pool size
    words += [np.zeros(1, np.uint32)] * (_POOL - len(words))
    words.append(np.asarray(indices, np.uint32))
    hash_const = _INIT_A

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = (hash_const * _MULT_A) & _MASK32
        value = value * np.uint32(hash_const)
        return value ^ (value >> _XSHIFT)

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        result = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
        return result ^ (result >> _XSHIFT)

    pool = [hashmix(w) for w in words[:_POOL]]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for w in words[_POOL:]:
        for dst in range(_POOL):
            pool[dst] = mix(pool[dst], hashmix(w))

    # generate_state: four uint32 words cycled from the pool, paired little-endian
    state = np.empty((len(words[-1]), _POOL), np.uint32)
    hash_const = _INIT_B
    for i, w in enumerate(pool):
        w = w ^ np.uint32(hash_const)
        hash_const = (hash_const * _MULT_B) & _MASK32
        w = w * np.uint32(hash_const)
        state[:, i] = w ^ (w >> _XSHIFT)
    return state.astype("<u4").view("<u8").astype(np.uint64)


def _keyed_streams(keys: np.ndarray) -> Iterator[np.random.Generator]:
    """One generator re-keyed per Philox key in turn: the stream a fresh
    ``Generator(Philox(SeedSequence))`` with that key would draw."""
    bit_gen = np.random.Philox(key=0)
    rng = np.random.Generator(bit_gen)
    zeros = (0, 0, 0, 0)
    state = {
        "bit_generator": "Philox",
        "state": {"counter": zeros, "key": None},
        "buffer": zeros,
        "buffer_pos": 4,  # buffer spent, as in a freshly keyed Philox
        "has_uint32": 0,
        "uinteger": 0,
    }
    for key in keys.tolist():
        state["state"]["key"] = key
        bit_gen.state = state
        yield rng


def sample_white_noise(
    axis: SampledAxis, noise_psd: float, rng: np.random.Generator
) -> SampledSignal:
    """Band-unlimited complex white noise on a time grid.

    Per-sample variance N_y / dt (split evenly between quadratures), so the
    discrete autocorrelation approaches N_y * delta(t - t') as dt -> 0 and
    the expected energy on the grid, sum |x_k|^2 dt, is count * (N_y / dt) * dt
    = N_y * count: N_y per mode, for the count modes of the grid's Nyquist
    band.
    """
    if axis.domain is not Domain.TIME:
        raise DomainMismatchError("white noise is sampled on a time axis")
    _check_level("noise_psd", noise_psd)
    rows, draws = np.empty((1, axis.count), dtype=complex), np.empty((1, 2, axis.count))
    return SampledSignal(axis, _white_rows(axis, noise_psd, [rng], rows, draws)[0])


def _white_rows(
    axis: SampledAxis,
    noise_psd: float,
    rngs: Iterable[np.random.Generator],
    rows: np.ndarray,
    draws: np.ndarray,
) -> np.ndarray:
    """``rows`` filled with white noise, one row per generator taken from ``rngs``,
    as :func:`sample_white_noise` draws it; returns ``rows``.

    The rows' normals are drawn in stream order, len(draws) rows at a time,
    into the float buffer ``draws`` of shape (k, 2, axis.count), whose two
    quadratures are then copied into their rows at once.  A per-sample scale
    sqrt(N_y / 2 dt) past the float range raises ``ResolutionError`` before
    any draw.
    """
    # in Python floats the quotient overflows to inf with no warning
    scale = np.sqrt(float(noise_psd) / (2.0 * _uniform(axis).step))
    if not np.isfinite(scale):
        raise ResolutionError(f"the white-noise scale at N_y = {noise_psd:.3g} is past the float range")
    rngs = iter(rngs)
    for first in range(0, len(rows), len(draws)):
        stage = draws[: len(rows) - first]
        for draw, rng in zip(stage, rngs):  # stage first, so no stream is taken unused
            rng.standard_normal(out=draw)
        block = rows[first : first + len(stage)]
        block.real, block.imag = stage[:, 0], stage[:, 1]
    rows *= scale
    return rows


def _unit_exponent(noise_psd: float, step: float) -> int:
    """An even k that puts a positive N_y 2**-k / ``step`` between 1/2 and 4.

    The ensembles draw their noise at N_y 2**-k, so every filtered sample is
    of order one and its square and sums stay inside the float range; their
    statistics are scaled back by 2**k, exactly, after the run.  Scaling by a
    power of two commutes with every rounding of the draw, the filter and the
    sums, so a statistic that fits the float range keeps the bits it has when
    formed at N_y itself.  k comes from the exponents alone: N_y / ``step``
    is never formed, as it may overflow.
    """
    k = frexp(float(noise_psd))[1] - frexp(float(step))[1]
    return k - k % 2


def _worker_count() -> int:
    """The CPUs this process may use."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # a platform without affinity masks
        return os.cpu_count() or 1


def _start_pool(workers: int) -> ThreadPoolExecutor:
    """A ThreadPoolExecutor of ``workers`` threads, every one started now.

    A new thread inherits the CPU mask of the thread that starts it, so threads
    started up front keep every allowed CPU when the caller is later pinned to one.
    """
    from concurrent.futures import ThreadPoolExecutor

    pool = ThreadPoolExecutor(workers, thread_name_prefix="tffilter-noise")
    # each task holds its thread until all have one, so the pool starts them all
    barrier = threading.Barrier(workers, timeout=60.0)
    for started in [pool.submit(barrier.wait) for _ in range(workers)]:
        started.result()
    return pool


_pool_lock = threading.Lock()
_pool_state: tuple[int, ThreadPoolExecutor | None, int] | None = None


def _pool() -> tuple[ThreadPoolExecutor | None, int]:
    """(pool, workers) of this process, made on its first call; pool None for one worker.

    The state is keyed by process id: a forked child has none of its
    parent's threads, so it makes its own pool.
    """
    global _pool_state
    with _pool_lock:
        if _pool_state is None or _pool_state[0] != os.getpid():
            workers = _worker_count()
            _pool_state = (os.getpid(), _start_pool(workers) if workers > 1 else None, workers)
        return _pool_state[1:]


def _filtered_chunks(
    transport: Callable, axis: SampledAxis, noise_psd: float, seed: int, trials: range
) -> Iterator[np.ndarray]:
    """Filtered white noise of ``trials``, one row each, in chunks of at most
    ``_CHUNK_BYTES`` (and at least one row).

    Every chunk is drawn and filtered in the same complex buffer, so it holds
    until the next is drawn; its normals pass through one float buffer of at
    most ``_STAGE`` rows, small enough to stay in the fastest cache.
    ``transport`` is :func:`tffilter.core._transport` of the filter on
    ``axis``.  Every row equals ``filter_samples`` of the one drawn from
    ``trial_generator(seed, t)``.
    """
    size = max(1, min(len(trials), _CHUNK_BYTES // (16 * axis.count)))
    rows = np.empty((size, axis.count), dtype=complex)
    draws = np.empty((min(_STAGE, size), 2, axis.count))
    streams = _keyed_streams(_trial_keys(seed, np.arange(trials.start, trials.stop)))
    for first in range(0, len(trials), size):
        count = min(size, len(trials) - first)
        chunk = _white_rows(axis, noise_psd, streams, rows[:count], draws)
        yield transport(chunk, chunk)


def _filtered_noise_blocks(
    spec: Sif,
    axis: SampledAxis,
    noise_psd: float,
    seed: int,
    trials: int,
    per_row: Callable[[np.ndarray], tuple],
    per_block: Callable[..., tuple],
) -> Iterator[tuple]:
    """The reductions of each block of _BATCH rows of filtered white noise,
    trials 0 .. trials-1, yielded in trial order.

    ``per_row`` maps a chunk of filtered rows to a tuple of arrays whose last
    axis runs over the rows; ``per_block`` takes those arrays, concatenated
    over the block's chunks, and returns the block's reduction, so a block
    reduces to what ``per_block(*per_row(rows))`` gives on all its rows at
    once.  The filter's factors are built once per call.  The blocks run on
    the process's pool, at most one more than it has workers in flight; only
    their reductions come back, so memory does not grow with ``trials``.
    """
    transport = _transport(spec, axis)

    def work(first: int) -> tuple:
        block = range(first, min(first + _BATCH, trials))
        terms = [per_row(y) for y in _filtered_chunks(transport, axis, noise_psd, seed, block)]
        return per_block(*(np.concatenate(column, axis=-1) for column in zip(*terms)))

    firsts = range(0, trials, _BATCH)
    pool, workers = _pool()
    if pool is None:
        yield from map(work, firsts)
        return
    from concurrent.futures import wait

    pending = deque()
    try:
        for first in firsts:
            if len(pending) > workers:
                yield pending.popleft().result()
            pending.append(pool.submit(work, first))
        while pending:
            yield pending.popleft().result()
    finally:  # on an error, leave no block of this call running
        for future in pending:
            future.cancel()
        wait(pending)


@dataclass(frozen=True)
class NoiseEnsembleConfig:
    """Inputs of one signal-plus-noise ensemble run.

    ``trials`` (1 .. MAX_TRIALS) and ``seed`` (at least 0) are ints, stored as
    Python ints so that the report serialises; another type raises
    ``TypeError`` and a value out of range ``ValueError``, before any draw.
    """

    noise_psd: float
    signal_energy: float
    signal_mode: SampledSignal
    trials: int
    seed: int

    def __post_init__(self) -> None:
        _check_level("noise_psd", self.noise_psd)
        _check_level("signal_energy", self.signal_energy)
        object.__setattr__(self, "trials", _count(self.trials, "trials", 1, MAX_TRIALS))
        object.__setattr__(self, "seed", _count(self.seed, "seed", 0))
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


def run_ensemble(cfg: NoiseEnsembleConfig, spec: Sif) -> EnergyReport:
    """Push signal + noise through the filter for cfg.trials independent trials.

    The deterministic signal is filtered once; each trial filters a fresh
    white-noise draw and records the noise energy and the total (signal plus
    noise) energy at the filter output, the latter as w_noise + 2 Re<y_sig, y>
    + w_signal: both are one pass over the float view of each chunk of rows,
    by ``einsum`` rather than a BLAS matvec, whose threads would compete with
    the block workers.  The cross terms are summed once per block, over all
    its rows, so the result does not depend on the chunk size.

    The noise is drawn, and every sum formed, at N_y 2**-k with
    :func:`_unit_exponent`'s k; the noise mean and stderr are scaled back by
    2**k and the cross term by 2**(k/2), exactly.  A filtered signal energy
    or ensemble statistic that leaves the float range raises
    ``ResolutionError`` after the run.  ``snr_empirical`` is +inf only for a
    noiseless run.
    """
    _require_sif(spec)
    axis = cfg.signal_mode.axis
    amp = np.sqrt(cfg.signal_energy)
    sig_in = SampledSignal(axis, amp * cfg.signal_mode.values)
    y_sig = apply_filter(spec, sig_in)
    with np.errstate(over="ignore"):  # refused below, with the ensemble statistics
        w_signal = y_sig.energy()

    sig_view = y_sig.values.view(float)

    def per_row(y_noise: np.ndarray) -> tuple:
        # einsum sums a lone row of more than 8192 floats in another order than
        # each row of a larger array, so a lone row goes in paired with itself
        rows = len(y_noise)
        y_view = np.broadcast_to(y_noise.view(float), (max(rows, 2), 2 * axis.count))
        energies = np.einsum("ij,ij->i", y_view, y_view)[:rows] * axis.measure
        return energies, np.einsum("ij,j->i", y_view, sig_view)[:rows]

    def per_block(energies: np.ndarray, cross: np.ndarray) -> tuple:
        return energies, np.sum(cross)

    k = _unit_exponent(cfg.noise_psd, _uniform(axis).step)
    w_noise, cross = [], 0.0
    for energies, block_cross in _filtered_noise_blocks(
        spec, axis, ldexp(cfg.noise_psd, -k), cfg.seed, cfg.trials, per_row, per_block
    ):
        w_noise.append(energies)
        cross += block_cross
    w_noise = np.concatenate(w_noise)

    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite statistic is refused below
        w_noise_mean = float(np.ldexp(np.mean(w_noise), k))
        if cfg.trials > 1:
            stderr = float(np.ldexp(np.std(w_noise, ddof=1) / np.sqrt(cfg.trials), k))
        else:
            stderr = 0.0
        cross = np.ldexp(cross, k // 2)
        w_total_mean = float(w_noise_mean + 2.0 * cross * axis.measure / cfg.trials + w_signal)
    snr = w_signal / w_noise_mean if w_noise_mean > 0 else float("inf")
    # w_total_mean carries w_signal; snr is +inf, and allowed, only when w_noise_mean is 0
    if not np.all(np.isfinite([w_total_mean, w_noise_mean, stderr, snr if w_noise_mean > 0 else 0.0])):
        raise ResolutionError(
            f"N_y = {cfg.noise_psd:.3g} and E = {cfg.signal_energy:.3g} give energies past the float range"
        )
    return EnergyReport(
        w_total_mean=w_total_mean,
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

    The Gaussian grid is the smallest centered power-of-two time axis whose
    step meets the resolution guard with room to spare, dt = 1/(12 max(BT, 1)),
    and whose span covers the gate's 1e-12 support and the input ground
    mode's reach, 6 / min(alpha, beta), plus a margin of 1 on each side.
    The brick-wall grid's step 1/(2j + 1) puts the gate edge mid-cell; its
    count, band_cells (2j + 1) / BT rounded, puts the band edge mid-cell only
    when that quotient is an integer, and only then are the discrete T and B
    sums, and with them the mean noise energy, exact.

    A grid above ``SNR_MAX_SAMPLES`` samples raises ``ResolutionError`` before
    anything is sampled on it; its message gives the size worked out in exact
    arithmetic, even past the float range.
    """
    if family == "gaussian":
        spec = gaussian_sif(bt, 1.0)
        dt = 1.0 / (12.0 * max(bt, 1.0))
        # the span in log2, so that the mode reach cannot overflow at a subnormal BT
        log2_reach = max(
            np.log2(spec.temporal.support(1e-12)),
            np.log2(6.0) - np.log2(min(spec.alpha, spec.beta)),
        )
        count = 2 ** int(np.ceil(np.logaddexp2(log2_reach, 0.0) + 1.0 - np.log2(dt)))
        mode_set, tradeoff = hermite_gaussian_mode_set, gaussian_tradeoff
    elif family == "slepian":
        from .slepian import rectangular_filter_modes, rectangular_sif, slepian_tradeoff

        spec = rectangular_sif(bt, 1.0, order=StageOrder.TIME_FIRST)
        # brick-wall edges quantize plain Riemann sums; the gate edge sits
        # mid-cell, and the band edge does where the rounded count is exact.
        # In Python floats a size past the float range reads inf, with no
        # overflow error or warning
        x = float(bt)
        j = max(60.0, float(np.ceil(5.0 * x)))
        dt = 1.0 / (2.0 * j + 1.0)
        band_cells = max(5.0, 2.0 * float(np.ceil(2.0 * x)) + 1.0)
        count = np.rint(band_cells * (2.0 * j + 1.0) / x)
        if count > SNR_MAX_SAMPLES:  # the refused size in exact arithmetic
            from fractions import Fraction

            q = Fraction(x)
            count = round(max(5, 2 * ceil(2 * q) + 1) * (2 * max(60, ceil(5 * q)) + 1) / q)
        mode_set, tradeoff = rectangular_filter_modes, slepian_tradeoff
    else:
        raise ValueError(f"unknown filter family {family!r}")
    if count > SNR_MAX_SAMPLES:  # an exact int, possibly past the float range
        from decimal import Decimal

        raise ResolutionError(
            f"BT = {bt:g} needs a {Decimal(count):.16g}-sample time grid, above the "
            f"{SNR_MAX_SAMPLES}-sample limit of the noise ensembles"
        )
    axis = centered_axis(dt, int(count), Domain.TIME)
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
    axis = _profile_axis(spec.spectral)
    pts = axis.points
    return pts, 2.0 * np.pi * axis.quadrature_weights() * np.abs(spec.spectral(pts)) ** 2


def _auto_correlation_axis(spec: Sif, max_reach: float) -> tuple[SampledAxis, tuple]:
    """(grid, moments): the smallest centered power-of-two time grid for
    faithful correlation statistics, and :func:`_window_power_moments` of ``spec``.

    dt resolves both the window (dt <= 1/(10 B)) and the gate (dt <= T/8).
    The span keeps the FFT frequency spacing below a quarter of the spectral
    width of |R~(w)|^2, so the grid-induced correlation bias stays far below
    the Monte Carlo noise floor; it covers the gate's 1e-10 support plus
    ``max_reach`` (the farthest probe time plus lag) on each side; and its
    last sample reaches the gate's 1e-12 support, so the grid passes the
    resolution guard of :func:`tffilter.core.apply_filter`.  A grid above
    ``SNR_MAX_SAMPLES`` samples raises ``ResolutionError`` before it is built.
    The moments' nodes lie within the window's support radius r, so sigma_w
    <= r: a window too narrow for the limit even at sigma_w = 2r is refused
    before it is evaluated, as its moments may leave the float range.
    """
    bw, duration = spec.spectral.width, spec.temporal.width
    dt = min(1.0 / (10.0 * bw), duration / 8.0)

    def samples(sigma_w: float) -> float:
        """The span for an rms frequency ``sigma_w`` in steps of dt, refused above the limit."""
        with np.errstate(over="ignore", divide="ignore"):  # a span past the float range reads inf
            span_needed = max(
                2.0 * np.pi / (sigma_w / 4.0),
                2.0 * (spec.temporal.support(1e-10) + max_reach),
                2.0 * (spec.temporal.support(1e-12) + dt),
            )
            ratio = span_needed / dt
        if not ratio <= SNR_MAX_SAMPLES:  # the count, 2**ceil(log2(ratio)), would be above it
            raise ResolutionError(
                f"this filter, with probe times plus lags reaching {max_reach:.3g}, needs a "
                f"correlation grid above the {SNR_MAX_SAMPLES}-sample limit of the noise ensembles"
            )
        return ratio

    with np.errstate(over="ignore"):
        samples(2.0 * spec.spectral.support(1e-13))  # twice the radius of the moments' axis
    moments = pts, wts = _window_power_moments(spec)
    total = np.sum(wts)
    sigma_w = np.sqrt(np.sum(wts * pts**2) / total)
    count = 1 << int(np.ceil(np.log2(samples(sigma_w))))
    return centered_axis(dt, count, Domain.TIME), moments


def filtered_noise_correlation(
    spec: Sif,
    noise_psd: float,
    trials: int,
    lags: np.ndarray,
    *,
    seed: int,
) -> CorrelationSurface:
    """Estimate <y(t + tau) conj(y(t))> for window-then-gate white-noise input.

    Closed form: N_y Q(t + tau) conj(Q(t)) rho(tau) with rho the inverse
    transform of |R~|^2.  The probe times are five points across the gate
    duration; they and the lags are snapped to the simulation grid, the
    smallest one :func:`_auto_correlation_axis` admits, so empirical samples
    need no interpolation.  ``lags`` must be a non-empty 1-D array of finite
    numbers, refused with ``ValueError`` before any trial is drawn.  At least 1000 trials, and at most MAX_TRIALS, are
    required for the stderr estimate to be meaningful; ``trials`` and ``seed``
    (at least 0) are ints, as :class:`NoiseEnsembleConfig` takes them.  The
    noise is drawn, and the moments summed, at N_y 2**-k with
    :func:`_unit_exponent`'s k, and the mean and stderr are scaled back by
    2**k, exactly; a noise PSD whose statistics leave the float range raises
    ``ResolutionError`` after the run.
    """
    _require_sif(spec)
    if spec.order is not StageOrder.FREQUENCY_FIRST:
        raise ValueError("correlation analysis covers the window-then-gate composition")
    trials = _count(trials, "trials", 1000, MAX_TRIALS)
    seed = _count(seed, "seed", 0)
    _check_level("noise_psd", noise_psd)
    if noise_psd == 0:
        raise ValueError("noise_psd must be positive")
    lags = np.asarray(lags, dtype=float)
    if lags.ndim != 1 or lags.size == 0 or not np.all(np.isfinite(lags)):
        raise ValueError("lags must be a non-empty 1-D array of finite numbers")
    half = 0.5 * spec.temporal.width
    times = np.linspace(-half, half, 5)
    reach = half + np.max(np.abs(lags))
    axis, (pts, wts) = _auto_correlation_axis(spec, reach)
    _check_grid(spec, axis)

    # snap probes and lags onto the grid
    t_idx = np.rint((times - axis.start) / axis.step).astype(int)
    l_idx = np.rint(lags / axis.step).astype(int)
    pair = t_idx[:, None] + l_idx[None, :]
    if np.any(pair < 0) or np.any(pair >= axis.count):
        raise ValueError("time + lag combinations fall outside the grid")
    times_g = axis.start + axis.step * t_idx
    lags_g = axis.step * l_idx

    k = _unit_exponent(noise_psd, axis.step)

    def per_row(y: np.ndarray) -> tuple:
        # (times, lags, rows): each moment sums one contiguous run over the block's rows
        return (y.T[pair] * np.conj(y.T[t_idx])[:, None, :],)

    def per_block(z: np.ndarray) -> tuple:
        return np.sum(z, axis=-1), np.sum(np.abs(z) ** 2, axis=-1)

    s1 = np.zeros((len(times_g), len(lags_g)), dtype=complex)
    s2 = np.zeros((len(times_g), len(lags_g)))
    blocks = _filtered_noise_blocks(spec, axis, ldexp(noise_psd, -k), seed, trials, per_row, per_block)
    for block_s1, block_s2 in blocks:
        s1 += block_s1
        s2 += block_s2
    emp = s1 / trials
    var_c = s2 / trials - np.abs(emp) ** 2
    with np.errstate(over="ignore"):  # a statistic past the float range is refused below
        stderr = np.ldexp(np.sqrt(np.maximum(var_c, 0.0) / trials), k)
        emp = np.ldexp(emp.view(float), k).view(complex)
    if not (np.all(np.isfinite(emp)) and np.all(np.isfinite(stderr))):
        raise ResolutionError(f"N_y = {noise_psd:.3g} gives correlation moments past the float range")

    # an even window's rho is real: its cosine sum carries no imaginary rounding
    phase = np.outer(lags_g, pts)
    kernel = np.cos(phase) if spec.spectral.even else np.exp(-1j * phase)
    rho = (kernel @ wts) / (2.0 * np.pi)
    gate_t = spec.temporal(times_g)
    gate_shift = spec.temporal(times_g[:, None] + lags_g[None, :])
    analytic = noise_psd * gate_shift * np.conj(gate_t)[:, None] * rho[None, :]
    return CorrelationSurface(times_g, lags_g, emp, np.asarray(analytic, complex), stderr, trials)