"""Grids, Fourier conventions, filter specifications, and integral-operator assembly.

Conventions
-----------
Forward transform:  f~(w) = integral dt exp(+i w t) f(t)
Inverse transform:  f(t)  = integral dw/(2 pi) exp(-i w t) f~(w)

Every frequency-axis integral carries the measure dw/(2 pi), so signal energy,
inner products, and bandwidths agree between domains without stray 2 pi
factors (Parseval holds to machine precision on matched grids).

The transforms live only in this module, written once as phase ramp, DFT,
phase ramp.  They act along the last axis of ``(..., n)`` sample arrays, so
``filter_samples`` pushes a whole batch of signals (e.g. Monte Carlo noise
rows) through a filter in one pass of three diagonals around two in-place
FFTs; ``fourier_forward``, ``fourier_inverse`` and ``apply_filter`` are its
single-signal wrappers.

A filter is a ``Sif``, a sequential incoherent filter: a spectral window,
pointwise multiplication by R~(w) in frequency, and a time gate, pointwise
multiplication by Q(t) in time, composed in a declared order.  Window and
gate are one type, a ``StageProfile`` on one of the two domains; a family
(``GaussianProfile``, ``RectangularProfile``) is one class whose instances
live on either.  Code that needs a particular stage reads it by domain, or
as the input or output stage of ``Sif.stages``, never by its class.  A lone
window or gate is not a filter here: its kernel is a diagonal, or a diagonal
times a Fourier factor, which is not Hilbert-Schmidt and has no Schmidt
ladder.  Every entry point that takes a filter raises ``TypeError`` for
anything else.

Each axis type has one integration rule, and ``integrate`` and
``quadrature_weights()`` both apply it: the Riemann sum, ``measure`` per
sample, on a uniform ``SampledAxis``, the rule under which the FFT transport's
discrete Parseval identity holds, and Gauss-Legendre on a ``QuadratureAxis``.

``build_operator`` renders any filter as a dense Nystrom matrix with the
axes' quadrature weights folded in symmetrically (sqrt(w) K sqrt(w)), so that
matrix singular values approximate the operator's Schmidt coefficients.  The
FFT-based paths need a uniform ``SampledAxis``; ``recommended_axes`` gives compact
pairs a ``QuadratureAxis`` of Gauss-Legendre nodes inside the supports instead.
The matrix is ``complex128``, for the Fourier phase of the kernel.

A Sif has one kernel, the mixed time x frequency one, Q(t) exp(-+i w t) R~(w),
the output stage on the rows times the input stage on the columns, which needs
nothing of the profiles but their values.
``recommended_axes`` picks each of its two axes from that axis's own profile,
and ``parity_blocks`` renders a Sif whose profiles are both ``even`` as two
half-size blocks, the kernel's even and odd parts on the positive
half-axes.  They are real for real profiles: the Fourier phase splits into a
cosine and a sine kernel, and the odd block's constant -+i is kept aside.
"""

from __future__ import annotations

import enum
import threading
import warnings
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cache, lru_cache
import numpy as np

from . import _EXPORTS

TWO_PI = 2.0 * np.pi
_AXIS_RTOL = 1e-9  # relative slack within which close_to takes two axes for the same grid

__all__ = _EXPORTS["core"]


class Domain(enum.Enum):
    """Axis domain: samples live either in time or in angular frequency."""

    TIME = "time"
    ANGULAR_FREQUENCY = "angular_frequency"


class DomainMismatchError(ValueError):
    """Operation received a signal or axis in an incompatible domain."""


class ResolutionError(ValueError):
    """Grid too coarse or too narrow for the requested filter operation."""


class TruncationError(ValueError):
    """Kernel carries non-negligible weight just outside the grid."""


class TruncationWarning(UserWarning):
    """Kernel tail just outside the grid is small but not negligible."""


class ConvergenceError(RuntimeError):
    """Grid refinement failed to stabilize the requested quantity."""


# ---------------------------------------------------------------------------
# axes and signals


@dataclass(frozen=True)
class SampledAxis:
    """Uniform sample grid ``start + step * arange(count)`` in one domain.

    The quadrature measure per sample is ``step`` on time axes and
    ``step / (2 pi)`` on angular-frequency axes; every sample weighs that
    much (the Riemann rule).
    """

    start: float
    step: float
    count: int
    domain: Domain

    def __post_init__(self) -> None:
        if not np.isfinite(self.start):
            raise ValueError("axis start must be finite")
        if not (self.step > 0 and np.isfinite(self.step)):
            raise ValueError("axis step must be positive and finite")
        if self.count < 2:
            raise ValueError("axis needs at least two samples")

    @property
    def points(self) -> np.ndarray:
        return self.start + self.step * np.arange(self.count)

    @property
    def stop(self) -> float:
        return self.start + self.step * (self.count - 1)

    @property
    def span(self) -> float:
        return self.step * (self.count - 1)

    @property
    def measure(self) -> float:
        """Quadrature measure per sample (dt, or dw/2pi)."""
        if self.domain is Domain.TIME:
            return self.step
        return self.step / TWO_PI

    def quadrature_weights(self) -> np.ndarray:
        """The Riemann weights of :meth:`integrate`: ``measure`` at every sample."""
        return np.full(self.count, self.measure)

    def integrate(self, values: np.ndarray) -> np.ndarray:
        """Riemann sum along the last axis of ``values``: sum v dt, or sum v dw/2pi."""
        return np.sum(values, axis=-1) * self.measure

    def close_to(self, other: "Axis") -> bool:
        if not isinstance(other, SampledAxis):
            return False
        scale = max(abs(self.start), abs(self.stop), self.step)
        return (
            self.domain is other.domain
            and self.count == other.count
            and abs(self.start - other.start) <= _AXIS_RTOL * scale
            and abs(self.step - other.step) <= _AXIS_RTOL * self.step
        )


@lru_cache(maxsize=8)
def _legendre_rule(count: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes (ascending) and weights on (-1, 1), read-only.

    Newton's method on P_count, evaluated by the three-term recurrence and
    started from Tricomi's asymptotic nodes, finds the nodes x >= 0; the
    negative half is their exact mirror.  Each weight is taken as
    2 / ((1 - x^2) P'_count(x)^2).  The equal form 2 (1 - x^2) / (count
    P_{count-1}(x))^2 would magnify a node's last-bit error about count^2
    times near +-1.
    """
    n = count
    k = np.arange(n // 2, 0, -1)
    x = (1.0 - (n - 1) / (8.0 * n**3)) * np.cos(np.pi * (4 * k - 1) / (4 * n + 2))
    x = np.r_[np.zeros(n % 2), x]  # odd count: P_count(0) = 0 exactly, so 0 stays put

    def value_and_slope(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        p_prev, p = np.ones_like(x), x
        for j in range(2, n + 1):
            p_prev, p = p, ((2 * j - 1) * x * p - (j - 1) * p_prev) / j
        return p, n * (x * p - p_prev) / ((x - 1.0) * (x + 1.0))

    for _ in range(10):  # 3 or 4 steps for every count up to 4200
        p, dp = value_and_slope(x)
        step = p / dp
        x = x - step
        if np.max(np.abs(step), initial=0.0) <= 1e-15:
            break
    else:
        raise ConvergenceError(f"Gauss-Legendre nodes did not converge for count = {count}")
    dp = value_and_slope(x)[1]
    w = 2.0 / ((1.0 - x) * (1.0 + x) * dp**2)
    nodes, weights = np.r_[-x[n % 2 :][::-1], x], np.r_[w[n % 2 :][::-1], w]
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


@dataclass(frozen=True)
class QuadratureAxis:
    """``count`` Gauss-Legendre nodes strictly inside (-a, a), so a jump at +-a is never sampled.

    The weights carry the axis measure: they sum to 2a on time axes, 2a / 2pi on frequency axes.
    """

    half_width: float
    count: int
    domain: Domain

    def __post_init__(self) -> None:
        if not (self.half_width > 0 and np.isfinite(self.half_width)):
            raise ValueError("half_width must be positive and finite")
        if self.count < 2:
            raise ValueError("axis needs at least two samples")

    @property
    def points(self) -> np.ndarray:
        return self.half_width * _legendre_rule(self.count)[0]

    def quadrature_weights(self) -> np.ndarray:
        scale = self.half_width if self.domain is Domain.TIME else self.half_width / TWO_PI
        return scale * _legendre_rule(self.count)[1]

    def integrate(self, values: np.ndarray) -> np.ndarray:
        """Gauss-Legendre quadrature along the last axis of ``values``."""
        return values @ self.quadrature_weights()

    def close_to(self, other: "Axis") -> bool:
        return (
            isinstance(other, QuadratureAxis)
            and self.domain is other.domain
            and self.count == other.count
            and abs(self.half_width - other.half_width) <= _AXIS_RTOL * self.half_width
        )


Axis = SampledAxis | QuadratureAxis


def _uniform(axis: Axis) -> SampledAxis:
    """``axis`` if it is a uniform grid, which every FFT-based path needs."""
    if not isinstance(axis, SampledAxis):
        raise DomainMismatchError(f"needs a uniform SampledAxis, not a {type(axis).__name__}")
    return axis


def centered_axis(step: float, count: int, domain: Domain) -> SampledAxis:
    """Symmetric axis containing 0, laid out FFT-style: start = -step*(count//2)."""
    return SampledAxis(-step * (count // 2), step, count, domain)


def frequency_axis_for(time_axis: SampledAxis) -> SampledAxis:
    """Reciprocal angular-frequency axis with dw = 2 pi / (count * dt)."""
    if _uniform(time_axis).domain is not Domain.TIME:
        raise DomainMismatchError("expected a time axis")
    n = time_axis.count
    return centered_axis(TWO_PI / (n * time_axis.step), n, Domain.ANGULAR_FREQUENCY)


@dataclass(frozen=True)
class SampledSignal:
    """Complex samples on a :class:`SampledAxis` or :class:`QuadratureAxis`."""

    axis: Axis
    values: np.ndarray

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=complex)
        if vals.shape != (self.axis.count,):
            raise ValueError("values length must match axis count")
        vals = vals.copy()
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    def energy(self) -> float:
        """Energy integral |v|^2 dt, or |v|^2 dw/2pi, by the axis quadrature."""
        return float(self.axis.integrate(np.abs(self.values) ** 2))

    def norm(self) -> float:
        return float(np.sqrt(self.energy()))

    def normalized(self) -> "SampledSignal":
        nrm = self.norm()
        if nrm == 0:
            raise ValueError("cannot normalize the zero signal")
        return SampledSignal(self.axis, self.values / nrm)


def inner_product(f: SampledSignal, g: SampledSignal) -> complex:
    """<f, g> = integral conj(f) g under the axis quadrature (f conjugated)."""
    if not f.axis.close_to(g.axis):
        raise DomainMismatchError("inner product requires matching axes")
    return complex(f.axis.integrate(np.conj(f.values) * g.values))


# ---------------------------------------------------------------------------
# dense LAPACK calls

# Every dense factorization and solve of the package runs on one BLAS thread,
# whatever its size.  On two threads the 362-row blocks of Gaussian BT 20, and
# the full 362- and 512-row matrices of a time-shifted Gaussian gate at BT 10,
# factor into modes that differ in their last bits from one thread's, so a
# ladder would depend on the pool size.  Two threads bring little here: NumPy
# ``svd`` of random n x n matrices on 2 shared x86-64 cores (OpenBLAS 0.3.31)
# took 1.13 times its one-thread time at n = 181, 1.00 at 362 and 0.81 at 1024,
# the shifted-gate ladder took 0.20-0.25 s either way, and on a busy machine a
# small ``eigh`` on two threads stalled 184-196 ms per call where one thread
# took 2.5-3.6 ms.  OpenBLAS built on pthreads keeps one thread count for the
# whole process, so the lowered count is set and restored by one caller at a
# time.
_blas_threads_lock = threading.Lock()


@cache
def _blas_thread_setter() -> Callable[[int], int] | None:
    """``openblas_set_num_threads_local`` of the library NumPy's LAPACK calls, or None.

    The symbol (OpenBLAS 0.3.27 on) sets the thread count and returns the old
    one.  It is looked up through NumPy's linalg extension, whose dependencies
    dlsym searches, so it is NumPy's OpenBLAS even when another (SciPy's) is
    loaded too.  MKL, Accelerate, an older OpenBLAS or a NumPy without that
    extension give None.
    """
    import ctypes

    try:
        from numpy.linalg import _umath_linalg

        setter = ctypes.CDLL(_umath_linalg.__file__).openblas_set_num_threads_local
    except (ImportError, AttributeError, OSError):
        return None
    setter.argtypes, setter.restype = [ctypes.c_int], ctypes.c_int
    return setter


@contextmanager
def _lapack(what: str) -> Iterator[None]:
    """Run a dense LAPACK call on one BLAS thread; its failure is a ``ConvergenceError``.

    The caller's thread count is restored afterwards, and a
    ``np.linalg.LinAlgError`` raised in the block becomes
    ``ConvergenceError(f"{what} failed: {err}")``.  A BLAS without the
    OpenBLAS setter runs the block on the process's pool.
    """
    setter = _blas_thread_setter()
    try:
        if setter is None:
            yield
            return
        with _blas_threads_lock:
            previous = setter(1)
            try:
                yield
            finally:
                setter(previous)
    except np.linalg.LinAlgError as err:
        raise ConvergenceError(f"{what} failed: {err}") from err


# ---------------------------------------------------------------------------
# Fourier transforms


def _fourier_factors(src: SampledAxis, dst: SampledAxis):
    """(pre, fft, post): post * fft(pre * f) transforms f from ``src`` onto its reciprocal ``dst``.

    As dw dt = 2 pi / n, the phase exp(+-i w t) splits into a ramp over the source
    index, the DFT kernel (``np.fft.ifft`` from time, ``np.fft.fft`` from frequency)
    and a ramp over the target samples, which also carries dt or dw/(2 pi).
    """
    k = np.arange(src.count)
    if src.domain is Domain.TIME:
        pre = np.exp(1j * dst.start * src.step * k)
        return pre, np.fft.ifft, (src.count * src.step) * np.exp(1j * dst.points * src.start)
    pre = np.exp(-1j * k * src.step * dst.start)
    return pre, np.fft.fft, np.exp(-1j * src.start * dst.points) / (src.count * dst.step)


def _transform(values: np.ndarray, src: SampledAxis, dst: SampledAxis) -> np.ndarray:
    """Samples on ``src`` transformed onto its reciprocal ``dst``, along the last axis."""
    pre, fft, post = _fourier_factors(src, dst)
    return post * fft(values * pre, axis=-1)


def _reciprocal_time_axis(freq_axis: SampledAxis) -> SampledAxis:
    """The centered time grid with dt = 2 pi / (count * dw)."""
    n = _uniform(freq_axis).count
    return centered_axis(TWO_PI / (n * freq_axis.step), n, Domain.TIME)


def fourier_forward(signal: SampledSignal) -> SampledSignal:
    """f~(w_m) = dt * sum_k exp(+i w_m t_k) f(t_k) on the reciprocal frequency axis."""
    if signal.axis.domain is not Domain.TIME:
        raise DomainMismatchError("fourier_forward expects a time-domain signal")
    freq = frequency_axis_for(signal.axis)
    return SampledSignal(freq, _transform(signal.values, signal.axis, freq))


def fourier_inverse(signal: SampledSignal) -> SampledSignal:
    """f(t_k) = sum_m dw/(2 pi) exp(-i w_m t_k) f~(w_m) on the centered time grid
    with dt = 2 pi / (count * dw)."""
    if signal.axis.domain is not Domain.ANGULAR_FREQUENCY:
        raise DomainMismatchError("fourier_inverse expects a frequency-domain signal")
    time_axis = _reciprocal_time_axis(signal.axis)
    return SampledSignal(time_axis, _transform(signal.values, signal.axis, time_axis))


# ---------------------------------------------------------------------------
# stage profiles (concrete families live in gaussian.py / slepian.py) and filters


class StageProfile:
    """One stage of a Sif: a profile p(x), peak-normalized to max |p| = 1, on one domain.

    On ``Domain.TIME`` it is a time gate Q(t), on ``Domain.ANGULAR_FREQUENCY``
    a spectral window R~(w): one type serves both, and a family subclass keeps
    its per-domain constants.
    ``width`` is integral |p|^2 under the domain's measure: the integral
    duration T = integral |Q(t)|^2 dt (in s) of a gate, the intensity
    bandwidth B = integral |R~(w)|^2 dw/2pi (in Hz) of a window.  Subclasses
    provide the profile, by calling the instance, and its support radius.
    ``compact`` marks profiles that vanish identically outside a finite
    support.  ``even`` marks profiles with p(-x) = p(x); a Sif whose two
    stages are both even is decomposed by
    :func:`tffilter.schmidt.decompose_filter` as two half-size parity blocks
    (see :func:`parity_blocks`).
    """

    compact: bool = False
    even: bool = False

    def __init__(self, width: float, domain: Domain) -> None:
        if not width > 0:
            raise ValueError("profile width must be positive")
        self.width = float(width)
        self.domain = Domain(domain)

    def __eq__(self, other: object) -> bool:
        """Profiles are values: equal when of one class, width and domain."""
        if type(other) is not type(self):
            return NotImplemented
        return (self.width, self.domain) == (other.width, other.domain)

    def __hash__(self) -> int:
        return hash((type(self), self.width, self.domain))

    def __call__(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def support(self, tol: float) -> float:
        """Radius r with |p(x)| <= tol for |x| > r."""
        raise NotImplementedError


class StageOrder(enum.Enum):
    """Composition order of a sequential incoherent filter."""

    FREQUENCY_FIRST = "frequency_first"  # spectral window acts on the input, gate on the result
    TIME_FIRST = "time_first"            # gate acts on the input, spectral window on the result


@dataclass(frozen=True)
class Sif:
    """Sequential incoherent filter: spectral window and time gate in a declared order.

    ``spectral`` must be a :class:`StageProfile` whose ``domain`` is
    ``ANGULAR_FREQUENCY`` and ``temporal`` one whose ``domain`` is ``TIME``;
    anything else raises :class:`DomainMismatchError`.
    """

    spectral: StageProfile
    temporal: StageProfile
    order: StageOrder = StageOrder.FREQUENCY_FIRST

    def __post_init__(self) -> None:
        for name, domain in (("spectral", Domain.ANGULAR_FREQUENCY), ("temporal", Domain.TIME)):
            found = getattr(getattr(self, name), "domain", None)
            if found is not domain:
                raise DomainMismatchError(
                    f"the {name} stage must be a StageProfile on {domain.value}, "
                    f"got {type(getattr(self, name)).__name__} on {found}"
                )

    @property
    def bt(self) -> float:
        """Time-bandwidth product: the window's width B times the gate's width T."""
        return self.spectral.width * self.temporal.width

    @property
    def stages(self) -> tuple[StageProfile, StageProfile]:
        """(input, output): the stage that acts first, then the one that acts on its result."""
        if self.order is StageOrder.FREQUENCY_FIRST:
            return self.spectral, self.temporal
        return self.temporal, self.spectral


def _require_sif(spec: Sif) -> None:
    """The one check of every entry point that takes a filter: ``spec`` is a Sif."""
    if not isinstance(spec, Sif):
        raise TypeError(f"unknown filter specification {type(spec).__name__}")


# ---------------------------------------------------------------------------
# applying filters to signals


def _check_grid(spec: Sif, ax: SampledAxis) -> None:
    """Resolution guard on ``ax``: dt <= 1/(10 B) and span covering the filter support.

    The span must cover the support of the stage native to ``ax``.  On a
    frequency axis it must also be 10 bandwidths wide, and the gate acts on
    the reciprocal time grid, whose half-span pi/dw must cover the gate support.
    """
    b = spec.spectral.width
    on_time = _uniform(ax).domain is Domain.TIME
    if on_time and ax.step > 1.0 / (10.0 * b):
        raise ResolutionError(
            f"time step {ax.step:g} too coarse for filter bandwidth {b:g} Hz "
            f"(need dt <= {1.0 / (10.0 * b):g})"
        )
    span, stage = ("time", "gate") if on_time else ("frequency", "window")
    r = (spec.temporal if on_time else spec.spectral).support(1e-12)
    if ax.start > -r or ax.stop < r:
        raise ResolutionError(
            f"{span} span [{ax.start:g}, {ax.stop:g}] does not cover the {stage} support +-{r:g}"
        )
    if on_time:
        return
    if ax.span < 20.0 * np.pi * b:
        raise ResolutionError("frequency span too narrow for the filter bandwidth")
    r = spec.temporal.support(1e-12)
    if np.pi / ax.step < r:
        raise ResolutionError(
            f"frequency step {ax.step:g} too coarse: the reciprocal time grid's "
            f"half-span {np.pi / ax.step:g} does not cover the gate support +-{r:g}"
        )


def filter_samples(spec: Sif, axis: SampledAxis, values: np.ndarray) -> np.ndarray:
    """Pass samples on ``axis`` through ``spec`` along the last axis of ``values``.

    ``values`` has shape ``(..., axis.count)``; every leading index is filtered
    as its own signal and the result stays on ``axis``.  This is the numerics
    behind :func:`apply_filter`, without its resolution guard, for callers
    that push batches of rows through one filter on a grid they have checked.
    ``values`` is never written to.

    A Sif is post * FFT(mid * FFT(pre * x)), in place on one fresh array:
    ``mid`` is the stage from the other domain with the inner ramps of the
    transform there and back; the outer ramps and the stage native to
    ``axis`` fold into ``pre`` or ``post``, by the order.
    """
    _require_sif(spec)
    return _transport(spec, axis)(values, None)


def _transport(spec: Sif, axis: SampledAxis) -> Callable[[np.ndarray, np.ndarray | None], np.ndarray]:
    """:func:`filter_samples` with its factors built once: the returned
    ``apply(values, out)`` writes the filtered rows into ``out``, None for a
    fresh array or a complex ``values`` itself to filter it in place.

    The pre, mid and post diagonals and the two FFT directions depend only on
    ``spec`` and ``axis``, so any number of calls of ``apply`` share them.
    """
    on_time = _uniform(axis).domain is Domain.TIME
    first, last = spec.stages
    native, other = (first, last) if first.domain is axis.domain else (last, first)
    if on_time:
        far = frequency_axis_for(axis)
    else:
        far = _reciprocal_time_axis(axis)
        if not frequency_axis_for(far).close_to(axis):
            raise DomainMismatchError(
                "time gating of a spectrum requires a centered frequency axis "
                "(start = -step * (count // 2))"
            )
    pre, fft_a, inner_a = _fourier_factors(axis, far)
    inner_b, fft_b, post = _fourier_factors(far, axis)
    mid = inner_a * inner_b * other(far.points)
    # the stage native to the axis acts first or last
    side = pre if native is first else post
    side *= native(axis.points)

    def apply(values: np.ndarray, out: np.ndarray | None) -> np.ndarray:
        out = np.multiply(values, pre, out=out)
        fft_a(out, axis=-1, out=out)
        out *= mid
        fft_b(out, axis=-1, out=out)
        out *= post
        return out

    return apply


def apply_filter(spec: Sif, signal: SampledSignal) -> SampledSignal:
    """Pass ``signal`` through ``spec``; the result stays on the input's axis.

    Stages act pointwise in their own domain; domain changes use the package
    Fourier convention.  Output energy never exceeds input energy (all
    profiles are peak-normalized).
    """
    _require_sif(spec)
    _check_grid(spec, signal.axis)
    return SampledSignal(signal.axis, filter_samples(spec, signal.axis, signal.values))


# ---------------------------------------------------------------------------
# dense operator assembly


@dataclass(frozen=True)
class OperatorMatrix:
    """Dense discretization of a filter kernel with quadrature weights folded in.

    ``entries[i, j] = sqrt(w_i) K(x_i, y_j) sqrt(w_j)`` where w are the axes'
    ``quadrature_weights()`` under their measures, so ``svd(entries)`` approximates the
    continuum Schmidt data and ``frobenius_sq`` approximates sum lambda_n^2.
    ``entries`` is a read-only ``float64`` copy when a caller's matrix arrives
    real and a ``complex128`` copy otherwise (every :func:`build_operator`
    kernel); the data type, not the values, decides, so a complex kernel with
    zero imaginary parts stays complex.
    ``edge_ring_ratio`` is the kernel's largest magnitude one spacing outside
    the grid relative to its peak, as :func:`build_operator` measures it; None
    for a matrix it did not build.
    """

    rows_axis: Axis
    cols_axis: Axis
    entries: np.ndarray
    edge_ring_ratio: float | None

    def __post_init__(self) -> None:
        arr = np.array(self.entries, dtype=complex if np.iscomplexobj(self.entries) else float)
        if arr.shape != (self.rows_axis.count, self.cols_axis.count):
            raise ValueError("entries shape must match (rows, cols) axis counts")
        if not np.all(np.isfinite(arr.view(float))):
            raise ValueError("operator entries must be finite")
        arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)

    def frobenius_sq(self) -> float:
        return float(np.sum(np.abs(self.entries) ** 2))


def _mixed_kernel(
    spec: Sif, rp: np.ndarray, rdom: Domain, cp: np.ndarray, cdom: Domain
) -> tuple[np.ndarray, int]:
    """(amplitude, sign s) of the Sif kernel amplitude * exp(i s outer(rp, cp)).

    The amplitude is the output stage on the rows times the input stage on
    the columns, so the rows lie in the output stage's domain and the columns
    in the input stage's: time rows x frequency columns for FREQUENCY_FIRST,
    the transpose for TIME_FIRST.  Any other pairing has no such kernel.
    """
    first, last = spec.stages
    if (rdom, cdom) != (last.domain, first.domain):
        raise DomainMismatchError(
            "a Sif's kernel needs the mixed representation: time rows x frequency "
            "columns for FREQUENCY_FIRST, the transpose for TIME_FIRST"
        )
    return last(rp)[:, None] * first(cp)[None, :], -1 if rdom is Domain.TIME else 1


def _peak(amplitude: np.ndarray) -> float:
    """Largest |amplitude|; refused when 0.

    Profiles are peak-normalized, so a kernel zero at every sample means the
    axes miss the filter.
    """
    kmax = float(np.max(np.abs(amplitude)))
    if kmax == 0:
        raise ResolutionError("kernel vanishes on the grid; the axes miss the filter's support")
    return kmax


def _edge_ring_check(spec: Sif, rows: Axis, cols: Axis, kmax: float) -> float:
    """Sample the kernel one edge spacing outside each grid edge; complain about tails.

    Returns the ratio of the largest ring sample to the kernel maximum ``kmax``,
    a proxy for the truncated tail mass: above 1e-6 the discretization is
    refused, above 1e-12 a warning is emitted.
    """
    rp, cp = rows.points, cols.points
    ring_rows = np.array([2.0 * rp[0] - rp[1], 2.0 * rp[-1] - rp[-2]])
    ring_cols = np.array([2.0 * cp[0] - cp[1], 2.0 * cp[-1] - cp[-2]])
    probe = max(
        np.max(np.abs(_mixed_kernel(spec, ring_rows, rows.domain, cp, cols.domain)[0])),
        np.max(np.abs(_mixed_kernel(spec, rp, rows.domain, ring_cols, cols.domain)[0])),
    )
    ratio = float(probe / kmax)
    if ratio > 1e-6:
        raise TruncationError(
            f"kernel magnitude {ratio:.2e} of peak at the grid edge; widen the axes"
        )
    if ratio > 1e-12:
        warnings.warn(
            f"kernel tail {ratio:.2e} of peak at the grid edge", TruncationWarning, stacklevel=3
        )
    return ratio


def build_operator(spec: Sif, rows: Axis, cols: Axis) -> OperatorMatrix:
    """Dense Nystrom discretization of the Sif kernel on (rows x cols).

    The kernel is rendered in the mixed time x frequency representation,
    Q(t) exp(-+i w t) R~(w), in the pairing natural to the order: time rows x
    frequency columns for FREQUENCY_FIRST, the transpose for TIME_FIRST.  Any
    other pairing raises :class:`DomainMismatchError`, and a kernel that is
    zero at every sample raises :class:`ResolutionError`.
    """
    _require_sif(spec)
    amp, sign = _mixed_kernel(spec, rows.points, rows.domain, cols.points, cols.domain)
    ratio = _edge_ring_check(spec, rows, cols, _peak(amp))
    kernel = amp * np.exp(sign * 1j * np.outer(rows.points, cols.points))
    sw = np.sqrt(rows.quadrature_weights())
    sc = np.sqrt(cols.quadrature_weights())
    entries = sw[:, None] * kernel * sc[None, :]
    return OperatorMatrix(rows, cols, entries, ratio)


@dataclass(frozen=True)
class ParityBlocks:
    """Weighted even and odd blocks of a reflection-symmetric Sif kernel.

    A Sif whose window and gate are both even has K(-x, -y) = K(x, y).  On
    axes symmetric about 0 its weighted matrix then maps mirror-even vectors
    to mirror-even ones and odd to odd, so in the basis (v(x) +- v(-x))/sqrt(2)
    it is block diagonal: ``even`` is sqrt(w_x) (K(x, y) + K(x, -y)) sqrt(w_y)
    and ``odd`` is sqrt(w_x) (K(x, y) - K(x, -y)) sqrt(w_y) / ``odd_phase``.
    Row k of ``even`` is the sample ``count // 2 + k`` of the rows axis (on an
    odd axis the centre first, with half its weight, then the positive
    points ascending), row k of ``odd`` is the sample ``(count + 1) // 2 + k``;
    columns likewise.  ``odd_phase`` is -+i, the constant of the odd part
    -+2i Q(t) R(w) sin(wt) of the mixed kernel, so both blocks of a
    real-profile Sif are real.  ``edge_ring_ratio`` is what
    :func:`build_operator`'s edge-ring check measures on the full axes.

    When window and gate are the same function once each is scaled to its own
    support (a self-dual Sif: both shipped families) and the axes are scaled
    alike, as on :func:`recommended_axes`, both blocks are symmetric up to the
    rounding of cos and sin of the products x_r x_c, and their Schmidt pairs
    are eigenpairs; :func:`tffilter.schmidt.decompose_filter` then factors
    them with a symmetric eigensolve.
    """

    even: np.ndarray
    odd: np.ndarray
    odd_phase: complex
    edge_ring_ratio: float


def _even_half(axis: Axis) -> tuple[np.ndarray, np.ndarray]:
    """Points x >= 0 of a symmetric ``axis`` and their weights.

    An odd axis's centre sample comes first, at exactly 0 and with half its weight.
    """
    pts = axis.points
    if np.max(np.abs(pts + pts[::-1])) > 1e-9 * np.max(np.abs(pts)):
        raise ValueError("parity blocks need axes symmetric about 0")
    start = axis.count // 2
    x, w = pts[start:].copy(), axis.quadrature_weights()[start:]
    if axis.count % 2:
        x[0] = 0.0
        w[0] *= 0.5
    return x, w


def parity_blocks(spec: Sif, rows: Axis, cols: Axis) -> ParityBlocks:
    """Even and odd half-size blocks of a Sif with even profiles on symmetric mixed axes.

    The blocks are assembled from the positive half-points, so the profiles
    are evaluated on a quarter of :func:`build_operator`'s grid; the blocks'
    singular values together are those of the full matrix.  The edge-ring and
    finiteness checks of :func:`build_operator` apply.
    """
    _require_sif(spec)
    if not (spec.spectral.even and spec.temporal.even):
        raise ValueError("parity blocks need a Sif whose window and gate are both even")
    xr, wr = _even_half(rows)
    xc, wc = _even_half(cols)
    amp, sign = _mixed_kernel(spec, xr, rows.domain, xc, cols.domain)
    ratio = _edge_ring_check(spec, rows, cols, _peak(amp))
    amp *= 2.0
    arg = np.outer(xr, xc)
    r0, c0 = rows.count % 2, cols.count % 2  # the centre sample has no odd part
    odd = np.sin(arg[r0:, c0:]).astype(amp.dtype, copy=False)
    odd *= amp[r0:, c0:]
    even = np.multiply(amp, np.cos(arg, out=arg), out=amp)
    sr, sc = np.sqrt(wr), np.sqrt(wc)
    even *= sr[:, None]
    even *= sc
    odd *= sr[r0:, None]
    odd *= sc[c0:]
    if not (np.all(np.isfinite(even)) and np.all(np.isfinite(odd))):
        raise ValueError("operator entries must be finite")
    return ParityBlocks(even, odd, sign * 1j, ratio)


# ---------------------------------------------------------------------------
# default discretization axes


def _profile_axis(profile: StageProfile, resolution: int = 1024) -> Axis:
    """The axis every integral of ``profile`` over its own domain runs on.

    The axis spans the profile's support radius at tolerance 1e-13: a profile
    compact in its own domain gets ``resolution`` Gauss-Legendre nodes inside
    it, a smooth one a symmetric uniform grid of ``resolution`` samples.
    Its ``quadrature_weights()`` carry the domain's measure (dt, or dw/2pi).
    """
    half = profile.support(1e-13)
    if profile.compact:
        return QuadratureAxis(half, resolution, profile.domain)
    return SampledAxis(-half, 2.0 * half / (resolution - 1), resolution, profile.domain)


def recommended_axes(spec: Sif, resolution: int) -> tuple[Axis, Axis]:
    """(rows, cols) of the Sif's mixed representation, each axis chosen by its own profile.

    The rows are :func:`_profile_axis` of the output stage at ``resolution``,
    the columns that of the input stage: time rows x frequency columns for
    FREQUENCY_FIRST, the transpose for TIME_FIRST.
    """
    _require_sif(spec)
    first, last = spec.stages
    return _profile_axis(last, resolution), _profile_axis(first, resolution)
