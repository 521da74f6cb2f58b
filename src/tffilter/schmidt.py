"""Schmidt (singular-value) decomposition of discretized filter kernels.

:func:`schmidt_decompose` sends the weighted matrix sqrt(w_r) K sqrt(w_c) of an
:class:`~tffilter.core.OperatorMatrix` through NumPy's LAPACK SVD (``gesdd``) as
it is: a real (``float64``) matrix is factored in real arithmetic, a complex one
in complex arithmetic.  Un-weighting the singular vectors by 1/sqrt(w), w the
axes' ``quadrature_weights()``, recovers continuum mode functions normalized
under the axis measure; they are stored complex either way.  A matrix below 362
on its smaller side (every parity block of a typical ladder) is factored on one
BLAS thread, where a second thread costs more than it brings; larger ones use
the process's BLAS pool.

:func:`decompose_filter` raises the resolution of a Sif's grids until every
kept singular value stabilizes: it starts at N = 64 samples per axis and
raises N in half-octave steps, round(64 * 2**(k/2)) = 64, 91, 128, 181, 256,
362, ..., up to ``max_resolution``.  A typical ladder settles on its second
level, (64, 91): Gaussian BT up to 0.5 and the brick wall at BT 0.8 and 4.
Gaussian BT 2 takes (64, 91, 128), BT 5 stops at 256 and BT 10 at 362.
Every Sif is discretized in its mixed time x frequency representation, on the
axes :func:`~tffilter.core.recommended_axes` picks for each profile.  When the
window and the gate are both even (every profile that ships), each grid is
factored as the two half-size real :func:`~tffilter.core.parity_blocks`; the
two value lists are merged, and full-axis vectors are rebuilt, with their
parity, only for the pairs that are returned.  Any other Sif goes through one
complex SVD of the whole :func:`~tffilter.core.build_operator` matrix.
"""

from __future__ import annotations

import functools
import threading
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import (
    ConvergenceError,
    Axis,
    OperatorMatrix,
    SampledSignal,
    Sif,
    _require_sif,
    inner_product,
    parity_blocks,
    recommended_axes,
)

__all__ = [
    "GridReport",
    "SchmidtResult",
    "schmidt_decompose",
    "decompose_filter",
    "project_onto_input_mode",
    "reconstruct_kernel",
]


@dataclass(frozen=True)
class GridReport:
    """Provenance of a converged decomposition: grids tried and the final drift.

    ``leading_rel_change`` is |s_0 - s_0^prev| / s_0 between the last two
    grids and ``ladder_rel_change`` is max_n |s_n - s_n^prev| / s_0 over the
    values kept on the last grid (a value the coarser grid lacks counts as 0).
    ``final_rows``/``final_cols`` are the returned modes' axes, one time and one
    frequency axis: Gauss-Legendre nodes for a compact profile, a uniform grid
    for a smooth one.
    ``edge_ring_ratio`` is the kernel's largest magnitude one spacing outside
    the final grid relative to its peak, a proxy for the truncated tail.
    """

    resolutions: tuple[int, ...]
    leading_rel_change: float
    tolerance: float
    final_rows: Axis | None = None
    final_cols: Axis | None = None
    ladder_rel_change: float = 0.0
    edge_ring_ratio: float | None = None


@dataclass(frozen=True)
class SchmidtResult:
    """Schmidt data of a filter kernel.

    ``singular_values[n]`` pairs ``output_modes[n]`` (left) with
    ``input_modes[n]`` (right): K(x, y) = sum_n s_n psi_n(x) conj(phi_n(y)).
    Modes are unit-norm under their axis measure.  The phase convention fixes
    each input mode's pivot sample to be real positive: the first sample whose
    magnitude is within a relative 1e-9 of the mode's largest.  Taking the
    first of the near-largest samples, not the exact argmax, keeps an odd mode
    (equal-magnitude mirror samples) from flipping sign with rounding, so real
    and complex factorizations of one kernel return the same modes.
    ``parities[n]`` is +1 for a pair of even modes, -1 for odd ones, when the
    decomposition was split by reflection parity; None when it was not.
    """

    singular_values: np.ndarray
    output_modes: tuple[SampledSignal, ...]
    input_modes: tuple[SampledSignal, ...]
    total_power: float           # sum of ALL squared singular values, kept or not
    grid_report: GridReport | None = None
    parities: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        sv = np.asarray(self.singular_values, dtype=float)
        sv.setflags(write=False)
        object.__setattr__(self, "singular_values", sv)

    @property
    def kept(self) -> int:
        return len(self.singular_values)

    def truncation_residual(self) -> float:
        """sqrt of the squared singular mass outside the kept modes."""
        tail = self.total_power - float(np.sum(self.singular_values**2))
        return float(np.sqrt(max(tail, 0.0)))


def _resolve_keep(sv: np.ndarray, keep: int | float | None) -> int:
    if keep is None:
        keep = 1e-6
    if isinstance(keep, bool):
        raise TypeError("keep must be an int count, float threshold, or None")
    if isinstance(keep, (int, np.integer)):
        if keep < 1:
            raise ValueError("keep count must be >= 1")
        return min(int(keep), len(sv))
    if isinstance(keep, float):
        if not (0.0 < keep < 1.0):
            raise ValueError("keep threshold must lie in (0, 1)")
        if sv[0] == 0.0:
            return 1
        return max(1, int(np.sum(sv >= keep * sv[0])))
    raise TypeError("keep must be an int count, float threshold, or None")


_PIVOT_RTOL = 1e-9


def _fix_phases(u: np.ndarray, vh: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rotate each pair so the input mode's pivot sample is real positive.

    The pivot is the first sample with |v| >= (1 - 1e-9) max |v|.  Mirror
    samples of a mode with definite parity have equal magnitude up to
    rounding, so the exact argmax would let rounding pick the pivot and flip
    an odd mode's sign; the first near-largest sample does not depend on it.
    The left member of the pair absorbs the conjugate rotation, keeping
    K = U diag(s) Vh unchanged.  Real factors get a real rotation (+-1) and
    stay real.  Degenerate singular values leave the basis within their block
    arbitrary up to mixing; the convention is still applied per vector so
    results are deterministic for a fixed LAPACK build.
    """
    mags = np.abs(vh)
    peak = mags.max(axis=1, keepdims=True)
    n = np.arange(vh.shape[0])
    idx = np.argmax(mags >= (1.0 - _PIVOT_RTOL) * peak, axis=1)
    pivot, size = vh[n, idx], mags[n, idx]
    rot = np.ones_like(pivot)
    nz = size > 0
    rot[nz] = pivot[nz].conj() / size[nz]
    return u * rot.conj(), vh * rot[:, None]


def schmidt_decompose(
    op: OperatorMatrix,
    keep: int | float | None = None,
) -> SchmidtResult:
    """SVD of a weighted operator matrix, un-weighted back to mode functions.

    ``keep`` selects how many pairs are retained: an int is an exact count, a
    float in (0, 1) keeps modes with s_n >= keep * s_0, and None applies the
    default relative threshold 1e-6.
    """
    u, sv, vh = _svd(op.entries)
    n_keep = _resolve_keep(sv, keep)
    total = float(np.sum(sv**2))
    return _result(op.rows_axis, op.cols_axis, sv[:n_keep], u[:, :n_keep], vh[:n_keep], total, None)


# NumPy ``svd`` of random n x n matrices on 2 shared x86-64 cores (OpenBLAS
# 0.3.31), median of 3-5 runs: its time on 2 threads over its time on 1 was
# 1.13 at n = 181, 1.08 at 256, 1.00 at 362, 0.93 at 512, 0.84 at 724 and 0.81
# at 1024.  A second thread pays only from n = 362 on, so a matrix whose smaller
# side is below that is factored on one thread.  Parity blocks of 32-181 rows
# are the typical ladder's.
_ONE_THREAD_BELOW = 362

# OpenBLAS built on pthreads keeps one thread count for the whole process, so
# the lowered count is set and restored by one caller at a time.
_blas_threads_lock = threading.Lock()


@functools.cache
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


def _svd(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Thin NumPy SVD (LAPACK ``gesdd``) of every factored grid.

    A matrix whose smaller side is below ``_ONE_THREAD_BELOW`` runs on one BLAS
    thread, whatever the process's pool size; the caller's count is restored
    afterwards.  Larger ones, and any BLAS without the OpenBLAS setter, run on
    the process's pool.
    """
    setter = _blas_thread_setter() if min(a.shape) < _ONE_THREAD_BELOW else None
    if setter is None:
        return np.linalg.svd(a, full_matrices=False)
    with _blas_threads_lock:
        previous = setter(1)
        try:
            return np.linalg.svd(a, full_matrices=False)
        finally:
            setter(previous)


def _result(
    rows: Axis,
    cols: Axis,
    sv: np.ndarray,
    u: np.ndarray,
    vh: np.ndarray,
    total: float,
    grid_report: GridReport | None,
    parities: tuple[int, ...] | None = None,
) -> SchmidtResult:
    """Phase-fixed, un-weighted Schmidt pairs from the kept weighted singular vectors."""
    u, vh = _fix_phases(u, vh)
    sr = np.sqrt(rows.quadrature_weights())
    sc = np.sqrt(cols.quadrature_weights())
    outs = tuple(SampledSignal(rows, u[:, n] / sr) for n in range(len(sv)))
    ins = tuple(SampledSignal(cols, np.conj(vh[n]) / sc) for n in range(len(sv)))
    return SchmidtResult(sv, outs, ins, total, grid_report, parities)


# A factored grid level: (all singular values, descending; edge-ring ratio;
# n -> (u, vh, parities) of the n leading weighted pairs on the full axes).
_Level = tuple[np.ndarray, float, Callable[[int], tuple]]


def _factor_full(spec: Sif, rows: Axis, cols: Axis) -> _Level:
    """One SVD of the whole weighted matrix."""
    from .core import build_operator  # local import keeps module load order simple

    op = build_operator(spec, rows, cols)
    u, sv, vh = _svd(op.entries)
    return sv, op.edge_ring_ratio, lambda n: (u[:, :n], vh[:n], None)


def _unfold(half: np.ndarray, count: int, parity: int) -> np.ndarray:
    """Full-axis weighted vectors (rows) from half-axis ones laid out as in ParityBlocks.

    A vector v on the half axis becomes (parity * mirror(v), v) / sqrt(2); an
    even vector keeps its centre sample (first on an odd axis) unscaled, since
    that sample carried half its weight in the block.
    """
    full = np.zeros((half.shape[0], count), dtype=half.dtype)
    m = count // 2
    full[:, count - half.shape[1]:] = half
    full[:, :m] = parity * half[:, ::-1][:, :m]
    full *= np.sqrt(0.5)
    if count % 2 and parity > 0:
        full[:, m] = half[:, 0]
    return full


def _factor_split(spec: Sif, rows: Axis, cols: Axis) -> _Level:
    """Two real half-size SVDs of the parity blocks; full vectors only for kept pairs."""
    blocks = parity_blocks(spec, rows, cols)
    ue, se, vhe = _svd(blocks.even)
    uo, so, vho = _svd(blocks.odd)
    sv = np.concatenate([se, so])
    order = np.argsort(-sv, kind="stable")

    def modes(n: int) -> tuple:
        pick = order[:n]
        odd = pick >= len(se)
        ie, io = pick[~odd], pick[odd] - len(se)
        u = np.empty((rows.count, n), dtype=np.result_type(ue, uo, blocks.odd_phase))
        vh = np.empty((n, cols.count), dtype=np.result_type(vhe, vho))
        u[:, ~odd] = _unfold(ue[:, ie].T, rows.count, 1).T
        u[:, odd] = blocks.odd_phase * _unfold(uo[:, io].T, rows.count, -1).T
        vh[~odd] = _unfold(vhe[ie], cols.count, 1)
        vh[odd] = _unfold(vho[io], cols.count, -1)
        return u, vh, tuple(np.where(odd, -1, 1).tolist())

    return sv[order], blocks.edge_ring_ratio, modes


def _check_level(name: str, value: int) -> int:
    """A grid size as a Python int, refused unless it is an integer >= 2."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise TypeError(f"{name} must be an int, got {type(value).__name__}")
    if value < 2:
        raise ValueError(f"{name} must be >= 2 samples per axis, got {value}")
    return int(value)


def decompose_filter(
    spec: Sif,
    keep: int | float | None = None,
    resolution: int = 64,
    max_resolution: int = 4096,
    tol: float = 1e-8,
) -> SchmidtResult:
    """Decompose a sequential filter with automatic grid refinement.

    Grids from :func:`tffilter.core.recommended_axes` take N = round(
    ``resolution`` * 2**(k/2)) samples per axis at level k = 0, 1, 2, ...: from
    the default 64, that is 64, 91, 128, 181, 256, 362, ..., 4096, so every
    power of two stays a level.  Levels are tried up to ``max_resolution``
    until every singular value that ``keep`` retains moves by less than ``tol``
    times s_0 against the previous level; that grid's pairs are returned with a
    :class:`GridReport`, whose ``resolutions`` are the levels taken: (64, 91)
    for Gaussian BT up to 0.5 and the brick wall at BT 0.8 and 4,
    (64, 91, 128) for Gaussian BT 2, up to 256 for BT 5 and up to 362 for
    BT 10.  One level alone never converges.  ``resolution`` and
    ``max_resolution`` must be integers >= 2 (TypeError, ValueError), and a
    ``max_resolution`` below ``resolution``, or between the first two levels,
    raises ValueError.
    When the window and the gate are both ``even`` each grid is factored as its
    two :func:`tffilter.core.parity_blocks` and the modes carry ``parities``;
    otherwise the whole :func:`tffilter.core.build_operator` matrix is.
    Anything but a Sif raises TypeError.
    """
    _require_sif(spec)
    resolution = _check_level("resolution", resolution)
    max_resolution = _check_level("max_resolution", max_resolution)
    if max_resolution < resolution:
        raise ValueError(f"max_resolution {max_resolution} is below resolution {resolution}")
    second = round(resolution * 2 ** (1 / 2))
    if resolution < max_resolution < second:
        raise ValueError(
            f"max_resolution {max_resolution} lies between the first two levels, "
            f"{resolution} and {second}, so no level can be checked against another"
        )
    factor = _factor_split if spec.spectral.even and spec.temporal.even else _factor_full
    resolutions: list[int] = []
    prev: np.ndarray | None = None
    res = resolution
    while res <= max_resolution:
        rows, cols = recommended_axes(spec, res)
        sv, ring, modes = factor(spec, rows, cols)
        resolutions.append(res)
        if prev is not None:
            scale = max(sv[0], np.finfo(float).tiny)
            n_keep = _resolve_keep(sv, keep)
            kept = sv[:n_keep]
            before = np.zeros_like(kept)
            before[: len(prev)] = prev[: len(kept)]
            ladder = float(np.max(np.abs(kept - before)) / scale)
            if ladder < tol:
                leading = float(abs(sv[0] - prev[0]) / scale)
                report = GridReport(tuple(resolutions), leading, tol, rows, cols, ladder, ring)
                u, vh, parities = modes(n_keep)
                total = float(np.sum(sv**2))
                return _result(rows, cols, kept, u, vh, total, report, parities)
        prev = sv
        res = round(resolution * 2 ** (len(resolutions) / 2))
    raise ConvergenceError(
        f"kept singular values did not stabilize to {tol:g} below resolution {max_resolution}"
    )


def project_onto_input_mode(result: SchmidtResult, n: int, signal: SampledSignal) -> complex:
    """Coefficient <phi_n, signal>; transmitted amplitude in pair n is s_n times this."""
    return inner_product(result.input_modes[n], signal)


def reconstruct_kernel(result: SchmidtResult) -> OperatorMatrix:
    """Weighted matrix sum_n s_n (sqrt(w) psi_n)(sqrt(w) phi_n)^dagger from kept pairs.

    Comparable entry-by-entry with the decomposed OperatorMatrix; the Frobenius
    distance to the original is bounded by ``truncation_residual()``.
    """
    rows_axis = result.output_modes[0].axis
    cols_axis = result.input_modes[0].axis
    sr = np.sqrt(rows_axis.quadrature_weights())
    sc = np.sqrt(cols_axis.quadrature_weights())
    k = np.zeros((rows_axis.count, cols_axis.count), dtype=complex)
    for s, psi, phi in zip(
        result.singular_values, result.output_modes, result.input_modes
    ):
        k += s * np.outer(sr * psi.values, np.conj(sc * phi.values))
    return OperatorMatrix(rows_axis, cols_axis, k)
