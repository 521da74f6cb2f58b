"""Schmidt (singular-value) decomposition of discretized filter operators.

The weighted matrix sqrt(w_r) K sqrt(w_c) from :func:`tffilter.core.build_operator`
is sent through LAPACK SVD as it is: a real (``float64``) matrix, such as a
Gaussian Sif in the square frequency representation, is factored in real
arithmetic, and a complex one in complex arithmetic.  Un-weighting the
singular vectors by 1/sqrt(w), w the axes' ``quadrature_weights()``, recovers
continuum mode functions normalized under the axis measure; they are stored
complex either way.  A doubling refinement loop (:func:`decompose_filter`)
factors each grid once and raises the resolution until every kept singular
value stabilizes, for both filter families.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .core import (
    ConvergenceError,
    Axis,
    OperatorMatrix,
    SampledSignal,
    Sif,
    inner_product,
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
    ``final_rows``/``final_cols`` are the returned modes' axes (Gauss-Legendre for brick walls).
    """

    resolutions: tuple[int, ...]
    leading_rel_change: float
    converged: bool
    tolerance: float
    final_rows: Axis | None = None
    final_cols: Axis | None = None
    ladder_rel_change: float = 0.0


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
    """

    singular_values: np.ndarray
    output_modes: tuple[SampledSignal, ...]
    input_modes: tuple[SampledSignal, ...]
    total_power: float           # sum of ALL squared singular values, kept or not
    grid_report: GridReport | None = None

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
    grid_report: GridReport | None = None,
) -> SchmidtResult:
    """SVD of a weighted operator matrix, un-weighted back to mode functions.

    ``keep`` selects how many pairs are retained: an int is an exact count, a
    float in (0, 1) keeps modes with s_n >= keep * s_0, and None applies the
    default relative threshold 1e-6.
    """
    return _result(op, _svd(op), keep, grid_report)


def _svd(op: OperatorMatrix) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    return scipy.linalg.svd(op.entries, full_matrices=False, lapack_driver="gesdd")


def _result(
    op: OperatorMatrix, factors: tuple, keep: int | float | None, grid_report: GridReport | None
) -> SchmidtResult:
    """Kept, phase-fixed and un-weighted Schmidt pairs from the SVD ``factors`` of ``op``."""
    u, sv, vh = factors
    total = float(np.sum(sv**2))
    n_keep = _resolve_keep(sv, keep)
    u, vh = _fix_phases(u[:, :n_keep], vh[:n_keep])
    sr = np.sqrt(op.rows_axis.quadrature_weights())
    sc = np.sqrt(op.cols_axis.quadrature_weights())
    outs = tuple(
        SampledSignal(op.rows_axis, u[:, n] / sr) for n in range(n_keep)
    )
    ins = tuple(
        SampledSignal(op.cols_axis, np.conj(vh[n]) / sc) for n in range(n_keep)
    )
    return SchmidtResult(sv[:n_keep], outs, ins, total, grid_report)


def decompose_filter(
    spec: Sif,
    keep: int | float | None = None,
    resolution: int = 256,
    max_resolution: int = 4096,
    tol: float = 1e-8,
) -> SchmidtResult:
    """Decompose a sequential filter with automatic grid refinement.

    Grids from :func:`tffilter.core.recommended_axes` are doubled until every
    singular value that ``keep`` retains moves by less than ``tol`` times s_0
    against the previous grid, then that grid's SVD is returned with a :class:`GridReport`.
    """
    from .core import build_operator  # local import keeps module load order simple

    resolutions: list[int] = []
    prev: np.ndarray | None = None
    res = resolution
    while res <= max_resolution:
        rows, cols = recommended_axes(spec, res)
        op = build_operator(spec, rows, cols)
        factors = _svd(op)
        sv = factors[1]
        resolutions.append(res)
        if prev is not None:
            scale = max(sv[0], np.finfo(float).tiny)
            kept = sv[: _resolve_keep(sv, keep)]
            before = np.zeros_like(kept)
            before[: len(prev)] = prev[: len(kept)]
            ladder = float(np.max(np.abs(kept - before)) / scale)
            if ladder < tol:
                leading = float(abs(sv[0] - prev[0]) / scale)
                report = GridReport(tuple(resolutions), leading, True, tol, rows, cols, ladder)
                return _result(op, factors, keep, report)
        prev = sv
        res *= 2
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
