"""Schmidt (singular-value) decomposition of discretized filter kernels.

:func:`schmidt_decompose` sends the weighted matrix sqrt(w_r) K sqrt(w_c) of an
:class:`~tffilter.core.OperatorMatrix` through NumPy's LAPACK SVD (``gesdd``) as
it is: a real (``float64``) matrix is factored in real arithmetic, a complex one
in complex arithmetic.  Un-weighting the singular vectors by 1/sqrt(w), w the
axes' ``quadrature_weights()``, recovers continuum mode functions normalized
under the axis measure; they are stored complex either way.  Every SVD and
eigensolve runs under :func:`tffilter.core._lapack`: on one BLAS thread at
every size, so a ladder does not depend on the pool size, and with a LAPACK
failure raised as ``ConvergenceError``.

:func:`decompose_filter` raises the resolution of a Sif's grids until every
kept singular value stabilizes: N samples per axis climbs the half-octave
levels round(64 * 2**(k/2)) = 64, 91, 128, 181, 256, 362, ..., up to
``max_resolution``, from the largest level within 0.4 of the Shannon number
2 t_h w_h / pi of the axes' support box (64 at least), and the first level
is factored for its values only.  A typical ladder settles on its second
level, (64, 91): Gaussian BT up to 0.5 and the brick wall at BT 0.8 and 4.
Gaussian BT 2 takes (64, 91, 128), BT 5 (128, 181, 256) and BT 10 (256, 362).
Every Sif is discretized in its mixed time x frequency representation, on the
axes :func:`~tffilter.core.recommended_axes` picks for each profile.  When the
window and the gate are both even (every profile that ships), each grid is
factored as the two half-size real :func:`~tffilter.core.parity_blocks`; the
two value lists are merged, and full-axis vectors are rebuilt, with their
parity, only for the pairs that are returned.  Both shipping families are
self-dual as well, so their blocks are symmetric up to the rounding of their
assembly and are factored by a symmetric eigensolve on one BLAS thread, in
about half an SVD's time; blocks that are not symmetric get the SVD.  Any
other Sif goes through one complex SVD of the whole
:func:`~tffilter.core.build_operator` matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import (
    ConvergenceError,
    Axis,
    OperatorMatrix,
    SampledSignal,
    Sif,
    _lapack,
    _require_sif,
    inner_product,
    parity_blocks,
    recommended_axes,
)
from .metrics import Ladder

__all__ = [
    "GridReport",
    "SchmidtResult",
    "schmidt_decompose",
    "decompose_filter",
    "project_onto_input_mode",
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
    ``factorizations[k]`` names how level ``resolutions[k]`` was factored:
    ``"eigh"`` for the symmetric parity blocks of a self-dual Sif, ``"svd"``
    for any other grid.
    """

    resolutions: tuple[int, ...]
    leading_rel_change: float
    tolerance: float
    final_rows: Axis
    final_cols: Axis
    ladder_rel_change: float
    edge_ring_ratio: float
    factorizations: tuple[str, ...]


@dataclass(frozen=True, eq=False)
class SchmidtResult(Ladder):
    """Schmidt data of a filter kernel: its :class:`~tffilter.metrics.Ladder` and modes.

    ``singular_values[n]`` pairs ``output_modes[n]`` (left) with
    ``input_modes[n]`` (right): K(x, y) = sum_n s_n psi_n(x) conj(phi_n(y)).
    ``total_power`` is the sum of all squared singular values, kept or not.
    Modes are unit-norm under their axis measure.  The phase convention fixes
    each input mode's pivot sample to be real positive: the first sample whose
    magnitude is within a relative 1e-9 of the mode's largest.  Taking the
    first of the near-largest samples, not the exact argmax, keeps an odd mode
    (equal-magnitude mirror samples) from flipping sign with rounding, so real
    and complex factorizations of one kernel return the same modes.
    ``parities[n]`` is +1 for a pair of even modes, -1 for odd ones, when the
    decomposition was split by reflection parity; None when it was not.
    """

    output_modes: tuple[SampledSignal, ...]
    input_modes: tuple[SampledSignal, ...]
    grid_report: GridReport | None
    parities: tuple[int, ...] | None


def _check_keep(keep: int | None) -> None:
    """Refuse a ``keep`` that is neither None nor an int count of at least 1."""
    if keep is None:
        return
    if isinstance(keep, bool) or not isinstance(keep, (int, np.integer)):
        raise TypeError(f"keep must be an int count or None, got {type(keep).__name__}")
    if keep < 1:
        raise ValueError("keep count must be >= 1")


def _resolve_keep(sv: np.ndarray, keep: int | None) -> int:
    """How many of ``sv`` a ``keep`` that passed :func:`_check_keep` retains."""
    if keep is None:
        return int(np.sum(sv >= 1e-6 * sv[0]))  # s_0 counts; a zero ladder is refused as a Ladder
    return min(int(keep), len(sv))


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
    rot = vh[n, idx].conj() / mags[n, idx]  # every row is a unit vector: no zero pivot
    return u * rot.conj(), vh * rot[:, None]


def schmidt_decompose(
    op: OperatorMatrix,
    keep: int | None,
) -> SchmidtResult:
    """SVD of a weighted operator matrix, un-weighted back to mode functions.

    ``keep`` selects how many pairs are retained: an int is an exact count,
    and None keeps every mode with s_n >= 1e-6 s_0.  Anything else, a float
    included, raises TypeError.
    """
    _check_keep(keep)
    u, sv, vh = _svd(op.entries)
    return _result(op.rows_axis, op.cols_axis, sv, _resolve_keep(sv, keep), None, u, vh, None)


def _svd(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Thin NumPy SVD (LAPACK ``gesdd``) of a grid that is not symmetric, under
    :func:`tffilter.core._lapack`."""
    with _lapack("Schmidt SVD"):
        return np.linalg.svd(a, full_matrices=False)


def _svd_values(a: np.ndarray) -> np.ndarray:
    """The singular values alone of :func:`_svd`'s grid, descending."""
    with _lapack("Schmidt SVD"):
        return np.linalg.svd(a, compute_uv=False)


def _eigh(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(u, s, vh) of a symmetric ``a`` from NumPy's ``eigh`` of its symmetric part.

    With a = sum_n lambda_n v_n v_n^T, s_n = |lambda_n|, vh holds the v_n^T
    and u the sign(lambda_n) v_n, in ``eigh``'s order: the values are not
    sorted, which the caller's merge of the two parity blocks does.  The
    eigensolve runs under :func:`tffilter.core._lapack`.
    """
    with _lapack("Schmidt eigensolve"):
        lam, v = np.linalg.eigh(0.5 * (a + a.T))
    return v * np.where(lam < 0, -1.0, 1.0), np.abs(lam), v.T


def _eigh_values(a: np.ndarray) -> np.ndarray:
    """The s of :func:`_eigh` alone, from ``eigvalsh``; unsorted, as there."""
    with _lapack("Schmidt eigensolve"):
        return np.abs(np.linalg.eigvalsh(0.5 * (a + a.T)))


def _result(
    rows: Axis,
    cols: Axis,
    sv: np.ndarray,
    kept: int,
    grid_report: GridReport | None,
    u: np.ndarray,
    vh: np.ndarray,
    parities: tuple[int, ...] | None,
) -> SchmidtResult:
    """The ``kept`` leading Schmidt pairs, phase-fixed and un-weighted, of a grid
    whose singular values are all of ``sv``; ``u`` and ``vh`` hold at least
    those pairs' weighted singular vectors."""
    u, vh = _fix_phases(u[:, :kept], vh[:kept])
    sr = np.sqrt(rows.quadrature_weights())
    sc = np.sqrt(cols.quadrature_weights())
    outs = tuple(SampledSignal(rows, u[:, n] / sr) for n in range(kept))
    ins = tuple(SampledSignal(cols, np.conj(vh[n]) / sc) for n in range(kept))
    return SchmidtResult(sv[:kept], np.sum(sv**2), outs, ins, grid_report, parities)


# A factored grid level: (all singular values, descending; edge-ring ratio;
# n -> (u, vh, parities) of the n leading weighted pairs on the full axes, or
# None for a level factored for its values only; the factorization, "eigh" or
# "svd").
_Level = tuple[np.ndarray, float, Callable[[int], tuple] | None, str]


def _factor_full(spec: Sif, rows: Axis, cols: Axis, vectors: bool) -> _Level:
    """One SVD of the whole weighted matrix, with its singular vectors only if ``vectors``."""
    from .core import build_operator  # local import keeps module load order simple

    op = build_operator(spec, rows, cols)
    if not vectors:
        return _svd_values(op.entries), op.edge_ring_ratio, None, "svd"
    u, sv, vh = _svd(op.entries)
    return sv, op.edge_ring_ratio, lambda n: (u[:, :n], vh[:n], None), "svd"


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


# A parity block counts as symmetric when max|A - A^T| is within
# _SYMMETRY_TOL * (1 + max|x_r| max|x_c|) * max|A|, the rounding of its
# assembly: cos and sin of the products x_r x_c carry an absolute error of
# about eps |x_r x_c|.  The Gaussian and brick-wall blocks on recommended_axes
# measured at most 6.6 eps on this scale (Gaussian BT 0.01 to 100, brick wall
# BT 0.05 to 100, 64 to 724 samples); a Gaussian window with a brick-wall gate
# measured 1.4e14 eps.
_SYMMETRY_TOL = 64 * float(np.finfo(float).eps)


def _factor_split(spec: Sif, rows: Axis, cols: Axis, vectors: bool) -> _Level:
    """Two real half-size factorizations of the parity blocks; full vectors only for kept pairs.

    The blocks are square, as both axes of a level have its N samples.  When
    both are symmetric to within the rounding of their assembly, as a
    self-dual Sif's are, they are factored by :func:`_eigh`, otherwise by
    :func:`_svd`; without ``vectors``, by :func:`_eigh_values` or
    :func:`_svd_values`.  Only the vectors outlive the call, not the blocks.
    """
    blocks = parity_blocks(spec, rows, cols)
    tol = _SYMMETRY_TOL * (1.0 + np.abs(rows.points).max() * np.abs(cols.points).max())
    symmetric = all(np.abs(b - b.T).max() <= tol * np.abs(b).max() for b in (blocks.even, blocks.odd))
    route = "eigh" if symmetric else "svd"
    ring, phase = blocks.edge_ring_ratio, blocks.odd_phase
    if not vectors:
        values = _eigh_values if symmetric else _svd_values
        sv = np.concatenate([values(blocks.even), values(blocks.odd)])
        return sv[np.argsort(-sv, kind="stable")], ring, None, route
    factor = _eigh if symmetric else _svd
    ue, se, vhe = factor(blocks.even)
    uo, so, vho = factor(blocks.odd)
    sv = np.concatenate([se, so])
    order = np.argsort(-sv, kind="stable")

    def modes(n: int) -> tuple:
        pick = order[:n]
        odd = pick >= len(se)
        ie, io = pick[~odd], pick[odd] - len(se)
        u = np.empty((rows.count, n), dtype=np.result_type(ue, uo, phase))
        vh = np.empty((n, cols.count), dtype=np.result_type(vhe, vho))
        u[:, ~odd] = _unfold(ue[:, ie].T, rows.count, 1).T
        u[:, odd] = phase * _unfold(uo[:, io].T, rows.count, -1).T
        vh[~odd] = _unfold(vhe[ie], cols.count, 1)
        vh[odd] = _unfold(vho[io], cols.count, -1)
        return u, vh, tuple(np.where(odd, -1, 1).tolist())

    return sv[order], ring, modes, route


# Grid levels N = round(64 * 2**(k/2)) samples per axis, k = 0, 1, 2, ...; a
# kept singular value has settled once it moves by less than _TOLERANCE * s_0
# between two levels.  A ladder starts at the largest level within
# _START_FRACTION of the Shannon number of its axes (see _start_level).
_FIRST_LEVEL = 64
_TOLERANCE = 1e-8
_START_FRACTION = 0.4


def _level(k: int) -> int:
    """Samples per axis of grid level k: round(64 * 2**(k/2))."""
    return round(_FIRST_LEVEL * 2 ** (k / 2))


def _start_level(spec: Sif, max_resolution: int) -> int:
    """The level k a ladder starts at.

    The Shannon number N_s = 2 t_h w_h / pi of the support box that
    :func:`~tffilter.core.recommended_axes` samples, t_h and w_h the
    ``support(1e-13)`` radii of the gate and the window (the 2WT count of
    Landau and Pollak), is about how many samples a level needs.  The start
    is the largest level of at most _START_FRACTION * N_s samples, the first
    level (64) at least, and low enough that the next level fits under
    ``max_resolution``.  No ladder of the shipped families, nor of their
    mixed pairs, has stopped below 0.44 N_s, so starting there skips only
    levels that could not have been the last.
    """
    box = float(spec.temporal.support(1e-13)) * float(spec.spectral.support(1e-13))
    limit = _START_FRACTION * 2.0 * box / np.pi
    k = 0
    while _level(k + 1) <= limit and _level(k + 2) <= max_resolution:
        k += 1
    return k


def decompose_filter(
    spec: Sif,
    keep: int | None,
    max_resolution: int = 4096,
) -> SchmidtResult:
    """Decompose a sequential filter with automatic grid refinement.

    Grids from :func:`tffilter.core.recommended_axes` take N = round(64 *
    2**(k/2)) samples per axis at level k = 0, 1, 2, ...: 64, 91, 128, 181,
    256, 362, ..., 4096, so every power of two stays a level.  The first level
    tried is the largest within 0.4 of the Shannon number N_s = 2 t_h w_h / pi
    of the axes, t_h and w_h the gate's and the window's ``support(1e-13)``
    radii, but 64 at least, and low enough that the next level fits under
    ``max_resolution``.  Levels are tried up to ``max_resolution`` until every
    singular value that ``keep`` retains moves by less than 1e-8 times s_0
    against the previous level; that grid's pairs are returned with a
    :class:`GridReport`, whose ``resolutions`` are the levels taken: (64, 91)
    for Gaussian BT up to 0.5 and the brick wall at BT 0.8 and 4, (64, 91,
    128) for Gaussian BT 2, (128, 181, 256) for BT 5 and (256, 362) for BT
    10.  One level alone never converges, so the first is factored for its
    values only; every later one with its vectors.  ``keep`` is as in
    :func:`schmidt_decompose`: an int count, or None for every s_n >= 1e-6 s_0.
    ``max_resolution`` must be an integer (TypeError) of at least 64, and not
    between the first two levels, 64 and 91 (ValueError).  Both arguments are
    checked before the first level is assembled.
    When the window and the gate are both ``even`` each grid is factored as its
    two :func:`tffilter.core.parity_blocks` and the modes carry ``parities``;
    otherwise the whole :func:`tffilter.core.build_operator` matrix is.  Blocks
    that are symmetric to within max|A - A^T| <= 64 eps (1 + max|x_r| max|x_c|)
    max|A|, as a self-dual Sif's are (both shipped families, at any BT), are
    factored by ``eigh`` of their symmetric part, the singular values being the
    |eigenvalues|; any others by the SVD.  ``GridReport.factorizations`` names
    each level's route.  Anything but a Sif raises TypeError.
    """
    _require_sif(spec)
    _check_keep(keep)
    if isinstance(max_resolution, bool) or not isinstance(max_resolution, (int, np.integer)):
        raise TypeError(f"max_resolution must be an int, got {type(max_resolution).__name__}")
    max_resolution = int(max_resolution)
    if max_resolution < _FIRST_LEVEL:
        raise ValueError(f"max_resolution must be >= {_FIRST_LEVEL} samples per axis, got {max_resolution}")
    second = _level(1)
    if _FIRST_LEVEL < max_resolution < second:
        raise ValueError(
            f"max_resolution {max_resolution} lies between the first two levels, "
            f"{_FIRST_LEVEL} and {second}, so no level can be checked against another"
        )
    factor = _factor_split if spec.spectral.even and spec.temporal.even else _factor_full
    resolutions: list[int] = []
    routes: list[str] = []
    prev: np.ndarray | None = None
    k = _start_level(spec, max_resolution)
    while (res := _level(k)) <= max_resolution:
        rows, cols = recommended_axes(spec, res)
        # one level alone never converges, so the first is factored for its values only
        sv, ring, modes, route = factor(spec, rows, cols, prev is not None)
        resolutions.append(res)
        routes.append(route)
        if prev is not None:
            scale = max(sv[0], np.finfo(float).tiny)
            n_keep = _resolve_keep(sv, keep)
            kept = sv[:n_keep]
            before = np.zeros_like(kept)
            before[: len(prev)] = prev[: len(kept)]
            ladder = float(np.max(np.abs(kept - before)) / scale)
            if ladder < _TOLERANCE:
                leading = float(abs(sv[0] - prev[0]) / scale)
                report = GridReport(
                    tuple(resolutions), leading, _TOLERANCE, rows, cols, ladder, ring, tuple(routes)
                )
                return _result(rows, cols, sv, n_keep, report, *modes(n_keep))
        prev, modes = sv, None  # only the values are kept while the next level is factored
        k += 1
    raise ConvergenceError(
        f"kept singular values did not stabilize to {_TOLERANCE:g} below resolution {max_resolution}"
    )


def project_onto_input_mode(result: SchmidtResult, n: int, signal: SampledSignal) -> complex:
    """Coefficient <phi_n, signal>; transmitted amplitude in pair n is s_n times this.

    An n outside 0 .. len(result.input_modes) - 1 raises ``ValueError``.
    """
    if not (0 <= n < len(result.input_modes)):
        raise ValueError("mode index out of range")
    return inner_product(result.input_modes[n], signal)
