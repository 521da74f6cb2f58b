"""Schmidt decomposition of discretized filter kernels."""

import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import tffilter.core
import tffilter.schmidt
from tffilter.core import (
    ConvergenceError,
    Domain,
    DomainMismatchError,
    OperatorMatrix,
    SampledAxis,
    Sif,
    StageOrder,
    build_operator,
    parity_blocks,
    recommended_axes,
)
from tffilter.gaussian import (
    GaussianProfile,
    gaussian_sif,
    gaussian_singular_values,
)
from tffilter.schmidt import (
    decompose_filter,
    inner_product,
    project_onto_input_mode,
    schmidt_decompose,
)
from tffilter.metrics import Ladder, bt_from_profiles
from tffilter.slepian import (
    RectangularProfile,
    pswf_solve_legendre,
    rectangular_filter_modes,
    rectangular_sif,
)


@pytest.fixture(scope="module")
def gaussian_result():
    return decompose_filter(gaussian_sif(0.5, 1.0), keep=12)


class TestSchmidtDecompose:
    def test_singulars_descending_nonnegative(self, gaussian_result):
        sv = gaussian_result.singular_values
        assert np.all(sv >= 0)
        assert np.all(np.diff(sv) <= 1e-15)

    def test_result_is_a_read_only_ladder(self, gaussian_result):
        assert isinstance(gaussian_result, Ladder)
        assert not gaussian_result.singular_values.flags.writeable

    def test_input_modes_orthonormal(self, gaussian_result):
        modes = gaussian_result.input_modes
        for i in range(len(modes)):
            for j in range(i, len(modes)):
                g = inner_product(modes[i], modes[j])
                assert abs(g - (1.0 if i == j else 0.0)) < 1e-9

    def test_output_modes_orthonormal(self, gaussian_result):
        modes = gaussian_result.output_modes
        for i in range(len(modes)):
            for j in range(i, len(modes)):
                g = inner_product(modes[i], modes[j])
                assert abs(g - (1.0 if i == j else 0.0)) < 1e-9

    def test_total_power_is_frobenius_mass(self, gaussian_result):
        # sum of ALL lambda_n^2, not just the kept ones
        assert gaussian_result.total_power == pytest.approx(0.5, rel=1e-6)
        kept = np.sum(gaussian_result.singular_values**2)
        assert kept <= gaussian_result.total_power + 1e-12

    def test_matches_analytic_singulars(self, gaussian_result):
        sv = gaussian_singular_values(0.5, 12)
        assert np.max(np.abs(gaussian_result.singular_values - sv)) < 1e-10

    def test_grid_report_converged(self, gaussian_result):
        rep = gaussian_result.grid_report
        assert rep.leading_rel_change <= rep.ladder_rel_change < rep.tolerance

    def test_refines_until_every_kept_value_settles(self):
        # from N=64, s_0 of the BT=2 ladder has settled to 7e-14 at N=91
        # while s_9 still drifts by 3.4e-7 s_0; the loop must go on to N=128
        res = decompose_filter(gaussian_sif(2.0, 1.0), keep=10)
        rep = res.grid_report
        assert rep.resolutions == (64, 91, 128)
        assert rep.ladder_rel_change < rep.tolerance
        sv = gaussian_singular_values(2.0, 10)
        assert np.max(np.abs(res.singular_values - sv)) < 1e-12

    def test_keep_threshold_is_relative(self):
        # keep=None retains modes with s_n >= 1e-6 s_0; the BT=0.5 ladder decays
        # by u = sqrt(2) - 1 per index, u^15 = 1.8e-6 and u^16 = 7.6e-7, so it
        # keeps exactly sixteen.  A float, threshold or count, is refused
        res = decompose_filter(gaussian_sif(0.5, 1.0), keep=None)
        assert len(res.singular_values) == 16
        ratio = res.singular_values[1] / res.singular_values[0]
        assert ratio == pytest.approx(np.sqrt(2.0) - 1.0, rel=1e-10)
        op = build_operator(gaussian_sif(0.5, 1.0), *recommended_axes(gaussian_sif(0.5, 1.0), 64))
        for keep in (0.25, 1.0, np.float64(2.0), True):
            with pytest.raises(TypeError, match="int count or None"):
                decompose_filter(gaussian_sif(0.5, 1.0), keep=keep)
            with pytest.raises(TypeError, match="int count or None"):
                schmidt_decompose(op, keep=keep)

    @pytest.mark.parametrize(
        "keep, error, message",
        [
            (0, ValueError, "keep count must be >= 1"),
            (0.5, TypeError, "int count or None, got float"),
            (True, TypeError, "int count or None, got bool"),
            (np.float64(2.0), TypeError, "int count or None, got float64"),
        ],
        ids=["zero", "half", "true", "float64"],
    )
    def test_keep_is_refused_before_any_level(self, monkeypatch, keep, error, message):
        # a bad keep is refused as max_resolution is, before any kernel is
        # assembled or factored, not at the first convergence check
        def refuse(*args):
            raise AssertionError("a grid level was assembled")

        monkeypatch.setattr(tffilter.schmidt, "parity_blocks", refuse)
        monkeypatch.setattr(tffilter.schmidt, "_svd", refuse)
        with pytest.raises(error, match=message):
            decompose_filter(gaussian_sif(2.0, 1.0), keep=keep)
        op = build_operator(gaussian_sif(0.5, 1.0), *recommended_axes(gaussian_sif(0.5, 1.0), 64))
        with pytest.raises(error, match=message):
            schmidt_decompose(op, keep=keep)


class TestFixedGrid:
    def test_rectangular_fixed_grid_total_power(self):
        ff = rectangular_sif(0.8, 1.0)
        rows, cols = recommended_axes(ff, resolution=512)
        res = schmidt_decompose(build_operator(ff, rows, cols), keep=16)
        assert res.total_power == pytest.approx(0.8, rel=1e-12)

    def test_single_grid_cannot_converge(self):
        # convergence needs two grids to compare; one level must say so
        with pytest.raises(ConvergenceError):
            decompose_filter(rectangular_sif(0.8, 1.0), keep=8, max_resolution=64)

    def test_mode_axes_follow_operator(self):
        ff = rectangular_sif(0.8, 1.0)
        rows, cols = recommended_axes(ff, resolution=256)
        res = schmidt_decompose(build_operator(ff, rows, cols), keep=4)
        for m in res.input_modes:
            assert m.axis.close_to(cols)
        for m in res.output_modes:
            assert m.axis.close_to(rows)


def _prolate(spec, count):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # concentrations below the floor are cut by the caller
        return pswf_solve_legendre(spec.c, count - 1)


@pytest.mark.parametrize("order", list(StageOrder), ids=lambda o: o.name.lower())
class TestRectangularLadder:
    """Gauss-Legendre axes make the brick-wall pair converge like the smooth family."""

    @pytest.mark.parametrize("bt", [0.1, 0.8, 2.0, 4.0, 10.0])
    def test_rectangular_converges_to_prolate_ladder(self, bt, order):
        spec = rectangular_sif(bt, 1.0, order)
        res = decompose_filter(spec, keep=None)
        sol = _prolate(spec, res.kept)
        k = min(res.kept, sol.resolvable_count)
        assert np.max(np.abs(res.singular_values[:k] ** 2 - sol.eigenvalues[:k])) <= 1e-12
        assert abs(res.total_power - bt) / bt <= 1e-13

    @pytest.mark.parametrize("bt", [0.8, 2.0, 4.0])
    def test_modes_match_closed_form(self, bt, order):
        # the closed-form prolate modes sampled on the decomposition's own
        # axes; the two phase conventions differ by i^n, so compare magnitudes
        spec = rectangular_sif(bt, 1.0, order)
        res = decompose_filter(spec, keep=None)
        rep = res.grid_report
        sv = res.singular_values
        count = int(np.sum(sv >= 1e-3 * sv[0]))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # concentrations below the floor are cut by the caller
            outs = rectangular_filter_modes(spec, rep.final_rows, count, "output")
            ins = rectangular_filter_modes(spec, rep.final_cols, count, "input")
        for n in range(count):
            assert abs(abs(inner_product(outs[n], res.output_modes[n])) - 1.0) < 1e-11, n
            assert abs(abs(inner_product(ins[n], res.input_modes[n])) - 1.0) < 1e-11, n


def reconstruct_kernel(result) -> np.ndarray:
    """Weighted matrix sum_n s_n (sqrt(w) psi_n)(sqrt(w) phi_n)^dagger of the kept pairs,
    comparable entry by entry with the decomposed ``OperatorMatrix``."""
    sr = np.sqrt(result.output_modes[0].axis.quadrature_weights())
    sc = np.sqrt(result.input_modes[0].axis.quadrature_weights())
    psi = np.stack([sr * m.values for m in result.output_modes], axis=1)
    phi = np.stack([sc * m.values for m in result.input_modes], axis=1)
    return (psi * result.singular_values) @ phi.conj().T


class TestKernelAlgebra:
    def test_reconstruct_kernel_matches_operator(self):
        spec = gaussian_sif(0.5, 1.0)
        rows, cols = recommended_axes(spec, resolution=256)
        op = build_operator(spec, rows, cols)
        res = schmidt_decompose(op, keep=24)
        err = np.linalg.norm(op.entries - reconstruct_kernel(res)) / np.linalg.norm(op.entries)
        assert err < 1e-8

    @pytest.mark.parametrize(
        "spec",
        [gaussian_sif(2.0, 1.0), rectangular_sif(4.0, 1.0), gaussian_sif(0.5, 1.0, StageOrder.TIME_FIRST)],
        ids=["gaussian-bt2", "rectangular-bt4", "gaussian-bt0.5-time_first"],
    )
    def test_truncation_residual_is_the_reconstruction_distance(self, spec):
        # Eckart-Young: the kept pairs are the best rank-k approximation of the
        # final grid's weighted matrix, at Frobenius distance sqrt(sum of the
        # dropped s_n^2), which truncation_residual() forms as
        # sqrt(total_power - sum of the kept s_n^2); that difference loses about
        # eps * total_power, so the square root is good to eps * total / residual
        res = decompose_filter(spec, keep=6)
        rep = res.grid_report
        op = build_operator(spec, rep.final_rows, rep.final_cols)
        dist = np.linalg.norm(op.entries - reconstruct_kernel(res))
        residual = res.truncation_residual()
        assert residual > 1e-3  # far above the cancellation floor
        tol = 8.0 * np.finfo(float).eps * res.total_power / residual
        assert abs(dist - residual) <= tol

    def test_a_zero_matrix_has_no_ladder(self):
        # every singular value is 0, so the total is too: the Ladder refuses it
        rows, cols = recommended_axes(gaussian_sif(0.5, 1.0), resolution=64)
        op = OperatorMatrix(rows, cols, np.zeros((rows.count, cols.count)), None)
        with pytest.raises(ValueError, match="^total squared singular value mass must be positive$"):
            schmidt_decompose(op, None)

    def test_projection_coefficients(self, gaussian_result):
        # feeding mode n back in: the only surviving coefficient is n's
        sig = gaussian_result.input_modes[2]
        for n in range(5):
            coeff = project_onto_input_mode(gaussian_result, n, sig)
            assert abs(coeff - (1.0 if n == 2 else 0.0)) < 1e-8

    @pytest.mark.parametrize("n", [-1, 12], ids=["minus-one", "count"])
    def test_projection_refuses_a_mode_index_outside_the_result(self, gaussian_result, n):
        # n = -1 would project onto the last mode and n = count would raise a bare IndexError
        assert len(gaussian_result.input_modes) == 12
        with pytest.raises(ValueError, match="^mode index out of range$"):
            project_onto_input_mode(gaussian_result, n, gaussian_result.input_modes[3])

    def test_filter_action_through_modes(self):
        # energy of filtered mode n equals lambda_n^2; decompose on an
        # FFT-centred time grid and its reciprocal frequency grid so
        # apply_filter accepts the input modes directly
        from tffilter.core import apply_filter, centered_axis, frequency_axis_for

        spec = gaussian_sif(0.5, 1.0)
        ax = centered_axis(24.0 / 1024, 1024, Domain.TIME)
        res = schmidt_decompose(build_operator(spec, ax, frequency_axis_for(ax)), keep=6)
        for n in (0, 1, 3):
            out = apply_filter(spec, res.input_modes[n])
            lam = res.singular_values[n]
            assert out.energy() == pytest.approx(lam**2, rel=1e-12)


class TestRealFactorization:
    """A real kernel is factored in real arithmetic, with the same Schmidt data."""

    # grids on which the exact argmax of an odd mode falls on different
    # mirror samples in real and complex arithmetic
    CASES = [(bt, res, order) for bt, res in ((2.0, 512), (5.0, 256)) for order in StageOrder]

    @pytest.fixture(
        scope="class", params=CASES, ids=lambda c: f"bt{c[0]:g}-n{c[1]}-{c[2].name.lower()}"
    )
    def pair(self, request):
        # a Gaussian Sif's real time x time kernel, Q(t) R(t - t') for
        # FREQUENCY_FIRST and R(t - t') Q(t') for TIME_FIRST, with the window's
        # impulse response R(t) = sqrt(2) B exp(-2 pi B^2 t^2); the axis spans
        # the gate's 1e-15 radius plus that of R
        bt, res, order = request.param
        spec = gaussian_sif(bt, 1.0, order)
        b = spec.spectral.width
        half = spec.temporal.support(1e-15) + np.sqrt(np.log(1e15) / (2.0 * np.pi)) / b
        rows = cols = SampledAxis(-half, 2.0 * half / (res - 1), res, Domain.TIME)
        t = rows.points
        resp = np.sqrt(2.0) * b * np.exp(-2.0 * np.pi * b**2 * np.subtract.outer(t, t) ** 2)
        q = spec.temporal(t)
        kernel = q[:, None] * resp if order is StageOrder.FREQUENCY_FIRST else resp * q[None, :]
        sw = np.sqrt(rows.quadrature_weights())
        op = OperatorMatrix(rows, cols, sw[:, None] * kernel * sw[None, :], None)
        cplx = OperatorMatrix(rows, cols, op.entries.astype(complex), None)
        return op, schmidt_decompose(op, keep=10), schmidt_decompose(cplx, keep=10)

    def test_operator_is_real(self, pair):
        op, _, _ = pair
        assert op.entries.dtype == np.float64

    def test_singular_values_match_complex_path(self, pair):
        _, real, cplx = pair
        assert np.max(np.abs(real.singular_values - cplx.singular_values)) < 1e-13

    def test_modes_match_complex_path_odd_included(self, pair):
        # odd modes have mirror samples of equal magnitude; the pivot rule
        # must not let rounding pick a different sign on either path
        _, real, cplx = pair
        for n in range(real.kept):
            for a, b in ((real.input_modes[n], cplx.input_modes[n]),
                         (real.output_modes[n], cplx.output_modes[n])):
                assert np.max(np.abs(a.values - b.values)) < 1e-12, n

    def test_total_power_is_frobenius_sq(self, pair):
        op, real, _ = pair
        assert real.total_power == pytest.approx(op.frobenius_sq(), rel=1e-13)

    def test_pivot_sample_real_positive(self, pair):
        _, real, _ = pair
        for mode in real.input_modes:
            mags = np.abs(mode.values)
            first = np.argmax(mags >= (1.0 - 1e-9) * mags.max())
            assert mode.values[first].real > 0
            assert mode.values[first].imag == 0.0


def _mirror_rel(mode, parity):
    """max |mode(-x) - parity * mode(x)| relative to max |mode|."""
    v = mode.values
    return np.max(np.abs(v[::-1] - parity * v)) / np.max(np.abs(v))


def _mode_rel(a, b):
    return np.max(np.abs(a.values - b.values)) / np.max(np.abs(b.values))


class TestParitySplit:
    """Even Sifs factor as two real half-size blocks with the full SVD's Schmidt data."""

    CASES = [
        (make, bt, keep, order)
        for make, bt, keep in (
            (gaussian_sif, 0.5, 10),
            (gaussian_sif, 5.0, 10),
            (rectangular_sif, 0.8, None),
            (rectangular_sif, 4.0, None),
        )
        for order in StageOrder
    ]

    @pytest.fixture(
        scope="class",
        params=CASES,
        ids=lambda c: f"{c[0].__name__.split('_')[0]}-bt{c[1]:g}-{c[3].name.lower()}",
    )
    def pair(self, request):
        # the split result against one SVD of the whole matrix on its own final
        # axes, with one more value so every kept mode has two neighbours
        make, bt, keep, order = request.param
        spec = make(bt, 1.0, order)
        split = decompose_filter(spec, keep=keep)
        rep = split.grid_report
        op = build_operator(spec, rep.final_rows, rep.final_cols)
        return split, schmidt_decompose(op, keep=split.kept + 1), op

    def test_values_match_full_svd(self, pair):
        split, full, _ = pair
        assert np.max(np.abs(split.singular_values - full.singular_values[: split.kept])) <= 1e-14

    def test_total_power_matches_full_svd(self, pair):
        split, full, _ = pair
        assert split.total_power == pytest.approx(full.total_power, rel=1e-13)

    def test_modes_match_full_svd_where_gaps_are_wide(self, pair):
        # a mode is only as well defined as the gap to its neighbouring values
        split, full, _ = pair
        sv = full.singular_values
        checked = 0
        for n in range(split.kept):
            gap = min(abs(sv[n] - sv[m]) for m in (n - 1, n + 1) if m >= 0)
            if gap <= 1e-3 * sv[0]:
                continue
            checked += 1
            assert _mode_rel(split.input_modes[n], full.input_modes[n]) <= 1e-10, n
            assert _mode_rel(split.output_modes[n], full.output_modes[n]) <= 1e-10, n
        assert checked >= 4

    def test_modes_have_their_parity(self, pair):
        split, _, _ = pair
        assert len(split.parities) == split.kept
        for n, parity in enumerate(split.parities):
            assert _mirror_rel(split.input_modes[n], parity) <= 1e-12, n
            assert _mirror_rel(split.output_modes[n], parity) <= 1e-12, n

    def test_edge_ring_ratio_is_the_full_grids(self, pair):
        split, _, op = pair
        assert split.grid_report.edge_ring_ratio == pytest.approx(op.edge_ring_ratio, rel=1e-12)
        assert split.grid_report.edge_ring_ratio <= 1e-12


@pytest.mark.parametrize("order", list(StageOrder), ids=lambda o: o.name.lower())
def test_gaussian_parities_alternate(order):
    res = decompose_filter(gaussian_sif(2.0, 1.0, order), keep=10)
    assert res.parities == (1, -1) * 5


@pytest.mark.parametrize("make", [gaussian_sif, rectangular_sif], ids=["gaussian", "rectangular"])
def test_split_runs_only_real_half_size_svds(make, monkeypatch):
    # no complex LAPACK factorization and no full N x N one: each grid level
    # factors exactly two real blocks, the even one ((N+1)//2 square, with the
    # centre sample of an odd N such as 91) and the odd one (N//2 square).
    # Both families are self-dual, so every block goes to the eigensolver,
    # the first level's for its values only.
    calls = []
    for name in ("_svd", "_eigh", "_svd_values", "_eigh_values"):

        def recording(a, name=name, factor=getattr(tffilter.schmidt, name)):
            calls.append((name, a.shape, a.dtype))
            return factor(a)

        monkeypatch.setattr(tffilter.schmidt, name, recording)
    res = decompose_filter(make(2.0, 1.0), keep=10)
    real = np.dtype(np.float64)
    levels = res.grid_report.resolutions
    assert 91 in levels
    assert res.grid_report.factorizations == ("eigh",) * len(levels)
    assert calls == [
        ("_eigh" if k else "_eigh_values", shape, real)
        for k, n in enumerate(levels)
        for shape in (((n + 1) // 2, (n + 1) // 2), (n // 2, n // 2))
    ]


@settings(max_examples=24, deadline=None, database=None)
@given(
    st.floats(min_value=np.log(0.05), max_value=np.log(100.0)).map(np.exp),
    st.sampled_from([gaussian_sif, rectangular_sif]),
    st.sampled_from(list(StageOrder)),
    st.sampled_from([64, 91, 128]),
)
@example(100.0, gaussian_sif, StageOrder.FREQUENCY_FIRST, 128)  # asymmetry 2e-13 of max|A|
@example(100.0, rectangular_sif, StageOrder.TIME_FIRST, 91)
def test_self_dual_blocks_take_the_eigensolver(bt, make, order, resolution):
    # both families are self-dual, so their blocks are symmetric up to the
    # rounding of cos(x_r x_c), which grows with BT; the eigen route is taken
    # at every BT, and its values are the SVD's of the same blocks.  Both
    # solvers are backward stable, each value off by a multiple of eps s_0
    # (s_0 the blocks' largest value): over 24,000 seeded draws from these
    # ranges the two routes differed by at most 0.60 N eps s_0 at N samples
    # per axis, 6.7e-14 at the most
    spec = make(bt, 1.0, order)
    rows, cols = recommended_axes(spec, resolution)
    sv, _, _, route = tffilter.schmidt._factor_split(spec, rows, cols, True)
    assert route == "eigh"
    blocks = parity_blocks(spec, rows, cols)
    svd = np.concatenate([np.linalg.svd(b, compute_uv=False) for b in (blocks.even, blocks.odd)])
    svd = np.sort(svd)[::-1]
    assert np.max(np.abs(sv - svd)) <= resolution * np.finfo(float).eps * svd[0]


def test_eigh_gives_an_svd_of_a_symmetric_matrix():
    # negative eigenvalues included: s = |lambda|, u = sign(lambda) v
    a = np.random.default_rng(2).standard_normal((40, 40))
    a = a + a.T
    u, s, vh = tffilter.schmidt._eigh(a)
    assert np.all(s >= 0)
    assert np.max(np.abs(np.sort(s)[::-1] - np.linalg.svd(a, compute_uv=False))) <= 1e-13
    assert np.max(np.abs((u * s) @ vh - a)) <= 1e-13
    for q in (u, vh):
        assert np.max(np.abs(q.T @ q - np.eye(40))) <= 1e-13


@pytest.mark.parametrize("order", list(StageOrder), ids=lambda o: o.name.lower())
def test_mixed_even_pair_keeps_the_svd(order, monkeypatch):
    # a Gaussian window with a brick-wall gate is even but not self-dual: its
    # blocks are far from symmetric, so they go to the SVD, which matches one
    # SVD of the whole matrix on the same axes
    def no_eigh(a):
        raise AssertionError("an asymmetric block reached the eigensolver")

    monkeypatch.setattr(tffilter.schmidt, "_eigh", no_eigh)
    spec = Sif(GaussianProfile(2.0, Domain.ANGULAR_FREQUENCY), RectangularProfile(1.0, Domain.TIME), order)
    res = decompose_filter(spec, keep=10)
    rep = res.grid_report
    assert rep.factorizations == ("svd",) * len(rep.resolutions)
    full = schmidt_decompose(build_operator(spec, rep.final_rows, rep.final_cols), keep=11)
    assert np.max(np.abs(res.singular_values - full.singular_values[:10])) <= 1e-14
    sv = full.singular_values
    for n in range(10):
        if min(abs(sv[n] - sv[m]) for m in (n - 1, n + 1) if m >= 0) > 1e-3 * sv[0]:
            assert _mode_rel(res.input_modes[n], full.input_modes[n]) <= 1e-10, n
            assert _mode_rel(res.output_modes[n], full.output_modes[n]) <= 1e-10, n


@pytest.mark.parametrize("make", [gaussian_sif, rectangular_sif], ids=["gaussian", "rectangular"])
@pytest.mark.parametrize("order", list(StageOrder), ids=lambda o: o.name.lower())
def test_odd_axes_put_the_centre_in_the_even_block(make, order):
    # 257 samples: the centre sample joins the even block; the two blocks
    # still hold every singular value of the whole matrix
    spec = make(2.0, 1.0, order)
    rows, cols = recommended_axes(spec, 257)
    blocks = parity_blocks(spec, rows, cols)
    assert blocks.even.shape == (129, 129) and blocks.odd.shape == (128, 128)
    split = np.concatenate([np.linalg.svd(b, compute_uv=False) for b in (blocks.even, blocks.odd)])
    split = np.sort(split)[::-1]
    full = np.linalg.svd(build_operator(spec, rows, cols).entries, compute_uv=False)
    assert np.max(np.abs(split - full)) <= 1e-14


@pytest.mark.parametrize("make", [gaussian_sif, rectangular_sif], ids=["gaussian", "rectangular"])
def test_odd_axes_rebuild_modes_with_the_centre_sample(make):
    # the centre-sample rebuild on one odd level, against the full SVD of
    # the same grid
    spec = make(2.0, 1.0)
    rows, cols = recommended_axes(spec, 257)
    sv, _, modes, _ = tffilter.schmidt._factor_split(spec, rows, cols, True)
    u, vh, parities = modes(8)
    op = build_operator(spec, rows, cols)
    full = schmidt_decompose(op, keep=8)
    split = tffilter.schmidt._result(rows, cols, sv, 8, None, u, vh, parities)
    assert np.max(np.abs(split.singular_values - full.singular_values)) <= 1e-14
    for n in range(8):
        assert _mode_rel(split.input_modes[n], full.input_modes[n]) <= 1e-10, n
        assert _mode_rel(split.output_modes[n], full.output_modes[n]) <= 1e-10, n


@pytest.mark.parametrize("order", list(StageOrder), ids=lambda o: o.name.lower())
def test_odd_resolution_converges_to_the_same_ladder(order):
    # the half-octave levels 91 and 181 are odd axes, whose centre sample the
    # even parity block carries at half weight; BT 3 starts on one
    for bt, levels in ((0.5, (64, 91)), (3.0, (91, 128, 181))):
        res = decompose_filter(gaussian_sif(bt, 1.0, order), keep=10)
        assert res.grid_report.resolutions == levels
        assert res.grid_report.final_rows.count == res.grid_report.final_cols.count == levels[-1]
        assert np.max(np.abs(res.singular_values - gaussian_singular_values(bt, 10))) <= 1e-12
        assert res.parities == (1, -1) * 5


def test_parity_blocks_refuse_asymmetric_axes():
    spec = gaussian_sif(2.0, 1.0)
    rows, cols = (
        SampledAxis(ax.start + 0.5 * ax.step, ax.step, ax.count, ax.domain)
        for ax in recommended_axes(spec, 64)
    )
    with pytest.raises(ValueError, match="symmetric"):
        parity_blocks(spec, rows, cols)


def test_parity_blocks_refuse_a_square_representation():
    # the blocks split the mixed kernel's Fourier phase; a same-domain pair
    # would otherwise be read as a mixed one
    spec = gaussian_sif(2.0, 1.0)
    for domain in Domain:
        ax = SampledAxis(-8.0, 16.0 / 63, 64, domain)
        with pytest.raises(DomainMismatchError, match="mixed"):
            parity_blocks(spec, ax, ax)


class _ShiftedGaussianGate(GaussianProfile):
    """Gaussian gate centred at t0, Q(t - t0)."""

    even = False

    def __init__(self, width: float, t0: float) -> None:
        super().__init__(width, Domain.TIME)
        self.t0 = t0

    def __call__(self, t):
        return super().__call__(np.asarray(t, dtype=float) - self.t0)

    def support(self, tol):
        return super().support(tol) + abs(self.t0)


@pytest.mark.parametrize("order", list(StageOrder), ids=lambda o: o.name.lower())
def test_asymmetric_profile_keeps_the_full_path(order):
    # a shift conjugates the kernel by diagonal phases, so the ladder is still Mehler's
    spec = Sif(GaussianProfile(0.5, Domain.ANGULAR_FREQUENCY), _ShiftedGaussianGate(1.0, 0.3), order)
    res = decompose_filter(spec, keep=10)
    assert res.parities is None
    assert res.grid_report.edge_ring_ratio is not None
    assert np.max(np.abs(res.singular_values - gaussian_singular_values(0.5, 10))) <= 1e-12
    with pytest.raises(ValueError, match="even"):
        parity_blocks(spec, *recommended_axes(spec, 64))


@settings(max_examples=12, deadline=None, database=None)
@given(st.floats(min_value=0.1, max_value=10.0), st.sampled_from(list(StageOrder)))
def test_gaussian_ladder_properties(bt, order):
    # Mehler ladder, sum rule sum s^2 = BT and order-swap invariance
    spec = gaussian_sif(bt, 1.0, order)
    res = decompose_filter(spec, keep=10)
    other = next(o for o in StageOrder if o is not order)
    swapped = decompose_filter(gaussian_sif(bt, 1.0, other), keep=10)
    mehler = gaussian_singular_values(bt, 10)
    for r in (res, swapped):
        assert np.max(np.abs(r.singular_values - mehler)) <= 1e-12
        assert abs(r.total_power - bt) / bt <= 1e-12
    assert np.max(np.abs(res.singular_values - swapped.singular_values)) <= 1e-12


@pytest.mark.parametrize("b, t", [(2.0, 1.0), (0.5, 1.0)])
def test_mixed_families_decompose(b, t):
    # a Gaussian window with a brick-wall gate, and the reverse, in both orders
    ladders = {}
    for window, gate in (
        (GaussianProfile(b, Domain.ANGULAR_FREQUENCY), RectangularProfile(t, Domain.TIME)),
        (RectangularProfile(b, Domain.ANGULAR_FREQUENCY), GaussianProfile(t, Domain.TIME)),
    ):
        for order in StageOrder:
            spec = Sif(window, gate, order)
            res = decompose_filter(spec, keep=10)
            bt = bt_from_profiles(spec)
            assert abs(res.total_power - bt) / bt <= 1e-12
            ladders[window.compact, order] = res.singular_values
    for compact in (False, True):
        ff, tf = (ladders[compact, order] for order in StageOrder)
        assert np.max(np.abs(ff - tf)) <= 1e-12
    # duality: w = (2 pi B / T) t' and t = (T / 2 pi B) w' carry the kernel
    # Q(t) exp(-i w t) R~(w) of a Gaussian window with a brick-wall gate onto
    # the transpose of the brick-wall window with a Gaussian gate, since
    # w t = t' w', and dt dw / 2 pi = dt' dw' / 2 pi (unit Jacobian)
    gauss_window = ladders[False, StageOrder.FREQUENCY_FIRST]
    assert np.max(np.abs(gauss_window - ladders[True, StageOrder.FREQUENCY_FIRST])) <= 1e-12


# Every ladder from its start level, with the grids it takes: a change that
# quietly adds a level fails here.  Gaussian BT 5 and 10 start at 0.4 of their
# Shannon numbers, 152 and 305 samples.  The shifted gate is not even, so it
# covers the full complex factorization.
DEFAULT_START_CASES = [
    *(("gaussian", bt, 10, (64, 91)) for bt in (0.01, 0.05, 0.5)),
    ("gaussian", 2.0, 10, (64, 91, 128)),
    ("gaussian", 5.0, 10, (128, 181, 256)),
    ("gaussian", 10.0, 10, (256, 362)),
    *(("rectangular", bt, None, (64, 91)) for bt in (0.8, 4.0)),
    ("shifted-gaussian", 0.5, 10, (64, 91)),
]


def _default_start_spec(family, bt, order):
    if family == "gaussian":
        return gaussian_sif(bt, 1.0, order)
    if family == "rectangular":
        return rectangular_sif(bt, 1.0, order)
    return Sif(GaussianProfile(bt, Domain.ANGULAR_FREQUENCY), _ShiftedGaussianGate(1.0, 0.3), order)


@pytest.mark.parametrize("order", list(StageOrder), ids=lambda o: o.name.lower())
@pytest.mark.parametrize(
    "family, bt, keep, grids",
    DEFAULT_START_CASES,
    ids=[f"{family}-bt{bt:g}" for family, bt, _, _ in DEFAULT_START_CASES],
)
def test_default_start_settles_on_pinned_grids(family, bt, keep, grids, order):
    spec = _default_start_spec(family, bt, order)
    res = decompose_filter(spec, keep=keep)
    assert res.grid_report.resolutions == grids
    assert (res.parities is None) == (family == "shifted-gaussian")
    route = "svd" if family == "shifted-gaussian" else "eigh"
    assert res.grid_report.factorizations == (route,) * len(grids)
    assert grids[0] == _predicted_start(spec, 4096)
    if family == "rectangular":
        sol = _prolate(spec, res.kept)
        k = min(res.kept, sol.resolvable_count)
        oracle = np.sqrt(sol.eigenvalues[:k])
    else:
        k = keep
        oracle = gaussian_singular_values(bt, keep)
    assert np.max(np.abs(res.singular_values[:k] - oracle)) <= 1e-12
    assert abs(res.total_power - bt) / bt <= 1e-13


# The half-octave levels round(64 * 2**(k/2)) up to the default max_resolution.
DEFAULT_LEVELS = (64, 91, 128, 181, 256, 362, 512, 724, 1024, 1448, 2048, 2896, 4096)


def _predicted_start(spec, max_resolution):
    """The largest level within 0.4 of the Shannon number 2 t_h w_h / pi of the
    axes' 1e-13 supports, 64 at least, with the next level under max_resolution."""
    shannon = 2.0 * spec.temporal.support(1e-13) * spec.spectral.support(1e-13) / np.pi
    fits = [n for n, m in zip(DEFAULT_LEVELS, DEFAULT_LEVELS[1:]) if n <= 0.4 * shannon and m <= max_resolution]
    return max([64, *fits])


def _assert_default_levels(rep, spec):
    # consecutive levels from the predicted start
    n = len(rep.resolutions)
    first = DEFAULT_LEVELS.index(_predicted_start(spec, 4096))
    assert n >= 2 and rep.resolutions == DEFAULT_LEVELS[first:first + n]


@settings(max_examples=30, deadline=None, database=None)
@given(
    st.floats(min_value=np.log(0.01), max_value=np.log(20.0)).map(np.exp),
    st.sampled_from(list(StageOrder)),
)
def test_half_octave_levels_do_not_stop_early_gaussian(bt, order):
    # closer levels make a smaller drift between them; the ladder they stop
    # on must still be Mehler's, with every value kept
    spec = gaussian_sif(bt, 1.0, order)
    res = decompose_filter(spec, keep=10)
    _assert_default_levels(res.grid_report, spec)
    assert np.max(np.abs(res.singular_values - gaussian_singular_values(bt, 10))) <= 1e-12
    assert abs(res.total_power - bt) / bt <= 1e-13


@settings(max_examples=8, deadline=None, database=None)
@given(st.floats(min_value=0.1, max_value=10.0), st.sampled_from(list(StageOrder)))
def test_half_octave_levels_do_not_stop_early_rectangular(bt, order):
    spec = rectangular_sif(bt, 1.0, order)
    res = decompose_filter(spec, keep=None)
    _assert_default_levels(res.grid_report, spec)
    sol = _prolate(spec, res.kept)
    k = min(res.kept, sol.resolvable_count)
    assert np.max(np.abs(res.singular_values[:k] - np.sqrt(sol.eigenvalues[:k]))) <= 1e-12
    assert abs(res.total_power - bt) / bt <= 1e-13


# Sifs whose ladders the start rule may shorten: both families, the two mixed
# pairs (their blocks take the SVD) and the shifted gate (one complex SVD of
# the whole matrix per level), with the keep and max_resolution they run at
START_RULE_CASES = [
    *(("gaussian", bt, 10, 4096) for bt in (0.5, 2.0, 3.0, 5.0, 10.0, 20.0)),
    *(("rectangular", bt, None, 1024) for bt in (0.8, 4.0, 30.0)),
    *(("gaussian-window", bt, 10, 4096) for bt in (2.0, 10.0)),
    *(("rectangular-window", bt, 10, 4096) for bt in (2.0, 10.0)),
    ("shifted-gaussian", 0.5, 10, 4096),
    ("shifted-gaussian", 5.0, 10, 1024),
]


def _start_rule_spec(family, bt, order):
    if family == "gaussian-window":
        return Sif(GaussianProfile(bt, Domain.ANGULAR_FREQUENCY), RectangularProfile(1.0, Domain.TIME), order)
    if family == "rectangular-window":
        return Sif(RectangularProfile(bt, Domain.ANGULAR_FREQUENCY), GaussianProfile(1.0, Domain.TIME), order)
    return _default_start_spec(family, bt, order)


def _decompose_recording_warnings(spec, keep, max_resolution):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        res = decompose_filter(spec, keep=keep, max_resolution=max_resolution)
    return res, [(w.category, str(w.message)) for w in caught]


@pytest.mark.parametrize("order", list(StageOrder), ids=lambda o: o.name.lower())
@pytest.mark.parametrize(
    "family, bt, keep, max_resolution",
    START_RULE_CASES,
    ids=[f"{family}-bt{bt:g}" for family, bt, _, _ in START_RULE_CASES],
)
def test_start_rule_keeps_the_ladder_of_a_start_at_64(family, bt, keep, max_resolution, order, monkeypatch):
    # starting at a level below the last two only drops levels that were
    # compared and left behind: the last two levels, and all they return, keep
    # their bits.  The drift against the level before the last may move by a
    # few eps, as that level can now come from a values-only factorization
    spec = _start_rule_spec(family, bt, order)
    res, caught = _decompose_recording_warnings(spec, keep, max_resolution)
    monkeypatch.setattr(tffilter.schmidt, "_START_FRACTION", 0.0)
    ref, ref_caught = _decompose_recording_warnings(spec, keep, max_resolution)
    rep, ref_rep = res.grid_report, ref.grid_report
    assert ref_rep.resolutions[0] == 64
    assert len(rep.resolutions) >= 2 and rep.resolutions == ref_rep.resolutions[-len(rep.resolutions):]
    assert rep.resolutions[0] == _predicted_start(spec, max_resolution)
    assert rep.factorizations == ref_rep.factorizations[-len(rep.resolutions):]
    assert caught == ref_caught
    assert np.array_equal(res.singular_values, ref.singular_values)
    assert res.total_power == ref.total_power
    assert rep.edge_ring_ratio == ref_rep.edge_ring_ratio
    assert res.parities == ref.parities
    assert rep.final_rows == ref_rep.final_rows and rep.final_cols == ref_rep.final_cols
    for got, want in zip(res.input_modes + res.output_modes, ref.input_modes + ref.output_modes):
        assert np.array_equal(got.values, want.values)
    drift = rep.resolutions[-2] * np.finfo(float).eps
    assert abs(rep.leading_rel_change - ref_rep.leading_rel_change) <= drift
    assert abs(rep.ladder_rel_change - ref_rep.ladder_rel_change) <= drift


@pytest.mark.parametrize(
    "family, bt, keep",
    [("gaussian", 10.0, 10), ("gaussian-window", 2.0, 10), ("shifted-gaussian", 5.0, 10)],
    ids=["eigh-split", "svd-split", "svd-full"],
)
def test_only_the_first_level_is_factored_for_values_alone(family, bt, keep, monkeypatch):
    # one level alone never converges, so the first one's vectors could never
    # be returned: it is factored for its values only, and every later level
    # with its vectors.  The values-only routes agree with the vector routes
    # to a few eps s_0, as the eigensolver and the SVD do
    spec = _start_rule_spec(family, bt, StageOrder.FREQUENCY_FIRST)
    levels, calls = [], []
    axes = tffilter.schmidt.recommended_axes

    def recording_axes(spec, resolution):
        levels.append(resolution)
        return axes(spec, resolution)

    monkeypatch.setattr(tffilter.schmidt, "recommended_axes", recording_axes)
    for name in ("_svd", "_eigh", "_svd_values", "_eigh_values"):

        def recording(a, name=name, factor=getattr(tffilter.schmidt, name)):
            calls.append((name, len(levels)))
            return factor(a)

        monkeypatch.setattr(tffilter.schmidt, name, recording)
    rep = decompose_filter(spec, keep=keep, max_resolution=1024).grid_report
    assert tuple(levels) == rep.resolutions and len(levels) >= 2
    route = rep.factorizations[0]
    per_level = 1 if family == "shifted-gaussian" else 2
    assert calls == [
        (f"_{route}" if k else f"_{route}_values", k + 1) for k in range(len(levels)) for _ in range(per_level)
    ]
    factor = tffilter.schmidt._factor_full if family == "shifted-gaussian" else tffilter.schmidt._factor_split
    rows, cols = axes(spec, levels[0])
    values, _, none, _ = factor(spec, rows, cols, False)
    assert none is None
    sv = factor(spec, rows, cols, True)[0]
    assert np.max(np.abs(values - sv)) <= levels[0] * np.finfo(float).eps * sv[0]


@pytest.mark.parametrize(
    "max_resolution, levels",
    [(64, (64,)), (91, (64, 91)), (300, (181, 256)), (362, (256, 362))],
    ids=["first-level-only", "first-two-levels", "below-the-start", "at-the-second-level"],
)
def test_max_resolution_below_the_start_clamps_to_two_levels(max_resolution, levels, monkeypatch):
    # Gaussian BT 10 would start at 256 and stop at 362.  A lower limit moves
    # the start down so that two levels still fit, and fails as a start at 64
    # does: with the same ConvergenceError, after the same last two levels
    spec = gaussian_sif(10.0, 1.0)
    seen = []
    axes = tffilter.schmidt.recommended_axes

    def recording_axes(spec, resolution):
        seen.append(resolution)
        return axes(spec, resolution)

    monkeypatch.setattr(tffilter.schmidt, "recommended_axes", recording_axes)
    outcomes = []
    for fraction in (tffilter.schmidt._START_FRACTION, 0.0):
        monkeypatch.setattr(tffilter.schmidt, "_START_FRACTION", fraction)
        seen.clear()
        try:
            res = decompose_filter(spec, keep=10, max_resolution=max_resolution)
        except ConvergenceError as err:
            outcomes.append((tuple(seen), str(err)))
        else:
            outcomes.append((tuple(seen), res.singular_values.tobytes()))
    (start_levels, got), (full_levels, want) = outcomes
    assert start_levels == levels
    assert full_levels[-len(levels):] == levels and full_levels[0] == 64
    assert got == want
    if max_resolution < 362:
        assert got == f"kept singular values did not stabilize to 1e-08 below resolution {max_resolution}"


def _refuse_grids(monkeypatch):
    def no_grid(*args):
        raise AssertionError("a grid was built")

    monkeypatch.setattr(tffilter.schmidt, "recommended_axes", no_grid)


LEVEL_ARGUMENT_CASES = [
    ("max_resolution", 1, ValueError),
    ("max_resolution", -4, ValueError),
    ("max_resolution", 4096.0, TypeError),
    ("max_resolution", False, TypeError),
]


@pytest.mark.parametrize(
    "name, value, error",
    LEVEL_ARGUMENT_CASES,
    ids=[f"{name}={value!r}" for name, value, _ in LEVEL_ARGUMENT_CASES],
)
def test_grid_sizes_are_checked_before_any_grid(name, value, error, monkeypatch):
    _refuse_grids(monkeypatch)
    with pytest.raises(error, match=f"^{name} "):
        decompose_filter(gaussian_sif(0.5, 1.0), keep=4, **{name: value})


def test_numpy_integer_grid_sizes_are_accepted():
    res = decompose_filter(gaussian_sif(0.5, 1.0), keep=4, max_resolution=np.int32(4096))
    assert res.grid_report.resolutions == (64, 91)
    assert all(type(n) is int for n in res.grid_report.resolutions)


@pytest.mark.parametrize(
    "max_resolution",
    [63, 65, 90],
    ids=["below-resolution", "between-the-first-two-levels", "just-below-level-91"],
)
def test_max_resolution_without_a_second_level_is_refused(max_resolution, monkeypatch):
    # below the first level, 64, no grid is built; between it and the second,
    # 91, one level has nothing to be compared with and could only end in
    # ConvergenceError, as max_resolution=64 still does
    _refuse_grids(monkeypatch)
    with pytest.raises(ValueError, match="^max_resolution "):
        decompose_filter(gaussian_sif(0.5, 1.0), keep=4, max_resolution=max_resolution)


def test_max_resolution_at_the_second_level_converges():
    res = decompose_filter(gaussian_sif(0.5, 1.0), keep=4, max_resolution=91)
    assert res.grid_report.resolutions == (64, 91)


def _run_with_blas_threads(script: str, threads: int) -> str:
    """Stdout of a fresh process with ``threads`` OpenBLAS threads and no other pool setting."""
    pools = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
    env = {k: v for k, v in os.environ.items() if k not in pools}
    src = str(Path(tffilter.schmidt.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    env["OPENBLAS_NUM_THREADS"] = str(threads)
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


# Gaussian BT 20 ends on 724-point grids, whose 362-row blocks take the
# eigensolver; the brick wall settles on (64, 91); a time-shifted Gaussian gate
# at BT 10 is not even, so each of its levels up to 512 samples is one complex
# SVD of the whole matrix, whose modes would move in their last bits on a
# second BLAS thread.
LADDER_DIGEST_SCRIPT = """
import hashlib, sys
import numpy as np
import tffilter as tf

class ShiftedGate(tf.GaussianProfile):
    even = False

    def __init__(self, width, t0):
        super().__init__(width, tf.Domain.TIME)
        self.t0 = t0

    def __call__(self, t):
        return super().__call__(np.asarray(t, dtype=float) - self.t0)

    def support(self, tol):
        return super().support(tol) + abs(self.t0)

shifted = tf.Sif(tf.GaussianProfile(10.0, tf.Domain.ANGULAR_FREQUENCY), ShiftedGate(1.0, 0.3))
digest = hashlib.sha256()
for res in (
    tf.decompose_filter(tf.gaussian_sif(20, 1), keep=10),
    tf.decompose_filter(tf.rectangular_sif(4, 1), keep=None, max_resolution=1024),
    tf.decompose_filter(shifted, keep=10, max_resolution=1024),
):
    digest.update(res.singular_values.tobytes())
    for mode in res.output_modes + res.input_modes:
        digest.update(mode.values.tobytes())
print(digest.hexdigest(), sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def _no_library(path):
    raise OSError(f"{path}: cannot open shared object file")


class TestSvdThreads:
    def test_one_and_two_blas_threads_give_equal_ladders(self):
        one = _run_with_blas_threads(LADDER_DIGEST_SCRIPT, 1)
        two = _run_with_blas_threads(LADDER_DIGEST_SCRIPT, 2)
        assert one == two
        assert one.endswith(" []")  # NumPy alone: no scipy module loaded

    def test_caller_thread_count_is_restored(self):
        # every SVD and eigensolve sees one thread, whatever its size, and the
        # caller reads its two again afterwards
        script = """
import numpy as np
from tffilter import core, schmidt
setter = core._blas_thread_setter()
def count():
    n = setter(1)
    setter(n)
    return n
seen = {"svd": [], "eigh": []}
def spy(name):
    factor = getattr(np.linalg, name)
    def counted(a, **kwargs):
        seen[name].append(count())
        return factor(a, **kwargs)
    return counted
if setter is not None:
    np.linalg.svd, np.linalg.eigh = spy("svd"), spy("eigh")
    before = count()
    rng = np.random.default_rng(0)
    for n in (32, 361, 362):
        schmidt._svd(rng.standard_normal((n + 5, n)))
        a = rng.standard_normal((n, n))
        schmidt._eigh(a + a.T)
    print(before, seen["svd"], seen["eigh"], count())
"""
        out = _run_with_blas_threads(script, 2)
        if not out:
            pytest.skip("NumPy's BLAS exports no openblas_set_num_threads_local")
        assert out == "2 [1, 1, 1] [1, 1, 1] 2"

    @pytest.mark.parametrize(
        "name, spec",
        [
            ("svd", Sif(GaussianProfile(2.0, Domain.ANGULAR_FREQUENCY), RectangularProfile(1.0, Domain.TIME))),
            ("eigh", gaussian_sif(2.0, 1.0)),
        ],
        ids=["svd-mixed-pair", "eigh-gaussian"],
    )
    def test_lapack_failure_is_a_convergence_error(self, name, spec, monkeypatch):
        # a LAPACK failure in a ladder's factorization is typed, as the
        # prolate solver's is, and leaves the thread lock free for the next call
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("did not converge")

        factor = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name, fail)
        with pytest.raises(ConvergenceError, match="failed: did not converge") as info:
            decompose_filter(spec, keep=10)
        assert isinstance(info.value.__cause__, np.linalg.LinAlgError)
        monkeypatch.setattr(np.linalg, name, factor)
        assert decompose_filter(spec, keep=10).grid_report.factorizations[-1] == name

    def test_numpy_openblas_setter_is_found(self):
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        version = blas.get("version", "").split(".")[:3]
        if "openblas" not in blas.get("name", "") or not all(v.isdigit() for v in version):
            pytest.skip("NumPy is not built on a versioned OpenBLAS")
        if tuple(map(int, version)) < (0, 3, 27):
            pytest.skip("openblas_set_num_threads_local needs OpenBLAS 0.3.27")
        assert tffilter.core._blas_thread_setter() is not None

    @pytest.mark.parametrize("cdll", [_no_library, lambda path: object()], ids=["no-library", "no-symbol"])
    def test_lookup_failure_gives_no_setter(self, cdll, monkeypatch):
        import ctypes

        monkeypatch.setattr(ctypes, "CDLL", cdll)
        assert tffilter.core._blas_thread_setter.__wrapped__() is None

    def test_svd_without_a_setter_factors_the_same(self, monkeypatch):
        spec = gaussian_sif(2.0, 1.0)
        ref = decompose_filter(spec, keep=10)
        monkeypatch.setattr(tffilter.core, "_blas_thread_setter", lambda: None)
        res = decompose_filter(spec, keep=10)
        assert np.array_equal(res.singular_values, ref.singular_values)
        for got, want in zip(res.input_modes + res.output_modes, ref.input_modes + ref.output_modes):
            assert np.array_equal(got.values, want.values)
        a = np.random.default_rng(1).standard_normal((40, 30))
        u, s, vh = tffilter.schmidt._svd(a)
        assert np.max(np.abs((u * s) @ vh - a)) <= 1e-13
