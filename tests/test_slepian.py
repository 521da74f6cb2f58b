"""Prolate spheroidal solvers and the rectangular filter family."""

import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tffilter.core import (
    ConvergenceError,
    Domain,
    ResolutionError,
    SampledAxis,
    StageOrder,
    inner_product,
)
from test_schmidt import _run_with_blas_threads
from tffilter import core, slepian
from tffilter.schmidt import decompose_filter
from tffilter.slepian import (
    BASIS_LIMIT,
    BETA_FLOOR,
    GROUND_C_RANGE,
    QUADRATURE_LIMIT,
    concentration_complement,
    full_line_gram,
    ground_concentration,
    ground_parameter,
    ground_range,
    interval_gram,
    pswf_solve_legendre,
    rectangular_filter_modes,
    rectangular_sif,
    slepian_filter_modes,
    slepian_singular_values,
    slepian_tradeoff,
)


class TestProfiles:
    def test_window_indicator_with_half_jump(self):
        window = rectangular_sif(1.0, 1.0).spectral
        cut = window.edge
        w = np.array([0.0, 0.5 * cut, cut, 1.5 * cut])
        vals = window(w)
        assert vals[0] == 1.0 and vals[1] == 1.0
        assert vals[2] == 0.5  # midpoint convention exactly at the edge
        assert vals[3] == 0.0

    def test_gate_indicator_with_half_jump(self):
        gate = rectangular_sif(1.0, 2.0).temporal
        tau = gate.edge
        assert tau == pytest.approx(1.0)
        t = np.array([0.0, tau, 2.0 * tau])
        vals = gate(t)
        assert vals[0] == 1.0 and vals[1] == 0.5 and vals[2] == 0.0

    def test_band_mass_is_bandwidth(self):
        window = rectangular_sif(0.8, 1.0).spectral
        # 2 * cutoff / (2 pi) = B
        assert window.edge == pytest.approx(np.pi * 0.8)

    def test_prolate_parameter(self):
        spec = rectangular_sif(0.8, 1.0)
        assert spec.c == pytest.approx(0.5 * np.pi * 0.8)
        assert spec.bt == pytest.approx(0.8)


# Concentrations beta_n >= BETA_FLOOR of the sinc kernel on [-1, 1]: eigenvalues of its
# 96-node Gauss-Legendre Nystrom matrix solved at 40 digits in mpmath (64 nodes agree to
# 1e-29 relative), rounded to double.
NYSTROM_40_DIGIT = {
    0.5: (
        0.30968956570927125, 0.008581073753444374, 3.9174534404483964e-05,
        7.211390996119441e-08, 7.271422846782925e-11, 4.6377758103785286e-14,
    ),
    3.0: (
        0.975828634809236, 0.7099632385447723, 0.20513867866257185,
        0.018203799540436223, 0.0007081470984153113, 1.655124445543318e-05,
        2.641016472767548e-07, 3.0737365334261373e-09, 2.7281307431914816e-11,
        1.9085689371109243e-13,
    ),
    10.0: (
        0.9999999559119194, 0.9999967707164678, 0.999892732990213,
        0.9979012409618996, 0.9744577819993403, 0.8251463486942227,
        0.4401501089708298, 0.11232481814937872, 0.014920174699645941,
        0.0013145889703452343, 8.821342985827328e-05, 4.766445440920645e-06,
        2.133962843471995e-07, 8.070716418893848e-09, 2.617018761944679e-10,
        7.363490255848598e-12, 1.8159383400444048e-13,
    ),
    15.0: (
        0.9999999999975078, 0.9999999997170188, 0.9999999848422486,
        0.9999994927579691, 0.9999881764410643, 0.9997978663399693,
        0.9974183368884346, 0.9759449188965188, 0.8537107711277411,
        0.5189911764810909, 0.16922485489702532, 0.030214721042816688,
        0.003636571208974147, 0.0003413059069842147, 2.6544165584290764e-05,
        1.7585578350863343e-06, 1.0092888045508692e-07, 5.0802488819527005e-09,
        2.2646215752731488e-10, 9.012493511226657e-12, 3.224072175470604e-13,
    ),
}


class TestLegendreSolver:
    def test_eigenvalues_in_unit_interval_descending(self):
        sol = pswf_solve_legendre(3.0, 8)
        b = sol.eigenvalues
        assert np.all((b >= 0) & (b <= 1))
        assert np.all(np.diff(b) < 0)

    def test_sum_rule(self):
        for c in (0.5, 1.25, 3.0, 5.0):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                sol = pswf_solve_legendre(c, 20)
            total = np.sum(sol.eigenvalues)
            assert total == pytest.approx(2.0 * c / np.pi, abs=1e-12)

    @pytest.mark.parametrize("c", sorted(NYSTROM_40_DIGIT))
    def test_concentrations_match_pinned_oracle(self, c):
        # c = 0.5 also holds the classical table value beta_0 = 0.3097
        ref = np.array(NYSTROM_40_DIGIT[c])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            sol = pswf_solve_legendre(c, 20)
        assert sol.resolvable_count == len(ref)
        err = np.abs(sol.eigenvalues[: len(ref)] - ref)
        assert np.max(err) <= 1e-14
        assert np.max(err / ref) <= 1e-12

    def test_tradeoff_builds_no_quadrature(self, monkeypatch):
        import tffilter.slepian as slepian

        built = []
        rule = slepian._legendre_rule
        monkeypatch.setattr(slepian, "_legendre_rule", lambda m: built.append(m) or rule(m))
        slepian_tradeoff(np.geomspace(1e-3, 17.0, 160) / (0.5 * np.pi))
        assert built == []
        # the rule is built once, when a mode is first extended off the interval
        sol = pswf_solve_legendre(2.0, 2)
        sol.evaluate(0, np.array([1.5]))
        sol.finite_transform(0, np.array([0.5]))
        assert built == [sol.quad_points]

    @pytest.mark.parametrize("c", [0.5, 3.0])
    def test_log_slope_matches_central_difference(self, c):
        sol = pswf_solve_legendre(c, 3)
        h = 1e-5
        lo = pswf_solve_legendre(c * np.exp(-h), 3).eigenvalues
        hi = pswf_solve_legendre(c * np.exp(h), 3).eigenvalues
        for n in range(4):
            slope = sol.log_slope(n)
            assert slope == pytest.approx((hi[n] - lo[n]) / (2.0 * h), rel=1e-8)
            # phi_n(1) read off the coefficients agrees with the series at x = 1
            edge = sol.evaluate(n, 1.0)
            assert slope == pytest.approx(2.0 * sol.eigenvalues[n] * edge**2, rel=1e-12)

    def test_evaluate_is_even_odd(self):
        sol = pswf_solve_legendre(2.0, 3)
        x = np.linspace(-1.0, 1.0, 101)
        even = sol.evaluate(0, x)
        odd = sol.evaluate(1, x)
        assert np.max(np.abs(even - even[::-1])) < 1e-12
        assert np.max(np.abs(odd + odd[::-1])) < 1e-12

    def test_evaluate_extends_off_interval(self):
        sol = pswf_solve_legendre(2.0, 2)
        out = sol.evaluate(0, np.array([1.5, 2.0]))
        assert np.all(np.isfinite(out))
        assert np.all(np.abs(out) < 1.0)

    def test_unresolvable_mode_raises_off_interval(self):
        # the extension beyond [-1, 1] divides by beta_n; starved modes refuse
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            sol = pswf_solve_legendre(0.5, 12)
        bad = sol.resolvable_count
        with pytest.raises(ValueError):
            sol.evaluate(bad, np.array([1.5]))
        # inside the interval the Legendre series still stands
        assert np.isfinite(sol.evaluate(bad, np.array([0.2]))[0])

    def test_truncation_warning(self):
        with pytest.warns(UserWarning):
            pswf_solve_legendre(0.5, 12)

    def test_warning_with_no_resolvable_concentration(self):
        # no concentration is above the floor: there is no last resolvable index to name
        with pytest.warns(UserWarning, match="^every concentration from index 0 on is below 1e-14"):
            sol = pswf_solve_legendre(1e-20, 0)
        assert sol.resolvable_count == 0

    @pytest.mark.parametrize("c", [1e-3, 0.5, 3.0, 6.3, 17.0])
    @pytest.mark.parametrize("n_max", [0, 5, 20])
    def test_eigenpairs_have_backward_stable_residuals(self, c, n_max):
        # every pair the solver keeps satisfies ||T v - lambda v|| <= 8 eps ||T||
        # on the parity block it came from, sized as pswf_solve_legendre sizes it
        from tffilter.slepian import (
            _basis_size,
            _legendre_blocks,
            _lowest_eigenpairs,
            _tridiagonal,
        )

        diag, off = _legendre_blocks(c, _basis_size(c, n_max))
        for parity, want in ((0, (n_max + 2) // 2), (1, (n_max + 1) // 2)):
            if want == 0:
                continue
            d = diag[parity::2]
            e = off[parity::2][: len(d) - 1]
            vals, vecs = _lowest_eigenpairs(d, e, want)
            t = _tridiagonal(d, e)
            assert vals.shape == (want,) and np.all(np.diff(vals) > 0)
            assert np.allclose(vecs.T @ vecs, np.eye(want), rtol=0, atol=1e-14)
            residual = np.linalg.norm(t @ vecs - vecs * vals, axis=0)
            assert np.max(residual) <= 8.0 * np.finfo(float).eps * np.linalg.norm(t, 2)

    @pytest.mark.parametrize("c", [1e-3, 0.5, 3.0, 6.3, 17.0])
    @pytest.mark.parametrize("n_max", [0, 5, 20])
    def test_direct_lapack_matches_eigh_tridiagonal(self, c, n_max):
        # the one dense LAPACK syevd call agrees with SciPy's tridiagonal dstebz + dstein:
        # eigenvalues to 8 eps ||T||, eigenvectors (up to sign) to 8 eps ||T|| / gap
        import scipy.linalg

        from tffilter.slepian import _basis_size, _legendre_blocks, _lowest_eigenpairs

        diag, off = _legendre_blocks(c, _basis_size(c, n_max))
        for parity, want in ((0, (n_max + 2) // 2), (1, (n_max + 1) // 2)):
            if want == 0:
                continue
            d = diag[parity::2]
            e = off[parity::2][: len(d) - 1]
            ref_vals, ref_vecs = scipy.linalg.eigh_tridiagonal(
                d, e, select="i", select_range=(0, want - 1)
            )
            vals, vecs = _lowest_eigenpairs(d, e, want)
            spectrum = scipy.linalg.eigvalsh_tridiagonal(d, e)
            scale = 8.0 * np.finfo(float).eps * np.max(np.abs(spectrum))
            assert vals.shape == ref_vals.shape and vecs.shape == ref_vecs.shape
            assert np.max(np.abs(vals - ref_vals)) <= scale
            for j in range(want):
                gap = np.min(np.abs(np.delete(spectrum, j) - spectrum[j]))
                sign = np.sign(vecs[:, j] @ ref_vecs[:, j])
                assert np.linalg.norm(sign * vecs[:, j] - ref_vecs[:, j]) <= scale / gap

    @pytest.mark.parametrize("c", [1e-6, 1e-3, 0.5, 3.0, 17.0, 80.0, 300.0, 1000.0])
    @pytest.mark.parametrize("n_max", [0, 20, 60])
    def test_one_basis_captures_the_modes_in_sturm_liouville_order(self, c, n_max):
        # what the one-pass solver relies on: the basis _basis_size gives captures
        # modes 0 .. n_max, and the parity blocks' eigenvalues interleave strictly,
        # chi_even[k] < chi_odd[k] < chi_even[k + 1], so mode n is pair n // 2 of its block
        from tffilter.slepian import (
            _basis_captured,
            _basis_size,
            _legendre_blocks,
            _lowest_eigenpairs,
        )

        diag, off = _legendre_blocks(c, _basis_size(c, n_max))
        (even, even_vecs), (odd, odd_vecs) = (
            _lowest_eigenpairs(diag[p::2], off[p::2], n_max + 1) for p in (0, 1)
        )
        coeffs = np.zeros((n_max + 1, len(diag)))
        coeffs[0::2, 0::2] = even_vecs[:, : (n_max + 2) // 2].T
        coeffs[1::2, 1::2] = odd_vecs[:, : (n_max + 1) // 2].T
        assert _basis_captured(coeffs)
        assert np.all(even < odd) and np.all(odd[:-1] < even[1:])

    def test_lapack_failure_is_a_convergence_error(self, monkeypatch):
        def fail(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", fail)
        with pytest.raises(ConvergenceError, match="tridiagonal eigensolve failed"):
            pswf_solve_legendre(3.0, 2)
        with pytest.raises(ConvergenceError, match="tridiagonal eigensolve failed"):
            concentration_complement(8.0)

    def test_rejects_out_of_range_order(self):
        with pytest.raises(ResolutionError):
            pswf_solve_legendre(1.0, 61)
        with pytest.raises(ValueError):
            pswf_solve_legendre(-1.0, 4)


# 1 - beta_0 at 40 digits, rounded to double: the largest eigenvalue of the even-parity
# block of the same 96-node Gauss-Legendre Nystrom matrix (48 positive nodes, kernel
# K(x, y) + K(x, -y)), solved in mpmath at mp.dps = 40.  128 nodes agree to 5e-27 relative.
COMPLEMENT_40_DIGIT = {
    6.0: 9.811737841282259e-05,
    10.0: 4.408808063162299e-08,
    15.0: 2.492226437664143e-12,
    17.0: 4.877714082596029e-14,
}


class TestGroundConcentration:
    @pytest.mark.parametrize("c", sorted(COMPLEMENT_40_DIGIT))
    def test_complement_matches_pinned_oracle(self, c):
        ref = COMPLEMENT_40_DIGIT[c]
        bound = 1e-9 if c <= 15.0 else 1e-8
        assert abs(concentration_complement(c) - ref) <= bound * ref
        assert 1.0 - ground_concentration(c) == pytest.approx(ref, rel=bound)

    @pytest.mark.parametrize("span", [(5.5, 5.7), (5.9, 6.1), (16.9, 17.0)])
    def test_curve_never_decreases(self, span):
        # across the switch at c = 5.6, and at the clamp, where a step of c moves
        # 1 - beta_0 by a fifth of an ulp of beta_0
        beta = ground_concentration(np.linspace(*span, 400))
        assert np.all(np.diff(beta) >= 0.0)

    def test_complement_rule_is_numpys_laguerre_rule(self):
        # the module writes the rule out; it must be laggauss(12) bit for bit
        nodes, weights = np.polynomial.laguerre.laggauss(12)
        assert slepian._LAGUERRE_NODES.tobytes() == nodes.tobytes()
        assert slepian._LAGUERRE_WEIGHTS.tobytes() == weights.tobytes()

    def test_complement_is_smooth_in_c(self):
        # ln(1 - beta_0) is analytic in c, so a degree-10 fit over a short span
        # leaves only the complement's noise: the largest residual of these 120
        # points is 3.2e-13
        cs = np.linspace(8.0, 8.5, 120)
        logq = np.log([concentration_complement(c) for c in cs])
        x = cs - cs.mean()
        residual = logq - np.polyval(np.polyfit(x, logq, 10), x)
        assert np.max(np.abs(residual)) <= 1.5e-12

    def test_switch_is_continuous(self):
        from tffilter.slepian import _GROUND_SWITCH

        direct = pswf_solve_legendre(_GROUND_SWITCH, 0).eigenvalues[0]
        assert 5.5 < _GROUND_SWITCH < 5.7  # inside the first span above
        assert abs(direct - (1.0 - concentration_complement(_GROUND_SWITCH))) <= 4.0 * np.spacing(
            direct
        )

    def test_reads_the_solver_below_the_switch_and_rounds_to_one_above_21(self):
        from tffilter.slepian import _GROUND_ONE, _GROUND_SWITCH

        cs = np.array([1e-3, 0.5, 3.0, np.nextafter(_GROUND_SWITCH, 0.0)])
        direct = [pswf_solve_legendre(c, 0).eigenvalues[0] for c in cs]
        assert np.array_equal(ground_concentration(cs), direct)
        # 1 - beta_0 < 2^-54 from c = 21 up, so 1 - complement rounds to 1 there
        assert concentration_complement(_GROUND_ONE) < 2.0**-54
        assert ground_concentration(_GROUND_ONE) == 1.0
        assert ground_concentration(40.0) == 1.0
        assert isinstance(ground_concentration(8.0), float)
        assert ground_concentration(np.full((2, 3), 8.0)).shape == (2, 3)
        with pytest.raises(ValueError):
            concentration_complement(0.0)

    @settings(max_examples=60, deadline=None, database=None)
    @given(
        st.lists(
            st.one_of(
                st.floats(min_value=1e-3, max_value=8.0),
                # either side of a basis-size step (the size follows int(c)) and of the switch
                st.builds(
                    lambda k, eps: k + eps, st.integers(1, 7), st.floats(-1e-9, 1e-9)
                ),
                st.sampled_from([float(np.nextafter(5.6, 0.0)), 5.6]),
            ),
            min_size=1,
            max_size=24,
        )
    )
    def test_array_matches_one_point_calls_bit_for_bit(self, cs):
        # points sharing a basis size are solved as one stack; each value is still
        # the one its own solve gives
        cs = np.array(cs)
        batch = ground_concentration(cs)
        assert [float(b) for b in batch] == [ground_concentration(float(c)) for c in cs]

    @settings(max_examples=60, deadline=None, database=None)
    @given(
        st.lists(
            st.one_of(
                st.floats(min_value=0.5, max_value=25.0),
                # either side of a basis-size step of one node: the size of
                # node j follows int(c + 0.5 * L_j)
                st.builds(
                    lambda k, j, eps: k - 0.5 * float(slepian._LAGUERRE_NODES[j]) + eps,
                    st.integers(20, 43),
                    st.integers(0, 11),
                    st.floats(-1e-9, 1e-9),
                ),
            ),
            min_size=1,
            max_size=16,
        )
    )
    def test_complement_array_matches_one_point_calls_bit_for_bit(self, cs):
        # nodes sharing a basis size share one eigensolve, whichever points they
        # come from; each point's 12 terms are still summed on their own
        batch = concentration_complement(np.array(cs))
        assert batch.tolist() == [concentration_complement(c) for c in cs]

    def test_one_stacked_complement_solve_per_basis_size_per_step(self, monkeypatch):
        # the complement solves every node of every point in one _solve_stacked
        # call, one eigensolve per node basis size, and a Newton step of
        # ground_parameter makes at most two calls: its points, their complement
        events = []
        solve, eigenpairs = slepian._solve_stacked, slepian._lowest_eigenpairs
        complement = slepian.concentration_complement

        def spy_solve(cs, n_max):
            events.append(("solve", cs.copy()))
            return solve(cs, n_max)

        def spy_eigenpairs(d, e, want):
            events.append(("eigh", d.shape[-1]))
            return eigenpairs(d, e, want)

        monkeypatch.setattr(slepian, "_solve_stacked", spy_solve)
        monkeypatch.setattr(slepian, "_lowest_eigenpairs", spy_eigenpairs)
        cs = np.linspace(5.6, 17.0, 40)
        complement(cs)
        (first, nodes), *solves = events
        assert first == "solve" and {kind for kind, _ in solves} == {"eigh"}
        assert nodes.tobytes() == (cs[:, None] + 0.5 * slepian._LAGUERRE_NODES).tobytes()
        sizes = {slepian._basis_size(c, 0) for c in nodes.tolist()}
        # the even block of a size-term basis has (size + 1) // 2 terms
        assert sorted(m for _, m in solves) == sorted((size + 1) // 2 for size in sizes)

        events.clear()

        def spy_complement(c):
            events.append(("complement", c))
            return complement(c)

        monkeypatch.setattr(slepian, "concentration_complement", spy_complement)
        ground_parameter(1.0 - np.geomspace(2e-4, 1e-13, 50))
        calls = [ev for ev in events if ev[0] != "eigh"]
        kinds = "".join(kind[0] for kind, _ in calls)
        # each step solves its points, then complements them in one more solve
        assert re.fullmatch(r"(scs)+", kinds) and kinds.count("scs") > 1
        for i in range(1, len(calls), 3):
            (_, c), (_, nodes) = calls[i], calls[i + 1]
            assert nodes.tobytes() == (c[:, None] + 0.5 * slepian._LAGUERRE_NODES).tobytes()

    def test_inverse_returns_the_parameter_on_the_curve(self):
        cs = np.array([[1e-3, 0.3, 2.0], [5.0, 8.0, 17.0]])
        back = ground_parameter(ground_concentration(cs))
        assert back.shape == cs.shape
        # beta_0 flattens as it saturates, so only its own bits pin c there
        assert np.allclose(back[0], cs[0], rtol=1e-13, atol=0.0)
        assert np.allclose(back[1], cs[1], rtol=1e-9, atol=0.0)
        assert isinstance(ground_parameter(0.5), float)
        lo, hi = ground_range()
        assert (lo, hi) == tuple(ground_concentration(np.array(GROUND_C_RANGE)))
        # past the ends of the range the parameter stays at the clamp
        c_lo, c_hi = GROUND_C_RANGE
        assert ground_parameter(0.5 * lo) == pytest.approx(c_lo, rel=1e-15)
        assert ground_parameter(hi + 0.5 * (1.0 - hi)) == pytest.approx(c_hi, rel=1e-15)
        for eta in (0.0, 1.0, -0.5, np.nan):
            with pytest.raises(ValueError):
                ground_parameter(np.array([0.5, eta]))

    def test_tradeoff_reads_the_curve(self):
        bts = np.geomspace(0.01, 12.0, 9)
        eta, xi = slepian_tradeoff(bts)
        assert np.array_equal(eta, ground_concentration(0.5 * np.pi * bts))
        assert np.array_equal(xi, eta / bts)

    @pytest.mark.parametrize("bt", [np.nan, [0.5, np.nan]], ids=str)
    def test_tradeoff_refuses_a_nan_bt_as_not_positive(self, bt):
        with pytest.raises(ValueError, match="^all BT values must be positive$"):
            slepian_tradeoff(bt)


class TestCrossMethod:
    @pytest.mark.parametrize("c", [0.5, 1.25, 3.0, 5.0])
    def test_eigenvalue_agreement(self, c):
        # the differential-operator solver against the generic Gauss-Legendre
        # Nystrom decomposition of the brick-wall filter kernel
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            lg = pswf_solve_legendre(c, 8)
        res = decompose_filter(rectangular_sif(c / (0.5 * np.pi), 1.0), keep=9)
        k = lg.resolvable_count
        dev = np.max(np.abs(res.singular_values[:k] ** 2 - lg.eigenvalues[:k]))
        assert dev < 1e-12


class TestDoubleOrthogonality:
    @pytest.mark.parametrize("c", [0.5, 3.0, 10.0])
    def test_interval_gram_diagonal_beta(self, c):
        # quadrature of the mode samples against the quadrature-free concentrations
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            sol = pswf_solve_legendre(c, 8)
        g = interval_gram(sol)
        off = g - np.diag(np.diag(g))
        assert np.max(np.abs(off)) < 1e-12
        assert np.max(np.abs(np.diag(g) - sol.eigenvalues)) < 1e-12

    def test_full_line_gram_identity(self):
        # 1/sqrt(beta) blows up quadrature noise below ~1e-10, so check
        # identity only on the well-conditioned block
        sol = pswf_solve_legendre(3.0, 8)
        keep = np.flatnonzero(sol.eigenvalues >= 1e-10)
        g = full_line_gram(sol)[np.ix_(keep, keep)]
        assert np.max(np.abs(g - np.eye(len(keep)))) < 1e-8


class TestSingularValues:
    def test_square_of_concentration(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            sol = pswf_solve_legendre(1.25, 6)
            sv = slepian_singular_values(1.25, 6)
        assert np.max(np.abs(sv**2 - sol.eigenvalues[:6])) < 1e-14


class TestFilterModes:
    def test_slepian_input_mode_concentration(self):
        # full-line norm is 1 in the continuum but the extension tails decay
        # slowly, so the sampled span only loses mass; the energy landing
        # inside the gate interval is exactly beta_n
        sol = pswf_solve_legendre(3.0, 4)
        for n in range(3):
            phi, psi, sv = slepian_filter_modes(sol, n)
            assert phi.norm() <= 1.0 + 1e-9
            t = phi.axis.points
            inside = np.abs(t) <= 1.0
            interval_energy = np.trapezoid(
                np.abs(phi.values[inside]) ** 2, dx=phi.axis.step
            )
            assert interval_energy == pytest.approx(sol.eigenvalues[n], abs=2e-4)
            assert sv == pytest.approx(np.sqrt(sol.eigenvalues[n]), rel=1e-12)

    def test_starved_mode_is_a_resolution_error(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            sol = pswf_solve_legendre(0.05, 12)
        with pytest.raises(ResolutionError, match="mode unresolvable"):
            slepian_filter_modes(sol, 12)

    def test_starved_rectangular_mode_is_a_resolution_error(self):
        # beta_7 of c = 0.8 pi / 2 is 6.6e-15, below the floor
        spec = rectangular_sif(0.8, 1.0)
        tax = SampledAxis(-1.0, 2.0 / 512, 513, Domain.TIME)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with pytest.raises(ResolutionError, match="mode unresolvable"):
                rectangular_filter_modes(spec, tax, 8, "output")

    def test_output_mode_vanishes_off_gate(self):
        sol = pswf_solve_legendre(3.0, 2)
        _, psi, _ = slepian_filter_modes(sol, 0)
        t = psi.axis.points
        outside = np.abs(t) > 1.0 + psi.axis.step
        assert np.max(np.abs(psi.values[outside])) == 0.0

    def test_rectangular_modes_respect_domain(self):
        spec = rectangular_sif(0.8, 1.0)  # FREQUENCY_FIRST
        tax = SampledAxis(-2.0, 4.0 / 512, 513, Domain.TIME)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with pytest.raises(Exception):
                # input side of FREQUENCY_FIRST lives on a frequency axis
                rectangular_filter_modes(spec, tax, 2, "input")

    def test_rectangular_output_modes_orthogonal_on_gate(self):
        spec = rectangular_sif(0.8, 1.0)
        tau = spec.tau_half
        step = 2.5 * tau / 512
        tax = SampledAxis(-1.25 * tau - 0.5 * step, step, 514, Domain.TIME)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            modes = rectangular_filter_modes(spec, tax, 3, "output")
        g01 = inner_product(modes[0], modes[1])
        assert abs(g01) < 1e-6
        assert modes[0].norm() == pytest.approx(1.0, rel=2e-3)


class TestTradeoff:
    def test_bt_identity(self):
        for bt in (0.2, 0.8, 2.0):
            eta, xi = slepian_tradeoff(bt)
            assert eta / xi == pytest.approx(bt, rel=1e-10)

    @settings(max_examples=60, deadline=None, database=None)
    @given(st.floats(min_value=0.01, max_value=20.0))
    def test_eta_is_xi_times_bt(self, bt):
        eta, xi = slepian_tradeoff(bt)
        assert abs(xi * bt - eta) <= 1e-12

    def test_eta_is_beta0(self):
        eta, _ = slepian_tradeoff(1.0 / np.pi)  # c = 0.5
        assert eta == pytest.approx(0.3097, abs=5e-5)

    def test_beats_gaussian_everywhere(self):
        from tffilter.gaussian import gaussian_tradeoff

        bts = np.geomspace(0.05, 5.0, 25)
        es, xs = slepian_tradeoff(bts)
        eg, xg = gaussian_tradeoff(bts)
        # at matched BT the prolate family transmits more of the target mode
        assert np.all(es >= eg - 1e-12)

    def test_array_shape(self):
        bts = np.linspace(0.1, 2.0, 7)
        eta, xi = slepian_tradeoff(bts)
        assert eta.shape == bts.shape and xi.shape == bts.shape


class TestValidation:
    def test_rejects_nonpositive_shape(self):
        with pytest.raises(ValueError):
            rectangular_sif(-1.0, 1.0)
        with pytest.raises(ValueError):
            rectangular_sif(1.0, 0.0)

    def test_beta_floor_constant(self):
        assert BETA_FLOOR == 1e-14

    def test_basis_above_the_limit_is_refused_before_it_is_built(self, monkeypatch):
        import tffilter.slepian as slepian

        def refuse(size):
            raise AssertionError("the basis was built")

        monkeypatch.setattr(slepian, "_legendre_tables", refuse)
        # int(c) + 24 terms for the ground mode, and for each node of the complement
        with pytest.raises(ResolutionError, match=f"{BASIS_LIMIT}-term limit"):
            pswf_solve_legendre(BASIS_LIMIT - 23.0, 0)
        with pytest.raises(ResolutionError, match=f"{BASIS_LIMIT}-term limit"):
            concentration_complement(1.6e5)

    @pytest.mark.parametrize("c", [1e19, 1e300, np.inf])
    def test_complement_past_the_float_basis_is_a_typed_refusal(self, monkeypatch, c):
        # a c whose nodes need a basis beyond any int the solver can build is
        # refused, scalar or in an array, with no cast warning and no table built
        def refuse(size):
            raise AssertionError("the basis was built")

        monkeypatch.setattr(slepian, "_legendre_tables", refuse)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for arg in (c, np.array([c]), np.full((2, 3), c)):
                with pytest.raises(ResolutionError, match=f"{BASIS_LIMIT}-term limit"):
                    concentration_complement(arg)

    def test_quadrature_above_the_limit_is_refused_before_it_is_built(self, monkeypatch):
        import tffilter.slepian as slepian

        def refuse(count):
            raise AssertionError("the quadrature was built")

        assert pswf_solve_legendre(500.0, 0).quad_points == QUADRATURE_LIMIT
        monkeypatch.setattr(slepian, "_legendre_rule", refuse)
        sol = pswf_solve_legendre(501.0, 0)
        assert sol.evaluate(0, 0.5) == pytest.approx(sol.evaluate(0, -0.5))  # on the interval
        with pytest.raises(ResolutionError, match=f"{QUADRATURE_LIMIT}-node limit"):
            sol.evaluate(0, 1.5)
        with pytest.raises(ResolutionError, match=f"{QUADRATURE_LIMIT}-node limit"):
            sol.finite_transform(0, 0.5)

    @pytest.mark.parametrize("n", [-1, 5], ids=["minus-one", "count"])
    @pytest.mark.parametrize(
        "read",
        [
            lambda sol, n: sol.evaluate(n, 0.3),
            lambda sol, n: sol.evaluate(n, 1.5),
            lambda sol, n: sol.finite_transform(n, 0.3),
            lambda sol, n: sol.log_slope(n),
            slepian_filter_modes,
        ],
        ids=["evaluate", "evaluate-off-interval", "finite_transform", "log_slope", "slepian_filter_modes"],
    )
    def test_mode_index_outside_the_solution_is_refused(self, read, n):
        # n = -1 would read the last mode and n = count would raise a bare IndexError
        sol = pswf_solve_legendre(3.0, 4)
        assert sol.n_modes == 5
        with pytest.raises(ValueError, match="^mode index out of range$"):
            read(sol, n)

    def test_time_first_order(self):
        spec = rectangular_sif(0.8, 1.0, order=StageOrder.TIME_FIRST)
        assert spec.order is StageOrder.TIME_FIRST


# every prolate path: the curve across the clamp and past it, its complement,
# its inverse, and one solve's values and modes on the interval
PROLATE_DIGEST_SCRIPT = """
import hashlib
import numpy as np
from tffilter import slepian
cs = np.geomspace(1e-3, 20.0, 400)
sol = slepian.pswf_solve_legendre(12.0, 20)
x = np.linspace(-1.0, 1.0, 101)
digest = hashlib.sha256()
for values in (
    slepian.ground_concentration(cs),
    slepian.concentration_complement(cs[cs > 4.0]),
    slepian.ground_parameter(np.linspace(0.005, 0.995, 199)),
    sol.eigenvalues,
    *(sol.evaluate(n, x) for n in range(21)),
):
    digest.update(np.asarray(values).tobytes())
print(digest.hexdigest())
"""


class TestBlasThreads:
    def test_one_and_two_blas_threads_give_equal_prolate_values(self):
        one = _run_with_blas_threads(PROLATE_DIGEST_SCRIPT, 1)
        two = _run_with_blas_threads(PROLATE_DIGEST_SCRIPT, 2)
        assert one == two

    def test_prolate_solves_see_one_blas_thread(self, monkeypatch):
        # a stand-in setter for a two-thread pool: every tridiagonal eigh runs
        # at one, and the pool reads two after; no dense solve is made
        threads = [2]

        def setter(count):
            previous, threads[0] = threads[0], count
            return previous

        seen = []

        def spy(solver):
            return lambda *args: seen.append((solver.__name__, threads[0])) or solver(*args)

        def refuse_solve(*args):
            raise AssertionError("a dense solve was made")

        monkeypatch.setattr(core, "_blas_thread_setter", lambda: setter)
        monkeypatch.setattr(np.linalg, "eigh", spy(np.linalg.eigh))
        monkeypatch.setattr(np.linalg, "solve", refuse_solve)
        pswf_solve_legendre(12.0, 16)
        concentration_complement(17.0)
        assert {name for name, _ in seen} == {"eigh"}
        assert {count for _, count in seen} == {1}
        assert threads == [2]
