"""Entanglement-distribution key rates behind a filtered noisy channel."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tffilter
import tffilter.qkd
from tffilter.qkd import (
    ETA_GRID,
    QBER_THRESHOLD,
    QPG_REFERENCE_POINTS,
    FilterCharacteristic,
    QkdScenario,
    binary_entropy,
    normalized_key_rate,
    optimize_over_efficiency,
    qber,
)
from tffilter.slepian import ground_concentration, pswf_solve_legendre, slepian_tradeoff


def _beta0(c: float) -> float:
    return ground_concentration(c)


def _bisect_c(etas: np.ndarray) -> np.ndarray:
    """Reference inversion of beta_0(c) = eta for every eta: bisection over the
    prolate clamp [1e-3, 17] until each midpoint stops moving.  All etas step in
    lockstep; ground_concentration gives each point of an array the bits of a
    call on that point alone, so each one takes the path of its own bisection."""
    lo = np.full(len(etas), 1e-3)
    hi = np.full(len(etas), 17.0)
    while True:
        mid = 0.5 * (lo + hi)
        live = (mid != lo) & (mid != hi)
        if not live.any():
            return mid
        below = _beta0(mid) < etas
        lo = np.where(live & below, mid, lo)
        hi = np.where(live & ~below, mid, hi)


def _run_python(script: str) -> str:
    src = str(Path(tffilter.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


class TestBinaryEntropy:
    def test_endpoints_and_peak(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0
        assert binary_entropy(0.5) == pytest.approx(1.0, rel=1e-14)

    def test_symmetry(self):
        for p in (0.1, 0.3, 0.45):
            assert binary_entropy(p) == pytest.approx(binary_entropy(1.0 - p), rel=1e-13)

    def test_array_input(self):
        h = binary_entropy(np.array([0.0, 0.25, 0.5]))
        assert h.shape == (3,)
        assert h[1] == pytest.approx(0.8112781244591328, rel=1e-12)

    def test_domain_check(self):
        with pytest.raises(ValueError):
            binary_entropy(-0.01)
        with pytest.raises(ValueError):
            binary_entropy(1.01)


class TestQber:
    def test_noiseless_is_zero(self):
        assert qber(0.0, 0.5) == 0.0

    def test_constructed_quarter(self):
        # n_y/xi = sqrt(2) - 1 makes the mixing weight exactly 1/2
        xi = 0.7
        n_y = (np.sqrt(2.0) - 1.0) * xi
        assert qber(n_y, xi) == pytest.approx(0.25, rel=1e-12)

    def test_monotone_in_noise(self):
        xs = np.linspace(0.0, 2.0, 50)
        qs = qber(xs, 0.6)
        assert np.all(np.diff(qs) > 0)

    def test_monotone_in_discrimination(self):
        xis = np.linspace(0.05, 1.0, 50)
        qs = qber(0.3, xis)
        assert np.all(np.diff(qs) < 0)

    def test_approaches_half(self):
        assert qber(1e6, 0.5) == pytest.approx(0.5, abs=1e-5)

    def test_domain_check(self):
        with pytest.raises(ValueError):
            qber(-0.1, 0.5)
        with pytest.raises(ValueError):
            qber(0.1, 0.0)
        with pytest.raises(ValueError):
            qber(0.1, 1.0001)


class TestKeyRate:
    def test_noiseless_is_eta_squared(self):
        for eta in (0.3, 0.9, 0.9999):
            assert normalized_key_rate(eta, 0.5, 0.0) == pytest.approx(eta**2, rel=1e-14)

    def test_qpg_reference_point(self):
        assert normalized_key_rate(0.99, 0.98, 0.0) == pytest.approx(0.9801, rel=1e-12)

    def test_threshold_location(self):
        # rate vanishes exactly where 1 - 2 H(QBER) crosses zero
        assert QBER_THRESHOLD == pytest.approx(0.110028, abs=1e-5)
        xi = 0.9
        # invert QBER(n_y) = q* for n_y
        weight = 1.0 - 2.0 * QBER_THRESHOLD
        n_star = xi * (1.0 / np.sqrt(weight) - 1.0)
        assert normalized_key_rate(0.9, xi, n_star * 1.0001) == 0.0
        assert normalized_key_rate(0.9, xi, n_star * 0.9999) > 0.0

    def test_threshold_is_the_bisected_entropy_root(self):
        # the literal is the root of 1 - 2 H(q) on (0, 1/2) that bisection
        # reaches when its midpoint stops moving, bit for bit
        lo, hi = 1e-9, 0.5 - 1e-12
        while (mid := 0.5 * (lo + hi)) not in (lo, hi):
            if 1.0 - 2.0 * binary_entropy(mid) > 0.0:
                lo = mid
            else:
                hi = mid
        assert mid == QBER_THRESHOLD

    def test_threshold_is_entropy_root(self):
        assert abs(1.0 - 2.0 * binary_entropy(QBER_THRESHOLD)) < 1e-14
        assert 1.0 - 2.0 * binary_entropy(np.nextafter(QBER_THRESHOLD, 0.0)) > 0.0
        assert 1.0 - 2.0 * binary_entropy(np.nextafter(QBER_THRESHOLD, 1.0)) <= 0.0

    def test_import_leaves_scipy_optimize_unloaded(self):
        # no scipy module at all: the package runs on NumPy alone
        script = (
            "import sys, tffilter, tffilter.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        )
        assert _run_python(script) == "[]"

    def test_gaussian_commands_leave_scipy_linalg_unloaded(self, tmp_path):
        # every README command, the prolate ones included, runs on NumPy alone
        qkd = ["qkd", "--filter", "all", "--ny-min", "1e-4", "--ny-max", "1", "--points", "50"]
        commands = [
            ["decompose", "--filter", "gaussian", "--bt", "0.5", "--n-modes", "10"],
            ["decompose", "--filter", "slepian", "--bt", "4", "--n-modes", "10"],
            ["snr", "--filter", "gaussian", "--bt", "0.5", "--trials", "200", "--seed", "7"],
            ["tradeoff", "--filter", "gaussian", "--bt-min", "0.1", "--bt-max", "2",
             "--points", "5"],
            ["tradeoff", "--filter", "slepian", "--bt-min", "0.01", "--bt-max", "10",
             "--points", "80"],
            ["modes", "--filter", "gaussian", "--bt", "0.5", "--mode", "1"],
            ["modes", "--filter", "slepian", "--c", "3.0", "--mode", "0"],
            qkd,
            qkd + ["--optimize"],
        ]
        calls = "; ".join(
            f"assert main({argv + ['--out', str(tmp_path / f'out{i}')]!r}) == 0"
            for i, argv in enumerate(commands)
        )
        script = (
            f"import sys; from tffilter.cli import main; {calls}; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        )
        assert _run_python(script) == "[]"

    def test_slepian_curve_leaves_interpolate_and_optimize_unloaded(self):
        # the brick-wall curve inverts and optimizes by its own Newton and
        # golden-section steps, so no scipy module loads, interpolate and optimize included
        script = (
            "import sys, numpy as np; "
            "from tffilter.qkd import FilterCharacteristic, optimize_over_efficiency; "
            "fc = FilterCharacteristic.slepian(); "
            "fc.xi_of(np.array([0.3, 0.9])); "
            "optimize_over_efficiency(fc, np.array([1e-3, 0.05])); "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        )
        assert _run_python(script) == "[]"

    def test_rate_nonincreasing_in_noise(self):
        nys = np.geomspace(1e-4, 1.0, 60)
        rates = normalized_key_rate(0.8, 0.7, nys)
        assert np.all(np.diff(rates) <= 1e-15)

    @settings(max_examples=100, deadline=None, database=None)
    @given(
        st.floats(min_value=1e-6, max_value=1.0),
        st.floats(min_value=1e-6, max_value=1.0),
        st.floats(min_value=0.0, max_value=100.0),
        st.floats(min_value=0.0, max_value=100.0),
    )
    def test_more_noise_never_raises_the_rate(self, eta, xi, n1, n2):
        n1, n2 = sorted((n1, n2))
        assert normalized_key_rate(eta, xi, n1) >= normalized_key_rate(eta, xi, n2) - 1e-15

    @settings(max_examples=300, deadline=None, database=None)
    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=1e-6, max_value=1.0),
                st.floats(min_value=1e-6, max_value=1.0),
                st.floats(min_value=0.0, max_value=100.0),
            ),
            min_size=1,
            max_size=8,
        )
    )
    def test_scalar_call_equals_its_array_entry_bit_for_bit(self, triples):
        etas, xis, nys = (np.array(v) for v in zip(*triples))
        rates = normalized_key_rate(etas, xis, nys)
        qbers = qber(nys, xis)
        for i, (eta, xi, ny) in enumerate(triples):
            assert normalized_key_rate(eta, xi, ny) == rates[i]
            assert qber(ny, xi) == qbers[i]

    def test_array_broadcast(self):
        etas = np.array([0.2, 0.5, 0.9])
        rates = normalized_key_rate(etas, 0.5, 0.0)
        assert np.allclose(rates, etas**2)

    def test_rate_never_negative(self):
        nys = np.geomspace(1e-3, 10.0, 100)
        rates = normalized_key_rate(0.5, 0.3, nys)
        assert np.all(rates >= 0.0)

    @settings(max_examples=200, deadline=None, database=None)
    @given(
        st.floats(min_value=1e-300, max_value=1.0),
        st.floats(min_value=1e-300, max_value=1.0),
        st.floats(min_value=0.0, max_value=1e308),
    )
    def test_rate_is_zero_past_the_threshold_at_any_noise(self, eta, xi, n_y):
        # (1 + n_y/xi)^2 overflows from n_y ~ 1e154 xi on; the rate must still
        # read exactly 0 there (no inf * 0), with no RuntimeWarning
        rate = normalized_key_rate(eta, xi, n_y)
        bracket = 1.0 - 2.0 * binary_entropy(qber(n_y, xi))
        assert np.isfinite(rate) and rate >= 0.0
        if bracket <= 0.0:
            assert rate == 0.0
        else:
            # below the threshold the product is the one it always was
            e, inflation = np.asarray(eta), np.asarray(1.0 + n_y / xi)
            assert rate == e**2 * inflation**2 * bracket


class TestCharacteristics:
    def test_gaussian_curve_identity(self):
        fc = FilterCharacteristic.gaussian()
        etas = np.linspace(0.05, 0.95, 19)
        xis = fc.xi_of(etas)
        assert np.allclose(xis, 1.0 - etas**2, atol=1e-12)

    def test_gaussian_curve_is_one_minus_eta_squared_to_two_ulp(self):
        # over the whole t range, up to eta = 1 - 1e-9, where 1 - eta^2 in doubles was 5e-10 off
        mp = pytest.importorskip("mpmath")
        fc = FilterCharacteristic.gaussian()
        lo, hi = fc.t_range
        etas = np.concatenate([np.linspace(lo, hi, 2001), 1.0 - np.geomspace(1e-9, 1e-1, 801)])
        with mp.workdps(50):
            for eta, xi in zip(etas, fc.xi_of(etas)):
                exact = 1 - mp.mpf(eta) ** 2
                assert abs(mp.mpf(xi) - exact) <= 2 * np.spacing(float(exact)), eta

    def test_slepian_curve_beats_gaussian(self):
        g = FilterCharacteristic.gaussian()
        s = FilterCharacteristic.slepian()
        lo, hi = s.domain()
        etas = np.linspace(max(lo, 0.05), min(hi, 0.95), 31)
        assert np.all(s.xi_of(etas) >= g.xi_of(etas) - 1e-9)

    def test_fixed_point_rejects_off_point(self):
        fc = FilterCharacteristic.fixed_point(0.99, 0.98)
        assert fc.xi_of(0.99) == pytest.approx(0.98)
        with pytest.raises(ValueError):
            fc.xi_of(0.5)

    def test_fixed_point_validation(self):
        with pytest.raises(ValueError):
            FilterCharacteristic.fixed_point(1.5, 0.9)
        with pytest.raises(ValueError):
            FilterCharacteristic.fixed_point(0.9, 0.0)

    def test_grid_points_are_the_eta_grid_inside_the_domain(self):
        assert np.array_equal(ETA_GRID, np.linspace(0.005, 0.995, 199))
        etas, xis = FilterCharacteristic.gaussian().grid_points()
        assert np.array_equal(etas, ETA_GRID)
        assert np.array_equal(xis, (1.0 - ETA_GRID) * (1.0 + ETA_GRID))
        fp = FilterCharacteristic.fixed_point(*QPG_REFERENCE_POINTS[0])
        etas, xis = fp.grid_points()
        assert (etas.tolist(), xis.tolist()) == ([0.99], [0.98])


class TestSlepianCharacteristic:
    def test_domain_is_the_prolate_clamp(self):
        lo, hi = FilterCharacteristic.slepian().domain()
        assert (lo, hi) == (_beta0(1e-3), _beta0(17.0))
        assert lo == pytest.approx(6.366e-4, rel=1e-3)
        assert 1.0 - hi == pytest.approx(4.8e-14, rel=0.05)
        fc = FilterCharacteristic.slepian()
        with pytest.raises(ValueError):
            fc.xi_of(0.999 * lo)
        with pytest.raises(ValueError):
            fc.xi_of(1.0)
        # beta_0 just below c = 17 can read a few ulp above hi; those map to the clamp
        above = hi + 2.0 * np.spacing(hi)
        assert fc.xi_of(above) == pytest.approx(0.5 * np.pi * above / 17.0, rel=1e-15)
        with pytest.raises(ValueError):
            fc.xi_of(hi + 17.0 * np.spacing(hi))

    def test_xi_of_pins_bisection_inversion(self):
        fc = FilterCharacteristic.slepian()
        etas = np.r_[ETA_GRID, 0.999, 0.9999, 0.99999]
        ref = 0.5 * np.pi * etas / _bisect_c(etas)
        xis = fc.xi_of(etas)
        assert np.max(np.abs(xis - ref) / ref) <= 1e-12
        # the ends of the domain are beta_0 at the clamp, so their roots are
        # the clamp values themselves (bisection never evaluates an endpoint)
        lo, hi = fc.domain()
        assert fc.xi_of(hi) == pytest.approx(0.5 * np.pi * hi / 17.0, rel=1e-12)
        assert fc.xi_of(lo) == pytest.approx(0.5 * np.pi * lo / 1e-3, rel=1e-12)

    def test_saturated_end_steps_on_the_log_complement(self, monkeypatch):
        # ln(1 - beta_0) is nearly linear in c, so Newton on it lands in a few
        # steps; Newton on beta_0 itself needs 24 complements at 1 - 1e-12.
        # A call takes an array, so the complements counted are its points
        import tffilter.slepian as slepian

        points = []
        complement = slepian.concentration_complement
        monkeypatch.setattr(
            slepian, "concentration_complement", lambda c: points.append(np.size(c)) or complement(c)
        )
        eta = 1.0 - 1e-12
        xi = FilterCharacteristic.slepian().xi_of(eta)
        assert sum(points) <= 10  # one of them may be domain()'s upper end
        c = 0.5 * np.pi * eta / xi
        assert complement(c) == pytest.approx(1e-12, rel=1e-9)

    def test_grid_values_equal_one_point_calls(self):
        # no point of an array starts from another's solution
        fc = FilterCharacteristic.slepian()
        etas, xis = fc.grid_points()
        assert xis.tolist() == [fc.xi_of(float(e)) for e in etas]

    @settings(max_examples=12, deadline=None, database=None)
    @given(
        st.lists(
            # the complement range starts at beta_0(5.6) = 1 - 2.1e-4
            st.one_of(st.floats(6.4e-4, 0.9997), st.floats(1.0 - 2e-4, 1.0 - 5e-14)),
            min_size=1,
            max_size=4,
        ).flatmap(lambda xs: st.permutations(xs + xs[: len(xs) // 2 + 1]))
    )
    def test_array_values_equal_one_point_calls(self, etas):
        fc = FilterCharacteristic.slepian()
        xis = fc.xi_of(np.array(etas))
        assert xis.tolist() == [fc.xi_of(e) for e in etas]

    def test_curve_ends_are_computed_once(self, monkeypatch):
        import tffilter.slepian as slepian

        calls = []
        ground = slepian.ground_concentration
        monkeypatch.setattr(
            slepian, "ground_concentration", lambda c: calls.append(np.size(c)) or ground(c)
        )
        slepian.ground_range.cache_clear()
        fc = FilterCharacteristic.slepian()
        lo, hi = fc.domain()
        fc.xi_of(0.5)
        fc.grid_points()
        fc.rate(np.array([0.3, 0.6]), 1e-3)
        assert fc.domain() == (lo, hi) == (_beta0(1e-3), _beta0(17.0))
        assert calls == [2]  # both ends in one call

    @settings(max_examples=60, deadline=None, database=None)
    @given(st.floats(min_value=1e-3, max_value=17.0))
    def test_round_trip_through_beta0(self, c):
        sol = pswf_solve_legendre(c, 0)
        beta = sol.eigenvalues[0]
        xi = FilterCharacteristic.slepian().xi_of(beta)
        exact = 0.5 * np.pi * beta / c
        # beta_0 is flat to a few ulp as it saturates, which fixes c only to
        # spacing(beta) / (d beta_0 / d ln c); below c ~ 6 that is under 1e-13
        cond = np.spacing(beta) / sol.log_slope(0)
        assert abs(xi - exact) <= (1e-12 + 32.0 * cond) * exact
        # backward error: the returned point lies on the curve to a few ulp
        assert abs(_beta0(0.5 * np.pi * beta / xi) - beta) <= 16.0 * np.spacing(beta)

    def test_optimizer_matches_dense_log_c_scan(self):
        # the README's 50 noise levels, against a dense scan of each family's curve:
        # 4000 points in ln c for the brick wall, 1e-5 steps in eta for the gaussian
        nys = np.geomspace(1e-4, 1.0, 50)
        eta_g = np.linspace(1e-3, 1.0 - 1e-9, 100_000)
        dense = {
            "slepian": slepian_tradeoff(np.geomspace(1e-3, 17.0, 4000) / (0.5 * np.pi)),
            "gaussian": (eta_g, 1.0 - eta_g**2),
        }
        for family, (etas, xis) in dense.items():
            fc = getattr(FilterCharacteristic, family)()
            results = optimize_over_efficiency(fc, nys)
            for res, ny in zip(results, nys):
                scan = np.max(normalized_key_rate(etas, xis, ny))
                assert res.no_key == (scan == 0.0)
                assert res.rate >= scan - 1e-12
                if not res.no_key:
                    assert fc.rate(res.eta, ny) == pytest.approx(res.rate, rel=1e-9)
            assert sum(not res.no_key for res in results) >= 30

    def test_optimizer_solves_per_golden_step_not_per_noise_level(self, monkeypatch):
        # every n_y is refined in lockstep, so the curve is evaluated once for the
        # scan and once per golden step, however many noise levels there are
        import tffilter.slepian as slepian

        calls = []
        ground = slepian.ground_concentration
        monkeypatch.setattr(
            slepian, "ground_concentration", lambda c: calls.append(np.size(c)) or ground(c)
        )
        optimize_over_efficiency(FilterCharacteristic.slepian(), np.geomspace(1e-4, 1.0, 50))
        assert len(calls) <= 40
        assert np.median(calls) >= 30  # a golden step carries every keyed n_y's probe


def test_qkd_imports_no_private_name_or_solver_from_slepian():
    # qkd reads the brick-wall curve through public slepian functions only
    tree = ast.parse(Path(tffilter.qkd.__file__).read_text(encoding="utf-8"))
    names = [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "slepian"
        for alias in node.names
    ]
    assert names
    solvers = {"pswf_solve_legendre", "concentration_complement"}
    assert not [n for n in names if n.startswith("_") or n in solvers]


class TestOptimizer:
    def test_noiseless_gaussian_pushes_eta_to_one(self):
        res = optimize_over_efficiency(FilterCharacteristic.gaussian(), 0.0)
        assert res.eta > 0.999
        assert res.rate == pytest.approx(1.0, abs=1e-6)
        assert not res.no_key

    def test_slepian_dominates_gaussian(self):
        nys = np.array([1e-3, 1e-2, 0.05])
        slepian = optimize_over_efficiency(FilterCharacteristic.slepian(), nys)
        gaussian = optimize_over_efficiency(FilterCharacteristic.gaussian(), nys)
        for rs, rg in zip(slepian, gaussian):
            assert rs.rate >= rg.rate - 1e-12

    def test_optimal_eta_nonincreasing_in_noise(self):
        nys = np.geomspace(1e-4, 0.2, 12)
        for fc in (FilterCharacteristic.gaussian(), FilterCharacteristic.slepian()):
            etas = [res.eta for res in optimize_over_efficiency(fc, nys)]
            assert all(b <= a + 1e-3 for a, b in zip(etas, etas[1:]))

    def test_array_noise_matches_scalar_calls(self):
        nys = np.array([0.0, 1e-3, 0.05, 1e3])
        for fc in (FilterCharacteristic.gaussian(), FilterCharacteristic.slepian()):
            batch = optimize_over_efficiency(fc, nys)
            assert batch == tuple(optimize_over_efficiency(fc, float(n)) for n in nys)
        with pytest.raises(ValueError):
            optimize_over_efficiency(FilterCharacteristic.gaussian(), np.zeros((2, 2)))
        with pytest.raises(ValueError):
            optimize_over_efficiency(FilterCharacteristic.gaussian(), np.array([0.1, -0.1]))

    def test_lanes_that_stop_early_match_scalar_calls(self):
        # interior brackets span two scan spacings; the Gaussian edge bracket
        # [1e-3, 2e-3] of a best scan point at eta = 1e-3 spans one and takes
        # fewer golden steps.  At n_y = 0.132317 the optimum (eta 1.35e-3)
        # lies inside it, so a lane that kept stepping after its bracket
        # closed would move its interior optimum off the scalar call's
        fc = FilterCharacteristic.gaussian()
        nys = np.array([1e-3, 0.132317, 0.05, 0.12])
        batch = optimize_over_efficiency(fc, nys)
        assert 1e-3 < batch[1].eta < 1.5e-3 and batch[1].rate > 0.0
        assert batch == tuple(optimize_over_efficiency(fc, float(n)) for n in nys)

    def test_noiseless_slepian_rides_the_clamp(self):
        fc = FilterCharacteristic.slepian()
        res = optimize_over_efficiency(fc, 0.0)
        assert res.eta == fc.domain()[1]
        assert res.rate == pytest.approx(1.0, abs=1e-12)
        assert fc.xi_of(res.eta) > 0.0

    def test_hopeless_noise_returns_no_key(self):
        res = optimize_over_efficiency(FilterCharacteristic.gaussian(), 1e3)
        assert res.no_key
        assert res.eta == 0.0 and res.rate == 0.0

    def test_fixed_point_returns_itself(self):
        fc = FilterCharacteristic.fixed_point(0.9, 0.9)
        res = optimize_over_efficiency(fc, 0.1)
        assert res.eta == 0.9 and not res.no_key
        assert res.rate == normalized_key_rate(0.9, 0.9, 0.1)
        # no key exactly where the rate is 0, at the point's own efficiency
        res = optimize_over_efficiency(fc, 1e3)
        assert (res.eta, res.rate, res.no_key) == (0.9, 0.0, True)
        nys = np.array([0.0, 0.1, 1e3, 1e300])
        assert optimize_over_efficiency(fc, nys) == tuple(
            optimize_over_efficiency(fc, float(n)) for n in nys
        )


NAN = float("nan")


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: binary_entropy(NAN), r"binary entropy argument must lie in \[0, 1\]"),
        (lambda: qber(NAN, 0.5), "n_y must be nonnegative"),
        (lambda: qber(0.1, NAN), r"xi must lie in \(0, 1\]"),
        (lambda: normalized_key_rate(NAN, 0.5, 0.1), r"eta must lie in \(0, 1\]"),
        (lambda: normalized_key_rate(0.5, NAN, 0.1), r"xi must lie in \(0, 1\]"),
        (lambda: normalized_key_rate(0.5, 0.5, NAN), "n_y must be nonnegative"),
        (lambda: FilterCharacteristic.gaussian().xi_of(NAN), r"gaussian .* \(0, 1\)"),
        (lambda: FilterCharacteristic.slepian().xi_of(NAN), "slepian characteristic covers .*"),
        (lambda: FilterCharacteristic.fixed_point(0.9, 0.9).xi_of(NAN), "fixed-point .* only"),
        (lambda: FilterCharacteristic.fixed_point(NAN, 0.9), r"fixed point .* \(0, 1\]\^2"),
        (
            lambda: optimize_over_efficiency(FilterCharacteristic.gaussian(), NAN),
            "n_y must be nonnegative",
        ),
        (
            lambda: optimize_over_efficiency(FilterCharacteristic.slepian(), np.array([0.1, NAN])),
            "n_y must be nonnegative",
        ),
        (lambda: QkdScenario(0.5, NAN, 1.0), "noise density must be nonnegative"),
        (lambda: QkdScenario(0.5, 0.1, NAN), "source rate must be positive"),
        (lambda: QkdScenario(NAN, 0.1, 1.0), r"channel transmission must lie in \(0, 1\]"),
    ],
    ids=[
        "binary_entropy",
        "qber_noise",
        "qber_xi",
        "rate_eta",
        "rate_xi",
        "rate_noise",
        "gaussian_xi_of",
        "slepian_xi_of",
        "fixed_point_xi_of",
        "fixed_point",
        "optimize_scalar",
        "optimize_array",
        "scenario_noise",
        "scenario_source_rate",
        "scenario_transmission",
    ],
)
def test_nan_fails_every_range_check(call, message):
    # a check written x < 0 lets NaN through; each one here must refuse it
    # with the message it gives any other value out of range
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


class TestScenario:
    def test_ny_scaling(self):
        sc = QkdScenario(channel_transmission=0.1, noise_psd_photons=0.02, source_rate=1e6)
        assert sc.n_y == pytest.approx(0.2, rel=1e-12)

    def test_absolute_rate_scaling(self):
        sc = QkdScenario(channel_transmission=0.5, noise_psd_photons=0.0, source_rate=2e6)
        # noiseless: normalized rate eta^2; absolute = R_S tau^2 eta^2
        assert sc.absolute_rate(0.9, 0.8) == pytest.approx(2e6 * 0.25 * 0.81, rel=1e-12)

    def test_regime_flag(self):
        quiet = QkdScenario(channel_transmission=1.0, noise_psd_photons=1e-4, source_rate=1e6)
        loud = QkdScenario(channel_transmission=1.0, noise_psd_photons=0.5, source_rate=1e6)
        assert not quiet.regime_flag(0.5, 0.75)
        assert loud.regime_flag(0.5, 0.75)

    def test_validation(self):
        with pytest.raises(ValueError):
            QkdScenario(channel_transmission=0.0, noise_psd_photons=0.1, source_rate=1e6)
        with pytest.raises(ValueError):
            QkdScenario(channel_transmission=0.5, noise_psd_photons=-0.1, source_rate=1e6)
