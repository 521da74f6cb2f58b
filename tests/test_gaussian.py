"""Gaussian window/gate pair: closed-form Schmidt data."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tffilter.core import (
    Domain,
    ResolutionError,
    SampledAxis,
    StageOrder,
    centered_axis,
    inner_product,
)
from tffilter.gaussian import (
    GaussianSif,
    gaussian_sif,
    gaussian_singular_values,
    gaussian_tradeoff,
    hermite_gaussian_mode_set,
    mehler_u,
)


def mode_pair(spec, n, axis):
    """(input mode n, output mode n), each read off its side's closed-form mode set."""
    return tuple(hermite_gaussian_mode_set(spec, axis, n + 1, side)[n] for side in ("input", "output"))


class TestProfiles:
    def test_window_peak_and_half_energy_width(self):
        window = gaussian_sif(1.0, 1.0).spectral
        assert window(np.array([0.0]))[0] == pytest.approx(1.0)
        # |window|^2 integrates to B under the dw/2pi measure
        w = np.linspace(-60.0, 60.0, 200001)
        mass = np.trapezoid(np.abs(window(w)) ** 2, w) / (2.0 * np.pi)
        assert mass == pytest.approx(1.0, rel=1e-10)

    def test_gate_unit_peak_and_energy(self):
        gate = gaussian_sif(1.0, 2.0).temporal
        assert gate(np.array([0.0]))[0] == pytest.approx(1.0)
        t = np.linspace(-30.0, 30.0, 200001)
        mass = np.trapezoid(np.abs(gate(t)) ** 2, t)
        assert mass == pytest.approx(2.0, rel=1e-10)

    def test_supports_shrink_with_tolerance(self):
        sif = gaussian_sif(1.0, 1.0)
        window, gate = sif.spectral, sif.temporal
        assert window.support(1e-6) < window.support(1e-12)
        assert gate.support(1e-6) < gate.support(1e-12)


class TestMehlerLadder:
    def test_u_closed_form_bt_half(self):
        assert mehler_u(0.5) == pytest.approx(np.sqrt(2.0) - 1.0, rel=1e-14)

    def test_u_monotone_in_bt(self):
        bts = np.linspace(0.05, 5.0, 50)
        us = np.array([mehler_u(b) for b in bts])
        assert np.all(np.diff(us) > 0)
        assert np.all((us > 0) & (us < 1))

    def test_u_accepts_arrays(self):
        bts = np.geomspace(1e-6, 1e6, 40)
        us = mehler_u(bts)
        assert np.array_equal(us, [mehler_u(float(b)) for b in bts])
        assert np.array_equal(gaussian_tradeoff(bts)[0], us)
        with pytest.raises(ValueError):
            mehler_u(np.array([0.5, 0.0]))

    def test_u_at_the_ends_of_the_float_range_is_its_limit(self):
        # 1/(2 BT) or the denominator overflows at both ends, with no warning:
        # u is then 1, or BT itself, which u = BT (1 - BT^2 + ...) rounds to
        assert mehler_u(1e308) == 1.0
        assert mehler_u(1e-320) == 1e-320
        assert np.array_equal(mehler_u(np.array([1e-320, 1e308])), [1e-320, 1.0])
        assert gaussian_tradeoff(1e308) == (1.0, 0.0)

    @pytest.mark.parametrize("bt", [5e-324, 1e-320, 2e-309, 4e-309, 5.5e-309, 6e-309, 1e-300])
    def test_tradeoff_identity_holds_at_subnormal_bt(self, bt):
        # eta = xi * BT exactly, below the BT where the denominator of u overflows too
        eta, xi = gaussian_tradeoff(bt)
        assert eta == bt and xi == 1.0
        assert eta == xi * bt

    def test_singular_values_geometric(self):
        lam = gaussian_singular_values(0.5, 8)
        u = mehler_u(0.5)
        assert np.max(np.abs(lam - u ** (np.arange(8) + 0.5))) < 1e-14

    def test_singular_sum_rule(self):
        # sum over the full ladder telescopes to BT
        for bt in (0.1, 0.5, 2.0):
            u = mehler_u(bt)
            assert u / (1.0 - u**2) == pytest.approx(bt, rel=1e-13)


class TestTradeoff:
    def test_identity_xi_eta(self):
        eta, xi = gaussian_tradeoff(0.7)
        assert xi == pytest.approx(1.0 - eta**2, abs=1e-15)

    def test_eta_over_xi_is_bt(self):
        for bt in (0.05, 0.5, 3.0):
            eta, xi = gaussian_tradeoff(bt)
            assert eta / xi == pytest.approx(bt, rel=1e-13)

    @settings(max_examples=60, deadline=None, database=None)
    @given(st.floats(min_value=0.01, max_value=20.0))
    def test_eta_is_xi_times_bt(self, bt):
        eta, xi = gaussian_tradeoff(bt)
        assert abs(xi * bt - eta) <= 1e-12

    def test_array_broadcast(self):
        bts = np.geomspace(0.01, 10.0, 40)
        eta, xi = gaussian_tradeoff(bts)
        assert eta.shape == bts.shape
        assert np.all(np.diff(eta) > 0)  # more BT, better transmission
        assert np.all(np.diff(xi) < 0)  # and worse discrimination

    def test_scale_product_tracks_bt(self):
        # product of the two mode width scales collapses onto B*T alone
        for band in np.geomspace(1e-2, 1e2, 17):
            spec = gaussian_sif(band, 2.5)
            t = spec.temporal.width
            product = t**2 * spec.alpha * spec.beta
            assert product == pytest.approx(2.0 * np.pi * spec.bt, rel=1e-12)


class TestHermiteModes:
    @pytest.fixture()
    def spec(self) -> GaussianSif:
        return gaussian_sif(0.5, 1.0)

    @pytest.fixture()
    def axis(self) -> SampledAxis:
        # odd count keeps the grid mirror-symmetric for the parity checks
        return centered_axis(24.0 / 2048, 2049, Domain.TIME)

    def test_orthonormal_input_set(self, spec, axis):
        modes = hermite_gaussian_mode_set(spec, axis, 6, "input")
        for i in range(6):
            for j in range(i, 6):
                g = inner_product(modes[i], modes[j])
                assert abs(g - (1.0 if i == j else 0.0)) < 1e-10

    def test_input_output_scale_differs(self, spec, axis):
        # the output trace is compressed by the gate: narrower waist
        mi, mo = mode_pair(spec, 0, axis)
        wi = np.sum(axis.points**2 * np.abs(mi.values) ** 2) * axis.step
        wo = np.sum(axis.points**2 * np.abs(mo.values) ** 2) * axis.step
        assert wo < wi

    def test_ground_mode_even_no_nodes(self, spec, axis):
        m0 = hermite_gaussian_mode_set(spec, axis, 1, "input")[0]
        v = m0.values
        assert np.max(np.abs(v - v[::-1])) < 1e-12
        body = np.abs(v) > 1e-8 * np.max(np.abs(v))
        assert np.all(np.abs(v.real[body]) > 0)

    def test_first_mode_single_zero_crossing(self, spec, axis):
        m1 = hermite_gaussian_mode_set(spec, axis, 2, "input")[1]
        prof = m1.values.imag if np.max(np.abs(m1.values.imag)) > np.max(
            np.abs(m1.values.real)
        ) else m1.values.real
        keep = np.abs(prof) > 1e-6 * np.max(np.abs(prof))
        signs = np.sign(prof[keep])
        assert np.sum(np.diff(signs) != 0) == 1

    def test_filter_maps_input_to_output_mode(self, spec, axis):
        # K phi_n = lambda_n psi_n, checked through the dense operator
        from tffilter.core import apply_filter

        lam = gaussian_singular_values(spec.bt, 3)
        for n in range(3):
            mi, mo = mode_pair(spec, n, axis)
            pushed = apply_filter(spec, mi)
            overlap = inner_product(mo, pushed)
            assert abs(overlap - lam[n]) < 1e-8

    def test_numeric_ground_mode_overlaps_closed_form(self, spec):
        from tffilter.core import build_operator, recommended_axes
        from tffilter.schmidt import schmidt_decompose

        rows, cols = recommended_axes(spec, resolution=512)
        res = schmidt_decompose(build_operator(spec, rows, cols), keep=1)
        analytic = hermite_gaussian_mode_set(spec, cols, 1, "input")[0]
        assert abs(inner_product(analytic, res.input_modes[0])) > 1.0 - 1e-6

    def test_order_swap_swaps_mode_roles(self, axis):
        ff = gaussian_sif(0.5, 1.0, order=StageOrder.FREQUENCY_FIRST)
        tf = gaussian_sif(0.5, 1.0, order=StageOrder.TIME_FIRST)
        fi, fo = mode_pair(ff, 2, axis)
        ti, to = mode_pair(tf, 2, axis)
        assert abs(abs(inner_product(fi, to)) - 1.0) < 1e-10
        assert abs(abs(inner_product(fo, ti)) - 1.0) < 1e-10


class TestValidation:
    def test_rejects_nonpositive_shape(self):
        with pytest.raises(ValueError):
            gaussian_sif(0.0, 1.0)
        with pytest.raises(ValueError):
            gaussian_sif(1.0, -2.0)

    def test_mode_index_above_60_is_a_resolution_error(self):
        spec = gaussian_sif(0.5, 1.0)
        with pytest.raises(ResolutionError):
            hermite_gaussian_mode_set(spec, None, 62, "input")
        assert len(hermite_gaussian_mode_set(spec, None, 61, "input")) == 61

    @pytest.mark.parametrize("count, side", [(1, "input"), (61, "output")])
    def test_default_axis_holds_the_highest_mode(self, count, side):
        # +-(sqrt(2 n + 1) + 6) / a on 4097 points: past the classical turning
        # point sqrt(2 n + 1) / a of mode n by six widths
        spec = gaussian_sif(0.5, 1.0)
        modes = hermite_gaussian_mode_set(spec, None, count, side)
        scale = spec.alpha if side == "input" else spec.beta
        half = (np.sqrt(2.0 * count - 1.0) + 6.0) / scale
        assert modes[0].axis == SampledAxis(-half, 2.0 * half / 4096, 4097, Domain.TIME)
        assert all(abs(m.norm() - 1.0) < 1e-12 for m in modes)

    def test_mode_set_needs_time_axis(self):
        spec = gaussian_sif(0.5, 1.0)
        fax = centered_axis(0.1, 128, Domain.ANGULAR_FREQUENCY)
        with pytest.raises(Exception):
            hermite_gaussian_mode_set(spec, fax, 2, "input")
