"""Figures of merit from singular-value ladders and profile integrals."""

import numpy as np
import pytest

from tffilter.core import _profile_axis
from tffilter.gaussian import gaussian_sif, gaussian_singular_values, gaussian_tradeoff, mehler_u
from tffilter.metrics import (
    Ladder,
    analytic_snr,
    bt_from_profiles,
    figures_from_singulars,
)
from tffilter.schmidt import decompose_filter
from tffilter.slepian import pswf_solve_legendre, rectangular_sif


class TestFiguresFromSingulars:
    def test_gaussian_ladder_recovers_closed_form(self):
        sv = gaussian_singular_values(0.5, 40)
        total = float(np.sum(sv**2))
        assert total == pytest.approx(0.5, rel=1e-4)  # the 40 values carry all of B T
        fig = figures_from_singulars(sv, total)
        eta, xi = gaussian_tradeoff(0.5)
        assert fig.efficiency == pytest.approx(eta, rel=1e-12)
        assert fig.discriminativity == pytest.approx(xi, rel=1e-12)
        assert fig.total_power == total

    def test_total_sq_overrides_truncated_sum(self):
        # short ladder plus the exact Frobenius mass: xi uses the mass
        sv = gaussian_singular_values(0.5, 3)
        fig = figures_from_singulars(sv, 0.5)
        assert fig.discriminativity == pytest.approx(sv[0] ** 2 / 0.5, rel=1e-12)
        assert fig.total_power == 0.5

    @pytest.mark.parametrize("total", [0.0, -0.5, np.nan])
    def test_rejects_a_total_that_is_not_positive(self, total):
        with pytest.raises(ValueError, match="^total squared singular value mass must be positive$"):
            figures_from_singulars(gaussian_singular_values(0.5, 3), total)

    def test_rejects_ascending_ladder(self):
        with pytest.raises(ValueError, match="^singular values must be sorted descending$"):
            figures_from_singulars(np.array([0.1, 0.5]), 0.26)

    def test_rejects_negative_values(self):
        with pytest.raises(ValueError, match="^singular values must be nonnegative$"):
            figures_from_singulars(np.array([0.5, -0.1]), 0.26)

    @pytest.mark.parametrize(
        "sv, total, message",
        [
            ([], 1.0, "need at least one singular value"),
            ([1.5], 3.0, r"efficiency must lie in \[0, 1\]"),
            ([np.nan], 1.0, r"efficiency must lie in \[0, 1\]"),
            ([0.8], 0.5, r"discriminativity must lie in \(0, 1\]"),
            ([0.0], 1.0, r"discriminativity must lie in \(0, 1\]"),
        ],
        ids=["empty", "eta", "eta_nan", "xi", "xi_zero"],
    )
    def test_each_refusal_keeps_its_message(self, sv, total, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            figures_from_singulars(np.array(sv, dtype=float), total)

    def test_returns_the_ladder(self):
        sv = gaussian_singular_values(0.5, 3)
        fig = figures_from_singulars(sv, 0.5)
        assert type(fig) is Ladder
        assert np.array_equal(fig.singular_values, sv) and fig.total_power == 0.5
        s0 = float(sv[0])
        assert (fig.efficiency, fig.discriminativity) == (s0 * s0, s0 * s0 / 0.5)


class TestLadder:
    def test_figures_are_properties_of_the_values_and_total(self):
        ladder = Ladder(np.array([0.6, 0.3, 0.1]), 0.5)
        assert ladder.efficiency == 0.6 * 0.6
        assert ladder.discriminativity == 0.6 * 0.6 / 0.5
        assert ladder.kept == 3
        assert ladder.truncation_residual() == pytest.approx(np.sqrt(0.5 - 0.46), rel=1e-14)

    def test_values_are_a_read_only_copy(self):
        values = np.array([0.6, 0.3])
        ladder = Ladder(values, 0.5)
        assert not ladder.singular_values.flags.writeable
        values[0] = 0.7
        assert ladder.singular_values[0] == 0.6
        assert values.flags.writeable

    def test_a_total_below_the_leading_square_is_refused(self):
        # xi = s_0^2 / total cannot exceed 1: the total includes s_0^2
        with pytest.raises(ValueError, match=r"^discriminativity must lie in \(0, 1\]$"):
            Ladder(np.array([0.6]), 0.35)
        assert Ladder(np.array([0.6]), 0.6 * 0.6).discriminativity == 1.0

    def test_an_active_ladder_is_a_ladder(self):
        # eta <= 1 is figures_from_singulars' passivity check, not the ladder's
        assert Ladder(np.array([2.0, 1.0]), 5.0).efficiency == 4.0

    def test_decompose_filter_returns_one(self):
        res = decompose_filter(gaussian_sif(1.0, 0.5), keep=10)
        assert isinstance(res, Ladder)  # the README quick start
        fig = figures_from_singulars(res.singular_values, res.total_power)
        assert (res.efficiency, res.discriminativity) == (fig.efficiency, fig.discriminativity)
        eta, xi = gaussian_tradeoff(0.5)
        assert res.efficiency == pytest.approx(eta, rel=1e-9)
        assert res.discriminativity == pytest.approx(xi, rel=1e-9)


class TestBtFromProfiles:
    def test_gaussian(self):
        for bt in (0.1, 0.5, 2.0, 10.0, 20.0):
            assert bt_from_profiles(gaussian_sif(bt, 1.0)) == pytest.approx(bt, rel=1e-14)

    def test_gaussian_split_shape(self):
        # B and T enter only through the product
        assert bt_from_profiles(gaussian_sif(0.25, 2.0)) == pytest.approx(0.5, rel=1e-14)

    def test_rectangular_exact(self):
        # Gauss-Legendre nodes inside the support see a constant |p|^2 = 1
        assert bt_from_profiles(rectangular_sif(0.8, 1.0)) == pytest.approx(
            0.8, rel=1e-14
        )

    def test_rectangular_various(self):
        for band in (0.1, 0.8, 1.0, 3.7):
            for duration in (1.0, 2.0):
                spec = rectangular_sif(band, duration)
                assert bt_from_profiles(spec) == pytest.approx(duration * band, rel=1e-14)

    def test_insensitive_to_resolution(self):
        for spec in (rectangular_sif(1.3, 1.0), gaussian_sif(1.3, 1.0)):
            w_ax, t_ax = _profile_axis(spec.spectral, 257), _profile_axis(spec.temporal, 257)
            b = np.abs(spec.spectral(w_ax.points)) ** 2 @ w_ax.quadrature_weights()
            t = np.abs(spec.temporal(t_ax.points)) ** 2 @ t_ax.quadrature_weights()
            assert b * t == pytest.approx(bt_from_profiles(spec), rel=1e-14)


class TestAnalyticSnr:
    def test_scales_with_energy_ratio(self):
        assert analytic_snr(10.0, 1.0, 0.8) == pytest.approx(8.0)
        assert analytic_snr(20.0, 1.0, 0.8) == pytest.approx(16.0)

    def test_reference_point(self):
        _, xi = gaussian_tradeoff(0.5)
        assert analytic_snr(1.0, 0.1, xi) == pytest.approx(8.2842712474619, rel=1e-10)

    def test_zero_noise_is_infinite(self):
        assert analytic_snr(1.0, 0.0, 0.5) == np.inf

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            analytic_snr(-1.0, 0.1, 0.5)
        with pytest.raises(ValueError):
            analytic_snr(1.0, 0.1, 1.5)


NAN = float("nan")


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: gaussian_tradeoff(NAN), "BT product must be positive"),
        (lambda: gaussian_tradeoff(np.array([0.5, NAN])), "BT product must be positive"),
        (lambda: mehler_u(NAN), "BT product must be positive"),
        (lambda: gaussian_singular_values(NAN, 3), "BT product must be positive"),
        (lambda: analytic_snr(NAN, 0.1, 0.5), "signal energy must be nonnegative"),
        (lambda: analytic_snr(1.0, NAN, 0.5), "noise power spectral density must be nonnegative"),
        (lambda: analytic_snr(1.0, 0.1, NAN), r"discriminativity must lie in \(0, 1\]"),
        (lambda: pswf_solve_legendre(NAN, 2), "c must be positive"),
    ],
    ids=[
        "gaussian_tradeoff",
        "gaussian_tradeoff_array",
        "mehler_u",
        "gaussian_singular_values",
        "analytic_snr_energy",
        "analytic_snr_noise",
        "analytic_snr_xi",
        "pswf_solve_legendre",
    ],
)
def test_nan_fails_the_range_checks_of_the_closed_forms(call, message):
    # a check written x <= 0 lets NaN through; each one here must refuse it
    # with the message it gives any other value out of range
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()
