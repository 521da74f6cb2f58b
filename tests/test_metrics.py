"""Figures of merit from singular-value ladders and profile integrals."""

import numpy as np
import pytest

from tffilter.core import _profile_axis
from tffilter.gaussian import gaussian_sif, gaussian_singular_values, gaussian_tradeoff
from tffilter.metrics import (
    analytic_snr,
    bt_from_profiles,
    figures_from_singulars,
)
from tffilter.slepian import rectangular_sif


class TestFiguresFromSingulars:
    def test_gaussian_ladder_recovers_closed_form(self):
        sv = gaussian_singular_values(0.5, 40)
        fig = figures_from_singulars(sv, bt_hint=0.5)
        eta, xi = gaussian_tradeoff(0.5)
        assert fig.efficiency == pytest.approx(eta, rel=1e-12)
        assert fig.discriminativity == pytest.approx(xi, rel=1e-12)
        assert fig.selectivity == pytest.approx(eta * xi, rel=1e-12)
        assert fig.bt_product == pytest.approx(0.5, rel=1e-12)
        assert fig.mode_count_effective == pytest.approx(1.0 / xi, rel=1e-12)

    def test_total_sq_overrides_truncated_sum(self):
        # short ladder plus the exact Frobenius mass: xi uses the mass
        sv = gaussian_singular_values(0.5, 3)
        fig = figures_from_singulars(sv, total_sq=0.5)
        assert fig.discriminativity == pytest.approx(sv[0] ** 2 / 0.5, rel=1e-12)

    def test_bt_hint_mismatch_raises(self):
        sv = gaussian_singular_values(0.5, 40)
        with pytest.raises(ValueError, match="grid"):
            figures_from_singulars(sv, bt_hint=0.7)

    def test_rejects_ascending_ladder(self):
        with pytest.raises(ValueError):
            figures_from_singulars(np.array([0.1, 0.5]))

    def test_rejects_negative_values(self):
        with pytest.raises(ValueError):
            figures_from_singulars(np.array([0.5, -0.1]))


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
