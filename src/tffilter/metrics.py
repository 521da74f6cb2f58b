"""Scalar figures of merit derived from a filter's Schmidt spectrum.

For singular values s_0 >= s_1 >= ...:

* efficiency      eta = s_0^2, the transmission of the best-matched mode,
* discriminativity xi = s_0^2 / sum_n s_n^2, the share of total throughput
  the dominant mode claims (1 means single-mode),
* selectivity      eta * xi, the standard single-number tradeoff score.

For a spectral window R~ composed with a temporal gate Q the total throughput
obeys sum_n s_n^2 = B T with the intensity bandwidth B = integral |R~|^2 dw/2pi
(peak |R~| = 1) and integral duration T = integral |Q|^2 dt (peak |Q| = 1),
which ties the numerical spectrum to the analytic product B T.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Sif, _profile_axis

__all__ = [
    "FilterFigures",
    "figures_from_singulars",
    "bt_from_profiles",
    "analytic_snr",
    "QPG_REFERENCE_POINTS",
]

# (eta, xi) of the quantum pulse gates the sequential families are measured against
QPG_REFERENCE_POINTS = ((0.99, 0.98), (0.9999, 0.9999))


@dataclass(frozen=True)
class FilterFigures:
    """Summary scalars of one filter's Schmidt spectrum."""

    efficiency: float
    discriminativity: float
    bt_product: float
    selectivity: float
    mode_count_effective: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.efficiency <= 1.0 + 1e-12):
            raise ValueError("efficiency must lie in [0, 1]")
        if not (0.0 < self.discriminativity <= 1.0 + 1e-12):
            raise ValueError("discriminativity must lie in (0, 1]")


def figures_from_singulars(
    singular_values: np.ndarray,
    bt_hint: float | None = None,
    total_sq: float | None = None,
) -> FilterFigures:
    """Figures of merit from a (truncated) singular value array.

    ``total_sq`` supplies the exact sum of squares when known analytically
    (for these filters it equals B T); otherwise the truncated sum is used.
    ``bt_hint`` cross-checks the spectrum against the profile product: the
    relative mismatch between sum s_n^2 and the hint must stay within 1e-4.
    """
    s = np.asarray(singular_values, dtype=float)
    if s.size == 0:
        raise ValueError("need at least one singular value")
    if np.any(s < -1e-15):
        raise ValueError("singular values must be nonnegative")
    if np.any(np.diff(s) > 1e-12 * max(s[0], 1.0)):
        raise ValueError("singular values must be sorted descending")
    sq = s * s
    total = float(total_sq) if total_sq is not None else float(np.sum(sq))
    if total <= 0:
        raise ValueError("total squared singular value mass must be positive")
    if bt_hint is not None:
        rel = abs(total - bt_hint) / bt_hint
        if rel > 1e-4:
            raise ValueError(
                f"sum of squared singular values {total:.6g} disagrees with the "
                f"profile product B T = {bt_hint:.6g} (relative error {rel:.2e}); "
                "the decomposition grid is too coarse or too narrow"
            )
    eta = float(sq[0])
    xi = eta / total
    bt = bt_hint if bt_hint is not None else total
    return FilterFigures(
        efficiency=eta,
        discriminativity=xi,
        bt_product=float(bt),
        selectivity=eta * xi,
        mode_count_effective=1.0 / xi,
    )


def bt_from_profiles(spec: Sif) -> float:
    """B T from the profiles alone: intensity bandwidth times integral duration.

    B = integral |R~(w)|^2 dw / 2pi and T = integral |Q(t)|^2 dt, both under
    the unit-peak convention the profile classes enforce, each summed with the
    quadrature weights of the profile's own axis (:func:`tffilter.core._profile_axis`),
    the weights a ladder's ``total_power`` is summed with.
    """
    product = 1.0
    for stage in (spec.spectral, spec.temporal):
        axis = _profile_axis(stage)
        product *= np.abs(stage(axis.points)) ** 2 @ axis.quadrature_weights()
    return float(product)


def analytic_snr(signal_energy: float, noise_psd: float, discriminativity: float) -> float:
    """Single-mode detection SNR behind the filter.

    The matched component carries |A_0|^2 eta of signal while the summed
    filtered white noise carries N_y sum_n s_n^2 = N_y eta / xi, so the ratio
    is (|A_0|^2 / N_y) xi independent of eta.  Zero noise returns +inf.
    """
    if signal_energy < 0:
        raise ValueError("signal energy must be nonnegative")
    if noise_psd < 0:
        raise ValueError("noise power spectral density must be nonnegative")
    if not (0.0 < discriminativity <= 1.0 + 1e-12):
        raise ValueError("discriminativity must lie in (0, 1]")
    if noise_psd == 0.0:
        return float("inf")
    return (signal_energy / noise_psd) * discriminativity