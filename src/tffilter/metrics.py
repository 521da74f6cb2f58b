"""Figures of merit of a filter's Schmidt ladder.

A :class:`Ladder` holds the kept singular values s_0 >= s_1 >= ... together
with the sum of s_n^2 over the whole ladder, kept or not, and reads off:

* efficiency      eta = s_0^2, the transmission of the best-matched mode,
* discriminativity xi = s_0^2 / sum_n s_n^2, the share of total throughput
  the dominant mode claims (1 means single-mode).

For a spectral window R~ composed with a temporal gate Q the total throughput
obeys sum_n s_n^2 = B T with the intensity bandwidth B = integral |R~|^2 dw/2pi
(peak |R~| = 1) and integral duration T = integral |Q|^2 dt (peak |Q| = 1),
which ties the numerical spectrum to the analytic product B T.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _EXPORTS
from .core import Sif, _profile_axis

__all__ = _EXPORTS["metrics"]

# (eta, xi) of the quantum pulse gates the sequential families are measured against
QPG_REFERENCE_POINTS = ((0.99, 0.98), (0.9999, 0.9999))


@dataclass(frozen=True, eq=False)
class Ladder:
    """A Schmidt ladder: the kept singular values and the sum of every s_n^2.

    ``singular_values`` are a nonempty 1-D array of finite, nonnegative,
    descending values, read-only once stored.  ``total_power`` is sum_n s_n^2
    over the whole ladder, kept or not: positive, finite, and at least s_0^2
    (to a relative 1e-12), so that 0 < xi <= 1.  Each refusal is a
    ``ValueError`` with its own message, a NaN included.  Ladders compare by
    identity, as their values are an array.
    """

    singular_values: np.ndarray
    total_power: float

    def __post_init__(self) -> None:
        s = np.array(self.singular_values, dtype=float)
        if s.ndim != 1:
            raise ValueError("singular values must be a 1-D array")
        if s.size == 0:
            raise ValueError("need at least one singular value")
        if not np.all(np.isfinite(s)):
            raise ValueError("singular values must be finite")
        if np.any(s < -1e-15):
            raise ValueError("singular values must be nonnegative")
        if np.any(np.diff(s) > 1e-12 * max(s[0], 1.0)):
            raise ValueError("singular values must be sorted descending")
        total = float(self.total_power)
        if not total > 0:  # NaN fails it too
            raise ValueError("total squared singular value mass must be positive")
        if total == np.inf:
            raise ValueError("total squared singular value mass must be finite")
        eta = s[0] * s[0]
        if eta == 0.0 or eta > total * (1.0 + 1e-12):
            raise ValueError("discriminativity must lie in (0, 1]")
        s.setflags(write=False)
        object.__setattr__(self, "singular_values", s)
        object.__setattr__(self, "total_power", total)

    @property
    def efficiency(self) -> float:
        """eta = s_0^2."""
        return float(np.square(self.singular_values[0]))

    @property
    def discriminativity(self) -> float:
        """xi = s_0^2 / total_power."""
        return self.efficiency / self.total_power

    @property
    def kept(self) -> int:
        return len(self.singular_values)

    def truncation_residual(self) -> float:
        """sqrt of the squared singular mass outside the kept modes."""
        tail = self.total_power - float(np.sum(self.singular_values**2))
        return float(np.sqrt(max(tail, 0.0)))


def figures_from_singulars(singular_values: np.ndarray, total: float) -> Ladder:
    """The :class:`Ladder` of a (possibly truncated) passive filter's singular values.

    ``total`` is sum_n s_n^2 over the whole ladder, kept or not: a
    ``SchmidtResult``'s ``total_power``, or B T for these filters.  Beyond the
    ladder's own checks, eta = s_0^2 must not exceed 1 (to 1e-12), as no
    passive filter transmits more than it receives.
    """
    ladder = Ladder(singular_values, total)
    if not ladder.efficiency <= 1.0 + 1e-12:  # NaN fails it too
        raise ValueError("efficiency must lie in [0, 1]")
    return ladder


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
    if not signal_energy >= 0:  # NaN fails these checks too
        raise ValueError("signal energy must be nonnegative")
    if not noise_psd >= 0:
        raise ValueError("noise power spectral density must be nonnegative")
    if not (0.0 < discriminativity <= 1.0 + 1e-12):
        raise ValueError("discriminativity must lie in (0, 1]")
    if noise_psd == 0.0:
        return float("inf")
    return (signal_energy / noise_psd) * discriminativity