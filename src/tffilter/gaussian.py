"""Gaussian spectral window + Gaussian time gate: closed-form Schmidt data.

One class, ``GaussianProfile(width, domain)``, is both stages: exp(-a x^2 / b)
with (a, b) = (1, 8 pi B^2) on frequency and (pi, 2 T^2) on time.  For the
window R~(w) = exp(-w^2 / (8 pi B^2)) and the gate
Q(t) = exp(-pi t^2 / (2 T^2)) the sequential filter kernel is a Mehler kernel,
so every Schmidt quantity is analytic in the single product B*T:

    m   = 1 / (2 B T)
    u   = 1 / (sqrt(1 + m^2) + m)        (in (0, 1))
    s_n = u^(n + 1/2)                     singular values
    sum s_n^2 = u / (1 - u^2) = B T       effective mode count

and the Schmidt modes are Hermite-Gauss functions whose frequency-domain
widths alpha (input side) and beta (output side) satisfy
T^2 * alpha * beta = 2 pi B T exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _EXPORTS
from .core import (
    Axis,
    Domain,
    ResolutionError,
    SampledAxis,
    SampledSignal,
    Sif,
    StageOrder,
    StageProfile,
    _count,
)

__all__ = _EXPORTS["gaussian"]

_SMALLEST_NORMAL = float(np.finfo(float).tiny)


class GaussianProfile(StageProfile):
    """exp(-a x^2 / b), unit peak, with integral |p|^2 exactly ``width`` under the domain's measure.

    On frequency (a, b) = (1, 8 pi B^2), the window R~(w) of bandwidth B; on
    time (a, b) = (pi, 2 T^2), the gate Q(t) of duration T.
    """

    even = True

    def __init__(self, width: float, domain: Domain) -> None:
        """A width whose constants leave the float range raises ``ResolutionError``."""
        super().__init__(width, domain)
        width = self.width  # _sigma is the amplitude's 1/e^(1/2) radius
        try:
            if self.domain is Domain.TIME:
                self._a, self._b, self._sigma = np.pi, 2.0 * width**2, width / np.sqrt(np.pi)
            else:  # |R~|^2 = exp(-w^2/(4 pi B^2)): std B sqrt(2 pi), integral dw/2pi = B
                self._a, self._b, self._sigma = 1.0, 8.0 * np.pi * width**2, 2.0 * width * np.sqrt(np.pi)
        except OverflowError:  # a Python float's ** raises where * reads inf
            self._b = self._sigma = float("inf")
        if not (np.isfinite(self._b) and np.isfinite(self._sigma)):
            raise ResolutionError(
                f"a Gaussian profile of width {width:.3g} is past the float range"
            )

    def __call__(self, x: np.ndarray) -> np.ndarray:
        """A width below ~1e-154, whose ``_b`` is no normal double, raises ``ResolutionError``
        here and not when built, since the closed-form modes never evaluate the profile."""
        if self._b < _SMALLEST_NORMAL:
            raise ResolutionError(
                f"a Gaussian profile of width {self.width:.3g} is too narrow to evaluate"
            )
        x = np.asarray(x, dtype=float)
        return np.exp(-(self._a * x**2) / self._b)

    def support(self, tol: float) -> float:
        """Radius where exp(-x^2 / (2 sigma^2)), sigma = ``_sigma``, falls to tol."""
        return self._sigma * np.sqrt(2.0 * np.log(1.0 / tol))


def mehler_u(bt: float | np.ndarray) -> float | np.ndarray:
    """u = 1/(sqrt(1 + m^2) + m), m = 1/(2 BT); stable for both tiny and huge BT.

    Scalar in, scalar out; array in, array out.
    """
    bts = np.asarray(bt, dtype=float)
    if not np.all(bts > 0):  # NaN fails it too
        raise ValueError("BT product must be positive")
    # past BT ~ 1e308 m reads 0 and u its limit 1; below BT ~ 5.6e-309 the sum
    # overflows, and u = BT (1 - BT^2 + ...) rounds to BT itself
    with np.errstate(over="ignore"):
        m = 1.0 / (2.0 * bts)
        denominator = np.hypot(1.0, m) + m
    return np.where(np.isinf(denominator), bts, 1.0 / denominator)[()]


@dataclass(frozen=True)
class GaussianSif(Sif):
    """Gaussian + Gaussian sequential filter with its closed-form Schmidt scalars."""

    @property
    def alpha(self) -> float:
        """Frequency-domain width scale of the input Schmidt modes."""
        return self._widths[0]

    @property
    def beta(self) -> float:
        """Frequency-domain width scale of the output Schmidt modes."""
        return self._widths[1]

    @property
    def _widths(self) -> tuple[float, float]:
        """(input, output) width scales, each that of its stage's domain."""
        b, t, bt = self.spectral.width, self.temporal.width, self.bt
        scale = {
            Domain.ANGULAR_FREQUENCY: 2.0 * np.sqrt(np.pi) * b * (1.0 + (2.0 * bt) ** 2) ** (-0.25),
            Domain.TIME: (np.sqrt(np.pi) / t) * (1.0 + (2.0 * bt) ** 2) ** 0.25,
        }
        first, last = self.stages
        return scale[first.domain], scale[last.domain]


def gaussian_sif(
    bandwidth_hz: float,
    duration_s: float,
    order: StageOrder = StageOrder.FREQUENCY_FIRST,
) -> GaussianSif:
    return GaussianSif(
        GaussianProfile(bandwidth_hz, Domain.ANGULAR_FREQUENCY),
        GaussianProfile(duration_s, Domain.TIME),
        order,
    )


def gaussian_singular_values(bt: float, count: int) -> np.ndarray:
    """s_n = u^(n + 1/2) for n = 0 .. count-1; partial square sums converge to BT.

    ``count`` is an int (TypeError otherwise) of at least 1 (ValueError).
    """
    n = np.arange(_count(count, "count", 1))
    return mehler_u(float(bt)) ** (n + 0.5)


def _hermite_rows(x: np.ndarray, n_max: int) -> np.ndarray:
    """Orthonormal Hermite functions h_0..h_n_max on x (weight e^{-x^2/2} built in)."""
    rows = np.empty((n_max + 1, len(x)))
    rows[0] = np.pi**-0.25 * np.exp(-(x**2) / 2.0)
    if n_max >= 1:
        rows[1] = np.sqrt(2.0) * x * rows[0]
    for k in range(2, n_max + 1):
        rows[k] = np.sqrt(2.0 / k) * x * rows[k - 1] - np.sqrt((k - 1) / k) * rows[k - 2]
    return rows


def hermite_gaussian_mode_set(
    spec: GaussianSif, axis: Axis | None, count: int, side: str
) -> tuple[SampledSignal, ...]:
    """Closed-form Schmidt modes 0..count-1 of one side, sampled on ``axis``.

    ``side`` is "input" or "output".  On a frequency axis mode n is
    sqrt(2 pi / a) * h_n(w / a) with a the side's width scale; on a time axis
    the same functions acquire the inverse-transform factor (-i)^n.  Modes are
    unit-norm under the axis measure.  ``axis`` None is the time axis of 4097
    points on +-(sqrt(2 n + 1) + 6) / a, n = count - 1; a width scale a so
    small that this span leaves the float range raises ``ResolutionError``.
    ``count`` is an int (TypeError otherwise) of at least 1 (ValueError).
    The recurrence is stable to n = 60; a higher mode index raises
    ``ResolutionError``.
    """
    if side not in ("input", "output"):
        raise ValueError("side must be 'input' or 'output'")
    count = _count(count, "count", 1)
    if count - 1 > 60:
        raise ResolutionError("Hermite recurrence overflow guard: mode index above 60")
    scale_w = spec.alpha if side == "input" else spec.beta
    if axis is None:
        with np.errstate(over="ignore"):  # a vanishing scale_w: refused below
            half = (np.sqrt(2.0 * count - 1.0) + 6.0) / scale_w
        if not np.isfinite(half):
            raise ResolutionError(
                f"the {side} modes' width scale {scale_w:.3g} is too small: their "
                "default time axis would reach past the float range"
            )
        axis = SampledAxis(-half, 2.0 * half / 4096, 4097, Domain.TIME)
    pts = axis.points
    if axis.domain is Domain.ANGULAR_FREQUENCY:
        half_span_needed = 6.0 * scale_w
        rows = _hermite_rows(pts / scale_w, count - 1)
        rows = rows * np.sqrt(2.0 * np.pi / scale_w)
        phases = np.ones(count, dtype=complex)
    else:
        # inverse transform of sqrt(2 pi / a) h_n(w / a) is sqrt(a) (-i)^n h_n(a t)
        half_span_needed = 6.0 / scale_w
        rows = _hermite_rows(pts * scale_w, count - 1)
        rows = rows * np.sqrt(scale_w)
        phases = (-1j) ** np.arange(count)
    if pts[0] > -half_span_needed or pts[-1] < half_span_needed:
        raise ValueError(
            f"axis must span at least +-{half_span_needed:g} to hold these modes"
        )
    out = []
    for n in range(count):
        vals = phases[n] * rows[n].astype(complex)
        sig = SampledSignal(axis, vals)
        nrm = sig.norm()
        if abs(nrm - 1.0) > 1e-6:
            raise ValueError(
                f"axis does not resolve mode {n} (norm {nrm:.6f}); widen or refine the grid"
            )
        out.append(SampledSignal(axis, vals / nrm))
    return tuple(out)


def gaussian_tradeoff(bt: float | np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(efficiency, discriminativity) for the Gaussian pair: (u, 1 - u^2).

    Scalar in, scalars out; array in, arrays out.  The discriminativity is
    formed as u / BT, which equals 1 - u^2 because u / (1 - u^2) = BT, without
    the cancellation of 1 - u^2 as u nears 1: it stays within 2 ulp for
    every positive BT, and discriminativity * BT = efficiency to rounding.
    """
    bts = np.asarray(bt, dtype=float)
    eta = mehler_u(bts)
    xi = eta / bts
    if np.ndim(bt) == 0:
        return float(eta), float(xi)
    return eta, xi
