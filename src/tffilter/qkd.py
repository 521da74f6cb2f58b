"""Entanglement-based (BBM92) key rates behind a time-frequency filter.

Background light that survives the filter mixes a noise floor into the
heralded two-qubit state.  Only one scalar of that state matters here: the
weight w = (1 + n_y / xi)^(-2) of its entangled component, where n_y is the
channel-scaled noise density and xi the filter's discriminativity.  The error
rate and the distillable-rate bracket follow as

    QBER = (1 - w) / 2,
    rate / (R_S tau_ch^2) = eta^2 (1 + n_y / xi)^2 max(0, 1 - 2 H(QBER)),

with H the binary entropy.  The bracket's root sits at QBER ~ 0.110028; past
it no key can be distilled and the rate clamps to zero.  The (1 + n_y/xi)^2
prefactor is the coincidence-probability inflation from noise counts.

A filter family enters only through its efficiency-vs-discriminativity
characteristic, a ``FilterCharacteristic``: one curve t -> (eta, xi) in the
family's own parameter t.  Optimizing the rate along that curve gives the
family's best operating point at each noise level; a fixed operating point,
such as a quantum pulse gate's, is a curve of one point and runs the same
optimizer.  Every range check here refuses NaN.  The brick-wall curve is
read exactly off the prolate solver: eta = beta_0(c), xi = pi beta_0 / (2 c)
for 1e-3 <= c <= 17, with beta_0 from ``slepian.ground_concentration`` and
its inverse c(eta) from ``slepian.ground_parameter``.  Its saturated end
comes from the concentration complement, so the upper end of the curve,
1 - 4.87e-14, is fixed to the last bit.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from . import _EXPORTS
from .metrics import QPG_REFERENCE_POINTS
from .slepian import GROUND_C_RANGE, ground_parameter, ground_range, slepian_tradeoff

__all__ = _EXPORTS["qkd"]


def binary_entropy(x: float | np.ndarray) -> float | np.ndarray:
    """H(x) = -x log2 x - (1-x) log2(1-x), with H(0) = H(1) = 0 by continuity."""
    arr = np.asarray(x, dtype=float)
    if not np.all((arr >= 0) & (arr <= 1)):
        raise ValueError("binary entropy argument must lie in [0, 1]")
    out = np.zeros_like(arr)
    inner = (arr > 0) & (arr < 1)
    p = arr[inner]
    out[inner] = -p * np.log2(p) - (1.0 - p) * np.log2(1.0 - p)
    return float(out) if np.ndim(x) == 0 else out


# the root of the bracket 1 - 2 H(q) on (0, 1/2), to the last bit: bisection
# of the bracket in float64 stops moving here (tests/test_qkd.py re-solves it)
QBER_THRESHOLD = 0.11002786443835955

# the efficiency grid that FilterCharacteristic.grid_points samples a curve on
ETA_GRID = np.linspace(0.005, 0.995, 199)
ETA_GRID.flags.writeable = False


def qber(n_y: float | np.ndarray, xi: float | np.ndarray) -> float | np.ndarray:
    """Quantum bit error rate at scaled noise n_y behind a filter with
    discriminativity xi: half of one minus the entangled-state weight."""
    n = np.asarray(n_y, dtype=float)
    x = np.asarray(xi, dtype=float)
    if not np.all(n >= 0):
        raise ValueError("n_y must be nonnegative")
    if not np.all((x > 0) & (x <= 1)):
        raise ValueError("xi must lie in (0, 1]")
    # products, not **: NumPy powers a scalar and an array by different
    # routines, and a point must get the same bits alone and in an array
    with np.errstate(over="ignore"):  # n_y / xi past the float range: QBER 1/2
        y = 1.0 + n / x
        out = 0.5 * (1.0 - 1.0 / (y * y))
    return float(out) if np.ndim(out) == 0 else out


def normalized_key_rate(
    eta: float | np.ndarray, xi: float | np.ndarray, n_y: float | np.ndarray
) -> float | np.ndarray:
    """Key rate in units of R_S tau_ch^2, exactly zero past the QBER threshold.

    The inflation (1 + n_y / xi)^2 is only formed where the bracket is
    positive (QBER below the threshold, so 1 + n_y / xi < 1.13); elsewhere it
    is set to zero, so a noise level whose inflation would overflow gives a
    rate of 0, not inf * 0.
    """
    e = np.asarray(eta, dtype=float)
    if not np.all((e > 0) & (e <= 1)):
        raise ValueError("eta must lie in (0, 1]")
    q = qber(n_y, xi)
    x = np.asarray(xi, dtype=float)
    n = np.asarray(n_y, dtype=float)
    bracket = 1.0 - 2.0 * binary_entropy(q)
    with np.errstate(over="ignore"):
        inflation = np.where(bracket > 0.0, 1.0 + n / x, 0.0)
    out = (e * e) * (inflation * inflation) * np.maximum(0.0, bracket)
    return float(out) if np.ndim(out) == 0 else out


@dataclass(frozen=True, eq=False)
class FilterCharacteristic:
    """A filter family as one curve t -> (eta, xi) in its own parameter t.

    ``t_range`` is the closed t interval and ``scan`` the t grid that
    ``optimize_over_efficiency`` scans once; ``point(t)`` is (eta, xi) on an
    array of t; ``eta_range()`` is the efficiency ``domain()``; ``inverse`` is
    xi(eta) on an array, raising ``ValueError`` off the curve.  The instances
    are ``gaussian()`` (t = eta), ``slepian()`` (t = ln c) and
    ``fixed_point(eta, xi)``, a curve of one point (t = eta on [eta, eta]);
    a new family is one more constructor.
    """

    t_range: tuple[float, float]
    scan: np.ndarray
    point: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]
    eta_range: Callable[[], tuple[float, float]]
    inverse: Callable[[np.ndarray], np.ndarray]

    @classmethod
    def gaussian(cls) -> "FilterCharacteristic":
        def xi(e):
            if not np.all((e > 0) & (e < 1)):
                raise ValueError("gaussian characteristic needs eta in (0, 1)")
            return (1.0 - e) * (1.0 + e)  # 1 - eta^2 without its cancellation near eta = 1

        grid = np.arange(1e-3, 1.0, 1e-3)
        return cls((1e-3, 1.0 - 1e-9), grid, lambda t: (t, xi(t)), lambda: (0.0, 1.0), xi)

    @classmethod
    def slepian(cls) -> "FilterCharacteristic":
        """The brick-wall curve in t = ln c over the prolate clamp, scanned at
        200 points; its domain is ``slepian.ground_range()``, (beta_0(1e-3),
        beta_0(17)) = (6.366e-4, 1 - 4.87e-14), the upper end read off the
        complement."""

        def xi(e):
            lo, hi = ground_range()
            # the solver's own beta_0 near c = 17 can read a few ulp above hi: the clamp
            if not np.all((e >= lo) & (e <= hi + 16.0 * np.spacing(hi))):
                raise ValueError(f"slepian characteristic covers eta in [{lo:.3g}, {hi:.3g}]")
            return 0.5 * np.pi * e / ground_parameter(e)  # xi = beta_0 / BT = pi beta_0 / (2 c)

        def point(t):  # t = ln c
            return slepian_tradeoff(np.exp(t) / (0.5 * np.pi))

        lo, hi = np.log(GROUND_C_RANGE)
        return cls((lo, hi), np.linspace(lo, hi, 200), point, ground_range, xi)

    @classmethod
    def fixed_point(cls, eta: float, xi: float) -> "FilterCharacteristic":
        if not (0 < eta <= 1 and 0 < xi <= 1):
            raise ValueError("fixed point (eta, xi) must lie in (0, 1]^2")
        eta, xi = float(eta), float(xi)

        def xi_at(e):
            if not np.all(np.abs(e - eta) <= 1e-12):
                raise ValueError("fixed-point characteristic is defined at one eta only")
            return np.full_like(e, xi)

        return cls((eta, eta), np.array([eta]), lambda t: (t, xi_at(t)), lambda: (eta, eta), xi_at)

    def domain(self) -> tuple[float, float]:
        """The efficiency range the curve covers, (eta, eta) for a fixed point."""
        return self.eta_range()

    def xi_of(self, eta: float | np.ndarray) -> float | np.ndarray:
        out = self.inverse(np.asarray(eta, dtype=float))
        return float(out) if np.ndim(eta) == 0 else out

    def grid_points(self) -> tuple[np.ndarray, np.ndarray]:
        """(etas, xis) the key-rate grid is evaluated at: ``ETA_GRID`` clipped
        to ``domain()``, each point once, so a fixed point gives itself."""
        # the clip of the ascending ETA_GRID ascends, so its repeats are adjacent;
        # np.unique would import numpy.ma, about 10 ms of a cold command
        etas = np.clip(ETA_GRID, *self.domain())
        etas = etas[np.append(True, etas[1:] != etas[:-1])]
        return etas, np.atleast_1d(self.xi_of(etas))

    def rate(self, eta: float | np.ndarray, n_y: float) -> float | np.ndarray:
        return normalized_key_rate(eta, self.xi_of(eta), n_y)


@dataclass(frozen=True)
class OptimizationResult:
    eta: float
    rate: float
    no_key: bool


_GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0


def optimize_over_efficiency(
    fc: FilterCharacteristic, n_y: float | np.ndarray
) -> OptimizationResult | tuple[OptimizationResult, ...]:
    """Best (eta, rate) along a family's curve at noise level n_y.

    Every curve, a fixed point included, runs the one path.  The curve is
    scanned once on its ``scan`` grid in t and the scan serves every n_y:
    the gaussian curve at 1e-3 spacing in eta, the slepian one at 200 points
    in ln c over the prolate clamp [1e-3, 17], a fixed point at its one
    point.  Each n_y then refines the scan points either side of its best one
    (or the ends of ``t_range``) by golden-section search to 1e-6 in t, and
    keeps an end of that bracket if it beats the interior optimum (the
    noiseless optimum rides the domain edge).  All n_y are refined in
    lockstep: each golden step evaluates the curve once, on the array of
    every n_y's probe, so the cost follows the number of steps, not the
    number of noise levels.  Each n_y's result is the one it gets on its
    own.  An n_y whose scan is all zero gets rate 0 with the no_key flag set,
    at eta 0 on a curve and at the point's own eta on a one-point curve; so
    a fixed point returns itself at its rate, with no_key set exactly where
    that rate is 0.  A scalar n_y gives one result, a 1-D array a tuple of
    them.
    """
    nys = np.asarray(n_y, dtype=float)
    if nys.ndim > 1:
        raise ValueError("n_y must be a scalar or a 1-D array")
    if not np.all(nys >= 0):
        raise ValueError("n_y must be nonnegative")
    lanes = np.atleast_1d(nys)
    scan = normalized_key_rate(*fc.point(fc.scan), lanes[:, None])
    keyed = np.any(scan > 0.0, axis=1)
    eta_lo, eta_hi = fc.domain()  # a key-less lane: eta 0, or a one-point curve's own eta
    eta_star = np.full(len(lanes), eta_lo if eta_lo == eta_hi else 0.0)
    rate_star = np.zeros(len(lanes))
    if np.any(keyed):
        # the scan points either side of the best one, or the ends of t_range
        best = np.argmax(scan[keyed], axis=1)
        ends = np.r_[fc.t_range[0], fc.scan, fc.t_range[1]]
        eta_star[keyed], rate_star[keyed] = _golden_lockstep(
            fc.point, lanes[keyed], ends[best], ends[best + 2]
        )
    results = tuple(
        OptimizationResult(float(e), float(r), not k)
        for e, r, k in zip(eta_star, rate_star, keyed.tolist())
    )
    return results if nys.ndim else results[0]


def _golden_lockstep(point, ny: np.ndarray, bra: np.ndarray, ket: np.ndarray):
    """Golden-section maximum of the rate along ``point`` on [bra_i, ket_i] at
    noise ny_i, every i in lockstep, each bracket narrowed to 1e-6; returns
    (eta*, rate*) per i."""

    def rate(t, n_y):
        eta, xi = point(t)
        return eta, normalized_key_rate(eta, xi, n_y)

    m = len(ny)
    a, b = bra.copy(), ket.copy()
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = np.split(rate(np.r_[c, d], np.tile(ny, 2))[1], 2)
    while np.any(live := b - a > 1e-6):
        left = live & (fc >= fd)
        right = live & ~left
        b[left], d[left], fd[left] = d[left], c[left], fc[left]
        a[right], c[right], fc[right] = c[right], d[right], fd[right]
        c[left] = b[left] - _GOLDEN * (b[left] - a[left])
        d[right] = a[right] + _GOLDEN * (b[right] - a[right])
        new = np.empty(m)
        new[live] = rate(np.where(left, c, d)[live], ny[live])[1]
        fc[left], fd[right] = new[left], new[right]
    # the interior optimum, then the bracket ends, which win where the optimum
    # rides the domain edge
    cands = np.stack([0.5 * (a + b), bra, ket])
    etas, rates = (v.reshape(3, m) for v in rate(cands.ravel(), np.tile(ny, 3)))
    lane = np.arange(m)
    pick = np.zeros(m, dtype=int)
    for k in (1, 2):
        pick = np.where(rates[k] > rates[pick, lane], k, pick)
    return etas[pick, lane], rates[pick, lane]


@dataclass(frozen=True)
class QkdScenario:
    """Physical link parameters wrapping the normalized rate.

    noise_psd_photons is the background density N_y in photons per
    time-bandwidth unit; the channel scales it to n_y = N_y / tau_ch.  The
    model linearizes in the background, so runs with mean background per
    detection slot N_y eta / xi above 0.1 raise the regime flag.
    """

    channel_transmission: float
    noise_psd_photons: float
    source_rate: float

    def __post_init__(self) -> None:
        if not (0 < self.channel_transmission <= 1):
            raise ValueError("channel transmission must lie in (0, 1]")
        if not self.noise_psd_photons >= 0:
            raise ValueError("noise density must be nonnegative")
        if not self.source_rate > 0:
            raise ValueError("source rate must be positive")

    @property
    def n_y(self) -> float:
        return self.noise_psd_photons / self.channel_transmission

    def background_per_slot(self, eta: float, xi: float) -> float:
        return self.noise_psd_photons * eta / xi

    def regime_flag(self, eta: float, xi: float) -> bool:
        """True when the linear-background model is being stretched."""
        return self.background_per_slot(eta, xi) > 0.1

    def absolute_rate(self, eta: float, xi: float) -> float:
        """Key rate in pairs/s: R_S tau_ch^2 times the normalized rate."""
        return (
            self.source_rate
            * self.channel_transmission**2
            * normalized_key_rate(eta, xi, self.n_y)
        )