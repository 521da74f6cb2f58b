"""Rectangular (ideal brick-wall) filters and prolate spheroidal mode theory.

An ideal band window of full width 2*Omega composed with an ideal time gate of
full width 2*tau has Schmidt modes given by prolate spheroidal wave functions
with time-bandwidth parameter c = Omega * tau.  In normalized coordinates the
gate-side modes solve

    integral_{-1}^{1} sin(c (x - y)) / (pi (x - y)) phi(y) dy = beta phi(x)

with concentration eigenvalues 1 > beta_0 > beta_1 > ... > 0 summing to
2 c / pi.  The filter's singular values are sqrt(beta_n); the window-side
modes are the band-limited extensions of the gate-side ones, and the two sets
are doubly orthogonal: orthogonal over the gate interval and over the full
line simultaneously.  Both brick walls are one class,
``RectangularProfile(width, domain)``: 1 inside an edge of pi B on frequency
and of T / 2 on time.

The solver diagonalizes the commuting prolate differential operator in a
Legendre basis (spectrally accurate), one dense NumPy ``eigh`` per parity
block (on one BLAS thread under :func:`tffilter.core._lapack`, the rule of
every dense factorization), and reads each concentration off the Legendre
coefficients of its mode, through the finite-Fourier eigenvalue relation
(Xiao, Rokhlin & Yarvin 2001), so a concentration costs no quadrature.
Gauss-Legendre quadrature is built only when a mode is extended off the
interval, transformed, or checked for double orthogonality.  No SciPy routine
is called here.

Near saturation 1 - beta_0 is formed by cancellation, and the few ulp of
rounding noise in beta_0 become most of it: 1 - beta_0(17) = 4.88e-14 is
about 440 ulp of beta_0.  ``concentration_complement`` computes 1 - beta_0
directly, by integrating the closed-form slope d beta_0 / d ln c from c to
infinity, for a scalar or an array of c, and ``ground_concentration``, the
brick-wall efficiency curve that ``slepian_tradeoff`` and ``qkd`` read,
switches to it at c = 5.6.  ``ground_parameter`` inverts that curve for
``qkd``, every point of an array in lockstep.

The independent cross-check shares no code with the solver: ``decompose_filter``
on a ``rectangular_sif`` factors the Gauss-Legendre Nystrom matrix of the
filter kernel itself.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from .core import (
    ConvergenceError,
    Domain,
    ResolutionError,
    SampledAxis,
    SampledSignal,
    Sif,
    StageOrder,
    StageProfile,
    _lapack,
    _legendre_rule,
)

__all__ = [
    "RectangularProfile",
    "RectangularSif",
    "rectangular_sif",
    "PswfSolution",
    "pswf_solve_legendre",
    "interval_gram",
    "full_line_gram",
    "slepian_singular_values",
    "slepian_filter_modes",
    "rectangular_filter_modes",
    "slepian_tradeoff",
    "concentration_complement",
    "ground_concentration",
    "ground_range",
    "ground_parameter",
]

BETA_FLOOR = 1e-14  # below this a concentration eigenvalue is numerically unresolvable
BASIS_LIMIT = 4096  # largest Legendre basis a prolate solve may build (c up to about 4000)
QUADRATURE_LIMIT = 6240  # largest Gauss-Legendre rule a prolate mode may build (c up to 500)


def _indicator(x: np.ndarray, half_width: float) -> np.ndarray:
    """1 inside (-a, a), 0 outside, exactly 1/2 on the jump (relative tol 1e-12)."""
    ax = np.abs(np.asarray(x, dtype=float))
    tol = 1e-12 * half_width
    out = np.where(ax <= half_width - tol, 1.0, 0.0)
    return np.where(np.abs(ax - half_width) <= tol, 0.5, out)


def _sinc_kernel(x: np.ndarray, y: np.ndarray, c: float) -> np.ndarray:
    """sin(c (x - y)) / (pi (x - y)); np.sinc supplies the x=y limit c/pi."""
    d = np.subtract.outer(np.asarray(x, float), np.asarray(y, float))
    return (c / np.pi) * np.sinc(c * d / np.pi)


class RectangularProfile(StageProfile):
    """Brick wall: 1 on (-edge, edge), so integral |p|^2 is exactly ``width``.

    On frequency the edge is the cutoff pi B of a band window of bandwidth B;
    on time it is the half-width T / 2 of a gate of duration T.
    """

    compact = True
    even = True

    def __init__(self, width: float, domain: Domain) -> None:
        super().__init__(width, domain)
        self.edge = 0.5 * self.width if self.domain is Domain.TIME else np.pi * self.width

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return _indicator(x, self.edge)

    def support(self, tol: float) -> float:
        return self.edge


@dataclass(frozen=True)
class RectangularSif(Sif):
    """Brick-wall + brick-wall sequential filter."""

    @property
    def cutoff_rad(self) -> float:
        return self.spectral.edge

    @property
    def tau_half(self) -> float:
        return self.temporal.edge

    @property
    def c(self) -> float:
        """Prolate time-bandwidth parameter: cutoff * half-width = (pi / 2) B T."""
        return self.spectral.edge * self.temporal.edge


def rectangular_sif(
    bandwidth_hz: float,
    duration_s: float,
    order: StageOrder = StageOrder.FREQUENCY_FIRST,
) -> RectangularSif:
    return RectangularSif(
        RectangularProfile(bandwidth_hz, Domain.ANGULAR_FREQUENCY),
        RectangularProfile(duration_s, Domain.TIME),
        order,
    )


# ---------------------------------------------------------------------------
# prolate spheroidal solvers (normalized coordinates: gate interval [-1, 1])


def _normalized_legendre(x: np.ndarray, size: int) -> np.ndarray:
    """sqrt(k + 1/2) P_k(x) for k < size, one row per point: the unit-norm basis on [-1, 1]."""
    return np.polynomial.legendre.legvander(x, size - 1) * np.sqrt(np.arange(size) + 0.5)


class PswfSolution:
    """Prolate modes of the sinc kernel at parameter ``c``, interval [-1, 1].

    ``eigenvalues[n]`` is the concentration beta_n.  ``evaluate(n, x)``
    returns the interval-normalized mode (unit norm on [-1, 1]) at arbitrary
    real x, extended beyond the interval by the band-limited eigenfunction
    identity phi(x) = (1/beta) integral K(x, y) phi(y) dy.  The full-line
    normalized function is sqrt(beta_n) * evaluate(n, x); see
    `slepian_filter_modes` for its samples.  Signs make the coefficient of the
    degree-n normalized Legendre polynomial in mode n positive.

    The ``quad_points``-node (240 + 12 c) Gauss-Legendre rule and the mode
    samples on it are built on first use, by the off-interval extension, the
    finite transform and the two Gram checks; eigenvalues, on-interval values
    and ``log_slope`` never need them.  Above c = 500 the rule exceeds
    ``QUADRATURE_LIMIT`` and those uses raise ``ResolutionError``.

    ``resolvable_count`` reports how many leading eigenvalues sit above the
    1e-14 floor where the eigensolver output is meaningful; entries beyond it
    are kept for shape but are numerical noise.

    A mode index n outside 0 .. n_modes - 1 raises ``ValueError``.
    """

    def __init__(self, c: float, eigenvalues: np.ndarray, legendre_coeffs: np.ndarray) -> None:
        self.c = float(c)
        self.eigenvalues = np.asarray(eigenvalues, dtype=float)
        self._coeffs = legendre_coeffs  # shape (n_modes, basis size)
        self.quad_points = 240 + int(12 * c)
        self.resolvable_count = int(np.sum(self.eigenvalues >= BETA_FLOOR))

    @cached_property
    def _quadrature(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Nodes on [-1, 1], weights, and mode samples at the nodes (n_modes, M).

        A rule above ``QUADRATURE_LIMIT`` nodes raises ``ResolutionError``
        before anything is built: its Legendre samples and the kernels
        against it would not fit in memory.
        """
        if self.quad_points > QUADRATURE_LIMIT:
            raise ResolutionError(
                f"c = {self.c:g} needs a {self.quad_points}-node quadrature, above the "
                f"{QUADRATURE_LIMIT}-node limit of the prolate modes off the gate interval"
            )
        qx, qw = _legendre_rule(self.quad_points)
        return qx, qw, self._coeffs @ _normalized_legendre(qx, self._coeffs.shape[1]).T

    @property
    def n_modes(self) -> int:
        return len(self.eigenvalues)

    def _check_mode(self, n: int) -> None:
        if not (0 <= n < self.n_modes):
            raise ValueError("mode index out of range")

    def evaluate(self, n: int, x: np.ndarray) -> np.ndarray:
        """Interval-normalized mode n at arbitrary real points."""
        self._check_mode(n)
        pts = np.atleast_1d(np.asarray(x, dtype=float))
        out = np.empty(pts.shape)
        inside = np.abs(pts) <= 1.0
        if np.any(inside):
            coeff = self._coeffs[n]
            out[inside] = _normalized_legendre(pts[inside], len(coeff)) @ coeff
        todo = ~inside
        if np.any(todo):
            if self.eigenvalues[n] < BETA_FLOOR:
                raise ValueError(
                    f"mode {n} concentration below {BETA_FLOOR:g}; extension undefined"
                )
            qx, qw, qs = self._quadrature
            kern = _sinc_kernel(pts[todo], qx, self.c)
            out[todo] = (kern @ (qw * qs[n])) / self.eigenvalues[n]
        return out.reshape(np.shape(x)) if np.ndim(x) else float(out[0])

    def finite_transform(self, n: int, xi: np.ndarray) -> np.ndarray:
        """g_n(xi) = integral_{-1}^{1} exp(i c xi x) phi_n(x) dx."""
        self._check_mode(n)
        pts = np.atleast_1d(np.asarray(xi, dtype=float))
        qx, qw, qs = self._quadrature
        kern = np.exp(1j * self.c * np.outer(pts, qx))
        vals = kern @ (qw * qs[n])
        return vals.reshape(np.shape(xi)) if np.ndim(xi) else complex(vals[0])

    def log_slope(self, n: int) -> float:
        """d beta_n / d ln c = 2 beta_n phi_n(1)^2 for the interval-normalized mode,
        read off the Legendre coefficients (see ``_log_slopes``)."""
        self._check_mode(n)
        return float(_log_slopes(self.eigenvalues[n], self._coeffs[n]))


class _LegendreTables(NamedTuple):
    """The c-free factors of the prolate operator and of the mode read-outs in a
    normalized Legendre basis: the operator's diagonal is k_k1 + c^2 diag_c2 and
    its k<->k+2 coupling c^2 off_c2; at0_even, at0_odd and at1 are sqrt(k + 1/2)
    times P_k(0), P_k'(0) and P_k(1) = 1."""

    k_k1: np.ndarray
    diag_c2: np.ndarray
    off_c2: np.ndarray
    at0_even: np.ndarray
    at0_odd: np.ndarray
    at1: np.ndarray


@lru_cache(maxsize=256)
def _legendre_tables(size: int) -> _LegendreTables:
    """The tables for a basis of ``size`` terms, shared between solves."""
    k = np.arange(size, dtype=float)
    kk = k[:-2]
    step = k[: size - 2 : 2]
    p_at0 = np.zeros(size)  # P_k(0), from P_{k+2}(0) = -(k+1)/(k+2) P_k(0)
    p_at0[0::2] = np.cumprod(np.r_[1.0, -(step + 1) / (step + 2)])
    dp_at0 = np.zeros(size)  # P_k'(0) = k P_{k-1}(0)
    dp_at0[1:] = k[1:] * p_at0[:-1]
    scale = np.sqrt(k + 0.5)
    tables = _LegendreTables(
        k * (k + 1),
        (k + 1) ** 2 / ((2 * k + 1) * (2 * k + 3)) + k**2 / ((2 * k + 1) * (2 * k - 1)),
        (kk + 2) * (kk + 1) / ((2 * kk + 3) * np.sqrt((2 * kk + 1) * (2 * kk + 5))),
        scale * p_at0,
        scale * dp_at0,
        scale,
    )
    for t in tables:
        t.flags.writeable = False
    return tables


def _legendre_blocks(c: float | np.ndarray, size: int) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal and k<->k+2 coupling of the prolate operator in normalized Legendre.

    An array ``c`` gives one row of each per value, for a stacked eigensolve.
    A basis above ``BASIS_LIMIT`` terms raises ``ResolutionError`` before
    anything is built: its dense parity blocks would not fit in memory.
    """
    if size > BASIS_LIMIT:  # an exact int, possibly past the float range
        from decimal import Decimal

        raise ResolutionError(
            f"a {Decimal(size):.16g}-term Legendre basis is above the {BASIS_LIMIT}-term "
            "limit of the prolate solver"
        )
    tables = _legendre_tables(size)
    c2 = np.asarray(c, dtype=float)[..., None] ** 2
    return tables.k_k1 + c2 * tables.diag_c2, c2 * tables.off_c2


def _concentrations(c: float | np.ndarray, coeffs: np.ndarray, odd: np.ndarray) -> np.ndarray:
    """beta_n from the normalized Legendre coefficients of mode n, no quadrature.

    F_c phi_n = mu_n phi_n with F_c phi(x) = integral_{-1}^{1} exp(i c x t) phi(t) dt,
    and beta_n = c |mu_n|^2 / (2 pi).  At x = 0 only the k = 0 term of an even mode
    survives the integral, and the derivative at 0 keeps only k = 1 of an odd one:
    beta_n = c d_n0^2 / (pi phi_n(0)^2) or c^3 d_n1^2 / (3 pi phi_n'(0)^2).
    ``odd`` flags the odd rows; ``c`` broadcasts against the leading axes of
    ``coeffs``.  Each row is summed on its own, so a mode's value does not
    depend on what else is stacked with it.
    """
    tables = _legendre_tables(coeffs.shape[-1])
    at0 = (coeffs * np.where(odd[:, None], tables.at0_odd, tables.at0_even)).sum(axis=-1)
    lead = np.where(odd, coeffs[..., 1], coeffs[..., 0])
    factor = np.where(odd, c**3 / (3.0 * np.pi), c / np.pi)
    return factor * lead**2 / at0**2


def _log_slopes(betas: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """d beta_n / d ln c = 2 beta_n phi_n(1)^2, one mode per row of ``coeffs``.

    P_k(1) = 1 puts phi_n(1) = sum_k d_nk sqrt(k + 1/2) in the Legendre
    coefficients, so the slope needs neither quadrature nor evaluation.
    """
    edge = (coeffs * _legendre_tables(coeffs.shape[-1]).at1).sum(axis=-1)
    return 2.0 * betas * edge**2


def _tridiagonal(d: np.ndarray, e: np.ndarray) -> np.ndarray:
    """Dense symmetric tridiagonal matrices, stacked along the leading axes of d and e."""
    m = d.shape[-1]
    i = np.arange(m)
    t = np.zeros(d.shape + (m,))
    t[..., i, i] = d
    t[..., i[1:], i[:-1]] = e
    t[..., i[:-1], i[1:]] = e
    return t


def _lowest_eigenpairs(d: np.ndarray, e: np.ndarray, want: int) -> tuple[np.ndarray, np.ndarray]:
    """The ``want`` smallest eigenpairs of the symmetric tridiagonal (d, e), ascending.

    One dense ``np.linalg.eigh`` (LAPACK ``syevd``) of the block, under
    :func:`tffilter.core._lapack`.  Leading axes of ``d`` and ``e`` stack
    independent blocks into that one call.  A LAPACK failure raises
    ``ConvergenceError``.
    """
    with _lapack("tridiagonal eigensolve"):
        vals, vecs = np.linalg.eigh(_tridiagonal(d, e))
    return vals[..., :want], vecs[..., :want]


def _basis_captured(coeffs: np.ndarray) -> np.ndarray:
    """The two trailing Legendre coefficients of every row are below 1e-12 of its head,
    one verdict per stack of rows (the leading axes of ``coeffs``)."""
    mag = np.abs(coeffs)
    return (mag[..., -2:].max(axis=-1) / mag.max(axis=-1) < 1e-12).all(axis=-1)


def _basis_size(c: float, n_max: int) -> int:
    """The Legendre basis size for modes 0 .. n_max at parameter c: int(c) +
    2 n_max + 24 terms.  For c from 1e-6 to 3900 and n_max up to 60 it passes
    the capture test, and its parity blocks' eigenvalues interleave strictly
    (tests/test_slepian.py checks c up to 1000); c = 4000 at n_max 60 is
    above ``BASIS_LIMIT``.  A c past the float range raises
    ``ResolutionError``, as ``BASIS_LIMIT`` would."""
    if not np.isfinite(c):
        raise ResolutionError(
            "a prolate parameter c past the float range needs a basis above the "
            f"{BASIS_LIMIT}-term limit of the prolate solver"
        )
    return int(c) + 2 * n_max + 24


def _solve_stacked(cs: np.ndarray, n_max: int) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Concentrations and Legendre coefficients of modes 0 .. n_max for every c in ``cs``.

    Points that share a basis size (``_basis_size``) are solved as one stack:
    one dense eigensolve per parity block (``_lowest_eigenpairs``), mode n
    being eigenpair n // 2 of the block of its parity (Sturm-Liouville
    ordering: the even and odd eigenvalues interleave).  A stack whose modes
    the basis does not capture raises ``ConvergenceError``.  Returns (index
    into cs, betas, coeffs) per stack, betas of shape (k, n_max + 1) and
    coeffs (k, n_max + 1, size), modes in ascending order, signs making
    coefficient n of mode n positive.  Every step acts on each point alone,
    so a point's values do not depend on what else is in ``cs``.
    """
    modes = np.arange(n_max + 1)
    odd = modes % 2 == 1
    groups: dict[int, list[int]] = {}
    for i, c in enumerate(cs.tolist()):
        groups.setdefault(_basis_size(c, n_max), []).append(i)
    out = []
    for size, members in groups.items():
        idx = np.array(members)
        diag, off = _legendre_blocks(cs[idx], size)
        coeffs = np.zeros((len(idx), n_max + 1, size))
        for parity in (0, 1):
            want = (n_max + 2 - parity) // 2
            if want:
                # the k <-> k+2 couplings of a parity block are one fewer than its terms
                _, vecs = _lowest_eigenpairs(diag[:, parity::2], off[:, parity::2], want)
                coeffs[:, parity::2, parity::2] = np.swapaxes(vecs, 1, 2)
        if not _basis_captured(coeffs).all():
            raise ConvergenceError("Legendre basis did not capture the requested prolate modes")
        # sign convention: coefficient of the degree-n Legendre polynomial positive
        coeffs *= np.where(coeffs[:, modes, modes] < 0, -1.0, 1.0)[:, :, None]
        betas = np.clip(_concentrations(cs[idx, None], coeffs, odd), 0.0, 1.0)
        out.append((idx, betas, coeffs))
    return out


def pswf_solve_legendre(c: float, n_max: int) -> PswfSolution:
    """Prolate modes 0 .. ``n_max`` via the commuting operator in a Legendre basis.

    The operator is tridiagonal within each parity block, so eigenvectors come
    from one dense symmetric eigensolve per block (``_lowest_eigenpairs``) and
    are spectrally accurate.  Concentrations beta_n follow in closed form from
    the Legendre coefficients (see ``_concentrations``); the quadrature is
    built only when first needed.
    The basis has int(c) + 2 n_max + 24 terms (``_basis_size``); the two
    trailing Legendre coefficients of every requested mode must fall below
    1e-12 of the head, or ``ConvergenceError`` is raised.  This is
    ``_solve_stacked`` on a stack of one.
    An ``n_max`` above 60, or a basis above ``BASIS_LIMIT`` terms, raises
    ``ResolutionError``.
    """
    if not c > 0:  # NaN fails it too
        raise ValueError("c must be positive")
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    if n_max > 60:
        raise ResolutionError("prolate solver resolves mode indices up to 60 only")
    ((_, betas, coeffs),) = _solve_stacked(np.array([float(c)]), n_max)
    sol = PswfSolution(c, betas[0], coeffs[0])
    if sol.resolvable_count <= n_max:
        which = (
            f"concentrations beyond index {sol.resolvable_count - 1} are"
            if sol.resolvable_count
            else "every concentration from index 0 on is"
        )
        warnings.warn(
            f"{which} below {BETA_FLOOR:g} and numerically unresolvable", stacklevel=2
        )
    return sol


# the 12-node Gauss-Laguerre rule of the complement integral, in u = 2 (c' - c):
# np.polynomial.laguerre.laggauss(12) to the last bit (tests/test_slepian.py
# checks it), written out so that loading this module imports no numpy.polynomial
_LAGUERRE_NODES = np.array([
    0.1157221173580205, 0.6117574845151308, 1.512610269776419, 2.833751337743507,
    4.5992276394183484, 6.844525453115177, 9.621316842456867, 13.006054993306348,
    17.116855187462257, 22.151090379397004, 28.487967250984, 37.09912104446692,
])
_LAGUERRE_WEIGHTS = np.array([
    0.26473137105543654, 0.3777592758731421, 0.24408201131987906, 0.09044922221168182,
    0.020102381154634218, 0.0026639735418653335, 0.0002032315926630013,
    8.365055856819926e-06, 1.6684938765409212e-07, 1.342391030515004e-09,
    3.0616016350351023e-12, 8.148077467426094e-16,
])
_GROUND_SWITCH = 5.6  # ground_concentration reads the complement from here up
_GROUND_ONE = 21.0  # from here up 1 - beta_0 < 2^-54, so beta_0 rounds to 1
GROUND_C_RANGE = (1e-3, 17.0)  # the clamp on c of the brick-wall curve ground_parameter inverts


def concentration_complement(c: float | np.ndarray) -> float | np.ndarray:
    """1 - beta_0(c), without forming it from beta_0 by cancellation, for scalar or array c.

    beta_0 -> 1 as c -> infinity, so 1 - beta_0(c) is the integral of the
    closed-form slope, integral_c^inf log_slope(c') dc' / c'.  The integrand
    decays like exp(-2 c') (1 - beta_0 ~ 4 sqrt(pi c) exp(-2 c), Slepian
    1965), so a 12-node Gauss-Laguerre rule in u = 2 (c' - c) integrates it.
    The ground modes at the 12 nodes of every point come from one
    ``_solve_stacked`` call, each node on its own ``_basis_size(c', 0)``
    basis.  Against a 40-digit Nystrom oracle the result holds to 4.4e-14
    relative at c = 6, 1.0e-13 at c = 10, 1.1e-10 at c = 15 and 1.4e-9 at
    c = 17, where the direct 1 - beta_0 is off by 3e-3.  The rule is built
    for the saturated end: at c = 4 it still agrees with the direct
    1 - beta_0 to 4e-13, at c = 1 only to 4e-8.  Each point's 12 terms are
    summed on their own, so every value of an array is bit for bit that of a
    call on its c alone.  A c whose nodes need a basis above ``BASIS_LIMIT``
    terms, infinity included, raises ``ResolutionError``.
    """
    cs = np.asarray(c, dtype=float)
    flat = cs.ravel()
    if not np.all(flat > 0):
        raise ValueError("c must be positive")
    nodes = flat[:, None] + 0.5 * _LAGUERRE_NODES
    slopes = _ground_stacked(nodes.ravel())[1].reshape(nodes.shape)
    # integral e^{-u} g(u) du with g(u) = e^u log_slope(c') / (2 c'), one dot per point
    g = np.exp(_LAGUERRE_NODES) * slopes / (2.0 * nodes)
    out = np.array([_LAGUERRE_WEIGHTS @ row for row in g])
    return float(out[0]) if cs.ndim == 0 else out.reshape(cs.shape)


def ground_concentration(c: float | np.ndarray) -> float | np.ndarray:
    """beta_0(c), the brick-wall efficiency curve, for scalar or array c.

    Below c = 5.6 (1 - beta_0 = 2.1e-4) this is ``pswf_solve_legendre(c, 0)``'s
    beta_0, every such point of an array solved in one stack per basis size
    (``_solve_stacked``), bit for bit the value of a solve of its own.  From
    there up it is 1 - ``concentration_complement(c)``, the Laguerre nodes of
    every such point of an array in one more ``_solve_stacked`` call: the
    direct beta_0 carries a few ulp of rounding noise, up to 12, which near
    saturation is a large share of 1 - beta_0 and fixes c only to that noise
    over d beta_0 / d ln c (about 4e-14 per ulp at c = 5.6, 9e-14 at c = 6).
    The complement is smooth and decreasing, so this curve rises
    monotonically to its last bit.  At the switch the two readings differ by
    1 ulp.  From c = 21 up 1 - beta_0 < 2^-54 and the curve is exactly 1.
    """
    cs = np.asarray(c, dtype=float)
    flat = cs.ravel()
    if not np.all(flat > 0):
        raise ValueError("c must be positive")
    out = np.ones(flat.shape)
    low = np.flatnonzero(flat < _GROUND_SWITCH)
    out[low] = _ground_stacked(flat[low])[0]
    high = np.flatnonzero((flat >= _GROUND_SWITCH) & (flat < _GROUND_ONE))
    out[high] = 1.0 - concentration_complement(flat[high])
    return float(out[0]) if cs.ndim == 0 else out.reshape(cs.shape)


def _ground_stacked(cs: np.ndarray) -> np.ndarray:
    """Rows beta_0 and d beta_0 / d ln c at every c in ``cs``, from one
    ``_solve_stacked`` call, each bit for bit the value of ``pswf_solve_legendre(c, 0)``."""
    out = np.empty((2, len(cs)))
    for idx, betas, coeffs in _solve_stacked(cs, 0):
        out[:, idx] = betas[:, 0], _log_slopes(betas[:, 0], coeffs[:, 0])
    return out


@lru_cache(maxsize=1)
def ground_range() -> tuple[float, float]:
    """(beta_0(1e-3), beta_0(17)) = (6.366e-4, 1 - 4.87e-14): the efficiencies
    ``ground_parameter`` inverts, computed once per process."""
    lo, hi = ground_concentration(np.array(GROUND_C_RANGE))
    return float(lo), float(hi)


def ground_parameter(eta: float | np.ndarray) -> float | np.ndarray:
    """c in ``GROUND_C_RANGE`` with ground_concentration(c) = eta, scalar or array.

    Newton steps in ln c, starting at ln(pi eta / 2) and clipped to +-1 and to
    the clamp.  Below c = 5.6 a step solves beta_0 = eta on
    d beta_0 / d ln c; from there up it solves ln(1 - beta_0) = ln(1 - eta)
    on the concentration complement instead: both sides come without
    cancellation there (1 - eta is exact for eta >= 1/2), and ln(1 - beta_0)
    is nearly linear in c.  A point is done when its miss is within 4 ulp of
    eta, or of 1 - eta on the complement, or when the miss stops shrinking:
    a vanishing step, a step stuck at the clamp, or the complement's own
    noise.  Every point steps in lockstep and stops on its own: a step solves
    all of them in one ``_solve_stacked`` call, and the complement of those
    from c = 5.6 up, one ``concentration_complement`` call, in one more.  So
    each value is bit for bit the one it gets alone.  An eta outside (0, 1)
    raises ``ValueError``, 100 steps without a stop ``ConvergenceError``; an
    eta outside ``ground_range()`` ends at the clamp.
    """
    es = np.asarray(eta, dtype=float)
    flat = es.ravel()
    if not np.all((flat > 0.0) & (flat < 1.0)):
        raise ValueError("eta must lie in (0, 1)")
    t_lo, t_hi = np.log(GROUND_C_RANGE)
    t = np.clip(np.log(0.5 * np.pi * flat), t_lo, t_hi)
    best = np.full(flat.shape, np.inf)  # the smallest miss so far, at t_best
    t_best = t.copy()
    live = np.arange(flat.size)
    for _ in range(100):
        c = np.exp(t[live])
        e = flat[live]
        beta, slope = _ground_stacked(c)
        miss, tol, step = e - beta, 4.0 * np.spacing(e), (e - beta) / slope
        high = np.flatnonzero(c >= _GROUND_SWITCH)
        q = concentration_complement(c[high])
        r = 1.0 - e[high]
        miss[high], tol[high] = q - r, 4.0 * np.spacing(r)
        step[high] = np.log(q / r) * q / slope[high]
        miss = np.abs(miss)
        keep = miss < best[live]  # else the point ends at t_best
        best[live[keep]], t_best[live[keep]] = miss[keep], t[live[keep]]
        go = keep & (miss > tol)
        t[live[go]] = np.clip(t[live[go]] + np.clip(step[go], -1.0, 1.0), t_lo, t_hi)
        live = live[go]
        if not live.size:
            c = np.exp(t_best)
            return float(c[0]) if es.ndim == 0 else c.reshape(es.shape)
    raise ConvergenceError(f"no prolate parameter found for eta = {flat[live[0]]!r}")


def interval_gram(sol: PswfSolution) -> np.ndarray:
    """<Phi_m, Phi_n> over the gate interval for every full-line-normalized mode of ``sol``.

    Double orthogonality makes this diag(beta_n); computed with the native
    quadrature of the solution, so its diagonal checks the quadrature-free
    concentrations independently.
    """
    _, qw, qs = sol._quadrature
    s = qs * np.sqrt(sol.eigenvalues[:, None])
    return (s * qw[None, :]) @ s.T


def full_line_gram(sol: PswfSolution) -> np.ndarray:
    """<Phi_m, Phi_n> over the full line for every mode of ``sol``: the identity matrix.

    It is computed spectrally.  The band-limited extension of mode n has
    spectrum confined to the normalized band, where it is proportional to the
    finite Fourier transform g_n; Plancherel turns the full-line integral into
    a band integral,
    <Phi_m, Phi_n> = c / (2 pi sqrt(beta_m beta_n)) integral g_m* g_n dxi,
    so the 1/x interval tails never need quadrature.
    """
    xi, wxi = _legendre_rule(sol.quad_points + 64)
    g = np.empty((sol.n_modes, len(xi)), dtype=complex)
    for k in range(sol.n_modes):
        g[k] = sol.finite_transform(k, xi)
    gram = (g.conj() * wxi[None, :]) @ g.T * (sol.c / (2.0 * np.pi))
    # the normalization is undefined where beta has collapsed to the floor;
    # those entries come back nan rather than a warning storm
    with np.errstate(divide="ignore", invalid="ignore"):
        scale = 1.0 / np.sqrt(sol.eigenvalues)
        return gram * scale[:, None] * scale[None, :]


def slepian_singular_values(c: float, count: int) -> np.ndarray:
    """sqrt(beta_n) for n = 0 .. count-1 at prolate parameter ``c``."""
    return np.sqrt(pswf_solve_legendre(float(c), count - 1).eigenvalues[:count])


def slepian_filter_modes(sol: PswfSolution, n: int) -> tuple[SampledSignal, SampledSignal, float]:
    """(input mode, output mode, singular value) for pair n, window-first order.

    In normalized units the input mode is the full-line-normalized band-limited
    prolate and the output mode is its interval restriction renormalized to
    unit norm on the gate window; the singular value is sqrt(beta_n).  Both
    are sampled on 2049 uniform points over [-4, 4]; the output mode is zero
    outside the interval with the 1/2 jump convention at the boundary.  A
    concentration below ``BETA_FLOOR`` raises ``ResolutionError``, and an n
    outside 0 .. n_modes - 1 ``ValueError``.
    """
    sol._check_mode(n)
    beta = sol.eigenvalues[n]
    if beta < BETA_FLOOR:
        raise ResolutionError(f"concentration beta_{n} below {BETA_FLOOR:g}; mode unresolvable")
    axis = SampledAxis(-4.0, 8.0 / 2048, 2049, Domain.TIME)
    pts = axis.points
    vals_in = np.sqrt(beta) * sol.evaluate(n, pts)
    mask = _indicator(pts, 1.0)
    inside = np.clip(pts, -1.0, 1.0)
    vals_out = mask * sol.evaluate(n, inside)
    return (
        SampledSignal(axis, vals_in.astype(complex)),
        SampledSignal(axis, vals_out.astype(complex)),
        float(np.sqrt(beta)),
    )


def rectangular_filter_modes(
    spec: RectangularSif,
    axis: SampledAxis,
    count: int,
    side: str,
) -> tuple[SampledSignal, ...]:
    """Schmidt modes of a physical brick-wall filter, on the axis where they live.

    The gate side of the composition is compact in time (interval prolates
    scaled to the gate window); the window side is compact in frequency (the
    band-limited extensions, whose spectra are again prolates on the band,
    carrying the finite-Fourier eigenphase i^n).  Each side must be requested
    on the axis domain where it is compact:

    * FREQUENCY_FIRST: input modes on a frequency axis, output modes on time,
    * TIME_FIRST: input modes on a time axis, output modes on frequency.

    Samples on the support boundary use the 1/2 jump convention.  The
    prolates are solved here, ``pswf_solve_legendre(spec.c, count - 1)``, and
    a concentration beta_{count-1} below ``BETA_FLOOR`` raises ``ResolutionError``.
    """
    if side not in ("input", "output"):
        raise ValueError("side must be 'input' or 'output'")
    if count < 1:
        raise ValueError("count must be >= 1")
    first, last = spec.stages
    want = (last if side == "output" else first).domain
    if axis.domain is not want:
        raise ValueError(
            f"{side} modes of this composition order are compact on a {want.value} axis; "
            "evaluating their infinite-tail counterpart on a truncated grid is refused"
        )
    sol = pswf_solve_legendre(spec.c, count - 1)
    if sol.eigenvalues[count - 1] < BETA_FLOOR:
        raise ResolutionError(
            f"concentration beta_{count - 1} below {BETA_FLOOR:g}; mode unresolvable"
        )
    pts = axis.points
    out: list[SampledSignal] = []
    if want is Domain.TIME:
        tau = spec.tau_half
        mask = _indicator(pts, tau)
        for n in range(count):
            vals = mask * sol.evaluate(n, np.clip(pts / tau, -1.0, 1.0)) / np.sqrt(tau)
            out.append(SampledSignal(axis, vals.astype(complex)))
    else:
        cut = spec.cutoff_rad
        tau = spec.tau_half
        mask = _indicator(pts, cut)
        for n in range(count):
            g = sol.finite_transform(n, np.clip(pts / cut, -1.0, 1.0))
            vals = mask * g * np.sqrt(tau) / np.sqrt(sol.eigenvalues[n])
            out.append(SampledSignal(axis, vals))
    return tuple(out)


def slepian_tradeoff(bt: float | np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(efficiency, discriminativity) for the brick-wall pair at the given BT.

    efficiency = beta_0 at c = (pi/2) BT, read off ``ground_concentration``;
    discriminativity = beta_0 / BT since the concentrations sum to BT.
    Scalar in, scalars out.
    """
    bts = np.asarray(bt, dtype=float)
    if np.any(bts <= 0):
        raise ValueError("all BT values must be positive")
    eta = ground_concentration(0.5 * np.pi * bts)
    xi = eta / bts
    if np.ndim(bt) == 0:
        return float(eta), float(xi)
    return eta, xi
