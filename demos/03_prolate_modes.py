"""Prolate spheroidal wave functions, solved two independent ways.

The Schmidt modes of the brick-wall filter are the classical band-limited,
time-concentrated functions. Two computations that share no code path: a
Legendre-basis diagonalization of the commuting prolate differential operator
(spectrally accurate), and the package's generic decomposition of the
brick-wall filter kernel itself, a Gauss-Legendre Nystrom matrix on the gate
and band supports. Agreement between them is the correctness argument.
"""

import numpy as np

from tffilter import (
    decompose_filter,
    full_line_gram,
    interval_gram,
    pswf_solve_legendre,
    rectangular_sif,
)

c = 3.0
lg = pswf_solve_legendre(c, 8)
res = decompose_filter(rectangular_sif(c / (0.5 * np.pi), 1.0), keep=9)
ny = res.singular_values**2

print(f"prolate parameter c = {c}")
print("  n   legendre beta_n      kernel SVD s_n^2     |difference|")
for n in range(9):
    d = abs(lg.eigenvalues[n] - ny[n])
    print(f"  {n}   {lg.eigenvalues[n]:.12f}     {ny[n]:.12f}     {d:.1e}")
dev = np.max(np.abs(lg.eigenvalues - ny))
assert dev < 1e-12
print(f"cross-method agreement: {dev:.2e} (grids {res.grid_report.resolutions})")

# the plunge: eigenvalues near 1 up to n ~ 2c/pi, then a fast fall
print(f"\nsum of all concentrations = {np.sum(lg.eigenvalues):.12f}")
print(f"2c/pi                     = {2.0 * c / np.pi:.12f}")
assert abs(np.sum(lg.eigenvalues) - 2.0 * c / np.pi) < 1e-9
print("About 2c/pi modes fit through the gate-band pair; the rest plunge.")

# double orthogonality, the property that makes these modes special:
# orthogonal on the gate interval AND on the whole real line
gi = interval_gram(lg)
assert np.max(np.abs(gi - np.diag(lg.eigenvalues))) < 1e-10
keep = lg.eigenvalues >= 1e-10
gf = full_line_gram(lg)[np.ix_(np.flatnonzero(keep), np.flatnonzero(keep))]
assert np.max(np.abs(gf - np.eye(gf.shape[0]))) < 1e-7
print("\nDouble orthogonality verified:")
print("  interval gram  = diag(beta_n)")
print("  full-line gram = identity (on modes above the numeric floor)")

# sample a few modes across the gate
x = np.linspace(-1.0, 1.0, 9)
print("\nmode profiles on the gate interval (interval-normalized):")
for n in range(3):
    vals = lg.evaluate(n, x)
    row = "  ".join(f"{v:+.3f}" for v in vals)
    print(f"  phi_{n}:  {row}")
print("Mode n has n internal zero crossings, like any Sturm sequence.")
