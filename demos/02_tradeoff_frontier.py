"""Efficiency against mode discrimination: the sequential-filter frontier.

Sweep the time-bandwidth product for both families and watch eta (target-mode
transmission) trade against xi (target-mode share of everything transmitted).
A coherent pulse gate sits far above both curves.
"""

import numpy as np

from tffilter import QPG_REFERENCE_POINTS, gaussian_tradeoff, slepian_tradeoff

bts = np.geomspace(0.02, 20.0, 17)
eg, xg = gaussian_tradeoff(bts)
es, xs = slepian_tradeoff(bts)

print("      BT      gaussian eta/xi        slepian eta/xi")
for i, bt in enumerate(bts):
    print(
        f"  {bt:8.3f}   {eg[i]:.4f} / {xg[i]:.4f}      {es[i]:.4f} / {xs[i]:.4f}"
    )

# the identities that pin these curves
assert np.max(np.abs(xg * bts - eg)) < 1e-12, "eta = xi * BT (gaussian)"
assert np.max(np.abs(xs * bts - es)) < 1e-9, "eta = xi * BT (slepian)"
assert np.max(np.abs(xg - (1.0 - eg**2))) < 1e-12, "xi = 1 - eta^2 (gaussian)"

print("\nChecks: eta = xi * BT holds for both families;")
print("the gaussian curve additionally obeys xi = 1 - eta^2.")

# the brick-wall pair against the gaussian pair, at the sampled BT
assert np.all(es >= eg - 1e-12)
assert np.all(xs >= xg - 1e-12)
print("At every sampled BT the brick-wall pair beats the gaussian pair in BOTH")
print("figures at once.")

# what a good coherent gate achieves at a single operating point
qpg_eta, qpg_xi = QPG_REFERENCE_POINTS[0]
i = np.argmin(np.abs(eg - qpg_eta))
print(f"\nA quantum pulse gate reaches (eta, xi) = ({qpg_eta}, {qpg_xi}).")
print(
    f"A gaussian sequential filter with the same eta = {eg[i]:.3f} "
    f"manages only xi = {xg[i]:.4f}."
)
reached = ((eg >= qpg_eta) & (xg >= qpg_xi)) | ((es >= qpg_eta) & (xs >= qpg_xi))
assert not np.any(reached)
print("No sampled point of either pair is that efficient and that single-mode")
print("at once: that is the frontier.")
