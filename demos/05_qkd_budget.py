"""Key-rate budget for entanglement distribution behind a noisy channel.

Broadband background mixed into the entangled signal raises the error rate;
a time-frequency filter trades signal (eta) for background rejection (xi).
This script optimizes that tradeoff per filter family and converts the
normalized rates into absolute ones for a concrete link.
"""

import numpy as np

from tffilter import (
    QBER_THRESHOLD,
    FilterCharacteristic,
    QkdScenario,
    normalized_key_rate,
    optimize_over_efficiency,
    qber,
)

print("noise n_y  |  optimal gaussian     optimal slepian      fixed (0.9999, 0.9999)")
print("           |  eta*     rate        eta*     rate        rate")
fams = {
    "g": FilterCharacteristic.gaussian(),
    "s": FilterCharacteristic.slepian(),
}
fp = FilterCharacteristic.fixed_point(0.9999, 0.9999)
for ny in (1e-4, 1e-3, 1e-2, 0.05, 0.2, 0.5):
    rg = optimize_over_efficiency(fams["g"], ny)
    rs = optimize_over_efficiency(fams["s"], ny)
    rp = fp.rate(0.9999, ny)
    print(
        f"  {ny:7.4f}  |  {rg.eta:.4f}   {rg.rate:.3e}   "
        f"{rs.eta:.4f}   {rs.rate:.3e}   {rp:.3e}"
    )
    assert rs.rate >= rg.rate - 1e-12
    assert rp >= rs.rate - 1e-12

print("\nOrdering at every noise level: coherent gate > prolate > gaussian.")
print("As n_y grows the optimizer lowers eta*: passing less signal buys the")
print("discrimination needed to keep the error rate under the threshold.")

# the hard wall: no key past QBER ~ 11%
q_wall = QBER_THRESHOLD
xi = 0.9
n_wall = xi * (1.0 / np.sqrt(1.0 - 2.0 * q_wall) - 1.0)
assert normalized_key_rate(0.9, xi, n_wall * 1.01) == 0.0
print(f"\nAt xi = {xi} the rate hits zero once n_y exceeds {n_wall:.4f}")
print(f"(QBER crosses {q_wall:.4%}).")

# absolute numbers for one concrete link
sc = QkdScenario(
    channel_transmission=0.1,     # 10 dB of loss
    noise_psd_photons=5e-3,       # background photons per mode
    source_rate=1e7,              # pairs per second
)
print(f"\nconcrete link: tau_ch = {sc.channel_transmission}, "
      f"N_y = {sc.noise_psd_photons}, R_S = {sc.source_rate:.0e} /s")
print(f"scaled noise n_y = N_y / tau_ch = {sc.n_y}")
best = optimize_over_efficiency(fams["s"], sc.n_y)
xi_star = fams["s"].xi_of(best.eta)
abs_rate = sc.absolute_rate(best.eta, xi_star)
print(f"best slepian filter: eta* = {best.eta:.4f}, "
      f"absolute key rate = {abs_rate:.1f} bits/s")
print(f"QBER at the optimum = {qber(sc.n_y, xi_star):.4f}")
if sc.regime_flag(best.eta, xi_star):
    print("warning: background-dominated regime, coincidences mostly noise")
else:
    print("signal-dominated regime")
