# Variational capacities on grids
#
# The m-harmonic capacity of a compact set is the minimum of the order-m
# gradient energy over fields equal to 1 on the set.  Zero extension outside
# a finite box biases values upward by O((K/R)^(n-2m)); running two boxes and
# extrapolating in R^(2m-n) removes the leading term, which is what makes
# percent-level values affordable.

import numpy as np

from polycap import Ball, Cone, Grid, annulus_series, cap_m
from polycap.radial import axisym_capacity, ball_potential_exact, radial_ball_potential

print("== unit ball, m=1, n=3: the 4 pi oracle ==")
grid = Grid(3, 0.2, 20)
single = cap_m(Ball(1.0), 1, grid)
pair = cap_m(Ball(1.0), 1, grid, box_levels=2)
print(f"one box  (radius 4): {single.value:.4f}")
print(f"two boxes (4 and 8): {pair.value:.4f}   exact 4 pi = {4*np.pi:.4f}")
print(f"refinement estimate recorded: {pair.refinement_estimate:.3f}")

print("\n== the same number three more ways ==")
radial = radial_ball_potential(1, 3, 1.0, h=0.01, box=300.0)[2]
print(f"radial 1-d solver, box 300:   {radial:.4f}")
c6 = axisym_capacity(Ball(1.0), 1, 3, 0.05, 6.0)[0]
c12 = axisym_capacity(Ball(1.0), 1, 3, 0.05, 12.0)[0]
print(f"axisymmetric (r,z) solver:    {2*c12-c6:.4f} (box pair 6, 12)")
print(f"closed form:                  {ball_potential_exact(1, 3, 1.0)[2]:.4f}")

print("\n== dilation homogeneity: cap(tK) = t^(n-2m) cap(K) ==")
for (m, n) in [(1, 3), (2, 5), (2, 7)]:
    r = ball_potential_exact(m, n, 2.0)[2] / ball_potential_exact(m, n, 1.0)[2]
    print(f"(m={m}, n={n}): ratio {r:.1f} = 2^{n-2*m}")

print("\n== dyadic annulus series of an exterior cone ==")
# cones are dilation invariant, so all weighted terms coincide; this constant
# sequence is the divergence signature the regularity classifier keys on
series = annulus_series(Cone(np.pi / 4), 2, 5, j_range=(0, 6), nodes_per_rho=10)
weighted = series.weighted_terms()
for j, (rho, capj, w, s) in enumerate(zip(series.rho, series.capacity, weighted,
                                         np.cumsum(weighted))):
    print(f"  j={j}  rho={rho:.4f}  cap={capj:9.4f}  weighted={w:.4f}  partial={s:9.4f}")
print("normalized by the full-ball unit:", np.round(series.normalized_terms(), 4))
