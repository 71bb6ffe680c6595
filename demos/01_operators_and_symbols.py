# Operators and their symbols
#
# Every computation in polycap starts from a constant-coefficient elliptic
# operator of order 2m stored through its positive symbol P(xi).  This script
# builds the three presets, checks ellipticity (exactly for second order, by
# sampling unit directions for higher order), and evaluates the Fourier-side
# positivity probe on a small node family.

import numpy as np

from polycap import (check_ellipticity, fourier_kernel_probe, laplacian,
                     mn8_operator, polyharmonic, unit_directions)

print("== symbols ==")
print("laplacian n=3, P(1,2,2)      =", laplacian(3).symbol([1.0, 2.0, 2.0]))
print("biharmonic n=5, P(e1)        =", polyharmonic(5, 2).symbol(np.eye(5)[0]))
op = mn8_operator()
print("anisotropic n=8, P(e8)       =", op.symbol(np.eye(8)[7]),
      " (the quartic axis term adds 10)")

print("\n== ellipticity: minimum of P on the unit sphere ==")
for candidate in (laplacian(3), polyharmonic(7, 3), op):
    ok, worst, direction = check_ellipticity(candidate)
    print(f"{candidate.name:18s}: elliptic={ok}  min P on sphere = {worst:.4f}")

# A failing example: P = xi_1^4 - |xi|^4 vanishes on the first axis and turns
# negative elsewhere, and the sampler returns the offending direction.
from polycap import EllipticOperator

neg = {k: -v for k, v in polyharmonic(2, 2).coefficients.items()}
key = ((2, 0), (2, 0))
neg[key] = neg.get(key, 0.0) + 1.0
bad = EllipticOperator(2, 2, neg)
ok, worst, direction = check_ellipticity(bad)
print(f"indefinite example: elliptic={ok}  min={worst:.3f} at {np.round(direction, 3)}")

print("\n== Fourier-side positivity probe ==")
# The double sum (P(xi)+P(eta))/P(xi-eta) w w' over distinct nodes is a
# quadrature surrogate for the positivity integral; a negative value would be
# a discrete witness against it.  Two antipodal nodes give exactly 1 for the
# Laplacian.
nodes = np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]])
print("laplacian antipodal pair     =", fourier_kernel_probe(laplacian(3), nodes,
                                                             np.ones(2)))
dirs = unit_directions(5, 10)
val = fourier_kernel_probe(polyharmonic(5, 2), dirs, np.ones(len(dirs)))
print("biharmonic 22-node stencil   =", round(val, 4), "(positive)")
