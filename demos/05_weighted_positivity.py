# Positivity with the fundamental-solution weight
#
# The energy of (-Delta)^m tested against its own kernel as a weight either
# dominates a Hardy sum of weighted gradients or it does not; which way it
# goes depends only on (m, n).  Rotation and dilation invariance reduce the
# question to one-dimensional forms per spherical-harmonic degree on the
# log-radial line.  They have constant coefficients there, so each channel's
# infimum is the exact minimum over frequencies of a ratio of two closed-form
# polynomial symbols, and the sweep below takes milliseconds per pair.  A
# violation ships a wave packet at the minimising frequency, re-evaluated on
# a finer grid and spectrally.  The outcome reproduces the known window:
# n = 5, 6, 7 for m = 2, and n = 2m+1, 2m+2 for higher m.

import numpy as np

from polycap import (channel_positivity, hardy_channel_symbol, min_symbol_quotient,
                     op_channel_symbol)

print("== closed-form channel symbols (radial channel k = 0) ==")
tau = np.array([0.5, 1.0, 2.0])
print("m=2 n=8 operator symbol:", op_channel_symbol(2, 8, 0, tau),
      " = tau^2 (tau^2 - 4), negative for small tau")
print("m=2 n=8 hardy symbol:   ", hardy_channel_symbol(2, 8, 0, tau),
      " = tau^4 + 9 tau^2, always positive")

print("\n== verdict sweep ==")
rows = [(1, 3), (1, 4), (2, 5), (2, 6), (2, 7), (2, 8), (2, 9), (3, 7), (3, 8), (3, 9)]
for (m, n) in rows:
    v = channel_positivity(m, n)
    mark = "positive " if v.status == "positive_at_resolution" else "VIOLATED "
    extra = ""
    if v.witness is not None:
        extra = (f" witness: channel {v.witness['channel']}, re-evaluated "
                 f"{v.witness['quotient_fine_grid']:.2e} (fine grid) and "
                 f"{v.witness['quotient_spectral']:.2e} (spectral)")
    print(f"(m={m}, n={n}): {mark} min quotient {v.min_quotient: .5f} "
          f"at channel {v.argmin_channel}{extra}")

print("\nthe same minima straight from the closed-form symbols (k = 0):")
for (m, n) in [(2, 7), (2, 8), (3, 8), (3, 9)]:
    print(f"(m={m}, n={n}): inf over frequencies = {min_symbol_quotient(m, n, 0): .5f}")
print("\npositive verdicts are evidence at the stated resolution; violations ship")
print("a witness profile that re-evaluates negative through two independent routes.")
