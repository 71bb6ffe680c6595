"""polycap: a numerical laboratory for higher-order potential theory.

Discrete m-harmonic capacities, capacitary potentials with pointwise bound
checks, fundamental-solution sphere profiles with sign analysis, weighted
positivity verdicts via log-radial channel reduction, and a Wiener-type
boundary regularity classifier cross-checked by a Dirichlet solver.

Sign convention, used everywhere: operators are stored through the positive
symbol P(xi) = (-1)^m L(xi), so ellipticity reads P > 0 on nonzero xi and
the fundamental solution satisfies P(d) F = delta with F-hat = 1/P.
"""

# first, so that modules imported below can read it (the run manifest does)
__version__ = "0.1.0"

from .capacity import AnnulusCapacitySeries, CapacityValue, annulus_series, bessel_capacity, cap_m
from .energy import EnergyForm, hardy_weighted_energy, weighted_operator_energy
from .errors import (ConfigurationError, ConvergenceError, InconclusiveError,
                     InputError, UnsupportedRegimeError)
from .fundsol import SphereProfile, compute_profile, riesz_constant, sign_summary
from .grids import (Ball, Box, Cone, Cusp, Grid, Intersection, Mask, Ray, Region,
                    Shell, Union, mask_from_csv, region_from_dict)
from .operators import (EllipticOperator, SYMBOL_CONVENTION, check_ellipticity,
                        fourier_kernel_probe, laplacian, load_operator, mn8_operator,
                        multi_indices, multinomial, polyharmonic, preset_operator,
                        save_operator, unit_directions)
from .positivity import (ChannelForm, PositivityVerdict, channel_positivity,
                         hardy_channel_symbol, min_symbol_quotient, op_channel_symbol)
from .potential import (PotentialReport, capacitary_potential, gradient_decay_check,
                        gradient_magnitude, lower_bound_check, maximal_bound_check,
                        range_check, sign_probe, stationarity_check)
from .radial import (axisym_capacity, ball_potential_exact, evaluate_ball_potential,
                     radial_ball_potential, sphere_surface)
from .regularity import (DecayReport, ProbeReport, WienerVerdict, bump, cusp_criterion,
                         decay_check, dirichlet_solve, regularity_probe, wiener_classify)
from .solvers import smallest_generalized_eig, solve_constrained
