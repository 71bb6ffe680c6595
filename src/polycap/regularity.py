"""Boundary-regularity classification and the Dirichlet-solver cross-check.

The classifier consumes dyadic capacity series of the complement near the
origin.  Divergence of the weighted series means the origin is a regular
boundary point; convergence means irregular.  No finite computation proves
divergence, so the verdict logic is calibrated on families with closed-form
answers and returns "inconclusive" whenever the observed decay pattern fits
neither a certified-convergent nor a clearly non-decaying shape:

* terms are normalized by the same-pipeline full-ball capacity at each
  scale, which cancels discretization bias and makes the constant-term
  (cone-like) signature scale-free in every regime;
* a normalized series that stays at or above half the full-ball unit with
  no geometric decay classifies as regular (slope_min = 0.5);
* a tail whose fitted geometric ratio stays below 0.9 classifies as
  irregular (tail_max), with the geometric tail bound recorded;
* decaying tails whose geometric fit does not beat a power law in the scale
  index (the signature of logarithmically divergent series) by the factor
  GEO_FIT_MARGIN in squared residual stay inconclusive.

Classifications are invariant under rescaling the whole capacity series by
a fixed factor, which is what licenses surrogate capacities comparable to
the potential-theoretic one.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import radial
from .capacity import annulus_series
from .energy import EnergyForm, weighted_gradient_parts
from .errors import InconclusiveError, InputError, UnsupportedRegimeError
from .grids import Ball, Grid, Mask, axis_sum, dilate
from .operators import polyharmonic
from .solvers import solve_constrained
from .stencils import apply_alpha

SLOPE_MIN = 0.5
TAIL_MAX = 0.9
# a geometric tail fit must leave at most this share of the power-law fit's
# squared residual before it counts as evidence of convergence
GEO_FIT_MARGIN = 0.5

# regularity_probe and decay_check: the radius of the box ball; the probe's
# source bump (centre off the axis at z = 0, clear of axial cones and cusps,
# and radius, in box radii), its trusted scales rho >= TRUST_SPACINGS * h and
# its gates on the decay exponent; decay_check's source bump (centre offset
# and radius in box radii, clear of B_2R), its dyadic levels and the
# resolution of its capacity series
BOX_RADIUS = 1.0
PROBE_SOURCE_OFFSET = 0.55
PROBE_SOURCE_RADIUS = 0.18
TRUST_SPACINGS = 6.0
PROBE_GATES = (0.30, 0.40)
DECAY_SOURCE = (0.70, 0.15)
DECAY_LEVELS = (1, 2, 3)
DECAY_NODES_PER_RHO = 10


# -- cusp criteria ------------------------------------------------------------


def _tabulated_divergence(integrand, label, floor=0.0):
    """Integral ladder on (eps, 1/2] with a growth fit as eps -> 0.

    The upper limit stays clear of tau = 1 where profiles touching f = 1
    would inject a spurious endpoint singularity into the log criterion;
    divergence is a property of the tau -> 0 end alone.  The ladder never
    descends below the trustworthy support of a tabulated profile."""
    from scipy.integrate import quad

    import warnings

    levels = np.arange(2, 14)
    eps = 2.0 ** (-levels.astype(float))
    eps = eps[eps >= 2.0 * floor]
    if eps.size < 5:
        raise InconclusiveError(
            f"{label}: table covers too little of (0, 1/2] to judge divergence"
        )
    vals = []
    with warnings.catch_warnings():
        # ladder analysis needs level differences, not tight per-level tolerances
        warnings.simplefilter("ignore")
        for e in eps:
            v, _ = quad(integrand, e, 0.5, limit=300)
            vals.append(v)
    vals = np.array(vals)
    inc = np.diff(vals)
    if vals[-1] <= 0:
        return False, float(vals[-1]), "zero integral"
    # Cauchy tail: increments shrinking geometrically => convergent
    if np.all(inc[-4:] < 1e-3 * max(vals[-1], 1e-300)):
        return False, float(vals[-1]), "increments vanish"
    ratios = inc[-5:] / np.maximum(inc[-6:-1], 1e-300)
    if np.all(ratios < 0.8):
        r = float(np.median(ratios))
        tail = inc[-1] * r / (1.0 - r)
        return False, float(vals[-1] + tail), "geometric increments"
    # steady or growing increments per level: log or power divergence
    return True, float("inf"), "increments persist per dyadic level"


def _closed_form_divergence(cusp, k):
    """(divergent, integral over (0, 1/2]) of a power or exponential cusp."""
    if cusp.kind == "power":
        # integrand tau^(e - 1), or 1/(p tau |log tau|) for k = 0
        e = k * (cusp.param - 1.0)
        return e <= 0, (0.5**e / e if e > 0 else math.inf)
    a = cusp.param
    if k == 0:  # integrand tau^(a - 1)
        return False, 0.5**a / a
    from scipy.special import gammaincc

    # s = tau^-a turns it into a^-1 int_(2^a)^inf e^(-ks) s^(k/a - 1) ds
    # = Gamma(k/a) Q(k/a, k 2^a) / (a k^(k/a)), summed in logs because Gamma(k/a)
    # overflows for small a; the value saturates to 0 or inf outside float64, and
    # is inf at once for s > 1e300, where lgamma(s) nears overflow (s may be inf)
    s = k / a
    if s > 1e300:
        return False, math.inf
    with np.errstate(over="ignore", divide="ignore"):
        return False, float(np.exp(math.lgamma(s) + np.log(gammaincc(s, k * np.exp2(a)))
                                   - math.log(a) - s * math.log(k)))


def cusp_criterion(cusp, m, n):
    """Divergence test of the cusp regularity integrals: the vertex is
    regular exactly when the Wiener integral near tau = 0 diverges.  With
    k = n - 2m - 1, the slab at scale tau is a cylinder of length ~tau and
    radius f(tau), of m-capacity ~tau / |log f| for k = 0 and ~tau f^k for
    k >= 1, so the integrand is 1 / (tau |log f(tau)|) or f(tau)^k tau^(2m-n)
    (for m = 1 the thorn test int (f(t)/t)^(n-3) dt/t).
    Takes the profile f of a `grids.Cusp` and returns {"verdict":
    "regular"|"irregular", "integral": value, ...}, with `integral` the
    integral over (0, 1/2] (inf when it diverges): in closed form for power
    and exponential profiles, by the quadrature ladder of
    `_tabulated_divergence` for a tabulated one.  A tabulated verdict
    extrapolates from the dyadic levels the table covers: a profile fatter
    than a cone on every tabulated scale reads "regular" there, as it should,
    and so does one whose convergence sets in only below the table (a
    300-point table of exp(-tau^-0.001) on (1e-4, 1) reads "regular" in
    (2,6) and (2,7), where the closed form says "irregular").
    """
    if n == 2 * m:
        raise UnsupportedRegimeError(
            "the cusp criteria are stated for n >= 2m+1; the borderline "
            "dimension goes through the capacity classifier"
        )
    if n < 2 * m + 1:
        raise InputError("need n >= 2m+1")
    k = n - 2 * m - 1
    regime = "log" if k == 0 else "power"
    if cusp.kind == "tabulated":
        def integrand(t):
            if k == 0:
                return 1.0 / (abs(math.log(max(cusp.profile(t), 1e-300))) * t)
            return cusp.profile(t) ** k * t ** (2 * m - n)

        taus, fs = (np.asarray(v, float) for v in cusp.table)
        divergent, value, note = _tabulated_divergence(integrand, f"{regime} criterion",
                                                       float(taus[fs > 0].min()))
        method = f"quadrature ({note})"
    else:
        divergent, value = _closed_form_divergence(cusp, k)
        method = "closed-form"
    return {"verdict": "regular" if divergent else "irregular", "integral": value,
            "regime": regime, "method": method}


# -- Wiener-type classifier ----------------------------------------------------


@dataclass
class WienerVerdict:
    classification: str
    m: int
    n: int
    partial_sums: list
    normalized_terms: list
    growth_slope: float
    tail_ratio: float
    tail_estimate: float
    thresholds: dict
    truncation: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)


def wiener_classify(series):
    """Regular / irregular / inconclusive from a dyadic capacity series."""
    m, n = series.m, series.n
    w = series.weighted_terms()
    wh = series.normalized_terms()
    resolved = np.asarray(series.metadata.get("resolved", [True] * len(w)), dtype=bool)
    trunc_notes = []
    if not resolved.all():
        cut = int(np.argmin(resolved))  # first unresolved scale
        trunc_notes.append(
            f"series truncated to {cut} scales; finer slabs fall below grid resolution"
        )
        w, wh = w[:cut], wh[:cut]
    sums = np.cumsum(w)
    thresholds = {"slope_min": SLOPE_MIN, "tail_max": TAIL_MAX}
    trunc = {"scales": len(w), "metadata": dict(series.metadata)}

    def verdict(cls, slope, ratio, tail, notes):
        return WienerVerdict(cls, m, n, list(sums), list(wh), slope, ratio, tail,
                             thresholds, trunc, trunc_notes + notes)

    if len(w) < 6:
        return verdict("inconclusive", float("nan"), float("nan"), float("nan"),
                       ["fewer than 6 usable scales"])
    if np.all(w == 0.0):
        return verdict("irregular", 0.0, 0.0, 0.0, ["capacity series is identically zero"])

    L = max(3, len(wh) // 3)
    head = wh[:L]
    tailw = wh[-L:]
    slope = float(tailw.mean() / max(head.mean(), 1e-300))
    positive = wh > 0

    if np.all(positive[-L:]) and slope >= SLOPE_MIN:
        ratio = float((wh[-1] / wh[-L - 1]) ** (1.0 / L)) if wh[-L - 1] > 0 else 0.0
        if ratio >= TAIL_MAX:
            return verdict("regular", slope, ratio, float("inf"),
                           ["normalized terms persist at the cone-normalized unit"])

    # decaying tail: geometric vs power-in-index model competition
    idx = np.arange(len(wh), dtype=float)
    use = positive & (idx >= len(wh) - (L + 3))
    if use.sum() >= 4:
        jj = idx[use]
        lw = np.log(wh[use])
        ag, bg = np.polyfit(jj, lw, 1)
        sse_geo = float(((lw - (ag * jj + bg)) ** 2).sum())
        ap, bp = np.polyfit(np.log(jj + 1.0), lw, 1)
        sse_pow = float(((lw - (ap * np.log(jj + 1.0) + bp)) ** 2).sum())
        ratio = float(np.exp(ag))
        if ratio < TAIL_MAX and sse_geo <= GEO_FIT_MARGIN * sse_pow:
            tail = float(wh[-1] * ratio / (1.0 - ratio))
            return verdict("irregular", slope, ratio,
                           tail, ["tail decays geometrically"])
        if np.all(wh[-L:] == 0.0):
            return verdict("irregular", slope, 0.0, 0.0, ["tail is identically zero"])
        return verdict("inconclusive", slope, ratio, float("nan"), [
            "a power law in the scale index fits the tail about as well as a "
            "geometric law" if ratio < TAIL_MAX else
            "decay is slower than the geometric gate but below the cone-normalized unit"])
    return verdict("inconclusive", slope, float("nan"), float("nan"),
                   ["not enough positive scales for a decay fit"])


# -- Dirichlet solver and probes ------------------------------------------------


def dirichlet_solve(op, omega, f):
    """Solve the variational Dirichlet problem on the open node set omega.

    f must vanish on the complement and its 2m-neighborhood (sources touching
    the boundary have no meaning in the zero-extension energy class).
    Returns the grid function u with u = 0 outside omega.
    """
    grid = omega.grid
    f = np.asarray(f, dtype=float)
    if f.shape != grid.shape:
        raise InputError("source shape does not match the grid")
    outside = ~omega.where
    if np.any(f[dilate(outside, 2 * op.m)] != 0.0):
        raise InputError("source support touches the boundary of the domain mask")
    form = EnergyForm("operator_form", grid, op.m, op=op)
    rhs = grid.h**grid.n * f
    # a caller that passes its source as a temporary keeps one full-grid
    # copy alive during the solve, not two
    del f
    return solve_constrained(form, outside, 0.0, rhs=rhs)


def _bump_of(dist2, radius):
    """exp(1 - 1 / (1 - s^2)) for s^2 = dist2 / radius^2 < 1, else 0."""
    s2 = dist2 / radius**2
    out = np.zeros(s2.shape)
    inside = s2 < 1.0
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - s2[inside]))
    return out


def bump(grid, center, radius):
    """Smooth compactly supported bump, value 1 at the center."""
    ax = grid.axis_coords()
    return _bump_of(axis_sum([(ax - c) ** 2 for c in center]), radius)


@dataclass
class ProbeReport:
    trend: str
    # one dict per refinement: {"h":, "rho":, "sup":, "u_max":, "solver":},
    # "solver" the (r, z) solver's report
    sup_tables: list
    floor: float
    notes: list = field(default_factory=list)


def _sup_table(u, h, domain, radii, rho_levels):
    """sup |u| over the domain nodes within each rho = 2^-level BOX_RADIUS."""
    sups, rho_used = [], []
    for lev in rho_levels:
        rho = 2.0 ** (-lev) * BOX_RADIUS
        sel = domain & (radii <= rho)
        if sel.any():
            rho_used.append(rho)
            sups.append(float(np.abs(u[sel]).max()))
    return {"h": h, "rho": rho_used, "sup": sups, "u_max": float(np.abs(u).max())}


def clear_forbidden_zone(f, outside, m):
    """Zero the source f, in place, on the nodes within 2m steps of the nodes
    `outside` the domain, where a source has no meaning in the zero-extension
    energy class; returns f, and raises InputError when nothing of it is left."""
    f[dilate(outside, 2 * m)] = 0.0
    if not np.any(f > 0):
        raise InputError("source bump fell entirely inside the forbidden zone")
    return f


def _probe_problem(complement, n, m, h):
    """The probe's (r, z) grid at spacing h, its nodes outside the domain, the
    source cleared of the forbidden zone, and the radius of every node."""
    extent = int(round(BOX_RADIUS / h))
    grid = radial.AxisymGrid(n, h, extent, extent)
    R, Z = np.meshgrid(grid.r, grid.z, indexing="ij")
    rad2 = R**2 + Z**2
    outside = grid.mask_from_region(complement) | (rad2 > (0.98 * BOX_RADIUS) ** 2)
    source = _bump_of((R - PROBE_SOURCE_OFFSET * BOX_RADIUS) ** 2 + Z**2,
                      PROBE_SOURCE_RADIUS * BOX_RADIUS)
    return grid, outside, clear_forbidden_zone(source, outside, m), np.sqrt(rad2)


def _ladder_shortfall(h_values, rho_levels):
    """Why no ladder solved at these spacings can reach a trend verdict, or
    None when one can: a verdict needs 3 refinements and 3 trusted scales
    rho >= TRUST_SPACINGS * h_values[-1], the deepest at most BOX_RADIUS/16."""
    if len(h_values) < 3:
        return "need 3 refinements"
    rhos = sorted({2.0 ** (-lev) * BOX_RADIUS for lev in rho_levels}, reverse=True)
    deep = [r for r in rhos if r <= BOX_RADIUS / 16.0]
    if len(rhos) < 3 or not deep:
        return "rho_levels must hold 3 scales and reach box_radius/16"
    need = min(rhos[2], deep[0])
    if need >= TRUST_SPACINGS * h_values[-1]:
        return None
    return (f"trusted ladder cannot reach a verdict at the finest spacing "
            f"{h_values[-1]:.6g}; it needs a finest spacing h <= {need / TRUST_SPACINGS:.6g}")


def regularity_probe(op, complement, n, h_values=(1 / 8, 1 / 16, 1 / 32),
                     rho_levels=(1, 2, 3, 4), backend="axisym"):
    """Trend of sup |u| on shrinking balls at the origin across refinements.

    The probe solves on the (r, z) grid of `radial.axisym_dirichlet` alone,
    whose fine spacings separate the two signatures: it raises
    UnsupportedRegimeError unless the operator is (-Delta)^m and
    `radial.axisym_refusal` admits (m, n, complement), with the rule's own
    reason when it does not.  `backend` takes only "axisym".
    The domain is the open ball of radius 0.98 BOX_RADIUS minus the
    complement; the source is a fixed smooth bump
    in the plane z = 0, centred PROBE_SOURCE_OFFSET * BOX_RADIUS off the axis
    with radius PROBE_SOURCE_RADIUS * BOX_RADIUS.  Scales closer than
    TRUST_SPACINGS grid spacings to the resolution are excluded, and no
    verdict is issued unless the trusted ladder reaches BOX_RADIUS/16.  A
    ladder that cannot reach it at h_values[-1] is reported inconclusive
    before any solve, with the finest spacing it would need.  Otherwise the
    decay exponent of sup in rho over the trusted tail is then gated by
    PROBE_GATES: vanishing above the upper gate, non-vanishing below the
    lower gate when the finest trusted sup is refinement-stable and above the
    floor 1e-3 * sup|u|.

    Marginally regular points (capacity series diverging only
    logarithmically) decay too slowly to clear the vanishing gate at any
    desk-scale ladder and probe as non-vanishing or inconclusive; the
    classifier, not this probe, is the instrument for those.
    """
    if backend != "axisym":
        raise InputError(f"unknown backend {backend!r}; the probe solves on the (r, z) "
                         "grid alone (backend 'axisym')")
    refusal = radial.axisym_refusal(op.m, n, complement)
    if refusal is not None:
        raise UnsupportedRegimeError(f"the probe solves on the (r, z) grid: {refusal}")
    if op.coefficients != polyharmonic(n, op.m).coefficients:
        raise UnsupportedRegimeError("the probe's (r, z) energy is that of (-Delta)^m; it "
                                     "cannot probe another operator")
    problems = [_probe_problem(complement, n, op.m, h) for h in h_values]
    shortfall = _ladder_shortfall(h_values, rho_levels)
    if shortfall is not None:
        return ProbeReport("inconclusive", [], float("nan"), [shortfall])
    tables = []
    for h, (grid, outside, f, radii) in zip(h_values, problems):
        info = {}
        tables.append(_sup_table(radial.axisym_dirichlet(op.m, n, outside, f, grid, info=info),
                                 h, ~outside, radii, rho_levels))
        tables[-1]["solver"] = info

    floor = 1e-3 * max(t["u_max"] for t in tables)
    fine = tables[-1]
    trusted = [(r, s) for r, s in zip(fine["rho"], fine["sup"])
               if r >= TRUST_SPACINGS * fine["h"]]
    if len(trusted) < 3:
        return ProbeReport("inconclusive", tables, floor, ["need 3 trusted scales"])
    if trusted[-1][0] > BOX_RADIUS / 16.0:
        return ProbeReport("inconclusive", tables, floor,
                           ["trusted ladder too shallow for a trend verdict; refine"])
    # decay exponent over the trusted tail, skipping the source-dominated
    # coarsest scale when enough levels remain
    tr = trusted[1:] if len(trusted) >= 4 else trusted
    rho_t = np.array([r for r, _ in tr])
    sup_t = np.array([s for _, s in tr])
    lam = float(np.polyfit(np.log(rho_t), np.log(np.maximum(sup_t, 1e-300)), 1)[0])
    # refinement agreement at the finest trusted scale
    prev = dict(zip(tables[-2]["rho"], tables[-2]["sup"]))
    r_fin = rho_t[-1]
    a = prev.get(r_fin)
    b = float(sup_t[-1])
    stable = a is not None and abs(b - a) <= 0.15 * max(abs(a), 1e-300)
    lo, hi = PROBE_GATES
    if lam <= lo and stable and b > floor:
        return ProbeReport("non-vanishing", tables, floor,
                           [f"trusted-scale sup stalls (exponent {lam:.3f})"])
    if lam >= hi and (stable or b <= floor):
        return ProbeReport("vanishing", tables, floor,
                           [f"trusted-scale sup decays (exponent {lam:.3f})"])
    return ProbeReport("inconclusive", tables, floor,
                       [f"decay exponent {lam:.3f} between the gates {PROBE_GATES}"])


# -- energy decay along shrinking balls (exponential capacity bound) -----------


@dataclass
class DecayReport:
    radii: list
    sup_sq: list
    weighted_energy: list
    M_R: float
    cap_integral: list
    c1: float
    c2: float
    passed: bool
    inconclusive: bool = False
    notes: list = field(default_factory=list)


def decay_check(op, complement, n, R=0.25, grid_h=1 / 16):
    """Fit the exponential capacity-decay bound on a solution that is
    operator-harmonic near the origin.

    The domain is the open ball of radius 0.98 BOX_RADIUS minus the
    complement.  The source, the bump DECAY_SOURCE, sits outside B_2R, so the
    solution solves Lu = 0 on the domain within B_2R; both sides of the bound
    are evaluated at the dyadic radii rho = R 2^-level, level in DECAY_LEVELS,
    and c2 is the slope of -log(left / M_R) against the capacity integral,
    whose annulus series runs at DECAY_NODES_PER_RHO nodes per rho.

    The annulus and ball masks are formed before the solve, so no radius
    grid and no second copy of the source is alive during it, and each
    weighted-gradient density is summed over the balls as it is formed: the
    solve's half-grid arrays set the memory peak.
    """
    m = op.m
    offset, radius = DECAY_SOURCE
    if (offset - radius) * BOX_RADIUS < 2 * R:
        raise InputError("source overlaps B_2R; enlarge the box or shrink R")
    grid = Grid(n, grid_h, int(round(BOX_RADIUS / grid_h)))
    omega = Mask(grid, Ball(BOX_RADIUS * 0.98).mask(grid).where & ~complement.mask(grid).where)
    domain = omega.where
    rhos = [R * 2.0 ** (-lev) for lev in DECAY_LEVELS]
    radii = grid.radii()
    ann = domain & (radii > R) & (radii <= 2 * R)
    balls = [domain & (radii <= rho) for rho in rhos]
    # a full float grid the solve does not need
    del radii
    center = np.zeros(n)
    center[0] = offset * BOX_RADIUS
    # passed on as a temporary, so dirichlet_solve holds its only reference
    u = dirichlet_solve(op, omega, clear_forbidden_zone(
        bump(grid, center, radius * BOX_RADIUS), ~domain, m))[0]
    m_r = float(R ** (-n) * grid.h**n * (u[ann] ** 2).sum())

    # per-scale capacities of the complement slabs feeding the integral,
    # computed at the actual radii tau = R 2^-i
    tau_list = [R * 2.0 ** (-i) for i in range(max(DECAY_LEVELS) + 1)]
    series = annulus_series(complement, m, n, nodes_per_rho=DECAY_NODES_PER_RHO,
                            backend="auto", rho_list=tau_list)
    w_terms = series.weighted_terms()
    sups = [float(np.abs(u[sel]).max() ** 2) if sel.any() else 0.0 for sel in balls]
    energies = [0.0] * len(balls)
    for alpha, c, w in weighted_gradient_parts(grid, m):
        dens = np.square(apply_alpha(u, alpha))
        dens *= w
        for i, sel in enumerate(balls):
            energies[i] += c * float(np.where(sel, dens, 0.0).sum())
    caps_int = [float(np.log(2.0) * w_terms[:lev].sum()) for lev in DECAY_LEVELS]

    left = np.array(sups) + np.array(energies)
    ivals = np.array(caps_int)
    good = left > 0
    notes = []
    if ivals.std() < 1e-12:
        notes.append("capacity integral is constant on these scales")
    if good.sum() < 2:
        notes.append(f"left side vanishes on {int((~good).sum())} of the "
                     f"{len(DECAY_LEVELS)} balls")
    if notes:
        return DecayReport(rhos, sups, energies, m_r, caps_int, float("nan"),
                           float("nan"), False, True, notes)
    y = np.log(left[good] / max(m_r, 1e-300))
    slope, intercept = np.polyfit(ivals[good], y, 1)
    c2 = float(-slope)
    c1 = float(np.exp(intercept))
    return DecayReport(rhos, sups, energies, m_r, caps_int, c1, c2, bool(c2 > 0.0), False)
