"""Weighted positivity of elliptic operators.

The property under test: the energy against the fundamental-solution weight
dominates a Hardy sum of weighted gradient norms for all test functions
vanishing near the origin.  For (-Delta)^m both sides are rotation and
dilation invariant, so they split over spherical-harmonic degrees k into
one-dimensional forms on the log-radial line t = log r, where they have
constant coefficients.  Channel k of the weighted operator form has Fourier
symbol

    Re prod_{j<m} Lambda_k(i tau - 2j),   Lambda_k(s) = (k-s)(k+s+n-2),

and the Hardy comparison form has symbol sum_j t_{j,k}(tau) obtained from the
recursion G_j(s1,s2) = Lambda_k(s1) G_{j-1}(s1-2,s2)
- (2j-n-s1-s2)(s1-j+1) G_{j-1}(s1,s2) with t_{j,k} = Re G_j(i tau, -i tau).
With constant coefficients the infimum of channel k's Rayleigh quotient is
the infimum over tau of the ratio of the two even symbols, which
`min_symbol_quotient` computes exactly from their coefficients.

A "violated" verdict ships a wave-packet witness at the minimising frequency,
evaluated by the grid forms of `ChannelForm` and re-validated on the halved
grid and spectrally; if either fails the verdict is "inconclusive".  A
positive verdict covers the channels swept and is never a proof for all k.
"""

import functools
import math
from dataclasses import asdict, dataclass, field

import numpy as np
from numpy.polynomial import Polynomial

from .errors import InputError, UnsupportedRegimeError
from .fundsol import riesz_constant

# a quotient below -VIOLATION_EPS is a candidate violation
VIOLATION_EPS = 1e-8


def _lam_poly(k, n, shift):
    """Lambda_k(i tau + shift) as a complex polynomial in tau."""
    s = Polynomial([shift, 1j])
    return (k - s) * (k + s + (n - 2))


def op_channel_poly(m, n, k):
    """prod_j Lambda_k(i tau - 2j), complex polynomial in tau."""
    q = Polynomial([1.0 + 0.0j])
    for j in range(m):
        q = q * _lam_poly(k, n, -2.0 * j)
    return q


@functools.cache
def _g_poly(j, k, n, mu, nu):
    """G_j(i tau + mu, -i tau + nu) as a polynomial in tau.

    Cached: the two branches of the recursion meet the same (j, mu, nu) many
    times over; the 13 channels of (4, 12) make 195 distinct calls instead
    of 728.  Callers only read it."""
    if j == 0:
        return Polynomial([1.0 + 0.0j])
    s1 = Polynomial([mu, 1j])
    s2 = Polynomial([nu, -1j])
    euler = (2.0 * j - n) - s1 - s2
    return (_lam_poly(k, n, mu) * _g_poly(j - 1, k, n, mu - 2.0, nu)
            - euler * (s1 - (j - 1.0)) * _g_poly(j - 1, k, n, mu, nu))


@functools.cache
def hardy_channel_poly(m, n, k):
    """sum_{j=1..m} t_{j,k} as a polynomial in tau (real part taken).

    Cached by (m, n, k) for the channel coefficients and the spectral
    re-validation.  Callers only read it."""
    total = Polynomial([0.0 + 0.0j])
    for j in range(1, m + 1):
        total = total + _g_poly(j, k, n, 0.0, 0.0)
    return total


def _even_real_coeffs(poly, label):
    """tau^(2p) coefficients of the real part of a channel symbol.

    The quadratic form only sees Re q(tau), which is even; the imaginary
    part of the polynomial encodes the antisymmetric remainder and is
    discarded, but an odd real part would mean a wrong symbol."""
    c = np.asarray(poly.coef)
    scale = np.abs(c).max() if c.size else 1.0
    re = c.real
    odd = re[1::2]
    if odd.size and np.abs(odd).max() > 1e-9 * scale:
        raise InputError(f"{label}: symbol has a spurious odd part")
    return re[0::2]  # coefficient of tau^(2p)


@functools.cache
def _channel_coeffs(m, n, k):
    """tau^(2p) coefficients of channel k's operator symbol times the kernel
    constant and of its Hardy symbol, clipped to >= 0 after a rounding-level
    check.  Cached for the infimum and the witness forms; callers only read."""
    ca = riesz_constant(m, n) * _even_real_coeffs(op_channel_poly(m, n, k), "operator")
    cb = _even_real_coeffs(hardy_channel_poly(m, n, k), "hardy")
    if cb.min() < -1e-12 * max(1.0, np.abs(cb).max()):
        raise InputError("hardy channel symbol has a negative coefficient")
    return ca, np.clip(cb, 0.0, None)


def op_channel_symbol(m, n, k, tau):
    tau = np.asarray(tau, dtype=float)
    q = np.ones_like(tau, dtype=complex)
    s = 1j * tau
    for j in range(m):
        q = q * ((k - (s - 2 * j)) * (k + (s - 2 * j) + n - 2))
    return q.real


def hardy_channel_symbol(m, n, k, tau):
    poly = hardy_channel_poly(m, n, k)
    return poly(np.asarray(tau, dtype=float) + 0j).real


@functools.cache
def _symbol_infimum(m, n, k):
    """(infimum, minimising tau) of kappa S_op(tau) / S_H(tau) over tau >= 0.

    In s = tau^2 both symbols are polynomials p, q of degree m.  Once their
    common power of s is divided out the ratio is finite on [0, inf], so its
    infimum is the value at s = 0, the limit s -> inf, or the value at a
    positive real root of p'q - pq'.  Real parts of complex roots are kept:
    every candidate is a value the ratio takes, so extra ones cannot lower the
    minimum, and a real root that rounding moved off the axis is not lost."""
    p, q = _channel_coeffs(m, n, k)
    low = min(np.flatnonzero(p)[0], np.flatnonzero(q)[0])
    p, q = Polynomial(p[low:]), Polynomial(q[low:])
    if p.degree() != q.degree() or q.coef[0] <= 0.0 or q.coef[-1] <= 0.0:
        raise InputError("channel quotient is unbounded at tau = 0 or tau = inf")
    s = (p.deriv() * q - p * q.deriv()).roots().real
    s = np.append(0.0, s[s > 0.0])
    values = np.append(p(s) / q(s), p.coef[-1] / q.coef[-1])
    i = int(np.argmin(values))
    return float(values[i]), float(np.sqrt(np.append(s, np.inf))[i])


def min_symbol_quotient(m, n, k):
    """Exact infimum over all frequencies of channel k's Rayleigh quotient."""
    return _symbol_infimum(m, n, k)[0]


@dataclass
class ChannelForm:
    """Discretized channel-k forms on a uniform log-radial grid."""

    m: int
    n: int
    k: int
    t_window: float
    dt: float
    A: object = field(init=False)
    B: object = field(init=False)

    def __post_init__(self):
        nt = int(round(self.t_window / self.dt)) + 1
        self.nodes = nt
        ca, cb = _channel_coeffs(self.m, self.n, self.k)
        self.A = self._form_from_coeffs(ca)
        self.B = self._form_from_coeffs(cb)

    def _form_from_coeffs(self, coeffs):
        """sum_p c_p dt^(1-2p) |D_p f|^2 with D_p the undivided order-p
        difference of f extended by zeros.  On the nodes this is the symmetric
        Toeplitz band whose lag-d entry is sum_p c_p dt^(1-2p) (-1)^d C(2p, p+d),
        the autocorrelation of the binomial stencil of order p."""
        from scipy.sparse import diags

        band = [sum(c * self.dt ** (1 - 2 * p) * (-1) ** d * math.comb(2 * p, p + d)
                    for p, c in enumerate(coeffs)) for d in range(len(coeffs))]
        lags = range(1 - len(band), len(band))
        return diags([band[abs(d)] for d in lags], list(lags),
                     shape=(self.nodes, self.nodes), format="csr")

    def quotient(self, f):
        f = np.asarray(f, dtype=float)
        num = float(f @ (self.A @ f))
        den = float(f @ (self.B @ f))
        if den <= 0:
            raise InputError("comparison form vanished on the witness")
        return num / den


@dataclass
class PositivityVerdict:
    status: str
    m: int
    n: int
    method: str
    channel_quotients: dict = field(default_factory=dict)
    min_quotient: float = float("nan")
    argmin_channel: int = -1
    witness: dict | None = None
    resolution: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)

    def as_dict(self):
        """The fields and an evidence note; the witness without its values,
        which go to their own table."""
        out = asdict(self)
        out["evidence"] = "numerical evidence at the stated resolution, not a proof"
        if self.witness is None:
            del out["witness"]
        else:
            out["witness"].pop("values", None)
        return out


def _packet(form, tau):
    """sin^(2m+2)(pi t/L) cos(tau (t - L/2)) on the form's nodes t in [0, L]:
    a wave packet at frequency tau that vanishes to order 2m + 2 at both
    window ends, so its zero extension costs no boundary energy."""
    t = np.linspace(0.0, (form.nodes - 1) * form.dt, form.nodes)
    return np.sin(np.pi * t / t[-1]) ** (2 * form.m + 2) * np.cos(tau * (t - 0.5 * t[-1]))


def _revalidate_witness(form, tau, f):
    """Re-evaluate the packet f = _packet(form, tau) on a halved grid and spectrally."""
    m, n, k = form.m, form.n, form.k
    # the packet formula sampled on the dt/2 nodes
    fine = ChannelForm(m, n, k, form.t_window, form.dt / 2.0)
    q_fine = fine.quotient(_packet(fine, tau))
    # spectral route through the closed-form symbol
    pad = 8
    nfft = pad * f.size
    fhat = np.fft.rfft(f, n=nfft)
    freq = 2.0 * np.pi * np.fft.rfftfreq(nfft, d=form.dt)
    kappa = riesz_constant(m, n)
    num = kappa * op_channel_symbol(m, n, k, freq) * np.abs(fhat) ** 2
    den = hardy_channel_symbol(m, n, k, freq) * np.abs(fhat) ** 2
    q_spec = float(num.sum() / den.sum())
    return q_fine, q_spec


def channel_positivity(m, n, channels=None, t_window=60.0, dt=0.1):
    """Channel-by-channel positivity verdict for (-Delta)^m with its kernel
    weight.

    Each channel's quotient is the exact infimum of its symbol ratio
    (`min_symbol_quotient`); the verdict is "violated" when the smallest is
    below -VIOLATION_EPS.  When the smallest sits at one of the two highest
    channels swept, the sweep extends to twice the highest.  `t_window` and `dt` set
    only the witness grid: a packet at the minimising frequency whose dt-grid
    quotient is re-validated on the dt/2 grid and spectrally.  If any of the
    three is not negative the verdict is "inconclusive"."""
    if n <= 2 * m:
        raise UnsupportedRegimeError("weighted positivity is posed for n > 2m")
    if channels is None:
        channels = list(range(0, 13))
    channels = sorted(set(int(k) for k in channels))
    if not channels or channels[0] < 0:
        raise InputError("channel list must be nonempty and nonnegative")

    quots = {k: min_symbol_quotient(m, n, k) for k in channels}
    kmin = min(quots, key=quots.get)
    notes = []
    if kmin >= channels[-1] - 1 and 0 < channels[-1] < 40:
        quots.update((k, min_symbol_quotient(m, n, k))
                     for k in range(channels[-1] + 1, 2 * channels[-1] + 1))
        notes.append(f"channel guard extended the sweep to k <= {2 * channels[-1]}")
        kmin = min(quots, key=quots.get)

    resolution = {"t_window": t_window, "dt": dt, "channels": sorted(quots),
                  "eps": VIOLATION_EPS}
    vmin, status, witness = quots[kmin], "positive_at_resolution", None
    if vmin < -VIOLATION_EPS:
        tau = _symbol_infimum(m, n, kmin)[1]
        form = ChannelForm(m, n, kmin, t_window, dt)
        f = _packet(form, tau)
        # largest entry +1, so the witness is fixed in sign and scale
        f /= f[np.argmax(np.abs(f))]
        q_grid = form.quotient(f)
        q_fine, q_spec = _revalidate_witness(form, tau, f)
        if q_grid < 0.0 and q_fine < 0.0 and q_spec < 0.0:
            status = "violated"
            witness = {"channel": kmin, "tau": tau, "quotient": q_grid,
                       "quotient_fine_grid": q_fine, "quotient_spectral": q_spec,
                       "t_window": t_window, "dt": dt, "values": f}
        else:
            status = "inconclusive"
            notes.append(f"witness failed re-validation (grid {q_grid:.3e}, "
                         f"fine {q_fine:.3e}, spectral {q_spec:.3e})")
    return PositivityVerdict(status, m, n, "channel", quots, vmin, kmin, witness,
                             resolution, notes)
