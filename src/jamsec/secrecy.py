"""Link budgets and security metrics.

Network: a multi-antenna source S talks to a vehicle receiver R while an
eavesdropper E intercepts; a friendly jammer J degrades E with artificial
noise that the legitimate receiver can cancel.  Per-antenna SNRs on the
S->E and J->E links are Gamma (Nakagami-m powers) with a shared rate per
link, so the combined source and jamming SNRs at E are Gamma with shapes
nu_I = N*m_I and nu_J = K*m_J.  The eavesdropper SINR is
gamma_I / (1 + gamma_J); the jammer off (K = 0) is nu_J = 0 of the same
link, `EveLinkParams`, on every route.

The receiver link carries the composite fading models of
:mod:`jamsec.fading`; its closed-form capacity, a Meijer-G series from
the density's Mellin transform, is one contour integral
(:mod:`jamsec.specfun`), the eavesdropper's a finite sum of exponential
integrals; by quadrature each is one MGF integral (`_mgf_capacity`).
The eavesdropper's SINR CDF is a negative-binomial mixture of incomplete
gamma functions plus the negative binomial's tail, a finite binomial sum.

All quantities here are linear; ``db_to_linear`` serves the
configuration boundary.  ``sc`` is ``scipy.special`` bound lazily
(``jamsec._lazy``), so the library loads on the first closed-form or
quadrature route, never on import.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from ._lazy import lazy_import
from .errors import AccuracyError, ParameterError
from .fading import (
    DoubleKappaMuShadowedParams,
    GammaSnrParams,
    RicianShadowedParams,
    _gamma_pdf,
    _ln_tail,
    _pmf_mixture,
    _quad,
    gamma_cdf,
    gamma_cdf_integral,
    rician_shadowed_cdf,  # the scenario's closed-form receiver outage
)
from .specfun import meijer_series_fold

sc = lazy_import("scipy.special")

__all__ = [
    "EveLinkParams",
    "db_to_linear",
    "mean_snr",
    "eve_sinr_cdf",
    "eve_sinr_cdf_integral",
    "capacity_receiver_quadrature",
    "capacity_receiver_series",
    "capacity_eve_quadrature",
    "capacity_eve_series",
    "secrecy_capacity",
]

_LN2 = math.log(2.0)
_EN_CF_FROM = 10.0  # rates from which S_n comes from its continued fraction
_PARTIAL_FRACTION_BELOW = 0.3  # rate ratio under which partial fractions may apply
_PARTIAL_FRACTION_COND = 100.0  # and the largest sum of moduli over the sum they may have


def db_to_linear(x_db: float) -> float:
    return 10.0 ** (float(x_db) / 10.0)


@dataclass(frozen=True)
class EveLinkParams:
    """Gamma shapes/rates of the aggregated S->E and J->E SNRs at E.
    nu_j = 0 is the jammer off: the SINR is then the intercept SNR and
    beta_j is unused."""

    nu_i: int
    beta_i: float
    nu_j: int
    beta_j: float

    def __post_init__(self):
        for name, least in (("nu_i", 1), ("nu_j", 0)):
            v = getattr(self, name)
            if not (isinstance(v, (int, np.integer)) and v >= least):
                raise ParameterError(f"{name} must be an integer >= {least}")
        for name in ("beta_i", "beta_j"):
            if not (0.0 < getattr(self, name) < math.inf):
                raise ParameterError(f"{name} must be positive and finite")


# ---------------------------------------------------------------------------
# link budget


def mean_snr(p: float, r: float, delta: float, noise_var: float) -> float:
    """Average received SNR P * r^(-delta) / noise_var."""
    if not (p > 0):
        raise ParameterError("transmit power must be positive")
    if not (r > 0):
        raise ParameterError("distance must be positive")
    if delta < 0:
        raise ParameterError("path-loss exponent must be non-negative")
    if not (noise_var > 0):
        raise ParameterError("noise variance must be positive")
    try:
        snr = p * r ** (-delta) / noise_var
    except OverflowError:
        snr = math.inf
    if not (0.0 < snr < math.inf):
        raise ParameterError(f"mean SNR {p:g} * {r:g}^(-{delta:g}) / {noise_var:g}"
                             " is not a positive finite double")
    return snr


# ---------------------------------------------------------------------------
# eavesdropper SINR distribution


def eve_sinr_cdf(p: EveLinkParams, gamma):
    """Closed-form SINR CDF at the eavesdropper.

    Given gamma_J, 1 - F_I(gamma (1 + gamma_J)) is the chance that a
    Poisson count of mean x (1 + gamma_J), x = beta_I gamma, stays below
    nu_I.  Over gamma_J the count's x gamma_J part is negative binomial,
    NB(q) = C(q + nu_J - 1, q) pi^q (1 - pi)^nu_J with
    pi = x / (x + beta_J), so

        F = sum_{q < nu_I} NB(q) P(nu_I - q, x) + I_pi(nu_I, nu_J),

    where the NB tail I_pi(nu_I, nu_J) is, for integer shapes, the
    binomial tail sum_{nu_I <= k <= n} C(n, k) pi^k (1 - pi)^(n - k),
    n = nu_I + nu_J - 1.  Every term is non-negative, which keeps small
    CDFs to their relative precision.  Above F = 1/2 it is taken as
    1 - sum_{q < nu_I} NB(q) Q(nu_I - q, x), which keeps F to the ulp
    near 1.  nu_J = 0 is the jammer off: `gamma_cdf`.  Vectorized over
    gamma.
    """
    if p.nu_j == 0:
        return gamma_cdf(GammaSnrParams(p.nu_i, p.beta_i), gamma)
    g = np.asarray(gamma, dtype=float)
    if np.any(g < 0):
        raise ParameterError("gamma must be non-negative")
    x = p.beta_i * g.reshape(-1, 1)
    shifted = x + p.beta_j
    pi, rest = x / shifted, p.beta_j / shifted  # pi and 1 - pi
    q = np.arange(float(p.nu_i))
    n = p.nu_i + p.nu_j - 1.0
    k = np.arange(float(p.nu_i), n + 1.0)
    # ln C(n, k) = -ln(n + 1) - ln B(k + 1, n - k + 1); at gamma = 0 only
    # NB(0) = 1 is left, and F(0) = 0
    nb = np.exp(-np.log(q + p.nu_j) - sc.betaln(q + 1.0, p.nu_j)
                + sc.xlogy(q, pi) + sc.xlogy(p.nu_j, rest))
    tail = np.exp(-math.log(n + 1.0) - sc.betaln(k + 1.0, n - k + 1.0)
                  + sc.xlogy(k, pi) + sc.xlogy(n - k, rest))
    f = np.sum(nb * sc.gammainc(p.nu_i - q, x), axis=1) + np.sum(tail, axis=1)
    high = f > 0.5
    if np.any(high):
        f[high] = 1.0 - np.sum(nb[high] * sc.gammaincc(p.nu_i - q, x[high]), axis=1)
    return float(f[0]) if g.ndim == 0 else f.reshape(g.shape)


def eve_sinr_cdf_integral(p: EveLinkParams, gamma) -> float:
    """Defining-integral oracle: E_{gamma_J}[ F_I(gamma * (1 + gamma_J)) ].

    Integrated over v = beta_J * gamma_J against the unit-rate Gamma(nu_J)
    density (`_gamma_pdf`), as in gamma_J itself the density spans
    1/beta_J, which reaches 1e8 at strong jamming; F_I is the regularized
    incomplete gamma P(nu_I, .).  The quadrature runs in u = ln v, split
    at ln beta_J (where F_I's argument starts to grow), at the density's
    mode ln nu_J and where F_I's argument reaches nu_I.  F_I is increasing
    and P(nu_I, x) / x^nu_I decreasing, so the mass above u_hi is within
    Gamma(nu_I + nu_J)'s tail there, and that below u_lo = -60/nu_J, where
    F_I is smallest, within about e^-60 of the whole.  nu_J = 0 is the
    jammer off: `gamma_cdf_integral`, the Gamma density's own integral.
    """
    if p.nu_j == 0:
        return gamma_cdf_integral(GammaSnrParams(p.nu_i, p.beta_i), gamma)
    gamma = float(gamma)
    if gamma < 0:
        raise ParameterError("gamma must be non-negative")
    if gamma == 0.0:
        return 0.0
    nu_i, beta_i, nu_j, beta_j = p.nu_i, p.beta_i, p.nu_j, p.beta_j
    pdf_v = _gamma_pdf(GammaSnrParams(nu_j, 1.0))

    def integrand(u):
        v = np.exp(u)
        return sc.gammainc(nu_i, beta_i * (gamma * (1.0 + v / beta_j))) * pdf_v(v) * v

    u_lo, u_hi = -60.0 / nu_j, _ln_tail(nu_i + nu_j)
    x = beta_i * gamma
    pts = [math.log(beta_j), math.log(nu_j)]
    if 0.0 < x < nu_i:
        pts.append(math.log(beta_j) + math.log(nu_i / x - 1.0))
    pts = sorted({b for b in pts if u_lo < b < u_hi})
    val, _ = _quad(integrand, [u_lo, *pts, u_hi], (1e-11, 1e-9),
                   "SINR CDF integral did not reach tolerance",
                   panels=16, epsabs=1e-14, epsrel=1e-12, limit=400)
    return min(max(val, 0.0), 1.0)


# ---------------------------------------------------------------------------
# receiver ergodic capacity


def _mgf_capacity(ln_mgf_y, ln_mgf_x, breaks, u_hi: float, what: str) -> float:
    """E[log2(1 + X/Y)], X, Y > 0 independent, by Hamdi's MGF lemma (IEEE
    Trans. Commun. 58(2), 2010): ln2 C = int_0^inf M_Y (1 - M_X) dz/z, as
    exp(ln M_Y) (-expm1(ln M_X)) from ln_mgf_y(z), ln_mgf_x(z), numpy
    array functions.  One quadrature in u = ln z, split at the `breaks`
    (where the factors turn over) below u_hi.  Under every break
    1 - M_X ~ z E[X], so the mass below u_lo = min(breaks) - 40 is e^(-40)
    of the integrand at the lowest break; callers put u_hi where
    M_Y <= e^(-45).  exp(u) stays finite."""
    u_lo = min(breaks) - 40.0

    def integrand(u):
        z = np.exp(u)
        return np.exp(ln_mgf_y(z)) * -np.expm1(ln_mgf_x(z)) / _LN2

    val, _ = _quad(integrand, [u_lo, *sorted(b for b in breaks if u_lo < b < u_hi), u_hi],
                   (1e-9, 1e-6), f"{what} capacity quadrature did not reach tolerance",
                   panels=16, epsabs=1e-13, epsrel=1e-11, limit=400)
    return max(val, 0.0)


def capacity_receiver_quadrature(p: DoubleKappaMuShadowedParams | RicianShadowedParams) -> float:
    """E[log2(1 + gamma)] at the receiver, either law, by `_mgf_capacity`.
    Double model: gamma = lam G_(mu+I) / G_s, G_a unit Gamma(a) variables,
    I ~ NB(c, mu kappa / (c + mu kappa)), lam = (s-1) mean_snr / (mu (1+kappa)).
    So M_Y = (1+z)^(-s), M_X = (1 + lam z)^(-mu) (1 + w lam z / (1 + lam z))^(-c),
    w = mu kappa / c; breaks at -ln lam, -ln s and 0, u_hi at s ln(1+z) = 45.
    Rician: Y = 1, and Abdi et al.'s M_X (IEEE TWC 2(3), 2003),
    (1 + a z)^(m-1) / (1 + b z)^m, a = 2 sigma2 mean_snr, b = a + d,
    d = xi mean_snr / m, as (1 + a z)^(-1) (1 - d z / (1 + b z))^m, whose
    logs do not cancel; breaks at -ln a, -ln b and 0, u_hi = ln 45."""
    if isinstance(p, RicianShadowedParams):
        a, d, m = 2.0 * p.sigma2 * p.mean_snr, p.xi * p.mean_snr / p.m, p.m
        b = a + d
        return _mgf_capacity(
            lambda z: -z, lambda z: m * np.log1p(-d * z / (1.0 + b * z)) - np.log1p(a * z),
            (-math.log(a), -math.log(b), 0.0), math.log(45.0), "receiver")
    c, s, mu = p.c, p.s, p.mu
    lam, w = (s - 1.0) * p.mean_snr / p.big_t, mu * p.kappa / c
    return _mgf_capacity(
        lambda z: -s * np.log1p(z),
        lambda z: -mu * np.log1p(lam * z) - c * np.log1p(w * lam * z / (1.0 + lam * z)),
        (-math.log(lam), -math.log(s), 0.0), math.log(math.expm1(45.0 / s)), "receiver")


def capacity_receiver_series(p: DoubleKappaMuShadowedParams, cache=None) -> float:
    """Receiver ergodic capacity from its series of Meijer-G terms.

    Up to a common factor, term i is (c)_i x^i / ((mu)_i i! z^i) times a
    G^{3,2}_{3,3}(z) contour integral, with z = T/Phi, Phi = (s-1) mean_snr
    and x = mu kappa / (c + mu kappa).  Shifted onto one contour the terms
    share a gamma kernel, so the whole series is one integral of that
    kernel times 2F1(c, -t; mu; x) (``specfun.meijer_series_fold``).
    `cache`, a caller-owned dict such as a run's memo, keeps the contour's
    z-independent weights for the other mean SNRs of the same law.
    """
    c, s, mu, kappa = p.c, p.s, p.mu, p.kappa
    z = p.big_t / ((s - 1.0) * p.mean_snr)
    ln_prefactor = (mu * math.log(z) - c * math.log1p(mu * kappa / c) - sc.betaln(s, mu)
                    - sc.gammaln(s + mu) - math.log(_LN2))
    total, _ = meijer_series_fold(s, mu, c, mu * kappa / (c + mu * kappa), z, ln_prefactor,
                                  cache)
    return max(total, 0.0)


# ---------------------------------------------------------------------------
# eavesdropper ergodic capacity


def capacity_eve_quadrature(p: EveLinkParams) -> float:
    """E[log2(1 + SINR)] at the eavesdropper by `_mgf_capacity` with
    Y = 1 + gamma_J, X = gamma_I: M_Y = e^(-z) (1 + z/beta_J)^(-nu_J) and
    M_X = (1 + z/beta_I)^(-nu_I), split at ln beta_J (a strong jammer turns
    the integrand over there, narrow on a linear scale), ln beta_I and 0.
    nu_J = 0 is the jammer off, where beta_J is unused.  Above
    u_hi = ln(60 + 2 nu_I) the integrand falls like e^(-z).  The two tails
    left out stay below 4e-16 and 2e-27 of the integral (mpmath, nu_I up to
    16, nu_J up to 64, rates 0.01 to 1e4)."""
    nu_i, beta_i, nu_j, beta_j = p.nu_i, p.beta_i, p.nu_j, p.beta_j
    return _mgf_capacity(
        lambda z: -z - nu_j * np.log1p(z / beta_j), lambda z: -nu_i * np.log1p(z / beta_i),
        {math.log(beta_i), 0.0, *([math.log(beta_j)] if nu_j else [])},
        math.log(60.0 + 2.0 * nu_i), "eavesdropper")


def _scaled_en_cf(n: int, a: float) -> float:
    """S~_n(a) = e^a E_n(a) for a >= _EN_CF_FROM by the continued fraction
    of DLMF 8.19.17 (even contraction, modified Lentz): about 20 steps for
    any n, and it never forms e^a."""
    b = a + n
    c, d = math.inf, 1.0 / b
    h = d
    for i in range(1, 200):  # about 20 steps are needed
        an = -i * (n - 1.0 + i)
        b += 2.0
        d = 1.0 / (an * d + b)
        c = b + an / c
        h *= c * d
        if abs(c * d - 1.0) <= 1e-15:
            return h
    raise AccuracyError("E_n continued fraction did not converge", best=math.nan)


def _scaled_en(a: float, n_max: int) -> list:
    """[S~_1(a), ..., S~_(n_max)(a)], S~_n(a) = e^a E_n(a), as floats.

    One seed at n0 ~ a, n0 <= n_max: below a = _EN_CF_FROM one `expn`,
    where n0 <= 10 (expn goes wrong above n = 50: 6e-7 off at a = 30,
    n = 60) and e^a costs ~a ulps; above, `_scaled_en_cf`.  The rest from
    n S~_(n+1) + a S~_n = 1, run up from n0 and down from it: a step up
    scales the error by ~a/n and a step down by ~n/a, so both directions
    shrink it, and the subtraction cancels at most about one bit."""
    n0 = min(max(round(a), 1), n_max)
    s = [0.0] * n_max  # s[n - 1] = S~_n
    s[n0 - 1] = math.exp(a) * float(sc.expn(n0, a)) if a < _EN_CF_FROM else _scaled_en_cf(n0, a)
    for n in range(n0, n_max):
        s[n] = (1.0 - a * s[n - 1]) / n
    for n in range(n0 - 1, 0, -1):
        s[n - 1] = (1.0 - n * s[n]) / a
    return s


def capacity_eve_series(p: EveLinkParams) -> float:
    """E[log2(1 + SINR)] at the eavesdropper in closed form: the MGF
    integral of `capacity_eve_quadrature` as a finite sum of exponential
    integrals.  For integer shapes Hamdi's integral telescopes to
    ln2 C = sum_{j<=nu_I} beta_I^(j-1) beta_J^nu_J I_j, with
    I_j = int_0^inf e^(-z) (z+beta_I)^(-j) (z+beta_J)^(-nu_J) dz, a finite
    sum of S_n(a) = int_0^inf e^(-z) (z+a)^(-n) dz = a^(1-n) S~_n(a).  The
    jammer off (nu_j = 0) is sum_j S~_j(beta_I) (Alouini & Goldsmith, IEEE
    TVT 48(4), 1999).  With the jammer on: partial fractions, unless their
    alternating terms cancel too much (2e6-fold at shapes of 16 and rate
    ratio 0.29), else the all-positive expansion.  Rates enter as ratios,
    so rates from 1e-300 to 1e300 stay in reach."""
    nu_i, beta_i, nu_j, beta_j = p.nu_i, p.beta_i, p.nu_j, p.beta_j
    if nu_j == 0:
        return math.fsum(_scaled_en(beta_i, nu_i)) / _LN2
    m, big_m = sorted((beta_i, beta_j))
    if m / big_m < _PARTIAL_FRACTION_BELOW:
        value, cond = _partial_fraction_sum(nu_i, beta_i, nu_j, beta_j)
        if cond <= _PARTIAL_FRACTION_COND:
            return value / _LN2
    return _expansion_sum(nu_i, beta_i, nu_j, beta_j) / _LN2


def _partial_fraction_sum(nu_i, beta_i, nu_j, beta_j):
    """(ln2 C, sum of the terms' moduli over ln2 C) by partial fractions,
    for rates with m/M < _PARTIAL_FRACTION_BELOW.  With u, v = beta_I,
    beta_J over |d|, d = beta_J - beta_I, the beta_I poles give
    sign(d)^(nu_J+r) (-1)^r C(nu_J+r-1, r) u^r v^nu_J S~_k(beta_I),
    r = j - k >= 0, and the beta_J poles sign(-d)^(j+s) (-1)^s C(j+s-1, s)
    u^(j-1) v^(s+1) S~_(nu_J-s)(beta_J), 0 <= s < nu_J.

    Terms of one sign are summed first, which keeps the sum of moduli:
    the beta_I poles over k (prefix sums of S~_k), then, when d > 0, both
    pole sets at each power of u, and when d < 0 the beta_J poles at each
    power of v and the beta_I poles in one sum.  The larger rate over |d|
    is below 1 / (1 - _PARTIAL_FRACTION_BELOW) and the smaller one
    multiplies in powers, so the terms are Python floats, the binomial
    weights exact (`_binomial_sums` and C(nu_J+r-1, r) below 2^53).  An
    overflow at large shapes reads (0, inf): the route then expands."""
    d = beta_j - beta_i
    u, v = beta_i / abs(d), beta_j / abs(d)
    si_sums = list(itertools.accumulate(_scaled_en(beta_i, nu_i)))[::-1]  # at r: k <= nu_I - r
    sj = _scaled_en(beta_j, nu_j)[::-1]  # S~_(nu_J - s)(beta_J) at s
    scale = 1.0  # a factor that may underflow, multiplied in last
    try:
        if d > 0:
            # at u^r: (-1)^r C(nu_J+r-1, r) v^nu_J sum_k S~_k(beta_I) and
            # (-1)^(r+1) sum_s C(r+s, s) v^(s+1) S~_(nu_J-s)(beta_J)
            beta_i_poles, binomial, v_nu = [], 1.0, v**nu_j
            for r in range(nu_i):
                beta_i_poles.append(binomial * v_nu * si_sums[r])
                binomial = binomial * (nu_j + r) / (r + 1)
            beta_j_poles = _binomial_sums([v ** (s + 1) * sj[s] for s in range(nu_j)], nu_i)
            pairs = list(enumerate(zip(beta_i_poles, beta_j_poles)))
            total = math.fsum((-u) ** r * (a - b) for r, (a, b) in pairs)
            moduli = math.fsum(u**r * (a + b) for r, (a, b) in pairs)
        else:
            # v times: at v^s, (-1)^s S~_(nu_J-s)(beta_J) sum_j C(j+s-1, s) u^(j-1),
            # and (-1)^nu_J v^(nu_J-1) sum_r C(nu_J+r-1, r) u^r sum_k S~_k(beta_I)
            beta_j_poles = _binomial_sums([u**j for j in range(nu_i)], nu_j)
            beta_i_poles = _binomial_sums([u**r * si_sums[r] for r in range(nu_i)], nu_j)[-1]
            terms = [(-v) ** s * sj[s] * b for s, b in enumerate(beta_j_poles)]
            terms.append(-((-v) ** (nu_j - 1)) * beta_i_poles)
            total = math.fsum(terms)
            moduli = math.fsum(map(abs, terms))
            scale = v
    except (OverflowError, ValueError):  # ** or fsum past a double, at shapes in the thousands
        return 0.0, math.inf
    if not total > 0.0:  # NaN too
        return 0.0, math.inf
    return scale * total, moduli / total


def _binomial_sums(w, count) -> list:
    """[sum_k C(i+k, k) w_k for i < count], w non-negative.  By Pascal's
    rule sum_(t<=k) C(i-1+t, t) = C(i+k, k), so the i-th sum is that of
    w after i passes of suffix sums: additions only."""
    r, out = w[::-1], []
    for _ in range(count):
        r = list(itertools.accumulate(r))
        out.append(r[-1])
    return out


def _expansion_sum(nu_i, beta_i, nu_j, beta_j) -> float:
    """ln2 C with the smaller rate's factor expanded around the larger,
    (z+m)^(-e) = sum_k (e)_k/k! (M-m)^k (z+M)^(-e-k): row j sums
    (m/M)^p (e)_k/k! rho^k S~_(j+nu_J+k)(M) over k >= 0, rho = 1 - m/M,
    with (e, p) = (nu_J, nu_J) when beta_I is the larger rate and
    (j, j - 1) when beta_J is.  That is (m/M)^(p-e) times the mean of
    S~_(j+nu_J+k)(M), which falls with k, under the negative binomial
    NB(e, rho): one `fading._pmf_mixture` row per j, over one `_scaled_en`
    table as long as the windows need."""
    m, big_m = sorted((beta_i, beta_j))
    rho = (big_m - m) / big_m
    j = np.arange(1.0, nu_i + 1)
    e = np.full(nu_i, float(nu_j)) if beta_i >= beta_j else j

    def values(k_max):
        s = np.array(_scaled_en(big_m, nu_i + nu_j + int(k_max)))
        return lambda rows, k: s[(j[rows, None] + (nu_j - 1) + k).astype(int)]

    rows = _pmf_mixture(np.maximum(e - 1.0, 0.0) * rho / (1.0 - rho),
                        lambda rows, k: rho * (e[rows, None] + k) / (k + 1.0),
                        math.sqrt(e.max() * rho) / (1.0 - rho), values)
    total = math.fsum(rows)
    return total if beta_i >= beta_j else total * (big_m / m)


# ---------------------------------------------------------------------------
# secrecy


def secrecy_capacity(c_r: float, c_e: float) -> float:
    """Average secrecy capacity floor-limited at zero."""
    c_r = float(c_r)
    c_e = float(c_e)
    if not (math.isfinite(c_r) and math.isfinite(c_e)):
        raise ParameterError("capacities must be finite")
    if c_r < 0 or c_e < 0:
        raise ParameterError("capacities must be non-negative")
    return max(c_r - c_e, 0.0)
