"""Link budgets and security metrics.

Network: a multi-antenna source S talks to a vehicle receiver R while an
eavesdropper E intercepts; a friendly jammer J degrades E with artificial
noise that the legitimate receiver can cancel.  Per-antenna SNRs on the
S->E and J->E links are Gamma (Nakagami-m powers) with a shared rate per
link, so the combined source and jamming SNRs at E are Gamma with shapes
nu_I = N*m_I and nu_J = K*m_J.  The eavesdropper SINR is
gamma_I / (1 + gamma_J).

The receiver link carries the composite fading models from
:mod:`jamsec.fading`; its ergodic capacity is a series of Meijer-G
contour integrals, evaluated as one contour integral through
:mod:`jamsec.specfun`.

All quantities here are linear; ``db_to_linear`` serves the
configuration boundary.  ``sc`` is ``scipy.special`` bound lazily
(``jamsec._lazy``), so the library loads on the first closed-form or
quadrature route, never on import.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from ._lazy import lazy_import
from .errors import ParameterError
from .fading import (
    _U_MAX,
    DoubleKappaMuShadowedParams,
    GammaSnrParams,
    _dksm_pdf_scalar,
    _gamma_pdf_scalar,
    _quad,
    rician_shadowed_cdf,  # the scenario's closed-form receiver outage
)
from .specfun import fox_h_bivariate, meijer_series_fold

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
    "capacity_eve_foxh",
    "capacity_gamma_quadrature",
    "secrecy_capacity",
    "gamma_antenna_sum",
]

_LN2 = math.log(2.0)


def db_to_linear(x_db: float) -> float:
    return 10.0 ** (float(x_db) / 10.0)


@dataclass(frozen=True)
class EveLinkParams:
    """Gamma shapes/rates of the aggregated S->E and J->E SNRs at E."""

    nu_i: int
    beta_i: float
    nu_j: int
    beta_j: float

    def __post_init__(self):
        for name in ("nu_i", "nu_j"):
            v = getattr(self, name)
            if not (isinstance(v, (int, np.integer)) and v >= 1):
                raise ParameterError(f"{name} must be an integer >= 1")
        for name in ("beta_i", "beta_j"):
            if not (getattr(self, name) > 0):
                raise ParameterError(f"{name} must be positive")


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


def gamma_antenna_sum(per_antenna: GammaSnrParams, antennas: int) -> GammaSnrParams:
    """SNR summed over `antennas` independent antennas of one Gamma law:
    the shapes add and the common rate is kept."""
    return GammaSnrParams(nu=antennas * per_antenna.nu, beta=per_antenna.beta)


# ---------------------------------------------------------------------------
# eavesdropper SINR distribution


def eve_sinr_cdf(p: EveLinkParams, gamma):
    """Closed-form SINR CDF at the eavesdropper.

    Survival form: each (n, q) term is assembled in log space, so large
    shape/rate combinations neither overflow nor lose the e^{-x} x^n
    balance.  Vectorized over gamma.
    """
    g = np.asarray(gamma, dtype=float)
    scalar = g.ndim == 0
    g = np.atleast_1d(g)
    if np.any(g < 0):
        raise ParameterError("gamma must be non-negative")

    out = np.zeros_like(g)
    pos = g > 0
    if np.any(pos):
        x = p.beta_i * g[pos]
        lnx = np.log(x)
        base = p.nu_j * math.log(p.beta_j) - sc.gammaln(p.nu_j)
        shifted = np.log(x + p.beta_j)
        survival = np.zeros_like(x)
        for n, q, ln_binom, ln_fact in zip(*_nq_terms(p.nu_i)):
            omega = q + p.nu_j
            ln_term = (
                base
                - x
                + n * lnx
                - ln_fact
                + ln_binom
                + sc.gammaln(omega)
                - omega * shifted
            )
            survival += np.exp(ln_term)
        out[pos] = np.clip(1.0 - survival, 0.0, 1.0)
    return float(out[0]) if scalar else out


@functools.lru_cache(maxsize=64)
def _nq_terms(nu_i: int) -> tuple:
    """The (n, q) terms 0 <= q <= n < nu_i of the eavesdropper's double
    sums, n-major: read-only arrays n, q, ln binom(n, q) and ln n!.  Kept
    per nu_i: building them costs more than a small CDF evaluation."""
    n, q = np.tril_indices(nu_i)
    ln_fact = sc.gammaln(n + 1)
    table = (n, q, ln_fact - sc.gammaln(q + 1) - sc.gammaln(n - q + 1), ln_fact)
    for a in table:
        a.flags.writeable = False
    return table


def eve_sinr_cdf_integral(p: EveLinkParams, gamma) -> float:
    """Defining-integral oracle: E_{gamma_J}[ F_I(gamma * (1 + gamma_J)) ].

    Integrated in v = beta_J * gamma_J against the unit-rate Gamma(nu_J)
    density: in gamma_J itself the density spans 1/beta_J, which reaches
    1e8 at strong jamming, and quad over [0, inf) misses its mass.  The
    integrand is scalar: F_I is the regularized incomplete gamma
    P(nu_I, .) and the density is `_gamma_pdf_scalar`.
    """
    gamma = float(gamma)
    if gamma < 0:
        raise ParameterError("gamma must be non-negative")
    if gamma == 0.0:
        return 0.0
    nu_i, beta_i, beta_j = p.nu_i, p.beta_i, p.beta_j
    pdf_v = _gamma_pdf_scalar(GammaSnrParams(p.nu_j, 1.0))

    def integrand(v):
        return float(sc.gammainc(nu_i, beta_i * (gamma * (1.0 + v / beta_j)))) * pdf_v(v)

    val = _quad(integrand, 0.0, np.inf, (1e-11, 1e-9),
                "SINR CDF integral did not reach tolerance",
                epsabs=1e-14, epsrel=1e-12, limit=400)
    return min(max(val, 0.0), 1.0)


# ---------------------------------------------------------------------------
# receiver ergodic capacity


def capacity_receiver_quadrature(p: DoubleKappaMuShadowedParams) -> float:
    """E[log2(1 + gamma)] of the receiver density (`fading._dksm_pdf_scalar`)
    by adaptive quadrature in u = ln(gamma), split at the knee.  Above the
    knee the integrand falls like u e^(-s u), so capping the upper limit at
    _U_MAX loses nothing and keeps exp(u) finite as s -> 1.  Below the
    lower limit, floored at -_U_MAX, the integrand is ~ gamma^(1+mu): the
    mass there is beyond double precision."""
    knee = math.log((p.s - 1.0) * p.mean_snr / p.big_t)
    u_lo = max(knee - 60.0 / p.mu - 5.0, -_U_MAX)
    u_hi = min(knee + 85.0 / (p.s - 1.0) + 15.0, _U_MAX)
    pdf = _dksm_pdf_scalar(p)

    def integrand(u):
        t = math.exp(u)
        return math.log1p(t) / _LN2 * pdf(t) * t

    val = _quad(integrand, u_lo, u_hi, (1e-8, 1e-6),
                "receiver capacity quadrature did not reach tolerance",
                points=[knee], limit=400, epsabs=1e-12, epsrel=1e-10)
    return max(val, 0.0)


def capacity_receiver_series(p: DoubleKappaMuShadowedParams) -> float:
    """Receiver ergodic capacity from its series of Meijer-G terms.

    Up to a common factor, term i is (c)_i x^i / ((mu)_i i! z^i) times a
    G^{3,2}_{3,3}(z) contour integral, with z = T/Phi, Phi = (s-1) mean_snr
    and x = mu kappa / (c + mu kappa).  Shifted onto one contour the terms
    share a gamma kernel, so the whole series is one integral of that
    kernel times 2F1(c, -t; mu; x) (``specfun.meijer_series_fold``).
    """
    c, s, mu, kappa = p.c, p.s, p.mu, p.kappa
    z = p.big_t / ((s - 1.0) * p.mean_snr)
    ln_prefactor = (mu * math.log(z) - c * math.log1p(mu * kappa / c) - sc.betaln(s, mu)
                    - sc.gammaln(s + mu) - math.log(_LN2))
    total, _ = meijer_series_fold(s, mu, c, mu * kappa / (c + mu * kappa), z, ln_prefactor)
    return max(total, 0.0)


# ---------------------------------------------------------------------------
# eavesdropper ergodic capacity


def _mgf_capacity(nu_i, beta_i, nu_j, beta_j) -> float:
    """E[log2(1 + gamma_I / (1 + gamma_J))] for Gamma gamma_I, gamma_J with
    shapes nu_i, nu_j and rates beta_i, beta_j, by Hamdi's MGF lemma (IEEE
    Trans. Commun. 58(2), 2010):

        ln2 C = int_0^inf e^(-z) (1 + z/beta_J)^(-nu_J)
                          (1 - (1 + z/beta_I)^(-nu_I)) / z dz,

    one adaptive quadrature in u = ln z, split at ln beta_J, ln beta_I and
    0, where the factors turn over; nu_j = 0 is the jammer-off case.  Below
    every break the integrand is nu_I z / beta_I to first order, so the
    mass under u_lo is e^(-40) ~ 4e-18 of its value at the lowest break.
    Above u_hi, z > 60 and the integrand falls like e^(-z).  Against the
    whole integral the two tails stay below 4e-16 and 2e-27 (mpmath, nu_I
    up to 16, nu_J up to 64, rates 0.01 to 1e4).  Both limits keep exp(u)
    finite."""
    breaks = sorted({math.log(beta_j), math.log(beta_i), 0.0})
    u_lo, u_hi = breaks[0] - 40.0, math.log(60.0 + 2.0 * nu_i)

    def integrand(u):
        z = math.exp(u)
        return (math.exp(-z - nu_j * math.log1p(z / beta_j))
                * -math.expm1(-nu_i * math.log1p(z / beta_i)) / _LN2)

    val = _quad(integrand, u_lo, u_hi, (1e-9, 1e-6),
                "eavesdropper capacity quadrature did not reach tolerance",
                points=[b for b in breaks if u_lo < b < u_hi] or None,
                epsabs=1e-13, epsrel=1e-11, limit=400)
    return max(val, 0.0)


def capacity_eve_quadrature(p: EveLinkParams) -> float:
    """E[log2(1 + SINR)] at the eavesdropper by one quadrature of Hamdi's
    MGF integral (`_mgf_capacity`).  A strong jammer makes the integrand
    turn over near z = beta_J, narrow on a linear scale, so the route
    integrates in u = ln z, split there.  It shares no formula with the
    Fox-H closed form; the tests check it against the survival-function
    identity, one quadrature per (n, q) term of the closed-form CDF."""
    return _mgf_capacity(p.nu_i, p.beta_i, p.nu_j, p.beta_j)


def capacity_eve_foxh(p: EveLinkParams) -> float:
    """Eavesdropper ergodic capacity from the bivariate Fox-H closed form.

    The double sum over (n, q) is one weighted kernel evaluation: term
    (n, q) carries binom(n, q) / (ln2 Gamma(nu_J) n! beta_I beta_J^q) as a
    log weight, and the kernel integrates the whole sum on one contour
    grid with one refinement loop.
    """
    base = -math.log(_LN2) - sc.gammaln(p.nu_j) - math.log(p.beta_i)
    n, q, ln_binom, ln_fact = _nq_terms(p.nu_i)
    log_weights = np.full((p.nu_i, p.nu_i), -math.inf)
    log_weights[n, q] = base + ln_binom - ln_fact - q * math.log(p.beta_j)
    total, _ = fox_h_bivariate(float(p.nu_j), log_weights, 1.0 / p.beta_i,
                               1.0 / p.beta_j)
    return max(total, 0.0)


def capacity_gamma_quadrature(p: GammaSnrParams) -> float:
    """E[log2(1 + gamma)] for a plain Gamma SNR (jammer-free paths): the
    jammer-off case nu_J = 0 of `_mgf_capacity`, one quadrature in
    u = ln z, so a mean SNR anywhere from 1e-2 to 1e8 stays in reach."""
    return _mgf_capacity(p.nu, p.beta, 0, 1.0)  # a unit rate adds no break


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
