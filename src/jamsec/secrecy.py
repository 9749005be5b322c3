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
        for n in range(p.nu_i):
            for q in range(n + 1):
                omega = q + p.nu_j
                ln_term = (
                    base
                    - x
                    + n * lnx
                    - sc.gammaln(n + 1)
                    + _ln_binom(n, q)
                    + sc.gammaln(omega)
                    - omega * shifted
                )
                survival += np.exp(ln_term)
        out[pos] = np.clip(1.0 - survival, 0.0, 1.0)
    return float(out[0]) if scalar else out


def _ln_binom(n: int, q: int) -> float:
    return sc.gammaln(n + 1) - sc.gammaln(q + 1) - sc.gammaln(n - q + 1)


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

    val = _quad([(integrand, 0.0, np.inf)], (1e-11, 1e-9),
                "SINR CDF integral did not reach tolerance",
                epsabs=1e-14, epsrel=1e-12, limit=400)
    return min(max(val, 0.0), 1.0)


# ---------------------------------------------------------------------------
# receiver ergodic capacity


def _log_capacity(pdf, u_lo: float, u_hi: float, points, what: str) -> float:
    """E[log2(1 + gamma)] of the scalar density `pdf` by adaptive
    quadrature in u = ln(gamma) over [u_lo, u_hi], split at `points`."""

    def integrand(u):
        t = math.exp(u)
        return math.log1p(t) / _LN2 * pdf(t) * t

    val = _quad([(integrand, u_lo, u_hi)], (1e-8, 1e-6),
                f"{what} capacity quadrature did not reach tolerance",
                points=points, limit=400, epsabs=1e-12, epsrel=1e-10)
    return max(val, 0.0)


def capacity_receiver_quadrature(p: DoubleKappaMuShadowedParams) -> float:
    """E[log2(1 + gamma)] by `_log_capacity` of the receiver density
    (`fading._dksm_pdf_scalar`).  Above the knee the integrand falls like
    u e^(-s u), so capping the upper limit at _U_MAX loses nothing and
    keeps exp(u) finite as s -> 1.  Below the lower limit, floored at
    -_U_MAX, the integrand is ~ gamma^(1+mu): the mass there is beyond
    double precision."""
    knee = math.log((p.s - 1.0) * p.mean_snr / p.big_t)
    u_lo = max(knee - 60.0 / p.mu - 5.0, -_U_MAX)
    u_hi = min(knee + 85.0 / (p.s - 1.0) + 15.0, _U_MAX)
    return _log_capacity(_dksm_pdf_scalar(p), u_lo, u_hi, [knee], "receiver")


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


def capacity_eve_quadrature(p: EveLinkParams) -> float:
    """E[log2(1 + SINR)] at the eavesdropper via the survival-function
    identity, one 1-D adaptive quadrature per (n, q) term.

    Each term is integrated in u = ln t, split where its factors turn
    over: at t = beta_J/beta_I (where the jamming term stops dominating),
    t = 1 (log1p) and t = 1/beta_I (the exponential cut-off).  A strong
    jammer makes the peak near t = beta_J/beta_I narrow on a linear scale,
    and an integrator over [0, inf) can step over it.
    """
    base = p.nu_j * math.log(p.beta_j) - sc.gammaln(p.nu_j) - math.log(_LN2)
    points = sorted({math.log(p.beta_j / p.beta_i), 0.0, -math.log(p.beta_i)})
    pieces = []
    for n in range(p.nu_i):
        # below every break the integrand grows like e^{(n+1)u}; above
        # them it falls like v^n e^{-v} in v = beta_I t, and u_hi puts v
        # at 60 + 2n or more
        u_lo = points[0] - 60.0 / (n + 1)
        u_hi = points[-1] + math.log(60.0 + 2.0 * n)
        for q in range(n + 1):
            omega = q + p.nu_j
            ln_coef = (
                base
                + _ln_binom(n, q)
                + sc.gammaln(omega)
                + n * math.log(p.beta_i)
                - sc.gammaln(n + 1)
            )

            def integrand(u, n=n, omega=omega, ln_coef=ln_coef):
                t = math.exp(u)
                return math.exp(
                    ln_coef
                    + (n + 1) * u
                    - p.beta_i * t
                    - omega * math.log(p.beta_i * t + p.beta_j)
                    - math.log1p(t)
                )

            pieces.append((integrand, u_lo, u_hi))
    total = _quad(pieces, (1e-9, 1e-6),
                  "eavesdropper capacity quadrature did not reach tolerance",
                  points=points, epsabs=1e-13, epsrel=1e-11, limit=400)
    return max(total, 0.0)


def capacity_eve_foxh(p: EveLinkParams) -> float:
    """Eavesdropper ergodic capacity from the bivariate Fox-H closed form.

    The double sum over (n, q) is one weighted kernel evaluation: term
    (n, q) carries binom(n, q) / (ln2 Gamma(nu_J) n! beta_I beta_J^q) as a
    log weight, and the kernel integrates the whole sum on one contour
    grid with one refinement loop.
    """
    base = -math.log(_LN2) - sc.gammaln(p.nu_j) - math.log(p.beta_i)
    log_weights = np.full((p.nu_i, p.nu_i), -math.inf)
    for n in range(p.nu_i):
        for q in range(n + 1):
            log_weights[n, q] = (base + _ln_binom(n, q) - sc.gammaln(n + 1)
                                 - q * math.log(p.beta_j))
    total, _ = fox_h_bivariate(float(p.nu_j), log_weights, 1.0 / p.beta_i,
                               1.0 / p.beta_j)
    return max(total, 0.0)


def capacity_gamma_quadrature(p: GammaSnrParams) -> float:
    """E[log2(1 + gamma)] for a plain Gamma SNR (jammer-free paths) by
    `_log_capacity` of `_gamma_pdf_scalar`, split at u = 0 (log1p) and
    the mode ln(nu/beta): in gamma itself the density spans nu/beta, 1e6
    at 60 dB, and quad over [0, inf) misses its mass.  Below both breaks
    the integrand rises like e^((nu+1) u); above the mode it falls like
    v^nu e^(-v) in v = beta gamma, and u_hi puts v at 60 + 2 nu."""
    mode = math.log(p.nu / p.beta)
    u_lo = max(min(0.0, mode) - 60.0 / p.nu, -_U_MAX)
    u_hi = min(math.log((60.0 + 2.0 * p.nu) / p.beta), _U_MAX)
    pts = [v for v in sorted({0.0, mode}) if u_lo < v < u_hi]
    return _log_capacity(_gamma_pdf_scalar(p), u_lo, u_hi, pts or None, "Gamma")


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
