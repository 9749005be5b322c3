"""Link budgets and security metrics.

Network: a multi-antenna source S talks to a vehicle receiver R while an
eavesdropper E intercepts; a friendly jammer J degrades E with artificial
noise that the legitimate receiver can cancel.  Per-antenna SNRs on the
S->E and J->E links are Gamma (Nakagami-m powers) with a shared rate per
link, so the combined source and jamming SNRs at E are Gamma with shapes
nu_I = N*m_I and nu_J = K*m_J.  The eavesdropper SINR is
gamma_I / (1 + gamma_J).

The receiver link carries the composite fading models from
:mod:`jamsec.fading`; its ergodic capacity has a contour-integral series
form evaluated through :mod:`jamsec.specfun`.

All quantities here are linear; ``db_to_linear`` serves the
configuration boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.integrate
import scipy.special as sc

from .errors import AccuracyError, ConvergenceError, ParameterError
from .fading import (
    DoubleKappaMuShadowedParams,
    GammaSnrParams,
    dksm_pdf,
    gamma_cdf,
    gamma_pdf,
    rician_shadowed_cdf,  # the scenario's closed-form receiver outage
)
from .specfun import BivariateFoxHSpec, MeijerGSpec, fox_h_bivariate, meijer_g

__all__ = [
    "NetworkGeometry",
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
    "eve_link_params_from_geometry",
]

_LN2 = math.log(2.0)


def db_to_linear(x_db: float) -> float:
    return 10.0 ** (float(x_db) / 10.0)


@dataclass(frozen=True)
class NetworkGeometry:
    """Node layout and radio constants.

    K = 0 means no jammer is deployed (the eavesdropper then sees plain
    SNR); closed forms that need a jamming Gamma shape require K >= 1.
    """

    n_bs_antennas: int
    n_jammer_antennas: int
    r_sr: float
    r_se: float
    r_je: float
    delta: float
    p_s: float
    p_j: float
    noise_var_r: float
    noise_var_e: float

    def __post_init__(self):
        if not (isinstance(self.n_bs_antennas, (int, np.integer)) and self.n_bs_antennas >= 1):
            raise ParameterError("n_bs_antennas must be a positive integer")
        if not (isinstance(self.n_jammer_antennas, (int, np.integer)) and self.n_jammer_antennas >= 0):
            raise ParameterError("n_jammer_antennas must be a non-negative integer")
        for name in ("r_sr", "r_se", "r_je"):
            if not (getattr(self, name) > 0):
                raise ParameterError(f"{name} must be positive (meters)")
        if self.delta < 0:
            raise ParameterError("path-loss exponent must be non-negative")
        if self.p_s < 0 or self.p_j < 0:
            raise ParameterError("transmit powers must be non-negative")
        if not (self.noise_var_r > 0 and self.noise_var_e > 0):
            raise ParameterError("noise variances must be positive")


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
    return p * r ** (-delta) / noise_var


def eve_link_params_from_geometry(g: NetworkGeometry, m_i: int, m_j: int) -> EveLinkParams:
    """Aggregate per-antenna Nakagami-m links at the eavesdropper.

    Shapes add across antennas; the common Gamma rate is shape over the
    per-antenna mean SNR.
    """
    for name, v in (("m_i", m_i), ("m_j", m_j)):
        if not (isinstance(v, (int, np.integer)) and v >= 1):
            raise ParameterError(f"{name} must be an integer >= 1")
    if g.n_jammer_antennas < 1:
        raise ParameterError("jamming link requires at least one jammer antenna")
    snr_i = mean_snr(g.p_s, g.r_se, g.delta, g.noise_var_e)
    snr_j = mean_snr(g.p_j, g.r_je, g.delta, g.noise_var_e)
    return EveLinkParams(
        nu_i=int(g.n_bs_antennas) * int(m_i),
        beta_i=m_i / snr_i,
        nu_j=int(g.n_jammer_antennas) * int(m_j),
        beta_j=m_j / snr_j,
    )


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
    1e8 at strong jamming, and quad over [0, inf) misses its mass.
    """
    gamma = float(gamma)
    if gamma < 0:
        raise ParameterError("gamma must be non-negative")
    if gamma == 0.0:
        return 0.0
    f_i = GammaSnrParams(p.nu_i, p.beta_i)
    f_v = GammaSnrParams(p.nu_j, 1.0)

    def integrand(v):
        return gamma_cdf(f_i, gamma * (1.0 + v / p.beta_j)) * gamma_pdf(f_v, v)

    val, err = scipy.integrate.quad(
        integrand, 0.0, np.inf, epsabs=1e-14, epsrel=1e-12, limit=400
    )
    if err > max(1e-11, 1e-9 * abs(val)):
        raise AccuracyError(
            "SINR CDF integral did not reach tolerance", best=val, error_estimate=err
        )
    return min(max(val, 0.0), 1.0)


# ---------------------------------------------------------------------------
# receiver ergodic capacity


def capacity_receiver_quadrature(p: DoubleKappaMuShadowedParams) -> float:
    """E[log2(1 + gamma)] by adaptive quadrature of the receiver density.

    Integrates in u = ln(gamma): the substitution removes the power-law
    endpoint at zero and compresses the heavy tail.
    """
    knee = math.log((p.s - 1.0) * p.mean_snr / p.big_t)
    u_lo = knee - 60.0 / p.mu - 5.0
    u_hi = knee + 85.0 / (p.s - 1.0) + 15.0

    def integrand(u):
        t = math.exp(u)
        return math.log1p(t) / _LN2 * dksm_pdf(p, t) * t

    val, err = scipy.integrate.quad(
        integrand, u_lo, u_hi, points=[knee], limit=400, epsabs=1e-12, epsrel=1e-10
    )
    if err > max(1e-8, 1e-6 * abs(val)):
        raise AccuracyError(
            "receiver capacity quadrature did not reach tolerance",
            best=val,
            error_estimate=err,
        )
    return max(val, 0.0)


def capacity_receiver_series(
    p: DoubleKappaMuShadowedParams,
    rel_tol: float = 1e-10,
    max_terms: int = 500,
) -> float:
    """Receiver ergodic capacity as a hypergeometric-coefficient series of
    contour integrals.

    Term i carries a G(3,2;3,3) contour factor with parameter rows built
    from alpha = mu + i and eta = i + s + mu; the full coefficient
    (pochhammers, powers, 1/Gamma(eta), 1/Phi^eta) is folded into the
    contour integrand in log space so individual factors never overflow
    even when eta runs into the hundreds.
    """
    c, s, mu, kappa = p.c, p.s, p.mu, p.kappa
    phi = (s - 1.0) * p.mean_snr
    big_t = p.big_t
    z = big_t / phi

    ln_amp = (
        s * math.log(phi)
        + mu * math.log(big_t)
        + c * math.log(c / (c + mu * kappa))
        - sc.betaln(s, mu)
        - math.log(_LN2)
    )
    ln_ratio = (
        math.log(big_t) + math.log(mu * kappa) - math.log(c + mu * kappa)
        if kappa > 0
        else -math.inf
    )

    total = 0.0
    total_err = 0.0
    streak = 0
    lp_c = 0.0      # ln (c)_i
    lp_smu = 0.0    # ln (s+mu)_i
    lp_mu = 0.0     # ln (mu)_i
    ln_pow = 0.0    # i * ln(K mu kappa)
    n_terms = max_terms if kappa > 0 else 1
    for i in range(n_terms):
        alpha = mu + i
        eta = i + s + mu
        ln_coef = (
            ln_amp
            + lp_c
            + lp_smu
            + ln_pow
            - sc.gammaln(i + 1)
            - lp_mu
            - sc.gammaln(eta)
            - eta * math.log(phi)
        )
        spec = MeijerGSpec(
            m=3,
            n=2,
            p=3,
            q=3,
            a_params=(1.0 - eta, -alpha, 1.0 - alpha),
            b_params=(0.0, -alpha, -alpha),
        )
        term, err = meijer_g(spec, z, log_prefactor=ln_coef)
        total += term
        total_err += err
        if abs(term) <= rel_tol * max(abs(total), 1e-300):
            streak += 1
            if streak >= 3:
                break
        else:
            streak = 0
        lp_c += math.log(c + i)
        lp_smu += math.log(s + mu + i)
        lp_mu += math.log(mu + i)
        ln_pow += ln_ratio
    else:
        if kappa > 0:
            raise ConvergenceError(
                f"capacity series did not settle in {max_terms} terms",
                partial=total,
                terms=max_terms,
            )
    if total_err > max(1e-9, 1e-4 * abs(total)):
        raise AccuracyError(
            "capacity series contour error too large",
            best=total,
            error_estimate=total_err,
        )
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
    total = 0.0
    total_err = 0.0
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

            val, err = scipy.integrate.quad(
                integrand, u_lo, u_hi, points=points, epsabs=1e-13,
                epsrel=1e-11, limit=400,
            )
            total += val
            total_err += err
    if total_err > max(1e-9, 1e-6 * abs(total)):
        raise AccuracyError(
            "eavesdropper capacity quadrature did not reach tolerance",
            best=total,
            error_estimate=total_err,
        )
    return max(total, 0.0)


def capacity_eve_foxh(p: EveLinkParams) -> float:
    """Eavesdropper ergodic capacity from the bivariate Fox-H closed form.

    The double sum over (n, q) is one weighted kernel evaluation: term
    (n, q) carries binom(n, q) / (ln2 Gamma(nu_J) n! beta_I beta_J^q) as a
    log weight, and the kernel integrates the whole sum on one contour
    grid with one refinement loop.
    """
    base = -math.log(_LN2) - sc.gammaln(p.nu_j) - math.log(p.beta_i)
    log_weights = [
        [
            base + _ln_binom(n, q) - sc.gammaln(n + 1) - q * math.log(p.beta_j)
            for q in range(n + 1)
        ]
        for n in range(p.nu_i)
    ]
    spec = BivariateFoxHSpec(omega=float(p.nu_j), log_weights=log_weights)
    total, _ = fox_h_bivariate(spec, 1.0 / p.beta_i, 1.0 / p.beta_j)
    return max(total, 0.0)


def capacity_gamma_quadrature(p: GammaSnrParams) -> float:
    """E[log2(1 + gamma)] for a plain Gamma SNR (jammer-free paths)."""

    def integrand(t):
        return math.log1p(t) / _LN2 * gamma_pdf(p, t)

    val, err = scipy.integrate.quad(
        integrand, 0.0, np.inf, epsabs=1e-12, epsrel=1e-10, limit=400
    )
    if err > max(1e-8, 1e-6 * abs(val)):
        raise AccuracyError(
            "capacity quadrature did not reach tolerance", best=val, error_estimate=err
        )
    return max(val, 0.0)


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
