"""Fading distributions for the link model.

The receiver channel follows a kappa-mu envelope whose dominant components
fluctuate with a Gamma (Nakagami-m power) shadowing layer of shape ``c``
and whose whole envelope is further shadowed by an inverse-Nakagami layer
of shape ``s`` ("double shadowed" model).  Special cases used elsewhere:
LOS-shadowed Rician (mu=1, dominant shadowing only), Gamma/Nakagami-m SNR,
and the Nakagami envelope limit.

SNR domain throughout; all means are linear (dB handling lives at the
configuration boundary).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.integrate
import scipy.special as sc

from .errors import ConvergenceError, ParameterError

__all__ = [
    "DoubleKappaMuShadowedParams",
    "RicianShadowedParams",
    "GammaSnrParams",
    "SamplerSeed",
    "dksm_pdf",
    "dksm_cdf",
    "dksm_cdf_at_sorted",
    "dksm_sample",
    "rician_shadowed_pdf",
    "rician_shadowed_cdf",
    "rician_shadowed_sample",
    "gamma_pdf",
    "gamma_cdf",
    "nakagami_limit_pdf",
    "mixture_cdf",
]


@dataclass(frozen=True)
class SamplerSeed:
    """Deterministic sampler identity: (seed, stream) fixes the sequence.

    ``lineage`` is internal plumbing for antenna/shard substreams; child
    seeds are guaranteed independent, non-overlapping streams.
    """

    seed: int
    stream: int = 0
    lineage: tuple = ()

    def __post_init__(self):
        if not (0 <= int(self.seed) < 2**64):
            raise ParameterError("seed must fit in 64 unsigned bits")
        if int(self.stream) < 0:
            raise ParameterError("stream index must be non-negative")
        object.__setattr__(self, "lineage", tuple(int(v) for v in self.lineage))

    def child(self, *indices: int) -> "SamplerSeed":
        return SamplerSeed(self.seed, self.stream, self.lineage + tuple(indices))

    def generator(self) -> np.random.Generator:
        ss = np.random.SeedSequence(
            entropy=int(self.seed), spawn_key=(int(self.stream),) + self.lineage
        )
        return np.random.default_rng(ss)


@dataclass(frozen=True)
class DoubleKappaMuShadowedParams:
    """Shape set of the double shadowed kappa-mu SNR distribution.

    c: shape of the Gamma (Nakagami-m power) shadowing of the dominant
       components; s: shape of the inverse-Nakagami envelope shadowing
       (s > 1 so the mean exists); mu: number of multipath clusters;
       kappa: dominant-to-scatter power ratio; mean_snr: linear mean.
    """

    c: float
    s: float
    mu: float
    kappa: float
    mean_snr: float

    def __post_init__(self):
        if not (self.c > 0):
            raise ParameterError("c must be positive")
        if not (self.s > 1.0):
            raise ParameterError("s must be > 1 for the mean to exist")
        if not (self.mu > 0):
            raise ParameterError("mu must be positive")
        if self.kappa < 0:
            raise ParameterError("kappa must be non-negative")
        if not (self.mean_snr > 0):
            raise ParameterError("mean_snr must be positive")

    # recomputed on access, never stored
    @property
    def big_t(self) -> float:
        return self.mu * (1.0 + self.kappa)

    @property
    def big_k(self) -> float:
        return self.big_t / (self.c + self.mu * self.kappa)


@dataclass(frozen=True)
class RicianShadowedParams:
    """LOS-shadowed Rician SNR parameters.

    m: LOS shadowing figure; xi: average LOS power; sigma2: half the
    scatter power (scatter power is 2*sigma2); mean_snr: the scale gamma
    enters through gamma/(mean_snr * 2*sigma2).  The distribution mean is
    mean_snr * (xi + 2*sigma2); scenario files normalize xi + 2*sigma2
    when they want mean_snr to be the literal mean.
    """

    m: float
    xi: float
    sigma2: float
    mean_snr: float

    def __post_init__(self):
        for name in ("m", "xi", "sigma2", "mean_snr"):
            if not (getattr(self, name) > 0):
                raise ParameterError(f"{name} must be positive")

    @property
    def los_fraction(self) -> float:
        # series ratio: xi / (xi + 2*sigma2*m), strictly below 1
        return self.xi / (self.xi + 2.0 * self.sigma2 * self.m)


@dataclass(frozen=True)
class GammaSnrParams:
    """Gamma-distributed SNR with integer shape (Nakagami-m links)."""

    nu: int
    beta: float

    def __post_init__(self):
        if not (isinstance(self.nu, (int, np.integer)) and self.nu >= 1):
            raise ParameterError("nu must be a positive integer")
        if not (self.beta > 0):
            raise ParameterError("beta must be positive")

    @property
    def mean(self) -> float:
        return self.nu / self.beta


# ---------------------------------------------------------------------------
# double shadowed kappa-mu


def dksm_pdf(p: DoubleKappaMuShadowedParams, gamma):
    """SNR density.  Vectorized over gamma >= 0."""
    g = np.asarray(gamma, dtype=float)
    scalar = g.ndim == 0
    g = np.atleast_1d(g)
    if np.any(g < 0):
        raise ParameterError("gamma must be non-negative")

    c, s, mu, kappa, gbar = p.c, p.s, p.mu, p.kappa, p.mean_snr
    big_t = p.big_t
    phi = (s - 1.0) * gbar
    ln_amp = (
        s * math.log(s - 1.0)
        + c * math.log(c)
        + mu * math.log(big_t)
        + s * math.log(gbar)
        - c * math.log(c + mu * kappa)
        - (sc.gammaln(s) + sc.gammaln(mu) - sc.gammaln(s + mu))
    )

    out = np.zeros_like(g)
    pos = g > 0
    if np.any(pos):
        gp = g[pos]
        denom = big_t * gp + phi
        z = p.big_k * mu * kappa * gp / denom
        ln_pdf = ln_amp + (mu - 1.0) * np.log(gp) - (s + mu) * np.log(denom)
        hyp = 1.0
        if kappa > 0:
            hyp = sc.hyp2f1(c, s + mu, mu, z)
            # Both failures of exp(ln_pdf) * hyp come at large s: scipy
            # gives up (NaN) past 1e4 recursion steps, i.e. once s > 1e4,
            # and deep in the tail exp(ln_pdf) underflows while the 2F1
            # overflows (0 * inf) or is merely huge.  Those points take the
            # 2F1 in log space.  Below the cap an underflowed exp(ln_pdf)
            # costs any normal-range product at most 1.1e-12 relative.
            lost = ~(hyp <= _HYP_DIRECT_MAX)
            if np.any(lost):
                ln_pdf[lost] += [_ln_hyp2f1_series(c, s + mu, mu, x)
                                 for x in z[lost]]
                hyp[lost] = 1.0
        out[pos] = np.exp(ln_pdf) * hyp
    if np.any(~pos):
        if mu > 1.0:
            val0 = 0.0
        elif mu == 1.0:
            val0 = math.exp(ln_amp - (s + 1.0) * math.log(phi))
        else:
            val0 = math.inf
        out[~pos] = val0
    return float(out[0]) if scalar else out


# largest 2F1 factor that dksm_pdf multiplies by exp(ln_pdf) directly
_HYP_DIRECT_MAX = 1e4


def _ln_hyp2f1_series(a, b, c, z):
    """ln 2F1(a, b; c; z) for a, b, c > 0 and 0 < z < 1, where every term
    of the power series is positive.  The log-terms are cumulative sums of
    the log term ratios, so neither a term nor the sum overflows; the
    window doubles until it passes the last ratio >= 1 and its last term
    lies e^-50 below the largest."""
    # term ratio (a+k)(b+k)z / ((c+k)(1+k)) is < 1 beyond the largest root
    qa, qb, qc = 1.0 - z, c + 1.0 - z * (a + b), c - z * a * b
    disc = qb * qb - 4.0 * qa * qc
    k_last = (math.sqrt(disc) - qb) / (2.0 * qa) if disc >= 0 else 0.0
    n = 64
    while True:
        k = np.arange(n - 1.0)
        ln_terms = np.concatenate(
            ([0.0], np.cumsum(np.log((a + k) * (b + k) / ((c + k) * (1.0 + k)) * z))))
        top = ln_terms.max()
        if n > k_last + 1.0 and ln_terms[-1] < top - 50.0:
            return top + math.log(np.exp(ln_terms - top).sum())
        n *= 2


def _dksm_log_knee(p: DoubleKappaMuShadowedParams) -> float:
    # scale where the (T*gamma + phi) denominator turns over
    return math.log((p.s - 1.0) * p.mean_snr / p.big_t)


def dksm_cdf(p: DoubleKappaMuShadowedParams, gamma) -> float:
    """CDF by adaptive quadrature of the density (substituted u = ln t,
    which removes the gamma^(mu-1) endpoint behavior)."""
    gamma = float(gamma)
    if gamma < 0:
        raise ParameterError("gamma must be non-negative")
    if gamma == 0.0:
        return 0.0
    u_hi = math.log(gamma)
    knee = _dksm_log_knee(p)
    u_lo = min(u_hi, knee) - 60.0 / p.mu

    def integrand(u):
        t = math.exp(u)
        return dksm_pdf(p, t) * t

    pts = [knee] if u_lo < knee < u_hi else None
    val, _ = scipy.integrate.quad(
        integrand, u_lo, u_hi, points=pts, limit=300, epsabs=1e-13, epsrel=1e-11
    )
    return min(max(val, 0.0), 1.0)


def dksm_cdf_at_sorted(p: DoubleKappaMuShadowedParams, g_sorted: np.ndarray,
                       head_segments: int = 96) -> np.ndarray:
    """CDF evaluated at an ascending grid in one cumulative pass.

    Composite Gauss-Legendre in u = ln(gamma) between consecutive grid
    points; used by the KS fidelity checks where per-point adaptive
    quadrature would be wasteful.
    """
    g_sorted = np.asarray(g_sorted, dtype=float)
    if g_sorted.ndim != 1 or len(g_sorted) == 0:
        raise ParameterError("need a one-dimensional, non-empty grid")
    if np.any(np.diff(g_sorted) < 0) or g_sorted[0] <= 0:
        raise ParameterError("grid must be ascending and positive")

    u = np.log(g_sorted)
    u_lo = min(u[0], _dksm_log_knee(p)) - 60.0 / p.mu
    head = np.linspace(u_lo, u[0], head_segments + 1)
    knots = np.concatenate([head, u[1:]])

    nodes, weights = np.polynomial.legendre.leggauss(8)
    lo = knots[:-1]
    width = np.diff(knots)
    total = np.zeros(len(knots) - 1)
    for x, w in zip(nodes, weights):
        uu = lo + 0.5 * width * (x + 1.0)
        t = np.exp(uu)
        total += w * dksm_pdf(p, t) * t
    seg = 0.5 * width * total
    cum = np.cumsum(seg)
    cdf = cum[head_segments - 1 :]
    return np.clip(cdf, 0.0, 1.0)


def dksm_sample(p: DoubleKappaMuShadowedParams, seed: SamplerSeed, n: int) -> np.ndarray:
    """Generative draws: Gamma-shadowed noncentral chi-square over an
    independent Gamma(s, rate s-1) envelope-shadowing divisor.

    E[draw] = mean_snr exactly (both shadowing layers have unit mean).
    """
    if n < 1:
        raise ParameterError("n must be >= 1")
    rng = seed.generator()
    c, s, mu, kappa, gbar = p.c, p.s, p.mu, p.kappa, p.mean_snr
    dominant = rng.gamma(shape=c, scale=1.0 / c, size=n)
    body = rng.noncentral_chisquare(df=2.0 * mu, nonc=2.0 * mu * kappa * dominant)
    snr = body * (gbar / (2.0 * mu * (1.0 + kappa)))
    envelope = rng.gamma(shape=s, scale=1.0 / (s - 1.0), size=n)
    return snr / envelope


# ---------------------------------------------------------------------------
# LOS-shadowed Rician


def rician_shadowed_pdf(p: RicianShadowedParams, gamma):
    """Density of the LOS-shadowed Rician SNR (confluent hypergeometric
    form).  Vectorized over gamma."""
    g = np.asarray(gamma, dtype=float)
    scalar = g.ndim == 0
    g = np.atleast_1d(g)
    if np.any(g < 0):
        raise ParameterError("gamma must be non-negative")
    rho = p.los_fraction
    scale = 2.0 * p.sigma2 * p.mean_snr
    x = g / scale
    ln_amp = p.m * math.log1p(-rho) - math.log(scale)
    z = rho * x
    big = z > 650.0
    out = np.empty_like(g)
    zs = np.where(big, 0.0, z)
    out[:] = np.exp(ln_amp - x) * sc.hyp1f1(p.m, 1.0, zs)
    if np.any(big):
        # exp-dominant asymptotic; only reached deep in the upper tail
        zb = z[big]
        ln_asym = (
            ln_amp
            - x[big]
            + zb
            + (p.m - 1.0) * np.log(zb)
            - sc.gammaln(p.m)
            + np.log1p((1.0 - p.m) * (1.0 - p.m) / zb)
        )
        out[big] = np.exp(ln_asym)
    return float(out[0]) if scalar else out


def rician_shadowed_cdf(p: RicianShadowedParams, gamma,
                        rel_tol: float = 1e-12, max_terms: int = 500):
    """CDF via the incomplete-gamma series with term-recurrence updates.

    Clamped to [0, 1] after convergence.  Vectorized over gamma.
    """
    g = np.asarray(gamma, dtype=float)
    scalar = g.ndim == 0
    g = np.atleast_1d(g)
    if np.any(g < 0):
        raise ParameterError("gamma must be non-negative")
    rho = p.los_fraction
    x = g / (2.0 * p.sigma2 * p.mean_snr)
    base = math.exp(p.m * math.log1p(-rho))

    coef = 1.0  # (m)_i rho^i / i!
    with np.errstate(under="ignore"):
        expx = np.exp(-x)
    reg = 1.0 - expx          # regularized lower incomplete gamma P(i+1, x)
    tail = x * expx           # x^(i+1) e^(-x) / (i+1)!
    total = np.zeros_like(x)
    streak = 0
    for i in range(max_terms):
        term = coef * reg
        total += term
        if np.all(np.abs(term) <= rel_tol * np.maximum(total, 1e-300)):
            streak += 1
            if streak >= 3:
                out = np.clip(base * total, 0.0, 1.0)
                return float(out[0]) if scalar else out
        else:
            streak = 0
        coef *= (p.m + i) * rho / (i + 1.0)
        reg = reg - tail
        tail = tail * x / (i + 2.0)
    raise ConvergenceError(
        f"LOS-shadowed CDF series did not converge in {max_terms} terms",
        partial=base * total,
        terms=max_terms,
    )


def rician_shadowed_sample(p: RicianShadowedParams, seed: SamplerSeed,
                           n: int) -> np.ndarray:
    """Draws via Gamma-shadowed LOS power inside a noncentral chi-square."""
    if n < 1:
        raise ParameterError("n must be >= 1")
    rng = seed.generator()
    los_power = rng.gamma(shape=p.m, scale=p.xi / p.m, size=n)
    power = rng.noncentral_chisquare(df=2.0, nonc=los_power / p.sigma2) * p.sigma2
    return p.mean_snr * power


# ---------------------------------------------------------------------------
# Gamma SNR (Nakagami-m links)


def gamma_pdf(p: GammaSnrParams, gamma):
    g = np.asarray(gamma, dtype=float)
    scalar = g.ndim == 0
    g = np.atleast_1d(g)
    if np.any(g < 0):
        raise ParameterError("gamma must be non-negative")
    out = np.zeros_like(g)
    pos = g > 0
    gp = g[pos]
    out[pos] = np.exp(
        p.nu * math.log(p.beta)
        + (p.nu - 1.0) * np.log(gp)
        - p.beta * gp
        - sc.gammaln(p.nu)
    )
    if p.nu == 1:
        out[~pos] = p.beta
    return float(out[0]) if scalar else out


def gamma_cdf(p: GammaSnrParams, gamma):
    """1 - upper_incomplete(nu, beta*gamma)/Gamma(nu)."""
    g = np.asarray(gamma, dtype=float)
    scalar = g.ndim == 0
    g = np.atleast_1d(g)
    if np.any(g < 0):
        raise ParameterError("gamma must be non-negative")
    out = 1.0 - sc.gammaincc(p.nu, p.beta * g)
    return float(out[0]) if scalar else out


# ---------------------------------------------------------------------------
# limits and mixtures


def nakagami_limit_pdf(m: float, rms: float, x):
    """Nakagami-m envelope density with RMS level ``rms`` (the limit the
    double shadowed envelope approaches when both shadowing layers turn
    off and kappa -> 0 with mu = m)."""
    if not (m > 0 and rms > 0):
        raise ParameterError("m and rms must be positive")
    xx = np.asarray(x, dtype=float)
    scalar = xx.ndim == 0
    xx = np.atleast_1d(xx)
    if np.any(xx < 0):
        raise ParameterError("x must be non-negative")
    out = np.zeros_like(xx)
    pos = xx > 0
    xp = xx[pos]
    out[pos] = np.exp(
        math.log(2.0)
        - sc.gammaln(m)
        + m * math.log(m / rms**2)
        - m * xp**2 / rms**2
        + (2.0 * m - 1.0) * np.log(xp)
    )
    if m == 0.5:
        out[~pos] = math.exp(
            math.log(2.0) - sc.gammaln(0.5) + 0.5 * math.log(0.5 / rms**2)
        )
    elif m < 0.5:
        out[~pos] = math.inf
    return float(out[0]) if scalar else out


def mixture_cdf(p_los: float, cdf_los, cdf_nlos):
    """Blockage blend p_los * F_los + (1 - p_los) * F_nlos."""
    if not (0.0 <= p_los <= 1.0):
        raise ParameterError("p_los must lie in [0, 1]")
    a = np.asarray(cdf_los, dtype=float)
    b = np.asarray(cdf_nlos, dtype=float)
    if np.any(a < -1e-12) or np.any(a > 1.0 + 1e-12):
        raise ParameterError("cdf_los must lie in [0, 1]")
    if np.any(b < -1e-12) or np.any(b > 1.0 + 1e-12):
        raise ParameterError("cdf_nlos must lie in [0, 1]")
    out = p_los * np.clip(a, 0.0, 1.0) + (1.0 - p_los) * np.clip(b, 0.0, 1.0)
    return float(out) if out.ndim == 0 else out
