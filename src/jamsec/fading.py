"""Fading distributions for the link model.

The receiver channel follows a kappa-mu envelope whose dominant components
fluctuate with a Gamma (Nakagami-m power) shadowing layer of shape ``c``
and whose whole envelope is further shadowed by an inverse-Nakagami layer
of shape ``s`` ("double shadowed" model).  Special cases used elsewhere:
LOS-shadowed Rician (mu=1, dominant shadowing only) and Gamma/Nakagami-m
SNR.

The quadrature CDFs integrate the kappa-mu shadowed density
(`_kappa_mu_shadowed_pdf_scalar`, one 1F1) for both receiver laws, the
double model's conditioned on its envelope shadowing, and the Gamma one
(`_gamma_pdf_scalar`); the quadrature capacities (`secrecy`) integrate
MGFs instead.  Every quadrature accepts a result only through `_quad`.

SNR domain throughout; all means are linear (dB handling lives at the
configuration boundary).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._lazy import lazy_import
from .errors import AccuracyError, ParameterError

sc = lazy_import("scipy.special")

__all__ = [
    "DoubleKappaMuShadowedParams",
    "RicianShadowedParams",
    "GammaSnrParams",
    "SamplerSeed",
    "dksm_cdf",
    "dksm_sample",
    "rician_shadowed_cdf",
    "rician_shadowed_cdf_integral",
    "rician_shadowed_sample",
    "gamma_cdf",
    "gamma_cdf_integral",
]

_LN_WINDOW_TOL = math.log(1e-17)  # what _ln_window_sum may leave out, relative to the sum
_LN_CHUNK = 2.0**16  # widest block of terms _ln_window_sum builds at once
_U_MAX = 700.0  # |u| bound of the quadratures in u = ln(gamma): exp(u) stays normal


def _quad(f, a, b, tol, message, **options) -> float:
    """``scipy.integrate.quad(f, a, b, **options)`` under the one
    acceptance rule of the quadrature routes: the value is accepted only
    if it and its error estimate are finite and the error is within
    max(tol[0], tol[1] * |value|); otherwise AccuracyError carries both.
    scipy.integrate is imported here, its one user, so it loads on the
    first quadrature: it drags in scipy.optimize, .sparse and .linalg,
    which closed-form and Monte Carlo runs never need.  scipy.special,
    bound as `sc`, loads on the first analytic route of either kind; a
    Monte Carlo run never executes it."""
    import scipy.integrate

    val, err = scipy.integrate.quad(f, a, b, **options)
    if not (math.isfinite(val) and err <= max(tol[0], tol[1] * abs(val))):
        raise AccuracyError(message, best=val, error_estimate=err)
    return val


def _ln_window_sum(ln_terms, ratio_sup, peak, spread) -> np.ndarray:
    """ln sum_k t_k of positive series, one per `peak`, summed in log space
    over a window around the peak (Ding, Appl. Stat. 41, 1992).
    ln_terms(rows, k) is ln t_k of series `rows` at integers k, one row
    each; ratio_sup(rows, k) bounds t_{j+1}/t_j for all j >= k.  The terms
    peak once, maybe after a dip, so over [0, lo] they are largest at 0 or
    lo unless the window's maximum is at lo.  A window starts 20 spreads
    wide and doubles until the tail above it, at most t_hi r/(1-r), and
    the head below, at most lo max(t_0, t_lo), are _LN_WINDOW_TOL below
    its sum: no term budget.  A doubled window adds only its new columns,
    on either side of the old, to the running maximum and sum, _LN_CHUNK
    columns at a time, so memory stays rows x _LN_CHUNK.  A row's windows
    depend on its own inputs."""
    peak = np.floor(peak)
    out = np.empty(peak.shape)
    width = 2.0 ** np.ceil(np.log2(np.maximum(32.0, 20.0 * spread)))  # inf once done
    summed = np.zeros(peak.shape)  # width of the window already summed
    top = np.full(peak.shape, -np.inf)  # ln of the largest term so far
    acc = np.zeros(peak.shape)  # the sum so far over exp(shift)
    with np.errstate(divide="ignore", invalid="ignore"):
        while (w := width.min(initial=np.inf)) < np.inf:
            at_w = width == w
            done = summed[at_w].max()  # rows that doubled into w, then fresh ones
            rows = np.nonzero(at_w & (summed == done))[0]
            lo = np.maximum(peak[rows] - w // 2, 0.0)
            # new columns below the summed window, then above it
            below = (np.maximum(peak[rows] - done // 2, 0.0) - lo)[:, None] if done else np.inf
            t, a = top[rows], acc[rows]
            for j in np.arange(0.0, w - done, _LN_CHUNK):
                cols = np.arange(j, min(j + _LN_CHUNK, w - done))
                lt = ln_terms(rows, lo[:, None] + np.where(cols < below, cols, cols + done))
                prev, t = t, np.maximum(t, lt.max(axis=1))
                # every term underflowed: the sum is 0
                shift = np.where(np.isfinite(t), t, 0.0)
                a = a * np.exp(prev - shift) + np.exp(lt - shift[:, None]).sum(axis=1)
            top[rows], acc[rows], summed[rows] = t, a, w
            out[rows] = shift + np.log(a)
            r = ratio_sup(rows, lo + (w - 1.0))
            left_out = np.where(r < 1.0, lt[:, -1] + np.log(r / (1.0 - r)), np.inf)
            if lo.any():
                ends = ln_terms(rows, np.stack((np.zeros(rows.size), lo), axis=1))
                left_out = np.maximum(left_out, np.log(lo) + ends.max(axis=1))
            # a NaN sum ends too
            width[rows] = np.where(left_out > out[rows] + _LN_WINDOW_TOL, 2.0 * w, np.inf)
    return out


@dataclass(frozen=True)
class SamplerSeed:
    """Deterministic sampler identity: (seed, lineage) fixes the sequence.

    ``lineage`` is internal plumbing for antenna/shard substreams; child
    seeds are guaranteed independent, non-overlapping streams.
    """

    seed: int
    lineage: tuple = ()

    def __post_init__(self):
        if not (0 <= int(self.seed) < 2**64):
            raise ParameterError("seed must fit in 64 unsigned bits")
        object.__setattr__(self, "lineage", tuple(int(v) for v in self.lineage))

    def child(self, *indices: int) -> "SamplerSeed":
        return SamplerSeed(self.seed, self.lineage + tuple(indices))

    def generator(self) -> np.random.Generator:
        # the leading 0 was a stream index; keeping it keeps every stream
        ss = np.random.SeedSequence(entropy=int(self.seed), spawn_key=(0,) + self.lineage)
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

    @property
    def scatter_fraction(self) -> float:
        # 1 - los_fraction by its own ratio, not rho's rounding error
        return 2.0 * self.sigma2 * self.m / (self.xi + 2.0 * self.sigma2 * self.m)


@dataclass(frozen=True)
class GammaSnrParams:
    """Gamma-distributed SNR with integer shape (Nakagami-m links)."""

    nu: int
    beta: float

    def __post_init__(self):
        if not (isinstance(self.nu, (int, np.integer)) and self.nu >= 1):
            raise ParameterError("nu must be a positive integer")
        if not (0.0 < self.beta < math.inf):  # a subnormal mean SNR overflows m / SNR
            raise ParameterError(f"beta must be positive and finite (got {self.beta:g})")


# ---------------------------------------------------------------------------
# double shadowed kappa-mu


def _kappa_mu_shadowed_pdf_scalar(c: float, mu: float, w: float, one_minus_w: float,
                                  scale: float):
    """Density of the NB(c, w) mixture of Gamma(mu + i) laws at `scale`
    (Paris, IEEE TVT 63(2), 2014) as pdf(gamma, ln_pow), for one float
    gamma >= 0: at x = gamma / scale, (1-w)^c e^(ln_pow - (1-w) x)
    1F1(mu-c; mu; -w x) / (Gamma(mu) scale^mu), Kummer's form (DLMF
    13.2.39), whose exponential never grows and whose 1F1 never overflows.
    ln_pow = (mu-1) ln gamma gives the density, and mu ln gamma the density
    times gamma, in one exponent.  The LOS-shadowed Rician law is mu = 1
    (Abdi et al., IEEE TWC 2(3), 2003), whose ln_pow is 0."""
    ln_amp = c * math.log(one_minus_w) - mu * math.log(scale) - math.lgamma(mu)
    decay = one_minus_w / scale
    a, z_scale = mu - c, -w / scale
    ln_ratio = math.lgamma(mu) - math.lgamma(c)  # Gamma(mu) / Gamma(mu - a)

    def pdf(g, ln_pow=0.0):
        z = z_scale * g  # 1F1 = 1 to double precision above -1e-100; scipy's may be inf
        hyp = float(sc.hyp1f1(a, mu, z)) if z < -1e-100 else 1.0
        if not math.isfinite(hyp):  # scipy's inf band near z = -1418 at small |a|: the
            k = np.arange(20.0)  # large -z expansion (DLMF 13.7.2 after Kummer)
            terms = np.cumprod((a + k) * (a - mu + 1.0 + k) / ((k + 1.0) * -z))
            hyp = (1.0 + float(terms.sum())) * math.exp(ln_ratio - a * math.log(-z))
        return math.exp(ln_amp + ln_pow - decay * g) * hyp

    return pdf


def _log_floor(u_top: float, knee: float, rate: float, ln_amp: float):
    """(u_lo, mass below it) for a CDF integral in u = ln(t) up to u_top of
    a density A t^(rate-1) (1 + O(t)): 60/rate below the knee or u_top,
    floored at -_U_MAX, where exp(u) would underflow; below the floor the
    mass is A e^(rate u) / rate."""
    u_lo = min(u_top, knee) - 60.0 / rate
    if u_lo >= -_U_MAX:
        return u_lo, 0.0
    return -_U_MAX, math.exp(ln_amp + rate * -_U_MAX) / rate


def _ln_tail(shape: float) -> float:  # where Gamma(shape) leaves < e^-60 of its mass
    return math.log(shape + 12.0 * math.sqrt(shape) + 60.0)


def dksm_cdf(p: DoubleKappaMuShadowedParams, gamma) -> float:
    """CDF by conditioning on the envelope shadowing: the SNR is lam X / G,
    G ~ Gamma(s), lam = (s-1) mean_snr / (mu(1+kappa)), X the unit kappa-mu
    shadowed power (NB(c, w) over Gamma(mu + i), w = mu kappa/(c + mu kappa)).
    So F = E_X[Q(s, r X)], r = lam / gamma: one `_quad` in u = ln x of the
    shared density times `gammaincc`, or of 1 - F = E_X[P(s, r X)] above the
    mean, so F stays monotone where it rounds to 1.  Upper limit: (1-w) X is
    below Gamma(c + mu) in MGF order, and P tilts the mass by x^s.  Below
    ln mu and ln(mu/r) the integrand grows at least like x^mu: `_log_floor`,
    its head taken by parts against Q's step, which may near the floor.  Q
    steps over ~1/sqrt(s) in u at ln(s/r): the quadrature splits there, at
    +-{1, 4, 12}/sqrt(s) around it, and at ln(mu/r) and ln(mu/(1-w))."""
    gamma = float(gamma)
    if not gamma >= 0.0:
        raise ParameterError("gamma must be non-negative")
    if gamma == 0.0 or gamma == math.inf:
        return min(gamma, 1.0)
    c, s, mu = p.c, p.s, p.mu
    w, one_minus_w = mu * p.kappa / (c + mu * p.kappa), c / (c + mu * p.kappa)
    ln_r = math.log(s - 1.0) + math.log(p.mean_snr) - math.log(p.big_t) - math.log(gamma)
    ln_1mw = math.log(one_minus_w)
    upper = gamma > p.mean_snr
    u_hi = min(_ln_tail(c + mu + s) - ln_1mw if upper else
               min(_ln_tail(c + mu) - ln_1mw, _ln_tail(c + mu + s) - ln_r), _U_MAX)
    ln_amp = c * ln_1mw - math.lgamma(mu)
    u_lo, head = _log_floor(max(u_hi, -_U_MAX), math.log(mu) - max(ln_r, 0.0), mu, ln_amp)
    if head and not upper:  # A/mu [x^mu Q(s, r x) + r^-mu (s)_mu P(s+mu, r x)] at the floor
        y = math.exp(min(u_lo + ln_r, _U_MAX))
        head = (head * sc.gammaincc(s, y)
                + sc.gammainc(s + mu, y) * sc.poch(s, mu) * math.exp(ln_amp - mu * ln_r) / mu)
    pts = [math.log(mu) - ln_1mw, math.log(mu) - ln_r] + [
        math.log(s) - ln_r + d / math.sqrt(s) for d in (-12.0, -4.0, -1.0, 0.0, 1.0, 4.0, 12.0)]
    pts = sorted({v for v in pts if u_lo < v < u_hi})
    pdf = _kappa_mu_shadowed_pdf_scalar(c, mu, w, one_minus_w, 1.0)
    kernel = sc.gammainc if upper else sc.gammaincc

    def integrand(u):
        return pdf(math.exp(u), mu * u) * kernel(s, math.exp(u + ln_r))

    # relative accuracy down to 1e-300, below which the integrand is subnormal
    val = _quad(integrand, u_lo, max(u_hi, u_lo), (1e-11, 1e-9),
                "receiver CDF quadrature did not reach tolerance",
                points=pts or None, limit=300, epsabs=1e-300, epsrel=1e-13)
    return min(max(1.0 - val if upper else head + val, 0.0), 1.0)


def dksm_sample(p: DoubleKappaMuShadowedParams, seed: SamplerSeed, n: int) -> np.ndarray:
    """Generative draws: Gamma-shadowed noncentral chi-square over an
    independent Gamma(s, rate s-1) envelope-shadowing divisor.

    E[draw] = mean_snr exactly (both shadowing layers have unit mean).
    """
    if n < 1:
        raise ParameterError("n must be >= 1")
    rng = seed.generator()
    c, s, mu, kappa, gbar = p.c, p.s, p.mu, p.kappa, p.mean_snr
    nonc = rng.gamma(shape=c, scale=1.0 / c, size=n)  # the dominant power
    nonc *= 2.0 * mu * kappa
    snr = rng.noncentral_chisquare(df=2.0 * mu, nonc=nonc)
    del nonc  # scaled in place below, with at most two arrays live
    snr *= gbar / (2.0 * mu * (1.0 + kappa))
    snr /= rng.gamma(shape=s, scale=1.0 / (s - 1.0), size=n)  # the envelope
    return snr


# ---------------------------------------------------------------------------
# LOS-shadowed Rician


def rician_shadowed_cdf(p: RicianShadowedParams, gamma):
    """CDF as the negative-binomial mixture of Gamma CDFs (Abdi et al.,
    IEEE TWC 2(3), 2003), sum_i NB(m, rho)_i P(i + 1, x) at
    x = gamma / (2 sigma2 mean_snr), by one `_ln_window_sum`: it holds as
    rho -> 1, where the NB mass moves out to i ~ m rho / (1 - rho).  The
    terms are log-concave (m >= 1) or falling (m < 1).  Vectorized over
    gamma."""
    g = np.asarray(gamma, dtype=float)
    scalar = g.ndim == 0
    g = np.atleast_1d(g)
    if not np.all(g >= 0):  # NaN too: it has no window
        raise ParameterError("gamma must be non-negative")
    m, rho = p.m, p.los_fraction
    # ln(1 - rho) and ln(rho) from their own ratios, as in the density
    ln_rest = math.log(p.scatter_fraction)
    ln_rho = -math.log1p(2.0 * p.sigma2 * m / p.xi)
    ln_nb0 = m * ln_rest - sc.gammaln(m)
    x = g / (2.0 * p.sigma2 * p.mean_snr)
    pos = np.nonzero(x > 0)[0]  # F(0) = 0
    xp = x[pos]

    def ln_terms(rows, i):
        return (ln_nb0 + sc.gammaln(m + i) - sc.gammaln(i + 1.0) + i * ln_rho
                + np.log(sc.gammainc(i + 1.0, xp[rows, None])))

    def ratio_sup(rows, i):  # P(i+2, x) / P(i+1, x) <= x / (i+2)
        return rho * np.maximum((m + i) / (i + 1.0), 1.0) * np.minimum(xp[rows] / (i + 2.0), 1.0)

    peak = np.minimum(xp, max(m - 1.0, 0.0) * math.exp(ln_rho - ln_rest))  # the NB mode
    out = np.zeros_like(x)
    out[pos] = np.exp(_ln_window_sum(ln_terms, ratio_sup, peak, np.sqrt(peak)))
    out = np.clip(out, 0.0, 1.0)
    return float(out[0]) if scalar else out


def rician_shadowed_cdf_integral(p: RicianShadowedParams, gamma: float) -> float:
    """Defining-integral oracle of `rician_shadowed_cdf`: adaptive
    quadrature over [0, gamma] of the kappa-mu shadowed density at mu = 1
    (`_kappa_mu_shadowed_pdf_scalar`)."""
    pdf = _kappa_mu_shadowed_pdf_scalar(p.m, 1.0, p.los_fraction, p.scatter_fraction,
                                        2.0 * p.sigma2 * p.mean_snr)
    val = _quad(pdf, 0.0, gamma, (1e-11, 1e-9),
                "receiver outage quadrature did not reach tolerance",
                limit=200, epsabs=1e-12, epsrel=1e-10)
    return min(max(val, 0.0), 1.0)


def rician_shadowed_sample(p: RicianShadowedParams, seed: SamplerSeed,
                           n: int) -> np.ndarray:
    """Draws via Gamma-shadowed LOS power inside a noncentral chi-square."""
    if n < 1:
        raise ParameterError("n must be >= 1")
    rng = seed.generator()
    nonc = rng.gamma(shape=p.m, scale=p.xi / p.m, size=n)  # the LOS power
    nonc /= p.sigma2
    power = rng.noncentral_chisquare(df=2.0, nonc=nonc)
    del nonc  # scaled in place below, with one array live
    power *= p.sigma2
    power *= p.mean_snr
    return power


# ---------------------------------------------------------------------------
# Gamma SNR (Nakagami-m links)


def _gamma_pdf_scalar(p: GammaSnrParams):
    """Gamma SNR density for quadrature integrands: returns f(gamma) for
    one float gamma >= 0."""
    nu, beta = p.nu, p.beta
    ln_rate = nu * math.log(beta)
    ln_norm = float(sc.gammaln(nu))
    at_zero = beta if nu == 1 else 0.0

    def pdf(g):
        if not g > 0.0:
            return at_zero
        return math.exp(ln_rate + (nu - 1.0) * math.log(g) - beta * g - ln_norm)

    return pdf


def gamma_cdf(p: GammaSnrParams, gamma):
    """Regularized lower incomplete gamma P(nu, beta*gamma), taken
    directly: 1 - Q(nu, beta*gamma) would cancel at small CDF values."""
    g = np.asarray(gamma, dtype=float)
    scalar = g.ndim == 0
    g = np.atleast_1d(g)
    if np.any(g < 0):
        raise ParameterError("gamma must be non-negative")
    out = sc.gammainc(p.nu, p.beta * g)
    return float(out[0]) if scalar else out


def gamma_cdf_integral(p: GammaSnrParams, gamma: float) -> float:
    """Defining-integral oracle of `gamma_cdf`: the density
    (`_gamma_pdf_scalar`) integrated in u = ln(t) from `_log_floor`, split
    at the mode ln(nu/beta)."""
    gamma = float(gamma)
    if gamma < 0:
        raise ParameterError("gamma must be non-negative")
    if gamma == 0.0:
        return 0.0
    u_hi = min(math.log(gamma), _U_MAX)  # the mass beyond e^700 is beyond double precision
    knee = math.log(p.nu / p.beta)
    u_lo, head = _log_floor(u_hi, knee, p.nu, p.nu * math.log(p.beta) - sc.gammaln(p.nu))
    pdf = _gamma_pdf_scalar(p)

    def integrand(u):
        t = math.exp(u)
        return pdf(t) * t

    pts = [knee] if u_lo < knee < u_hi else None
    val = head + _quad(integrand, u_lo, u_hi, (1e-11, 1e-9),
                       "Gamma CDF quadrature did not reach tolerance",
                       points=pts, limit=300, epsabs=1e-13, epsrel=1e-11)
    return min(max(val, 0.0), 1.0)
