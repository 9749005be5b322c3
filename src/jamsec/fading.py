"""Fading distributions for the link model.

The receiver channel follows a kappa-mu envelope whose dominant components
fluctuate with a Gamma (Nakagami-m power) shadowing layer of shape ``c``
and whose whole envelope is further shadowed by an inverse-Nakagami layer
of shape ``s`` ("double shadowed" model).  Special cases used elsewhere:
LOS-shadowed Rician (mu=1, dominant shadowing only) and Gamma/Nakagami-m
SNR.

The quadrature CDFs integrate one scalar density per law
(`_dksm_pdf_scalar`, `_rician_shadowed_pdf_scalar`, `_gamma_pdf_scalar`);
the quadrature capacities (`secrecy`) integrate MGFs instead.  Every
quadrature accepts a result only through `_quad`.

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
    "mixture_cdf",
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
        if not (0.0 < self.beta < math.inf):  # a subnormal mean SNR overflows m / SNR
            raise ParameterError(f"beta must be positive and finite (got {self.beta:g})")


# ---------------------------------------------------------------------------
# double shadowed kappa-mu


def _dksm_ln_amp(p: DoubleKappaMuShadowedParams) -> float:
    """ln of the density's constant factor.

    Gamma(s+mu)/Gamma(s) is one Pochhammer ratio: at large s the two
    log-gammas are ~s ln s apart and their difference loses digits.  The
    log-gammas serve where poch overflows."""
    c, s, mu = p.c, p.s, p.mu
    ratio = sc.poch(s, mu)
    ln_ratio = math.log(ratio) if ratio < math.inf else sc.gammaln(s + mu) - sc.gammaln(s)
    return float(mu * math.log(p.big_t / ((s - 1.0) * p.mean_snr))
                 - c * math.log1p(mu * p.kappa / c) + ln_ratio - sc.gammaln(mu))


def _dksm_pdf_at_zero(mu: float, ln_amp: float) -> float:
    if mu > 1.0:
        return 0.0
    return math.exp(ln_amp) if mu == 1.0 else math.inf


def _dksm_pdf_scalar(p: DoubleKappaMuShadowedParams):
    """The SNR density as f(gamma) for one float gamma >= 0, the form the
    quadrature integrands call.  The law's constants are computed once
    here, so each call is float arithmetic plus one scalar 2F1."""
    c, s, mu, kappa = p.c, p.s, p.mu, p.kappa
    big_t = p.big_t
    phi = (s - 1.0) * p.mean_snr
    t_over_phi = big_t / phi
    z_scale = p.big_k * mu * kappa
    ln_amp = _dksm_ln_amp(p)
    at_zero = _dksm_pdf_at_zero(mu, ln_amp)

    def pdf(g):
        if not g > 0.0:
            return at_zero
        # phi^(s+mu) (T g + phi)^-(s+mu) as (1 + T g/phi)^-(s+mu), which
        # keeps its digits at large s
        ln_pdf = ln_amp + (mu - 1.0) * math.log(g) - (s + mu) * math.log1p(g * t_over_phi)
        if kappa > 0:
            z = z_scale * g / (big_t * g + phi)
            hyp = sc.hyp2f1(c, s + mu, mu, z)
            # Both failures of exp(ln_pdf) * hyp come at large s: scipy
            # gives up (NaN) past 1e4 recursion steps, i.e. once s > 1e4,
            # and deep in the tail exp(ln_pdf) underflows while the 2F1
            # overflows (0 * inf) or is merely huge.  Those points take the
            # 2F1 in log space.  Below the cap an underflowed exp(ln_pdf)
            # costs any normal-range product at most 1.1e-12 relative.
            if not hyp <= _HYP_DIRECT_MAX:
                return math.exp(ln_pdf + _ln_hyp2f1_series(c, s + mu, mu, [z])[0])
            return math.exp(ln_pdf) * float(hyp)
        return math.exp(ln_pdf)

    return pdf


# largest 2F1 factor that _dksm_pdf_scalar multiplies by exp(ln_pdf) directly
_HYP_DIRECT_MAX = 1e4


def _ln_poch(x: float, k):
    """ln (x)_k = ln Gamma(x+k) - ln Gamma(x); from x = 50 on, Stirling's
    series (DLMF 5.11.1) differenced in closed form, as two log-gammas of
    size x ln x would lose 1e-10 of it at x = 1e5."""
    if x < 50.0:
        return sc.gammaln(x + k) - sc.gammaln(x)

    def remainder(v):  # of Stirling's series, to 1e-15 from v = 50 on
        return (1.0 / 12.0 - (1.0 / 360.0 - 1.0 / (1260.0 * v * v)) / (v * v)) / v

    return k * np.log(x + k) + (x - 0.5) * np.log1p(k / x) - k + remainder(x + k) - remainder(x)


def _ln_hyp2f1_series(a, b, c, z) -> np.ndarray:
    """ln 2F1(a, b; c; z), a, b, c > 0, at an array of 0 < z < 1 by one
    `_ln_window_sum` of the positive power series.  The term ratio
    (a+k)(b+k)z / ((c+k)(1+k)) exceeds 1 only between the roots of a
    downward parabola, so the terms may dip, then peak at the larger root;
    they spread like a negative binomial's, then fall at rate z."""
    z = np.asarray(z, dtype=float)
    qa, qb, qc = 1.0 - z, c + 1.0 - z * (a + b), c - z * a * b
    disc = qb * qb - 4.0 * qa * qc
    peak = np.where(disc > 0, np.maximum((np.sqrt(np.abs(disc)) - qb) / (2.0 * qa), 0.0), 0.0)
    lnz = np.log(z)

    def ln_t(k, lz):
        return _ln_poch(a, k) + _ln_poch(b, k) - _ln_poch(c, k) - sc.gammaln(k + 1.0) + k * lz

    def ln_terms(rows, k):
        # log-gammas at the first k, then the cumulative log term ratios:
        # all positive, so nothing cancels.  Where k jumps over a doubled
        # window's old columns, the step is a difference of log-gamma terms
        kk, lz = k[:, :-1], lnz[rows, None]
        steps = np.log((a + kk) * (b + kk) / ((c + kk) * (1.0 + kk))) + lz
        if np.any(k[:, -1] - k[:, 0] > k.shape[1] - 1):
            jump = k[:, 1:] > kk + 1.0
            lzj = np.broadcast_to(lz, jump.shape)[jump]
            steps[jump] = ln_t(k[:, 1:][jump], lzj) - ln_t(kk[jump], lzj)
        return ln_t(k[:, :1], lz) + np.concatenate(
            (np.zeros((k.shape[0], 1)), np.cumsum(steps, axis=1)), axis=1)

    def ratio_sup(rows, k):  # past k, (a+k)/(c+k) and (b+k)/(1+k) stay on one side of 1
        return z[rows] * np.maximum((a + k) / (c + k), 1.0) * np.maximum((b + k) / (1.0 + k), 1.0)

    spread = np.sqrt(peak * (1.0 + peak / b)) - 2.0 / lnz
    return _ln_window_sum(ln_terms, ratio_sup, peak, spread)


def _dksm_log_knee(p: DoubleKappaMuShadowedParams) -> float:
    # scale where the (T*gamma + phi) denominator turns over
    return math.log((p.s - 1.0) * p.mean_snr / p.big_t)


def _log_floor(u_top: float, knee: float, rate: float, ln_amp: float):
    """(u_lo, mass below it) for a CDF integral in u = ln(t) up to u_top of
    a density A t^(rate-1) (1 + O(t)): 60/rate below the knee or u_top,
    floored at -_U_MAX, where exp(u) would underflow; below the floor the
    mass is A e^(rate u) / rate."""
    u_lo = min(u_top, knee) - 60.0 / rate
    if u_lo >= -_U_MAX:
        return u_lo, 0.0
    return -_U_MAX, math.exp(ln_amp + rate * -_U_MAX) / rate


def _log_cdf(pdf, gamma, knee: float, rate: float, ln_amp: float, what: str) -> float:
    """CDF at gamma of the scalar density `pdf` by adaptive quadrature in
    u = ln(t), split at `knee`, from `_log_floor`."""
    gamma = float(gamma)
    if gamma < 0:
        raise ParameterError("gamma must be non-negative")
    if gamma == 0.0:
        return 0.0
    u_hi = min(math.log(gamma), _U_MAX)  # the mass beyond e^700 is beyond double precision
    u_lo, head = _log_floor(u_hi, knee, rate, ln_amp)

    def integrand(u):
        t = math.exp(u)
        return pdf(t) * t

    pts = [knee] if u_lo < knee < u_hi else None
    val = head + _quad(integrand, u_lo, u_hi, (1e-11, 1e-9),
                       f"{what} CDF quadrature did not reach tolerance",
                       points=pts, limit=300, epsabs=1e-13, epsrel=1e-11)
    return min(max(val, 0.0), 1.0)


def dksm_cdf(p: DoubleKappaMuShadowedParams, gamma) -> float:
    """CDF by `_log_cdf` of `_dksm_pdf_scalar`, split at the knee."""
    return _log_cdf(_dksm_pdf_scalar(p), gamma, _dksm_log_knee(p), p.mu, _dksm_ln_amp(p),
                    "receiver")


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


def _rician_shadowed_pdf_scalar(p: RicianShadowedParams):
    """Density of the LOS-shadowed Rician SNR for quadrature integrands:
    returns f(gamma) for one float gamma >= 0.

    f = exp(ln_amp - x) 1F1(m; 1; rho x) at x = gamma / scale, taken
    through Kummer's transformation (DLMF 13.2.39) as
    exp(ln_amp - (1 - rho) x) 1F1(1 - m; 1; -rho x): the exponential
    factor never grows, and the 1F1 neither overflows nor needs an
    asymptote at large rho x."""
    rho = p.los_fraction
    # 1 - rho from its own ratio: near rho = 1 the difference would be
    # mostly rho's rounding error
    one_minus_rho = 2.0 * p.sigma2 * p.m / (p.xi + 2.0 * p.sigma2 * p.m)
    scale = 2.0 * p.sigma2 * p.mean_snr
    ln_amp = p.m * math.log(one_minus_rho) - math.log(scale)
    decay = one_minus_rho / scale
    a, z_scale = 1.0 - p.m, -rho / scale

    def pdf(g):
        return math.exp(ln_amp - decay * g) * float(sc.hyp1f1(a, 1.0, z_scale * g))

    return pdf


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
    ln_rest = math.log(2.0 * p.sigma2 * m / (p.xi + 2.0 * p.sigma2 * m))
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
    quadrature of the density (`_rician_shadowed_pdf_scalar`) over
    [0, gamma]."""
    val = _quad(_rician_shadowed_pdf_scalar(p), 0.0, gamma, (1e-11, 1e-9),
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
    """Defining-integral oracle of `gamma_cdf`: `_log_cdf` of the density
    (`_gamma_pdf_scalar`), split at the mode ln(nu/beta)."""
    return _log_cdf(_gamma_pdf_scalar(p), gamma, math.log(p.nu / p.beta), p.nu,
                    p.nu * math.log(p.beta) - sc.gammaln(p.nu), "Gamma")


# ---------------------------------------------------------------------------
# blockage mixture


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
