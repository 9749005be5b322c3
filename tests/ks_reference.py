"""Test references built on the double kappa-mu shadowed density.

The package never evaluates this density: `fading.dksm_cdf` conditions
on the envelope shadowing and integrates the kappa-mu shadowed 1F1
density against an incomplete gamma, and the capacity routes use the
Mellin transform (the fold) or the MGF.  The density written with its
Gauss 2F1 lives here, as the independent check of all three:

`dksm_pdf_scalar`, the density for one float gamma, whose 2F1 factor is
scipy's `hyp2f1`, or a log-space series (`ln_hyp2f1_series`) where scipy
gives up (s > 1e4) or the factor is too large to multiply directly.

`dksm_pdf`, the same density written over arrays, and the integrand of
`dksm_cdf_at_sorted`, the CDF on 100k-point sorted grids that the
Kolmogorov-Smirnov checks need, where a scalar call per node would be
wasteful.

`dksm_cdf_density`, the CDF as the density's own integral in u = ln(t),
split at the knee: the twin the conditioning route is checked against.

`capacity_receiver_density`, E[log2(1 + gamma)] integrated against the
scalar density: the receiver capacity's third oracle, beside the fold
(`secrecy.capacity_receiver_series`, from the density's Mellin
transform) and the MGF integral (`secrecy.capacity_receiver_quadrature`).
"""

import math

import numpy as np
import scipy.integrate
import scipy.special as sc
from scipy.special import cython_special

from jamsec.errors import AccuracyError, ParameterError
from jamsec.fading import _U_MAX, _log_floor

_HEAD_SEGMENTS = 96  # dksm_cdf_at_sorted panels below the first grid point
_LN2 = math.log(2.0)
# largest 2F1 factor that the densities multiply by exp(ln_pdf) directly
HYP_DIRECT_MAX = 1e4
_FIRST_SPREADS = 20.0  # width of ln_hyp2f1_series's first window, in spreads


def _quadpack(f, a, b, tol, message, **options) -> float:
    """``scipy.integrate.quad(f, a, b, **options)`` under the package's
    acceptance rule: a finite value whose error estimate is within
    max(tol[0], tol[1] * |value|), else AccuracyError.  QUADPACK, not the
    package's integrator, so these references stay independent of it."""
    val, err = scipy.integrate.quad(f, a, b, **options)
    if not (math.isfinite(val) and err <= max(tol[0], tol[1] * abs(val))):
        raise AccuracyError(message, best=val, error_estimate=err)
    return val


def dksm_ln_amp(p) -> float:
    """ln of the density's constant factor.

    Gamma(s+mu)/Gamma(s) is one Pochhammer ratio: at large s the two
    log-gammas are ~s ln s apart and their difference loses digits.  The
    log-gammas serve where poch overflows."""
    c, s, mu = p.c, p.s, p.mu
    ratio = sc.poch(s, mu)
    ln_ratio = math.log(ratio) if ratio < math.inf else sc.gammaln(s + mu) - sc.gammaln(s)
    return float(mu * math.log(p.big_t / ((s - 1.0) * p.mean_snr))
                 - c * math.log1p(mu * p.kappa / c) + ln_ratio - sc.gammaln(mu))


def dksm_log_knee(p) -> float:
    # scale where the (T*gamma + phi) denominator turns over
    return math.log((p.s - 1.0) * p.mean_snr / p.big_t)


def _pdf_at_zero(mu: float, ln_amp: float) -> float:
    if mu > 1.0:
        return 0.0
    return math.exp(ln_amp) if mu == 1.0 else math.inf


def dksm_pdf_scalar(p):
    """The SNR density as f(gamma) for one float gamma >= 0, the form the
    quadrature integrands call.  The law's constants are computed once
    here, so each call is float arithmetic plus one scalar 2F1."""
    c, s, mu, kappa = p.c, p.s, p.mu, p.kappa
    big_t = p.big_t
    phi = (s - 1.0) * p.mean_snr
    t_over_phi = big_t / phi
    z_scale = big_t / (c + mu * kappa) * mu * kappa
    ln_amp = dksm_ln_amp(p)
    at_zero = _pdf_at_zero(mu, ln_amp)

    def pdf(g):
        if not g > 0.0:
            return at_zero
        # phi^(s+mu) (T g + phi)^-(s+mu) as (1 + T g/phi)^-(s+mu), which
        # keeps its digits at large s
        ln_pdf = ln_amp + (mu - 1.0) * math.log(g) - (s + mu) * math.log1p(g * t_over_phi)
        if kappa > 0:
            z = z_scale * g / (big_t * g + phi)
            # the scalar entry point of scipy's hyp2f1: the same values as
            # the ufunc at a quarter of its call cost
            hyp = cython_special.hyp2f1(c, s + mu, mu, z)
            # Both failures of exp(ln_pdf) * hyp come at large s: scipy
            # gives up (NaN) past 1e4 recursion steps, i.e. once s > 1e4,
            # and deep in the tail exp(ln_pdf) underflows while the 2F1
            # overflows (0 * inf) or is merely huge.  Those points take the
            # 2F1 in log space.  Below the cap an underflowed exp(ln_pdf)
            # costs any normal-range product at most 1.1e-12 relative.
            if not hyp <= HYP_DIRECT_MAX:
                return math.exp(ln_pdf + ln_hyp2f1_series(c, s + mu, mu, [z])[0])
            return math.exp(ln_pdf) * float(hyp)
        return math.exp(ln_pdf)

    return pdf


def _ln_poch(x: float, k):
    """ln (x)_k = ln Gamma(x+k) - ln Gamma(x); from x = 50 on, Stirling's
    series (DLMF 5.11.1) differenced in closed form, as two log-gammas of
    size x ln x would lose 1e-10 of it at x = 1e5."""
    if x < 50.0:
        return sc.gammaln(x + k) - sc.gammaln(x)

    def remainder(v):  # of Stirling's series, to 1e-15 from v = 50 on
        return (1.0 / 12.0 - (1.0 / 360.0 - 1.0 / (1260.0 * v * v)) / (v * v)) / v

    return k * np.log(x + k) + (x - 0.5) * np.log1p(k / x) - k + remainder(x + k) - remainder(x)


def ln_hyp2f1_series(a, b, c, z) -> np.ndarray:
    """ln 2F1(a, b; c; z), a, b, c > 0, at each of an array of 0 < z < 1,
    by its positive power series summed in log space over a window around
    the terms' peak (Ding, Appl. Stat. 41, 1992).  The term ratio
    (a+k)(b+k)z / ((c+k)(1+k)) exceeds 1 only between the roots of a
    downward parabola, so the terms may dip, then peak at the larger root;
    they spread like a negative binomial's, then fall at rate z.  A window
    starts _FIRST_SPREADS spreads wide and doubles until the tail above it,
    at most t_hi r/(1-r) with r the ratio's bound past it, and the head
    below, at most lo max(t_0, t_lo), are within 1e-17 of its sum."""
    out = []
    for v in np.asarray(z, dtype=float):
        qa, qb, qc = 1.0 - v, c + 1.0 - v * (a + b), c - v * a * b
        disc = qb * qb - 4.0 * qa * qc
        peak = math.floor(max((math.sqrt(disc) - qb) / (2.0 * qa), 0.0)) if disc > 0 else 0.0
        lz = math.log(v)
        spread = math.sqrt(peak * (1.0 + peak / b)) - 2.0 / lz
        w = 2.0 ** math.ceil(math.log2(max(32.0, _FIRST_SPREADS * spread)))
        while True:
            lo = max(peak - w // 2, 0.0)
            k = lo + np.arange(w - 1.0)
            # a log-gamma term at lo, then the cumulative log term ratios:
            # all positive, so nothing cancels
            lt = (_ln_poch(a, lo) + _ln_poch(b, lo) - _ln_poch(c, lo) - sc.gammaln(lo + 1.0)
                  + lo * lz + np.concatenate(
                      ([0.0], np.cumsum(np.log((a + k) * (b + k) / ((c + k) * (1.0 + k))) + lz))))
            top = lt.max()
            total = top + math.log(np.exp(lt - top).sum())
            hi = lo + w - 1.0  # past hi, (a+k)/(c+k) and (b+k)/(1+k) stay on one side of 1
            r = v * max((a + hi) / (c + hi), 1.0) * max((b + hi) / (1.0 + hi), 1.0)
            left = lt[-1] + math.log(r / (1.0 - r)) if r < 1.0 else math.inf
            if lo:  # t_0 = 1
                left = max(left, math.log(lo) + max(0.0, lt[0]))
            if left <= total + math.log(1e-17):
                break
            w *= 2.0
        out.append(total)
    return np.array(out)


def dksm_pdf(p, gamma):
    """SNR density, vectorized over gamma >= 0."""
    g = np.asarray(gamma, dtype=float)
    scalar = g.ndim == 0
    g = np.atleast_1d(g)
    if np.any(g < 0):
        raise ParameterError("gamma must be non-negative")

    c, s, mu, kappa, gbar = p.c, p.s, p.mu, p.kappa, p.mean_snr
    big_t = p.big_t
    phi = (s - 1.0) * gbar
    ln_amp = dksm_ln_amp(p)

    out = np.zeros_like(g)
    pos = g > 0
    if np.any(pos):
        gp = g[pos]
        denom = big_t * gp + phi
        z = big_t / (c + mu * kappa) * mu * kappa * gp / denom
        ln_pdf = ln_amp + (mu - 1.0) * np.log(gp) - (s + mu) * np.log1p(gp * (big_t / phi))
        hyp = 1.0
        if kappa > 0:
            hyp = sc.hyp2f1(c, s + mu, mu, z)
            # where scipy gives up (NaN) or the product would be 0 * inf,
            # the 2F1 in log space, as in the scalar density
            lost = ~(hyp <= HYP_DIRECT_MAX)
            if np.any(lost):
                ln_pdf[lost] += ln_hyp2f1_series(c, s + mu, mu, z[lost])
                hyp[lost] = 1.0
        out[pos] = np.exp(ln_pdf) * hyp
    if np.any(~pos):
        out[~pos] = _pdf_at_zero(mu, ln_amp)
    return float(out[0]) if scalar else out


def dksm_cdf_density(p, gamma) -> float:
    """CDF at gamma > 0 as the integral of `dksm_pdf_scalar` in u = ln(t)
    from `fading._log_floor`, split at the knee: the package's route
    before it conditioned on the envelope shadowing."""
    knee = dksm_log_knee(p)
    u_hi = min(math.log(gamma), _U_MAX)
    u_lo, head = _log_floor(u_hi, knee, p.mu, dksm_ln_amp(p))
    pdf = dksm_pdf_scalar(p)

    def integrand(u):
        t = math.exp(u)
        return pdf(t) * t

    val = head + _quadpack(integrand, u_lo, u_hi, (1e-11, 1e-9),
                           "receiver density CDF quadrature did not reach tolerance",
                           points=[knee] if u_lo < knee < u_hi else None,
                           limit=300, epsabs=1e-13, epsrel=1e-11)
    return min(max(val, 0.0), 1.0)


def dksm_cdf_at_sorted(p, g_sorted):
    """CDF evaluated at an ascending grid in one cumulative pass.

    Composite Gauss-Legendre in u = ln(gamma) between consecutive grid
    points, with _HEAD_SEGMENTS panels below the first one down to
    `fading._log_floor`.
    """
    g_sorted = np.asarray(g_sorted, dtype=float)
    if g_sorted.ndim != 1 or len(g_sorted) == 0:
        raise ParameterError("need a one-dimensional, non-empty grid")
    if np.any(np.diff(g_sorted) < 0) or g_sorted[0] <= 0:
        raise ParameterError("grid must be ascending and positive")

    u = np.log(g_sorted)
    u_lo, below = _log_floor(u[0], dksm_log_knee(p), p.mu, dksm_ln_amp(p))
    head = np.linspace(u_lo, u[0], _HEAD_SEGMENTS + 1)
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
    cum = below + np.cumsum(seg)
    cdf = cum[_HEAD_SEGMENTS - 1 :]
    return np.clip(cdf, 0.0, 1.0)


def capacity_receiver_density(p):
    """E[log2(1 + gamma)] of the dksm law by adaptive quadrature of
    log2(1 + t) f(t) in u = ln(t), split at the knee.  Above the knee the
    integrand falls like u e^(-s u), so capping the upper limit at _U_MAX
    loses nothing and keeps exp(u) finite as s -> 1.  Below the lower
    limit, floored at -_U_MAX, the integrand is ~ t^(1+mu): the mass there
    is beyond double precision."""
    knee = dksm_log_knee(p)
    u_lo = max(knee - 60.0 / p.mu - 5.0, -_U_MAX)
    u_hi = min(knee + 85.0 / (p.s - 1.0) + 15.0, _U_MAX)
    pdf = dksm_pdf_scalar(p)

    def integrand(u):
        t = math.exp(u)
        return math.log1p(t) / _LN2 * pdf(t) * t

    val = _quadpack(integrand, u_lo, u_hi, (1e-8, 1e-6),
                    "receiver capacity density integral did not reach tolerance",
                    points=[knee], limit=400, epsabs=1e-12, epsrel=1e-10)
    return max(val, 0.0)
