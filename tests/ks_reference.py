"""Test references built on the double kappa-mu shadowed density.

`dksm_pdf`, the density written over arrays: the independent twin of
`jamsec.fading._dksm_pdf_scalar` (the one density the package
integrates) and the integrand of `dksm_cdf_at_sorted`, the CDF on
100k-point sorted grids that the Kolmogorov-Smirnov checks need, where
a scalar call per node would be wasteful.

`capacity_receiver_density`, E[log2(1 + gamma)] integrated against the
scalar density: the receiver capacity's third oracle, beside the fold
(`secrecy.capacity_receiver_series`, from the density's Mellin
transform) and the MGF integral (`secrecy.capacity_receiver_quadrature`).
"""

import math

import numpy as np
import scipy.special as sc

from jamsec.errors import ParameterError
from jamsec.fading import (
    _HYP_DIRECT_MAX,
    _U_MAX,
    _dksm_ln_amp,
    _dksm_log_knee,
    _dksm_pdf_at_zero,
    _dksm_pdf_scalar,
    _ln_hyp2f1_series,
    _log_floor,
    _quad,
)

_HEAD_SEGMENTS = 96  # dksm_cdf_at_sorted panels below the first grid point
_LN2 = math.log(2.0)


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
    ln_amp = _dksm_ln_amp(p)

    out = np.zeros_like(g)
    pos = g > 0
    if np.any(pos):
        gp = g[pos]
        denom = big_t * gp + phi
        z = p.big_k * mu * kappa * gp / denom
        ln_pdf = ln_amp + (mu - 1.0) * np.log(gp) - (s + mu) * np.log1p(gp * (big_t / phi))
        hyp = 1.0
        if kappa > 0:
            hyp = sc.hyp2f1(c, s + mu, mu, z)
            # where scipy gives up (NaN) or the product would be 0 * inf,
            # the 2F1 in log space, as in the scalar density
            lost = ~(hyp <= _HYP_DIRECT_MAX)
            if np.any(lost):
                ln_pdf[lost] += _ln_hyp2f1_series(c, s + mu, mu, z[lost])
                hyp[lost] = 1.0
        out[pos] = np.exp(ln_pdf) * hyp
    if np.any(~pos):
        out[~pos] = _dksm_pdf_at_zero(mu, ln_amp)
    return float(out[0]) if scalar else out


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
    u_lo, below = _log_floor(u[0], _dksm_log_knee(p), p.mu, _dksm_ln_amp(p))
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
    knee = _dksm_log_knee(p)
    u_lo = max(knee - 60.0 / p.mu - 5.0, -_U_MAX)
    u_hi = min(knee + 85.0 / (p.s - 1.0) + 15.0, _U_MAX)
    pdf = _dksm_pdf_scalar(p)

    def integrand(u):
        t = math.exp(u)
        return math.log1p(t) / _LN2 * pdf(t) * t

    val = _quad(integrand, u_lo, u_hi, (1e-8, 1e-6),
                "receiver capacity density integral did not reach tolerance",
                points=[knee], limit=400, epsabs=1e-12, epsrel=1e-10)
    return max(val, 0.0)
