"""Fading distributions for the link model.

The receiver channel follows a kappa-mu envelope whose dominant components
fluctuate with a Gamma (Nakagami-m power) shadowing layer of shape ``c``
and whose whole envelope is further shadowed by an inverse-Nakagami layer
of shape ``s`` ("double shadowed" model).  Special cases used elsewhere:
LOS-shadowed Rician (mu=1, dominant shadowing only) and Gamma/Nakagami-m
SNR.

The quadrature CDFs integrate the kappa-mu shadowed density
(`_kappa_mu_shadowed_pdf`, one 1F1) for both receiver laws, the double
model's conditioned on its envelope shadowing, and the Gamma one
(`_gamma_pdf`); the quadrature capacities (`secrecy`) integrate MGFs
instead.  Every quadrature accepts a result only through `_quad`, whose
integrator, `_gauss_kronrod`, is adaptive G10/K21 in numpy with
QUADPACK's constants and error estimate: it calls the route's array
integrand once per refinement round, on every new node of the round.
The package never imports scipy.integrate.

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

_PMF_TOL = 1e-20  # pmf mass `_pmf_mixture` may leave out, relative to its window's
_PMF_BLOCK = 2.0**16  # widest block of terms `_pmf_mixture` steps at once
_NB_SPREAD_MAX = 1e3  # NB spread from which the Rician CDF may sum over the Poisson side
_U_MAX = 700.0  # |u| bound of the quadratures in u = ln(gamma): exp(u) stays normal


# QUADPACK's G10/K21 pair on [-1, 1] (qk21; Piessens et al., QUADPACK,
# Springer 1983): the 21 Kronrod nodes, their weights, and the 10-point
# Gauss weights on the same nodes, 0 at the Kronrod-only ones
_XGK = (0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
        0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
        0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
        0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
        0.294392862701460198131126603103866, 0.148874338981631210884826001129720)
_WGK = (0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
        0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
        0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
        0.123491976262065851077208980102470, 0.134709217311473325928054001771707,
        0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
        0.149445554002916905664936468389821)
_WG = (0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
       0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
       0.295524224714752870173892994651338)
_G_HALF = tuple(v for w in _WG for v in (0.0, w))  # the Gauss weights on _XGK
_GK_X = np.array(tuple(-x for x in _XGK) + (0.0,) + _XGK[::-1])
_GK_W = np.array(_WGK + _WGK[-2::-1])
_G_W = np.array(_G_HALF + (0.0,) + _G_HALF[::-1])
_EPS, _TINY = np.finfo(float).eps, np.finfo(float).tiny


def _gk21(f, lo, hi):
    """(integral, error) of f over each [lo, hi] by the G10/K21 pair, f
    called once on the (intervals, 21) nodes.  The error is QUADPACK's:
    |K21 - G10| scaled by resasc, the K21 integral of |f - mean f|, as
    resasc min(1, 200 |K21 - G10| / resasc)^1.5, and at least 50 eps
    times the K21 integral of |f|.  Where resasc is 0, f is constant to
    rounding and the floor is the error.  The weighted sums are numpy
    reductions: a BLAS product's first call pages some 0.5 MB of kernel
    code into the process."""
    half = 0.5 * (hi - lo)
    fx = f((lo + half)[:, None] + half[:, None] * _GK_X)
    resk = np.add.reduce(fx * _GK_W, axis=1)
    resg = np.add.reduce(fx * _G_W, axis=1)
    resabs = np.add.reduce(np.abs(fx) * _GK_W, axis=1)
    resasc = np.add.reduce(np.abs(fx - 0.5 * resk[:, None]) * _GK_W, axis=1)
    ratio = np.minimum(200.0 * np.abs(resk - resg), resasc) / np.maximum(resasc, _TINY)
    err = np.maximum(resasc * ratio**1.5, 50.0 * _EPS * resabs) * np.abs(half)
    return resk * half, err


def _gauss_kronrod(f, breaks, panels, limit, epsabs, epsrel):
    """(integral, error) of f over [breaks[0], breaks[-1]] by adaptive
    G10/K21 (`_gk21`).  Each segment between consecutive breaks starts cut
    into `panels` equal intervals; each round then bisects every interval
    whose error is above its equal share of max(epsabs, epsrel |integral|),
    and f is called once a round, on all the new intervals' nodes.  It
    stops once the summed error is within that tolerance, or at `limit`
    intervals (the worst are bisected first), or when no interval can be
    split.  With at most `limit` starting intervals, as every route has,
    that is at most `limit` calls of f, each on at most 21 `limit` nodes."""
    breaks = np.asarray(breaks, dtype=float)
    edges = breaks[:-1, None] + (breaks[1:] - breaks[:-1])[:, None] * (
        np.arange(panels + 1.0) / panels)
    edges[:, -1] = breaks[1:]
    lo, hi = edges[:, :-1].ravel(), edges[:, 1:].ravel()
    val, err = _gk21(f, lo, hi)
    while True:
        total, error = float(val.sum()), float(err.sum())
        tol = max(epsabs, epsrel * abs(total))
        room = limit - lo.size
        if not (error > tol and room > 0):  # NaN too
            break
        mid = 0.5 * (lo + hi)
        split = np.flatnonzero((err > tol / lo.size) & (lo < mid) & (mid < hi))
        if split.size == 0:
            break
        if split.size > room:
            split = split[np.argsort(err[split], kind="stable")[-room:]]
        new_lo = np.concatenate([lo[split], mid[split]])
        new_hi = np.concatenate([mid[split], hi[split]])
        new_val, new_err = _gk21(f, new_lo, new_hi)
        keep = np.ones(lo.size, dtype=bool)
        keep[split] = False
        lo, hi = np.concatenate([lo[keep], new_lo]), np.concatenate([hi[keep], new_hi])
        val, err = np.concatenate([val[keep], new_val]), np.concatenate([err[keep], new_err])
    return total, error


def _quad(f, breaks, tol, message, *, panels, limit, epsabs, epsrel):
    """(integral, error) of the array integrand f over [breaks[0],
    breaks[-1]] by `_gauss_kronrod`, under the one acceptance rule of the
    quadrature routes: the value is accepted only if it and its error
    estimate are finite and the error is within max(tol[0], tol[1] *
    |value|); otherwise AccuracyError carries both.  epsabs and epsrel are
    the integrator's own, tighter targets; `limit` bounds its intervals."""
    val, err = _gauss_kronrod(f, breaks, panels, limit, epsabs, epsrel)
    if not (math.isfinite(val) and err <= max(tol[0], tol[1] * abs(val))):
        raise AccuracyError(message, best=val, error_estimate=err)
    return val, err


def _pmf_mixture(mode, ratio, spread, values) -> np.ndarray:
    """sum_k t_k v_k / sum_k t_k per row: bounded values v_k mixed by a
    unimodal pmf t_k on k >= 0 (negative binomial or Poisson), one row
    each.  ratio(rows, k) is t_(k+1)/t_k at integers k, monotone in k, and
    `mode` the rows' modes.  t starts at 1 on the mode and steps out by its
    ratio, so no pmf constant is formed: the normalisation cancels it and
    the seed's rounding.  Each side steps in blocks, the first 20 `spread`s
    wide (at least 32), doubling up to _PMF_BLOCK terms, and stops once
    what it leaves out is within _PMF_TOL of the window's mass: at most
    t_hi r/(1-r) above, with r the ratio past hi (its value there or as
    k -> inf), and lo t_lo below.  The windows depend on the pmf alone, so
    values(k_max) is called once they are known, with the largest k they
    reach, and returns v(rows, k).  The blocks are kept for the values up
    to _PMF_BLOCK terms a row and stepped again past that, so memory stays
    rows x _PMF_BLOCK.  A row's blocks depend on its own inputs and
    `spread`."""
    mode, n = np.floor(mode), mode.size
    first = 2.0 ** math.ceil(math.log2(min(max(32.0, 20.0 * spread), _PMF_BLOCK)))
    r_inf = ratio(np.arange(n), np.full((n, 1), 2.0**62))[:, 0]

    def blocks():  # (rows, k, t) over every row's window, the mode first
        lo, hi, t_lo, t_hi, mass = mode.copy(), mode.copy(), np.ones(n), np.ones(n), np.ones(n)
        yield np.arange(n), mode[:, None], np.ones((n, 1))
        up, down, w = np.arange(n), np.nonzero(lo > 0.0)[0], first
        while up.size or down.size:
            cols = np.arange(1.0, w + 1.0)
            if up.size:
                k = hi[up, None] + cols
                r = ratio(up, k - 1.0)
                t = t_hi[up, None] * np.cumprod(r, axis=1)
                yield up, k, t
                mass[up] += t.sum(axis=1)
                hi[up], t_hi[up] = k[:, -1], t[:, -1]
                r = np.maximum(r[:, -1], r_inf[up])  # past hi, as the ratio is monotone
                up = up[(r >= 1.0) | (t_hi[up] * r > _PMF_TOL * mass[up] * (1.0 - r))]
            if down.size:
                k = np.maximum(lo[down, None] - cols, 0.0)  # t = 0 below k = 0
                t = t_lo[down, None] * np.cumprod(
                    np.where(cols <= lo[down, None], 1.0 / ratio(down, k), 0.0), axis=1)
                yield down, k, t
                mass[down] += t.sum(axis=1)
                last = np.minimum(lo[down], w).astype(int) - 1
                lo[down], t_lo[down] = lo[down] - last - 1.0, t[np.arange(down.size), last]
                down = down[(lo[down] > 0.0) & (lo[down] * t_lo[down] > _PMF_TOL * mass[down])]
            w = min(2.0 * w, _PMF_BLOCK)

    kept, size, k_max = [], 0, 0.0
    for block in blocks():
        size += block[2].shape[1]
        k_max = max(k_max, float(block[1].max(initial=0.0)))
        if size <= _PMF_BLOCK:
            kept.append(block)
    value = values(k_max)
    num, den = np.zeros(n), np.zeros(n)
    for rows, k, t in kept if size <= _PMF_BLOCK else blocks():
        num[rows] += (t * value(rows, k)).sum(axis=1)
        den[rows] += t.sum(axis=1)
    return num / den


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


def _kappa_mu_shadowed_pdf(c: float, mu: float, w: float, one_minus_w: float, scale: float):
    """Density of the NB(c, w) mixture of Gamma(mu + i) laws at `scale`
    (Paris, IEEE TVT 63(2), 2014) as pdf(gamma, ln_pow), elementwise over
    an array gamma >= 0: at x = gamma / scale, (1-w)^c e^(ln_pow - (1-w) x)
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
        tiny = z >= -1e-100
        hyp = np.where(tiny, 1.0, sc.hyp1f1(a, mu, np.where(tiny, -1.0, z)))
        lost = ~np.isfinite(hyp)
        if lost.any():
            # scipy's inf band near z = -1418 at small |a|: the large -z
            # expansion (DLMF 13.7.2 after Kummer), taken where it is lost
            y = -np.where(lost, z, -1418.0)[..., None]
            k = np.arange(20.0)
            terms = np.cumprod((a + k) * (a - mu + 1.0 + k) / ((k + 1.0) * y), axis=-1)
            hyp = np.where(lost, (1.0 + terms.sum(axis=-1))
                           * np.exp(ln_ratio - a * np.log(y[..., 0])), hyp)
        return np.exp(ln_amp + ln_pow - decay * g) * hyp

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
    pdf = _kappa_mu_shadowed_pdf(c, mu, w, one_minus_w, 1.0)
    kernel = sc.gammainc if upper else sc.gammaincc

    def integrand(u):
        return pdf(np.exp(u), mu * u) * kernel(s, np.exp(u + ln_r))

    # relative accuracy down to 1e-300, below which the integrand is subnormal
    val, _ = _quad(integrand, [u_lo, *pts, max(u_hi, u_lo)], (1e-11, 1e-9),
                   "receiver CDF quadrature did not reach tolerance",
                   panels=4, limit=300, epsabs=1e-300, epsrel=1e-13)
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
    IEEE TWC 2(3), 2003), F = sum_i NB(m, rho)_i P(i + 1, x) at
    x = gamma / (2 sigma2 mean_snr), by one `_pmf_mixture`.  As rho -> 1
    the NB mass spreads over ~sqrt(m rho) / (1 - rho) terms; once that is
    over _NB_SPREAD_MAX and sqrt(x) is narrower, the same F is summed over
    the Poisson count of mean x instead, F = P(Pois(x) > NB) =
    sum_k Pois(x)_k I_(1-rho)(m, k), the NB CDF at k - 1.  With so wide
    an NB, F is 1.0 without a sum where `_rician_tail_ln_bound` puts
    1 - F below 2^-54.  Vectorized over gamma; a Poisson-side threshold is
    summed on its own."""
    g = np.asarray(gamma, dtype=float)
    scalar = g.ndim == 0
    g = np.atleast_1d(g)
    if not np.all(g >= 0):  # NaN too
        raise ParameterError("gamma must be non-negative")
    m, rho, rest = p.m, p.los_fraction, p.scatter_fraction
    x = g / (2.0 * p.sigma2 * p.mean_snr)
    spread = math.sqrt(m * rho) / rest
    out = np.zeros_like(x)  # F(0) = 0
    todo = x > 0
    if spread > _NB_SPREAD_MAX:  # the sums are long: skip those that round to 1
        one = _rician_tail_ln_bound(m, rest, x) < -54.0 * math.log(2.0)
        out[one] = 1.0
        todo &= ~one
    poisson = (spread > _NB_SPREAD_MAX) & (np.sqrt(x) < spread)
    for i in np.nonzero(todo & poisson)[0]:
        lam = x[i]  # the Poisson mean
        out[i] = _pmf_mixture(np.array([lam]), lambda rows, k: lam / (k + 1.0), math.sqrt(lam),
                              lambda _: lambda rows, k: np.where(
                                  k > 0, sc.betainc(m, np.maximum(k, 1.0), rest), 0.0))[0]
    nb = np.nonzero(todo & ~poisson)[0]
    xn = x[nb]
    out[nb] = _pmf_mixture(np.full(nb.size, max(m - 1.0, 0.0) * rho / rest),
                           lambda rows, i: rho * (m + i) / (i + 1.0), spread,
                           lambda _: lambda rows, i: sc.gammainc(i + 1.0, xn[rows, None]))
    out = np.clip(out, 0.0, 1.0)
    return float(out[0]) if scalar else out


def _rician_tail_ln_bound(m: float, rest: float, x: np.ndarray) -> np.ndarray:
    """ln of a bound on 1 - F = P(Pois(x) <= I), I ~ NB(m, rho), rest =
    1 - rho: P(I >= k) + P(Pois(x) < k) at k = x/2, each by its Chernoff
    bound, e^(-k ln(k / (rho (m + k))) + m ln(rest (m + k) / m)) and
    e^(-x + k + k ln(x / k)).  +inf where k is not above the NB mean
    m rho / rest, where the first bound does not hold."""
    k = x / 2.0
    with np.errstate(divide="ignore", invalid="ignore"):
        # ln(k / (rho (m + k))) as a difference of log1p's: both are ~rest
        nb = (-k * (np.log1p(-m / (m + k)) - math.log1p(-rest))
              + m * np.log(rest * (m + k) / m))
        ln = np.logaddexp(nb, -k * (1.0 - math.log(2.0)))
    return np.where(k * rest > m * (1.0 - rest), ln, np.inf)


def rician_shadowed_cdf_integral(p: RicianShadowedParams, gamma: float) -> float:
    """Defining-integral oracle of `rician_shadowed_cdf`: adaptive
    quadrature over [0, gamma] of the kappa-mu shadowed density at mu = 1
    (`_kappa_mu_shadowed_pdf`)."""
    pdf = _kappa_mu_shadowed_pdf(p.m, 1.0, p.los_fraction, p.scatter_fraction,
                                 2.0 * p.sigma2 * p.mean_snr)
    val, _ = _quad(pdf, [0.0, gamma], (1e-11, 1e-9),
                   "receiver outage quadrature did not reach tolerance",
                   panels=4, limit=200, epsabs=1e-12, epsrel=1e-10)
    return min(max(val, 0.0), 1.0)


def rician_shadowed_sample(p: RicianShadowedParams, seed: SamplerSeed,
                           n: int) -> np.ndarray:
    """Draws of mean_snr |sqrt(G) + sigma (Z1 + i Z2)|^2: a LOS amplitude
    of Gamma(m, xi/m) power G plus complex Gaussian scatter of power
    2 sigma^2 = 2 sigma2 (Abdi et al., IEEE TWC 2(3), 2003).  Given G this
    is sigma^2 times a noncentral chi-square with 2 degrees of freedom and
    noncentrality G / sigma^2, as NCchi2_2(lam) = (Z1 + sqrt(lam))^2 + Z2^2:
    one Gamma and two normal fills, with at most two arrays live.  For
    m < 1, G = Gamma(m + 1) U^(1/m) (Marsaglia & Tsang, ACM TOMS 26(3),
    2000), where numpy's Gamma(m) is slowest."""
    if n < 1:
        raise ParameterError("n must be >= 1")
    rng = seed.generator()
    if p.m >= 1.0:
        power = rng.standard_gamma(p.m, n)
    else:
        power = rng.standard_gamma(p.m + 1.0, n)
        u = rng.random(n)
        u **= 1.0 / p.m
        power *= u
        del u
    power *= p.xi / p.m
    np.sqrt(power, out=power)  # the LOS amplitude
    z = rng.standard_normal(n)
    z *= math.sqrt(p.sigma2)
    power += z  # the in-phase part
    np.square(power, out=power)
    rng.standard_normal(out=z)  # the quadrature part
    np.square(z, out=z)
    z *= p.sigma2
    power += z
    power *= p.mean_snr
    return power


# ---------------------------------------------------------------------------
# Gamma SNR (Nakagami-m links)


def _gamma_pdf(p: GammaSnrParams):
    """Gamma SNR density for quadrature integrands: returns f(gamma),
    elementwise over an array gamma >= 0."""
    nu, beta = p.nu, p.beta
    ln_rate = nu * math.log(beta)
    ln_norm = float(sc.gammaln(nu))
    at_zero = beta if nu == 1 else 0.0

    def pdf(g):
        pos = g > 0.0
        t = np.where(pos, g, 1.0)
        return np.where(pos, np.exp(ln_rate + (nu - 1.0) * np.log(t) - beta * t - ln_norm),
                        at_zero)

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
    (`_gamma_pdf`) integrated in u = ln(t) from `_log_floor`, split
    at the mode ln(nu/beta)."""
    gamma = float(gamma)
    if gamma < 0:
        raise ParameterError("gamma must be non-negative")
    if gamma == 0.0:
        return 0.0
    u_hi = min(math.log(gamma), _U_MAX)  # the mass beyond e^700 is beyond double precision
    knee = math.log(p.nu / p.beta)
    u_lo, head = _log_floor(u_hi, knee, p.nu, p.nu * math.log(p.beta) - sc.gammaln(p.nu))
    pdf = _gamma_pdf(p)

    def integrand(u):
        t = np.exp(u)
        return pdf(t) * t

    val, _ = _quad(integrand, [u_lo, *([knee] if u_lo < knee < u_hi else []), u_hi],
                   (1e-11, 1e-9), "Gamma CDF quadrature did not reach tolerance",
                   panels=8, limit=300, epsabs=1e-13, epsrel=1e-11)
    val += head
    return min(max(val, 0.0), 1.0)
