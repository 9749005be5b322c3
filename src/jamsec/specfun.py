"""Special-function kernel of the receiver capacity's closed form.

``meijer_series_fold`` sums the receiver capacity's series of
G^{3,2}_{3,3} terms as one Mellin-Barnes contour integral: shifted onto
one contour, the terms share a gamma kernel, and their coefficients sum
to a Gauss 2F1 in the contour variable (``hyp2f1_complex``).  Its
``log_prefactor`` lets a huge coefficient and a huge integral combine in
log space without overflowing intermediate floats.  ``_refine`` is the
refinement loop of the midpoint rule.

``sc`` is ``scipy.special`` bound lazily (``jamsec._lazy``): importing
this module does not execute it; the first kernel call does.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from ._lazy import lazy_import
from .errors import AccuracyError, ParameterError

sc = lazy_import("scipy.special")

__all__ = [
    "hyp2f1_complex",
    "meijer_series_fold",
]

_LN_TINY = -46.0  # exp(-46) ~ 1e-20, truncation target for contour tails

# contour integrators: baseline imaginary half-length (extended when the
# integrand's mass sits farther out), acceptance tolerances of the
# refinement loop, and how many denser, longer passes to try before
# raising AccuracyError
_HALF_LENGTH = 24.0
_ABS_TOL = 1e-12
_REL_TOL = 1e-9
_MAX_REFINEMENTS = 3


# ---------------------------------------------------------------------------
# Mellin-Barnes contour integration


def _tail_length(rho: float, decay: float, base: float) -> float:
    """Half-length where |tau|^rho exp(-decay*|tau|) has dropped ~1e-20
    below its peak."""
    if rho <= 0:
        return max(base, -_LN_TINY / decay)
    tau_star = rho / decay
    target = rho * (math.log(tau_star) - 1.0) + _LN_TINY
    length = tau_star + (-_LN_TINY) / decay
    for _ in range(40):
        length = (rho * math.log(length) - target) / decay
    return max(base, 1.5 * tau_star, length)


def _node_spacing(clearance: float, ln_scale: float) -> float:
    """Midpoint-rule spacing: the rule's error is ~exp(-2 pi clearance/h)
    on a contour `clearance` away from the nearest pole (Trefethen &
    Weideman, SIAM Rev. 56(3), 2014), kept ~1e-13, and at least six nodes
    a period resolve the phase z^(i tau), |ln z| = `ln_scale`.  The
    clearance's spacing is halved until it resolves the phase, so the
    points of a sweep whose phases differ share a few grids, and with them
    the weights a caller keeps per grid."""
    h = 2.0 * math.pi * clearance / 30.0
    phase = math.pi / (3.0 * (1.0 + abs(ln_scale)))
    return h / 2.0 ** max(0, math.ceil(math.log2(h / phase)))


def _refine(run_pass, lengths, h, grow, shrink, name):
    """Rerun ``run_pass(lengths, h)`` on longer (lengths * grow), denser
    (h * shrink) contours until two passes agree.  Returns (value, change
    in the last step); AccuracyError, carrying the best value, if none do.
    """
    value = run_pass(lengths, h)
    err = math.inf
    for _ in range(_MAX_REFINEMENTS):
        lengths = tuple(length * grow for length in lengths)
        h *= shrink
        refined = run_pass(lengths, h)
        err = abs(refined - value)
        value = refined
        if err <= max(_ABS_TOL, _REL_TOL * abs(value)):
            return value, err
    raise AccuracyError(
        f"{name} refinement exhausted above tolerance",
        best=value,
        error_estimate=err,
    )


def _hyp2f1_series(a, b, c, x):
    """Power series of 2F1(a, b; c; x) for complex arrays b, c, summed
    until no term is above 1e-17 of its partial sum (a NaN ends it too)."""
    term = total = np.ones(np.broadcast(b, c).shape, dtype=complex)
    for k in itertools.count():
        term = term * ((a + k) * (b + k) / ((c + k) * (k + 1.0)) * x)
        total = total + term
        if not np.any(np.abs(term) > 1e-17 * np.abs(total)):
            return total


def hyp2f1_complex(a: float, b, c: float, x: float):
    """Gauss 2F1(a, b; c; x) for real a, real c > 0, complex array b and
    0 <= x < 1.

    Up to x = 1/2 the power series, whose terms outgrow the sum about
    e^(x |b|)-fold at large |b| (a contour kernel decaying like
    e^(-2 pi |tau|) outweighs that loss).  Above it the 1 - x connection
    formula (A&S 15.3.6, DLMF 15.8(ii)): its two series run in 1 - x < 1/2
    and do not cancel that way.  1/Gamma(c - a) and 1/Gamma(a) come from
    rgamma, so a connection term whose gamma ratio vanishes (c - a a
    non-positive integer) reads 0, not NaN.  The formula needs c - a - b
    off the integers, which holds for any b off the real axis.
    """
    b = np.asarray(b, dtype=complex)
    if x <= 0.5:
        return _hyp2f1_series(a, b, c, x)
    y = 1.0 - x
    lg = sc.loggamma
    first = (sc.rgamma(c - a) * np.exp(lg(c) + lg(c - a - b) - lg(c - b))
             * _hyp2f1_series(a, b, a + b - c + 1.0, y))
    second = (sc.rgamma(a)
              * np.exp((c - a - b) * math.log(y) + lg(c) + lg(a + b - c) - lg(b))
              * _hyp2f1_series(c - a, c - b, c - a - b + 1.0, y))
    return first + second


def _fold_pass(s, mu, a, x, lnz, log_prefactor, sigma, length, h, cache, key):
    """One midpoint pass.  Its z-independent part, the nodes t, the
    log-gamma kernel without its t ln z term and the 2F1 at the nodes, is
    taken from `cache[key]` when that holds the same grid, and kept there
    otherwise."""
    count = max(8, int(math.ceil(length / h)))
    weights = None if cache is None else cache.get(key)
    if weights is None or weights[0] != (count, h):
        t = sigma + 1j * ((np.arange(count) + 0.5) * h)
        lg = sc.loggamma
        log_kernel = (lg(-t) + 2.0 * lg(-mu - t) + lg(s + mu + t) + lg(1.0 + mu + t)
                      - lg(1.0 - mu - t))
        weights = ((count, h), t, log_kernel, hyp2f1_complex(a, -t, mu, x))
        if cache is not None:
            cache[key] = weights
    _, t, log_kernel, hyp = weights
    log_kernel = log_kernel + t * lnz
    peak = float(np.max(log_kernel.real))
    # conjugate symmetry: the integral over the full line is twice the
    # real part of the upper half
    acc = np.sum(np.exp(log_kernel - peak) * hyp)
    with np.errstate(over="ignore"):
        scale = float(np.exp(peak + log_prefactor))
    return scale * float(acc.real) * h / math.pi


def meijer_series_fold(s: float, mu: float, a: float, x: float, z: float,
                       log_prefactor: float = 0.0, cache=None):
    """exp(log_prefactor) times the Mellin-Barnes integral

        1/(2 pi i) Int K(t) z^t 2F1(a, -t; mu; x) dt,  Re t = -mu - 1/2,
        K(t) = Gamma(-t) Gamma(-mu-t)^2 Gamma(s+mu+t) Gamma(1+mu+t)
               / Gamma(1-mu-t),

    i.e. the series sum_i (a)_i x^i / ((mu)_i i! z^i) G_i of G^{3,2}_{3,3}
    integrals G_i(z) with rows (1-s-mu-i, -mu-i, 1-mu-i; 0, -mu-i, -mu-i):
    shifted by t -> t - i, every G_i has the kernel K times (-t)_i, and the
    sum over i of those factors is the 2F1.

    Midpoint rule on the upper half line, refined on the total; returns
    (value, error_estimate).  The tail covers the 2F1's growth
    ~|tau|^max(-a, a-mu) on top of the kernel's, and the spacing resolves
    the phases z^(i tau) and (1 - x)^(i tau) and the contour's clearance
    from the poles of Gamma(-mu-t) (1/2) and Gamma(s+mu+t) (s - 1/2).

    `cache`, a caller-owned dict such as a run's memo, keeps each pass's
    z-independent part, one entry per (s, mu, a, x) and refinement level,
    so a sweep over z evaluates the log-gammas and the 2F1 once per node:
    48 bytes a node.  The value is the same to the bit with or without it.
    """
    if not (z > 0 and 0.0 <= x < 1.0 and mu > 0 and a > 0 and s > 0.5):
        raise ParameterError("meijer_series_fold needs z > 0, 0 <= x < 1, "
                             "mu > 0, a > 0 and s > 1/2 (pole collision)")
    lnz = math.log(z)
    sigma = -mu - 0.5
    # the kernel falls like |tau|^(s+mu-2) e^(-2 pi |tau|); at large s the
    # bound |Gamma(s+mu+t)| <= Gamma(s-1/2) leaves |tau|^(mu-1) e^(-3 pi |tau|/2)
    g = max(-a, a - mu)
    length = min(_tail_length(mu + s - 2.0 + g, 2.0 * math.pi, _HALF_LENGTH),
                 _tail_length(mu - 1.0 + g, 1.5 * math.pi, _HALF_LENGTH))
    h = _node_spacing(min(0.5, s - 0.5), abs(lnz) + abs(math.log1p(-x)))
    levels = itertools.count()  # the refinement level of each pass
    return _refine(
        lambda lengths, h: _fold_pass(s, mu, a, x, lnz, log_prefactor, sigma, lengths[0], h,
                                      cache, ("meijer_series_fold", s, mu, a, x, next(levels))),
        (length,), h, 1.25, 0.5, "meijer_series_fold")
