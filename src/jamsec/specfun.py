"""Special-function kernels used by the link-performance closed forms.

Two Mellin-Barnes contour integrals, each a whole series folded into one
integrand, share one refinement loop:

* ``meijer_series_fold`` sums the receiver capacity's series of
  G^{3,2}_{3,3} terms: shifted onto one contour, the terms share a gamma
  kernel, and their coefficients sum to a Gauss 2F1 in the contour
  variable (``hyp2f1_complex``).
* ``fox_h_bivariate`` integrates a whole weighted double sum of the
  instance H^{1,0;1,1;1,1}_{0,1;1,1;1,1} on one double contour: the terms
  differ only by Pochhammer factors, so the sum is one polynomial times a
  shared gamma kernel.  Both axes share one node lattice, so s + t lies
  on a 1-D lattice too: each pass takes log-gammas of three 1-D arrays
  and one convolution per polynomial row, never a 2-D grid.

``meijer_series_fold`` accepts a ``log_prefactor`` and ``fox_h_bivariate``
takes its weights as logs, so that a huge coefficient and a huge integral
can be combined in log space without overflowing intermediate floats.

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
    "fox_h_bivariate",
    "hyp2f1_complex",
    "meijer_series_fold",
]

_LN_TINY = -46.0  # exp(-46) ~ 1e-20, truncation target for contour tails

# contour integrators: baseline imaginary half-length (extended when the
# integrand's mass sits farther out), baseline midpoint-rule node count
# across [-L, L], acceptance tolerances of the refinement loop, and how
# many denser, longer passes to try before raising AccuracyError
_HALF_LENGTH = 24.0
_NODES = 1200
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


def _node_spacing(base_h: float, clearance: float, ln_scale: float) -> float:
    # midpoint-rule error ~ exp(-2*pi*clearance/h); keep it ~1e-13 and
    # resolve the z^(i tau) oscillation.
    h = min(base_h, 2.0 * math.pi * clearance / 30.0)
    return min(h, math.pi / (3.0 * (1.0 + abs(ln_scale))))


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


def _fold_pass(s, mu, a, x, lnz, log_prefactor, sigma, length, h):
    count = max(8, int(math.ceil(length / h)))
    t = sigma + 1j * ((np.arange(count) + 0.5) * h)
    lg = sc.loggamma
    log_kernel = (lg(-t) + 2.0 * lg(-mu - t) + lg(s + mu + t) + lg(1.0 + mu + t)
                  - lg(1.0 - mu - t) + t * lnz)
    peak = float(np.max(log_kernel.real))
    # conjugate symmetry: the integral over the full line is twice the
    # real part of the upper half
    acc = np.sum(np.exp(log_kernel - peak) * hyp2f1_complex(a, -t, mu, x))
    with np.errstate(over="ignore"):
        scale = float(np.exp(peak + log_prefactor))
    return scale * float(acc.real) * h / math.pi


def meijer_series_fold(s: float, mu: float, a: float, x: float, z: float,
                       log_prefactor: float = 0.0):
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
    """
    if not (z > 0 and 0.0 <= x < 1.0 and mu > 0 and a > 0 and s > 0.5):
        raise ParameterError("meijer_series_fold needs z > 0, 0 <= x < 1, "
                             "mu > 0, a > 0 and s > 1/2 (pole collision)")
    lnz = math.log(z)
    sigma = -mu - 0.5
    rho = mu + s - 2.0 + max(-a, a - mu)
    length = _tail_length(rho, 2.0 * math.pi, _HALF_LENGTH)
    h = _node_spacing(2.0 * _HALF_LENGTH / _NODES, min(0.5, s - 0.5),
                      abs(lnz) + abs(math.log1p(-x)))
    return _refine(
        lambda lengths, h: _fold_pass(s, mu, a, x, lnz, log_prefactor, sigma,
                                      lengths[0], h),
        (length,), h, 1.25, 0.5, "meijer_series_fold")


def _foxh_pass(omega, coef, log_scale, lnx, lny, sig_s, sig_t, len_s, len_t,
               h):
    """One midpoint-rule pass over the double contour for the weighted sum
    with weights exp(log_scale) * coef.

    Both axes use the nodes (k + 1/2) h, so tau_s + tau_t = (k + j + 1) h
    lies on one 1-D lattice.  Only Gamma(1+w) and (1+w)_n, w = s + t,
    couple the axes, so the double sum is, per row n of the weight table,
    the convolution of an s-factor f(s) with g(t) a_n(t), dotted with
    K(w) (1+w)_n on the lattice: log-gammas of three 1-D arrays and one
    np.convolve per row.
    """
    # full s-axis, upper-half t-axis; conjugate symmetry of the double
    # integrand under (s, t) -> (conj s, conj t) supplies the lower half
    ks = max(8, int(math.ceil(len_s / h)))
    kt = max(8, int(math.ceil(len_t / h)))
    s = sig_s + 1j * ((np.arange(-ks, ks) + 0.5) * h)
    t = sig_t + 1j * ((np.arange(kt) + 0.5) * h)
    # 1 + w = 1 + s + t on the lattice, in np.convolve's output order
    w1 = (1.0 + sig_s + sig_t) + 1j * (np.arange(-ks + 1, ks + kt) * h)
    # Gamma(1+n+w) Gamma(omega+q+t) = Gamma(1+w) Gamma(omega+t) (1+w)_n
    # (omega+t)_q, so the sum is sum_n K(w) (1+w)_n (f * g a_n)(w) with
    # a_n(t) = sum_q coef[n, q] (omega+t)_q.  Each of f, g and K is scaled
    # by its own peak; the peaks are recombined in log space at the end.
    logs = (
        sc.loggamma(-s) + sc.loggamma(1.0 + s) + s * lnx,
        sc.loggamma(-t) + sc.loggamma(omega + t) + t * lny,
        sc.loggamma(w1),
    )
    peaks = [float(np.max(lg.real)) for lg in logs]
    f, g, kern = (np.exp(lg - peak) for lg, peak in zip(logs, peaks))

    total = 0.0
    poch = kern  # K(w) (1+w)_n, advanced one factor per row
    for n in range(coef.shape[0]):
        a_n = np.full(kt, coef[n, n], dtype=complex)
        for q in range(n - 1, -1, -1):  # Horner in (omega+t)_q
            a_n = coef[n, q] + (omega + q + t) * a_n
        total += float(np.dot(poch, np.convolve(f, g * a_n)).real)
        poch = poch * (w1 + n)
    with np.errstate(over="ignore"):
        scale = float(np.exp(sum(peaks) + log_scale))
    return scale * 2.0 * total * h * h / (4.0 * math.pi**2)


def fox_h_bivariate(omega: float, log_weights, x: float, y: float):
    """Evaluate sum_{n,q} c_{n,q} H_{n,q}(x, y) for the one bivariate Fox-H
    instance the eavesdropper capacity needs: H_{n,q} integrates the kernel
    Gamma(1+n+s+t) Gamma(-s) Gamma(1+s) Gamma(-t) Gamma(omega+q+t) in
    x^s y^t.  ``log_weights`` is a square 2-D array whose row n holds
    ln c_{n,q} for q = 0..n; -inf marks an absent term, and entries above
    the diagonal are not read.

    Double midpoint rule over vertical contours Re s = Re t = -1/3, which
    keeps a clearance of 1/3 from every pole family for all n >= 0 and
    omega >= 1 (and from the sliding family 1+n+s+t).  The whole sum is
    one integrand on one grid: node spacing from that clearance (one
    spacing for both axes), tail lengths from the largest (n, q), and one
    refinement loop on the total.  A pass works on a shared lattice (see
    ``_foxh_pass``), so its cost and memory grow with the node counts
    along the axes, not with their product.  Returns
    (value, error_estimate), the estimate being the change of the total in
    the last refinement.
    """
    if not (x > 0 and y > 0):
        raise ParameterError("fox_h_bivariate requires x, y > 0")
    if not (omega >= 1):
        raise ParameterError("omega must be >= 1")
    log_w = np.asarray(log_weights, dtype=float)
    if log_w.ndim != 2 or log_w.shape[0] != log_w.shape[1]:
        raise ParameterError("log_weights must be a square 2-D array")
    log_w = np.where(np.tri(len(log_w), dtype=bool), log_w, -math.inf)
    if np.any(np.isnan(log_w) | (log_w == math.inf)):
        raise ParameterError("log weights must be finite or -inf")
    n_idx, q_idx = np.nonzero(log_w > -math.inf)
    if not n_idx.size:
        raise ParameterError("at least one weight must be nonzero")
    lnx = math.log(x)
    lny = math.log(y)
    n_hi = int(n_idx.max())
    nq_hi = int((n_idx + q_idx).max())
    # weights scaled by their maximum, so the polynomial cannot overflow
    log_w = log_w[: n_hi + 1, : n_hi + 1]
    log_scale = float(np.max(log_w))
    coef = np.exp(log_w - log_scale)

    sig = -1.0 / 3.0
    decay = 1.5 * math.pi  # three gammas lose exp(-pi/2 |tau|) each, per axis
    rho_s = n_hi + sig + sig + 0.5
    rho_t = nq_hi + omega + sig + sig - 0.5
    len_s = _tail_length(rho_s, decay, 10.0)
    len_t = _tail_length(rho_t, decay, 10.0)
    # aliasing error of the midpoint rule ~ exp(-2*pi*clearance/h); the
    # 1-D node baseline is irrelevant here, clearance drives the spacing
    clear = 1.0 / 3.0
    base_h = 2.0 * math.pi * clear / 30.0
    # one spacing for both axes keeps s + t on a single lattice
    h = min(_node_spacing(base_h, clear, lnx), _node_spacing(base_h, clear, lny))

    return _refine(
        lambda lengths, h: _foxh_pass(omega, coef, log_scale, lnx, lny, sig,
                                      sig, *lengths, h),
        (len_s, len_t), h, 1.2, 0.55, "fox_h_bivariate")
