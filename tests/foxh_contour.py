"""The paper's closed form of the eavesdropper capacity, kept as a test
reference: a weighted (n, q) double sum of bivariate Fox-H functions,
integrated on one double Mellin-Barnes contour.

`jamsec.secrecy.capacity_eve_series` computes the same capacity as a
finite sum of exponential integrals.  Both are exact: the Fox-H terms
integrate the survival-function identity ln2 C = int (1 - F(t))/(1 + t)
dt term by term, each algebraic factor written as a Mellin-Barnes
integral, and Hamdi's MGF lemma is the same expectation after an
integration by parts.  The contour form cancels down to its sum from an
integrand up to ~1e10 times larger at nu_I = 8 with a strong jammer, so
double precision holds it only at the points where the tests use it.
"""

import math

import numpy as np
import scipy.special as sc

from jamsec.errors import ParameterError
from jamsec.specfun import _node_spacing, _refine, _tail_length

_LN2 = math.log(2.0)


def capacity_eve_foxh(p):
    """Eavesdropper ergodic capacity from the bivariate Fox-H closed form.

    The double sum over (n, q) is one weighted kernel evaluation: term
    (n, q) carries binom(n, q) / (ln2 Gamma(nu_J) n! beta_I beta_J^q) as a
    log weight, and the kernel integrates the whole sum on one contour
    grid with one refinement loop.
    """
    base = -math.log(_LN2) - sc.gammaln(p.nu_j) - math.log(p.beta_i)
    n, q = np.tril_indices(p.nu_i)  # the (n, q) terms 0 <= q <= n < nu_I
    ln_fact = sc.gammaln(n + 1)
    ln_binom = ln_fact - sc.gammaln(q + 1) - sc.gammaln(n - q + 1)
    log_weights = np.full((p.nu_i, p.nu_i), -math.inf)
    log_weights[n, q] = base + ln_binom - ln_fact - q * math.log(p.beta_j)
    total, _ = fox_h_bivariate(float(p.nu_j), log_weights, 1.0 / p.beta_i,
                               1.0 / p.beta_j)
    return max(total, 0.0)


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
    # aliasing error of the midpoint rule ~ exp(-2*pi*clearance/h): the
    # clearance sets the spacing, halved where an axis's phase needs it
    clear = 1.0 / 3.0
    # one spacing for both axes keeps s + t on a single lattice
    h = min(_node_spacing(clear, lnx), _node_spacing(clear, lny))

    return _refine(
        lambda lengths, h: _foxh_pass(omega, coef, log_scale, lnx, lny, sig,
                                      sig, *lengths, h),
        (len_s, len_t), h, 1.2, 0.55, "fox_h_bivariate")
