"""Special-function kernels used by the link-performance closed forms.

The gamma-family helpers wrap scipy's well-tested routines behind the
domain checks the rest of the package relies on.  The Gauss hypergeometric
series, the Meijer G-function, and the weighted sum of bivariate Fox-H
instances needed by the eavesdropper capacity are evaluated here directly:

* ``gauss_2f1`` sums the defining power series with a term-ratio stopping
  rule, mapping negative arguments into (0, 1) with the Pfaff transform.
* ``meijer_g`` integrates the Mellin-Barnes representation numerically on
  a vertical contour placed strictly between the two pole families.
* ``fox_h_bivariate`` integrates a whole weighted double sum of the
  instance H^{1,0;1,1;1,1}_{0,1;1,1;1,1} on one double contour: the terms
  differ only by Pochhammer factors, so the sum is one polynomial times a
  shared gamma kernel.  Both axes share one node lattice, so s + t lies
  on a 1-D lattice too: each pass takes log-gammas of three 1-D arrays
  and one convolution per polynomial row, never a 2-D grid.

``meijer_g`` accepts a ``log_prefactor`` and ``fox_h_bivariate`` takes its
weights as logs, so that a huge series coefficient and a huge G/H value
can be combined in log space without overflowing intermediate floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.special as sc

from .errors import AccuracyError, ConvergenceError, ParameterError

_LN_TINY = -46.0  # exp(-46) ~ 1e-20, truncation target for contour tails


@dataclass(frozen=True)
class QuadratureConfig:
    """Resolution and tolerance knobs for the contour integrators.

    half_length: baseline imaginary half-length of the contour; extended
        automatically when the integrand's mass sits farther out.
    nodes: baseline midpoint-rule node count across [-L, L].
    abs_tol / rel_tol: acceptance thresholds for the refinement loop.
    max_refinements: how many (denser, longer) passes to try beyond the
        first before giving up with an AccuracyError.
    """

    half_length: float = 24.0
    nodes: int = 1200
    abs_tol: float = 1e-12
    rel_tol: float = 1e-9
    max_refinements: int = 3

    def __post_init__(self):
        if not (self.half_length > 0):
            raise ParameterError("half_length must be > 0")
        if self.nodes < 15:
            raise ParameterError("node count must be >= 15")
        if not (self.abs_tol > 0 and self.rel_tol > 0):
            raise ParameterError("tolerances must be > 0")
        if self.max_refinements < 0:
            raise ParameterError("max_refinements must be >= 0")


DEFAULT_QUAD = QuadratureConfig()


@dataclass(frozen=True)
class MeijerGSpec:
    """Order and parameter rows of a Meijer G-function G^{m,n}_{p,q}.

    Only the small orders used by the capacity analysis are accepted
    (p, q <= 4).  The constructor rejects rows for which no vertical
    contour can separate the poles of Gamma(b_j - s) from those of
    Gamma(1 - a_k + s).
    """

    m: int
    n: int
    p: int
    q: int
    a_params: tuple
    b_params: tuple

    def __post_init__(self):
        object.__setattr__(self, "a_params", tuple(float(v) for v in self.a_params))
        object.__setattr__(self, "b_params", tuple(float(v) for v in self.b_params))
        if len(self.a_params) != self.p or len(self.b_params) != self.q:
            raise ParameterError("parameter row lengths must match the stated orders")
        if not (0 <= self.n <= self.p and 1 <= self.m <= self.q):
            raise ParameterError("need 0 <= n <= p and 1 <= m <= q")
        if self.p > 4 or self.q > 4:
            raise ParameterError("orders beyond p,q = 4 are out of scope")
        if self.delta <= 0:
            raise ParameterError(
                "m + n - (p+q)/2 must be positive for the vertical contour"
            )
        lo, hi = self._contour_window()
        if not lo < hi:
            raise ParameterError("contour cannot separate the two pole families")
        for a in self.a_params[: self.n]:
            for b in self.b_params[: self.m]:
                d = a - b
                if d > 0.5 and abs(d - round(d)) < 1e-12:
                    raise ParameterError(
                        f"pole collision: a - b = {d} is a positive integer"
                    )

    @property
    def delta(self) -> float:
        return self.m + self.n - 0.5 * (self.p + self.q)

    def _contour_window(self):
        lo = -math.inf
        if self.n:
            lo = max(self.a_params[: self.n]) - 1.0
        hi = min(self.b_params[: self.m])
        return lo, hi

    def contour_abscissa(self) -> float:
        lo, hi = self._contour_window()
        if math.isinf(lo):
            return hi - 0.5
        return 0.5 * (lo + hi)

    def pole_clearance(self, sigma: float) -> float:
        lo, hi = self._contour_window()
        d = hi - sigma
        if not math.isinf(lo):
            d = min(d, sigma - lo)
        return d

    def growth_exponent(self, sigma: float) -> float:
        # |integrand(sigma + i tau)| ~ |tau|^rho * exp(-pi*delta*|tau|)
        rho = 0.0
        for j, b in enumerate(self.b_params):
            rho += (b - sigma - 0.5) if j < self.m else -(0.5 - b + sigma)
        for j, a in enumerate(self.a_params):
            rho += (0.5 - a + sigma) if j < self.n else -(a - sigma - 0.5)
        return rho

    def log_integrand(self, t):
        val = np.zeros_like(t)
        for j, b in enumerate(self.b_params):
            if j < self.m:
                val = val + sc.loggamma(b - t)
            else:
                val = val - sc.loggamma(1.0 - b + t)
        for j, a in enumerate(self.a_params):
            if j < self.n:
                val = val + sc.loggamma(1.0 - a + t)
            else:
                val = val - sc.loggamma(a - t)
        return val


@dataclass(frozen=True)
class BivariateFoxHSpec:
    """A weighted double sum of the one bivariate Fox-H instance the
    eavesdropper capacity needs.

    Term (n, q) is H^{1,0;1,1;1,1}_{0,1;1,1;1,1}(x, y) with parameter
    groups ((-n; 1, 1)), ((0,1)/(0,1)), ((1-omega-q,1)/(0,1)), i.e. the
    double Mellin-Barnes kernel

        Gamma(1+n+s+t) Gamma(-s) Gamma(1+s) Gamma(-t) Gamma(omega+q+t)

    integrated in x^s y^t over vertical contours.  ``log_weights`` is a
    lower-triangular table: row n holds ln c_{n,q} for q = 0..n, and -inf
    marks an absent term.  The spec stands for sum_{n,q} c_{n,q} H_{n,q};
    a single term is the one-hot table built by :meth:`term`.  Arbitrary
    bivariate Fox-H evaluation is deliberately out of scope.
    """

    omega: float
    log_weights: tuple

    def __post_init__(self):
        rows = tuple(tuple(float(v) for v in row) for row in self.log_weights)
        object.__setattr__(self, "log_weights", rows)
        if not (self.omega > 0):
            raise ParameterError("omega must be positive")
        if not rows or any(len(row) != n + 1 for n, row in enumerate(rows)):
            raise ParameterError(
                "log_weights must be lower-triangular: row n holds n+1 entries"
            )
        if any(math.isnan(v) or v == math.inf for row in rows for v in row):
            raise ParameterError("log weights must be finite or -inf")
        if not self.terms():
            raise ParameterError("at least one weight must be nonzero")

    @classmethod
    def term(cls, n: int, omega: float) -> "BivariateFoxHSpec":
        """The single term H_{n,0} with unit weight."""
        if not (isinstance(n, (int, np.integer)) and n >= 0):
            raise ParameterError("n must be a non-negative integer")
        rows = [[-math.inf] * (k + 1) for k in range(n + 1)]
        rows[n][0] = 0.0
        return cls(omega=omega, log_weights=rows)

    def terms(self) -> list:
        """The (n, q) index pairs that carry a nonzero weight."""
        return [(n, q) for n, row in enumerate(self.log_weights)
                for q, v in enumerate(row) if v > -math.inf]


# ---------------------------------------------------------------------------
# gamma family


def ln_gamma(x: float) -> float:
    """Natural log of Gamma(x) for x > 0."""
    if not (x > 0):
        raise ParameterError(f"ln_gamma requires x > 0, got {x}")
    return float(sc.gammaln(x))


def pochhammer(x: float, i: int) -> float:
    """Rising factorial (x)_i computed as a direct product (total in x)."""
    if not (isinstance(i, (int, np.integer)) and i >= 0):
        raise ParameterError("pochhammer order must be a non-negative integer")
    out = 1.0
    for k in range(int(i)):
        out *= x + k
    return out


def gamma_lower(a: float, x: float) -> float:
    """Lower incomplete gamma integral of t^(a-1) e^(-t) over [0, x]."""
    if not (a > 0):
        raise ParameterError(f"gamma_lower requires a > 0, got {a}")
    if x < 0:
        raise ParameterError(f"gamma_lower requires x >= 0, got {x}")
    return float(sc.gammainc(a, x) * sc.gamma(a))


def gamma_upper(a: float, x: float) -> float:
    """Upper incomplete gamma integral of t^(a-1) e^(-t) over [x, inf)."""
    if not (a > 0):
        raise ParameterError(f"gamma_upper requires a > 0, got {a}")
    if x < 0:
        raise ParameterError(f"gamma_upper requires x >= 0, got {x}")
    return float(sc.gammaincc(a, x) * sc.gamma(a))


def beta(a: float, b: float) -> float:
    """Beta function Gamma(a)Gamma(b)/Gamma(a+b)."""
    if not (a > 0 and b > 0):
        raise ParameterError("beta requires positive arguments")
    return float(sc.beta(a, b))


# ---------------------------------------------------------------------------
# Gauss hypergeometric series


def gauss_2f1(a, b, c, z, rel_tol: float = 1e-12, max_terms: int = 2000):
    """2F1(a, b; c; z) by direct power series, Pfaff-transformed for z < 0.

    Accepts scalar or array z with z < 1.  The stopping rule requires the
    running term to stay below rel_tol times the partial sum for three
    consecutive terms.
    """
    if c <= 0 and abs(c - round(c)) < 1e-12:
        raise ParameterError("c must not be a non-positive integer")
    z_arr = np.asarray(z, dtype=float)
    scalar = z_arr.ndim == 0
    z_arr = np.atleast_1d(z_arr)
    if np.any(z_arr >= 1.0):
        raise ParameterError("gauss_2f1 argument must satisfy z < 1")

    out = np.empty_like(z_arr)
    neg = z_arr < 0.0
    if np.any(neg):
        # Pfaff: 2F1(a,b;c;z) = (1-z)^(-a) 2F1(a, c-b; c; z/(z-1))
        zn = z_arr[neg]
        out[neg] = (1.0 - zn) ** (-a) * _2f1_series(
            a, c - b, c, zn / (zn - 1.0), rel_tol, max_terms
        )
    pos = ~neg
    if np.any(pos):
        out[pos] = _2f1_series(a, b, c, z_arr[pos], rel_tol, max_terms)
    return float(out[0]) if scalar else out


def _2f1_series(a, b, c, z, rel_tol, max_terms):
    term = np.ones_like(z)
    total = np.ones_like(z)
    ok_streak = np.zeros(z.shape, dtype=int)
    converged = np.zeros(z.shape, dtype=bool)
    for k in range(max_terms):
        term = term * ((a + k) * (b + k) / ((c + k) * (1.0 + k))) * z
        total = total + np.where(converged, 0.0, term)
        small = np.abs(term) <= rel_tol * np.abs(total)
        ok_streak = np.where(small, ok_streak + 1, 0)
        converged |= ok_streak >= 3
        if np.all(converged):
            return total
    raise ConvergenceError(
        f"2F1 series did not converge within {max_terms} terms",
        partial=total,
        terms=max_terms,
    )


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


def _meijer_pass(spec, lnz, sigma, length, h, log_prefactor):
    count = max(8, int(math.ceil(length / h)))
    tau = (np.arange(count) + 0.5) * h
    t = sigma + 1j * tau
    logf = spec.log_integrand(t) + t * lnz + log_prefactor
    peak = float(np.max(logf.real))
    if peak == -math.inf:
        return 0.0
    # conjugate symmetry: integral over the full line is twice the real
    # part of the upper half
    acc = np.sum(np.exp(logf - peak))
    with np.errstate(over="ignore"):
        scale = float(np.exp(peak))
    return scale * float(acc.real) * h / math.pi


def meijer_g(spec: MeijerGSpec, z: float, quad: QuadratureConfig = DEFAULT_QUAD,
             log_prefactor: float = 0.0):
    """Numerically evaluate exp(log_prefactor) * G^{m,n}_{p,q}(z).

    Returns (value, error_estimate).  The error estimate is the change in
    the final refinement step; exceeding the configured tolerance after
    max_refinements raises AccuracyError with the best value attached.
    """
    if not (z > 0):
        raise ParameterError("meijer_g requires z > 0")
    lnz = math.log(z)
    sigma = spec.contour_abscissa()
    rho = spec.growth_exponent(sigma)
    decay = math.pi * spec.delta
    length = _tail_length(rho, decay, quad.half_length)
    h = _node_spacing(2.0 * quad.half_length / quad.nodes,
                      spec.pole_clearance(sigma), lnz)

    value = _meijer_pass(spec, lnz, sigma, length, h, log_prefactor)
    err = math.inf
    for _ in range(quad.max_refinements):
        length *= 1.25
        h *= 0.5
        refined = _meijer_pass(spec, lnz, sigma, length, h, log_prefactor)
        err = abs(refined - value)
        value = refined
        if err <= max(quad.abs_tol, quad.rel_tol * abs(value)):
            return value, err
    raise AccuracyError(
        "meijer_g refinement exhausted above tolerance",
        best=value,
        error_estimate=err,
    )


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


def fox_h_bivariate(spec: BivariateFoxHSpec, x: float, y: float,
                    quad: QuadratureConfig = DEFAULT_QUAD):
    """Evaluate the weighted sum sum_{n,q} c_{n,q} H_{n,q}(x, y).

    Double midpoint rule over vertical contours Re s = Re t = -1/3, which
    keeps a clearance of 1/3 from every pole family for all n >= 0 and
    omega >= 1 (and from the sliding family 1+n+s+t).  The whole sum is
    one integrand on one grid: node spacing from the smallest term's pole
    clearance (one spacing for both axes), tail lengths from the largest
    (n, q), and one refinement loop on the total.  A pass works on a
    shared lattice (see ``_foxh_pass``), so its cost and memory grow with
    the node counts along the axes, not with their product.  Returns
    (value, error_estimate), the estimate being the change of the total in
    the last refinement.
    """
    if not (x > 0 and y > 0):
        raise ParameterError("fox_h_bivariate requires x, y > 0")
    lnx = math.log(x)
    lny = math.log(y)
    omega = spec.omega
    terms = spec.terms()
    n_lo = min(n for n, _ in terms)
    n_hi = max(n for n, _ in terms)
    nq_hi = max(n + q for n, q in terms)
    # weights scaled by their maximum, so the polynomial cannot overflow
    n_rows = n_hi + 1
    log_w = np.full((n_rows, n_rows), -math.inf)
    for n, row in enumerate(spec.log_weights[:n_rows]):
        log_w[n, : n + 1] = row
    log_scale = float(np.max(log_w))
    coef = np.exp(log_w - log_scale)

    sig = -1.0 / 3.0
    sig_t = sig if omega >= 0.9 else -0.45 * omega
    decay = 1.5 * math.pi  # three gammas lose exp(-pi/2 |tau|) each, per axis
    rho_s = n_hi + sig + sig_t + 0.5
    rho_t = nq_hi + omega + sig + sig_t - 0.5
    len_s = _tail_length(rho_s, decay, 10.0)
    len_t = _tail_length(rho_t, decay, 10.0)
    # aliasing error of the midpoint rule ~ exp(-2*pi*clearance/h); the
    # 1-D node baseline is irrelevant here, clearance drives the spacing
    clear = min(1.0 / 3.0, abs(sig_t), omega + sig_t, 1.0 + n_lo + sig + sig_t)
    base_h = 2.0 * math.pi * clear / 30.0
    # one spacing for both axes keeps s + t on a single lattice
    h = min(_node_spacing(base_h, clear, lnx), _node_spacing(base_h, clear, lny))

    value = _foxh_pass(omega, coef, log_scale, lnx, lny, sig, sig_t, len_s,
                       len_t, h)
    err = math.inf
    for _ in range(quad.max_refinements):
        len_s *= 1.2
        len_t *= 1.2
        h *= 0.55
        refined = _foxh_pass(omega, coef, log_scale, lnx, lny, sig, sig_t,
                             len_s, len_t, h)
        err = abs(refined - value)
        value = refined
        if err <= max(quad.abs_tol, quad.rel_tol * abs(value)):
            return value, err
    raise AccuracyError(
        "fox_h_bivariate refinement exhausted above tolerance",
        best=value,
        error_estimate=err,
    )
