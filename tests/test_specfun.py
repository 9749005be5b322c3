import math

import numpy as np
import pytest
import scipy.integrate
import scipy.special as sc

from foxh_contour import _foxh_pass, fox_h_bivariate
from jamsec.errors import ParameterError
from jamsec.specfun import hyp2f1_complex, meijer_series_fold


ETA_IDENTITY_Z = (0.1, 0.5, 1.0, 2.0, 10.0)


def _one_hot(n, q=0, log_weight=0.0):
    """Fox-H log weights of the single term (n, q)."""
    table = np.full((n + 1, n + 1), -math.inf)
    table[n, q] = log_weight
    return table


class TestMeijerG:
    """The receiver capacity's series of G^{3,2}_{3,3} terms, folded into
    one contour integral of a gamma kernel times a 2F1 factor."""

    @pytest.mark.parametrize("z", ETA_IDENTITY_Z)
    @pytest.mark.parametrize("eta", (0.7, 2.0, 3.4))
    def test_identity_power_law(self, z, eta):
        # at a = mu the 2F1 factor is the power law (1 - x)^t, so the fold
        # at (x, z / (1 - x)) equals the bare kernel at z; x on both sides
        # of 1/2 runs both branches of the 2F1
        want, _ = meijer_series_fold(2.5, eta, eta, 0.0, z)
        for x in (0.3, 0.5, 0.8, 0.99):
            val, err = meijer_series_fold(2.5, eta, eta, x, z / (1.0 - x))
            assert val == pytest.approx(want, rel=1e-12)
            assert err <= max(1e-12, 1e-9 * abs(val))

    @pytest.mark.parametrize("z", ETA_IDENTITY_Z)
    def test_identity_log(self, z):
        # s = 2, mu = 1, x = 0: the kernel is Gamma(3) phi^3 Int_0^inf
        # ln(1+g) (g + phi)^-3 dg with phi = 1/z, which is
        # phi^3 (ln phi / (phi-1)^2 - 1 / (phi (phi-1))), and 1/2 at phi = 1
        val, _ = meijer_series_fold(2.0, 1.0, 1.0, 0.0, z)
        phi = 1.0 / z
        want = 0.5 if z == 1.0 else phi**3 * (
            math.log(phi) / (phi - 1.0) ** 2 - 1.0 / (phi * (phi - 1.0)))
        assert val == pytest.approx(want, rel=1e-12)

    def test_capacity_kernel_vs_quadrature(self):
        # the kernel (x = 0) against the defining log-weighted integral:
        # Int_0^inf ln(1+g) g^(mu-1) (T g + Phi)^(-eta) dg = G / (Phi^eta Gamma(eta))
        for s, mu, big_t, phi in [(2.5, 1.5, 3.0, 4.0), (4.0, 0.8, 1.2, 0.5),
                                  (1.8, 3.0, 6.0, 10.0)]:
            eta = s + mu
            val, _ = meijer_series_fold(s, mu, 1.0, 0.0, big_t / phi)
            got = val / (phi**eta * math.gamma(eta))
            want, _ = scipy.integrate.quad(
                lambda g: math.log1p(g) * g ** (mu - 1.0) * (big_t * g + phi) ** -eta,
                0.0, np.inf, limit=300, epsabs=0.0, epsrel=1e-11,
            )
            assert got == pytest.approx(want, rel=1e-9)

    def test_log_prefactor_folding(self):
        plain, _ = meijer_series_fold(2.5, 2.0, 5.0, 0.375, 0.7)
        folded, _ = meijer_series_fold(2.5, 2.0, 5.0, 0.375, 0.7,
                                       log_prefactor=3.0)
        assert folded == pytest.approx(math.exp(3.0) * plain, rel=1e-12)

    def test_deterministic(self):
        a = meijer_series_fold(2.5, 3.0, 0.5, 30.0 / 30.5, 0.8)
        b = meijer_series_fold(2.5, 3.0, 0.5, 30.0 / 30.5, 0.8)
        assert a == b

    def test_rejects_pole_collision(self):
        # s <= 1/2 puts the poles of Gamma(s+mu+t) on the contour
        with pytest.raises(ParameterError):
            meijer_series_fold(0.5, 2.0, 5.0, 0.375, 0.8)

    def test_rejects_bad_parameters(self):
        for mu, a, x in ((0.0, 5.0, 0.375), (2.0, 0.0, 0.375),
                         (2.0, 5.0, 1.0), (2.0, 5.0, -0.1)):
            with pytest.raises(ParameterError):
                meijer_series_fold(2.5, mu, a, x, 0.8)

    def test_rejects_nonpositive_argument(self):
        with pytest.raises(ParameterError):
            meijer_series_fold(2.5, 2.0, 5.0, 0.375, 0.0)


# 2F1(a, -t; c; x) on the fold's contour t = -c - 1/2 + i tau, from
# mpmath.hyp2f1 at 40 digits: (a, c, x, tau, value).  (5, 2, 0.75) has
# c - a = -3, where the first connection term must vanish, and
# (0.5, 3, 30/30.5) is the c = 0.5, mu = 3, kappa = 10 receiver
HYP2F1_REFERENCE = (
    (5.0, 2.0, 0.375, 5.0, complex(-20.092384357706596, 27.506357198694765)),
    (5.0, 2.0, 0.375, 20.0, complex(340.7532252026679, -75.68466034104841)),
    (5.0, 2.0, 0.375, 40.0, complex(-1481.1158499737821, 1495.7209319047483)),
    (0.5, 3.0, 0.25, 5.0, complex(1.098020844960589, -0.29817135058326966)),
    (0.5, 3.0, 0.25, 20.0, complex(0.510437478440775, -0.46475507444983427)),
    (0.5, 3.0, 0.25, 40.0, complex(0.35188725379949654, -0.32785967858531045)),
    (5.0, 2.0, 0.75, 5.0, complex(-12167.306793789274, 466.53042324096253)),
    (5.0, 2.0, 0.75, 20.0, complex(301778.9415000624, -99332.36681642041)),
    (5.0, 2.0, 0.75, 40.0, complex(-2348155.2878590096, 269140.7682422369)),
    (0.5, 3.0, 30.0 / 30.5, 5.0, complex(0.6023647296596983, 0.5506713114250428)),
    (0.5, 3.0, 30.0 / 30.5, 20.0, complex(0.1925579623424966, -0.24815212810783677)),
    (0.5, 3.0, 30.0 / 30.5, 40.0, complex(0.16042816325897902, -0.1694199406948053)),
    (1.2, 0.7, 0.8, 5.0, complex(-33.86500163858287, -28.007714897546997)),
    (1.2, 0.7, 0.8, 20.0, complex(3.282202636748946, -87.20878261556615)),
    (1.2, 0.7, 0.8, 40.0, complex(-83.89893821299091, -90.46038586704422)),
)


def _series_magnitude(a, b, c, x):
    """Sum of the moduli of the power-series terms of 2F1(a, b; c; x)."""
    term = total = 1.0
    for k in range(5000):
        term *= abs((a + k) * (b + k) / ((c + k) * (k + 1.0)) * x)
        total += term
    return total


class TestHyp2F1Complex:
    @pytest.mark.parametrize("a, c, x, tau, want", HYP2F1_REFERENCE)
    def test_against_mpmath(self, a, c, x, tau, want):
        b = c + 0.5 - 1j * tau
        got = hyp2f1_complex(a, np.array([b]), c, x)[0]
        # the connection formula (x > 1/2) does not cancel; the direct sum
        # (x <= 1/2) rounds at ~1e-16 of its terms' moduli, which exceed
        # the value ~e^(x tau)-fold at large tau (4.7e-11 off at tau = 40)
        scale = abs(want) if x > 0.5 else _series_magnitude(a, b, c, x)
        assert abs(got - want) <= 1e-13 * scale

    @pytest.mark.parametrize("x", (0.2, 0.5, 0.7, 0.95))
    def test_power_law(self, x):
        # 2F1(a, b; a; x) = (1 - x)^-b
        b = 2.5 - 1j * np.array([0.1, 1.0, 5.0, 20.0])
        got = hyp2f1_complex(2.0, b, 2.0, x)
        np.testing.assert_allclose(got, (1.0 - x) ** -b, rtol=1e-12, atol=0.0)

    def test_real_b_matches_scipy(self):
        # above x = 1/2, c - a - b must not be an integer
        for a, b, c, x in ((1.5, 2.5, 2.0, 0.3), (5.0, 4.5, 2.0, 0.75),
                           (0.5, 3.3, 3.0, 0.98)):
            got = hyp2f1_complex(a, np.array([b]), c, x)[0]
            assert got.real == pytest.approx(sc.hyp2f1(a, b, c, x), rel=1e-12)
            assert got.imag == 0.0


class TestBivariateFoxH:
    """The paper's Fox-H kernel, kept in the tests as the eavesdropper
    capacity's reference form (`foxh_contour`)."""

    def test_table_validation(self):
        for table in ([[-math.inf]], [[math.nan]], [[math.inf]],  # no weight, NaN, +inf
                      [0.0], [[0.0, -math.inf]]):  # not a square 2-D array
            with pytest.raises(ParameterError):
                fox_h_bivariate(1.0, np.array(table), 1.0, 1.0)

    def test_weighted_sum_matches_its_terms(self):
        # the fold equals the weighted sum of its one-hot terms, including
        # q > 0 entries (the (omega+t)_q Horner path)
        table = np.array([[0.3, -math.inf, -math.inf],
                          [-1.0, 0.7, -math.inf],
                          [-math.inf, 0.2, -2.5]])
        folded, _ = fox_h_bivariate(2.0, table, 0.8, 1.6)
        parts = 0.0
        for n, q in zip(*np.nonzero(table > -math.inf)):
            val, _ = fox_h_bivariate(2.0, _one_hot(n, q, table[n, q]), 0.8, 1.6)
            parts += val
        assert folded == pytest.approx(parts, rel=1e-9)
        # entries above the diagonal are not read
        table[0, 2] = 5.0
        assert fox_h_bivariate(2.0, table, 0.8, 1.6)[0] == folded

    @pytest.mark.parametrize("nu_i", (1, 4))
    @pytest.mark.parametrize("omega", (1.0, 8.0))
    def test_lattice_pass_matches_2d_midpoint_sum(self, nu_i, omega):
        # one pass (1-D gamma factors, a convolution per row) equals the
        # plain double midpoint sum of every (n, q) term over the same nodes
        rng = np.random.default_rng(nu_i)
        log_w = [rng.uniform(-3.0, 0.0, n + 1) for n in range(nu_i)]
        log_scale = max(float(row.max()) for row in log_w)
        coef = np.zeros((nu_i, nu_i))
        for n, row in enumerate(log_w):
            coef[n, : n + 1] = np.exp(row - log_scale)
        lnx, lny, sig = math.log(0.7), math.log(2.5), -1.0 / 3.0
        h = 0.25  # len_s = 4 and len_t = 3 give 32 x 12 nodes
        got = _foxh_pass(omega, coef, log_scale, lnx, lny, sig, sig, 4.0,
                         3.0, h)

        s = sig + 1j * (np.arange(-16, 16) + 0.5)[:, None] * h
        t = sig + 1j * (np.arange(12) + 0.5)[None, :] * h
        lg = (sc.loggamma(-s) + sc.loggamma(1.0 + s) + sc.loggamma(-t)
              + s * lnx + t * lny)
        total = magnitude = 0.0
        for n, row in enumerate(log_w):
            for q, lw in enumerate(row):
                cells = np.exp(lw + lg + sc.loggamma(1.0 + n + s + t)
                               + sc.loggamma(omega + q + t))
                total += cells.sum()
                magnitude += np.abs(cells).sum()
        cell = 2.0 * h * h / (4.0 * math.pi**2)
        # both sums round at ~1e-16 of the summed magnitudes, which at
        # nu_i = 4, omega = 8 are ~2e3 times the (cancelling) total
        assert abs(got - cell * total.real) <= 1e-12 * cell * magnitude

    def test_single_term_against_closed_form(self):
        # n=0, omega=1, x=y=1 collapses to an exponential-integral identity:
        # H(1,1) = e*(1/e - E1(1)) = 1 - e*E1(1)
        val, err = fox_h_bivariate(1.0, _one_hot(0), 1.0, 1.0)
        want = math.e * (math.exp(-1.0) - float(sc.exp1(1.0)))
        assert val == pytest.approx(want, rel=1e-10)
        assert err < 1e-9

    def test_deterministic(self):
        table = _one_hot(2)
        assert fox_h_bivariate(3.0, table, 0.5, 2.0) == fox_h_bivariate(3.0, table, 0.5, 2.0)

    def test_domain(self):
        with pytest.raises(ParameterError):
            fox_h_bivariate(1.0, _one_hot(0), 0.0, 1.0)
        with pytest.raises(ParameterError):
            fox_h_bivariate(1.0, _one_hot(0), 1.0, -2.0)
        # every caller passes omega = nu_J >= 1; the contour's 1/3
        # clearance from the Gamma(omega+t) poles needs it
        for omega in (0.0, 0.5, math.nan):
            with pytest.raises(ParameterError):
                fox_h_bivariate(omega, _one_hot(0), 1.0, 1.0)
