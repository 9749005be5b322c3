import math

import numpy as np
import pytest
import scipy.integrate
import scipy.special as sc

from jamsec.errors import ParameterError
from jamsec.specfun import (
    BivariateFoxHSpec,
    MeijerGSpec,
    _foxh_pass,
    fox_h_bivariate,
    meijer_g,
)


ETA_IDENTITY_Z = (0.1, 0.5, 1.0, 2.0, 10.0)


class TestMeijerG:
    @pytest.mark.parametrize("z", ETA_IDENTITY_Z)
    @pytest.mark.parametrize("eta", (0.7, 2.0, 3.4))
    def test_identity_power_law(self, z, eta):
        # G^{1,1}_{1,1}(z | 1-eta ; 0) = Gamma(eta) (1+z)^(-eta)
        spec = MeijerGSpec(m=1, n=1, p=1, q=1, a_params=(1.0 - eta,), b_params=(0.0,))
        val, err = meijer_g(spec, z)
        want = math.gamma(eta) * (1.0 + z) ** (-eta)
        assert val == pytest.approx(want, rel=1e-8)
        assert err <= max(1e-12, 1e-9 * abs(val))

    @pytest.mark.parametrize("z", ETA_IDENTITY_Z)
    def test_identity_log(self, z):
        # G^{1,2}_{2,2}(z | 1,1 ; 1,0) = ln(1+z)
        spec = MeijerGSpec(m=1, n=2, p=2, q=2, a_params=(1.0, 1.0), b_params=(1.0, 0.0))
        val, _ = meijer_g(spec, z)
        assert val == pytest.approx(math.log1p(z), rel=1e-8)

    def test_capacity_kernel_vs_quadrature(self):
        # the 3,2;3,3 kernel against the defining log-weighted integral:
        # Int_0^inf ln(1+g) g^(mu-1) (T g + Phi)^(-eta) dg = G / (Phi^eta Gamma(eta))
        for s, mu, big_t, phi in [(2.5, 1.5, 3.0, 4.0), (4.0, 0.8, 1.2, 0.5),
                                  (1.8, 3.0, 6.0, 10.0)]:
            eta = s + mu
            spec = MeijerGSpec(
                m=3, n=2, p=3, q=3,
                a_params=(1.0 - eta, -mu, 1.0 - mu),
                b_params=(0.0, -mu, -mu),
            )
            val, _ = meijer_g(spec, big_t / phi)
            got = val / (phi**eta * math.gamma(eta))
            want, _ = scipy.integrate.quad(
                lambda g: math.log1p(g) * g ** (mu - 1.0) * (big_t * g + phi) ** -eta,
                0.0, np.inf, limit=300, epsabs=0.0, epsrel=1e-11,
            )
            assert got == pytest.approx(want, rel=1e-8)

    def test_log_prefactor_folding(self):
        spec = MeijerGSpec(m=1, n=1, p=1, q=1, a_params=(-1.0,), b_params=(0.0,))
        plain, _ = meijer_g(spec, 0.7)
        folded, _ = meijer_g(spec, 0.7, log_prefactor=3.0)
        assert folded == pytest.approx(math.exp(3.0) * plain, rel=1e-12)

    def test_deterministic(self):
        spec = MeijerGSpec(m=3, n=2, p=3, q=3,
                           a_params=(-3.0, -1.5, -0.5), b_params=(0.0, -1.5, -1.5))
        a = meijer_g(spec, 0.8)
        b = meijer_g(spec, 0.8)
        assert a == b

    def test_rejects_pole_collision(self):
        # a - b a positive integer: no separating contour
        with pytest.raises(ParameterError):
            MeijerGSpec(m=1, n=1, p=1, q=1, a_params=(3.0,), b_params=(0.0,))

    def test_rejects_bad_orders(self):
        with pytest.raises(ParameterError):
            MeijerGSpec(m=0, n=0, p=1, q=1, a_params=(1.0,), b_params=(0.0,))
        with pytest.raises(ParameterError):
            MeijerGSpec(m=1, n=1, p=2, q=1, a_params=(1.0,), b_params=(0.0,))

    def test_rejects_nonpositive_argument(self):
        spec = MeijerGSpec(m=1, n=1, p=1, q=1, a_params=(-1.0,), b_params=(0.0,))
        with pytest.raises(ParameterError):
            meijer_g(spec, 0.0)


class TestBivariateFoxH:
    def test_spec_validation(self):
        with pytest.raises(ParameterError):
            BivariateFoxHSpec.term(n=-1, omega=1.0)
        with pytest.raises(ParameterError):
            BivariateFoxHSpec.term(n=0, omega=0.0)

    def test_table_validation(self):
        with pytest.raises(ParameterError):
            BivariateFoxHSpec(omega=1.0, log_weights=((0.0,), (0.0,)))
        with pytest.raises(ParameterError):
            BivariateFoxHSpec(omega=1.0, log_weights=((-math.inf,),))
        with pytest.raises(ParameterError):
            BivariateFoxHSpec(omega=1.0, log_weights=((math.nan,),))

    def test_weighted_sum_matches_its_terms(self):
        # the fold equals the weighted sum of its one-hot terms, including
        # q > 0 entries (the (omega+t)_q Horner path)
        table = ((0.3,), (-1.0, 0.7), (-math.inf, 0.2, -2.5))
        folded, _ = fox_h_bivariate(
            BivariateFoxHSpec(omega=2.0, log_weights=table), 0.8, 1.6)
        parts = 0.0
        for n, row in enumerate(table):
            for q, lw in enumerate(row):
                if lw == -math.inf:
                    continue
                one_hot = [[-math.inf] * (k + 1) for k in range(n + 1)]
                one_hot[n][q] = lw
                val, _ = fox_h_bivariate(
                    BivariateFoxHSpec(omega=2.0, log_weights=one_hot), 0.8, 1.6)
                parts += val
        assert folded == pytest.approx(parts, rel=1e-9)

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
        spec = BivariateFoxHSpec.term(n=0, omega=1.0)
        val, err = fox_h_bivariate(spec, 1.0, 1.0)
        want = math.e * (math.exp(-1.0) - float(sc.exp1(1.0)))
        assert val == pytest.approx(want, rel=1e-10)
        assert err < 1e-9

    def test_deterministic(self):
        spec = BivariateFoxHSpec.term(n=2, omega=3.0)
        assert fox_h_bivariate(spec, 0.5, 2.0) == fox_h_bivariate(spec, 0.5, 2.0)

    def test_domain(self):
        spec = BivariateFoxHSpec.term(n=0, omega=1.0)
        with pytest.raises(ParameterError):
            fox_h_bivariate(spec, 0.0, 1.0)
        with pytest.raises(ParameterError):
            fox_h_bivariate(spec, 1.0, -2.0)
