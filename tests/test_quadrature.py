"""The package's integrator, `fading._gauss_kronrod`, against QUADPACK.

`scipy.integrate.quad` stays in the tests as the reference.  One rule
evaluation (`fading._gk21`) gives QUADPACK's qk21 value and error
estimate.  Each quadrature route, over its documented domain, runs with
the integrator wrapped: every integral it takes is compared with `quad`
of the same integrand over the same break points, driven to 1e-13
relative, and must be within 1e-12 relative of it.  Each integral makes
at most `limit` integrand calls, each on a 2-D array of 21 nodes per
interval."""

import math

import numpy as np
import pytest
import scipy.integrate
from hypothesis import given, settings
from hypothesis import strategies as st

from jamsec import fading
from jamsec.fading import (
    DoubleKappaMuShadowedParams,
    GammaSnrParams,
    RicianShadowedParams,
    dksm_cdf,
    gamma_cdf_integral,
    rician_shadowed_cdf_integral,
)
from jamsec.secrecy import (
    EveLinkParams,
    capacity_eve_quadrature,
    capacity_receiver_quadrature,
    eve_sinr_cdf_integral,
)

_DIFFERENTIAL = settings(derandomize=True, max_examples=60, deadline=None, database=None)


@pytest.mark.parametrize("f, a, b", [
    (np.exp, 0.0, 1.0),
    (lambda x: np.cos(3.0 * x) + x**5, -1.0, 2.0),
    (lambda x: x**2.5, 0.0, 1.0),
])
def test_one_rule_is_quadpacks_qk21(f, a, b):
    # quad returns after its first qk21 here: the same value, and the
    # same error to the rounding of |K21 - G10|
    want, want_err, info = scipy.integrate.quad(f, a, b, full_output=1)
    assert info["last"] == 1
    val, err = fading._gk21(f, np.array([a]), np.array([b]))
    assert val[0] == pytest.approx(want, rel=1e-15, abs=0.0)
    assert err[0] == pytest.approx(want_err, rel=1e-6, abs=0.0)


def test_kronrod_and_gauss_degrees():
    # K21 integrates x^30 exactly and G10 x^18; both are defined on the
    # same 21 nodes
    ones = np.zeros(1), np.ones(1)
    val, _ = fading._gk21(lambda x: x**30, *ones)
    assert val[0] == pytest.approx(1.0 / 31.0, rel=1e-14)
    gauss = (fading._GK_X**18) @ fading._G_W
    assert gauss / 2.0 == pytest.approx(1.0 / 19.0, rel=1e-14)


def _against_quadpack(route):
    """Run route() with every `_gauss_kronrod` call checked against
    QUADPACK; returns the number of integrals taken."""
    real, taken = fading._gauss_kronrod, []

    def checked(f, breaks, panels, limit, epsabs, epsrel):
        shapes = []

        def counted(x):
            assert isinstance(x, np.ndarray)
            shapes.append(x.shape)
            return f(x)

        val, err = real(counted, breaks, panels, limit, epsabs, epsrel)
        assert 1 <= len(shapes) <= limit
        assert all(len(s) == 2 and s[1] == 21 and s[0] <= limit for s in shapes), shapes
        ref, *_ = scipy.integrate.quad(
            lambda x: float(f(np.array([x]))[0]), breaks[0], breaks[-1],
            points=list(breaks[1:-1]) or None, epsabs=0.0, epsrel=1e-13, limit=2000,
            full_output=1)
        assert val == pytest.approx(ref, rel=1e-12, abs=0.0), (list(breaks), val, ref, err)
        taken.append(val)
        return val, err

    with pytest.MonkeyPatch.context() as m:
        m.setattr(fading, "_gauss_kronrod", checked)
        route()
    return len(taken)


def _log_uniform(lo, hi):
    return st.floats(math.log(lo), math.log(hi)).map(math.exp)


@_DIFFERENTIAL
@given(c=_log_uniform(0.3, 10.0), s_minus_1=_log_uniform(0.01, 1e5),
       mu=_log_uniform(0.05, 8.0), kappa=st.one_of(st.just(0.0), st.floats(0.0, 10.0)),
       mean=_log_uniform(1e-2, 1e6), at=st.floats(-8.0, 4.0))
def test_dksm_cdf(c, s_minus_1, mu, kappa, mean, at):
    p = DoubleKappaMuShadowedParams(c=c, s=1.0 + s_minus_1, mu=mu, kappa=kappa, mean_snr=mean)
    assert _against_quadpack(lambda: dksm_cdf(p, mean * math.exp(at))) == 1


@_DIFFERENTIAL
@given(m=_log_uniform(0.1, 100.0), xi=_log_uniform(1e-4, 1e3), sigma2=_log_uniform(1e-3, 1.0),
       mean=_log_uniform(1e-2, 1e6), at=st.floats(-8.0, 1.0))
def test_rician_shadowed_cdf_integral(m, xi, sigma2, mean, at):
    p = RicianShadowedParams(m=m, xi=xi, sigma2=sigma2, mean_snr=mean)
    g = mean * (xi + 2.0 * sigma2) * 10.0**at
    assert _against_quadpack(lambda: rician_shadowed_cdf_integral(p, g)) == 1


@_DIFFERENTIAL
@given(nu=st.integers(1, 64), beta=_log_uniform(1e-8, 1e8), at=st.floats(-10.0, 3.0))
def test_gamma_cdf_integral(nu, beta, at):
    p = GammaSnrParams(nu=nu, beta=beta)
    assert _against_quadpack(lambda: gamma_cdf_integral(p, nu / beta * math.exp(at))) == 1


@_DIFFERENTIAL
@given(nu_i=st.integers(1, 16), beta_i=_log_uniform(1e-2, 1e4), nu_j=st.integers(1, 64),
       beta_j=_log_uniform(1e-2, 1e4), at=st.floats(-6.0, 3.0))
def test_eve_sinr_cdf_integral(nu_i, beta_i, nu_j, beta_j, at):
    p = EveLinkParams(nu_i=nu_i, beta_i=beta_i, nu_j=nu_j, beta_j=beta_j)
    g = nu_i / beta_i * math.exp(at)
    assert _against_quadpack(lambda: eve_sinr_cdf_integral(p, g)) == 1


@_DIFFERENTIAL
@given(c=_log_uniform(0.3, 10.0), s_minus_1=_log_uniform(0.01, 1e5),
       mu=_log_uniform(0.05, 8.0), kappa=st.floats(0.0, 10.0), mean=_log_uniform(1e-2, 1e6),
       m=_log_uniform(0.1, 100.0), xi=_log_uniform(1e-4, 1e3), sigma2=_log_uniform(1e-3, 1.0))
def test_capacity_receiver_quadrature(c, s_minus_1, mu, kappa, mean, m, xi, sigma2):
    # the MGF integral of either receiver law
    for p in (DoubleKappaMuShadowedParams(c=c, s=1.0 + s_minus_1, mu=mu, kappa=kappa,
                                          mean_snr=mean),
              RicianShadowedParams(m=m, xi=xi, sigma2=sigma2, mean_snr=mean)):
        assert _against_quadpack(lambda: capacity_receiver_quadrature(p)) == 1


@_DIFFERENTIAL
@given(nu_i=st.integers(1, 16), beta_i=_log_uniform(1e-2, 1e4), nu_j=st.integers(0, 64),
       beta_j=_log_uniform(1e-2, 1e4))
def test_capacity_eve_quadrature(nu_i, beta_i, nu_j, beta_j):
    # the jammer on and off (nu_J = 0)
    p = EveLinkParams(nu_i=nu_i, beta_i=beta_i, nu_j=nu_j, beta_j=beta_j)
    assert _against_quadpack(lambda: capacity_eve_quadrature(p)) == 1
