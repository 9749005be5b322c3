import math
import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
import scipy.integrate
import scipy.special as sc
import scipy.stats
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ks_reference
from jamsec import fading, scenario
from jamsec.errors import ParameterError
from jamsec.fading import (
    DoubleKappaMuShadowedParams,
    GammaSnrParams,
    RicianShadowedParams,
    SamplerSeed,
    _gamma_pdf,
    _kappa_mu_shadowed_pdf,
    dksm_cdf,
    dksm_sample,
    gamma_cdf,
    gamma_cdf_integral,
    rician_shadowed_cdf,
    rician_shadowed_cdf_integral,
    rician_shadowed_sample,
)
from jamsec.montecarlo import LinkSpec


def _pdf_quad(p, lo_u, hi_u):
    # integrate in u = ln(gamma) to tame the power-law endpoint
    pdf = ks_reference.dksm_pdf_scalar(p)
    val, _ = scipy.integrate.quad(
        lambda u: pdf(math.exp(u)) * math.exp(u),
        lo_u, hi_u, limit=400, epsabs=1e-13, epsrel=1e-11,
    )
    return val


def _rician_pdf(p):
    # the Rician law is the kappa-mu shadowed density at mu = 1
    return _kappa_mu_shadowed_pdf(p.m, 1.0, p.los_fraction, p.scatter_fraction,
                                  2.0 * p.sigma2 * p.mean_snr)


def gamma_cdf_series(p, g):
    """Finite-series Gamma CDF for the integer shapes GammaSnrParams
    carries: 1 - exp(-beta*g) * sum_{n<nu} (beta*g)^n / n!."""
    x = p.beta * g
    term = acc = 1.0
    for n in range(1, p.nu):
        term *= x / n
        acc += term
    return min(max(1.0 - math.exp(-x) * acc, 0.0), 1.0)


# s = 1e5, where scipy's 2F1 gives up and the density sums it in log space;
# densities from mpmath at 40 digits
LARGE_S = DoubleKappaMuShadowedParams(c=2.5, s=1e5, mu=1.0, kappa=3.0, mean_snr=2.4)
LARGE_S_CASES = [
    (0.01, 0.23355821634308752),
    (0.3, 0.2631764360311762),
    (2.0, 0.21906976056779556),
    (10.0, 0.003070615075368319),
    (60.0, 1.3429219705132769e-18),
    (300.0, 2.016497929292706e-96),
]


# rho = 0.9923 and 0.9980, where the NB mass of the Rician CDF sits near
# i ~ 2500; mpmath at 40 digits
NEAR_RHO_ONE = [
    (19.4, 13.0, 1.2250537412005977462e-6),
    (19.4, 20.0, 0.00035195760727448423139),
    (5.0, 20.0, 0.053013191084383033862),
]


def _knee_window(p):
    knee = math.log((p.s - 1.0) * p.mean_snr / p.big_t)
    return knee - 60.0 / p.mu, knee + 32.0 / (p.s - 1.0) + 10.0


class TestDoubleShadowedParams:
    def test_validation(self):
        with pytest.raises(ParameterError):
            DoubleKappaMuShadowedParams(c=0.0, s=2.0, mu=1.0, kappa=1.0, mean_snr=1.0)
        with pytest.raises(ParameterError):
            DoubleKappaMuShadowedParams(c=1.0, s=1.0, mu=1.0, kappa=1.0, mean_snr=1.0)
        with pytest.raises(ParameterError):
            DoubleKappaMuShadowedParams(c=1.0, s=2.0, mu=1.0, kappa=-0.1, mean_snr=1.0)
        with pytest.raises(ParameterError):
            DoubleKappaMuShadowedParams(c=1.0, s=2.0, mu=0.0, kappa=0.0, mean_snr=1.0)

    def test_derived_scales(self):
        p = DoubleKappaMuShadowedParams(c=2.0, s=3.0, mu=1.5, kappa=2.0, mean_snr=4.0)
        assert p.big_t == pytest.approx(1.5 * 3.0)
        # K = T/(c + mu kappa), the 2F1 density's scale in ks_reference
        assert p.big_t / (p.c + p.mu * p.kappa) == pytest.approx(4.5 / 5.0)


class TestDoubleShadowedPdf:
    """The density with its Gauss 2F1 (`ks_reference.dksm_pdf_scalar`),
    the tests' independent check of the package's routes."""

    def test_normalization(self):
        rng = np.random.default_rng(42)
        sets = [
            DoubleKappaMuShadowedParams(
                c=rng.uniform(0.5, 5.0), s=rng.uniform(1.5, 6.0),
                mu=rng.uniform(0.5, 5.0), kappa=rng.uniform(0.0, 3.0),
                mean_snr=rng.uniform(0.2, 10.0),
            )
            for _ in range(8)
        ]
        # the 2F1 argument reaches z_max = mu*kappa/(c + mu*kappa) = 0.98
        sets.append(DoubleKappaMuShadowedParams(c=0.5, s=2.5, mu=3.0, kappa=10.0,
                                                mean_snr=1.0))
        for p in sets:
            lo, hi = _knee_window(p)
            assert _pdf_quad(p, lo, hi) == pytest.approx(1.0, abs=2e-9)

    def test_mean_is_mean_snr(self):
        p = DoubleKappaMuShadowedParams(c=3.0, s=2.2, mu=1.7, kappa=0.9, mean_snr=2.5)
        lo, hi = _knee_window(p)
        pdf = ks_reference.dksm_pdf_scalar(p)
        mean, _ = scipy.integrate.quad(
            lambda u: math.exp(u) * pdf(math.exp(u)) * math.exp(u),
            lo, hi + 8.0, limit=400, epsabs=1e-13, epsrel=1e-11,
        )
        assert mean == pytest.approx(2.5, rel=1e-7)

    def test_far_tail_at_large_s(self):
        # exp(ln_pdf) underflows there while the 2F1 factor is huge or
        # overflows; references from mpmath at 40 digits
        cases = [
            (5e3, 1e3, 1.32752073729e-303),
            (5e3, 500.0, 3.54201702622705e-156),
            (5e3, 5e3, 0.0),   # 2.3e-1221
            (1e5, 1e3, 0.0),   # 7.9e-325
            (1e5, 5e3, 0.0),   # 1.0e-1610
        ]
        for s, g, want in cases:
            p = DoubleKappaMuShadowedParams(c=2.5, s=s, mu=1.0, kappa=3.0,
                                            mean_snr=2.4)
            assert ks_reference.dksm_pdf_scalar(p)(g) == pytest.approx(want, rel=1e-9, abs=0.0)

    def test_large_s_against_mpmath(self):
        # ln_pdf groups its powers as -(s+mu) log1p(T g / phi) and its
        # gamma ratio as one Pochhammer, so nothing of size ~s ln s
        # cancels
        pdf = ks_reference.dksm_pdf_scalar(LARGE_S)
        for g, want in LARGE_S_CASES:
            assert pdf(g) == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_gamma_ratio_beyond_overflow(self):
        # Gamma(s+mu)/Gamma(s) overflows a float at s = 1e5, mu = 80; the
        # density still integrates to one
        p = DoubleKappaMuShadowedParams(c=2.0, s=1e5, mu=80.0, kappa=1.0,
                                        mean_snr=1.0)
        pdf = ks_reference.dksm_pdf_scalar(p)
        total, _ = scipy.integrate.quad(
            lambda u: pdf(math.exp(u)) * math.exp(u), -3.0, 3.0,
            limit=200, epsabs=1e-13, epsrel=1e-11)
        assert total == pytest.approx(1.0, rel=1e-9)

    def test_origin_behavior(self):
        base = dict(c=2.0, s=2.0, kappa=1.0, mean_snr=1.0)
        def at_zero(mu):
            return ks_reference.dksm_pdf_scalar(DoubleKappaMuShadowedParams(mu=mu, **base))(0.0)

        assert at_zero(2.0) == 0.0
        assert at_zero(1.0) > 0.0
        assert at_zero(0.7) == math.inf

    def test_exponential_corner(self):
        # both shadowing layers effectively off, kappa ~ 0, mu = 1: Rayleigh SNR
        p = DoubleKappaMuShadowedParams(c=1e4, s=1e4, mu=1.0, kappa=1e-12, mean_snr=1.3)
        pdf = ks_reference.dksm_pdf_scalar(p)
        for g in (0.05, 0.5, 1.3, 4.0):
            want = math.exp(-g / 1.3) / 1.3
            assert pdf(g) == pytest.approx(want, rel=5e-4)


class TestLogSpace2F1:
    @pytest.mark.parametrize("a, b, c, z, want", [
        # mpmath at 40 digits.  The terms dip to k ~ 58 before they peak
        # at k ~ 316; the head holds 29% of the sum
        (0.05, 200.0, 193.3, 0.99, 1.548010589793448621927745),
        # peak near k = 4.9e6, about 20k terms wide
        (0.5, 100003.0, 3.0, 0.98, 391175.6454986660880069207),
        # (b)_k at b = 1e5 loses 1e-10 as a difference of log-gammas
        (2.5, 100001.0, 1.0, 0.0027, 278.4931655498799814893129),
    ])
    def test_against_mpmath(self, a, b, c, z, want):
        assert ks_reference.ln_hyp2f1_series(a, b, c, [z])[0] == pytest.approx(
            want, rel=1e-13, abs=0.0)

    def test_rows_are_independent(self):
        z = np.array([0.0027, 0.5, 0.9, 1e-7])
        np.testing.assert_array_equal(
            ks_reference.ln_hyp2f1_series(2.5, 1e5 + 1.0, 1.0, z),
            [ks_reference.ln_hyp2f1_series(2.5, 1e5 + 1.0, 1.0, [v])[0] for v in z])


class TestWindowSum:
    """Windows that start narrower double to the same sums: the test
    reference's log-space `ks_reference.ln_hyp2f1_series`, and
    `fading._pmf_mixture`, which carries each block's edge into the next."""

    def test_log_space_2f1(self, monkeypatch):
        # a window 64 times narrower starts its cumulative ratios at a
        # log-gamma term of k in the hundreds, not at k = 0, so its sum
        # carries ~1e-13 more rounding
        z = 1.0 - np.geomspace(1e-3, 0.5, 8)
        for a, b, c in ((0.05, 200.0, 193.3), (5.0, 200.0, 52.0), (60.0, 70.0, 0.6)):
            want = ks_reference.ln_hyp2f1_series(a, b, c, z)
            monkeypatch.setattr(ks_reference, "_FIRST_SPREADS", 20.0 / 64.0)
            np.testing.assert_allclose(ks_reference.ln_hyp2f1_series(a, b, c, z), want,
                                       rtol=1e-12, atol=0.0)
            monkeypatch.undo()

    def test_rician_cdf(self, monkeypatch):
        # first blocks 64 spreads narrower: both sides of the NB and the
        # Poisson windows step out in more, doubling blocks
        g = np.geomspace(1e-3, 2e3, 9)
        real = fading._pmf_mixture
        for m, xi, sigma2 in ((0.5, 1000.0, 0.001), (19.4, 1.29, 0.158), (2.0, 50.0, 0.01),
                              (19.4, 50.0, 0.01)):
            p = RicianShadowedParams(m=m, xi=xi, sigma2=sigma2, mean_snr=1.0)
            want = rician_shadowed_cdf(p, g)
            monkeypatch.setattr(fading, "_pmf_mixture",
                                lambda mode, ratio, spread, values:
                                real(mode, ratio, spread / 64.0, values))
            np.testing.assert_allclose(rician_shadowed_cdf(p, g), want, rtol=1e-14, atol=0.0)
            monkeypatch.undo()


class TestDoubleShadowedCdf:
    def test_limits_and_monotone(self):
        p = DoubleKappaMuShadowedParams(c=1.5, s=2.5, mu=2.0, kappa=1.0, mean_snr=1.0)
        assert dksm_cdf(p, 0.0) == 0.0
        grid = np.geomspace(1e-3, 1e3, 25)
        vals = np.array([dksm_cdf(p, g) for g in grid])
        assert np.all(np.diff(vals) >= 0)
        assert np.all((vals >= 0) & (vals <= 1))
        assert vals[-1] == pytest.approx(1.0, abs=1e-6)

    def test_matches_pdf_integral(self):
        p = DoubleKappaMuShadowedParams(c=2.0, s=3.0, mu=0.8, kappa=2.0, mean_snr=2.0)
        lo, _ = _knee_window(p)
        for g in (0.1, 0.7, 2.0, 8.0):
            want = _pdf_quad(p, lo, math.log(g))
            assert dksm_cdf(p, g) == pytest.approx(want, rel=1e-8, abs=1e-12)

    @pytest.mark.parametrize("mu, want", [
        # mpmath at 30 digits, integrated in ln(gamma) from -inf
        (0.02, 0.90556099498853509402),
        (0.05, 0.81652559802788318724),
    ])
    def test_small_mu_head_in_closed_form(self, mu, want):
        # knee - 60/mu lies below u = -700, where exp(u) would underflow:
        # the integral starts there and the mass below is A gamma^mu / mu
        p = DoubleKappaMuShadowedParams(c=2.0, s=2.5, mu=mu, kappa=1.0, mean_snr=5.0)
        assert dksm_cdf(p, 1.0) == pytest.approx(want, rel=0.0, abs=3e-15)

    def test_infinite_threshold(self):
        p = DoubleKappaMuShadowedParams(c=5.0, s=2.5, mu=2.0, kappa=1.5, mean_snr=10.0)
        assert dksm_cdf(p, math.inf) == pytest.approx(1.0, abs=1e-12)
        assert gamma_cdf_integral(GammaSnrParams(nu=2, beta=1.0), math.inf) == pytest.approx(
            1.0, abs=1e-12)

    @pytest.mark.parametrize("mu", (0.02, 0.05, 0.08))
    def test_sorted_evaluator_small_mu_head(self, mu):
        # the KS reference takes dksm_cdf's floor at u = -700 and its
        # closed-form head, where exp(u) would underflow to a NaN density
        p = DoubleKappaMuShadowedParams(c=2.0, s=2.5, mu=mu, kappa=1.0, mean_snr=5.0)
        grid = np.array([0.5, 1.0, 2.0])
        np.testing.assert_allclose(ks_reference.dksm_cdf_at_sorted(p, grid),
                                   [dksm_cdf(p, g) for g in grid], rtol=1e-11, atol=0.0)

    def test_sorted_evaluator_agrees(self):
        p = DoubleKappaMuShadowedParams(c=1.2, s=2.0, mu=1.5, kappa=0.3, mean_snr=1.0)
        grid = np.sort(np.random.default_rng(3).uniform(0.01, 6.0, size=40))
        fast = ks_reference.dksm_cdf_at_sorted(p, grid)
        slow = np.array([dksm_cdf(p, g) for g in grid])
        np.testing.assert_allclose(fast, slow, rtol=1e-7, atol=1e-10)


    # (c, s, mu, kappa, mean, gamma, F): 40-digit mpmath of
    # sum_i NB(c, w)_i I_y(mu + i, s), y = T gamma / (T gamma + (s-1) mean),
    # T = mu (1 + kappa), w = mu kappa / (c + mu kappa).  The 2F1-density
    # integral was 6.6e-9, 7.1e-9 and 1.0e-9 off at the first three
    LARGE_S_CDF = [
        (0.908, 1e4, 5.5, 0.0, 116.0, 0.173, 1.1621714333863356e-14),
        (5.0, 1e5, 3.0, 10.0, 1e4, 1e-3, 3.5639113071729114e-22),
        (0.552, 1e4, 0.7, 3.0, 21.4, 99.9, 0.9759443805793566),
        (0.908, 1e4, 5.5, 0.0, 116.0, 0.0059, 9.968178754439261e-23),
        (0.908, 1e4, 5.5, 0.0, 116.0, 4.96, 9.95214740933576e-07),
        (0.908, 1e4, 5.5, 0.0, 116.0, 85.9, 0.2998925208102933),
        (0.908, 1e4, 5.5, 0.0, 116.0, 239.0, 0.9802586028078539),
        (5.0, 1e5, 3.0, 10.0, 1e4, 0.304, 1.0015835875046872e-14),
        (5.0, 1e5, 3.0, 10.0, 1e4, 135.0, 1.001230233501678e-06),
        (5.0, 1e5, 3.0, 10.0, 1e4, 7110.0, 0.30026795224399655),
        (5.0, 1e5, 3.0, 10.0, 1e4, 21800.0, 0.9799423773794073),
        (0.552, 1e4, 0.7, 3.0, 21.4, 2.14e-29, 9.514435062450087e-22),
        (0.552, 1e4, 0.7, 3.0, 21.4, 6.16e-08, 9.995392736086448e-07),
        (0.552, 1e4, 0.7, 3.0, 21.4, 4.68, 0.30012648211573034),
        (2.5, 1e5, 1.0, 3.0, 2.4, 4.31e-22, 1.0006303255927096e-22),
        (2.5, 1e5, 1.0, 3.0, 2.4, 4.31e-06, 1.0006316324990343e-06),
        (2.5, 1e5, 1.0, 3.0, 2.4, 1.12, 0.2991175554370021),
        (2.5, 1e5, 1.0, 3.0, 2.4, 7.73, 0.9799924001087114),
        (0.5, 1e3, 0.3, 10.0, 1.0, 1e-30, 6.026562076725733e-10),
        (0.5, 1e3, 0.3, 10.0, 1.0, 0.0895, 0.3000010518750456),
        (0.5, 1e3, 0.3, 10.0, 1.0, 5.68, 0.9800349263725053),
        (8.0, 1e3, 6.0, 0.5, 1e3, 0.109, 9.888616285844775e-23),
        (8.0, 1e3, 6.0, 0.5, 1e3, 52.9, 9.957011102417498e-07),
        (8.0, 1e3, 6.0, 0.5, 1e3, 1990.0, 0.9799416778158274),
        (1.2, 1e4, 2.0, 1.5, 0.1, 6e-13, 1.0010624035226289e-22),
        (1.2, 1e4, 2.0, 1.5, 0.1, 0.0501, 0.2997130404613733),
        (3.0, 1e5, 0.1, 0.0, 50.0, 5e-29, 0.0008349482617432259),
        (3.0, 1e5, 0.1, 0.0, 50.0, 560.0, 0.9800299734477435),
        (0.3, 1e5, 8.0, 10.0, 1e6, 93.9, 1.0010892731798987e-22),
        (0.3, 1e5, 8.0, 10.0, 1e6, 10300.0, 9.780107994442422e-07),
        (0.3, 1e5, 8.0, 10.0, 1e6, 6.4e6, 0.9799672520372842),
        (10.0, 1e3, 1.0, 10.0, 3.0, 2.79e-20, 1.0000234609609609e-22),
        (10.0, 1e3, 1.0, 10.0, 3.0, 2.07, 0.3004555681010411),
        (1.0, 1e4, 4.0, 0.0, 0.01, 1.75e-08, 1.0014119229248531e-22),
        (1.0, 1e4, 4.0, 0.0, 0.01, 0.0227, 0.9799152559629337),
        (2.0, 1e5, 0.5, 5.0, 10.0, 6.71e-27, 1.000031175539385e-14),
        (2.0, 1e5, 0.5, 5.0, 10.0, 3.43, 0.3000617169880466),
        (2.0, 1e5, 0.5, 5.0, 10.0, 37.5, 0.979910370753843),
    ]

    def test_large_s_against_mpmath(self):
        # the envelope shadowing's Q(s, r x) steps over ~1/sqrt(s) in
        # ln x: at s = 1e5 a step 0.003 wide that the quadrature splits at
        off = []
        for c, s, mu, kappa, mean, g, want in self.LARGE_S_CDF:
            p = DoubleKappaMuShadowedParams(c=c, s=s, mu=mu, kappa=kappa, mean_snr=mean)
            got = dksm_cdf(p, g)
            if not abs(got - want) <= 1e-11 * want:
                off.append((c, s, mu, kappa, mean, g, got, want))
        assert off == []

    @pytest.mark.parametrize("c, s, mu, kappa, mean, g, want", [
        # 40-digit mpmath as above.  The Q step lies near u = -700, where
        # the mass below the floor is taken by parts against it
        (2.0, 2.5, 0.05, 1.0, 5.0, 1e-300, 8.165716298123248e-16),
        (1.0, 1.01, 0.1, 0.0, 1e6, 1e-303, 1.5873105938768273e-31),
        (1.0, 1e5, 0.05, 2.0, 1e6, 1e-300, 4.2567106794453e-16),
        (1.0, 1e5, 1.0, 2.0, 1e6, 1e-300, 1.000010000100001e-306),
    ])
    def test_step_at_the_floor(self, c, s, mu, kappa, mean, g, want):
        p = DoubleKappaMuShadowedParams(c=c, s=s, mu=mu, kappa=kappa, mean_snr=mean)
        assert dksm_cdf(p, g) == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_far_above_the_mean(self):
        # 1 - F tilts the mass far out.  In the first law it reaches
        # w x ~ 1418, where scipy's 1F1 returned inf and the route raised
        # AccuracyError (mpmath: 1 - F = 9.3e-48 at all three thresholds).
        # In the second 1 - F ~ 1e-307 has a subnormal integrand, which no
        # relative tolerance can meet: the quadrature warned at its
        # subdivision limit
        p = DoubleKappaMuShadowedParams(c=1.4362980867494815, s=78.10340057305898,
                                        mu=1.3917921390855383, kappa=8.529432660352636,
                                        mean_snr=5.490236958403086)
        for g in (1e4, 66672.14964733626, 1e5):
            assert dksm_cdf(p, g) == 1.0
        p = DoubleKappaMuShadowedParams(c=5.333144295665636, s=6088.709830629414,
                                        mu=1.3560806491252668, kappa=6.96257252015558,
                                        mean_snr=0.03381546300257461)
        assert dksm_cdf(p, 6.727100286158679) == 1.0

    def test_matches_density_integral_grid(self):
        # 300 laws x 4 thresholds against the integral of the density with
        # its Gauss 2F1 (ks_reference): the two share no formula but the law
        rng = np.random.default_rng(27)
        off, compared = [], 0
        for _ in range(300):
            p = DoubleKappaMuShadowedParams(
                c=math.exp(rng.uniform(math.log(0.3), math.log(10.0))),
                s=math.exp(rng.uniform(math.log(1.01), math.log(50.0))),
                mu=math.exp(rng.uniform(math.log(0.05), math.log(7.5))),
                kappa=rng.uniform(0.0, 10.0) if rng.uniform() > 0.2 else 0.0,
                mean_snr=math.exp(rng.uniform(math.log(0.1), math.log(1e4))))
            for g in p.mean_snr * np.array([1e-3, 0.1, 1.0, 10.0]):
                want = ks_reference.dksm_cdf_density(p, g)
                if want > 1e-9:
                    compared += 1
                    got = dksm_cdf(p, g)
                    if not abs(got - want) <= 1e-9 * want:
                        off.append((p, g, got, want))
        assert off == [] and compared > 1000

    @settings(derandomize=True, max_examples=40, deadline=None, database=None)
    # kappa = 4e-142: scipy's 1F1 at -w x ~ -1e-300 was inf, so the integral NaN
    @example(c=0.0, s=1.0, mu=0.03125, kappa=3.8387984752343415e-142, mean=0.0,
             lowest=-5.0, spacing=1.0)
    @given(c=st.floats(math.log(0.3), math.log(10.0)),
           s=st.floats(math.log(1.01), math.log(1e5)),
           mu=st.floats(math.log(0.05), math.log(8.0)),
           kappa=st.one_of(st.just(0.0), st.floats(0.0, 10.0)),
           mean=st.floats(math.log(1e-2), math.log(1e6)),
           lowest=st.floats(-10.0, 4.0), spacing=st.floats(0.5, 4.0))
    def test_properties(self, c, s, mu, kappa, mean, lowest, spacing):
        # over the documented domain (log-uniform shapes and means): 0 at
        # 0, 1 at infinity, in [0, 1], non-decreasing over five thresholds
        # 10^spacing apart from mean 10^lowest, each call under 0.25 s
        p = DoubleKappaMuShadowedParams(c=math.exp(c), s=math.exp(s), mu=math.exp(mu),
                                        kappa=kappa, mean_snr=math.exp(mean))
        assert dksm_cdf(p, 0.0) == 0.0 and dksm_cdf(p, math.inf) == 1.0
        vals = []
        for k in range(5):
            t0 = time.perf_counter()
            vals.append(dksm_cdf(p, p.mean_snr * 10.0 ** (lowest + k * spacing)))
            assert time.perf_counter() - t0 < 0.25
        assert all(0.0 <= v <= 1.0 for v in vals)
        assert vals == sorted(vals)


class TestDoubleShadowedSampler:
    def test_mean_and_determinism(self):
        p = DoubleKappaMuShadowedParams(c=2.0, s=2.5, mu=1.5, kappa=1.0, mean_snr=3.0)
        seed = SamplerSeed(seed=123)
        draws = dksm_sample(p, seed, 200_000)
        again = dksm_sample(p, seed, 200_000)
        np.testing.assert_array_equal(draws, again)
        se = draws.std(ddof=1) / math.sqrt(draws.size)
        assert abs(draws.mean() - 3.0) < 4.0 * se

    def test_child_streams_differ(self):
        p = DoubleKappaMuShadowedParams(c=2.0, s=2.5, mu=1.5, kappa=1.0, mean_snr=1.0)
        a = dksm_sample(p, SamplerSeed(seed=5), 1000)
        b = dksm_sample(p, SamplerSeed(seed=5).child(1), 1000)
        assert not np.array_equal(a, b)
        assert abs(np.corrcoef(a, b)[0, 1]) < 0.05

    def test_ks_against_cdf(self):
        p = DoubleKappaMuShadowedParams(c=1.5, s=3.0, mu=2.0, kappa=0.5, mean_snr=1.0)
        draws = np.sort(dksm_sample(p, SamplerSeed(seed=77), 100_000))
        theory = ks_reference.dksm_cdf_at_sorted(p, draws)
        n = draws.size
        emp_hi = np.arange(1, n + 1) / n
        emp_lo = np.arange(0, n) / n
        ks = max(np.max(np.abs(emp_hi - theory)), np.max(np.abs(theory - emp_lo)))
        # 1% critical value for the one-sample KS statistic
        assert ks < 1.63 / math.sqrt(n)


class TestRicianShadowed:
    def test_validation_and_los_fraction(self):
        with pytest.raises(ParameterError):
            RicianShadowedParams(m=0.0, xi=1.0, sigma2=0.5, mean_snr=1.0)
        with pytest.raises(ParameterError):
            RicianShadowedParams(m=1.0, xi=-1.0, sigma2=0.5, mean_snr=1.0)
        p = RicianShadowedParams(m=2.0, xi=1.0, sigma2=0.25, mean_snr=1.0)
        assert p.los_fraction == pytest.approx(1.0 / (1.0 + 2.0 * 0.25 * 2.0))

    def test_pdf_normalization_and_mean(self):
        p = RicianShadowedParams(m=3.0, xi=2.0, sigma2=0.4, mean_snr=1.5)
        pdf = _rician_pdf(p)
        total, _ = scipy.integrate.quad(pdf, 0, np.inf, limit=300)
        assert total == pytest.approx(1.0, abs=1e-9)
        mean, _ = scipy.integrate.quad(lambda g: g * pdf(g), 0, np.inf, limit=300)
        assert mean == pytest.approx(1.5 * (2.0 + 2.0 * 0.4), rel=1e-9)

    def test_cdf_against_pdf_quadrature(self):
        p = RicianShadowedParams(m=19.4, xi=1.29, sigma2=0.158, mean_snr=2.0)
        for g in (0.2, 1.0, 3.5, 9.0):
            assert rician_shadowed_cdf(p, g) == pytest.approx(
                rician_shadowed_cdf_integral(p, g), rel=1e-9)

    @pytest.mark.parametrize("m, th, want", NEAR_RHO_ONE)
    def test_cdf_integral_near_rho_one(self, m, th, want):
        p = RicianShadowedParams(m=m, xi=50.0, sigma2=0.01, mean_snr=1.0)
        assert rician_shadowed_cdf_integral(p, th) == pytest.approx(
            want, rel=1e-9, abs=0.0)

    @pytest.mark.parametrize("m, th, want", NEAR_RHO_ONE)
    def test_cdf_near_rho_one(self, m, th, want):
        # the NB mass sits near i ~ m rho / (1 - rho) ~ 2500 here
        p = RicianShadowedParams(m=m, xi=50.0, sigma2=0.01, mean_snr=1.0)
        assert rician_shadowed_cdf(p, th) == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_cdf_small_argument(self):
        # P(1, x) = 1 - e^-x at x = 7.9e-7, where the subtraction loses
        # 2e-9; mpmath at 40 digits
        p = RicianShadowedParams(m=19.4, xi=1.29, sigma2=0.158, mean_snr=1000.0)
        assert rician_shadowed_cdf(p, 2.5e-4) == pytest.approx(
            1.946463893938038203e-8, rel=1e-12, abs=0.0)

    def test_cdf_rejects_nan(self):
        p = RicianShadowedParams(m=2.0, xi=1.0, sigma2=0.25, mean_snr=1.0)
        with pytest.raises(ParameterError):
            rician_shadowed_cdf(p, [1.0, math.nan])
        assert rician_shadowed_cdf(p, [0.0, math.inf]).tolist() == [0.0, 1.0]

    def test_cdf_bounds(self):
        p = RicianShadowedParams(m=0.739, xi=8.97e-4, sigma2=0.063, mean_snr=1.0)
        g = np.geomspace(1e-4, 1e3, 30)
        vals = rician_shadowed_cdf(p, g)
        assert np.all(np.diff(vals) >= 0)
        assert np.all((vals >= 0) & (vals <= 1))

    def test_matches_double_shadowed_map(self):
        # exact correspondence: c=m, mu=1, kappa=xi/(2 sigma2), envelope
        # shadowing off (s proxy at 1e5), mean rescaled by xi + 2 sigma2
        m, xi, sigma2 = 2.5, 1.8, 0.3
        rs = RicianShadowedParams(m=m, xi=xi, sigma2=sigma2, mean_snr=1.0)
        dk = DoubleKappaMuShadowedParams(
            c=m, s=1e5, mu=1.0, kappa=xi / (2 * sigma2),
            mean_snr=xi + 2 * sigma2,
        )
        pdf = _rician_pdf(rs)
        for g in (0.1, 0.8, 2.0, 5.0):
            assert pdf(g) == pytest.approx(ks_reference.dksm_pdf_scalar(dk)(g), rel=1e-4)

    def test_large_argument_guard(self):
        # 1F1(m; 1; rho x) overflows past rho x ~ 700; the density must not
        pdf = _rician_pdf(
            RicianShadowedParams(m=1.2, xi=50.0, sigma2=0.01, mean_snr=1.0))
        for g in (60.0, 1e3, 1e4):
            val = pdf(g)
            assert math.isfinite(val) and val > 0

    def test_cdf_at_rho_one_minus_1e6(self):
        # the (m)_i rho^i / i! weights decay over ~1e4 terms here, which
        # a 500-term budget once cut short
        p = RicianShadowedParams(m=0.5, xi=1000.0, sigma2=0.001, mean_snr=1.0)
        assert rician_shadowed_cdf(p, 20.0) == pytest.approx(
            rician_shadowed_cdf_integral(p, 20.0), rel=1e-11, abs=0.0)

    def test_cdf_wide_window_memory(self, monkeypatch):
        # 1/(1 - rho) = 1e8 against x = 1e9: the Poisson side's window
        # spans ~6e5 terms, stepped in 2^16-term blocks (~5 MB at peak);
        # stepped 2^19 at a time its terms, values and temporaries peak at
        # ~33 MB
        p = RicianShadowedParams(m=0.5, xi=1e5, sigma2=0.001, mean_snr=1.0)
        tracemalloc.start()
        try:
            val = rician_shadowed_cdf(p, 2e6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12 * 2**20
        monkeypatch.setattr("jamsec.fading._PMF_BLOCK", 2.0**19)
        assert val == pytest.approx(rician_shadowed_cdf(p, 2e6), rel=1e-14, abs=0.0)

    def test_doubled_window_evaluates_each_column_once(self, monkeypatch):
        # x = 1e7 against 1/(1 - rho) = 1e6: the NB side would span ~4e7
        # terms, so the sum runs over the Poisson count's ~20 sqrt(x) ones.
        # The windows are found from the pmf, then each value is
        # evaluated once: the 2^16-term first block on either side
        p = RicianShadowedParams(m=0.5, xi=1000.0, sigma2=0.001, mean_snr=1.0)
        real, seen = fading._pmf_mixture, []

        def counted(mode, ratio, spread, values):
            def counting(k_max):
                value = values(k_max)

                def v(rows, k):
                    seen.append(k.ravel())
                    return value(rows, k)
                return v
            return real(mode, ratio, spread, counting)

        monkeypatch.setattr(fading, "_pmf_mixture", counted)
        val = rician_shadowed_cdf(p, 2e4)
        k = np.concatenate(seen)
        assert np.unique(k).size == k.size <= 2**17 + 1
        assert val == pytest.approx(rician_shadowed_cdf_integral(p, 2e4), rel=1e-11, abs=0.0)

    # 45-digit mpmath, by the Poisson-side sum sum_k Pois(x)_k I_(1-rho)(m, k)
    # and its complement sum_k Pois(x)_k I_rho(k, m)
    F_0315 = ((2.59, 320.0, 0.00113, 1.62), 325.0, 0.3150244277045993099949)
    NEAR_ONE = ((23.8, 88.5, 0.00503, 0.116), 67.1)  # 1 - F = 3.0123e-40

    def test_cdf_against_mpmath(self):
        law, g, want = self.F_0315
        assert rician_shadowed_cdf(RicianShadowedParams(*law), g) == pytest.approx(
            want, rel=1e-14, abs=0.0)

    def test_cdf_rounds_to_one(self):
        law, g = self.NEAR_ONE
        assert rician_shadowed_cdf(RicianShadowedParams(*law), g) == 1.0

    def test_cdf_extreme_law(self):
        # 1 - rho = 1e-6 at x = 1e7, where the NB window once held 2^24
        # terms, each with its own gammainc call
        p = RicianShadowedParams(m=0.5, xi=1000.0, sigma2=0.001, mean_snr=1.0)
        want = rician_shadowed_cdf_integral(p, 2e4)
        t0 = time.perf_counter()
        got = rician_shadowed_cdf(p, 2e4)
        assert time.perf_counter() - t0 < 0.1
        assert got == pytest.approx(want, rel=1e-11, abs=0.0)

    def test_cdf_far_upper_tail_is_one_without_a_sum(self):
        # the same law far above its mean: 1 - F = P(Pois(x) <= NB) is
        # below 2^-54 by its Chernoff bound, so F is 1.0 without the long
        # Poisson- or NB-side sum that once took seconds
        p = RicianShadowedParams(m=0.5, xi=1000.0, sigma2=0.001, mean_snr=1.0)
        for g in (2e5, 2e6, 2e8, 1.2e9):
            t0 = time.perf_counter()
            assert rician_shadowed_cdf(p, g) == 1.0
            assert time.perf_counter() - t0 < 0.05
        # where 1 - F = 7.7e-6 the bound stays above 2^-54: the sum runs
        assert rician_shadowed_cdf(p, 2e4) == 0.9999922556985194
        assert rician_shadowed_cdf(p, [2e4, 2e6]).tolist() == [0.9999922556985194, 1.0]

    @pytest.mark.parametrize("g", [1e6, 1e8, 1e12])
    def test_cdf_integral_far_past_the_mean(self, g):
        # the law's mean is 1.4: on one range [0, g] every starting panel's
        # nodes missed its mass, and the integral read 6e-257 at 1e6 and 0
        # beyond; a break at 64 times the mean keeps it
        p = RicianShadowedParams(m=2.0, xi=1.0, sigma2=0.2, mean_snr=1.0)
        assert abs(rician_shadowed_cdf_integral(p, g) - rician_shadowed_cdf(p, g)) <= 1e-12

    # fig2's light and dense laws, and the law with 1 - rho = 1e-6, whose
    # CDF sums the Poisson side or reads 1.0 from its tail bound
    @pytest.mark.parametrize("m, xi, sigma2", [(19.4, 1.29, 0.158), (0.739, 8.97e-4, 0.063),
                                               (0.5, 1000.0, 0.001)])
    def test_cdf_rows_under_their_own_means(self, m, xi, sigma2):
        # laws of one (m, xi, sigma2) at seven means in one call: each row
        # reads what a call of its own law alone gives, to the bit
        means = np.geomspace(1e-2, 1e4, 7)
        g = means * (xi + 2.0 * sigma2) * np.geomspace(1e-3, 1e3, 7)[::-1]
        law = RicianShadowedParams(m=m, xi=xi, sigma2=sigma2, mean_snr=1.0)
        alone = [rician_shadowed_cdf(replace(law, mean_snr=v), th) for v, th in zip(means, g)]
        assert rician_shadowed_cdf(law, g, means).tolist() == alone
        assert rician_shadowed_cdf(law, g[2], means[2]) == alone[2]
        with pytest.raises(ParameterError):
            rician_shadowed_cdf(law, g, np.where(means > 1.0, means, 0.0))

    def test_tail_bound_is_checked_only_for_a_wide_nb(self, monkeypatch):
        called = []
        real = fading._rician_tail_ln_bound
        monkeypatch.setattr(fading, "_rician_tail_ln_bound",
                            lambda *a: called.append(a) or real(*a))
        narrow = RicianShadowedParams(m=19.4, xi=1.29, sigma2=0.158, mean_snr=1.0)
        rician_shadowed_cdf(narrow, [0.1, 1.0, 1e3])
        assert called == []
        rician_shadowed_cdf(RicianShadowedParams(m=0.5, xi=1000.0, sigma2=0.001,
                                                 mean_snr=1.0), 2e6)
        assert len(called) == 1

    # fig2's light and dense laws, and one with m < 1 and xi >= 1, where
    # the sampler draws Gamma(m) as Gamma(m + 1) U^(1/m)
    SAMPLER_LAWS = ((19.4, 1.29, 0.158), (0.739, 8.97e-4, 0.063), (0.45, 2.0, 0.3))

    @pytest.mark.parametrize("m, xi, sigma2", SAMPLER_LAWS)
    def test_sampler_against_cdf(self, m, xi, sigma2):
        p = RicianShadowedParams(m=m, xi=xi, sigma2=sigma2, mean_snr=1.5)
        n = 1_000_000
        draws = rician_shadowed_sample(p, SamplerSeed(seed=31), n)
        mean = p.mean_snr * (xi + 2.0 * sigma2)
        th = mean * np.geomspace(1e-3, 5.0, 9)
        want = rician_shadowed_cdf(p, th)
        got = np.searchsorted(np.sort(draws), th) / n
        z = (got - want) / np.sqrt(want * (1.0 - want) / n)
        assert np.all(np.abs(z) <= 5.0), z

    @settings(derandomize=True, max_examples=60, deadline=None, database=None)
    # the extreme law: 1 - rho = 1e-6, thresholds up to x = 1e7
    @example(m=math.log(0.5), xi=math.log(1000.0), sigma2=math.log(0.001), mean=0.0,
             lowest=math.log10(2e4 / 1000.002) - 4.0, spacing=1.0)
    @given(m=st.floats(math.log(0.1), math.log(100.0)),
           xi=st.floats(math.log(1e-4), math.log(1e3)),
           sigma2=st.floats(math.log(1e-3), math.log(1.0)),
           mean=st.floats(math.log(1e-2), math.log(1e6)),
           lowest=st.floats(-8.0, -1.0), spacing=st.floats(0.5, 1.0))
    def test_properties(self, m, xi, sigma2, mean, lowest, spacing):
        # over decades of each parameter, five thresholds 10^spacing apart
        # from 10^lowest of the distribution mean: F in [0, 1],
        # non-decreasing, each row as it is alone, each call under 0.25 s
        p = RicianShadowedParams(m=math.exp(m), xi=math.exp(xi), sigma2=math.exp(sigma2),
                                 mean_snr=math.exp(mean))
        g = p.mean_snr * (p.xi + 2.0 * p.sigma2) * 10.0 ** (lowest + spacing * np.arange(5))
        vals = []
        for v in g:
            t0 = time.perf_counter()
            vals.append(rician_shadowed_cdf(p, v))
            assert time.perf_counter() - t0 < 0.25
        assert all(0.0 <= v <= 1.0 for v in vals)
        assert vals == sorted(vals)
        assert rician_shadowed_cdf(p, g).tolist() == vals

    def test_sampler(self):
        p = RicianShadowedParams(m=2.0, xi=1.5, sigma2=0.25, mean_snr=2.0)
        draws = rician_shadowed_sample(p, SamplerSeed(seed=9), 200_000)
        want_mean = 2.0 * (1.5 + 2 * 0.25)
        se = draws.std(ddof=1) / math.sqrt(draws.size)
        assert abs(draws.mean() - want_mean) < 4 * se
        ks = scipy.stats.ks_1samp(
            draws[:50_000], lambda g: rician_shadowed_cdf(p, g)
        )
        assert ks.pvalue > 0.01


class TestGammaSnr:
    def test_validation(self):
        with pytest.raises(ParameterError):
            GammaSnrParams(nu=0, beta=1.0)
        with pytest.raises(ParameterError):
            GammaSnrParams(nu=2, beta=0.0)
        # m / SNR at a subnormal mean SNR
        with pytest.raises(ParameterError, match="finite"):
            GammaSnrParams(nu=4, beta=4.0 / 1e-308)

    def test_exponential_special_case(self):
        p = GammaSnrParams(nu=1, beta=0.5)
        pdf = _gamma_pdf(p)
        assert pdf(0.0) == pytest.approx(0.5)
        assert pdf(2.0) == pytest.approx(0.5 * math.exp(-1.0), rel=1e-12)
        assert gamma_cdf(p, 2.0) == pytest.approx(1.0 - math.exp(-1.0), rel=1e-12)

    def test_cdf_equals_finite_series(self):
        # the two closed forms must agree essentially to machine precision
        rng = np.random.default_rng(17)
        worst = 0.0
        for nu in range(1, 21):
            for _ in range(5):
                beta = rng.uniform(0.05, 5.0)
                g = rng.uniform(0.0, 30.0)
                p = GammaSnrParams(nu=nu, beta=beta)
                a = gamma_cdf(p, g)
                b = gamma_cdf_series(p, g)
                worst = max(worst, abs(a - b))
        assert worst <= 1e-12

    @pytest.mark.parametrize("nu", (1, 4, 32))
    def test_cdf_integral_matches_closed_form(self, nu):
        # the oracle integrates in ln(gamma), so the mean may sit anywhere
        for mean in (1e-3, 1.0, 1e9):
            p = GammaSnrParams(nu=nu, beta=nu / mean)
            for g in mean * np.array([1e-3, 0.5, 1.0, 3.0]):
                assert gamma_cdf_integral(p, g) == pytest.approx(
                    gamma_cdf(p, g), rel=1e-9, abs=1e-14)

    def test_vectorized(self):
        p = GammaSnrParams(nu=3, beta=1.2)
        g = np.linspace(0, 10, 7)
        np.testing.assert_allclose(gamma_cdf(p, g), [gamma_cdf(p, x) for x in g])

    @pytest.mark.parametrize("nu, x, want", [
        # regularized lower incomplete gamma P(nu, x), mpmath at 40 digits
        (4, 1e-3, 4.163334721825484e-14),
        (2, 1e-6, 4.9999966666679162e-13),
        (8, 0.05, 9.2670799237086712e-16),
        (3, 30.0, 0.99999999995498983),
    ])
    def test_small_cdf_keeps_relative_accuracy(self, nu, x, want):
        # 1 - Q(nu, x) cancels here: 4% off at nu = 8, x = 0.05
        p = GammaSnrParams(nu=nu, beta=1.0)
        assert gamma_cdf(p, x) == pytest.approx(want, rel=1e-13, abs=0.0)


def _assert_twins(scalar, vector, nodes):
    nodes = np.asarray(nodes, dtype=float)
    np.testing.assert_allclose([scalar(float(g)) for g in nodes], vector(nodes),
                               rtol=1e-13, atol=0.0)


class TestScalarTwins:
    """The densities the quadrature integrands call, on every branch,
    at float arguments, against an independent reference: mpmath or
    scipy.stats."""

    def test_rician_against_mpmath(self):
        # rho x = 620 to 990 at rho = 0.9923, across where 1F1(m; 1; rho x)
        # itself overflows; mpmath at 40 digits
        pdf = _rician_pdf(
            RicianShadowedParams(m=19.4, xi=50.0, sigma2=0.01, mean_snr=1.0))
        nodes = [12.5, 12.9, 13.2, 20.0]
        want = [8.0338288013066563671e-7, 1.209998121487847335e-6,
                1.6269753881487114398e-6, 2.0974828432130746856e-4]
        np.testing.assert_allclose([pdf(g) for g in nodes], want, rtol=1e-13, atol=0.0)

    def test_kappa_mu_shadowed_at_tiny_argument(self):
        # where w x < 1e-100 the 1F1 factor is 1; scipy's returned inf at
        # some (a, b) below ~1e-150, and the Rician integral raised there
        mu = math.exp(0.03125)
        pdf = _kappa_mu_shadowed_pdf(1.0, mu, 3.8e-142, 1.0, 1.0)
        for x in (1e-300, 1e-160, 1e-10):
            want = x ** (mu - 1.0) * math.exp(-x) / math.gamma(mu)
            assert pdf(x, (mu - 1.0) * math.log(x)) == pytest.approx(want, rel=1e-13)
        p = RicianShadowedParams(m=1.0391893379675405, xi=1.0, sigma2=0.25, mean_snr=1.0)
        assert rician_shadowed_cdf_integral(p, 1e-250) == pytest.approx(
            rician_shadowed_cdf(p, 1e-250), rel=1e-9, abs=0.0)

    @pytest.mark.parametrize("c, mu, want", [
        # w = 0.9, w x = 1417.7; mpmath at 30 digits
        (1.4362980867494815, 1.3917921390855383, 3.9651400013962219886e-69),
        (1.04, 1.0, 4.8361367771467640435e-70),
    ])
    def test_kappa_mu_shadowed_in_scipys_inf_band(self, c, mu, want):
        # scipy's 1F1(a; b; z) is inf for z in about [-1418, -1417.4] at
        # small |a|; the density takes the large -z expansion there
        x = 1417.7 / 0.9
        assert sc.hyp1f1(mu - c, mu, -0.9 * x) == math.inf
        pdf = _kappa_mu_shadowed_pdf(c, mu, 0.9, 1.0 - 0.9, 1.0)
        assert pdf(x, (mu - 1.0) * math.log(x)) == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_gamma(self):
        nodes = [0.0, 1e-300, 1e-200, 1e-12, 1e-6, 1e-3, 0.5, 1.0, 10.0, 200.0]
        for nu, beta in ((1, 0.5), (1, 3e4), (4, 2.0), (8, 1e-3)):
            p = GammaSnrParams(nu=nu, beta=beta)
            _assert_twins(_gamma_pdf(p),
                          lambda g: scipy.stats.gamma.pdf(g, nu, scale=1.0 / beta), nodes)


class TestMixture:
    """The blockage blend, `scenario._blockage_blend`, of a link's LOS and
    NLOS values; `LinkSpec` is where p_los and nlos_mean_snr are checked."""

    LOS = RicianShadowedParams(m=2.0, xi=1.0, sigma2=0.5, mean_snr=10.0)

    def _blend(self, p_los, f_los, f_nlos):
        rx = LinkSpec(fading=self.LOS, p_los=p_los, nlos_mean_snr=1.0)
        by_mean = {10.0: f_los, 1.0: f_nlos}
        got = scenario._blockage_blend(rx, lambda law: by_mean[law.mean_snr])
        # the same blend of a pair that one call gives
        assert scenario._blockage_blend(rx, None, lambda: (f_los, f_nlos)) == got
        return got

    def test_blend(self):
        assert self._blend(0.25, 0.8, 0.4) == pytest.approx(0.25 * 0.8 + 0.75 * 0.4)
        assert self._blend(1.0, 0.8, 0.4) == 0.8
        assert self._blend(0.0, 0.8, 0.4) == 0.4

    def test_validation(self):
        for p_los in (1.3, -0.1, math.nan):
            with pytest.raises(ParameterError, match="p_los"):
                LinkSpec(fading=self.LOS, p_los=p_los, nlos_mean_snr=1.0)
        for nlos in (0.0, -1.0, math.nan):
            with pytest.raises(ParameterError, match="nlos_mean_snr"):
                LinkSpec(fading=self.LOS, p_los=0.5, nlos_mean_snr=nlos)
