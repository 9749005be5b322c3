import math

import numpy as np
import pytest
import scipy.integrate
import scipy.stats

from jamsec.errors import ConvergenceError, ParameterError
from jamsec.fading import (
    DoubleKappaMuShadowedParams,
    GammaSnrParams,
    RicianShadowedParams,
    SamplerSeed,
    dksm_cdf,
    dksm_cdf_at_sorted,
    dksm_pdf,
    dksm_sample,
    gamma_cdf,
    gamma_pdf,
    mixture_cdf,
    nakagami_limit_pdf,
    rician_shadowed_cdf,
    rician_shadowed_pdf,
    rician_shadowed_sample,
)


def _pdf_quad(p, lo_u, hi_u):
    # integrate in u = ln(gamma) to tame the power-law endpoint
    val, _ = scipy.integrate.quad(
        lambda u: dksm_pdf(p, math.exp(u)) * math.exp(u),
        lo_u, hi_u, limit=400, epsabs=1e-13, epsrel=1e-11,
    )
    return val


def gamma_cdf_series(p, g):
    """Finite-series Gamma CDF for the integer shapes GammaSnrParams
    carries: 1 - exp(-beta*g) * sum_{n<nu} (beta*g)^n / n!."""
    x = p.beta * g
    term = acc = 1.0
    for n in range(1, p.nu):
        term *= x / n
        acc += term
    return min(max(1.0 - math.exp(-x) * acc, 0.0), 1.0)


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
        assert p.big_k == pytest.approx(p.big_t / (2.0 + 1.5 * 2.0))


class TestDoubleShadowedPdf:
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
        mean, _ = scipy.integrate.quad(
            lambda u: math.exp(u) * dksm_pdf(p, math.exp(u)) * math.exp(u),
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
            assert dksm_pdf(p, g) == pytest.approx(want, rel=1e-9, abs=0.0)
            assert dksm_pdf(p, np.array([g, 1.0]))[0] == dksm_pdf(p, g)

    def test_origin_behavior(self):
        base = dict(c=2.0, s=2.0, kappa=1.0, mean_snr=1.0)
        assert dksm_pdf(DoubleKappaMuShadowedParams(mu=2.0, **base), 0.0) == 0.0
        assert dksm_pdf(DoubleKappaMuShadowedParams(mu=1.0, **base), 0.0) > 0.0
        assert dksm_pdf(DoubleKappaMuShadowedParams(mu=0.7, **base), 0.0) == math.inf

    def test_exponential_corner(self):
        # both shadowing layers effectively off, kappa ~ 0, mu = 1: Rayleigh SNR
        p = DoubleKappaMuShadowedParams(c=1e4, s=1e4, mu=1.0, kappa=1e-12, mean_snr=1.3)
        for g in (0.05, 0.5, 1.3, 4.0):
            want = math.exp(-g / 1.3) / 1.3
            assert dksm_pdf(p, g) == pytest.approx(want, rel=5e-4)

    def test_vectorized(self):
        p = DoubleKappaMuShadowedParams(c=2.0, s=2.5, mu=1.2, kappa=0.5, mean_snr=1.0)
        g = np.array([0.1, 1.0, 3.0])
        np.testing.assert_allclose(dksm_pdf(p, g), [dksm_pdf(p, x) for x in g])


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

    def test_sorted_evaluator_agrees(self):
        p = DoubleKappaMuShadowedParams(c=1.2, s=2.0, mu=1.5, kappa=0.3, mean_snr=1.0)
        grid = np.sort(np.random.default_rng(3).uniform(0.01, 6.0, size=40))
        fast = dksm_cdf_at_sorted(p, grid)
        slow = np.array([dksm_cdf(p, g) for g in grid])
        np.testing.assert_allclose(fast, slow, rtol=1e-7, atol=1e-10)


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
        a = dksm_sample(p, SamplerSeed(seed=5, stream=0), 1000)
        b = dksm_sample(p, SamplerSeed(seed=5, stream=1), 1000)
        c = dksm_sample(p, SamplerSeed(seed=5, stream=0, lineage=(1,)), 1000)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)
        assert abs(np.corrcoef(a, b)[0, 1]) < 0.05

    def test_ks_against_cdf(self):
        p = DoubleKappaMuShadowedParams(c=1.5, s=3.0, mu=2.0, kappa=0.5, mean_snr=1.0)
        draws = np.sort(dksm_sample(p, SamplerSeed(seed=77), 100_000))
        theory = dksm_cdf_at_sorted(p, draws)
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
        total, _ = scipy.integrate.quad(lambda g: rician_shadowed_pdf(p, g),
                                        0, np.inf, limit=300)
        assert total == pytest.approx(1.0, abs=1e-9)
        mean, _ = scipy.integrate.quad(lambda g: g * rician_shadowed_pdf(p, g),
                                       0, np.inf, limit=300)
        assert mean == pytest.approx(1.5 * (2.0 + 2.0 * 0.4), rel=1e-9)

    def test_cdf_against_pdf_quadrature(self):
        p = RicianShadowedParams(m=19.4, xi=1.29, sigma2=0.158, mean_snr=2.0)
        for g in (0.2, 1.0, 3.5, 9.0):
            want, _ = scipy.integrate.quad(lambda t: rician_shadowed_pdf(p, t),
                                           0, g, limit=300)
            assert rician_shadowed_cdf(p, g) == pytest.approx(want, rel=1e-9)

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
        for g in (0.1, 0.8, 2.0, 5.0):
            assert rician_shadowed_pdf(rs, g) == pytest.approx(
                dksm_pdf(dk, g), rel=1e-4
            )

    def test_large_argument_guard(self):
        # hyp1f1 overflow region: rho * x > 650 must still return finite values
        p = RicianShadowedParams(m=1.2, xi=50.0, sigma2=0.01, mean_snr=1.0)
        val = rician_shadowed_pdf(p, 60.0)
        assert math.isfinite(val) and val > 0

    def test_series_nonconvergence(self):
        p = RicianShadowedParams(m=5.0, xi=30.0, sigma2=0.05, mean_snr=1.0)
        with pytest.raises(ConvergenceError) as exc:
            rician_shadowed_cdf(p, 20.0, max_terms=3)
        assert exc.value.terms == 3

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

    def test_exponential_special_case(self):
        p = GammaSnrParams(nu=1, beta=0.5)
        assert gamma_pdf(p, 0.0) == pytest.approx(0.5)
        assert gamma_pdf(p, 2.0) == pytest.approx(0.5 * math.exp(-1.0), rel=1e-12)
        assert gamma_cdf(p, 2.0) == pytest.approx(1.0 - math.exp(-1.0), rel=1e-12)
        assert p.mean == pytest.approx(2.0)

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

    def test_vectorized(self):
        p = GammaSnrParams(nu=3, beta=1.2)
        g = np.linspace(0, 10, 7)
        np.testing.assert_allclose(gamma_cdf(p, g), [gamma_cdf(p, x) for x in g])


class TestNakagamiLimit:
    def test_normalization(self):
        for m in (0.6, 1.0, 2.5):
            total, _ = scipy.integrate.quad(
                lambda x: nakagami_limit_pdf(m, 1.4, x), 0, np.inf)
            assert total == pytest.approx(1.0, abs=1e-9)

    def test_rayleigh_case(self):
        # m=1 is Rayleigh with scale rms/sqrt(2)
        rms = 2.0
        for x in (0.3, 1.0, 2.5):
            want = (2 * x / rms**2) * math.exp(-(x**2) / rms**2)
            assert nakagami_limit_pdf(1.0, rms, x) == pytest.approx(want, rel=1e-12)


class TestMixture:
    def test_blend(self):
        assert mixture_cdf(0.25, 0.8, 0.4) == pytest.approx(0.25 * 0.8 + 0.75 * 0.4)
        assert mixture_cdf(1.0, 0.8, 0.4) == 0.8
        assert mixture_cdf(0.0, 0.8, 0.4) == 0.4

    def test_validation(self):
        with pytest.raises(ParameterError):
            mixture_cdf(1.3, 0.5, 0.5)
        with pytest.raises(ParameterError):
            mixture_cdf(0.5, 1.7, 0.5)
