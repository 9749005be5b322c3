import math
import tracemalloc

import numpy as np
import pytest
import scipy.integrate
import scipy.special as sc
import scipy.stats

import ks_reference
from jamsec import fading
from jamsec.errors import ParameterError
from jamsec.fading import (
    DoubleKappaMuShadowedParams,
    GammaSnrParams,
    RicianShadowedParams,
    SamplerSeed,
    _HYP_DIRECT_MAX,
    _dksm_pdf_scalar,
    _gamma_pdf_scalar,
    _ln_hyp2f1_series,
    _rician_shadowed_pdf_scalar,
    dksm_cdf,
    dksm_sample,
    gamma_cdf,
    gamma_cdf_integral,
    mixture_cdf,
    rician_shadowed_cdf,
    rician_shadowed_cdf_integral,
    rician_shadowed_sample,
)


def _pdf_quad(p, lo_u, hi_u):
    # integrate in u = ln(gamma) to tame the power-law endpoint
    pdf = _dksm_pdf_scalar(p)
    val, _ = scipy.integrate.quad(
        lambda u: pdf(math.exp(u)) * math.exp(u),
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
        pdf = _dksm_pdf_scalar(p)
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
            assert _dksm_pdf_scalar(p)(g) == pytest.approx(want, rel=1e-9, abs=0.0)

    def test_large_s_against_mpmath(self):
        # ln_pdf groups its powers as -(s+mu) log1p(T g / phi) and its
        # gamma ratio as one Pochhammer, so nothing of size ~s ln s
        # cancels
        pdf = _dksm_pdf_scalar(LARGE_S)
        for g, want in LARGE_S_CASES:
            assert pdf(g) == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_gamma_ratio_beyond_overflow(self):
        # Gamma(s+mu)/Gamma(s) overflows a float at s = 1e5, mu = 80; the
        # density still integrates to one
        p = DoubleKappaMuShadowedParams(c=2.0, s=1e5, mu=80.0, kappa=1.0,
                                        mean_snr=1.0)
        pdf = _dksm_pdf_scalar(p)
        total, _ = scipy.integrate.quad(
            lambda u: pdf(math.exp(u)) * math.exp(u), -3.0, 3.0,
            limit=200, epsabs=1e-13, epsrel=1e-11)
        assert total == pytest.approx(1.0, rel=1e-9)

    def test_origin_behavior(self):
        base = dict(c=2.0, s=2.0, kappa=1.0, mean_snr=1.0)
        def at_zero(mu):
            return _dksm_pdf_scalar(DoubleKappaMuShadowedParams(mu=mu, **base))(0.0)

        assert at_zero(2.0) == 0.0
        assert at_zero(1.0) > 0.0
        assert at_zero(0.7) == math.inf

    def test_exponential_corner(self):
        # both shadowing layers effectively off, kappa ~ 0, mu = 1: Rayleigh SNR
        p = DoubleKappaMuShadowedParams(c=1e4, s=1e4, mu=1.0, kappa=1e-12, mean_snr=1.3)
        pdf = _dksm_pdf_scalar(p)
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
        assert _ln_hyp2f1_series(a, b, c, [z])[0] == pytest.approx(want, rel=1e-13, abs=0.0)

    def test_rows_are_independent(self):
        z = np.array([0.0027, 0.5, 0.9, 1e-7])
        np.testing.assert_array_equal(
            _ln_hyp2f1_series(2.5, 1e5 + 1.0, 1.0, z),
            [_ln_hyp2f1_series(2.5, 1e5 + 1.0, 1.0, [v])[0] for v in z])


class TestWindowSum:
    """`_ln_window_sum` carries a doubled window's sum and evaluates only
    the columns it adds, on either side of the old window."""

    @staticmethod
    def narrowed(monkeypatch):
        # every other row starts 64 times too narrow, so it doubles back
        # past its usual width while its neighbours do not
        real = fading._ln_window_sum

        def narrow(ln_terms, ratio_sup, peak, spread):
            return real(ln_terms, ratio_sup, peak,
                        spread / np.where(np.arange(peak.size) % 2, 64.0, 1.0))

        monkeypatch.setattr(fading, "_ln_window_sum", narrow)

    def test_log_space_2f1(self, monkeypatch):
        # the 2F1 terms come from cumulative ratios, which must step over
        # the old window where the new columns jump it.  A narrow window
        # starts its ratios at a log-gamma term of k in the hundreds, not
        # at k = 0, so its sum carries ~1e-13 more rounding
        z = 1.0 - np.geomspace(1e-3, 0.5, 8)
        for a, b, c in ((0.05, 200.0, 193.3), (5.0, 200.0, 52.0), (60.0, 70.0, 0.6)):
            want = _ln_hyp2f1_series(a, b, c, z)
            self.narrowed(monkeypatch)
            np.testing.assert_allclose(_ln_hyp2f1_series(a, b, c, z), want, rtol=1e-12, atol=0.0)
            monkeypatch.undo()

    def test_rician_cdf(self, monkeypatch):
        g = np.geomspace(1e-3, 2e3, 9)
        for m, xi, sigma2 in ((0.5, 1000.0, 0.001), (19.4, 1.29, 0.158), (2.0, 50.0, 0.01)):
            p = RicianShadowedParams(m=m, xi=xi, sigma2=sigma2, mean_snr=1.0)
            want = rician_shadowed_cdf(p, g)
            self.narrowed(monkeypatch)
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
        pdf = _rician_shadowed_pdf_scalar(p)
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
        pdf = _rician_shadowed_pdf_scalar(rs)
        for g in (0.1, 0.8, 2.0, 5.0):
            assert pdf(g) == pytest.approx(_dksm_pdf_scalar(dk)(g), rel=1e-4)

    def test_large_argument_guard(self):
        # 1F1(m; 1; rho x) overflows past rho x ~ 700; the density must not
        pdf = _rician_shadowed_pdf_scalar(
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
        # x = 1e6 against 1/(1 - rho) = 1e6: the window doubles to 2^20
        # terms, summed in 2^16-term blocks (3 MB); the last doubling adds
        # 2^19 columns, and as one block their log-terms and temporaries
        # peak at ~22 MB
        p = RicianShadowedParams(m=0.5, xi=1000.0, sigma2=0.001, mean_snr=1.0)
        tracemalloc.start()
        try:
            val = rician_shadowed_cdf(p, 2000.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12 * 2**20
        monkeypatch.setattr("jamsec.fading._LN_CHUNK", 2.0**21)
        assert val == pytest.approx(rician_shadowed_cdf(p, 2000.0), rel=0.0, abs=1e-12)

    def test_doubled_window_evaluates_each_column_once(self, monkeypatch):
        # x = 1e7 against 1/(1 - rho) = 1e6: the window starts 32 terms wide
        # at peak 0 and doubles to 2^24.  A doubled window evaluates only
        # the columns it adds, so the terms seen are the final width plus
        # at most one block; evaluating each window whole sees ~2^25
        p = RicianShadowedParams(m=0.5, xi=1000.0, sigma2=0.001, mean_snr=1.0)
        real, seen = fading._ln_window_sum, []

        def counted(ln_terms, ratio_sup, peak, spread):
            def terms(rows, k):
                seen.append(k.size)
                return ln_terms(rows, k)
            return real(terms, ratio_sup, peak, spread)

        monkeypatch.setattr(fading, "_ln_window_sum", counted)
        val = rician_shadowed_cdf(p, 2e4)
        assert 2**23 < sum(seen) <= 2**24 + 2**16
        assert val == pytest.approx(rician_shadowed_cdf_integral(p, 2e4), rel=1e-11, abs=0.0)

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
        pdf = _gamma_pdf_scalar(p)
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
    """The scalar densities the quadrature integrands call, on every
    branch, against an independent reference: the vectorised density of
    the KS reference (`ks_reference.dksm_pdf`), mpmath, or scipy.stats."""

    def test_dksm(self):
        nodes = np.concatenate(([0.0], np.geomspace(1e-8, 1e4, 60)))
        for mu in (0.6, 1.0, 2.5):
            for kappa in (0.0, 1.5, 10.0):
                p = DoubleKappaMuShadowedParams(c=1.5, s=2.5, mu=mu, kappa=kappa,
                                                mean_snr=10.0)
                _assert_twins(_dksm_pdf_scalar(p), lambda g: ks_reference.dksm_pdf(p, g), nodes)

    def test_dksm_log_space_2f1(self):
        p = LARGE_S
        g = np.array([g for g, _ in LARGE_S_CASES])
        z = p.big_k * p.mu * p.kappa * g / (p.big_t * g + (p.s - 1.0) * p.mean_snr)
        assert not np.all(sc.hyp2f1(p.c, p.s + p.mu, p.mu, z) <= _HYP_DIRECT_MAX)
        _assert_twins(_dksm_pdf_scalar(p), lambda g: ks_reference.dksm_pdf(p, g), g)

    def test_rician_against_mpmath(self):
        # rho x = 620 to 990 at rho = 0.9923, across where 1F1(m; 1; rho x)
        # itself overflows; mpmath at 40 digits
        pdf = _rician_shadowed_pdf_scalar(
            RicianShadowedParams(m=19.4, xi=50.0, sigma2=0.01, mean_snr=1.0))
        nodes = [12.5, 12.9, 13.2, 20.0]
        want = [8.0338288013066563671e-7, 1.209998121487847335e-6,
                1.6269753881487114398e-6, 2.0974828432130746856e-4]
        np.testing.assert_allclose([pdf(g) for g in nodes], want, rtol=1e-13, atol=0.0)

    def test_gamma(self):
        nodes = [0.0, 1e-300, 1e-200, 1e-12, 1e-6, 1e-3, 0.5, 1.0, 10.0, 200.0]
        for nu, beta in ((1, 0.5), (1, 3e4), (4, 2.0), (8, 1e-3)):
            p = GammaSnrParams(nu=nu, beta=beta)
            _assert_twins(_gamma_pdf_scalar(p),
                          lambda g: scipy.stats.gamma.pdf(g, nu, scale=1.0 / beta), nodes)


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
