import itertools
import math

import numpy as np
import pytest
import scipy.integrate
import scipy.special as sc

import ks_reference
from foxh_contour import capacity_eve_foxh
from jamsec import fading, secrecy, specfun
from jamsec.errors import AccuracyError, ParameterError
from jamsec.fading import (
    DoubleKappaMuShadowedParams,
    GammaSnrParams,
    RicianShadowedParams,
    SamplerSeed,
    dksm_cdf,
    gamma_cdf,
    gamma_cdf_integral,
    rician_shadowed_cdf,
    rician_shadowed_cdf_integral,
)
from jamsec.montecarlo import LinkSpec, estimate_capacity, simulate_receiver_snr
from jamsec.secrecy import (
    EveLinkParams,
    _scaled_en,
    capacity_eve_quadrature,
    capacity_eve_series,
    capacity_receiver_quadrature,
    capacity_receiver_series,
    db_to_linear,
    eve_sinr_cdf,
    eve_sinr_cdf_integral,
    mean_snr,
    secrecy_capacity,
)


class TestUnitsAndTypes:
    def test_db_round_trip(self):
        assert db_to_linear(10.0) == pytest.approx(10.0, rel=1e-14)
        assert db_to_linear(0.0) == 1.0
        for x in (0.03, 1.0, 17.5, 4e4):
            assert db_to_linear(10.0 * math.log10(x)) == pytest.approx(x, rel=1e-12)

    def test_eve_link_validation(self):
        with pytest.raises(ParameterError):
            EveLinkParams(nu_i=0, beta_i=1.0, nu_j=1, beta_j=1.0)
        with pytest.raises(ParameterError):
            EveLinkParams(nu_i=1.5, beta_i=1.0, nu_j=1, beta_j=1.0)
        with pytest.raises(ParameterError):
            EveLinkParams(nu_i=1, beta_i=0.0, nu_j=1, beta_j=1.0)
        # nu_j = 0 is the jammer off; below it, or off the integers, no link
        EveLinkParams(nu_i=1, beta_i=1.0, nu_j=0, beta_j=1.0)
        for nu_j in (-1, 0.5, 1.5):
            with pytest.raises(ParameterError):
                EveLinkParams(nu_i=1, beta_i=1.0, nu_j=nu_j, beta_j=1.0)
        # a subnormal mean SNR makes the rate m / SNR infinite
        for beta_i, beta_j in ((math.inf, 1.0), (1.0, math.inf), (math.nan, 1.0)):
            with pytest.raises(ParameterError, match="finite"):
                EveLinkParams(nu_i=1, beta_i=beta_i, nu_j=0, beta_j=beta_j)


class TestLinkBudget:
    def test_mean_snr_values(self):
        assert mean_snr(1.0, 1.0, 2.0, 1.0) == 1.0
        assert mean_snr(1.0, 2.0, 2.0, 1.0) == pytest.approx(0.25)
        assert mean_snr(4.0, 10.0, 0.0, 2.0) == pytest.approx(2.0)

    def test_mean_snr_validation(self):
        with pytest.raises(ParameterError):
            mean_snr(0.0, 1.0, 2.0, 1.0)
        with pytest.raises(ParameterError):
            mean_snr(1.0, 1.0, -0.5, 1.0)

    @pytest.mark.parametrize("p, r, delta", [
        (db_to_linear(5.0), 30.0, 400.0),  # underflows to 0
        (10.0, 1e-200, 2.0),  # r ** -delta overflows
        (1e300, 1e-10, 2.0),  # the product overflows
    ])
    def test_mean_snr_must_be_a_positive_finite_double(self, p, r, delta):
        with pytest.raises(ParameterError, match="mean SNR"):
            mean_snr(p, r, delta, 1.0)


class TestEveSinrCdf:
    def test_closed_form_unit_case(self):
        # nu_i = nu_j = 1, beta_i = beta_j = 1 collapses to
        # F(g) = 1 - exp(-g) / (1 + g)
        p = EveLinkParams(nu_i=1, beta_i=1.0, nu_j=1, beta_j=1.0)
        assert eve_sinr_cdf(p, 1.0) == pytest.approx(1.0 - math.exp(-1.0) / 2.0,
                                                     rel=1e-14)
        for g in (0.2, 2.0, 7.0):
            want = 1.0 - math.exp(-g) / (1.0 + g)
            assert eve_sinr_cdf(p, g) == pytest.approx(want, rel=1e-13)

    def test_two_branch_case(self):
        # nu_i = 2 keeps one extra series term:
        # S(g) = exp(-g) [1 + g/(1+g)^2]
        p = EveLinkParams(nu_i=2, beta_i=1.0, nu_j=1, beta_j=1.0)
        for g in (0.5, 1.0, 3.0):
            s = math.exp(-g) * (1.0 + g / (1.0 + g) ** 2)
            assert eve_sinr_cdf(p, g) == pytest.approx(1.0 - s, rel=1e-13)

    def test_limits_and_monotone(self):
        p = EveLinkParams(nu_i=3, beta_i=0.8, nu_j=2, beta_j=1.5)
        assert eve_sinr_cdf(p, 0.0) == 0.0
        grid = np.geomspace(1e-3, 1e3, 40)
        vals = eve_sinr_cdf(p, grid)
        assert np.all(np.diff(vals) >= 0)
        assert np.all(np.diff(vals[grid < 10.0]) > 0)
        assert vals[-1] == pytest.approx(1.0, abs=1e-6)

    def test_against_integral(self):
        p = EveLinkParams(nu_i=2, beta_i=0.5, nu_j=3, beta_j=1.2)
        for g in (0.05, 0.3, 1.0, 4.0, 20.0):
            want = eve_sinr_cdf_integral(p, g)
            assert eve_sinr_cdf(p, g) == pytest.approx(want, rel=1e-9)
        # the README example: noise_var 1e-7 puts the mean SNRs near 1e8,
        # so the jamming density spans ~1e8 in gamma_J
        snr_i = mean_snr(db_to_linear(10.0), 15.0, 2.7, 1e-7)
        for r_je in (0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 30.0):
            snr_j = mean_snr(db_to_linear(5.0), r_je, 2.7, 1e-7)
            p = EveLinkParams(nu_i=1, beta_i=1.0 / snr_i, nu_j=1, beta_j=1.0 / snr_j)
            for zeta_db in (-8.0, -2.0):
                th = db_to_linear(zeta_db)
                assert eve_sinr_cdf_integral(p, th) == pytest.approx(
                    eve_sinr_cdf(p, th), rel=1e-9)

    # (nu_I, beta_I, nu_J, beta_J, gamma) -> F, from mpmath at 50 digits as
    # sum_{q < nu_I} NB(q; nu_J, pi) P(nu_I - q, x) + I_pi(nu_I, nu_J),
    # x = beta_I gamma, pi = x / (x + beta_J); E_J[P(nu_I, x (1 + gamma_J))]
    # by mpmath quadrature gives the same digits down to 1e-46.  The first
    # point once read 1.6e-15: one minus a survival sum within an ulp of one
    MPMATH = {
        (16, 0.01, 4, 100.0, 1.0): 9.304239714714300498860695e-46,
        (16, 0.001, 4, 1000.0, 1e-4): 5.097162775956735939933369e-126,
        (16, 1.0, 4, 1.0, 0.5): 1.562543490563374344708956e-05,
        (16, 1000.0, 4, 0.001, 1e-4): 0.9999676015306555120737728,
        (16, 0.001, 4, 10.0, 1000.0): 3.463107560056808454744694e-11,
        (16, 0.5, 4, 0.02, 30.0): 0.9999999998727138425263425,
        (1, 0.001, 1, 1000.0, 1e-4): 1.000999949899901740483784e-07,
        (1, 1.0, 1, 1.0, 0.5): 0.5956462268582443842641336,
        (1, 1000.0, 1, 0.001, 1e-4): 0.9910412136828122817371755,
        (1, 0.001, 1, 10.0, 1000.0): 0.6655641443895978970533545,
        (3, 0.001, 2, 1000.0, 1e-4): 1.67669658066216004772813e-22,
        (3, 0.01, 2, 100.0, 1.0): 1.756215607438169793775425e-07,
        (3, 1.0, 2, 1.0, 0.5): 0.2025245029704264245209302,
        (3, 0.5, 2, 0.02, 30.0): 0.9999999999113484681478149,
        (4, 0.001, 16, 1000.0, 1e-4): 4.440214960010207507628026e-30,
        (4, 0.01, 16, 100.0, 1.0): 7.528292864841844110221312e-10,
        (4, 1.0, 16, 1.0, 0.5): 0.9416394687699467641616093,
        (4, 0.001, 16, 10.0, 1000.0): 0.2663154181089044137102664,
        (64, 0.01, 64, 100.0, 1.0): 8.318474512714730969001319e-202,
        (64, 1.0, 64, 1.0, 0.5): 6.932251498079949080054987e-05,
        (64, 0.001, 64, 10.0, 1000.0): 6.177057398124366456497268e-31,
    }

    @pytest.mark.parametrize("args", MPMATH, ids=str)
    def test_against_mpmath(self, args):
        # every term is non-negative, so a small CDF keeps its relative
        # precision; above 1/2 the complement keeps it to the ulp near 1
        nu_i, beta_i, nu_j, beta_j, g = args
        want = self.MPMATH[args]
        got = eve_sinr_cdf(EveLinkParams(nu_i, beta_i, nu_j, beta_j), g)
        if want <= 0.5:
            assert got == pytest.approx(want, rel=1e-12, abs=0.0)
        else:
            assert got == pytest.approx(want, rel=0.0, abs=1e-14)

    @pytest.mark.parametrize("nu, beta", [(1, 1.0), (4, 0.02), (16, 300.0)])
    def test_jammer_off_is_the_gamma_cdf(self, nu, beta):
        # nu_J = 0: the SINR is the intercept SNR, to the bit on both routes
        p = EveLinkParams(nu_i=nu, beta_i=beta, nu_j=0, beta_j=1.0)
        gamma = GammaSnrParams(nu=nu, beta=beta)
        grid = np.geomspace(1e-4, 1e3, 15)
        np.testing.assert_array_equal(eve_sinr_cdf(p, grid), gamma_cdf(gamma, grid))
        for g in (0.0, 1e-3, 0.7, 40.0):
            assert eve_sinr_cdf(p, g) == gamma_cdf(gamma, g)
            assert eve_sinr_cdf_integral(p, g) == gamma_cdf_integral(gamma, g)

    def test_more_jamming_raises_cdf(self):
        # raising mean jamming power nu_j / beta_j degrades the SINR,
        # so the CDF moves up pointwise
        base = EveLinkParams(nu_i=2, beta_i=1.0, nu_j=2, beta_j=1.0)
        more = EveLinkParams(nu_i=2, beta_i=1.0, nu_j=4, beta_j=1.0)
        stronger = EveLinkParams(nu_i=2, beta_i=1.0, nu_j=2, beta_j=0.25)
        for g in (0.1, 1.0, 5.0):
            assert eve_sinr_cdf(more, g) > eve_sinr_cdf(base, g)
            assert eve_sinr_cdf(stronger, g) > eve_sinr_cdf(base, g)


def _receiver_grid():
    # includes c = 0.5, mu = 3, kappa = 10, s = 2.5 at mean 10, where the
    # term-by-term series did not settle; half-integer c puts a pole of
    # each connection term of the 2F1 factor on the contour
    for c, mu, kappa, s, mean in itertools.product(
            (0.5, 1.5, 5.0), (0.6, 2.0, 3.0), (0.0, 1.5, 10.0), (1.8, 2.5),
            (0.1, 10.0, 1e4)):
        yield pytest.param(c, mu, kappa, s, mean,
                           id=f"{c:g}-{mu:g}-{kappa:g}-{s:g}-{mean:g}")


class TestReceiverCapacity:
    @pytest.mark.parametrize("c, mu, kappa, s, mean", _receiver_grid())
    def test_fold_matches_quadrature_grid(self, c, mu, kappa, s, mean):
        p = DoubleKappaMuShadowedParams(c=c, s=s, mu=mu, kappa=kappa,
                                        mean_snr=mean)
        assert capacity_receiver_series(p) == pytest.approx(
            capacity_receiver_quadrature(p), rel=1e-9, abs=0.0)

    def test_series_matches_quadrature(self):
        for p in (
            DoubleKappaMuShadowedParams(c=2.0, s=2.5, mu=1.5, kappa=1.0, mean_snr=5.0),
            DoubleKappaMuShadowedParams(c=0.8, s=4.0, mu=0.6, kappa=2.5, mean_snr=0.5),
            DoubleKappaMuShadowedParams(c=5.0, s=1.8, mu=3.0, kappa=0.0, mean_snr=20.0),
        ):
            series = capacity_receiver_series(p)
            quad = capacity_receiver_quadrature(p)
            assert series == pytest.approx(quad, rel=1e-6)

    @pytest.mark.parametrize("s", (1.01, 1.05, 1.12))
    def test_quadrature_near_s_one(self, s):
        # M_Y = (1+z)^(-s) falls slowest here: in u = ln z the integrand
        # decays only like e^(-s u), and u_hi, where s ln(1+z) = 45, is
        # near 44.5
        p = DoubleKappaMuShadowedParams(c=5.0, s=s, mu=2.0, kappa=1.5, mean_snr=10.0)
        assert capacity_receiver_quadrature(p) == pytest.approx(
            capacity_receiver_series(p), rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("mu", (0.02, 0.05, 0.08))
    def test_quadrature_small_mu(self, mu):
        # the density is ~ gamma^(mu-1), infinite at 0 and still heavy far
        # below the knee, but 1 - M_X rises like mu lam z (1+kappa) below
        # every break whatever mu is: the lower limit needs no mu-dependent
        # margin
        p = DoubleKappaMuShadowedParams(c=2.0, s=2.5, mu=mu, kappa=1.0, mean_snr=5.0)
        assert capacity_receiver_quadrature(p) == pytest.approx(
            capacity_receiver_series(p), rel=1e-12, abs=0.0)

    # 328 laws by the density integral (ks_reference), s from 1.01 to 1e5:
    # every (c, mu, kappa, mean) below at s up to 1.8; from s = 4 on, where
    # each dominant-component law costs 10-200 ms (its 2F1 slows as s grows,
    # and at s = 1e5 is a log-space sum), the 27 laws without one and a few
    # with one
    DENSITY_GRID = {
        s: list(itertools.product((0.5, 1.5, 5.0), (0.05, 0.6, 3.0), kappas,
                                  (0.1, 10.0, 1e4)))
        for s, kappas in ((1.01, (0.0, 1.5, 10.0)), (1.3, (0.0, 1.5, 10.0)),
                          (1.8, (0.0, 1.5, 10.0)), (4.0, (0.0,)), (50.0, (0.0,)),
                          (1e5, (0.0,)))
    }
    DENSITY_GRID[4.0].append((1.5, 0.6, 10.0, 10.0))
    DENSITY_GRID[50.0].append((5.0, 3.0, 1.5, 1e4))
    DENSITY_GRID[1e5] += [(0.5, 3.0, 10.0, 10.0), (5.0, 0.6, 1.5, 0.1)]

    @pytest.mark.parametrize("s", DENSITY_GRID)
    def test_quadrature_matches_density_integral_grid(self, s):
        # the MGF integral against log2(1 + gamma) integrated against the
        # density itself, with its 2F1: no shared formula
        off = []
        for c, mu, kappa, mean in self.DENSITY_GRID[s]:
            p = DoubleKappaMuShadowedParams(c=c, s=s, mu=mu, kappa=kappa, mean_snr=mean)
            want = ks_reference.capacity_receiver_density(p)
            got = capacity_receiver_quadrature(p)
            if not abs(got - want) <= 1e-9 * want:
                off.append((c, mu, kappa, mean, got, want))
        assert off == []

    # c = 5, s = 1e5, mu = 3, kappa = 10 -> capacity at each mean SNR, from
    # mpmath at 30 digits by the density integral, its 2F1 taken by Pfaff's
    # transformation as (1-z)^(-s-mu) 2F1(mu-c, s+mu; mu; z/(z-1)), a
    # polynomial here (mu - c = -2), and by the MGF integral: the two agree
    # to 2e-25.  The fold is 1.5e-10 off at mean 0.1
    LARGE_S = {
        0.1: 0.1362028740949350623536151,
        10.0: 3.324702879352758894542312,
        1e4: 13.11821861717966959271518,
    }

    @pytest.mark.parametrize("mean", LARGE_S)
    def test_quadrature_against_mpmath_at_large_s(self, mean):
        p = DoubleKappaMuShadowedParams(c=5.0, s=1e5, mu=3.0, kappa=10.0, mean_snr=mean)
        assert capacity_receiver_quadrature(p) == pytest.approx(
            self.LARGE_S[mean], rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("mean", LARGE_S)
    def test_series_at_large_s(self, mean):
        # on the contour |Gamma(s+mu+t)| <= Gamma(s-1/2), so the kernel's
        # other four gammas bound its tail: |tau|^(s+mu-2) e^(-2 pi |tau|)
        # alone would ask for 1.5 million nodes at s = 1e5
        cache = {}
        p = DoubleKappaMuShadowedParams(c=5.0, s=1e5, mu=3.0, kappa=10.0, mean_snr=mean)
        assert capacity_receiver_series(p, cache) == pytest.approx(
            self.LARGE_S[mean], rel=1e-9, abs=0.0)
        nodes = [len(t) for _, t, _, _ in cache.values()]
        assert nodes and max(nodes) <= 20_000, nodes

    def test_exponential_limit(self):
        # shadowing off, kappa -> 0, mu = 1: mean capacity of a Rayleigh
        # channel at unit mean SNR is e * E1(1) / ln 2
        p = DoubleKappaMuShadowedParams(c=1e4, s=1e4, mu=1.0, kappa=1e-12,
                                        mean_snr=1.0)
        want = math.e * float(sc.exp1(1.0)) / math.log(2.0)
        assert capacity_receiver_series(p) == pytest.approx(want, rel=1e-3)
        assert abs(capacity_receiver_series(p) - 0.8666) < 1e-2

    def test_shared_cache_keeps_every_bit(self):
        # fig5's receiver law at 10 mean SNRs: later points reuse the
        # contour's z-independent weights, and read the same values
        cache = {}
        for mean in np.logspace(-1.0, 3.5, 10):
            p = DoubleKappaMuShadowedParams(c=5.0, s=2.5, mu=2.0, kappa=1.5, mean_snr=mean)
            assert capacity_receiver_series(p, cache) == capacity_receiver_series(p)
        # at most one entry per refinement level of the one law
        assert {key[:-1] for key in cache} == {("meijer_series_fold", 2.5, 2.0, 5.0, 0.375)}
        assert len(cache) <= specfun._MAX_REFINEMENTS + 1

    def test_monotone_in_mean_snr(self):
        vals = [
            capacity_receiver_series(
                DoubleKappaMuShadowedParams(c=2.0, s=3.0, mu=1.2, kappa=0.7,
                                            mean_snr=g))
            for g in (0.5, 1.0, 2.0, 4.0, 8.0)
        ]
        assert all(b > a for a, b in zip(vals, vals[1:]))


# beta corners of the built-in sweeps: fig5 at P_S = 35 / -10 dB, and
# fig4 at its weakest jammer (P_S = 25 dB) and strongest (P_S = -10 dB)
EVE_BETA_CORNERS = ((1.26e-3, 0.4), (40.0, 0.4), (0.316, 15500.0), (1000.0, 0.1))


def _eve_grid():
    # the corners where the Fox-H contour holds 1e-9: past them (nu_I = 8
    # with a strong jammer, and nu_I = 4, beta_I = 1000, nu_J = 16) it
    # cancels down from an integrand ~1e10 times its sum
    for nu_i, nu_j in itertools.product((1, 2, 4, 8), (1, 2, 4, 8, 16)):
        for beta_i, beta_j in EVE_BETA_CORNERS:
            if (nu_i == 8 and beta_j < 1.0) or (nu_i, beta_i, nu_j) == (4, 1000.0, 16):
                continue
            yield pytest.param(nu_i, beta_i, nu_j, beta_j,
                               id=f"{nu_i}-{beta_i:g}-{nu_j}-{beta_j:g}")


def _survival_capacity(p):
    """Test-only oracle for the eavesdropper capacity: the survival-function
    identity ln2 C = int_0^inf (1 - F(t)) / (1 + t) dt, with 1 - F the
    closed-form CDF's (n, q) double sum and one quadrature per term.  It
    shares no formula with the MGF route.  Each term is integrated in
    u = ln t, split where its factors turn over: t = beta_J/beta_I, t = 1
    (log1p) and t = 1/beta_I (the exponential cut-off)."""
    base = p.nu_j * math.log(p.beta_j) - sc.gammaln(p.nu_j) - math.log(math.log(2.0))
    points = sorted({math.log(p.beta_j / p.beta_i), 0.0, -math.log(p.beta_i)})
    total = err = 0.0
    for n in range(p.nu_i):
        # below every break the integrand grows like e^{(n+1)u}; above
        # them it falls like v^n e^{-v} in v = beta_I t, and u_hi puts v
        # at 60 + 2n or more
        u_lo = points[0] - 60.0 / (n + 1)
        u_hi = points[-1] + math.log(60.0 + 2.0 * n)
        for q in range(n + 1):
            omega = q + p.nu_j
            ln_coef = (base + sc.gammaln(omega) + n * math.log(p.beta_i)
                       - sc.gammaln(q + 1) - sc.gammaln(n - q + 1))  # binom(n, q) / n!

            def integrand(u, n=n, omega=omega, ln_coef=ln_coef):
                t = math.exp(u)
                return math.exp(ln_coef + (n + 1) * u - p.beta_i * t
                                - omega * math.log(p.beta_i * t + p.beta_j) - math.log1p(t))

            v, e = scipy.integrate.quad(integrand, u_lo, u_hi, points=points,
                                        epsabs=1e-13, epsrel=1e-11, limit=400)
            total += v
            err += e
    assert err <= max(1e-9, 1e-6 * total)
    return total


def _oracle_grid():
    for nu_i, nu_j, beta_i, beta_j in itertools.product(
            (1, 2, 4, 8, 16), (1, 2, 4, 8, 16), (0.01, 1.0, 100.0), (0.01, 0.1, 1.0, 10.0)):
        yield pytest.param(nu_i, beta_i, nu_j, beta_j,
                           id=f"{nu_i}-{beta_i:g}-{nu_j}-{beta_j:g}")


def _scaled_en_mpmath(mpmath, n, a):
    """e^a E_n(a) at mpmath's working precision: its `expint` below a = 10,
    and above it the continued fraction of DLMF 8.19.17, where `expint` and
    `gammainc` go wrong (at 25 digits `expint` reads 1.4e82 at a = 499,
    n = 113)."""
    if a < 10.0:
        return mpmath.exp(a) * mpmath.expint(n, a)
    b = mpmath.mpf(a) + n
    c, d = mpmath.inf, 1 / b
    h = d
    for i in itertools.count(1):
        an = -i * (n - 1 + i)
        b += 2
        d = 1 / (an * d + b)
        c = b + an / c
        h *= c * d
        if abs(c * d - 1) <= 4 * mpmath.eps:
            return h


class TestEveCapacity:
    def test_unit_case_closed_value(self):
        # nu_i = nu_j = 1, beta_i = beta_j = 1:
        # C = e (1/e - E1(1)) / ln 2
        p = EveLinkParams(nu_i=1, beta_i=1.0, nu_j=1, beta_j=1.0)
        want = math.e * (math.exp(-1.0) - float(sc.exp1(1.0))) / math.log(2.0)
        assert capacity_eve_series(p) == pytest.approx(want, rel=1e-14)
        assert capacity_eve_foxh(p) == pytest.approx(want, rel=1e-9)
        assert capacity_eve_quadrature(p) == pytest.approx(want, rel=1e-9)

    def test_foxh_matches_quadrature(self):
        for p in (
            EveLinkParams(nu_i=2, beta_i=0.6, nu_j=3, beta_j=1.4),
            EveLinkParams(nu_i=1, beta_i=2.0, nu_j=2, beta_j=0.3),
        ):
            assert capacity_eve_foxh(p) == pytest.approx(
                capacity_eve_quadrature(p), rel=1e-6)

    @pytest.mark.parametrize("nu_i,beta_i,nu_j,beta_j", _eve_grid())
    def test_foxh_matches_quadrature_grid(self, nu_i, beta_i, nu_j, beta_j):
        # the paper's Fox-H form against both routes.  Purely relative:
        # the capacities at beta_I = 1000 are ~1e-5, where approx's default
        # 1e-12 absolute floor would hide a 1e-8 miss
        p = EveLinkParams(nu_i=nu_i, beta_i=beta_i, nu_j=nu_j, beta_j=beta_j)
        foxh = capacity_eve_foxh(p)
        assert foxh == pytest.approx(capacity_eve_quadrature(p), rel=1e-9, abs=0.0)
        assert foxh == pytest.approx(capacity_eve_series(p), rel=1e-9, abs=0.0)

    @pytest.mark.parametrize("nu_i,beta_i,nu_j,beta_j", _oracle_grid())
    def test_quadrature_matches_survival_oracle_grid(self, nu_i, beta_i, nu_j, beta_j):
        # the MGF integral and its closed-form sum against nu_I (nu_I + 1) / 2
        # survival-term integrals, the one oracle shared by both routes:
        # shapes up to 16 and rates 0.01 to 100, the strong-jamming corners
        # where the Fox-H contour loses digits included
        p = EveLinkParams(nu_i=nu_i, beta_i=beta_i, nu_j=nu_j, beta_j=beta_j)
        want = _survival_capacity(p)
        assert capacity_eve_quadrature(p) == pytest.approx(want, rel=1e-9, abs=0.0)
        assert capacity_eve_series(p) == pytest.approx(want, rel=1e-9, abs=0.0)

    # where the Fox-H contour sum is ~6e-9 off.  mpmath at 40 digits gives
    # the same 32 digits by the MGF integral, its telescoped sum over
    # j <= nu_I and the survival-function identity
    FOXH_FLOOR = (EveLinkParams(nu_i=4, beta_i=1000.0, nu_j=16, beta_j=0.1),
                  3.8198488545391894473204690138331e-05)

    def test_quadrature_against_mpmath_at_the_foxh_floor(self):
        p, want = self.FOXH_FLOOR
        assert capacity_eve_quadrature(p) == pytest.approx(want, rel=1e-13, abs=0.0)

    def test_series_against_mpmath_at_the_foxh_floor(self):
        p, want = self.FOXH_FLOOR
        assert capacity_eve_series(p) == pytest.approx(want, rel=1e-13, abs=0.0)

    # (nu_I, beta_I, nu_J, beta_J) -> capacity, from mpmath at 35 digits:
    # Hamdi's MGF integral in u = ln z, split every 20 in u and at the
    # breaks, scaled so that its absolute tolerance is relative.  nu_J = 0
    # is the jammer off; the last value underflows a double (8.2e-601)
    EXTREME_RATES = {
        (1, 1e-300, 0, 1.0): 995.7456822889318371743,
        (16, 1e-300, 0, 1.0): 1000.532874801997283442,
        (4, 1e300, 0, 1.0): 5.770780163555853326446e-300,
        (16, 1e300, 0, 1.0): 2.308312065422341330579e-299,
        (4, 1e-300, 8, 1e-300): 0.6160599278139487681428,
        (4, 1e300, 8, 1e300): 5.770780163555853326446e-300,
        (4, 1e300, 8, 2e300): 5.770780163555853326446e-300,
        (16, 1e-300, 16, 2.5e-300): 1.826202018965225586063,
        (4, 1e-300, 8, 1e300): 998.3906231972282700878,
        (4, 1e-150, 4, 1e150): 500.1014089641239179343,
        (4, 1e150, 16, 1e-150): 3.847186775703902517575e-301,
        (16, 1e300, 16, 5e299): 2.308312065422341330579e-299,
        (8, 1e-300, 2, 1e-299): 5.660175025187593134105,
        (2, 1e300, 16, 1.0): 1.795955143195263882916e-301,
        (16, 1.0, 2, 1e-300): 2.30831206542234150962e-299,
        (4, 1e300, 8, 1e-300): 0.0,
    }

    @pytest.mark.parametrize("args", EXTREME_RATES, ids=str)
    def test_series_at_extreme_rates(self, args):
        # rates 1e-300 to 1e300, both branches and the jammer off: every
        # power of a rate enters as a ratio of rates, so no log of a rate
        # of size ~700 cancels; the rest costs at most ~700 ulps
        nu_i, beta_i, nu_j, beta_j = args
        got = capacity_eve_series(EveLinkParams(nu_i, beta_i, nu_j, beta_j))
        assert got == pytest.approx(self.EXTREME_RATES[args], rel=1e-13, abs=0.0)

    SCALED_EN_RATES = (1e-300, 0.5, 9.99, 10.0, 30.0, 100.0, 499.0, 1e5, 1e300)

    @pytest.mark.parametrize("a", SCALED_EN_RATES)
    def test_scaled_en_recurrence(self, a):
        # n E_(n+1)(a) = e^(-a) - a E_n(a), i.e. n S~_(n+1) + a S~_n = 1 with
        # S~_n = e^a E_n(a): two positive terms, so the check is well
        # conditioned.  The table is built by this recurrence, so this
        # checks its rounding, an ulp or two; test_scaled_en_against_mpmath
        # checks its values
        n = np.arange(1.0, 3001.0)
        s = np.array(_scaled_en(a, 3001))
        np.testing.assert_allclose(n * s[1:] + a * s[:-1], 1.0, atol=0.0, rtol=1e-15)

    @pytest.mark.parametrize("a", SCALED_EN_RATES)
    def test_scaled_en_against_mpmath(self, a):
        # the table from one seed at n ~ a and the recurrence run away from
        # it, against S~_n(a) at 30 digits, one n at a time: every n up to
        # 40, a geometric ladder to 3001 and the seed's neighbours
        mpmath = pytest.importorskip("mpmath")
        s = _scaled_en(a, 3001)
        seed = min(max(round(a), 1), 3001)
        ns = {*range(1, 41), *np.geomspace(40, 3001, 30).round().astype(int).tolist(),
              *(n for n in (seed - 1, seed, seed + 1) if 1 <= n <= 3001)}
        with mpmath.workdps(30):
            for n in sorted(ns):
                want = float(_scaled_en_mpmath(mpmath, n, a))
                assert s[n - 1] == pytest.approx(want, rel=2e-15, abs=0.0), n

    @pytest.mark.parametrize("nu_i", (1, 4, 16))
    @pytest.mark.parametrize("nu_j", (0, 1, 8, 16))
    def test_series_matches_mgf_quadrature_grid(self, nu_i, nu_j):
        # both regimes and the switch between them (m/M = 0.29 and 0.31),
        # near-equal rates (1 +- 1e-9) and the jammer off, against the MGF
        # integral the closed form telescopes
        for beta_i in (0.01, 1.0, 40.0, 1000.0):
            for beta_j in (0.01, 10.0, *(beta_i * f for f in (1.0, 1.0 + 1e-9, 1.0 - 1e-9,
                                                                0.29, 0.31, 3.0))):
                p = EveLinkParams(nu_i, beta_i, nu_j, beta_j)
                want = capacity_eve_quadrature(p)
                got = capacity_eve_series(p)
                assert got == pytest.approx(want, rel=1e-12, abs=0.0), (beta_i, beta_j)

    def test_expansion_matches_mgf_quadrature_on_a_seeded_grid(self):
        # the all-positive expansion's own regime, m/M from 0.3 to 1, with
        # shapes up to 16 and 64, rates over six decades and either rate
        # the larger: one NB(e, rho) mixture of S~_n(M) per row
        rng = np.random.default_rng(31)
        off = []
        for _ in range(200):
            nu_i, nu_j = int(rng.integers(1, 17)), int(rng.integers(1, 65))
            big, ratio = 10.0 ** rng.uniform(-2.0, 4.0), rng.uniform(0.3, 1.0)
            rates = (big, big * ratio) if rng.random() < 0.5 else (big * ratio, big)
            p = EveLinkParams(nu_i, rates[0], nu_j, rates[1])
            got, want = capacity_eve_series(p), capacity_eve_quadrature(p)
            if not abs(got - want) <= 1e-14 * want:
                off.append((p, got, want))
        assert off == []

    @pytest.mark.parametrize("nu_i, nu_j", [(1, 1), (4, 8), (16, 16), (8, 2)])
    @pytest.mark.parametrize("ratio", (0.1, 0.29))
    def test_partial_fractions_only_within_their_condition(self, nu_i, nu_j, ratio):
        # partial fractions lose about their condition (sum of moduli over
        # the sum) in ulps against the all-positive expansion: 1e-13 at
        # ~800, but 3e-9 at shapes of 16 and m/M = 0.29, where it is 2e6.
        # The route takes them only within _PARTIAL_FRACTION_COND
        for beta_i, beta_j in ((1.0, ratio), (ratio, 1.0)):
            pf, cond = secrecy._partial_fraction_sum(nu_i, beta_i, nu_j, beta_j)
            expansion = secrecy._expansion_sum(nu_i, beta_i, nu_j, beta_j)
            assert pf == pytest.approx(expansion, rel=4e-15 * cond, abs=0.0)
            want = pf if cond <= secrecy._PARTIAL_FRACTION_COND else expansion
            got = capacity_eve_series(EveLinkParams(nu_i, beta_i, nu_j, beta_j))
            assert got == want / math.log(2.0)

    def test_monotone_in_intercept_snr(self):
        # beta_i down = stronger intercept link = higher leakage capacity
        vals = [
            capacity_eve_series(EveLinkParams(nu_i=2, beta_i=b, nu_j=2, beta_j=1.0))
            for b in (4.0, 1.0, 0.25)
        ]
        assert vals[0] < vals[1] < vals[2]

    def test_monotone_in_jamming(self):
        vals = [
            capacity_eve_series(EveLinkParams(nu_i=2, beta_i=1.0, nu_j=2, beta_j=b))
            for b in (0.1, 1.0, 10.0)
        ]
        assert vals[0] < vals[1] < vals[2]

    def test_gamma_quadrature_unit_case(self):
        # jammer-free exponential SNR at unit mean
        p = EveLinkParams(nu_i=1, beta_i=1.0, nu_j=0, beta_j=1.0)
        want = math.e * float(sc.exp1(1.0)) / math.log(2.0)
        assert capacity_eve_quadrature(p) == pytest.approx(want, rel=1e-9)

    def test_jammer_off_ignores_beta_j(self):
        # at nu_J = 0 the jammer's rate is unused: no factor, no break
        for route in (capacity_eve_quadrature, capacity_eve_series):
            want = route(EveLinkParams(nu_i=4, beta_i=0.3, nu_j=0, beta_j=1.0))
            for beta_j in (1e-6, 0.3, 5e4):
                assert route(EveLinkParams(nu_i=4, beta_i=0.3, nu_j=0, beta_j=beta_j)) == want

    @pytest.mark.parametrize("nu", (1, 4, 16, 32))
    def test_gamma_quadrature_against_expn(self, nu):
        # ln2 C = e^beta sum_{k<=nu} E_k(beta) for an integer shape
        # (Alouini & Goldsmith, IEEE TVT 48(4), 1999); the route once
        # lost the density's mass from mean 1e4 on, reading 0.0.  Where
        # e^beta overflows a double the sum is from mpmath at 30 digits
        beyond = {1600.0: 0.0099472699240182466618, 3200.0: 0.0099487997650191384638}
        for mean in np.logspace(-2.0, 8.0, 11):
            beta = nu / mean
            want = beyond[beta] if beta > 700.0 else (
                math.exp(beta) * sum(sc.expn(k, beta) for k in range(1, nu + 1)))
            p = EveLinkParams(nu_i=nu, beta_i=beta, nu_j=0, beta_j=1.0)
            got = capacity_eve_quadrature(p)
            assert got == pytest.approx(want / math.log(2.0), rel=1e-9, abs=0.0)
            got = capacity_eve_series(p)
            assert got == pytest.approx(want / math.log(2.0), rel=1e-13, abs=0.0)


# fig2's light and dense shadowing triplets (m, xi, sigma2), then two more
RICIAN_LAWS = ((19.4, 1.29, 0.158), (0.739, 8.97e-4, 0.063), (2.0, 1.0, 0.2), (5.0, 2.0, 0.5))


def _rician_capacity_from_cdf(p):
    """E[log2(1 + gamma)] = int_0^inf (1 - F(t)) / (1 + t) dt / ln 2 of the
    closed-form CDF, in u = ln t: no MGF in it.  Past u_hi the survival
    function, ~ e^(-(1-rho) t / (2 sigma2 mean_snr)), is below e^(-60)."""
    mean = p.mean_snr * (p.xi + 2.0 * p.sigma2)
    rate = (1.0 - p.los_fraction) / (2.0 * p.sigma2 * p.mean_snr)
    u_lo, u_hi = math.log(mean) - 40.0, math.log(60.0 / rate + 60.0 * mean)
    val, _ = scipy.integrate.quad(
        lambda u: (1.0 - rician_shadowed_cdf(p, math.exp(u))) / (1.0 + math.exp(-u)),
        u_lo, u_hi, points=[math.log(mean) + k for k in (-5.0, -2.0, 0.0, 2.0)],
        limit=400, epsabs=1e-14, epsrel=1e-13)
    return val / math.log(2.0)


class TestRicianReceiverCapacity:
    @pytest.mark.parametrize("m, xi, sigma2", RICIAN_LAWS)
    def test_quadrature_matches_cdf_integral(self, m, xi, sigma2):
        for mean in (1.0, 30.0, 1e3):
            p = RicianShadowedParams(m=m, xi=xi, sigma2=sigma2, mean_snr=mean)
            assert capacity_receiver_quadrature(p) == pytest.approx(
                _rician_capacity_from_cdf(p), rel=1e-12, abs=0.0), mean

    # m = 0.5, xi = 1000, sigma2 = 0.001 (1 - rho = 1e-6, where one CDF call
    # takes seconds) -> capacity at each mean_snr, from mpmath at 30 digits
    # of the MGF integral with M_X in Abdi et al.'s form,
    # (1 + a z)^(m-1) / (1 + b z)^m
    NEAR_RHO_ONE = {
        1.0: 8.2460287953446685891,
        30.0: 13.061066046433759182,
        1e3: 18.103719338877926362,
    }

    @pytest.mark.parametrize("mean", NEAR_RHO_ONE)
    def test_quadrature_against_mpmath_near_rho_one(self, mean):
        p = RicianShadowedParams(m=0.5, xi=1000.0, sigma2=0.001, mean_snr=mean)
        assert capacity_receiver_quadrature(p) == pytest.approx(
            self.NEAR_RHO_ONE[mean], rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("m, xi, sigma2", RICIAN_LAWS)
    def test_quadrature_matches_monte_carlo(self, m, xi, sigma2):
        # the plain link at two means and a blockage link (the LOS law at
        # 15 dB less), each within 5 standard errors of 200k draws
        cases = [(m, xi, sigma2, mean, None, None) for mean in (1.0, 300.0)]
        cases.append((m, xi, sigma2, 30.0, 0.6, 30.0 / db_to_linear(15.0)))
        for i, (m, xi, sigma2, mean, p_los, nlos) in enumerate(cases):
            law = RicianShadowedParams(m=m, xi=xi, sigma2=sigma2, mean_snr=mean)
            link = LinkSpec(fading=law, p_los=p_los, nlos_mean_snr=nlos)
            want = capacity_receiver_quadrature(law)
            if p_los is not None:
                want = (p_los * want + (1.0 - p_los) * capacity_receiver_quadrature(
                    RicianShadowedParams(m=m, xi=xi, sigma2=sigma2, mean_snr=nlos)))
            est = estimate_capacity(simulate_receiver_snr(link, 200_000, SamplerSeed(7100 + i)))
            assert abs(est.value - want) <= 5.0 * est.std_error, (mean, p_los)


class TestSecrecyCapacity:
    def test_values(self):
        assert secrecy_capacity(5.0, 1.0) == 4.0
        assert secrecy_capacity(1.0, 5.0) == 0.0
        assert secrecy_capacity(2.0, 2.0) == 0.0

    def test_lipschitz(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            cr = rng.uniform(1.0, 10.0)
            ce = rng.uniform(0.0, 10.0)
            d = rng.uniform(-0.5, 0.5)
            a = secrecy_capacity(cr, ce)
            b = secrecy_capacity(cr + d, ce)
            assert abs(b - a) <= abs(d) + 1e-15

    def test_validation(self):
        with pytest.raises(ParameterError):
            secrecy_capacity(math.inf, 1.0)
        with pytest.raises(ParameterError):
            secrecy_capacity(-1.0, 1.0)


def _dksm_laws():
    for c, s, mu, kappa, mean in itertools.product(
            (0.5, 5.0), (1.01, 1e5), (0.1, 3.0), (0.0, 1.5, 10.0), (0.1, 1e4)):
        yield DoubleKappaMuShadowedParams(c=c, s=s, mu=mu, kappa=kappa, mean_snr=mean)
    # the lower limits floor at u = -700
    yield DoubleKappaMuShadowedParams(c=2.0, s=2.5, mu=0.05, kappa=1.0, mean_snr=5.0)


def _gamma_laws():
    for nu, beta in itertools.product((1, 2, 8, 24), (1e-8, 1e-3, 1.0, 1e3, 1e8)):
        yield GammaSnrParams(nu=nu, beta=beta)


def _quadrature_routes():
    for p in _dksm_laws():
        yield lambda p=p: capacity_receiver_quadrature(p)
        for th in (1e-6, 1.0, 1e6):
            yield lambda p=p, th=th: dksm_cdf(p, th)
    for p in _gamma_laws():
        eve = EveLinkParams(nu_i=p.nu, beta_i=p.beta, nu_j=0, beta_j=1.0)
        yield lambda eve=eve: capacity_eve_quadrature(eve)
        for th in (1e-6, 1.0, 1e6):
            yield lambda p=p, th=th: gamma_cdf_integral(p, th)
    for q in _gamma_laws():
        for p in _gamma_laws():
            for th in (1e-3, 10.0):
                eve = EveLinkParams(nu_i=p.nu, beta_i=p.beta, nu_j=q.nu, beta_j=q.beta)
                yield lambda eve=eve, th=th: eve_sinr_cdf_integral(eve, th)
    for m, xi, sigma2 in ((0.739, 8.97e-4, 0.063), (19.4, 1.29, 0.158), (1.2, 50.0, 0.01),
                          (0.5, 1000.0, 0.001)):
        p = RicianShadowedParams(m=m, xi=xi, sigma2=sigma2, mean_snr=1.0)
        for th in (1e-3, 1.0, 60.0, 1e4):
            yield lambda p=p, th=th: rician_shadowed_cdf_integral(p, th)
        for mean in (1e-8, 1.0, 1e8):
            law = RicianShadowedParams(m=m, xi=xi, sigma2=sigma2, mean_snr=mean)
            yield lambda law=law: capacity_receiver_quadrature(law)


def test_integrands_finite_at_their_limits(monkeypatch):
    # each integrand is array code under numpy: at every route's finite
    # limits, probed in one call on a 2-D array as the integrator calls
    # it, it must return finite non-negative values of the same shape,
    # and raise no RuntimeWarning (the test configuration makes one an
    # error)
    limits = []
    monkeypatch.setattr(fading, "_gauss_kronrod",
                        lambda f, breaks, *_, **__: limits.append((f, breaks)) or (0.0, 0.0))
    routes = list(_quadrature_routes())
    for route in routes:
        route()
    assert len(limits) == len(routes)
    for f, breaks in limits:
        assert np.all(np.isfinite(breaks)) and np.all(np.diff(breaks) >= 0.0), breaks
        v = f(np.array([[breaks[0], breaks[-1]]]))
        assert v.shape == (1, 2) and np.all(np.isfinite(v)) and np.all(v >= 0.0), (breaks, v)


# one call per quadrature route, each small enough to make one quad call
_DKSM = DoubleKappaMuShadowedParams(c=1.5, s=2.5, mu=2.0, kappa=1.0, mean_snr=1.0)
_EVE = EveLinkParams(nu_i=1, beta_i=1.0, nu_j=2, beta_j=0.5)
_ROUTES = {
    "dksm_cdf": lambda: dksm_cdf(_DKSM, 1.0),
    "capacity_receiver_quadrature": lambda: capacity_receiver_quadrature(_DKSM),
    "capacity_receiver_quadrature_rician": lambda: capacity_receiver_quadrature(
        RicianShadowedParams(m=0.5, xi=1000.0, sigma2=0.001, mean_snr=1.0)),
    "eve_sinr_cdf_integral": lambda: eve_sinr_cdf_integral(_EVE, 1.0),
    "capacity_eve_quadrature": lambda: capacity_eve_quadrature(_EVE),
    # the jammer off: nu_J = 0, the capacity of a plain Gamma SNR
    "capacity_gamma_quadrature": lambda: capacity_eve_quadrature(EveLinkParams(2, 1.0, 0, 1.0)),
    "gamma_cdf_integral": lambda: gamma_cdf_integral(GammaSnrParams(2, 1.0), 1.0),
    "rician_shadowed_cdf_integral": lambda: rician_shadowed_cdf_integral(
        RicianShadowedParams(m=2.0, xi=1.0, sigma2=0.2, mean_snr=3.0), 1.0),
}


@pytest.mark.parametrize("route", _ROUTES)
@pytest.mark.parametrize("result", [
    (math.nan, 0.0), (0.5, math.nan), (math.inf, math.inf), (0.5, 1e-6)],
    ids=["nan-value", "nan-error", "inf", "error-too-large"])
def test_quad_acceptance_rule_rejects(monkeypatch, route, result):
    # a non-finite value or error estimate never passes, nor does an
    # error beyond every route's tolerance
    monkeypatch.setattr(fading, "_gauss_kronrod", lambda *a, **k: result)
    with pytest.raises(AccuracyError) as exc:
        _ROUTES[route]()
    np.testing.assert_equal((exc.value.best, exc.value.error_estimate), result)


@pytest.mark.parametrize("route", _ROUTES)
def test_quad_acceptance_rule_accepts(monkeypatch, route):
    monkeypatch.setattr(fading, "_gauss_kronrod", lambda *a, **k: (0.5, 1e-10))
    assert _ROUTES[route]() == 0.5
