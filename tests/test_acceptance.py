"""End-to-end acceptance gate.

Every analytic route is cross-checked against an independent oracle
(quadrature or simulation) at its stated tolerance, the distribution
machinery is tested for fidelity, and the built-in sweep scenarios are
asserted to reproduce the qualitative system trends.
"""

import io
import math
import time

import numpy as np
import pytest
import scipy.stats

from jamsec.fading import (
    DoubleKappaMuShadowedParams,
    GammaSnrParams,
    SamplerSeed,
    dksm_sample,
    gamma_cdf,
)
from jamsec.montecarlo import (
    LinkSpec,
    estimate_capacity,
    simulate_eve_sinr,
)
from jamsec.scenario import emit, run_scenario
from jamsec.secrecy import (
    EveLinkParams,
    capacity_eve_quadrature,
    capacity_eve_series,
    capacity_receiver_quadrature,
    capacity_receiver_series,
    eve_sinr_cdf,
    eve_sinr_cdf_integral,
)
from jamsec.specfun import hyp2f1_complex, meijer_series_fold
from ks_reference import dksm_cdf_at_sorted, dksm_pdf_scalar


def _bisect_cdf_level(p, target, lo, hi):
    for _ in range(200):
        mid = math.sqrt(lo * hi)
        if eve_sinr_cdf(p, mid) < target:
            lo = mid
        else:
            hi = mid
    return math.sqrt(lo * hi)


def _col(table, name):
    return [r[table.columns.index(name)] for r in table.rows]


class TestEavesdropperCdfTripleAgreement:
    """Closed form, direct integral, and simulation must tell one story."""

    def test_triple_agreement(self):
        t0 = time.monotonic()
        link = EveLinkParams(nu_i=3, beta_i=0.7, nu_j=2, beta_j=1.1)

        # 50-point grid across the distribution's working range.  The grid
        # floor keeps F >= ~2e-4: far below that the closed form's final
        # 1 - S subtraction is dominated by double-precision cancellation
        # and no 1e-8 relative comparison is meaningful.
        g_lo = _bisect_cdf_level(link, 2e-4, 1e-6, 1e3)
        g_hi = _bisect_cdf_level(link, 0.999, 1e-6, 1e4)
        grid = np.geomspace(g_lo, g_hi, 50)

        worst = 0.0
        for g in grid:
            closed = eve_sinr_cdf(link, g)
            integral = eve_sinr_cdf_integral(link, g)
            assert closed >= 1e-4
            worst = max(worst, abs(closed - integral) / integral)
        assert worst <= 1e-8

        draws = np.sort(simulate_eve_sinr(
            LinkSpec(fading=GammaSnrParams(nu=3, beta=0.7)),
            LinkSpec(fading=GammaSnrParams(nu=2, beta=1.1)),
            10_000_000, SamplerSeed(seed=424242),
        ))
        emp = np.searchsorted(draws, grid, side="right") / draws.size
        for g, e in zip(grid, emp):
            f = eve_sinr_cdf(link, g)
            se = math.sqrt(f * (1.0 - f) / draws.size)
            assert abs(e - f) <= 3.0 * se
            assert abs(e - eve_sinr_cdf_integral(link, g)) <= 3.0 * se

        assert time.monotonic() - t0 < 120.0


class TestReceiverCapacityOraclePair:
    """Contour-integral series (the density's Mellin transform) vs the
    quadrature of Hamdi's MGF integral."""

    def test_ten_random_parameter_sets(self):
        t0 = time.monotonic()
        rng = np.random.default_rng(20250819)
        for _ in range(10):
            p = DoubleKappaMuShadowedParams(
                c=rng.uniform(0.5, 5.0),
                s=rng.uniform(1.5 + 1e-9, 6.0),
                mu=rng.uniform(0.5, 5.0),
                kappa=rng.uniform(0.0, 3.0),
                mean_snr=math.exp(rng.uniform(math.log(0.5), math.log(20.0))),
            )
            series = capacity_receiver_series(p)
            quad = capacity_receiver_quadrature(p)
            assert abs(series - quad) / quad <= 1e-3
        assert time.monotonic() - t0 < 120.0


class TestEavesdropperCapacityOraclePair:
    """E_n closed form vs quadrature vs simulation."""

    SETS = (
        EveLinkParams(nu_i=2, beta_i=0.6, nu_j=3, beta_j=1.4),
        EveLinkParams(nu_i=1, beta_i=2.0, nu_j=2, beta_j=0.3),
        EveLinkParams(nu_i=4, beta_i=0.8, nu_j=8, beta_j=2.0),
    )

    def test_three_parameter_sets(self):
        t0 = time.monotonic()
        for i, link in enumerate(self.SETS):
            closed = capacity_eve_series(link)
            quad = capacity_eve_quadrature(link)
            assert abs(closed - quad) / quad <= 1e-3

            est = estimate_capacity(simulate_eve_sinr(
                LinkSpec(fading=GammaSnrParams(nu=link.nu_i, beta=link.beta_i)),
                LinkSpec(fading=GammaSnrParams(nu=link.nu_j, beta=link.beta_j)),
                2_000_000, SamplerSeed(seed=31337 + i),
            ))
            assert abs(est.value - closed) <= 3.0 * est.std_error
            assert abs(est.value - quad) <= 3.0 * est.std_error
        assert time.monotonic() - t0 < 300.0


class TestDistributionFidelity:
    """Normalization of the analytic density and sampler agreement."""

    def _random_params(self, rng):
        return DoubleKappaMuShadowedParams(
            c=rng.uniform(0.5, 5.0),
            s=rng.uniform(1.55, 6.0),
            mu=rng.uniform(0.5, 5.0),
            kappa=rng.uniform(0.0, 3.0),
            mean_snr=math.exp(rng.uniform(math.log(0.3), math.log(10.0))),
        )

    def test_normalization_twenty_sets(self):
        import scipy.integrate

        rng = np.random.default_rng(1234)
        for _ in range(20):
            p = self._random_params(rng)
            knee = math.log((p.s - 1.0) * p.mean_snr / p.big_t)
            lo = knee - 60.0 / p.mu
            hi = knee + 32.0 / (p.s - 1.0) + 10.0
            pdf = dksm_pdf_scalar(p)
            total, _ = scipy.integrate.quad(
                lambda u: pdf(math.exp(u)) * math.exp(u),
                lo, hi, limit=400, epsabs=1e-13, epsrel=1e-11,
            )
            assert abs(total - 1.0) <= 1e-6

    def test_sampler_ks_five_sets(self):
        rng = np.random.default_rng(5678)
        # 1% significance critical value for the one-sample KS statistic
        for i in range(5):
            p = self._random_params(rng)
            draws = np.sort(dksm_sample(p, SamplerSeed(seed=900 + i), 100_000))
            theory = dksm_cdf_at_sorted(p, draws)
            n = draws.size
            emp_hi = np.arange(1, n + 1) / n
            emp_lo = np.arange(0, n) / n
            ks = max(np.max(np.abs(emp_hi - theory)),
                     np.max(np.abs(theory - emp_lo)))
            assert ks < 1.63 / math.sqrt(n)


class TestEnvelopeNakagamiLimit:
    """With both shadowing layers off and kappa -> 0 the envelope law
    collapses to Nakagami-m with m = mu."""

    @pytest.mark.parametrize("m", (1, 2, 3))
    def test_sup_norm(self, m):
        p = DoubleKappaMuShadowedParams(c=1e4, s=1e4, mu=float(m),
                                        kappa=1e-12, mean_snr=1.0)
        # unit-RMS envelope: x = sqrt(gamma), f_X(x) = 2 x f_gamma(x^2)
        x = np.linspace(1e-3, 4.0, 400)
        pdf = dksm_pdf_scalar(p)
        envelope = 2.0 * x * np.array([pdf(float(v**2)) for v in x])
        target = scipy.stats.nakagami.pdf(x, m)
        assert float(np.max(np.abs(envelope - target))) <= 1e-2


class TestContourEngineIdentities:
    """The two reference identities the capacity fold is assembled from:
    its 2F1 factor and its gamma-kernel contour integral."""

    Z = (0.1, 0.5, 1.0, 2.0, 10.0)

    def test_power_law_identity(self):
        # 2F1(a, -t; a; x) = (1 - x)^t on the fold's contour
        # t = -mu - 1/2 + i tau, x on both sides of the 1/2 branch point
        tau = np.array([0.1, 1.0, 5.0, 20.0])
        for a in (0.7, 1.0, 2.5, 4.0):
            t = -a - 0.5 + 1j * tau
            for x in (0.3, 0.7, 0.95):
                val = hyp2f1_complex(a, -t, a, x)
                want = (1.0 - x) ** t
                assert np.max(np.abs(val - want) / np.abs(want)) <= 1e-12

    def test_log_identity(self):
        # s = 2, mu = 1, x = 0: the kernel integral is
        # phi^3 (ln phi / (phi-1)^2 - 1 / (phi (phi-1))) with phi = 1/z
        for z in self.Z:
            val, _ = meijer_series_fold(2.0, 1.0, 1.0, 0.0, z)
            phi = 1.0 / z
            want = 0.5 if z == 1.0 else phi**3 * (
                math.log(phi) / (phi - 1.0) ** 2 - 1.0 / (phi * (phi - 1.0)))
            assert abs(val - want) / want <= 1e-12


class TestSystemTrends:
    """Qualitative behavior over the built-in sweep scenarios."""

    def test_shadowing_dominates_blockage(self):
        table = run_scenario("fig2", methods=["closed-form"])
        i20 = [r[0] for r in table.rows].index(20.0)
        light = _col(table, "light/outage_r@10dB#closed-form")[i20]
        dense = _col(table, "dense/outage_r@10dB#closed-form")[i20]
        assert dense / light >= 10.0
        # narrated scale: light around the few-percent mark, dense the
        # better part of one
        assert 0.005 < light < 0.08
        assert dense > 0.5

    def test_eavesdropper_outage_floor(self):
        table = run_scenario("fig3", methods=["closed-form"])
        for z in ("-8dB", "-2dB"):
            col = _col(table, f"outage_e@{z}#closed-form")
            assert all(b <= a + 1e-12 for a, b in zip(col, col[1:]))
            # jammer pushed far away: outage settles onto the jammer-free
            # floor instead of decaying further
            drop = (col[-2] - col[-1]) / col[-1]
            assert drop < 0.01

        # the floor equals the jamming-free outage, computed from the
        # scenario file's own geometry
        from jamsec.scenario import Scenario, _resolve_path, load_config
        sc = Scenario.from_config(load_config(_resolve_path("fig3")))
        geo = sc.geometry
        snr_i = (10 ** (geo["p_s_db"] / 10)) * geo["r_se_m"] ** (
            -geo["delta"]) / geo["noise_var_e"]
        link = GammaSnrParams(nu=int(sc.eve["m_i"]) * int(geo["n_bs_antennas"]),
                              beta=sc.eve["m_i"] / snr_i)
        floor = gamma_cdf(link, 10 ** (-8 / 10))
        last = _col(table, "outage_e@-8dB#closed-form")[-1]
        assert last >= floor - 1e-12
        assert last <= floor * 1.01

    def test_jamming_power_suppresses_leakage(self):
        table = run_scenario("fig4", methods=["closed-form"])
        for rje in ("10m", "70m"):
            weak = _col(table, f"pj-5db-rje{rje}/c_e#closed-form")
            mid = _col(table, f"pj15db-rje{rje}/c_e#closed-form")
            strong = _col(table, f"pj30db-rje{rje}/c_e#closed-form")
            for w, m, s in zip(weak, mid, strong):
                assert s <= m + 1e-9
                assert m <= w + 1e-9

    def test_secrecy_gain_with_jammer_antennas(self):
        table = run_scenario("fig5", methods=["quadrature"])
        cols = {k: _col(table, f"k{k}/c_s#quadrature") for k in (0, 1, 2, 4, 8)}
        n_rows = len(table.rows)
        for i in range(n_rows):
            seq = [cols[k][i] for k in (0, 1, 2, 4, 8)]
            assert all(b >= a - 1e-9 for a, b in zip(seq, seq[1:]))
        # more jammer antennas must actually matter at the top injection
        # power, not merely not-hurt
        assert cols[4][-1] > cols[0][-1] + 0.1

    def test_k0_closed_form_matches_quadrature(self):
        # with the jammer off the closed form is the E_n sum of the plain
        # Gamma SNR; c_s follows from it and the receiver closed form
        kw = dict(grid=[-10.0, 10.0, 35.0])
        closed = run_scenario("fig5", methods=["closed-form"], **kw)
        quad = run_scenario("fig5", methods=["quadrature"], **kw)
        for metric in ("c_e", "c_s"):
            got = _col(closed, f"k0/{metric}#closed-form")
            want = _col(quad, f"k0/{metric}#quadrature")
            assert got == pytest.approx(want, rel=1e-9, abs=0.0)


class TestDeterminism:
    """Same seed, same bytes."""

    def test_sweep_rerun_byte_identical(self):
        blobs = []
        for _ in range(2):
            table = run_scenario("fig3", trials=20_000)
            buf = io.StringIO()
            emit(table, format="csv", destination=buf)
            blobs.append(buf.getvalue().encode())
        assert blobs[0] == blobs[1]
