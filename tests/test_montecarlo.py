import math
from dataclasses import replace

import numpy as np
import pytest

from jamsec.errors import ParameterError
from jamsec.fading import (
    DoubleKappaMuShadowedParams,
    GammaSnrParams,
    RicianShadowedParams,
    SamplerSeed,
    dksm_cdf_at_sorted,
)
from jamsec.montecarlo import (
    Estimate,
    LinkSpec,
    SimConfig,
    estimate_capacity,
    estimate_outage,
    simulate_eve_sinr,
    simulate_receiver_snr,
)
from jamsec.secrecy import EveLinkParams, NetworkGeometry, eve_sinr_cdf

DKSM = DoubleKappaMuShadowedParams(c=2.0, s=2.5, mu=1.5, kappa=1.0, mean_snr=2.0)


def _geometry(n=1, k=2, p_j=1.0):
    return NetworkGeometry(
        n_bs_antennas=n, n_jammer_antennas=k,
        r_sr=1.0, r_se=1.0, r_je=1.0, delta=0.0,
        p_s=1.0, p_j=p_j, noise_var_r=1.0, noise_var_e=1.0,
    )


def _cfg(trials, seed=101, **links):
    return SimConfig(trials=trials, seed=SamplerSeed(seed=seed),
                     geometry=links.pop("geometry", _geometry()), **links)


class TestConfigTypes:
    def test_link_spec_validation(self):
        LinkSpec(fading=DKSM)
        LinkSpec(fading=DKSM, p_los=0.5, fading_nlos=DKSM)
        with pytest.raises(ParameterError):
            LinkSpec(fading=DKSM, p_los=0.5)
        with pytest.raises(ParameterError):
            LinkSpec(fading=DKSM, p_los=1.5, fading_nlos=DKSM)
        with pytest.raises(ParameterError):
            LinkSpec(fading="rayleigh")

    def test_sim_config_validation(self):
        with pytest.raises(ParameterError):
            _cfg(0, receiver_link=LinkSpec(fading=DKSM))
        with pytest.raises(ParameterError):
            SimConfig(trials=10, seed=42, geometry=_geometry())

    def test_estimate_half_width(self):
        e = Estimate(value=0.5, std_error=0.01, trials=100)
        assert e.half_width == pytest.approx(1.96 * 0.01)


class TestReceiverSim:
    def test_deterministic_replay(self):
        cfg = _cfg(50_000, receiver_link=LinkSpec(fading=DKSM))
        a = simulate_receiver_snr(cfg)
        b = simulate_receiver_snr(cfg)
        np.testing.assert_array_equal(a, b)

    def test_distribution_matches_cdf(self):
        cfg = _cfg(200_000, receiver_link=LinkSpec(fading=DKSM))
        draws = np.sort(simulate_receiver_snr(cfg))
        theory = dksm_cdf_at_sorted(DKSM, draws)
        emp = np.arange(1, draws.size + 1) / draws.size
        assert np.max(np.abs(emp - theory)) < 0.005

    def test_antenna_sum_doubles_mean(self):
        one = _cfg(200_000, geometry=_geometry(n=1),
                   receiver_link=LinkSpec(fading=DKSM))
        two = _cfg(200_000, geometry=_geometry(n=2),
                   receiver_link=LinkSpec(fading=DKSM))
        s1 = simulate_receiver_snr(one)
        s2 = simulate_receiver_snr(two)
        se = s2.std(ddof=1) / math.sqrt(s2.size)
        assert abs(s2.mean() - 2.0 * s1.mean()) < 3.0 * se + 3.0 * s1.std(
            ddof=1) / math.sqrt(s1.size)

    def test_blockage_mixture_mean(self):
        strong = DoubleKappaMuShadowedParams(c=2.0, s=2.5, mu=1.5, kappa=1.0,
                                             mean_snr=4.0)
        weak = DoubleKappaMuShadowedParams(c=2.0, s=2.5, mu=1.5, kappa=1.0,
                                           mean_snr=1.0)
        # the second NLOS law has its own shape, so its own unit-law draws
        weak_other = DoubleKappaMuShadowedParams(c=0.8, s=4.0, mu=1.0,
                                                 kappa=0.2, mean_snr=1.0)
        for nlos in (weak, weak_other):
            cfg = _cfg(300_000, receiver_link=LinkSpec(
                fading=strong, p_los=0.25, fading_nlos=nlos))
            draws = simulate_receiver_snr(cfg)
            want = 0.25 * 4.0 + 0.75 * 1.0
            se = draws.std(ddof=1) / math.sqrt(draws.size)
            assert abs(draws.mean() - want) < 4.0 * se

    def test_missing_link_rejected(self):
        with pytest.raises(ParameterError):
            simulate_receiver_snr(_cfg(10))


class TestEveSim:
    def test_sinr_empirical_cdf(self):
        p = GammaSnrParams(nu=2, beta=1.0)
        j = GammaSnrParams(nu=2, beta=0.5)
        cfg = _cfg(1_000_000, geometry=_geometry(n=1, k=1),
                   eve_intercept_link=LinkSpec(fading=p),
                   jammer_link=LinkSpec(fading=j))
        draws = simulate_eve_sinr(cfg)
        # closed form takes the aggregated (single-antenna here) shapes
        agg = EveLinkParams(nu_i=2, beta_i=1.0, nu_j=2, beta_j=0.5)
        grid = np.quantile(draws, np.linspace(0.05, 0.95, 19))
        emp = np.searchsorted(np.sort(draws), grid, side="right") / draws.size
        theory = eve_sinr_cdf(agg, grid)
        assert np.max(np.abs(emp - theory)) < 0.005

    def test_jammer_off_paths_agree(self):
        p = GammaSnrParams(nu=2, beta=1.0)
        j = GammaSnrParams(nu=1, beta=1.0)
        base = dict(eve_intercept_link=LinkSpec(fading=p))
        no_link = _cfg(10_000, geometry=_geometry(n=1, k=1), **base)
        k_zero = _cfg(10_000, geometry=_geometry(n=1, k=0),
                      jammer_link=LinkSpec(fading=j), **base)
        p_zero = _cfg(10_000, geometry=_geometry(n=1, k=1, p_j=0.0),
                      jammer_link=LinkSpec(fading=j), **base)
        a = simulate_eve_sinr(no_link)
        np.testing.assert_array_equal(a, simulate_eve_sinr(k_zero))
        np.testing.assert_array_equal(a, simulate_eve_sinr(p_zero))

    def test_jamming_reduces_sinr(self):
        p = GammaSnrParams(nu=2, beta=1.0)
        j = GammaSnrParams(nu=2, beta=0.5)
        off = _cfg(100_000, geometry=_geometry(n=1, k=0),
                   eve_intercept_link=LinkSpec(fading=p))
        on = _cfg(100_000, geometry=_geometry(n=1, k=1),
                  eve_intercept_link=LinkSpec(fading=p),
                  jammer_link=LinkSpec(fading=j))
        assert simulate_eve_sinr(on).mean() < simulate_eve_sinr(off).mean()

    def test_stream_independence_from_receiver(self):
        # receiver and eve links must draw from unrelated child streams
        cfg = _cfg(100_000, geometry=_geometry(n=1, k=0),
                   receiver_link=LinkSpec(fading=DKSM),
                   eve_intercept_link=LinkSpec(fading=GammaSnrParams(nu=1, beta=1.0)))
        r = simulate_receiver_snr(cfg)
        e = simulate_eve_sinr(cfg)
        corr = np.corrcoef(r, e)[0, 1]
        assert abs(corr) < 4.0 / math.sqrt(r.size)

    def test_shard_boundary_stability(self):
        # the first SHARD_SIZE draws must not depend on the total count
        p = GammaSnrParams(nu=1, beta=1.0)
        small = _cfg(1000, geometry=_geometry(n=1, k=0),
                     eve_intercept_link=LinkSpec(fading=p))
        big = _cfg(2500, geometry=_geometry(n=1, k=0),
                   eve_intercept_link=LinkSpec(fading=p))
        a = simulate_eve_sinr(small)
        b = simulate_eve_sinr(big)
        # different trial counts share no prefix guarantee within a shard
        # (one generator fills the shard in a single call), but identical
        # configs replay bit-identically
        np.testing.assert_array_equal(a, simulate_eve_sinr(small))
        np.testing.assert_array_equal(b, simulate_eve_sinr(big))


class TestLinkCache:
    """A caller-owned cache keeps each link's unit-law antenna sum, which
    every call scales to its own mean; the bits never depend on it."""

    LOS = RicianShadowedParams(m=2.0, xi=1.0, sigma2=0.2, mean_snr=3.0)

    def _full_cfg(self, seed=101, nlos=None):
        nlos = nlos or replace(self.LOS, mean_snr=0.1)
        return _cfg(
            20_000, seed=seed, geometry=_geometry(n=2, k=3),
            receiver_link=LinkSpec(fading=self.LOS, p_los=0.3, fading_nlos=nlos),
            eve_intercept_link=LinkSpec(fading=GammaSnrParams(nu=2, beta=0.5)),
            jammer_link=LinkSpec(fading=GammaSnrParams(nu=1, beta=2.0)),
        )

    def test_same_bits_with_and_without_cache(self):
        cfg = self._full_cfg()
        cache = {}
        for _ in range(2):  # a miss, then a hit
            np.testing.assert_array_equal(simulate_receiver_snr(cfg, cache),
                                          simulate_receiver_snr(cfg))
            np.testing.assert_array_equal(simulate_eve_sinr(cfg, cache),
                                          simulate_eve_sinr(cfg))
        # LOS and NLOS share one unit law: receiver, intercept, jammer
        assert len(cache) == 3

    def test_second_mean_adds_no_entry(self):
        cache = {}
        a = simulate_receiver_snr(_cfg(10_000, receiver_link=LinkSpec(fading=DKSM)),
                                  cache)
        b = simulate_receiver_snr(
            _cfg(10_000, receiver_link=LinkSpec(fading=replace(DKSM, mean_snr=5.0))),
            cache)
        assert len(cache) == 1
        (unit,) = cache.values()
        np.testing.assert_array_equal(a, unit * DKSM.mean_snr)
        np.testing.assert_array_equal(b, unit * 5.0)

    def test_new_law_seed_or_antenna_count_draws_again(self):
        cache = {}
        base = simulate_receiver_snr(self._full_cfg(), cache)
        other_law = self._full_cfg(nlos=replace(self.LOS, m=0.7, mean_snr=0.1))
        other_seed = self._full_cfg(seed=102)
        one_antenna = replace(other_seed, geometry=_geometry(n=1, k=3))
        for cfg in (other_law, other_seed, one_antenna):
            got = simulate_receiver_snr(cfg, cache)
            np.testing.assert_array_equal(got, simulate_receiver_snr(cfg))
            assert not np.array_equal(got, base)
        assert len(cache) == 4


class TestEstimators:
    def test_outage_all_above(self):
        e = estimate_outage(np.array([2.0, 3.0, 4.0]), 1.0)
        assert e.value == 0.0
        assert e.std_error == 0.0
        assert e.trials == 3

    def test_outage_half(self):
        e = estimate_outage(np.array([0.5, 2.0]), 1.0)
        assert e.value == 0.5

    def test_capacity_constant(self):
        e = estimate_capacity(np.ones(10))
        assert e.value == pytest.approx(1.0)
        assert e.std_error == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ParameterError):
            estimate_outage(np.array([]), 1.0)
        with pytest.raises(ParameterError):
            estimate_capacity(np.array([]))

    def test_bad_threshold(self):
        with pytest.raises(ParameterError):
            estimate_outage(np.array([1.0]), 0.0)

    def test_negative_samples_rejected(self):
        with pytest.raises(ParameterError):
            estimate_capacity(np.array([-0.5, 1.0]))
