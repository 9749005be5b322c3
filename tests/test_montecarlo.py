import ast
import inspect
import math
from dataclasses import replace

import numpy as np
import pytest

from jamsec import montecarlo
from jamsec.errors import ParameterError
from jamsec.fading import (
    DoubleKappaMuShadowedParams,
    GammaSnrParams,
    RicianShadowedParams,
    SamplerSeed,
)
from jamsec.montecarlo import (
    LinkSpec,
    estimate_capacity,
    estimate_outage,
    simulate_eve_sinr,
    simulate_receiver_snr,
)
from jamsec.secrecy import EveLinkParams, eve_sinr_cdf
from ks_reference import dksm_cdf_at_sorted

DKSM = DoubleKappaMuShadowedParams(c=2.0, s=2.5, mu=1.5, kappa=1.0, mean_snr=2.0)


def _rx(link, trials, seed=101, cache=None):
    return simulate_receiver_snr(link, trials, SamplerSeed(seed=seed), cache)


def _eve(intercept, jammer, trials, seed=101, cache=None):
    return simulate_eve_sinr(intercept, jammer, trials, SamplerSeed(seed=seed), cache)


def test_imports_no_analytic_module():
    # the oracle draws every antenna itself; leaning on the analytic side
    # would let it agree with an aggregation it is meant to check
    names = set()
    for node in ast.walk(ast.parse(inspect.getsource(montecarlo))):
        if isinstance(node, ast.ImportFrom):
            names.update((node.module or "").split("."))
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                names.update(alias.name.split("."))
    assert names.isdisjoint({"secrecy", "specfun", "scenario"})


class TestConfigTypes:
    def test_link_spec_validation(self):
        LinkSpec(fading=DKSM)
        LinkSpec(fading=DKSM, antennas=4, p_los=0.5, nlos_mean_snr=0.2)
        gamma = GammaSnrParams(nu=2, beta=1.0)
        for fading, p_los, nlos_mean_snr in (
                (DKSM, 0.5, None), (DKSM, None, 0.2),  # a missing partner
                (DKSM, 1.5, 0.2),
                (DKSM, 0.5, 0.0), (DKSM, 0.5, -1.0), (DKSM, 0.5, math.nan),
                (gamma, 0.5, 0.2)):  # a law with no mean_snr to move
            with pytest.raises(ParameterError):
                LinkSpec(fading=fading, p_los=p_los, nlos_mean_snr=nlos_mean_snr)
        with pytest.raises(ParameterError):
            LinkSpec(fading="rayleigh")
        for antennas in (0, 1.5):
            with pytest.raises(ParameterError):
                LinkSpec(fading=DKSM, antennas=antennas)

    def test_trials_and_seed_validation(self):
        link = LinkSpec(fading=DKSM)
        with pytest.raises(ParameterError):
            _rx(link, 0)
        with pytest.raises(ParameterError):
            simulate_receiver_snr(link, 10, 42)
        with pytest.raises(ParameterError):
            _eve(LinkSpec(fading=GammaSnrParams(nu=1, beta=1.0)), None, 0)


class TestReceiverSim:
    def test_deterministic_replay(self):
        link = LinkSpec(fading=DKSM)
        np.testing.assert_array_equal(_rx(link, 50_000), _rx(link, 50_000))

    def test_distribution_matches_cdf(self):
        draws = np.sort(_rx(LinkSpec(fading=DKSM), 200_000))
        theory = dksm_cdf_at_sorted(DKSM, draws)
        emp = np.arange(1, draws.size + 1) / draws.size
        assert np.max(np.abs(emp - theory)) < 0.005

    def test_antenna_sum_doubles_mean(self):
        s1 = _rx(LinkSpec(fading=DKSM, antennas=1), 200_000)
        s2 = _rx(LinkSpec(fading=DKSM, antennas=2), 200_000)
        se = s2.std(ddof=1) / math.sqrt(s2.size)
        assert abs(s2.mean() - 2.0 * s1.mean()) < 3.0 * se + 3.0 * s1.std(
            ddof=1) / math.sqrt(s1.size)

    def test_blockage_mixture_mean(self):
        strong = DoubleKappaMuShadowedParams(c=2.0, s=2.5, mu=1.5, kappa=1.0,
                                             mean_snr=4.0)
        draws = _rx(LinkSpec(fading=strong, p_los=0.25, nlos_mean_snr=1.0), 300_000)
        want = 0.25 * 4.0 + 0.75 * 1.0
        se = draws.std(ddof=1) / math.sqrt(draws.size)
        assert abs(draws.mean() - want) < 4.0 * se

    def test_missing_link_rejected(self):
        with pytest.raises(ParameterError):
            _rx(None, 10)
        with pytest.raises(ParameterError):
            _eve(None, None, 10)


class TestEveSim:
    def test_sinr_empirical_cdf(self):
        p = GammaSnrParams(nu=2, beta=1.0)
        j = GammaSnrParams(nu=2, beta=0.5)
        draws = _eve(LinkSpec(fading=p), LinkSpec(fading=j), 1_000_000)
        # closed form takes the aggregated (single-antenna here) shapes
        agg = EveLinkParams(nu_i=2, beta_i=1.0, nu_j=2, beta_j=0.5)
        grid = np.quantile(draws, np.linspace(0.05, 0.95, 19))
        emp = np.searchsorted(np.sort(draws), grid, side="right") / draws.size
        theory = eve_sinr_cdf(agg, grid)
        assert np.max(np.abs(emp - theory)) < 0.005

    def test_jamming_reduces_sinr(self):
        intercept = LinkSpec(fading=GammaSnrParams(nu=2, beta=1.0))
        jammer = LinkSpec(fading=GammaSnrParams(nu=2, beta=0.5))
        off = _eve(intercept, None, 100_000)
        on = _eve(intercept, jammer, 100_000)
        assert on.mean() < off.mean()

    def test_stream_independence_from_receiver(self):
        # receiver and eve links must draw from unrelated child streams
        r = _rx(LinkSpec(fading=DKSM), 100_000)
        e = _eve(LinkSpec(fading=GammaSnrParams(nu=1, beta=1.0)), None, 100_000)
        corr = np.corrcoef(r, e)[0, 1]
        assert abs(corr) < 4.0 / math.sqrt(r.size)

    def test_shard_boundary_stability(self):
        # the first SHARD_SIZE draws must not depend on the total count
        link = LinkSpec(fading=GammaSnrParams(nu=1, beta=1.0))
        a = _eve(link, None, 1000)
        b = _eve(link, None, 2500)
        # different trial counts share no prefix guarantee within a shard
        # (one generator fills the shard in a single call), but identical
        # configs replay bit-identically
        np.testing.assert_array_equal(a, _eve(link, None, 1000))
        np.testing.assert_array_equal(b, _eve(link, None, 2500))


class TestLinkCache:
    """A caller-owned cache keeps each link's unit-law antenna sum, which
    every call scales to its own mean; the bits never depend on it."""

    TRIALS = 20_000
    LOS = RicianShadowedParams(m=2.0, xi=1.0, sigma2=0.2, mean_snr=3.0)
    RX = LinkSpec(fading=LOS, antennas=2, p_los=0.3, nlos_mean_snr=0.1)
    INTERCEPT = LinkSpec(fading=GammaSnrParams(nu=2, beta=0.5), antennas=2)
    JAMMER = LinkSpec(fading=GammaSnrParams(nu=1, beta=2.0), antennas=3)

    def test_same_bits_with_and_without_cache(self):
        cache = {}
        for _ in range(2):  # a miss, then a hit
            np.testing.assert_array_equal(_rx(self.RX, self.TRIALS, cache=cache),
                                          _rx(self.RX, self.TRIALS))
            np.testing.assert_array_equal(
                _eve(self.INTERCEPT, self.JAMMER, self.TRIALS, cache=cache),
                _eve(self.INTERCEPT, self.JAMMER, self.TRIALS))
        # LOS and NLOS share the law's unit sum: receiver, its LOS count,
        # intercept, jammer, and the unit SINR of the intercept and jammer
        assert len(cache) == 5

    def test_blockage_coin_is_drawn_once_per_run(self, monkeypatch):
        coins = []  # the coin streams' generators: (role, shard)
        real = SamplerSeed.generator
        monkeypatch.setattr(SamplerSeed, "generator",
                            lambda s: (len(s.lineage) == 2 and coins.append(s)) or real(s))
        cache = {}
        denser = replace(self.RX, p_los=0.8)
        for link in (self.RX, denser, self.RX, denser):
            got = _rx(link, self.TRIALS, cache=cache)
            n = len(coins)
            np.testing.assert_array_equal(got, _rx(link, self.TRIALS))
            del coins[n:]  # the uncached call's own count
        # one count per p_los: the receiver's unit sum and its two LOS counts
        assert len(coins) == 2
        assert len(cache) == 3

    def test_second_mean_adds_no_entry(self):
        cache = {}
        a = _rx(LinkSpec(fading=DKSM), 10_000, cache=cache)
        b = _rx(LinkSpec(fading=replace(DKSM, mean_snr=5.0)), 10_000, cache=cache)
        assert len(cache) == 1
        (unit,) = cache.values()
        np.testing.assert_array_equal(a, unit * DKSM.mean_snr)
        np.testing.assert_array_equal(b, unit * 5.0)

    def test_new_law_seed_or_antenna_count_draws_again(self):
        cache = {}
        base = _rx(self.RX, self.TRIALS, cache=cache)
        other_law = replace(self.RX, fading=replace(self.LOS, m=0.7))
        one_antenna = replace(self.RX, antennas=1)
        for link, seed in ((other_law, 101), (self.RX, 102), (one_antenna, 102)):
            got = _rx(link, self.TRIALS, seed, cache)
            np.testing.assert_array_equal(got, _rx(link, self.TRIALS, seed))
            assert not np.array_equal(got, base)
        # sums: base, other law, other seed, one antenna; coins: the two
        # seeds
        assert len(cache) == 6

    @pytest.mark.parametrize("order, jammer_draws",
                             [((1, 2, 4, 8), 8), ((8, 4, 2, 1), 15), ((2, 8, 1, 4), 11)])
    def test_antenna_sums_continue_smaller_ones(self, order, jammer_draws, monkeypatch):
        # three shards, so each continued sum spans shard boundaries
        monkeypatch.setattr(montecarlo, "SHARD_SIZE", 700)
        links = [replace(self.JAMMER, antennas=k) for k in order]
        cold = [_eve(self.INTERCEPT, link, 2000) for link in links]
        draws = []
        real_draw = montecarlo._draw
        monkeypatch.setattr(montecarlo, "_draw", lambda *a: draws.append(a) or real_draw(*a))
        cache = {}
        for link, want in zip(links, cold):
            np.testing.assert_array_equal(_eve(self.INTERCEPT, link, 2000, cache=cache), want)
        # per shard: the intercept's 2 antennas, then each K continued
        # from the most antennas below it already cached
        assert len(draws) == 3 * (2 + jammer_draws)


class TestDraws:
    """The oracle's draws at numpy's cheapest exact fill: the Gamma antenna
    draws, the blockage split by count and the cached unit SINR."""

    @pytest.mark.parametrize("nu", (1, 2, 5))
    def test_gamma_draws_are_the_generator_gamma(self, nu):
        seed = SamplerSeed(3, (1, 0, 0))
        np.testing.assert_array_equal(
            montecarlo._draw(GammaSnrParams(nu=nu, beta=1.0), seed, 100_001),
            seed.generator().gamma(nu, 1.0, 100_001))

    @pytest.mark.parametrize("p_los", (0.0, 0.4, 0.99, 1.0))
    def test_los_count_is_the_coin_count(self, p_los, monkeypatch):
        # three shards of uneven chunks: the count streams the uniforms the
        # coin array held, one shard's stream at a time
        monkeypatch.setattr(montecarlo, "SHARD_SIZE", 7000)
        monkeypatch.setattr(montecarlo, "_COIN_CHUNK", 3000)
        trials, seed = 20_000, SamplerSeed(101)
        coin = np.concatenate([seed.child(0, k).generator().random(n)
                               for k, n in enumerate((7000, 7000, 6000))])
        assert montecarlo._los_count(0, p_los, trials, seed, {}) == \
            np.count_nonzero(coin < p_los)

    def test_los_count_grows_with_p_los(self):
        cache = {}
        counts = [montecarlo._los_count(0, p, 50_000, SamplerSeed(7), cache)
                  for p in np.linspace(0.0, 1.0, 21)]
        assert counts == sorted(counts)
        assert (counts[0], counts[-1]) == (0, 50_000)
        assert len(cache) == 21

    INTERCEPT = LinkSpec(fading=GammaSnrParams(nu=2, beta=0.5), antennas=2)
    JAMMERS = (LinkSpec(fading=GammaSnrParams(nu=1, beta=2.0), antennas=3),
               LinkSpec(fading=GammaSnrParams(nu=1, beta=0.1), antennas=1))

    def test_unit_sinr_same_bits_and_one_entry(self):
        cache = {}
        for sums, jammer in zip((2, 3, 3), (*self.JAMMERS, self.JAMMERS[0])):
            for intercept in (self.INTERCEPT,
                              replace(self.INTERCEPT, fading=GammaSnrParams(nu=2, beta=4.0))):
                np.testing.assert_array_equal(
                    _eve(intercept, jammer, 20_000, cache=cache),
                    _eve(intercept, jammer, 20_000))
            assert sum(k == "unit sinr" for k in cache) == 1
            held_key, held = cache["unit sinr"]
            assert held_key[2] == jammer
            # beside it only unit sums: the intercept's and each jammer's
            assert sum(isinstance(v, np.ndarray) for v in cache.values()) == sums

    def test_unit_sinr_scaled_is_the_sinr_to_an_ulp(self):
        trials, seed = 20_000, SamplerSeed(101)
        for jammer in self.JAMMERS:
            direct = montecarlo._link_samples(self.INTERCEPT, 1, trials, seed, None)
            direct /= montecarlo._link_samples(jammer, 2, trials, seed, None) + 1.0
            np.testing.assert_array_max_ulp(_eve(self.INTERCEPT, jammer, trials), direct, 1)


class TestEstimators:
    def test_outage_all_above(self):
        e = estimate_outage(np.array([2.0, 3.0, 4.0]), 1.0)
        assert e.value == 0.0
        assert e.std_error == 0.0
        assert e.trials == 3

    def test_outage_half(self):
        e = estimate_outage(np.array([0.5, 2.0]), 1.0)
        assert e.value == 0.5

    @pytest.mark.parametrize("n", (1, 2, 7, 1000, 200_001))
    def test_outage_is_the_indicator_mean(self, n):
        samples = np.random.default_rng(n).exponential(size=n)
        ind = (samples < 0.7).astype(float)
        e = estimate_outage(samples, 0.7)
        assert e.value == float(np.mean(ind))  # to the bit
        want = math.sqrt(np.var(ind, ddof=1) / n) if n > 1 else 0.0
        assert e.std_error == pytest.approx(want, rel=1e-12, abs=0.0)

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


class TestExactCounts:
    """Receiver outage counts the trials below a threshold in the run's
    sorted unit-law sums; the count is that of the sample array, to the
    bit, whatever the ties or the scale."""

    @pytest.mark.parametrize("scale", np.logspace(-300, 300, 13))
    def test_bisection_count_is_the_array_count(self, scale):
        rng = np.random.default_rng(7)
        # few distinct values, so long runs of ties
        v = np.sort(np.round(rng.exponential(size=4000), 1))
        prods = v * scale
        picks = prods[rng.integers(0, v.size, 40)]
        for th in np.concatenate([picks, np.nextafter(picks, 0.0),
                                  np.nextafter(picks, np.inf), [prods[0], prods[-1]]]):
            want = np.count_nonzero(prods < th)
            assert montecarlo._count_below(v, scale, th) == want, th

    def test_bisection_count_at_the_ends(self):
        v = np.array([1.0, 1.0, 2.0])
        assert montecarlo._count_below(v, 1.0, 1.0) == 0
        assert montecarlo._count_below(v, 1.0, np.nextafter(1.0, 2.0)) == 2
        assert montecarlo._count_below(v, 1.0, np.inf) == 3
        assert montecarlo._count_below(v[:0], 1.0, 1.0) == 0

    TRIALS = 30_000
    LOS = RicianShadowedParams(m=2.0, xi=1.0, sigma2=0.2, mean_snr=3.0)
    # the NLOS part at its own scale, and at the LOS scale, where equal
    # products fall in both parts
    NLOS_MEANS = (0.1, LOS.mean_snr)

    @staticmethod
    def _thresholds(samples):
        # thresholds at sample values hit the ties of `samples < th`
        picks = np.quantile(samples, [0.01, 0.3, 0.9])
        exact = samples[:3]
        return [*picks, *exact, *np.nextafter(exact, 0.0), *np.nextafter(exact, np.inf)]

    @pytest.mark.parametrize("p_los", (0.0, 0.4, 1.0))
    @pytest.mark.parametrize("nlos", range(2))
    def test_receiver_outage_is_the_sample_estimate(self, p_los, nlos):
        link = LinkSpec(fading=self.LOS, antennas=2, p_los=p_los,
                        nlos_mean_snr=self.NLOS_MEANS[nlos])
        cache = {}
        samples = _rx(link, self.TRIALS)
        for th in self._thresholds(samples):
            want = estimate_outage(samples, th)
            got = montecarlo.receiver_outage(link, th, self.TRIALS,
                                             SamplerSeed(101), cache)
            assert got == want, th
            assert montecarlo.receiver_outage(link, th, self.TRIALS,
                                              SamplerSeed(101)) == want

    def test_plain_link_outage(self):
        cache = {}
        for link in (LinkSpec(fading=DKSM), LinkSpec(fading=DKSM, antennas=3),
                     LinkSpec(fading=GammaSnrParams(nu=2, beta=0.25), antennas=4)):
            samples = _rx(link, self.TRIALS)
            for th in self._thresholds(samples):
                assert montecarlo.receiver_outage(
                    link, th, self.TRIALS, SamplerSeed(101), cache) == estimate_outage(samples, th)

    def test_sorted_copies_once_per_link_and_p_los(self):
        cache = {}
        link = LinkSpec(fading=self.LOS, p_los=0.4, nlos_mean_snr=self.NLOS_MEANS[0])
        for p_los in (0.4, 0.4, 0.9):
            montecarlo.receiver_outage(replace(link, p_los=p_los), 1.0,
                                       self.TRIALS, SamplerSeed(101), cache)
        sorted_keys = [k for k in cache if k[0] == "sorted"]
        assert len(sorted_keys) == 2
        # the LOS and NLOS parts of one p_los hold each trial once
        assert sum(part.size for part in cache[sorted_keys[0]]) == self.TRIALS

    def test_outage_routes_validate(self):
        link = LinkSpec(fading=DKSM)
        with pytest.raises(ParameterError):
            montecarlo.receiver_outage(link, 0.0, 10, SamplerSeed(1))
        with pytest.raises(ParameterError):
            montecarlo.receiver_outage(link, 1.0, 0, SamplerSeed(1))
        with pytest.raises(ParameterError):
            montecarlo.receiver_outage(None, 1.0, 10, SamplerSeed(1))


class TestCapacityEstimator:
    """estimate_capacity works in place on one array, with np.mean and
    np.var(ddof=1) values to the bit."""

    @pytest.mark.parametrize("n", (1, 2, 100_000))
    def test_same_bits_as_mean_and_var(self, n):
        samples = np.random.default_rng(n).exponential(3.0, size=n)
        kept = samples.copy()
        vals = np.log2(1.0 + samples)
        want_se = math.sqrt(float(np.var(vals, ddof=1)) / n) if n > 1 else 0.0
        e = estimate_capacity(samples)
        assert (e.value, e.std_error, e.trials) == (float(np.mean(vals)), want_se, n)
        np.testing.assert_array_equal(samples, kept)  # the input is not touched

    def test_any_shape(self):
        samples = np.random.default_rng(5).exponential(3.0, size=(40, 25))
        assert estimate_capacity(samples) == estimate_capacity(samples.ravel())
        assert estimate_capacity(samples.T) == estimate_capacity(samples.T.ravel())
        assert estimate_capacity(np.float64(3.0)) == estimate_capacity([3.0])
        assert estimate_capacity(np.float64(3.0)).value == 2.0
