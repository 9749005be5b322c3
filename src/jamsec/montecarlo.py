"""Simulation oracle for the analytical link metrics.

A link is a `LinkSpec`: its per-antenna fading law, its antenna count
and an optional blockage mixture.  Per trial the per-antenna SNRs of a
link are drawn one antenna at a time and summed, so the oracle checks
the analytic side's Gamma aggregation rather than assuming it:
`simulate_receiver_snr(link, trials, seed)` returns the receiver SNR
and `simulate_eve_sinr(intercept, jammer, trials, seed)` the
eavesdropper SINR gamma_I / (1 + gamma_J), with `jammer=None` for no
jamming.  Estimators are plain sample means so the oracle stays
trivially auditable.

Reproducibility contract: trials are split into fixed-size shards, and
every (link role, antenna, shard) triple owns a dedicated child stream of
the run seed; a blockage coin owns one per (link role, shard).  No stream
is keyed by a sweep cell.  Every fading law here is a scale family in its
mean (the Gamma law in 1/beta), so a link's per-antenna draws are made
once at unit scale, summed over antennas, and multiplied by each caller's
scale.  Cells of one run that share a link role, unit law and antenna
count therefore see the same noise (common random numbers): differences
between those cells carry no sampling noise of that link, and each
cell's own standard error is unchanged.  Sample arrays are bit-identical
for any worker count, with or without a cache.  Shards bound the
temporaries of one draw.

Sampler identities: each fill is exact in law and the cheapest numpy
has for it.  A Gamma antenna is `standard_exponential` at nu = 1 and
`standard_gamma(nu)` otherwise, bit-identical to `gamma(nu, 1.0)`.  A
LOS-shadowed Rician antenna is |sqrt(G) + sigma (Z1 + i Z2)|^2 with G
the Gamma LOS power (`rician_shadowed_sample`).  A blockage mixture
keeps no per-trial coin: the role's coin streams give the LOS count
n_LOS = #{u < p_los}, and trials [0, n_LOS) are LOS.  The unit draws are
exchangeable and independent of the coin, so this split has the law of
a per-trial coin.  The eavesdropper SINR of a jammer-on link is its
unit SINR V_I / (1 + gamma_J), of the intercept's unit-law sum V_I, times
the intercept's scale; that is gamma_I / (1 + gamma_J) to an ulp.

Receiver outage is an exact count, not a pass over samples
(`receiver_outage`, with or without a blockage mixture).  A trial's SNR
is fl(v * scale) for its unit-law sum v, and rounding is monotone, so
the trials below a threshold are a prefix of the sorted unit sums.
Bisecting on that same predicate finds the prefix in O(log trials), and
the count equals `np.count_nonzero(samples < th)` to the bit, ties
included.  `estimate_capacity` takes log2 and the variance in place, on
the one working array it makes.

Memory bound: a caller-owned cache holds one `trials`-length float array
per distinct (link role, unit law, antenna count) in a run, never the
per-antenna draws: 2 for fig2 (one receiver law per variant, its LOS
and NLOS branches scaling one sum), 2 for fig3 and fig4 (intercept,
jammer), and 6 for fig5 (receiver, intercept, and the jammer at
K = 1, 2, 4, 8).  A sum for K antennas continues the cached sum for the
most antennas below K, so fig5's jammer draws 8 arrays, not 15.  A
blockage link adds one LOS count per (link role, p_los), an integer.
A jammer-on eavesdropper adds one more array, its unit SINR, held for
one (intercept unit law, antenna count, jammer link) at a time and
freed before the next is formed: the variants of fig4 and fig5 each keep
one jammer across their points, so each point pays one multiply for its
SINR.
Receiver outage cells add the sorted copies they count in, made once
per run per (unit law, antenna count, p_los): a plain link's sorted
sum, or a blockage link's sum copied once and sorted in its LOS and
NLOS slices.  Of the built-in scenarios only fig2 has such cells, so
its cache holds 4 arrays (2 sums, 2 sorted copies).  The other
per-cell arrays are transient: an eavesdropper SINR (one kept for the
point's outage and capacity cells), receiver samples for a capacity
estimate, and the estimate's working array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional, Union

import numpy as np

from .errors import ParameterError
from .fading import (
    DoubleKappaMuShadowedParams,
    GammaSnrParams,
    RicianShadowedParams,
    SamplerSeed,
    dksm_sample,
    rician_shadowed_sample,
)

__all__ = [
    "SHARD_SIZE",
    "LinkSpec",
    "Estimate",
    "simulate_receiver_snr",
    "simulate_eve_sinr",
    "receiver_outage",
    "estimate_outage",
    "estimate_capacity",
]

SHARD_SIZE = 1_000_000
_COIN_CHUNK = 2**16  # blockage uniforms counted at once

FadingSpec = Union[DoubleKappaMuShadowedParams, GammaSnrParams, RicianShadowedParams]

# lineage slots for child streams
_LINK_RECEIVER = 0
_LINK_INTERCEPT = 1
_LINK_JAMMER = 2


@dataclass(frozen=True)
class LinkSpec:
    """One link: the per-antenna fading law, the number of antennas whose
    draws add up per trial, and an optional blockage mixture (p_los
    chooses `fading`, otherwise `fading` at mean `nlos_mean_snr`: the
    same shadowing with extra path loss)."""

    fading: FadingSpec
    antennas: int = 1
    p_los: Optional[float] = None
    nlos_mean_snr: Optional[float] = None

    def __post_init__(self):
        if not isinstance(
            self.fading,
            (DoubleKappaMuShadowedParams, GammaSnrParams, RicianShadowedParams),
        ):
            raise ParameterError("unsupported fading spec")
        if not (isinstance(self.antennas, (int, np.integer)) and self.antennas >= 1):
            raise ParameterError("antennas must be a positive integer")
        if (self.p_los is None) != (self.nlos_mean_snr is None):
            raise ParameterError("p_los and nlos_mean_snr must be given together")
        if self.p_los is None:
            return
        if not (0.0 <= self.p_los <= 1.0):
            raise ParameterError("p_los must lie in [0, 1]")
        if not (self.nlos_mean_snr > 0):
            raise ParameterError("nlos_mean_snr must be positive")
        if isinstance(self.fading, GammaSnrParams):
            raise ParameterError("a blockage mixture needs a law with a mean_snr")


@dataclass(frozen=True)
class Estimate:
    value: float
    std_error: float
    trials: int

    def __post_init__(self):
        if self.std_error < 0:
            raise ParameterError("std_error must be non-negative")
        if self.trials < 1:
            raise ParameterError("trials must be positive")


def _shards(trials: int):
    for k in range(0, (trials + SHARD_SIZE - 1) // SHARD_SIZE):
        lo = k * SHARD_SIZE
        yield k, lo, min(lo + SHARD_SIZE, trials)


def _unit_law(spec: FadingSpec) -> tuple[FadingSpec, float]:
    """(law at unit scale, scale): each law here is a scale family, so a
    draw of `spec` is a draw of the unit law times the scale."""
    if isinstance(spec, GammaSnrParams):
        return GammaSnrParams(nu=spec.nu, beta=1.0), 1.0 / spec.beta
    return replace(spec, mean_snr=1.0), spec.mean_snr


def _draw(unit: FadingSpec, seed: SamplerSeed, n: int) -> np.ndarray:
    if isinstance(unit, DoubleKappaMuShadowedParams):
        return dksm_sample(unit, seed, n)
    if isinstance(unit, RicianShadowedParams):
        return rician_shadowed_sample(unit, seed, n)
    # the unit law's scale is 1: gamma(nu, 1.0) to the bit, the exponential
    # (nu = 1) at half the cost
    rng = seed.generator()
    return rng.standard_exponential(n) if unit.nu == 1 else rng.standard_gamma(unit.nu, n)


def _unit_sum(unit: FadingSpec, base: SamplerSeed, role: int, n_antennas: int,
              trials: int, cache: dict) -> np.ndarray:
    """Per-trial sum of the per-antenna draws of a unit-scale law, drawn
    once per (seed, role, law, antenna count, trials) and kept in `cache`.
    Antenna a of shard k draws from stream (role, a, k) whatever the law,
    so a sum continues the cached sum of the most antennas below
    `n_antennas`, adding the remaining draws in the same order: the bits
    are those of a sum from zero, whose first draw is the sum itself."""
    key = (role, unit, n_antennas, trials, base)
    total = cache.get(key)
    if total is None:
        start = next((n for n in range(n_antennas - 1, 0, -1)
                      if (role, unit, n, trials, base) in cache), 0)
        if start:
            total = cache[(role, unit, start, trials, base)].copy()
        else:  # one shard's first draw becomes the sum; more fill an array
            total = np.empty(trials) if trials > SHARD_SIZE else None
        for k, lo, hi in _shards(trials):
            for a in range(start, n_antennas):
                draw = _draw(unit, base.child(role, a, k), hi - lo)
                if total is None:  # one shard: its first draw is the sum
                    total = draw
                elif a == 0:
                    total[lo:hi] = draw
                else:
                    total[lo:hi] += draw
        cache[key] = total
    return total


def _check_run(link: LinkSpec, trials: int, seed: SamplerSeed) -> None:
    if not isinstance(link, LinkSpec):
        raise ParameterError("link must be a LinkSpec")
    if not (isinstance(trials, (int, np.integer)) and trials >= 1):
        raise ParameterError("trials must be a positive integer")
    if not isinstance(seed, SamplerSeed):
        raise ParameterError("seed must be a SamplerSeed")


def _los_count(role: int, p_los: float, trials: int, seed: SamplerSeed,
               cache: dict) -> int:
    """#{trials whose blockage uniform is below p_los}, counted once per
    run per (link role, p_los) from the role's coin streams, a chunk at a
    time.  Trials [0, count) of a mixture are LOS: the unit draws are
    exchangeable and independent of the coin, so the split is exact in law."""
    key = ("los", role, p_los, trials, seed)
    if key not in cache:
        count = 0
        for k, lo, hi in _shards(trials):
            # the coin's key (role, k) is one index shorter than any antenna's
            rng = seed.child(role, k).generator()
            for a in range(lo, hi, _COIN_CHUNK):
                count += int(np.count_nonzero(rng.random(min(_COIN_CHUNK, hi - a)) < p_los))
        cache[key] = count
    return cache[key]


def _scaled(unit_values: np.ndarray, link: LinkSpec, role: int, trials: int,
            seed: SamplerSeed, cache: dict) -> np.ndarray:
    """Per-trial values of a link scaled to its law, a new array: the
    law's scale, or under a blockage mixture the law's scale on the LOS
    trials and `nlos_mean_snr` on the rest.  Blockage state is common to
    all antennas of a link (it blocks the path, not individual elements),
    so both scale one shared sum."""
    scale = _unit_law(link.fading)[1]
    if link.p_los is None:
        return unit_values * scale
    n = _los_count(role, link.p_los, trials, seed, cache)
    out = np.empty_like(unit_values)
    np.multiply(unit_values[:n], scale, out=out[:n])
    np.multiply(unit_values[n:], link.nlos_mean_snr, out=out[n:])
    return out


def _link_samples(link: LinkSpec, role: int, trials: int, seed: SamplerSeed,
                  cache: Optional[dict]) -> np.ndarray:
    """Per-trial link SNR, a new array: the unit-law antenna sum times the
    law's scale (`_scaled`)."""
    _check_run(link, trials, seed)
    cache = {} if cache is None else cache
    total = _unit_sum(_unit_law(link.fading)[0], seed, role, link.antennas, trials, cache)
    return _scaled(total, link, role, trials, seed, cache)


def _sorted_unit_sums(link: LinkSpec, trials: int, seed: SamplerSeed,
                      cache: dict) -> list:
    """[(sorted unit-law sums, scale), ...] of a receiver link, once per
    run: each trial's SNR is fl(v * scale) for its v in exactly one of
    them.  A plain link has its sum; a mixture has its LOS trials at the
    law's scale and its NLOS trials at `nlos_mean_snr`, two slices of one
    copy, keyed by p_los."""
    role = _LINK_RECEIVER
    unit, scale = _unit_law(link.fading)
    key = ("sorted", unit, link.antennas, link.p_los, trials, seed)
    if key not in cache:
        # counted before the copy, so the count's chunks add nothing to its peak
        n = None if link.p_los is None else _los_count(role, link.p_los, trials, seed, cache)
        v = _unit_sum(unit, seed, role, link.antennas, trials, cache).copy()
        parts = (v,) if n is None else (v[:n], v[n:])
        for part in parts:
            part.sort()
        cache[key] = parts
    return list(zip(cache[key], (scale, link.nlos_mean_snr)))


def _count_below(sorted_sums: np.ndarray, scale: float, gamma_th: float) -> int:
    """Number of v in `sorted_sums` with fl(v * scale) < gamma_th.  Those
    v form a prefix, as rounding is monotone; the bisection tests the same
    product that a sample array holds, so the count is exact on ties."""
    lo, hi = 0, sorted_sums.size
    while lo < hi:
        mid = (lo + hi) // 2
        if sorted_sums[mid] * scale < gamma_th:
            lo = mid + 1
        else:
            hi = mid
    return lo


def simulate_receiver_snr(link: LinkSpec, trials: int, seed: SamplerSeed,
                          cache: Optional[dict] = None) -> np.ndarray:
    """Per-trial receiver SNR: sum of the link's per-antenna draws.

    `cache` is an optional caller-owned dict of unit-law antenna sums;
    the result is bit-identical with or without it."""
    return _link_samples(link, _LINK_RECEIVER, trials, seed, cache)


def simulate_eve_sinr(intercept: LinkSpec, jammer: Optional[LinkSpec],
                      trials: int, seed: SamplerSeed,
                      cache: Optional[dict] = None) -> np.ndarray:
    """Per-trial eavesdropper SINR gamma_I / (1 + gamma_J).

    `jammer=None` means the jammer is off: gamma_J is identically zero
    and the SINR is the intercept SNR itself.  `cache` is as for
    `simulate_receiver_snr`; with a jammer it also holds one unit SINR
    V_I / (1 + gamma_J) of the intercept's unit-law sum V_I, replaced when
    the jammer link changes, which each call scales to its intercept.
    """
    _check_run(intercept, trials, seed)
    cache = {} if cache is None else cache
    law = _unit_law(intercept.fading)[0]
    unit = _unit_sum(law, seed, _LINK_INTERCEPT, intercept.antennas, trials, cache)
    if jammer is not None:
        key = (law, intercept.antennas, jammer, trials, seed)
        held = cache.get("unit sinr")
        if held is None or held[0] != key:
            cache.pop("unit sinr", None)  # one entry at a time: free it first
            jam = _link_samples(jammer, _LINK_JAMMER, trials, seed, cache)
            jam += 1.0
            held = cache["unit sinr"] = (key, np.divide(unit, jam, out=jam))
        unit = held[1]
    return _scaled(unit, intercept, _LINK_INTERCEPT, trials, seed, cache)


def receiver_outage(link: LinkSpec, gamma_th: float, trials: int,
                    seed: SamplerSeed, cache: Optional[dict] = None) -> Estimate:
    """`estimate_outage(simulate_receiver_snr(link, trials, seed), gamma_th)`
    to the bit, counted over the run's sorted unit-law sums.

    `cache` is as for `simulate_receiver_snr`; it also keeps the sorted
    sums, so the cells of a run sort each link once."""
    _check_run(link, trials, seed)
    _check_threshold(gamma_th)
    cache = {} if cache is None else cache
    count = sum(_count_below(v, scale, gamma_th)
                for v, scale in _sorted_unit_sums(link, trials, seed, cache))
    return _outage(count, trials)


def _check_threshold(gamma_th: float) -> None:
    if not (gamma_th > 0):
        raise ParameterError("gamma_th must be positive")


def _outage(count: int, n: int) -> Estimate:
    # k/n is the mean of the 0/1 indicator to the bit; its sample
    # variance is n p (1-p) / (n-1)
    p = count / n
    se = math.sqrt(p * (1.0 - p) / (n - 1)) if n > 1 else 0.0
    return Estimate(value=p, std_error=se, trials=n)


def estimate_outage(samples: np.ndarray, gamma_th: float) -> Estimate:
    """Outage probability P(sample < gamma_th) with its standard error."""
    samples = np.asarray(samples, dtype=float)
    if samples.size == 0:
        raise ParameterError("empty sample stream")
    _check_threshold(gamma_th)
    return _outage(np.count_nonzero(samples < gamma_th), samples.size)


def estimate_capacity(samples: np.ndarray) -> Estimate:
    """Sample mean of log2(1 + sample) with its standard error."""
    samples = np.asarray(samples, dtype=float)
    if samples.size == 0:
        raise ParameterError("empty sample stream")
    if samples.min() < 0:  # NaN passes, as it does np.any(samples < 0)
        raise ParameterError("samples must be non-negative")
    # one new 1-d working array, overwritten in place; the values are those
    # of np.mean and np.var(ddof=1) to the bit: the same pairwise sums, in
    # np.var's order of operations, with its mean reused
    vals = samples.reshape(-1) + 1.0
    n = vals.size
    np.log2(vals, out=vals)
    mean = float(np.add.reduce(vals)) / n
    if n == 1:
        return Estimate(value=mean, std_error=0.0, trials=n)
    np.subtract(vals, mean, out=vals)
    np.square(vals, out=vals)
    var = float(np.add.reduce(vals)) / (n - 1)
    return Estimate(value=mean, std_error=math.sqrt(var / n), trials=n)
