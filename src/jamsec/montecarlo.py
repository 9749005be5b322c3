"""Simulation oracle for the analytical link metrics.

Per trial the per-antenna SNRs are drawn from the configured fading law,
summed across antennas, and combined into receiver SNR or eavesdropper
SINR exactly as the analytic link model defines them.  Estimators are
plain sample means so the oracle stays trivially auditable.

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
for any worker count, with or without a cache, and a worker pool can
fill shards in any order.

Memory bound: a caller-owned cache holds one `trials`-length float array
per distinct (link role, unit law, antenna count) in a run, never the
per-antenna draws: 2 for fig2 (one receiver law per variant; LOS and
NLOS share it), 2 for fig3 and fig4 (intercept, jammer), and 6 for fig5
(receiver, intercept, and the jammer at K = 1, 2, 4, 8).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
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
from .secrecy import NetworkGeometry

__all__ = [
    "SHARD_SIZE",
    "LinkSpec",
    "SimConfig",
    "Estimate",
    "simulate_receiver_snr",
    "simulate_eve_sinr",
    "estimate_outage",
    "estimate_capacity",
]

SHARD_SIZE = 1_000_000

FadingSpec = Union[DoubleKappaMuShadowedParams, GammaSnrParams, RicianShadowedParams]

# lineage slots for child streams
_LINK_RECEIVER = 0
_LINK_INTERCEPT = 1
_LINK_JAMMER = 2


@dataclass(frozen=True)
class LinkSpec:
    """Per-antenna fading law of one link, with an optional blockage
    mixture (p_los chooses `fading`, otherwise `fading_nlos`)."""

    fading: FadingSpec
    p_los: Optional[float] = None
    fading_nlos: Optional[FadingSpec] = None

    def __post_init__(self):
        if not isinstance(
            self.fading,
            (DoubleKappaMuShadowedParams, GammaSnrParams, RicianShadowedParams),
        ):
            raise ParameterError("unsupported fading spec")
        if (self.p_los is None) != (self.fading_nlos is None):
            raise ParameterError("p_los and fading_nlos must be given together")
        if self.p_los is not None and not (0.0 <= self.p_los <= 1.0):
            raise ParameterError("p_los must lie in [0, 1]")


@dataclass(frozen=True)
class SimConfig:
    trials: int
    seed: SamplerSeed
    geometry: NetworkGeometry
    receiver_link: Optional[LinkSpec] = None
    eve_intercept_link: Optional[LinkSpec] = None
    jammer_link: Optional[LinkSpec] = None

    def __post_init__(self):
        if not (isinstance(self.trials, (int, np.integer)) and self.trials >= 1):
            raise ParameterError("trials must be a positive integer")
        if not isinstance(self.seed, SamplerSeed):
            raise ParameterError("seed must be a SamplerSeed")


@dataclass(frozen=True)
class Estimate:
    value: float
    std_error: float
    trials: int
    half_width: float = field(init=False)

    def __post_init__(self):
        if self.std_error < 0:
            raise ParameterError("std_error must be non-negative")
        if self.trials < 1:
            raise ParameterError("trials must be positive")
        object.__setattr__(self, "half_width", 1.96 * self.std_error)


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
    return seed.generator().gamma(shape=unit.nu, scale=1.0 / unit.beta, size=n)


def _unit_sum(unit: FadingSpec, base: SamplerSeed, role: int, n_antennas: int,
              trials: int, cache: dict) -> np.ndarray:
    """Per-trial sum of the per-antenna draws of a unit-scale law, drawn
    once per (seed, role, law, antenna count, trials) and kept in `cache`.
    Antenna a of shard k draws from stream (role, a, k) whatever the law."""
    key = (role, unit, n_antennas, trials, base)
    total = cache.get(key)
    if total is None:
        total = np.empty(trials)
        for k, lo, hi in _shards(trials):
            acc = np.zeros(hi - lo)
            for a in range(n_antennas):
                acc += _draw(unit, base.child(role, a, k), hi - lo)
            total[lo:hi] = acc
        cache[key] = total
    return total


def _link_samples(link: LinkSpec, base: SamplerSeed, role: int,
                  n_antennas: int, trials: int,
                  cache: Optional[dict]) -> np.ndarray:
    """Per-trial link SNR: the unit-law antenna sum times the law's scale.
    Blockage state is common to all antennas of a link (it blocks the
    path, not individual elements), so a mixture picks its scale per
    trial; LOS and NLOS branches with one unit law share one sum, which
    is exact because the coin is independent of the draws."""
    cache = {} if cache is None else cache
    unit, scale = _unit_law(link.fading)
    total = _unit_sum(unit, base, role, n_antennas, trials, cache)
    if link.p_los is None:
        return total * scale
    unit_nlos, scale_nlos = _unit_law(link.fading_nlos)
    total_nlos = _unit_sum(unit_nlos, base, role, n_antennas, trials, cache)
    los = np.empty(trials, dtype=bool)
    for k, lo, hi in _shards(trials):
        # the coin's key (role, k) is one index shorter than any antenna's
        los[lo:hi] = base.child(role, k).generator().random(hi - lo) < link.p_los
    if total_nlos is not total:  # the branches have different unit laws
        total = np.where(los, total, total_nlos)
    return total * np.where(los, scale, scale_nlos)


def simulate_receiver_snr(cfg: SimConfig, cache: Optional[dict] = None) -> np.ndarray:
    """Per-trial receiver SNR: sum of the N per-antenna draws.

    `cache` is an optional caller-owned dict of unit-law antenna sums;
    the result is bit-identical with or without it."""
    if cfg.receiver_link is None:
        raise ParameterError("config has no receiver link fading spec")
    return _link_samples(
        cfg.receiver_link, cfg.seed, _LINK_RECEIVER,
        cfg.geometry.n_bs_antennas, cfg.trials, cache,
    )


def simulate_eve_sinr(cfg: SimConfig, cache: Optional[dict] = None) -> np.ndarray:
    """Per-trial eavesdropper SINR gamma_I / (1 + gamma_J).

    gamma_J is identically zero when no jammer link is configured, the
    jammer has zero antennas, or its transmit power is zero.  `cache` is
    as for `simulate_receiver_snr`.
    """
    if cfg.eve_intercept_link is None:
        raise ParameterError("config has no eavesdropper intercept fading spec")
    gamma_i = _link_samples(
        cfg.eve_intercept_link, cfg.seed, _LINK_INTERCEPT,
        cfg.geometry.n_bs_antennas, cfg.trials, cache,
    )
    jam_off = (
        cfg.jammer_link is None
        or cfg.geometry.n_jammer_antennas == 0
        or cfg.geometry.p_j == 0.0
    )
    if jam_off:
        return gamma_i
    gamma_j = _link_samples(
        cfg.jammer_link, cfg.seed, _LINK_JAMMER,
        cfg.geometry.n_jammer_antennas, cfg.trials, cache,
    )
    return gamma_i / (1.0 + gamma_j)


def _mean_se(values: np.ndarray) -> tuple[float, float]:
    n = len(values)
    mean = float(np.mean(values))  # numpy pairwise summation: order-stable
    if n == 1:
        return mean, 0.0
    var = float(np.var(values, ddof=1))
    return mean, math.sqrt(max(var, 0.0) / n)


def estimate_outage(samples: np.ndarray, gamma_th: float) -> Estimate:
    """Outage probability P(sample < gamma_th) with its standard error."""
    samples = np.asarray(samples, dtype=float)
    if samples.size == 0:
        raise ParameterError("empty sample stream")
    if not (gamma_th > 0):
        raise ParameterError("gamma_th must be positive")
    ind = (samples < gamma_th).astype(float)
    mean, se = _mean_se(ind)
    return Estimate(value=mean, std_error=se, trials=len(ind))


def estimate_capacity(samples: np.ndarray) -> Estimate:
    """Sample mean of log2(1 + sample) with its standard error."""
    samples = np.asarray(samples, dtype=float)
    if samples.size == 0:
        raise ParameterError("empty sample stream")
    if np.any(samples < 0):
        raise ParameterError("samples must be non-negative")
    vals = np.log2(1.0 + samples)
    mean, se = _mean_se(vals)
    return Estimate(value=mean, std_error=se, trials=len(vals))
