"""Physical-layer secrecy toolkit for jammer-assisted vehicular links
over composite shadowed fading channels."""

__version__ = "0.1.0"

from .errors import AccuracyError, ConvergenceError, ParameterError
from .fading import (
    DoubleKappaMuShadowedParams,
    GammaSnrParams,
    RicianShadowedParams,
    SamplerSeed,
    dksm_cdf,
    dksm_sample,
    gamma_cdf,
    rician_shadowed_cdf,
)
from .montecarlo import (
    Estimate,
    LinkSpec,
    estimate_capacity,
    estimate_outage,
    simulate_eve_sinr,
    simulate_receiver_snr,
)
from .scenario import ResultTable, Scenario, ScenarioError, emit, run_scenario
from .secrecy import (
    EveLinkParams,
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

__all__ = [
    "__version__",
    "AccuracyError", "ConvergenceError", "ParameterError",
    "DoubleKappaMuShadowedParams", "GammaSnrParams", "RicianShadowedParams",
    "SamplerSeed", "dksm_cdf", "dksm_sample",
    "gamma_cdf", "rician_shadowed_cdf",
    "Estimate", "LinkSpec",
    "estimate_capacity", "estimate_outage",
    "simulate_eve_sinr", "simulate_receiver_snr",
    "ResultTable", "Scenario", "ScenarioError", "emit", "run_scenario",
    "EveLinkParams",
    "capacity_eve_quadrature", "capacity_eve_series",
    "capacity_receiver_quadrature", "capacity_receiver_series",
    "db_to_linear",
    "eve_sinr_cdf", "eve_sinr_cdf_integral", "mean_snr", "secrecy_capacity",
]
