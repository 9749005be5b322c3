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
    dksm_pdf,
    dksm_sample,
    gamma_cdf,
    gamma_pdf,
    mixture_cdf,
    nakagami_limit_pdf,
    rician_shadowed_cdf,
    rician_shadowed_pdf,
)
from .montecarlo import (
    Estimate,
    LinkSpec,
    SimConfig,
    estimate_capacity,
    estimate_outage,
    simulate_eve_sinr,
    simulate_receiver_snr,
)
from .scenario import ResultTable, Scenario, ScenarioError, emit, read_table, run_scenario
from .secrecy import (
    EveLinkParams,
    NetworkGeometry,
    capacity_eve_foxh,
    capacity_eve_quadrature,
    capacity_receiver_quadrature,
    capacity_receiver_series,
    db_to_linear,
    eve_link_params_from_geometry,
    eve_sinr_cdf,
    eve_sinr_cdf_integral,
    mean_snr,
    secrecy_capacity,
)
from .specfun import BivariateFoxHSpec, MeijerGSpec, fox_h_bivariate, meijer_g

__all__ = [
    "__version__",
    "AccuracyError", "ConvergenceError", "ParameterError",
    "DoubleKappaMuShadowedParams", "GammaSnrParams", "RicianShadowedParams",
    "SamplerSeed", "dksm_cdf", "dksm_pdf", "dksm_sample",
    "gamma_cdf", "gamma_pdf", "mixture_cdf",
    "nakagami_limit_pdf", "rician_shadowed_cdf", "rician_shadowed_pdf",
    "Estimate", "LinkSpec", "SimConfig",
    "estimate_capacity", "estimate_outage",
    "simulate_eve_sinr", "simulate_receiver_snr",
    "ResultTable", "Scenario", "ScenarioError", "emit", "read_table",
    "run_scenario",
    "EveLinkParams", "NetworkGeometry",
    "capacity_eve_foxh", "capacity_eve_quadrature",
    "capacity_receiver_quadrature", "capacity_receiver_series",
    "db_to_linear", "eve_link_params_from_geometry",
    "eve_sinr_cdf", "eve_sinr_cdf_integral", "mean_snr", "secrecy_capacity",
    "BivariateFoxHSpec", "MeijerGSpec", "fox_h_bivariate", "meijer_g",
]
