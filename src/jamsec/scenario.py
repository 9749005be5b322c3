"""Scenario configs, sweep execution, and table emission.

A scenario is a single YAML tree: geometry, per-link fading, one sweep
axis with a grid, optional variants (parameter overlays producing extra
column groups), requested metrics and methods.  Keys that carry units
say so in their names (r_je_m, p_s_db); dB is converted to linear
exactly once, on load.

Output is a ResultTable: one row per grid point, one column per
variant x metric x method, metadata (scenario hash, seed, tool version)
carried as '#' comment lines in CSV or a metadata object in JSON.
Emission is byte-identical for identical effective inputs.
"""

from __future__ import annotations

import difflib
import functools
import hashlib
import importlib.resources
import json
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Optional

import scipy.integrate
import yaml

from . import montecarlo, secrecy
from .errors import ParameterError
from .fading import (
    DoubleKappaMuShadowedParams,
    GammaSnrParams,
    RicianShadowedParams,
    SamplerSeed,
    dksm_cdf,
    gamma_cdf,
    mixture_cdf,
    rician_shadowed_pdf,
)

__all__ = [
    "Scenario",
    "ResultTable",
    "ScenarioError",
    "builtin_scenarios",
    "load_config",
    "validate_config",
    "run_scenario",
    "emit",
    "read_table",
]

_AXES = ("snr_r_db", "r_je_m", "p_s_db", "p_j_db", "k")
_METHODS = ("closed-form", "quadrature", "monte-carlo")
_METRICS = ("outage_r", "outage_e", "c_r", "c_e", "c_s")

# every key a config may carry, per level; anything else is a diagnostic
_TOP_KEYS = ("name", "description", "geometry", "receiver", "eve", "sweep",
             "zeta_db", "metrics", "methods", "trials", "seed", "variants")
_GEOMETRY_KEYS = ("n_bs_antennas", "n_jammer_antennas", "r_sr_m", "r_se_m",
                  "r_je_m", "delta", "p_s_db", "p_j_db", "noise_var_r",
                  "noise_var_e")
_RECEIVER_KEYS = {
    "double_kappa_mu_shadowed": ("fading", "c", "s", "mu", "kappa"),
    "rician_shadowed": ("fading", "m", "xi", "sigma2", "normalize_mean",
                        "p_los", "nlos_extra_loss_db"),
}
_EVE_KEYS = ("m_i", "m_j")
_SWEEP_KEYS = ("axis", "grid")
_VARIANT_KEYS = ("name", "geometry", "receiver", "eve")


class ScenarioError(Exception):
    """Config rejected; `diagnostics` lists every violated invariant."""

    def __init__(self, diagnostics):
        self.diagnostics = list(diagnostics)
        super().__init__("\n".join(self.diagnostics))


# ---------------------------------------------------------------------------
# config loading and validation


def builtin_scenarios() -> dict:
    """name -> description of the packaged scenario files."""
    out = {}
    root = importlib.resources.files("jamsec") / "scenarios"
    for entry in sorted(root.iterdir(), key=lambda e: e.name):
        if entry.name.endswith(".yaml"):
            cfg = yaml.safe_load(entry.read_text())
            out[entry.name[:-5]] = str(cfg.get("description", "")).strip()
    return out


def _resolve_path(name_or_path: str) -> str:
    if os.path.sep in name_or_path or name_or_path.endswith((".yaml", ".yml")):
        return name_or_path
    res = importlib.resources.files("jamsec") / "scenarios" / f"{name_or_path}.yaml"
    if not res.is_file():
        raise ScenarioError([f"scenario: no such file or built-in '{name_or_path}'"])
    return str(res)


def load_config(path: str) -> dict:
    """Parse the YAML tree; syntax errors become line-tagged diagnostics."""
    try:
        with open(path, "r") as fh:
            cfg = yaml.safe_load(fh)
    except OSError:
        raise
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        where = f" (line {mark.line + 1}, column {mark.column + 1})" if mark else ""
        raise ScenarioError([f"parse error{where}: {getattr(exc, 'problem', exc)}"])
    if not isinstance(cfg, dict):
        raise ScenarioError(["config root must be a mapping"])
    return cfg


def _num(d, key, diags, prefix, lo=None, hi=None, lo_strict=None, required=True):
    if key not in d:
        if required:
            diags.append(f"{prefix}{key}: required field is missing")
        return None
    v = d[key]
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        diags.append(f"{prefix}{key}: must be a number (got {v!r})")
        return None
    if lo_strict is not None and not (v > lo_strict):
        diags.append(f"{prefix}{key}: must be > {lo_strict} (got {v})")
        return None
    if lo is not None and v < lo:
        diags.append(f"{prefix}{key}: must be >= {lo} (got {v})")
        return None
    if hi is not None and v > hi:
        diags.append(f"{prefix}{key}: must be <= {hi} (got {v})")
        return None
    return v


def _check_keys(d, allowed, diags, prefix, what="unknown key"):
    """Flag keys outside `allowed`, suggesting the nearest valid one."""
    for key in d:
        if key in allowed:
            continue
        near = difflib.get_close_matches(str(key), allowed, n=1)
        hint = f"did you mean '{near[0]}'?" if near else (
            "valid keys: " + ", ".join(allowed))
        diags.append(f"{prefix}{key}: {what} ({hint})")


def _check_geometry(g, diags, p="geometry."):
    if not isinstance(g, dict):
        diags.append(f"{p[:-1]}: must be a mapping")
        return
    _check_keys(g, _GEOMETRY_KEYS, diags, p)
    for key in ("n_bs_antennas", "n_jammer_antennas"):
        v = g.get(key)
        lo = 1 if key == "n_bs_antennas" else 0
        if not isinstance(v, int) or isinstance(v, bool) or v < lo:
            diags.append(f"{p}{key}: must be an integer >= {lo} (got {v!r})")
    for key in ("r_sr_m", "r_se_m", "r_je_m"):
        _num(g, key, diags, p, lo_strict=0.0)
    _num(g, "delta", diags, p, lo=0.0)
    _num(g, "p_s_db", diags, p)
    _num(g, "p_j_db", diags, p, required=False)
    _num(g, "noise_var_r", diags, p, lo_strict=0.0)
    _num(g, "noise_var_e", diags, p, lo_strict=0.0)
    if g.get("n_jammer_antennas", 0) and "p_j_db" not in g:
        diags.append(f"{p}p_j_db: required when n_jammer_antennas >= 1")


def _check_receiver(r, diags, p="receiver."):
    if not isinstance(r, dict):
        diags.append(f"{p[:-1]}: must be a mapping")
        return
    model = r.get("fading")
    if model in _RECEIVER_KEYS:
        _check_keys(r, _RECEIVER_KEYS[model], diags, p,
                    f"not a key of fading: {model}")
    if model == "double_kappa_mu_shadowed":
        _num(r, "c", diags, p, lo_strict=0.0)
        _num(r, "s", diags, p, lo_strict=1.0)
        _num(r, "mu", diags, p, lo_strict=0.0)
        _num(r, "kappa", diags, p, lo=0.0)
    elif model == "rician_shadowed":
        _num(r, "m", diags, p, lo_strict=0.0)
        _num(r, "xi", diags, p, lo_strict=0.0)
        _num(r, "sigma2", diags, p, lo_strict=0.0)
        _num(r, "p_los", diags, p, lo=0.0, hi=1.0, required=False)
        _num(r, "nlos_extra_loss_db", diags, p, required=False)
        if not isinstance(r.get("normalize_mean", True), bool):
            diags.append(f"{p}normalize_mean: must be true or false"
                         f" (got {r['normalize_mean']!r})")
        if ("p_los" in r) != ("nlos_extra_loss_db" in r):
            diags.append(f"{p}p_los: give p_los and nlos_extra_loss_db together")
    else:
        diags.append(
            f"{p}fading: must be 'double_kappa_mu_shadowed' or 'rician_shadowed'"
            f" (got {model!r})"
        )


def _check_eve(e, diags, p="eve."):
    if e is None:
        return
    if not isinstance(e, dict):
        diags.append(f"{p[:-1]}: must be a mapping")
        return
    _check_keys(e, _EVE_KEYS, diags, p)
    for key in _EVE_KEYS:
        v = e.get(key, 1)
        if not isinstance(v, int) or isinstance(v, bool) or v < 1:
            diags.append(f"{p}{key}: must be an integer >= 1 (got {v!r})")


_SECTION_CHECKS = (("geometry", _check_geometry), ("receiver", _check_receiver),
                   ("eve", _check_eve))


def _variant_section(base, over):
    """The mapping a variant's section override resolves to."""
    base = base if isinstance(base, dict) else {}
    # a variant that switches the fading model reads none of the base
    # model's keys, so they are not checked against the new model
    if over.get("fading", base.get("fading")) != base.get("fading"):
        return over
    return _merge(base, over)


def validate_config(cfg: dict) -> list:
    """All violated invariants, as 'field: problem' strings.  Empty = clean."""
    diags = []
    _check_keys(cfg, _TOP_KEYS, diags, "")
    if not isinstance(cfg.get("name"), str) or not cfg.get("name"):
        diags.append("name: required non-empty string")

    base_problems = {}
    for section, check in _SECTION_CHECKS:
        found = []
        check(cfg.get(section, {}), found)
        diags += found
        base_problems[section] = {d[len(section):] for d in found}

    sweep = cfg.get("sweep")
    if not isinstance(sweep, dict):
        diags.append("sweep: required mapping with 'axis' and 'grid'")
    else:
        _check_keys(sweep, _SWEEP_KEYS, diags, "sweep.")
        axis = sweep.get("axis")
        if axis not in _AXES:
            diags.append(f"sweep.axis: must be one of {_AXES} (got {axis!r})")
        grid = sweep.get("grid")
        if not isinstance(grid, list) or not grid:
            diags.append("sweep.grid: must be a non-empty list")
        elif not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in grid):
            diags.append("sweep.grid: entries must be numbers")
        elif any(b <= a for a, b in zip(grid, grid[1:])):
            diags.append("sweep.grid: must be strictly increasing")
        elif axis == "k" and not all(isinstance(v, int) and v >= 0 for v in grid):
            diags.append("sweep.grid: antenna-count axis needs integers >= 0")

    methods = cfg.get("methods")
    if not isinstance(methods, list) or not methods:
        diags.append("methods: must be a non-empty list")
    elif not all(m in _METHODS for m in methods):
        diags.append(f"methods: entries must be among {_METHODS} (got {methods!r})")

    metrics = cfg.get("metrics")
    if not isinstance(metrics, list) or not metrics:
        diags.append("metrics: must be a non-empty list")
    elif not all(m in _METRICS for m in metrics):
        diags.append(f"metrics: entries must be among {_METRICS} (got {metrics!r})")

    zetas = cfg.get("zeta_db", [])
    if not isinstance(zetas, list) or not all(
        isinstance(v, (int, float)) and not isinstance(v, bool) for v in zetas
    ):
        diags.append("zeta_db: must be a list of numbers (dB)")
    elif isinstance(metrics, list) and not zetas and (
        "outage_r" in metrics or "outage_e" in metrics
    ):
        diags.append("zeta_db: outage metrics need at least one threshold")

    trials = cfg.get("trials", 100_000)
    if not isinstance(trials, int) or isinstance(trials, bool) or trials < 1:
        diags.append(f"trials: must be a positive integer (got {trials!r})")
    seed = cfg.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        diags.append(f"seed: must be a non-negative integer (got {seed!r})")

    variants = cfg.get("variants", [])
    if variants is not None and not isinstance(variants, list):
        diags.append("variants: must be a list of mappings")
    elif variants:
        names = []
        for i, var in enumerate(variants):
            if not isinstance(var, dict) or not isinstance(var.get("name"), str):
                diags.append(f"variants[{i}]: needs a string 'name'")
                continue
            names.append(var["name"])
            p = f"variants[{i}]."
            _check_keys(var, _VARIANT_KEYS, diags, p, "unknown override section")
            for section, check in _SECTION_CHECKS:
                over = var.get(section)
                if over is None:
                    continue
                if not isinstance(over, dict):
                    diags.append(f"{p}{section}: must be a mapping")
                    continue
                found = []
                check(_variant_section(cfg.get(section), over), found,
                      f"{p}{section}.")
                # a problem the base section already has is reported once
                diags += [d for d in found
                          if d[len(p) + len(section):] not in base_problems[section]]
        if len(set(names)) != len(names):
            diags.append("variants: names must be unique")
    return diags


# ---------------------------------------------------------------------------
# scenario model


@dataclass(frozen=True)
class Scenario:
    name: str
    description: str
    geometry: dict
    receiver: dict
    eve: dict
    axis: str
    grid: tuple
    zeta_db: tuple
    metrics: tuple
    methods: tuple
    trials: int
    seed: int
    variants: tuple  # ((name, overrides-dict), ...); at least one entry

    @classmethod
    def from_config(cls, cfg: dict, *, seed=None, trials=None, methods=None,
                    grid=None) -> "Scenario":
        cfg = dict(cfg)
        if seed is not None:
            cfg["seed"] = seed
        if trials is not None:
            cfg["trials"] = trials
        if methods is not None:
            cfg["methods"] = list(methods)
        if grid is not None:
            cfg.setdefault("sweep", {})
            cfg["sweep"] = {**cfg["sweep"], "grid": list(grid)}
        diags = validate_config(cfg)
        if diags:
            raise ScenarioError(diags)
        raw_variants = cfg.get("variants") or [{"name": ""}]
        variants = tuple(
            (v["name"], {k: dict(v[k]) for k in ("geometry", "receiver", "eve") if k in v})
            for v in raw_variants
        )
        return cls(
            name=cfg["name"],
            description=str(cfg.get("description", "")).strip(),
            geometry=dict(cfg["geometry"]),
            receiver=dict(cfg["receiver"]),
            eve=dict(cfg.get("eve") or {}),
            axis=cfg["sweep"]["axis"],
            grid=tuple(float(v) for v in cfg["sweep"]["grid"]),
            zeta_db=tuple(float(z) for z in cfg.get("zeta_db", [])),
            metrics=tuple(cfg["metrics"]),
            methods=tuple(cfg["methods"]),
            trials=int(cfg.get("trials", 100_000)),
            seed=int(cfg.get("seed", 0)),
            variants=variants,
        )

    def canonical(self) -> dict:
        return {
            "name": self.name,
            "geometry": self.geometry,
            "receiver": self.receiver,
            "eve": self.eve,
            "sweep": {"axis": self.axis, "grid": list(self.grid)},
            "zeta_db": list(self.zeta_db),
            "metrics": list(self.metrics),
            "methods": list(self.methods),
            "trials": self.trials,
            "seed": self.seed,
            "variants": [[n, o] for n, o in self.variants],
        }

    def digest(self) -> str:
        blob = json.dumps(self.canonical(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


@dataclass(frozen=True)
class ResultTable:
    columns: tuple
    rows: tuple          # tuple of row tuples; cells float or None (NA)
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        ncol = len(self.columns)
        for r in self.rows:
            if len(r) != ncol:
                raise ParameterError("table is not rectangular")
        axis = [r[0] for r in self.rows]
        if any(b <= a for a, b in zip(axis, axis[1:])):
            raise ParameterError("axis column must be strictly increasing")
        for r in self.rows:
            for cell in r:
                if cell is not None and not isinstance(cell, (int, float)):
                    raise ParameterError("cells must be numeric or NA")


# ---------------------------------------------------------------------------
# per-point evaluation


@dataclass(frozen=True)
class _PointSetup:
    """Fully resolved inputs for one (variant, axis value) evaluation."""

    geometry: secrecy.NetworkGeometry
    receiver_dksm: Optional[DoubleKappaMuShadowedParams]  # None: Rician model
    receiver_los: Optional[RicianShadowedParams]
    receiver_nlos: Optional[RicianShadowedParams]
    p_los: Optional[float]
    eve: Optional[secrecy.EveLinkParams]   # None when the jammer is off
    eve_gamma_i: GammaSnrParams
    zetas: tuple
    trials: int


def _merge(base: dict, override: dict) -> dict:
    return {**base, **override}


def _resolve_point(sc: Scenario, overrides: dict, axis_value: float) -> _PointSetup:
    geo = _merge(sc.geometry, overrides.get("geometry", {}))
    rec = _merge(sc.receiver, overrides.get("receiver", {}))
    eve = _merge(sc.eve, overrides.get("eve", {}))

    snr_r_override = None
    if sc.axis == "snr_r_db":
        snr_r_override = secrecy.db_to_linear(axis_value)
    elif sc.axis == "r_je_m":
        geo["r_je_m"] = axis_value
    elif sc.axis == "p_s_db":
        geo["p_s_db"] = axis_value
    elif sc.axis == "p_j_db":
        geo["p_j_db"] = axis_value
    elif sc.axis == "k":
        geo["n_jammer_antennas"] = int(axis_value)

    geometry = secrecy.NetworkGeometry(
        n_bs_antennas=int(geo["n_bs_antennas"]),
        n_jammer_antennas=int(geo["n_jammer_antennas"]),
        r_sr=float(geo["r_sr_m"]),
        r_se=float(geo["r_se_m"]),
        r_je=float(geo["r_je_m"]),
        delta=float(geo["delta"]),
        p_s=secrecy.db_to_linear(geo["p_s_db"]),
        p_j=secrecy.db_to_linear(geo["p_j_db"]) if "p_j_db" in geo else 0.0,
        noise_var_r=float(geo["noise_var_r"]),
        noise_var_e=float(geo["noise_var_e"]),
    )

    snr_r = (
        snr_r_override
        if snr_r_override is not None
        else secrecy.mean_snr(geometry.p_s, geometry.r_sr, geometry.delta,
                              geometry.noise_var_r)
    )

    receiver_dksm = receiver_los = receiver_nlos = None
    p_los = None
    if rec["fading"] == "double_kappa_mu_shadowed":
        receiver_dksm = DoubleKappaMuShadowedParams(
            c=float(rec["c"]), s=float(rec["s"]), mu=float(rec["mu"]),
            kappa=float(rec["kappa"]), mean_snr=snr_r,
        )
    else:
        m, xi, sigma2 = float(rec["m"]), float(rec["xi"]), float(rec["sigma2"])
        # scale so the stated mean SNR is the distribution mean
        norm = (xi + 2.0 * sigma2) if rec.get("normalize_mean", True) else 1.0
        receiver_los = RicianShadowedParams(m=m, xi=xi, sigma2=sigma2,
                                            mean_snr=snr_r / norm)
        if "p_los" in rec:
            p_los = float(rec["p_los"])
            loss = secrecy.db_to_linear(-float(rec["nlos_extra_loss_db"]))
            receiver_nlos = RicianShadowedParams(
                m=m, xi=xi, sigma2=sigma2, mean_snr=snr_r * loss / norm
            )

    m_i = int(eve.get("m_i", 1))
    m_j = int(eve.get("m_j", 1))
    snr_i = secrecy.mean_snr(geometry.p_s, geometry.r_se, geometry.delta,
                             geometry.noise_var_e)
    eve_gamma_i = GammaSnrParams(nu=geometry.n_bs_antennas * m_i, beta=m_i / snr_i)
    jam_on = geometry.n_jammer_antennas >= 1 and geometry.p_j > 0
    eve_params = (
        secrecy.eve_link_params_from_geometry(geometry, m_i, m_j) if jam_on else None
    )

    return _PointSetup(
        geometry=geometry,
        receiver_dksm=receiver_dksm,
        receiver_los=receiver_los,
        receiver_nlos=receiver_nlos,
        p_los=p_los,
        eve=eve_params,
        eve_gamma_i=eve_gamma_i,
        zetas=tuple(secrecy.db_to_linear(z) for z in sc.zeta_db),
        trials=sc.trials,
    )


def _rician_outage_quadrature(p: RicianShadowedParams, th: float) -> float:
    val, _ = scipy.integrate.quad(
        lambda t: rician_shadowed_pdf(p, t), 0.0, th, limit=200,
        epsabs=1e-12, epsrel=1e-10,
    )
    return min(max(val, 0.0), 1.0)


def _rician_outage(setup: _PointSetup, th: float, cdf) -> float:
    """Receiver outage of the Rician model, blended with the NLOS branch
    when the scenario has a blockage mixture."""
    f_los = float(cdf(setup.receiver_los, th))
    if setup.p_los is None:
        return f_los
    return float(mixture_cdf(setup.p_los, f_los,
                             float(cdf(setup.receiver_nlos, th))))


def _receiver_sim_config(setup: _PointSetup, seed: SamplerSeed) -> montecarlo.SimConfig:
    # analytical receiver restriction: single-antenna receiver link
    geo = setup.geometry
    geo1 = secrecy.NetworkGeometry(
        n_bs_antennas=1,
        n_jammer_antennas=geo.n_jammer_antennas,
        r_sr=geo.r_sr, r_se=geo.r_se, r_je=geo.r_je, delta=geo.delta,
        p_s=geo.p_s, p_j=geo.p_j,
        noise_var_r=geo.noise_var_r, noise_var_e=geo.noise_var_e,
    )
    if setup.receiver_dksm is not None:
        link = montecarlo.LinkSpec(fading=setup.receiver_dksm)
    elif setup.p_los is None:
        link = montecarlo.LinkSpec(fading=setup.receiver_los)
    else:
        link = montecarlo.LinkSpec(
            fading=setup.receiver_los, p_los=setup.p_los,
            fading_nlos=setup.receiver_nlos,
        )
    return montecarlo.SimConfig(
        trials=setup.trials, seed=seed, geometry=geo1, receiver_link=link
    )


def _eve_sim_config(setup: _PointSetup, seed: SamplerSeed) -> montecarlo.SimConfig:
    geo = setup.geometry
    m_i_shape = setup.eve_gamma_i.nu // geo.n_bs_antennas
    intercept = montecarlo.LinkSpec(
        fading=GammaSnrParams(nu=m_i_shape, beta=setup.eve_gamma_i.beta)
    )
    jammer = None
    if setup.eve is not None:
        m_j_shape = setup.eve.nu_j // geo.n_jammer_antennas
        jammer = montecarlo.LinkSpec(
            fading=GammaSnrParams(nu=m_j_shape, beta=setup.eve.beta_j)
        )
    return montecarlo.SimConfig(
        trials=setup.trials, seed=seed, geometry=geo,
        eve_intercept_link=intercept, jammer_link=jammer,
    )


class _Point:
    """One resolved grid point.  Monte Carlo samples are drawn on first
    use, so at most once per point, from the run-level link streams of
    `seed`; `memo` holds what this run already computed: receiver
    capacities and the Monte Carlo unit-law link sums, which every cell
    scales to its own means."""

    def __init__(self, setup: _PointSetup, seed: SamplerSeed, memo: dict):
        self.setup = setup
        self.seed = seed
        self.memo = memo

    @functools.cached_property
    def receiver_samples(self):
        return montecarlo.simulate_receiver_snr(
            _receiver_sim_config(self.setup, self.seed), self.memo)

    @functools.cached_property
    def eve_samples(self):
        return montecarlo.simulate_eve_sinr(
            _eve_sim_config(self.setup, self.seed), self.memo)

    def receiver_capacity(self, route: str):
        """secrecy.<route> of the double-model receiver, once per distinct
        link in a run (variants and grid points often share it: fig5's
        jammer sizes all do)."""
        rx = self.setup.receiver_dksm
        if rx is None:
            return None  # analytic receiver capacity is defined for the double model
        if (rx, route) not in self.memo:
            self.memo[(rx, route)] = getattr(secrecy, route)(rx)
        return self.memo[(rx, route)]


# (metric, method) -> fn(point, threshold), a value or None for NA.  The
# entries look up secrecy.* and montecarlo.* functions when called, never
# binding them here, so a rebinding of those names takes effect.
_ROUTES = {
    ("outage_r", "closed-form"): lambda pt, th: (
        None if pt.setup.receiver_dksm is not None  # no closed-form CDF
        else _rician_outage(pt.setup, th, secrecy.rician_shadowed_cdf)),
    ("outage_r", "quadrature"): lambda pt, th: (
        dksm_cdf(pt.setup.receiver_dksm, th) if pt.setup.receiver_dksm is not None
        else _rician_outage(pt.setup, th, _rician_outage_quadrature)),
    ("outage_r", "monte-carlo"): lambda pt, th:
        montecarlo.estimate_outage(pt.receiver_samples, th).value,
    # jammer off: the SINR is the plain Gamma SNR for either analytic route
    ("outage_e", "closed-form"): lambda pt, th: (
        gamma_cdf(pt.setup.eve_gamma_i, th) if pt.setup.eve is None
        else secrecy.eve_sinr_cdf(pt.setup.eve, th)),
    ("outage_e", "quadrature"): lambda pt, th: (
        gamma_cdf(pt.setup.eve_gamma_i, th) if pt.setup.eve is None
        else secrecy.eve_sinr_cdf_integral(pt.setup.eve, th)),
    ("outage_e", "monte-carlo"): lambda pt, th:
        montecarlo.estimate_outage(pt.eve_samples, th).value,
    ("c_r", "closed-form"): lambda pt, _:
        pt.receiver_capacity("capacity_receiver_series"),
    ("c_r", "quadrature"): lambda pt, _:
        pt.receiver_capacity("capacity_receiver_quadrature"),
    ("c_r", "monte-carlo"): lambda pt, _:
        montecarlo.estimate_capacity(pt.receiver_samples).value,
    ("c_e", "closed-form"): lambda pt, _: (
        None if pt.setup.eve is None  # contour form needs a jamming shape >= 1
        else secrecy.capacity_eve_foxh(pt.setup.eve)),
    ("c_e", "quadrature"): lambda pt, _: (
        secrecy.capacity_gamma_quadrature(pt.setup.eve_gamma_i) if pt.setup.eve is None
        else secrecy.capacity_eve_quadrature(pt.setup.eve)),
    ("c_e", "monte-carlo"): lambda pt, _:
        montecarlo.estimate_capacity(pt.eve_samples).value,
}


def _eval_point(sc: Scenario, overrides: dict, axis_value: float,
                memo: dict) -> dict:
    """All requested metric values at one grid point.  Keys are
    (metric, zeta-or-None, method)."""
    pt = _Point(_resolve_point(sc, overrides, axis_value),
                SamplerSeed(sc.seed), memo)
    out = {}
    for method in sc.methods:
        for metric in sc.metrics:
            if metric in ("outage_r", "outage_e"):
                for z_db, z in zip(sc.zeta_db, pt.setup.zetas):
                    out[(metric, z_db, method)] = _ROUTES[(metric, method)](pt, z)
            elif metric != "c_s":
                out[(metric, None, method)] = _ROUTES[(metric, method)](pt, None)
        if "c_s" in sc.metrics:
            c_r, c_e = (out[(m, None, method)] if m in sc.metrics
                        else _ROUTES[(m, method)](pt, None) for m in ("c_r", "c_e"))
            out[("c_s", None, method)] = (
                secrecy.secrecy_capacity(c_r, c_e)
                if c_r is not None and c_e is not None else None)
    return out


# A pool worker's memo: set by the pool initializer, so it lives exactly
# as long as the pool of one run_scenario call.
_worker_memo = None


def _init_worker():
    global _worker_memo
    _worker_memo = {}


def _eval_task(args):
    return _eval_point(*args, memo=_worker_memo)


# ---------------------------------------------------------------------------
# sweep runner


def _fmt_zeta(z: float) -> str:
    return "%g" % z


def _column_name(variant: str, metric: str, zeta, method: str) -> str:
    name = f"{variant}/{metric}" if variant else metric
    if zeta is not None:
        name += f"@{_fmt_zeta(zeta)}dB"
    return f"{name}#{method}"


def run_scenario(path: str, *, seed=None, trials=None, methods=None,
                 grid=None, workers: int = 1) -> ResultTable:
    """Execute a scenario file (or built-in name) and return its table.

    Keyword overrides replace the config's seed/trials/methods/grid before
    hashing, so the metadata reflects what actually ran.  `workers` > 1
    dispatches grid points to a process pool; output is identical for any
    worker count.
    """
    cfg = load_config(_resolve_path(path))
    sc = Scenario.from_config(cfg, seed=seed, trials=trials, methods=methods,
                              grid=grid)

    # Monte Carlo streams are keyed by link, not by cell: every cell of a
    # run scales the same unit-law draws (see jamsec.montecarlo)
    cells = [(vi, pi) for vi in range(len(sc.variants))
             for pi in range(len(sc.grid))]
    tasks = [(sc, sc.variants[vi][1], sc.grid[pi]) for vi, pi in cells]

    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers,
                                 initializer=_init_worker) as pool:
            results = list(pool.map(_eval_task, tasks))
    else:
        memo = {}
        results = [_eval_point(*t, memo=memo) for t in tasks]

    by_cell = dict(zip(cells, results))

    multi = len(sc.variants) > 1
    columns = [sc.axis]
    keys = []
    for vi, (vname, _) in enumerate(sc.variants):
        label = vname if multi else ""
        for metric in sc.metrics:
            zet = sc.zeta_db if metric in ("outage_r", "outage_e") else (None,)
            for z in zet:
                for method in sc.methods:
                    columns.append(_column_name(label, metric, z, method))
                    keys.append((vi, (metric, z, method)))

    rows = []
    for pi, axis_value in enumerate(sc.grid):
        row = [axis_value]
        for vi, key in keys:
            row.append(by_cell[(vi, pi)][key])
        rows.append(tuple(row))

    from . import __version__

    metadata = {
        "scenario": sc.name,
        "scenario_hash": sc.digest(),
        "seed": str(sc.seed),
        "trials": str(sc.trials),
        "tool_version": __version__,
    }
    return ResultTable(columns=tuple(columns), rows=tuple(rows), metadata=metadata)


# ---------------------------------------------------------------------------
# emission


def _cell_str(v) -> str:
    if v is None:
        return "NA"
    return repr(float(v))


def emit(table: ResultTable, format: str = "csv", destination="-") -> None:
    """Write the table; identical tables produce identical bytes."""
    if format not in ("csv", "json"):
        raise ParameterError("format must be 'csv' or 'json'")
    if format == "csv":
        lines = [f"# {k}: {table.metadata[k]}" for k in sorted(table.metadata)]
        lines.append(",".join(table.columns))
        for row in table.rows:
            lines.append(",".join(_cell_str(v) for v in row))
        payload = "\n".join(lines) + "\n"
    else:
        doc = {
            "metadata": dict(sorted(table.metadata.items())),
            "columns": list(table.columns),
            "rows": [list(r) for r in table.rows],
        }
        payload = json.dumps(doc, indent=2, allow_nan=False) + "\n"

    if hasattr(destination, "write"):
        destination.write(payload)
        return
    if destination == "-":
        import sys

        sys.stdout.write(payload)
        return
    with open(destination, "w", newline="") as fh:
        fh.write(payload)


def read_table(source) -> ResultTable:
    """Parse a table emitted by `emit` (CSV or JSON, auto-detected)."""
    if hasattr(source, "read"):
        text = source.read()
    else:
        with open(source, "r") as fh:
            text = fh.read()
    stripped = text.lstrip()
    if stripped.startswith("{"):
        doc = json.loads(text)
        rows = tuple(
            tuple(None if c is None else float(c) for c in r) for r in doc["rows"]
        )
        return ResultTable(
            columns=tuple(doc["columns"]), rows=rows, metadata=dict(doc["metadata"])
        )
    metadata = {}
    header = None
    rows = []
    for line in text.splitlines():
        if not line.strip():
            continue
        if line.startswith("#"):
            key, _, value = line[1:].partition(":")
            metadata[key.strip()] = value.strip()
        elif header is None:
            header = line.split(",")
        else:
            rows.append(
                tuple(None if c == "NA" else float(c) for c in line.split(","))
            )
    if header is None:
        raise ParameterError("no header row found")
    return ResultTable(columns=tuple(header), rows=tuple(rows), metadata=metadata)
