"""Scenario configs, sweep execution, and table emission.

A scenario is a single YAML tree: geometry, per-link fading, one sweep
axis with a grid, optional variants (parameter overlays producing extra
column groups), requested metrics and methods.  Keys that carry units
say so in their names (r_je_m, p_s_db); dB values stay as written and
convert to linear per grid point and per outage threshold.

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
import itertools
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import yaml

from . import montecarlo, secrecy
from .errors import AccuracyError, ParameterError
from .fading import (
    DoubleKappaMuShadowedParams,
    GammaSnrParams,
    RicianShadowedParams,
    SamplerSeed,
    dksm_cdf,
    rician_shadowed_cdf_integral,
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
]

_METHODS = ("closed-form", "quadrature", "monte-carlo")
# each metric with the _Point links it reads: those and the cell key the
# cell's entry in the run memo
_METRIC_LINKS = {
    "outage_r": ("receiver",),
    "outage_e": ("intercept", "jammer"),
    "c_r": ("receiver",),
    "c_e": ("intercept", "jammer"),
    "c_s": ("receiver", "intercept", "jammer"),
}
_METRICS = tuple(_METRIC_LINKS)
_OUTAGES = ("outage_r", "outage_e")  # the metrics with one column per threshold

_REQUIRED = object()
_MISSING = object()  # a cell not in the run memo yet (None is NA)
_DB_LIMIT = 3000.0  # 10**(x/10) is a normal double for |x| up to this


class _Key(NamedTuple):
    """One config key: its kind ("int", "num", "db" or "bool"), bounds and
    default.  `default` _REQUIRED means the key must be given, None that
    it may be left out and has no default."""

    kind: str
    gt: float | None = None  # exclusive lower bound
    ge: float | None = None  # inclusive lower bound
    le: float | None = None  # inclusive upper bound
    default: object = _REQUIRED

    def problem(self, v):
        """Why `v` is not a value of this key, or None."""
        if self.kind == "bool":
            return None if isinstance(v, bool) else f"must be true or false (got {v!r})"
        if self.kind == "int":
            ok = isinstance(v, int) and not isinstance(v, bool) and v >= self.ge
            return None if ok else f"must be an integer >= {self.ge} (got {v!r})"
        if not _is_number(v):
            return f"must be a number (got {v!r})"
        if not abs(v) <= sys.float_info.max:  # NaN, inf, or an int beyond float
            return f"must be finite (got {v})"
        if self.kind == "db" and abs(v) > _DB_LIMIT:
            return f"must be between {-_DB_LIMIT:g} and {_DB_LIMIT:g} dB (got {v})"
        if self.gt is not None and not v > self.gt:
            return f"must be > {self.gt} (got {v})"
        if self.ge is not None and v < self.ge:
            return f"must be >= {self.ge} (got {v})"
        if self.le is not None and v > self.le:
            return f"must be <= {self.le} (got {v})"
        return None


_DB, _POSITIVE = _Key("db"), _Key("num", gt=0.0)
# every key of a section; unknown-key detection reads the same tables
_GEOMETRY = {
    "n_bs_antennas": _Key("int", ge=1), "n_jammer_antennas": _Key("int", ge=0),
    "r_sr_m": _POSITIVE, "r_se_m": _POSITIVE, "r_je_m": _POSITIVE,
    "delta": _Key("num", ge=0.0), "p_s_db": _DB,
    "p_j_db": _Key("db", default=None),  # required when the jammer is on
    "noise_var_r": _POSITIVE, "noise_var_e": _POSITIVE,
}
_RECEIVER = {  # per fading model
    "double_kappa_mu_shadowed": {"c": _POSITIVE, "s": _Key("num", gt=1.0),
                                 "mu": _POSITIVE, "kappa": _Key("num", ge=0.0)},
    "rician_shadowed": {
        "m": _POSITIVE, "xi": _POSITIVE, "sigma2": _POSITIVE,
        "normalize_mean": _Key("bool", default=True),
        # the blockage mixture: given together or not at all
        "p_los": _Key("num", ge=0.0, le=1.0, default=None),
        "nlos_extra_loss_db": _Key("db", default=None),
    },
}
_EVE = {"m_i": _Key("int", ge=1, default=1), "m_j": _Key("int", ge=1, default=1)}
_RUN = {"trials": _Key("int", ge=1, default=100_000), "seed": _Key("int", ge=0, default=0)}
# each sweep axis, by the kind of its grid values
_AXES = {"snr_r_db": _DB, "r_je_m": _POSITIVE, "p_s_db": _DB, "p_j_db": _DB,
         "k": _GEOMETRY["n_jammer_antennas"]}
# the other top-level keys; anything else is a diagnostic
_TOP_KEYS = ("name", "description", "geometry", "receiver", "eve", "sweep",
             "zeta_db", "metrics", "methods", "variants")

# libyaml's parser when PyYAML was built with it: both loaders share the
# Python constructor, so a file parses to the same tree, ~7x faster
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


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
            cfg = yaml.load(entry.read_text(), Loader=_YAML_LOADER)
            out[entry.name[:-5]] = str(cfg.get("description", "")).strip()
    return out


def _resolve_path(name_or_path: str) -> str:
    if os.path.sep in name_or_path or name_or_path.endswith((".yaml", ".yml")):
        return name_or_path
    res = importlib.resources.files("jamsec") / "scenarios" / f"{name_or_path}.yaml"
    if not res.is_file():
        raise ScenarioError([f"scenario: no such file or built-in '{name_or_path}'"])
    return str(res)


def load_config(name_or_path: str) -> dict:
    """Parse the YAML tree of a scenario file or built-in name; syntax
    errors become line-tagged diagnostics."""
    try:
        with open(_resolve_path(name_or_path), "r") as fh:
            cfg = yaml.load(fh, Loader=_YAML_LOADER)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        where = f" (line {mark.line + 1}, column {mark.column + 1})" if mark else ""
        raise ScenarioError([f"parse error{where}: {getattr(exc, 'problem', exc)}"])
    if not isinstance(cfg, dict):
        raise ScenarioError(["config root must be a mapping"])
    return cfg


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _one_line(text: str) -> bool:
    return "".join(text.splitlines()) == text


def _check_section(d, table, diags, prefix, extra=(), what="unknown key"):
    """Mapping `d` against its key table: keys outside it and `extra`
    (each with the nearest valid one), required keys left out, and each
    value's kind and bounds."""
    allowed = (*extra, *table)
    for key in d:
        if key not in allowed:
            near = difflib.get_close_matches(str(key), allowed, n=1)
            hint = f"did you mean '{near[0]}'?" if near else (
                "valid keys: " + ", ".join(allowed))
            diags.append(f"{prefix}{key}: {what} ({hint})")
    for key, spec in table.items():
        if key not in d:
            if spec.default is _REQUIRED:
                diags.append(f"{prefix}{key}: required field is missing")
        elif problem := spec.problem(d[key]):
            diags.append(f"{prefix}{key}: {problem}")


def _axis_value(axis, v):
    """An override grid value `v` as a value of sweep axis `axis`: an
    integral float on an integer axis is that integer (the CLI's `--at`
    parses as a float); anything else is `v`, for validation to judge."""
    spec = _AXES.get(axis) if isinstance(axis, str) else None
    if spec is not None and spec.kind == "int" and isinstance(v, float) and v.is_integer():
        return int(v)
    return v


def _first_problem(values, spec):
    """The problem of the first entry of `values` that `spec` rejects."""
    return next(filter(None, map(spec.problem, values)), None)


def _check_geometry(g, diags, p="geometry.", k_sweep_jams=False):
    _check_section(g, _GEOMETRY, diags, p)
    n_jam = g.get("n_jammer_antennas", 0)
    if "p_j_db" not in g and (n_jam or k_sweep_jams):
        why = "n_jammer_antennas >= 1" if n_jam else "the k sweep reaches K >= 1"
        diags.append(f"{p}p_j_db: required when {why}")


def _check_receiver(r, diags, p="receiver."):
    model = r.get("fading")
    table = _RECEIVER.get(model) if isinstance(model, str) else None
    if table is None:
        diags.append(f"{p}fading: must be one of {tuple(_RECEIVER)} (got {model!r})")
        return
    _check_section(r, table, diags, p, ("fading",), f"not a key of fading: {model}")
    if "p_los" in table and ("p_los" in r) != ("nlos_extra_loss_db" in r):
        diags.append(f"{p}p_los: give p_los and nlos_extra_loss_db together")


def _check_eve(e, diags, p="eve."):
    _check_section(e, _EVE, diags, p)


def _variant_section(base, over):
    """The mapping a variant's section override resolves to."""
    base = base if isinstance(base, dict) else {}
    # a variant that switches the fading model reads none of the base
    # model's keys, so they are not checked against the new model
    if over.get("fading", base.get("fading")) != base.get("fading"):
        return over
    return {**base, **over}


def validate_config(cfg: dict) -> list:
    """All violated invariants, as 'field: problem' strings.  Empty = clean."""
    diags = []
    _check_section(cfg, _RUN, diags, "", _TOP_KEYS)
    if not isinstance(cfg.get("name"), str) or not cfg.get("name"):
        diags.append("name: required non-empty string")
    elif not _one_line(cfg["name"]):
        diags.append(f"name: must be a single line (got {cfg['name']!r})")

    sweep = cfg.get("sweep")
    grid = sweep.get("grid") if isinstance(sweep, dict) else None
    # a k sweep sets the jammer size itself: any K >= 1 needs a jammer power
    k_sweep_jams = (isinstance(sweep, dict) and sweep.get("axis") == "k"
                    and isinstance(grid, list)
                    and any(_is_number(v) and v >= 1 for v in grid))
    check_geometry = functools.partial(_check_geometry, k_sweep_jams=k_sweep_jams)
    section_checks = (("geometry", check_geometry), ("receiver", _check_receiver),
                      ("eve", _check_eve))
    base_problems = {}
    for section, check in section_checks:
        found, given = [], cfg.get(section, {})
        if isinstance(given, dict):
            check(given, found)
        elif given is not None or section != "eve":  # eve: null keeps the defaults
            found.append(f"{section}: must be a mapping")
        diags += found
        base_problems[section] = {d[len(section):] for d in found}

    if not isinstance(sweep, dict):
        diags.append("sweep: required mapping with 'axis' and 'grid'")
    else:
        _check_section(sweep, {}, diags, "sweep.", ("axis", "grid"))
        axis = sweep.get("axis")
        entry = _AXES.get(axis) if isinstance(axis, str) else None
        if entry is None:
            diags.append(f"sweep.axis: must be one of {tuple(_AXES)} (got {axis!r})")
        if not isinstance(grid, list) or not grid:
            diags.append("sweep.grid: must be a non-empty list")
        elif problem := _first_problem(grid, entry or _Key("num")):
            diags.append(f"sweep.grid: entries {problem}")
        elif any(b <= a for a, b in zip(grid, grid[1:])):
            diags.append("sweep.grid: must be strictly increasing")

    for key, names in (("methods", _METHODS), ("metrics", _METRICS)):
        entries = cfg.get(key)
        if not isinstance(entries, list) or not entries:
            diags.append(f"{key}: must be a non-empty list")
        elif not all(m in names for m in entries):
            diags.append(f"{key}: entries must be among {names} (got {entries!r})")
        elif len(set(entries)) != len(entries):
            diags.append(f"{key}: entries must be unique (got {entries!r})")
    metrics = cfg.get("metrics")

    zetas = cfg.get("zeta_db", [])
    if not isinstance(zetas, list):
        diags.append("zeta_db: must be a list of numbers (dB)")
    elif problem := _first_problem(zetas, _DB):
        diags.append(f"zeta_db: entries {problem}")
    elif len({_fmt_zeta(z) for z in zetas}) != len(zetas):
        # the column labels, not the values, must differ
        diags.append("zeta_db: thresholds must differ in their column labels"
                     f" {[_fmt_zeta(z) for z in zetas]}")
    elif isinstance(metrics, list) and not zetas and any(m in metrics for m in _OUTAGES):
        diags.append("zeta_db: outage metrics need at least one threshold")

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
            if any(c in var["name"] for c in ',"') or not _one_line(var["name"]):
                diags.append(f"{p}name: must be CSV-safe: no comma, double quote"
                             f" or line break (got {var['name']!r})")
            _check_section(var, {}, diags, p, ("name", "geometry", "receiver", "eve"),
                           "unknown override section")
            for section, check in section_checks:
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
            axis = cfg["sweep"].get("axis")
            cfg["sweep"] = {**cfg["sweep"],
                            "grid": [_axis_value(axis, v) for v in grid]}
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
            geometry=dict(cfg["geometry"]),
            receiver=dict(cfg["receiver"]),
            eve=dict(cfg.get("eve") or {}),
            axis=cfg["sweep"]["axis"],
            grid=tuple(float(v) for v in cfg["sweep"]["grid"]),
            zeta_db=tuple(float(z) for z in cfg.get("zeta_db", [])),
            metrics=tuple(cfg["metrics"]),
            methods=tuple(cfg["methods"]),
            trials=int(cfg.get("trials", _RUN["trials"].default)),
            seed=int(cfg.get("seed", _RUN["seed"].default)),
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


def _blockage_blend(rx: montecarlo.LinkSpec, value, pair=None) -> float:
    """value(law) of the link's law, or under a blockage mixture
    p_los V_LOS + (1 - p_los) V_NLOS, the NLOS law being the LOS law at
    nlos_mean_snr.  (V_LOS, V_NLOS) is `value` of each law, or pair()
    where one call gives both."""
    if rx.p_los is None:
        return value(rx.fading)
    if pair is None:
        nlos = replace(rx.fading, mean_snr=rx.nlos_mean_snr)
        v_los, v_nlos = value(rx.fading), value(nlos)
    else:
        v_los, v_nlos = pair()
    return rx.p_los * v_los + (1.0 - rx.p_los) * v_nlos


def _sections(sc: Scenario, overrides: dict, axis_value: float):
    """The geometry, receiver and eve sections of one (variant, axis
    value): the variant's overrides over the scenario's, the axis value
    set in the geometry."""
    geo = {**sc.geometry, **overrides.get("geometry", {})}
    if sc.axis == "k":
        geo["n_jammer_antennas"] = int(axis_value)
    elif sc.axis != "snr_r_db":
        geo[sc.axis] = axis_value
    return (geo, {**sc.receiver, **overrides.get("receiver", {})},
            {**sc.eve, **overrides.get("eve", {})})


def _receiver_link(sc: Scenario, geo: dict, rec: dict, axis_value: float):
    """The receiver link of resolved sections: one antenna, as in the
    analytic receiver model, under the double model's law or the Rician
    one with its blockage mixture."""
    snr_r = (
        secrecy.db_to_linear(axis_value) if sc.axis == "snr_r_db"
        else secrecy.mean_snr(secrecy.db_to_linear(geo["p_s_db"]), float(geo["r_sr_m"]),
                              float(geo["delta"]), float(geo["noise_var_r"]))
    )
    if rec["fading"] == "double_kappa_mu_shadowed":
        return montecarlo.LinkSpec(fading=DoubleKappaMuShadowedParams(
            c=float(rec["c"]), s=float(rec["s"]), mu=float(rec["mu"]),
            kappa=float(rec["kappa"]), mean_snr=snr_r))
    m, xi, sigma2 = float(rec["m"]), float(rec["xi"]), float(rec["sigma2"])
    # scale so the stated mean SNR is the distribution mean
    default = _RECEIVER["rician_shadowed"]["normalize_mean"].default
    norm = (xi + 2.0 * sigma2) if rec.get("normalize_mean", default) else 1.0
    p_los = nlos = None
    if "p_los" in rec:
        p_los = float(rec["p_los"])
        loss = secrecy.db_to_linear(-float(rec["nlos_extra_loss_db"]))
        nlos = snr_r * loss / norm
    return montecarlo.LinkSpec(
        fading=RicianShadowedParams(m=m, xi=xi, sigma2=sigma2, mean_snr=snr_r / norm),
        p_los=p_los, nlos_mean_snr=nlos,
    )


class _Point:
    """The fully resolved inputs of one (variant, axis value) evaluation.
    Monte Carlo estimates come from the run-level link streams of the
    scenario's seed; `memo` holds what this run already computed: cell
    values, keyed by the cell and the links its metric reads, and the
    Monte Carlo unit-law link sums (and their sorted copies), which every
    cell scales to its own means.  The eavesdropper SINR is drawn on
    first use, so at most once per point."""

    def __init__(self, sc: Scenario, overrides: dict, axis_value: float,
                 memo: dict):
        geo, rec, eve = _sections(sc, overrides, axis_value)
        self.scenario, self.overrides = sc, overrides
        self.receiver = _receiver_link(sc, geo, rec, axis_value)
        # the double model's law, None for the Rician model
        self.dksm = (self.receiver.fading if rec["fading"] == "double_kappa_mu_shadowed"
                     else None)

        # per-antenna Gamma laws: the intercept over N antennas, the jammer
        # over K, and `eve`, their sums at the eavesdropper: the shapes add
        # over antennas and each link keeps its rate.  With the jammer off
        # (K = 0) `jammer` is None and `eve` has nu_J = 0
        delta = float(geo["delta"])
        p_s = secrecy.db_to_linear(geo["p_s_db"])
        noise_var_e = float(geo["noise_var_e"])
        m_i = int(eve.get("m_i", _EVE["m_i"].default))
        m_j = int(eve.get("m_j", _EVE["m_j"].default))
        n = int(geo["n_bs_antennas"])
        beta_i = m_i / secrecy.mean_snr(p_s, float(geo["r_se_m"]), delta, noise_var_e)
        self.intercept = montecarlo.LinkSpec(
            fading=GammaSnrParams(nu=m_i, beta=beta_i), antennas=n)
        self.jammer = None
        nu_j, beta_j = 0, 1.0  # the jammer off; the rate is unused
        k = int(geo["n_jammer_antennas"])
        if k >= 1:
            nu_j = k * m_j
            beta_j = m_j / secrecy.mean_snr(secrecy.db_to_linear(geo["p_j_db"]),
                                            float(geo["r_je_m"]), delta, noise_var_e)
            self.jammer = montecarlo.LinkSpec(
                fading=GammaSnrParams(nu=m_j, beta=beta_j), antennas=k)
        self.eve = secrecy.EveLinkParams(nu_i=n * m_i, beta_i=beta_i, nu_j=nu_j, beta_j=beta_j)

        self.trials = sc.trials
        self.seed = SamplerSeed(sc.seed)
        self.memo = memo

    @functools.cached_property
    def eve_samples(self):
        return montecarlo.simulate_eve_sinr(
            self.intercept, self.jammer, self.trials, self.seed, self.memo)

    def column_receivers(self) -> list:
        """The receiver link at each grid point of this point's variant,
        in grid order.  A point whose link is invalid is left out: it
        raises when it is evaluated itself."""
        sc, links = self.scenario, []
        for x in sc.grid:
            geo, rec, _ = _sections(sc, self.overrides, x)
            try:
                links.append(_receiver_link(sc, geo, rec, x))
            except ParameterError:
                pass
        return links

    def value(self, metric: str, zeta, method: str):
        """The cell's value, None for NA; once per run for each cell and
        the links its metric reads (variants and grid points often share
        them: fig5's receiver is the same at every jammer size)."""
        th = None if zeta is None else secrecy.db_to_linear(zeta)
        # the key is the cell, by its linear threshold (a column of it is
        # filled at once: `_rician_outage_column`), and the links its
        # metric reads; a hit hashes it (its frozen links, field by field) once
        key = (metric, th, method, *(getattr(self, a) for a in _METRIC_LINKS[metric]))
        value = self.memo.get(key, _MISSING)
        if value is _MISSING:
            value = self.memo[key] = _ROUTES[(metric, method)](self, th)
        return value


def _rician_outage_column(pt: _Point, th: float) -> float:
    """Receiver outage of the Rician model by closed form at pt, taken
    with every grid point of its variant whose cell is not in the run memo
    yet, from one `rician_shadowed_cdf` call; each point's value is kept
    under its own key.  A blockage mixture's NLOS branch is the LOS law at
    another mean, F_NLOS(gamma) = F_LOS(gamma mean_LOS / mean_NLOS), so a
    point gives two thresholds of its LOS law, each under that law's own
    mean.  The call's rows are independent: every value is the one a call
    for its point alone gives, to the bit, whichever points share it."""
    links = [rx for rx in dict.fromkeys((pt.receiver, *pt.column_receivers()))
             if ("outage_r", th, "closed-form", rx) not in pt.memo]
    laws = [rx.fading for rx in links]
    ths = [th] * len(links)
    if pt.receiver.p_los is not None:  # the variant's blockage mixture, at every point
        ths += [th * law.mean_snr / rx.nlos_mean_snr for rx, law in zip(links, laws)]
        laws += laws
    f = secrecy.rician_shadowed_cdf(laws[0], ths, [law.mean_snr for law in laws]).tolist()
    n = len(links)
    for j, rx in enumerate(links):
        pt.memo[("outage_r", th, "closed-form", rx)] = _blockage_blend(
            rx, lambda _: f[j], lambda: (f[j], f[n + j]))
    return pt.memo[("outage_r", th, "closed-form", pt.receiver)]


def _secrecy_capacity(pt: _Point, _, method: str):
    """c_s = (c_r - c_e)^+ of the point's c_r and c_e cells by `method`."""
    c_r, c_e = (pt.value(m, None, method) for m in ("c_r", "c_e"))
    return None if c_r is None or c_e is None else secrecy.secrecy_capacity(c_r, c_e)


# (metric, method) -> fn(point, threshold), a value or None for NA.  The
# entries look up secrecy.* and montecarlo.* functions when called, never
# binding them here, so a rebinding of those names takes effect.
_ROUTES = {
    ("outage_r", "closed-form"): lambda pt, th: (
        None if pt.dksm is not None  # no closed-form CDF
        else _rician_outage_column(pt, th)),
    ("outage_r", "quadrature"): lambda pt, th: (
        dksm_cdf(pt.dksm, th) if pt.dksm is not None
        else _blockage_blend(pt.receiver, lambda law: rician_shadowed_cdf_integral(law, th))),
    ("outage_r", "monte-carlo"): lambda pt, th: montecarlo.receiver_outage(
        pt.receiver, th, pt.trials, pt.seed, pt.memo).value,
    ("outage_e", "closed-form"): lambda pt, th: secrecy.eve_sinr_cdf(pt.eve, th),
    ("outage_e", "quadrature"): lambda pt, th: secrecy.eve_sinr_cdf_integral(pt.eve, th),
    ("outage_e", "monte-carlo"): lambda pt, th:
        montecarlo.estimate_outage(pt.eve_samples, th).value,
    # the closed-form receiver capacity is defined for the double model
    ("c_r", "closed-form"): lambda pt, _: (
        None if pt.dksm is None else secrecy.capacity_receiver_series(pt.dksm, pt.memo)),
    ("c_r", "quadrature"): lambda pt, _: _blockage_blend(
        pt.receiver, secrecy.capacity_receiver_quadrature),
    ("c_r", "monte-carlo"): lambda pt, _: montecarlo.estimate_capacity(
        montecarlo.simulate_receiver_snr(pt.receiver, pt.trials, pt.seed, pt.memo)).value,
    ("c_e", "closed-form"): lambda pt, _: secrecy.capacity_eve_series(pt.eve),
    ("c_e", "quadrature"): lambda pt, _: secrecy.capacity_eve_quadrature(pt.eve),
    ("c_e", "monte-carlo"): lambda pt, _:
        montecarlo.estimate_capacity(pt.eve_samples).value,
    **{("c_s", method): functools.partial(_secrecy_capacity, method=method)
       for method in _METHODS},
}


def _cells(sc: Scenario) -> list:
    """(metric, zeta or None, method) of each of a variant's columns, in
    column order."""
    return [(metric, zeta, method) for metric in sc.metrics
            for zeta in (sc.zeta_db if metric in _OUTAGES else (None,))
            for method in sc.methods]


def _eval_point(sc: Scenario, variant: str, overrides: dict, axis_value: float,
                memo: dict) -> list:
    """The values of the variant's cells at one grid point, in `_cells`
    order.  An AccuracyError leaves with the cell it was raised for as its
    `cell`."""
    pt = _Point(sc, overrides, axis_value, memo)
    values = []
    for metric, zeta, method in _cells(sc):
        try:
            values.append(pt.value(metric, zeta, method))
        except AccuracyError as exc:
            exc.cell = {"variant": variant, "metric": metric, "threshold_db": zeta,
                        "axis": sc.axis, "axis_value": axis_value, "method": method}
            raise
    return values


# A pool worker's memo: set by the pool initializer to its fork of the
# parent's run memo, so it lives exactly as long as the pool of one
# run_scenario call.
_worker_memo = None


def _init_worker(memo):
    global _worker_memo
    _worker_memo = memo


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
    dispatches the grid points after the first to a process pool of at
    most that many workers; output is identical for any worker count.
    """
    if not (isinstance(workers, int) and workers >= 1):
        raise ParameterError(f"workers must be a positive integer (got {workers!r})")
    cfg = load_config(path)
    sc = Scenario.from_config(cfg, seed=seed, trials=trials, methods=methods,
                              grid=grid)

    # one task per (variant, grid point), variant-major.  Monte Carlo
    # streams are keyed by link, not by cell: every cell of a run scales
    # the same unit-law draws (see jamsec.montecarlo)
    tasks = [(sc, name, overrides, x) for name, overrides in sc.variants for x in sc.grid]
    memo = {}
    results = [_eval_point(*tasks[0], memo=memo)]
    rest = tasks[1:]
    if workers > 1 and rest:
        # forked after the first point, the workers inherit the libraries
        # it loaded and the memo it filled instead of each starting cold
        with ProcessPoolExecutor(max_workers=min(workers, len(rest)),
                                 initializer=_init_worker,
                                 initargs=(memo,)) as pool:
            results += pool.map(_eval_task, rest)
    else:
        results += [_eval_point(*t, memo=memo) for t in rest]

    multi = len(sc.variants) > 1
    columns = [sc.axis] + [_column_name(vname if multi else "", *cell)
                           for vname, _ in sc.variants for cell in _cells(sc)]
    # results[pi::n] are point pi's cells of each variant, in variant order
    n = len(sc.grid)
    rows = [(x, *itertools.chain.from_iterable(results[pi::n]))
            for pi, x in enumerate(sc.grid)]

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
        sys.stdout.write(payload)
        return
    with open(destination, "w", newline="") as fh:
        fh.write(payload)
