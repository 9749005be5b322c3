"""Cell-level correctness of sweep outputs.

A cell fails when
  * it is NA where its method applies,
  * it is not finite, or
  * it disagrees with an independent method: closed form and quadrature
    by more than REL_TOL relative, Monte Carlo by more than MC_SIGMAS
    standard errors from the deterministic value.

A sweep that raised or exited non-zero (table None) fails all its cells.
The only NA the methods are documented to emit is the closed-form
eavesdropper capacity (and so the secrecy capacity) with the jammer off.
"""

from __future__ import annotations

import math

import numpy as np

from jamsec.fading import DoubleKappaMuShadowedParams, SamplerSeed, dksm_sample

REL_TOL = 1e-6
MC_SIGMAS = 5.0
PILOT_TRIALS = 40_000
PILOT_SEED = 20_201_016


def read_csv(path: str):
    """(columns, rows) of an emitted CSV table; NA cells are None."""
    columns = None
    rows = []
    with open(path) as fh:
        for line in fh:
            line = line.rstrip("\n")
            if not line or line.startswith("#"):
                continue
            if columns is None:
                columns = line.split(",")
            else:
                rows.append([None if c == "NA" else float(c) for c in line.split(",")])
    if columns is None:
        raise ValueError(f"{path}: no header row")
    return columns, rows


def expected_cells(cfg: dict) -> int:
    variants = len(cfg.get("variants") or [None])
    zetas = len(cfg.get("zeta_db") or [])
    per_variant = sum(zetas if m.startswith("outage") else 1 for m in cfg["metrics"])
    return len(cfg["sweep"]["grid"]) * variants * per_variant


def _split(column: str):
    """'k4/c_e#closed-form' -> ('k4', 'c_e', 'closed-form')."""
    base, _, method = column.rpartition("#")
    variant, _, rest = base.rpartition("/")
    return variant, rest.split("@")[0], method


def _resolve(cfg: dict, variant: str, axis_value: float):
    """Geometry, receiver and eve sections of one cell, overrides applied."""
    over = next((v for v in cfg.get("variants") or [] if v["name"] == variant), {})
    geo = {**cfg["geometry"], **over.get("geometry", {})}
    rec = {**cfg["receiver"], **over.get("receiver", {})}
    eve = {**(cfg.get("eve") or {}), **over.get("eve", {})}
    axis = cfg["sweep"]["axis"]
    if axis == "k":
        geo["n_jammer_antennas"] = int(axis_value)
    elif axis != "snr_r_db":
        geo[axis] = axis_value
    return geo, rec, eve


def _jammer_on(geo: dict) -> bool:
    return geo["n_jammer_antennas"] >= 1 and "p_j_db" in geo


def _snr(p_db, r, geo, noise_key):
    return 10.0 ** (p_db / 10.0) * r ** (-geo["delta"]) / geo[noise_key]


def method_applies(cfg: dict, variant: str, metric: str, method: str,
                   axis_value: float) -> bool:
    if method != "closed-form" or metric not in ("c_e", "c_s"):
        return True
    return _jammer_on(_resolve(cfg, variant, axis_value)[0])


class _Pilot:
    """Standard deviation of log2(1 + SNR) per cell from a small independent
    simulation; it only scales the Monte Carlo tolerance."""

    def __init__(self, cfg: dict):
        self.cfg = cfg
        self.cache = {}

    def _receiver(self, geo, rec, axis_value):
        if self.cfg["sweep"]["axis"] == "snr_r_db":
            mean = 10.0 ** (axis_value / 10.0)
        else:
            mean = _snr(geo["p_s_db"], geo["r_sr_m"], geo, "noise_var_r")
        params = DoubleKappaMuShadowedParams(
            c=float(rec["c"]), s=float(rec["s"]), mu=float(rec["mu"]),
            kappa=float(rec["kappa"]), mean_snr=mean,
        )
        return dksm_sample(params, SamplerSeed(PILOT_SEED), PILOT_TRIALS)

    def _eve(self, geo, eve):
        rng = np.random.default_rng(PILOT_SEED)
        m_i, m_j = int(eve.get("m_i", 1)), int(eve.get("m_j", 1))
        snr_i = _snr(geo["p_s_db"], geo["r_se_m"], geo, "noise_var_e")
        sinr = rng.gamma(geo["n_bs_antennas"] * m_i, snr_i / m_i, PILOT_TRIALS)
        if _jammer_on(geo):
            snr_j = _snr(geo["p_j_db"], geo["r_je_m"], geo, "noise_var_e")
            sinr /= 1.0 + rng.gamma(geo["n_jammer_antennas"] * m_j, snr_j / m_j,
                                    PILOT_TRIALS)
        return sinr

    def std(self, variant: str, metric: str, axis_value: float) -> float:
        key = (variant, metric, axis_value)
        if key not in self.cache:
            geo, rec, eve = _resolve(self.cfg, variant, axis_value)
            if metric == "c_r":
                snr = self._receiver(geo, rec, axis_value)
            else:
                snr = self._eve(geo, eve)
            self.cache[key] = float(np.std(np.log2(1.0 + snr), ddof=1))
        return self.cache[key]


def standard_error(cfg, pilot, variant, metric, axis_value, reference) -> float:
    trials = int(cfg.get("trials", 100_000))
    if metric.startswith("outage"):
        p = min(max(reference, 0.0), 1.0)
        return math.sqrt(p * (1.0 - p) / trials)
    if metric == "c_s":
        std2 = sum(pilot.std(variant, m, axis_value) ** 2 for m in ("c_r", "c_e"))
        return math.sqrt(std2 / trials)
    return pilot.std(variant, metric, axis_value) / math.sqrt(trials)


def agree(method, value, ref_method, ref, se) -> bool:
    if "monte-carlo" in (method, ref_method):
        return abs(value - ref) <= MC_SIGMAS * se
    return abs(value - ref) <= REL_TOL * max(abs(value), abs(ref))


class Checker:
    """Checks the tables of one scenario file against reference sweeps.

    `load_reference(method)` returns the (columns, rows) of a sweep of the
    same file with another method, or None if that sweep failed; the
    references are loaded in order, each only when the previous ones leave
    a cell unchecked, and cached.
    """

    def __init__(self, cfg: dict, ref_methods, load_reference):
        self.cfg = cfg
        self.ref_methods = tuple(ref_methods)
        self._load = load_reference
        self._refs = {}
        self._pilot = _Pilot(cfg)

    def _reference(self, ref_method, column_base, row):
        if ref_method not in self._refs:
            table = self._load(ref_method)
            index = None
            if table is not None:
                index = {c: i for i, c in enumerate(table[0])}
            self._refs[ref_method] = (table, index)
        table, index = self._refs[ref_method]
        if table is None:
            return None
        col = index.get(f"{column_base}#{ref_method}")
        if col is None or row >= len(table[1]):
            return None
        return table[1][row][col]

    def _cell_ok(self, method, column, row, axis_value, value) -> bool:
        variant, metric, col_method = _split(column)
        if col_method != method:
            return False
        applies = method_applies(self.cfg, variant, metric, method, axis_value)
        if value is None:
            return not applies
        if not math.isfinite(value):
            return False
        base = column.rpartition("#")[0]
        for ref_method in self.ref_methods:
            ref = self._reference(ref_method, base, row)
            if ref is None:
                continue
            se = 0.0
            if "monte-carlo" in (method, ref_method):
                deterministic = value if ref_method == "monte-carlo" else ref
                se = standard_error(self.cfg, self._pilot, variant, metric,
                                    axis_value, deterministic)
            return agree(method, value, ref_method, ref, se)
        return False

    def check(self, method: str, table) -> tuple:
        """(attempted, failed, failing cell names) for one output table."""
        attempted = expected_cells(self.cfg)
        if table is None:
            return attempted, attempted, ["whole sweep"]
        columns, rows = table
        grid = self.cfg["sweep"]["grid"]
        passed = 0
        bad = []
        for r, row in enumerate(rows[: len(grid)]):
            if len(row) != len(columns) or row[0] != float(grid[r]):
                bad.append(f"row {r}: malformed or axis != {grid[r]}")
                continue
            for c in range(1, len(columns)):
                if self._cell_ok(method, columns[c], r, row[0], row[c]):
                    passed += 1
                else:
                    bad.append(f"{columns[c]} at {row[0]}: {row[c]}")
        passed = min(passed, attempted)
        return attempted, attempted - passed, bad
