"""Seeded scenario files drawn from the four built-in figures.

The workload seed sets each scenario's `seed` (the Monte Carlo streams)
and draws its sweep grid: the axis range, with each end moved by up to 5%
of the span, in the shipped grid's spacing (log spacing for `r_je_m`,
linear for the dB axes).  The deterministic methods therefore see new
inputs on a held-out seed too.

The point count is drawn (shipped count +-1) for fig3 and fig4.  fig2
keeps its shipped count and fig5 keeps its two axis ends only (every
variant stays): fig2 sets `sweep_s` on monte-carlo and fig5 on
closed-form and quadrature, so a drawn count there would move `sweep_s`
between seeds by more than its bound.  A closed-form fig5 point costs
about 5 s, which is why fig5 is thinned to two points.
"""

from __future__ import annotations

import importlib.resources
import math
import os

import numpy as np
import yaml

FIGURES = ("fig2", "fig3", "fig4", "fig5")
DRAWN_COUNT = ("fig3", "fig4")
THINNED = {"fig5": 2}
RANGE_JITTER = 0.05


def shipped_config(figure: str) -> dict:
    res = importlib.resources.files("jamsec") / "scenarios" / f"{figure}.yaml"
    return yaml.safe_load(res.read_text())


def draw_grid(rng, shipped, log_spacing: bool, count: int) -> list:
    lo, hi = float(shipped[0]), float(shipped[-1])
    if log_spacing:
        lo, hi = math.log(lo), math.log(hi)
    pad = RANGE_JITTER * (hi - lo)
    lo += rng.uniform(-pad, pad)
    hi += rng.uniform(-pad, pad)
    points = np.linspace(lo, hi, count)
    if log_spacing:
        points = np.exp(points)
    return [float("%.6g" % v) for v in points]


def generate(seed: int, out_dir: str) -> list:
    """Write one scenario file per figure into `out_dir`.

    Returns [(figure, path, config)]; the same seed gives the same files.
    """
    rng = np.random.default_rng(seed)
    files = []
    for figure in FIGURES:
        cfg = shipped_config(figure)
        cfg["seed"] = int(rng.integers(0, 2**31))
        sweep = cfg["sweep"]
        shipped = sweep["grid"]
        count = THINNED.get(figure, len(shipped))
        if figure in DRAWN_COUNT:
            count += int(rng.integers(-1, 2))
        sweep["grid"] = draw_grid(rng, shipped, sweep["axis"] == "r_je_m", count)
        path = os.path.join(out_dir, f"{figure}.yaml")
        with open(path, "w") as fh:
            yaml.safe_dump(cfg, fh, sort_keys=False)
        files.append((figure, path, cfg))
    return files
