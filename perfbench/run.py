"""jamsec sweep benchmark.

    python3 perfbench/run.py --workload closed-form --seed 1 --seconds 20 --trace 0

Run from the repository root.  The seed generates scenario files from the
four built-in figures (see scenarios.py); the workload names the single
method every sweep runs with.  Sweeps run in-process through
`jamsec.cli.main(["sweep", ...])`, with `--workers 1`, in passes over
fig2..fig5 until `--seconds` have passed.  Every output cell is then
checked against an independent method (see check.py).

The last line of stdout is one JSON object: `correct`, `attempted` and
`failed` count cells, and `metrics` holds the end-to-end metrics
(`--trace 0`) or the per-layer metrics of the outside-in tracer
(`--trace 1`).  A per-run record and, when traced, the spans are written
under `.perfbench_out/`.  See README.md for the metric definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from time import perf_counter, process_time

# Modules that import jamsec (check, scenarios, tracer, numpy) are imported
# inside the functions: main() first puts the checkout's src/ on sys.path
# and times the import.

WORKLOADS = {
    # workload (= method) -> independent methods its cells are checked against
    "closed-form": ("quadrature",),
    "quadrature": ("closed-form", "monte-carlo"),
    "monte-carlo": ("quadrature",),
}
SETUP_ROUNDS = 3
OUT_DIR = ".perfbench_out"

_IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import jamsec.cli; print(time.perf_counter() - t)"
)

# self-time groups: metric -> traced layer names.  Every name the tracer
# wraps belongs to exactly one group, so the groups add up to the pass.
SELF_GROUPS = {
    "cli.main.self_s": ("cli.main",),
    "scenario.run_scenario.self_s": ("scenario.run_scenario",),
    "scenario.emit.self_s": ("scenario.emit",),
    "secrecy.capacity_receiver_series.self_s": ("secrecy.capacity_receiver_series",),
    "secrecy.capacity_receiver_quadrature.self_s": ("secrecy.capacity_receiver_quadrature",),
    "secrecy.capacity_eve_foxh.self_s": ("secrecy.capacity_eve_foxh",),
    "secrecy.eve_quadrature.self_s": (
        "secrecy.capacity_eve_quadrature",
        "secrecy.capacity_gamma_quadrature",
        "secrecy.eve_sinr_cdf_integral",
    ),
    "secrecy.eve_sinr_cdf.self_s": ("secrecy.eve_sinr_cdf",),
    "fading.rician_shadowed.self_s": (
        "fading.rician_shadowed_cdf",
        "fading.rician_shadowed_pdf",
    ),
    "specfun.meijer_g.self_s": ("specfun.meijer_g",),
    "specfun.fox_h_bivariate.self_s": ("specfun.fox_h_bivariate",),
    "specfun.gauss_2f1.self_s": ("specfun.gauss_2f1",),
    "fading.dksm_pdf.self_s": ("fading.dksm_pdf",),
    "montecarlo.simulate.self_s": (
        "montecarlo.simulate_receiver_snr",
        "montecarlo.simulate_eve_sinr",
    ),
    "montecarlo.estimate.self_s": (
        "montecarlo.estimate_outage",
        "montecarlo.estimate_capacity",
    ),
    "fading.dksm_sample.self_s": ("fading.dksm_sample",),
    "fading.rician_shadowed_sample.self_s": ("fading.rician_shadowed_sample",),
}


def _median(values):
    return statistics.median(values) if values else 0.0


def _ratio(a, b):
    return a / b if b else 0.0


def _unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac"):
        return "1"
    return "count"


def calibrate() -> float:
    """Wall time of a fixed single-threaded numpy/scipy kernel, to tell
    machine drift from a code change."""
    import numpy as np
    import scipy.integrate
    import scipy.special

    t0 = perf_counter()
    rng = np.random.default_rng(0)
    z = np.linspace(0.0, 0.95, 10_000)
    # arrays below glibc's 128 KiB mmap threshold, so that the kernel
    # leaves the allocator (and so peak_rss_mb) as it found it
    for _ in range(40):
        np.sort(rng.gamma(2.5, 1.0, 10_000))
        scipy.special.hyp2f1(1.5, 2.5, 2.0, z)
    for k in range(200):
        scipy.integrate.quad(lambda t: np.exp(-t) * np.log1p(t * (k + 1)), 0.0, np.inf)
    return perf_counter() - t0


def layer_metrics(stats: dict, wall: float) -> dict:
    """Per-layer metrics of one traced pass ({layer name: Stats})."""
    from tracer import Stats

    empty = Stats()

    def get(name):
        return stats.get(name, empty)

    out = {g: sum(get(n).self_s for n in names) for g, names in SELF_GROUPS.items()}
    fox, meijer = get("specfun.fox_h_bivariate"), get("specfun.meijer_g")
    pdf, gauss = get("fading.dksm_pdf"), get("specfun.gauss_2f1")
    series = get("secrecy.capacity_receiver_series")
    rquad = get("secrecy.capacity_receiver_quadrature")
    sims = [get("montecarlo.simulate_receiver_snr"), get("montecarlo.simulate_eve_sinr")]
    out.update({
        "specfun.fox_h_bivariate.calls": fox.calls,
        "specfun.meijer_g.calls": meijer.calls,
        "specfun.gauss_2f1.calls": gauss.calls,
        "fading.dksm_pdf.calls": pdf.calls,
        "fading.dksm_pdf.points": pdf.work,
        "secrecy.capacity_eve_foxh.terms_per_call":
            _ratio(fox.calls, get("secrecy.capacity_eve_foxh").calls),
        "secrecy.capacity_receiver_series.terms_per_call":
            _ratio(meijer.calls, series.calls),
        "secrecy.capacity_receiver_quadrature.pdf_calls_per_call":
            _ratio(pdf.calls, rquad.calls),
        "secrecy.capacity_receiver.calls_per_distinct":
            _ratio(series.calls + rquad.calls, len(series.keys | rquad.keys)),
        "fading.dksm_sample.samples_per_s":
            _ratio(get("fading.dksm_sample").work, get("fading.dksm_sample").total_s),
        "fading.rician_shadowed_sample.samples_per_s":
            _ratio(get("fading.rician_shadowed_sample").work,
                   get("fading.rician_shadowed_sample").total_s),
        "montecarlo.samples_per_s":
            _ratio(sum(s.work for s in sims), sum(s.total_s for s in sims)),
        "specfun.errors": sum(s.errors for n, s in stats.items() if n.startswith("specfun.")),
        "secrecy.errors": sum(s.errors for n, s in stats.items() if n.startswith("secrecy.")),
        "trace.accounted_frac": _ratio(sum(s.self_s for s in stats.values()), wall),
    })
    return out


def per_layer(run: dict, tracer) -> dict:
    traced = [p for p in run["passes"] if p["traced"]]
    plain = [p for p in run["passes"] if not p["traced"]]
    per_pass = [layer_metrics(s, p["wall_s"]) for s, p in zip(tracer.passes, traced)]
    out = {k: _median([m[k] for m in per_pass]) for k in per_pass[0]}
    traced_s = _median([p["wall_s"] for p in traced])
    out.update({
        "setup.import_s": _median(run["setup"]["import_s"]),
        "setup.generate_s": _median(run["setup"]["generate_s"]),
        "setup.validate_s": _median(run["setup"]["validate_s"]),
        "sweep.samples": len(plain),
        "sweep.cpu_s": _median([p["cpu_s"] for p in plain]),
        "drift.calib_s": _median(run["calib_s"]),
        "trace.sweep_s": traced_s,
        "trace.overhead_s": traced_s - _median([p["wall_s"] for p in plain]),
        "check.cells": run["attempted"],
        "check.failed_frac": _ratio(run["failed"], run["attempted"]),
    })
    return out


def sweep(main, path: str, method: str, out: str):
    """One sweep through the CLI; returns its exit code (None if it raised)."""
    try:
        return main(["sweep", path, "--methods", method, "--workers", "1", "--out", out])
    except Exception:
        traceback.print_exc()
        return None


def read_output(code, out: str):
    from check import read_csv

    if code != 0 or not os.path.exists(out):
        return None
    try:
        return read_csv(out)
    except ValueError:
        traceback.print_exc()
        return None


def setup(seed: int, work: str, root_src: str, first_import_s: float):
    """Generate and validate the scenario files SETUP_ROUNDS times.  The
    first round's import time is this process's own; later rounds time the
    import in a fresh interpreter."""
    import jamsec.cli
    import scenarios

    times = {"import_s": [], "generate_s": [], "validate_s": [], "setup_s": []}
    for k in range(SETUP_ROUNDS):
        if k == 0:
            imp = first_import_s
        else:
            probe = subprocess.run(
                [sys.executable, "-c", _IMPORT_PROBE, root_src],
                capture_output=True, text=True, check=True, timeout=120,
            )
            imp = float(probe.stdout.strip().splitlines()[-1])
        t0 = perf_counter()
        files = scenarios.generate(seed, work)
        t1 = perf_counter()
        valid = {fig: jamsec.cli.main(["validate", path]) == 0 for fig, path, _ in files}
        t2 = perf_counter()
        for key, value in (("import_s", imp), ("generate_s", t1 - t0),
                           ("validate_s", t2 - t1), ("setup_s", imp + t2 - t0)):
            times[key].append(value)
    return files, valid, times


def run_passes(files, valid, method, work, seconds, trace):
    """Timed passes over the valid files until `seconds` have passed.  With
    tracing, passes alternate untraced/traced, at least one of each."""
    import jamsec.cli
    from tracer import Tracer

    tracer = Tracer() if trace else None
    passes = []
    start = perf_counter()
    while True:
        traced = trace and len(passes) % 2 == 1
        main = jamsec.cli.main
        if traced:
            tracer.install()
            tracer.begin_pass()
            main = tracer.wrap("cli.main", main)
        outs = {fig: os.path.join(work, f"{fig}.{method}.csv") for fig, _, _ in files}
        for out in outs.values():
            if os.path.exists(out):
                os.remove(out)
        codes = {}
        c0, t0 = process_time(), perf_counter()
        for fig, path, _ in files:
            if not valid[fig]:
                continue
            if traced:
                tracer.trace_id = f"pass{len(passes)}/{fig}"
            codes[fig] = sweep(main, path, method, outs[fig])
        wall, cpu = perf_counter() - t0, process_time() - c0
        if traced:
            tracer.uninstall()
        tables = {fig: read_output(codes.get(fig), outs[fig]) for fig in outs}
        passes.append({"traced": traced, "wall_s": wall, "cpu_s": cpu,
                       "codes": codes, "tables": tables})
        done = perf_counter() - start >= seconds
        if done and (not trace or len(passes) >= 2):
            break
    return passes, tracer


def check_passes(files, valid, method, passes, work):
    """Checks every cell of every pass; reference sweeps are untraced."""
    import jamsec.cli
    from check import Checker

    attempted = failed = 0
    notes = []
    for fig, path, cfg in files:

        def load(ref_method, path=path, fig=fig):
            out = os.path.join(work, f"{fig}.{ref_method}.ref.csv")
            return read_output(sweep(jamsec.cli.main, path, ref_method, out), out)

        checker = Checker(cfg, WORKLOADS[method], load)
        for p in passes:
            table = p["tables"][fig] if valid[fig] else None
            a, f, bad = checker.check(method, table)
            attempted += a
            failed += f
            notes.extend(f"{fig}: {b}" for b in bad)
    return attempted, failed, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "jamsec", "__init__.py")):
        print("perfbench: no src/jamsec here; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    t0 = perf_counter()
    import jamsec.cli
    import_s = perf_counter() - t0
    if not os.path.abspath(jamsec.__file__).startswith(src + os.sep):
        print(f"perfbench: imported jamsec from {jamsec.__file__}, not {src}",
              file=sys.stderr)
        return 2

    os.makedirs(OUT_DIR, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = os.path.join(OUT_DIR, f"work-{tag}-{os.getpid()}")
    os.makedirs(work)
    try:
        files, valid, setup_times = setup(args.seed, work, src, import_s)
        calib = [calibrate()]
        passes, tracer = run_passes(files, valid, args.workload, work,
                                    args.seconds, args.trace)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        calib.append(calibrate())
        attempted, failed, notes = check_passes(files, valid, args.workload,
                                                passes, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    run = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "setup": setup_times, "calib_s": calib,
        "passes": [{k: p[k] for k in ("traced", "wall_s", "cpu_s", "codes")}
                   for p in passes],
        "attempted": attempted, "failed": failed, "failures": notes[:50],
        "peak_rss_mb": peak_rss_mb,
    }
    plain = [p["wall_s"] for p in run["passes"] if not p["traced"]]
    if args.trace:
        metrics = per_layer(run, tracer)
        units = {k: _unit(k) for k in metrics}
        spans = os.path.join(OUT_DIR, f"spans-{tag}.json")
        tracer.dump(spans)
        print(f"perfbench: spans in {spans}", file=sys.stderr)
    else:
        metrics = {
            "sweep_s": _median(plain),
            "setup_s": _median(setup_times["setup_s"]),
            "peak_rss_mb": peak_rss_mb,
        }
        units = {"sweep_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
    run["metrics"] = metrics
    with open(os.path.join(OUT_DIR, f"run-{tag}.json"), "w") as fh:
        json.dump(run, fh, indent=1)

    for p in run["passes"]:
        print(f"perfbench: pass traced={int(p['traced'])} wall {p['wall_s']:.3f} s"
              f" cpu {p['cpu_s']:.3f} s", file=sys.stderr)
    print(f"perfbench: sweep_s median of {len(plain)}; calibration kernel "
          f"{', '.join('%.3f s' % c for c in calib)}", file=sys.stderr)
    for note in notes[:20]:
        print(f"perfbench: failed cell {note}", file=sys.stderr)

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
