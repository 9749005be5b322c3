"""Outside-in tracer for the jamsec layers.

The tracer wraps each public entry point at the name its caller binds:
`secrecy` imports `meijer_g`, `fox_h_bivariate` and `dksm_pdf` by name,
so the wrapper has to replace `jamsec.secrecy.meijer_g`, not
`jamsec.specfun.meijer_g`.  Nothing inside `src/` knows it is traced.

Every wrapped call becomes a frame on a stack.  When it returns, its
duration is charged to the parent frame's child time, so a layer's self
time is its duration minus the part covered by its children.  Ordinary
calls are also kept as spans (trace id, span id, parent id, name, start,
end) in memory until `dump`; hot leaves (thousands of calls per sweep)
only update their counters.
"""

from __future__ import annotations

import importlib
import json
import sys
from time import perf_counter

from jamsec.errors import AccuracyError, ConvergenceError

# (module that binds the name, attribute, layer name, hot leaf)
PATCHES = (
    ("jamsec.cli", "run_scenario", "scenario.run_scenario", False),
    ("jamsec.cli", "emit", "scenario.emit", False),
    ("jamsec.secrecy", "capacity_receiver_series", "secrecy.capacity_receiver_series", False),
    ("jamsec.secrecy", "capacity_receiver_quadrature", "secrecy.capacity_receiver_quadrature", False),
    ("jamsec.secrecy", "capacity_eve_foxh", "secrecy.capacity_eve_foxh", False),
    ("jamsec.secrecy", "capacity_eve_quadrature", "secrecy.capacity_eve_quadrature", False),
    ("jamsec.secrecy", "capacity_gamma_quadrature", "secrecy.capacity_gamma_quadrature", False),
    ("jamsec.secrecy", "eve_sinr_cdf_integral", "secrecy.eve_sinr_cdf_integral", False),
    ("jamsec.secrecy", "eve_sinr_cdf", "secrecy.eve_sinr_cdf", False),
    ("jamsec.secrecy", "rician_shadowed_cdf", "fading.rician_shadowed_cdf", False),
    ("jamsec.scenario", "rician_shadowed_pdf", "fading.rician_shadowed_pdf", True),
    ("jamsec.secrecy", "meijer_g", "specfun.meijer_g", False),
    ("jamsec.secrecy", "fox_h_bivariate", "specfun.fox_h_bivariate", False),
    ("jamsec.secrecy", "dksm_pdf", "fading.dksm_pdf", True),
    ("jamsec.fading", "gauss_2f1", "specfun.gauss_2f1", True),
    ("jamsec.montecarlo", "simulate_receiver_snr", "montecarlo.simulate_receiver_snr", False),
    ("jamsec.montecarlo", "simulate_eve_sinr", "montecarlo.simulate_eve_sinr", False),
    ("jamsec.montecarlo", "estimate_outage", "montecarlo.estimate_outage", False),
    ("jamsec.montecarlo", "estimate_capacity", "montecarlo.estimate_capacity", False),
    ("jamsec.montecarlo", "dksm_sample", "fading.dksm_sample", False),
    ("jamsec.montecarlo", "rician_shadowed_sample", "fading.rician_shadowed_sample", False),
)

_NUMERIC_ERRORS = (AccuracyError, ConvergenceError)


def _size(x) -> int:
    return int(getattr(x, "size", 1))


def _work(name, args, kwargs, result) -> int:
    """Units of work a call did: points for densities, draws for samplers,
    trials for the simulators, 0 elsewhere."""
    if name == "fading.dksm_pdf":
        return _size(args[1] if len(args) > 1 else kwargs["gamma"])
    if name in ("fading.dksm_sample", "fading.rician_shadowed_sample"):
        return int(args[2] if len(args) > 2 else kwargs["n"])
    if name.startswith("montecarlo.simulate"):
        return _size(result)
    return 0


class Stats:
    """Counters of one layer name over one traced pass."""

    __slots__ = ("calls", "total_s", "self_s", "work", "errors", "keys")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.work = 0
        self.errors = 0
        self.keys = set()


class Tracer:
    """Install with `install()`, start each traced pass with `begin_pass`,
    then `uninstall()`.  `passes` holds one {name: Stats} per pass; set
    `trace_id` before each request so its spans share one identifier."""

    def __init__(self):
        self.spans = []
        self.passes = []
        self.missing = []
        self._stack = []
        self._saved = []
        self.trace_id = ""
        self._next_id = 0

    def begin_pass(self) -> None:
        self.passes.append({})

    def wrap(self, name, fn, hot=False):
        stack = self._stack

        def traced(*args, **kwargs):
            if hot:
                span_id = None
            else:
                span_id = self._next_id
                self._next_id += 1
            parent = stack[-1][1] if stack else None
            frame = [0.0, span_id]  # child time, span id
            stack.append(frame)
            start = perf_counter()
            result = None
            done = failed = False
            try:
                result = fn(*args, **kwargs)
                done = True
                return result
            except _NUMERIC_ERRORS:
                failed = True
                raise
            finally:
                end = perf_counter()
                stack.pop()
                dur = end - start
                if stack:
                    stack[-1][0] += dur
                stats = self.passes[-1].get(name)
                if stats is None:
                    stats = self.passes[-1][name] = Stats()
                stats.calls += 1
                stats.total_s += dur
                stats.self_s += dur - frame[0]
                stats.errors += failed
                if done:
                    stats.work += _work(name, args, kwargs, result)
                if name.startswith("secrecy.capacity_receiver") and args:
                    stats.keys.add(args[0])
                if not hot:
                    self.spans.append(
                        (self.trace_id, span_id, parent, name, start, end)
                    )

        return traced

    def install(self) -> None:
        for module_name, attr, name, hot in PATCHES:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            self._saved.append((module, attr, fn))
            setattr(module, attr, self.wrap(name, fn, hot))
        for entry in self.missing:
            print(f"perfbench: {entry} not found, not traced", file=sys.stderr)

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def dump(self, path: str) -> None:
        doc = {
            "fields": ["trace", "span", "parent", "name", "start", "end"],
            "spans": self.spans,
            "passes": [
                {
                    name: {
                        "calls": s.calls,
                        "total_s": s.total_s,
                        "self_s": s.self_s,
                        "work": s.work,
                        "errors": s.errors,
                    }
                    for name, s in sorted(p.items())
                }
                for p in self.passes
            ],
            "not_traced": self.missing,
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)
