"""Tests of the benchmark's own pieces: the cell check, the outside-in
tracer and the seeded generator.

    python3 -m pytest perfbench/test_bench.py
"""

import json
import os
import sys

import yaml

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import jamsec.cli  # noqa: E402
import jamsec.secrecy  # noqa: E402
import jamsec.specfun  # noqa: E402
import run  # noqa: E402
import scenarios  # noqa: E402
from check import Checker, expected_cells  # noqa: E402
from tracer import PATCHES, Tracer  # noqa: E402


def _write(cfg, path):
    with open(path, "w") as fh:
        yaml.safe_dump(cfg, fh)
    return str(path)


def _known_bad_receiver():
    """The receiver point where capacity_receiver_series raises
    ConvergenceError (c=0.5, s=2.5, mu=3, kappa=10 at 20 dB mean SNR)."""
    cfg = scenarios.shipped_config("fig5")
    cfg.update(name="bad-receiver", metrics=["c_r"], variants=[])
    cfg["receiver"].update(c=0.5, s=2.5, mu=3.0, kappa=10.0)
    cfg["sweep"]["grid"] = [20.0]
    return cfg


def test_known_bad_receiver_point_counts_as_failed_cells(tmp_path):
    bad = _known_bad_receiver()
    good = scenarios.shipped_config("fig3")
    good["sweep"]["grid"] = [1.0, 10.0]
    files = [("bad", _write(bad, tmp_path / "bad.yaml"), bad),
             ("good", _write(good, tmp_path / "good.yaml"), good)]
    valid = {"bad": True, "good": True}

    passes, _ = run.run_passes(files, valid, "closed-form", str(tmp_path), 0.0, False)
    assert passes[0]["codes"] == {"bad": 2, "good": 0}
    attempted, failed, notes = run.check_passes(files, valid, "closed-form",
                                                passes, str(tmp_path))

    assert attempted == expected_cells(bad) + expected_cells(good) == 1 + 4
    assert failed == 1
    assert notes == ["bad: whole sweep"]


def test_wrong_number_fails_its_cell(tmp_path):
    cfg = scenarios.shipped_config("fig3")
    cfg["sweep"]["grid"] = [1.0, 10.0]
    path = _write(cfg, tmp_path / "fig3.yaml")
    tables = {}
    for method in ("closed-form", "quadrature", "monte-carlo"):
        out = str(tmp_path / f"{method}.csv")
        tables[method] = run.read_output(run.sweep(jamsec.cli.main, path, method, out), out)
    for method, refs in run.WORKLOADS.items():
        checker = Checker(cfg, refs, tables.get)
        assert checker.check(method, tables[method])[1] == 0
        columns, rows = tables[method]
        bent = [list(r) for r in rows]
        bent[1][1] *= 1.001 if method != "monte-carlo" else 1.2
        assert checker.check(method, (columns, bent))[1] == 1


def test_tracer_patches_the_binding_names():
    before = {(m, a): getattr(sys.modules[m], a) for m, a, _, _ in PATCHES}
    tracer = Tracer()
    tracer.install()
    try:
        tracer.begin_pass()
        rec = scenarios.shipped_config("fig5")["receiver"]
        params = jamsec.fading.DoubleKappaMuShadowedParams(
            c=rec["c"], s=rec["s"], mu=rec["mu"], kappa=rec["kappa"], mean_snr=10.0)
        jamsec.secrecy.capacity_receiver_series(params)
    finally:
        tracer.uninstall()
    stats = tracer.passes[0]
    assert stats["specfun.meijer_g"].calls > 0
    series = stats["secrecy.capacity_receiver_series"]
    assert series.calls == 1
    assert 0.0 < series.self_s < series.total_s
    assert {(m, a): getattr(sys.modules[m], a) for m, a, _, _ in PATCHES} == before
    assert jamsec.specfun.meijer_g is jamsec.secrecy.meijer_g


def test_every_traced_layer_has_one_self_time_group():
    names = [n for group in run.SELF_GROUPS.values() for n in group]
    assert sorted(names) == sorted(["cli.main"] + [p[2] for p in PATCHES])


def test_per_layer_names_match_benchmark_json():
    tracer = Tracer()
    tracer.begin_pass()
    fake = {
        "passes": [{"traced": False, "wall_s": 1.0, "cpu_s": 1.0},
                   {"traced": True, "wall_s": 1.1, "cpu_s": 1.1}],
        "setup": {"import_s": [1.0], "generate_s": [0.1], "validate_s": [0.1]},
        "calib_s": [0.2], "attempted": 1, "failed": 0,
    }
    emitted = {k: run._unit(k) for k in run.per_layer(fake, tracer)}
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        declared = {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}
    assert emitted == declared


def test_generator_is_seeded_and_valid(tmp_path):
    a = scenarios.generate(7, str(tmp_path))
    texts = [open(p).read() for _, p, _ in a]
    for fig, path, cfg in a:
        assert jamsec.cli.main(["validate", path]) == 0
        assert cfg.get("variants") == scenarios.shipped_config(fig).get("variants")
    assert [len(cfg["sweep"]["grid"]) for _, _, cfg in a][::3] == [16, 2]
    b = scenarios.generate(7, str(tmp_path))
    assert [open(p).read() for _, p, _ in b] == texts
    c = scenarios.generate(8, str(tmp_path))
    assert [cfg["sweep"]["grid"] for _, _, cfg in c] != [cfg["sweep"]["grid"] for _, _, cfg in a]
