import io
import json
import math
import re
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import yaml

from jamsec import cli, fading, scenario, secrecy
from jamsec.errors import AccuracyError, ParameterError
from jamsec.fading import GammaSnrParams, RicianShadowedParams, SamplerSeed, gamma_cdf
from jamsec.montecarlo import LinkSpec, estimate_capacity, simulate_eve_sinr
from jamsec.scenario import (
    _YAML_LOADER,
    ResultTable,
    Scenario,
    ScenarioError,
    builtin_scenarios,
    emit,
    load_config,
    run_scenario,
    validate_config,
)


def _col(table, name):
    return [r[table.columns.index(name)] for r in table.rows]


def _imported(run):
    """Modules a `python -X importtime` run loaded, from its stderr."""
    return {line.rsplit("|", 1)[-1].strip() for line in run.stderr.splitlines()
            if line.startswith("import time:")}


def _fig5_intercept(cfg, p_s_db):
    """The eavesdropper's intercept link of fig5 at source power p_s_db."""
    geo, m_i = cfg["geometry"], cfg["eve"]["m_i"]
    snr_i = secrecy.mean_snr(secrecy.db_to_linear(p_s_db), geo["r_se_m"],
                             geo["delta"], geo["noise_var_e"])
    return LinkSpec(fading=GammaSnrParams(nu=m_i, beta=m_i / snr_i),
                    antennas=geo["n_bs_antennas"])


class TestConfigs:
    def test_builtin_catalog(self):
        cat = builtin_scenarios()
        for name in ("fig2", "fig3", "fig4", "fig5"):
            assert name in cat

    def test_all_builtins_validate(self):
        for name in builtin_scenarios():
            cfg = load_config(name)
            assert validate_config(cfg) == [], name

    def test_missing_file(self):
        with pytest.raises(OSError):
            load_config("/nonexistent/path.yaml")
        with pytest.raises(ScenarioError):
            load_config("not-a-builtin")

    def test_builtins_parse_alike_under_both_loaders(self, monkeypatch):
        want = {name: load_config(name) for name in builtin_scenarios()}
        monkeypatch.setattr(scenario, "_YAML_LOADER", yaml.SafeLoader)
        assert {name: load_config(name) for name in want} == want

    def test_bad_yaml_reports_location(self, tmp_path, monkeypatch):
        f = tmp_path / "broken.yaml"
        f.write_text("name: x\ngeometry: [unclosed\n")
        for loader in (_YAML_LOADER, yaml.SafeLoader):  # libyaml's, then PyYAML's
            monkeypatch.setattr(scenario, "_YAML_LOADER", loader)
            with pytest.raises(ScenarioError) as exc:
                load_config(str(f))
            assert "line" in str(exc.value), loader

    def test_validate_range_diagnostics(self):
        cfg = load_config("fig2")
        cfg["receiver"]["p_los"] = 1.3
        cfg["receiver"]["normalize_mean"] = "no"
        cfg["variants"][0]["receiver"]["m"] = -1
        diags = validate_config(cfg)
        assert any(d.startswith("receiver.p_los:") and "1.3" in d for d in diags)
        assert any(d.startswith("receiver.normalize_mean:") and "'no'" in d
                   for d in diags)
        # override values are checked on the merged mapping, and the base's
        # own problems are not repeated under each variant
        assert any(d.startswith("variants[0].receiver.m:") and "-1" in d
                   for d in diags)
        assert len(diags) == 3, diags

    def test_validate_shape_bound(self):
        cfg = load_config("fig5")
        cfg["receiver"]["s"] = 0.9
        diags = validate_config(cfg)
        assert any("receiver.s" in d and "0.9" in d for d in diags)

    def test_validate_empty_grid(self):
        cfg = load_config("fig3")
        cfg["sweep"]["grid"] = []
        diags = validate_config(cfg)
        assert any("grid" in d for d in diags)

    def test_unknown_keys_rejected_with_suggestion(self):
        cfg = load_config("fig5")
        cfg["seeed"] = 3
        cfg["geometry"]["r_je"] = 2.0
        cfg["receiver"]["kapa"] = 1.0
        cfg["eve"]["mi"] = 1
        cfg["sweep"]["grids"] = [1.0]
        diags = validate_config(cfg)
        for key, near in (("seeed", "seed"), ("geometry.r_je", "r_je_m"),
                          ("receiver.kapa", "kappa"), ("eve.mi", "m_i"),
                          ("sweep.grids", "grid")):
            assert any(d.startswith(f"{key}:") and f"'{near}'" in d
                       for d in diags), (key, diags)
        assert len(diags) == 5

    def test_unknown_keys_in_variant_overrides(self):
        cfg = load_config("fig5")
        cfg["variants"][1]["geometry"]["n_jammer_antenna"] = 3
        cfg["variants"][2]["receiver"] = {"p_los": 0.5}
        cfg["variants"][3]["eves"] = {"m_i": 2}
        # switching the fading model leaves the base model's keys unread
        cfg["variants"][4]["receiver"] = {"fading": "rician_shadowed", "m": 1.0,
                                          "xi": 1.0, "sigma2": 0.5}
        diags = validate_config(cfg)
        assert any(d.startswith("variants[1].geometry.n_jammer_antenna:")
                   and "'n_jammer_antennas'" in d for d in diags)
        # p_los belongs to the other receiver model
        assert any(d.startswith("variants[2].receiver.p_los:")
                   and "double_kappa_mu_shadowed" in d for d in diags)
        assert any(d.startswith("variants[3].eves:") and "'eve'" in d
                   for d in diags)
        assert len(diags) == 3

    def test_k_sweep_needs_jammer_power(self):
        # a k sweep sets K itself: without p_j_db its K >= 1 points used to
        # run with the jammer off, giving the K = 0 values
        cfg = load_config("fig3")
        cfg["sweep"] = {"axis": "k", "grid": [0, 1, 2]}
        cfg["geometry"]["n_jammer_antennas"] = 0
        del cfg["geometry"]["p_j_db"]
        want = ["geometry.p_j_db: required when the k sweep reaches K >= 1"]
        assert validate_config(cfg) == want
        # each variant's merged geometry too; the base's problem is not repeated
        cfg["variants"] = [{"name": "on", "geometry": {"p_j_db": 5.0}},
                           {"name": "off", "geometry": {"r_je_m": 2.0}}]
        assert validate_config(cfg) == want
        assert validate_config({**cfg, "sweep": {"axis": "k", "grid": [0]}}) == []

    def test_k_sweep_runs_the_jammer(self, tmp_path):
        cfg = load_config("fig3")
        cfg["sweep"] = {"axis": "k", "grid": [0, 1, 2]}
        cfg["geometry"]["n_jammer_antennas"] = 0
        f = tmp_path / "k.yaml"
        f.write_text(yaml.safe_dump(cfg))
        table = run_scenario(str(f), methods=["closed-form"])
        assert len({r[1:] for r in table.rows}) == 3

    @pytest.mark.parametrize("section, key, value", [
        ("geometry", "p_s_db", math.nan),
        ("geometry", "delta", math.nan),
        ("geometry", "r_sr_m", math.inf),
        ("receiver", "kappa", -math.inf),
        # an int no float can hold
        pytest.param("receiver", "mu", 10**400, id="receiver-mu-huge-int"),
    ])
    def test_non_finite_numbers_rejected(self, section, key, value):
        cfg = load_config("fig3")
        cfg[section][key] = value
        assert validate_config(cfg) == [f"{section}.{key}: must be finite (got {value})"]

    def test_non_finite_grid_and_thresholds_rejected(self):
        cfg = load_config("fig3")
        cfg["sweep"]["grid"] = [0.5, math.nan, 2.0]
        cfg["zeta_db"] = [-8.0, math.nan]
        diags = validate_config(cfg)
        assert [d.split(":")[0] for d in diags] == ["sweep.grid", "zeta_db"], diags
        assert all("must be finite" in d for d in diags)

    @pytest.mark.parametrize("key, value", [
        ("metrics", ["outage_e", "outage_e"]),
        ("methods", ["closed-form", "quadrature", "closed-form"]),
        # distinct values, one column label: both read outage_e@-8dB
        ("zeta_db", [-8, -8.0000001]),
        # a line break in the name writes a bare line above the header
        ("name", "fig3\nagain"),
    ])
    def test_columns_unique_and_csv_safe(self, key, value):
        cfg = load_config("fig3")
        cfg[key] = value
        diags = validate_config(cfg)
        assert len(diags) == 1 and diags[0].startswith(f"{key}:"), diags

    @pytest.mark.parametrize("name", ["a,b", 'say "a"', "a\nb"])
    def test_variant_names_csv_safe(self, name):
        # a comma would give the CSV header one more field than each row
        cfg = load_config("fig2")
        cfg["variants"][0]["name"] = name
        diags = validate_config(cfg)
        assert len(diags) == 1 and diags[0].startswith("variants[0].name:"), diags

    @pytest.mark.parametrize("fig, path, value, field", [
        ("fig3", ("geometry", "p_s_db"), 4000, "geometry.p_s_db"),
        ("fig3", ("geometry", "p_j_db"), -4000.0, "geometry.p_j_db"),
        ("fig2", ("receiver", "nlos_extra_loss_db"), -4000, "receiver.nlos_extra_loss_db"),
        ("fig4", ("variants", 0, "geometry", "p_j_db"), 4000, "variants[0].geometry.p_j_db"),
        ("fig3", ("zeta_db",), [-8.0, 4000.0], "zeta_db"),
        ("fig4", ("sweep", "grid"), [10, 4000], "sweep.grid"),
        ("fig2", ("sweep", "grid"), [-4000, 0], "sweep.grid"),
    ])
    def test_db_levels_convert_to_a_finite_double(self, fig, path, value, field):
        # 10**(x/10) overflowed past ~3083 dB, crashing the run
        cfg = load_config(fig)
        node = cfg
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        diags = validate_config(cfg)
        assert len(diags) == 1 and diags[0].startswith(f"{field}:"), diags
        assert "between -3000 and 3000 dB" in diags[0]
        node[path[-1]] = ([-3000.0, 3000.0] if isinstance(value, list)
                          else math.copysign(3000.0, value))
        assert validate_config(cfg) == []

    def test_grid_entries_take_the_axis_kind(self):
        cfg = load_config("fig3")
        cfg["sweep"]["grid"] = [-1.0, 2.0]  # a distance
        assert validate_config(cfg) == ["sweep.grid: entries must be > 0.0 (got -1.0)"]
        cfg["sweep"] = {"axis": "k", "grid": [0, 1.5]}
        assert validate_config(cfg) == [
            "sweep.grid: entries must be an integer >= 0 (got 1.5)"]

    def test_list_valued_switches_are_diagnostics(self):
        # a list is unhashable: looking it up in a key table used to raise
        cfg = load_config("fig3")
        cfg["receiver"]["fading"] = ["rician_shadowed"]
        cfg["sweep"]["axis"] = ["k"]
        diags = validate_config(cfg)
        assert [d.split(":")[0] for d in diags] == ["receiver.fading", "sweep.axis"]

    def test_defaults_applied_once(self, tmp_path):
        # every key that may be left out, stated at its README default
        cfg = load_config("fig2")
        cfg["geometry"].update(n_jammer_antennas=1, p_j_db=5.0)
        cfg["metrics"] = ["outage_r", "outage_e", "c_e"]
        cfg.update(trials=100000, seed=0, eve={"m_i": 1, "m_j": 1})
        cfg["receiver"]["normalize_mean"] = True
        left_out = {k: v for k, v in cfg.items() if k not in ("trials", "seed", "eve")}
        left_out["receiver"] = {k: v for k, v in cfg["receiver"].items()
                                if k != "normalize_mean"}
        cfg_off = {**cfg, "receiver": {**cfg["receiver"], "normalize_mean": False}}
        tables = []
        for name, c in (("stated", cfg), ("left_out", left_out), ("off", cfg_off)):
            f = tmp_path / f"{name}.yaml"
            f.write_text(yaml.safe_dump(c))
            tables.append(run_scenario(str(f), grid=[0.0, 20.0]))
        stated, implied, off = tables
        assert implied.rows == stated.rows
        assert {k: implied.metadata[k] for k in ("seed", "trials")} == {
            "seed": "0", "trials": "100000"}
        # the hash covers the config as written
        assert implied.metadata["scenario_hash"] != stated.metadata["scenario_hash"]
        assert off.rows != stated.rows

    def test_digest_stability_and_sensitivity(self):
        cfg = load_config("fig3")
        a = Scenario.from_config(cfg).digest()
        b = Scenario.from_config(cfg).digest()
        c = Scenario.from_config(cfg, seed=999).digest()
        assert a == b
        assert len(a) == 16 and int(a, 16) >= 0
        assert a != c

    def test_overrides_applied(self):
        cfg = load_config("fig3")
        sc = Scenario.from_config(cfg, seed=7, trials=1234,
                                  methods=["quadrature"], grid=[1.0, 2.0])
        assert sc.seed == 7
        assert sc.trials == 1234
        assert sc.methods == ("quadrature",)
        assert sc.grid == (1.0, 2.0)


class TestResultTable:
    def test_rectangular_and_axis_checks(self):
        with pytest.raises(Exception):
            ResultTable(columns=("x", "y"), rows=((1.0,),))
        with pytest.raises(Exception):
            ResultTable(columns=("x", "y"), rows=((2.0, 1.0), (1.0, 1.0)))

    def test_emitted_csv_and_json(self):
        table = ResultTable(
            columns=("x", "a#closed-form", "b#monte-carlo"),
            rows=((1.0, 0.25, None), (2.5, 0.125, 3.75)),
            metadata={"seed": "3", "scenario": "t"},
        )
        buf = io.StringIO()
        emit(table, format="csv", destination=buf)
        assert buf.getvalue() == (
            "# scenario: t\n"
            "# seed: 3\n"
            "x,a#closed-form,b#monte-carlo\n"
            "1.0,0.25,NA\n"
            "2.5,0.125,3.75\n"
        )
        buf = io.StringIO()
        emit(table, format="json", destination=buf)
        assert json.loads(buf.getvalue()) == {
            "metadata": {"scenario": "t", "seed": "3"},
            "columns": ["x", "a#closed-form", "b#monte-carlo"],
            "rows": [[1.0, 0.25, None], [2.5, 0.125, 3.75]],
        }

    def test_emission_is_byte_stable(self):
        table = ResultTable(columns=("x", "v#quadrature"),
                            rows=((1.0, 0.3), (2.0, 0.7)),
                            metadata={"b": "2", "a": "1"})
        bufs = []
        for _ in range(2):
            buf = io.StringIO()
            emit(table, format="csv", destination=buf)
            bufs.append(buf.getvalue())
        assert bufs[0] == bufs[1]
        # metadata lines sorted by key for stable output
        lines = bufs[0].splitlines()
        assert lines[0].startswith("#")
        assert lines.index("# a: 1") < lines.index("# b: 2")


class TestRunScenario:
    def test_fig3_trend_and_floor(self):
        table = run_scenario("fig3", trials=4000,
                             methods=["closed-form", "quadrature"])
        assert table.metadata["scenario"] == "fig3"
        assert len(table.metadata["scenario_hash"]) == 16
        for z in ("-8dB", "-2dB"):
            col = _col(table, f"outage_e@{z}#closed-form")
            assert all(b <= a + 1e-12 for a, b in zip(col, col[1:]))
        # far-jammer limit: jamming negligible, outage approaches the
        # jammer-free Gamma CDF floor
        cfg = load_config("fig3")
        sc = Scenario.from_config(cfg)
        e = sc.eve
        g = sc.geometry
        snr_i = (10 ** (g["p_s_db"] / 10)) * g["r_se_m"] ** (
            -g["delta"]) / g["noise_var_e"]
        p = GammaSnrParams(nu=int(e["m_i"]) * int(g["n_bs_antennas"]),
                           beta=e["m_i"] / snr_i)
        floor = gamma_cdf(p, 10 ** (-8 / 10))
        last = _col(table, "outage_e@-8dB#closed-form")[-1]
        assert last == pytest.approx(floor, rel=0.02)
        assert last >= floor - 1e-12

    def test_eve_link_adds_antenna_shapes(self):
        # Nakagami-m per antenna has rate m / (per-antenna mean SNR); at
        # the eavesdropper the shapes add across antennas and each link
        # keeps its rate, the one the Monte Carlo links draw at
        cfg = load_config("fig5")
        cfg["geometry"].update(n_bs_antennas=2, r_je_m=4.0)
        cfg["eve"] = {"m_i": 2, "m_j": 3}
        sc = Scenario.from_config(cfg)
        pt = scenario._Point(sc, {"geometry": {"n_jammer_antennas": 3}}, 10.0, {})
        e = pt.eve
        assert (e.nu_i, e.nu_j) == (2 * 2, 3 * 3)
        assert e.beta_i == pytest.approx(2.0 / (10.0 * 2.0**-2.0), rel=1e-12)
        assert e.beta_j == pytest.approx(3.0 / (10.0 * 4.0**-2.0), rel=1e-12)
        assert (pt.intercept.antennas, pt.jammer.antennas) == (2, 3)
        assert (pt.intercept.fading.beta, pt.jammer.fading.beta) == (e.beta_i, e.beta_j)
        off = scenario._Point(sc, {"geometry": {"n_jammer_antennas": 0}}, 10.0, {})
        assert off.jammer is None and (off.eve.nu_i, off.eve.nu_j) == (4, 0)

    def test_closed_form_matches_quadrature_columns(self):
        table = run_scenario("fig3", trials=4000,
                             methods=["closed-form", "quadrature"])
        a = np.array(_col(table, "outage_e@-2dB#closed-form"))
        b = np.array(_col(table, "outage_e@-2dB#quadrature"))
        np.testing.assert_allclose(a, b, rtol=1e-7)

    def test_closed_form_sweeps_call_no_incomplete_beta(self, monkeypatch):
        # the Rician CDF sums over the Poisson count, with betainc, only
        # for laws whose NB weights spread over thousands of terms: every
        # built-in law stays on the NB side's gammainc, so no sweep pages
        # in a kernel it did not need before
        import scipy.special

        calls, real = [], scipy.special.betainc

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(scipy.special, "betainc", counted)
        for fig in ("fig2", "fig3", "fig4", "fig5"):
            run_scenario(fig, methods=["closed-form"])
        assert calls == []
        # the patch is what the Rician CDF calls
        secrecy.rician_shadowed_cdf(RicianShadowedParams(0.5, 1000.0, 0.001, 1.0), 2e4)
        assert calls

    def test_deterministic_across_workers(self):
        kw = dict(trials=2000, methods=["closed-form", "monte-carlo"])
        t1 = run_scenario("fig3", workers=1, **kw)
        t2 = run_scenario("fig3", workers=2, **kw)
        assert t1.columns == t2.columns
        assert t1.rows == t2.rows

    def test_method_subset_leaves_analytics_unchanged(self):
        full = run_scenario("fig3", trials=2000,
                            methods=["closed-form", "monte-carlo"])
        analytic = run_scenario("fig3", trials=2000, methods=["closed-form"])
        col = "outage_e@-8dB#closed-form"
        assert _col(full, col) == _col(analytic, col)

    def test_grid_override_single_point(self):
        table = run_scenario("fig3", trials=2000, grid=[10.0],
                             methods=["closed-form"])
        assert len(table.rows) == 1
        assert table.rows[0][0] == 10.0

    def test_rerun_byte_identical(self):
        outs = []
        for _ in range(2):
            t = run_scenario("fig3", trials=3000,
                             methods=["closed-form", "monte-carlo"])
            buf = io.StringIO()
            emit(t, format="csv", destination=buf)
            outs.append(buf.getvalue())
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("method, loaded", [
        ("quadrature", [True, False]),
        ("closed-form", [True, False]),
        ("monte-carlo", [False, False]),
    ])
    def test_pool_forks_after_loading_what_the_method_needs(self, method, loaded):
        # a fresh interpreter, so only this run can have loaded anything;
        # the recorder notes sys.modules when the pool is built, then
        # stops the run
        script = (
            "import sys\n"
            "from jamsec import scenario\n"
            "def recorder(*args, **kwargs):\n"
            "    print([m in sys.modules for m in ('scipy.special._ufuncs', 'scipy.integrate')])\n"
            "    raise SystemExit(0)\n"
            "scenario.ProcessPoolExecutor = recorder\n"
            f"scenario.run_scenario('fig3', methods=[{method!r}], workers=2)\n"
            "raise SystemExit('no pool was built')\n"
        )
        r = subprocess.run([sys.executable, "-c", script],
                           capture_output=True, text=True, timeout=300)
        assert r.returncode == 0, r.stderr
        assert r.stdout.strip() == str(loaded)

    @pytest.mark.parametrize("workers", [0, -3])
    def test_workers_below_one_is_a_validation_failure(self, capsys, workers):
        with pytest.raises(ParameterError):
            run_scenario("fig3", methods=["closed-form"], workers=workers)
        argv = ["eval", "fig3", "--at", "1", "--workers", str(workers)]
        assert cli.main(argv) == cli.EXIT_VALIDATION
        assert "workers" in capsys.readouterr().err

    @pytest.mark.parametrize("grid, sizes", [
        ([10.0], []),  # one point: the parent evaluates it, no pool
        ([5.0, 10.0, 15.0], [2]),  # no more workers than points left
    ], ids=["one-point", "three-points"])
    def test_pool_never_outgrows_the_points_left(self, monkeypatch, grid, sizes):
        # an in-process stand-in records the pool size; no process starts
        built = []

        class Recorder:
            def __init__(self, max_workers, initializer, initargs):
                built.append(max_workers)
                initializer(*initargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return None

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr(scenario, "ProcessPoolExecutor", Recorder)
        monkeypatch.setattr(scenario, "_worker_memo", None)
        kw = dict(methods=["closed-form"], grid=grid)
        table = run_scenario("fig3", workers=64, **kw)
        assert built == sizes
        assert table.rows == run_scenario("fig3", **kw).rows

    def test_grid_beyond_a_thousand_points(self):
        # cells are keyed by (variant, point), not by an encoded integer
        # that a 1000-point grid would overflow into the next variant
        grid = [round(0.5 + 0.01 * i, 2) for i in range(1002)]
        table = run_scenario("fig3", methods=["closed-form"], grid=grid)
        assert [r[0] for r in table.rows] == grid
        col = _col(table, "outage_e@-8dB#closed-form")
        assert all(b <= a + 1e-12 for a, b in zip(col, col[1:]))


class TestReceiverMemo:
    KW = dict(methods=["quadrature"], grid=[-10.0, 35.0])

    def test_one_call_per_distinct_receiver_per_run(self, monkeypatch):
        seen = []
        real = secrecy.capacity_receiver_quadrature

        def counted(p):
            seen.append(p)
            return real(p)

        monkeypatch.setattr(secrecy, "capacity_receiver_quadrature", counted)
        # five jammer-size variants share the receiver at each grid point
        run_scenario("fig5", **self.KW)
        assert len(seen) == len(set(seen)) == 2
        # the memo lives for one run: a second run computes again
        run_scenario("fig5", **self.KW)
        assert seen[2:] == seen[:2]

    def test_cells_sharing_a_link_are_computed_once(self, tmp_path, monkeypatch):
        # variants that differ only in the jamming shape share the receiver
        # link, so its outage is evaluated once per (point, threshold): one
        # CDF row for each branch of the blockage mixture, all of a
        # threshold's column in one call
        cfg = load_config("fig2")
        cfg["zeta_db"] = [5.0, 10.0]
        cfg["variants"] = [{"name": "a", "eve": {"m_j": 1}},
                           {"name": "b", "eve": {"m_j": 2}}]
        f = tmp_path / "fig2.yaml"
        f.write_text(yaml.safe_dump(cfg))
        calls, real = [], secrecy.rician_shadowed_cdf

        def counted(p, th, mean_snr):
            calls.append(list(zip(np.broadcast_to(th, np.shape(mean_snr)).tolist(),
                                  np.asarray(mean_snr).tolist())))
            return real(p, th, mean_snr)

        monkeypatch.setattr(secrecy, "rician_shadowed_cdf", counted)
        table = run_scenario(str(f), methods=["closed-form"])
        rows = [row for call in calls for row in call]
        # the LOS and the NLOS branch at each point, as thresholds of the
        # LOS law under that point's mean
        n = len(cfg["sweep"]["grid"])
        assert len(calls) == len(cfg["zeta_db"])
        assert len(rows) == len(set(rows)) == 2 * n * len(cfg["zeta_db"])
        for call in calls:
            assert [mean for _, mean in call[:n]] == [mean for _, mean in call[n:]]
            assert len({mean for _, mean in call}) == n
        for z in ("5dB", "10dB"):
            assert (_col(table, f"a/outage_r@{z}#closed-form")
                    == _col(table, f"b/outage_r@{z}#closed-form"))

    def test_one_call_blend_matches_two_calls(self):
        # F_NLOS(gamma) = F_LOS(gamma mean_LOS / mean_NLOS): the one-call
        # blend rounds the scaled threshold once more than the blend of
        # two calls, one per law
        sc = Scenario.from_config(load_config("fig2"))
        table = run_scenario("fig2", methods=["closed-form"])
        worst = 0.0
        for name, variant in sc.variants:
            for zeta in sc.zeta_db:
                got = _col(table, f"{name}/outage_r@{zeta:g}dB#closed-form")
                th = secrecy.db_to_linear(zeta)
                for snr_db, cell in zip(sc.grid, got):
                    rx = scenario._Point(sc, variant, snr_db, {}).receiver
                    nlos = replace(rx.fading, mean_snr=rx.nlos_mean_snr)
                    want = (rx.p_los * secrecy.rician_shadowed_cdf(rx.fading, th)
                            + (1.0 - rx.p_los) * secrecy.rician_shadowed_cdf(nlos, th))
                    worst = max(worst, abs(cell - want) / want)
        assert worst <= 4e-16

    @pytest.mark.parametrize("workers", [1, 2])
    def test_column_cells_match_single_point_runs(self, tmp_path, workers):
        # each column's CDF rows are independent: a cell of the sweep is
        # the one `eval --at` gives at its point, to the bit, with or
        # without blockage and for any pool size
        cfg = load_config("fig2")
        cfg["zeta_db"] = [5.0, 10.0]
        blocked = {k: cfg["receiver"].pop(k) for k in ("p_los", "nlos_extra_loss_db")}
        cfg["variants"] = [{**v, "receiver": {**blocked, **v["receiver"]}}
                           for v in cfg["variants"]]
        cfg["variants"].append({"name": "open", "receiver": {"m": 5.2, "xi": 0.9, "sigma2": 0.1}})
        f = tmp_path / "fig2-open.yaml"
        f.write_text(yaml.safe_dump(cfg))
        table = run_scenario(str(f), methods=["closed-form"], workers=workers)
        assert {"light/outage_r@5dB#closed-form", "dense/outage_r@10dB#closed-form",
                "open/outage_r@10dB#closed-form"} <= set(table.columns)
        out = io.StringIO()
        emit(table, destination=out)
        lines = out.getvalue().splitlines()[-len(table.rows):]
        one = tmp_path / "one.csv"
        for x, line in zip(cfg["sweep"]["grid"], lines):
            assert cli.main(["eval", str(f), "--at", repr(x), "--methods", "closed-form",
                             "--out", str(one)]) == 0
            assert one.read_text().splitlines()[-1] == line
            assert "NA" not in line

    def test_column_leaves_an_invalid_point_to_raise_itself(self, tmp_path):
        # the receiver's mean SNR overflows at P_S = 3000 dB and the
        # intercept's at 1000 dB: the column taken at 0 dB skips the point
        # it cannot form, so the run fails where it did point by point, at
        # 1000 dB
        cfg = load_config("fig2")
        cfg["sweep"] = {"axis": "p_s_db", "grid": [0.0, 1000.0, 3000.0]}
        cfg["geometry"].update(r_sr_m=1e-10, r_se_m=1e-150)
        f = tmp_path / "fig2-loud.yaml"
        f.write_text(yaml.safe_dump(cfg))
        with pytest.raises(ParameterError, match=r"1e\+100 \* 1e-150"):
            run_scenario(str(f), methods=["closed-form"])

    def test_secrecy_capacity_reads_the_eve_capacity_cell(self, monkeypatch):
        seen, real = [], secrecy.capacity_eve_series

        def counted(p):
            seen.append(p)
            return real(p)

        monkeypatch.setattr(secrecy, "capacity_eve_series", counted)
        table = run_scenario("fig5", methods=["closed-form"], grid=[0.0, 20.0])
        # one call per link (K = 0, 1, 2, 4, 8) at each point: the c_s
        # cells read the c_e cells instead of computing them again
        assert len(seen) == len(set(seen)) == 5 * 2
        for k in ("k0", "k1", "k2", "k4", "k8"):
            c_r, c_e, c_s = (_col(table, f"{k}/{m}#closed-form")
                             for m in ("c_r", "c_e", "c_s"))
            assert c_s == [max(r - e, 0.0) for r, e in zip(c_r, c_e)]

    @pytest.mark.parametrize("analytic", ["quadrature", "closed-form"])
    def test_pool_workers_keep_the_output(self, analytic):
        # the workers start from the parent's memo after the first point
        # and fill their own copies, Monte Carlo link sums included
        kw = dict(self.KW, methods=[analytic, "monte-carlo"])
        t1 = run_scenario("fig5", workers=1, **kw)
        t2 = run_scenario("fig5", workers=2, **kw)
        assert t1.rows == t2.rows


class TestEveCapacityQuadrature:
    @pytest.mark.parametrize("variant", ["k4", "k0"])
    def test_one_quad_call_per_cell(self, tmp_path, monkeypatch, variant):
        # a fig5 c_e#quadrature cell is one MGF integral: at nu_I = 4 with
        # the jammer on (k4) and with it off (k0), not one per (n, q) term
        cfg = load_config("fig5")
        cfg["metrics"] = ["c_e"]
        cfg["variants"] = [v for v in cfg["variants"] if v["name"] == variant]
        f = tmp_path / "fig5.yaml"
        f.write_text(yaml.safe_dump(cfg))
        calls, real = [], fading._gauss_kronrod

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(fading, "_gauss_kronrod", counted)
        table = run_scenario(str(f), methods=["quadrature"], grid=[20.0])
        assert len(calls) == 1
        assert _col(table, "c_e#quadrature")[0] > 0.0  # one variant: no prefix


class TestRicianReceiverCapacity:
    def _fig2(self, tmp_path):
        cfg = load_config("fig2")
        cfg["metrics"] = ["c_r", "c_s"]
        f = tmp_path / "fig2.yaml"
        f.write_text(yaml.safe_dump(cfg))
        return cfg, str(f)

    def test_blockage_cell_blends_the_branch_capacities(self, tmp_path):
        # a c_r#quadrature cell of a blockage link is
        # p_los C(LOS) + (1 - p_los) C(NLOS), the NLOS law being the LOS
        # law at nlos_mean_snr, to the bit; c_s reads it
        cfg, path = self._fig2(tmp_path)
        grid = [0.0, 20.0]
        table = run_scenario(path, methods=["quadrature"], grid=grid)
        sc = Scenario.from_config(cfg)
        for name, variant in sc.variants:
            for row, snr_db in enumerate(grid):
                pt = scenario._Point(sc, variant, snr_db, {})
                rx = pt.receiver
                nlos = replace(rx.fading, mean_snr=rx.nlos_mean_snr)
                want = (rx.p_los * secrecy.capacity_receiver_quadrature(rx.fading)
                        + (1.0 - rx.p_los) * secrecy.capacity_receiver_quadrature(nlos))
                assert _col(table, f"{name}/c_r#quadrature")[row] == want
                c_e = secrecy.capacity_eve_quadrature(pt.eve)
                assert _col(table, f"{name}/c_s#quadrature")[row] == max(want - c_e, 0.0)

    def test_closed_form_capacity_is_na(self, tmp_path):
        # the Rician receiver has no closed-form capacity yet: its c_r, and
        # so its c_s, stay NA by closed form, and only there
        _, path = self._fig2(tmp_path)
        table = run_scenario(path, methods=["closed-form", "quadrature"], grid=[10.0])
        for name, column in zip(table.columns, table.rows[0]):
            if name.endswith("#closed-form"):
                assert column is None, name
            elif name.endswith("#quadrature"):
                assert column is not None and math.isfinite(column), name


class TestDoubleModelReceiverOutage:
    def test_quadrature_within_monte_carlo_error(self, tmp_path):
        # no built-in sweep asks a double-model receiver outage: fig3 with
        # metrics [outage_r].  Quadrature conditions on the envelope
        # shadowing; Monte Carlo counts draws; the closed form has no CDF
        cfg = load_config("fig3")
        cfg["metrics"] = ["outage_r"]
        f = tmp_path / "fig3-outage-r.yaml"
        f.write_text(yaml.safe_dump(cfg))
        table = run_scenario(str(f), grid=[0.5, 30.0])
        n = cfg["trials"]
        for z in ("-8dB", "-2dB"):
            assert _col(table, f"outage_r@{z}#closed-form") == [None, None]
            for q, mc in zip(_col(table, f"outage_r@{z}#quadrature"),
                             _col(table, f"outage_r@{z}#monte-carlo")):
                assert 0.0 < q < 1.0
                assert abs(q - mc) <= 5.0 * math.sqrt(q * (1.0 - q) / n), (z, q, mc)


class TestCommonRandomNumbers:
    """Monte Carlo cells of one run scale the same per-link draws, so
    differences between cells carry no sampling noise of a shared link."""

    MC = ["monte-carlo"]

    def test_fig5_receiver_capacity_is_one_estimate(self):
        table = run_scenario("fig5", methods=self.MC, trials=5000)
        cols = [_col(table, f"{k}/c_r#monte-carlo")
                for k in ("k0", "k1", "k2", "k4", "k8")]
        assert all(c == cols[0] for c in cols[1:])

    def test_fig5_jammer_off_is_the_intercept_alone(self):
        # K = 0 draws no jamming link: the SINR is the intercept SNR itself
        cfg = load_config("fig5")
        table = run_scenario("fig5", methods=self.MC, trials=5000)
        for p_s_db, got in zip(_col(table, "p_s_db"), _col(table, "k0/c_e#monte-carlo")):
            draws = simulate_eve_sinr(_fig5_intercept(cfg, p_s_db), None, 5000,
                                      SamplerSeed(cfg["seed"]))
            assert got == estimate_capacity(draws).value

    def test_fig5_jammer_off_capacity_quadrature(self):
        # mean intercept SNRs 2.5e3 to 2.5e8: integrated in linear gamma
        # the route lost the density's mass (0.0 at 60 dB, where Monte
        # Carlo reads 19.74)
        cfg = load_config("fig5")
        grid = [40.0, 60.0, 90.0]
        table = run_scenario("fig5", methods=["quadrature", "monte-carlo"], grid=grid)
        for p_s_db, quad, mc in zip(grid, _col(table, "k0/c_e#quadrature"),
                                    _col(table, "k0/c_e#monte-carlo")):
            est = estimate_capacity(simulate_eve_sinr(
                _fig5_intercept(cfg, p_s_db), None, cfg["trials"], SamplerSeed(cfg["seed"])))
            assert mc == est.value
            assert abs(quad - est.value) <= 5.0 * est.std_error

    def test_jammer_off_outage_quadrature_is_its_own_route(self, tmp_path, monkeypatch):
        # with the jammer off the quadrature outage integrates the Gamma
        # density; it must not share eve_sinr_cdf or gamma_cdf with the
        # closed form
        cfg = load_config("fig3")
        cfg["geometry"].update(n_jammer_antennas=0, p_s_db=60.0)
        cfg["zeta_db"] = [-8.0, 55.0, 70.0]
        f = tmp_path / "k0.yaml"
        f.write_text(yaml.safe_dump(cfg))
        closed = run_scenario(str(f), methods=["closed-form"])

        def closed_form_only(*_):
            raise AssertionError("quadrature route called the closed form")

        monkeypatch.setattr(secrecy, "eve_sinr_cdf", closed_form_only)
        monkeypatch.setattr(secrecy, "gamma_cdf", closed_form_only)
        quad = run_scenario(str(f), methods=["quadrature"])
        for z in ("-8", "55", "70"):
            np.testing.assert_allclose(_col(quad, f"outage_e@{z}dB#quadrature"),
                                       _col(closed, f"outage_e@{z}dB#closed-form"),
                                       rtol=1e-9, atol=0.0)

    def test_fig2_outage_non_increasing_in_snr(self):
        table = run_scenario("fig2", methods=self.MC, trials=20_000)
        for variant in ("light", "dense"):
            col = _col(table, f"{variant}/outage_r@10dB#monte-carlo")
            assert all(b <= a for a, b in zip(col, col[1:]))

    def test_fig3_outage_non_increasing_in_jammer_distance(self):
        table = run_scenario("fig3", methods=self.MC, trials=20_000)
        for z in ("-8dB", "-2dB"):
            col = _col(table, f"outage_e@{z}#monte-carlo")
            assert all(b <= a for a, b in zip(col, col[1:]))

    def test_fig5_memory_stays_bounded(self):
        # the cache holds one trials-length sum per distinct link law and
        # antenna count (6 for fig5), never the per-antenna draws
        run_scenario("fig5", methods=self.MC, grid=[0.0], trials=10)
        tracemalloc.start()
        try:
            run_scenario("fig5", methods=self.MC)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 10 * 2**20


    def _peak_in_arrays(self, name):
        # tracemalloc's peak over a run, in trials-length float arrays
        run_scenario(name, methods=self.MC, grid=[0.0], trials=10)
        trials = load_config(name)["trials"]
        tracemalloc.start()
        try:
            run_scenario(name, methods=self.MC)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak / (8 * trials)

    def test_fig2_memory_is_a_few_sample_arrays(self):
        # the first variant's unit sum and sorted copy plus the sampler's
        # two arrays while the second variant's law is drawn; the blockage
        # split is a count, and no cell makes a sample array of its own
        assert self._peak_in_arrays("fig2") <= 4.5

    def test_fig4_memory_is_a_few_sample_arrays(self):
        # the intercept and jammer unit sums, the unit SINR of the
        # variant's jammer, a point's SINR and its capacity working array
        assert self._peak_in_arrays("fig4") <= 5.5


class TestCli:
    def _run(self, *args):
        return subprocess.run(
            [sys.executable, "-m", "jamsec.cli", *args],
            capture_output=True, text=True, timeout=300,
        )

    @pytest.fixture(scope="class")
    def listing(self):
        # one fresh start-up serves two tests: -X importtime names on
        # stderr every module it loads
        return subprocess.run(
            [sys.executable, "-X", "importtime", "-m", "jamsec.cli", "list-scenarios"],
            capture_output=True, text=True, timeout=300,
        )

    def test_list_scenarios(self, listing):
        assert listing.returncode == 0
        for name in ("fig2", "fig3", "fig4", "fig5"):
            assert name in listing.stdout

    def test_cli_import_loads_no_stats_or_mpmath(self, listing):
        # import time is most of a short run's start-up; scipy.stats alone
        # would add ~0.6 s to it, and scipy.special ~0.3 s, which is bound
        # at import but executes on the first analytic route
        loaded = _imported(listing)
        assert "scipy.special._ufuncs" not in loaded
        assert [m for m in loaded if m.startswith(("scipy.stats", "mpmath"))] == []

    @pytest.mark.parametrize("args", [("validate", "fig3"),
                                      ("sweep", "fig3", "--methods", "monte-carlo"),
                                      ("sweep", "fig2", "--methods", "monte-carlo")])
    def test_no_special_functions_without_an_analytic_route(self, args):
        r = subprocess.run(
            [sys.executable, "-X", "importtime", "-m", "jamsec.cli", *args],
            capture_output=True, text=True, timeout=300,
        )
        assert r.returncode == 0
        assert "scipy.special._ufuncs" not in _imported(r)

    def test_closed_form_sweep_loads_special_functions(self, tmp_path):
        out = tmp_path / "fig3.csv"
        r = subprocess.run(
            [sys.executable, "-X", "importtime", "-m", "jamsec.cli", "sweep", "fig3",
             "--methods", "closed-form", "--out", str(out)],
            capture_output=True, text=True, timeout=300,
        )
        assert r.returncode == 0
        assert "scipy.special._ufuncs" in _imported(r)
        # loading on first use changes no bit of the output
        buf = io.StringIO()
        emit(run_scenario("fig3", methods=["closed-form"]), format="csv", destination=buf)
        assert out.read_text() == buf.getvalue()

    def test_cli_import_loads_no_integrator(self, listing):
        # importing the CLI loads no integrator, nor what scipy.integrate
        # drags in; the package never imports it, and a quadrature run
        # loads it no more (test_pool_forks_after_loading_what_the_method_needs)
        loaded = _imported(listing)
        heavy = ("scipy.integrate", "scipy.optimize", "scipy.sparse", "scipy.linalg")
        assert [m for m in loaded if m.startswith(heavy)] == []

    def test_main_runs_many_commands_in_one_process(self, tmp_path, monkeypatch):
        # the parser is built once per process; each command must still
        # see only its own options, a sweep after a JSON eval included
        assert cli.build_parser() is cli.build_parser()
        runs, emits = [], []
        monkeypatch.setattr(cli, "run_scenario", lambda path, **kw: runs.append((path, kw)))
        monkeypatch.setattr(cli, "emit", lambda table, **kw: emits.append(kw))
        out = str(tmp_path / "fig3.csv")
        defaults = dict(seed=None, trials=None, methods=None, workers=1)
        for argv, grid, emitted in [
            (["eval", "fig3", "--at", "1"], [1.0], dict(format="csv", destination="-")),
            (["validate", "fig3"], None, None),
            (["sweep", "fig3", "--out", out], None, dict(format="csv", destination=out)),
            (["eval", "fig3", "--at", "1", "--format", "json", "--methods", "closed-form"],
             [1.0], dict(format="json", destination="-")),
            (["sweep", "fig3"], None, dict(format="csv", destination="-")),
        ]:
            runs.clear()
            emits.clear()
            assert cli.main(argv) == cli.EXIT_OK
            if emitted is None:
                assert runs == emits == []
                continue
            methods = ["closed-form"] if "--methods" in argv else None
            assert runs == [("fig3", dict(defaults, methods=methods, grid=grid))]
            assert emits == [emitted]

    def test_validate_ok(self):
        r = self._run("validate", "fig3")
        assert r.returncode == 0

    def test_readme_example_validates(self, tmp_path):
        readme = Path(__file__).resolve().parents[1] / "README.md"
        block = re.search(r"```yaml\n(.*?)```", readme.read_text(), re.S)
        f = tmp_path / "example.yaml"
        f.write_text(block.group(1))
        r = self._run("validate", str(f))
        assert r.returncode == 0, r.stderr
        # r_je = 5 m puts the mean SNRs near 1e8: every route must hold
        r = self._run("eval", str(f), "--at", "5")
        assert r.returncode == 0, r.stderr

    def test_validate_bad_config(self, tmp_path):
        cfg = load_config("fig3")
        cfg["receiver"]["p_los"] = 1.3
        f = tmp_path / "bad.yaml"
        f.write_text(yaml.safe_dump(cfg))
        r = self._run("validate", str(f))
        assert r.returncode == 1
        assert "receiver.p_los" in r.stderr
        cfg = load_config("fig2")
        cfg["variants"][0]["receiver"]["m"] = -1
        f.write_text(yaml.safe_dump(cfg))
        r = self._run("validate", str(f))
        assert r.returncode == 1
        assert "variants[0].receiver.m" in r.stderr

    def test_validate_non_finite_power(self, tmp_path):
        cfg = load_config("fig3")
        cfg["geometry"]["p_s_db"] = math.nan
        f = tmp_path / "nan.yaml"
        f.write_text(yaml.safe_dump(cfg))
        assert "p_s_db: .nan" in f.read_text()
        for args in (("validate", str(f)), ("eval", str(f), "--at", "1")):
            r = self._run(*args)
            assert r.returncode == 1
            assert r.stderr == "geometry.p_s_db: must be finite (got nan)\n"

    @pytest.mark.parametrize("fig, section, key, value, at", [
        ("fig3", "geometry", "p_s_db", 4000, "1"),
        ("fig2", "receiver", "nlos_extra_loss_db", -4000, "10"),
    ])
    def test_db_overflow_is_a_diagnostic(self, tmp_path, fig, section, key, value, at):
        cfg = load_config(fig)
        cfg[section][key] = value
        f = tmp_path / "loud.yaml"
        f.write_text(yaml.safe_dump(cfg))
        want = f"{section}.{key}: must be between -3000 and 3000 dB (got {value})\n"
        for args in (("validate", str(f)), ("eval", str(f), "--at", at)):
            r = self._run(*args)
            assert (r.returncode, r.stderr) == (1, want), args

    def test_db_grid_overflow_is_a_diagnostic(self, tmp_path):
        cfg = load_config("fig4")
        cfg["sweep"]["grid"] = [10, 4000]
        f = tmp_path / "grid.yaml"
        f.write_text(yaml.safe_dump(cfg))
        for args in (("validate", str(f)), ("eval", str(f), "--at", "4000")):
            r = self._run(*args)
            assert r.returncode == 1, args
            assert r.stderr.startswith("sweep.grid: entries must be between -3000 and 3000")

    @pytest.mark.parametrize("key, value, at", [
        ("delta", 400, "30"),  # the mean SNR underflows to 0 at r_je = 30 m
        ("r_se_m", 1e-200, "1"),  # r ** -delta overflows
    ])
    def test_link_budget_out_of_range(self, tmp_path, key, value, at):
        cfg = load_config("fig3")
        cfg["geometry"][key] = value
        f = tmp_path / "budget.yaml"
        f.write_text(yaml.safe_dump(cfg))
        r = self._run("eval", str(f), "--at", at)
        assert r.returncode == 1
        assert r.stderr.startswith("invalid parameter: mean SNR"), r.stderr
        assert "Traceback" not in r.stderr

    @pytest.mark.parametrize("method", ["closed-form", "quadrature", "monte-carlo"])
    def test_subnormal_link_budget_is_a_validation_failure(self, tmp_path, capsys, method):
        # fig4 at P_S = -3000 dB with r_se = 1e10 m and delta = 2: the
        # intercept's mean SNR is the subnormal 1e-320, so its rate m / SNR
        # is infinite.  Every method stops at the link, before any route
        cfg = load_config("fig4")
        cfg["geometry"]["r_se_m"] = 1e10
        f = tmp_path / "faint.yaml"
        f.write_text(yaml.safe_dump(cfg))
        argv = ["eval", str(f), "--at", "-3000", "--methods", method]
        assert cli.main(argv) == cli.EXIT_VALIDATION
        assert capsys.readouterr().err == (
            "invalid parameter: beta must be positive and finite (got inf)\n")

    @pytest.mark.parametrize("workers", [1, 2])
    def test_accuracy_failure_names_its_cell(self, tmp_path, capsys, monkeypatch, workers):
        # a route that gives up: the one stderr line names the cell (its
        # variant, metric, threshold, axis value and method) and the
        # error's best value and estimate, the exit code is 2 and stdout
        # stays empty.  The route passes the first grid point, evaluated
        # in-process, and fails at the second: with two workers in a pool
        # worker, whose error comes back pickled
        cfg = load_config("fig3")
        cfg["variants"] = [{"name": "k2", "geometry": {"n_jammer_antennas": 2}}]
        f = tmp_path / "k2.yaml"
        f.write_text(yaml.safe_dump(cfg))
        first = []

        def give_up(p, th):
            if first and p.beta_j != first[0]:
                raise AccuracyError("SINR CDF integral did not reach tolerance",
                                    best=1.2345678, error_estimate=3e-5)
            first.append(p.beta_j)
            return 0.5

        monkeypatch.setattr(secrecy, "eve_sinr_cdf_integral", give_up)
        argv = ["sweep", str(f), "--methods", "quadrature", "--workers", str(workers)]
        assert cli.main(argv) == cli.EXIT_ACCURACY
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (
            "numerical failure: SINR CDF integral did not reach tolerance; variant k2, "
            "metric outage_e, threshold -8dB, r_je_m 0.75, method quadrature; "
            "best 1.2345678, error_estimate 3e-05\n")

    def test_missing_scenario_file_io_error(self):
        r = self._run("sweep", "/no/such/file.yaml")
        assert r.returncode == 3

    def test_unknown_builtin_validation_error(self):
        r = self._run("sweep", "not-a-builtin")
        assert r.returncode == 1

    def test_quadrature_near_s_one(self, tmp_path):
        cfg = load_config("fig5")
        cfg["receiver"]["s"] = 1.05
        f = tmp_path / "s105.yaml"
        f.write_text(yaml.safe_dump(cfg))
        r = self._run("eval", str(f), "--at", "10", "--methods", "quadrature")
        assert r.returncode == 0, r.stderr

    def test_eval_at_point_json(self):
        r = self._run("eval", "fig3", "--at", "10.0", "--trials", "2000",
                      "--methods", "closed-form", "--format", "json")
        assert r.returncode == 0
        doc = json.loads(r.stdout)
        assert len(doc["rows"]) == 1
        assert doc["rows"][0][0] == 10.0

    def test_eval_on_a_jammer_size_sweep(self, tmp_path):
        # --at parses as a float; on the integer k axis 1.0 is K = 1
        cfg = load_config("fig3")
        cfg["sweep"] = {"axis": "k", "grid": [0, 1, 2]}
        cfg["trials"] = 2000
        f = tmp_path / "k.yaml"
        f.write_text(yaml.safe_dump(cfg))
        r = self._run("eval", str(f), "--at", "1")
        assert r.returncode == 0, r.stderr
        buf = io.StringIO()
        emit(run_scenario(str(f)), format="csv", destination=buf)
        assert r.stdout.splitlines()[-1] == buf.getvalue().splitlines()[-2]

    def test_sweep_csv_to_file(self, tmp_path):
        out = tmp_path / "r.csv"
        r = self._run("sweep", "fig3", "--trials", "2000",
                      "--methods", "closed-form", "--out", str(out))
        assert r.returncode == 0
        lines = out.read_text().splitlines()
        assert "# scenario: fig3" in lines
        header = next(i for i, line in enumerate(lines) if not line.startswith("#"))
        assert lines[header].split(",")[0] == "r_je_m"
        assert len(lines) - header - 1 == len(load_config("fig3")["sweep"]["grid"])
        r2 = self._run("sweep", "fig3", "--trials", "2000",
                       "--methods", "closed-form", "--out", str(out) + ".b")
        assert (tmp_path / "r.csv").read_bytes() == (
            tmp_path / "r.csv.b").read_bytes()

    def test_out_to_unwritable_path_io_error(self):
        r = self._run("sweep", "fig3", "--trials", "2000",
                      "--methods", "closed-form",
                      "--out", "/nonexistent-dir/x.csv")
        assert r.returncode == 3
