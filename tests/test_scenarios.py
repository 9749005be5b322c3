import io
import json
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from jamsec import secrecy
from jamsec.fading import GammaSnrParams, gamma_cdf
from jamsec.scenario import (
    ResultTable,
    _resolve_path,
    Scenario,
    ScenarioError,
    builtin_scenarios,
    emit,
    load_config,
    read_table,
    run_scenario,
    validate_config,
)


def _col(table, name):
    return [r[table.columns.index(name)] for r in table.rows]


class TestConfigs:
    def test_builtin_catalog(self):
        cat = builtin_scenarios()
        for name in ("fig2", "fig3", "fig4", "fig5"):
            assert name in cat

    def test_all_builtins_validate(self):
        for name in builtin_scenarios():
            cfg = load_config(_resolve_path(name))
            assert validate_config(cfg) == [], name

    def test_missing_file(self):
        with pytest.raises(OSError):
            load_config("/nonexistent/path.yaml")
        with pytest.raises(ScenarioError):
            _resolve_path("not-a-builtin")

    def test_bad_yaml_reports_location(self, tmp_path):
        f = tmp_path / "broken.yaml"
        f.write_text("name: x\ngeometry: [unclosed\n")
        with pytest.raises(ScenarioError) as exc:
            load_config(str(f))
        assert "line" in str(exc.value)

    def test_validate_range_diagnostics(self):
        cfg = load_config(_resolve_path("fig2"))
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
        cfg = load_config(_resolve_path("fig5"))
        cfg["receiver"]["s"] = 0.9
        diags = validate_config(cfg)
        assert any("receiver.s" in d and "0.9" in d for d in diags)

    def test_validate_empty_grid(self):
        cfg = load_config(_resolve_path("fig3"))
        cfg["sweep"]["grid"] = []
        diags = validate_config(cfg)
        assert any("grid" in d for d in diags)

    def test_unknown_keys_rejected_with_suggestion(self):
        cfg = load_config(_resolve_path("fig5"))
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
        cfg = load_config(_resolve_path("fig5"))
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

    def test_digest_stability_and_sensitivity(self):
        cfg = load_config(_resolve_path("fig3"))
        a = Scenario.from_config(cfg).digest()
        b = Scenario.from_config(cfg).digest()
        c = Scenario.from_config(cfg, seed=999).digest()
        assert a == b
        assert len(a) == 16 and int(a, 16) >= 0
        assert a != c

    def test_overrides_applied(self):
        cfg = load_config(_resolve_path("fig3"))
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

    def test_round_trip_csv_and_json(self):
        table = ResultTable(
            columns=("x", "a#closed-form", "b#monte-carlo"),
            rows=((1.0, 0.25, None), (2.5, 0.125, 3.75)),
            metadata={"scenario": "t", "seed": "3"},
        )
        for fmt in ("csv", "json"):
            buf = io.StringIO()
            emit(table, format=fmt, destination=buf)
            back = read_table(io.StringIO(buf.getvalue()))
            assert back.columns == table.columns
            assert back.rows == table.rows
            assert back.metadata["scenario"] == "t"

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
        cfg = load_config(_resolve_path("fig3"))
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

    def test_closed_form_matches_quadrature_columns(self):
        table = run_scenario("fig3", trials=4000,
                             methods=["closed-form", "quadrature"])
        a = np.array(_col(table, "outage_e@-2dB#closed-form"))
        b = np.array(_col(table, "outage_e@-2dB#quadrature"))
        np.testing.assert_allclose(a, b, rtol=1e-7)

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

    def test_pool_workers_keep_the_output(self):
        # each worker fills its own memo, Monte Carlo link sums included
        kw = dict(self.KW, methods=["quadrature", "monte-carlo"])
        t1 = run_scenario("fig5", workers=1, **kw)
        t2 = run_scenario("fig5", workers=2, **kw)
        assert t1.rows == t2.rows


class TestCommonRandomNumbers:
    """Monte Carlo cells of one run scale the same per-link draws, so
    differences between cells carry no sampling noise of a shared link."""

    MC = ["monte-carlo"]

    def test_fig5_receiver_capacity_is_one_estimate(self):
        table = run_scenario("fig5", methods=self.MC, trials=5000)
        cols = [_col(table, f"{k}/c_r#monte-carlo")
                for k in ("k0", "k1", "k2", "k4", "k8")]
        assert all(c == cols[0] for c in cols[1:])

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


class TestCli:
    def _run(self, *args):
        return subprocess.run(
            [sys.executable, "-m", "jamsec.cli", *args],
            capture_output=True, text=True, timeout=300,
        )

    def test_list_scenarios(self):
        r = self._run("list-scenarios")
        assert r.returncode == 0
        for name in ("fig2", "fig3", "fig4", "fig5"):
            assert name in r.stdout

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
        import yaml
        cfg = load_config(_resolve_path("fig3"))
        cfg["receiver"]["p_los"] = 1.3
        f = tmp_path / "bad.yaml"
        f.write_text(yaml.safe_dump(cfg))
        r = self._run("validate", str(f))
        assert r.returncode == 1
        assert "receiver.p_los" in r.stderr
        cfg = load_config(_resolve_path("fig2"))
        cfg["variants"][0]["receiver"]["m"] = -1
        f.write_text(yaml.safe_dump(cfg))
        r = self._run("validate", str(f))
        assert r.returncode == 1
        assert "variants[0].receiver.m" in r.stderr

    def test_missing_scenario_file_io_error(self):
        r = self._run("sweep", "/no/such/file.yaml")
        assert r.returncode == 3

    def test_unknown_builtin_validation_error(self):
        r = self._run("sweep", "not-a-builtin")
        assert r.returncode == 1

    def test_eval_at_point_json(self):
        r = self._run("eval", "fig3", "--at", "10.0", "--trials", "2000",
                      "--methods", "closed-form", "--format", "json")
        assert r.returncode == 0
        doc = json.loads(r.stdout)
        assert len(doc["rows"]) == 1
        assert doc["rows"][0][0] == 10.0

    def test_sweep_csv_to_file(self, tmp_path):
        out = tmp_path / "r.csv"
        r = self._run("sweep", "fig3", "--trials", "2000",
                      "--methods", "closed-form", "--out", str(out))
        assert r.returncode == 0
        table = read_table(str(out))
        assert table.metadata["scenario"] == "fig3"
        assert len(table.rows) == len(table.rows)
        r2 = self._run("sweep", "fig3", "--trials", "2000",
                       "--methods", "closed-form", "--out", str(out) + ".b")
        assert (tmp_path / "r.csv").read_bytes() == (
            tmp_path / "r.csv.b").read_bytes()

    def test_out_to_unwritable_path_io_error(self):
        r = self._run("sweep", "fig3", "--trials", "2000",
                      "--methods", "closed-form",
                      "--out", "/nonexistent-dir/x.csv")
        assert r.returncode == 3
