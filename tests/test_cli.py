from __future__ import annotations

import math
import sys
from pathlib import Path

import numpy as np
import pytest

from pinvtte import (
    cycle_power,
    gen_cycle_model,
    gen_named_model,
    load_clustering,
    load_model,
    louvain,
    save_edge_list,
    sbm_sample,
)
from pinvtte.cli import main


def run_csv(tmp_path, argv, name="out.csv"):
    """Run the CLI writing to a file; return (header, rows, comments)."""
    path = tmp_path / name
    rc = main(argv + ["--out", str(path)])
    assert rc == 0
    lines = path.read_text().splitlines()
    comments = [l for l in lines if l.startswith("#")]
    data = [l for l in lines if not l.startswith("#")]
    header = data[0].split(",")
    rows = [dict(zip(header, l.split(","))) for l in data[1:]]
    return header, rows, comments


class TestSimulate:
    def test_metric_rows(self, tmp_path):
        header, rows, comments = run_csv(
            tmp_path,
            [
                "simulate",
                "--n", "12", "--radius", "1",
                "--model", "cycle",
                "--design", "gcr",
                "--estimator", "pinv:1,ht",
                "--replications", "25",
                "--seed", "3",
            ],
        )
        assert header == [
            "estimator", "beta", "tag", "replications", "true_tte", "metric", "value",
        ]
        # seven metrics plus wall time, for each of the two estimators
        assert len(rows) == 16
        kinds = {r["estimator"] for r in rows}
        assert kinds == {"pinv", "ht"}
        assert "# seed=3" in comments
        assert any(c.startswith("# git_describe=") for c in comments)
        tte = {float(r["true_tte"]) for r in rows}
        assert tte == {0.5}

    def test_width_grid_tags(self, tmp_path):
        _, rows, _ = run_csv(
            tmp_path,
            [
                "simulate",
                "--n", "12", "--radius", "1",
                "--model", "cycle",
                "--clustering", "contiguous",
                "--width", "1,2",
                "--design", "gcr",
                "--replications", "10",
            ],
        )
        assert {r["tag"] for r in rows} == {"w=1", "w=2"}

    def test_ht_blank_fields(self, tmp_path):
        _, rows, _ = run_csv(
            tmp_path,
            [
                "simulate",
                "--n", "10", "--radius", "1",
                "--model", "cycle",
                "--design", "bern",
                "--estimator", "ht",
                "--replications", "10",
            ],
        )
        by_metric = {r["metric"]: r for r in rows}
        assert by_metric["var_bound"]["value"] == ""
        assert by_metric["analytic_bias"]["value"] == "0.0"
        assert all(r["beta"] == "" for r in rows)


class TestBounds:
    def test_report_row(self, tmp_path):
        header, rows, _ = run_csv(
            tmp_path,
            [
                "bounds",
                "--n", "12", "--radius", "1",
                "--model", "cycle",
                "--clustering", "contiguous", "--width", "2",
                "--design", "gcr", "--p", "0.25",
                "--beta", "1",
            ],
        )
        assert len(rows) == 1
        row = rows[0]
        assert "var_bound_pairwise" in header
        assert float(row["var_bound_pairwise"]) > 0
        assert float(row["var_bound_pairwise"]) <= float(row["var_bound_simplified"])
        assert row["design_variant"] == "bernoulli_gcr"
        assert float(row["bias_exact"]) == pytest.approx(0.0, abs=1e-10)
        assert row["gamma_source"] == "quadform"

    def test_explicit_outcome_bound_wins(self, tmp_path):
        args = [
            "bounds",
            "--n", "10", "--radius", "1",
            "--model", "cycle",
            "--design", "gcr",
            "--beta", "1",
        ]
        _, base, _ = run_csv(tmp_path, args, "a.csv")
        _, forced, _ = run_csv(tmp_path, args + ["--B-bound", "10"], "b.csv")
        assert float(base[0]["B"]) == pytest.approx(1.5)
        assert float(forced[0]["B"]) == 10.0

    def test_needs_some_outcome_bound(self, tmp_path, capsys):
        rc = main(["bounds", "--n", "8", "--radius", "1", "--design", "gcr"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_crd_gamma_closed(self, tmp_path):
        _, rows, _ = run_csv(
            tmp_path,
            [
                "bounds",
                "--n", "12", "--radius", "1",
                "--clustering", "contiguous", "--width", "2",
                "--design", "crd", "--k", "2",
                "--beta", "1", "--B-bound", "1",
                "--gamma", "closed",
            ],
        )
        assert rows[0]["design_variant"] == "complete_gcr"
        assert rows[0]["k"] == "2"
        assert rows[0]["p"] == ""

    def test_unit_design_rejects_clustering(self, tmp_path, capsys):
        # a bern design is always on singletons: another clustering, given
        # by flag or config key, is an error rather than ignored
        args = ["bounds", "--n", "12", "--radius", "1", "--design", "bern", "--B-bound", "1"]
        _, default, _ = run_csv(tmp_path, args, "a.csv")
        _, single, _ = run_csv(tmp_path, args + ["--clustering", "singleton"], "b.csv")
        assert single == default and default[0]["m"] == "12"
        cfg = tmp_path / "c.cfg"
        cfg.write_text("clustering = contiguous\nwidth = 4\n")
        for extra in (["--clustering", "contiguous", "--width", "4"], ["--config", str(cfg)]):
            assert main(args + extra) == 2
            err = capsys.readouterr().err
            assert err == "error: --design bern treats units: it takes no --clustering contiguous\n"


class TestInputFiles:
    SBM = ["--graph", "sbm", "--n", "40", "--blocks", "4", "--pi-in", "0.4", "--graph-seed", "2"]
    BOUNDS = ["bounds", "--design", "gcr", "--p", "0.3", "--B-bound", "1"]

    def test_graph_file_matches_generated_graph(self, tmp_path):
        path = tmp_path / "g.txt"
        save_edge_list(cycle_power(12, 2), str(path))
        _, built, _ = run_csv(tmp_path, self.BOUNDS + ["--n", "12", "--radius", "2"], "a.csv")
        _, loaded, _ = run_csv(tmp_path, self.BOUNDS + ["--graph", str(path)], "b.csv")
        assert loaded == built

    def test_louvain_and_clustering_file(self, tmp_path):
        path = tmp_path / "c.tsv"
        flags = ["--clustering", "louvain", "--resolution", "0.5", "--cluster-seed", "1"]
        assert main(["cluster"] + flags + self.SBM + ["--out", str(path)]) == 0
        _, direct, _ = run_csv(tmp_path, self.BOUNDS + self.SBM + flags, "a.csv")
        _, from_file, _ = run_csv(
            tmp_path, self.BOUNDS + self.SBM + ["--clustering", str(path)], "b.csv"
        )
        assert from_file == direct
        assert direct[0]["m"] == str(louvain(sbm_sample(40, 4, 0.4, 0.0, 2), 0.5, 1).m)


class TestSelect:
    def test_ranking_table(self, tmp_path):
        header, rows, comments = run_csv(
            tmp_path,
            [
                "select",
                "--graph", "sbm", "--n", "40", "--blocks", "4",
                "--pi-in", "0.6",
                "--design", "gcr", "--p", "0.25",
                "--B-bound", "1",
            ],
        )
        assert header[:4] == ["rank", "candidate", "resolution", "clusters"]
        assert len(rows) == 7
        assert sum(int(r["chosen"]) for r in rows) == 1
        assert rows[0]["chosen"] == "1"
        scores = [float(r["var_bound_pairwise"]) for r in rows]
        assert scores == sorted(scores)
        assert "# seed=0" in comments

    def test_narrow_grid(self, tmp_path):
        _, rows, _ = run_csv(
            tmp_path,
            [
                "select",
                "--n", "24", "--radius", "1",
                "--resolution-grid", "0.5,1.0",
                "--design", "gcr",
                "--B-bound", "2",
            ],
        )
        assert len(rows) == 2
        assert {r["resolution"] for r in rows} == {"0.5", "1.0"}

    def test_unit_design_rejected(self, capsys):
        rc = main(["select", "--n", "12", "--radius", "1", "--design", "bern", "--B-bound", "1"])
        assert rc == 2
        assert "cluster design" in capsys.readouterr().err

    def test_unit_design_rejected_before_clustering(self, monkeypatch, capsys):
        import pinvtte.cli as cli

        calls = []
        monkeypatch.setattr(cli, "louvain", lambda *args: calls.append(args))
        argv = [
            "select", "--graph", "sbm", "--n", "2000", "--blocks", "20", "--pi-in", "0.05",
            "--pi-out", "0.001", "--design", "bern", "--p", "0.25", "--B-bound", "1",
        ]
        assert main(argv) == 2
        assert capsys.readouterr().err == "error: select needs a cluster design (gcr or crd)\n"
        assert calls == []


class TestOracle:
    def test_exhaustive_rows(self, tmp_path):
        _, rows, _ = run_csv(
            tmp_path,
            [
                "oracle",
                "--n", "8", "--radius", "1",
                "--model", "cycle",
                "--design", "gcr", "--p", "0.5",
                "--estimator", "pinv:1,ht",
            ],
        )
        assert len(rows) == 2
        by_kind = {r["estimator"]: r for r in rows}
        assert float(by_kind["pinv"]["bias"]) == pytest.approx(0.0, abs=1e-10)
        assert float(by_kind["ht"]["bias"]) == pytest.approx(0.0, abs=1e-10)
        assert float(by_kind["ht"]["variance"]) >= float(by_kind["pinv"]["variance"])


class TestMcMoments:
    def test_grid_mode_tables(self, tmp_path):
        _, rows, _ = run_csv(
            tmp_path,
            [
                "mc-moments",
                "--n", "10", "--radius", "1",
                "--design", "gcr", "--p", "0.4",
                "--units", "0,3",
                "--r-grid", "50,500",
                "--mc-seeds", "0,1",
                "--beta", "1",
            ],
        )
        detail = [r for r in rows if r["table"] == "detail"]
        summary = [r for r in rows if r["table"] == "summary"]
        assert len(detail) == 2 * 2 * 2
        assert len(summary) == 2
        assert {r["R"] for r in summary} == {"50", "500"}

    def test_single_shot_mode(self, tmp_path):
        _, rows, _ = run_csv(
            tmp_path,
            [
                "mc-moments",
                "--n", "8", "--radius", "1",
                "--design", "gcr", "--p", "0.5",
                "--samples", "200",
                "--unit", "2",
                "--beta", "1",
            ],
        )
        sections = {r["section"] for r in rows}
        assert sections == {"M", "M_pinv", "fro_error"}
        m_rows = [r for r in rows if r["section"] == "M"]
        # cluster neighborhood of a radius-1 cycle unit has 3 singleton
        # clusters, so the first-order index has 4 rows
        assert len(m_rows) == 16
        err = [float(r["value"]) for r in rows if r["section"] == "fro_error"]
        assert len(err) == 1 and err[0] >= 0.0


    @pytest.mark.parametrize(
        "flags", [["--samples", "100", "--unit", "99"], ["--samples", "100", "--unit", "-1"],
                  ["--units", "0,-1", "--r-grid", "10", "--mc-seeds", "0"],
                  ["--units", "0,50", "--r-grid", "10", "--mc-seeds", "0"]],
    )
    def test_unit_outside_graph(self, capsys, flags):
        argv = ["mc-moments", "--n", "12", "--radius", "1", "--design", "gcr", "--p", "0.3"]
        assert main(argv + flags) == 2
        assert capsys.readouterr().err.startswith("error: unit")


class TestLiftOnce:
    """A run lifts its cell to clusters once: one re-keying of the model
    (outcomes._cluster_keys), one cluster_stats, and one analytic bias and
    variance bound per distinct estimator order."""

    RUNS = {
        "simulate": [
            "simulate", "--n", "240", "--radius", "3", "--model", "cycle",
            "--beta-star", "2", "--clustering", "contiguous", "--width", "4",
            "--design", "gcr", "--p", "0.25", "--estimator", "pinv:2,gcr_explicit:2,ht",
            "--replications", "60", "--seed", "3",
        ],
        "bounds": [
            "bounds", "--n", "60", "--radius", "2", "--model", "cycle", "--beta-star", "2",
            "--clustering", "contiguous", "--width", "3", "--design", "gcr", "--p", "0.3",
            "--beta", "1",
        ],
        "oracle": [
            "oracle", "--n", "16", "--radius", "1", "--model", "cycle", "--beta-star", "2",
            "--clustering", "contiguous", "--width", "2", "--design", "crd", "--k", "4",
            "--estimator", "pinv:2,crd1,ht",
        ],
    }

    def counted_run(self, monkeypatch, tmp_path, name):
        calls = dict.fromkeys(
            ["_cluster_keys", "cluster_stats", "bias_exact", "variance_bound"], 0
        )

        def counter(key, fn):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)

            return wrapper

        # every module binding of the two lifting maps, and the harness's
        # bias and bound
        for modname, mod in list(sys.modules.items()):
            if modname.startswith("pinvtte."):
                for key in ("_cluster_keys", "cluster_stats"):
                    if hasattr(mod, key):
                        monkeypatch.setattr(mod, key, counter(key, getattr(mod, key)))
        harness = sys.modules["pinvtte.harness"]
        for key in ("bias_exact", "variance_bound"):
            monkeypatch.setattr(harness, key, counter(key, getattr(harness, key)))
        _, rows, _ = run_csv(tmp_path, self.RUNS[name])
        return calls, rows

    def test_simulate_cell(self, monkeypatch, tmp_path):
        calls, rows = self.counted_run(monkeypatch, tmp_path, "simulate")
        assert calls == {
            "_cluster_keys": 1, "cluster_stats": 1, "bias_exact": 1, "variance_bound": 1,
        }
        for estimator in ("pinv", "gcr_explicit"):
            value = {r["metric"]: r["value"] for r in rows if r["estimator"] == estimator}
            assert value["analytic_bias"] == "-2.636779683484747e-16"
            assert value["var_bound"] == "5.692416520604741"

    @pytest.mark.parametrize("name", ["bounds", "oracle"])
    def test_one_lift(self, monkeypatch, tmp_path, name):
        calls, _ = self.counted_run(monkeypatch, tmp_path, name)
        assert calls["_cluster_keys"] == 1
        assert calls["cluster_stats"] == 1


class TestClusterCommand:
    def test_stdout_listing(self, capsys):
        argv = ["cluster", "--n", "6", "--radius", "1", "--clustering", "contiguous", "--width", "2"]
        rc = main(argv)
        assert rc == 0
        out = capsys.readouterr().out.splitlines()
        assert out[:6] == ["0\t0", "1\t0", "2\t1", "3\t1", "4\t2", "5\t2"]

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "c.tsv"
        rc = main([
            "cluster", "--n", "8", "--radius", "1",
            "--clustering", "contiguous", "--width", "4", "--out", str(path),
        ])
        assert rc == 0
        c = load_clustering(str(path), 8)
        assert c.m == 2
        assert list(c.assignment) == [0, 0, 0, 0, 1, 1, 1, 1]

    def test_singleton_and_file_methods(self, tmp_path, capsys):
        path = tmp_path / "c.tsv"
        assert main(["cluster", "--n", "4", "--radius", "1", "--clustering", "singleton"]) == 0
        assert capsys.readouterr().out.splitlines() == ["0\t0", "1\t1", "2\t2", "3\t3"]
        path.write_text("0\t5\n1\t5\n2\t9\n3\t9\n")
        argv = ["cluster", "--n", "4", "--radius", "1", "--clustering", str(path)]
        assert main(argv) == 0
        assert capsys.readouterr().out.splitlines() == ["0\t0", "1\t0", "2\t1", "3\t1"]

    def test_louvain_default(self, tmp_path):
        # louvain at its default resolution and seed
        path = tmp_path / "c.tsv"
        rc = main([
            "cluster", "--graph", "sbm", "--n", "30", "--blocks", "3",
            "--pi-in", "0.9", "--clustering", "louvain", "--out", str(path),
        ])
        assert rc == 0
        c = load_clustering(str(path), 30)
        assert c.m == 3


class TestModelCommand:
    def test_gen_to_file_round_trip(self, tmp_path):
        path = tmp_path / "m.tsv"
        rc = main([
            "model", "gen", "--model", "cycle", "--beta-star", "2",
            "--n", "10", "--radius", "1", "--out", str(path),
        ])
        assert rc == 0
        model = load_model(str(path), 10)
        assert model.coeffs == gen_cycle_model(cycle_power(10, 1), 2).coeffs

    def test_stdout_tsv(self, capsys):
        rc = main(["model", "gen", "--model", "null", "--n", "4", "--radius", "1"])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 4
        assert all(len(l.split("\t")) == 3 for l in lines)

    def test_unknown_kind(self, capsys):
        # a name that is no model kind is read as a model file, as in simulate
        rc = main(["model", "gen", "--model", "cubic", "--n", "4", "--radius", "1"])
        assert rc == 2
        assert "No such file or directory: 'cubic'" in capsys.readouterr().err


class TestEstimate:
    def test_single_draw_value(self, tmp_path):
        _, rows, comments = run_csv(
            tmp_path,
            [
                "estimate",
                "--n", "10", "--radius", "1",
                "--model", "cycle",
                "--design", "gcr", "--p", "0.5",
                "--estimator", "pinv:1",
                "--seed", "4",
            ],
        )
        assert len(rows) == 1
        assert rows[0]["metric"] == "tte_hat"
        float(rows[0]["value"])
        assert "# seed=4" in comments

    def test_weight_rows(self, tmp_path):
        _, rows, _ = run_csv(
            tmp_path,
            [
                "estimate",
                "--n", "6", "--radius", "1",
                "--model", "cycle",
                "--design", "gcr",
                "--weights", "true",
            ],
        )
        weights = [r for r in rows if r["metric"] == "weight"]
        assert len(weights) == 6
        assert [r["unit"] for r in weights] == [str(i) for i in range(6)]
        tte_rows = [r for r in rows if r["metric"] == "tte_hat"]
        w = [float(r["value"]) for r in weights]
        # cycle outcomes under this seed reproduce the reported estimate
        assert len(tte_rows) == 1

    def test_design_mismatch(self, capsys):
        rc = main([
            "estimate", "--n", "6", "--radius", "1", "--model", "cycle",
            "--design", "gcr", "--estimator", "crd1",
        ])
        assert rc == 2
        assert "complete" in capsys.readouterr().err

    def test_agreeing_orders_pass(self, tmp_path):
        argv = ["estimate", "--n", "12", "--radius", "1", "--model", "cycle"]
        _, alone, _ = run_csv(tmp_path, argv + ["--estimator", "pinv:2"], "a.csv")
        cfg = tmp_path / "shared.cfg"
        cfg.write_text("beta = 2\n")
        _, shared, _ = run_csv(
            tmp_path, argv + ["--estimator", "pinv:2", "--config", str(cfg)], "c.csv"
        )
        assert alone == shared and alone[0]["beta"] == "2"


class TestConfigFile:
    def test_config_supplies_defaults_and_flags_win(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# experiment cell\n"
            "n = 16\n"
            "radius = 1\n"
            "model = cycle\n"
            "beta-star = 1\n"
            "design = gcr\n"
            "replications = 10\n"
        )
        _, rows, _ = run_csv(
            tmp_path,
            ["simulate", "--config", str(cfg), "--replications", "5"],
        )
        assert {r["replications"] for r in rows} == {"5"}

    def test_malformed_line(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("n 16\n")
        rc = main(["simulate", "--config", str(cfg), "--model", "cycle"])
        assert rc == 2
        assert "expected key=value" in capsys.readouterr().err

    def test_missing_config_file(self, capsys):
        rc = main(["simulate", "--config", "/nonexistent/x.cfg", "--model", "cycle"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_unknown_keys_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "typo.cfg"
        cfg.write_text("replication = 7\ndesgin = crd\nmodel = cycle\nn = 12\n")
        assert main(["simulate", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == f"error: {cfg}: unknown keys desgin, replication\n"
        # the private spellings that cluster and model gen once took
        cfg.write_text("method = louvain\nkind = weak\nin = c.tsv\nn = 12\n")
        assert main(["cluster", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == f"error: {cfg}: unknown keys in, kind, method\n"

    def test_keys_of_other_subcommands_allowed(self, tmp_path):
        cfg = tmp_path / "shared.cfg"
        cfg.write_text(
            "n = 12\nradius = 1\nmodel = cycle\ndesign = gcr\n"
            "replications = 5\nbeta = 1\nB-bound = 2\nresolution-grid = 0.5\n"
        )
        _, sim, _ = run_csv(tmp_path, ["simulate", "--config", str(cfg)], "a.csv")
        _, bounds, _ = run_csv(tmp_path, ["bounds", "--config", str(cfg)], "b.csv")
        assert {r["replications"] for r in sim} == {"5"}
        assert bounds[0]["B"] == "2.0"


class TestSharedConfig:
    """One key=value file gives every subcommand the same inputs: cluster and
    model gen write exactly the clustering and model that simulate and
    estimate build from it."""

    CFG = (
        "graph = sbm\nn = 60\nblocks = 3\npi-in = 0.2\npi-out = 0.05\ngraph-seed = 1\n"
        "clustering = louvain\ncluster-seed = 5\nmodel = weak\nmodel-seed = 7\n"
        "design = gcr\np = 0.3\nreplications = 5\n"
    )

    def test_artifacts_match_report_inputs(self, tmp_path):
        cfg = tmp_path / "shared.cfg"
        cfg.write_text(self.CFG)
        config = ["--config", str(cfg)]
        c_path, m_path = tmp_path / "c.tsv", tmp_path / "m.tsv"
        assert main(["cluster", *config, "--out", str(c_path)]) == 0
        assert main(["model", "gen", *config, "--out", str(m_path)]) == 0
        g = sbm_sample(60, 3, 0.2, 0.05, 1)
        clusters = load_clustering(str(c_path), g.n)
        assert clusters == louvain(g, 1.0, 5) and clusters != louvain(g, 1.0, 0)
        assert load_model(str(m_path), g.n) == gen_named_model(g, "weak", 7)
        files = ["--clustering", str(c_path), "--model", str(m_path)]
        for command in ("simulate", "estimate"):
            built, loaded = (
                [r for r in run_csv(tmp_path, argv, "out.csv")[1] if r["metric"] != "wall_time_s"]
                for argv in ([command, *config], [command, *config, *files])
            )
            assert built and built == loaded


class TestErrorSurface:
    def test_unknown_design(self, capsys):
        rc = main(["simulate", "--n", "8", "--radius", "1", "--model", "cycle", "--design", "latin"])
        assert rc == 2
        assert "unknown design" in capsys.readouterr().err

    def test_bad_gamma(self, capsys):
        rc = main([
            "bounds", "--n", "8", "--radius", "1", "--model", "cycle",
            "--design", "gcr", "--gamma", "exact",
        ])
        assert rc == 2
        assert "gamma source" in capsys.readouterr().err

    def test_crd_needs_k(self, capsys):
        rc = main([
            "simulate", "--n", "8", "--radius", "1", "--model", "cycle",
            "--clustering", "contiguous", "--width", "2", "--design", "crd",
        ])
        assert rc == 2
        assert "--k" in capsys.readouterr().err

    BOUNDS = ["bounds", "--n", "12", "--radius", "1", "--design", "gcr", "--p", "0.3"]
    TINY_P = ["--n", "12", "--radius", "1", "--design", "gcr", "--p"]

    @pytest.mark.parametrize(
        "argv, message",
        [
            (BOUNDS + ["--beta", "0", "--B-bound", "1"], "got beta=0"),
            (BOUNDS + ["--beta", "0", "--B-bound", "1", "--gamma", "closed"], "got beta=0"),
            (["select", "--n", "12", "--radius", "1", "--beta", "0", "--B-bound", "1"],
             "got beta=0"),
            (BOUNDS + ["--B-bound", "nan"], "B=nan must be positive and finite"),
            (BOUNDS + ["--B-bound", "inf"], "B=inf must be positive and finite"),
            (["select", "--n", "12", "--radius", "1", "--resolution-grid", "nan,1",
              "--B-bound", "1"], "resolution must be positive and finite, got nan"),
            (["cluster", "--n", "12", "--radius", "1", "--clustering", "louvain",
              "--resolution", "inf"], "resolution must be positive and finite, got inf"),
            # negative seeds
            (["cluster", "--n", "12", "--radius", "1", "--clustering", "louvain",
              "--cluster-seed", "-1"], "seed must be nonnegative, got -1"),
            (["select", "--n", "12", "--radius", "1", "--cluster-seed", "-1", "--B-bound", "1"],
             "seed must be nonnegative, got -1"),
            (["bounds", "--graph", "sbm", "--n", "40", "--blocks", "4", "--pi-in", "0.3",
              "--graph-seed", "-2", "--design", "gcr", "--p", "0.25", "--B-bound", "1"],
             "seed must be nonnegative, got -2"),
            (["model", "gen", "--model", "weak", "--n", "12", "--radius", "1",
              "--model-seed", "-1"], "seed must be nonnegative, got -1"),
            # powers of 1/p past double precision
            (["bounds"] + TINY_P + ["1e-320", "--B-bound", "1"],
             "p=1e-320: the order-1 pseudoinverse weights of a neighborhood of c=3"),
            (["bounds"] + TINY_P + ["1e-320", "--B-bound", "1", "--gamma", "closed"],
             "p=1e-320: the order-1 closed-form gamma terms of a neighborhood of c=3"),
            (["bounds"] + TINY_P + ["1e-200", "--beta", "2", "--B-bound", "1"],
             "p=1e-200: the order-2 pseudoinverse weights of a neighborhood of c=3"),
            (["estimate"] + TINY_P + ["1e-300", "--model", "cycle", "--estimator", "pinv:2"],
             "p=1e-300: the order-2 pseudoinverse weights of a neighborhood of c=3"),
            (["estimate"] + TINY_P
             + ["1e-300", "--model", "cycle", "--estimator", "gcr_explicit:2"],
             "p=1e-300: the order-2 explicit weights of a neighborhood of c=3"),
            (["simulate"] + TINY_P + ["1e-320", "--model", "cycle", "--replications", "5"],
             "p=1e-320: the order-1 pseudoinverse weights of a neighborhood of c=3"),
            (["oracle", "--n", "8", "--radius", "1", "--model", "cycle", "--design", "gcr",
              "--p", "1e-300", "--estimator", "pinv:1"], "the variance of estimates up to"),
            (["mc-moments"] + TINY_P + ["1e-300", "--beta", "1", "--units", "0",
              "--r-grid", "50", "--mc-seeds", "0"],
             "p=1e-300: the order-1 pseudoinverse entries of a neighborhood of c=3"),
            # a finite B whose variance bound leaves double precision
            (["bounds"] + TINY_P + ["1e-300", "--beta", "1", "--B-bound", "1e300"],
             "B=1e+300: the pairwise variance bound B^2/n^2 * 1.8e+302"),
            # option values that do not parse
            (["bounds", "--n", "x", "--B-bound", "1"], "expected an integer, got 'x'"),
            (["bounds"] + TINY_P + ["x", "--B-bound", "1"], "expected a number, got 'x'"),
            (BOUNDS + ["--B-bound", "1", "--monotone", "maybe"], "expected true/false, got 'maybe'"),
            (["simulate", "--n", "12", "--radius", "1"], "missing required option --model"),
            (["cluster", "--n", "12", "--radius", "1", "--clustering", "spectral"],
             "No such file or directory"),
            # estimator kinds and orders, checked by EstimatorSpec alone
            (["estimate", "--n", "12", "--radius", "1", "--model", "cycle", "--estimator",
              "ht:2"], "ht takes no beta"),
            (["estimate", "--n", "12", "--radius", "1", "--model", "cycle", "--clustering",
              "contiguous", "--width", "2", "--design", "crd", "--k", "2", "--estimator",
              "crd1:3"], "crd1 is a beta=1 estimator, got beta=3"),
            (["oracle", "--n", "8", "--radius", "1", "--model", "cycle", "--estimator", ","],
             "an oracle needs at least one estimator"),
            # empty grid options
            (["simulate", "--n", "12", "--radius", "1", "--model", "cycle", "--clustering",
              "contiguous", "--width", ",", "--replications", "5"],
             "--width needs at least one cluster width"),
            (["mc-moments", "--n", "12", "--radius", "1", "--units", "0", "--r-grid", ",",
              "--mc-seeds", "0"], "empty R_grid"),
            (["mc-moments", "--n", "12", "--radius", "1", "--units", ",", "--r-grid", "50",
              "--mc-seeds", "0"], "empty units"),
            (["mc-moments", "--n", "12", "--radius", "1", "--units", "0", "--r-grid", "50",
              "--mc-seeds", ","], "empty seeds"),
            # library names are not CLI spellings
            (["bounds", "--n", "12", "--radius", "1", "--design", "bernoulli_unit",
              "--B-bound", "1"], "unknown design 'bernoulli_unit' (expected bern, gcr, or crd)"),
            (["bounds", "--n", "12", "--radius", "1", "--design", "bernoulli_gcr",
              "--B-bound", "1"], "unknown design 'bernoulli_gcr' (expected bern, gcr, or crd)"),
            (["bounds", "--n", "12", "--radius", "1", "--design", "complete_gcr", "--k", "2",
              "--B-bound", "1"], "unknown design 'complete_gcr' (expected bern, gcr, or crd)"),
            (BOUNDS + ["--B-bound", "1", "--gamma", "monte_carlo"],
             "gamma source must be closed, quadform, or mc; got 'monte_carlo'"),
            # the one Louvain candidate too coarse for the complete design
            (["select", "--graph", "sbm", "--n", "200", "--blocks", "10", "--pi-in", "0.1",
              "--pi-out", "0.005", "--graph-seed", "3", "--design", "crd", "--k", "7",
              "--B-bound", "1"], "error: resolution 0.25: k=7 outside [1, m-1] for m=7 clusters"),
            # options that the chosen design or mode would ignore
            (["simulate", "--n", "24", "--radius", "1", "--model", "weak", "--design", "bern",
              "--clustering", "contiguous", "--width", "2,4", "--replications", "20"],
             "error: --design bern treats units: it takes no --clustering contiguous"),
            (["mc-moments", "--n", "12", "--radius", "1", "--design", "gcr", "--p", "0.3",
              "--samples", "50", "--units", "5", "--mc-seeds", "3"],
             "error: mc-moments with --samples takes no --units, --mc-seeds"),
            (["mc-moments", "--n", "12", "--radius", "1", "--design", "gcr", "--p", "0.3",
              "--unit", "5", "--seed", "3", "--r-grid", "50", "--mc-seeds", "0"],
             "error: mc-moments without --samples takes no --unit"),
        ],
    )
    def test_degenerate_inputs_rejected(self, capsys, argv, message):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["cluster", "--n", "12", "--radius", "1", "--method", "louvain"],
            ["cluster", "--n", "12", "--radius", "1", "--in", "c.tsv"],
            ["model", "gen", "--n", "12", "--radius", "1", "--kind", "weak"],
            ["estimate", "--n", "12", "--radius", "1", "--model", "cycle", "--beta", "1"],
        ],
    )
    def test_removed_flags_rejected(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {' '.join(argv[-2:])}" in capsys.readouterr().err

    def test_unwritable_out_and_undecodable_config(self, tmp_path, capsys):
        argv = ["bounds", "--n", "12", "--radius", "1", "--B-bound", "1"]
        assert main(argv + ["--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Is a directory" in err and err.count("\n") == 1
        cfg = tmp_path / "latin1.cfg"
        cfg.write_bytes(b"n = 12 # caf\xe9\n")
        assert main(argv + ["--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {cfg}: 'utf-8' codec can't decode") and err.count("\n") == 1

    @pytest.mark.parametrize("flag", ["--config", "--graph", "--clustering", "--model"])
    def test_undecodable_file_named(self, tmp_path, capsys, flag):
        path = tmp_path / "bad.txt"
        path.write_bytes(b"0\t\xff\n")
        argv = ["simulate", "--n", "12", "--radius", "1", "--model", "cycle", flag, str(path)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: 'utf-8' codec can't decode byte 0xff")
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "flag, text, message",
        [
            ("--config", "n 12\n", "line 1: expected key=value"),
            ("--graph", "# edges\nn=12\n0 1\n", "line 3: expected 'src<TAB>dst'"),
            ("--clustering", "0\t0\n0\t1\n", "line 2: duplicate unit 0"),
            ("--model", "0\t-\t1.0\n0\t-\t2.0\n", "line 2: duplicate subset for unit 0"),
            ("--model", "0\t0,0\t2.0\n", "line 1: unit 0: subset (0, 0) repeats a member"),
            ("--model", "0\t12\t2.0\n", "line 1: unit 0: subset (12,) outside [0, 12)"),
        ],
    )
    def test_malformed_line_names_file(self, tmp_path, capsys, flag, text, message):
        path = tmp_path / "bad.txt"
        path.write_text(text)
        argv = ["simulate", "--n", "12", "--radius", "1", "--model", "cycle", flag, str(path)]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith(f"error: {path}: {message}")

    @pytest.mark.parametrize("command", ["simulate", "bounds", "oracle"])
    def test_non_finite_model_file_rejected(self, tmp_path, capsys, command):
        path = tmp_path / "m.tsv"
        path.write_text("0\t-\t0.0\n2\t1\tnan\n")
        assert main([command, "--n", "12", "--radius", "1", "--model", str(path)]) == 2
        err = capsys.readouterr().err
        assert err == "error: unit 2: coefficients must be finite\n"


# ---------------------------------------------------------------------------
# byte-identical goldens: each case's output file as recorded under
# tests/data/golden/, apart from wall-clock rows and the git_describe line.
# Re-record deliberately with `PYTHONPATH=src python tests/test_cli.py`.
# ---------------------------------------------------------------------------

GOLDEN_DIR = Path(__file__).parent / "data" / "golden"

GOLDEN_CASES = {
    "simulate_cycle": [
        "simulate", "--n", "240", "--radius", "3", "--model", "cycle",
        "--beta-star", "2", "--clustering", "contiguous", "--width", "4,8",
        "--design", "gcr", "--p", "0.25", "--estimator", "pinv:2,ht",
        "--replications", "60", "--seed", "3",
    ],
    "simulate_crd": [
        "simulate", "--n", "36", "--radius", "1", "--model", "weak",
        "--clustering", "contiguous", "--width", "3", "--design", "crd", "--k", "4",
        "--estimator", "pinv:1,crd1,ht", "--replications", "40",
        "--seed", "5", "--gamma", "closed",
    ],
    "bounds_gcr_model": [
        "bounds", "--n", "60", "--radius", "2", "--model", "cycle", "--beta-star", "2",
        "--clustering", "contiguous", "--width", "3", "--design", "gcr", "--p", "0.3",
        "--beta", "1",
    ],
    "bounds_crd_model": [
        "bounds", "--n", "40", "--radius", "2", "--model", "strong", "--model-seed", "2",
        "--clustering", "contiguous", "--width", "4", "--design", "crd", "--k", "3",
        "--beta", "1", "--gamma", "closed", "--monotone", "true",
    ],
    "bounds_crd_full": [
        "bounds", "--n", "8", "--radius", "2", "--model", "weak", "--clustering",
        "contiguous", "--width", "4", "--design", "crd", "--k", "1", "--beta", "1",
        "--gamma", "closed",
    ],
    "bounds_crd_singleton": [
        "bounds", "--n", "14", "--radius", "2", "--clustering", "singleton",
        "--design", "crd", "--k", "7", "--beta", "3", "--B-bound", "1",
    ],
    "select_sbm": [
        "select", "--graph", "sbm", "--n", "200", "--blocks", "10", "--pi-in", "0.1",
        "--pi-out", "0.005", "--graph-seed", "3", "--design", "gcr", "--p", "0.25",
        "--beta", "2", "--B-bound", "1",
    ],
    "select_sbm_model": [
        "select", "--graph", "sbm", "--n", "120", "--blocks", "6", "--pi-in", "0.2",
        "--pi-out", "0.01", "--graph-seed", "8", "--model", "weak",
        "--resolution-grid", "0.5,1.0", "--design", "crd", "--k", "2",
    ],
    "oracle_crd": [
        "oracle", "--n", "16", "--radius", "1", "--model", "cycle", "--beta-star", "2",
        "--clustering", "contiguous", "--width", "2", "--design", "crd", "--k", "4",
        "--estimator", "pinv:2,crd1,ht",
    ],
    "oracle_gcr": [
        "oracle", "--n", "16", "--radius", "1", "--model", "cycle", "--beta-star", "2",
        "--clustering", "contiguous", "--width", "2", "--design", "gcr", "--p", "0.3",
        "--estimator", "pinv:1,gcr_explicit:1,ht",
    ],
    "mc_moments_grid": [
        "mc-moments", "--n", "20", "--radius", "1", "--clustering", "contiguous",
        "--width", "2", "--design", "gcr", "--p", "0.3", "--beta", "2",
        "--units", "0,5", "--r-grid", "50,200", "--mc-seeds", "0,1",
    ],
    "cluster_louvain": [
        "cluster", "--graph", "sbm", "--n", "120", "--blocks", "6", "--pi-in", "0.2",
        "--pi-out", "0.01", "--graph-seed", "8", "--clustering", "louvain",
        "--resolution", "1.0", "--cluster-seed", "5",
    ],
    "model_gen_cycle": ["model", "gen", "--n", "9", "--radius", "2", "--model", "cycle",
                        "--beta-star", "2"],
    "model_gen_weak": ["model", "gen", "--graph", "sbm", "--n", "30", "--blocks", "3",
                       "--pi-in", "0.3", "--pi-out", "0.05", "--model", "weak",
                       "--model-seed", "4"],
}


def _stable_lines(text: str) -> list[str]:
    return [
        line
        for line in text.splitlines()
        if ",wall_time_s," not in line and not line.startswith("# git_describe=")
    ]


@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_golden_output(tmp_path, name):
    path = tmp_path / "out.csv"
    assert main(GOLDEN_CASES[name] + ["--out", str(path)]) == 0
    golden = (GOLDEN_DIR / f"{name}.csv").read_text(encoding="utf-8")
    assert _stable_lines(path.read_text(encoding="utf-8")) == _stable_lines(golden)


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    for name, argv in GOLDEN_CASES.items():
        assert main(argv + ["--out", str(GOLDEN_DIR / f"{name}.csv")]) == 0
