from __future__ import annotations

import csv
import math

import numpy as np
import pytest

import pinvtte.harness as harness
from pinvtte import (
    CapacityError,
    Clustering,
    EstimatorSpec,
    ExperimentConfig,
    InputError,
    analytic_cluster_moments,
    bernoulli_gcr,
    bernoulli_unit,
    cluster_stats,
    complete_gcr,
    cycle_power,
    draw_from_w,
    enumerate_support,
    estimate,
    evaluate,
    exhaustive_expectation,
    gen_cycle_model,
    gen_named_model,
    mc_convergence_report,
    monte_carlo_moments,
    outcome_bound,
    replicate_estimates,
    report_rows,
    rmse_ratio,
    run_experiment,
    sample,
    sbm_sample,
    select_clustering,
    singleton_clustering,
    true_tte,
    variance_bound,
    write_csv,
)
from pinvtte.design import _sample_draws
from conftest import (
    cluster_rows,
    lift,
    neighbors,
    random_clustering,
    random_graph,
    random_model,
    shifted_blocks,
)


def blocks(n, width):
    return Clustering.from_labels([i // width for i in range(n)])


def spied(fn, log):
    """fn, logging the row count of its second argument (a draw or pattern
    block), or 0 when called with fewer arguments, on each call."""

    def wrapper(*args, **kwargs):
        log.append(np.shape(args[1])[0] if len(args) > 1 else 0)
        return fn(*args, **kwargs)

    return wrapper


def small_cfg(**overrides):
    g = cycle_power(12, 1)
    model = gen_cycle_model(g, 1)
    d = bernoulli_gcr(blocks(12, 2), 0.25)
    base = dict(
        graph=g,
        model=model,
        design=d,
        estimators=(EstimatorSpec("pinv", 1),),
        replications=64,
        seed=7,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def untimed_rows(report):
    """report_rows without the wall_time_s row, which is real elapsed time."""
    return [row for row in report_rows(report) if row["metric"] != "wall_time_s"]


class TestEstimatorSpec:
    def test_parse_forms(self):
        assert EstimatorSpec.parse("pinv:2") == EstimatorSpec("pinv", 2)
        assert EstimatorSpec.parse("ht") == EstimatorSpec("ht", None)
        assert EstimatorSpec.parse("crd1") == EstimatorSpec("crd1", None)
        assert EstimatorSpec.parse("gcr_explicit:3") == EstimatorSpec(
            "gcr_explicit", 3
        )

    def test_validation(self):
        with pytest.raises(InputError, match="unknown estimator"):
            EstimatorSpec("magic", 1)
        with pytest.raises(InputError, match="beta"):
            EstimatorSpec("pinv")
        with pytest.raises(InputError, match="beta"):
            EstimatorSpec("gcr_explicit", 0)
        with pytest.raises(InputError, match="no beta"):
            EstimatorSpec("ht", 1)
        with pytest.raises(InputError, match="crd1"):
            EstimatorSpec("crd1", 2)
        with pytest.raises(InputError, match="integer"):
            EstimatorSpec.parse("pinv:two")

    def test_crd1_accepts_explicit_first_order(self):
        assert EstimatorSpec("crd1", 1).beta == 1


class TestExperimentConfig:
    def test_validation(self):
        with pytest.raises(InputError, match="replications"):
            small_cfg(replications=0)
        with pytest.raises(InputError, match="seed"):
            small_cfg(seed=-1)
        with pytest.raises(InputError, match="at least one estimator"):
            small_cfg(estimators=())


class TestReplicateEstimates:
    def test_matches_per_draw_estimator(self):
        cfg = small_cfg()
        W = np.stack([sample(cfg.design, cfg.seed, r).w for r in range(10)])
        lifted = lift(cfg.model, cfg.graph, cfg.design.clustering)
        ests = replicate_estimates(lifted, cfg.design, cfg.estimators, W)[0]
        for r in range(10):
            draw = draw_from_w(cfg.design, W[r])
            Y = evaluate(cfg.model, cfg.graph, draw.z)
            expect = estimate(cfg.graph, Y, draw, cfg.design, "pinv", 1).tte_hat
            assert ests[r] == pytest.approx(expect, abs=1e-12)

    def test_estimator_design_compatibility(self):
        cfg = small_cfg()
        W = np.stack([sample(cfg.design, 0, r).w for r in range(3)])
        lifted = lift(cfg.model, cfg.graph, cfg.design.clustering)
        with pytest.raises(InputError, match="complete"):
            replicate_estimates(lifted, cfg.design, [EstimatorSpec("crd1")], W)
        crd = complete_gcr(blocks(12, 2), 2)
        Wc = np.stack([sample(crd, 0, r).w for r in range(3)])
        with pytest.raises(InputError, match="Bernoulli"):
            replicate_estimates(lifted, crd, [EstimatorSpec("gcr_explicit", 1)], Wc)

    def test_shape_guard(self):
        cfg = small_cfg()
        lifted = lift(cfg.model, cfg.graph, cfg.design.clustering)
        with pytest.raises(InputError, match="W has shape"):
            replicate_estimates(lifted, cfg.design, cfg.estimators, np.zeros((4, 3)))
        # both routes (P = 4) check every block, up to the last draw
        for R in (3, 64):
            W = _sample_draws(cfg.design, 0, R)
            W[-1, 0] = 2
            with pytest.raises(InputError, match="0 or 1"):
                replicate_estimates(lifted, cfg.design, cfg.estimators, W)

    def test_blocks_do_not_change_estimates(self, monkeypatch):
        # one element per block forces the per-draw route, one draw at a
        # time, and gives bit for bit what the default budget gives: the
        # table route once R reaches P = 2**C_max draws, the per-draw route
        # below that. A budget of n * P keeps the table route but splits
        # both its pattern fill and its draw walk into several blocks.
        # Sampled cells with C_max from 1 to 4 and R around P, a whole
        # oracle support, and a full-contact complete design
        cases = []
        for radius, width, C in ((1, 12, 1), (1, 2, 2), (2, 2, 3), (3, 2, 4)):
            g, gcr = cycle_power(12, radius), bernoulli_gcr(blocks(12, width), 0.3)
            for R in (2**C - 1, 2**C, 2**C + 1, 40):
                W = _sample_draws(gcr, 4, R)
                cases.append((g, gcr, C, W, ["pinv:2", "gcr_explicit:1", "ht"]))
        crd = complete_gcr(blocks(12, 2), 3)
        W = enumerate_support(crd)[1]
        cases.append((cycle_power(12, 2), crd, 3, W, ["pinv:2", "crd1", "ht"]))
        # every unit touches all m = 3 clusters: crd1's rank-deficient form
        full = complete_gcr(blocks(6, 2), 1)
        cases.append((cycle_power(6, 2), full, 3, _sample_draws(full, 2, 30), ["crd1", "pinv:2"]))
        fills = []
        for g, d, C, W, labels in cases:
            specs = [EstimatorSpec.parse(text) for text in labels]
            lifted = lift(gen_cycle_model(g, 2), g, d.clustering)
            assert lifted.stats.C_max == C
            tabled = []
            with monkeypatch.context() as patch:
                patch.setattr(harness, "_evaluate_hits", spied(harness._evaluate_hits, tabled))
                default = replicate_estimates(lifted, d, specs, W)
                assert len(tabled) == (W.shape[0] >= 2**C)
                tabled.clear()
                patch.setattr(harness, "_BLOCK", lifted.stats.n * 2**C)
                split = replicate_estimates(lifted, d, specs, W)
                fills.append(len(tabled))
                patch.setattr(harness, "_BLOCK", 1)
                single = replicate_estimates(lifted, d, specs, W)
            assert len(single) == len(split) == len(default) == len(specs)
            for a, b, c in zip(default, split, single):
                assert a.shape == (W.shape[0],)
                assert np.array_equal(a, b) and np.array_equal(a, c)
        # the n * P budget splits the fill into P blocks once C_max > 1;
        # R = P - 1 takes the per-draw route
        assert fills == [0, 1, 1, 1, 0, 4, 4, 4, 0, 8, 8, 8, 0, 16, 16, 16, 8, 8]

    def test_blocks_within_budget(self, monkeypatch):
        # every outcome block holds at most _BLOCK // width draws or
        # patterns, width the larger of the model keys and the neighborhood
        # entries. The per-draw route evaluates each draw once; the table
        # route evaluates each of its P = 2**C_max patterns once, and only
        # when its n * P terms per table fit the budget
        cfg = small_cfg()
        agg = lift(cfg.model, cfg.graph, cfg.design.clustering)
        stats = agg.stats
        width = max(agg.values.size, stats.cluster_ids.size)
        P = 2**stats.C_max
        W = _sample_draws(cfg.design, 0, 50)
        draws, patterns = [], []
        monkeypatch.setattr(harness, "evaluate_draws", spied(harness.evaluate_draws, draws))
        monkeypatch.setattr(harness, "_evaluate_hits", spied(harness._evaluate_hits, patterns))
        routes = set()
        default = replicate_estimates(agg, cfg.design, cfg.estimators, W)
        for budget in (1, width, 3 * width + 1, stats.n * P, harness._BLOCK):
            draws.clear()
            patterns.clear()
            monkeypatch.setattr(harness, "_BLOCK", budget)
            ests = replicate_estimates(agg, cfg.design, cfg.estimators, W)
            assert all(np.array_equal(a, b) for a, b in zip(ests, default))
            if patterns:
                assert not draws and stats.n * P <= budget
                assert sum(patterns) == P
            else:
                assert sum(draws) == 50
            assert max(draws + patterns) <= max(1, budget // width)
            routes.add(bool(patterns))
        assert routes == {False, True}

    def test_rejects_lifted_inputs_of_another_clustering(self):
        cfg = small_cfg()
        W = np.stack([sample(cfg.design, 0, r).w for r in range(3)])
        other = lift(cfg.model, cfg.graph, shifted_blocks(12, 2))
        with pytest.raises(InputError, match="clustering"):
            replicate_estimates(other, cfg.design, cfg.estimators, W)


class TestRunExperiment:
    def test_deterministic_apart_from_timing(self):
        [a] = run_experiment(small_cfg())
        [b] = run_experiment(small_cfg())
        assert untimed_rows(a) == untimed_rows(b)

    def test_shared_cell_matches_separate_runs(self):
        g = cycle_power(12, 2)
        base = dict(model=gen_cycle_model(g, 2), graph=g, replications=40, tag="w=2")
        specs = tuple(EstimatorSpec.parse(s) for s in ("pinv:2", "ht"))
        shared = run_experiment(small_cfg(estimators=specs, **base))
        assert [rep.kind for rep in shared] == ["pinv", "ht"]
        for spec, rep in zip(specs, shared):
            [alone] = run_experiment(small_cfg(estimators=(spec,), **base))
            assert untimed_rows(rep) == untimed_rows(alone)
        assert shared[0].wall_time_s == shared[1].wall_time_s

    def test_seed_changes_estimates(self):
        [a] = run_experiment(small_cfg(seed=1))
        [b] = run_experiment(small_cfg(seed=2))
        assert a.mean_estimate != b.mean_estimate

    def test_mse_identity(self):
        [rep] = run_experiment(small_cfg(replications=128))
        cfg = small_cfg(replications=128)
        W = np.stack([sample(cfg.design, cfg.seed, r).w for r in range(128)])
        lifted = lift(cfg.model, cfg.graph, cfg.design.clustering)
        ests = replicate_estimates(lifted, cfg.design, cfg.estimators, W)[0]
        direct = float(np.mean((ests - rep.true_tte) ** 2))
        assert rep.empirical_mse == pytest.approx(direct, rel=1e-9)
        assert rep.empirical_rmse == pytest.approx(math.sqrt(rep.empirical_mse))

    def test_unbiased_estimator_lands_within_sampling_error(self):
        cfg = small_cfg(replications=2000)
        [rep] = run_experiment(cfg)
        se = math.sqrt(rep.empirical_variance / cfg.replications)
        assert abs(rep.empirical_bias) <= 4.0 * se
        assert rep.analytic_bias == pytest.approx(0.0, abs=1e-10)

    def test_var_bound_reported_and_respected(self):
        [rep] = run_experiment(small_cfg(replications=3000))
        assert rep.var_bound is not None
        assert rep.empirical_variance <= rep.var_bound

    def test_ht_fields(self):
        [rep] = run_experiment(small_cfg(estimators=(EstimatorSpec("ht"),)))
        assert rep.var_bound is None
        assert rep.analytic_bias == 0.0
        [crd_rep] = run_experiment(
            small_cfg(
                design=complete_gcr(blocks(12, 2), 2),
                estimators=(EstimatorSpec("ht"),),
            )
        )
        assert crd_rep.analytic_bias is None

    def test_crd1_analytic_bias(self):
        g = cycle_power(4, 1)
        c = Clustering.from_labels([0, 1, 0, 1])
        coeffs = []
        for i in range(4):
            cmap = {(): 0.0, (i,): 0.5}
            for j in neighbors(g)[i]:
                if j != i:
                    cmap[(j,)] = 0.25
            coeffs.append(
                dict(sorted(cmap.items(), key=lambda kv: (len(kv[0]), kv[0])))
            )
        from pinvtte import LowOrderModel

        model = LowOrderModel.from_dicts(beta_star=1, coeffs=tuple(coeffs))
        cfg = ExperimentConfig(
            graph=g,
            model=model,
            design=complete_gcr(c, 1),
            estimators=(EstimatorSpec("crd1"),),
            replications=8,
            seed=0,
        )
        [rep] = run_experiment(cfg)
        assert rep.analytic_bias == pytest.approx(-2.0 / 3.0, abs=1e-12)


class TestExhaustiveExpectation:
    def test_needs_an_estimator(self):
        g = cycle_power(8, 1)
        with pytest.raises(InputError, match="at least one estimator"):
            exhaustive_expectation(g, gen_cycle_model(g, 1), bernoulli_unit(8, 0.5), [])

    def test_variance_overflow_is_capacity_error(self):
        # weights near 1/p = 1e300 make squared deviations overflow
        g = cycle_power(8, 1)
        d = bernoulli_unit(8, 1e-300)
        with pytest.raises(CapacityError, match="variance of estimates up to 4.5e"):
            exhaustive_expectation(g, gen_cycle_model(g, 1), d, [EstimatorSpec("pinv", 1)])

    def test_uniform_support_reduction_is_plain_average(self):
        g = cycle_power(8, 1)
        model = gen_cycle_model(g, 1)
        d = complete_gcr(blocks(8, 2), 2)
        spec = EstimatorSpec("pinv", 1)
        mean, var = exhaustive_expectation(g, model, d, [spec])[0]
        _, W = enumerate_support(d)
        vals = replicate_estimates(lift(model, g, d.clustering), d, [spec], W)[0].tolist()
        assert mean == math.fsum(vals) / len(vals)
        assert var == math.fsum((e - mean) ** 2 for e in vals) / len(vals)

    def test_weighted_path_matches_manual(self):
        g = cycle_power(6, 1)
        model = gen_cycle_model(g, 1)
        d = bernoulli_gcr(blocks(6, 2), 0.3)
        spec = EstimatorSpec("pinv", 1)
        mean, var = exhaustive_expectation(g, model, d, [spec])[0]
        acc = v2 = 0.0
        for prob, w in zip(*enumerate_support(d)):
            draw = draw_from_w(d, w)
            Y = evaluate(model, g, draw.z)
            est = estimate(g, Y, draw, d, "pinv", 1).tte_hat
            acc += prob * est
        assert mean == pytest.approx(acc, abs=1e-12)
        assert mean == pytest.approx(true_tte(model), abs=1e-10)
        assert var >= 0.0

    def test_specs_share_one_enumeration(self, monkeypatch):
        # several specs at once give, bit for bit, what one call per spec
        # gives, from one support enumeration and one outcome evaluation:
        # of the P = 2**C_max patterns on the table route, of the support
        # points on the per-draw route (a support smaller than P)
        calls = {"enumerate_support": [], "evaluate_draws": [], "_evaluate_hits": []}
        g1, g2 = cycle_power(8, 1), cycle_power(8, 2)
        cases = [
            (g1, complete_gcr(blocks(8, 2), 2), ["pinv:2", "crd1", "ht"]),  # 6 points, P = 4
            (g1, bernoulli_gcr(blocks(8, 2), 0.3), ["pinv:1", "gcr_explicit:2", "ht"]),
            (g2, complete_gcr(blocks(8, 2), 2), ["pinv:2", "crd1"]),  # 6 points, P = 8
        ]
        routes = []
        for g, d, labels in cases:
            model = gen_cycle_model(g, 2)
            specs = [EstimatorSpec.parse(text) for text in labels]
            separate = [exhaustive_expectation(g, model, d, [spec])[0] for spec in specs]
            with monkeypatch.context() as patch:
                for name, log in calls.items():
                    log.clear()
                    patch.setattr(harness, name, spied(getattr(harness, name), log))
                together = exhaustive_expectation(g, model, d, specs)
            assert together == separate
            assert len(calls["enumerate_support"]) == 1
            assert len(calls["evaluate_draws"]) + len(calls["_evaluate_hits"]) == 1
            routes.append(len(calls["_evaluate_hits"]))
        assert routes == [1, 1, 0]

    def test_agrees_with_analytic_bias(self, rng):
        from pinvtte import bias_exact
        from conftest import ensure_tail

        gen = np.random.default_rng(17)
        g = random_graph(gen, 6)
        c = random_clustering(gen, 6, 3)
        model = ensure_tail(gen, random_model(gen, g, 1), g, 1)
        d = bernoulli_gcr(c, 0.4)
        mean, _ = exhaustive_expectation(g, model, d, [EstimatorSpec("pinv", 1)])[0]
        assert mean - true_tte(model) == pytest.approx(
            bias_exact(lift(model, g, d.clustering), d, 1), abs=1e-10
        )


class TestSelectClustering:
    def sbm_instance(self):
        g = sbm_sample(60, 4, 0.5, 0.0, seed=2)
        blocks_c = Clustering.from_labels([i // 15 for i in range(60)])
        return g, [singleton_clustering(60), blocks_c]

    def test_blocks_beat_singletons_on_disconnected_blocks(self):
        g, candidates = self.sbm_instance()
        chosen, ranking = select_clustering(
            g, [bernoulli_gcr(c, 0.25) for c in candidates], beta=1, B=1.0
        )
        assert chosen == 1
        best = dict(ranking)[1].var_bound_pairwise
        worst = dict(ranking)[0].var_bound_pairwise
        assert best < worst

    def test_duplicate_candidates_tie_to_first(self):
        g = cycle_power(12, 1)
        c = blocks(12, 3)
        chosen, ranking = select_clustering(
            g, [bernoulli_gcr(cc, 0.25) for cc in [c, c, c]], beta=1, B=1.0
        )
        assert chosen == 0
        assert [idx for idx, _ in ranking] == [0, 1, 2]

    def test_relabeling_invariance(self):
        g = cycle_power(12, 1)
        a = Clustering.from_labels([i // 3 for i in range(12)])
        relabel = {0: 3, 1: 2, 2: 1, 3: 0}
        b = Clustering.from_labels([relabel[i // 3] for i in range(12)])
        _, ranking = select_clustering(
            g, [bernoulli_gcr(cc, 0.25) for cc in [a, b]], beta=1, B=1.0
        )
        reps = dict(ranking)
        assert reps[0].var_bound_pairwise == pytest.approx(
            reps[1].var_bound_pairwise, rel=1e-12
        )

    def test_ranking_matches_direct_bounds(self):
        g = cycle_power(12, 1)
        cands = [singleton_clustering(12), blocks(12, 2), blocks(12, 4)]
        _, ranking = select_clustering(
            g, [bernoulli_gcr(cc, 0.25) for cc in cands], beta=1, B=2.0
        )
        for idx, rep in ranking:
            direct = variance_bound(
                cluster_stats(g, cands[idx]),
                bernoulli_gcr(cands[idx], 0.25),
                1,
                2.0,
                gamma_source="quadform",
            )
            assert rep.var_bound_pairwise == pytest.approx(
                direct.var_bound_pairwise, rel=1e-12
            )
        scores = [rep.var_bound_pairwise for _, rep in ranking]
        assert scores == sorted(scores)

    def test_empty_candidates(self):
        g = cycle_power(4, 1)
        with pytest.raises(InputError, match="candidate"):
            select_clustering(g, [], 1, 1.0)


class TestRmseRatio:
    def test_chosen_best_gives_ratio_one(self):
        g = cycle_power(12, 1)
        model = gen_cycle_model(g, 1)
        cands = [singleton_clustering(12), blocks(12, 2), blocks(12, 4)]
        ratio, rmses = rmse_ratio(
            g,
            model,
            [bernoulli_gcr(c, 0.25) for c in cands],
            EstimatorSpec("pinv", 1),
            replications=200,
            seed=3,
            chosen=int(np.argmin([
                rmse_ratio(
                    g, model, [bernoulli_gcr(c, 0.25)],
                    EstimatorSpec("pinv", 1), 200, 3, 0,
                )[1][0]
                for c in cands
            ])),
        )
        assert ratio == pytest.approx(1.0, abs=1e-12)
        assert len(rmses) == 3

    def test_ratio_at_least_one(self):
        g = cycle_power(12, 1)
        model = gen_cycle_model(g, 1)
        cands = [singleton_clustering(12), blocks(12, 2)]
        for chosen in (0, 1):
            ratio, _ = rmse_ratio(
                g,
                model,
                [bernoulli_gcr(c, 0.25) for c in cands],
                EstimatorSpec("pinv", 1),
                replications=100,
                seed=1,
                chosen=chosen,
            )
            assert ratio >= 1.0


    def test_rejects_bad_candidates(self):
        g = cycle_power(12, 1)
        model = gen_cycle_model(g, 1)
        spec = EstimatorSpec("pinv", 1)
        with pytest.raises(InputError, match="no candidate designs"):
            rmse_ratio(g, model, [], spec, 10, 0, 0)
        designs = [bernoulli_gcr(c, 0.25) for c in (singleton_clustering(12), blocks(12, 2))]
        for chosen in (-1, 2):
            with pytest.raises(InputError, match=f"chosen={chosen} is not a candidate"):
                rmse_ratio(g, model, designs, spec, 10, 0, chosen)

    def test_rmse_matches_run_experiment(self):
        # the RMSE alone, bit for bit the empirical_rmse of a full run
        g = cycle_power(24, 2)
        model = gen_cycle_model(g, 2)
        cands = [singleton_clustering(24), blocks(24, 3), blocks(24, 6)]
        designs = [complete_gcr(c, 2) for c in cands]
        spec = EstimatorSpec("pinv", 2)
        _, rmses = rmse_ratio(g, model, designs, spec, 60, 7, 0)
        for d, rmse in zip(designs, rmses):
            cfg = ExperimentConfig(g, model, d, (spec,), 60, 7)
            assert rmse == run_experiment(cfg)[0].empirical_rmse
        with pytest.raises(InputError, match="replications"):
            rmse_ratio(g, model, designs, spec, 0, 7, 0)


def per_cell_mc_report(d, g, units, beta, R_grid, seeds):
    """mc_convergence_report drawing afresh for every (R, seed) cell."""
    detail, per_R = [], {R: [] for R in R_grid}
    for R in R_grid:
        for seed in seeds:
            for i in units:
                mc = monte_carlo_moments(d, g, i, beta, R, seed)
                target = analytic_cluster_moments(d, mc.index.ground, beta).M_pinv
                err = float(np.linalg.norm(mc.M_pinv - target))
                detail.append({"R": R, "seed": seed, "unit": i, "fro_error": err})
                per_R[R].append(err)
    return detail, {R: (float(np.median(e)), float(np.std(e))) for R, e in per_R.items()}


class TestMcConvergenceReport:
    @pytest.mark.parametrize("design", ["gcr", "crd"])
    def test_prefix_draws_match_per_cell_route(self, design):
        g = cycle_power(16, 1)
        c = blocks(16, 2)
        d = bernoulli_gcr(c, 0.35) if design == "gcr" else complete_gcr(c, 3)
        R_grid, seeds = [30, 7, 120], [2, 0, 5]
        out = mc_convergence_report(d, g, [0, 9, 15], 2, R_grid, seeds)
        detail, summary = per_cell_mc_report(d, g, [0, 9, 15], 2, R_grid, seeds)
        assert out["detail"] == detail
        assert [row["R"] for row in out["summary"]] == R_grid
        for row in out["summary"]:
            assert (row["median_fro_error"], row["std_fro_error"]) == summary[row["R"]]
        with pytest.raises(InputError, match="at least one draw"):
            mc_convergence_report(d, g, [0], 2, [10, 0], [1])

    def test_shapes_and_monotone_error(self):
        g = cycle_power(10, 1)
        d = bernoulli_gcr(blocks(10, 2), 0.4)
        out = mc_convergence_report(
            d, g, units=[0, 5], beta=1, R_grid=[100, 10_000], seeds=[0, 1, 2]
        )
        assert len(out["detail"]) == 2 * 3 * 2
        assert len(out["summary"]) == 2
        small, large = out["summary"]
        assert small["R"] == 100 and large["R"] == 10_000
        assert large["median_fro_error"] < small["median_fro_error"]
        assert small["log10_R"] == pytest.approx(2.0)
        for row in out["detail"]:
            assert row["fro_error"] >= 0.0

    def test_rows_match_per_unit_moments(self):
        # draws shared across units give each unit's own estimate bit for bit
        g = cycle_power(12, 1)
        d = complete_gcr(blocks(12, 3), 2)
        out = mc_convergence_report(d, g, units=[0, 7, 11], beta=2, R_grid=[50], seeds=[4])
        for row in out["detail"]:
            i = row["unit"]
            mc = monte_carlo_moments(d, g, i, 2, 50, 4)
            ground = cluster_rows(cluster_stats(g, d.clustering))[i]
            target = analytic_cluster_moments(d, ground, 2).M_pinv
            assert row["fro_error"] == float(np.linalg.norm(mc.M_pinv - target))

    def test_rejects_empty_units_grid_and_seeds(self):
        g = cycle_power(10, 1)
        d = bernoulli_gcr(blocks(10, 2), 0.4)
        for name, args in (
            ("units", ([], [10], [0])),
            ("R_grid", ([0], [], [0])),
            ("seeds", ([0], [10], [])),
        ):
            units, R_grid, seeds = args
            with pytest.raises(InputError, match=f"empty {name}"):
                mc_convergence_report(d, g, units, 1, R_grid, seeds)

    def test_rejects_units_outside_graph(self):
        g = cycle_power(10, 1)
        d = bernoulli_gcr(blocks(10, 2), 0.4)
        for units in ([0, -1], [0, 50], [10]):
            with pytest.raises(InputError, match="units"):
                mc_convergence_report(d, g, units, 1, [10], [0])


class TestWriteCsv:
    def test_file_output_with_metadata(self, tmp_path):
        path = tmp_path / "out.csv"
        rows = [{"a": 1, "b": "x"}, {"a": 2, "b": "y"}]
        write_csv(rows, ["a", "b"], str(path), seed=9)
        lines = path.read_text().splitlines()
        assert lines[0] == "a,b"
        assert lines[1] == "1,x"
        assert lines[2] == "2,y"
        assert lines[3] == "# seed=9"
        assert lines[4].startswith("# git_describe=")

    def test_stdout_and_optional_seed(self, capsys):
        write_csv([{"a": 3}], ["a"], None)
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "a"
        assert out[1] == "3"
        assert not any(line.startswith("# seed=") for line in out)
        assert out[-1].startswith("# git_describe=")

    def test_missing_fields_blank(self, tmp_path):
        path = tmp_path / "out.csv"
        write_csv([{"a": 1}], ["a", "b"], str(path))
        assert path.read_text().splitlines()[1] == "1,"

    def test_fields_with_commas_and_quotes_round_trip(self, tmp_path):
        path = tmp_path / "out.csv"
        tag = 'a,"b"'
        write_csv([{"tag": tag, "value": 1}], ["tag", "value"], str(path), seed=3)
        with open(path, newline="", encoding="utf-8") as fh:
            rows = [r for r in csv.reader(fh) if not r[0].startswith("#")]
        assert rows == [["tag", "value"], [tag, "1"]]

    def test_report_rows_round_trip_bytes(self, tmp_path):
        [rep] = run_experiment(small_cfg())
        p1, p2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
        names = ["estimator", "beta", "tag", "replications", "true_tte", "metric", "value"]
        write_csv(untimed_rows(rep), names, str(p1), seed=7)
        [rep2] = run_experiment(small_cfg())
        write_csv(untimed_rows(rep2), names, str(p2), seed=7)
        assert p1.read_bytes() == p2.read_bytes()

    def test_metric_values_reparse_exactly(self):
        [rep] = run_experiment(small_cfg())
        for row in untimed_rows(rep):
            if row["metric"] == "mean_estimate":
                assert float(row["value"]) == rep.mean_estimate
