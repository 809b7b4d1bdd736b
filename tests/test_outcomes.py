from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pinvtte import (
    Clustering,
    InputError,
    LowOrderModel,
    bernoulli_gcr,
    bias_crd,
    bias_exact,
    cluster_aggregate,
    cluster_stats,
    complete_gcr,
    cycle_power,
    evaluate,
    evaluate_draws,
    from_edge_list,
    gen_cycle_model,
    gen_named_model,
    load_model,
    mixed_signs,
    outcome_bound,
    save_model,
    sbm_sample,
    singleton_clustering,
    true_tte,
)
from conftest import (
    agg_dicts,
    cluster_rows,
    csr_graph,
    lift,
    neighbors,
    oracle_bias_crd,
    oracle_bias_exact,
    oracle_cluster_aggregate,
    oracle_cluster_nbhd,
    oracle_cycle_coeffs,
    oracle_flat,
    oracle_mixed_signs,
    oracle_named_coeffs,
    oracle_outcome_bound,
    oracle_true_tte,
    random_clustering,
    random_coeffs,
    random_graph,
    random_model,
    traced_peak,
)


def pair_unit_model():
    # one unit whose outcome is the pure interaction of its two neighbors
    g = from_edge_list([(1, 0), (2, 0)], 3)
    model = LowOrderModel.from_dicts(
        beta_star=2,
        coeffs=(
            {(): 0.0, (1, 2): 1.0},
            {(): 0.0},
            {(): 0.0},
        ),
    )
    return g, model


class TestLowOrderModel:
    def test_baseline_required(self):
        with pytest.raises(InputError, match="baseline"):
            LowOrderModel.from_dicts(beta_star=1, coeffs=({(0,): 1.0},))

    def test_subset_size_capped(self):
        with pytest.raises(InputError):
            LowOrderModel.from_dicts(beta_star=1, coeffs=({(): 0.0, (0, 1): 1.0},))

    @pytest.mark.parametrize(
        "coeffs",
        [
            ({(): 0.0}, {(): 0.0, (0,): math.nan}),
            ({(): 0.0}, {(): math.inf, (0,): 1.0}),
            ({(): 0.0}, {(): 0.0, (1,): -math.inf}),
        ],
    )
    def test_non_finite_coefficient_names_unit(self, coeffs):
        with pytest.raises(InputError, match="unit 1: coefficients must be finite"):
            LowOrderModel.from_dicts(beta_star=1, coeffs=coeffs)

    def test_unsorted_key_rejected(self):
        with pytest.raises(InputError):
            LowOrderModel.from_dicts(beta_star=2, coeffs=({(): 0.0, (1, 0): 1.0},))

    def test_subset_outside_neighborhood_rejected_on_use(self):
        g = from_edge_list([], 2)
        model = LowOrderModel.from_dicts(beta_star=1, coeffs=({(): 0.0, (1,): 1.0}, {(): 0.0}))
        with pytest.raises(InputError, match="neighborhood"):
            evaluate(model, g, [0, 0])

    def test_validation_repeated_for_another_graph(self):
        model = LowOrderModel.from_dicts(beta_star=1, coeffs=({(): 0.0, (1,): 1.0}, {(): 0.0}))
        assert evaluate(model, from_edge_list([(1, 0)], 2), [0, 1])[0] == 1.0
        with pytest.raises(InputError, match="neighborhood"):
            evaluate(model, from_edge_list([], 2), [0, 0])


class TestEvaluate:
    def test_all_control_returns_baselines(self, rng):
        g = random_graph(rng, 9)
        model = random_model(rng, g, 2)
        y = evaluate(model, g, np.zeros(9, dtype=int))
        assert np.allclose(y, [cmap[()] for cmap in model.coeffs])

    def test_interaction_needs_both_treated(self):
        g, model = pair_unit_model()
        assert evaluate(model, g, [0, 1, 1])[0] == 1.0
        assert evaluate(model, g, [0, 1, 0])[0] == 0.0
        assert evaluate(model, g, [1, 0, 1])[0] == 0.0

    def test_weak_model_fully_treated(self):
        g = cycle_power(20, 2)
        model = gen_named_model(g, "weak", seed=4)
        y1 = evaluate(model, g, np.ones(20, dtype=int))
        y0 = evaluate(model, g, np.zeros(20, dtype=int))
        assert np.allclose(y1 - y0, 1.0)

    def test_only_neighborhood_read(self, rng):
        g = random_graph(rng, 10)
        model = random_model(rng, g, 2)
        z = rng.integers(0, 2, size=10)
        y = evaluate(model, g, z)
        for i in range(10):
            flipped = z.copy()
            outside = [j for j in range(10) if j not in neighbors(g)[i]]
            for j in outside:
                flipped[j] = 1 - flipped[j]
            assert evaluate(model, g, flipped)[i] == pytest.approx(y[i], abs=1e-12)

    def test_z_validation(self):
        g, model = pair_unit_model()
        with pytest.raises(InputError):
            evaluate(model, g, [0, 1])
        with pytest.raises(InputError):
            evaluate(model, g, [0, 2, 0])


class TestEvaluateDraws:
    def test_matches_per_draw_evaluate(self, rng):
        for trial in range(60):
            n = int(rng.integers(1, 13))
            g = random_graph(rng, n)
            # m = n is the singleton clustering; small m puts several
            # members of one subset into one cluster
            m = min(n, int(rng.choice([1, 2, max(1, n // 2), n])))
            c = random_clustering(rng, n, m)
            beta_star = 1 + trial % 3
            model = random_model(rng, g, beta_star, keep=0.0 if trial % 10 == 0 else 0.6)
            W = rng.integers(0, 2, size=(7, m)).astype(np.int8)
            Y = evaluate_draws(lift(model, g, c), W)
            assert Y.shape == (7, n)
            for w, y in zip(W, Y):
                expect = evaluate(model, g, w[np.asarray(c.assignment)])
                assert np.allclose(y, expect, rtol=0.0, atol=1e-12)

    def test_baseline_only_model(self):
        g = cycle_power(6, 1)
        model = LowOrderModel.from_dicts(1, tuple({(): float(i)} for i in range(6)))
        W = np.array([[0, 1, 0], [1, 1, 1]], dtype=np.int8)
        agg = lift(model, g, Clustering.from_labels([0, 0, 1, 1, 2, 2]))
        Y = evaluate_draws(agg, W)
        assert np.array_equal(Y, np.tile(np.arange(6.0), (2, 1)))

    def test_rows_independent_of_batch(self, rng):
        g = random_graph(rng, 12)
        c = random_clustering(rng, 12, 5)
        model = random_model(rng, g, 3)
        W = rng.integers(0, 2, size=(9, 5)).astype(np.int8)
        agg = lift(model, g, c)
        Y = evaluate_draws(agg, W)
        for r in range(9):
            assert np.array_equal(evaluate_draws(agg, W[r : r + 1])[0], Y[r])
        halves = [evaluate_draws(agg, W[:4]), evaluate_draws(agg, W[4:])]
        assert np.array_equal(np.vstack(halves), Y)

    def test_draw_validation(self):
        g, model = pair_unit_model()
        c = Clustering.from_labels([0, 1, 1])
        with pytest.raises(InputError, match="W has shape"):
            evaluate_draws(lift(model, g, c), np.zeros((2, 3), dtype=np.int8))
        with pytest.raises(InputError, match="W has shape"):
            evaluate_draws(lift(model, g, c), np.zeros(2, dtype=np.int8))
        for bad in ([[0, 2]], [[0.5, 1.0]], [[-1, 0]], [[256, 0]]):
            with pytest.raises(InputError, match="0 or 1"):
                evaluate_draws(lift(model, g, c), np.array(bad))
        with pytest.raises(InputError, match="clustering"):
            evaluate_draws(
                lift(model, g, Clustering.from_labels([0, 1])), np.zeros((1, 2))
            )


class TestTrueTte:
    def test_cycle_model_geometric_totals(self):
        g = cycle_power(120, 3)
        for beta_star, expect in [(1, 0.5), (2, 0.75), (3, 0.875), (4, 0.9375)]:
            assert true_tte(gen_cycle_model(g, beta_star)) == pytest.approx(
                expect, abs=1e-12
            )

    def test_named_models(self):
        g = cycle_power(30, 2)
        assert true_tte(gen_named_model(g, "null", seed=0)) == 0.0
        assert true_tte(gen_named_model(g, "weak", seed=0)) == pytest.approx(1.0)
        # strong: per-unit d/2 + (d-1)/2 with d = 5
        assert true_tte(gen_named_model(g, "strong", seed=0)) == pytest.approx(4.5)

    def test_equals_global_contrast(self, rng):
        g = random_graph(rng, 12)
        model = random_model(rng, g, 2)
        y1 = evaluate(model, g, np.ones(12, dtype=int))
        y0 = evaluate(model, g, np.zeros(12, dtype=int))
        assert true_tte(model) == pytest.approx(float(np.mean(y1 - y0)), abs=1e-12)


class TestGenCycleModel:
    def test_coefficient_values_degree_seven(self):
        g = cycle_power(120, 3)
        model = gen_cycle_model(g, 2)
        cmap = model.coeffs[0]
        assert cmap[()] == 1.0
        singles = [v for s, v in cmap.items() if len(s) == 1]
        pairs = [v for s, v in cmap.items() if len(s) == 2]
        assert len(singles) == 7 and all(v == pytest.approx(1 / 14) for v in singles)
        assert len(pairs) == 21 and all(v == pytest.approx(1 / 84) for v in pairs)

    def test_order_beyond_degree_rejected(self):
        g = cycle_power(9, 1)
        with pytest.raises(InputError):
            gen_cycle_model(g, 4)


class TestGenNamedModel:
    def test_unknown_kind(self):
        g = cycle_power(6, 1)
        with pytest.raises(InputError):
            gen_named_model(g, "mystery", seed=0)

    def test_rejects_negative_seed(self):
        with pytest.raises(InputError, match="seed must be nonnegative, got -1"):
            gen_named_model(cycle_power(12, 1), "weak", seed=-1)

    def test_seed_reproducibility(self):
        g = cycle_power(12, 1)
        a = gen_named_model(g, "weak", seed=5)
        b = gen_named_model(g, "weak", seed=5)
        assert a.coeffs == b.coeffs
        c = gen_named_model(g, "weak", seed=6)
        assert c.coeffs != a.coeffs

    def test_weak_coefficients(self):
        g = cycle_power(10, 2)
        model = gen_named_model(g, "weak", seed=1)
        cmap = model.coeffs[3]
        assert cmap[(3,)] == 0.5
        for j in neighbors(g)[3]:
            if j != 3:
                assert cmap[(j,)] == pytest.approx(1 / 8)

    def test_weak_degree_one_unit_keeps_self_effect_only(self):
        # a unit with no neighbors has d_i = 1; the 1/(2(d_i-1)) spillover
        # has no recipients, so its whole effect is the self term
        g = from_edge_list([(1, 2), (2, 1)], 3)
        model = gen_named_model(g, "weak", seed=0)
        nonempty = {s: v for s, v in model.coeffs[0].items() if s}
        assert nonempty == {(0,): 0.5}

    def test_null_model_has_no_interference_terms(self):
        g = cycle_power(8, 1)
        model = gen_named_model(g, "null", seed=2)
        assert all(set(cmap) == {()} for cmap in model.coeffs)

    def test_baseline_scales_with_degree(self):
        edges = [(0, 1), (1, 0), (2, 1), (1, 2)]
        g = from_edge_list(edges, 3)  # degrees 2, 3, 2
        model = gen_named_model(g, "strong", seed=8)
        noise = np.random.default_rng(8).standard_normal(3)
        for i, d in enumerate([2, 3, 2]):
            assert model.coeffs[i][()] == pytest.approx((0.5 + 0.1 * noise[i]) * d / 3)


class TestClusterAggregate:
    def test_singleton_identity(self, rng):
        g = random_graph(rng, 8)
        model = random_model(rng, g, 2)
        agg = lift(model, g, singleton_clustering(8))
        for i in range(8):
            assert agg_dicts(agg)[i] == model.coeffs[i]

    def test_two_neighbors_one_cluster(self):
        g = from_edge_list([(1, 0), (2, 0)], 3)
        model = LowOrderModel.from_dicts(
            beta_star=1,
            coeffs=({(): 0.0, (1,): 0.25, (2,): 0.25}, {(): 0.0}, {(): 0.0}),
        )
        c = Clustering.from_labels([0, 1, 1])
        agg = lift(model, g, c)
        assert agg_dicts(agg)[0][(1,)] == pytest.approx(0.5)

    def test_mixed_cluster_pair_subsets(self):
        # beta_star = 2 with two units in one cluster and one in another:
        # {i}, {i'}, {i,i'} all aggregate into the same single-cluster key
        g = from_edge_list([(1, 0), (2, 0)], 3)
        model = LowOrderModel.from_dicts(
            beta_star=2,
            coeffs=(
                {(): 1.0, (0,): 1.0, (1,): 2.0, (0, 1): 4.0, (2,): 8.0, (0, 2): 16.0, (1, 2): 32.0},
                {(): 0.0},
                {(): 0.0},
            ),
        )
        c = Clustering.from_labels([0, 0, 1])
        agg = lift(model, g, c)
        assert agg_dicts(agg)[0][()] == 1.0
        assert agg_dicts(agg)[0][(0,)] == pytest.approx(1.0 + 2.0 + 4.0)
        assert agg_dicts(agg)[0][(1,)] == pytest.approx(8.0)
        assert agg_dicts(agg)[0][(0, 1)] == pytest.approx(16.0 + 32.0)

    def test_preserves_cluster_constant_outcomes(self, rng):
        # the per-key aggregate, Y_i = sum_U x_{i,U} prod_{C in U} w_C,
        # against the batched cluster-level evaluation; cluster_aggregate
        # itself shares evaluate_draws' re-keying, so it would only check
        # that against itself
        g = random_graph(rng, 11)
        c = random_clustering(rng, 11, 4)
        model = random_model(rng, g, 2)
        agg = oracle_cluster_aggregate(model, g, c)
        W = rng.integers(0, 2, size=(8, 4))
        for w, y in zip(W, evaluate_draws(lift(model, g, c), W)):
            expect = [
                sum(val * math.prod(w[cid] for cid in u) for u, val in xmap.items())
                for xmap in agg
            ]
            assert np.allclose(y, expect, rtol=0.0, atol=1e-12)


class TestOutcomeBound:
    def test_flat_baseline(self):
        g = from_edge_list([], 4)
        model = LowOrderModel.from_dicts(beta_star=1, coeffs=tuple({(): 0.5} for _ in range(4)))
        assert outcome_bound(model, g) == 0.5

    def test_cycle_model_first_order(self):
        g = cycle_power(120, 3)
        assert outcome_bound(gen_cycle_model(g, 1), g) == pytest.approx(1.5)

    def test_opposite_signs(self):
        g = from_edge_list([(1, 0), (2, 0)], 3)
        model = LowOrderModel.from_dicts(
            beta_star=1,
            coeffs=({(): 0.0, (1,): 1.0, (2,): -1.0}, {(): 0.0}, {(): 0.0}),
        )
        assert outcome_bound(model, g) == 1.0

    def test_dominates_enumeration(self, rng):
        for trial in range(15):
            gen = np.random.default_rng(trial)
            g = random_graph(gen, 7)
            model = random_model(gen, g, 2)
            B = outcome_bound(model, g)
            worst = max(
                float(np.max(np.abs(evaluate(model, g, np.array(z)))))
                for z in itertools.product((0, 1), repeat=7)
            )
            assert worst <= B + 1e-12

    def test_exact_when_signs_agree(self, rng):
        for trial in range(10):
            gen = np.random.default_rng(100 + trial)
            g = random_graph(gen, 6)
            model = random_model(gen, g, 2, nonnegative=True)
            B = outcome_bound(model, g)
            worst = max(
                float(np.max(np.abs(evaluate(model, g, np.array(z)))))
                for z in itertools.product((0, 1), repeat=6)
            )
            assert worst == pytest.approx(B, abs=1e-12)

    def test_interaction_cancellation_keeps_bound_sound(self):
        # formula brackets at 3 while the true maximum is 1; soundness, not
        # tightness, is the contract
        g = from_edge_list([(1, 0), (2, 0)], 3)
        model = LowOrderModel.from_dicts(
            beta_star=2,
            coeffs=(
                {(): 0.0, (1,): 1.0, (2,): 1.0, (1, 2): -3.0},
                {(): 0.0},
                {(): 0.0},
            ),
        )
        B = outcome_bound(model, g)
        worst = max(
            abs(evaluate(model, g, np.array(z))[0])
            for z in itertools.product((0, 1), repeat=3)
        )
        assert worst == 1.0
        assert B == 3.0


class TestMixedSigns:
    def test_detects_both_signs(self):
        g = from_edge_list([(1, 0)], 2)
        c = singleton_clustering(2)
        pos = LowOrderModel.from_dicts(beta_star=1, coeffs=({(): 0.0, (1,): 1.0}, {(): 0.0}))
        assert not mixed_signs(lift(pos, g, c))
        mixed = LowOrderModel.from_dicts(
            beta_star=1, coeffs=({(): 0.0, (0,): -1.0, (1,): 1.0}, {(): 0.0})
        )
        assert mixed_signs(lift(mixed, g, c))

    def test_baseline_sign_irrelevant(self):
        g = from_edge_list([], 1)
        model = LowOrderModel.from_dicts(beta_star=1, coeffs=({(): -5.0, (0,): 1.0},))
        assert not mixed_signs(lift(model, g, singleton_clustering(1)))


class TestModelFiles:
    def test_round_trip(self, tmp_path, rng):
        g = random_graph(rng, 9)
        model = random_model(rng, g, 2)
        path = tmp_path / "m.tsv"
        save_model(model, str(path))
        back = load_model(str(path), 9)
        assert back.coeffs == model.coeffs
        assert back.beta_star <= model.beta_star

    def test_round_trip_keeps_row_order(self, tmp_path):
        # each unit's rows come back in the model's order, not sorted, and
        # the model's order with them (1 for a baseline-only model)
        g = sbm_sample(30, 3, 0.3, 0.05, seed=4)
        path = tmp_path / "m.tsv"
        for model in [
            *(gen_named_model(g, kind, 4) for kind in ("weak", "strong", "null")),
            gen_cycle_model(cycle_power(9, 2), 2),
            LowOrderModel.from_dicts(2, [{(): 1.0, (0, 1): 0.5}, {(): 0.0}]),
            LowOrderModel.from_dicts(1, [{(): 1.0}, {(): 0.0}]),
        ]:
            save_model(model, str(path))
            assert load_model(str(path), model.n) == model

    def test_save_rejects_an_order_the_file_drops(self, tmp_path):
        # the file records no order, and load_model reads the widest subset's
        path = tmp_path / "m.tsv"
        model = LowOrderModel.from_dicts(2, [{(): 1.0, (i,): 0.5} for i in range(6)])
        with pytest.raises(InputError, match="order 2 would read back at order 1"):
            save_model(model, str(path))
        with pytest.raises(InputError, match="order 0 would read back at order 1"):
            save_model(LowOrderModel.from_dicts(0, [{(): 1.0}, {(): 0.0}]), str(path))
        assert not path.exists()

    def test_empty_subset_dash(self, tmp_path):
        path = tmp_path / "m.tsv"
        path.write_text("0\t-\t2.5\n0\t0\t1.0\n")
        model = load_model(str(path), 1)
        assert model.coeffs[0][()] == 2.5
        assert model.coeffs[0][(0,)] == 1.0

    def test_beta_star_inferred(self, tmp_path):
        path = tmp_path / "m.tsv"
        path.write_text("0\t0,1,2\t1.0\n")
        assert load_model(str(path), 3).beta_star == 3

    def test_missing_baseline_defaults_zero(self, tmp_path):
        path = tmp_path / "m.tsv"
        path.write_text("1\t1\t1.0\n")
        model = load_model(str(path), 2)
        assert model.coeffs[0][()] == 0.0
        assert model.coeffs[1][()] == 0.0

    def test_duplicate_subset_names_line(self, tmp_path):
        path = tmp_path / "m.tsv"
        path.write_text("0\t-\t1.0\n0\t-\t2.0\n")
        with pytest.raises(InputError, match="line 2"):
            load_model(str(path), 1)

    def test_unit_out_of_range_names_line(self, tmp_path):
        path = tmp_path / "m.tsv"
        path.write_text("5\t-\t1.0\n")
        with pytest.raises(InputError, match="line 1"):
            load_model(str(path), 2)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_tte_matches_contrast_property(seed):
    gen = np.random.default_rng(seed)
    g = random_graph(gen, int(gen.integers(2, 12)))
    model = random_model(gen, g, int(gen.integers(1, 3)))
    y1 = evaluate(model, g, np.ones(g.n, dtype=int))
    y0 = evaluate(model, g, np.zeros(g.n, dtype=int))
    assert true_tte(model) == pytest.approx(float(np.mean(y1 - y0)), abs=1e-10)


# ---------------------------------------------------------------------------
# the array routes against the per-unit dict and tuple oracles of conftest
# ---------------------------------------------------------------------------


class TestArrayRoutesMatchDictOracles:
    def test_random_triples(self):
        seen = set()
        for trial in range(72):
            gen = np.random.default_rng(7000 + trial)
            n = int(gen.integers(1, 14))
            g = random_graph(gen, n)
            # every fourth clustering is all singletons; the rest have few
            # clusters, one or two among them
            m = n if trial % 4 == 0 else int(gen.integers(1, max(1, n // 2) + 1))
            c = random_clustering(gen, n, m)
            beta_star = 1 + trial % 3
            keep = 0.0 if trial % 6 == 5 else 0.6  # baseline-only models
            coeffs = random_coeffs(gen, g, beta_star, keep=keep)
            model = LowOrderModel.from_dicts(beta_star, coeffs)
            got = (model.owner, model.members, model.values, model.baseline)
            for a, b in zip(got, oracle_flat(beta_star, coeffs, g)):
                assert a.dtype == b.dtype and np.array_equal(a, b)
            assert model.coeffs == tuple(coeffs)
            assert true_tte(model) == oracle_true_tte(coeffs)
            assert outcome_bound(model, g) == oracle_outcome_bound(coeffs)
            x = oracle_cluster_aggregate(model, g, c)
            agg = lift(model, g, c)
            assert agg_dicts(agg) == [dict(sorted(xm.items())) for xm in x]
            assert mixed_signs(agg) == oracle_mixed_signs(x)
            stats = agg.stats
            nbhds = oracle_cluster_nbhd(g, c)
            assert cluster_rows(stats) == nbhds
            assert stats.C_max == max(map(len, nbhds))
            assert stats.full_contact_count == sum(len(nb) == m for nb in nbhds)
            if m >= 2 and trial % 2:
                d = complete_gcr(c, int(gen.integers(1, m)))
            else:
                d = bernoulli_gcr(c, float(gen.uniform(0.1, 0.9)))
            beta = 1 + (trial // 3) % 2
            assert bias_exact(lift(model, g, d.clustering), d, beta) == pytest.approx(
                oracle_bias_exact(model, g, d, beta), rel=1e-12, abs=1e-12
            )
            if beta_star == 1 and not d.is_bernoulli:
                B = max(outcome_bound(model, g), 1.0)
                got_crd = bias_crd(agg, d, B)
                want_crd = oracle_bias_crd(x, nbhds, d.m, d.k, B)
                assert got_crd == pytest.approx(want_crd, rel=1e-12, abs=1e-12)
                seen.add("bias_crd")
            seen.update({d.variant, ("beta_star", beta_star), ("m", min(m, 3))})
            seen.add("baseline only" if keep == 0.0 else "keyed")
            seen.add("singleton" if m == n else "few clusters")
        assert {"bernoulli_gcr", "complete_gcr", "bias_crd", "baseline only"} <= seen
        assert {("beta_star", b) for b in (1, 2, 3)} | {("m", 1), ("m", 2)} <= seen
        assert {"singleton", "few clusters", "keyed"} <= seen

    @pytest.mark.parametrize(
        "graph",
        [
            lambda: cycle_power(11, 2),
            lambda: sbm_sample(60, 3, 0.3, 0.05, seed=2),
            lambda: random_graph(np.random.default_rng(5), 15, extra_max=6),
        ],
    )
    def test_generators_match_dict_builders(self, monkeypatch, graph):
        g = graph()
        # budgets of 1 and 7 member entries put block edges between every
        # few units and rows
        for budget in (None, 1, 7):
            if budget is not None:
                monkeypatch.setattr("pinvtte.outcomes._BLOCK", budget)
            for beta_star in range(1, min(3, int(g.degrees.min())) + 1):
                want = LowOrderModel.from_dicts(beta_star, oracle_cycle_coeffs(g, beta_star))
                assert gen_cycle_model(g, beta_star) == want
                want._validate(g)  # and every row passes the block check
            for kind in ("null", "weak", "strong"):
                want = LowOrderModel.from_dicts(1, oracle_named_coeffs(g, kind, 4))
                assert gen_named_model(g, kind, 4) == want

    @pytest.mark.parametrize(
        "beta_star, coeffs, rows",
        [
            (1, [{(0,): 1.0}], [(0,)]),
            (1, [{(): 1.0}, {(1,): 1.0}], [(0,), (1,)]),
            (1, [{(): 0.0, (0, 1): 1.0}, {(): 0.0}], [(0, 1), (1,)]),
            (2, [{(): 0.0, (1, 0): 1.0}, {(): 0.0}], [(0, 1), (1,)]),
            (2, [{(): 0.0, (0, 0): 1.0}], [(0,)]),
            (1, [{(): 0.0, (1,): 1.0}, {(): 0.0}], [(0,), (1,)]),
            (1, [{(): 0.0, (2,): 1.0}, {(): 0.0}], [(0,), (1,)]),
            (1, [{(): 0.0}, {(): 0.0, (7,): 1.0}], [(0,), (1,)]),
            (1, [{(): 0.0, (-1,): 1.0}], [(0,)]),
            (2, [{(): 0.0, (0, 2): 1.0}, {(): 0.0}], [(0, 1), (1,)]),
            (-1, [{(): 0.0}], [(0,)]),
            (1, [{(): 0.0}], [(0,), (1,)]),
            (
                2,
                [
                    {(): 0.0, (0,): 1.0, (0, 1): 1.0},
                    {(): 0.0, (0, 1): 1.0, (1, 2): 1.0, (0, 2): 1.0},
                    {(): 0.0, (1,): 1.0, (1, 2): 1.0, (0, 2): 1.0},
                ],
                [(0, 1), (0, 1, 2), (1, 2)],
            ),
        ],
    )
    def test_bad_models_raise_as_oracle(self, monkeypatch, beta_star, coeffs, rows):
        g = csr_graph(rows)
        with pytest.raises(InputError) as want:
            oracle_flat(beta_star, coeffs, g)
        # the first failing row is found whatever block it falls in
        for budget in (None, 1, 7):
            if budget is not None:
                monkeypatch.setattr("pinvtte.outcomes._BLOCK", budget)
            with pytest.raises(InputError) as got:
                outcome_bound(LowOrderModel.from_dicts(beta_star, coeffs), g)
            assert str(got.value) == str(want.value)

    def test_validation_memory_is_bounded(self):
        # 168k rows of 2 members, checked a block of rows at a time
        g = cycle_power(6000, 3)
        model = gen_cycle_model(g, 2)
        assert traced_peak(lambda: model._validate(g)) <= 5e6

    def test_validated_once_per_graph(self, monkeypatch):
        g = cycle_power(9, 1)
        model = gen_cycle_model(g, 1)
        evaluate(model, g, np.zeros(9, dtype=int))
        stats = cluster_stats(g, singleton_clustering(9))
        # validation reads the graph's degrees; later uses of g must not
        reads = []
        degrees = property(lambda self: reads.append(1) or np.diff(self.indptr))
        monkeypatch.setattr(type(g), "degrees", degrees)
        agg = cluster_aggregate(model, stats)
        evaluate_draws(agg, np.ones((2, 9), dtype=np.int8))
        assert outcome_bound(model, g) == pytest.approx(1.5)
        assert reads == []
        with pytest.raises(InputError, match="neighborhood"):
            outcome_bound(model, cycle_power(9, 0))
        assert reads == [1]

    def test_arrays_read_only_and_equality(self):
        g = cycle_power(12, 1)
        a, b = gen_named_model(g, "weak", 5), gen_named_model(g, "weak", 5)
        assert a == b and a != gen_named_model(g, "weak", 6) and a != "weak"
        for arr in (a.owner, a.members, a.values, a.baseline):
            assert not arr.flags.writeable
        with pytest.raises(ValueError):
            a.values[0] = 1.0

    def test_save_load_save_bytes(self, tmp_path, rng):
        g = random_graph(rng, 11)
        for model in (
            random_model(rng, g, 3),
            gen_cycle_model(cycle_power(9, 2), 2),
            gen_named_model(sbm_sample(30, 3, 0.3, 0.05, seed=4), "weak", 4),
            LowOrderModel.from_dicts(1, [{(): -0.0, (0,): 1e-300}, {(1,): 2.5, (): 3.0}]),
        ):
            first, second = tmp_path / "a.tsv", tmp_path / "b.tsv"
            save_model(model, str(first))
            save_model(load_model(str(first), model.n), str(second))
            assert first.read_bytes() == second.read_bytes()
            assert "np." not in first.read_text()
