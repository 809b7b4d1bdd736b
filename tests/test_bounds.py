from __future__ import annotations

import math
import re
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pinvtte import (
    CapacityError,
    Clustering,
    InputError,
    LowOrderModel,
    PreconditionError,
    analytic_cluster_moments,
    bernoulli_gcr,
    bernoulli_unit,
    bias_bound_gcr,
    bias_crd,
    bias_exact,
    cluster_aggregate,
    cluster_stats,
    complete_gcr,
    contiguous_cycle_clusters,
    cycle_power,
    draw_from_w,
    enumerate_support,
    estimate,
    evaluate,
    from_edge_list,
    gamma_crd,
    gamma_gcr_closed,
    gamma_gcr_envelope,
    gamma_profile,
    gamma_quadform,
    gen_cycle_model,
    monte_carlo_moments,
    outcome_bound,
    singleton_clustering,
    size_class_pinv,
    true_tte,
    variance_bound,
)
from conftest import (
    agg_dicts,
    cluster_rows,
    csr_graph,
    ensure_tail,
    lift,
    shifted_blocks,
    neighbors,
    oracle_bias_bound_gcr,
    oracle_bias_exact,
    oracle_cluster_aggregate,
    pair_dependence,
    random_clustering,
    random_graph,
    random_model,
)


def exhaustive_moments(g, model, d, beta):
    ests, probs = [], []
    for prob, w in zip(*enumerate_support(d)):
        draw = draw_from_w(d, w)
        Y = evaluate(model, g, draw.z)
        ests.append(estimate(g, Y, draw, d, "pinv", beta).tte_hat)
        probs.append(prob)
    mean = math.fsum(p * e for p, e in zip(probs, ests))
    var = math.fsum(p * (e - mean) ** 2 for p, e in zip(probs, ests))
    return mean, var


def delta_pair_instance():
    # two mutual neighbors, each outcome a pure pair interaction; the
    # first-order estimator misses it with bias exactly 2p - 1
    g = from_edge_list([(1, 0), (0, 1)], 2)
    model = LowOrderModel.from_dicts(
        beta_star=2,
        coeffs=({(): 0.0, (0, 1): 1.0}, {(): 0.0, (0, 1): 1.0}),
    )
    return g, model


class TestGammaClosed:
    def test_frozen_values(self):
        assert gamma_gcr_closed(1, 1, 0.5) == pytest.approx(4.0, abs=1e-12)
        assert gamma_gcr_closed(2, 2, 0.5) == pytest.approx(8.0, abs=1e-12)

    def test_symmetric_in_p(self):
        for c, beta in [(1, 1), (3, 2), (5, 3)]:
            for p in (0.1, 0.3, 0.45):
                assert gamma_gcr_closed(c, beta, p) == pytest.approx(
                    gamma_gcr_closed(c, beta, 1.0 - p), rel=1e-12
                )

    @pytest.mark.parametrize("c", [1, 2, 3, 4, 5, 6])
    @pytest.mark.parametrize("beta", [1, 2, 3])
    @pytest.mark.parametrize("p", [0.1, 0.25, 0.5, 0.75, 0.9])
    def test_matches_quadform(self, c, beta, p):
        dm = analytic_cluster_moments(bernoulli_gcr(singleton_clustering(c), p), range(c), beta)
        assert gamma_gcr_closed(c, beta, p) == pytest.approx(
            gamma_quadform(dm), rel=1e-10, abs=1e-10
        )

    def test_validation(self):
        with pytest.raises(InputError):
            gamma_gcr_closed(1, 1, 1.0)
        with pytest.raises(InputError):
            gamma_gcr_closed(-1, 1, 0.5)

    @pytest.mark.parametrize("beta, p", [(1, 1e-320), (2, 1e-200)])
    def test_tiny_p_overflow_names_p_order_and_c(self, beta, p):
        message = f"p={p!r}: the order-{beta} closed-form gamma terms of a neighborhood of c=3"
        with pytest.raises(CapacityError, match=message):
            gamma_gcr_closed(3, beta, p)


class TestGammaEnvelope:
    @pytest.mark.parametrize("p", [0.1, 0.2, 0.5, 0.8])
    def test_dominates_closed(self, p):
        for c in range(1, 8):
            for beta in range(1, 5):
                assert (
                    gamma_gcr_envelope(c, beta, p)
                    >= gamma_gcr_closed(c, beta, p) - 1e-12
                )

    def test_value(self):
        assert gamma_gcr_envelope(3, 2, 0.5) == 2.0 * min(8.0, 9 * 4.0)
        assert gamma_gcr_envelope(1, 1, 0.5) == 4.0

    def test_tiny_p_takes_the_term_that_fits(self):
        # q^-3 overflows at q = 1e-200, the smaller term 3 q^-1 does not
        assert gamma_gcr_envelope(3, 1, 1e-200) == 2.0 * (3 * 1e-200 ** (-1))
        with pytest.raises(CapacityError, match=r"p=1e-320: the order-1 gamma envelope"):
            gamma_gcr_envelope(3, 1, 1e-320)


@pytest.mark.parametrize(
    "closed_form, args",
    [
        (gamma_gcr_closed, (-1, 1, 0.5)),
        (gamma_gcr_envelope, (-1, 1, 0.5)),
        (gamma_gcr_envelope, (3, -2, 0.5)),
        (size_class_pinv, (bernoulli_gcr(singleton_clustering(4), 0.5), -1, 1)),
        (size_class_pinv, (complete_gcr(singleton_clustering(4), 2), -1, 1)),
    ],
    ids=["closed-size", "envelope-size", "envelope-order", "pinv-bernoulli", "pinv-complete"],
)
def test_closed_forms_reject_negative_size_or_order(closed_form, args):
    # else a negative size gives the envelope a negative variance term and
    # size_class_pinv an empty array
    with pytest.raises(InputError, match="nonnegative"):
        closed_form(*args)


class TestGammaCrd:
    def test_frozen_values(self):
        assert gamma_crd(1, 2, 1) == pytest.approx((4.0, 8.0))
        quad, scaled = gamma_crd(2, 2, 1)
        assert quad == pytest.approx(4.0 / 9.0, abs=1e-14)
        assert scaled == pytest.approx(4.0 / 3.0, abs=1e-14)

    @pytest.mark.parametrize("m", [2, 3, 4, 5, 6, 7, 8])
    def test_matches_quadform(self, m):
        for k in range(1, m):
            d = complete_gcr(singleton_clustering(m), k)
            for c in range(1, m + 1):
                dm = analytic_cluster_moments(d, range(c), 1)
                quad, scaled = gamma_crd(c, m, k)
                assert quad == pytest.approx(gamma_quadform(dm), rel=1e-9, abs=1e-9)
                assert scaled == pytest.approx((c + 1) * quad, rel=1e-12)

    def test_validation(self):
        with pytest.raises(InputError):
            gamma_crd(1, 3, 3)
        with pytest.raises(InputError):
            gamma_crd(4, 3, 1)


class TestGammaProfile:
    def test_bernoulli_closed_matches_quadform_source(self):
        g = cycle_power(10, 2)
        c = Clustering.from_labels([i // 2 for i in range(10)])
        stats = cluster_stats(g, c)
        d = bernoulli_gcr(c, 0.3)
        closed = gamma_profile(stats, d, 2, "closed")
        quad = gamma_profile(stats, d, 2, "quadform")
        assert np.allclose(closed.gamma_sq, quad.gamma_sq, atol=1e-9)
        assert closed.provenance == "closed_form"
        assert quad.provenance == "quadform"
        assert np.all(closed.bound_sq >= closed.gamma_sq)

    def test_crd_quadform_third_order_exact(self):
        # theta' M^+ theta at c=23, beta=3, m=2000, k=1000, solved in exact
        # rationals; a dense 2,048-row SVD lands 4.6e-10 away
        g = cycle_power(2000, 11)
        clus = singleton_clustering(2000)
        prof = gamma_profile(cluster_stats(g, clus), complete_gcr(clus, 1000), 3, "quadform")
        assert np.all(np.abs(prof.gamma_sq / 7416.268251395429 - 1.0) <= 1e-11)

    def test_crd_closed_fills_scaled(self):
        g = cycle_power(8, 1)
        c = Clustering.from_labels([i // 2 for i in range(8)])
        stats = cluster_stats(g, c)
        d = complete_gcr(c, 2)
        prof = gamma_profile(stats, d, 1, "closed")
        assert np.all(prof.bound_sq >= prof.gamma_sq)

    def test_bound_sq_per_source(self):
        # the per-pair term: the envelope (Bernoulli) or the (c+1)-scaled
        # form (complete) under closed, the quadform itself otherwise
        g = cycle_power(12, 2)
        c = Clustering.from_labels([i // 3 for i in range(12)])
        stats = cluster_stats(g, c)
        sizes = [len(nb) for nb in cluster_rows(stats)]
        gcr, crd = bernoulli_gcr(c, 0.3), complete_gcr(c, 2)
        closed = gamma_profile(stats, gcr, 2, "closed").bound_sq
        assert closed.tolist() == [gamma_gcr_envelope(k, 2, 0.3) for k in sizes]
        closed = gamma_profile(stats, crd, 1, "closed").bound_sq
        assert closed.tolist() == [gamma_crd(k, 4, 2)[1] for k in sizes]
        for d in (gcr, crd):
            for source in ("quadform", "monte_carlo"):
                prof = gamma_profile(stats, d, 1, source, mc_samples=200)
                assert prof.bound_sq.tolist() == prof.gamma_sq.tolist()

    def test_crd_closed_second_order_rejected(self):
        g = cycle_power(8, 1)
        c = Clustering.from_labels([i // 2 for i in range(8)])
        d = complete_gcr(c, 2)
        with pytest.raises(InputError, match="first-order"):
            gamma_profile(cluster_stats(g, c), d, 2, "closed")

    def test_monte_carlo_needs_graph(self):
        g = cycle_power(6, 1)
        c = singleton_clustering(6)
        d = bernoulli_gcr(c, 0.5)
        prof = gamma_profile(cluster_stats(g, c), d, 1, "monte_carlo", mc_samples=4000)
        closed = gamma_profile(cluster_stats(g, c), d, 1, "closed")
        assert np.allclose(prof.gamma_sq, closed.gamma_sq, rtol=0.2)

    def test_monte_carlo_matches_per_unit_moments(self):
        # one set of neighborhoods and draws per call gives, bit for bit,
        # the quadform of each unit's own monte_carlo_moments
        for trial in range(4):
            gen = np.random.default_rng(300 + trial)
            n = int(gen.integers(4, 9))
            g = random_graph(gen, n)
            m = int(gen.integers(2, n + 1))
            c = random_clustering(gen, n, m)
            d = bernoulli_gcr(c, 0.3) if trial % 2 else complete_gcr(c, m // 2)
            beta = 1 + trial // 2
            prof = gamma_profile(
                cluster_stats(g, c), d, beta, "monte_carlo", mc_samples=300, mc_seed=trial
            )
            per_unit = [
                gamma_quadform(monte_carlo_moments(d, g, i, beta, 300, trial)) for i in range(n)
            ]
            assert prof.gamma_sq.tolist() == per_unit

    def test_unknown_source(self):
        g = cycle_power(4, 1)
        c = singleton_clustering(4)
        d = bernoulli_gcr(c, 0.5)
        with pytest.raises(InputError, match="gamma_source"):
            gamma_profile(cluster_stats(g, c), d, 1, "oracle")

    @pytest.mark.parametrize("source", ["closed", "quadform", "monte_carlo"])
    def test_rejects_order_zero(self, source):
        g = cycle_power(12, 1)
        c = singleton_clustering(12)
        d = bernoulli_gcr(c, 0.3)
        with pytest.raises(InputError, match="at least 1, got beta=0"):
            gamma_profile(cluster_stats(g, c), d, 0, source)
        with pytest.raises(InputError, match="at least 1, got beta=0"):
            variance_bound(cluster_stats(g, c), d, 0, 1.0, source)


class TestBiasExact:
    @pytest.mark.parametrize("p", [0.25, 0.4, 0.5])
    def test_pair_interaction_closed_form(self, p):
        g, model = delta_pair_instance()
        d = bernoulli_unit(2, p)
        exact = bias_exact(*lift(model, g, d.clustering), d, 1)
        assert exact == pytest.approx(2.0 * p - 1.0, abs=1e-12)

    def test_zero_when_well_specified(self, rng):
        for trial in range(6):
            gen = np.random.default_rng(60 + trial)
            g = random_graph(gen, 7)
            c = random_clustering(gen, 7, 3)
            model = random_model(gen, g, 2)
            d = bernoulli_gcr(c, float(gen.uniform(0.2, 0.8)))
            assert bias_exact(*lift(model, g, d.clustering), d, 2) == pytest.approx(0.0, abs=1e-10)

    def test_matches_exhaustive_bernoulli(self, rng):
        for trial in range(8):
            gen = np.random.default_rng(200 + trial)
            g = random_graph(gen, 6)
            c = random_clustering(gen, 6, 3)
            model = ensure_tail(gen, random_model(gen, g, 1), g, 1)
            d = bernoulli_gcr(c, float(gen.uniform(0.2, 0.8)))
            mean, _ = exhaustive_moments(g, model, d, 1)
            assert bias_exact(*lift(model, g, d.clustering), d, 1) == pytest.approx(
                mean - true_tte(model), abs=1e-10
            )

    def test_matches_exhaustive_complete(self, rng):
        for trial in range(8):
            gen = np.random.default_rng(300 + trial)
            g = random_graph(gen, 6)
            m = int(gen.integers(2, 6))
            c = random_clustering(gen, 6, m)
            model = ensure_tail(gen, random_model(gen, g, 1), g, 1)
            d = complete_gcr(c, int(gen.integers(1, m)))
            mean, _ = exhaustive_moments(g, model, d, 1)
            assert bias_exact(*lift(model, g, d.clustering), d, 1) == pytest.approx(
                mean - true_tte(model), abs=1e-10
            )

    def test_validation(self):
        g, model = delta_pair_instance()
        d = bernoulli_unit(2, 0.5)
        with pytest.raises(InputError, match="beta"):
            bias_exact(*lift(model, g, d.clustering), d, 0)
        with pytest.raises(InputError, match="agree"):
            bias_exact(*lift(model, g, d.clustering), bernoulli_unit(4, 0.5), 1)


class TestBiasBoundGcr:
    def test_cycle_tail_mass(self):
        g = cycle_power(120, 3)
        model = gen_cycle_model(g, 4)
        bb = bias_bound_gcr(cluster_aggregate(model, g, singleton_clustering(120)), 1)
        assert bb.c_norm == pytest.approx(0.4375, abs=1e-12)
        # singleton clusters leave nothing to aggregate or cancel
        assert bb.x_norm == pytest.approx(bb.c_norm, abs=1e-12)
        assert bb.refined == pytest.approx(bb.x_norm, abs=1e-12)

    def test_reads_the_model_of_its_lift(self):
        # c_norm and x_norm both describe the lifted order-2 model; mixing in
        # a lift of the order-1 model gave x_norm 0.0 beside c_norm 0.25
        g = cycle_power(8, 1)
        c = contiguous_cycle_clusters(8, 2)
        model = gen_cycle_model(g, 2)
        agg = cluster_aggregate(model, g, c)
        assert agg.model is model
        bb = bias_bound_gcr(agg, 1)
        assert bb.x_norm == pytest.approx(1 / 6) and bb.c_norm == pytest.approx(0.25)
        assert all(map(close, bb, oracle_bias_bound_gcr(model, g, c, 1)))

    def test_rejects_order_below_one(self):
        # no estimator has these orders, yet the tail sums would read 0.75
        g = cycle_power(8, 1)
        agg = cluster_aggregate(gen_cycle_model(g, 2), g, contiguous_cycle_clusters(8, 2))
        for beta in (0, -3):
            with pytest.raises(InputError, match=f"at least 1, got beta={beta}"):
                bias_bound_gcr(agg, beta)

    def test_chain_dominates_bias(self, rng):
        for trial in range(10):
            gen = np.random.default_rng(400 + trial)
            g = random_graph(gen, 7)
            c = random_clustering(gen, 7, 3)
            model = ensure_tail(gen, random_model(gen, g, 1), g, 1)
            d = bernoulli_gcr(c, float(gen.uniform(0.2, 0.8)))
            bb = bias_bound_gcr(cluster_aggregate(model, g, c), 1)
            assert abs(bias_exact(*lift(model, g, d.clustering), d, 1)) <= bb.refined + 1e-12
            assert bb.refined <= bb.x_norm + 1e-12
            assert bb.x_norm <= bb.c_norm + 1e-12

    def test_cluster_aggregation_cancels_x_norm(self):
        # the two pair terms share a cluster image and cancel there
        g = from_edge_list([(1, 0), (2, 0)], 3)
        model = LowOrderModel.from_dicts(
            beta_star=2,
            coeffs=(
                {(): 0.0, (0, 1): 1.0, (0, 2): -1.0},
                {(): 0.0},
                {(): 0.0},
            ),
        )
        c = Clustering.from_labels([0, 1, 1])
        bb = bias_bound_gcr(cluster_aggregate(model, g, c), 1)
        assert bb.c_norm == pytest.approx(2.0 / 3.0)
        assert bb.x_norm == 0.0

    def test_cardinality_grouping_cancels_refined(self):
        # distinct cluster images of equal size with opposite signs cancel
        # in refined but not in x_norm
        g = from_edge_list([(1, 0), (2, 0)], 3)
        model = LowOrderModel.from_dicts(
            beta_star=2,
            coeffs=(
                {(): 0.0, (0, 1): 1.0, (0, 2): -1.0},
                {(): 0.0},
                {(): 0.0},
            ),
        )
        bb = bias_bound_gcr(cluster_aggregate(model, g, singleton_clustering(3)), 1)
        assert bb.x_norm == pytest.approx(2.0 / 3.0)
        assert bb.refined == 0.0


def close(got: float, want: float) -> bool:
    # 1e-12 relative, with unit scale near zero
    return abs(got - want) <= 1e-12 * max(1.0, abs(want))


class TestPerKeyOracles:
    """cluster_aggregate, bias_exact and bias_bound_gcr share one vectorized
    re-keying of unit subsets to cluster subsets; here each is checked
    against the per-key loop it replaced."""

    def test_random_triples(self):
        seen = set()
        for trial in range(60):
            gen = np.random.default_rng(900 + trial)
            n = int(gen.integers(4, 10))
            g = random_graph(gen, n)
            # few clusters merge distinct subsets into one image; every fifth
            # trial is a clustering of singletons, which merges nothing
            m = n if trial % 5 == 0 else int(gen.integers(1, n // 2 + 1))
            c = random_clustering(gen, n, m)
            beta_star, beta = 1 + trial % 3, 1 + (trial // 3) % 3
            keep = 0.0 if trial % 7 == 6 else 0.6
            model = random_model(gen, g, beta_star, keep=keep)
            if m >= 2 and trial % 2:
                d = complete_gcr(c, int(gen.integers(1, m)))
            else:
                d = bernoulli_gcr(c, float(gen.uniform(0.1, 0.9)))
            keys = [s for cmap in model.coeffs for s in cmap if s]
            seen.add(("design", d.variant))
            seen.add(("low", any(len(s) <= beta for s in keys)))
            seen.add(("tail", any(len(s) > beta for s in keys)))

            want = oracle_cluster_aggregate(model, g, c)
            seen.add(("merged", any(len(x) < len(cm) for x, cm in zip(want, model.coeffs))))
            for got_i, want_i in zip(agg_dicts(cluster_aggregate(model, g, c)), want):
                assert got_i.keys() == want_i.keys()
                assert all(close(got_i[u], val) for u, val in want_i.items())
            exact = bias_exact(*lift(model, g, d.clustering), d, beta)
            assert close(exact, oracle_bias_exact(model, g, d, beta))
            bb = bias_bound_gcr(cluster_aggregate(model, g, c), beta)
            assert all(map(close, bb, oracle_bias_bound_gcr(model, g, c, beta)))
        assert seen == {
            ("design", "bernoulli_gcr"),
            ("design", "complete_gcr"),
            ("low", True),
            ("low", False),
            ("tail", True),
            ("tail", False),
            ("merged", True),
            ("merged", False),
        }


class TestBiasCrd:
    def crd_instance(self):
        # all four units touch both clusters; each unit's first-order
        # effects sum to one
        g = cycle_power(4, 1)
        c = Clustering.from_labels([0, 1, 0, 1])
        coeffs = []
        for i in range(4):
            cmap = {(): 0.0, (i,): 0.5}
            for j in neighbors(g)[i]:
                if j != i:
                    cmap[(j,)] = 0.25
            coeffs.append(dict(sorted(cmap.items(), key=lambda kv: (len(kv[0]), kv[0]))))
        model = LowOrderModel.from_dicts(beta_star=1, coeffs=tuple(coeffs))
        return g, c, model

    def test_frozen_full_contact_values(self):
        g, c, model = self.crd_instance()
        agg = cluster_aggregate(model, g, c)
        stats = cluster_stats(g, c)
        exact, bound = bias_crd(agg, stats, complete_gcr(c, 1), B=outcome_bound(model, g))
        assert exact == pytest.approx(-2.0 / 3.0, abs=1e-12)
        assert bound == pytest.approx(2.0, abs=1e-12)

    def test_matches_exhaustive(self):
        g, c, model = self.crd_instance()
        from pinvtte import complete_gcr

        d = complete_gcr(c, 1)
        mean, _ = exhaustive_moments(g, model, d, 1)
        agg = cluster_aggregate(model, g, c)
        exact, bound = bias_crd(agg, cluster_stats(g, c), d, 1.0)
        assert exact == pytest.approx(mean - true_tte(model), abs=1e-12)
        assert abs(exact) <= bound

    def test_random_first_order_instances(self, rng):
        for trial in range(8):
            gen = np.random.default_rng(700 + trial)
            g = random_graph(gen, 6)
            m = int(gen.integers(2, 5))
            c = random_clustering(gen, 6, m)
            model = random_model(gen, g, 1)
            k = int(gen.integers(1, m))
            d = complete_gcr(c, k)
            mean, _ = exhaustive_moments(g, model, d, 1)
            agg = cluster_aggregate(model, g, c)
            B = max(outcome_bound(model, g), 1e-9)
            exact, bound = bias_crd(agg, cluster_stats(g, c), d, B)
            assert exact == pytest.approx(mean - true_tte(model), abs=1e-10)
            assert abs(exact) <= bound + 1e-12

    def test_interior_contact_is_unbiased(self, rng):
        # no unit spans every cluster: the first-order estimator is exact
        g = cycle_power(8, 1)
        c = Clustering.from_labels([i // 2 for i in range(8)])
        model = random_model(rng, g, 1)
        agg = cluster_aggregate(model, g, c)
        exact, bound = bias_crd(agg, cluster_stats(g, c), complete_gcr(c, 2), 1.0)
        assert exact == 0.0
        assert bound == 0.0

    def test_validation(self):
        g, c, model = self.crd_instance()
        agg = cluster_aggregate(model, g, c)
        stats = cluster_stats(g, c)
        with pytest.raises(InputError, match="first-order"):
            two = LowOrderModel.from_dicts(
                beta_star=2, coeffs=tuple({(): 0.0} for _ in range(4))
            )
            bias_crd(cluster_aggregate(two, g, c), stats, complete_gcr(c, 1), 1.0)
        with pytest.raises(InputError, match="k="):
            bias_crd(agg, stats, complete_gcr(c, 2), 1.0)
        with pytest.raises(InputError, match="complete cluster design"):
            bias_crd(agg, stats, bernoulli_gcr(c, 0.5), 1.0)
        d = complete_gcr(c, 1)
        with pytest.raises(InputError, match="clustering"):
            bias_crd(agg, cluster_stats(g, Clustering.from_labels([0, 0, 1, 1])), d, 1.0)
        with pytest.raises(InputError, match="lifted from one graph"):
            bias_crd(agg, cluster_stats(from_edge_list([], 4), c), d, 1.0)

    def test_rejects_nonpositive_B(self):
        # the bound scales with B, so B = -1 would read -0.0 and B = nan nan
        g = cycle_power(8, 1)
        c = contiguous_cycle_clusters(8, 2)
        agg = cluster_aggregate(gen_cycle_model(g, 1), g, c)
        for B in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(InputError, match="B="):
                bias_crd(agg, cluster_stats(g, c), complete_gcr(c, 2), B)


class TestLiftedClustering:
    """bias_exact, gamma_profile and variance_bound reject lifted inputs
    built from another clustering than the design's, and bias_exact a
    model and stats lifted from two graphs."""

    def instance(self):
        g = cycle_power(24, 1)
        d = bernoulli_gcr(contiguous_cycle_clusters(24, 4), 0.3)
        return g, gen_cycle_model(g, 1), d, shifted_blocks(24, 4)

    def test_variance_bound(self):
        g, model, d, shifted = self.instance()
        stats = cluster_stats(g, d.clustering)
        rep = variance_bound(stats, d, 1, 1.0)
        assert rep.var_bound_pairwise == pytest.approx(3.515792847081217, rel=1e-12)
        for other in (contiguous_cycle_clusters(24, 2), shifted):
            with pytest.raises(InputError, match="clustering"):
                variance_bound(cluster_stats(g, other), d, 1, 1.0)
        with pytest.raises(InputError, match="clustering"):
            variance_bound(stats, d, 1, 1.0, agg=cluster_aggregate(model, g, shifted))

    def test_gamma_profile(self):
        g, _, d, shifted = self.instance()
        with pytest.raises(InputError, match="clustering"):
            gamma_profile(cluster_stats(g, shifted), d, 1, "quadform")

    def test_bias_exact(self):
        g, model, d, shifted = self.instance()
        agg, stats = lift(model, g, d.clustering)
        other_agg, other_stats = lift(model, g, shifted)
        assert bias_exact(agg, stats, d, 1) == pytest.approx(0.0, abs=1e-12)
        for pair in ((other_agg, stats), (agg, other_stats), (other_agg, other_stats)):
            with pytest.raises(InputError, match="clustering"):
                bias_exact(*pair, d, 1)
        wide = cycle_power(24, 2)
        wide_agg, wide_stats = lift(gen_cycle_model(wide, 1), wide, d.clustering)
        for pair in ((agg, wide_stats), (wide_agg, stats)):
            with pytest.raises(InputError, match="lifted from one graph"):
                bias_exact(*pair, d, 1)


class TestVarianceBound:
    def test_tiny_p_simplified_bound_is_finite(self):
        # q^-C alone overflows; the simplified bound is the envelope at C
        g = cycle_power(12, 1)
        stats = cluster_stats(g, singleton_clustering(12))
        rep = variance_bound(stats, bernoulli_unit(12, 1e-200), 1, 1.0, "closed")
        assert rep.var_bound_simplified == 3 * 1 * 3 / 12 * gamma_gcr_envelope(3, 1, 1e-200)
        assert math.isfinite(rep.var_bound_pairwise)

    def test_single_unit_frozen(self):
        g = from_edge_list([], 1)
        d = bernoulli_unit(1, 0.5)
        stats = cluster_stats(g, singleton_clustering(1))
        rep = variance_bound(stats, d, 1, 1.0)
        assert rep.var_bound_pairwise == pytest.approx(4.0, abs=1e-12)

    def test_single_unit_variance_saturates(self):
        # constant Y = 1 makes the estimate the raw weight, -2 or 2, whose
        # variance meets the bound exactly
        g = from_edge_list([], 1)
        model = LowOrderModel.from_dicts(beta_star=1, coeffs=({(): 1.0},))
        d = bernoulli_unit(1, 0.5)
        mean, var = exhaustive_moments(g, model, d, 1)
        assert mean == pytest.approx(0.0, abs=1e-12)
        assert var == pytest.approx(4.0, abs=1e-12)

    def test_dominates_exhaustive_variance_bernoulli(self, rng):
        for trial in range(10):
            gen = np.random.default_rng(800 + trial)
            g = random_graph(gen, 6)
            c = random_clustering(gen, 6, 3)
            model = random_model(gen, g, 2)
            p = float(gen.choice([0.2, 0.5]))
            d = bernoulli_gcr(c, p)
            B = outcome_bound(model, g)
            if B <= 0:
                continue
            rep = variance_bound(cluster_stats(g, c), d, 2, B)
            _, var = exhaustive_moments(g, model, d, 2)
            assert var <= rep.var_bound_pairwise + 1e-10

    def test_dominates_exhaustive_variance_complete(self, rng):
        for trial in range(8):
            gen = np.random.default_rng(900 + trial)
            g = random_graph(gen, 6)
            m = int(gen.integers(2, 5))
            c = random_clustering(gen, 6, m)
            model = random_model(gen, g, 1)
            d = complete_gcr(c, int(gen.integers(1, m)))
            B = outcome_bound(model, g)
            if B <= 0:
                continue
            rep = variance_bound(cluster_stats(g, c), d, 1, B)
            _, var = exhaustive_moments(g, model, d, 1)
            assert var <= rep.var_bound_pairwise + 1e-10

    def test_pairwise_within_simplified_bernoulli(self, rng):
        for trial in range(12):
            gen = np.random.default_rng(1000 + trial)
            n = int(gen.integers(2, 10))
            g = random_graph(gen, n)
            c = random_clustering(gen, n, int(gen.integers(1, n + 1)))
            d = bernoulli_gcr(c, float(gen.uniform(0.1, 0.9)))
            beta = int(gen.integers(1, 4))
            rep = variance_bound(cluster_stats(g, c), d, beta, 1.0)
            assert rep.var_bound_pairwise <= rep.var_bound_simplified * (1 + 1e-12)

    def test_simplified_infinite_at_full_contact(self):
        # by definition, not by overflow: no CapacityError at a large finite B
        g = cycle_power(4, 1)
        c = Clustering.from_labels([0, 1, 0, 1])
        d = complete_gcr(c, 1)
        for B in (1.0, 1e150):
            rep = variance_bound(cluster_stats(g, c), d, 1, B)
            assert rep.var_bound_simplified == math.inf
            assert math.isfinite(rep.var_bound_pairwise)

    def test_overflowing_bound_is_capacity_error(self):
        # a finite B whose bound leaves double precision: at p = 1e-300 the
        # pairwise bound, and at B^2 = max/7 the simplified one alone (the
        # singleton cycle's pairwise bound is 5 B^2, its simplified one 9 B^2)
        g = cycle_power(12, 1)
        stats = cluster_stats(g, singleton_clustering(12))
        with pytest.raises(CapacityError, match=r"B=1e\+300: the pairwise variance bound"):
            variance_bound(stats, bernoulli_unit(12, 1e-300), 1, 1e300)
        B = math.sqrt(sys.float_info.max / 7)
        with pytest.raises(CapacityError, match=re.escape(f"B={B!r}: the simplified")):
            variance_bound(stats, bernoulli_unit(12, 0.5), 1, B)

    def test_monotone_screen_tightens_complete(self, rng):
        # disjoint cluster neighborhoods exist, so screening drops pairs
        g = cycle_power(12, 1)
        c = Clustering.from_labels([i // 2 for i in range(12)])
        d = complete_gcr(c, 3)
        stats = cluster_stats(g, c)
        loose = variance_bound(stats, d, 1, 1.0)
        tight = variance_bound(stats, d, 1, 1.0, monotone=True)
        assert tight.var_bound_pairwise < loose.var_bound_pairwise

    def test_monotone_assertion_checked_against_model(self, rng):
        g = from_edge_list([(1, 0)], 2)
        c = singleton_clustering(2)
        d = complete_gcr(c, 1)
        mixed = LowOrderModel.from_dicts(
            beta_star=1, coeffs=({(): 0.0, (0,): -1.0, (1,): 1.0}, {(): 0.0})
        )
        with pytest.raises(PreconditionError, match="mixed signs"):
            variance_bound(
                cluster_stats(g, c), d, 1, 1.0, agg=cluster_aggregate(mixed, g, c), monotone=True
            )

    def test_rejects_nonpositive_B(self):
        g = cycle_power(4, 1)
        c = singleton_clustering(4)
        d = bernoulli_gcr(c, 0.5)
        for B in (0.0, math.nan, math.inf, -math.inf):
            with pytest.raises(InputError, match="B="):
                variance_bound(cluster_stats(g, c), d, 1, B)

    def test_quadform_source_never_looser(self, rng):
        # the closed source uses dominating envelopes, so the quadform
        # pairwise bound can only be tighter
        for trial in range(6):
            gen = np.random.default_rng(1100 + trial)
            n = int(gen.integers(3, 9))
            g = random_graph(gen, n)
            c = random_clustering(gen, n, int(gen.integers(2, n + 1)))
            d = bernoulli_gcr(c, float(gen.uniform(0.2, 0.8)))
            stats = cluster_stats(g, c)
            closed = variance_bound(stats, d, 2, 1.0, gamma_source="closed")
            quad = variance_bound(stats, d, 2, 1.0, gamma_source="quadform")
            assert quad.var_bound_pairwise <= closed.var_bound_pairwise + 1e-9

    def test_report_carries_configuration(self):
        g = cycle_power(6, 1)
        c = Clustering.from_labels([i // 2 for i in range(6)])
        d = bernoulli_gcr(c, 0.25)
        model = gen_cycle_model(g, 1)
        rep = variance_bound(cluster_stats(g, c), d, 1, 1.5, agg=cluster_aggregate(model, g, c))
        assert rep.design_variant == d.variant
        assert rep.p == 0.25 and rep.k is None
        assert rep.n == 6 and rep.m == 3 and rep.beta == 1
        assert rep.bias_exact is not None and rep.bias_bound is not None
        assert abs(rep.bias_exact) <= rep.bias_bound + 1e-12
        assert rep.gamma_provenance == "closed_form"


def _pair_oracle(g, stats, d, beta, B, source, monotone):
    """var_bound_pairwise by a double loop over all ordered pairs, with the
    per-pair gamma each source uses."""
    sizes = [len(nb) for nb in cluster_rows(stats)]
    if source == "quadform":
        eff = gamma_profile(stats, d, beta, "quadform").gamma_sq
    elif d.is_bernoulli:
        eff = [gamma_gcr_envelope(c, beta, d.p) for c in sizes]
    else:
        eff = [gamma_crd(c, d.m, d.k)[1] for c in sizes]
    gam = np.sqrt(eff)
    n = g.n
    total = math.fsum(
        gam[i] * gam[j]
        for i in range(n)
        for j in range(n)
        if pair_dependence(d, stats, i, j, monotone)
    )
    return B * B / (n * n) * total


def _hub_graph(gen, n):
    """A random graph plus one unit that every unit reaches, so its cluster
    neighborhood is every cluster."""
    nbrs = list(neighbors(random_graph(gen, n)))
    nbrs[int(gen.integers(0, n))] = tuple(range(n))
    return csr_graph(nbrs)


class TestDependentSums:
    """The screened pairwise sum against the O(n^2) pair_dependence loop."""

    # None keeps the library's budget; 1 gives single-unit blocks; 40
    # starts blocks of two or more units that end mid-graph and are halved
    # to single units where the dependents outgrow the budget
    @pytest.mark.parametrize("budget", [None, 1, 40])
    def test_matches_pair_loop(self, monkeypatch, budget):
        if budget is not None:
            monkeypatch.setattr("pinvtte.bounds._BLOCK", budget)
        kinds = ("random", "singleton", "one", "hub")
        for trial in range(56):
            gen = np.random.default_rng(4000 + trial)
            n = int(gen.integers(1, 26))
            kind = kinds[trial % 4]
            if kind == "hub":
                g = _hub_graph(gen, n)
            else:
                g = random_graph(gen, n, extra_max=int(gen.integers(1, 7)))
            if kind == "singleton":
                c = singleton_clustering(n)
            elif kind == "one":
                c = Clustering((0,) * n)
            else:
                c = random_clustering(gen, n, int(gen.integers(1, n + 1)))
            stats = cluster_stats(g, c)
            if kind == "hub":
                assert stats.full_contact_count >= 1
            beta = int(gen.integers(1, 3))
            source = "quadform" if trial % 3 else "closed"
            if c.m >= 2 and gen.integers(0, 2):
                d = complete_gcr(c, int(gen.integers(1, c.m)))
                monotone = True
                if source == "closed":
                    beta = 1
            else:
                d = bernoulli_gcr(c, float(gen.choice([0.2, 0.5, 0.7])))
                monotone = bool(gen.integers(0, 2))
            B = float(gen.uniform(0.5, 3.0))
            rep = variance_bound(stats, d, beta, B, source, monotone=monotone)
            want = _pair_oracle(g, stats, d, beta, B, source, monotone)
            assert rep.var_bound_pairwise == pytest.approx(want, rel=1e-12)

    def test_unscreened_complete_branch(self):
        # the complete design without the monotone screen couples every
        # pair: gamma_i times the sum of all gamma, as before the kernel
        for trial in range(6):
            gen = np.random.default_rng(4100 + trial)
            n = int(gen.integers(2, 20))
            g = random_graph(gen, n)
            c = random_clustering(gen, n, int(gen.integers(2, n + 1)))
            d = complete_gcr(c, int(gen.integers(1, c.m)))
            stats = cluster_stats(g, c)
            rep = variance_bound(stats, d, 1, 1.5, "quadform")
            gam = np.sqrt(gamma_profile(stats, d, 1, "quadform").gamma_sq)
            assert rep.var_bound_pairwise == 1.5 * 1.5 / (n * n) * float(
                np.add.reduce(gam * gam.sum())
            )
            want = _pair_oracle(g, stats, d, 1, 1.5, "quadform", False)
            assert rep.var_bound_pairwise == pytest.approx(want, rel=1e-12)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_pairwise_simplified_order_property(seed):
    # for Bernoulli cluster designs each per-pair envelope term is within
    # the max term, and the pair count is within n C_max N_max d_max
    gen = np.random.default_rng(seed)
    n = int(gen.integers(2, 12))
    g = random_graph(gen, n)
    c = random_clustering(gen, n, int(gen.integers(1, n + 1)))
    d = bernoulli_gcr(c, float(gen.uniform(0.05, 0.95)))
    beta = int(gen.integers(1, 4))
    rep = variance_bound(cluster_stats(g, c), d, beta, 2.0)
    assert rep.var_bound_pairwise <= rep.var_bound_simplified * (1 + 1e-12)
