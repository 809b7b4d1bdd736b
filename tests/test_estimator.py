from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pinvtte import (
    AssignmentDraw,
    CapacityError,
    Clustering,
    InputError,
    EstimatorSpec,
    PositivityError,
    bernoulli_gcr,
    bernoulli_unit,
    complete_gcr,
    cycle_power,
    draw_from_w,
    enumerate_support,
    estimate,
    evaluate,
    from_edge_list,
    gen_cycle_model,
    replicate_estimates,
    sample,
    singleton_clustering,
    true_tte,
)
from pinvtte.estimator import _gcr_row, _pinv_row
from conftest import (
    lift,
    neighbors,
    random_clustering,
    random_graph,
    random_model,
    shifted_blocks,
)


def single_unit():
    g = from_edge_list([], 1)
    d = bernoulli_unit(1, 0.5)
    return g, d


class TestFrozenWeights:
    def test_single_unit_half(self):
        g, d = single_unit()
        for w, expect in [(0, -2.0), (1, 2.0)]:
            br = estimate(g, [1.0], draw_from_w(d, [w]), d, "pinv", 1)
            assert br.weights[0] == pytest.approx(expect, abs=1e-12)
            assert br.tte_hat == pytest.approx(expect, abs=1e-12)

    def test_explicit_first_order_form(self):
        g = cycle_power(6, 1)
        c = Clustering.from_labels([0, 0, 1, 1, 2, 2])
        p = 0.3
        d = bernoulli_gcr(c, p)
        draw = draw_from_w(d, [1, 0, 1])
        br = estimate(g, np.zeros(6), draw, d, "gcr_explicit", 1)
        w = draw.w
        assign = c.assignment
        for i in range(6):
            ground = sorted({assign[j] for j in neighbors(g)[i]})
            expect = sum((w[cid] - p) / (p * (1 - p)) for cid in ground)
            assert br.weights[i] == pytest.approx(expect, abs=1e-12)

    def test_ht_inverse_probability_form(self):
        g = cycle_power(6, 1)
        d = bernoulli_unit(6, 0.25)
        draw = draw_from_w(d, [1, 1, 1, 0, 0, 0])
        br = estimate(g, np.ones(6), draw, d, "ht")
        # unit 1 fully treated (nbhd {0,1,2}), unit 4 fully control
        assert br.weights[1] == pytest.approx(1 / 0.25**3)
        assert br.weights[4] == pytest.approx(-1 / 0.75**3)
        assert br.weights[0] == 0.0  # mixed neighborhood

    def test_crd_full_contact_weight(self):
        # two clusters, every unit touching both, one treated: weight 2/3
        g = cycle_power(4, 1)
        c = Clustering.from_labels([0, 1, 0, 1])
        d = complete_gcr(c, 1)
        br = estimate(g, np.ones(4), draw_from_w(d, [1, 0]), d, "crd1")
        assert np.allclose(br.weights, 2.0 / 3.0, atol=1e-14)


class TestRouteEquivalence:
    def test_pinv_matches_explicit_product_form(self, rng):
        for trial in range(10):
            gen = np.random.default_rng(900 + trial)
            n = int(gen.integers(4, 12))
            g = random_graph(gen, n)
            c = random_clustering(gen, n, int(gen.integers(2, n + 1)))
            p = float(gen.uniform(0.1, 0.9))
            beta = int(gen.integers(1, 4))
            d = bernoulli_gcr(c, p)
            Y = gen.standard_normal(n)
            for r in range(5):
                draw = sample(d, trial, r)
                a = estimate(g, Y, draw, d, "pinv", beta)
                b = estimate(g, Y, draw, d, "gcr_explicit", beta)
                assert np.allclose(a.weights, b.weights, atol=1e-10)
                assert a.tte_hat == pytest.approx(b.tte_hat, abs=1e-10)

    def test_pinv_saturated_order_equals_ht(self, rng):
        for trial in range(6):
            gen = np.random.default_rng(40 + trial)
            n = int(gen.integers(3, 9))
            g = random_graph(gen, n)
            d = bernoulli_unit(n, float(gen.uniform(0.2, 0.8)))
            Y = gen.standard_normal(n)
            beta = max(g.degrees)
            for r in range(6):
                draw = sample(d, trial, r)
                a = estimate(g, Y, draw, d, "pinv", beta)
                b = estimate(g, Y, draw, d, "ht")
                assert np.allclose(a.weights, b.weights, atol=1e-9)

    def test_crd_closed_form_matches_pinv_interior(self, rng):
        # every unit's contact set misses at least one cluster
        g = cycle_power(8, 1)
        c = Clustering.from_labels([i // 2 for i in range(8)])
        d = complete_gcr(c, 2)
        Y = rng.standard_normal(8)
        for r in range(8):
            draw = sample(d, 5, r)
            a = estimate(g, Y, draw, d, "crd1")
            b = estimate(g, Y, draw, d, "pinv", 1)
            assert np.allclose(a.weights, b.weights, atol=1e-9)

    def test_crd_closed_form_matches_pinv_full_contact(self, rng):
        g = cycle_power(4, 1)
        c = Clustering.from_labels([0, 1, 0, 1])
        d = complete_gcr(c, 1)
        Y = rng.standard_normal(4)
        for _, w in zip(*enumerate_support(d)):
            draw = draw_from_w(d, w)
            a = estimate(g, Y, draw, d, "crd1")
            b = estimate(g, Y, draw, d, "pinv", 1)
            assert np.allclose(a.weights, b.weights, atol=1e-9)


class TestUnbiasedness:
    def test_exact_for_well_specified_bernoulli(self, rng):
        gen = np.random.default_rng(123)
        g = random_graph(gen, 6)
        c = random_clustering(gen, 6, 3)
        model = random_model(gen, g, 2)
        d = bernoulli_gcr(c, 0.3)
        mean = math.fsum(
            prob
            * estimate(
                g, evaluate(model, g, draw_from_w(d, w).z), draw_from_w(d, w), d, "pinv", 2
            ).tte_hat
            for prob, w in zip(*enumerate_support(d))
        )
        assert mean == pytest.approx(true_tte(model), abs=1e-10)

    def test_ht_unbiased_under_positivity(self, rng):
        gen = np.random.default_rng(321)
        g = random_graph(gen, 5)
        model = random_model(gen, g, 2)
        d = bernoulli_unit(5, 0.4)
        mean = math.fsum(
            prob
            * estimate(
                g, evaluate(model, g, draw_from_w(d, w).z), draw_from_w(d, w), d, "ht"
            ).tte_hat
            for prob, w in zip(*enumerate_support(d))
        )
        assert mean == pytest.approx(true_tte(model), abs=1e-10)


class TestPositivity:
    def test_ht_rejects_full_contact(self):
        g = cycle_power(4, 1)
        c = Clustering.from_labels([0, 1, 0, 1])
        d = complete_gcr(c, 1)
        draw = sample(d, 0, 0)
        with pytest.raises(PositivityError, match="unit 0"):
            estimate(g, np.ones(4), draw, d, "ht")

    def test_error_names_failing_side(self):
        g = from_edge_list([(1, 0), (2, 0)], 3)
        c = Clustering.from_labels([0, 1, 2])
        d = complete_gcr(c, 1)
        draw = sample(d, 0, 0)
        # unit 0 touches all 3 clusters; with k=1 it can never be fully treated
        with pytest.raises(PositivityError, match="fully treated"):
            estimate(g, np.ones(3), draw, d, "ht")


class TestBatchKernels:
    """replicate_estimates over R draws reproduces estimate per draw."""

    def check(self, g, d, kind, beta, seed):
        gen = np.random.default_rng(seed)
        model = random_model(gen, g, 2)
        W = np.stack([sample(d, seed, r).w for r in range(12)])
        lifted = lift(model, g, d.clustering)
        [batch] = replicate_estimates(lifted, d, [EstimatorSpec(kind, beta)], W)
        for r in range(12):
            draw = draw_from_w(d, W[r])
            per = estimate(g, evaluate(model, g, draw.z), draw, d, kind, beta)
            assert batch[r] == pytest.approx(per.tte_hat, abs=1e-12)

    def test_pinv_batch_matches_per_draw(self, rng):
        gen = np.random.default_rng(7)
        g = random_graph(gen, 8)
        d = bernoulli_gcr(random_clustering(gen, 8, 4), 0.4)
        self.check(g, d, "pinv", 2, 1)

    def test_ht_batch_matches_per_draw(self, rng):
        gen = np.random.default_rng(8)
        g = random_graph(gen, 7)
        self.check(g, bernoulli_unit(7, 0.35), "ht", None, 2)

    def test_gcr_explicit_batch_matches_per_draw(self, rng):
        gen = np.random.default_rng(9)
        g = random_graph(gen, 9)
        d = bernoulli_gcr(random_clustering(gen, 9, 5), 0.3)
        self.check(g, d, "gcr_explicit", 3, 3)

    def test_crd1_batch_matches_per_draw(self, rng):
        g = cycle_power(10, 2)
        d = complete_gcr(Clustering.from_labels([i // 2 for i in range(10)]), 2)
        self.check(g, d, "crd1", None, 4)

    def test_batch_positivity_guard(self):
        g = cycle_power(4, 1)
        c = Clustering.from_labels([0, 1, 0, 1])
        d = complete_gcr(c, 1)
        W = np.stack([sample(d, 0, r).w for r in range(3)])
        with pytest.raises(PositivityError, match="unit 0"):
            replicate_estimates(lift(gen_cycle_model(g, 1), g, c), d, [EstimatorSpec("ht")], W)

    def test_batch_kind_checks(self):
        g = cycle_power(4, 1)
        c = singleton_clustering(4)
        gcr, crd = bernoulli_gcr(c, 0.5), complete_gcr(c, 2)
        W = np.zeros((2, 4), dtype=np.int8)
        lifted = lift(gen_cycle_model(g, 1), g, c)
        with pytest.raises(InputError, match="gcr_explicit needs a Bernoulli"):
            replicate_estimates(lifted, crd, [EstimatorSpec("gcr_explicit", 1)], W)
        with pytest.raises(InputError, match="crd1 needs a complete"):
            replicate_estimates(lifted, gcr, [EstimatorSpec("crd1")], W)
        with pytest.raises(InputError, match="0 or 1"):
            replicate_estimates(lifted, gcr, [EstimatorSpec("pinv", 1)], W + 2)

    def test_batch_rejects_stats_of_another_clustering(self):
        g = cycle_power(12, 1)
        d = bernoulli_gcr(Clustering.from_labels([i // 4 for i in range(12)]), 0.5)
        W = np.stack([sample(d, 0, r).w for r in range(3)])
        agg = lift(gen_cycle_model(g, 1), g, shifted_blocks(12, 4))
        with pytest.raises(InputError, match="clustering"):
            replicate_estimates(agg, d, [EstimatorSpec("pinv", 1)], W)


class TestLargeNeighborhoods:
    def star(self, n):
        # unit 0 watches every other unit: a cluster neighborhood of n units
        return from_edge_list([(j, 0) for j in range(1, n)], n)

    def test_pinv_at_c150_beta4_matches_product_form(self):
        # the dense subset system here would hold C(150, <=4) = 20.8M rows
        g = self.star(150)
        d = bernoulli_unit(150, 0.5)
        Y = np.ones(150)
        for r in range(3):
            draw = sample(d, 0, r)
            a = estimate(g, Y, draw, d, "pinv", 4).weights
            b = estimate(g, Y, draw, d, "gcr_explicit", 4).weights
            assert np.all(np.isfinite(a))
            assert np.max(np.abs(a - b)) <= 1e-10 * np.max(np.abs(b))

    def test_ht_underflow_is_not_a_positivity_failure(self):
        # 0.25**600 underflows to 0.0, but every neighborhood can be fully
        # treated under a Bernoulli design
        g = self.star(600)
        d = bernoulli_unit(600, 0.25)
        with pytest.raises(CapacityError, match=r"unit 0\b.*c=600.*underflows"):
            estimate(g, np.ones(600), sample(d, 0, 0), d, "ht")

    def test_gcr_explicit_tiny_p_overflow(self):
        g = cycle_power(12, 1)
        d = bernoulli_unit(12, 1e-300)
        message = r"p=1e-300: the order-2 explicit weights of a neighborhood of c=3"
        with pytest.raises(CapacityError, match=message):
            estimate(g, np.ones(12), sample(d, 0, 0), d, "gcr_explicit", 2)

    def test_pinv_table_matches_product_form_at_p09(self):
        # a numeric solve of the size-class system misses here by ~1e-6
        d = bernoulli_unit(2, 0.9)
        for c in range(61):
            a = _pinv_row(d, 3, c, 0)
            b = _gcr_row(d, 3, c, 0)
            assert np.max(np.abs(a - b)) <= 1e-10 * max(1.0, np.max(np.abs(b))), c


class TestContracts:
    def test_breakdown_identity(self, rng):
        g = cycle_power(10, 2)
        model = gen_cycle_model(g, 2)
        d = bernoulli_gcr(singleton_clustering(10), 0.25)
        draw = sample(d, 3, 0)
        Y = evaluate(model, g, draw.z)
        br = estimate(g, Y, draw, d, "pinv", 2)
        assert br.tte_hat == pytest.approx(float(np.mean(Y * br.weights)), abs=1e-12)
        assert br.kind == "pinv" and br.beta == 2

    def test_weights_independent_of_outcomes(self, rng):
        g = cycle_power(8, 1)
        d = bernoulli_unit(8, 0.5)
        draw = sample(d, 0, 0)
        a = estimate(g, rng.standard_normal(8), draw, d, "pinv", 1)
        b = estimate(g, rng.standard_normal(8), draw, d, "pinv", 1)
        assert np.array_equal(a.weights, b.weights)

    def test_linearity_in_outcomes(self, rng):
        g = cycle_power(8, 1)
        d = bernoulli_unit(8, 0.5)
        draw = sample(d, 0, 1)
        Y1, Y2 = rng.standard_normal(8), rng.standard_normal(8)
        t1 = estimate(g, Y1, draw, d, "pinv", 1).tte_hat
        t2 = estimate(g, Y2, draw, d, "pinv", 1).tte_hat
        tsum = estimate(g, 2.0 * Y1 + Y2, draw, d, "pinv", 1).tte_hat
        assert tsum == pytest.approx(2.0 * t1 + t2, abs=1e-10)

    def test_validation_errors(self):
        g = cycle_power(4, 1)
        d = bernoulli_unit(4, 0.5)
        draw = sample(d, 0, 0)
        with pytest.raises(InputError, match="Y has shape"):
            estimate(g, [1.0, 2.0], draw, d, "pinv", 1)
        with pytest.raises(InputError, match="beta"):
            estimate(g, np.ones(4), draw, d, "pinv", 0)
        with pytest.raises(InputError, match="covers"):
            estimate(cycle_power(6, 1), np.ones(6), draw, d, "pinv", 1)
        other = bernoulli_unit(6, 0.5)
        with pytest.raises(InputError, match="clusters"):
            estimate(g, np.ones(4), sample(other, 0, 0), d, "pinv", 1)
        # checked before the int8 cast, which would truncate 0.5 and wrap 257
        for bad in (0.5, 2, 257):
            w = np.array([bad, 0, 1, 0], dtype=np.float64)
            with pytest.raises(InputError, match="0 or 1"):
                estimate(g, np.ones(4), AssignmentDraw(w, w), d, "pinv", 1)
        with pytest.raises(InputError, match="p="):
            estimate(
                g, np.ones(4), draw, bernoulli_gcr(singleton_clustering(4), 1.5), "gcr_explicit", 1
            )
        with pytest.raises(InputError, match="k="):
            estimate(g, np.ones(4), draw, complete_gcr(singleton_clustering(4), 0), "crd1")

    def test_estimate_takes_kind_and_order_from_estimator_spec(self):
        g = cycle_power(4, 1)
        d = complete_gcr(singleton_clustering(4), 2)
        draw = sample(d, 0, 0)
        for kind, beta, message in (
            ("magic", 1, "unknown estimator kind 'magic'"),
            ("ht", 2, "ht takes no beta"),
            ("crd1", 3, "crd1 is a beta=1 estimator, got beta=3"),
        ):
            with pytest.raises(InputError, match=message):
                estimate(g, np.ones(4), draw, d, kind, beta)
        assert estimate(g, np.ones(4), draw, d, "crd1").beta == 1
        assert estimate(g, np.ones(4), draw, d, "pinv", 2).beta == 2


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_route_agreement_property(seed):
    gen = np.random.default_rng(seed)
    n = int(gen.integers(2, 9))
    g = random_graph(gen, n)
    m = int(gen.integers(1, n + 1))
    c = random_clustering(gen, n, m)
    p = float(gen.uniform(0.15, 0.85))
    beta = int(gen.integers(1, 3))
    d = bernoulli_gcr(c, p)
    Y = gen.standard_normal(n)
    draw = sample(d, int(gen.integers(0, 1000)), 0)
    a = estimate(g, Y, draw, d, "pinv", beta)
    b = estimate(g, Y, draw, d, "gcr_explicit", beta)
    assert np.allclose(a.weights, b.weights, atol=1e-9)
