from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pinvtte import (
    CapacityError,
    Clustering,
    Design,
    InputError,
    bernoulli_gcr,
    bernoulli_unit,
    cluster_stats,
    complete_gcr,
    cycle_power,
    draw_from_w,
    enumerate_support,
    joint_control_prob,
    joint_treat_prob,
    sample,
    singleton_clustering,
)
from conftest import pair_dependence
from pinvtte.design import _exact_probs


def oracle_support(d):
    """enumerate_support one point at a time: Bernoulli points by the bits
    of 0..2^m - 1, complete-design points by itertools.combinations."""
    m = d.m
    if d.is_bernoulli:
        out = []
        for bits in range(2**m):
            w = np.array([(bits >> c) & 1 for c in range(m)], dtype=np.int8)
            t = int(w.sum())
            out.append((d.p**t * (1.0 - d.p) ** (m - t), w))
        return out
    prob = 1.0 / math.comb(m, d.k)
    out = []
    for chosen in itertools.combinations(range(m), d.k):
        w = np.zeros(m, dtype=np.int8)
        w[list(chosen)] = 1
        out.append((prob, w))
    return out


def blocks(n, width):
    return Clustering.from_labels([i // width for i in range(n)])


class TestDesignValidation:
    def test_p_out_of_range(self):
        c = singleton_clustering(4)
        for p in (0.0, 1.0, -0.2, 1.7):
            with pytest.raises(InputError):
                bernoulli_gcr(c, p)

    def test_k_bounds(self):
        c = singleton_clustering(4)
        for k in (0, 4, 5, -1):
            with pytest.raises(InputError, match="k="):
                complete_gcr(c, k)
        complete_gcr(c, 1)
        complete_gcr(c, 3)

    @pytest.mark.parametrize(
        "variant, p, k, message",
        [
            ("bernoulli_gcr", 0.3, 2, "bernoulli designs take no k"),
            ("bernoulli_unit", 0.3, 1, "bernoulli designs take no k"),
            ("complete_gcr", 0.3, 2, "complete design takes no p"),
            ("latin", None, 2, "unknown design variant 'latin'"),
        ],
    )
    def test_variant_takes_only_its_parameter(self, variant, p, k, message):
        with pytest.raises(InputError, match=message):
            Design(variant, singleton_clustering(4), p, k)

    def test_unit_design_is_singleton_gcr(self):
        d = bernoulli_unit(5, 0.3)
        assert d.m == 5 and d.n == 5
        assert list(d.clustering.assignment) == list(range(5))

    def test_dimensions(self):
        c = blocks(12, 3)
        d = bernoulli_gcr(c, 0.25)
        assert (d.m, d.n) == (4, 12)
        assert d.is_bernoulli
        assert not complete_gcr(c, 2).is_bernoulli


class TestSample:
    def test_repeatable_and_stream_indexed(self):
        d = bernoulli_gcr(blocks(20, 2), 0.4)
        a = sample(d, 7, 3)
        b = sample(d, 7, 3)
        assert np.array_equal(a.w, b.w) and np.array_equal(a.z, b.z)
        c = sample(d, 7, 4)
        e = sample(d, 8, 3)
        # different replicate or seed should break the tie eventually;
        # check the exact draws rather than inequality which could flake
        assert not (np.array_equal(a.w, c.w) and np.array_equal(a.w, e.w))

    def test_replicate_stream_independent_of_count(self):
        # replicate r is the same draw whether or not r-1 was drawn first
        d = complete_gcr(blocks(18, 3), 2)
        direct = sample(d, 11, 9)
        again = sample(d, 11, 9)
        assert np.array_equal(direct.w, again.w)

    def test_unit_assignment_follows_clusters(self):
        c = blocks(12, 4)
        d = bernoulli_gcr(c, 0.5)
        draw = sample(d, 0, 0)
        assert np.array_equal(draw.z, draw.w[np.asarray(c.assignment)])

    def test_complete_design_treats_exactly_k(self):
        d = complete_gcr(blocks(30, 3), 4)
        for r in range(25):
            assert int(sample(d, 2, r).w.sum()) == 4

    def test_negative_indices_rejected(self):
        d = bernoulli_unit(3, 0.5)
        with pytest.raises(InputError):
            sample(d, -1, 0)
        with pytest.raises(InputError):
            sample(d, 0, -1)

    def test_stacked_draws_match_per_replicate_samples(self):
        # the one (R, m) draws helper stacks the (seed, r) streams bit for bit
        from pinvtte.design import _sample_draws

        designs = [
            bernoulli_gcr(blocks(20, 2), 0.4),
            bernoulli_unit(7, 0.1),
            complete_gcr(blocks(18, 3), 2),
            complete_gcr(blocks(5, 1), 4),
        ]
        for d in designs:
            for seed, R in ((0, 1), (3, 17), (11, 40)):
                W = _sample_draws(d, seed, R)
                stacked = np.stack([sample(d, seed, r).w for r in range(R)])
                assert W.dtype == np.int8 and W.shape == (R, d.m)
                assert np.array_equal(W, stacked)
        with pytest.raises(InputError, match="at least one draw"):
            _sample_draws(designs[0], 0, 0)


class TestDrawFromW:
    def test_shape_checked(self):
        d = bernoulli_gcr(blocks(6, 2), 0.5)
        with pytest.raises(InputError, match="expected"):
            draw_from_w(d, [1, 0])

    def test_values_checked_before_the_cast(self):
        # an int8 cast would truncate 0.5 to 0, keep 2 and overflow on 257
        d = bernoulli_gcr(singleton_clustering(8), 0.5)
        for bad in (0.5, 2, 257):
            with pytest.raises(InputError, match="0 or 1"):
                draw_from_w(d, [bad] + [0] * 7)

    def test_lift(self):
        d = bernoulli_gcr(blocks(6, 2), 0.5)
        draw = draw_from_w(d, [1, 0, 1])
        assert list(draw.z) == [1, 1, 0, 0, 1, 1]


class TestEnumerateSupport:
    def test_bernoulli_counts_and_mass(self):
        d = bernoulli_gcr(blocks(8, 2), 0.3)
        support = list(zip(*enumerate_support(d)))
        assert len(support) == 16
        assert math.fsum(p for p, _ in support) == pytest.approx(1.0, abs=1e-14)
        seen = {tuple(int(x) for x in w) for _, w in support}
        assert len(seen) == 16

    def test_bernoulli_point_probability(self):
        d = bernoulli_gcr(blocks(6, 2), 0.2)
        for prob, w in zip(*enumerate_support(d)):
            t = int(w.sum())
            assert prob == pytest.approx(0.2**t * 0.8 ** (3 - t), abs=1e-15)

    def test_complete_counts_and_uniformity(self):
        d = complete_gcr(blocks(10, 2), 2)
        support = list(zip(*enumerate_support(d)))
        assert len(support) == math.comb(5, 2)
        assert all(int(w.sum()) == 2 for _, w in support)
        assert all(p == support[0][0] for p, _ in support)
        assert math.fsum(p for p, _ in support) == pytest.approx(1.0, abs=1e-14)

    def test_capacity_guards(self):
        with pytest.raises(CapacityError, match="bernoulli"):
            enumerate_support(bernoulli_unit(21, 0.5))
        big = complete_gcr(singleton_clustering(40), 20)
        with pytest.raises(CapacityError, match="complete"):
            enumerate_support(big)

    @pytest.mark.parametrize(
        "design",
        [
            lambda: bernoulli_gcr(blocks(16, 2), 0.3),
            lambda: bernoulli_unit(5, 0.71),
            lambda: bernoulli_gcr(blocks(2, 2), 0.5),
            lambda: complete_gcr(blocks(14, 2), 3),
            lambda: complete_gcr(singleton_clustering(9), 8),
        ],
    )
    def test_matches_point_by_point_route(self, design):
        d = design()
        probs, W = enumerate_support(d)
        want = oracle_support(d)
        assert probs.dtype == np.float64 and probs.shape == (len(want),)
        assert W.dtype == np.int8 and W.shape == (len(want), d.m)
        assert probs.tolist() == [p for p, _ in want]
        assert np.array_equal(W, np.stack([v for _, v in want]))

    def test_order_deterministic(self):
        d = bernoulli_gcr(blocks(6, 2), 0.5)
        first = [tuple(int(x) for x in w) for _, w in zip(*enumerate_support(d))]
        second = [tuple(int(x) for x in w) for _, w in zip(*enumerate_support(d))]
        assert first == second


class TestJointProbabilities:
    def test_bernoulli_powers(self):
        d = bernoulli_gcr(blocks(8, 2), 0.3)
        for t in range(4):
            assert joint_treat_prob(d, t) == pytest.approx(0.3**t)
            assert joint_control_prob(d, t) == pytest.approx(0.7**t)

    def test_complete_hand_values(self):
        d = complete_gcr(blocks(8, 2), 2)  # m = 4, k = 2
        assert joint_treat_prob(d, 0) == 1.0
        assert joint_treat_prob(d, 1) == pytest.approx(0.5)
        assert joint_treat_prob(d, 2) == pytest.approx(2 / 4 * 1 / 3)
        assert joint_treat_prob(d, 3) == 0.0
        assert joint_control_prob(d, 2) == pytest.approx(2 / 4 * 1 / 3)
        assert joint_control_prob(d, 3) == 0.0

    def test_matches_support_frequency(self):
        d = complete_gcr(blocks(12, 2), 3)  # m = 6, k = 3
        support = list(zip(*enumerate_support(d)))
        for t in range(1, 5):
            clusters = tuple(range(t))
            treat = math.fsum(p for p, w in support if all(w[c] == 1 for c in clusters))
            ctrl = math.fsum(p for p, w in support if all(w[c] == 0 for c in clusters))
            assert joint_treat_prob(d, t) == pytest.approx(treat, abs=1e-12)
            assert joint_control_prob(d, t) == pytest.approx(ctrl, abs=1e-12)

    def test_more_clusters_than_the_design_has(self):
        # pi(t) is 0 past k (or m - k), also past m, with no division by C(m, t) = 0
        d = complete_gcr(Clustering([0, 1, 2]), 1)
        for t in (4, 5):
            assert joint_treat_prob(d, t) == 0.0
            assert joint_control_prob(d, t) == 0.0

    def test_exact_law_rounded_once(self):
        # Bernoulli: the exact value of the float p, raised to u
        d = bernoulli_gcr(blocks(8, 2), 0.3)
        assert _exact_probs(d, range(4)) == [Fraction(0.3) ** u for u in range(4)]
        assert _exact_probs(d, [5], treated=False) == [(1 - Fraction(0.3)) ** 5]
        # complete: C(k, u) / C(m, u), and C(m - k, u) / C(m, u) untreated
        d = complete_gcr(singleton_clustering(7), 3)
        assert _exact_probs(d, range(6)) == [Fraction(1), Fraction(3, 7), Fraction(1, 7),
                                             Fraction(1, 35), 0, 0]
        assert _exact_probs(d, [2, 4, 5], treated=False) == [Fraction(2, 7), Fraction(1, 35), 0]
        for d in (bernoulli_gcr(blocks(8, 2), 0.3), complete_gcr(singleton_clustering(40), 17)):
            for t in range(41):
                assert joint_treat_prob(d, t) == float(_exact_probs(d, [t])[0])
                assert joint_control_prob(d, t) == float(_exact_probs(d, [t], False)[0])

    def test_negative_size_rejected(self):
        d = bernoulli_unit(3, 0.5)
        with pytest.raises(InputError):
            joint_treat_prob(d, -1)
        with pytest.raises(InputError):
            joint_control_prob(d, -1)


class TestPairDependence:
    def test_bernoulli_disjoint_neighborhoods_independent(self):
        g = cycle_power(12, 1)
        c = blocks(12, 2)
        stats = cluster_stats(g, c)
        d = bernoulli_gcr(c, 0.5)
        # units 0 and 6 sit three clusters apart on the cycle
        assert not pair_dependence(d, stats, 0, 6)
        assert pair_dependence(d, stats, 0, 1)
        assert pair_dependence(d, stats, 0, 0)

    def test_complete_design_couples_everything(self):
        g = cycle_power(12, 1)
        c = blocks(12, 2)
        stats = cluster_stats(g, c)
        d = complete_gcr(c, 3)
        assert pair_dependence(d, stats, 0, 6)


@settings(max_examples=30, deadline=None)
@given(
    m=st.integers(2, 8),
    k=st.integers(1, 7),
    seed=st.integers(0, 10_000),
)
def test_complete_sample_supported(m, k, seed):
    if k >= m:
        k = m - 1
    d = complete_gcr(singleton_clustering(m), k)
    draw = sample(d, seed, 0)
    assert int(draw.w.sum()) == k
    assert set(np.unique(draw.w)) <= {0, 1}


@settings(max_examples=20, deadline=None)
@given(m=st.integers(1, 10), p=st.floats(0.05, 0.95), t=st.integers(0, 4))
def test_joint_probs_are_probabilities(m, p, t):
    d = bernoulli_gcr(singleton_clustering(m), p)
    for f in (joint_treat_prob, joint_control_prob):
        val = f(d, t)
        assert 0.0 <= val <= 1.0
