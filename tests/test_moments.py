from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pinvtte import (
    CapacityError,
    Clustering,
    DesignMoments,
    InputError,
    InterferenceGraph,
    SubsetIndex,
    analytic_cluster_moments,
    bernoulli_gcr,
    complete_gcr,
    cycle_power,
    enumerate_support,
    from_edge_list,
    gamma_quadform,
    joint_treat_prob,
    monte_carlo_moments,
    numeric_pinv,
    singleton_clustering,
    size_class_pinv,
    size_class_sums,
)
from conftest import (
    crd_determinant,
    neighbors,
    random_clustering,
    random_graph,
    support_moments,
)


def penrose_holds(M, P, atol=1e-10):
    # tolerance scales with the entries; ill-conditioned systems put the
    # pseudoinverse in the thousands while agreeing to 1e-12 relative
    tol = atol * max(1.0, float(np.max(np.abs(P))))
    return (
        np.allclose(M @ P @ M, M, atol=tol)
        and np.allclose(P @ M @ P, P, atol=tol)
        and np.allclose((M @ P).T, M @ P, atol=tol)
        and np.allclose((P @ M).T, P @ M, atol=tol)
    )


class TestSubsetIndex:
    def test_canonical_order(self):
        idx = SubsetIndex((3, 7), 2)
        assert idx.subsets == ((), (3,), (7,), (3, 7))
        assert idx.subsets.index((3, 7)) == 3
        assert list(idx.sizes) == [0, 1, 1, 2]

    def test_beta_beyond_ground_gives_power_set(self):
        idx = SubsetIndex((0, 1), 5)
        assert len(idx) == 4

    def test_beta_zero(self):
        idx = SubsetIndex((0, 1, 2), 0)
        assert idx.subsets == ((),)

    def test_validation(self):
        with pytest.raises(InputError):
            SubsetIndex((0, 1), -1)
        with pytest.raises(InputError):
            SubsetIndex((1, 0), 1)
        with pytest.raises(InputError):
            SubsetIndex((0, 0, 1), 1)

    def test_ground_from_any_iterable(self):
        # a generator is read once, before the order check
        idx = SubsetIndex((x for x in (1, 2)), 1)
        assert idx.ground == (1, 2)
        assert idx.subsets == ((), (1,), (2,))

    def test_capacity_guard(self):
        with pytest.raises(CapacityError):
            SubsetIndex(tuple(range(40)), 40)

    def test_parent_links_drop_largest_element(self):
        # every non-empty subset minus its largest element is itself a row,
        # and an earlier one
        idx = SubsetIndex((2, 5, 9), 3)
        for r, s in enumerate(idx.subsets):
            if s:
                assert idx.subsets.index(s[:-1]) < r

    def test_union_sizes_hand_values(self):
        idx = SubsetIndex((0, 1), 2)
        expect = np.array(
            [[0, 1, 1, 2], [1, 1, 2, 2], [1, 2, 1, 2], [2, 2, 2, 2]]
        )
        assert np.array_equal(idx.union_sizes(), expect)


def test_theta_vector():
    # gamma_quadform's theta is zero on the empty subset row, one elsewhere
    idx = SubsetIndex((0, 1), 2)
    P = np.diag([5.0, 1.0, 2.0, 4.0])
    assert gamma_quadform(DesignMoments(idx, np.eye(4), P, "numeric")) == 7.0


class TestBernoulliMoments:
    def test_single_cluster_half(self):
        dm = analytic_cluster_moments(bernoulli_gcr(singleton_clustering(1), 0.5), (0,), 1)
        assert np.allclose(dm.M, [[1.0, 0.5], [0.5, 0.5]])
        assert np.allclose(dm.M_pinv, [[2.0, -2.0], [-2.0, 4.0]])
        assert dm.provenance == "analytic"

    def test_entries_are_union_powers(self):
        dm = analytic_cluster_moments(bernoulli_gcr(singleton_clustering(3), 0.3), (0, 1, 2), 2)
        assert np.allclose(dm.M, 0.3 ** dm.index.union_sizes())

    @pytest.mark.parametrize("c", [1, 2, 3, 4])
    @pytest.mark.parametrize("beta", [1, 2, 3])
    @pytest.mark.parametrize("p", [0.1, 0.3, 0.5, 0.7, 0.9])
    def test_closed_pinv_matches_numeric(self, c, beta, p):
        dm = analytic_cluster_moments(bernoulli_gcr(singleton_clustering(c), p), range(c), beta)
        # entries grow like p^-beta so compare at a scale-aware tolerance
        scale = max(1.0, float(np.max(np.abs(dm.M_pinv))))
        assert np.allclose(dm.M_pinv, numeric_pinv(dm.M), atol=1e-12 * scale + 1e-9)
        assert penrose_holds(dm.M, dm.M_pinv, atol=1e-9)

    @pytest.mark.parametrize("beta", [1, 2])
    def test_tiny_p_overflow_names_p_order_and_c(self, beta):
        d = bernoulli_gcr(singleton_clustering(3), 1e-300)
        message = f"p=1e-300: the order-{beta} pseudoinverse entries of a neighborhood of c=3"
        with pytest.raises(CapacityError, match=message):
            analytic_cluster_moments(d, (0, 1, 2), beta)

    def test_invalid_p(self):
        # the design owns the check of p
        for p in (0.0, 1.0, -0.5):
            with pytest.raises(InputError):
                bernoulli_gcr(singleton_clustering(1), p)


class TestCrdMoments:
    def test_entries_are_falling_factorial_ratios(self):
        dm = analytic_cluster_moments(complete_gcr(singleton_clustering(5), 2), (0, 1), 2)
        u = dm.index.union_sizes()
        expect = np.zeros_like(dm.M)
        for a in range(u.shape[0]):
            for b in range(u.shape[1]):
                t = u[a, b]
                num = math.perm(2, t) if t <= 2 else 0
                expect[a, b] = num / math.perm(5, t)
        assert np.allclose(dm.M, expect)

    def test_full_contact_pinv_two_clusters(self):
        dm = analytic_cluster_moments(complete_gcr(singleton_clustering(2), 1), (0, 1), 1)
        expect = (2.0 / 9.0) * np.array(
            [[2.0, 1.0, 1.0], [1.0, 5.0, -4.0], [1.0, -4.0, 5.0]]
        )
        assert np.allclose(dm.M_pinv, expect, atol=1e-12)
        assert dm.provenance == "analytic"

    @pytest.mark.parametrize("m", [2, 3, 4, 5, 6, 7, 8])
    def test_beta1_closed_matches_numeric(self, m):
        for k in range(1, m):
            d = complete_gcr(singleton_clustering(m), k)
            for c in range(1, m + 1):
                dm = analytic_cluster_moments(d, range(c), 1)
                assert np.allclose(
                    dm.M_pinv, numeric_pinv(dm.M), atol=1e-9
                ), (m, k, c)
                assert penrose_holds(dm.M, dm.M_pinv, atol=1e-9)

    def test_higher_order_falls_back_to_numeric(self):
        dm = analytic_cluster_moments(complete_gcr(singleton_clustering(5), 2), (0, 1), 2)
        assert dm.provenance == "numeric"
        assert penrose_holds(dm.M, dm.M_pinv, atol=1e-9)

    def test_validation(self):
        # the design owns the check of k
        with pytest.raises(InputError, match="k="):
            complete_gcr(singleton_clustering(4), 0)
        with pytest.raises(InputError, match="ground set"):
            analytic_cluster_moments(complete_gcr(singleton_clustering(2), 1), (0, 1, 2), 1)


class TestCrdDeterminant:
    @pytest.mark.parametrize("m", [2, 3, 4, 5, 6, 7, 8])
    def test_matches_numpy_det(self, m):
        for k in range(1, m):
            d = complete_gcr(singleton_clustering(m), k)
            for c in range(0, m + 1):
                dm = analytic_cluster_moments(d, range(c), 1)
                assert crd_determinant(m, k, c) == pytest.approx(
                    float(np.linalg.det(dm.M)), abs=1e-12
                ), (m, k, c)

    def test_zero_exactly_at_full_contact(self):
        assert crd_determinant(6, 2, 6) == 0.0
        assert crd_determinant(6, 2, 5) > 0.0

    def test_validation(self):
        with pytest.raises(InputError):
            crd_determinant(4, 4, 2)
        with pytest.raises(InputError):
            crd_determinant(4, 2, 5)


class TestNumericPinv:
    def test_recovers_inverse(self, rng):
        A = rng.standard_normal((5, 5))
        M = A @ A.T + 5.0 * np.eye(5)
        assert np.allclose(numeric_pinv(M), np.linalg.inv(M), atol=1e-10)

    def test_penrose_on_singular(self, rng):
        A = rng.standard_normal((6, 3))
        M = A @ A.T  # rank 3 of 6
        P = numeric_pinv(M)
        assert penrose_holds(M, P, atol=1e-8)

    def test_errors(self):
        with pytest.raises(InputError, match="square"):
            numeric_pinv(np.ones((2, 3)))
        with pytest.raises(InputError, match="finite"):
            numeric_pinv(np.array([[1.0, np.nan], [0.0, 1.0]]))


class TestSupportMoments:
    def test_matches_analytic_bernoulli(self, rng):
        g = random_graph(rng, 8)
        c = random_clustering(rng, 8, 4)
        d = bernoulli_gcr(c, 0.35)
        for i in range(8):
            sup = support_moments(d, g, i, 2)
            ana = analytic_cluster_moments(d, sup.index.ground, 2)
            assert np.allclose(sup.M, ana.M, atol=1e-12)
            assert np.allclose(sup.M_pinv, ana.M_pinv, atol=1e-8)

    def test_matches_analytic_complete(self, rng):
        g = random_graph(rng, 9)
        c = random_clustering(rng, 9, 5)
        d = complete_gcr(c, 2)
        for i in range(9):
            sup = support_moments(d, g, i, 1)
            ana = analytic_cluster_moments(d, sup.index.ground, 1)
            assert np.allclose(sup.M, ana.M, atol=1e-12)
            assert np.allclose(sup.M_pinv, ana.M_pinv, atol=1e-8)

    def test_provenance(self):
        g = cycle_power(6, 1)
        d = bernoulli_gcr(singleton_clustering(6), 0.5)
        assert support_moments(d, g, 0, 1).provenance == "numeric"


class TestMonteCarloMoments:
    def test_deterministic_in_seed(self):
        g = cycle_power(8, 1)
        d = bernoulli_gcr(singleton_clustering(8), 0.4)
        a = monte_carlo_moments(d, g, 2, 2, R=500, seed=3)
        b = monte_carlo_moments(d, g, 2, 2, R=500, seed=3)
        assert np.array_equal(a.M, b.M)
        assert a.provenance == "monte_carlo(500)"

    def test_symmetric(self):
        g = cycle_power(8, 1)
        d = complete_gcr(Clustering.from_labels([i // 2 for i in range(8)]), 2)
        dm = monte_carlo_moments(d, g, 0, 1, R=300, seed=1)
        assert np.array_equal(dm.M, dm.M.T)

    def test_converges_toward_analytic(self):
        g = cycle_power(10, 1)
        d = bernoulli_gcr(singleton_clustering(10), 0.5)
        ana = analytic_cluster_moments(d, (0, 1, 9), 2)
        est = monte_carlo_moments(d, g, 0, 2, R=40_000, seed=0)
        assert est.index.ground == ana.index.ground
        assert np.linalg.norm(est.M - ana.M) < 0.02

    def test_rejects_unit_outside_graph(self):
        g = cycle_power(12, 1)
        d = bernoulli_gcr(singleton_clustering(12), 0.3)
        for unit in (99, 12, -1):
            with pytest.raises(InputError, match=f"unit {unit} outside"):
                monte_carlo_moments(d, g, unit, 1, R=100, seed=0)

    def test_rejects_zero_draws(self):
        g = cycle_power(4, 1)
        d = bernoulli_unit_design()
        with pytest.raises(InputError):
            monte_carlo_moments(d, g, 0, 1, R=0, seed=0)


def bernoulli_unit_design():
    from pinvtte import bernoulli_unit

    return bernoulli_unit(4, 0.5)


class TestSizeClass:
    @pytest.mark.parametrize("beta, p", [(2, 1e-200), (1, 1e-320)])
    def test_tiny_p_overflow_names_p_order_and_c(self, beta, p):
        d = bernoulli_gcr(singleton_clustering(3), p)
        message = f"p={p!r}: the order-{beta} pseudoinverse weights of a neighborhood of c=3"
        with pytest.raises(CapacityError, match=message):
            size_class_pinv(d, 3, beta)

    def test_matches_dense(self):
        # M^+ theta from the dense subset system is a_{|U|} on every row
        for m in range(2, 9):
            clus = singleton_clustering(m)
            designs = [bernoulli_gcr(clus, p) for p in (0.1, 0.25, 0.5, 0.75, 0.9)]
            designs += [complete_gcr(clus, k) for k in sorted({1, m // 2, m - 1})]
            for d in designs:
                for c in range(m + 1):
                    for beta in (1, 2, 3):
                        dense = analytic_cluster_moments(d, tuple(range(c)), beta)
                        v = dense.M_pinv @ (dense.index.sizes > 0)
                        a = size_class_pinv(d, c, beta)
                        assert a.size == min(beta, c) + 1
                        err = np.max(np.abs(a[dense.index.sizes] - v))
                        assert err <= 1e-10 * max(1.0, np.max(np.abs(v))), (d, c, beta)


class TestCaches:
    # the per-size tables that replaced the cached dense (M, M^+, M^+ theta)
    def test_cached_system_matches_analytic(self):
        d = bernoulli_gcr(singleton_clustering(5), 0.25)
        ana = analytic_cluster_moments(d, (0, 1, 2), 2)
        sizes = ana.index.sizes
        # summing row U of M over the size-t columns gives K[|U|, t]
        probs = [joint_treat_prob(d, u) for u in range(4)]
        K = size_class_sums(probs, 3, 2, 2)
        for t in range(3):
            assert np.allclose(ana.M[:, sizes == t].sum(axis=1), K[sizes, t])
        a = size_class_pinv(d, 3, 2)
        assert np.allclose(a[sizes], ana.M_pinv @ (ana.index.sizes > 0))

    def test_distinct_designs_do_not_collide(self):
        a = bernoulli_gcr(singleton_clustering(4), 0.25)
        b = bernoulli_gcr(singleton_clustering(4), 0.75)
        assert not np.allclose(size_class_pinv(a, 2, 1), size_class_pinv(b, 2, 1))
        for d in (a, b):
            ana = analytic_cluster_moments(d, (0, 1), 1)
            v = ana.M_pinv @ (ana.index.sizes > 0)
            assert np.allclose(size_class_pinv(d, 2, 1)[ana.index.sizes], v)


# ---------------------------------------------------------------------------
# unit-level lift: the unit-to-cluster subset correspondence, kept here as an
# oracle for the cluster-level moment systems
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BlockLift:
    """Bookkeeping tying a unit's subset index over N_i to the index over its
    cluster neighborhood.

    row_map[s] is the row of the cluster subset C(S) for unit subset row s.
    heights[u] counts how many unit subsets map to cluster subset row u; the
    empty set maps only to itself, so heights[0] = 1.
    """

    unit_index: SubsetIndex
    cluster_index: SubsetIndex
    row_map: np.ndarray
    heights: np.ndarray


def block_lift(
    g: InterferenceGraph, c: Clustering, i: int, beta: int
) -> BlockLift:
    """Materialize the unit-to-cluster subset correspondence for unit i.

    Heights are computed from the composition formula: for a cluster subset
    U, the count of unit subsets with image U is the number of ways to pick
    at least one neighbor from each cluster of U with at most beta picks in
    total, a truncated product of binomial generating polynomials.
    """
    if c.n != g.n:
        raise InputError(f"clustering over {c.n} units but graph has {g.n}")
    assign = c.assignment
    nbrs = neighbors(g)[i]
    ground = tuple(sorted({assign[j] for j in nbrs}))
    unit_index = SubsetIndex(nbrs, beta)
    cluster_index = SubsetIndex(ground, beta)
    row_map = np.array(
        [
            cluster_index.subsets.index(tuple(sorted({assign[j] for j in s})))
            for s in unit_index.subsets
        ],
        dtype=np.int64,
    )
    # members of each neighborhood cluster, counted once
    overlap = {cid: 0 for cid in ground}
    for j in nbrs:
        overlap[assign[j]] += 1
    heights = np.zeros(len(cluster_index), dtype=np.int64)
    for u_row, u in enumerate(cluster_index.subsets):
        poly = np.zeros(beta + 1, dtype=np.int64)
        poly[0] = 1
        for cid in u:
            nt = overlap[cid]
            factor = np.zeros(beta + 1, dtype=np.int64)
            for a in range(1, min(nt, beta) + 1):
                factor[a] = math.comb(nt, a)
            poly = np.convolve(poly, factor)[: beta + 1]
        heights[u_row] = int(poly.sum())
    return BlockLift(
        unit_index=unit_index,
        cluster_index=cluster_index,
        row_map=row_map,
        heights=heights,
    )


def lifted_moments(lift: BlockLift, cluster_M: np.ndarray) -> np.ndarray:
    """Unit-level moment matrix implied by a cluster-level one: entry (S, T)
    is the cluster entry at (C(S), C(T)), since a unit subset is fully
    treated exactly when its image clusters are."""
    return cluster_M[np.ix_(lift.row_map, lift.row_map)]


def lifted_pinv(lift: BlockLift, cluster_pinv: np.ndarray) -> np.ndarray:
    """Unit-level pseudoinverse from the cluster-level one: the cluster entry
    at (C(S), C(T)) divided by the block heights of C(S) and C(T)."""
    h = lift.heights.astype(np.float64)
    scaled = cluster_pinv / np.outer(h, h)
    return scaled[np.ix_(lift.row_map, lift.row_map)]


class TestBlockLift:
    def lift_instance(self):
        # unit 0 watches itself plus units 1 and 2; 0 and 1 share a cluster
        g = from_edge_list([(1, 0), (2, 0)], 3)
        c = Clustering.from_labels([0, 0, 1])
        return g, c

    def test_heights_two_one_split(self):
        g, c = self.lift_instance()
        lift = block_lift(g, c, 0, beta=2)
        assert lift.cluster_index.subsets == ((), (0,), (1,), (0, 1))
        assert list(lift.heights) == [1, 3, 1, 2]
        assert int(lift.heights.sum()) == len(lift.unit_index)

    def test_row_map_images(self):
        g, c = self.lift_instance()
        lift = block_lift(g, c, 0, beta=2)
        assign = c.assignment
        for r, s in enumerate(lift.unit_index.subsets):
            image = tuple(sorted({assign[j] for j in s}))
            assert lift.cluster_index.subsets[lift.row_map[r]] == image

    def test_empty_set_height_one(self, rng):
        g = random_graph(rng, 9)
        c = random_clustering(rng, 9, 4)
        for i in range(9):
            lift = block_lift(g, c, i, beta=2)
            assert lift.heights[0] == 1
            assert int(lift.heights.sum()) == len(lift.unit_index)

    def test_size_mismatch(self):
        g, _ = self.lift_instance()
        with pytest.raises(InputError):
            block_lift(g, singleton_clustering(4), 0, 1)


class TestLiftedSystems:
    def unit_level_support_M(self, d, c, unit_index):
        M = np.zeros((len(unit_index), len(unit_index)))
        for prob, w in zip(*enumerate_support(d)):
            z = w[np.asarray(c.assignment)]
            ind = np.array(
                [all(z[j] == 1 for j in s) for s in unit_index.subsets],
                dtype=np.float64,
            )
            M += prob * np.outer(ind, ind)
        return M

    def test_lift_reproduces_unit_moments_and_pinv(self, rng):
        for trial in range(4):
            gen = np.random.default_rng(500 + trial)
            g = random_graph(gen, 7)
            c = random_clustering(gen, 7, 3)
            d = bernoulli_gcr(c, 0.3)
            for i in range(7):
                lift = block_lift(g, c, i, beta=2)
                ana = analytic_cluster_moments(d, lift.cluster_index.ground, 2)
                Mu = self.unit_level_support_M(d, c, lift.unit_index)
                assert np.allclose(lifted_moments(lift, ana.M), Mu, atol=1e-12)
                assert np.allclose(
                    lifted_pinv(lift, ana.M_pinv), numeric_pinv(Mu), atol=1e-8
                )

    def test_lift_under_complete_design(self, rng):
        gen = np.random.default_rng(77)
        g = random_graph(gen, 8)
        c = random_clustering(gen, 8, 4)
        d = complete_gcr(c, 2)
        for i in range(8):
            lift = block_lift(g, c, i, beta=1)
            ana = analytic_cluster_moments(d, lift.cluster_index.ground, 1)
            Mu = self.unit_level_support_M(d, c, lift.unit_index)
            assert np.allclose(lifted_moments(lift, ana.M), Mu, atol=1e-12)
            assert np.allclose(
                lifted_pinv(lift, ana.M_pinv), numeric_pinv(Mu), atol=1e-8
            )

    def test_singleton_clusters_make_lift_trivial(self, rng):
        g = random_graph(rng, 6)
        c = singleton_clustering(6)
        for i in range(6):
            lift = block_lift(g, c, i, beta=2)
            assert np.all(lift.heights == 1)
            assert list(lift.row_map) == list(range(len(lift.unit_index)))


@settings(max_examples=25, deadline=None)
@given(
    c=st.integers(1, 5),
    beta=st.integers(1, 3),
    p=st.floats(0.05, 0.95),
)
def test_bern_pinv_is_moore_penrose(c, beta, p):
    dm = analytic_cluster_moments(bernoulli_gcr(singleton_clustering(c), p), range(c), beta)
    assert penrose_holds(dm.M, dm.M_pinv, atol=1e-7)


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_crd_beta1_pinv_is_moore_penrose(data):
    m = data.draw(st.integers(2, 8))
    k = data.draw(st.integers(1, m - 1))
    c = data.draw(st.integers(1, m))
    dm = analytic_cluster_moments(complete_gcr(singleton_clustering(m), k), range(c), 1)
    assert penrose_holds(dm.M, dm.M_pinv, atol=1e-8)
