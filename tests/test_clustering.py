from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pinvtte import (
    Clustering,
    GeometryError,
    InputError,
    cluster_stats,
    contiguous_cycle_clusters,
    cycle_power,
    from_edge_list,
    load_clustering,
    louvain,
    modularity,
    save_clustering,
    sbm_sample,
    singleton_clustering,
)
from pinvtte.clustering import _same_lift
from conftest import (
    cluster_rows,
    neighbors,
    oracle_louvain,
    oracle_modularity,
    random_clustering,
    random_graph,
)

# the CLI's default resolution grid for select
DEFAULT_GRID = (0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 2.0)


def two_triangles():
    edges = []
    for a, b in [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]:
        edges += [(a, b), (b, a)]
    return from_edge_list(edges, 6)


class TestClustering:
    def test_empty_cluster_rejected(self):
        with pytest.raises(InputError):
            Clustering(assignment=(0, 0, 2))

    def test_out_of_range_label_rejected(self):
        with pytest.raises(InputError):
            Clustering(assignment=(0, 3))

    @pytest.mark.parametrize(
        "labels",
        [(0, 0.5, 1, 1), ("a", "a"), np.zeros((2, 2), dtype=int), (), (0, -1), [[0], [0, 1]]],
    )
    def test_non_label_assignment_rejected(self, labels):
        with pytest.raises(InputError):
            Clustering(labels)

    def test_from_labels_compacts_by_first_appearance(self):
        c = Clustering.from_labels([5, 5, 2, 7])
        assert tuple(c.assignment) == (0, 0, 1, 2)
        assert c.m == 3

    def test_from_labels_idempotent_on_canonical(self):
        c = Clustering.from_labels([0, 1, 1, 2])
        assert Clustering.from_labels(c.assignment) == c

    def test_members_and_sizes(self):
        c = Clustering.from_labels([0, 1, 0, 1, 1])
        assert list(np.flatnonzero(c.assignment == 0)) == [0, 2]
        assert list(np.flatnonzero(c.assignment == 1)) == [1, 3, 4]
        assert list(c.sizes()) == [2, 3]

    def test_singleton(self):
        c = singleton_clustering(4)
        assert c.m == 4
        assert tuple(c.assignment) == (0, 1, 2, 3)

    def test_contiguous(self):
        c = contiguous_cycle_clusters(6, 2)
        assert tuple(c.assignment) == (0, 0, 1, 1, 2, 2)
        with pytest.raises(GeometryError):
            contiguous_cycle_clusters(6, 4)


class TestClusterStats:
    def test_cycle_width_two(self):
        g = cycle_power(6, 1)
        stats = cluster_stats(g, contiguous_cycle_clusters(6, 2))
        assert cluster_rows(stats)[0] == (0, 2)
        assert cluster_rows(stats)[1] == (0, 1)
        assert stats.C_max == 2
        assert stats.N_max == 2
        assert stats.full_contact_count == 0

    def test_full_contact_counting(self):
        g = cycle_power(6, 1)
        stats = cluster_stats(g, contiguous_cycle_clusters(6, 3))
        # boundary units (0, 2, 3, 5) see both clusters; interior ones see one
        assert stats.full_contact_count == 4
        assert stats.C_max == 2
        assert stats.m == 2

    def test_length_mismatch(self):
        g = cycle_power(6, 1)
        with pytest.raises(InputError):
            cluster_stats(g, singleton_clustering(5))


class TestModularity:
    def test_two_triangles_perfect_partition(self):
        g = two_triangles()
        c = Clustering.from_labels([0, 0, 0, 1, 1, 1])
        assert modularity(g, c) == pytest.approx(0.5)

    def test_single_cluster_is_zero(self):
        g = two_triangles()
        c = Clustering.from_labels([0] * 6)
        assert modularity(g, c) == pytest.approx(0.0)

    def test_resolution_penalizes(self):
        g = two_triangles()
        c = Clustering.from_labels([0, 0, 0, 1, 1, 1])
        assert modularity(g, c, resolution=2.0) < modularity(g, c, resolution=0.5)
        # the resolution louvain accepts, and no other
        for bad in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(InputError, match="resolution must be positive and finite"):
                modularity(g, c, resolution=bad)

    def test_unit_count_mismatch_rejected(self):
        with pytest.raises(InputError, match="clustering over 6 units but graph has 8"):
            modularity(cycle_power(8, 1), singleton_clustering(6))

    def test_self_loops_ignored(self):
        # cycle graphs carry i in N_i; modularity must not see a self-edge
        g = cycle_power(6, 1)
        c = contiguous_cycle_clusters(6, 3)
        q = modularity(g, c)
        assert -1.0 <= q <= 1.0
        # hand value: 6 undirected edges, 4 intra, degree sum 6 per cluster
        assert q == pytest.approx(4 / 6 - 2 * (6 / 12) ** 2)


class TestLouvain:
    def test_disconnected_cliques_recovered(self):
        g = two_triangles()
        c = louvain(g)
        assert tuple(c.assignment) == (0, 0, 0, 1, 1, 1)

    def test_sbm_blocks_recovered(self):
        g = sbm_sample(60, 4, 0.9, 0.0, seed=3)
        c = louvain(g)
        truth = Clustering.from_labels([i // 15 for i in range(60)])
        assert c == truth

    def test_determinism(self):
        g = sbm_sample(40, 4, 0.6, 0.1, seed=1)
        assert louvain(g, seed=7) == louvain(g, seed=7)
        assert louvain(g) == louvain(g)

    def test_extreme_resolutions(self):
        g = two_triangles()
        assert louvain(g, resolution=1000.0).m == 6
        assert louvain(g, resolution=1e-6).m == 2

    @pytest.mark.parametrize("resolution", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_resolution_not_positive_finite(self, resolution):
        with pytest.raises(InputError, match="positive and finite"):
            louvain(two_triangles(), resolution=resolution)

    def test_rejects_negative_seed(self):
        with pytest.raises(InputError, match="seed must be nonnegative, got -1"):
            louvain(two_triangles(), seed=-1)

    def test_matches_dict_oracle(self):
        # the CSR levels give the partition of the dict-per-visit route,
        # seeded shuffles included, and modularity to the last bit
        gen = np.random.default_rng(11)
        graphs = [
            random_graph(gen, int(gen.integers(2, 60)), int(gen.integers(1, 8)))
            for _ in range(50)
        ]
        graphs += [cycle_power(30, 2), sbm_sample(120, 6, 0.2, 0.01, 8), from_edge_list([], 5)]
        for g in graphs:
            for resolution in DEFAULT_GRID:
                for seed in (0, 7):
                    c = louvain(g, resolution, seed)
                    assert c == oracle_louvain(g, resolution, seed), (g.n, resolution, seed)
                    q = modularity(g, c, resolution)
                    assert q == oracle_modularity(g, c, resolution)

    def test_improves_modularity_over_singletons(self):
        g = sbm_sample(40, 4, 0.7, 0.05, seed=2)
        c = louvain(g)
        assert modularity(g, c) > modularity(g, singleton_clustering(40))


class TestClusteringFiles:
    def test_round_trip(self, tmp_path, rng):
        c = random_clustering(rng, 13, 4)
        path = tmp_path / "c.tsv"
        save_clustering(c, str(path))
        assert load_clustering(str(path), 13) == c

    def test_labels_compacted_on_load(self, tmp_path):
        path = tmp_path / "c.tsv"
        path.write_text("0\t10\n1\t10\n2\t-3\n")
        c = load_clustering(str(path))
        assert tuple(c.assignment) == (0, 0, 1)

    def test_duplicate_unit_names_line(self, tmp_path):
        path = tmp_path / "c.tsv"
        path.write_text("0\t1\n0\t2\n")
        with pytest.raises(InputError, match="line 2"):
            load_clustering(str(path))

    def test_missing_unit_rejected(self, tmp_path):
        path = tmp_path / "c.tsv"
        path.write_text("0\t0\n2\t1\n")
        with pytest.raises(InputError):
            load_clustering(str(path), 3)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(-3, 5), min_size=1, max_size=12))
def test_equal_partitions_equal_whatever_built_them(labels):
    canon = Clustering.from_labels(labels).assignment.tolist()
    built = [
        Clustering(canon),
        Clustering(tuple(canon)),
        Clustering(np.array(canon, dtype=np.int32)),
        Clustering.from_labels(canon),
    ]
    g = from_edge_list([], len(canon))
    for c in built:
        assert c == built[0] and hash(c) == hash(built[0])
        _same_lift(built[0], cluster_stats(g, c))


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 15))
def test_stats_invariants_property(seed, n):
    gen = np.random.default_rng(seed)
    g = random_graph(gen, n)
    m = int(gen.integers(1, n + 1))
    c = random_clustering(gen, n, m)
    stats = cluster_stats(g, c)
    assert 1 <= stats.C_max <= m
    assert stats.N_max == max(list(c.assignment).count(k) for k in range(m))
    assert 0 <= stats.full_contact_count <= n
    for i in range(n):
        seen = {c.assignment[j] for j in neighbors(g)[i]}
        assert cluster_rows(stats)[i] == tuple(sorted(seen))
