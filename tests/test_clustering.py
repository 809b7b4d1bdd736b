from __future__ import annotations

import itertools
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
    louvain_grid,
    modularity,
    save_clustering,
    sbm_sample,
    singleton_clustering,
)
import pinvtte.clustering as clustering
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
# resolutions where r k_v underflows to a subnormal, and where it overflows
# so that a gain turns -inf or nan
EXTREME_GRID = (5e-324, 1e-300, 1e308)


def skip_cases() -> list:
    """Graphs for the visit-skipping rule: units without links beside linked
    ones (zero-strength nodes), and two block models whose runs end in long
    tails of sweeps that move few nodes."""
    gen = np.random.default_rng(31)
    ring = [(0, 1), (1, 2), (2, 0), (4, 5)]
    pairs = [(2 * int(a), 2 * int(b)) for a, b in gen.integers(0, 20, (30, 2)) if a != b]
    graphs = [
        from_edge_list(edges + [(j, i) for i, j in edges], n)
        for edges, n in ((ring, 8), (pairs, 41))
    ]
    return graphs + [sbm_sample(600, 12, 0.05, 0.002, s) for s in (1, 3)]


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

    def test_equality_only_with_clusterings(self):
        c = singleton_clustering(3)
        assert c.__eq__((0, 1, 2)) is NotImplemented
        assert c != (0, 1, 2) and c != [0, 1, 2]

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
        graphs += skip_cases()
        for g in graphs:
            for resolution in DEFAULT_GRID + EXTREME_GRID:
                for seed in (0, 7):
                    c = louvain(g, resolution, seed)
                    assert c == oracle_louvain(g, resolution, seed), (g.n, resolution, seed)
                    q = modularity(g, c, resolution)
                    assert q == oracle_modularity(g, c, resolution)

    def test_improves_modularity_over_singletons(self):
        g = sbm_sample(40, 4, 0.7, 0.05, seed=2)
        c = louvain(g)
        assert modularity(g, c) > modularity(g, singleton_clustering(40))


class TestLouvainGrid:
    # sorted, unsorted with repeats, one, none, close, and extreme resolutions
    GRIDS = (
        DEFAULT_GRID,
        (2.0, 0.5, 1.0, 0.5, 0.25, 2.0),
        (1.25,),
        (),
        (0.3, 0.25, 1.0, 0.5),
        (1e-300, 1.0, 5e-324, 1e308, 0.5),
    )

    @staticmethod
    def fork_levels(monkeypatch) -> list:
        """Record (level nodes, group, picks) at every fork."""
        seen = []
        fork = clustering._forks

        def spy(group, picks, level, *rest):
            seen.append((len(level.k), list(group), list(picks)))
            return fork(group, picks, level, *rest)

        monkeypatch.setattr(clustering, "_forks", spy)
        return seen

    def test_matches_lone_dict_oracle_runs(self, monkeypatch):
        # each grid's partitions are the lone runs' ones, seeded shuffles included
        seen = self.fork_levels(monkeypatch)
        gen = np.random.default_rng(23)
        graphs = [
            random_graph(gen, int(gen.integers(2, 60)), int(gen.integers(1, 8)))
            for _ in range(50)
        ]
        # these fork at the first level and deeper, and only above the first
        sbm = [sbm_sample(120, 6, 0.2, 0.01, 8), sbm_sample(300, 10, 0.1, 0.005, 2)]
        first_fork = []
        for g in graphs + sbm + skip_cases():
            for seed in (0, 7):
                lone: dict[float, object] = {}
                for grid in self.GRIDS:
                    seen.clear()
                    got = louvain_grid(g, grid, seed)
                    want = [lone.setdefault(r, oracle_louvain(g, r, seed)) for r in grid]
                    assert got == want, (g.n, grid, seed)
                    if grid == DEFAULT_GRID:
                        first_fork.append([n == g.n for n, _, _ in seen])
        sbm_forks = first_fork[2 * len(graphs) :][:4]
        assert True in sbm_forks[0] and False in sbm_forks[0]
        assert sbm_forks[2] and True not in sbm_forks[2]

    def test_crossing_between_end_resolutions(self, monkeypatch):
        # Cliques A = 0..5 and B = 6..8 form before node 9's first visit at
        # every resolution here. Node 9 (k = 5) links 3 times into A (tot 33)
        # and twice into B (tot 8), and 2w = 46: its gains 3 - 165 r / 46 and
        # 2 - 40 r / 46 cross at r = 0.368, strictly between the group's
        # ends. So the ends pick differently, every resolution is scanned,
        # and the run forks there into {0.25, 0.3} and {0.5, 1.0}.
        seen = self.fork_levels(monkeypatch)
        edges = list(itertools.combinations(range(6), 2))
        edges += list(itertools.combinations(range(6, 9), 2))
        edges += [(9, 0), (9, 1), (9, 2), (9, 6), (9, 7)]
        g = from_edge_list(edges + [(j, i) for i, j in edges], 10)
        grid = [0.25, 0.3, 0.5, 1.0]
        got = louvain_grid(g, grid, 0)
        assert got == [oracle_louvain(g, r, 0) for r in grid]
        assert got[0] == got[1] != got[2] == got[3]
        [(nodes, group, picks)] = seen
        assert nodes == 10 and group == grid
        assert picks[0] == picks[1] != picks[2] == picks[3]

    def test_lone_runs_scan_inline(self, monkeypatch):
        # a run carrying one resolution never calls _pick; a forking grid does
        calls = []
        pick = clustering._pick

        def spy(*args):
            calls.append(args)
            return pick(*args)

        monkeypatch.setattr(clustering, "_pick", spy)
        g = sbm_sample(120, 6, 0.2, 0.01, 8)
        for seed in (0, 7):
            assert louvain(g, 1.0, seed) == oracle_louvain(g, 1.0, seed)
        assert calls == []
        seen = self.fork_levels(monkeypatch)
        louvain_grid(g, DEFAULT_GRID, 0)
        assert seen and calls

    def test_empty_and_repeated(self):
        g = sbm_sample(40, 4, 0.6, 0.1, seed=1)
        assert louvain_grid(g, [], 7) == []
        assert louvain_grid(g, iter([1.0, 1, 1.0]), 7) == [louvain(g, 1.0, 7)] * 3
        assert louvain_grid(from_edge_list([], 3), [0.5, 2.0]) == [singleton_clustering(3)] * 2

    @pytest.mark.parametrize(
        "grid, seed, message",
        [
            ([0.5, -1.0], 0, "resolution must be positive and finite, got -1.0"),
            ([0.5, math.nan], 0, "resolution must be positive and finite, got nan"),
            ([0.5], -1, "seed must be nonnegative, got -1"),
            ([], -1, "seed must be nonnegative, got -1"),
        ],
    )
    def test_checked_before_any_work(self, monkeypatch, grid, seed, message):
        def no_work(g):
            raise AssertionError("louvain_grid began work before rejecting its input")

        monkeypatch.setattr(clustering, "_symmetrized", no_work)
        with pytest.raises(InputError, match=message):
            louvain_grid(two_triangles(), grid, seed)


class TestStayCertificate:
    @staticmethod
    def case(gen):
        """A random weighted level with whole weights, plus a reservoir: two
        linked nodes in a community of their own, far from the rest. Returns
        (adj, k, two_w, com, tot, v) with tot holding every node."""
        nn = int(gen.integers(2, 12))
        adj = [[] for _ in range(nn + 2)]
        pairs = [p for p in itertools.combinations(range(nn), 2) if gen.random() < 0.4]
        for a, b in pairs + [(nn, nn + 1)]:
            w = float(gen.integers(1, 4) if b < nn else gen.integers(20, 200))
            adj[a].append((b, w))
            adj[b].append((a, w))
        for row in adj:
            row.sort()
        k = [sum(w for _, w in row) for row in adj]
        com = gen.integers(0, nn, nn).tolist() + [nn, nn]
        tot = [0.0] * (nn + 2)
        for c, kv in zip(com, k):
            tot[c] += kv
        return adj, k, sum(k), com, tot, int(gen.integers(0, nn))

    def test_moved_strength_within_allowance_keeps_every_stay(self):
        # A visit that leaves v in place records flow + allowance, and a
        # later visit skips v while the strength moved since is below it.
        # Any moves of whole strengths totalling less than the allowance
        # (v and its neighbors staying) leave each resolution's decision,
        # by the sweep's gain expression and move rule, at "stay"; moving
        # just past twice the allowance into v's own community can flip it.
        certified = flips = 0
        for trial in range(600):
            gen = np.random.default_rng(500 + trial)
            adj, k, two_w, com, tot, v = self.case(gen)
            size = 1 if trial % 2 else int(gen.integers(2, 5))
            group = sorted(set((10.0 ** gen.uniform(-1.5, 1.0, size)).tolist()))
            links = [0.0] * len(k)
            for _ in range(3):  # visit v until it stays, if its runs agree
                limit = [0.0] * len(k)
                state = com, tot, limit, 0.0, [v], 0, False
                _, picks, moved, _ = clustering._sweep(group, adj, k, two_w, links, state)
                if picks is not None or not moved:
                    break
            if picks is not None or moved:
                continue
            allowance, cv, kv = limit[v], com[v], k[v]
            if not kv:  # no links: nothing ever draws v away
                assert allowance == math.inf
                continue
            for u, wt in adj[v]:
                links[com[u]] += wt
            touched = sorted({com[u] for u, _ in adj[v]})
            rest = tot[:]
            rest[cv] -= kv  # the scan sees v outside its community

            def stays(tot_now):
                return all(
                    clustering._pick(cv, touched, links, tot_now, r * kv, two_w)[0] == cv
                    for r in group
                )

            assert stays(rest)
            if not 0.0 < allowance < math.inf:
                continue
            certified += 1
            budget = math.ceil(allowance) - 1  # whole strengths below the allowance
            rivals = [c for c in touched if c != cv]  # some, as the allowance is finite
            changes = []
            # the worst case: strength leaves the best rival for v's community
            rival = max(rivals, key=lambda c: links[c] - group[-1] * kv * rest[c] / two_w)
            changes.append([(rival, cv, min(budget, rest[rival]))])
            # and random moves among every community
            moves, left = [], budget
            while left > 0 and gen.random() < 0.8:
                a, b = gen.choice(len(rest), 2, replace=False).tolist()
                amount = float(gen.integers(0, min(left, rest[a]) + 1))
                moves.append((a, b, amount))
                left -= amount
            changes.append(moves)
            for moves in changes:
                now = rest[:]
                for a, b, amount in moves:
                    now[a] -= amount
                    now[b] += amount
                assert stays(now), (trial, group, allowance, moves)
            # just past twice the allowance, from the reservoir into cv
            past = math.floor(2.0 * allowance) + 1.0
            res = len(rest) - 2
            if past <= rest[res]:
                now = rest[:]
                now[res] -= past
                now[cv] += past
                flips += not stays(now)
        assert certified > 100
        assert flips > 0


class TestClusteringFiles:
    def test_round_trip(self, tmp_path, rng):
        c = random_clustering(rng, 13, 4)
        path = tmp_path / "c.tsv"
        save_clustering(c, str(path))
        assert load_clustering(str(path), 13) == c

    def test_comments_and_blank_lines_skipped(self, tmp_path, rng):
        c = random_clustering(rng, 7, 3)
        path = tmp_path / "c.tsv"
        save_clustering(c, str(path))
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("# unit\tlabel\n\n" + "".join(lines[:3]) + "  \n" + "".join(lines[3:]))
        assert load_clustering(str(path), 7) == c

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
