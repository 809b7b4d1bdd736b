from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pinvtte import (
    GeometryError,
    InputError,
    InterferenceGraph,
    cycle_power,
    from_edge_list,
    load_edge_list,
    save_edge_list,
    sbm_sample,
    to_edge_list,
)
from pinvtte.graph import _unique
from conftest import csr_graph, neighbors, oracle_graph_check, random_graph, traced_peak


class TestInterferenceGraph:
    def test_self_membership_required(self):
        with pytest.raises(InputError):
            csr_graph(((0,), (0,)))

    def test_sorted_unique_required(self):
        with pytest.raises(InputError):
            csr_graph(((0, 0), (1,)))
        with pytest.raises(InputError):
            csr_graph(((1, 0), (1,)))

    def test_out_of_range_neighbor(self):
        with pytest.raises(InputError):
            csr_graph(((0, 2), (1,)))

    def test_degrees(self):
        g = csr_graph(((0, 1), (1,), (0, 1, 2)))
        assert list(g.degrees) == [2, 1, 3]


class TestFromEdgeList:
    def test_direction_src_affects_dst(self):
        # (src, dst) means src's treatment can move dst's outcome,
        # so src lands in dst's in-neighborhood
        g = from_edge_list([(0, 1)], 2)
        assert neighbors(g)[1] == (0, 1)
        assert neighbors(g)[0] == (0,)

    def test_duplicate_edges_collapse(self):
        g = from_edge_list([(0, 1), (0, 1)], 2)
        assert neighbors(g)[1] == (0, 1)

    def test_endpoint_out_of_range_names_edge(self):
        with pytest.raises(InputError, match="edge 1"):
            from_edge_list([(0, 1), (0, 5)], 2)

    @pytest.mark.parametrize("n", [0, -3])
    def test_needs_a_unit(self, n):
        with pytest.raises(InputError, match=f"graph needs at least one unit, got n={n}"):
            from_edge_list([], n)

    def test_round_trip_with_to_edge_list(self):
        g = from_edge_list([(0, 1), (2, 0), (1, 2)], 3)
        again = from_edge_list(to_edge_list(g), 3)
        assert neighbors(again) == neighbors(g)


class TestCyclePower:
    def test_radius_one_neighbors(self):
        g = cycle_power(5, 1)
        assert neighbors(g)[0] == (0, 1, 4)
        assert neighbors(g)[2] == (1, 2, 3)

    def test_radius_two_wraps(self):
        g = cycle_power(7, 2)
        assert neighbors(g)[0] == (0, 1, 2, 5, 6)

    def test_all_degrees_equal(self):
        g = cycle_power(120, 3)
        assert g.degrees.max() == 7
        assert np.all(g.degrees == 7)

    def test_radius_zero_is_self_only(self):
        g = cycle_power(4, 0)
        assert all(neighbors(g)[i] == (i,) for i in range(4))

    def test_too_large_radius_rejected(self):
        with pytest.raises(GeometryError):
            cycle_power(6, 3)
        with pytest.raises(GeometryError):
            cycle_power(5, -1)


def dense_sbm_sample(n, num_blocks, pi_in, pi_out, seed):
    """sbm_sample drawing every upper-triangle pair in one call, over the
    full O(n^2) triu_indices arrays."""
    block = np.repeat(np.arange(num_blocks), n // num_blocks)
    rng = np.random.default_rng(seed)
    iu, ju = np.triu_indices(n, k=1)
    prob = np.where(block[iu] == block[ju], pi_in, pi_out)
    keep = rng.random(iu.size) < prob
    edges = [(int(i), int(j)) for i, j in zip(iu[keep], ju[keep])]
    return from_edge_list(edges + [(j, i) for i, j in edges], n)


class TestSbmSample:
    @pytest.mark.parametrize(
        "args",
        [
            (1, 1, 0.5, 0.5, 0),
            (12, 3, 1.0, 0.0, 0),
            (30, 3, 0.5, 0.2, 9),
            (40, 40, 0.3, 0.3, 2),
            (50, 5, 0.0, 1.0, 1),
            (60, 4, 1.0, 1.0, 3),
            (45, 9, 0.0, 0.0, 4),
            (1000, 20, 0.05, 0.001, 7),
        ],
    )
    @pytest.mark.parametrize("budget", [None, 1, 50])
    def test_matches_dense_sampler(self, monkeypatch, args, budget):
        # streamed blocks of rows draw the same random stream in the same
        # pair order, so every seed gives the same graph; 1000 units span
        # eight blocks at the library's budget
        if budget is not None:
            monkeypatch.setattr("pinvtte.graph._PAIRS", budget)
        assert neighbors(sbm_sample(*args)) == neighbors(dense_sbm_sample(*args))

    @pytest.mark.parametrize(
        "pi_in, pi_out, message",
        [
            (1.5, 0.0, "pi_in=1.5 is not a probability"),
            (0.5, -0.1, "pi_out=-0.1 is not a probability"),
            (math.nan, 0.0, "pi_in=nan is not a probability"),
        ],
    )
    def test_probabilities_checked(self, pi_in, pi_out, message):
        with pytest.raises(InputError, match=message):
            sbm_sample(12, 3, pi_in, pi_out, 0)

    def test_scratch_memory_is_bounded(self):
        # about 2M candidate pairs, 15,818 kept: only kept pairs are mapped to
        # (i, j), so scratch is a block of _PAIRS draws beside the graph
        assert traced_peak(lambda: sbm_sample(2000, 20, 0.05, 0.001, 0)) <= 6e6

    def test_no_cross_block_edges_when_pi_out_zero(self):
        g = sbm_sample(40, 4, 0.7, 0.0, seed=2)
        block = lambda i: i // 10
        for i in range(40):
            assert all(block(j) == block(i) for j in neighbors(g)[i])

    def test_full_blocks_when_pi_in_one(self):
        g = sbm_sample(12, 3, 1.0, 0.0, seed=0)
        for i in range(12):
            lo = (i // 4) * 4
            assert neighbors(g)[i] == tuple(range(lo, lo + 4))

    def test_symmetry(self):
        g = sbm_sample(30, 3, 0.5, 0.2, seed=5)
        for i in range(30):
            for j in neighbors(g)[i]:
                assert i in neighbors(g)[j]

    def test_seed_determinism(self):
        a = sbm_sample(30, 3, 0.5, 0.2, seed=9)
        b = sbm_sample(30, 3, 0.5, 0.2, seed=9)
        assert neighbors(a) == neighbors(b)
        c = sbm_sample(30, 3, 0.5, 0.2, seed=10)
        assert neighbors(c) != neighbors(a)

    def test_block_count_must_divide(self):
        with pytest.raises(GeometryError):
            sbm_sample(10, 3, 0.5, 0.0, seed=0)

    def test_rejects_negative_seed(self):
        with pytest.raises(InputError, match="seed must be nonnegative, got -2"):
            sbm_sample(40, 4, 0.3, 0.0, seed=-2)


class TestEdgeListFiles:
    def test_round_trip(self, tmp_path, rng):
        g = random_graph(rng, 17)
        path = tmp_path / "g.tsv"
        save_edge_list(g, str(path))
        back = load_edge_list(str(path))
        assert neighbors(back) == neighbors(g)

    def test_missing_header(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("0\t1\n")
        with pytest.raises(InputError, match="line 1"):
            load_edge_list(str(path))

    def test_bad_endpoint_line_number(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("n=3\n0\t1\n0\tx\n")
        with pytest.raises(InputError, match="line 3"):
            load_edge_list(str(path))

    def test_out_of_range_line_number(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("n=2\n# a comment\n0\t5\n")
        with pytest.raises(InputError, match="line 3"):
            load_edge_list(str(path))

    def test_comments_and_blanks_ignored(self, tmp_path):
        path = tmp_path / "g.tsv"
        path.write_text("n=2\n# comment\n\n0\t1\n")
        g = load_edge_list(str(path))
        assert neighbors(g)[1] == (0, 1)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 20))
def test_edge_list_round_trip_property(tmp_path_factory, seed, n):
    g = random_graph(np.random.default_rng(seed), n)
    path = tmp_path_factory.mktemp("rt") / "g.tsv"
    save_edge_list(g, str(path))
    assert neighbors(load_edge_list(str(path))) == neighbors(g)


class TestCsrArrays:
    @pytest.mark.parametrize(
        "rows",
        [
            [(0,), (0,)],
            [(0, 0), (1,)],
            [(1, 0), (1,)],
            [(0, 2), (1,)],
            [(0, -1), (1,)],
            [(0,), (1,), (0, 1, 1, 2)],
            [(0, 5), (0,)],
            [(0,), (0, 1, 3), (0, 2)],
            [(1,), (0, 1)],
        ],
    )
    def test_bad_rows_raise_as_oracle(self, rows):
        with pytest.raises(InputError) as want:
            oracle_graph_check(len(rows), rows)
        with pytest.raises(InputError) as got:
            csr_graph(rows)
        assert str(got.value) == str(want.value)

    def test_indptr_must_delimit_indices(self):
        with pytest.raises(InputError, match="at least one unit"):
            InterferenceGraph(np.array([0]), np.array([], dtype=np.int64))
        for indptr in ([0, 2, 1], [1, 1, 2], [0, 1, 3]):
            with pytest.raises(InputError, match="indptr"):
                InterferenceGraph(np.array(indptr), np.array([0, 1]))

    def test_non_integer_arrays_rejected(self):
        # 1.5, 0.2 and 1.9 are not positions or units: nothing truncates them
        with pytest.raises(InputError, match="indptr must hold integers, got float64"):
            InterferenceGraph(np.array([0, 1.5, 2]), np.array([0, 1]))
        with pytest.raises(InputError, match="indices must hold integers, got float64"):
            InterferenceGraph(np.array([0, 1, 2]), np.array([0.2, 1.9]))
        with pytest.raises(InputError, match="indptr must hold integers"):
            InterferenceGraph(np.array([0, 1.5, 2]), np.array([0.2, 1.9]))

    def test_random_graphs_keep_their_rows(self, rng):
        for _ in range(20):
            n = int(rng.integers(1, 15))
            g = random_graph(rng, n)
            again = csr_graph(neighbors(g))
            assert again == g and neighbors(again) == neighbors(g)
            assert np.array_equal(g.degrees, [len(r) for r in neighbors(g)])
            assert to_edge_list(g) == [
                (j, i) for i, row in enumerate(neighbors(g)) for j in row if j != i
            ]

    def test_read_only_arrays_and_value_equality(self):
        g = cycle_power(9, 2)
        assert g.indptr.dtype == g.indices.dtype == np.int64
        assert not g.indptr.flags.writeable and not g.indices.flags.writeable
        with pytest.raises(ValueError):
            g.indices[0] = 3
        assert g == cycle_power(9, 2) and g != cycle_power(9, 1) and g != "graph"
        assert from_edge_list(to_edge_list(g), 9) == g

    @pytest.mark.parametrize("dtype", [np.int64, np.int32])
    def test_unique_matches_numpy(self, rng, dtype):
        cases = [np.array([], dtype=dtype), np.array([7], dtype=dtype), np.full(9, -3, dtype=dtype)]
        for size in (2, 17, 1000):
            cases.append(rng.integers(-50, 50, size=size).astype(dtype))
            cases.append(rng.integers(-(2**30), 2**30, size=size).astype(dtype))
        cases.append(rng.integers(0, 5, size=(4, 6)).astype(dtype))
        for keys in cases:
            got, want = _unique(keys), np.unique(keys)
            assert got.dtype == want.dtype and np.array_equal(got, want)
