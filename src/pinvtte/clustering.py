"""Partitions of the unit set into treatment clusters.

Cluster ids are canonicalized so that relabeled copies of the same partition
compare equal as plain vectors: ids are assigned in order of each cluster's
smallest member. `Clustering.from_labels` performs that relabeling; the bare
constructor only validates, so tests can build explicit labelings.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TextIO

import numpy as np

from .errors import GeometryError, InputError
from .graph import InterferenceGraph, _write_lines

__all__ = [
    "Clustering",
    "ClusterStats",
    "singleton_clustering",
    "contiguous_cycle_clusters",
    "louvain",
    "modularity",
    "cluster_neighborhoods",
    "cluster_stats",
    "load_clustering",
    "save_clustering",
]


@dataclass(frozen=True)
class Clustering:
    """A partition of units 0..n-1 into m non-empty clusters labeled 0..m-1."""

    assignment: tuple[int, ...]
    m: int

    def __post_init__(self) -> None:
        n = len(self.assignment)
        if n == 0:
            raise InputError("clustering over zero units")
        seen = set(self.assignment)
        if any(c < 0 or c >= self.m for c in seen):
            raise InputError(f"cluster id outside [0, {self.m})")
        if len(seen) != self.m:
            missing = sorted(set(range(self.m)) - seen)
            raise InputError(f"empty cluster ids {missing}")

    @property
    def n(self) -> int:
        return len(self.assignment)

    @classmethod
    def from_labels(cls, labels) -> "Clustering":
        """Build from arbitrary hashable labels, relabeling ids to [0, m)
        in order of each cluster's smallest member."""
        labels = list(labels)
        relabel: dict = {}
        for lab in labels:
            if lab not in relabel:
                relabel[lab] = len(relabel)
        return cls(tuple(relabel[lab] for lab in labels), len(relabel))

    def members(self) -> list[np.ndarray]:
        """Unit ids in each cluster, index by cluster id."""
        arr = np.asarray(self.assignment)
        return [np.flatnonzero(arr == c) for c in range(self.m)]

    def sizes(self) -> np.ndarray:
        return np.bincount(np.asarray(self.assignment), minlength=self.m)


@dataclass(frozen=True, eq=False)
class ClusterStats:
    """Per-unit cluster neighborhoods under clustering and the graph-level
    summaries that estimator weights, bias and bounds consume.

    The cluster neighborhood of unit i, the sorted distinct ids of the
    clusters touching N_i, is cluster_ids[indptr[i]:indptr[i + 1]] (the CSR
    arrays of cluster_neighborhoods). C_max is the largest such
    neighborhood, N_max the largest cluster, and full_contact_count the
    number of units whose cluster neighborhood is every cluster (the units
    that make a completely randomized design singular).
    """

    clustering: Clustering
    indptr: np.ndarray
    cluster_ids: np.ndarray
    C_max: int
    N_max: int
    full_contact_count: int

    @property
    def n(self) -> int:
        return self.indptr.size - 1

    @property
    def m(self) -> int:
        return self.clustering.m


def _same_clustering(c: Clustering, *lifted) -> None:
    """Raise InputError unless each lifted input was built from c."""
    for x in lifted:
        if x.clustering != c:
            raise InputError(f"{type(x).__name__} and design must agree on the clustering")


def singleton_clustering(n: int) -> Clustering:
    """Every unit its own cluster; cluster randomization degenerates to
    unit-level randomization."""
    return Clustering(tuple(range(n)), n)


def contiguous_cycle_clusters(n: int, w: int) -> Clustering:
    """Split cycle-ordered units into n/w contiguous blocks of width w.

    Raises
    ------
    GeometryError
        If w does not divide n.
    """
    if w <= 0 or n % w != 0:
        raise GeometryError(f"cluster width w={w} must be positive and divide n={n}")
    return Clustering(tuple(i // w for i in range(n)), n // w)


def cluster_neighborhoods(
    g: InterferenceGraph, c: Clustering
) -> tuple[np.ndarray, np.ndarray]:
    """Cluster neighborhoods as CSR arrays (indptr, cluster_ids): the sorted
    distinct ids of the clusters touching N_i are
    cluster_ids[indptr[i]:indptr[i + 1]], never empty since i is in N_i."""
    if c.n != g.n:
        raise InputError(f"clustering over {c.n} units but graph has {g.n}")
    units = np.repeat(np.arange(g.n, dtype=np.int64), g.degrees)
    keys = np.unique(units * c.m + np.asarray(c.assignment, dtype=np.int64)[g.indices])
    indptr = np.zeros(g.n + 1, dtype=np.int64)
    np.cumsum(np.bincount(keys // c.m, minlength=g.n), out=indptr[1:])
    return indptr, keys % c.m


def _size_rows(sizes: np.ndarray, row) -> tuple[np.ndarray, np.ndarray]:
    """The rows row(c, unit), one per distinct size c in sizes, concatenated
    into values, and each unit's offset base into them: unit i's row starts
    at values[base[i]]. Rows are built in order of first appearance, each
    with the lowest unit of its size, so an error raised while building one
    names that unit."""
    cs, first, inverse = np.unique(sizes, return_index=True, return_inverse=True)
    rows = [np.empty(0)] * cs.size
    for j in np.argsort(first):
        rows[j] = np.asarray(row(int(cs[j]), int(first[j])), dtype=np.float64)
    starts = np.cumsum([0] + [len(r) for r in rows[:-1]])
    return np.concatenate(rows), starts[inverse]


def cluster_stats(g: InterferenceGraph, c: Clustering) -> ClusterStats:
    """Lift g to the clusters of c, for weights, exact bias and bounds."""
    indptr, ids = cluster_neighborhoods(g, c)
    sizes = np.diff(indptr)
    return ClusterStats(
        clustering=c,
        indptr=indptr,
        cluster_ids=ids,
        C_max=int(sizes.max()),
        N_max=int(c.sizes().max()),
        full_contact_count=int(np.count_nonzero(sizes == c.m)),
    )


# ---------------------------------------------------------------------------
# Louvain community detection
# ---------------------------------------------------------------------------
#
# Hand-rolled so iteration order is pinned: nodes are visited in ascending
# index order, with a seeded shuffle applied only when seed != 0. Library
# implementations leave that order unspecified, which breaks byte-for-byte
# reproducibility of downstream CSV outputs.


def _symmetric_adjacency(g: InterferenceGraph) -> list[dict[int, float]]:
    # Interference self-loops carry no community information; drop them.
    # Row by row, so the key i stored by every entry of row i is one int
    # object; fewer distinct key objects make Louvain's visits faster.
    adj: list[dict[int, float]] = [dict() for _ in range(g.n)]
    bounds, flat = g.indptr.tolist(), g.indices.tolist()
    for i in range(g.n):
        for j in flat[bounds[i] : bounds[i + 1]]:
            if j != i:
                adj[i][j] = 1.0
                adj[j][i] = 1.0
    return adj


def modularity(g: InterferenceGraph, c: Clustering, resolution: float = 1.0) -> float:
    """Newman modularity of the partition on the symmetrized graph, with
    self-loops ignored and a resolution multiplier on the null-model term."""
    adj = _symmetric_adjacency(g)
    k = np.array([sum(d.values()) for d in adj])
    two_w = k.sum()
    if two_w == 0:
        return 0.0
    assign = c.assignment
    intra = 0.0
    for i in range(g.n):
        for j, wt in adj[i].items():
            if assign[i] == assign[j]:
                intra += wt
    tot = np.zeros(c.m)
    np.add.at(tot, np.asarray(assign), k)
    return intra / two_w - resolution * float(np.sum((tot / two_w) ** 2))


def louvain(g: InterferenceGraph, resolution: float = 1.0, seed: int = 0) -> Clustering:
    """Deterministic Louvain partition of the symmetrized graph.

    Runs the usual two-phase scheme (greedy local moves, then community
    aggregation) until modularity stops improving. Nodes are scanned in
    ascending order; passing seed != 0 shuffles the scan order once per
    sweep with numpy's default_rng(seed). Ties never move a node, and
    candidate communities are scanned in ascending id order, so the output
    is a pure function of (graph, resolution, seed).

    Isolated units (no symmetric edges) stay in their own clusters.
    """
    if resolution <= 0:
        raise InputError(f"resolution must be positive, got {resolution}")
    level_adj = _symmetric_adjacency(g)
    self_w = [0.0] * g.n
    mapping = list(range(g.n))  # original unit -> current level node
    rng = np.random.default_rng(seed) if seed != 0 else None

    while True:
        nn = len(level_adj)
        total_w = sum(sum(d.values()) for d in level_adj) / 2.0 + sum(self_w)
        if total_w == 0:
            break
        k = [sum(level_adj[v].values()) + 2.0 * self_w[v] for v in range(nn)]
        com = list(range(nn))
        tot = k[:]
        improved = False
        while True:
            moved = False
            order = list(range(nn))
            if rng is not None:
                rng.shuffle(order)
            for v in order:
                cv = com[v]
                tot[cv] -= k[v]
                neigh: dict[int, float] = {}
                for u, wt in level_adj[v].items():
                    cu = com[u]
                    neigh[cu] = neigh.get(cu, 0.0) + wt
                # Gain of joining community c, up to a shared affine shift:
                # links into c minus the resolution-weighted degree product.
                best_c = cv
                best_gain = neigh.get(cv, 0.0) - resolution * k[v] * tot[cv] / (
                    2.0 * total_w
                )
                for cu in sorted(neigh):
                    if cu == cv:
                        continue
                    gain = neigh[cu] - resolution * k[v] * tot[cu] / (2.0 * total_w)
                    if gain > best_gain + 1e-12:
                        best_c, best_gain = cu, gain
                com[v] = best_c
                tot[best_c] += k[v]
                if best_c != cv:
                    moved = True
                    improved = True
            if not moved:
                break
        if not improved:
            break
        # Aggregate communities into supernodes for the next level.
        labels = sorted(set(com))
        relabel = {lab: idx for idx, lab in enumerate(labels)}
        com = [relabel[x] for x in com]
        nc = len(labels)
        new_adj: list[dict[int, float]] = [dict() for _ in range(nc)]
        new_self = [0.0] * nc
        for v in range(nn):
            cv = com[v]
            new_self[cv] += self_w[v]
            for u, wt in level_adj[v].items():
                cu = com[u]
                if cu == cv:
                    if u > v:
                        new_self[cv] += wt
                else:
                    new_adj[cv][cu] = new_adj[cv].get(cu, 0.0) + wt
        mapping = [com[x] for x in mapping]
        level_adj = new_adj
        self_w = new_self
        if nc == nn:
            break
    return Clustering.from_labels(mapping)


# ---------------------------------------------------------------------------
# text round-trip: one "unit<TAB>label" line per unit
# ---------------------------------------------------------------------------


def save_clustering(c: Clustering, out: str | TextIO) -> None:
    """Write the clustering to a path, or to an open text stream."""
    _write_lines((f"{unit}\t{lab}\n" for unit, lab in enumerate(c.assignment)), out)


def load_clustering(path: str, n: int | None = None) -> Clustering:
    """Read a clustering saved by save_clustering.

    Every unit must appear exactly once; labels may be arbitrary integers and
    are compacted to [0, m) by smallest member. Duplicate units raise
    InputError with the 1-based line number.
    """
    seen: dict[int, int] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise InputError(f"line {lineno}: expected 'unit<TAB>label'")
            try:
                unit, lab = int(parts[0]), int(parts[1])
            except ValueError:
                raise InputError(f"line {lineno}: non-integer field")
            if unit in seen:
                raise InputError(f"line {lineno}: duplicate unit {unit}")
            seen[unit] = lab
    count = n if n is not None else len(seen)
    if sorted(seen) != list(range(count)):
        raise InputError(f"units do not cover 0..{count - 1} exactly once")
    return Clustering.from_labels(seen[u] for u in range(count))
