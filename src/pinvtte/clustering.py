"""Partitions of the unit set into treatment clusters.

Cluster ids are canonicalized so that relabeled copies of the same partition
compare equal as arrays: ids are assigned in order of each cluster's
smallest member. `Clustering.from_labels` performs that relabeling; the bare
constructor only validates, so tests can build explicit labelings.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TextIO

import numpy as np

from .errors import GeometryError, InputError
from .graph import InterferenceGraph, _csr, _frozen, _read_lines, _unique, _write_lines

__all__ = [
    "Clustering",
    "ClusterStats",
    "singleton_clustering",
    "contiguous_cycle_clusters",
    "louvain",
    "modularity",
    "cluster_stats",
    "load_clustering",
    "save_clustering",
]


@dataclass(frozen=True, eq=False)
class Clustering:
    """A partition of units 0..n-1 into m non-empty clusters labeled 0..m-1:
    a read-only int64 array, m its largest label + 1, equal when arrays are."""

    assignment: np.ndarray
    m: int = field(init=False)

    def __post_init__(self) -> None:
        try:
            a = np.array(self.assignment)
        except ValueError as exc:  # a ragged nested sequence
            raise InputError(f"expected one integer cluster id per unit: {exc}") from None
        if a.size == 0:
            raise InputError("clustering over zero units")
        if a.ndim != 1 or a.dtype.kind not in "iu":
            raise InputError(f"expected one integer cluster id per unit, got {a.dtype} {a.shape}")
        if a.min() < 0 or a.max() >= a.size:
            raise InputError(f"cluster ids {a.min()}..{a.max()} outside [0, {a.size})")
        a = _frozen(a, np.int64)
        sizes = np.bincount(a)
        if not sizes.all():
            raise InputError(f"empty cluster ids {np.flatnonzero(sizes == 0).tolist()}")
        object.__setattr__(self, "assignment", a)
        object.__setattr__(self, "m", sizes.size)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Clustering):
            return NotImplemented
        return self is other or np.array_equal(self.assignment, other.assignment)

    def __hash__(self) -> int:
        return hash(self.assignment.tobytes())

    @property
    def n(self) -> int:
        return self.assignment.size

    @classmethod
    def from_labels(cls, labels) -> "Clustering":
        """Build from arbitrary hashable labels, relabeling ids to [0, m)
        in order of each cluster's smallest member."""
        relabel: dict = {}
        return cls([relabel.setdefault(lab, len(relabel)) for lab in labels])

    def sizes(self) -> np.ndarray:
        return np.bincount(self.assignment)


@dataclass(frozen=True, eq=False)
class ClusterStats:
    """Per-unit cluster neighborhoods of graph under clustering, the lift
    that only cluster_stats builds and cluster_aggregate keys models on, and
    the summaries that estimator weights, bias and bounds consume.

    The cluster neighborhood of unit i, the sorted distinct ids of the
    clusters touching N_i, is cluster_ids[indptr[i]:indptr[i + 1]], never
    empty since i is in N_i. C_max is the largest such neighborhood, N_max
    the largest cluster, and full_contact_count the number of units whose
    cluster neighborhood is every cluster (the units that make a completely
    randomized design singular).
    """

    graph: InterferenceGraph
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


def _same_lift(c: Clustering, stats: ClusterStats) -> None:
    """Raise InputError unless stats was lifted on the design's clustering c."""
    if stats.clustering != c:
        raise InputError("the lift and the design must agree on the clustering")


def singleton_clustering(n: int) -> Clustering:
    """Every unit its own cluster; cluster randomization degenerates to
    unit-level randomization."""
    return Clustering(np.arange(n))


def contiguous_cycle_clusters(n: int, w: int) -> Clustering:
    """Split cycle-ordered units into n/w contiguous blocks of width w.

    Raises
    ------
    GeometryError
        If w does not divide n.
    """
    if w <= 0 or n % w != 0:
        raise GeometryError(f"cluster width w={w} must be positive and divide n={n}")
    return Clustering(np.arange(n) // w)


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
    """Lift g to the clusters of c, for weights, exact bias and bounds: the
    cluster neighborhoods as CSR arrays, with their summaries."""
    if c.n != g.n:
        raise InputError(f"clustering over {c.n} units but graph has {g.n}")
    units = np.repeat(np.arange(g.n, dtype=np.int64), g.degrees)
    keys = _unique(units * c.m + c.assignment[g.indices])
    indptr, ids = _csr(keys, g.n, c.m)
    sizes = np.diff(indptr)
    return ClusterStats(
        graph=g,
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
# reproducibility of downstream CSV outputs. Each level is a symmetric CSR
# graph (indptr, nbr, wts) plus per-node strengths k. Every weight is a
# whole number, so every sum is exact in any order and the partition does
# not depend on how a level's arrays are laid out.


def _symmetrized(g: InterferenceGraph) -> tuple[np.ndarray, np.ndarray]:
    """CSR arrays (indptr, nbr) of the undirected graph behind g, with the
    interference self-loops dropped: they carry no community information."""
    units = np.repeat(np.arange(g.n, dtype=np.int64), g.degrees)
    off = g.indices != units
    i, j = units[off], g.indices[off]
    return _csr(_unique(np.concatenate([i * g.n + j, j * g.n + i])), g.n, g.n)


def _check_resolution(resolution: float) -> None:
    if not 0 < resolution < np.inf:
        raise InputError(f"resolution must be positive and finite, got {resolution}")


def modularity(g: InterferenceGraph, c: Clustering, resolution: float = 1.0) -> float:
    """Newman modularity of the partition on the symmetrized graph, with
    self-loops ignored and a resolution multiplier on the null-model term."""
    _check_resolution(resolution)
    if c.n != g.n:
        raise InputError(f"clustering over {c.n} units but graph has {g.n}")
    indptr, nbr = _symmetrized(g)
    k = np.diff(indptr).astype(np.float64)
    two_w = k.sum()
    if two_w == 0:
        return 0.0
    intra = np.count_nonzero(np.repeat(c.assignment, np.diff(indptr)) == c.assignment[nbr])
    tot = np.bincount(c.assignment, weights=k, minlength=c.m)
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
    _check_resolution(resolution)
    if seed < 0:
        raise InputError(f"seed must be nonnegative, got {seed}")
    indptr, nbr = _symmetrized(g)
    two_w = float(nbr.size)  # twice the total weight, the same at every level
    if two_w == 0:
        return singleton_clustering(g.n)
    wts = np.ones(nbr.size)
    k = np.diff(indptr).astype(np.float64).tolist()
    mapping = np.arange(g.n)  # original unit -> current level node
    rng = np.random.default_rng(seed) if seed != 0 else None

    while True:
        nn = len(k)
        bounds, flat, flat_w = indptr.tolist(), nbr.tolist(), wts.tolist()
        adj = [list(zip(flat[a:b], flat_w[a:b])) for a, b in zip(bounds[:-1], bounds[1:])]
        com = list(range(nn))
        tot = k[:]
        links = [0.0] * nn  # the visited node's link weight into each community
        while True:
            moved = False
            order = list(range(nn))
            if rng is not None:
                rng.shuffle(order)
            for v in order:
                cv, kv = com[v], k[v]
                tot[cv] -= kv
                touched = []
                for u, wt in adj[v]:
                    cu = com[u]
                    if not links[cu]:
                        touched.append(cu)
                    links[cu] += wt
                # Gain of joining community c, up to a shared affine shift:
                # links into c minus the resolution-weighted degree product,
                # grouped as (resolution * k_v) * tot_c / 2w: other groupings
                # round differently. cv's own gain never beats best_gain.
                rk = resolution * kv
                best_c = cv
                best_gain = links[cv] - rk * tot[cv] / two_w
                touched.sort()
                for cu in touched:
                    gain = links[cu] - rk * tot[cu] / two_w
                    if gain > best_gain + 1e-12:
                        best_c, best_gain = cu, gain
                    links[cu] = 0.0
                com[v] = best_c
                tot[best_c] += kv
                if best_c != cv:
                    moved = True
            if not moved:
                break
        # A node only joins a community holding a neighbor, so the level
        # shrinks exactly when some node moved.
        labels, com = np.unique(com, return_inverse=True)
        if labels.size == nn:
            break
        # Supernodes for the next level: links between two communities sum
        # per pair, links inside one drop out, and tot carries the strengths.
        k = [tot[c] for c in labels.tolist()]
        cv, cu = com[np.repeat(np.arange(nn), np.diff(indptr))], com[nbr]
        cross = cv != cu
        keys, pair = np.unique(cv[cross] * len(k) + cu[cross], return_inverse=True)
        wts = np.bincount(pair, weights=wts[cross], minlength=keys.size)
        indptr, nbr = _csr(keys, len(k), len(k))
        mapping = com[mapping]
    return Clustering.from_labels(mapping.tolist())


# ---------------------------------------------------------------------------
# text round-trip: one "unit<TAB>label" line per unit
# ---------------------------------------------------------------------------


def save_clustering(c: Clustering, out: str | TextIO) -> None:
    """Write the clustering to a path, or to an open text stream."""
    _write_lines((f"{unit}\t{lab}\n" for unit, lab in enumerate(c.assignment.tolist())), out)


def load_clustering(path: str, n: int | None = None) -> Clustering:
    """Read a clustering saved by save_clustering.

    Every unit must appear exactly once; labels may be arbitrary integers and
    are compacted to [0, m) by smallest member. Duplicate units raise
    InputError with the 1-based line number.
    """
    seen: dict[int, int] = {}
    for where, raw in _read_lines(path):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise InputError(f"{where}: expected 'unit<TAB>label'")
        try:
            unit, lab = int(parts[0]), int(parts[1])
        except ValueError:
            raise InputError(f"{where}: non-integer field")
        if unit in seen:
            raise InputError(f"{where}: duplicate unit {unit}")
        seen[unit] = lab
    count = n if n is not None else len(seen)
    if sorted(seen) != list(range(count)):
        raise InputError(f"{path}: units do not cover 0..{count - 1} exactly once")
    return Clustering.from_labels(seen[u] for u in range(count))
