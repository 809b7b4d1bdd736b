"""Partitions of the unit set into treatment clusters.

Cluster ids are canonicalized so that relabeled copies of the same partition
compare equal as arrays: ids are assigned in order of each cluster's
smallest member. `Clustering.from_labels` performs that relabeling; the bare
constructor only validates, so tests can build explicit labelings.
"""

from __future__ import annotations

import copy
from array import array
from dataclasses import dataclass, field
from typing import NamedTuple, TextIO

import numpy as np

from .errors import GeometryError, InputError
from .graph import InterferenceGraph, _csr, _frozen, _read_lines, _unique, _write_lines

__all__ = [
    "Clustering",
    "ClusterStats",
    "singleton_clustering",
    "contiguous_cycle_clusters",
    "louvain",
    "louvain_grid",
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
        a = _frozen(a, np.int64, "assignment")
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
#
# A visit skips a node whose decision it can prove unchanged, the same
# partition for less work. A visit that leaves v in place records a
# certificate: the computed lead of v's own gain over every other candidate,
# the move rule's 1e-12 included, less a rounding slack. A later visit
# skips v while no neighbor of v has moved since (v's links and candidates
# are then the same) and the strength the run has moved since, S, keeps
# 2 hi k_v S / 2w below that lead, hi being the run's highest resolution.
# The skip changes nothing: a move of k_x takes k_x from one tot entry and
# adds it to another, so it shifts any difference of two exact gains by at
# most 2 hi k_v k_x / 2w, and the slack covers the rounding of both visits'
# gains. So the skipped visit would have kept v in place, and a stay leaves
# com and tot as they were: it adds back exactly the k_v it took out.
# A node with no other candidate skips until a neighbor moves. A group run
# certifies only the stays its endpoint shortcut proves (see _sweep).
# Certificates and S start fresh at each level, and each fork takes a copy.


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
    return louvain_grid(g, [resolution], seed)[0]


def louvain_grid(g: InterferenceGraph, resolutions, seed: int = 0) -> list[Clustering]:
    """[louvain(g, r, seed) for r in resolutions], from one shared pass.

    Runs at different resolutions make the same moves until some visit's
    decision differs between them. So one run carries a group of
    resolutions (sorted, repeats merged) and, at the first visit where
    their decisions differ, forks into one run per decision. Each fork
    takes its own copy of the communities and of the shuffle generator and
    resumes at the next visit, so every partition is the one a lone run at
    its resolution returns. Every resolution and the seed are checked
    before any work.
    """
    resolutions = list(resolutions)
    for resolution in resolutions:
        _check_resolution(resolution)
    if seed < 0:
        raise InputError(f"seed must be nonnegative, got {seed}")
    if not resolutions:
        return []
    indptr, nbr = _symmetrized(g)
    two_w = float(nbr.size)  # twice the total weight, the same at every level
    if two_w == 0:
        return [singleton_clustering(g.n)] * len(resolutions)
    level = _level(indptr, nbr, np.ones(nbr.size), np.diff(indptr).astype(np.float64).tolist())
    links = [0.0] * g.n  # the visited node's link weight into each community
    rng = np.random.default_rng(seed) if seed != 0 else None
    runs = [(sorted(set(resolutions)), level, np.arange(g.n), rng, _fresh(level))]
    found = {}
    while runs:
        group, level, mapping, rng, state = runs.pop()
        mapping, forks = _run(group, level, mapping, rng, state, two_w, links)
        runs += forks
        if mapping is not None:
            c = Clustering.from_labels(mapping.tolist())
            found.update(dict.fromkeys(group, c))
    return [found[resolution] for resolution in resolutions]


class _Level(NamedTuple):
    """One level, shared by every run that reaches it: its CSR arrays, node
    strengths k, and each node's (neighbor, weight) list."""

    indptr: np.ndarray
    nbr: np.ndarray
    wts: np.ndarray
    k: list
    adj: list


def _level(indptr, nbr, wts, k) -> _Level:
    bounds, flat, flat_w = indptr.tolist(), nbr.tolist(), wts.tolist()
    adj = [list(zip(flat[a:b], flat_w[a:b])) for a, b in zip(bounds[:-1], bounds[1:])]
    return _Level(indptr, nbr, wts, k, adj)


def _fresh(level: _Level) -> tuple:
    """A level's run state before its first visit: (com, tot, limit, flow,
    order, next position, moved), each node its own community with no
    certificate, nothing moved and no order drawn yet. flow is the strength
    the level's moves have moved, S; a node is certified to stay while
    flow < limit[v]. limit is a flat array of doubles, so certificates keep
    no float objects alive and a fork copies them in one block."""
    nn = len(level.k)
    return list(range(nn)), level.k[:], array("d", bytes(8 * nn)), 0.0, None, 0, False


def _run(group, level, mapping, rng, state, two_w, links) -> tuple:
    """Continue one run from state to its end, returning (unit -> community
    map, []), or to its first fork, returning (None, the forked runs)."""
    com, tot, limit, flow, order, pos, moved = state
    while True:
        indptr, nbr, wts, k, adj = level
        nn = len(k)
        while True:
            if order is None:
                order = list(range(nn))
                if rng is not None:
                    rng.shuffle(order)
            state = com, tot, limit, flow, order, pos, moved
            pos, picks, moved, flow = _sweep(group, adj, k, two_w, links, state)
            if picks is not None:
                state = com, tot, limit, flow, order, pos, moved
                return None, _forks(group, picks, level, mapping, rng, state)
            if not moved:
                break
            order, pos, moved = None, 0, False
        # A node only joins a community holding a neighbor, so the level
        # shrinks exactly when some node moved.
        labels, com = np.unique(com, return_inverse=True)
        if labels.size == nn:
            return mapping, []
        # Supernodes for the next level: links between two communities sum
        # per pair, links inside one drop out, and tot carries the strengths.
        k = [tot[c] for c in labels.tolist()]
        cv, cu = com[np.repeat(np.arange(nn), np.diff(indptr))], com[nbr]
        cross = cv != cu
        keys, pair = np.unique(cv[cross] * len(k) + cu[cross], return_inverse=True)
        wts = np.bincount(pair, weights=wts[cross], minlength=keys.size)
        level = _level(*_csr(keys, len(k), len(k)), wts, k)
        mapping = com[mapping]
        com, tot, limit, flow, order, pos, moved = _fresh(level)


def _sweep(group, adj, k, two_w, links, state) -> tuple:
    """Local moves for every resolution of the sorted group at once, in
    place, from state's position while their decisions agree. Returns
    (position, picks, moved, flow): position len(order) and picks None at
    the sweep's end, or the visit where decisions first differ, with one
    pick per resolution and that visit not yet applied; moved is whether
    any node of this sweep moved, the visits before the position included,
    and flow the strength moved at this level so far."""
    com, tot, limit, flow, order, pos, moved = state
    lo, hi, lone = group[0], group[-1], len(group) == 1
    for i in range(pos, len(order)):
        v = order[i]
        if flow < limit[v]:
            continue  # certified to stay
        cv, kv = com[v], k[v]
        tot[cv] -= kv
        touched = []
        for u, wt in adj[v]:
            cu = com[u]
            if not links[cu]:
                touched.append(cu)
            links[cu] += wt
        touched.sort()
        # Gain of joining community c, up to a shared affine shift: links
        # into c minus the resolution-weighted degree product, grouped as
        # (resolution * k_v) * tot_c / 2w: other groupings round
        # differently. cv's own gain never beats best_gain.
        if lone:
            # runs left with one resolution after their forks make most
            # visits, so they scan inline, free of _pick's bookkeeping
            rk = lo * kv
            best_c = cv
            best_gain = links[cv] - rk * tot[cv] / two_w
            top = -np.inf  # the best other gain, read only if v stays
            for cu in touched:
                gain = links[cu] - rk * tot[cu] / two_w
                if gain > best_gain + 1e-12:
                    best_c, best_gain = cu, gain
                elif gain > top and cu != cv:
                    top = gain
                links[cu] = 0.0
            lead = best_gain - top
        else:
            # the scans at lo and hi, fused: _pick's expressions in its order
            rlo, rhi = lo * kv, hi * kv
            best_c = best_hi = cv
            gain_lo = links[cv] - rlo * tot[cv] / two_w
            gain_hi = links[cv] - rhi * tot[cv] / two_w
            top_lo = top_hi = -np.inf
            for cu in touched:
                if cu == cv:
                    continue
                gain = links[cu] - rlo * tot[cu] / two_w
                if gain > gain_lo + 1e-12:
                    best_c, gain_lo, gain = cu, gain, gain_lo
                if gain > top_lo:
                    top_lo = gain
                gain = links[cu] - rhi * tot[cu] / two_w
                if gain > gain_hi + 1e-12:
                    best_hi, gain_hi, gain = cu, gain, gain_hi
                if gain > top_hi:
                    top_hi = gain
            lead_lo, lead_hi = gain_lo - top_lo, gain_hi - top_hi
            # Endpoint shortcut. With links_c, k_v and tot_c whole numbers,
            # each exact gain links_c - r k_v tot_c / 2w is linear in r, and
            # so is each difference of two gains. If the scans at lo and hi
            # both pick c, and c's computed gain leads every other
            # candidate's by more than the slack at both ends, then at every
            # r between them c leads each other candidate by at least its
            # smaller end lead, and the scan at r picks c too. The slack is
            # the move rule's 1e-12 plus rounding: each computed gain is
            # within 5 ulps of the terms' magnitude, at most k_v (1 + hi)
            # since links_c <= k_v and tot_c <= 2w, so 2^-46 of it (128
            # ulps) covers the errors at both ends, at r, and in best +
            # 1e-12 several times over. Otherwise every resolution is
            # scanned.
            slack = 1e-12 + 2.0**-46 * kv * (1.0 + hi)
            picks = None
            if best_hi == best_c and lead_lo > slack and lead_hi > slack:
                lead = min(lead_lo, lead_hi)
            else:
                inner = [_pick(cv, touched, links, tot, r * kv, two_w)[0] for r in group[1:-1]]
                picks = [best_c, *inner, best_hi]
                lead = -np.inf  # only a stay the shortcut shows is certified
            for cu in touched:  # every run shares links
                links[cu] = 0.0
            if picks is not None and picks.count(best_c) != len(picks):
                return i, picks, moved, flow
        tot[best_c] += kv
        if best_c == cv:
            limit[v] = flow + _allowance(lead, kv, hi, two_w)
        else:
            com[v] = best_c
            flow += kv
            moved = True
            for u, _ in adj[v]:  # v's move changed their links
                limit[u] = 0.0
    return len(order), None, moved, flow


def _allowance(lead, kv, hi, two_w) -> float:
    """The strength the run may move before a node that stays must be
    scored again, given lead, the computed gain of the node's community
    minus the best other candidate's, at each resolution up to hi.

    The margin is lead plus the move rule's 1e-12, less the endpoint
    shortcut's slack, which covers the rounding of the gains at this visit
    and the next and of this bound. The node stays while 2 hi k_v S / 2w,
    the most that moving strength S shifts a gain difference, is below the
    margin. No lead (nan or -inf) allows nothing. Infinite lead (no other
    candidate) and k_v = 0 (no links) allow any strength, and the divisor is
    never 0 otherwise: 2 hi k_v >= 2 * 5e-324."""
    margin = lead + 1e-12 - 2.0**-46 * kv * (1.0 + hi)
    if not margin > 0.0:
        return 0.0
    if not kv:
        return np.inf
    return margin / (2.0 * hi * kv) * two_w


def _pick(cv, touched, links, tot, rk, two_w) -> tuple:
    """The inline scan's choice at rk = resolution * k_v, from the link
    counts into the node's own community cv and the touched communities
    (in ascending order), and how far the chosen gain leads every other."""
    best_c = cv
    best_gain = links[cv] - rk * tot[cv] / two_w
    runner_up = -np.inf
    for cu in touched:
        if cu == cv:
            continue
        gain = links[cu] - rk * tot[cu] / two_w
        if gain > best_gain + 1e-12:
            best_c, best_gain, gain = cu, gain, best_gain
        if gain > runner_up:
            runner_up = gain
    return best_c, best_gain - runner_up


def _forks(group, picks, level, mapping, rng, state) -> list:
    """One run per distinct pick at the visit order[pos]: each applies its
    pick to its own copy of com, tot and the certificates, takes a copy of
    the generator, and resumes at the next position."""
    com, tot, limit, flow, order, pos, moved = state
    v = order[pos]
    cv, kv = com[v], level.k[v]
    by_pick: dict[int, list] = {}
    for resolution, c in zip(group, picks):
        by_pick.setdefault(c, []).append(resolution)
    forks = []
    for c, sub in by_pick.items():
        com_c, tot_c, limit_c, flow_c = com[:], tot[:], limit[:], flow
        com_c[v] = c
        tot_c[c] += kv
        if c != cv:
            flow_c += kv
            for u, _ in level.adj[v]:
                limit_c[u] = 0.0
        state = (com_c, tot_c, limit_c, flow_c, order, pos + 1, moved or c != cv)
        forks.append((sub, level, mapping, copy.deepcopy(rng), state))
    return forks


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
