"""Shared instance factories for the test suite.

Randomized tests draw small instances from these helpers with explicit
numpy generators, so every test is reproducible from its own seed.
"""

from __future__ import annotations

import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from pinvtte import (
    ClusterAggregatedModel,
    Clustering,
    ClusterStats,
    Design,
    DesignMoments,
    InputError,
    InterferenceGraph,
    LowOrderModel,
    SubsetIndex,
    cluster_aggregate,
    cluster_stats,
    enumerate_support,
    joint_treat_prob,
    numeric_pinv,
    size_class_pinv,
    size_class_sums,
)


def traced_peak(fn) -> int:
    """Peak bytes allocated while fn() runs, as tracemalloc sees them; numpy's
    random generator is set up first, so its one-time tables do not count."""
    np.random.default_rng(0).random(1)
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def csr_graph(rows) -> InterferenceGraph:
    """The graph whose in-neighborhood N_i is the tuple rows[i]."""
    sizes = [len(row) for row in rows]
    indices = [j for row in rows for j in row]
    return InterferenceGraph(np.cumsum([0] + sizes), np.array(indices, dtype=np.int64))


def csr_rows(indptr: np.ndarray, values: np.ndarray) -> tuple[tuple[int, ...], ...]:
    """The rows of CSR arrays as one tuple per row."""
    bounds, flat = indptr.tolist(), values.tolist()
    return tuple(tuple(flat[a:b]) for a, b in zip(bounds[:-1], bounds[1:]))


def neighbors(g: InterferenceGraph) -> tuple[tuple[int, ...], ...]:
    """The in-neighborhoods of g as one sorted tuple per unit."""
    return csr_rows(g.indptr, g.indices)


def cluster_rows(stats: ClusterStats) -> tuple[tuple[int, ...], ...]:
    """The cluster neighborhoods of stats as one sorted tuple per unit."""
    return csr_rows(stats.indptr, stats.cluster_ids)


def random_graph(rng: np.random.Generator, n: int, extra_max: int = 3) -> InterferenceGraph:
    """Directed graph on n units; every unit keeps itself plus up to
    extra_max random in-neighbors."""
    nbrs = []
    for i in range(n):
        count = int(rng.integers(0, min(extra_max, n - 1) + 1))
        others = [j for j in range(n) if j != i]
        extra = rng.choice(others, size=count, replace=False) if count else []
        nbrs.append(tuple(sorted({i, *map(int, extra)})))
    return csr_graph(nbrs)


def random_clustering(rng: np.random.Generator, n: int, m: int) -> Clustering:
    """Surjective assignment of n units onto exactly m clusters."""
    labels = rng.integers(0, m, size=n)
    labels[rng.permutation(n)[:m]] = np.arange(m)
    return Clustering.from_labels(labels)


def random_coeffs(
    rng: np.random.Generator,
    g: InterferenceGraph,
    beta_star: int,
    keep: float = 0.6,
    nonnegative: bool = False,
    scale: float = 1.0,
) -> list[dict[tuple[int, ...], float]]:
    """Sparse coefficients on random neighborhood subsets up to beta_star,
    one dict per unit, the baseline first.

    Every unit keeps a baseline; each candidate subset survives with
    probability keep. nonnegative=True yields a monotone instance (all
    coefficients, baseline included, are >= 0).
    """
    coeffs = []
    for nbrs in neighbors(g):
        base = float(rng.normal(0.0, 0.4)) * scale
        cmap = {(): abs(base) if nonnegative else base}
        for size in range(1, beta_star + 1):
            for S in itertools.combinations(nbrs, size):
                if rng.random() < keep:
                    val = float(rng.normal(0.0, 1.0)) * scale
                    cmap[S] = abs(val) if nonnegative else val
        coeffs.append(cmap)
    return coeffs


def random_model(
    rng: np.random.Generator, g: InterferenceGraph, beta_star: int, **kwargs
) -> LowOrderModel:
    """The model of random_coeffs(rng, g, beta_star, **kwargs)."""
    return LowOrderModel.from_dicts(beta_star, random_coeffs(rng, g, beta_star, **kwargs))


def ensure_tail(
    rng: np.random.Generator, model: LowOrderModel, g: InterferenceGraph, beta: int
) -> LowOrderModel:
    """Guarantee at least one coefficient of order > beta (a genuinely
    misspecified instance); adds one if the random draw left none."""
    if any(len(s) > beta for cmap in model.coeffs for s in cmap):
        return model
    for nbrs, i in zip(neighbors(g), range(g.n)):
        if len(nbrs) > beta:
            cmap = dict(model.coeffs[i])
            cmap[tuple(nbrs[: beta + 1])] = float(rng.normal(0.0, 1.0))
            coeffs = list(model.coeffs)
            coeffs[i] = cmap
            return LowOrderModel.from_dicts(
                beta_star=max(model.beta_star, beta + 1), coeffs=tuple(coeffs)
            )
    raise AssertionError("no unit has a neighborhood larger than beta")


# ---------------------------------------------------------------------------
# per-unit oracles: the graph, model and cluster-neighborhood routes as the
# library ran them on tuples and dicts, one unit and one key at a time
# ---------------------------------------------------------------------------


def oracle_graph_check(n: int, rows) -> None:
    """The InterferenceGraph checks, unit by unit: raises InputError with
    the message of the first failing check of the first failing unit."""
    if n <= 0:
        raise InputError(f"graph needs at least one unit, got n={n}")
    for i, nbrs in enumerate(rows):
        if i not in nbrs:
            raise InputError(f"unit {i} missing from its own neighborhood")
        if any(j < 0 or j >= n for j in nbrs):
            raise InputError(f"unit {i} has a neighbor outside [0, {n})")
        if tuple(sorted(set(nbrs))) != tuple(nbrs):
            raise InputError(f"neighborhood of unit {i} is not sorted and unique")


def oracle_flat(beta_star: int, coeffs, g: InterferenceGraph):
    """(owner, members, values, baseline) of a dict model, validated key by
    key against g: per unit in order, every key in insertion order, members
    padded with g.n to width max(beta_star, 1). Raises InputError as the
    dict-backed model did, construction checks first."""
    if beta_star < 0:
        raise InputError(f"beta_star must be nonnegative, got {beta_star}")
    for i, cmap in enumerate(coeffs):
        if () not in cmap:
            raise InputError(f"unit {i} has no baseline (empty subset) entry")
        for s in cmap:
            if len(s) > beta_star:
                raise InputError(f"unit {i}: subset {s} exceeds beta_star={beta_star}")
            if tuple(sorted(set(s))) != s:
                raise InputError(f"unit {i}: subset key {s} not sorted unique")
    if len(coeffs) != g.n:
        raise InputError(f"model has {len(coeffs)} units but graph has {g.n}")
    owners, rows, vals = [], [], []
    baseline = np.zeros(g.n)
    width = max(beta_star, 1)
    for i, cmap in enumerate(coeffs):
        nbrs = set(neighbors(g)[i])
        for s, val in cmap.items():
            if not set(s) <= nbrs:
                raise InputError(f"unit {i}: subset {s} not within its neighborhood")
            if s == ():
                baseline[i] = val
            else:
                owners.append(i)
                rows.append(s + (g.n,) * (width - len(s)))
                vals.append(val)
    members = np.array(rows, dtype=np.int64).reshape(len(rows), width)
    return np.array(owners, dtype=np.int64), members, np.array(vals), baseline


def oracle_true_tte(coeffs) -> float:
    total = 0.0
    for cmap in coeffs:
        total += sum(val for s, val in cmap.items() if s)
    return total / len(coeffs)


def oracle_outcome_bound(coeffs) -> float:
    best = 0.0
    for cmap in coeffs:
        pos = sum(v for v in cmap.values() if v > 0)
        low = cmap[()] + sum(v for s, v in cmap.items() if s and v < 0)
        best = max(best, pos, abs(low))
    return float(best)


def reference_cluster_keys(
    model: LowOrderModel, stats: ClusterStats
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(owner, members, values) of the lift of model on stats, keyed on
    stacked (owner, cluster...) rows, which the lift's column-at-a-time
    keys must match to the last bit."""
    c = stats.clustering
    cmap = np.append(c.assignment, c.m)[model.members]
    cmap.sort(axis=1)
    cmap[:, 1:][cmap[:, 1:] == cmap[:, :-1]] = c.m
    cmap.sort(axis=1)
    width = int((cmap < c.m).sum(axis=1).max(initial=0))
    rows = np.column_stack([model.owner, cmap[:, :width]])
    order = np.lexsort(rows.T[::-1])
    rows = rows[order]
    first = np.ones(len(rows), dtype=bool)
    first[1:] = np.any(rows[1:] != rows[:-1], axis=1)
    values = np.bincount(np.cumsum(first) - 1, weights=model.values[order])
    keys = rows[first]
    return keys[:, 0], keys[:, 1:], values


def reference_outcome_bound(model: LowOrderModel) -> float:
    """outcome_bound with each unit's positive part summed by one bincount
    over the baselines and rows concatenated: the same sums, in the same
    order, as adding the rows onto the baselines in place."""
    n = model.n
    every = np.concatenate([model.baseline, model.values])
    owners = np.concatenate([np.arange(n), model.owner])
    pos = np.bincount(owners, np.where(every > 0, every, 0.0), n)
    neg = np.bincount(model.owner, np.where(model.values < 0, model.values, 0.0), n)
    return float(max(0.0, pos.max(), np.abs(model.baseline + neg).max()))


def oracle_mixed_signs(x) -> bool:
    """mixed_signs over per-unit aggregate dicts x[i][U]."""
    has_pos = has_neg = False
    for xmap in x:
        for u, val in xmap.items():
            if not u:
                continue
            if val > 0:
                has_pos = True
            elif val < 0:
                has_neg = True
    return has_pos and has_neg


def oracle_bias_crd(x, nbhds, m: int, k: int, B: float) -> tuple[float, float]:
    """bias_crd over per-unit aggregate dicts x[i][U] and per-unit cluster
    neighborhood tuples."""
    n = len(nbhds)
    acc = 0.0
    full = 0
    for i, nb in enumerate(nbhds):
        if len(nb) != m:
            continue
        full += 1
        xmap = x[i]
        acc += k * xmap.get((), 0.0) - sum(val for u, val in xmap.items() if len(u) == 1)
    exact = m * acc / ((k**2 + m) * n)
    return exact, (full / n) * (m * (k + 2) * B / (k**2 + m))


def oracle_cluster_nbhd(g: InterferenceGraph, c: Clustering) -> tuple[tuple[int, ...], ...]:
    """Per unit, the sorted distinct cluster ids touching N_i."""
    return tuple(tuple(sorted({c.assignment[j] for j in nbrs})) for nbrs in neighbors(g))


def oracle_cycle_coeffs(g: InterferenceGraph, beta_star: int) -> list[dict]:
    """gen_cycle_model's dicts: per unit the baseline 1, then every k-subset
    of N_i by itertools.combinations, k = 1..beta_star."""
    coeffs = []
    for nbrs in neighbors(g):
        cmap = {(): 1.0}
        for k in range(1, beta_star + 1):
            coef = (0.5**k) / math.comb(len(nbrs), k)
            for s in itertools.combinations(nbrs, k):
                cmap[s] = coef
        coeffs.append(cmap)
    return coeffs


def oracle_named_coeffs(g: InterferenceGraph, kind: str, seed: int) -> list[dict]:
    """gen_named_model's dicts: the baseline, then {i}, then the other
    in-neighbors ascending."""
    deg = g.degrees
    d_max = int(deg.max())
    noise = np.random.default_rng(seed).standard_normal(g.n)
    coeffs = []
    for i, nbrs in enumerate(neighbors(g)):
        d = int(deg[i])
        cmap = {(): float((0.5 + 0.1 * noise[i]) * d / d_max)}
        if kind != "null":
            cmap[(i,)] = 0.5 if kind == "weak" else d / 2.0
            for j in nbrs:
                if j != i:
                    cmap[(j,)] = 1.0 / (2.0 * (d - 1)) if kind == "weak" else 0.5
        coeffs.append(cmap)
    return coeffs


# ---------------------------------------------------------------------------
# per-key oracles: every unit subset's cluster image built one key at a time,
# as the library did before its routes shared one vectorized re-keying
# ---------------------------------------------------------------------------


def oracle_cluster_aggregate(
    model: LowOrderModel, g: InterferenceGraph, c: Clustering
) -> list[dict[tuple[int, ...], float]]:
    """x[i][U]: the sum of c_{i,S} over keyed subsets S with cluster image U,
    the baseline at U = ()."""
    assign = c.assignment
    rows = []
    for i in range(g.n):
        xmap: dict[tuple[int, ...], float] = {}
        for s, val in model.coeffs[i].items():
            u = tuple(sorted({assign[j] for j in s}))
            xmap[u] = xmap.get(u, 0.0) + val
        rows.append(xmap)
    return rows


def lift(model: LowOrderModel, g: InterferenceGraph, c: Clustering) -> ClusterAggregatedModel:
    """model re-keyed on the cluster neighborhoods of g under c, which it
    carries as agg.stats: the one cluster-level input of evaluation,
    weights, bias and bounds."""
    return cluster_aggregate(model, cluster_stats(g, c))


def shifted_blocks(n: int, w: int) -> Clustering:
    """Cycle blocks of width w shifted by w // 2: as many clusters as
    contiguous_cycle_clusters(n, w), but another partition."""
    return Clustering.from_labels([((i + w // 2) // w) % (n // w) for i in range(n)])


def agg_dicts(agg: ClusterAggregatedModel) -> list[dict[tuple[int, ...], float]]:
    """The rows of a cluster-aggregated model as one dict per unit,
    x[i][U], the baseline at U = ()."""
    rows = [{(): b} for b in agg.baseline.tolist()]
    for i, u, size, val in zip(
        agg.owner.tolist(), agg.members.tolist(), agg.order.tolist(), agg.values.tolist()
    ):
        rows[i][tuple(u[:size])] = val
    return rows


def oracle_bias_exact(model: LowOrderModel, g: InterferenceGraph, d: Design, beta: int) -> float:
    """Exact bias of the order-beta pseudoinverse estimator: per unit, the
    coefficients of order <= beta grouped by image size and dotted with
    M v - theta, those of higher order with Cross v - 1."""
    assign = d.clustering.assignment
    sizes = np.diff(cluster_stats(g, d.clustering).indptr)
    per_size: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    total = 0.0
    for i in range(g.n):
        c = int(sizes[i])
        if c not in per_size:
            # (M v)_k on a size-k cluster subset, k = 0..c: the first
            # min(beta, c) + 1 entries give M v - theta, all of them Cross v
            a = size_class_pinv(d, c, beta)
            probs = [joint_treat_prob(d, u) for u in range(c + 1)]
            Mv = size_class_sums(probs, c, c, a.size - 1) @ a
            proj = Mv[: a.size] - (np.arange(a.size) > 0)
            per_size[c] = (proj, Mv - 1.0)
        proj, cross = per_size[c]
        x_lo = np.zeros(proj.size)
        x_tail = np.zeros(cross.size)
        for s, val in model.coeffs[i].items():
            image = len({assign[j] for j in s})
            if len(s) <= beta:
                x_lo[image] += val
            else:
                x_tail[image] += val
        total += float(x_lo @ proj) + float(x_tail @ cross)
    return total / g.n


def oracle_bias_bound_gcr(
    model: LowOrderModel, g: InterferenceGraph, clustering: Clustering, beta: int
) -> tuple[float, float, float]:
    """(x_norm, c_norm, refined) of bias_bound_gcr, one tail key at a time."""
    assign = clustering.assignment
    x_total = c_total = refined_total = 0.0
    for i in range(g.n):
        tail: dict[tuple[int, ...], float] = {}
        for s, val in model.coeffs[i].items():
            if len(s) > beta:
                u = tuple(sorted({assign[j] for j in s}))
                tail[u] = tail.get(u, 0.0) + val
                c_total += abs(val)
        by_card: dict[int, float] = {}
        for u, val in tail.items():
            if len(u) > beta:
                x_total += abs(val)
                by_card[len(u)] = by_card.get(len(u), 0.0) + val
        refined_total += sum(abs(v) for v in by_card.values())
    n = g.n
    return x_total / n, c_total / n, refined_total / n


def pair_dependence(
    d: Design, stats: ClusterStats, i: int, j: int, monotone: bool = False
) -> bool:
    """Whether the treatment vectors restricted to N_i and N_j can be
    statistically dependent under the design.

    Bernoulli designs make disjoint cluster neighborhoods independent; the
    complete design couples every pair through the fixed treatment count,
    unless monotone effects are asserted, which screens out disjoint
    neighborhoods there too (variance_bound's negative-covariance screen).
    """
    if d.is_bernoulli or monotone:
        return bool(set(cluster_rows(stats)[i]) & set(cluster_rows(stats)[j]))
    return True


def oracle_pair_sum(stats: ClusterStats, gam) -> Fraction:
    """The sum of gam_i gam_j over the ordered pairs of units whose cluster
    neighborhoods share a cluster, in exact rationals: gam summed per
    distinct neighborhood, then those sums multiplied over every ordered
    pair of neighborhoods that meet."""
    sums: dict[frozenset[int], Fraction] = {}
    for row, x in zip(cluster_rows(stats), np.asarray(gam).tolist()):
        sums[frozenset(row)] = sums.get(frozenset(row), Fraction(0)) + Fraction(x)
    sets = list(sums.items())
    return sum(
        (ga * gb for a, ga in sets for b, gb in sets if not a.isdisjoint(b)), Fraction(0)
    )


# ---------------------------------------------------------------------------
# Louvain oracles: louvain and modularity as the library ran them on a list
# of adjacency dicts, one dict built and sorted per node visit
# ---------------------------------------------------------------------------


def oracle_symmetric_adjacency(g: InterferenceGraph) -> list[dict[int, float]]:
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


def oracle_modularity(g: InterferenceGraph, c: Clustering, resolution: float = 1.0) -> float:
    """Newman modularity of the partition on the symmetrized graph, with
    self-loops ignored and a resolution multiplier on the null-model term."""
    adj = oracle_symmetric_adjacency(g)
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


def oracle_louvain(g: InterferenceGraph, resolution: float = 1.0, seed: int = 0) -> Clustering:
    """Deterministic Louvain partition of the symmetrized graph.

    Runs the usual two-phase scheme (greedy local moves, then community
    aggregation) until modularity stops improving. Nodes are scanned in
    ascending order; passing seed != 0 shuffles the scan order once per
    sweep with numpy's default_rng(seed). Ties never move a node, and
    candidate communities are scanned in ascending id order, so the output
    is a pure function of (graph, resolution, seed).

    Isolated units (no symmetric edges) stay in their own clusters.
    """
    if not 0 < resolution < np.inf:
        raise InputError(f"resolution must be positive and finite, got {resolution}")
    level_adj = oracle_symmetric_adjacency(g)
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
# moment oracles: closed forms and exhaustive routes only the tests read
# ---------------------------------------------------------------------------


def crd_determinant(m: int, k: int, c_size: int) -> float:
    """Determinant of the first-order moment matrix over c_size clusters
    under the complete design: k^c (m-k)^c (m-c) / (m^{c+1} (m-1)^c).
    Zero exactly when the neighborhood spans all m clusters."""
    if not (1 <= k <= m - 1):
        raise InputError(f"k={k} outside [1, m-1] for m={m}")
    if not (0 <= c_size <= m):
        raise InputError(f"c_size={c_size} outside [0, m]")
    c = c_size
    return (k**c * (m - k) ** c * (m - c)) / (m ** (c + 1) * (m - 1) ** c)


def reference_gcr_row(p: float, beta: int, c: int) -> np.ndarray:
    """The explicit GCR estimator's weights by t = 0..c treated clusters:
    sum_{|U| <= beta} [prod_U (w - p)/p - prod_U (w - p)/(p - 1)], the
    paper's product form. The elementary symmetric sum e_k of t copies of x
    and c - t copies of y is sum_{i + j = k} C(t, i) C(c - t, j) x^i y^j."""
    top = min(beta, c)
    t = np.arange(c + 1)
    out = np.zeros(c + 1)
    for i in range(top + 1):
        for j in range(top + 1 - i):
            coef = ((1.0 - p) / p) ** i * (-1.0) ** j - (-1.0) ** i * (p / (1.0 - p)) ** j
            treated = np.array([math.comb(x, i) for x in t], dtype=np.float64)
            control = np.array([math.comb(c - x, j) for x in t], dtype=np.float64)
            out += coef * treated * control
    return out


def reference_crd1_row(m: int, k: int, c: int) -> np.ndarray:
    """The first-order complete-design weights by t = 0..c treated clusters,
    in closed form; units in contact with every cluster take the
    rank-deficient pseudoinverse form."""
    t = np.arange(c + 1, dtype=np.float64)
    if c < m:
        return m * m * (m - 1) / (k * (m - k) * (m - c)) * (t - c * k / m)
    return m * k * k / (k * k + m) ** 2 * (t + c / k)


def reference_weights(g: InterferenceGraph, draw, d: Design, beta: int) -> np.ndarray:
    """Per-unit weights of one draw from the closed-form rows: the explicit
    GCR row under a Bernoulli design, the first-order row (beta = 1) under
    the complete design."""
    assert d.is_bernoulli or beta == 1
    w = np.asarray(draw.w)
    table: dict[int, np.ndarray] = {}
    out = np.empty(g.n)
    for i, ground in enumerate(cluster_rows(cluster_stats(g, d.clustering))):
        c = len(ground)
        if c not in table:
            table[c] = (
                reference_gcr_row(d.p, beta, c)
                if d.is_bernoulli
                else reference_crd1_row(d.m, d.k, c)
            )
        out[i] = table[c][int(w[list(ground)].sum())]
    return out


def _gauss_jordan(rows):
    """Reduced row echelon form of Fraction rows, with its pivot columns."""
    R = [list(row) for row in rows]
    pivots = []
    for col in range(len(R[0])):
        r = len(pivots)
        hit = next((i for i in range(r, len(R)) if R[i][col] != 0), None)
        if hit is None:
            continue
        R[r], R[hit] = R[hit], R[r]
        head = R[r][col]
        R[r] = [x / head for x in R[r]]
        for i in range(len(R)):
            if i != r and R[i][col] != 0:
                f = R[i][col]
                R[i] = [x - f * y for x, y in zip(R[i], R[r])]
        pivots.append(col)
    return R, pivots


def exact_pinv_times(M, b) -> list[Fraction]:
    """M^+ b in exact rationals for a symmetric Fraction matrix M (list of
    rows): with N a basis of null(M) and Q = N (N'N)^-1 N' the orthogonal
    projector onto it, M^+ = (M + Q)^-1 - Q."""
    q = len(M)
    R, pivots = _gauss_jordan(M)
    null = []
    for f in (f for f in range(q) if f not in pivots):
        x = [Fraction(i == f) for i in range(q)]
        for r, col in enumerate(pivots):
            x[col] = -R[r][f]
        null.append(x)
    Q = [[Fraction(0)] * q for _ in range(q)]
    if null:
        gram = [[sum(a * b for a, b in zip(u, v)) for v in null] for u in null]
        G, _ = _gauss_jordan([row + u for row, u in zip(gram, null)])
        X = [row[len(null) :] for row in G]
        Q = [[sum(u[i] * x[j] for u, x in zip(null, X)) for j in range(q)] for i in range(q)]
    A, _ = _gauss_jordan(
        [[M[i][j] + Q[i][j] for j in range(q)] + [b[i]] for i in range(q)]
    )
    return [A[i][-1] - sum(Q[i][j] * b[j] for j in range(q)) for i in range(q)]


def exact_theta_pinv(probs, c: int, beta: int) -> tuple[SubsetIndex, list[Fraction]]:
    """M^+ theta over SubsetIndex(range(c), beta) from the dense subset system
    in exact rationals: M[U, V] = probs[|U union V|]."""
    index = SubsetIndex(tuple(range(c)), beta)
    M = [[probs[u] for u in row] for row in index.union_sizes().tolist()]
    theta = [Fraction(int(s > 0)) for s in index.sizes.tolist()]
    return index, exact_pinv_times(M, theta)


def exact_crd_theta_pinv(m: int, k: int, c: int, beta: int) -> tuple[SubsetIndex, list[Fraction]]:
    """exact_theta_pinv under the complete design of k treated out of m
    clusters: probs[u] = C(m - u, k - u) / C(m, k)."""
    total = math.comb(m, k)
    probs = [Fraction(math.comb(m - u, k - u) if u <= k else 0, total) for u in range(c + 1)]
    return exact_theta_pinv(probs, c, beta)


def exact_bernoulli_theta_pinv(p, c: int, beta: int) -> tuple[SubsetIndex, list[Fraction]]:
    """exact_theta_pinv under Bernoulli(p) cluster treatment, p the exact
    value of the given float or Fraction: probs[u] = p^u."""
    return exact_theta_pinv([Fraction(p) ** u for u in range(c + 1)], c, beta)


def support_moments(
    d: Design, g: InterferenceGraph, i: int, beta: int
) -> DesignMoments:
    """Exact moment matrix for unit i by full support enumeration. Slow and
    capacity-guarded; this is the oracle the closed forms are tested against."""
    stats = cluster_stats(g, d.clustering)
    ground = tuple(stats.cluster_ids[stats.indptr[i] : stats.indptr[i + 1]].tolist())
    index = SubsetIndex(ground, beta)
    cols = np.array(ground, dtype=np.int64)
    M = np.zeros((len(index), len(index)))
    for prob, w in zip(*enumerate_support(d)):
        counts = index.membership @ w[cols].astype(np.int64)
        ind = (counts == index.sizes).astype(np.float64)
        M += prob * np.outer(ind, ind)
    return DesignMoments(index=index, M=M, M_pinv=numeric_pinv(M), provenance="numeric")


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20260818)
