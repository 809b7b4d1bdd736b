"""Shared instance factories for the test suite.

Randomized tests draw small instances from these helpers with explicit
numpy generators, so every test is reproducible from its own seed.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from pinvtte import (
    Clustering,
    ClusterStats,
    Design,
    InterferenceGraph,
    LowOrderModel,
    cluster_neighborhoods,
    joint_treat_prob,
    size_class_pinv,
    size_class_sums,
)


def random_graph(rng: np.random.Generator, n: int, extra_max: int = 3) -> InterferenceGraph:
    """Directed graph on n units; every unit keeps itself plus up to
    extra_max random in-neighbors."""
    nbrs = []
    for i in range(n):
        count = int(rng.integers(0, min(extra_max, n - 1) + 1))
        others = [j for j in range(n) if j != i]
        extra = rng.choice(others, size=count, replace=False) if count else []
        nbrs.append(tuple(sorted({i, *map(int, extra)})))
    return InterferenceGraph(n=n, in_neighbors=tuple(nbrs))


def random_clustering(rng: np.random.Generator, n: int, m: int) -> Clustering:
    """Surjective assignment of n units onto exactly m clusters."""
    labels = rng.integers(0, m, size=n)
    labels[rng.permutation(n)[:m]] = np.arange(m)
    return Clustering.from_labels(labels)


def random_model(
    rng: np.random.Generator,
    g: InterferenceGraph,
    beta_star: int,
    keep: float = 0.6,
    nonnegative: bool = False,
    scale: float = 1.0,
) -> LowOrderModel:
    """Sparse coefficients on random neighborhood subsets up to beta_star.

    Every unit keeps a baseline; each candidate subset survives with
    probability keep. nonnegative=True yields a monotone instance (all
    coefficients, baseline included, are >= 0).
    """
    coeffs = []
    for i in range(g.n):
        base = float(rng.normal(0.0, 0.4)) * scale
        cmap = {(): abs(base) if nonnegative else base}
        nbrs = g.in_neighbors[i]
        for size in range(1, beta_star + 1):
            for S in itertools.combinations(nbrs, size):
                if rng.random() < keep:
                    val = float(rng.normal(0.0, 1.0)) * scale
                    cmap[S] = abs(val) if nonnegative else val
        coeffs.append(cmap)
    return LowOrderModel(beta_star=beta_star, coeffs=tuple(coeffs))


def ensure_tail(
    rng: np.random.Generator, model: LowOrderModel, g: InterferenceGraph, beta: int
) -> LowOrderModel:
    """Guarantee at least one coefficient of order > beta (a genuinely
    misspecified instance); adds one if the random draw left none."""
    if any(len(s) > beta for cmap in model.coeffs for s in cmap):
        return model
    for i in range(g.n):
        nbrs = g.in_neighbors[i]
        if len(nbrs) > beta:
            cmap = dict(model.coeffs[i])
            cmap[tuple(nbrs[: beta + 1])] = float(rng.normal(0.0, 1.0))
            coeffs = list(model.coeffs)
            coeffs[i] = cmap
            return LowOrderModel(
                beta_star=max(model.beta_star, beta + 1), coeffs=tuple(coeffs)
            )
    raise AssertionError("no unit has a neighborhood larger than beta")


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


def oracle_bias_exact(model: LowOrderModel, g: InterferenceGraph, d: Design, beta: int) -> float:
    """Exact bias of the order-beta pseudoinverse estimator: per unit, the
    coefficients of order <= beta grouped by image size and dotted with
    M v - theta, those of higher order with Cross v - 1."""
    assign = d.clustering.assignment
    sizes = np.diff(cluster_neighborhoods(g, d.clustering)[0])
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
        return bool(set(stats.cluster_nbhd[i]) & set(stats.cluster_nbhd[j]))
    return True


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20260818)
