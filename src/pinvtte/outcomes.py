"""Low-order potential outcome models.

Outcomes are multilinear in the treatment vector: unit i's response is a
sparse combination of products of treatments over subsets of its neighborhood,
with subset order capped at beta_star. The empty subset carries the baseline
(the outcome under global control) and is always present.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import TextIO

import numpy as np

from .clustering import Clustering
from .errors import CapacityError, InputError
from .graph import InterferenceGraph, _write_lines

__all__ = [
    "LowOrderModel",
    "ClusterAggregatedModel",
    "evaluate",
    "evaluate_draws",
    "true_tte",
    "gen_cycle_model",
    "gen_named_model",
    "cluster_aggregate",
    "outcome_bound",
    "mixed_signs",
    "load_model",
    "save_model",
]

# One flat-array cache per model holds at most this many subset keys.
_MAX_KEYS = 2_000_000

# draws times keys gathered at once; bounds evaluate_draws' temporary arrays
_BLOCK = 1 << 18


@dataclass(frozen=True, eq=True)
class _FlatModel:
    """Vectorized view of a sparse model: one row per non-empty subset of
    units, or of clusters once re-keyed by _cluster_keys."""

    owner: np.ndarray  # unit owning each subset
    members: np.ndarray  # padded member matrix; pad index means "always 1"
    values: np.ndarray
    baseline: np.ndarray
    pad: int

    @property
    def order(self) -> np.ndarray:
        """Members (or clusters, once re-keyed) in each row."""
        return (self.members < self.pad).sum(axis=1)


@dataclass(frozen=True)
class LowOrderModel:
    """Sparse potential-outcome model of order beta_star.

    coeffs[i] maps sorted member tuples S (subsets of N_i, here only checked
    for order and size) to the real coefficient multiplying prod_{j in S} z_j
    in unit i's outcome. The empty tuple key holds the baseline Y_i(0).
    """

    beta_star: int
    coeffs: tuple[dict[tuple[int, ...], float], ...]
    _cache: dict = field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.beta_star < 0:
            raise InputError(f"beta_star must be nonnegative, got {self.beta_star}")
        for i, cmap in enumerate(self.coeffs):
            if () not in cmap:
                raise InputError(f"unit {i} has no baseline (empty subset) entry")
            for s in cmap:
                if len(s) > self.beta_star:
                    raise InputError(
                        f"unit {i}: subset {s} exceeds beta_star={self.beta_star}"
                    )
                if tuple(sorted(set(s))) != s:
                    raise InputError(f"unit {i}: subset key {s} not sorted unique")

    @property
    def n(self) -> int:
        return len(self.coeffs)

    def _flat(self, g: InterferenceGraph) -> _FlatModel:
        """Build (once per graph) the flat arrays used by vectorized
        evaluation, and validate subset membership against the graph while
        doing so. The cache holds the graph it was validated against, so a
        different graph is validated afresh."""
        cached = self._cache.get("flat")
        if cached is not None and cached[0] == g:
            return cached[1]
        if self.n != g.n:
            raise InputError(f"model has {self.n} units but graph has {g.n}")
        owners: list[int] = []
        rows: list[tuple[int, ...]] = []
        vals: list[float] = []
        baseline = np.zeros(self.n)
        width = max(self.beta_star, 1)
        total = sum(len(cmap) for cmap in self.coeffs)
        if total > _MAX_KEYS:
            raise CapacityError(
                f"model holds {total} subset keys, over the {_MAX_KEYS} flat-cache guard"
            )
        for i, cmap in enumerate(self.coeffs):
            nbrs = set(g.in_neighbors[i])
            for s, val in cmap.items():
                if not set(s) <= nbrs:
                    raise InputError(f"unit {i}: subset {s} not within its neighborhood")
                if s == ():
                    baseline[i] = val
                else:
                    owners.append(i)
                    rows.append(s + (g.n,) * (width - len(s)))
                    vals.append(val)
        flat = _FlatModel(
            owner=np.array(owners, dtype=np.int64),
            members=np.array(rows, dtype=np.int64).reshape(len(rows), width),
            values=np.array(vals, dtype=np.float64),
            baseline=baseline,
            pad=g.n,
        )
        self._cache["flat"] = (g, flat)
        return flat


@dataclass(frozen=True)
class ClusterAggregatedModel:
    """Coefficients re-keyed by the clusters their subsets touch.

    x[i] maps sorted cluster-id tuples U to x_{i,U}, the sum of c_{i,S} over
    keyed subsets S whose members' clusters are exactly U.
    """

    beta_star: int
    x: tuple[dict[tuple[int, ...], float], ...]

    @property
    def n(self) -> int:
        return len(self.x)


def evaluate(model: LowOrderModel, g: InterferenceGraph, z) -> np.ndarray:
    """Outcome vector under treatment assignment z (entries 0/1)."""
    z = np.asarray(z)
    if z.shape != (g.n,):
        raise InputError(f"z has shape {z.shape}, expected ({g.n},)")
    zf = z.astype(np.float64)
    if not np.all((zf == 0.0) | (zf == 1.0)):
        raise InputError("z entries must be 0 or 1")
    flat = model._flat(g)
    y = flat.baseline.copy()
    if flat.values.size:
        zpad = np.append(zf, 1.0)
        prods = zpad[flat.members].prod(axis=1)
        y += np.bincount(flat.owner, weights=flat.values * prods, minlength=g.n)
    return y


def _cluster_keys(flat: _FlatModel, assignment: np.ndarray, m: int) -> _FlatModel:
    """Re-key the flat subsets by the clusters their members fall in. This
    is the one map from unit subsets S to their cluster images U.

    Under a cluster-constant assignment prod_{j in S} z_j = prod_{C in U} w_C
    with U the set of clusters of S, so coefficients sharing an
    (owner, U) pair add up, in their original order. Repeated clusters
    collapse (w^2 = w) and U is padded with the index m ("always 1"), which
    sorts last. Rows come back sorted by (owner, U), trailing all-pad
    columns dropped.
    """
    cmap = np.append(assignment, m)[flat.members]
    cmap.sort(axis=1)
    cmap[:, 1:][cmap[:, 1:] == cmap[:, :-1]] = m
    cmap.sort(axis=1)
    width = int((cmap < m).sum(axis=1).max(initial=0))
    rows = np.column_stack([flat.owner, cmap[:, :width]])
    order = np.lexsort(rows.T[::-1])
    rows = rows[order]
    first = np.ones(len(rows), dtype=bool)
    first[1:] = np.any(rows[1:] != rows[:-1], axis=1)
    values = np.bincount(np.cumsum(first) - 1, weights=flat.values[order])
    keys = rows[first]
    return _FlatModel(
        owner=keys[:, 0], members=keys[:, 1:], values=values, baseline=flat.baseline, pad=m
    )


def evaluate_draws(
    model: LowOrderModel, g: InterferenceGraph, clustering: Clustering, W
) -> np.ndarray:
    """Outcome matrix (R, n) for the (R, m) matrix W of 0/1 cluster draws,
    each lifted to units by the clustering.

    The model is re-keyed once to cluster subsets, where
    Y_i = sum_U x_{i,U} prod_{C in U} w_C, and blocks of draws are gathered
    over those keys under a fixed element budget. Row r depends only on
    draw r, whatever R or the block size.
    """
    if clustering.n != g.n:
        raise InputError(f"clustering covers {clustering.n} units but graph has {g.n}")
    W = np.asarray(W)
    if W.ndim != 2 or W.shape[1] != clustering.m:
        raise InputError(f"W has shape {W.shape}, expected (R, {clustering.m})")
    if not np.all((W == 0) | (W == 1)):
        raise InputError("cluster draws must be 0 or 1")
    flat = model._flat(g)
    R = W.shape[0]
    if not flat.values.size:
        return np.tile(flat.baseline, (R, 1))
    # re-keyed before Y is allocated, so the re-keying temporaries are freed
    # by the time Y is held
    keys = _cluster_keys(flat, np.asarray(clustering.assignment), clustering.m)
    units, starts = np.unique(keys.owner, return_index=True)
    Y = np.tile(flat.baseline, (R, 1))
    Wpad = np.ones((R, clustering.m + 1), dtype=np.int8)
    Wpad[:, :-1] = W
    step = max(1, _BLOCK // keys.values.size)
    for start in range(0, R, step):
        block = Wpad[start : start + step]
        hit = block[:, keys.members[:, 0]]
        for col in keys.members.T[1:]:
            hit &= block[:, col]
        Y[start : start + step, units] += np.add.reduceat(hit * keys.values, starts, axis=1)
    return Y


def true_tte(model: LowOrderModel) -> float:
    """Exact total treatment effect: the average over units of the sum of
    non-empty coefficients."""
    total = 0.0
    for cmap in model.coeffs:
        total += sum(val for s, val in cmap.items() if s)
    return total / model.n


def gen_cycle_model(g: InterferenceGraph, beta_star: int) -> LowOrderModel:
    """Ring response model: every k-subset of N_i gets coefficient
    binom(d_i, k)^{-1} 2^{-k}, so each order k contributes exactly 2^{-k}
    to every unit's treatment effect, and the baseline is 1."""
    deg = g.degrees
    if beta_star < 1 or beta_star > int(deg.min()):
        raise InputError(
            f"beta_star={beta_star} must lie in [1, min degree={int(deg.min())}]"
        )
    total_keys = 0
    coeffs = []
    for i in range(g.n):
        d = len(g.in_neighbors[i])
        cmap: dict[tuple[int, ...], float] = {(): 1.0}
        for k in range(1, beta_star + 1):
            coef = (0.5**k) / math.comb(d, k)
            for s in itertools.combinations(g.in_neighbors[i], k):
                cmap[s] = coef
        total_keys += len(cmap)
        if total_keys > _MAX_KEYS:
            raise CapacityError(
                f"cycle model would exceed the {_MAX_KEYS} subset-key guard"
            )
        coeffs.append(cmap)
    return LowOrderModel(beta_star=beta_star, coeffs=tuple(coeffs))


def gen_named_model(g: InterferenceGraph, kind: str, seed: int) -> LowOrderModel:
    """The three first-order benchmark models (null, weak, strong).

    All share a baseline (0.5 + 0.1 * standard normal) * d_i / d_max drawn in
    unit order from default_rng(seed), so models with the same seed agree
    across designs.

      null    no interference coefficients; TTE = 0
      weak    c_{i,{i}} = 1/2 and c_{i,{j}} = 1/(2(d_i - 1)); TTE_i = 1
              whenever d_i >= 2
      strong  c_{i,{i}} = d_i/2 and c_{i,{j}} = 1/2; TTE_i grows with degree
    """
    if kind not in ("null", "weak", "strong"):
        raise InputError(f"unknown model kind {kind!r}")
    deg = g.degrees
    d_max = int(deg.max())
    rng = np.random.default_rng(seed)
    noise = rng.standard_normal(g.n)
    coeffs = []
    for i in range(g.n):
        d = int(deg[i])
        cmap: dict[tuple[int, ...], float] = {
            (): float((0.5 + 0.1 * noise[i]) * d / d_max)
        }
        if kind == "weak":
            cmap[(i,)] = 0.5
            for j in g.in_neighbors[i]:
                if j != i:
                    cmap[(j,)] = 1.0 / (2.0 * (d - 1))
        elif kind == "strong":
            cmap[(i,)] = d / 2.0
            for j in g.in_neighbors[i]:
                if j != i:
                    cmap[(j,)] = 0.5
        coeffs.append(cmap)
    return LowOrderModel(beta_star=1, coeffs=tuple(coeffs))


def cluster_aggregate(
    model: LowOrderModel, g: InterferenceGraph, c: Clustering
) -> ClusterAggregatedModel:
    """Sum coefficients over subsets with the same cluster image.

    x_{i,U} collects every keyed c_{i,S} whose members' clusters are exactly
    the set U, including the baseline at U = (): a dict view of the
    re-keying that evaluate_draws evaluates.
    """
    if c.n != g.n or model.n != g.n:
        raise InputError("model, graph, and clustering must agree on n")
    flat = model._flat(g)
    rows = [{(): b} for b in flat.baseline.tolist()]
    keys = _cluster_keys(flat, np.asarray(c.assignment), c.m)
    for i, u, size, val in zip(
        keys.owner.tolist(), keys.members.tolist(), keys.order.tolist(), keys.values.tolist()
    ):
        rows[i][tuple(u[:size])] = val
    return ClusterAggregatedModel(beta_star=model.beta_star, x=tuple(rows))


def outcome_bound(model: LowOrderModel, g: InterferenceGraph) -> float:
    """Uniform outcome magnitude bound B with |Y_i(z)| <= B for all i, z.

    Multilinearity brackets each unit's outcome between the baseline plus all
    negative coefficients and the sum of all positive ones, so the bound is
    max over units of max(sum of positive coefficients, |baseline + sum of
    negative non-empty coefficients|). The bracket is attained whenever the
    non-empty coefficients share a sign (in particular for any first-order
    model).
    """
    model._flat(g)  # validates subsets against the graph
    best = 0.0
    for cmap in model.coeffs:
        pos = sum(v for v in cmap.values() if v > 0)
        low = cmap[()] + sum(v for s, v in cmap.items() if s and v < 0)
        best = max(best, pos, abs(low))
    return float(best)


def mixed_signs(agg: ClusterAggregatedModel) -> bool:
    """True when the non-empty aggregated coefficients contain both strictly
    positive and strictly negative entries."""
    has_pos = has_neg = False
    for xmap in agg.x:
        for u, val in xmap.items():
            if not u:
                continue
            if val > 0:
                has_pos = True
            elif val < 0:
                has_neg = True
    return has_pos and has_neg


# ---------------------------------------------------------------------------
# text round-trip: "unit<TAB>comma-separated-subset<TAB>value", empty subset
# written as "-"
# ---------------------------------------------------------------------------


def save_model(model: LowOrderModel, out: str | TextIO) -> None:
    """Write the model to a path, or to an open text stream."""
    _write_lines(
        (
            f"{i}\t{','.join(str(j) for j in s) if s else '-'}\t{cmap[s]!r}\n"
            for i, cmap in enumerate(model.coeffs)
            for s in sorted(cmap, key=lambda t: (len(t), t))
        ),
        out,
    )


def load_model(path: str, n: int) -> LowOrderModel:
    """Read a model saved by save_model. The order bound is inferred as the
    largest subset size present (at least 1); missing baselines default to 0."""
    coeffs: list[dict[tuple[int, ...], float]] = [dict() for _ in range(n)]
    beta_star = 1
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != 3:
                raise InputError(f"line {lineno}: expected 'unit<TAB>subset<TAB>value'")
            try:
                unit = int(parts[0])
                subset = (
                    ()
                    if parts[1] == "-"
                    else tuple(sorted(int(tok) for tok in parts[1].split(",")))
                )
                value = float(parts[2])
            except ValueError:
                raise InputError(f"line {lineno}: malformed field")
            if not (0 <= unit < n):
                raise InputError(f"line {lineno}: unit {unit} out of range for n={n}")
            if subset in coeffs[unit]:
                raise InputError(f"line {lineno}: duplicate subset for unit {unit}")
            coeffs[unit][subset] = value
            beta_star = max(beta_star, len(subset))
    for cmap in coeffs:
        cmap.setdefault((), 0.0)
    return LowOrderModel(beta_star=beta_star, coeffs=tuple(coeffs))
