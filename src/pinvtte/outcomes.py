"""Low-order potential outcome models.

Outcomes are multilinear in the treatment vector: unit i's response is a
sparse combination of products of treatments over subsets of its neighborhood,
with subset order capped at beta_star. The empty subset carries the baseline
(the outcome under global control) and is always present.

A model is stored flat, one row per non-empty subset, so evaluation and
every reduction run as array operations. cluster_aggregate validates it and
re-keys it by the clusters of a ClusterStats, once, into one lifted value
that carries that ClusterStats, for evaluate_draws and the bias in bounds.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Iterator, Sequence, TextIO

import numpy as np

from .clustering import ClusterStats
from .design import _draws
from .errors import CapacityError, InputError
from .graph import InterferenceGraph, _frozen, _read_lines, _write_lines

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

# A model built from dicts holds at most this many subset keys.
_MAX_KEYS = 2_000_000

# member entries held at once by the row blocks that check a model against a
# graph and that fill a generated cycle model
_BLOCK = 1 << 16


def _row_blocks(members: np.ndarray) -> Iterator[tuple[int, np.ndarray]]:
    """(first row, rows) of members, a block of at least one row and at
    most _BLOCK entries at a time."""
    step = max(1, _BLOCK // max(1, members.shape[1]))
    return ((a, members[a : a + step]) for a in range(0, members.shape[0], step))


def _sealed(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    """A builder's fresh arrays, read-only, so the model adopts them uncopied."""
    for a in arrays:
        a.setflags(write=False)
    return arrays


@dataclass(frozen=True, eq=False)
class LowOrderModel:
    """Sparse potential-outcome model of order beta_star, stored flat.

    Row r is the coefficient values[r] of prod_{j in S} z_j in unit
    owner[r]'s outcome, with S the entries of members[r] other than the
    pad index n ("always 1"), sorted ascending and padded on the right.
    baseline[i] is the empty-subset coefficient Y_i(0). Every S must lie in
    N_i; that is checked against a graph when the model is first used with
    it. Build a model from one dict per unit with from_dicts; coeffs is the
    same dict view. Two models are equal when their arrays are.
    """

    beta_star: int
    owner: np.ndarray
    members: np.ndarray
    values: np.ndarray
    baseline: np.ndarray
    _graph: InterferenceGraph | None = field(default=None, init=False, repr=False)

    def __post_init__(self) -> None:
        if self.beta_star < 0:
            raise InputError(f"beta_star must be nonnegative, got {self.beta_star}")
        for name in ("owner", "members", "values", "baseline"):
            dtype = np.int64 if name in ("owner", "members") else np.float64
            object.__setattr__(self, name, _frozen(getattr(self, name), dtype, name))
        n, rows, members = self.n, self.owner.size, self.members
        if members.ndim != 2 or members.shape[0] != rows or self.values.shape != (rows,):
            raise InputError("owner, members and values disagree in shape")
        if np.any((self.owner < 0) | (self.owner >= n)):
            raise InputError(f"row owner outside [0, {n})")
        finite, base_finite = np.isfinite(self.values), np.isfinite(self.baseline)
        if not (finite.all() and base_finite.all()):
            units = np.append(self.owner[~finite], np.flatnonzero(~base_finite))
            raise InputError(f"unit {units.min()}: coefficients must be finite")
        # per row, in the order checked: order, then sorted and unique
        for a, m in _row_blocks(members):
            order = (m != n).sum(axis=1)
            unsorted = np.any((m[:, :-1] >= m[:, 1:]) & (m[:, 1:] != n), axis=1)
            bad = np.stack([order > self.beta_star, (order == 0) | unsorted])
            if bad.any():
                r = a + int(np.flatnonzero(bad.any(axis=0))[0])
                i, s = int(self.owner[r]), self._key(r)
                if bad[0, r - a]:
                    raise InputError(f"unit {i}: subset {s} exceeds beta_star={self.beta_star}")
                raise InputError(f"unit {i}: subset key {s} not sorted unique")

    @classmethod
    def from_dicts(
        cls, beta_star: int, coeffs: Sequence[dict[tuple[int, ...], float]]
    ) -> "LowOrderModel":
        """Build from coeffs[i], a dict mapping sorted member tuples S (subsets
        of N_i) to the coefficient of prod_{j in S} z_j in unit i's outcome;
        the empty tuple key holds the baseline Y_i(0) and must be present.
        Rows keep each dict's insertion order."""
        n = len(coeffs)
        keys = list(itertools.chain.from_iterable(coeffs))
        if len(keys) > _MAX_KEYS:
            raise CapacityError(
                f"model holds {len(keys)} subset keys, over the {_MAX_KEYS} guard"
            )
        values = np.fromiter(itertools.chain.from_iterable(map(dict.values, coeffs)), float)
        owner = np.repeat(np.arange(n), np.fromiter(map(len, coeffs), np.int64, n))
        lens = np.fromiter(map(len, keys), np.int64, len(keys))
        base = lens == 0
        missing = np.flatnonzero(np.bincount(owner[base], minlength=n) == 0)
        if missing.size:
            raise InputError(f"unit {missing[0]} has no baseline (empty subset) entry")
        flat = np.fromiter(itertools.chain.from_iterable(keys), np.int64, int(lens.sum()))
        rows = np.repeat(np.arange(len(keys)), lens)
        outside = rows[(flat < 0) | (flat >= n)]
        if outside.size:
            r = outside[0]
            raise InputError(f"unit {owner[r]}: subset {keys[r]} not within its neighborhood")
        members = np.full((len(keys), max(beta_star, 1, int(lens.max(initial=0)))), n)
        members[rows, np.arange(flat.size) - (np.cumsum(lens) - lens)[rows]] = flat
        baseline = np.zeros(n)
        baseline[owner[base]] = values[base]
        return cls(beta_star, *_sealed(owner[~base], members[~base], values[~base], baseline))

    @property
    def n(self) -> int:
        return self.baseline.size

    @property
    def order(self) -> np.ndarray:
        """Members in each row."""
        return (self.members != self.n).sum(axis=1)

    @property
    def coeffs(self) -> tuple[dict[tuple[int, ...], float], ...]:
        """The from_dicts view: per unit, the baseline, then its rows in order."""
        out, pad = [{(): b} for b in self.baseline.tolist()], self.n
        for i, row, v in zip(self.owner.tolist(), self.members.tolist(), self.values.tolist()):
            out[i][tuple(j for j in row if j != pad)] = v
        return tuple(out)

    def _key(self, r: int) -> tuple[int, ...]:
        return tuple(j for j in self.members[r].tolist() if j != self.n)

    def __eq__(self, other) -> bool:
        if not isinstance(other, LowOrderModel):
            return NotImplemented
        return self is other or self.beta_star == other.beta_star and all(
            np.array_equal(getattr(self, f), getattr(other, f))
            for f in ("owner", "members", "values", "baseline")
        )

    def _validate(self, g: InterferenceGraph) -> None:
        """Check each subset against N_i, once per graph (kept by identity)."""
        if self._graph is g:
            return
        if self.n != g.n:
            raise InputError(f"model has {self.n} units but graph has {g.n}")
        # CSR rows are sorted, so (unit, neighbor) keys are too
        keys = np.repeat(np.arange(g.n), g.degrees) * g.n + g.indices
        for a, member in _row_blocks(self.members):
            want = self.owner[a : a + member.shape[0], None] * g.n + member
            at = np.minimum(np.searchsorted(keys, want), keys.size - 1)
            bad = (member != g.n) & ((keys[at] != want) | (member < 0) | (member > g.n))
            if bad.any():
                r = a + int(np.flatnonzero(bad.any(axis=1))[0])
                raise InputError(
                    f"unit {self.owner[r]}: subset {self._key(r)} not within its neighborhood"
                )
        object.__setattr__(self, "_graph", g)


@dataclass(frozen=True, eq=False)
class ClusterAggregatedModel:
    """Coefficients re-keyed by the clusters of clustering their subsets touch.

    Row r holds x_{i,U} = values[r] for i = owner[r] and U the entries of
    members[r] other than the pad index m: the sum of c_{i,S} over keyed
    non-empty subsets S whose members' clusters are exactly U. Rows are
    sorted by (owner, U); x_{i,()} is baseline[i]. model is the unit-level
    model and stats the cluster neighborhoods it was keyed on, both set only
    by cluster_aggregate: the model and stats of one lift, in one value.
    """

    owner: np.ndarray
    members: np.ndarray
    values: np.ndarray
    model: LowOrderModel
    stats: ClusterStats

    @property
    def beta_star(self) -> int:
        return self.model.beta_star

    @property
    def baseline(self) -> np.ndarray:
        return self.model.baseline

    @property
    def m(self) -> int:
        return self.stats.m

    @property
    def order(self) -> np.ndarray:
        """Clusters in each row."""
        return (self.members < self.m).sum(axis=1)


def evaluate(model: LowOrderModel, g: InterferenceGraph, z) -> np.ndarray:
    """Outcome vector under treatment assignment z (entries 0/1)."""
    z = np.asarray(z)
    if z.shape != (g.n,):
        raise InputError(f"z has shape {z.shape}, expected ({g.n},)")
    zf = z.astype(np.float64)
    if not np.all((zf == 0.0) | (zf == 1.0)):
        raise InputError("z entries must be 0 or 1")
    model._validate(g)
    y = model.baseline.copy()
    if model.values.size:
        zpad = np.append(zf, 1.0)
        # a block of rows at a time, added into zeros in row order, the sums
        # np.bincount gives; it would copy the read-only owner array
        terms = np.zeros(g.n)
        for a, members in _row_blocks(model.members):
            rows = slice(a, a + members.shape[0])
            np.add.at(terms, model.owner[rows], model.values[rows] * zpad[members].prod(axis=1))
        y += terms
    return y


def _cluster_keys(model: LowOrderModel, stats: ClusterStats) -> ClusterAggregatedModel:
    """Re-key the model's subsets by the clusters their members fall in.
    This is the one map from unit subsets S to their cluster images U.

    Under a cluster-constant assignment prod_{j in S} z_j = prod_{C in U} w_C
    with U the set of clusters of S, so coefficients sharing an
    (owner, U) pair add up, in their original order. Repeated clusters
    collapse (w^2 = w) and U is padded with the index m ("always 1"), which
    sorts last. Rows come back sorted by (owner, U), trailing all-pad
    columns dropped.
    """
    c, owner = stats.clustering, model.owner
    lut = np.append(c.assignment, c.m)
    # Blocks of whole units, so each (owner, U) run lies in one block. Rows
    # out of owner order are walked in stable owner order, which keeps each
    # run's rows, and so its sum, in their original order.
    perm = None if np.all(owner[1:] >= owner[:-1]) else np.argsort(owner, kind="stable")
    sorted_owner = owner if perm is None else owner[perm]
    step = max(1, _BLOCK // max(1, model.members.shape[1]))
    parts, a = [], 0
    while a < owner.size or not parts:  # a model with no rows is one empty block
        b = min(a + step, owner.size)
        b = int(np.searchsorted(sorted_owner, sorted_owner[b - 1], "right")) if b else 0
        rows = slice(a, b) if perm is None else perm[a:b]
        parts.append(_keyed_block(lut, c.m, owner[rows], model.members[rows], model.values[rows]))
        a = b
    width = max(len(block) for _, block, _ in parts)
    at = np.cumsum([0] + [keys.size for keys, _, _ in parts])
    cols = np.full((width, at[-1]), c.m, dtype=np.int64)
    for (_, block, _), start, stop in zip(parts, at[:-1], at[1:]):
        cols[: len(block), start:stop] = block
    keys = np.concatenate([keys for keys, _, _ in parts])
    values = np.concatenate([vals for _, _, vals in parts])
    return ClusterAggregatedModel(keys, cols.T, values, model, stats)


def _keyed_block(lut, m, owner, members, values) -> tuple:
    """(owner, cluster columns, summed values) of the distinct (owner, U)
    keys of a block of rows, sorted, with all-pad columns dropped."""
    # cmap[j] is every row's j-th cluster, one contiguous sort key per column
    cmap = np.empty(members.shape[::-1], dtype=np.int64)
    for j, col in enumerate(members.T):
        cmap[j] = lut[col]
    cmap.sort(axis=0)
    cmap[1:][cmap[1:] == cmap[:-1]] = m
    cmap.sort(axis=0)
    # each row's clusters come first, so the first all-pad column ends them all
    width = sum(bool((col < m).any()) for col in cmap)
    columns = [owner, *cmap[:width]]
    order = np.lexsort(columns[::-1])
    # a row starts a run when any of its keys differs from the row before
    first = np.zeros(order.size, dtype=bool)
    first[:1] = True
    key = np.empty_like(order)
    for col in columns:
        key[:] = col[order]
        first[1:] |= key[1:] != key[:-1]
    # each sorted row's run, numbered from 0 in the key buffer
    np.cumsum(first, out=key)
    key -= 1
    at = order[first]
    return owner[at], cmap[:width, at], np.bincount(key, weights=values[order])


def _evaluate_hits(agg: ClusterAggregatedModel, hit: np.ndarray) -> np.ndarray:
    """Outcome matrix (R, n) from hit[r, k], 1 when every cluster of agg's
    row k is treated in draw r: Y_i = x_{i,()} + the sum of unit i's hit
    rows, in row order."""
    Y = np.tile(agg.baseline, (hit.shape[0], 1))
    if not agg.values.size:
        return Y
    # rows are sorted by owner: each unit's keys are one run
    starts = np.flatnonzero(np.diff(agg.owner, prepend=-1))
    Y[:, agg.owner[starts]] += np.add.reduceat(hit * agg.values, starts, axis=1)
    return Y


def evaluate_draws(agg: ClusterAggregatedModel, W) -> np.ndarray:
    """Outcome matrix (R, n) for the (R, m) matrix W of 0/1 cluster draws of
    agg's clustering.

    On the re-keyed model Y_i = sum_U x_{i,U} prod_{C in U} w_C, gathered
    over its keys for all R draws at once; callers bound R (the replication
    cell walks its draws in blocks). Row r depends only on draw r, whatever R.
    """
    W = _draws(W, agg.m)
    Wpad = np.ones((W.shape[0], agg.m + 1), dtype=np.int8)
    Wpad[:, :-1] = W
    if not agg.members.size:
        return _evaluate_hits(agg, Wpad[:, :0])
    hit = Wpad[:, agg.members[:, 0]]
    for col in agg.members.T[1:]:
        hit &= Wpad[:, col]
    return _evaluate_hits(agg, hit)


def _sequential_sum(x: np.ndarray) -> float:
    """0.0 + x[0] + x[1] + ..., left to right: a Python accumulation loop."""
    return float(np.cumsum(np.append(0.0, x))[-1])


def true_tte(model: LowOrderModel) -> float:
    """Exact total treatment effect: the average over units of the sum of
    non-empty coefficients."""
    # added in place, in row order: np.bincount would copy the read-only rows
    per_unit = np.zeros(model.n)
    np.add.at(per_unit, model.owner, model.values)
    return _sequential_sum(per_unit) / model.n


def gen_cycle_model(g: InterferenceGraph, beta_star: int) -> LowOrderModel:
    """Ring response model: every k-subset of N_i gets coefficient
    binom(d_i, k)^{-1} 2^{-k}, so each order k contributes exactly 2^{-k}
    to every unit's treatment effect, and the baseline is 1.

    Rows run unit by unit, each in itertools.combinations order by k; one
    template of neighborhood positions per distinct degree is applied to
    the units of that degree, a block of units at a time.
    """
    deg = g.degrees
    if beta_star < 1 or beta_star > int(deg.min()):
        raise InputError(
            f"beta_star={beta_star} must lie in [1, min degree={int(deg.min())}]"
        )
    ds, inv = np.unique(deg, return_inverse=True)
    orders = range(1, beta_star + 1)
    counts = np.array([sum(math.comb(d, k) for k in orders) for d in ds.tolist()])[inv]
    if int(counts.sum()) + g.n > _MAX_KEYS:
        raise CapacityError(f"cycle model would exceed the {_MAX_KEYS} subset-key guard")
    owner = np.repeat(np.arange(g.n), counts)
    first = np.cumsum(counts) - counts
    members = np.empty((owner.size, beta_star), dtype=np.int64)
    values = np.empty(owner.size)
    gather = np.append(g.indices, g.n)  # its last entry is the pad index
    for j, d in enumerate(ds.tolist()):
        combos = [c for k in orders for c in itertools.combinations(range(d), k)]
        template = np.array([c + (-1,) * (beta_star - len(c)) for c in combos])
        coef = [0.5 ** len(c) / math.comb(d, len(c)) for c in combos]
        of_degree = np.flatnonzero(inv == j)
        step = max(1, _BLOCK // template.size)
        for a in range(0, of_degree.size, step):
            units = of_degree[a : a + step]
            at = np.where(template >= 0, g.indptr[units][:, None, None] + template, -1)
            rows = (first[units][:, None] + np.arange(len(combos))).ravel()
            members[rows] = gather[at].reshape(-1, beta_star)
            values[rows] = np.tile(coef, units.size)
    return LowOrderModel(beta_star, *_sealed(owner, members, values, np.ones(g.n)))


def gen_named_model(g: InterferenceGraph, kind: str, seed: int) -> LowOrderModel:
    """The three first-order benchmark models (null, weak, strong).

    All share a baseline (0.5 + 0.1 * standard normal) * d_i / d_max drawn in
    unit order from default_rng(seed), so models with the same seed agree
    across designs.

      null    no interference coefficients; TTE = 0
      weak    c_{i,{i}} = 1/2 and c_{i,{j}} = 1/(2(d_i - 1)); TTE_i = 1
              whenever d_i >= 2
      strong  c_{i,{i}} = d_i/2 and c_{i,{j}} = 1/2; TTE_i grows with degree

    Each unit's rows hold {i} first, then its other in-neighbors ascending.
    """
    if kind not in ("null", "weak", "strong"):
        raise InputError(f"unknown model kind {kind!r}")
    if seed < 0:
        raise InputError(f"seed must be nonnegative, got {seed}")
    deg = g.degrees
    noise = np.random.default_rng(seed).standard_normal(g.n)
    baseline = (0.5 + 0.1 * noise) * deg / int(deg.max())
    owner = np.repeat(np.arange(g.n), deg)
    order = np.argsort(2 * owner + (g.indices != owner), kind="stable")
    if kind == "null":
        order = order[:0]
    owner, members = owner[order], g.indices[order[:, None]]
    own, d = members[:, 0] == owner, deg[owner]
    if kind == "weak":
        values = np.where(own, 0.5, 1.0 / (2.0 * np.maximum(d - 1, 1)))
    else:
        values = np.where(own, d / 2.0, 0.5)
    return LowOrderModel(1, *_sealed(owner, members, values, baseline))


def cluster_aggregate(model: LowOrderModel, stats: ClusterStats) -> ClusterAggregatedModel:
    """Sum coefficients over subsets with the same cluster image.

    x_{i,U} collects every keyed c_{i,S} whose members' clusters under
    stats.clustering are exactly the set U, after the model is checked
    against stats.graph (its n first). The result carries model and stats.
    """
    model._validate(stats.graph)
    return _cluster_keys(model, stats)


def outcome_bound(model: LowOrderModel, g: InterferenceGraph) -> float:
    """Uniform outcome magnitude bound B with |Y_i(z)| <= B for all i, z.

    Multilinearity brackets each unit's outcome between the baseline plus all
    negative coefficients and the sum of all positive ones, so the bound is
    max over units of max(sum of positive coefficients, |baseline + sum of
    negative non-empty coefficients|). The bracket is attained whenever the
    non-empty coefficients share a sign (in particular for any first-order
    model).
    """
    model._validate(g)
    # per unit, added in place in row order (np.bincount would copy the
    # read-only rows), the positive part after the baseline
    pos = np.where(model.baseline > 0, model.baseline, 0.0)
    np.add.at(pos, model.owner, np.where(model.values > 0, model.values, 0.0))
    neg = np.zeros(model.n)
    np.add.at(neg, model.owner, np.where(model.values < 0, model.values, 0.0))
    return float(max(0.0, pos.max(), np.abs(model.baseline + neg).max()))


def mixed_signs(agg: ClusterAggregatedModel) -> bool:
    """True when the non-empty aggregated coefficients contain both strictly
    positive and strictly negative entries."""
    return bool(np.any(agg.values > 0) and np.any(agg.values < 0))


# ---------------------------------------------------------------------------
# text round-trip: "unit<TAB>comma-separated-subset<TAB>value", empty subset
# written as "-"
# ---------------------------------------------------------------------------


def save_model(model: LowOrderModel, out: str | TextIO) -> None:
    """Write the model to a path, or to an open text stream: per unit, the
    baseline, then its rows in the model's order, which load_model keeps.
    The file records no order, which load_model reads as the widest row's
    (at least 1), so a model of any other order is an InputError."""
    widest = max(1, int(model.order.max(initial=0)))
    if model.beta_star != widest:
        raise InputError(f"model of order {model.beta_star} would read back at order {widest}")
    _write_lines(
        (
            f"{i}\t{','.join(str(j) for j in s) if s else '-'}\t{v!r}\n"
            for i, cmap in enumerate(model.coeffs)
            for s, v in cmap.items()
        ),
        out,
    )


def load_model(path: str, n: int) -> LowOrderModel:
    """Read a model saved by save_model. The order bound is inferred as the
    largest subset size present (at least 1); missing baselines default to 0."""
    coeffs: list[dict[tuple[int, ...], float]] = [dict() for _ in range(n)]
    beta_star = 1
    for where, raw in _read_lines(path):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            raise InputError(f"{where}: expected 'unit<TAB>subset<TAB>value'")
        try:
            unit = int(parts[0])
            subset = (
                ()
                if parts[1] == "-"
                else tuple(sorted(int(tok) for tok in parts[1].split(",")))
            )
            value = float(parts[2])
        except ValueError:
            raise InputError(f"{where}: malformed field")
        if not (0 <= unit < n):
            raise InputError(f"{where}: unit {unit} out of range for n={n}")
        if any(a == b for a, b in zip(subset, subset[1:])):
            raise InputError(f"{where}: unit {unit}: subset {subset} repeats a member")
        if subset and not (0 <= subset[0] and subset[-1] < n):
            raise InputError(f"{where}: unit {unit}: subset {subset} outside [0, {n})")
        if subset in coeffs[unit]:
            raise InputError(f"{where}: duplicate subset for unit {unit}")
        coeffs[unit][subset] = value
        beta_star = max(beta_star, len(subset))
    for cmap in coeffs:
        cmap.setdefault((), 0.0)
    return LowOrderModel.from_dicts(beta_star, coeffs)
