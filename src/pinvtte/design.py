"""Randomized treatment designs over clusters.

All three designs in the package assign treatment at the cluster level and
broadcast it to units; unit-level Bernoulli randomization is the singleton
clustering as a special case. Draws are indexed by (seed, replicate) through
counter-style generator construction, so replicate r of a run can be
regenerated in isolation.

_exact_probs states each design's law once, in exact rationals: pi(u), the
probability that u given clusters are all treated, is p^u under Bernoulli(p)
and C(k, u) / C(m, u) under the complete design; the all-untreated law puts
1-p or m-k in their place. The joint probabilities below and the pinv, HT
and exact-bias rows of the package are rounded once from it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .clustering import Clustering, singleton_clustering
from .errors import CapacityError, InputError

__all__ = [
    "Design",
    "AssignmentDraw",
    "bernoulli_unit",
    "bernoulli_gcr",
    "complete_gcr",
    "sample",
    "draw_from_w",
    "enumerate_support",
    "joint_treat_prob",
    "joint_control_prob",
]

# enumerate_support hard guards
_MAX_BERN_CLUSTERS = 20  # 2^20 support points
_MAX_CRD_SUPPORT = 1_000_000


@dataclass(frozen=True)
class Design:
    """A cluster-randomized design.

    variant is one of "bernoulli_unit", "bernoulli_gcr", "complete_gcr".
    Bernoulli designs treat each cluster independently with probability p;
    the complete design treats a uniformly random k-subset of the m clusters.
    """

    variant: str
    clustering: Clustering
    p: float | None = None
    k: int | None = None

    def __post_init__(self) -> None:
        if self.variant in ("bernoulli_unit", "bernoulli_gcr"):
            if self.p is None or not (0.0 < self.p < 1.0):
                raise InputError(f"treatment probability p={self.p} not in (0, 1)")
            if self.k is not None:
                raise InputError("bernoulli designs take no k")
        elif self.variant == "complete_gcr":
            m = self.clustering.m
            if self.k is None or not (1 <= self.k <= m - 1):
                raise InputError(f"k={self.k} outside [1, m-1] for m={m} clusters")
            if self.p is not None:
                raise InputError("complete design takes no p")
        else:
            raise InputError(f"unknown design variant {self.variant!r}")

    @property
    def m(self) -> int:
        return self.clustering.m

    @property
    def n(self) -> int:
        return self.clustering.n

    @property
    def is_bernoulli(self) -> bool:
        return self.variant != "complete_gcr"


@dataclass(frozen=True)
class AssignmentDraw:
    """One realized assignment: cluster treatments w and their unit lift z."""

    w: np.ndarray
    z: np.ndarray


def bernoulli_unit(n: int, p: float) -> Design:
    return Design("bernoulli_unit", singleton_clustering(n), p=p)


def bernoulli_gcr(c: Clustering, p: float) -> Design:
    return Design("bernoulli_gcr", c, p=p)


def complete_gcr(c: Clustering, k: int) -> Design:
    return Design("complete_gcr", c, k=k)


def _draws(W, m: int) -> np.ndarray:
    """W as an int8 array, checked before the cast to be an (R, m) matrix of
    0/1 cluster draws, so no other value truncates or wraps into one."""
    W = np.asarray(W)
    if W.ndim != 2 or W.shape[1] != m:
        raise InputError(f"W has shape {W.shape}, expected (R, {m}): one row of {m} clusters")
    if not np.all((W == 0) | (W == 1)):
        raise InputError("cluster draws must be 0 or 1")
    return W.astype(np.int8, copy=False)


def draw_from_w(d: Design, w) -> AssignmentDraw:
    """Lift a cluster assignment to units via the design's clustering."""
    w = _draws(np.asarray(w)[None], d.m)[0]
    z = w[d.clustering.assignment]
    return AssignmentDraw(w=w, z=z)


def sample(d: Design, seed: int, replicate: int) -> AssignmentDraw:
    """Draw the assignment for one replicate.

    The stream for (seed, replicate) is independent of how many other
    replicates are drawn, so parallel workers and re-runs agree.
    """
    return draw_from_w(d, _sample_w(d, seed, replicate))


def _sample_w(d: Design, seed: int, replicate: int) -> np.ndarray:
    """The cluster treatments w of sample(d, seed, replicate), not lifted
    to units."""
    if seed < 0 or replicate < 0:
        raise InputError("seed and replicate must be nonnegative")
    rng = np.random.default_rng([seed, replicate])
    if d.is_bernoulli:
        return (rng.random(d.m) < d.p).astype(np.int8)
    w = np.zeros(d.m, dtype=np.int8)
    w[rng.choice(d.m, size=d.k, replace=False)] = 1
    return w


def _sample_draws(d: Design, seed: int, R: int) -> np.ndarray:
    """The (R, m) cluster treatments of the streams (seed, 0..R-1): row r
    is _sample_w(d, seed, r)."""
    if R < 1:
        raise InputError(f"need at least one draw, got R={R}")
    W = np.empty((R, d.m), dtype=np.int8)
    for r in range(R):
        W[r] = _sample_w(d, seed, r)
    return W


def enumerate_support(d: Design) -> tuple[np.ndarray, np.ndarray]:
    """The design's support as (probs, W) in a fixed deterministic order: the
    float64 (S,) point probabilities, summing to 1 up to float rounding, and
    the (S, m) int8 matrix whose row s is point s.

    Raises
    ------
    CapacityError
        Bernoulli supports are capped at 2^20 points (m <= 20); complete
        designs at binom(m, k) <= 1e6.
    """
    m = d.m
    if d.is_bernoulli:
        if m > _MAX_BERN_CLUSTERS:
            raise CapacityError(
                f"bernoulli support needs 2^{m} points, over the 2^{_MAX_BERN_CLUSTERS} guard"
            )
        # point b treats the clusters of b's set bits
        bits = np.arange(2**m)
        W = np.empty((bits.size, m), dtype=np.int8)
        for c in range(m):
            W[:, c] = (bits >> c) & 1
        probs = np.array([d.p**t * (1.0 - d.p) ** (m - t) for t in range(m + 1)])
        return probs[W.sum(axis=1)], W
    count = math.comb(m, d.k)
    if count > _MAX_CRD_SUPPORT:
        raise CapacityError(
            f"complete design support has {count} points, over the {_MAX_CRD_SUPPORT} guard"
        )
    chosen = np.fromiter(
        itertools.chain.from_iterable(itertools.combinations(range(m), d.k)),
        dtype=np.int64,
        count=count * d.k,
    )
    W = np.zeros((count, m), dtype=np.int8)
    W[np.repeat(np.arange(count), d.k), chosen] = 1
    return np.full(count, 1.0 / count), W


def joint_treat_prob(d: Design, t: int) -> float:
    """Probability that t specific clusters are all treated: pi(t), rounded once."""
    if t < 0:
        raise InputError("subset size must be nonnegative")
    return float(_exact_probs(d, [t])[0])


def joint_control_prob(d: Design, t: int) -> float:
    """Probability that t specific clusters are all untreated, rounded once."""
    if t < 0:
        raise InputError("subset size must be nonnegative")
    return float(_exact_probs(d, [t], treated=False)[0])


def _exact_probs(d: Design, sizes, treated: bool = True) -> list[Fraction]:
    """The law of the module docstring at each u of sizes, in exact
    rationals: pi(u), or with treated=False the all-untreated law. p is the
    exact value of its float."""
    if d.is_bernoulli:
        q = Fraction(d.p) if treated else 1 - Fraction(d.p)
        return [q**u for u in sizes]
    room = d.k if treated else d.m - d.k
    # C(room, u) = 0 past room, also past m, where C(m, u) = 0 as well
    return [Fraction(math.comb(room, u), math.comb(d.m, u) or 1) for u in sizes]
