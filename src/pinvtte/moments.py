"""Design moment matrices over subset indexes and their pseudoinverses.

Everything here lives at the cluster level. For a unit with cluster
neighborhood of size c, the relevant matrix is indexed by the subsets of
those c clusters up to size beta, in canonical order (empty set first, then
size ascending, lexicographic within a size). Entries are joint treatment
probabilities E[prod_{C in U union V} w_C], which depend only on |U union V|
for both designs in the package, so closed forms are available, and
analytic_cluster_moments picks the one of its design:

  Bernoulli(p):  entry p^{|U union V|}; the pseudoinverse has entries
                 (-1/p)^{|V|+|W|} sum over indexed supersets X of V union W
                 of (p/(1-p))^{|X|}.
  Complete(m,k): entry is the falling-factorial ratio
                 prod_{l<|U union V|} (k-l)/(m-l); at beta = 1 the inverse
                 (or pseudoinverse, when the neighborhood spans all clusters)
                 is written out explicitly.

Since entries depend only on |U union V|, M^+ theta is constant on each
subset-size class, v[U] = a_{|U|}, and size_class_pinv returns a_0..a_beta
without the dense system. The dense SubsetIndex systems serve as the
reference it is tested against and for the Monte Carlo estimate.

Numeric SVD pseudoinversion and Monte Carlo moment estimation cover designs
or orders with no closed form, and double as cross-checks in tests.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .clustering import cluster_stats
from .design import Design, _falling_ratio, _sample_draws, joint_treat_prob
from .errors import CapacityError, InputError
from .graph import InterferenceGraph

__all__ = [
    "SubsetIndex",
    "DesignMoments",
    "numeric_pinv",
    "monte_carlo_moments",
    "analytic_cluster_moments",
    "size_class_sums",
    "size_class_pinv",
]

_MAX_INDEX = 1_000_000  # total subsets one index may hold


class SubsetIndex:
    """Canonically ordered subsets of a ground set, capped at size beta.

    Rows are the subsets themselves (tuples of ground elements). ground is
    any iterable of sorted, distinct elements; a beta larger than it is
    legal and yields the full power set.
    """

    def __init__(self, ground, beta: int):
        ground = tuple(ground)
        if beta < 0:
            raise InputError(f"beta must be nonnegative, got {beta}")
        if tuple(sorted(set(ground))) != ground:
            raise InputError("ground set must be sorted and duplicate-free")
        c = len(ground)
        top = min(beta, c)
        total = sum(math.comb(c, x) for x in range(top + 1))
        if total > _MAX_INDEX:
            raise CapacityError(
                f"subset index would hold {total} rows, over the {_MAX_INDEX} guard"
            )
        subsets: list[tuple[int, ...]] = []
        for size in range(top + 1):
            subsets.extend(itertools.combinations(ground, size))
        self.ground = ground
        self.beta = beta
        self.subsets = tuple(subsets)
        self.sizes = np.array([len(s) for s in subsets], dtype=np.int64)
        pos_of = {g: idx for idx, g in enumerate(ground)}
        q = len(subsets)
        # 0/1 membership over ground positions, used for union-size algebra
        self.membership = np.zeros((q, c), dtype=np.int64)
        for r, s in enumerate(subsets):
            for g in s:
                self.membership[r, pos_of[g]] = 1

    def __len__(self) -> int:
        return len(self.subsets)

    def union_sizes(self) -> np.ndarray:
        """Matrix of |U union V| over pairs of subsets U, V in the index."""
        inter = self.membership @ self.membership.T
        return self.sizes[:, None] + self.sizes[None, :] - inter


@dataclass(frozen=True)
class DesignMoments:
    """A subset index together with its design moment matrix and a
    pseudoinverse. provenance records how the pseudoinverse was obtained:
    "analytic", "numeric", or "monte_carlo(R)"."""

    index: SubsetIndex
    M: np.ndarray
    M_pinv: np.ndarray
    provenance: str


def _crd_beta1_pinv(c: int, m: int, k: int) -> np.ndarray:
    """Explicit (pseudo)inverse of the (c+1) x (c+1) first-order moment
    matrix: row/column 0 is the empty set, the rest are the c singletons."""
    P = np.zeros((c + 1, c + 1))
    if c < m:
        pref = m * (m - 1) / (k * (m - k) * (m - c))
        P[0, 0] = pref * k * (m + c * (k - 1) - k) / (m - 1)
        P[0, 1:] = P[1:, 0] = -pref * k
        P[1:, 1:] = pref * 1.0
        np.fill_diagonal(P[1:, 1:], pref * (m - (c - 1)))
        return P
    # Full contact: the ground set spans every cluster and the matrix is
    # singular with a one-dimensional null space.
    pref = m / (k * (m - k) * (k**2 + m) ** 2)
    star = (m - 2) * k**4 + k**3 + 2 * (m - 1) ** 2 * k**2 + m * (m - 1) ** 2
    diamond = -(k**4) + k**3 - 2 * (m - 1) * k**2 - m * (m - 1)
    P[0, 0] = pref * m * k * (m - k)
    P[0, 1:] = P[1:, 0] = pref * k**2 * (m - k)
    P[1:, 1:] = pref * diamond
    np.fill_diagonal(P[1:, 1:], pref * star)
    return P


def numeric_pinv(M) -> np.ndarray:
    """SVD pseudoinverse with a fixed relative truncation threshold.

    Singular values at or below dim * sigma_max * 2^-52 are dropped, the
    standard scale below which singular values are indistinguishable from
    rounding noise.

    Raises
    ------
    InputError
        For non-square or non-finite input.
    """
    M = np.asarray(M, dtype=np.float64)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise InputError(f"pseudoinverse needs a square matrix, got {M.shape}")
    if not np.all(np.isfinite(M)):
        raise InputError("matrix has non-finite entries")
    u, s, vt = np.linalg.svd(M)
    keep = s > M.shape[0] * (s[0] if s.size else 0.0) * 2.0**-52
    inv = np.zeros_like(s)
    inv[keep] = 1.0 / s[keep]
    return (vt.T * inv) @ u.T


def monte_carlo_moments(
    d: Design, g: InterferenceGraph, i: int, beta: int, R: int, seed: int
) -> DesignMoments:
    """Estimate unit i's cluster moment matrix from R design draws.

    Replicate r uses the (seed, r) stream, so estimates are reproducible and
    draw-parallel. The pseudoinverse is numeric.
    """
    if not 0 <= i < g.n:
        raise InputError(f"unit {i} outside [0, {g.n})")
    W = _sample_draws(d, seed, R)
    stats = cluster_stats(g, d.clustering)
    ids = stats.cluster_ids[stats.indptr[i] : stats.indptr[i + 1]]
    return _mc_moments(W, tuple(ids.tolist()), beta)


def _mc_moments(W: np.ndarray, ground: tuple[int, ...], beta: int) -> DesignMoments:
    """Moment estimate over a cluster ground set from the (R, m) draws W of
    design._sample_draws."""
    R = W.shape[0]
    index = SubsetIndex(ground, beta)
    cols = np.array(ground, dtype=np.int64)
    counts = W[:, cols].astype(np.float64) @ index.membership.T.astype(np.float64)
    ind = (counts == index.sizes[None, :]).astype(np.float64)
    M = (ind.T @ ind) / R
    return DesignMoments(
        index=index, M=M, M_pinv=numeric_pinv(M), provenance=f"monte_carlo({R})"
    )


def analytic_cluster_moments(d: Design, ground, beta: int) -> DesignMoments:
    """Closed-form moments for design d over SubsetIndex(ground, beta).

    Bernoulli entries are p^{|U union V|}, with a closed-form pseudoinverse
    (CapacityError once it overflows). Complete-design entries are the
    probability that |U union V| given clusters are all treated; the
    pseudoinverse is explicit at beta = 1 (rank-deficient when the ground
    set spans all m clusters) and numeric above. A ground set wider than
    the complete design's m clusters raises InputError.
    """
    index = SubsetIndex(ground, beta)
    c = len(index.ground)
    usize = index.union_sizes()
    if d.is_bernoulli:
        p = d.p
        top = min(beta, c)
        M = p**usize.astype(np.float64)
        # T[u] = sum over indexed supersets X of a size-u subset of (p/(1-p))^|X|
        r = p / (1.0 - p)
        T = np.zeros(usize.max() + 1)
        for u in range(top + 1):
            T[u] = sum(math.comb(c - u, x - u) * r**x for x in range(u, top + 1))
        with np.errstate(over="ignore", invalid="ignore"):
            sign = (-1.0 / p) ** index.sizes.astype(np.float64)
            P = _bernoulli_finite(
                lambda: np.outer(sign, sign) * T[usize], p, beta, c, "pseudoinverse entries"
            )
        return DesignMoments(index=index, M=M, M_pinv=P, provenance="analytic")
    if c > d.m:
        raise InputError(f"ground set has {c} clusters but the design only {d.m}")
    ff = np.array([_falling_ratio(d.k, d.m, t) for t in range(usize.max() + 1)])
    M = ff[usize]
    if index.sizes.max(initial=0) <= 1:
        P = _crd_beta1_pinv(c, d.m, d.k)
        return DesignMoments(index=index, M=M, M_pinv=P, provenance="analytic")
    return DesignMoments(index=index, M=M, M_pinv=numeric_pinv(M), provenance="numeric")


def size_class_sums(values, c: int, rows: int, cols: int) -> np.ndarray:
    """Union-size sums over the size classes of a c-element ground set.

    K[s, t] = sum_i C(s, i) C(c-s, t-i) values[s+t-i] for s <= rows and
    t <= cols: the sum of values[|U union V|] over all size-t subsets V, for
    any fixed size-s subset U (i counts the shared elements). values must
    cover union sizes up to min(c, rows + cols).
    """
    K = np.zeros((rows + 1, cols + 1))
    for s in range(rows + 1):
        for t in range(cols + 1):
            K[s, t] = sum(
                math.comb(s, i) * math.comb(c - s, t - i) * values[s + t - i]
                for i in range(max(0, t - (c - s)), min(s, t) + 1)
            )
    return K


def _bernoulli_finite(f, p: float, beta: int, c: int, what: str):
    """f(), a Bernoulli closed form in powers of 1/p or 1/(1-p), or CapacityError
    once it leaves double precision (** raises OverflowError; * and / give inf)."""
    try:
        out = f()
    except OverflowError:
        out = math.inf
    if not np.isfinite(out).all():
        raise CapacityError(
            f"p={p!r}: the order-{beta} {what} of a neighborhood of c={c} clusters "
            "overflow double precision"
        )
    return out


def size_class_pinv(d: Design, c: int, beta: int) -> np.ndarray:
    """Per-size coefficients a_0..a_min(beta, c) of M^+ theta for a cluster
    neighborhood of c clusters under design d: v[U] = a_{|U|}.

    Bernoulli designs sum the closed-form pseudoinverse entries over the size
    classes of V, with no numeric solve. The complete design pseudo-inverts
    the (beta+1)-square restriction of M to the size-class indicators, on
    their orthonormal basis: M is symmetric and maps that subspace to itself,
    so M^+ restricted there is the pseudoinverse of the restriction.
    """
    if c < 0 or beta < 0:
        raise InputError(f"c and beta must be nonnegative, got c={c}, beta={beta}")
    top = min(beta, c)
    if d.is_bernoulli:
        # v[U] = sum_{V nonempty} (-1/p)^{|U|+|V|} T[|U union V|]; writing T
        # as a sum over supersets X of U union V and summing V over the
        # subsets of X first, with (p/(1-p)) (1 - 1/p) = -1, leaves
        # (-1/p)^s sum over X containing U, |X| <= beta, of
        # (-1)^|X| - (p/(1-p))^|X|, free of cancellation between entries
        p = d.p
        r = p / (1.0 - p)
        return _bernoulli_finite(
            lambda: np.array(
                [
                    (-1.0 / p) ** s
                    * sum(
                        math.comb(c - s, x - s) * ((-1.0) ** x - r**x)
                        for x in range(s, top + 1)
                    )
                    for s in range(top + 1)
                ]
            ),
            p, beta, c, "pseudoinverse weights",
        )
    length = min(c, 2 * top) + 1  # largest union of two indexed subsets
    probs = [joint_treat_prob(d, u) for u in range(length)]
    root = np.sqrt([float(math.comb(c, s)) for s in range(top + 1)])
    reduced = size_class_sums(probs, c, top, top) * root[:, None] / root[None, :]
    return (numeric_pinv(reduced)[:, 1:] @ root[1:]) / root

