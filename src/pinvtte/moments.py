"""Design moment matrices over subset indexes and their pseudoinverses.

Everything here lives at the cluster level. For a unit with cluster
neighborhood of size c, the relevant matrix M is indexed by the subsets of
those c clusters up to size beta, in canonical order (empty set first, then
size ascending, lexicographic within a size). Entries are joint treatment
probabilities E[prod_{C in U union V} w_C], which depend only on |U union V|
for both designs in the package: pi(|U union V|) of the design's exact law
(design._exact_probs), p^u under Bernoulli(p) and C(k, u) / C(m, u) under
the complete design. analytic_cluster_moments builds M from that law with a
closed-form pseudoinverse.

So M^+ theta is constant on each subset-size class, v[U] = a_{|U|}, and
_exact_pinv returns a_0..a_beta in exact rationals without the dense system:
in closed form for Bernoulli designs, by a rational solve for the complete
design. Every number derived from the a_s is summed exactly from them and
rounded once, by _pinv_sums: the pinv weight table sum_s a_s C(t, s), the
quadform gamma sum_{s >= 1} C(c, s) a_s, and size_class_pinv, the public
float view of the a_s themselves. A value past double precision is a
CapacityError that names it. The dense SubsetIndex systems serve as the
reference these are tested against and for the Monte Carlo estimate.

Numeric SVD pseudoinversion serves the Monte Carlo estimates and the dense
complete-design systems above beta = 1; no estimator weight, exact bias or
quadform bound reads it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .clustering import cluster_stats
from .design import Design, _exact_probs, _sample_draws
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

    Entries are pi(|U union V|) of the design's exact law, rounded once.
    Bernoulli designs take a closed-form pseudoinverse (CapacityError once
    it overflows); the complete design's is explicit at beta = 1
    (rank-deficient when the ground set spans all m clusters) and numeric
    above. A ground set holding a cluster id outside [0, m) of the design
    raises InputError.
    """
    index = SubsetIndex(ground, beta)
    c = len(index.ground)
    if c and (index.ground[0] < 0 or index.ground[-1] >= d.m):
        raise InputError(
            f"ground set spans cluster ids {index.ground[0]}..{index.ground[-1]}"
            f" but the design has clusters 0..{d.m - 1}"
        )
    usize = index.union_sizes()
    M = np.array([float(x) for x in _exact_probs(d, range(usize.max() + 1))])[usize]
    if d.is_bernoulli:
        p = d.p
        top = min(beta, c)
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
    if index.sizes.max(initial=0) <= 1:
        P = _crd_beta1_pinv(c, d.m, d.k)
        return DesignMoments(index=index, M=M, M_pinv=P, provenance="analytic")
    return DesignMoments(index=index, M=M, M_pinv=numeric_pinv(M), provenance="numeric")


def size_class_sums(values, c: int, rows: int, cols: int) -> np.ndarray:
    """Union-size sums over the size classes of a c-element ground set.

    K[s, t] = sum_i C(s, i) C(c-s, t-i) values[s+t-i] for s <= rows and
    t <= cols: the sum of values[|U union V|] over all size-t subsets V, for
    any fixed size-s subset U (i counts the shared elements). values must
    cover union sizes up to min(c, rows + cols). K takes the dtype of values:
    float, or object for exact sums of Fractions.
    """
    K = np.zeros((rows + 1, cols + 1), dtype=np.asarray(values[:1]).dtype)
    for s in range(rows + 1):
        for t in range(cols + 1):
            K[s, t] = sum(
                math.comb(s, i) * math.comb(c - s, t - i) * values[s + t - i]
                for i in range(max(0, t - (c - s)), min(s, t) + 1)
            )
    return K


def _bernoulli_finite(f, p: float, beta: int, c: int, what: str):
    """f(), a Bernoulli closed form in powers of 1/p or 1/(1-p) or an exact sum
    rounded by int / int, or CapacityError once it leaves double precision
    (** and int / int raise OverflowError; float * and / give inf)."""
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


def _rref(R: list) -> list:
    """R, a list of rows of Fractions, brought to reduced row echelon form in place."""
    r = 0
    for col in range(len(R[0])):
        hit = next((i for i in range(r, len(R)) if R[i][col]), None)
        if hit is not None:
            R[r], R[hit] = R[hit], R[r]
            R[r] = [x / R[r][col] for x in R[r]]
            for i in range(len(R)):
                if i != r and R[i][col]:
                    R[i] = [x - R[i][col] * y for x, y in zip(R[i], R[r])]
            r += 1
    return R


def _exact_pinv(d: Design, c: int, beta: int) -> list[Fraction]:
    """size_class_pinv's a_0..a_min(beta, c) in exact rationals.

    Bernoulli designs sum the closed-form pseudoinverse entries over the
    size classes of V: v[U] = sum_{V nonempty} (-1/p)^{|U|+|V|} T[|U union V|];
    writing T as a sum over supersets X of U union V and summing V over the
    subsets of X first, with (p/(1-p)) (1 - 1/p) = -1, leaves (-1/p)^s sum
    over X containing U, |X| <= beta, of (-1)^|X| - (p/(1-p))^|X|, here over
    the common denominator of p = a/b.

    The complete design solves the size-class system K = size_class_sums of
    pi. K is self-adjoint under D = diag C(c, s), so null(K) = D^-1 Y' for
    the rows Y K = 0, D-orthogonal to range(K). The bordered system
    K a + D^-1 Y' l = e, Y a = 0 splits e = [s >= 1] along them, so
    a = K^+ e: the a of (K + Q)^-1 e - Q e, Q the D-orthogonal projector
    onto null(K). InputError for a neighborhood of more than m clusters.
    """
    top = int(min(beta, c))  # exact integer powers, also for a numpy beta
    size = range(top + 1)
    if d.is_bernoulli:
        a, b = Fraction(d.p).as_integer_ratio()
        q = b - a
        S = (sum(math.comb(c - s, x - s) * ((-q) ** x - a**x) * q ** (top - x) for x in size[s:])
             for s in size)
        return [Fraction((-b) ** s * S_s, a**s * q**top) for s, S_s in zip(size, S)]
    if c > d.m:
        raise InputError(f"a neighborhood of c={c} clusters is wider than the design's m={d.m}")
    K = size_class_sums(_exact_probs(d, range(min(c, 2 * top) + 1)), c, top, top)
    # rows of [K | I] reduced to [0 | Y] hold a basis Y of the left null space
    R = _rref([row + [Fraction(s == t) for t in size] for s, row in enumerate(K.tolist())])
    Y = [row[len(size) :] for row in R if not any(row[: len(size)])]
    A = [[*K[s], *(y[s] / math.comb(c, s) for y in Y), int(s > 0)] for s in size]
    return [row[-1] for row in _rref(A + [y + [0] * (len(Y) + 1) for y in Y])[: len(size)]]


def _pinv_sums(d: Design, c: int, beta: int, rows, what: str) -> np.ndarray:
    """rows @ a for integer rows (a 2-D array or nested list of ints, one
    column per a_s), over the a_0..a_min(beta, c) of one exact solve
    (_exact_pinv), each sum exact and rounded once.

    Every number derived from the a_s goes through here: the pinv weight
    table, the quadform gamma and size_class_pinv. CapacityError if an a_s
    overflows double precision (naming pseudoinverse weights) or a sum does
    (naming what).
    """
    a = _exact_pinv(d, c, beta)
    # integer numerators over one common denominator: int / int rounds
    # correctly, so each quotient is float() of its exact rational
    den = math.lcm(*(x.denominator for x in a))
    num = np.array([x.numerator * (den // x.denominator) for x in a], dtype=object)
    _bernoulli_finite(
        lambda: (num / den).astype(np.float64), d.p, beta, c, "pseudoinverse weights"
    )
    sums = np.asarray(rows, dtype=object) @ num
    return _bernoulli_finite(lambda: (sums / den).astype(np.float64), d.p, beta, c, what)


def size_class_pinv(d: Design, c: int, beta: int) -> np.ndarray:
    """Per-size coefficients a_0..a_min(beta, c) of M^+ theta for a cluster
    neighborhood of c clusters under design d: v[U] = a_{|U|}.

    _exact_pinv takes them in exact rationals from the design's law, for
    either design, and each a_s is rounded once: the float size-class system
    of the complete design has condition numbers past 1e15 (m = 1000,
    k = 500, c = 300, beta = 4). This is the public float view of the a_s;
    the estimator and bound paths sum the exact a_s through _pinv_sums
    instead. CapacityError if one overflows double precision; InputError if
    c passes the complete design's m.
    """
    if c < 0 or beta < 0:
        raise InputError(f"c and beta must be nonnegative, got c={c}, beta={beta}")
    size = min(beta, c) + 1
    return _pinv_sums(d, c, beta, np.eye(size, dtype=np.int64), "pseudoinverse weights")
