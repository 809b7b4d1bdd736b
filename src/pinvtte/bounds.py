"""Exact bias, bias bounds, per-unit variance terms, and variance bounds.

The variance side revolves around the quadratic form theta' M^+ theta over a
unit's cluster moment matrix. Three sources are supported: closed forms
(exact for Bernoulli designs at any order, first-order only for the complete
design, where the closed value also carries the (c+1) scale factor its
variance analysis uses), quadforms sum_{s >= 1} C(c, s) a_s over the exact
per-size coefficients a_s of M^+ theta, summed exactly and rounded once
(moments._pinv_sums; any design and order), and quadforms from Monte Carlo
moment estimates, the one route here that takes a numeric SVD.

The bias side evaluates the exact bias identity at the cluster level: with
x the cluster-aggregated coefficients, psi the non-empty-row selector, M_w
the cluster moment matrix and Cross the rectangular joint-treatment matrix
between tail subsets and indexed subsets,

    bias_i = <x_i (orders <= beta), (M_w M_w^+ - I) psi>
           + <x_i (orders > beta), Cross M_w^+ psi - 1>.

This is algebraically identical to the unit-level identity because a unit
subset is fully treated exactly when its cluster image is, and it keeps the
computation polynomial when neighborhoods are large but touch few clusters.
Both vectors on the right depend on a cluster subset U only through its size
k (moments._exact_pinv), and both equal (M v)_k - 1 for k >= 1, with
v = M_w^+ psi; they differ only at U = (), which only the baseline reaches.
So the split by order drops out: bias_exact builds one row per neighborhood
size c, r_c[k] = (M v)_k - [k > 0] for k = 0..min(c, model order), the only
entries its gather reads, in exact rationals from the design's law and
moments._exact_pinv and rounded once for either design, and gathers it at
(c of the owner, |U|) over the model re-keyed to (unit, cluster subset)
pairs by cluster_aggregate, the baseline at |U| = 0. bias_bound_gcr reduces
the same keys with |U| > beta, which only subsets of order > beta reach:
their |x_{i,U}|, and one bincount by (owner, |U|); bias_crd reports
bias_exact at order 1 beside its full-contact bound. Callers lift once: the
bias functions take that re-keyed model, which carries the cluster_stats it
was keyed on, and clustering._same_lift rejects another clustering than the
design's. variance_bound takes both and checks that they are one lift.

The screened variance bound sums over the distinct cluster neighborhoods,
whose units share their dependents; only 0/1 incidence counts, exact in
any BLAS kernel, go through a matrix product.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .clustering import ClusterStats, _same_lift, _size_rows
from .design import Design, _exact_probs, _sample_draws
from .errors import CapacityError, InputError, PreconditionError
from .moments import (
    DesignMoments,
    _bernoulli_finite,
    _exact_pinv,
    _mc_moments,
    _pinv_sums,
    size_class_sums,
)
from .outcomes import ClusterAggregatedModel, mixed_signs

__all__ = [
    "GammaProfile",
    "BoundReport",
    "BiasBoundGCR",
    "gamma_quadform",
    "gamma_gcr_closed",
    "gamma_gcr_envelope",
    "gamma_crd",
    "gamma_profile",
    "bias_exact",
    "bias_bound_gcr",
    "bias_crd",
    "variance_bound",
]

# entries of any one array of _dependent_sums' blocks, beyond one row or column
_BLOCK = 1 << 18


def _check_order(beta: int) -> None:
    if beta < 1:
        raise InputError(f"estimator order must be at least 1, got beta={beta}")


def _check_B(B: float) -> None:
    if not 0 < B < math.inf:
        raise InputError(f"outcome bound B={B} must be positive and finite")


def _check_closed(c_size: int, beta: int, p: float) -> None:
    if not (0.0 < p < 1.0):
        raise InputError(f"treatment probability p={p} not in (0, 1)")
    if c_size < 0 or beta < 0:
        raise InputError("c_size and beta must be nonnegative")


# ---------------------------------------------------------------------------
# per-unit gamma terms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GammaProfile:
    """Per-unit variance contributions.

    gamma_sq holds theta' M^+ theta per unit. bound_sq holds the term the
    pairwise variance bound multiplies over dependent pairs: under the
    closed source the dominating closed form (Bernoulli: the min envelope;
    complete: the first-order quadform scaled by (c+1), as its variance
    analysis does), otherwise gamma_sq itself. provenance is "closed_form"
    or "quadform".
    """

    gamma_sq: np.ndarray
    bound_sq: np.ndarray
    provenance: str


def gamma_quadform(moments: DesignMoments) -> float:
    """theta' M^+ theta for an explicit moments object, where theta sums the
    effects: zero on the empty subset row, one on every other row."""
    th = np.ones(len(moments.index))
    th[0] = 0.0
    return float(th @ moments.M_pinv @ th)


def gamma_gcr_closed(c_size: int, beta: int, p: float) -> float:
    """Exact quadform under Bernoulli cluster treatment, in closed form:
    sum over x = 1..min(beta, c) of binom(c, x) [((1-p)/p)^x - 2(-1)^x +
    (p/(1-p))^x]. Symmetric in p and 1-p."""
    _check_closed(c_size, beta, p)
    r = (1.0 - p) / p

    def total() -> float:
        out = 0.0
        for x in range(1, min(beta, c_size) + 1):
            out += math.comb(c_size, x) * (r**x - 2.0 * (-1.0) ** x + r**-x)
        return out

    return _bernoulli_finite(total, p, beta, c_size, "closed-form gamma terms")


def gamma_gcr_envelope(c_size: int, beta: int, p: float) -> float:
    """The closed-form dominating envelope 2 min(q^-c, c^beta q^-beta) used
    by the per-pair variance bound for Bernoulli cluster designs.

    q = min(p, 1-p): the exact quadform is symmetric in p and 1-p while the
    raw powers of p are not, so the envelope is evaluated at the smaller
    side. At p above one half the raw-p expression sits below the quadform
    and would not be a bound at all.
    """
    _check_closed(c_size, beta, p)
    q = min(p, 1.0 - p)
    try:
        full = q ** (-c_size)
    except OverflowError:  # then the min is the other term, if that one fits
        full = math.inf
    return _bernoulli_finite(
        lambda: 2.0 * min(full, c_size**beta * q ** (-beta)),
        p, beta, c_size, "gamma envelope terms",
    )


def gamma_crd(c_size: int, m: int, k: int) -> tuple[float, float]:
    """First-order quadform and its (c+1)-scaled variant under the complete
    design. The quadform grows in c until the neighborhood spans all m
    clusters, where the rank-deficient pseudoinverse takes over and the
    value drops."""
    if not (1 <= k <= m - 1):
        raise InputError(f"k={k} outside [1, m-1] for m={m}")
    if not (0 <= c_size <= m):
        raise InputError(f"c_size={c_size} outside [0, m]")
    if c_size < m:
        quadform = c_size * (m - 1) * m**2 / (k * (m - k) * (m - c_size))
    else:
        quadform = m**2 * k**2 / (k**2 + m) ** 2
    return quadform, (c_size + 1) * quadform


def _by_size(stats: ClusterStats, f) -> np.ndarray:
    """f(c) for every unit's cluster-neighborhood size c, one call per
    distinct c."""
    values, base = _size_rows(np.diff(stats.indptr), lambda c, _: [f(c)])
    return values[base]


def gamma_profile(
    stats: ClusterStats,
    d: Design,
    beta: int,
    gamma_source: str = "closed",
    mc_samples: int = 2000,
    mc_seed: int = 0,
) -> GammaProfile:
    """Per-unit gamma terms under the requested source.

    "closed" uses the exact closed forms (Bernoulli any order, with the
    envelope as bound_sq; complete design requires beta = 1, with the
    (c+1)-scaled form as bound_sq). "quadform" sums theta' M^+ theta over
    the exact per-size coefficients, one exact solve per distinct c, and
    rounds it once, any design and order.
    "monte_carlo" computes it from moments estimated on each unit's cluster
    neighborhood in stats. Both set bound_sq to gamma_sq.
    """
    _check_order(beta)
    _same_lift(d.clustering, stats)
    if gamma_source == "closed":
        if d.is_bernoulli:
            # every quadform before any envelope, so an overflow is reported
            # for the closed-form terms first
            gamma_sq = _by_size(stats, lambda c: gamma_gcr_closed(c, beta, d.p))
            bound_sq = _by_size(stats, lambda c: gamma_gcr_envelope(c, beta, d.p))
        else:
            if beta != 1:
                raise InputError(
                    "closed-form gamma for the complete design is first-order only"
                )
            gamma_sq, bound_sq = _by_size(stats, lambda c: gamma_crd(c, d.m, d.k)).T
        return GammaProfile(gamma_sq, bound_sq, "closed_form")
    elif gamma_source == "quadform":

        def quadform(c: int) -> float:
            # theta' M^+ theta sums v = M^+ theta over the non-empty subsets:
            # sum_{s >= 1} C(c, s) a_s, exact and rounded once
            row = [math.comb(c, s) * (s > 0) for s in range(min(beta, c) + 1)]
            [gamma_sq] = _pinv_sums(d, c, beta, [row], "gamma terms")
            return gamma_sq

        gamma_sq = _by_size(stats, quadform)
    elif gamma_source == "monte_carlo":
        # monte_carlo_moments per unit, with the draws built once
        W = _sample_draws(d, mc_seed, mc_samples)
        gamma_sq = np.array(
            [
                gamma_quadform(_mc_moments(W, tuple(stats.cluster_ids[a:b].tolist()), beta))
                for a, b in zip(stats.indptr[:-1], stats.indptr[1:])
            ]
        )
    else:
        raise InputError(f"unknown gamma_source {gamma_source!r}")
    return GammaProfile(gamma_sq, gamma_sq, "quadform")


# ---------------------------------------------------------------------------
# bias
# ---------------------------------------------------------------------------


def bias_exact(agg: ClusterAggregatedModel, d: Design, beta: int) -> float:
    """Exact bias of the order-beta pseudoinverse estimator under design d.

    Evaluated at the cluster level by one gather (see module docstring),
    over rows taken in exact rationals from the design's law and rounded
    once, for either design: exactly 0.0 when beta covers the model's order
    and every neighborhood's M is invertible, as it always is under a
    Bernoulli design. This never enumerates the assignment support.
    """
    _check_order(beta)
    _same_lift(d.clustering, agg.stats)

    def row(c: int, unit: int) -> list[float]:
        # (M v)_k - theta_k on a size-k subset, k = 0..min(c, model order),
        # the only entries the gather reads; exact, rounded once
        a, top = _exact_pinv(d, c, beta), min(c, agg.beta_star)
        probs = _exact_probs(d, range(min(c, top + len(a) - 1) + 1))
        Mv = size_class_sums(probs, c, top, len(a) - 1) @ a
        return [float(x - (k > 0)) for k, x in enumerate(Mv)]

    table, base = _size_rows(np.diff(agg.stats.indptr), row)
    total = agg.baseline @ table[base] + agg.values @ table[base[agg.owner] + agg.order]
    return float(total) / agg.stats.n


class BiasBoundGCR(NamedTuple):
    """Bias bounds for Bernoulli cluster designs, tightest first.

    refined sums, per unit and per cardinality above beta, the magnitude of
    the signed total of aggregated coefficients; x_norm drops the signed
    cancellation; c_norm ignores cluster aggregation altogether. The chain
    |bias| <= refined <= x_norm <= c_norm always holds.
    """

    x_norm: float
    c_norm: float
    refined: float


def bias_bound_gcr(agg: ClusterAggregatedModel, beta: int) -> BiasBoundGCR:
    """Worst-case bias magnitude of the order-beta estimator under any
    Bernoulli cluster design on the clustering of agg, the re-keyed model;
    c_norm reads the unit-level model agg was lifted from."""
    _check_order(beta)
    model = agg.model
    size = agg.order
    # an image of more than beta clusters has only subsets of order > beta
    wide = size > beta
    x = agg.values[wide]
    by_card = np.bincount(agg.owner[wide] * (agg.beta_star + 1) + size[wide], weights=x)
    n = model.n
    return BiasBoundGCR(
        float(np.abs(x).sum()) / n,
        float(np.abs(model.values[model.order > beta]).sum()) / n,
        float(np.abs(by_card).sum()) / n,
    )


def bias_crd(agg: ClusterAggregatedModel, d: Design, B: float) -> tuple[float, float]:
    """Exact bias and worst-case bound of the first-order estimator under
    the complete design d for a first-order model.

    The exact bias is bias_exact(agg, d, 1). Only units in contact with every
    cluster contribute to it, so the bound multiplies the full-contact
    fraction by m (k+2) B / (k^2 + m).
    """
    _check_B(B)
    if agg.beta_star != 1:
        raise InputError("complete-design bias formula needs a first-order model")
    if d.is_bernoulli:
        raise InputError("bias_crd needs a complete cluster design")
    m, k = d.m, d.k
    bound = (agg.stats.full_contact_count / agg.stats.n) * (m * (k + 2) * B / (k**2 + m))
    return bias_exact(agg, d, 1), bound


# ---------------------------------------------------------------------------
# variance bound report
# ---------------------------------------------------------------------------


def _dependent_sums(stats: ClusterStats, gam: np.ndarray) -> np.ndarray:
    """Terms summing to the sum of gam_i gam_j over dependent pairs of units,
    one per distinct cluster neighborhood a: G_a times the sum of G_b over
    the sets b sharing a cluster with it, those of a's block once and later
    ones twice, where G_a is the math.fsum of gam over a's units.

    The sets, numbered by their lowest unit, come from a sort of the CSR
    rows of each size. For a block of consecutive sets, cb holds the
    clusters it touches and jb the sets from the block on touching any;
    with 0/1 incidences H_b (block x cb) and H_j (jb x cb), set a depends on
    set b exactly when (H_b H_j')_{ab} > 0, an integer count in any BLAS
    kernel, and np.add.reduce contracts the hits with G. Blocks start at
    _BLOCK // A sets and halve while H_j would hold more than _BLOCK
    entries, down to one set, whose H_j is built _BLOCK // jb clusters at a
    time: no incidence or hit array exceeds _BLOCK entries or one row or
    column.
    """
    n, indptr, ids = stats.n, stats.indptr, stats.cluster_ids
    # units by size, then by the bytes of their rows; new marks a set's first
    sizes = np.diff(indptr)
    perm, new = np.argsort(sizes, kind="stable"), np.ones(n, dtype=bool)
    cuts = [0, *(np.flatnonzero(np.diff(sizes[perm])) + 1).tolist(), n]
    for lo, hi in zip(cuts, cuts[1:]):
        rows = ids[indptr[perm[lo:hi], None] + np.arange(sizes[perm[lo]])]
        key = rows.view(np.dtype((np.void, rows[0].nbytes))).ravel()
        o = np.argsort(key, kind="stable")
        perm[lo:hi], key = perm[lo:hi][o], key[o]
        new[lo + 1 : hi] = key[1:] != key[:-1]
    firsts = np.flatnonzero(new)
    g, stops = gam[perm], np.append(firsts[1:], n)
    G, runs = g[firsts], np.flatnonzero(stops - firsts > 1)
    G[runs] = [math.fsum(g[i:j]) for i, j in zip(firsts[runs], stops[runs])]
    rank = np.argsort(perm[firsts])
    G, lowest = G[rank], perm[firsts[rank]]
    # the sets' CSR rows; the sets touching cluster c, ascending, are
    # touching[cptr[c]:cptr[c + 1]]
    A, width = G.size, sizes[lowest]
    sptr = np.concatenate(([0], np.cumsum(width)))
    sids = ids[np.repeat(indptr[lowest] - sptr[:-1], width) + np.arange(sptr[-1])]
    owner = np.repeat(np.arange(A), width)
    touching = owner[np.argsort(sids, kind="stable")]
    cptr = np.concatenate(([0], np.cumsum(np.bincount(sids, minlength=stats.m))))

    per_set, step, a = np.empty(A), max(1, _BLOCK // A), 0
    while a < A:
        b = min(A, a + step)
        cb, col = np.unique(sids[sptr[a] : sptr[b]], return_inverse=True)
        counts = cptr[cb + 1] - cptr[cb]
        starts = np.repeat(cptr[cb] - np.cumsum(counts) + counts, counts)
        touch = touching[starts + np.arange(starts.size)]
        jb, row = np.unique(touch[touch >= a], return_inverse=True)
        if b - a > 1 and jb.size * cb.size > _BLOCK:
            step = (b - a) // 2
            continue
        H_b = np.zeros((b - a, cb.size))
        H_b[owner[sptr[a] : sptr[b]] - a, col] = 1.0
        cols = np.repeat(np.arange(cb.size), counts)[touch >= a]
        span = max(1, _BLOCK // jb.size)
        for lo in range(0, cb.size, span):
            e = slice(*np.searchsorted(cols, [lo, lo + span]))
            H_j = np.zeros((jb.size, min(span, cb.size - lo)))
            H_j[row[e], cols[e] - lo] = 1.0
            part = H_b[:, lo : lo + span] @ H_j.T
            hits = part if lo == 0 else hits + part
        # 0/1 hits; jb starts with the block itself, whose ordered pairs
        # count once; pairs with later sets are read only here: twice
        np.minimum(hits, 1.0, out=hits)
        hits[:, : b - a] *= G[a:b]
        hits[:, b - a :] *= 2.0 * G[jb[b - a :]]
        per_set[a:b] = G[a:b] * np.add.reduce(hits, axis=1)
        del hits, part  # before the next block builds its own
        a = b
    return per_set


@dataclass(frozen=True)
class BoundReport:
    """Everything the variance bound knows about one configuration.

    bias_exact and bias_bound are filled only when agg was supplied.
    var_bound_pairwise sums per-pair gamma terms over dependent pairs;
    var_bound_simplified is the closed summary-statistic form (infinite for
    a complete design whose widest neighborhood spans all clusters).
    """

    var_bound_pairwise: float
    var_bound_simplified: float
    bias_exact: float | None
    bias_bound: float | None
    B: float
    C_max: int
    N_max: int
    d_max: int
    n: int
    m: int
    beta: int
    design_variant: str
    p: float | None
    k: int | None
    gamma_source: str
    gamma_provenance: str


def variance_bound(
    stats: ClusterStats,
    d: Design,
    beta: int,
    B: float,
    gamma_source: str = "closed",
    *,
    agg: ClusterAggregatedModel | None = None,
    monotone: bool = False,
) -> BoundReport:
    """Worst-case variance bound for outcomes bounded by B, on the graph
    stats was lifted from (its d_max). agg, the model re-keyed on stats
    itself by cluster_aggregate, adds the bias.

    The pairwise term is (B^2/n^2) sum over dependent ordered pairs (i, j) of
    gamma_i gamma_j. Under Bernoulli designs i and j are dependent when
    their cluster neighborhoods share a cluster; the complete design couples
    all pairs unless the caller asserts monotone effects, which enables the
    negative-covariance screen on disjoint cluster neighborhoods. Screened
    sums run over the distinct cluster neighborhoods of stats, not the
    units: one blocked product of 0/1 cluster-incidence matrices, sets by
    clusters against the sets touching those clusters. Per-pair gamma values
    are the square roots of gamma_profile's bound_sq under gamma_source.

    Raises
    ------
    InputError
        If stats was not lifted on d's clustering, or agg not on stats.
    PreconditionError
        If monotone is asserted, agg is supplied, and its coefficients carry
        mixed signs.
    CapacityError
        If a gamma term or the sum over dependent pairs overflows double
        precision (the error names it), or B^2/n^2 times a finite sum does
        (the error names B and the sum).
    """
    _check_B(B)
    g, n = stats.graph, stats.n
    if agg is not None:
        if agg.stats is not stats:
            raise InputError("agg was keyed on another graph or clustering than stats")
        _same_lift(d.clustering, stats)
        if monotone and mixed_signs(agg):
            raise PreconditionError(
                "monotone effects asserted but aggregated coefficients have mixed signs"
            )

    profile = gamma_profile(stats, d, beta, gamma_source)
    gam = np.sqrt(profile.bound_sq)

    # an overflowing pair sum is named below, not warned about
    with np.errstate(over="ignore", invalid="ignore"):
        if d.is_bernoulli or monotone:
            terms = _dependent_sums(stats, gam)
        else:
            terms = gam * gam.sum()
        pair_sum = float(np.add.reduce(terms))
    if not math.isfinite(pair_sum):
        raise CapacityError(
            "the pairwise variance bound's sum of gamma_i gamma_j over dependent pairs"
            " overflows double precision"
            f" (the largest gamma_i^2 is {profile.bound_sq.max():.3g})"
        )
    pairwise = float(B) * float(B) / (n * n) * pair_sum
    if not math.isfinite(pairwise):
        raise CapacityError(
            f"B={B!r}: the pairwise variance bound B^2/n^2 * {pair_sum:.3g} overflows"
        )

    C, N = stats.C_max, stats.N_max
    d_max = int(g.degrees.max())
    if d.is_bernoulli:
        # the per-unit envelope at c = C
        simplified = float(B * B * C * N * d_max / n * gamma_gcr_envelope(C, beta, d.p))
    elif C == d.m:
        simplified = math.inf
    else:
        m, k = d.m, d.k
        frac = k / m
        simplified = float(
            B * B * m * C**3 * N * d_max / (n * frac * (1 - frac) * (m - C))
        )
    # inf is the simplified bound only of a complete design with C == m
    if not math.isfinite(simplified) and (d.is_bernoulli or C < d.m):
        raise CapacityError(
            f"B={B!r}: the simplified variance bound B^2 * {C=}, {N=}, {d_max=} terms overflows"
        )

    bias_val: float | None = None
    bias_bound_val: float | None = None
    if agg is not None:
        if d.is_bernoulli:
            bias_val, bias_bound_val = bias_exact(agg, d, beta), bias_bound_gcr(agg, beta).x_norm
        elif beta == 1 and agg.beta_star == 1:
            bias_val, bias_bound_val = bias_crd(agg, d, B)
        else:
            bias_val = bias_exact(agg, d, beta)

    return BoundReport(
        var_bound_pairwise=pairwise,
        var_bound_simplified=simplified,
        bias_exact=bias_val,
        bias_bound=bias_bound_val,
        B=B,
        C_max=C,
        N_max=N,
        d_max=d_max,
        n=n,
        m=d.m,
        beta=beta,
        design_variant=d.variant,
        p=d.p,
        k=d.k,
        gamma_source=gamma_source,
        gamma_provenance=profile.provenance,
    )
