"""Exact bias, bias bounds, per-unit variance terms, and variance bounds.

The variance side revolves around the quadratic form theta' M^+ theta over a
unit's cluster moment matrix. Three sources are supported: closed forms
(exact for Bernoulli designs at any order, first-order only for the complete
design, where the closed value also carries the (c+1) scale factor its
variance analysis uses), numeric quadforms from analytic moment matrices,
and quadforms from Monte Carlo moment estimates.

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
k (moments.size_class_pinv), and both equal (M v)_k - 1 for k >= 1, with
v = M_w^+ psi; they differ only at U = (), which only the baseline reaches.
So the split by order drops out: bias_exact builds one row per neighborhood
size c, r_c[k] = (M v)_k - [k > 0] for k = 0..c, and gathers it at
(c of the owner, |U|) over the model re-keyed to (unit, cluster subset)
pairs by cluster_aggregate, with the baseline at |U| = 0. bias_bound_gcr
reduces the same keys with |U| > beta, which only subsets of order > beta
reach: their |x_{i,U}|, and one bincount by (owner, |U|). Callers lift once:
the bias functions take that re-keyed model, which carries the cluster_stats
it was keyed on, and clustering._same_lift rejects another clustering than
the design's. variance_bound takes both and checks that they are one lift.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .clustering import ClusterStats, _same_lift, _size_rows
from .design import Design, _sample_draws, joint_treat_prob
from .errors import CapacityError, InputError, PreconditionError
from .moments import (
    DesignMoments,
    _bernoulli_finite,
    _mc_moments,
    size_class_pinv,
    size_class_sums,
)
from .outcomes import ClusterAggregatedModel, _sequential_sum, mixed_signs

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

# block rows times dependents (and dependents times block clusters) held at
# once; bounds _dependent_sums' incidence blocks
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
    (c+1)-scaled form as bound_sq). "quadform" computes theta' M^+ theta
    from analytic moment matrices, any design and order. "monte_carlo" does
    the same from moments estimated on each unit's cluster neighborhood in
    stats. Both set bound_sq to gamma_sq.
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
            # theta' M^+ theta sums v = M^+ theta over the non-empty subsets
            a = size_class_pinv(d, c, beta)
            return math.fsum(math.comb(c, s) * a[s] for s in range(1, a.size))

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

    Evaluated at the cluster level by one gather (see module docstring).
    The moment and cross matrices are analytic for both supported designs,
    so this never enumerates the assignment support.
    """
    _check_order(beta)
    _same_lift(d.clustering, agg.stats)

    def row(c: int, unit: int) -> np.ndarray:
        # (M v)_k on a size-k cluster subset, k = 0..c, minus theta_k
        a = size_class_pinv(d, c, beta)
        probs = [joint_treat_prob(d, u) for u in range(c + 1)]
        Mv = size_class_sums(probs, c, c, a.size - 1) @ a
        return Mv - (np.arange(c + 1) > 0)

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

    Only units in contact with every cluster contribute: for those,
    bias_i = m (k x_{i,empty} - sum_C x_{i,{C}}) / (k^2 + m). The bound
    multiplies the full-contact fraction by m (k+2) B / (k^2 + m).
    """
    _check_B(B)
    if agg.beta_star != 1:
        raise InputError("complete-design bias formula needs a first-order model")
    if d.is_bernoulli:
        raise InputError("bias_crd needs a complete cluster design")
    stats = agg.stats
    _same_lift(d.clustering, stats)
    n, m, k = stats.n, d.m, d.k
    full = np.diff(stats.indptr) == m
    single = (agg.order == 1) & full[agg.owner]
    x1 = np.bincount(agg.owner[single], agg.values[single], n)
    exact = m * _sequential_sum(k * agg.baseline[full] - x1[full]) / ((k**2 + m) * n)
    bound = (stats.full_contact_count / n) * (m * (k + 2) * B / (k**2 + m))
    return exact, bound


# ---------------------------------------------------------------------------
# variance bound report
# ---------------------------------------------------------------------------


def _dependent_sums(stats: ClusterStats, gam: np.ndarray) -> np.ndarray:
    """gam_i times the sum of gam_j over the units j whose cluster
    neighborhood shares a cluster with unit i's (i itself included).

    Works on blocks of consecutive units: cb holds the clusters the block
    touches and jb the units touching any of them; with 0/1 incidences
    H_b (block x cb) and H_j (jb x cb), unit i of the block depends on
    unit j of jb exactly when (H_b H_j')_{ij} > 0. Blocks start at
    _BLOCK // n units, so the product holds at most _BLOCK entries; while
    H_j would hold more, the block size is halved for this block and the
    rest, down to a single unit.
    """
    n, indptr, ids = stats.n, stats.indptr, stats.cluster_ids
    owner = np.repeat(np.arange(n), np.diff(indptr))
    # inverted CSR: the units touching cluster c, ascending, are
    # touching[cptr[c]:cptr[c + 1]]
    touching = owner[np.argsort(ids, kind="stable")]
    cptr = np.concatenate(([0], np.cumsum(np.bincount(ids, minlength=stats.m))))

    per_unit = np.empty(n)
    step = max(1, _BLOCK // n)
    a = 0
    while a < n:
        b = min(n, a + step)
        cb, col = np.unique(ids[indptr[a] : indptr[b]], return_inverse=True)
        counts = cptr[cb + 1] - cptr[cb]
        starts = np.repeat(cptr[cb] - np.cumsum(counts) + counts, counts)
        jb, row = np.unique(touching[starts + np.arange(starts.size)], return_inverse=True)
        if b - a > 1 and jb.size * cb.size > _BLOCK:
            step = (b - a) // 2
            continue
        H_b = np.zeros((b - a, cb.size))
        H_b[owner[indptr[a] : indptr[b]] - a, col] = 1.0
        H_j = np.zeros((jb.size, cb.size))
        H_j[row, np.repeat(np.arange(cb.size), counts)] = 1.0
        per_unit[a:b] = gam[a:b] * (((H_b @ H_j.T) > 0) @ gam[jb])
        a = b
    return per_unit


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
    sums come from one blocked product of 0/1 cluster-incidence matrices over
    stats' neighborhoods (units by clusters against the units touching those
    clusters), with no per-unit loop. Per-pair gamma values are the square
    roots of gamma_profile's bound_sq under gamma_source.

    Raises
    ------
    InputError
        If stats was not lifted on d's clustering, or agg not on stats.
    PreconditionError
        If monotone is asserted, agg is supplied, and its coefficients carry
        mixed signs.
    CapacityError
        If B^2 times a finite product overflows; the error names B and it.
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

    if d.is_bernoulli or monotone:
        per_unit = _dependent_sums(stats, gam)
    else:
        per_unit = gam * gam.sum()
    pair_sum = float(np.add.reduce(per_unit))
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
        bias_val = bias_exact(agg, d, beta)
        if d.is_bernoulli:
            bias_bound_val = bias_bound_gcr(agg, beta).x_norm
        elif beta == 1 and agg.beta_star == 1:
            bias_bound_val = bias_crd(agg, d, B)[1]

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
