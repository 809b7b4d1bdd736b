"""Treatment effect estimators.

Every estimator here is linear in the observed outcomes: it assigns each unit
a weight computed from the realized assignment and averages Y_i * weight_i.
The returned breakdown keeps the per-unit weights so callers can audit or
recombine them.

Each weight depends on a draw only through (c_i, t_i): the number of clusters
in unit i's cluster neighborhood and how many of them are treated. So every
estimator is a table of weights by (c, t), built only for the c present, and
one gather applies any table to the treated counts t of a whole matrix of
draws; both read only the ClusterStats of clustering.cluster_stats. The four
tables are derived independently and cross-checked in tests:

  pinv          moment-matrix route, any design: sum_s a_s(c) C(t, s), where
                v[U] = a_{|U|} is M^+ theta over subsets of the neighborhood
                (moments.size_class_pinv) and C(t, s) counts the treated ones
  gcr_explicit  product route for Bernoulli cluster designs: two truncated
                elementary symmetric sums of t treated and c - t untreated
                centered values
  ht            Horvitz-Thompson full-neighborhood route
  crd1          closed first-order weights for the complete design

An EstimatorSpec names one of these kinds and its order; its constructor is
the only check of which kinds take an order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .clustering import ClusterStats, _size_rows, cluster_stats
from .design import AssignmentDraw, Design, _draws, joint_control_prob, joint_treat_prob
from .errors import CapacityError, InputError, PositivityError
from .graph import InterferenceGraph
from .moments import _bernoulli_finite, size_class_pinv

__all__ = ["EstimatorSpec", "EstimateBreakdown", "estimate"]


@dataclass(frozen=True)
class EstimateBreakdown:
    """One estimate with its per-unit weights; tte_hat = mean(Y * weights)."""

    kind: str
    beta: int | None
    tte_hat: float
    weights: np.ndarray


# ---------------------------------------------------------------------------
# weight tables: row[t] is the weight of a unit with c clusters, t treated
# ---------------------------------------------------------------------------


def _binomials(c: int, top: int) -> np.ndarray:
    """B[t, s] = C(t, s) for t <= c and s <= top, as floats."""
    return np.array(
        [[math.comb(t, s) for s in range(top + 1)] for t in range(c + 1)],
        dtype=np.float64,
    )


def _pinv_row(d: Design, beta: int, c: int, unit: int) -> np.ndarray:
    a = size_class_pinv(d, c, beta)
    return _binomials(c, a.size - 1) @ a


def _gcr_row(d: Design, beta: int, c: int, unit: int) -> np.ndarray:
    # sum_{|U| <= beta} [prod_U (w - p)/p - prod_U (w - p)/(p - 1)]: the
    # elementary symmetric sum e_k of t copies of x and c - t copies of y is
    # sum_{i + j = k} C(t, i) C(c - t, j) x^i y^j
    p = d.p
    top = min(beta, c)
    B = _binomials(c, top)
    treated, control = B, B[::-1]  # C(t, i) and C(c - t, j)

    def row() -> np.ndarray:
        out = np.zeros(c + 1)
        for i in range(top + 1):
            for j in range(top + 1 - i):
                coef = ((1.0 - p) / p) ** i * (-1.0) ** j - (-1.0) ** i * (p / (1.0 - p)) ** j
                out += coef * treated[:, i] * control[:, j]
        return out

    return _bernoulli_finite(row, p, beta, c, "explicit weights")


def _ht_row(d: Design, beta: int | None, c: int, unit: int) -> np.ndarray:
    # a complete design treats exactly k clusters, so a neighborhood wider
    # than k (or than m - k) can never be fully treated (or untreated)
    if not d.is_bernoulli:
        for side, room in (("treated", d.k), ("untreated", d.m - d.k)):
            if c > room:
                raise PositivityError(
                    f"unit {unit} has zero probability of a fully {side} neighborhood"
                )
    row = np.zeros(c + 1)
    for side, t, sign, prob in (
        ("treated", c, 1.0, joint_treat_prob(d, c)),
        ("untreated", 0, -1.0, joint_control_prob(d, c)),
    ):
        inv = 1.0 / prob if prob > 0.0 else math.inf
        if not math.isfinite(inv):
            raise CapacityError(
                f"unit {unit}: the probability {prob!r} of a fully {side} "
                f"neighborhood of c={c} clusters underflows in double precision"
            )
        row[t] += sign * inv
    return row


def _crd1_row(d: Design, beta: int | None, c: int, unit: int) -> np.ndarray:
    # units in contact with every cluster use the rank-deficient
    # pseudoinverse form
    m, k = d.m, d.k
    t = np.arange(c + 1, dtype=np.float64)
    if c < m:
        return m * m * (m - 1) / (k * (m - k) * (m - c)) * (t - c * k / m)
    return m * k * k / (k * k + m) ** 2 * (t + c / k)


_ROWS = {"pinv": _pinv_row, "gcr_explicit": _gcr_row, "ht": _ht_row, "crd1": _crd1_row}


# the kinds whose order is the caller's to choose; crd1 is first order and
# ht takes none
_ORDERED = ("pinv", "gcr_explicit")


@dataclass(frozen=True)
class EstimatorSpec:
    """Which estimator to run, and at what interaction order.

    kind is one of "pinv", "gcr_explicit", "ht", "crd1". The two
    pseudoinverse routes need beta >= 1; "ht" takes no order and "crd1" is
    pinned at beta = 1.
    """

    kind: str
    beta: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in _ROWS:
            raise InputError(f"unknown estimator kind {self.kind!r}")
        if self.kind in _ORDERED:
            if self.beta is None or self.beta < 1:
                raise InputError(f"{self.kind} needs beta >= 1, got {self.beta}")
        elif self.kind == "ht":
            if self.beta is not None:
                raise InputError("ht takes no beta")
        elif self.beta not in (None, 1):
            raise InputError(f"crd1 is a beta=1 estimator, got beta={self.beta}")

    @classmethod
    def parse(cls, text: str) -> "EstimatorSpec":
        """Parse "kind" or "kind:beta", the CLI surface form."""
        kind, sep, tail = text.partition(":")
        if not sep:
            return cls(kind=kind.strip())
        try:
            beta = int(tail)
        except ValueError:
            raise InputError(f"bad estimator spec {text!r}: beta must be an integer")
        return cls(kind=kind.strip(), beta=beta)

    @property
    def order(self) -> int | None:
        """The order its analytic bias and variance bound are taken at:
        None for ht, 1 for crd1, else beta."""
        return 1 if self.kind == "crd1" else self.beta


def _table(stats: ClusterStats, d: Design, spec: EstimatorSpec):
    """Flat weight table for every unit of stats: unit i's weight when t of
    its clusters are treated is values[base[i] + t]. Returns (values, base)."""
    if spec.kind == "gcr_explicit" and not d.is_bernoulli:
        raise InputError("gcr_explicit needs a Bernoulli design")
    if spec.kind == "crd1" and d.is_bernoulli:
        raise InputError("crd1 needs a complete cluster design")
    row = _ROWS[spec.kind]
    values, base = _size_rows(np.diff(stats.indptr), lambda c, unit: row(d, spec.beta, c, unit))
    return values, base.astype(np.int32)


def _treated(stats: ClusterStats, W) -> np.ndarray:
    """(R, n) treated clusters of each unit's neighborhood for the (R, m) draws
    W of _draws: the t of every table, whose weights are values[base + t]."""
    return np.add.reduceat(W[:, stats.cluster_ids], stats.indptr[:-1], axis=1, dtype=np.int32)


# ---------------------------------------------------------------------------
# public estimator
# ---------------------------------------------------------------------------


def estimate(
    g: InterferenceGraph, Y, draw: AssignmentDraw, d: Design, kind: str, beta: int | None = None
) -> EstimateBreakdown:
    """One estimate of kind "pinv", "gcr_explicit", "ht" or "crd1" from one
    draw, at the order EstimatorSpec(kind, beta) allows.

    pinv works under any design and needs no positivity; gcr_explicit needs
    a Bernoulli design and crd1 the complete one (see the module docstring
    for each kind's weights).

    Raises
    ------
    InputError
        For malformed input, a kind and order EstimatorSpec rejects, or a
        kind the design cannot carry.
    PositivityError
        For ht, if some unit's neighborhood can never be fully treated or
        fully untreated under the design (only possible for the complete
        design).
    CapacityError
        For ht, if such a probability is positive but too small for its
        inverse to be represented in double precision; for pinv and
        gcr_explicit under a Bernoulli design, if a closed-form weight
        overflows double precision.
    """
    spec = EstimatorSpec(kind, beta)
    Y = np.asarray(Y, dtype=np.float64)
    if Y.shape != (g.n,):
        raise InputError(f"Y has shape {Y.shape}, expected ({g.n},)")
    if d.n != g.n:
        raise InputError(f"design covers {d.n} units but graph has {g.n}")
    w = _draws(np.asarray(draw.w)[None], d.m)
    stats = cluster_stats(g, d.clustering)
    values, base = _table(stats, d, spec)
    weights = values[base + _treated(stats, w)[0]]
    return EstimateBreakdown(kind, spec.order, float(np.mean(Y * weights)), weights)

