"""Treatment effect estimators.

Every estimator here is linear in the observed outcomes: it assigns each unit
a weight computed from the realized assignment and averages Y_i * weight_i.
The returned breakdown keeps the per-unit weights so callers can audit or
recombine them.

Each weight depends on a draw only through (c_i, t_i): the number of clusters
in unit i's cluster neighborhood and how many of them are treated. So every
estimator is a table of weights by (c, t), built only for the c present, and
one gather applies any table to the treated counts t of a whole matrix of
draws; both read only the ClusterStats of clustering.cluster_stats. Two
routes build the tables:

  pinv  moment-matrix route, any design: sum_s a_s(c) C(t, s), where
        v[U] = a_{|U|} is M^+ theta over subsets of the neighborhood
        (moments.size_class_pinv) and C(t, s) counts the treated ones
  ht    Horvitz-Thompson full-neighborhood route: 1/pi(c) at t = c and
        -1/pi-bar(c) at t = 0

Both take a_s and pi in exact rationals from the design's law and round
once. Two kinds name pinv tables: gcr_explicit, the paper's explicit product
form for Bernoulli cluster designs, is pinv at its beta, and crd1, the
first-order complete-design estimator, is pinv at beta = 1. Their closed
forms are test oracles.

An EstimatorSpec names one of these kinds and its order; its constructor is
the only check of which kinds take an order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .clustering import ClusterStats, _size_rows, cluster_stats
from .design import AssignmentDraw, Design, _draws, _exact_probs
from .errors import CapacityError, InputError, PositivityError
from .graph import InterferenceGraph
from .moments import size_class_pinv

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


def _pinv_row(d: Design, beta: int, c: int, unit: int) -> np.ndarray:
    a = size_class_pinv(d, c, beta)
    binomials = [[math.comb(t, s) for s in range(a.size)] for t in range(c + 1)]
    return np.array(binomials, dtype=np.float64) @ a


def _ht_row(d: Design, beta: int | None, c: int, unit: int) -> np.ndarray:
    # 1/pi(c) at t = c and -1/pi-bar(c) at t = 0, each rounded once from the
    # design's exact law; a complete design treats exactly k clusters, so a
    # neighborhood wider than k (or than m - k) has probability 0
    row = np.zeros(c + 1)
    for side, t, sign, treated in (("treated", c, 1.0, True), ("untreated", 0, -1.0, False)):
        [prob] = _exact_probs(d, [c], treated)
        if not prob:
            raise PositivityError(
                f"unit {unit} has zero probability of a fully {side} neighborhood"
            )
        try:
            row[t] += sign * float(1 / prob)
        except OverflowError:
            raise CapacityError(
                f"unit {unit}: the probability {float(prob)!r} of a fully {side} "
                f"neighborhood of c={c} clusters underflows in double precision"
            ) from None
    return row


_ROWS = {"pinv": _pinv_row, "ht": _ht_row}
# gcr_explicit and crd1 name pinv tables (see the module docstring). The
# _ORDERED kinds take the caller's order; crd1 is first order, ht takes none
_KINDS = (*_ROWS, "gcr_explicit", "crd1")
_ORDERED = ("pinv", "gcr_explicit")


@dataclass(frozen=True)
class EstimatorSpec:
    """Which estimator to run, and at what interaction order.

    kind is one of "pinv", "gcr_explicit", "ht", "crd1". "pinv" and
    "gcr_explicit" need beta >= 1; "ht" takes no order and "crd1" is pinned
    at beta = 1.
    """

    kind: str
    beta: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
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


def _tables(stats: ClusterStats, d: Design, specs) -> list:
    """One flat weight table (values, base) per spec for every unit of stats:
    unit i's weight with t of its clusters treated is values[base[i] + t].
    Specs of one row route and order (pinv:1 and crd1) share one table."""
    routes = []
    for spec in specs:
        if spec.kind == "gcr_explicit" and not d.is_bernoulli:
            raise InputError("gcr_explicit needs a Bernoulli design")
        if spec.kind == "crd1" and d.is_bernoulli:
            raise InputError("crd1 needs a complete cluster design")
        routes.append((_ROWS.get(spec.kind, _pinv_row), spec.order))
    built = {}
    for row, order in dict.fromkeys(routes):
        values, base = _size_rows(np.diff(stats.indptr), lambda c, unit: row(d, order, c, unit))
        built[row, order] = values, base.astype(np.int32)
    return [built[route] for route in routes]


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
        inverse to be represented in double precision; for pinv,
        gcr_explicit and crd1, if a pseudoinverse weight overflows double
        precision (Bernoulli designs with p or 1-p tiny).
    """
    spec = EstimatorSpec(kind, beta)
    Y = np.asarray(Y, dtype=np.float64)
    if Y.shape != (g.n,):
        raise InputError(f"Y has shape {Y.shape}, expected ({g.n},)")
    if d.n != g.n:
        raise InputError(f"design covers {d.n} units but graph has {g.n}")
    w = _draws(np.asarray(draw.w)[None], d.m)
    stats = cluster_stats(g, d.clustering)
    [(values, base)] = _tables(stats, d, [spec])
    weights = values[base + _treated(stats, w)[0]]
    return EstimateBreakdown(kind, spec.order, float(np.mean(Y * weights)), weights)

