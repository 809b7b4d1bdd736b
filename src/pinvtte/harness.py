"""Replicated experiments, exhaustive oracles, and bound-driven selection.

Everything here is deterministic for a fixed configuration: replicate r of
an experiment seeded with s draws its assignment from the stream (s, r), and
all reductions into summary statistics use ``math.fsum`` in a fixed order,
so parallel or repeated runs produce identical numbers.

An ExperimentConfig is one cell: a graph, model and design, the
estimators compared on it, R and a seed. Replicated runs (run_experiment,
rmse_ratio) and the exhaustive oracle share one path: the graph and model
lifted to clusters once (cluster_stats, cluster_aggregate), a matrix of
cluster draws (the (seed, r) streams, or the design's whole support), one
evaluation of their outcomes and each estimator's weight table on them
(replicate_estimates), then one fsum reduction per estimator (_mean_var,
weighted by probability on a non-uniform support). The estimators of a cell
share all of these; its bias and bound are taken once per order.
Clustering selection scores a list of candidate designs, one per clustering.
"""

from __future__ import annotations

import csv
import math
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence, TextIO

import numpy as np

from .bounds import BoundReport, bias_exact, variance_bound
from .clustering import ClusterStats, _same_clustering, cluster_stats
from .design import Design, _sample_draws, enumerate_support
from .errors import InputError
from .estimator import batch_estimates
from .graph import InterferenceGraph
from .moments import _mc_moments, analytic_cluster_moments
from .outcomes import (
    ClusterAggregatedModel,
    LowOrderModel,
    cluster_aggregate,
    evaluate_draws,
    outcome_bound,
    true_tte,
)

__all__ = [
    "EstimatorSpec",
    "ExperimentConfig",
    "ExperimentReport",
    "replicate_estimates",
    "run_experiment",
    "report_rows",
    "exhaustive_expectation",
    "select_clustering",
    "rmse_ratio",
    "mc_convergence_report",
    "write_csv",
    "git_describe",
]

_KINDS = ("pinv", "gcr_explicit", "ht", "crd1")


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
        if self.kind not in _KINDS:
            raise InputError(f"unknown estimator kind {self.kind!r}")
        if self.kind in ("pinv", "gcr_explicit"):
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
    def label(self) -> str:
        return self.kind if self.beta is None else f"{self.kind}:{self.beta}"

    @property
    def order(self) -> int | None:
        """The order its analytic bias and variance bound are taken at:
        None for ht, 1 for crd1, else beta."""
        return 1 if self.kind == "crd1" else self.beta


@dataclass(frozen=True)
class ExperimentConfig:
    """One replicated-experiment cell: everything a run needs, plus a seed.

    estimators are the estimators compared on the cell's shared draws, at
    least one. tag is a free-form label copied into the reports (the CLI
    uses it to mark grid cells such as "w=4").
    """

    graph: InterferenceGraph
    model: LowOrderModel
    design: Design
    estimators: tuple[EstimatorSpec, ...]
    replications: int
    seed: int
    gamma_source: str = "quadform"
    tag: str = ""

    def __post_init__(self) -> None:
        if not self.estimators:
            raise InputError("an experiment needs at least one estimator")
        if self.replications < 1:
            raise InputError(f"replications must be >= 1, got {self.replications}")
        if self.seed < 0:
            raise InputError(f"seed must be nonnegative, got {self.seed}")


@dataclass(frozen=True)
class ExperimentReport:
    """Summary statistics of one experiment cell.

    empirical_mse is the decomposition bias^2 + variance (population
    variance, matching mean((estimate - tte)^2) up to float rounding).
    analytic_bias is None when no closed form applies (Horvitz-Thompson
    under a complete design); var_bound is None for Horvitz-Thompson.
    wall_time_s times the whole shared cell: its lift to clusters, draws,
    outcomes and every estimator's weights. Every report of one
    run_experiment call carries the same value; the analytic bias and the
    variance bound are not included.
    """

    kind: str
    beta: int | None
    tag: str
    replications: int
    seed: int
    true_tte: float
    mean_estimate: float
    empirical_bias: float
    empirical_variance: float
    empirical_mse: float
    empirical_rmse: float
    analytic_bias: float | None
    var_bound: float | None
    wall_time_s: float


def replicate_estimates(
    agg: ClusterAggregatedModel,
    stats: ClusterStats,
    d: Design,
    specs: Sequence[EstimatorSpec],
    W: np.ndarray,
) -> list[np.ndarray]:
    """Each spec's estimates for a batch of cluster assignments, one per row
    of W, from agg and stats lifted to d's clustering.

    The outcomes of all draws are evaluated once, in one batched call
    (outcomes.evaluate_draws), and freed on return; each estimator applies
    its weight table to the same draws and outcomes
    (estimator.batch_estimates).
    """
    _same_clustering(d.clustering, agg, stats)
    Y = evaluate_draws(agg, W)
    return [batch_estimates(stats, d, spec.kind, spec.beta, W, Y) for spec in specs]


def _mean_var(est: np.ndarray, probs: list[float] | None = None) -> tuple[float, float]:
    """(mean, population variance) of the estimates by fsum: the plain
    average, or the probs-weighted sums when probs is given."""
    vals = est.tolist()
    if probs is None:
        mean = math.fsum(vals) / len(vals)
        return mean, math.fsum((e - mean) ** 2 for e in vals) / len(vals)
    mean = math.fsum(pr * e for pr, e in zip(probs, vals))
    return mean, math.fsum(pr * (e - mean) ** 2 for pr, e in zip(probs, vals))


def _summary(est: np.ndarray, tte: float) -> tuple[float, float, float, float]:
    """(mean, bias, population variance, mse) of replicated estimates."""
    mean_est, var = _mean_var(est)
    bias = mean_est - tte
    return mean_est, bias, var, bias * bias + var


def _cell(
    cfg: ExperimentConfig,
) -> tuple[ClusterAggregatedModel, ClusterStats, list[np.ndarray], float]:
    """The shared replication cell of cfg: its graph and model lifted to
    clusters, its R draws, and each estimator's estimates on them, with the
    seconds all of that took. The draws are freed on return."""
    g, d = cfg.graph, cfg.design
    t0 = time.perf_counter()
    agg = cluster_aggregate(cfg.model, g, d.clustering)
    stats = cluster_stats(g, d.clustering)
    W = _sample_draws(d, cfg.seed, cfg.replications)
    estimates = replicate_estimates(agg, stats, d, cfg.estimators, W)
    return agg, stats, estimates, time.perf_counter() - t0


def run_experiment(cfg: ExperimentConfig) -> list[ExperimentReport]:
    """Run one experiment cell: one report per estimator of cfg, in order.

    The cell is lifted to clusters, sampled and evaluated once, then every
    estimator is applied to the same draws; the analytic bias and variance
    bound are computed once per distinct order. Replicate r draws its
    assignment from the stream (seed, r), so each report is identical to a
    run of its estimator alone, no matter how replicates are scheduled.
    Empirical variance uses the population convention (divide by R).
    """
    g, model, d = cfg.graph, cfg.model, cfg.design
    agg, stats, estimates, wall = _cell(cfg)
    tte = true_tte(model)
    # (analytic bias, variance bound) by order. Horvitz-Thompson (None) is
    # unbiased under a Bernoulli design; full-contact units can bias it under
    # the complete design, for which no closed form is kept.
    analytic = {None: (0.0 if d.is_bernoulli else None, None)}
    orders = dict.fromkeys(spec.order for spec in cfg.estimators if spec.order)
    B = outcome_bound(model, g) if orders else 0.0
    for order in orders:
        exact = bias_exact(agg, stats, d, order)
        rep = variance_bound(g, stats, d, order, B, cfg.gamma_source) if B > 0.0 else None
        analytic[order] = exact, None if rep is None else rep.var_bound_pairwise
    reports = []
    for spec, est in zip(cfg.estimators, estimates):
        mean_est, bias, var, mse = _summary(est, tte)
        reports.append(
            ExperimentReport(
                kind=spec.kind,
                beta=spec.beta,
                tag=cfg.tag,
                replications=cfg.replications,
                seed=cfg.seed,
                true_tte=tte,
                mean_estimate=mean_est,
                empirical_bias=bias,
                empirical_variance=var,
                empirical_mse=mse,
                empirical_rmse=math.sqrt(mse),
                analytic_bias=analytic[spec.order][0],
                var_bound=analytic[spec.order][1],
                wall_time_s=wall,
            )
        )
    return reports


_METRICS = (
    "mean_estimate",
    "empirical_bias",
    "empirical_variance",
    "empirical_mse",
    "empirical_rmse",
    "analytic_bias",
    "var_bound",
)


def report_rows(report: ExperimentReport) -> list[dict]:
    """Flatten a report into tidy rows, one per metric, wall_time_s last.

    Timing is real elapsed time and therefore not reproducible; every other
    row is a pure function of the configuration.
    """
    base = {
        "estimator": report.kind,
        "beta": "" if report.beta is None else report.beta,
        "tag": report.tag,
        "replications": report.replications,
        "true_tte": repr(report.true_tte),
    }
    rows = []
    for name in _METRICS:
        value = getattr(report, name)
        rows.append(dict(base, metric=name, value="" if value is None else repr(value)))
    rows.append(dict(base, metric="wall_time_s", value=repr(report.wall_time_s)))
    return rows


def exhaustive_expectation(
    g: InterferenceGraph,
    model: LowOrderModel,
    d: Design,
    specs: Sequence[EstimatorSpec],
) -> list[tuple[float, float]]:
    """Exact (mean, variance) of each estimator over the design's support.

    The support is enumerated and its outcomes evaluated once for all specs.
    When the support is uniform (complete designs, Bernoulli at p = 1/2)
    the reduction is the plain average in support order, so a replicated
    run over exactly the support points reproduces this value bit for bit.
    """
    support = enumerate_support(d)
    W = np.stack([w for _, w in support])
    probs = [pr for pr, _ in support]
    if all(pr == probs[0] for pr in probs):
        probs = None
    lifted = cluster_aggregate(model, g, d.clustering), cluster_stats(g, d.clustering)
    return [_mean_var(est, probs) for est in replicate_estimates(*lifted, d, specs, W)]


def select_clustering(
    g: InterferenceGraph,
    designs: Sequence[Design],
    beta: int,
    B: float,
) -> tuple[int, list[tuple[int, BoundReport]]]:
    """Pick the candidate design with the lowest pairwise variance bound.

    Each candidate is a cluster design on its own clustering. Bounds use the
    quadform gamma source so every design family is scored by the same
    quantity. Ties break toward fewer clusters, then toward the earlier
    candidate. The full ranking comes back for audit.

    Returns
    -------
    (chosen, ranking)
        chosen indexes into designs; ranking lists (candidate index,
        BoundReport) from best to worst.
    """
    if not designs:
        raise InputError("no candidate designs")
    scored = []
    for idx, d in enumerate(designs):
        rep = variance_bound(g, cluster_stats(g, d.clustering), d, beta, B, "quadform")
        scored.append((rep.var_bound_pairwise, d.m, idx, rep))
    scored.sort(key=lambda t: t[:3])
    ranking = [(idx, rep) for _, _, idx, rep in scored]
    return ranking[0][0], ranking


def rmse_ratio(
    g: InterferenceGraph,
    model: LowOrderModel,
    designs: Sequence[Design],
    spec: EstimatorSpec,
    replications: int,
    seed: int,
    chosen: int,
) -> tuple[float, list[float]]:
    """Simulated RMSE of the chosen candidate design relative to the best.

    Brute-forces every candidate with the same replication stream; a ratio
    of 1.0 means the bound-driven choice matched the oracle choice. Only the
    empirical RMSE of run_experiment is computed, not its bias or bound.
    """
    tte = true_tte(model)
    rmses = []
    for d in designs:
        [est] = _cell(ExperimentConfig(g, model, d, (spec,), replications, seed))[2]
        rmses.append(math.sqrt(_summary(est, tte)[3]))
    return rmses[chosen] / min(rmses), rmses


def mc_convergence_report(
    d: Design,
    g: InterferenceGraph,
    units: Sequence[int],
    beta: int,
    R_grid: Sequence[int],
    seeds: Sequence[int],
) -> dict[str, list[dict]]:
    """Frobenius error of Monte Carlo moment pseudoinverses vs analytic.

    Returns
    -------
    dict with two tidy tables: "detail" has one row per (R, seed, unit)
    with the Frobenius error; "summary" has per-R medians and standard
    deviations over all (seed, unit) pairs, with log10 columns ready for
    log-log plotting.
    """
    if not all(0 <= i < g.n for i in units):
        raise InputError(f"units {list(units)} not all within [0, {g.n})")
    stats = cluster_stats(g, d.clustering)
    indptr, ids = stats.indptr, stats.cluster_ids
    grounds = {i: tuple(ids[indptr[i] : indptr[i + 1]].tolist()) for i in units}
    targets = {i: analytic_cluster_moments(d, grounds[i], beta).M_pinv for i in units}
    if min(R_grid, default=1) < 1:
        raise InputError(f"need at least one draw, got R={min(R_grid)}")
    fro: dict[tuple[int, int, int], float] = {}
    for seed in seeds:
        # monte_carlo_moments of each unit, sharing one set of draws per
        # seed: the streams (seed, r) are prefix-stable, so the first R
        # draws at the largest R are the draws at R
        W = _sample_draws(d, seed, max(R_grid, default=1))
        for R in R_grid:
            for i in units:
                mc = _mc_moments(W[:R], grounds[i], beta)
                fro[R, seed, i] = float(np.linalg.norm(mc.M_pinv - targets[i]))
    detail = [
        {"R": R, "seed": seed, "unit": i, "fro_error": fro[R, seed, i]}
        for R in R_grid for seed in seeds for i in units
    ]
    summary = []
    for R in R_grid:
        errs = [fro[R, seed, i] for seed in seeds for i in units]
        med = float(np.median(errs))
        summary.append(
            {
                "R": R,
                "median_fro_error": med,
                "std_fro_error": float(np.std(errs)),
                "log10_R": math.log10(R),
                "log10_median_fro_error": math.log10(max(med, 1e-300)),
            }
        )
    return {"detail": detail, "summary": summary}


# ---------------------------------------------------------------------------
# CSV output
# ---------------------------------------------------------------------------

_GIT_DESCRIBE: str | None = None


def git_describe() -> str:
    """Best-effort `git describe` of the source tree, else "unknown"."""
    global _GIT_DESCRIBE
    if _GIT_DESCRIBE is None:
        try:
            out = subprocess.run(
                ["git", "describe", "--always", "--dirty"],
                capture_output=True,
                text=True,
                timeout=10,
                cwd=Path(__file__).resolve().parent,
            )
            _GIT_DESCRIBE = out.stdout.strip() if out.returncode == 0 else "unknown"
        except OSError:
            _GIT_DESCRIBE = "unknown"
        if not _GIT_DESCRIBE:
            _GIT_DESCRIBE = "unknown"
    return _GIT_DESCRIBE


def write_csv(
    rows: Sequence[dict],
    fieldnames: Sequence[str],
    path: str | None = None,
    seed: int | None = None,
) -> None:
    """Write tidy rows as CSV with a trailing metadata comment block.

    path None writes to stdout. Values are written as str() of themselves
    (callers repr() floats they want round-trippable), quoted only where a
    value holds a comma, quote or line break. The trailing comments record
    the seed and the source version so every output file is self-describing.
    """
    out: TextIO
    close = False
    if path is None:
        out = sys.stdout
    else:
        out = open(path, "w", encoding="utf-8", newline="")
        close = True
    try:
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(fieldnames)
        for row in rows:
            writer.writerow([str(row.get(f, "")) for f in fieldnames])
        if seed is not None:
            out.write(f"# seed={seed}\n")
        out.write(f"# git_describe={git_describe()}\n")
    finally:
        if close:
            out.close()
