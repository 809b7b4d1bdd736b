"""Replicated experiments, exhaustive oracles, and bound-driven selection.

Everything here is deterministic for a fixed configuration: replicate r of
an experiment seeded with s draws its assignment from the stream (s, r), and
all reductions into summary statistics use ``math.fsum`` in a fixed order,
so parallel or repeated runs produce identical numbers.

An ExperimentConfig is one cell: a graph, model and design, the
estimators compared on it, R and a seed. Replicated runs (run_experiment,
rmse_ratio) and the exhaustive oracle share one path: the model keyed once
on the graph's lift to clusters (cluster_aggregate on cluster_stats), a
matrix of cluster draws (the (seed, r) streams, or the design's whole
support), one walk over its blocks (replicate_estimates), then one fsum
reduction per estimator (_mean_var, weighted on a non-uniform support).
The walk takes one of two routes. When the P = 2**C_max treated-cluster
patterns of a neighborhood number at most the draws and n * P fits the
_BLOCK budget, each estimator's term Y_i * w_i is tabled once per unit and
pattern and every draw gathers its units' terms; otherwise each block's
outcomes are evaluated and every weight table applied to them. A table
entry is the same product the per-draw route forms, and both average the
same rows, so the routes agree bit for bit; clustering._same_lift rejects
a mismatched lift before either. The estimators of a cell share all of
this; its bias and bound are taken once per order.
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
from .clustering import ClusterStats, _same_lift, cluster_stats
from .design import Design, _draws, _sample_draws, enumerate_support
from .errors import CapacityError, InputError
from .estimator import EstimatorSpec, _table, _treated
from .graph import InterferenceGraph
from .moments import _mc_moments, analytic_cluster_moments
from .outcomes import (
    ClusterAggregatedModel,
    LowOrderModel,
    _evaluate_hits,
    cluster_aggregate,
    evaluate_draws,
    outcome_bound,
    true_tte,
)

__all__ = [
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

# elements held at once: a block of draws or patterns times the larger of
# model keys and neighborhood entries, or one pattern table's n * 2**C_max
_BLOCK = 1 << 18


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


def _slot(stats: ClusterStats) -> np.ndarray:
    """Each neighborhood entry's position j within its unit's neighborhood."""
    return np.arange(stats.cluster_ids.size) - np.repeat(stats.indptr[:-1], np.diff(stats.indptr))


def _row_positions(agg: ClusterAggregatedModel) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(rows, cols, pos): each cluster agg.members[rows, cols] of a re-keyed
    model row and its position pos in the cluster neighborhood of the row's
    unit. agg was keyed on agg.stats, so every row's clusters lie in its
    unit's neighborhood."""
    stats = agg.stats
    keys = np.repeat(np.arange(stats.n), np.diff(stats.indptr)) * stats.m + stats.cluster_ids
    rows, cols = np.nonzero(agg.members < agg.m)
    at = np.searchsorted(keys, agg.owner[rows] * stats.m + agg.members[rows, cols])
    return rows, cols, _slot(stats)[at]


def _pattern_estimates(
    agg: ClusterAggregatedModel,
    tables: list[tuple[np.ndarray, np.ndarray]],
    W: np.ndarray,
    step: int,
) -> list[np.ndarray]:
    """The table route of replicate_estimates, taking step patterns at a time.

    Per weight table (values, base), E[i * P + p] = Y_i(p) * values[base[i]
    + t] with P = 2**C_max: unit i's term when the clusters of its
    neighborhood marked by the bits of pattern p are treated, t of them.
    Y_i(p) sums the rows whose masks p covers, as evaluate_draws sums the
    rows a draw treats. Each draw then gathers every unit's term at the
    pattern its clusters take and averages them.
    """
    stats = agg.stats
    n, C, P = stats.n, stats.C_max, 1 << stats.C_max
    sizes = np.diff(stats.indptr)
    low = (1 << sizes) - 1
    ones = sum((np.arange(P) >> j) & 1 for j in range(C))
    # each model row's clusters as bits, bit j for the j-th neighborhood slot
    rows, cols, pos = _row_positions(agg)
    bits = np.zeros(agg.members.shape, dtype=np.int64)
    bits[rows, cols] = 1 << pos
    masks = bits.sum(axis=1)
    E = [np.empty((n, P)) for _ in tables]
    for start in range(0, P, step):
        p = np.arange(start, min(start + step, P))[:, None]
        Y = _evaluate_hits(agg, (p & masks) == masks)
        t = ones[p & low]
        for e, (values, base) in zip(E, tables):
            e[:, start : start + p.size] = (Y * values[base + t]).T
    # slots[i, j] is the j-th cluster of unit i's neighborhood, or the pad m
    # (never treated) past its end; a draw's pattern for unit i sums 2**j
    # over its treated slots
    slots = np.full((n, C), agg.m)
    slots[np.repeat(np.arange(n), sizes), _slot(stats)] = stats.cluster_ids
    # indexes into E stay below n * P <= _BLOCK, so int32 holds them
    offs = np.arange(n, dtype=np.int32) * P
    out = [np.empty(W.shape[0]) for _ in tables]
    # a block holds (draws, n) codes and terms and (draws, m + 1) padded draws
    step = max(1, _BLOCK // (n + 1))
    for start in range(0, W.shape[0], step):
        block = slice(start, start + step)
        Wb = _draws(W[block], agg.m)
        Wpad = np.zeros((Wb.shape[0], agg.m + 1), dtype=np.int32)
        Wpad[:, :-1] = Wb
        # C order, so each row is averaged as the per-draw route averages it
        code = np.tile(offs, (Wpad.shape[0], 1))
        for j in range(C):
            code += Wpad[:, slots[:, j]] << j
        for est, e in zip(out, E):
            est[block] = np.mean(e.ravel()[code], axis=1)
    return out


def replicate_estimates(
    agg: ClusterAggregatedModel,
    d: Design,
    specs: Sequence[EstimatorSpec],
    W: np.ndarray,
) -> list[np.ndarray]:
    """Each spec's estimates for a batch of cluster assignments, one per row
    of W, from agg, the model re-keyed on its lift agg.stats to d's
    clustering, as _same_lift checks.

    Each spec's weight table is built once. Unit i's term Y_i * w_i depends
    on a draw only through which of its c_i neighborhood clusters are
    treated, a pattern of c_i bits. When the P = 2**C_max patterns number at
    most the draws and n * P fits the _BLOCK budget, the table route takes
    every term once per pattern, and each draw gathers its units' terms by
    pattern. Otherwise the per-draw route takes each block's outcomes
    (evaluate_draws) and treated counts once and gathers every weight table
    on them: below R = P, filling the tables takes longer than evaluating
    the draws, and past n * P > _BLOCK they would not fit one block.
    Both routes multiply the same outcome by the same weight and average
    the same (draws, n) rows, so they agree bit for bit. Both walk their
    work in blocks under the _BLOCK element budget, no (R, n) array is
    held, and estimate r depends only on draw r.
    """
    stats = agg.stats
    _same_lift(d.clustering, stats)
    tables = [_table(stats, d, spec) for spec in specs]
    W = np.asarray(W)
    step = max(1, _BLOCK // max(agg.values.size, stats.cluster_ids.size))
    P = 1 << stats.C_max
    if P <= W.shape[0] and stats.n * P <= _BLOCK:
        return _pattern_estimates(agg, tables, W, step)
    out = [np.empty(W.shape[0]) for _ in specs]
    for start in range(0, W.shape[0], step):
        block = slice(start, start + step)
        Y = evaluate_draws(agg, W[block])
        treated = _treated(stats, np.asarray(W[block], dtype=np.int8))
        for est, (values, base) in zip(out, tables):
            est[block] = np.mean(Y * values[base + treated], axis=1)
    return out


def _mean_var(est: np.ndarray, probs: list[float] | None = None) -> tuple[float, float]:
    """(mean, population variance) of the estimates by fsum: the plain
    average, or the probs-weighted sums when probs is given. CapacityError
    if a squared deviation overflows (estimates near 1e154 and beyond)."""
    vals = est.tolist()
    try:
        if probs is None:
            mean = math.fsum(vals) / len(vals)
            return mean, math.fsum((e - mean) ** 2 for e in vals) / len(vals)
        mean = math.fsum(pr * e for pr, e in zip(probs, vals))
        return mean, math.fsum(pr * (e - mean) ** 2 for pr, e in zip(probs, vals))
    except OverflowError:
        top = max(map(abs, vals))
        raise CapacityError(f"the variance of estimates up to {top:.3g} overflows") from None


def _summary(est: np.ndarray, tte: float) -> tuple[float, float, float, float]:
    """(mean, bias, population variance, mse) of replicated estimates."""
    mean_est, var = _mean_var(est)
    bias = mean_est - tte
    return mean_est, bias, var, bias * bias + var


def _cell(cfg: ExperimentConfig) -> tuple[ClusterAggregatedModel, list[np.ndarray], float]:
    """The shared replication cell of cfg: its model re-keyed on the lift of
    its graph to clusters, its R draws, and each estimator's estimates on
    them, with the seconds all of that took. The draws are freed on return."""
    d = cfg.design
    t0 = time.perf_counter()
    agg = cluster_aggregate(cfg.model, cluster_stats(cfg.graph, d.clustering))
    W = _sample_draws(d, cfg.seed, cfg.replications)
    estimates = replicate_estimates(agg, d, cfg.estimators, W)
    return agg, estimates, time.perf_counter() - t0


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
    agg, estimates, wall = _cell(cfg)
    tte = true_tte(model)
    # (analytic bias, variance bound) by order. Horvitz-Thompson (None) is
    # unbiased under a Bernoulli design; full-contact units can bias it under
    # the complete design, for which no closed form is kept.
    analytic = {None: (0.0 if d.is_bernoulli else None, None)}
    orders = dict.fromkeys(spec.order for spec in cfg.estimators if spec.order)
    B = outcome_bound(model, g) if orders else 0.0
    for order in orders:
        exact = bias_exact(agg, d, order)
        rep = variance_bound(agg.stats, d, order, B, cfg.gamma_source) if B > 0.0 else None
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
    Values are the report's own (None where it has none), for write_csv.

    Timing is real elapsed time and therefore not reproducible; every other
    row is a pure function of the configuration.
    """
    base = {
        "estimator": report.kind,
        "beta": report.beta,
        "tag": report.tag,
        "replications": report.replications,
        "true_tte": report.true_tte,
    }
    return [
        dict(base, metric=name, value=getattr(report, name))
        for name in _METRICS + ("wall_time_s",)
    ]


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
    if not specs:
        raise InputError("an oracle needs at least one estimator")
    probs, W = enumerate_support(d)
    probs = probs.tolist()
    if all(pr == probs[0] for pr in probs):
        probs = None
    agg = cluster_aggregate(model, cluster_stats(g, d.clustering))
    return [_mean_var(est, probs) for est in replicate_estimates(agg, d, specs, W)]


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
        rep = variance_bound(cluster_stats(g, d.clustering), d, beta, B, "quadform")
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
    chosen must index into designs.
    """
    if not designs:
        raise InputError("no candidate designs")
    if not 0 <= chosen < len(designs):
        raise InputError(f"chosen={chosen} is not a candidate index in [0, {len(designs)})")
    tte = true_tte(model)
    rmses = []
    for d in designs:
        [est] = _cell(ExperimentConfig(g, model, d, (spec,), replications, seed))[1]
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
    for name, vals in (("units", units), ("R_grid", R_grid), ("seeds", seeds)):
        if len(vals) == 0:
            raise InputError(f"empty {name}: need at least one unit, R and seed")
    if not all(0 <= i < g.n for i in units):
        raise InputError(f"units {list(units)} not all within [0, {g.n})")
    if min(R_grid) < 1:
        raise InputError(f"need at least one draw, got R={min(R_grid)}")
    stats = cluster_stats(g, d.clustering)
    indptr, ids = stats.indptr, stats.cluster_ids
    grounds = {i: tuple(ids[indptr[i] : indptr[i + 1]].tolist()) for i in units}
    targets = {i: analytic_cluster_moments(d, grounds[i], beta).M_pinv for i in units}
    fro: dict[tuple[int, int, int], float] = {}
    for seed in seeds:
        # monte_carlo_moments of each unit, sharing one set of draws per
        # seed: the streams (seed, r) are prefix-stable, so the first R
        # draws at the largest R are the draws at R
        W = _sample_draws(d, seed, max(R_grid))
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

    path None writes to stdout. None (or a missing field) is an empty cell
    and every other value is str() of itself, which for a float is its
    shortest round-trip form; cells are quoted only where a value holds a
    comma, quote or line break. The trailing comments record the seed and
    the source version so every output file is self-describing.
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
            writer.writerow(["" if row.get(f) is None else str(row[f]) for f in fieldnames])
        if seed is not None:
            out.write(f"# seed={seed}\n")
        out.write(f"# git_describe={git_describe()}\n")
    finally:
        if close:
            out.close()
