"""End-to-end acceptance checks.

Each test exercises one advertised guarantee at its stated tolerance and
prints a single ``ACCEPTANCE n PASS`` or ``ACCEPTANCE n FAIL`` line on the
real stdout so the verdicts survive pytest's capture. Instances are drawn
from seeded generators; nothing here depends on wall-clock ordering apart
from the per-criterion runtime ceilings, which are asserted as well.
"""
from __future__ import annotations

import itertools
import math
import sys
import time

import numpy as np
import pytest

from pinvtte import (
    Clustering,
    EstimatorSpec,
    ExperimentConfig,
    LowOrderModel,
    bernoulli_gcr,
    bias_bound_gcr,
    bias_crd,
    bias_exact,
    cluster_stats,
    complete_gcr,
    contiguous_cycle_clusters,
    cycle_power,
    enumerate_support,
    estimate,
    exhaustive_expectation,
    from_edge_list,
    gamma_crd,
    gamma_gcr_closed,
    gamma_gcr_envelope,
    gamma_quadform,
    gen_cycle_model,
    gen_named_model,
    louvain,
    mc_convergence_report,
    outcome_bound,
    rmse_ratio,
    run_experiment,
    sample,
    sbm_sample,
    select_clustering,
    singleton_clustering,
    analytic_cluster_moments,
    true_tte,
    variance_bound,
)

from conftest import cluster_rows, crd_determinant, lift, neighbors, support_moments


@pytest.fixture
def announce(request):
    """Writer that reaches the live terminal despite fd-level capture."""
    reporter = request.config.pluginmanager.get_plugin("terminalreporter")

    def write(line: str) -> None:
        if reporter is not None:
            reporter.write_line(line)
        else:
            print(line, file=sys.__stdout__, flush=True)

    return write


def _verdict(
    n: int, failures: list[str], elapsed: float, budget: float, announce
) -> None:
    if elapsed >= budget:
        failures.append(f"runtime {elapsed:.1f}s exceeds {budget:.0f}s budget")
    announce(f"ACCEPTANCE {n} {'FAIL' if failures else 'PASS'}")
    assert not failures, f"criterion {n}: " + "; ".join(failures[:5])


def _random_graph(rng: np.random.Generator, n: int, avg_deg: float = 2.5):
    edges = [
        (i, j)
        for i in range(n)
        for j in range(n)
        if i != j and rng.random() < avg_deg / n
    ]
    return from_edge_list(edges, n)


def _random_clustering(rng: np.random.Generator, n: int, m: int) -> Clustering:
    labels = list(range(m)) + [int(rng.integers(0, m)) for _ in range(n - m)]
    rng.shuffle(labels)
    return Clustering(assignment=tuple(labels))


def _random_model(
    rng: np.random.Generator,
    g,
    beta_star: int,
    nonneg: bool = False,
    pair_rate: float = 0.6,
) -> LowOrderModel:
    coeffs = []
    for nb in neighbors(g):
        d: dict[tuple[int, ...], float] = {(): float(rng.normal())}
        for j in nb:
            if rng.random() < 0.8:
                d[(j,)] = 0.5 * float(rng.normal())
        if beta_star >= 2:
            for pair in itertools.combinations(nb, 2):
                if rng.random() < pair_rate:
                    d[pair] = 0.3 * float(rng.normal())
        if nonneg:
            d = {key: abs(val) for key, val in d.items()}
        coeffs.append(d)
    return LowOrderModel.from_dicts(beta_star=beta_star, coeffs=tuple(coeffs))


def test_acceptance_01_exhaustive_unbiasedness(announce):
    t0 = time.monotonic()
    failures: list[str] = []
    rng = np.random.default_rng(101)
    for trial in range(50):
        n = int(rng.integers(4, 26))
        m = int(rng.integers(2, min(n, 10) + 1))
        beta_star = 1 + trial % 2
        beta = beta_star + (trial % 3 == 0)
        p = (0.2, 0.5)[trial % 2]
        g = _random_graph(rng, n)
        c = _random_clustering(rng, n, m)
        model = _random_model(rng, g, beta_star)
        d = bernoulli_gcr(c, p)
        mean, _ = exhaustive_expectation(g, model, d, [EstimatorSpec("pinv", beta)])[0]
        gap = abs(mean - true_tte(model))
        if gap >= 1e-9:
            failures.append(f"trial {trial}: |mean - tte| = {gap:.2e}")
    _verdict(1, failures, time.monotonic() - t0, 30.0, announce)


def test_acceptance_02_exact_bias_oracle(announce):
    t0 = time.monotonic()
    failures: list[str] = []
    rng = np.random.default_rng(202)
    for trial in range(50):
        n = int(rng.integers(4, 15))
        m = int(rng.integers(2, min(n, 8) + 1))
        g = _random_graph(rng, n)
        c = _random_clustering(rng, n, m)
        model = _random_model(rng, g, 2)
        d = bernoulli_gcr(c, (0.2, 0.5)[trial % 2])
        mean, _ = exhaustive_expectation(g, model, d, [EstimatorSpec("pinv", 1)])[0]
        exact = bias_exact(lift(model, g, d.clustering), d, 1)
        gap = abs(exact - (mean - true_tte(model)))
        if gap >= 1e-9:
            failures.append(f"bern trial {trial}: gap {gap:.2e}")
    for trial in range(50):
        n = int(rng.integers(4, 15))
        m = int(rng.integers(2, min(n, 6) + 1))
        k = int(rng.integers(1, m))
        g = _random_graph(rng, n)
        c = _random_clustering(rng, n, m)
        model = _random_model(rng, g, 2)
        d = complete_gcr(c, k)
        mean, _ = exhaustive_expectation(g, model, d, [EstimatorSpec("pinv", 1)])[0]
        exact = bias_exact(lift(model, g, d.clustering), d, 1)
        gap = abs(exact - (mean - true_tte(model)))
        if gap >= 1e-9:
            failures.append(f"crd trial {trial}: gap {gap:.2e}")
    pair_graph = from_edge_list([(1, 0), (0, 1)], 2)
    pair_model = LowOrderModel.from_dicts(
        beta_star=2,
        coeffs=({(): 0.0, (0, 1): 1.0}, {(): 0.0, (0, 1): 1.0}),
    )
    for p in (0.25, 0.4, 0.5):
        d = bernoulli_gcr(singleton_clustering(2), p)
        exact = bias_exact(lift(pair_model, pair_graph, d.clustering), d, 1)
        if abs(exact - (2 * p - 1)) >= 1e-12:
            failures.append(f"delta pair p={p}: {exact}")
    _verdict(2, failures, time.monotonic() - t0, 30.0, announce)


def test_acceptance_03_bias_bound_chain(announce):
    t0 = time.monotonic()
    failures: list[str] = []
    rng = np.random.default_rng(303)
    for trial in range(50):
        n = int(rng.integers(4, 15))
        m = int(rng.integers(2, min(n, 8) + 1))
        g = _random_graph(rng, n)
        c = _random_clustering(rng, n, m)
        model = _random_model(rng, g, 2, pair_rate=0.9)
        d = bernoulli_gcr(c, (0.2, 0.5)[trial % 2])
        mean, _ = exhaustive_expectation(g, model, d, [EstimatorSpec("pinv", 1)])[0]
        bias = abs(mean - true_tte(model))
        bound = bias_bound_gcr(lift(model, g, c), 1)
        slack = 1e-12
        if not (bias <= bound.x_norm + slack and bound.x_norm <= bound.c_norm + slack):
            failures.append(
                f"trial {trial}: bias {bias:.3e}, x {bound.x_norm:.3e}, c {bound.c_norm:.3e}"
            )
    _verdict(3, failures, time.monotonic() - t0, 30.0, announce)


def test_acceptance_04_gamma_closed_forms(announce):
    t0 = time.monotonic()
    failures: list[str] = []
    p_grid = [round(0.1 * j, 1) for j in range(1, 10)]
    for c in range(1, 7):
        for beta in range(1, 4):
            for p in p_grid:
                closed = gamma_gcr_closed(c, beta, p)
                d = bernoulli_gcr(singleton_clustering(c), p)
                quad = gamma_quadform(analytic_cluster_moments(d, range(c), beta))
                if abs(closed - quad) > 1e-10 * max(1.0, abs(closed)):
                    failures.append(f"gcr c={c} beta={beta} p={p}")
                envelope = gamma_gcr_envelope(c, beta, p)
                if envelope < closed - 1e-9 * max(1.0, closed):
                    failures.append(f"envelope below closed at c={c} beta={beta} p={p}")
    for m in range(2, 9):
        for k in range(1, m):
            d = complete_gcr(singleton_clustering(m), k)
            for c in range(1, m + 1):
                quad, _ = gamma_crd(c, m, k)
                numeric = gamma_quadform(analytic_cluster_moments(d, range(c), 1))
                if abs(quad - numeric) > 1e-9 * max(1.0, abs(quad)):
                    failures.append(f"crd m={m} k={k} c={c}")
    _verdict(4, failures, time.monotonic() - t0, 10.0, announce)


def test_acceptance_05_variance_bound_soundness(announce):
    t0 = time.monotonic()
    failures: list[str] = []
    rng = np.random.default_rng(505)
    for trial in range(50):
        n = int(rng.integers(4, 13))
        m = int(rng.integers(2, min(n, 7) + 1))
        beta = 1 + trial % 2
        g = _random_graph(rng, n)
        c = _random_clustering(rng, n, m)
        model = _random_model(rng, g, beta)
        d = bernoulli_gcr(c, (0.2, 0.5)[trial % 2])
        _, var = exhaustive_expectation(g, model, d, [EstimatorSpec("pinv", beta)])[0]
        report = variance_bound(
            cluster_stats(g, c), d, beta, outcome_bound(model, g)
        )
        if var > report.var_bound_pairwise * (1 + 1e-9) + 1e-12:
            failures.append(
                f"trial {trial}: var {var:.4e} > bound {report.var_bound_pairwise:.4e}"
            )
    lone = from_edge_list([], 1)
    d = bernoulli_gcr(singleton_clustering(1), 0.5)
    report = variance_bound(cluster_stats(lone, singleton_clustering(1)), d, 1, 1.0)
    if report.var_bound_pairwise != pytest.approx(4.0, abs=1e-12):
        failures.append(f"single-unit bound {report.var_bound_pairwise}")
    flat = LowOrderModel.from_dicts(beta_star=1, coeffs=({(): 1.0},))
    _, var = exhaustive_expectation(lone, flat, d, [EstimatorSpec("pinv", 1)])[0]
    if var > 4.0 + 1e-12:
        failures.append(f"single-unit variance {var}")
    _verdict(5, failures, time.monotonic() - t0, 60.0, announce)


def test_acceptance_06_crd_structure(announce):
    t0 = time.monotonic()
    failures: list[str] = []
    for m in range(2, 9):
        for k in range(1, m):
            d = complete_gcr(singleton_clustering(m), k)
            for c in range(0, m + 1):
                closed = crd_determinant(m, k, c)
                numeric = float(np.linalg.det(analytic_cluster_moments(d, range(c), 1).M))
                if abs(closed - numeric) > 1e-12 * max(1.0, abs(closed)):
                    failures.append(f"det m={m} k={k} c={c}")
    g = cycle_power(4, 1)
    c = Clustering(assignment=(0, 1, 0, 1))
    coeffs = []
    for i in range(4):
        left, right = (i - 1) % 4, (i + 1) % 4
        coeffs.append({(): 0.0, (i,): 0.5, tuple(sorted((left,))): 0.25, (right,): 0.25})
    model = LowOrderModel.from_dicts(beta_star=1, coeffs=tuple(coeffs))
    exact, _ = bias_crd(lift(model, g, c), complete_gcr(c, 1), outcome_bound(model, g))
    if exact != -2 / 3:
        failures.append(f"full-contact bias {exact}")
    d = complete_gcr(c, 1)
    for _, w in zip(*enumerate_support(d)):
        from pinvtte import draw_from_w

        draw = draw_from_w(d, w)
        est = estimate(g, np.zeros(4), draw, d, "crd1")
        if any(weight != pytest.approx(2 / 3, abs=1e-15) for weight in est.weights):
            failures.append(f"weights {est.weights} for w={w}")
    rng = np.random.default_rng(606)
    for trial in range(50):
        n = int(rng.integers(4, 13))
        m = int(rng.integers(2, min(n, 6) + 1))
        k = int(rng.integers(1, m))
        g2 = _random_graph(rng, n)
        c2 = _random_clustering(rng, n, m)
        model2 = _random_model(rng, g2, 1)
        exact2, bound2 = bias_crd(
            lift(model2, g2, c2), complete_gcr(c2, k), outcome_bound(model2, g2)
        )
        if abs(exact2) > bound2 + 1e-12:
            failures.append(f"trial {trial}: |{exact2:.3e}| > {bound2:.3e}")
    _verdict(6, failures, time.monotonic() - t0, 10.0, announce)


_CYCLE_WIDTHS = (1, 2, 3, 4, 5, 6, 8)


def _cycle_grid_mse(model, beta_grid, estimators, seed):
    """MSEs for every (width, beta, estimator) cell on the 120-unit cycle."""
    g = cycle_power(120, 3)
    out = {}
    for width in _CYCLE_WIDTHS:
        d = bernoulli_gcr(contiguous_cycle_clusters(120, width), 0.25)
        for beta in beta_grid:
            for kind in estimators:
                spec = EstimatorSpec(kind, beta if kind != "ht" else None)
                cfg = ExperimentConfig(
                    graph=g,
                    model=model(beta) if callable(model) else model,
                    design=d,
                    estimators=(spec,),
                    replications=500,
                    seed=seed,
                    tag=f"w={width}",
                )
                out[(width, beta, kind)] = run_experiment(cfg)[0]
    return out


def test_acceptance_07_pinv_vs_ht_grid(announce):
    t0 = time.monotonic()
    failures: list[str] = []
    reports = _cycle_grid_mse(
        lambda beta: gen_cycle_model(cycle_power(120, 3), beta),
        beta_grid=(1, 2, 3),
        estimators=("pinv", "ht"),
        seed=11,
    )
    for width in _CYCLE_WIDTHS:
        for beta in (1, 2, 3):
            mse_pinv = reports[(width, beta, "pinv")].empirical_mse
            mse_ht = reports[(width, beta, "ht")].empirical_mse
            if mse_pinv > mse_ht:
                failures.append(
                    f"w={width} beta={beta}: pinv {mse_pinv:.4e} > ht {mse_ht:.4e}"
                )
    _verdict(7, failures, time.monotonic() - t0, 300.0, announce)


def test_acceptance_08_low_order_truncation_grid(announce):
    t0 = time.monotonic()
    failures: list[str] = []
    g = cycle_power(120, 3)
    model = gen_cycle_model(g, 4)
    reports = _cycle_grid_mse(model, beta_grid=(1, 4), estimators=("pinv",), seed=13)
    for width in _CYCLE_WIDTHS:
        clustering = contiguous_cycle_clusters(120, width)
        mse_low = reports[(width, 1, "pinv")].empirical_mse
        mse_full = reports[(width, 4, "pinv")].empirical_mse
        if not mse_low < mse_full:
            failures.append(f"w={width}: {mse_low:.4e} !< {mse_full:.4e}")
        bound = bias_bound_gcr(lift(model, g, clustering), 1)
        # the unit-level tail norm does not depend on the clustering; the
        # refined cluster-level bound only tightens it
        if bound.c_norm != pytest.approx(0.4375, abs=1e-12):
            failures.append(f"w={width}: tail norm {bound.c_norm}")
        if not bound.refined <= bound.c_norm + 1e-12:
            failures.append(f"w={width}: refined {bound.refined} above tail norm")
        emp_bias = abs(reports[(width, 1, "pinv")].empirical_bias)
        if emp_bias > bound.c_norm:
            failures.append(f"w={width}: |bias| {emp_bias:.4f} > {bound.c_norm}")
    _verdict(8, failures, time.monotonic() - t0, 300.0, announce)


def test_acceptance_09_clustering_selection(announce):
    t0 = time.monotonic()
    failures: list[str] = []
    g = sbm_sample(200, 8, 0.5, 0.0, seed=5)
    model = gen_named_model(g, "weak", seed=0)
    grid = (0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 2.0)
    candidates = [louvain(g, resolution=r, seed=0) for r in grid]
    designs = [bernoulli_gcr(c, 0.25) for c in candidates]
    chosen, _ = select_clustering(g, designs, beta=1, B=outcome_bound(model, g))
    ratio, rmses = rmse_ratio(
        g,
        model,
        designs,
        EstimatorSpec("pinv", 1),
        replications=500,
        seed=17,
        chosen=chosen,
    )
    if ratio > 1.05:
        failures.append(f"chosen candidate {chosen} at {ratio:.3f}x best rmse {min(rmses):.4f}")
    _verdict(9, failures, time.monotonic() - t0, 300.0, announce)


def test_acceptance_10_monte_carlo_moments(announce):
    t0 = time.monotonic()
    failures: list[str] = []
    g = cycle_power(12, 1)
    c = contiguous_cycle_clusters(12, 2)
    d = bernoulli_gcr(c, 0.3)
    out = mc_convergence_report(
        d, g, units=[0, 5], beta=1, R_grid=[400, 40000], seeds=range(5)
    )
    by_r = {row["R"]: row["median_fro_error"] for row in out["summary"]}
    if not by_r[40000] < by_r[400]:
        failures.append(f"median error {by_r[40000]:.3e} !< {by_r[400]:.3e}")
    stats = cluster_stats(g, c)
    for unit in (0, 5):
        exact = analytic_cluster_moments(d, cluster_rows(stats)[unit], 1)
        limit = support_moments(d, g, unit, 1)
        err = float(np.linalg.norm(limit.M_pinv - exact.M_pinv))
        if err >= 1e-12:
            failures.append(f"unit {unit}: support-weighted error {err:.2e}")
    _verdict(10, failures, time.monotonic() - t0, 120.0, announce)


def test_acceptance_11_route_equivalence(announce):
    t0 = time.monotonic()
    failures: list[str] = []
    rng = np.random.default_rng(1111)
    for trial in range(20):
        n = int(rng.integers(6, 13))
        m = int(rng.integers(2, 7))
        beta = 1 + trial % 2
        g = _random_graph(rng, n)
        c = _random_clustering(rng, n, m)
        p = float(rng.uniform(0.15, 0.85))
        d = bernoulli_gcr(c, p)
        Y = rng.normal(size=n)
        for r in range(100):
            draw = sample(d, seed=trial, replicate=r)
            a = estimate(g, Y, draw, d, "pinv", beta).tte_hat
            b = estimate(g, Y, draw, d, "gcr_explicit", beta).tte_hat
            if abs(a - b) > 1e-10 * max(1.0, abs(a)):
                failures.append(f"trial {trial} rep {r}: pinv {a} explicit {b}")
                break
    for trial in range(20):
        n = int(rng.integers(4, 9))
        g = _random_graph(rng, n)
        d = bernoulli_gcr(singleton_clustering(n), float(rng.uniform(0.2, 0.8)))
        Y = rng.normal(size=n)
        beta = max(g.degrees)
        from pinvtte import draw_from_w

        for _, w in zip(*enumerate_support(d)):
            draw = draw_from_w(d, w)
            a = estimate(g, Y, draw, d, "pinv", beta).tte_hat
            b = estimate(g, Y, draw, d, "ht").tte_hat
            if abs(a - b) > 1e-10 * max(1.0, abs(b)):
                failures.append(f"saturated trial {trial}: pinv {a} ht {b}")
                break
    _verdict(11, failures, time.monotonic() - t0, 30.0, announce)


def test_acceptance_12_monotone_variance_ordering(announce):
    t0 = time.monotonic()
    failures: list[str] = []
    rng = np.random.default_rng(1212)
    for trial in range(30):
        n = int(rng.integers(4, 13))
        m = int(rng.integers(2, min(n, 8) + 1))
        beta_star = 1 + trial % 2
        g = _random_graph(rng, n)
        c = _random_clustering(rng, n, m)
        model = _random_model(rng, g, beta_star, nonneg=True)
        d = bernoulli_gcr(c, (0.2, 0.4)[trial % 2])
        _, var_pinv = exhaustive_expectation(
            g, model, d, [EstimatorSpec("pinv", beta_star)]
        )[0]
        _, var_ht = exhaustive_expectation(g, model, d, [EstimatorSpec("ht")])[0]
        if var_pinv > var_ht + 1e-12:
            failures.append(f"trial {trial}: {var_pinv:.4e} > {var_ht:.4e}")
    _verdict(12, failures, time.monotonic() - t0, 60.0, announce)
