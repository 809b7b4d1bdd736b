"""Benchmark workloads: the CLI argv each one runs, its work count, and its
output checks.

Every workload is one `pinvtte` CLI invocation. `argv(seed)` builds the whole
argument list; the program sees nothing else of the benchmark. Each timed run
starts a fresh interpreter, so `moments._SYSTEM_CACHE`, `_INDEX_CACHE` and the
`git_describe` cache start cold, as they do for a user.

Why these four (figures from a 2-core box, Python 3.11, numpy 2.4 with
scipy-openblas, traced self time):

- ``cycle-sim``: the paper's replication loop at large n and moderate R.
  `outcomes` is ~80 % of self time. Each estimator spec samples and evaluates
  again (1,000 `sample` and 1,000 `evaluate` calls). It also runs the batch
  weight kernels, `bias_exact`, and the moment-cache hit path (~12,000
  `cached_cluster_system` lookups against 2 builds).
- ``sbm-select``: design-time analysis; no outcomes, no estimator weights.
  `bounds` leads (the `variance_bound` dependents loop: the res=0.25
  candidate has so few clusters that every unit depends on nearly all 2,000),
  then `clustering` (7 Louvain runs). `graph` is the O(n^2) `sbm_sample` pair
  arrays. How many clusters the res=0.25 candidate keeps depends on the
  graph, so one graph seed can run 1.5 times as long as another. An
  invocation with --seed s therefore cycles through the fixed graphs
  s*5 .. s*5+4 (`Workload.inputs`, `Workload.run_seed`) and runs only whole
  cycles, so a faster and a slower build take their median over the same
  graphs.
- ``crd-oracle``: exhaustive enumeration at m=16 over 12,870 support points.
  The same layers as `cycle-sim` in the opposite shape (tiny n, huge R).
  `estimator` leads, in the per-draw `crd1` loop that rebuilds cluster
  neighborhoods on every call; `outcomes` is second (38,610 small
  `evaluate` calls). Deterministic: the seed is ignored.
- ``crd-bounds``: the only workload where `moments` does real work: one
  2,048-row subset system (c=23, beta=3) pseudo-inverted by numeric SVD,
  ~99 % of the run. Without it `moments` and the capacity guards would go
  unmeasured. Deterministic: the seed is ignored.

Which per-layer metric (traced run) should move which end-to-end metric:

- `outcomes.*` moves wall_s, cpu_s, units_per_s and maybe peak_rss_mb on
  cycle-sim, and second on crd-oracle. It is zero on sbm-select and
  crd-bounds, where the prediction is no change.
- `estimator.*` moves wall_s and units_per_s on crd-oracle, a little on
  cycle-sim. It is zero on sbm-select and crd-bounds.
- `moments.self_s` and `moments.max_index_rows` move wall_s and peak_rss_mb
  on crd-bounds. `moments.system_lookups` catches a slower cache-hit path on
  cycle-sim.
- `bounds.self_s` moves wall_s on sbm-select and a little on cycle-sim. It
  is zero on crd-oracle.
- `clustering.self_s` moves sbm-select. `graph.self_s` moves sbm-select
  wall_s and peak_rss_mb.
- `design.*` moves cycle-sim and crd-oracle. When draws are shared across
  estimators, `design.sample.calls` and `outcomes.evaluate.calls` halve on
  cycle-sim.
- `harness` and `cli` self time is small everywhere. setup_s is import cost
  on all four workloads.

Out of scope here, left for the in-library observability work: stage timers
inside `pinvtte`, the scope of `ExperimentReport.wall_time_s` (it times
`replicate_estimates` only), and a `--trace` option on the CLI. The traced
run below wraps the package from outside instead.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# the acceptance gates' tolerance: relative, with unit scale near zero
TOL = 1e-9

LAYERS = (
    "graph",
    "clustering",
    "outcomes",
    "design",
    "moments",
    "estimator",
    "bounds",
    "harness",
    "cli",
)

# references are recorded for --seed 0 .. REFERENCE_SEEDS-1 at full size and
# for SMOKE_SEEDS at smoke size; other seeds get the invariant and seed-free
# checks only
REFERENCE_SEEDS = 20
SMOKE_SEEDS = (0, 1)

_RESOLUTIONS = (0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 2.0)  # `select` default grid


@dataclass(frozen=True)
class Workload:
    name: str
    seeded: bool  # False: the seed does not reach the program
    argv: Callable[[int, bool], list[str]]  # (seed, smoke) -> CLI argv, no --out
    units: Callable[[bool], int]  # work cells done by one run
    check: Callable[[dict], list[str]]  # invariants on a parsed output
    predicted_top: tuple[str, ...]  # layers expected first by self time
    # rows that are the same for every seed, checked on unrecorded seeds
    seed_free: Callable[[dict], bool] | None = None
    # inputs per --seed: a timed run cycles through them in whole cycles,
    # for workloads whose run time depends on the seeded input
    inputs: int = 1

    def run_seed(self, seed: int, j: int) -> int:
        """The seed the program gets for input `j` of --seed `seed`."""
        return seed * self.inputs + j


def close(a: float, b: float) -> bool:
    return abs(a - b) <= TOL * max(1.0, abs(a), abs(b))


def _value(text: str) -> float:
    return float(text) if text != "" else math.nan


# ---------------------------------------------------------------------------
# cycle-sim
# ---------------------------------------------------------------------------


def _sim_size(smoke: bool) -> tuple[int, int]:
    return (600, 50) if smoke else (6000, 500)  # (n, replications)


def _sim_argv(seed: int, smoke: bool) -> list[str]:
    n, reps = _sim_size(smoke)
    return [
        "simulate", "--n", str(n), "--radius", "3", "--model", "cycle",
        "--beta-star", "2", "--clustering", "contiguous", "--width", "4",
        "--design", "gcr", "--p", "0.25", "--estimator", "pinv:2,ht",
        "--replications", str(reps), "--seed", str(seed),
    ]


def _sim_check(out: dict) -> list[str]:
    problems = []
    if f"# seed={out['seed']}" not in out["comments"]:
        problems.append(f"seed line missing from {out['comments']}")
    vals = {}
    for row in out["rows"]:
        if not close(float(row["true_tte"]), 0.75):
            problems.append(f"true_tte {row['true_tte']} is not 0.75")
        vals[(row["estimator"], row["metric"])] = _value(row["value"])
    if {e for e, _ in vals} != {"pinv", "ht"}:
        return problems + [f"estimators {sorted({e for e, _ in vals})}"]
    _, reps = _sim_size(out["smoke"])
    for est in ("pinv", "ht"):
        mean = vals[(est, "mean_estimate")]
        bias = vals[(est, "empirical_bias")]
        var = vals[(est, "empirical_variance")]
        mse = vals[(est, "empirical_mse")]
        if not close(bias, mean - 0.75):
            problems.append(f"{est}: empirical_bias {bias} != mean - tte")
        if not close(mse, bias * bias + var) or not close(
            vals[(est, "empirical_rmse")], math.sqrt(mse)
        ):
            problems.append(f"{est}: mse/rmse do not decompose")
        # both estimators are unbiased here; 6 standard errors
        if not abs(bias) <= 6.0 * math.sqrt(var / reps):
            problems.append(f"{est}: empirical bias {bias} beyond 6 standard errors")
    if not abs(vals[("pinv", "analytic_bias")]) <= TOL:
        problems.append(f"pinv:2 analytic_bias {vals[('pinv', 'analytic_bias')]}")
    if vals[("ht", "analytic_bias")] != 0.0:
        problems.append("ht analytic_bias is not 0 under a Bernoulli design")
    if not vals[("pinv", "var_bound")] > 0.0:
        problems.append("pinv:2 var_bound is not positive")
    return problems


# ---------------------------------------------------------------------------
# sbm-select
# ---------------------------------------------------------------------------


def _sbm_size(smoke: bool) -> int:
    return 400 if smoke else 2000


def _sbm_argv(seed: int, smoke: bool) -> list[str]:
    return [
        "select", "--graph", "sbm", "--n", str(_sbm_size(smoke)),
        "--blocks", "20", "--pi-in", "0.05", "--pi-out", "0.001",
        "--graph-seed", str(seed), "--design", "gcr", "--p", "0.25",
        "--beta", "2", "--B-bound", "1",
    ]


def _sbm_check(out: dict) -> list[str]:
    rows = out["rows"]
    problems = []
    if [int(r["rank"]) for r in rows] != list(range(len(_RESOLUTIONS))):
        return [f"ranks {[r['rank'] for r in rows]}"]
    if sorted(int(r["candidate"]) for r in rows) != list(range(len(_RESOLUTIONS))):
        return [f"candidates {[r['candidate'] for r in rows]}"]
    keys = []
    for r in rows:
        idx = int(r["candidate"])
        if float(r["resolution"]) != _RESOLUTIONS[idx]:
            problems.append(f"candidate {idx} has resolution {r['resolution']}")
        bound = float(r["var_bound_pairwise"])
        if not (math.isfinite(bound) and bound > 0.0):
            problems.append(f"candidate {idx} bound {bound}")
        keys.append((bound, int(r["clusters"]), idx))
    if keys != sorted(keys):
        problems.append("ranking is not ordered by (bound, clusters, candidate)")
    if [int(r["chosen"]) for r in rows] != [1] + [0] * (len(rows) - 1):
        problems.append("the chosen candidate is not the top-ranked one")
    return problems


# ---------------------------------------------------------------------------
# crd-oracle
# ---------------------------------------------------------------------------


def _oracle_size(smoke: bool) -> tuple[int, int]:
    return (16, 4) if smoke else (32, 8)  # (n, k); width 2 gives m = n / 2


def _oracle_argv(seed: int, smoke: bool) -> list[str]:
    n, k = _oracle_size(smoke)
    return [
        "oracle", "--n", str(n), "--radius", "1", "--model", "cycle",
        "--beta-star", "2", "--clustering", "contiguous", "--width", "2",
        "--design", "crd", "--k", str(k), "--estimator", "pinv:2,crd1,ht",
    ]


def _oracle_units(smoke: bool) -> int:
    n, k = _oracle_size(smoke)
    return n * math.comb(n // 2, k) * 3


def _oracle_check(out: dict) -> list[str]:
    problems = []
    kinds = [(r["estimator"], r["beta"]) for r in out["rows"]]
    if kinds != [("pinv", "2"), ("crd1", ""), ("ht", "")]:
        return [f"estimators {kinds}"]
    for r in out["rows"]:
        tte, mean, bias = float(r["true_tte"]), float(r["mean"]), float(r["bias"])
        if not close(tte, 0.75):
            problems.append(f"{r['estimator']}: true_tte {tte}")
        if not abs(bias) <= TOL or not close(bias, mean - tte):
            problems.append(f"{r['estimator']}: exact bias {bias}")
        if not float(r["variance"]) >= 0.0:
            problems.append(f"{r['estimator']}: variance {r['variance']}")
    return problems


# ---------------------------------------------------------------------------
# crd-bounds
# ---------------------------------------------------------------------------


def _crd_bounds_size(smoke: bool) -> tuple[int, int]:
    return (200, 5) if smoke else (2000, 11)  # (n, radius); c = 2 * radius + 1


def _crd_bounds_argv(seed: int, smoke: bool) -> list[str]:
    n, radius = _crd_bounds_size(smoke)
    return [
        "bounds", "--n", str(n), "--radius", str(radius),
        "--clustering", "singleton", "--design", "crd", "--k", str(n // 2),
        "--beta", "3", "--B-bound", "1",
    ]


def _crd_bounds_check(out: dict) -> list[str]:
    if len(out["rows"]) != 1:
        return [f"{len(out['rows'])} rows, expected 1"]
    row = out["rows"][0]
    n, radius = _crd_bounds_size(out["smoke"])
    problems = []
    bound = float(row["var_bound_pairwise"])
    if not (math.isfinite(bound) and bound > 0.0):
        problems.append(f"var_bound_pairwise {bound}")
    expect = {"n": n, "m": n, "beta": 3, "C_max": 2 * radius + 1, "k": n // 2}
    for key, val in expect.items():
        if int(row[key]) != val:
            problems.append(f"{key}={row[key]}, expected {val}")
    return problems


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "cycle-sim",
            True,
            _sim_argv,
            lambda smoke: math.prod(_sim_size(smoke)) * 2,
            _sim_check,
            ("outcomes",),
            lambda row: row["metric"] in ("analytic_bias", "var_bound"),
        ),
        Workload(
            "sbm-select",
            True,
            _sbm_argv,
            lambda smoke: _sbm_size(smoke) * len(_RESOLUTIONS),
            _sbm_check,
            ("bounds", "clustering"),
            inputs=5,
        ),
        Workload(
            "crd-oracle",
            False,
            _oracle_argv,
            _oracle_units,
            _oracle_check,
            ("estimator",),
        ),
        Workload(
            "crd-bounds",
            False,
            _crd_bounds_argv,
            lambda smoke: _crd_bounds_size(smoke)[0],
            _crd_bounds_check,
            ("moments",),
        ),
    )
}


# ---------------------------------------------------------------------------
# output parsing and reference comparison
# ---------------------------------------------------------------------------


def parse_output(text: str, seed: int, smoke: bool) -> dict:
    """Split a CLI CSV report into header, rows and trailing comment lines."""
    lines = text.splitlines()
    body = [ln for ln in lines if not ln.startswith("#")]
    comments = [ln for ln in lines if ln.startswith("#")]
    reader = csv.reader(body)
    header = next(reader)
    rows = [dict(zip(header, rec, strict=True)) for rec in reader]
    return {
        "header": header,
        "rows": rows,
        "comments": comments,
        "seed": seed,
        "smoke": smoke,
    }


def _comparable(out: dict) -> tuple[list[str], list[dict], list[str]]:
    rows = [r for r in out["rows"] if r.get("metric") != "wall_time_s"]
    comments = [c for c in out["comments"] if not c.startswith("# git_describe")]
    return out["header"], rows, comments


def _field_equal(a: str, b: str) -> bool:
    if a == b:
        return True
    try:
        return close(float(a), float(b))
    except ValueError:
        return False


def compare(out: dict, ref: dict, row_filter=None) -> list[str]:
    """Differences between an output and a recorded reference, at TOL.

    Timing rows and the git_describe line are skipped. row_filter limits the
    comparison to rows that do not depend on the seed.
    """
    header, rows, comments = _comparable(out)
    rheader, rrows, rcomments = _comparable(ref)
    if header != rheader:
        return [f"header {header} != reference {rheader}"]
    if row_filter is not None:
        rows = [r for r in rows if row_filter(r)]
        rrows = [r for r in rrows if row_filter(r)]
    elif comments != rcomments:
        return [f"comment lines {comments} != reference {rcomments}"]
    if len(rows) != len(rrows):
        return [f"{len(rows)} rows, reference has {len(rrows)}"]
    problems = []
    for i, (row, rrow) in enumerate(zip(rows, rrows)):
        for key in header:
            if not _field_equal(row[key], rrow[key]):
                problems.append(f"row {i} {key}={row[key]}, reference {rrow[key]}")
    return problems


def reference_path(w: Workload, seed: int, smoke: bool) -> Path:
    size = "smoke" if smoke else "full"
    return REFERENCE_DIR / f"{w.name}.{size}.seed{seed if w.seeded else 0}.csv"


def check_output(w: Workload, seed: int, smoke: bool, text: str) -> list[str]:
    """All problems found in one run's CSV output; empty means correct."""
    try:
        out = parse_output(text, seed, smoke)
        problems = w.check(out)
    except (StopIteration, ValueError, KeyError) as exc:
        return [f"unparseable output: {exc!r}"]
    ref_file = reference_path(w, seed, smoke)
    if ref_file.exists():
        problems += compare(out, parse_output(ref_file.read_text(), seed, smoke))
    elif w.seed_free is not None:
        # an unrecorded seed: the design facts still match any recorded seed
        size = "smoke" if smoke else "full"
        any_ref = sorted(REFERENCE_DIR.glob(f"{w.name}.{size}.seed*.csv"))
        if not any_ref:
            return problems + [f"no reference for {w.name} ({size})"]
        ref = parse_output(any_ref[0].read_text(), seed, smoke)
        problems += compare(out, ref, row_filter=w.seed_free)
    return problems
