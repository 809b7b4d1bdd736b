"""pinvtte benchmark: whole CLI runs per workload, or one traced run.

Usage:
  python3 bench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

--trace 0 runs the workload's CLI command again and again, each time in a
fresh interpreter and one at a time, for about S seconds, and reports the
end-to-end metrics as medians over those runs:

  wall_s       launch to exit of the CLI process
  cpu_s        user + sys CPU seconds of that process
  setup_s      launch until `import pinvtte.cli` returns (also sampled by
               extra import-only launches)
  units_per_s  the workload's work cells / (wall_s - setup_s)
  peak_rss_mb  ru_maxrss of that process

The timings are scaled to a reference host speed. On a shared host the
same code runs up to 40 % slower for minutes at a time, because of load the
benchmark cannot see. So before every CLI run, and after the last, the
benchmark times a fixed pure-Python routine of its own
(`reference_seconds`), in its own process on the CPU the CLI runs on, and
takes factor = REF_NOMINAL_S / (mean routine time of the run). setup_s is
multiplied by the factor, wall_s and cpu_s by factor ** RUN_SLOPE, and
units_per_s is divided by factor ** RUN_SLOPE. The program under test never
runs the routine, so a slower program still reads slower. The raw medians
and the factor are printed too, and every run's raw figures are kept in the
run record.

--trace 1 makes one traced run (bench/traced.py) and reports, per layer,
`<layer>.self_s` and `<layer>.calls` plus the named counters.

Every run's CSV output is checked (bench/workloads.py); runs that exit
non-zero or fail a check count as `failed` (runs_failed). The last stdout
line of each workload is one JSON object: correct, attempted, failed,
metrics; `--workload all` runs the workloads one after another. Scratch files
go to .bench_run/ at the checkout root. The benchmark exits non-zero without
a result when the package sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from workloads import LAYERS, WORKLOADS, check_output

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".bench_run"

SETUP_PROBES = 8  # import-only launches per timed run, for setup_s
CHILD_TIMEOUT_S = 120.0  # a stuck CLI run is killed and counted as failed
# One BLAS thread. With one thread per core on a shared 2-core box, the
# crd-bounds SVD slowed by a third whenever other load took a core, and its
# wall_s spread over ten seeds reached 0.33; one thread rides that out.
BLAS_THREADS = 1
# host speed probe: REF_SAMPLES timings of `reference_seconds` before each
# CLI run and after the last; REF_NOMINAL_S is its mean on a 2-core box
# with Python 3.11, so scaled timings read as seconds on that box at its
# usual speed
REF_SAMPLES = 8
REF_NOMINAL_S = 0.035
# How far a CLI run's time follows the probe: on a 2-core box, the slope of
# log(median run time) on log(mean probe time) over 25 timed runs per
# workload was 1.00 on crd-oracle, 0.81 on sbm-select, 0.46 on cycle-sim and
# 0.52 on crd-bounds (correlations 0.68-0.85); this is their mean. Import
# time (setup_s) follows the probe about one to one, so it takes the whole
# factor.
RUN_SLOPE = 0.7


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    # keeps `git describe` in the CLI from finding a repository above the checkout
    env["GIT_CEILING_DIRECTORIES"] = str(ROOT.parent)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p
    )
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def spawn(script: str, args: list[str], log: Path) -> dict:
    """Run one child to completion; return its wall time, rusage and status."""
    argv = [sys.executable, str(BENCH / script), *args]
    fd = os.open(log, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
    try:
        t0 = time.monotonic()
        pid = os.posix_spawn(
            sys.executable,
            argv,
            child_env(),
            file_actions=[
                (os.POSIX_SPAWN_DUP2, fd, 1),
                (os.POSIX_SPAWN_DUP2, fd, 2),
            ],
        )
    finally:
        os.close(fd)
    done = threading.Event()

    def kill_if_stuck():
        if not done.wait(CHILD_TIMEOUT_S):
            os.kill(pid, signal.SIGKILL)

    watchdog = threading.Thread(target=kill_if_stuck, daemon=True)
    watchdog.start()
    _, status, ru = os.wait4(pid, 0)
    t1 = time.monotonic()
    done.set()
    watchdog.join()
    return {
        "t0": t0,
        "wall_s": t1 - t0,
        "cpu_s": ru.ru_utime + ru.ru_stime,
        "peak_rss_mb": ru.ru_maxrss / 1024.0,
        "exit": os.waitstatus_to_exitcode(status),
    }


def reference_seconds() -> float:
    """Seconds a fixed pure-Python routine takes now: the host speed probe."""
    t0 = time.perf_counter()
    acc = 0
    table = {}
    for i in range(200_000):
        acc += i * i % 7
        table[i & 1023] = acc
    return time.perf_counter() - t0


def setup_seconds(stamp: Path, t0: float) -> float | None:
    try:
        return float(stamp.read_text()) - t0
    except (OSError, ValueError):
        return None


def git_describe() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except OSError:
        return "unknown"
    return out.stdout.strip() or "unknown"


def environment(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_describe": git_describe(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": nproc(),
        "blas": f"{blas.get('name')} {blas.get('version', '')}".strip(),
        "blas_threads": BLAS_THREADS,
        "seed": seed,
    }


def run_cli(w, seed: int, smoke: bool, tag: str, trace: bool = False) -> dict:
    """One CLI run of a workload in a fresh interpreter, output checked."""
    out = SCRATCH / f"{tag}.csv"
    side = SCRATCH / (f"{tag}.trace.json" if trace else f"{tag}.stamp")
    for f in (out, side):
        f.unlink(missing_ok=True)
    argv = [*w.argv(seed, smoke), "--out", str(out)]
    script = "traced.py" if trace else "launch.py"
    rec = spawn(script, [str(side), *argv], SCRATCH / f"{tag}.log")
    if rec["exit"] != 0:
        rec["problems"] = [f"exit code {rec['exit']}, see {tag}.log"]
    elif not out.exists():
        rec["problems"] = ["no output file"]
    else:
        rec["problems"] = check_output(w, seed, smoke, out.read_text(encoding="utf-8"))
    if not trace:
        rec["setup_s"] = setup_seconds(side, rec["t0"])
    rec["side"] = side
    return rec


def timed(w, seed: int, seconds: float) -> tuple[dict, list[dict], list[float]]:
    """Untraced runs in whole input cycles for about `seconds` (at least one
    cycle); medians of the end-to-end metrics, scaled as the module doc
    says, and the host probe timings."""
    # fills the bytecode cache, which users pay once, not per run
    spawn("launch.py", [str(SCRATCH / "warm.stamp")], SCRATCH / "warm.log")
    ref = []  # host speed probe timings, spread evenly over the timed runs

    def probe_host():
        ref.extend(reference_seconds() for _ in range(REF_SAMPLES))

    setups = []
    stamp = SCRATCH / "probe.stamp"
    for _ in range(SETUP_PROBES):
        stamp.unlink(missing_ok=True)
        rec = spawn("launch.py", [str(stamp)], SCRATCH / "probe.log")
        s = setup_seconds(stamp, rec["t0"])
        if rec["exit"] == 0 and s is not None:
            setups.append(s)
    runs = []
    start = time.monotonic()
    while True:
        # one cycle over the workload's inputs, so every run set covers each
        # input equally often however fast the program is
        for j in range(w.inputs):
            probe_host()
            rec = run_cli(w, w.run_seed(seed, j), False, w.name)
            runs.append(rec)
            for problem in rec["problems"]:
                print(f"run {len(runs)}: {problem}")
        elapsed = time.monotonic() - start
        if elapsed + elapsed / (len(runs) // w.inputs) > seconds:
            break
    probe_host()
    good = [r for r in runs if not r["problems"] and r["setup_s"] is not None] or runs
    setups += [r["setup_s"] for r in good if r["setup_s"] is not None]
    units = w.units(False)
    raw = {
        "wall_s": statistics.median(r["wall_s"] for r in good),
        "cpu_s": statistics.median(r["cpu_s"] for r in good),
        "setup_s": statistics.median(setups),
        "units_per_s": statistics.median(
            units / (r["wall_s"] - (r["setup_s"] or 0.0)) for r in good
        ),
    }
    # the mean, not the median: the probe flips between a fast and a slow
    # state, and the share of slow probes is what slows a whole CLI run
    factor = REF_NOMINAL_S / statistics.fmean(ref)
    for name, value in raw.items():
        print(f"{w.name} raw {name} {value:.6g}")
    print(f"{w.name} host speed factor {factor:.4f} "
          f"(reference routine mean {statistics.fmean(ref) * 1e3:.2f} ms "
          f"over {len(ref)} probes)")
    run_factor = factor**RUN_SLOPE
    metrics = {
        "wall_s": (raw["wall_s"] * run_factor, "s"),
        "cpu_s": (raw["cpu_s"] * run_factor, "s"),
        "setup_s": (raw["setup_s"] * factor, "s"),
        "units_per_s": (raw["units_per_s"] / run_factor, "1/s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in good), "MB"),
    }
    return metrics, runs, ref


def layer_metrics(doc: dict) -> dict:
    """Per-layer self time and calls, and the named counters, from spans."""
    names = doc["names"]
    spans = doc["spans"]
    child = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    self_s = dict.fromkeys(LAYERS, 0.0)
    calls = dict.fromkeys(LAYERS, 0)
    by_name: dict[str, int] = {}
    for (name_id, start, end, _), inner in zip(spans, child):
        name = names[name_id]
        layer = name.split(".", 1)[0]
        self_s[layer] += (end - start) - inner
        calls[layer] += 1
        by_name[name] = by_name.get(name, 0) + 1
    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = (self_s[layer], "s")
        metrics[f"{layer}.calls"] = (calls[layer], "count")
    counted = {
        "outcomes.evaluate.calls": "outcomes.evaluate",
        "design.sample.calls": "design.sample",
        "moments.system_lookups": "moments.cached_cluster_system",
        "moments.systems_built": "moments.analytic_cluster_moments",
        "moments.numeric_pinv.calls": "moments.numeric_pinv",
        "bounds.variance_bound.calls": "bounds.variance_bound",
        "bounds.bias_exact.calls": "bounds.bias_exact",
        "clustering.louvain.calls": "clustering.louvain",
    }
    for metric, name in counted.items():
        metrics[metric] = (by_name.get(name, 0), "count")
    metrics["design.support_points"] = (doc["support_points"], "count")
    metrics["moments.max_index_rows"] = (doc["max_index_rows"], "count")
    metrics["estimator.unit_weights"] = (doc["unit_weights"], "count")
    # spans times the wrapper's measured cost per call: the wall-time gap
    # between a traced and an untraced run is smaller than run-to-run noise
    metrics["trace.overhead_s"] = (doc["span_cost_s"] * len(spans), "s")
    return metrics


def traced(w, seed: int) -> tuple[dict, list[dict], list[float]]:
    """One traced run; per-layer metrics from its spans (not scaled)."""
    rec = run_cli(w, w.run_seed(seed, 0), False, f"{w.name}.traced", trace=True)
    for problem in rec["problems"]:
        print(f"traced run: {problem}")
    if not rec["side"].exists():
        return {}, [rec], []
    doc = json.loads(rec["side"].read_text(encoding="utf-8"))
    metrics = layer_metrics(doc)
    order = sorted(LAYERS, key=lambda layer: -metrics[f"{layer}.self_s"][0])
    top = tuple(order[: len(w.predicted_top)])
    print(f"traced wall {rec['wall_s']:.3f} s, {len(doc['spans'])} spans, "
          f"{doc['binding_sites']} binding sites wrapped")
    print("layers by self time: " + ", ".join(
        f"{layer} {metrics[f'{layer}.self_s'][0]:.3f}" for layer in order))
    verdict = "matches" if top == w.predicted_top else "differs from"
    print(f"top layers {top} {verdict} the prediction {w.predicted_top}")
    return metrics, [rec], []


def report(w, seed: int, seconds: float, trace: bool, env: dict) -> None:
    """Run one workload, print its metrics and its JSON result line, and keep
    the per-run record under .bench_run/."""
    metrics, runs, ref = traced(w, seed) if trace else timed(w, seed, seconds)
    failed = sum(1 for r in runs if r["problems"])
    for name, (value, unit) in metrics.items():
        print(f"{w.name} {name} {value:.6g} {unit}")
    print(f"{w.name} runs_failed {failed} of {len(runs)} count")
    result = {
        "correct": failed == 0 and bool(metrics),
        "attempted": len(runs),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    keep = ("wall_s", "cpu_s", "setup_s", "peak_rss_mb", "exit", "problems")
    record = {
        "workload": w.name,
        "environment": env,
        "runs": [{k: r[k] for k in keep if k in r} for r in runs],
        "reference_seconds": ref,
        **result,
    }
    (SCRATCH / f"{w.name}.trace{int(trace)}.seed{seed}.json").write_text(
        json.dumps(record, indent=1)
    )
    print(json.dumps(result))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be nonnegative")
    if not (SRC / "pinvtte" / "cli.py").is_file():
        print(f"error: package sources not found under {SRC}", file=sys.stderr)
        return 2
    SCRATCH.mkdir(exist_ok=True)
    env = environment(args.seed)
    # one CPU for the benchmark and every child it starts: the host speed
    # probe then times the CPU the CLI runs on (the two CPUs of a shared box
    # are often slowed at different times), and no run migrates mid-way
    env["cpu"] = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {env["cpu"]})
    print("environment " + json.dumps(env))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        report(WORKLOADS[name], args.seed, args.seconds, bool(args.trace), env)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
