"""Smoke test of the benchmark itself, at reduced workload sizes.

Usage: python3 bench/smoke.py

Runs every workload once at smoke size on seed 0 and the seeded ones again
on seed 1, each in a fresh interpreter with the output checks on; makes one
traced run per workload and checks that every per-layer metric comes back;
and checks that the output check rejects a corrupted report. Exits non-zero
on any failure.
"""

from __future__ import annotations

import json

from run import SCRATCH, layer_metrics, run_cli
from workloads import LAYERS, SMOKE_SEEDS, WORKLOADS, check_output


def main() -> int:
    SCRATCH.mkdir(exist_ok=True)
    failures = []
    for w in WORKLOADS.values():
        for seed in SMOKE_SEEDS if w.seeded else SMOKE_SEEDS[:1]:
            rec = run_cli(w, seed, True, f"smoke.{w.name}")
            failures += [f"{w.name} seed {seed}: {p}" for p in rec["problems"]]
            print(f"{w.name} seed {seed}: {rec['wall_s']:.2f} s, "
                  f"{len(rec['problems'])} problems")
        text = (SCRATCH / f"smoke.{w.name}.csv").read_text(encoding="utf-8")
        corrupted = text.replace("0", "1", 3)
        if not check_output(w, SMOKE_SEEDS[-1], True, corrupted):
            failures.append(f"{w.name}: the output check accepted a corrupted report")

        rec = run_cli(w, 0, True, f"smoke.{w.name}.traced", trace=True)
        failures += [f"{w.name} traced: {p}" for p in rec["problems"]]
        if rec["side"].exists():
            metrics = layer_metrics(json.loads(rec["side"].read_text(encoding="utf-8")))
            missing = [f"{layer}.{kind}" for layer in LAYERS for kind in ("self_s", "calls")
                       if f"{layer}.{kind}" not in metrics]
            if missing or metrics["cli.calls"][0] != 1:
                failures.append(f"{w.name} traced: missing {missing} or no cli span")
        else:
            failures.append(f"{w.name} traced: no trace file")
    for failure in failures:
        print("FAIL " + failure)
    print("smoke " + ("failed" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
