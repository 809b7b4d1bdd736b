"""Record the reference outputs the benchmark checks runs against.

Usage: python3 bench/record.py

Runs every workload at full size on each input of --seed
0..REFERENCE_SEEDS-1 (seedless workloads once), and at smoke size on
SMOKE_SEEDS, and writes each CSV report to bench/reference/. These are
exactly the inputs the timed and smoke runs use for those seeds. Only run it
on a commit whose outputs are known good: the references define what a
correct run prints.
"""

from __future__ import annotations

import shutil

from run import SCRATCH, spawn
from workloads import REFERENCE_DIR, REFERENCE_SEEDS, SMOKE_SEEDS, WORKLOADS, reference_path


def main() -> int:
    SCRATCH.mkdir(exist_ok=True)
    REFERENCE_DIR.mkdir(exist_ok=True)
    for w in WORKLOADS.values():
        for smoke in (True, False):
            if not w.seeded:
                seeds = [0]
            elif smoke:
                seeds = SMOKE_SEEDS
            else:
                seeds = [
                    w.run_seed(s, j) for s in range(REFERENCE_SEEDS) for j in range(w.inputs)
                ]
            for seed in seeds:
                out = SCRATCH / "record.csv"
                argv = [str(SCRATCH / "record.stamp"), *w.argv(seed, smoke), "--out", str(out)]
                rec = spawn("launch.py", argv, SCRATCH / "record.log")
                if rec["exit"] != 0:
                    print(f"{w.name} seed {seed}: exit {rec['exit']}")
                    return 1
                shutil.copyfile(out, reference_path(w, seed, smoke))
                print(f"{w.name} smoke={smoke} seed={seed}: {rec['wall_s']:.2f} s")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
