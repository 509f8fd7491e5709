"""Rebuild ensemble_pool.json, the instance seeds the ensemble workload uses.

    python3 perfbench/screen_pool.py

Runs ``bench-random --methods pi,vi`` once over instance seeds
[0, POOL_SIZE) and excludes a seed when

* its noise level eta exceeds ETA_CAP: value iteration needs on the order
  of 1/(1 - eta) sweeps, so one such instance would dominate a batch and a
  run's length; or
* its rows fail the workload's output checks (an error, no convergence, a
  residual above 1e-9, or PI/VI costs that disagree).  These are draws on
  which the program, at the commit that built the pool, reports a solver
  failure; the reason is stored with the seed.

The ensemble workload draws its batches from windows of consecutive seeds
that contain no excluded seed.  Rebuilding the pool changes the workload,
so it is a benchmark change of its own.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
POOL_SIZE = 1000
ETA_CAP = 0.99


def main():
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import mnlqg
    import mnlqg.cli as cli

    from workloads import check_summary

    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        prefix = os.path.join(tmp, "pool")
        argv = ["bench-random", "--count", str(POOL_SIZE), "--seed", "0",
                "--methods", "pi,vi", "--jobs", "1", "--out", prefix]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
        with open(prefix + "_summary.csv", newline="", encoding="utf-8") as handle:
            rows = list(csv.DictReader(handle))
    if code not in (0, 3):  # 3: some instances could not be generated
        raise SystemExit(f"bench-random exited {code}")

    by_seed = {}
    for row in rows:
        by_seed.setdefault(int(row["seed"]), []).append(row)
    excluded = {}
    for seed, seed_rows in sorted(by_seed.items()):
        eta = float(seed_rows[0]["eta"])
        problems = check_summary(seed_rows)
        if problems:
            excluded[str(seed)] = "; ".join(problems)
        elif eta > ETA_CAP:
            excluded[str(seed)] = f"eta {eta:.4f} > {ETA_CAP}"
    for seed in range(POOL_SIZE):
        if seed not in by_seed:
            excluded[str(seed)] = "no instance generated"
    doc = {
        "pool_size": POOL_SIZE,
        "eta_cap": ETA_CAP,
        "mnlqg_version": mnlqg.__version__,
        "excluded": excluded,
    }
    with open(os.path.join(HERE, "ensemble_pool.json"), "w", encoding="utf-8") as handle:
        json.dump(doc, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"{len(excluded)} of {POOL_SIZE} seeds excluded")


if __name__ == "__main__":
    sys.exit(main())
