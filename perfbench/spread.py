#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --seeds 10 --out perfbench/_out/spread.json
    python3 perfbench/spread.py --seeds 5 --workloads eval_grid

Runs the benchmark once per seed (1, 2, ...) and workload, one run at a
time, with the run length of BENCHMARK.json. For each end-to-end metric
it prints the median of the runs and their spread, the distance between
the first and third quartile (``statistics.quantiles(values, n=4)``) as a
share of the median, next to the metric's bound. A spread at or below a
third of the bound is marked ok. Exits 1 if a run fails or a spread
other than setup_s's exceeds its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import run

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def one_run(workload: str, seed: int, seconds: int) -> tuple[dict, float]:
    """(end-to-end metrics, wall seconds of the whole run)."""
    cmd = [sys.executable, str(run.HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    start = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=run.ROOT,
                          timeout=run.RUN_TIMEOUT_S + 10, check=False)
    wall = time.perf_counter() - start
    result = json.loads(proc.stdout.splitlines()[-1])
    if proc.returncode != 0 or not result["correct"]:
        raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stdout}{proc.stderr}")
    return {name: m["value"] for name, m in result["metrics"].items()}, wall


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median, "values": values}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in SPEC["workloads"]))
    ap.add_argument("--out", type=Path, help="write the summary as JSON here")
    args = ap.parse_args(argv)

    run.import_program()
    summary = {"machine": run.machine(), "run_seconds": SPEC["run_seconds"],
               "seeds": list(range(1, args.seeds + 1)), "workloads": {}}
    too_wide = False
    for workload in args.workloads.split(","):
        runs, walls = zip(*(one_run(workload, seed, SPEC["run_seconds"])
                            for seed in summary["seeds"]))
        rows = summary["workloads"][workload] = {"wall_s": summarize(list(walls))}
        print(f"{workload}  ({args.seeds} seeds, median run wall time "
              f"{rows['wall_s']['median']:.1f} s)")
        for metric in SPEC["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            row = rows[name] = summarize([r[name] for r in runs])
            ok = row["spread"] <= bound / 3
            too_wide |= name != "setup_s" and row["spread"] > bound
            print(f"  {name:<14} median {row['median']:<12.6g} {metric['unit']:<4} "
                  f"spread {row['spread']:.4f}  bound {bound}  {'ok' if ok else 'WIDE'}  "
                  f"runs {' '.join(f'{v:.4g}' for v in row['values'])}")
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    return 1 if too_wide else 0


if __name__ == "__main__":
    sys.exit(main())
