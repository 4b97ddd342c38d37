#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise, or compare two sets.

    python3 perfbench/collect.py --seeds 1-10 --out set1.json
    python3 perfbench/collect.py --seeds 11-20 --out set2.json
    python3 perfbench/collect.py --compare set1.json set2.json
    python3 perfbench/collect.py --seeds 1-10 --traced-seed 1 --tier1 --out BENCH.json

A summary gives, per workload and end-to-end metric, the median of the runs
and the spread (third minus first quartile, over the median).  `--compare`
checks two sets against the bounds in BENCHMARK.json: each set's spread within
the bound, and the second median within the bound of the first, in either
direction.  Runs are sequential, one process at a time.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TIER1 = ["-m", "pytest", "-q", "--continue-on-collection-errors",
         "--durations=10", "-p", "no:cacheprovider"]


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, trace: int) -> dict:
    done = subprocess.run(
        [*SPEC["command"], "--workload", workload, "--seed", str(seed),
         "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {done.returncode}:\n"
                           f"{done.stderr[-2000:]}")
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    return {"details": json.loads(lines[-2])["details"], **result,
            "metrics": {k: v["value"] for k, v in result["metrics"].items()}}


def summarise(runs: list[dict], units: dict[str, str]) -> dict:
    out = {}
    for name, unit in units.items():
        values = [r["metrics"][name] for r in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        out[name] = {"median": median, "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / median if median else 0.0, "unit": unit}
    return out


def tier1() -> dict:
    """Tier-1 wall time and its ten slowest tests; informational only."""
    start = time.perf_counter()
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, *TIER1], cwd=ROOT, capture_output=True,
                          text=True, env=env)
    wall = time.perf_counter() - start
    slowest = re.findall(r"^(\d+\.\d+)s (\w+)\s+(\S+)$", done.stdout, re.M)
    summary = [line for line in done.stdout.splitlines() if " in " in line
               and ("passed" in line or "failed" in line)]
    return {"wall_s": wall, "summary": summary[-1:],
            "slowest": [{"seconds": float(s), "phase": p, "test": t}
                        for s, p, t in slowest]}


def compare(first: dict, second: dict) -> bool:
    ok = True
    for metric in SPEC["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        for workload in first["workloads"]:
            a = first["workloads"][workload]["summary"][name]
            b = second["workloads"][workload]["summary"][name]
            shift = (b["median"] - a["median"]) / a["median"]
            good = max(a["spread"], b["spread"], abs(shift)) <= bound
            ok &= good
            print(f"{'ok ' if good else 'BAD'} {workload:16} {name:14} "
                  f"spread {a['spread']:.3f}/{b['spread']:.3f}  "
                  f"shift {shift:+.3f}  bound {bound}")
    return ok


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--traced-seed", type=int,
                        help="also make one traced run per workload with this seed")
    parser.add_argument("--tier1", action="store_true",
                        help="also record the Tier-1 suite wall time and slowest tests")
    parser.add_argument("--out", type=Path)
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("FIRST", "SECOND"))
    args = parser.parse_args(argv)
    if args.compare:
        first, second = (json.loads(p.read_text()) for p in args.compare)
        return 0 if compare(first, second) else 1
    result: dict = {"run_seconds": SPEC["run_seconds"], "workloads": {}}
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    for workload in (w["name"] for w in SPEC["workloads"]):
        runs = []
        for seed in _seeds(args.seeds):
            runs.append(run_once(workload, seed, 0))
            print(workload, seed, {k: round(v, 4) for k, v in runs[-1]["metrics"].items()},
                  flush=True)
        entry = {"summary": summarise(runs, units), "runs": runs}
        if args.traced_seed is not None:
            entry["traced"] = run_once(workload, args.traced_seed, 1)
        result["workloads"][workload] = entry
        for name, s in entry["summary"].items():
            print(f"  {name:14} median {s['median']:.6g} {s['unit']:5} "
                  f"spread {s['spread']:.3f}", flush=True)
    # one stamp for the file; each run keeps only its load average
    for entry in result["workloads"].values():
        for run in entry["runs"] + ([entry["traced"]] if "traced" in entry else []):
            stamp = run["details"].pop("stamp")
            run["details"]["loadavg_at_start"] = stamp.pop("loadavg_at_start")
            result["stamp"] = stamp
    if args.tier1:
        result["tier1"] = tier1()
    if args.out:
        args.out.write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
