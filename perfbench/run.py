#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics as JSON.

    python3 perfbench/run.py --workload edit4-stream --seed 1 --seconds 25 --trace 0

Run it from the root of a source tree; it imports `syncodec` from `src/` there.
With `--trace 0` the last line of standard output holds the end-to-end
metrics, with `--trace 1` the per-layer metrics of a traced run.  The line
before it holds the run's details: machine stamp, sample counts, failure
labels.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SETUP_SAMPLES = 5  # fresh interpreters per run; setup_s is their median
OVERHEAD_ROUNDS = 3  # untraced/traced pass pairs in a traced run


def _import_program() -> float:
    """Import syncodec from ROOT/src; return the seconds the import took."""
    sys.path.insert(0, str(ROOT / "src"))
    start = time.perf_counter()
    import syncodec  # noqa: F401
    return time.perf_counter() - start


def _stamp(load: tuple[float, float, float]) -> dict:
    import numpy
    from workloads import source_digest

    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
        commit = done.stdout.strip() or None
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "machine": platform.machine(),
            "commit": commit, "source_sha256": source_digest(),
            "loadavg_at_start": list(load)}


def _fresh_setup(workload: str, seed: int) -> float:
    """Set-up seconds measured in a new interpreter, so no cache is warm."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-only",
         "--workload", workload, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    return float(done.stdout.split()[-1])


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _untraced(wl, inputs, state, seed: int, seconds: float, setup: float):
    from workloads import Tally

    samples = [setup] + [_fresh_setup(wl.name, seed)
                         for _ in range(SETUP_SAMPLES - 1)]
    tally = Tally()
    deadline = time.perf_counter() + seconds
    wl.run(state, inputs, tally,
           lambda done: done < wl.min_blocks or time.perf_counter() < deadline)
    if len(tally.decode_s) < 2 or not tally.block_rates:
        raise RuntimeError("the run finished too few operations to report")
    metrics = {
        "setup_s": statistics.median(samples),
        **tally.end_to_end(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    details = {
        "setup_samples_s": samples,
        "speed_factor": statistics.median(tally.factors),
        "encode_samples": len(tally.encode_s),
        "decodes": tally.decodes,
        "in_model_decodes": len(tally.decode_s),
        "blocks": len(tally.block_rates),
        "beyond_model_decodes": tally.beyond,
        "fail_ratio": _ratio(tally.failed, tally.attempted),
        "contract_fail_ratio": _ratio(tally.contract_failed, tally.beyond),
        "contract_outcomes": dict(tally.contract),
        "failures": dict(tally.failures),
        "list_size_2_ratio": _ratio(tally.list2, tally.decodes),
    }
    if tally.image_s:
        details["images"] = tally.images
        details["images_per_s"] = tally.images / tally.image_s
    return tally, metrics, details, SPEC["end_to_end"]


def _traced(wl, inputs, state, seed: int):
    """After one warm-up block, alternate untraced and traced passes of the
    workload's fixed trace_blocks, then run the size ladder.  Per-layer
    metrics are medians over the traced passes (counts agree exactly);
    trace.overhead_ratio is the median speed-adjusted program time of the
    traced passes over that of the untraced ones."""
    import tracing
    from workloads import BUILD_DIR, Tally

    warm = Tally()
    wl.run(state, inputs, warm, lambda done: done < 1)
    tallies, passes, plain_s, traced_s, first = [warm], [], [], [], None
    for _ in range(OVERHEAD_ROUNDS):
        plain = Tally()
        wl.run(state, inputs, plain, lambda done: done < wl.trace_blocks)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced = Tally()
            traced.paused = tracer.paused
            wl.run(wl.construct(inputs), inputs, traced,
                   lambda done: done < wl.trace_blocks)
        finally:
            tracer.uninstall()
        metrics = tracing.layer_metrics(tracer, SPEC["per_layer"])
        metrics["delsub.list_size_2_ratio"] = _ratio(traced.list2, traced.decodes)
        metrics["images_per_s"] = _ratio(plain.images, plain.image_s)
        metrics["fail_ratio"] = _ratio(plain.failed, plain.attempted)
        metrics["contract_fail_ratio"] = _ratio(plain.contract_failed, plain.beyond)
        passes.append(metrics)
        plain_s.append(plain.busy_s)
        traced_s.append(traced.busy_s)
        tallies += [plain, traced]
        first = first or tracer
    metrics = {name: statistics.median(p[name] for p in passes) for name in passes[0]}
    metrics["trace.overhead_ratio"] = statistics.median(traced_s) / statistics.median(plain_s)
    metrics.update(tracing.size_ladder(seed))
    spans_path = BUILD_DIR / f"trace-{wl.name}-{seed}.json"
    first.dump(spans_path)
    details = {"spans": len(first.spans), "spans_file": str(spans_path.relative_to(ROOT)),
               "trace_blocks": wl.trace_blocks, "untraced_busy_s": plain_s,
               "traced_busy_s": traced_s, "contract_outcomes": dict(plain.contract),
               "speed_factor": statistics.median(f for t in tallies for f in t.factors),
               "failures": dict(sum((t.failures for t in tallies), Counter()))}
    total = Tally()
    total.attempted = sum(t.attempted for t in tallies)
    total.failed = sum(t.failed for t in tallies)
    return total, metrics, details, SPEC["per_layer"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in SPEC["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="no new block of operations starts after this")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="print one fresh set-up time and exit (used internally)")
    args = parser.parse_args(argv)
    load = os.getloadavg()
    sys.path.insert(0, str(HERE))
    from speed import Speed

    speed = Speed()  # samples the machine before anything else is imported
    try:
        import_s = _import_program()
    except ImportError as exc:
        print(f"perfbench: cannot import syncodec from {ROOT / 'src'}: {exc}",
              file=sys.stderr)
        return 2
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    inputs = wl.prepare(args.seed)
    start = time.perf_counter()
    state = wl.construct(inputs)
    setup = (import_s + time.perf_counter() - start) * speed.factor
    if args.setup_only:
        print(repr(setup))
        return 0
    if args.trace:
        tally, values, details, declared = _traced(wl, inputs, state, args.seed)
    else:
        tally, values, details, declared = _untraced(
            wl, inputs, state, args.seed, args.seconds, setup)
    details = {"workload": wl.name, "seed": args.seed, "trace": args.trace,
               "stamp": _stamp(load), **details}
    print(json.dumps({"details": details}))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
