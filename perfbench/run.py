"""End-to-end benchmark of the MCML paper artifacts.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each pass renders the workload's units
in a fresh process (see ``mcmlbench/child.py``).  The first pass runs
every unit; further passes run the units predicted to end within
``--seconds``.  ``--trace 0`` reports the end-to-end metrics of
``BENCHMARK.json``: times are sums over the units of each unit's median.
``--trace 1`` spends half of ``--seconds`` on untraced passes, then runs
as many whole traced ones, and reports the per-layer metrics, including
the tracing overhead.

Every rendering is checked (see ``mcmlbench/tables.py``).  The last line
of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  When the program itself cannot run, the
script exits non-zero and prints no result.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import itertools
import json
import os
import platform
import shutil
import signal
import sys
import tempfile
import time
from pathlib import Path
from statistics import median

from mcmlbench.harness import PERFBENCH, REFERENCE, ROOT, SRC, BenchError, Harness
from mcmlbench.tables import tally
from mcmlbench.workloads import WORKLOADS

#: A run must end within 180 s; passes stop being started before that.
BUDGET_S = 170.0
#: Set-up-only processes per run, started before the first pass.
SETUP_SAMPLES = 5


def unit_medians(passes, key: str) -> dict[int, float]:
    """Per unit index, the median of ``key`` over every pass that ran it."""
    samples: dict[int, list[float]] = {}
    for record in passes:
        for unit in record["units"]:
            samples.setdefault(unit["index"], []).append(unit[key])
    return {index: median(values) for index, values in samples.items()}


def plan(passes, start: int, remaining: float) -> list[int]:
    """Unit indices for the next pass: from ``start`` on, cyclically and at
    most once each, as many as the medians so far predict to end within
    ``remaining`` seconds, process start-up included."""
    expected = unit_medians(passes, "wall_s")
    picked: list[int] = []
    budget = remaining - median(record["total_s"] - record["wall_s"] for record in passes)
    for offset in range(len(expected)):
        index = (start + offset) % len(expected)
        if expected[index] > budget:
            break
        budget -= expected[index]
        picked.append(index)
    return picked


def measure(harness, workload, seed, seconds, cache_dir, trace=False, count=None):
    """Passes run back to back; exactly ``count`` whole ones when it is given.

    Otherwise the first pass runs every unit, and each further pass runs
    the units that the medians so far predict to end within ``seconds``,
    continuing the cycle where the previous pass stopped.  A slow host
    then makes fewer samples, not a longer run.
    """
    started = time.perf_counter()
    passes = [harness.run(workload.name, seed, cache_dir(), trace=trace)]
    start = 0
    while True:
        if count is not None:
            if len(passes) >= count:
                return passes
            passes.append(harness.run(workload.name, seed, cache_dir(), trace=trace))
            continue
        units = plan(passes, start, seconds - (time.perf_counter() - started))
        if not units:
            return passes
        passes.append(harness.run(workload.name, seed, cache_dir(), units=units))
        start = (units[-1] + 1) % len(passes[0]["units"])


def run(workload, seed: int, seconds: float, trace: bool, harness: Harness) -> dict:
    work = harness.workdir
    # Set-up-only processes warm the file cache for the passes' imports,
    # and sample set-up time even when a single pass fits the window.
    setups = [
        harness.run(workload.name, seed, setup_only=True)["setup_s"]
        for _ in range(SETUP_SAMPLES)
    ]
    # The warm workload's cache dir is filled by one cold pass, the costly
    # part of its set-up: a single sample, where imports and session
    # construction are sampled with every process.
    fill = harness.run(workload.name, seed, work / "filled") if workload.cache == "warm" else None

    fresh = itertools.count()

    def cache_dir():
        if workload.cache == "cold":
            return work / f"cold{next(fresh)}"
        if workload.cache == "warm":
            return work / "filled"
        return None

    # A traced run measures untraced passes for half the window and then as
    # many whole traced ones, so it takes about as long as an untraced run.
    passes = measure(harness, workload, seed, seconds / 2 if trace else seconds, cache_dir)
    units = len(passes[0]["units"])
    whole = [record for record in passes if len(record["units"]) == units]
    traced = (
        measure(harness, workload, seed, seconds, cache_dir, trace=True, count=len(whole))
        if trace else []
    )
    setups += [record["setup_s"] for record in passes]

    records = ([fill] if fill else []) + passes + traced
    renders = [render for record in records for render in record["renders"]]
    reference = json.loads(REFERENCE.read_text())
    checked = tally(renders, seed, reference)

    setup_s = median(setups)
    if fill is not None:
        setup_s += fill["setup_s"] + fill["wall_s"]
    # A workload's time is the sum over its units of each unit's median.
    wall_s = sum(unit_medians(passes, "wall_s").values())
    metrics = {
        "wall_s": wall_s,
        "cpu_s": sum(unit_medians(passes, "cpu_s").values()),
        "setup_s": setup_s,
        "peak_rss_mb": median([record["peak_rss_mb"] for record in whole]),
    }
    if traced:
        for key in traced[0]["layers"]:
            metrics[key] = median([record["layers"][key] for record in traced])
        metrics["trace.untraced_wall_s"] = wall_s
        metrics["trace.overhead_s"] = metrics["trace.wall_s"] - wall_s
        metrics["table_mismatches"] = checked["table_mismatches"]
        metrics["failed_ops_frac"] = checked["failed_ops_frac"]
    samples_per_unit = [
        sum(unit["index"] == index for record in passes for unit in record["units"])
        for index in range(units)
    ]
    return {
        "metrics": metrics,
        "checked": checked,
        "samples": {
            "passes": len(passes), "whole_passes": len(whole),
            "unit_samples_min": min(samples_per_unit), "unit_samples_max": max(samples_per_unit),
            "traced": len(traced), "setups": len(setups), "fills": int(fill is not None),
        },
    }


def src_lines() -> int:
    return sum(
        len(path.read_text(encoding="utf-8").splitlines()) for path in SRC.rglob("*.py")
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="MCML paper-artifact benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an exception: the running pass is killed and
    # waited for, and the work dir removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    workload = WORKLOADS[args.workload]
    work_root = PERFBENCH / ".work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=work_root))
    try:
        harness = Harness(workdir, BUDGET_S)
        outcome = run(workload, args.seed, args.seconds, bool(args.trace), harness)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics, checked = outcome["metrics"], outcome["checked"]
    for problem in checked["problems"]:
        print(f"perfbench: MISMATCH {problem}", file=sys.stderr)
    meta = {
        "workload": workload.name,
        "why": next((w["why"] for w in spec["workloads"] if w["name"] == workload.name), None),
        "seed": args.seed,
        "trace": args.trace,
        "samples": outcome["samples"],
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "src_lines": src_lines(),
        "masked_digests": checked["digests"],
    }
    print("perfbench-meta " + json.dumps(meta, sort_keys=True))
    for metric in declared:
        print(f"  {metric['name']:<32} {metrics[metric['name']]:>14.6g} {metric['unit']}")
    result = {
        "correct": checked["failed"] == 0,
        "attempted": checked["attempted"],
        "failed": checked["failed"],
        "metrics": {
            metric["name"]: {"value": metrics[metric["name"]], "unit": metric["unit"]}
            for metric in declared
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
