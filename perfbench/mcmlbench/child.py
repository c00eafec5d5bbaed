"""One benchmark pass in its own process; prints one JSON line.

    python -m mcmlbench.child --workload NAME --seed N [--cache-dir DIR]
                              [--trace 0|1] [--setup-only] [--units I,J,...]

A pass renders the workload's units in order.  A unit is every artifact
of the workload, rendered in one session: for all properties, or for one
property when the workload is ``per_property``.  ``--units`` picks units
by index (all of them by default), so a run can end with a partial pass.

Set-up is the ``repro`` imports plus constructing the session of every
unit; the timed region of a unit renders its artifacts and closes its
session, which flushes the disk stores.  A pass of its own process gives
each measurement a fresh interpreter (imports are really paid) and a peak
resident size that belongs to this workload alone.
"""

from __future__ import annotations

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402


def _cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def run_pass(workload_name: str, seed: int, cache_dir: str | None, trace: bool,
             setup_only: bool, units: list[int] | None = None) -> dict:
    from mcmlbench.workloads import WORKLOADS

    from repro.experiments.cli import run_artifact
    from repro.experiments.config import ExperimentConfig

    workload = WORKLOADS[workload_name]
    base = ExperimentConfig(seed=seed, cache_dir=cache_dir)
    names = list(base.properties) if workload.per_property else [None]
    picked = range(len(names)) if units is None else units
    plans = []
    for index in picked:
        name = names[index]
        config = base if name is None else ExperimentConfig(seed=seed, cache_dir=cache_dir, properties=(name,))
        plans.append((index, name, config, config.session()))
    setup_s = time.perf_counter() - _START
    if setup_only:
        for *_, session in plans:
            session.close()
        return {"setup_s": setup_s}

    tracer = root = None
    if trace:
        from mcmlbench.layers import install
        from mcmlbench.spans import Tracer

        tracer = Tracer()
        install(tracer)
        root = tracer.begin("pass")
    records, renders, stats_delta = [], [], {}
    for index, name, config, session in plans:
        before = session.stats()["engine"]
        cpu_start = _cpu_seconds()
        wall_start = time.perf_counter()
        for artifact in workload.artifacts:
            try:
                text = run_artifact(artifact, config, session=session)
            except Exception as exc:  # one failed artifact must not hide the others
                traceback.print_exc(file=sys.stderr)
                renders.append({"artifact": artifact, "unit": name, "text": None,
                                "error": f"{type(exc).__name__}: {exc}"})
            else:
                renders.append({"artifact": artifact, "unit": name, "text": text, "error": None})
        after = session.stats()["engine"]
        session.close()
        records.append({
            "index": index,
            "unit": name,
            "wall_s": time.perf_counter() - wall_start,
            "cpu_s": _cpu_seconds() - cpu_start,
        })
        for key in after:
            stats_delta[key] = stats_delta.get(key, 0) + after[key] - before.get(key, 0)
    if tracer is not None:
        tracer.end(root)
    result = {
        "setup_s": setup_s,
        "wall_s": sum(record["wall_s"] for record in records),
        "cpu_s": sum(record["cpu_s"] for record in records),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "units": records,
        "renders": renders,
        "stats_delta": stats_delta,
    }
    if tracer is not None:
        from mcmlbench.layers import layer_metrics

        result["layers"] = layer_metrics(tracer, stats_delta)
        result["layers"]["trace.wall_s"] = root[2] - root[1]
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--cache-dir", default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--units", default=None, help="comma-separated unit indices")
    args = parser.parse_args(argv)
    units = [int(index) for index in args.units.split(",")] if args.units else None
    result = run_pass(args.workload, args.seed, args.cache_dir, bool(args.trace), args.setup_only, units)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
