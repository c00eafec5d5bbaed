"""Runs benchmark passes as child processes of the calling script."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent
ROOT = PERFBENCH.parent
SRC = ROOT / "src"
REFERENCE = PERFBENCH / "reference.json"


class BenchError(RuntimeError):
    """A pass process could not run; the benchmark prints no result."""


class Harness:
    """Spawns pass processes one at a time under a shared deadline.

    Pass processes find ``repro`` under ``src/`` of the checkout and keep
    their temporary files in ``workdir``.  BLAS is held to one thread, so a
    pass is one single-threaded process, as the workloads are defined.
    """

    def __init__(self, workdir: Path, budget_s: float) -> None:
        if not (SRC / "repro").is_dir():
            raise BenchError(f"no repro package under {SRC}")
        self.workdir = workdir
        self.deadline = time.monotonic() + budget_s
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(PERFBENCH), str(SRC)]
            + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else [])
        )
        self.env["TMPDIR"] = str(workdir)
        for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[name] = "1"

    def run(self, workload: str, seed: int, cache_dir: Path | None = None,
            trace: bool = False, setup_only: bool = False,
            units: list[int] | None = None) -> dict:
        """One pass; its JSON record, with ``total_s`` (spawn to exit) added."""
        command = [
            sys.executable, "-m", "mcmlbench.child",
            "--workload", workload, "--seed", str(seed), "--trace", str(int(trace)),
        ]
        if cache_dir is not None:
            command += ["--cache-dir", str(cache_dir)]
        if setup_only:
            command.append("--setup-only")
        if units is not None:
            command += ["--units", ",".join(map(str, units))]
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("time budget exhausted before the pass started")
        started = time.perf_counter()
        try:
            done = subprocess.run(
                command, env=self.env, cwd=self.workdir, stdout=subprocess.PIPE,
                text=True, timeout=remaining, check=False,
            )
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"pass of {workload} exceeded the time budget") from exc
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            raise BenchError(f"pass of {workload} exited with code {done.returncode}")
        record = json.loads(lines[-1])
        record["total_s"] = time.perf_counter() - started
        return record
