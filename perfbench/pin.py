"""Pins the reference renderings the benchmark checks its outputs against.

    python3 perfbench/pin.py --seeds 0-9

For every seed, renders each distinct artifact group once (Table 1,
assembled from its per-property units, Table 2, and Tables 3, 5-9 on an
empty cache dir) and records the digest of each masked rendering in
``reference.json``; seed 0's raw texts are kept as well.  Re-pinning means the program's outputs changed: say why in
CHANGES.md.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

from mcmlbench.harness import PERFBENCH, REFERENCE, BenchError, Harness
from mcmlbench.tables import digest, normalise, whole_texts
from mcmlbench.workloads import WORKLOADS

#: One workload per distinct artifact set (the warm workload renders the
#: cold one's artifacts).
GROUPS = ("approx-counts", "classify-po5", "whole-space-cold")


def parse_seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="0", help="a seed or an inclusive range, e.g. 0-9")
    args = parser.parse_args(argv)

    reference = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    reference.setdefault("texts", {})
    reference.setdefault("digests", {})
    work_root = PERFBENCH / ".work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="pin-", dir=work_root))
    try:
        for seed in parse_seeds(args.seeds):
            digests = reference["digests"].setdefault(str(seed), {})
            for group in GROUPS:
                harness = Harness(workdir, budget_s=600.0)
                cache_dir = workdir / f"{group}-{seed}" if WORKLOADS[group].cache else None
                record = harness.run(group, seed, cache_dir=cache_dir)
                for artifact, text in whole_texts(record["renders"]).items():
                    if text is None:
                        raise BenchError(f"{artifact} raised or did not assemble")
                    digests[artifact] = digest(normalise(text))
                    if seed == 0:
                        reference["texts"][artifact] = text
            print(f"pinned seed {seed}", file=sys.stderr)
            REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    except BenchError as exc:
        print(f"pin: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
