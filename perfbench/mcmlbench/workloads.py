"""The benchmark's workloads: which paper artifacts one pass renders.

Every pass renders its artifacts in a fresh process through the public
API (``ExperimentConfig`` -> ``MCMLSession`` -> ``run_artifact``) with the
default ``workers=1``, so one single-threaded process does the work.  Why
each workload was chosen is recorded in ``BENCHMARK.json``.

Two workloads are not listed there, because the time budget for all
benchmark runs buys steadier runs of fewer workloads.  Both are kept
runnable by hand: ``classify-po5`` (Table 2: the 2^25 PartialOrder sweep
and all six model fits, ~30 s a pass on a quiet 2-cpu host and up to
~60 s on a contended one) for work on the dataset and training stages,
and ``whole-space-warm`` (the store-read twin of ``whole-space-cold``) for
work on the memo and the disk stores.
"""

from __future__ import annotations

from dataclasses import dataclass

WHOLE_SPACE = ("table3", "table5", "table6", "table7", "table8", "table9")


@dataclass(frozen=True)
class Workload:
    name: str
    artifacts: tuple[str, ...]
    #: ``None``: no disk cache.  ``"cold"``: a fresh empty ``cache_dir`` per
    #: pass.  ``"warm"``: a ``cache_dir`` filled by cold passes during set-up.
    cache: str | None
    #: A pass renders its artifacts once per property, each in a session of
    #: its own (one unit per property), instead of once for all properties
    #: in one session (a single unit).  Table 1 gives the same rows either
    #: way: every row builds its own ApproxMC counter and shares no count
    #: with another row.  Short units let a run stop close to its window.
    per_property: bool = False


WORKLOADS = {
    w.name: w
    for w in (
        Workload("approx-counts", ("table1",), None, per_property=True),
        Workload("classify-po5", ("table2",), None),
        Workload("whole-space-cold", WHOLE_SPACE, "cold"),
        Workload("whole-space-warm", WHOLE_SPACE, "warm"),
    )
}
