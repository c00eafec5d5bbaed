"""Wraps the public entry points of each ``repro`` layer with spans.

Nothing under ``src/`` is edited: :func:`install` replaces functions and
methods in the already-imported modules of one process (a benchmark pass
process, which exits afterwards).  A function is replaced under every
name a ``repro`` module holds it by, because callers such as
``repro.experiments.table1`` import ``enumerate_positive_bits`` by name and
would otherwise keep calling the original.  Methods are replaced on the
class that defines them, so subclasses and existing instances see the
wrapper too.

Layers (the first part of every span name): ``spec`` (grounding and the
Tseitin pass), ``sat`` (the CDCL solver), ``data`` (dataset generation),
``ml`` (model training and prediction), ``core`` (AccMC, DiffMC,
Tree2CNF) and ``counting`` (engine solves, ApproxMC, compilation memos,
disk stores).
"""

from __future__ import annotations

import importlib
import inspect
import sys

from mcmlbench.spans import Tracer, self_times, total_seconds

#: Model abbreviations as the experiment grids name them.
MODELS = ("DT", "RFT", "GBDT", "ABT", "SVM", "MLP")
LAYERS = ("spec", "sat", "data", "ml", "core", "counting", "unattributed")

#: Store methods timed as ``counting.store``.
_STORE_METHODS = ("get", "put", "get_many", "put_many", "flush", "close")


def _replace_function(original, wrapper) -> None:
    """Rebind every ``repro`` module attribute holding ``original``."""
    for name, module in list(sys.modules.items()):
        if not (name == "repro" or name.startswith("repro.")) or module is None:
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, wrapper)


def _owner(cls, attr: str):
    """The class in ``cls``'s MRO that defines ``attr``."""
    return next(klass for klass in cls.__mro__ if attr in vars(klass))


def _replace_method(cls, attr: str, make_wrapper) -> None:
    owner = _owner(cls, attr)
    setattr(owner, attr, make_wrapper(vars(owner)[attr]))


def install(tracer: Tracer) -> None:
    """Route every layer boundary of this process through ``tracer``."""
    # Package __init__ files re-export functions under their module's
    # name (``repro.spec.translate``), so modules are looked up by path.
    (accmc, diffmc, tree2cnf, approxmc, engine, store, generation, tseitin,
     sat_enumerate, solver, translate) = (
        importlib.import_module(f"repro.{path}")
        for path in (
            "core.accmc", "core.diffmc", "core.tree2cnf", "counting.approxmc",
            "counting.engine", "counting.store", "data.generation",
            "logic.tseitin", "sat.enumerate", "sat.solver", "spec.translate",
        )
    )
    from repro.ml import MODEL_REGISTRY

    counts = tracer.counts

    def function(module, attr, name, group=None, observe=None):
        original = getattr(module, attr)
        _replace_function(original, tracer.wrap(original, name, group, observe))

    def method(cls, attr, name, group=None, observe=None):
        _replace_method(cls, attr, lambda fn: tracer.wrap(fn, name, group, observe))

    # spec
    def cnf_clauses(args, kwargs, result):
        counts["spec.cnf_clauses"] += len(result.cnf.clauses)

    function(translate, "translate", "spec.translate", observe=cnf_clauses)
    function(tseitin, "tseitin_cnf", "spec.tseitin")

    # sat: add_clause runs hundreds of thousands of times, so it is counted,
    # not spanned.
    _replace_method(solver.Solver, "__init__", lambda fn: tracer.counting(fn, "sat.solver_builds"))
    _replace_method(solver.Solver, "add_clause", lambda fn: tracer.counting(fn, "sat.add_clause_calls"))
    method(solver.Solver, "solve", "sat.solve")
    function(sat_enumerate, "count_models", "sat.count_models")

    # data
    generate_signature = inspect.signature(generation.generate_dataset)
    seen_keys: set = set()

    def generate_key(args, kwargs, result):
        bound = generate_signature.bind(*args, **kwargs)
        bound.apply_defaults()
        arguments = dict(bound.arguments)
        symmetry = arguments.pop("symmetry")
        arguments.pop("rng")
        key = (
            arguments.pop("prop").name,
            symmetry.kind if symmetry is not None else None,
            tuple(sorted(arguments.items())),
        )
        if key in seen_keys:
            counts["data.generate_repeats"] += 1
        seen_keys.add(key)

    def positive_rows(args, kwargs, result):
        counts["data.positive_rows"] += len(result)

    function(generation, "generate_dataset", "data.generate", observe=generate_key)
    function(generation, "enumerate_positive_bits", "data.enumerate", observe=positive_rows)
    function(generation, "sample_negative_bits", "data.sample_negatives")

    # ml: ensembles fit and predict through inner trees; those nested calls
    # are part of the outer model's span.
    for abbreviation, cls in MODEL_REGISTRY.items():
        method(cls, "fit", f"ml.fit.{abbreviation}", group="ml.fit")
        method(cls, "predict", "ml.predict", group="ml.predict")

    # core
    def region_cubes(args, kwargs, result):
        cubes = result.clauses if hasattr(result, "clauses") else result
        counts["core.region_cubes"] += len(cubes)

    method(accmc.AccMC, "evaluate", "core.accmc")
    method(diffmc.DiffMC, "evaluate", "core.diffmc")
    for attr in ("label_region_cnf", "label_cubes"):
        function(tree2cnf, attr, "core.tree2cnf", observe=region_cubes)
    function(tree2cnf, "tree_paths_formula", "core.tree2cnf")

    # counting
    for attr in ("solve", "solve_many", "solve_formula"):
        method(engine.CountingEngine, attr, "counting.solve")
    for attr in ("translate", "region", "ground_truth"):
        method(engine.CountingEngine, attr, "counting.memo")
    method(approxmc.ApproxMCCounter, "count", "counting.approxmc")
    # Each defining class once: the public stores share _SqliteStore's methods.
    store_methods = {
        (_owner(cls, attr), attr)
        for cls in (store.CountStore, store.BlobStore, store.CircuitStore, store.ComponentStore)
        for attr in _STORE_METHODS
        if hasattr(cls, attr)
    }
    for owner, attr in store_methods:
        method(owner, attr, "counting.store")


#: Engine counters summed into ``counting.failures``: operations that
#: failed, were retried or fell back.
FAILURE_COUNTERS = ("timeouts", "retries", "worker_respawns", "fallbacks", "store_degradations")


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(tracer: Tracer, stats_delta: dict) -> dict[str, float]:
    """Per-layer metrics of one traced pass.

    ``stats_delta`` is the after-minus-before difference of the session's
    public engine counters (``session.stats()["engine"]``).
    """
    spans, calls, counts = tracer.spans, tracer.calls, tracer.counts
    fit_calls = sum(calls[f"ml.fit.{model}"] for model in MODELS)
    out = {
        "counting.approxmc_s": total_seconds(spans, "counting.approxmc"),
        "counting.approxmc_calls": calls["counting.approxmc"],
        "sat.solver_builds": counts["sat.solver_builds"],
        "sat.solve_calls": calls["sat.solve"],
        "sat.add_clause_calls": counts["sat.add_clause_calls"],
        "sat.solve_s": total_seconds(spans, "sat.solve"),
        "data.enumerate_s": total_seconds(spans, "data.enumerate"),
        "data.enumerate_calls": calls["data.enumerate"],
        "data.positive_rows": counts["data.positive_rows"],
        "data.sample_negatives_s": total_seconds(spans, "data.sample_negatives"),
        "data.generate_s": total_seconds(spans, "data.generate"),
        "data.generate_calls": calls["data.generate"],
        "data.generate_repeat_share": _ratio(
            counts["data.generate_repeats"], calls["data.generate"]
        ),
        **{f"ml.fit_s.{model}": total_seconds(spans, f"ml.fit.{model}") for model in MODELS},
        "ml.fit_calls": fit_calls,
        "ml.predict_s": total_seconds(spans, "ml.predict"),
        "core.accmc_s": total_seconds(spans, "core.accmc"),
        "core.accmc_calls": calls["core.accmc"],
        "core.diffmc_s": total_seconds(spans, "core.diffmc"),
        "core.tree2cnf_s": total_seconds(spans, "core.tree2cnf"),
        "core.region_cubes": counts["core.region_cubes"],
        "counting.solve_s": total_seconds(spans, "counting.solve"),
        "counting.requests": stats_delta.get("count_calls", 0),
        "counting.backend_calls": stats_delta.get("backend_calls", 0),
        "counting.memo_hit_ratio": _ratio(
            stats_delta.get("count_hits", 0), stats_delta.get("count_calls", 0)
        ),
        "counting.region_hit_ratio": _ratio(
            stats_delta.get("region_hits", 0) + stats_delta.get("region_store_hits", 0),
            stats_delta.get("region_calls", 0),
        ),
        "counting.store_hits": stats_delta.get("store_hits", 0),
        "counting.store_s": total_seconds(spans, "counting.store"),
        "counting.failures": sum(stats_delta.get(name, 0) for name in FAILURE_COUNTERS),
        "spec.translate_s": total_seconds(spans, "spec.translate"),
        "spec.translate_calls": calls["spec.translate"],
        "spec.cnf_clauses": counts["spec.cnf_clauses"],
    }
    layer_self = self_times(spans)
    for layer in LAYERS:
        out[f"self_s.{layer}"] = layer_self.get(layer, 0.0)
    out["trace.spans"] = len(spans)
    return out
