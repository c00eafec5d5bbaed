"""The serial counting engine: one counting thread per process.

Covers what the engine and the exact counter promise now that every count
runs on the caller's thread:

* the component split the exact counter multiplies through
  (``_split_components``) — a partition of the clauses into variable-
  disjoint, internally connected groups whose projected counts multiply
  back to the whole, over the 16-property matrix after the counter's own
  simplification and over random CNFs;
* the batch chain of ``CountingEngine._solve_flat`` — memo → store →
  execute → merge → fallback — step by step, plus the batch-level
  guarantees it must keep: bit-identity with one-at-a-time counting over
  the property matrix, cold problems counted in batch order, completed
  counts merged even when a later count raises a genuine error;
* every registered backend counting on the caller's thread, starting no
  thread and no process, and giving the same values on fresh instances;
* the removed knobs, backends and bare-int engine shims failing loudly
  instead of being ignored or silently falling through to the backend,
  and the retired component-cache disk tier staying gone: no
  ``component_store``, no spill stat, evictions dropped, and an old
  ``components.sqlite`` left untouched.
"""

import multiprocessing.process
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.session import MCMLSession
from repro.counting import (
    ApproxMCCounter,
    Capabilities,
    CountFailure,
    ComponentCache,
    CountingEngine,
    CountRequest,
    CountResult,
    EngineConfig,
    ExactCounter,
    brute_force_count,
    signature_key,
)
from repro.counting.api import EngineStats, available_backends, make_backend
from repro.counting.engine import _Flat
from repro.counting.exact import (
    CounterBudgetExceeded,
    _eliminate,
    _propagate,
    _split_components,
)
from repro.counting.service import CountingServer
from repro.experiments.cli import build_parser
from repro.experiments.config import ExperimentConfig
from repro.logic import CNF
from repro.spec import SymmetryBreaking, get_property, translate
from repro.spec.properties import PROPERTIES

BACKENDS = available_backends()


def _mask_clauses_to_cnf(clauses, num_vars: int, proj: int) -> CNF:
    """A CNF over the packed space: bit ``i`` is variable ``i + 1``."""
    rows = []
    for pos, neg in clauses:
        row = []
        for bit in range(num_vars):
            if pos >> bit & 1:
                row.append(bit + 1)
            elif neg >> bit & 1:
                row.append(-(bit + 1))
        rows.append(tuple(row))
    projection = [bit + 1 for bit in range(num_vars) if proj >> bit & 1]
    return CNF(rows, num_vars=num_vars, projection=projection)


def _assert_split_is_exact(clauses, num_vars: int, proj: int) -> list:
    """Check the partition invariants and the product rule; return the split."""
    components = _split_components(list(clauses))
    occurring = 0
    for pos, neg in clauses:
        occurring |= pos | neg
    # A partition of the clauses ...
    assert sum(len(group) for _, group in components) == len(clauses)
    assert sorted(c for _, group in components for c in group) == sorted(clauses)
    # ... into variable-disjoint groups covering exactly the occurring vars ...
    union = 0
    for mask, group in components:
        assert union & mask == 0
        union |= mask
        for pos, neg in group:
            assert (pos | neg) & ~mask == 0
    assert union == occurring
    # ... each of which is connected (splitting it again yields itself).
    for mask, group in components:
        [(again, _)] = _split_components(list(group))
        assert again == mask
    # The product rule the counter multiplies through.
    whole = ExactCounter().count(_mask_clauses_to_cnf(clauses, num_vars, proj & occurring))
    product = 1
    for mask, group in components:
        product *= ExactCounter().count(_mask_clauses_to_cnf(group, num_vars, proj & mask))
    assert product == whole
    return components


def _simplified(cnf: CNF):
    """The clause set ``ExactCounter.count`` hands to its component search."""
    packed = cnf.packed_view()
    proj = 0
    for var in cnf.projected_vars():
        if var in packed.index:
            proj |= 1 << packed.index[var]
    propagated = _propagate(packed.clauses)
    assert propagated is not None
    eliminated = _eliminate(propagated[0], proj)
    assert eliminated is not None
    return eliminated, packed.num_vars, proj


def three_distinct_components() -> CNF:
    """Vars 1-2 count 3, vars 3-5 count 5, vars 6-7 count 2: 30 in total."""
    return CNF(
        num_vars=7,
        clauses=[(-1, -2), (3, 4, 5), (-3, -4), (6, 7), (-6, -7)],
    )


# -- the component split -----------------------------------------------------------


class TestComponentSplit:
    @pytest.mark.parametrize("scope", (3, 4))
    @pytest.mark.parametrize("prop", PROPERTIES, ids=lambda p: p.name)
    def test_split_of_the_simplified_property_is_exact(self, prop, scope):
        clauses, num_vars, proj = _simplified(translate(prop, scope).cnf)
        _assert_split_is_exact(clauses, num_vars, proj)

    def test_antisymmetry_splits_into_one_component_per_index_pair(self):
        for scope in (3, 4, 5):
            clauses, num_vars, proj = _simplified(
                translate(get_property("Antisymmetric"), scope).cnf
            )
            components = _assert_split_is_exact(clauses, num_vars, proj)
            # r_ij and r_ji may not both hold: C(scope, 2) independent pairs.
            assert len(components) == scope * (scope - 1) // 2
            for mask, group in components:
                assert mask.bit_count() == 2
                assert ExactCounter().count(
                    _mask_clauses_to_cnf(group, num_vars, proj & mask)
                ) == 3

    def test_connected_problems_stay_whole(self):
        cnf = translate(get_property("PartialOrder"), 3, symmetry=SymmetryBreaking()).cnf
        clauses, num_vars, proj = _simplified(cnf)
        assert len(_assert_split_is_exact(clauses, num_vars, proj)) == 1

    def test_distinct_components_multiply_to_the_whole(self):
        cnf = three_distinct_components()
        packed = cnf.packed_view()
        components = _assert_split_is_exact(
            packed.clauses, packed.num_vars, (1 << packed.num_vars) - 1
        )
        assert len(components) == 3
        assert ExactCounter().count(cnf) == 30

    @given(
        st.lists(
            st.lists(
                st.integers(1, 8).flatmap(lambda v: st.sampled_from((v, -v))),
                min_size=1,
                max_size=3,
            ).map(tuple),
            min_size=1,
            max_size=8,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_random_splits_match_brute_force(self, rows):
        cnf = CNF(rows, num_vars=8, projection=range(1, 9))
        packed = cnf.packed_view()
        occurring = (1 << packed.num_vars) - 1
        _assert_split_is_exact(packed.clauses, packed.num_vars, occurring)
        assert ExactCounter().count(cnf) == brute_force_count(cnf)


# -- the batch chain, step by step ---------------------------------------------------

EASY = CNF([[1, 2]], projection=[1, 2])  # 3 models
OTHER = CNF([[1], [2, 3]], projection=[1, 2, 3])  # 3 models
HARD = translate(get_property("Transitive"), 3).cnf  # blows a 10-node budget


def _values(engine: CountingEngine, batch) -> list[int]:
    return [result.value for result in engine.solve_many(batch)]


def _flat(cnf: CNF, budget=None) -> _Flat:
    return _Flat(cnf, budget, None, False, False)


class RaisingCounter:
    """Exact counting that raises a genuine error on one chosen signature."""

    name = "raising"
    capabilities = ExactCounter.capabilities

    def __init__(self, poison: CNF) -> None:
        self._inner = ExactCounter()
        self._poison = poison.signature()

    def count(self, cnf: CNF) -> int:
        if cnf.signature() == self._poison:
            raise RuntimeError("backend broke")
        return self._inner.count(cnf)


class OrderSpy:
    """Exact counting that records the order problems reach the backend."""

    name = "order-spy"
    capabilities = ExactCounter.capabilities

    def __init__(self) -> None:
        self._inner = ExactCounter()
        self.seen: list[tuple] = []

    def count(self, cnf: CNF) -> int:
        self.seen.append(cnf.signature())
        return self._inner.count(cnf)


class TestChainSteps:
    def test_memo_step_answers_hits_and_groups_duplicates(self):
        engine = CountingEngine(ExactCounter())
        engine.solve(OTHER)
        before = engine.stats.copy()
        items = [_flat(EASY), _flat(HARD), _flat(EASY.copy()), _flat(OTHER.copy())]
        results = [None] * len(items)
        cold = engine._memo_step(items, results)
        assert list(cold) == [EASY.signature(), HARD.signature()]
        assert cold[EASY.signature()][1] == [0, 2]
        assert cold[HARD.signature()][1] == [1]
        assert results[:3] == [None, None, None]
        assert results[3].source == "memo" and results[3].value == 3
        delta = engine.stats.delta_since(before)
        assert delta.count_calls == 4
        assert delta.count_hits == 2  # one duplicate, one memo hit
        assert delta.backend_calls == 0

    def test_store_step_without_a_store_passes_everything_on(self):
        engine = CountingEngine(ExactCounter())
        items = [_flat(EASY), _flat(OTHER)]
        results = [None, None]
        cold = engine._memo_step(items, results)
        assert engine._store_step(cold, results) == {}
        assert len(cold) == 2 and results == [None, None]

    def test_store_step_answers_and_memoizes_store_hits(self, tmp_path):
        with CountingEngine(ExactCounter(), EngineConfig(cache_dir=tmp_path)) as warm:
            warm.solve(EASY)
        with CountingEngine(ExactCounter(), EngineConfig(cache_dir=tmp_path)) as engine:
            items = [_flat(EASY), _flat(OTHER), _flat(EASY.copy())]
            results = [None] * 3
            cold = engine._memo_step(items, results)
            hashed = engine._store_step(cold, results)
            # Every looked-up key has an address, hit or miss.
            assert hashed == {
                EASY.signature(): signature_key(EASY.signature()),
                OTHER.signature(): signature_key(OTHER.signature()),
            }
            assert list(cold) == [OTHER.signature()]
            assert [r.source for r in (results[0], results[2])] == ["store", "store"]
            assert results[1] is None
            assert engine.stats.store_hits == 1
            assert engine._counts[EASY.signature()] == 3

    def test_execute_step_turns_aborts_into_typed_failures(self):
        engine = CountingEngine(ExactCounter(max_nodes=10))
        results = [None, None, None]
        cold = engine._memo_step([_flat(EASY), _flat(HARD), _flat(OTHER)], results)
        completed, failed = {}, {}
        engine._execute_step(cold, completed, failed)
        assert set(completed) == {EASY.signature(), OTHER.signature()}
        assert completed[EASY.signature()][0] == 3
        assert engine.stats.aborts == 1
        [failure] = failed.values()
        assert isinstance(failure, CountFailure)
        assert failure.kind == "budget"
        assert isinstance(failure.cause, CounterBudgetExceeded)
        # Executing does not merge: nothing reached the memo yet.
        assert engine._counts == {}
        assert engine.stats.backend_calls == 0

    def test_execute_step_lets_genuine_errors_out(self):
        engine = CountingEngine(RaisingCounter(OTHER))
        results = [None, None]
        cold = engine._memo_step([_flat(EASY), _flat(OTHER)], results)
        completed, failed = {}, {}
        with pytest.raises(RuntimeError, match="backend broke"):
            engine._execute_step(cold, completed, failed)
        assert list(completed) == [EASY.signature()]
        assert failed == {}

    def test_merge_step_fills_positions_memo_and_store(self, tmp_path):
        with CountingEngine(ExactCounter(), EngineConfig(cache_dir=tmp_path)) as engine:
            results = [None, None]
            cold = engine._memo_step([_flat(EASY), _flat(EASY.copy())], results)
            hashed = engine._store_step(cold, results)
            completed = {EASY.signature(): (3, 0.0)}
            engine._merge_step(completed, cold, hashed, results)
            assert results[0] is results[1]
            assert results[0].source == "backend" and results[0].exact
            assert engine.stats.backend_calls == 1
            assert engine._counts[EASY.signature()] == 3
            assert engine.store.get(signature_key(EASY.signature())) == 3

    def test_merge_step_keeps_estimates_out_of_memo_and_store(self, tmp_path):
        config = EngineConfig(cache_dir=tmp_path)
        with CountingEngine(ApproxMCCounter(seed=3), config) as engine:
            results = [None]
            cold = engine._memo_step([_flat(EASY)], results)
            hashed = engine._store_step(cold, results)
            engine._merge_step({EASY.signature(): (3, 0.0)}, cold, hashed, results)
            assert results[0].exact is False
            assert engine._counts == {}
            assert engine.store is None or len(engine.store) == 0

    def test_fallback_step_without_a_ladder_leaves_the_failure(self):
        engine = CountingEngine(ExactCounter(max_nodes=10))
        results = [None, None]
        cold = engine._memo_step([_flat(HARD), _flat(HARD.copy())], results)
        completed, failed = {}, {}
        engine._execute_step(cold, completed, failed)
        engine._fallback_step(failed, cold, {}, results)
        assert results[0] is results[1]
        assert isinstance(results[0], CountFailure)
        assert engine.stats.fallbacks == 0
        assert engine._counts == {}

    def test_fallback_step_memoizes_exact_rescues(self):
        engine = CountingEngine(
            ExactCounter(max_nodes=10), EngineConfig(fallback="exact")
        )
        results = [None]
        cold = engine._memo_step([_flat(HARD)], results)
        completed, failed = {}, {}
        engine._execute_step(cold, completed, failed)
        engine._fallback_step(failed, cold, {}, results)
        [result] = results
        assert isinstance(result, CountResult)
        assert result.source == "fallback" and result.fallback_from == "exact"
        assert result.value == ExactCounter().count(HARD)
        assert engine.stats.fallbacks == 1
        assert engine._counts[HARD.signature()] == result.value

    @pytest.mark.parametrize("fallback", (None, "approxmc"))
    def test_an_abort_closes_the_count_calls_split(self, fallback):
        # A budget abort is neither a hit nor a completed backend call: it
        # is counted once in ``aborts``, rescued by the fallback or not.
        engine = CountingEngine(ExactCounter(), EngineConfig(fallback=fallback))
        request = CountRequest.from_cnf(
            translate(get_property("PartialOrder"), 4).cnf, budget=5
        )
        outcome = engine.solve(request, on_failure="return")
        assert isinstance(outcome, CountResult if fallback else CountFailure)
        stats = engine.stats
        assert (stats.count_calls, stats.aborts, stats.backend_calls) == (1, 1, 0)
        assert stats.fallbacks == (1 if fallback else 0)
        assert stats.count_calls == (
            stats.count_hits + stats.store_hits + stats.circuit_hits
            + stats.backend_calls + stats.aborts
        )


# -- batch-level guarantees of the chain ---------------------------------------------


class TestSerialBatch:
    def test_empty_batch(self):
        engine = CountingEngine(ExactCounter())
        assert engine.solve_many([]) == []
        assert engine.solve_many([], on_failure="return") == []
        assert engine.stats == EngineStats()

    def test_duplicate_failures_share_one_abort(self):
        engine = CountingEngine(ExactCounter(max_nodes=1))
        with pytest.raises(CounterBudgetExceeded):
            engine.solve_many([HARD, HARD.copy()])
        results = engine.solve_many([HARD, HARD.copy()], on_failure="return")
        assert results[0] is results[1]
        assert results[0].kind == "budget"
        assert engine.stats.backend_calls == 0

    def test_batch_results_merge_into_memo(self):
        batch = [
            translate(get_property(name), 3).cnf
            for name in ("Reflexive", "Transitive", "Connex", "Function")
        ]
        engine = CountingEngine()
        first = _values(engine, batch)
        assert engine.stats.backend_calls == len(batch)
        assert _values(engine, batch) == first
        assert engine.stats.backend_calls == len(batch)  # all memo hits now
        assert engine.stats.count_hits == len(batch)

    def test_completed_counts_survive_a_genuine_mid_batch_error(self, tmp_path):
        config = EngineConfig(cache_dir=tmp_path)
        with CountingEngine(RaisingCounter(OTHER), config) as engine:
            with pytest.raises(RuntimeError, match="backend broke"):
                engine.solve_many([EASY, OTHER])
            assert engine.stats.backend_calls == 1
            assert engine.store.get(signature_key(EASY.signature())) == 3
            assert engine.solve(EASY.copy()).source == "memo"

    def test_cold_problems_count_in_batch_order(self):
        from repro.counting import CountRequest

        spy = OrderSpy()
        engine = CountingEngine(spy)
        batch = [
            CountRequest.from_cnf(OTHER, budget=10_000),
            EASY,
            CountRequest.from_cnf(HARD, deadline=30.0),
            EASY.copy(),
            translate(get_property("Reflexive"), 2).cnf,
        ]
        engine.solve_many(batch)
        assert spy.seen == [
            OTHER.signature(),
            EASY.signature(),
            HARD.signature(),
            batch[4].signature(),
        ]

    def test_seeded_estimates_follow_the_serial_stream(self):
        batch = [CNF(num_vars=n, projection=range(1, n + 1)) for n in (10, 11, 12, 13)]
        counter = ApproxMCCounter(seed=9)
        one_by_one = [counter.count(cnf) for cnf in batch]
        assert _values(CountingEngine(ApproxMCCounter(seed=9)), batch) == one_by_one
        assert _values(CountingEngine(ApproxMCCounter(seed=9)), batch) == one_by_one

    def test_engine_is_a_context_manager_and_close_is_idempotent(self, tmp_path):
        with CountingEngine(ExactCounter(), EngineConfig(cache_dir=tmp_path)) as engine:
            assert engine.solve(EASY).value == 3
        engine.close()
        # Counting after close falls through to the backend.
        assert engine.solve(OTHER).value == 3

    @pytest.mark.parametrize("prop", PROPERTIES, ids=lambda p: p.name)
    def test_batch_matches_one_at_a_time(self, prop):
        problems = [
            translate(prop, scope, symmetry=symmetry).cnf
            for scope in (2, 3)
            for symmetry in (None, SymmetryBreaking())
        ]
        batch = problems + [cnf.copy() for cnf in problems]
        expected = [ExactCounter().count(cnf) for cnf in batch]
        engine = CountingEngine(ExactCounter())
        results = engine.solve_many(batch)
        assert [r.value for r in results] == expected
        distinct = {cnf.signature() for cnf in problems}
        assert engine.stats.backend_calls == len(distinct)
        assert all(r.source == "backend" for r in results)
        assert [r.value for r in engine.solve_many(batch)] == expected
        assert engine.stats.backend_calls == len(distinct)


# -- every backend counts on the caller's thread -------------------------------------

#: Auxiliary-free problems every registered backend can count.
SMALL = [
    CNF([[1, 2], [-1, 3]], projection=[1, 2, 3]),
    CNF([[1, -2, 4], [2, 3], [-3, -4]], projection=[1, 2, 3, 4]),
    CNF(num_vars=5, clauses=[(1, 2), (-1, -2), (3, 4, 5)]),
    CNF([[1, 2]], projection=[1, 2]),
]


@pytest.fixture
def no_new_threads_or_processes(monkeypatch):
    """Fail loudly if anything starts a thread or a process."""

    def refuse(self, *args, **kwargs):
        raise AssertionError(f"counting started {type(self).__name__}")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", refuse)


class TestOneThreadPerProcess:
    @pytest.mark.parametrize("name", BACKENDS)
    def test_backend_counts_without_starting_threads_or_processes(
        self, name, tmp_path, no_new_threads_or_processes
    ):
        threads_before = threading.active_count()
        config = EngineConfig(cache_dir=tmp_path)
        with CountingEngine(make_backend(name), config) as engine:
            values = _values(engine, SMALL + [SMALL[0].copy()])
        assert values[-1] == values[0]
        assert threading.active_count() == threads_before
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("name", BACKENDS)
    def test_fresh_instances_agree(self, name):
        first = _values(CountingEngine(make_backend(name)), SMALL)
        second = _values(CountingEngine(make_backend(name)), SMALL)
        assert first == second
        if make_backend(name).capabilities.exact:
            assert first == [brute_force_count(cnf) for cnf in SMALL]


# -- removed concurrency knobs fail loudly -------------------------------------------


class TestRemovedKnobs:
    @pytest.mark.parametrize(
        "knob",
        (
            "workers",
            "deadline_grace",
            "task_retries",
            "fanout_min_vars",
            "component_spill",
            "circuit_store",
        ),
    )
    def test_engine_config(self, knob):
        with pytest.raises(TypeError, match=knob):
            EngineConfig(**{knob: 2})

    @pytest.mark.parametrize(
        "knob", ("workers", "fanout_min_vars", "component_spill", "circuit_store")
    )
    def test_experiment_config(self, knob):
        with pytest.raises(TypeError, match=knob):
            ExperimentConfig(**{knob: 2})

    @pytest.mark.parametrize(
        "knob",
        (
            "workers",
            "deadline_grace",
            "task_retries",
            "fanout_min_vars",
            "component_spill",
            "circuit_store",
        ),
    )
    def test_session(self, knob):
        with pytest.raises(TypeError, match=knob):
            MCMLSession(**{knob: 2})

    @pytest.mark.parametrize("knob", ("solver_threads", "session_factory"))
    def test_counting_server(self, knob):
        with MCMLSession() as session:
            with pytest.raises(TypeError, match=knob):
                CountingServer(session, port=0, **{knob: None})

    @pytest.mark.parametrize(
        "flag",
        (
            "--workers",
            "--fanout-min-vars",
            "--solver-threads",
            "--counter",
            "--component-spill",
            "--circuit-store",
        ),
    )
    def test_cli_flag(self, flag, capsys):
        parser = build_parser()
        with pytest.raises(SystemExit) as excinfo:
            parser.parse_args(["table3", flag, "2"])
        assert excinfo.value.code == 2
        assert flag in capsys.readouterr().err

    def test_capabilities_and_stats_fields(self):
        fields = set(Capabilities.__dataclass_fields__)
        assert not fields & {"parallel_safe", "decomposes"}
        stats = set(EngineStats.__dataclass_fields__)
        assert not stats & {
            "worker_respawns",
            "retries",
            "serial_fallbacks",
            "component_fanouts",
            "fanout_subproblems",
            "component_spill_hits",
        }
        cache_stats = set(ComponentCache().stats())
        assert not cache_stats & {"spill_hits", "spills", "spill_degradations"}
        # No routing flag, provenance field or per-route counter is left.
        for dataclass_ in (Capabilities, CountResult, EngineStats):
            routing = [
                name
                for name in dataclass_.__dataclass_fields__
                if name.startswith("rout")
            ]
            assert routing == [], dataclass_.__name__

    @pytest.mark.parametrize(
        "name", ("bdd", "legacy", "exact-legacy", "composite", "router")
    )
    def test_removed_backend_is_gone(self, name):
        assert name not in BACKENDS
        with pytest.raises(ValueError, match="unknown counter"):
            make_backend(name)

    @pytest.mark.parametrize("owner", ("engine", "session"))
    def test_no_component_store(self, owner, tmp_path):
        phi = translate(get_property("PartialOrder"), 3, symmetry=SymmetryBreaking()).cnf
        with MCMLSession(cache_dir=tmp_path) as session:
            session.solve(phi)
            assert len(session.engine.component_cache) > 0
            target = session.engine if owner == "engine" else session
            with pytest.raises(AttributeError, match="component_store"):
                getattr(target, "component_store")
        # Closing writes the whole count, and no component file.
        assert (tmp_path / "counts.sqlite").exists()
        assert not (tmp_path / "components.sqlite").exists()

    def test_old_component_file_is_ignored(self, tmp_path):
        # A cache dir from an earlier version may hold components.sqlite,
        # even a wrecked one: it is neither read nor rotated nor rewritten.
        wreck = b"SQLite format 3\x00 truncated"
        (tmp_path / "components.sqlite").write_bytes(wreck)
        phi = translate(get_property("PartialOrder"), 3, symmetry=SymmetryBreaking()).cnf
        with CountingEngine(config=EngineConfig(cache_dir=tmp_path)) as engine:
            assert engine.solve(phi).value == 42
            assert engine.stats.store_degradations == 0
        assert (tmp_path / "components.sqlite").read_bytes() == wreck
        assert not (tmp_path / "components.sqlite.corrupt").exists()

    @pytest.mark.parametrize("name", ("count", "count_many", "count_formula"))
    def test_engine_has_no_bare_int_shim(self, name):
        # The brute backend has both ``count`` and ``count_formula``: the
        # engine must not fall through to them past its memo and stats.
        engine = CountingEngine(make_backend("brute"))
        with pytest.raises(AttributeError, match=name):
            getattr(engine, name)
