"""The ``CountingEngine.solve_many`` batch contract, pinned by Hypothesis.

Random batches of small aux-free CNFs, with duplicates, members pre-warmed
into a ``cache_dir`` by an earlier engine, and one member whose node budget
cannot be met.  Whatever the shape of the batch:

* every value equals :func:`brute_force_count`;
* each result's ``source`` is ``store`` for a pre-warmed signature,
  ``backend`` for a cold one, ``fallback`` for the failed member when a
  fallback is configured, and ``memo`` for everything on a repeated batch;
* ``backend_calls`` equals the number of distinct cold signatures that the
  backend completed (duplicates collapse onto one count), and
  ``count_calls`` splits exactly into memo, store, circuit and backend
  answers plus ``aborts``;
* with ``on_failure="raise"`` the original abort re-raises, and every count
  that completed before or after it is already in the disk store.
"""

import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.counting import (
    CountFailure,
    CountingEngine,
    CountRequest,
    CountResult,
    EngineConfig,
    ExactCounter,
    brute_force_count,
    signature_key,
)
from repro.counting.exact import CounterBudgetExceeded
from repro.logic import CNF

#: Random members live over six variables, all projected.
NUM_VARS = 6

#: The member that blows its budget: eight variables (so no random member's
#: component can answer it from the shared cache) in one connected component
#: that survives propagation, so the search spends a node at once.
HARD = CNF(
    [
        (1, 2, 3), (-1, -2), (-2, -3), (3, 4, 5), (-4, -5),
        (5, 6, 7), (-6, -7), (7, 8, 1), (-8, -1),
    ],
    num_vars=8,
    projection=range(1, 9),
)
HARD_VALUE = brute_force_count(HARD)

_literal = st.integers(1, NUM_VARS).flatmap(lambda v: st.sampled_from((v, -v)))
_clause = st.lists(_literal, min_size=1, max_size=3).map(tuple)
_cnf = st.lists(_clause, min_size=1, max_size=6).map(
    lambda clauses: CNF(clauses, num_vars=NUM_VARS, projection=range(1, NUM_VARS + 1))
)


@st.composite
def batches(draw):
    """``(members, warm, fail_at, with_fallback)`` for one batch.

    ``members`` repeats entries of a small pool (duplicates), ``warm`` is the
    pool subset counted into the store beforehand, and ``fail_at`` is where
    the budget-failing member is inserted.
    """
    pool = draw(st.lists(_cnf, min_size=1, max_size=5))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=8))
    members = [pool[i].copy() for i in picks]
    warm = [cnf for cnf in pool if draw(st.booleans())]
    fail_at = draw(st.integers(0, len(members)))
    return members, warm, fail_at, draw(st.booleans())


def _engine(cache_dir, fallback=None):
    return CountingEngine(
        ExactCounter(), config=EngineConfig(cache_dir=cache_dir, fallback=fallback)
    )


def _prewarm(cache_dir, warm):
    with _engine(cache_dir) as engine:
        engine.solve_many(warm)


def _problems(members, fail_at):
    problems = list(members)
    problems.insert(fail_at, CountRequest.from_cnf(HARD, budget=0))
    return problems


def _assert_calls_split(stats):
    assert stats.count_calls == (
        stats.count_hits
        + stats.store_hits
        + stats.circuit_hits
        + stats.backend_calls
        + stats.aborts
    )


@given(batches())
@settings(max_examples=40, deadline=None)
def test_batch_values_sources_and_backend_calls(batch):
    members, warm, fail_at, with_fallback = batch
    warm_sigs = {cnf.signature() for cnf in warm}
    cold_sigs = {cnf.signature() for cnf in members} - warm_sigs
    with tempfile.TemporaryDirectory() as cache_dir:
        _prewarm(cache_dir, warm)
        with _engine(cache_dir, "exact" if with_fallback else None) as engine:
            problems = _problems(members, fail_at)
            results = engine.solve_many(problems, on_failure="return")
            assert len(results) == len(problems)
            for position, (problem, result) in enumerate(zip(problems, results)):
                if position == fail_at:
                    if with_fallback:
                        assert isinstance(result, CountResult)
                        assert result.source == "fallback"
                        assert result.value == HARD_VALUE
                    else:
                        assert isinstance(result, CountFailure)
                        assert result.kind == "budget"
                    continue
                assert isinstance(result, CountResult)
                assert result.value == brute_force_count(problem)
                expected = "store" if problem.signature() in warm_sigs else "backend"
                assert result.source == expected
            assert engine.stats.backend_calls == len(cold_sigs)
            assert engine.stats.aborts == 1
            _assert_calls_split(engine.stats)

            again = engine.solve_many(problems, on_failure="return")
            for position, result in enumerate(again):
                if position == fail_at and not with_fallback:
                    assert isinstance(result, CountFailure)
                    continue
                assert result.source == "memo"
                assert result.value == results[position].value
            assert engine.stats.backend_calls == len(cold_sigs)
            # The exact fallback memoized its rescue; an unrescued failure
            # aborts again on the repeat.
            assert engine.stats.aborts == (1 if with_fallback else 2)
            _assert_calls_split(engine.stats)


@given(batches())
@settings(max_examples=25, deadline=None)
def test_completed_counts_reach_the_store_when_the_batch_raises(batch):
    members, warm, fail_at, _ = batch
    with tempfile.TemporaryDirectory() as cache_dir:
        _prewarm(cache_dir, warm)
        with _engine(cache_dir) as engine:
            with pytest.raises(CounterBudgetExceeded):
                engine.solve_many(_problems(members, fail_at))
            for cnf in members:
                stored = engine.store.get(signature_key(cnf.signature()))
                assert stored == brute_force_count(cnf)
            assert engine.store.get(signature_key(HARD.signature())) is None
