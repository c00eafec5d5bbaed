"""Tests for the per-path AccMC route.

Covers ``CountRequest(strategy="per-path")`` validation and expansion,
engine-level sum correctness and sub-problem dedup, rejection on
approximate backends, and AccMC bit-identity of the per-path vs
conjunction routes over the 16-property × scope 2–4 matrix (both
construction modes), plus the session's ``region_strategy`` plumbing.
"""

import pickle

import pytest

from repro.core.accmc import AccMC
from repro.core.pipeline import MCMLPipeline
from repro.core.session import MCMLSession
from repro.core.tree2cnf import label_cubes, label_region_cnf
from repro.counting import CountingEngine, CountRequest, EngineConfig, make_backend
from repro.logic import CNF
from repro.spec import SymmetryBreaking, get_property, translate
from repro.spec.properties import PROPERTIES


def _phi(scope=3, name="PartialOrder", negate=False):
    return translate(
        get_property(name), scope, symmetry=SymmetryBreaking(), negate=negate
    ).cnf


# -- the per-path route --------------------------------------------------------------


class TestPerPathRequests:
    def test_request_validation(self):
        phi = _phi()
        with pytest.raises(ValueError, match="requires cubes"):
            CountRequest.from_cnf(phi, strategy="per-path")
        with pytest.raises(ValueError, match="only meaningful"):
            CountRequest.from_cnf(phi, cubes=((1,),))
        with pytest.raises(ValueError, match="strategy"):
            CountRequest.from_cnf(phi, strategy="per-leaf")

    def test_expand_adds_unit_clauses(self):
        cnf = CNF([(1, 2), (-1, 3)], num_vars=3)
        request = CountRequest.from_cnf(
            cnf, strategy="per-path", cubes=((1, -2), (-1,))
        )
        subs = request.expand()
        assert len(subs) == 2
        assert subs[0].clauses == [(1, 2), (-1, 3), (1,), (-2,)]
        assert subs[1].clauses == [(1, 2), (-1, 3), (-1,)]

    def test_split_on_one_variable_sums_to_plain_count(self):
        phi = _phi()
        engine = CountingEngine()
        split = engine.solve(
            CountRequest.from_cnf(phi, strategy="per-path", cubes=((1,), (-1,)))
        )
        assert split.value == engine.solve(phi).value

    def test_empty_cube_set_counts_zero(self):
        result = CountingEngine().solve(
            CountRequest.from_cnf(_phi(), strategy="per-path", cubes=())
        )
        assert result.value == 0
        assert result.cached  # no backend work was done

    def test_signature_includes_cubes(self):
        phi = _phi()
        plain = CountRequest.from_cnf(phi)
        split = CountRequest.from_cnf(phi, strategy="per-path", cubes=((1,),))
        other = CountRequest.from_cnf(phi, strategy="per-path", cubes=((-1,),))
        assert split.signature() != plain.signature()
        assert split.signature() != other.signature()

    def test_shared_paths_dedup_across_requests(self):
        phi = _phi()
        engine = CountingEngine()
        cubes = ((1, 2), (1, -2), (-1,))
        engine.solve(CountRequest.from_cnf(phi, strategy="per-path", cubes=cubes))
        before = engine.stats.copy()
        engine.solve(CountRequest.from_cnf(phi, strategy="per-path", cubes=cubes))
        delta = engine.stats.delta_since(before)
        assert delta.backend_calls == 0  # every sub-problem was a memo hit
        assert delta.count_hits == len(cubes)

    def test_restarted_engine_answers_sub_problems_from_the_count_store(
        self, tmp_path
    ):
        # Across sessions, repeated sub-problems come back from counts.sqlite.
        request = CountRequest.from_cnf(
            _phi(), strategy="per-path", cubes=((1, 2), (1, -2), (-1,))
        )
        with CountingEngine(config=EngineConfig(cache_dir=tmp_path)) as cold:
            expected = cold.solve(request).value
        with CountingEngine(config=EngineConfig(cache_dir=tmp_path)) as warm:
            result = warm.solve(request)
            assert result.value == expected
            assert result.source == "store"
            assert warm.stats.store_hits == 3 and warm.stats.backend_calls == 0

    def test_per_path_rejected_on_approximate_backend(self):
        engine = CountingEngine(make_backend("approxmc", seed=7))
        request = CountRequest.from_cnf(_phi(), strategy="per-path", cubes=((1,),))
        with pytest.raises(ValueError, match="per-path"):
            engine.solve(request)

    def test_request_pickles(self):
        request = CountRequest.from_cnf(
            _phi(), strategy="per-path", cubes=((1, -2), (3,))
        )
        clone = pickle.loads(pickle.dumps(request))
        assert clone == request


class TestPerPathAccMC:
    def _tree(self, prop, scope, fraction=0.5):
        pipeline = MCMLPipeline(seed=0)
        dataset = pipeline.make_dataset(
            prop, scope, symmetry=SymmetryBreaking(), max_positives=500
        )
        train, _ = dataset.split(fraction, rng=0)
        return pipeline.train("DT", train)

    @pytest.mark.parametrize("prop", PROPERTIES, ids=lambda p: p.name)
    @pytest.mark.parametrize("scope", (2, 3, 4))
    def test_per_path_bit_identical_to_conjunction(self, prop, scope):
        """The conformance matrix: both routes, identical confusion counts."""
        tree = self._tree(prop, scope)
        sym = SymmetryBreaking()
        conjunction = AccMC(mode="product")
        per_path = AccMC(mode="product", region_strategy="per-path")
        expected = conjunction.evaluate(
            tree, conjunction.ground_truth(prop, scope, symmetry=sym)
        )
        actual = per_path.evaluate(
            tree, per_path.ground_truth(prop, scope, symmetry=sym)
        )
        assert actual.counts == expected.counts

    def test_derived_mode_matches_product_under_per_path(self):
        prop = get_property("Antisymmetric")
        tree = self._tree(prop, 3)
        sym = SymmetryBreaking()
        results = [
            AccMC(mode=mode, region_strategy="per-path")
            .evaluate(
                tree,
                AccMC(mode=mode).ground_truth(prop, 3, symmetry=sym),
            )
            .counts
            for mode in ("product", "derived")
        ]
        assert results[0] == results[1]

    def test_label_cubes_partition_matches_region(self):
        prop = get_property("PartialOrder")
        tree = self._tree(prop, 3)
        paths = tree.decision_paths()
        engine = CountingEngine()
        for label in (0, 1):
            region = label_region_cnf(paths, label, 9)
            cubes = label_cubes(paths, label)
            split = engine.solve(
                CountRequest.from_cnf(
                    CNF(num_vars=9, projection=range(1, 10)),
                    strategy="per-path",
                    cubes=cubes,
                )
            )
            assert split.value == engine.solve(region).value

    def test_approximate_backend_falls_back_to_conjunction(self):
        accmc = AccMC(
            counter=make_backend("approxmc", seed=3), region_strategy="per-path"
        )
        prop = get_property("Reflexive")
        tree = self._tree(prop, 2)
        # Must not raise: the route negotiation falls back before the
        # engine ever sees a per-path request.
        result = accmc.evaluate(tree, accmc.ground_truth(prop, 2))
        assert result.counts.total > 0

    def test_session_region_strategy_threads_through(self, tmp_path):
        with MCMLSession(region_strategy="per-path", cache_dir=tmp_path) as s:
            data = s.pipeline.make_dataset("Reflexive", 2)
            train, _ = data.split(0.5, rng=0)
            tree = s.pipeline.train("DT", train)
            result = s.accmc(tree, "Reflexive", 2)
            assert s.pipeline.accmc.region_strategy == "per-path"
        with MCMLSession() as plain:
            data = plain.pipeline.make_dataset("Reflexive", 2)
            train, _ = data.split(0.5, rng=0)
            tree = plain.pipeline.train("DT", train)
            assert plain.accmc(tree, "Reflexive", 2).counts == result.counts
