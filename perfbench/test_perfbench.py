"""Tests of the benchmark's own logic: self times, the table mask, the tally."""

from __future__ import annotations

import sys
import types

import pytest

from mcmlbench.layers import _replace_function
from mcmlbench.spans import UNATTRIBUTED, Tracer, self_times, total_seconds
from mcmlbench.tables import assemble, check_render, digest, normalise, tally

render_table = pytest.importorskip("repro.experiments.render").render_table


def _clock(ticks):
    values = iter(ticks)
    return lambda: next(values)


class TestSelfTimes:
    def test_nested_spans_charge_each_layer_its_uncovered_time(self):
        spans = [
            ["pass", 0.0, 10.0, None],
            ["core.accmc", 1.0, 5.0, 0],
            ["counting.solve", 2.0, 3.0, 1],
            ["core.accmc", 6.0, 8.0, 0],
        ]
        times = self_times(spans)
        assert times == pytest.approx({"core": 5.0, "counting": 1.0, UNATTRIBUTED: 4.0})
        assert sum(times.values()) == pytest.approx(10.0)

    def test_same_layer_child_is_not_counted_twice(self):
        spans = [["pass", 0.0, 4.0, None], ["sat.count_models", 0.0, 4.0, 0], ["sat.solve", 1.0, 3.0, 1]]
        assert self_times(spans) == pytest.approx({"sat": 4.0, UNATTRIBUTED: 0.0})
        assert total_seconds(spans, "sat.solve") == pytest.approx(2.0)
        assert total_seconds(spans, "sat") == pytest.approx(6.0)

    def test_tracer_records_parents_and_skips_reentrant_calls(self):
        tracer = Tracer(clock=_clock([0.0, 1.0, 2.0, 3.0, 4.0, 5.0]))

        def fit(depth):
            return fit_wrapped(depth - 1) if depth else "leaf"

        fit_wrapped = tracer.wrap(fit, "ml.fit.RFT", group="ml.fit")
        inner = tracer.wrap(lambda: fit_wrapped(2), "core.accmc")
        root = tracer.begin("pass")
        assert inner() == "leaf"
        tracer.end(root)
        assert tracer.spans == [
            ["pass", 0.0, 5.0, None],
            ["core.accmc", 1.0, 4.0, 0],
            ["ml.fit.RFT", 2.0, 3.0, 1],
        ]
        assert tracer.calls["ml.fit.RFT"] == 1

    def test_counting_wrapper_counts_without_spans(self):
        tracer = Tracer()
        add = tracer.counting(lambda x: x + 1, "sat.add_clause_calls")
        assert [add(i) for i in range(3)] == [1, 2, 3]
        assert tracer.counts["sat.add_clause_calls"] == 3
        assert tracer.spans == []


def test_functions_are_replaced_under_every_importing_name():
    original = lambda: "original"  # noqa: E731
    defining = types.ModuleType("repro._perfbench_probe_defining")
    caller = types.ModuleType("repro._perfbench_probe_caller")
    defining.work = original
    caller.imported_work = original
    sys.modules[defining.__name__] = defining
    sys.modules[caller.__name__] = caller
    try:
        _replace_function(original, lambda: "wrapped")
        assert defining.work() == "wrapped"
        assert caller.imported_work() == "wrapped"
    finally:
        del sys.modules[defining.__name__], sys.modules[caller.__name__]


def _table(times, accuracy="0.9000"):
    rows = [["Reflexive", accuracy, times[0]], ["PartialOrder", "0.8000", times[1]]]
    return render_table(["Property", "Acc(phi)", "Time[s]"], rows, title="Table 3: probe")


class TestMask:
    def test_time_only_change_compares_equal(self):
        assert normalise(_table([0.5, 0.3])) == normalise(_table([12.5, 0.3]))

    def test_metric_change_compares_different(self):
        assert normalise(_table([0.5, 0.3])) != normalise(_table([0.5, 0.3], accuracy="0.9100"))

    def test_pinned_seed_fails_on_metric_change_only(self):
        base = _table([0.5, 0.3])
        reference = {"texts": {"table3": base}, "digests": {"0": {"table3": digest(normalise(base))}}}
        assert check_render("table3", 0, _table([7.0, 1.0]), reference) == []
        assert check_render("table3", 0, _table([0.5, 0.3], accuracy="0.9100"), reference)

    def test_unpinned_seed_may_move_seeded_columns_only(self):
        base = _table([0.5, 0.3])
        reference = {"texts": {"table3": base}, "digests": {}}
        assert check_render("table3", 7, _table([0.5, 0.3], accuracy="0.9100"), reference) == []
        renamed = base.replace("Reflexive", "Irreflexive")
        assert check_render("table3", 7, renamed, reference)

    def test_malformed_table_never_matches_a_well_formed_one(self):
        good = _table([0.5, 0.3])
        broken = good.replace("0.8000", "0.8000  extra")
        assert normalise(good) != normalise(broken)


def test_tally_counts_errors_and_mismatches_as_failed_ops():
    good = _table([0.5, 0.3])
    reference = {"texts": {"table3": good}, "digests": {"0": {"table3": digest(normalise(good))}}}
    renders = [
        {"artifact": "table3", "text": _table([1.5, 0.2]), "error": None},
        {"artifact": "table3", "text": None, "error": "RuntimeError: boom"},
        {"artifact": "table3", "text": _table([0.5, 0.3], accuracy="0.1000"), "error": None},
    ]
    result = tally(renders, 0, reference)
    assert (result["attempted"], result["failed"], result["table_mismatches"]) == (3, 2, 1)
    assert result["failed_ops_frac"] == pytest.approx(2 / 3)


def test_tally_fails_a_rendering_that_differs_within_one_run():
    first, second = _table([0.5, 0.3]), _table([0.5, 0.3], accuracy="0.9100")
    reference = {"texts": {"table3": first}, "digests": {}}
    result = tally(
        [{"artifact": "table3", "text": text, "error": None} for text in (first, second)], 5, reference
    )
    assert (result["failed"], result["table_mismatches"]) == (1, 1)


def _unit_table(name, accuracy, time_s):
    return render_table(["Property", "Acc(phi)", "Time[s]"], [[name, accuracy, time_s]], title="Table 3: probe")


def _unit_render(name, accuracy="0.9000", time_s=0.5):
    return {"artifact": "table3", "unit": name, "text": _unit_table(name, accuracy, time_s), "error": None}


class TestUnits:
    def _reference(self):
        whole = render_table(
            ["Property", "Acc(phi)", "Time[s]"],
            [["Reflexive", "0.9000", 0.5], ["PartialOrder", "0.8000", 0.3]],
            title="Table 3: probe",
        )
        return {"texts": {"table3": whole}, "digests": {"0": {"table3": digest(normalise(whole))}}}

    def test_unit_renderings_assemble_to_the_pinned_whole_table(self):
        reference = self._reference()
        renders = [_unit_render("Reflexive", time_s=7.0), _unit_render("PartialOrder", "0.8000"),
                   _unit_render("Reflexive", time_s=0.1)]
        result = tally(renders, 0, reference)
        assert (result["attempted"], result["failed"]) == (3, 0)
        assert result["digests"]["table3"] == reference["digests"]["0"]["table3"]

    def test_a_later_unit_rendering_must_repeat_the_first(self):
        renders = [_unit_render("Reflexive"), _unit_render("PartialOrder", "0.8000"),
                   _unit_render("Reflexive", "0.9100")]
        result = tally(renders, 0, self._reference())
        assert (result["failed"], result["table_mismatches"]) == (1, 1)

    def test_a_wrong_row_fails_every_rendering_of_the_artifact(self):
        renders = [_unit_render("Reflexive"), _unit_render("PartialOrder", "0.8100"),
                   _unit_render("Reflexive")]
        assert tally(renders, 0, self._reference())["failed"] == 3

    def test_a_unit_that_never_rendered_leaves_nothing_to_check(self):
        renders = [_unit_render("Reflexive"),
                   {"artifact": "table3", "unit": "PartialOrder", "text": None, "error": "RuntimeError: boom"}]
        result = tally(renders, 0, self._reference())
        assert (result["attempted"], result["failed"]) == (2, 2)
        assert "table3" not in result["digests"]

    def test_parts_with_different_headers_do_not_assemble(self):
        other = render_table(["Property", "Acc(Test)", "Time[s]"], [["PartialOrder", "0.8", 0.3]], title="Table 3: probe")
        with pytest.raises(ValueError):
            assemble([_unit_table("Reflexive", "0.9000", 0.5), other])


class _FakeHarness:
    """Records the passes ``run.run`` asks for; every pass takes no time."""

    def __init__(self, workdir, unit_seconds=(1.0,), clock=None):
        self.workdir = workdir
        self.calls = []
        self.unit_seconds = unit_seconds
        self.clock = clock

    def run(self, workload, seed, cache_dir=None, trace=False, setup_only=False, units=None):
        self.calls.append({"cache_dir": cache_dir, "trace": trace, "setup_only": setup_only, "units": units})
        picked = range(len(self.unit_seconds)) if units is None else units
        records = [
            {"index": i, "unit": None, "wall_s": self.unit_seconds[i], "cpu_s": self.unit_seconds[i]}
            for i in picked
        ]
        wall_s = sum(record["wall_s"] for record in records)
        if self.clock is not None:
            self.clock[0] += wall_s + 0.2
        record = {
            "setup_s": 0.1, "wall_s": wall_s, "cpu_s": wall_s, "peak_rss_mb": 50.0,
            "total_s": wall_s + 0.2, "units": records, "renders": [],
        }
        if trace:
            record["layers"] = {"trace.wall_s": 1.1}
        return record


@pytest.mark.parametrize("workload", ["whole-space-cold", "whole-space-warm"])
def test_traced_run_gives_cold_passes_fresh_and_warm_passes_filled_cache_dirs(tmp_path, workload):
    import run as bench
    from mcmlbench.workloads import WORKLOADS

    harness = _FakeHarness(tmp_path)
    outcome = bench.run(WORKLOADS[workload], 0, 0.0, True, harness)
    passes = [call for call in harness.calls if not call["setup_only"]]
    dirs = [call["cache_dir"] for call in passes]
    if workload == "whole-space-cold":
        assert len(set(dirs)) == len(dirs) == 2
    else:
        assert len(set(dirs)) == 1 and len(dirs) == 3
    assert [call["trace"] for call in passes][-1] is True
    assert outcome["metrics"]["trace.overhead_s"] == pytest.approx(0.1)


@pytest.mark.parametrize("seconds, passes", [(0.0, 1), (3.6, 3), (4.7, 3), (4.8, 4)])
def test_passes_stop_before_the_next_one_would_overrun(tmp_path, monkeypatch, seconds, passes):
    import run as bench
    from mcmlbench.workloads import WORKLOADS

    clock = [0.0]
    monkeypatch.setattr(bench.time, "perf_counter", lambda: clock[0])
    harness = _FakeHarness(tmp_path, clock=clock)
    records = bench.measure(harness, WORKLOADS["whole-space-cold"], 0, seconds, lambda: None)
    assert len(records) == passes
    assert clock[0] <= max(seconds, 1.2)


def test_partial_passes_continue_the_unit_cycle_and_sum_unit_medians(tmp_path, monkeypatch):
    import run as bench
    from mcmlbench.workloads import WORKLOADS

    clock = [0.0]
    monkeypatch.setattr(bench.time, "perf_counter", lambda: clock[0])
    harness = _FakeHarness(tmp_path, unit_seconds=(3.0, 1.0, 2.0), clock=clock)
    # 6.2 s whole pass, then 3.8 s left: units 0 (3.0) fits after 0.2 s
    # start-up, 1 does not; then 0.6 s left: nothing fits.
    records = bench.measure(harness, WORKLOADS["approx-counts"], 0, 10.0, lambda: None)
    assert [call["units"] for call in harness.calls] == [None, [0]]
    assert bench.unit_medians(records, "wall_s") == {0: 3.0, 1: 1.0, 2: 2.0}
    assert clock[0] <= 10.0


def test_plan_wraps_around_the_cycle_and_takes_each_unit_once():
    import run as bench

    record = {
        "wall_s": 6.0, "total_s": 6.5,
        "units": [{"index": i, "wall_s": w} for i, w in enumerate((3.0, 1.0, 2.0))],
    }
    assert bench.plan([record], 2, 100.0) == [2, 0, 1]
    assert bench.plan([record], 1, 3.6) == [1, 2]
    assert bench.plan([record], 0, 3.4) == []
