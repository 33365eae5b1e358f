"""Unit tests for the benchmark's own arithmetic and its metric names.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

import json
from itertools import count
from pathlib import Path

import pytest

import measure
import run
from measure import (
    SpanRecorder,
    covered,
    normalized,
    patched,
    percentile,
    require_percentile,
    self_times,
    smoothed,
    tail_percentile,
    timing_summary,
    valid_metric_name,
)

BENCHMARK_JSON = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


# -- percentiles ---------------------------------------------------------


def test_percentile_is_nearest_rank():
    samples = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert percentile(samples, 50) == 3.0
    assert percentile(samples, 100) == 5.0
    assert percentile(samples, 0) == 1.0
    assert percentile(samples, 81) == 5.0
    assert percentile(samples, 80) == 4.0


def test_percentile_of_nothing_raises():
    with pytest.raises(ValueError):
        percentile([], 50)


@pytest.mark.parametrize(
    "n, expected",
    [
        (9, None),
        (99, None),
        (100, 90.0),
        (999, 90.0),
        (1000, 99.0),
        (9999, 99.0),
        (10000, 99.9),
        (100000, 99.99),
    ],
)
def test_tail_is_highest_percentile_with_ten_beyond(n, expected):
    assert tail_percentile(n) == expected
    if expected is not None:
        assert measure.samples_beyond(n, expected) >= 10


def test_timing_summary_reports_median_tail_and_count():
    samples = [float(i) for i in range(1, 1001)]
    out = timing_summary(samples)
    assert out == {"n": 1000, "p50": 500.0, "tail_pct": 99.0, "tail": 990.0}
    assert "tail" not in timing_summary([1.0, 2.0, 3.0])


def test_require_percentile_refuses_thin_tails():
    assert require_percentile(list(range(1000)), 99) == 989
    with pytest.raises(ValueError, match="only 9 beyond"):
        require_percentile(list(range(999)), 99)


# -- host-speed probe ----------------------------------------------------


def test_smoothed_takes_median_of_three_neighbours():
    assert smoothed([1.0, 2.0, 2.0, 100.0]) == [2.0, 2.0, 2.0, 2.0]
    assert smoothed([1.0, 9.0, 1.0, 1.0, 9.0]) == [1.0, 1.0, 1.0, 1.0, 1.0]
    assert smoothed([5.0]) == [5.0]
    assert smoothed([1.0, 3.0]) == [2.0, 2.0]


def test_normalized_rescales_each_stretch_by_its_probe():
    ref = measure.PROBE_REF_S
    probes = [ref, ref, 2 * ref, 2 * ref]
    assert normalized([1.0, 1.0, 1.0, 4.0], [0, 1, 2, 3], probes) == [
        1.0, 1.0, 0.5, 2.0,
    ]
    # stretches that share a probe share its scale
    assert normalized([3.0, 5.0], [0, 0], [2 * ref]) == [1.5, 2.5]


def test_probe_kernel_is_fixed_work():
    assert measure.probe_kernel() == measure.probe_kernel()
    assert measure.time_probe() > 0


def test_stretches_probe_on_interval_and_leave_probes_out(monkeypatch):
    now = [0.0]

    def probe():
        now[0] += 0.5
        return 0.5

    monkeypatch.setattr(run, "time_probe", probe)
    monkeypatch.setattr(run.time, "perf_counter", lambda: now[0])
    monkeypatch.setattr(run, "PROBE_EVERY_S", 2.0)
    st = run._Stretches()
    st.boundary(0.0)  # probe [0, 0.5], stretch 0 opens at 0.5
    now[0] = 1.5
    st.boundary(1.5)  # 1.0 s since the probe: no probe
    now[0] = 3.0
    st.boundary(3.0)  # 2.5 s since the probe: probe [3, 3.5]
    st.cuts.append(4.0)
    assert st.walls() == [1.0, 1.5, 0.5]
    assert st.probe_of == [0, 0, 1]
    assert st.probes == [0.5, 0.5]


# -- spans ---------------------------------------------------------------


def test_covered_merges_overlaps_and_clips():
    assert covered([], 0, 10) == 0
    assert covered([(1, 3), (2, 5), (7, 8)], 0, 10) == 5
    assert covered([(-5, 2), (9, 20)], 0, 10) == 3
    assert covered([(1, 4), (1, 4)], 0, 10) == 3


def test_self_time_subtracts_children_not_grandchildren():
    # root [0,10] > a [1,5] > b [2,3];  root > c [6,9]
    starts = [0.0, 1.0, 2.0, 6.0]
    ends = [10.0, 5.0, 3.0, 9.0]
    parents = [-1, 0, 1, 0]
    assert self_times(starts, ends, parents) == [3.0, 3.0, 1.0, 3.0]


def test_self_time_counts_overlapping_children_once():
    assert self_times([0, 1, 2], [10, 6, 8], [-1, 0, 0])[0] == 3.0


def test_recorder_nests_spans_and_sums_self_time(monkeypatch):
    ticks = count()
    monkeypatch.setattr(measure.time, "perf_counter", lambda: float(next(ticks)))
    rec = SpanRecorder()
    inner = rec.wrap("inner", lambda x: x + 1)
    seen = []
    outer = rec.wrap("outer", lambda x: inner(x) * 2, on_return=seen.append)
    assert outer(1) == 4
    assert seen == [4]
    assert rec.names == ["outer", "inner"]
    assert rec.parents == [-1, 0]
    # outer [0,3], inner [1,2]
    assert (rec.starts, rec.ends) == ([0.0, 1.0], [3.0, 2.0])
    assert rec.self_times() == [2.0, 1.0]
    assert list(rec.rows())[1] == (1, "inner", 1.0, 2.0, 0)


def test_recorder_closes_span_when_call_raises():
    rec = SpanRecorder()

    def boom():
        raise KeyError("x")

    with pytest.raises(KeyError):
        rec.wrap("boom", boom)()
    after = rec.wrap("after", lambda: None)
    after()
    assert rec.parents == [-1, -1]
    assert rec.ends[0] >= rec.starts[0]


def test_patched_restores_own_and_inherited_methods():
    class Base:
        def f(self):
            return "base"

    class Child(Base):
        def g(self):
            return "g"

    wrap = lambda fn: lambda self: "wrapped-" + fn(self)
    with patched([(Child, "f", wrap), (Child, "g", wrap)]):
        assert Child().f() == "wrapped-base"
        assert Child().g() == "wrapped-g"
        assert Base().f() == "base"
    assert "f" not in Child.__dict__
    assert Child().f() == "base" and Child().g() == "g"


# -- metric names --------------------------------------------------------


@pytest.mark.parametrize(
    "name", ["jobs_per_s", "core.allocate.ms_p99", "sched.pass_self.round_share",
             "a", "9-lives", "x" * 64],
)
def test_valid_metric_names(name):
    assert valid_metric_name(name)


@pytest.mark.parametrize(
    "name", ["", ".hidden", "_x", "round ms", "a/b", "p99%", "é", "x" * 65],
)
def test_invalid_metric_names(name):
    assert not valid_metric_name(name)


def test_emitted_metrics_match_benchmark_json():
    doc = json.loads(BENCHMARK_JSON.read_text())
    e2e = {m["name"]: m for m in doc["end_to_end"]}
    layer = {m["name"]: m for m in doc["per_layer"]}
    assert set(e2e) == set(run.E2E_UNITS)
    assert set(layer) == set(run.LAYER_UNITS)
    for name, m in {**e2e, **layer}.items():
        assert valid_metric_name(name)
        unit = (run.E2E_UNITS | run.LAYER_UNITS)[name]
        assert m["unit"] == unit
        assert m["better"] in ("higher", "lower")
    for m in e2e.values():
        assert 0 < m["bound"] <= 0.25
    assert e2e["setup_s"]["bound"] == max(m["bound"] for m in e2e.values())
    assert [w["name"] for w in doc["workloads"]] == [
        w.name for w in run.WORKLOADS.values() if w.listed
    ]
