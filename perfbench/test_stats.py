"""Tests of the benchmark's own arithmetic."""

import gc
import json

import pytest

from perfbench.stats import (
    PROBE_ITERATIONS,
    REF_S_PER_ITERATION,
    SpeedProbe,
    covered_length,
    nearest_rank,
    quietest_median,
    rows_match,
    row_bytes,
    self_times,
    summarize,
    tail_percentile,
)
from perfbench.tracer import Tracer, summarize_spans


def test_self_time_subtracts_nested_children():
    # root 0..10 > child 1..6 > grandchild 2..3
    spans = [(0.0, 10.0, None), (1.0, 6.0, 0), (2.0, 3.0, 1)]
    assert self_times(spans) == pytest.approx([5.0, 4.0, 1.0])


def test_self_time_back_to_back_children():
    spans = [(0.0, 10.0, None), (1.0, 4.0, 0), (4.0, 7.0, 0)]
    assert self_times(spans) == pytest.approx([4.0, 3.0, 3.0])


def test_overlapping_children_count_once():
    # children on other threads may overlap; the union is subtracted
    spans = [(0.0, 10.0, None), (1.0, 5.0, 0), (3.0, 8.0, 0)]
    assert self_times(spans)[0] == pytest.approx(3.0)
    assert covered_length([(1, 5), (3, 8), (12, 20)], 0, 10) == 7


def test_tail_percentile_needs_ten_samples_beyond():
    assert tail_percentile(99) is None
    assert tail_percentile(100) == 90.0
    assert tail_percentile(999) == 90.0
    assert tail_percentile(1000) == 99.0
    assert tail_percentile(10000) == 99.9


def test_summarize_reports_median_and_supported_tail():
    samples = list(range(1, 101))  # 1..100
    out = summarize(samples)
    assert out["n"] == 100
    assert out["p50"] == 50.5
    assert out["tail_q"] == 90.0
    assert out["tail"] == 90
    assert summarize([3, 1, 2])["tail"] is None
    assert nearest_rank([5, 1, 4, 2, 3], 50) == 3


def test_reference_check_fails_on_one_changed_byte():
    row = {"case": "cs1_prompt", "asr": 0.9, "misfire": 0.0}
    reference = row_bytes(row)
    assert rows_match(row, reference)
    changed = reference.replace("0.9", "0.8")
    assert len(changed) == len(reference)
    assert not rows_match(row, changed)
    # key order is part of the bytes
    assert not rows_match(dict(reversed(list(row.items()))), reference)
    assert json.loads(reference) == row


def test_summarize_spans_self_time_and_outermost_inclusive():
    tracer = Tracer()
    tracer.active = True

    def inner():
        return 1

    def outer():
        return tracer.call("layer", inner, (), {}) + \
            tracer.call("layer", inner, (), {})

    tracer.run_op(lambda: tracer.call("layer", outer, (), {}))
    summary = summarize_spans(tracer.spans())
    assert summary["ops"] == 1
    layer = summary["layers"]["layer"]
    assert layer["calls"] == 3
    # the two nested calls are inside the outer one: inclusive time
    # counts the outermost span only
    spans = tracer.spans()[0]
    outer_span = next(s for s in spans if s[0] == "layer" and s[3] == 0)
    assert layer["s"] == pytest.approx(outer_span[2] - outer_span[1])
    assert summary["root_self_s"] <= summary["root_s"]


def test_speed_scale_weights_probes_by_time():
    probe = SpeedProbe()
    unit = REF_S_PER_ITERATION * PROBE_ITERATIONS
    # half the op at reference speed, half at half speed: 3/4 of the work
    _, measured, ref = probe.timed(
        lambda: probe.samples.extend([unit, 2 * unit]))
    assert ref == pytest.approx(0.75 * measured)
    # one disturbed probe among ten barely moves the scale
    _, measured, ref = probe.timed(
        lambda: probe.samples.extend([unit] * 9 + [100 * unit]))
    assert ref == pytest.approx(measured * 9.01 / 10)


def test_probe_runs_without_collector_and_restores_it():
    probe = SpeedProbe()
    was = gc.isenabled()
    try:
        for enabled in (True, False):
            (gc.enable if enabled else gc.disable)()
            probe._probe(None, None)
            assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()
    assert len(probe.samples) == 2


def test_quietest_median_skips_a_starved_stretch():
    quiet = [(t / 10, 1.0 + (t % 3) / 10) for t in range(60)]
    # the last third of the run is starved: every latency there is 9
    timed = quiet[:40] + [(t / 10, 9.0) for t in range(40, 60)]
    assert quietest_median(timed, 3) == pytest.approx(1.1)
    assert quietest_median([(0.0, 2.0)], 6) == 2.0
