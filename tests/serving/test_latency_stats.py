"""Exact-percentile unit tests and the serve_daemon golden row schema.

The daemon reports *nearest-rank* percentiles — always an observed
sample, exactly defined for ``n == 1`` and for tied values — so these
tests pin the definition against hand-computed distributions rather
than trusting a library's interpolation mode.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.experiments.registry import EXPERIMENTS
from repro.nn.models import DEFAULT_MODELS
from repro.serving import (
    REPORTED_PERCENTILES,
    LatencyRecorder,
    exact_percentile,
)

GOLDEN = Path(__file__).parent.parent / "experiments" / "golden" / "serve_daemon.json"


class TestExactPercentile:
    def test_known_distribution_1_to_100(self):
        values = list(range(1, 101))
        assert exact_percentile(values, 50.0) == 50
        assert exact_percentile(values, 95.0) == 95
        assert exact_percentile(values, 99.0) == 99
        assert exact_percentile(values, 100.0) == 100
        assert exact_percentile(values, 1.0) == 1

    def test_input_order_is_irrelevant(self):
        assert exact_percentile([30, 10, 20], 50.0) == 20
        assert exact_percentile([20, 30, 10], 50.0) == 20

    def test_n_equals_1_every_percentile_is_the_sample(self):
        for pct in (0.1, 50.0, 95.0, 99.0, 100.0):
            assert exact_percentile([42.5], pct) == 42.5

    def test_tied_values(self):
        # sorted: [3, 7, 7, 7] — p50 is rank ceil(2) = 2 -> 7.
        assert exact_percentile([7, 7, 3, 7], 50.0) == 7
        assert exact_percentile([7, 7, 3, 7], 25.0) == 3
        assert exact_percentile([5.0] * 9, 99.0) == 5.0

    def test_small_n_tail_rounds_up_to_max(self):
        # With n=10, p99 is rank ceil(9.9) = 10 -> the maximum: tail
        # percentiles of small samples degrade to the max, never
        # interpolate past an observed value.
        values = list(range(10))
        assert exact_percentile(values, 99.0) == 9
        assert exact_percentile(values, 95.0) == 9
        assert exact_percentile(values, 90.0) == 8

    def test_nearest_rank_never_interpolates(self):
        # numpy's default linear method would report 15.0 here.
        assert exact_percentile([10, 20], 50.0) == 10

    def test_invalid_inputs_raise(self):
        with pytest.raises(ConfigError):
            exact_percentile([1.0], 0.0)
        with pytest.raises(ConfigError):
            exact_percentile([1.0], 101.0)
        with pytest.raises(ConfigError):
            exact_percentile([], 50.0)


class TestLatencyRecorder:
    def test_summary_of_known_distribution(self):
        recorder = LatencyRecorder(float(v) for v in range(1, 101))
        summary = recorder.summary()
        assert summary == {
            "latency_count": 100,
            "p50_latency_us": 50.0,
            "p95_latency_us": 95.0,
            "p99_latency_us": 99.0,
            "mean_latency_us": 50.5,
            "max_latency_us": 100.0,
        }

    def test_empty_recorder_reports_zeros_not_errors(self):
        summary = LatencyRecorder().summary()
        assert summary["latency_count"] == 0
        assert summary["p99_latency_us"] == 0.0
        with pytest.raises(ConfigError):
            LatencyRecorder().percentile(50.0)
        with pytest.raises(ConfigError):
            LatencyRecorder().mean()

    def test_negative_latency_rejected(self):
        with pytest.raises(ConfigError):
            LatencyRecorder().record(-1.0)

    def test_samples_kept_in_arrival_order(self):
        recorder = LatencyRecorder()
        for value in (5.0, 1.0, 3.0):
            recorder.record(value)
        assert recorder.samples == (5.0, 1.0, 3.0)
        assert recorder.count == 3
        assert recorder.percentile(50.0) == 3.0

    @given(st.lists(
        st.floats(min_value=0.0, max_value=1e9, allow_nan=False),
        min_size=1, max_size=200,
    ))
    def test_summary_agrees_with_exact_percentile(self, samples):
        summary = LatencyRecorder(samples).summary()
        for pct in REPORTED_PERCENTILES:
            assert summary[f"p{int(pct)}_latency_us"] == round(
                exact_percentile(samples, pct), 3
            )
        assert summary["max_latency_us"] == round(max(samples), 3)

    def test_reported_percentiles_are_the_daemon_row_columns(self):
        summary = LatencyRecorder([1.0]).summary()
        for pct in REPORTED_PERCENTILES:
            assert f"p{int(pct)}_latency_us" in summary


class TestServeDaemonGoldenSchema:
    """Row-schema contract of the new `serve_daemon` experiment."""

    #: The exact column set of one serve_daemon row — drift here breaks
    #: downstream row consumers (report tables, trajectory tooling).
    EXPECTED_COLUMNS = {
        "model", "pruning", "scale", "batch_cap", "deadline_us", "workers",
        "queue_depth", "requests", "mean_gap_us", "completed", "rejected",
        "failed", "batches", "mean_batch_size", "flush_full",
        "flush_deadline", "makespan_us", "images_per_sec", "latency_count",
        "p50_latency_us", "p95_latency_us", "p99_latency_us",
        "mean_latency_us", "max_latency_us",
    }

    def rows(self):
        assert GOLDEN.exists(), (
            "missing golden snapshot serve_daemon.json; generate with "
            "`python -m pytest tests/experiments/test_golden.py --update-golden`"
        )
        return json.loads(GOLDEN.read_text(encoding="utf-8"))

    def test_registered_and_sweepable(self):
        spec = EXPERIMENTS["serve_daemon"]
        for axis in ("models", "batch_caps", "deadlines_us",
                     "workers_counts", "pruning"):
            assert axis in spec.sweepable

    def test_golden_rows_cover_the_zoo_with_exact_schema(self):
        rows = self.rows()
        assert [row["model"] for row in rows] == list(DEFAULT_MODELS)
        for row in rows:
            assert set(row) == self.EXPECTED_COLUMNS

    def test_golden_row_invariants(self):
        for row in self.rows():
            assert row["completed"] + row["rejected"] + row["failed"] == (
                row["requests"]
            )
            assert row["latency_count"] == row["completed"]
            assert (
                row["p50_latency_us"]
                <= row["p95_latency_us"]
                <= row["p99_latency_us"]
                <= row["max_latency_us"]
            )
            assert row["mean_batch_size"] <= row["batch_cap"]
            assert row["flush_full"] + row["flush_deadline"] == row["batches"]
            assert row["images_per_sec"] > 0
