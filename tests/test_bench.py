import functools
import math

import numpy as np
import pytest

from diffkin import bench


def test_report_invariants(arm4_chain):
    report = bench.run_bench(
        arm4_chain,
        [64, 1, 16],
        min_seconds=0.05,
        repeats=1,
    )
    sizes = [m.batch_size for m in report.measurements]
    assert sizes == [1, 16, 64]  # sorted regardless of input order
    for m in report.measurements:
        assert m.iterations >= 10
        assert m.seconds >= 0.05
        assert m.ops_per_sec == pytest.approx(m.batch_size * m.iterations / m.seconds)
    assert report.baseline_ops_per_sec > 0
    ratios = report.ratios()
    assert len(ratios) == 3
    for m, r in zip(report.measurements, ratios):
        assert r == pytest.approx(m.ops_per_sec / report.baseline_ops_per_sec)
    assert "numpy" in report.machine
    assert report.threads


def test_no_baseline(arm4_chain):
    report = bench.run_bench(
        arm4_chain,
        [4],
        min_seconds=0.02,
        repeats=1,
        with_baseline=False,
    )
    assert report.baseline_ops_per_sec is None
    assert report.ratios() is None


def test_rejects_nonpositive_batch(arm4_chain):
    with pytest.raises(ValueError, match="positive"):
        bench.run_bench(arm4_chain, [4, 0], min_seconds=0.01)


def test_rejects_negative_seed(arm4_chain):
    with pytest.raises(ValueError, match="seed must be non-negative"):
        bench.run_bench(arm4_chain, [4], min_seconds=0.01, rng_seed=-1)


@pytest.mark.parametrize(
    "min_seconds, repeats, match",
    [
        (-3.0, 1, "min_seconds must be finite and non-negative"),
        (math.inf, 1, "min_seconds must be finite and non-negative"),
        (math.nan, 1, "min_seconds must be finite and non-negative"),
        (0.01, 0, "repeats must be at least 1"),
        (0.01, -2, "repeats must be at least 1"),
    ],
)
@pytest.mark.parametrize(
    "measure",
    [functools.partial(bench.run_bench, batch_sizes=[4]), bench.measure_baseline],
    ids=["run_bench", "measure_baseline"],
)
def test_rejects_unbounded_or_empty_timing(arm4_chain, monkeypatch, measure, min_seconds, repeats, match):
    """An infinite min_seconds never returns, and a repeats below 1 was
    run once; both are refused before anything is timed."""
    monkeypatch.setattr(bench, "_timed_loop", None)
    with pytest.raises(ValueError, match=match):
        measure(arm4_chain, min_seconds=min_seconds, repeats=repeats)


def test_baseline_measure(arm4_chain):
    ops = bench.measure_baseline(arm4_chain, min_seconds=0.05, repeats=1)
    assert ops > 0


def test_batched_beats_baseline(arm4_chain):
    """Even a small batch amortizes enough to outrun the sequential loop."""
    report = bench.run_bench(arm4_chain, [256], min_seconds=0.1, repeats=2)
    assert report.ratios()[0] > 3.0


def test_repeats_keep_best(arm4_chain, monkeypatch):
    calls = []
    real = bench._timed_loop

    def spy(call, pool, min_seconds):
        out = real(call, pool, min_seconds)
        calls.append(out)
        return out

    monkeypatch.setattr(bench, "_timed_loop", spy)
    report = bench.run_bench(
        arm4_chain,
        [8],
        min_seconds=0.02,
        repeats=3,
        with_baseline=False,
    )
    assert len(calls) == 3
    best = max(i / s for i, s in calls)
    assert report.measurements[0].ops_per_sec == pytest.approx(8 * best)
