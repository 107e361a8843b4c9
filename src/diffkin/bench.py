"""Throughput measurement: batched FK ops/s across batch sizes.

One "op" is one configuration's final base-to-end transform.  Input batches
are pregenerated outside the timed region, the first calls are discarded as
warm-up, and every measurement runs at least a minimum wall time and
iteration count.  The baseline is the naive sequential implementation
evaluated one configuration at a time.
"""

from __future__ import annotations

import functools
import os
import platform
import time
from dataclasses import dataclass

import numpy as np

from . import naive
from .kinematics import FkEngine

__all__ = ["BenchMeasurement", "BenchReport", "run_bench", "measure_baseline"]

# Input pools are sized by bytes, not entry count, so every batch size cycles
# through a comparably cache-cold input stream; a fixed small pool would stay
# cache-resident for small batches and flatter them against large ones.
_POOL_BYTES = 4 << 20
_POOL_MIN = 8
_POOL_MAX = 1024
_WARMUP_CALLS = 3
# Every measurement makes at least this many timed calls, however short
# min_seconds is.
_MIN_ITERATIONS = 10


def _pool_count(bytes_per_input):
    if bytes_per_input <= 0:
        return _POOL_MIN
    return int(min(max(_POOL_BYTES // bytes_per_input, _POOL_MIN), _POOL_MAX))


@dataclass(frozen=True)
class BenchMeasurement:
    batch_size: int
    iterations: int
    seconds: float
    ops_per_sec: float


@dataclass(frozen=True)
class BenchReport:
    measurements: tuple  # of BenchMeasurement, in batch-size order
    baseline_ops_per_sec: float | None
    machine: str
    threads: str  # requested thread override, or 'default'

    def ratios(self):
        """Batched-to-baseline speedup per measurement (None without baseline)."""
        if not self.baseline_ops_per_sec:
            return None
        return [m.ops_per_sec / self.baseline_ops_per_sec for m in self.measurements]


def _machine_descriptor():
    return f"{platform.machine()} {platform.system()} python{platform.python_version()} numpy{np.__version__}"


def _theta_pool(rng, batch_size, m):
    count = _pool_count(batch_size * m * 8)
    return [rng.uniform(-np.pi, np.pi, size=batch_size * m) for _ in range(count)]


def _timed_loop(call, pool, min_seconds):
    for i in range(_WARMUP_CALLS):
        call(pool[i % len(pool)])
    iterations = 0
    start = time.perf_counter()
    elapsed = 0.0
    while iterations < _MIN_ITERATIONS or elapsed < min_seconds:
        call(pool[iterations % len(pool)])
        iterations += 1
        elapsed = time.perf_counter() - start
    return iterations, elapsed


def _faster(best, measured):
    """The higher-throughput of two (iterations, seconds) measurements."""
    if best is None or measured[0] / measured[1] > best[0] / best[1]:
        return measured
    return best


def _check_timing(min_seconds, repeats):
    """Every timed loop runs until ``min_seconds`` pass, so it must be finite."""
    if not (min_seconds >= 0 and np.isfinite(min_seconds)):
        raise ValueError(f"min_seconds must be finite and non-negative, got {min_seconds}")
    if repeats < 1:
        raise ValueError(f"repeats must be at least 1, got {repeats}")


def measure_baseline(chain, min_seconds=0.5, rng_seed=0, repeats=3):
    """Sequential single-configuration FK throughput (ops/s), the fastest of
    ``repeats`` measurements."""
    _check_timing(min_seconds, repeats)
    rng = np.random.default_rng(rng_seed)
    pool = [row.tolist() for row in rng.uniform(-np.pi, np.pi, size=(_POOL_MIN, max(chain.m, 0)))]
    call = functools.partial(naive.fk_single, chain)
    best = None
    for _ in range(repeats):
        best = _faster(best, _timed_loop(call, pool, min_seconds))
    iterations, seconds = best
    return iterations / seconds


def run_bench(
    chain,
    batch_sizes,
    min_seconds=0.5,
    rng_seed=0,
    with_baseline=True,
    repeats=3,
) -> BenchReport:
    """Measure ``chain``'s forward throughput for each batch size.

    Building each size's FkEngine, drawing the input pool, and warm-up all
    happen outside the timed region.  Each batch size is measured
    ``repeats`` times and the fastest repetition is reported.  The
    repetitions are interleaved: each one measures every batch size once, so
    a burst of host load slows one repetition of several sizes rather than
    every repetition of one size.
    """
    sizes = sorted(int(b) for b in batch_sizes)
    for b in sizes:
        if b < 1:
            raise ValueError(f"batch size must be positive, got {b}")
    if rng_seed < 0:
        raise ValueError(f"seed must be non-negative, got {rng_seed}")
    _check_timing(min_seconds, repeats)
    engines = [FkEngine(chain, b) for b in sizes]
    pools = [_theta_pool(np.random.default_rng(rng_seed), b, chain.m) for b in sizes]
    best = [None] * len(sizes)
    for _ in range(repeats):
        for i, (engine, pool) in enumerate(zip(engines, pools)):
            best[i] = _faster(best[i], _timed_loop(engine.forward, pool, min_seconds))
    measurements = [
        BenchMeasurement(batch_size=b, iterations=it, seconds=sec, ops_per_sec=b * it / sec)
        for b, (it, sec) in zip(sizes, best)
    ]
    baseline = None
    if with_baseline:
        baseline = measure_baseline(chain, min_seconds=min_seconds, rng_seed=rng_seed, repeats=repeats)
    return BenchReport(
        measurements=tuple(measurements),
        baseline_ops_per_sec=baseline,
        machine=_machine_descriptor(),
        threads=os.environ.get("DIFFKIN_NUM_THREADS", "default"),
    )
