"""Throughput measurement: batched FK ops/s across batch sizes.

One "op" is one configuration's final base-to-end transform.  Input batches
are pregenerated outside the timed region, the first calls are discarded as
warm-up, and every measurement runs at least a minimum wall time and
iteration count.  The baseline is the naive sequential implementation
evaluated one configuration at a time.

Each measurement is also timed in reference units, the clock of the
repository benchmark (perfbench/run.py's RefClock): the calls run in slices
of about _SLICE_S seconds, and after each slice a pure-Python reference job
runs for about _REF_SHARE of the slice's time.  A slice's seconds divided
by the mean per-unit time of the reference runs on either side of it are
its reference units.  A host that changes speed between slices changes the
reference alike.  A short reference run can itself be slowed, which reads
as a fast slice, so repetitions are combined by their median in these
units (ops_per_kref), where wall time takes the fastest.
"""

from __future__ import annotations

import functools
import os
import platform
import time
from dataclasses import dataclass

import numpy as np

from . import naive
from .kinematics import FkEngine, _integer_setting

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
# One reference unit is _REF_ITERS turns of a pure-Python loop (about 0.1 ms
# on a 2-core x86_64 host); see the module docstring.
_REF_ITERS, _REF_SHARE, _SLICE_S = 1000, 0.1, 0.02
_REF_TABLE = (1.0, 2.0, 3.0)


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
    ops_per_kref: float  # median repetition, in reference units (module docstring)


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


def _reference(units):
    """Run the reference job for ``units`` units; return seconds per unit."""
    start = time.perf_counter()
    x = 0.0
    for k in range(units * _REF_ITERS):
        x = (x * 1.0000001 + _REF_TABLE[k % 3]) % 1000.0
    return (time.perf_counter() - start) / units


def _timed_loop(call, pool, min_seconds):
    """(iterations, seconds, kilo reference units) of calls cycling through
    ``pool`` after warm-up, in slices with a reference run after each (see
    the module docstring); the reference runs are not in the seconds."""
    for i in range(_WARMUP_CALLS):
        call(pool[i % len(pool)])
    iterations, seconds, units = 0, 0.0, 0.0
    unit = _reference(1)
    while iterations < _MIN_ITERATIONS or seconds < min_seconds:
        start, elapsed = time.perf_counter(), 0.0
        while elapsed < _SLICE_S and (iterations < _MIN_ITERATIONS or seconds + elapsed < min_seconds):
            call(pool[iterations % len(pool)])
            iterations += 1
            elapsed = time.perf_counter() - start
        after = _reference(max(1, round(_REF_SHARE * elapsed / unit)))
        seconds += elapsed
        units += elapsed / ((unit + after) / 2)
        unit = after
    return iterations, seconds, units / 1000


def _faster(best, measured):
    """The higher-throughput of two (iterations, seconds) measurements."""
    if best is None or measured[0] / measured[1] > best[0] / best[1]:
        return measured
    return best


def _check_settings(min_seconds, repeats, rng_seed):
    """Every timed loop runs until ``min_seconds`` pass, so it must be finite; repeats and seed are counts."""
    if not (min_seconds >= 0 and np.isfinite(min_seconds)):
        raise ValueError(f"min_seconds must be finite and non-negative, got {min_seconds}")
    _integer_setting("repeats", repeats, 1)
    _integer_setting("seed", rng_seed, 0)


def measure_baseline(chain, min_seconds=0.5, rng_seed=0, repeats=3):
    """Sequential single-configuration FK throughput (ops/s), the fastest of
    ``repeats`` measurements."""
    _check_settings(min_seconds, repeats, rng_seed)
    rng = np.random.default_rng(rng_seed)
    pool = [row.tolist() for row in rng.uniform(-np.pi, np.pi, size=(_POOL_MIN, max(chain.m, 0)))]
    call = functools.partial(naive.fk_single, chain)
    best = None
    for _ in range(repeats):
        best = _faster(best, _timed_loop(call, pool, min_seconds)[:2])
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
    happen outside the timed region.  Each distinct batch size is measured
    ``repeats`` times; the fastest repetition is reported by wall time, the
    median one in reference units.  The repetitions are interleaved:
    each one measures every batch size once, so a burst of host load slows
    one repetition of several sizes rather than every repetition of one
    size.
    """
    sizes = sorted({_integer_setting("batch size", b, 1) for b in batch_sizes})
    _check_settings(min_seconds, repeats, rng_seed)
    engines = [FkEngine(chain, b) for b in sizes]
    pools = [_theta_pool(np.random.default_rng(rng_seed), b, chain.m) for b in sizes]
    best, per_kref = [None] * len(sizes), [[] for _ in sizes]
    for _ in range(repeats):
        for i, (engine, pool) in enumerate(zip(engines, pools)):
            iterations, seconds, kref = _timed_loop(engine.forward, pool, min_seconds)
            best[i] = _faster(best[i], (iterations, seconds))
            per_kref[i].append(iterations / kref)
    measurements = [
        BenchMeasurement(
            batch_size=b, iterations=it, seconds=sec, ops_per_sec=b * it / sec, ops_per_kref=b * float(np.median(rates))
        )
        for b, (it, sec), rates in zip(sizes, best, per_kref)
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
