"""diffkin benchmark: one workload per process, end to end or traced.

    python3 perfbench/run.py --workload fk_batch --seed 1 --seconds 8 --trace 0

``--workload all`` runs every workload, each in its own child process, and
prints their metrics together.  With ``--trace 0`` the run measures the
end-to-end metrics with no instrumentation.  With ``--trace 1`` it measures
the same loop untraced and then traced, replays the pipeline stages, and
reports the per-layer metrics plus the tracing overhead.  Readable lines
come first; the last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  Each run also
writes its result, and in traced runs its spans, under ``perfbench/out/``.
Workloads and metrics are described in ``perfbench/README.md``.

The gated call times are in reference units.  On a shared host the core's
speed drifts between states up to twice apart, for seconds to minutes at a
time, and the program and plain interpreter work slow down together.  So each
untraced call is followed by a fixed reference job (``reference``), and a
call's time is divided by the mean per-unit time of the reference runs just
before and just after it; long calls are cut into slices, each measured
the same way (``RefClock``).  Wall-clock times are printed beside them.
"""

import os

# Pin the load to one thread before numpy (and its BLAS) is first imported.
THREAD_VARS = ("DIFFKIN_NUM_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from array import array  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
NAMES = ("fk_batch", "jacobian", "identify")
REQUIRED = (SRC / "diffkin" / "__init__.py", ROOT / "scripts" / "arm4.urdf", ROOT / "scripts" / "cam_arm.urdf")

# Set-up runs SETUP_ROUND times before warm-up and again every SETUP_INTERVAL
# seconds of the timed loop, so that its median samples the same stretch of
# host load as the calls do.
SETUP_ROUND, SETUP_INTERVAL = 5, 0.5
# A traced run gives up to 40% of its time to a traced loop, capped at
# MAX_TRACED_CALLS calls so that the spans kept in memory stay bounded, and up
# to 20% to stage replays; an untraced loop takes the rest.
TRACED_SHARE, REPLAY_SHARE = 0.4, 0.2
MAX_TRACED_CALLS = 2000
# One reference unit is REF_ITERS turns of a pure-Python loop (about 0.1 ms
# here).  After each call, and inside a call every SLICE_S seconds where the
# workload names a method to tick at, the reference runs for about REF_SHARE
# of the time since its last run, in whole units.
REF_ITERS, REF_SHARE, SLICE_S = 1000, 0.25, 0.1
REF_TABLE = (1.0, 2.0, 3.0)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=NAMES + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def machine():
    return {
        "machine": f"{platform.machine()} {platform.system()} {platform.release()}",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cores": os.cpu_count(),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def setup_round(wl, times, tracer=None):
    for _ in range(SETUP_ROUND):
        t0 = time.perf_counter()
        tracer.run_setup(wl.setup) if tracer else wl.setup()
        times.append(time.perf_counter() - t0)


def reference(units):
    """Run the reference job for ``units`` units; return seconds per unit."""
    t0 = time.perf_counter()
    x = 0.0
    for k in range(units * REF_ITERS):
        x = (x * 1.0000001 + REF_TABLE[k % 3]) % 1000.0
    return (time.perf_counter() - t0) / units


class RefClock:
    """Times calls in reference units.

    The reference job runs before the first call, after every call and,
    inside a call, at each ``tick`` that comes SLICE_S or more after the last
    run.  Each slice of a call's work is divided by the mean per-unit time of
    the reference runs on either side of it.  The reference runs themselves
    are not counted in the call's time.
    """

    def __init__(self):
        self.units = array("f", [reference(10)])  # seconds per unit, one entry a run
        self.wall = self.ref = 0.0
        self.mark = None

    def _pause(self):
        slice_s = time.perf_counter() - self.mark
        last = self.units[-1]
        unit = reference(max(1, round(REF_SHARE * slice_s / last)))
        self.units.append(unit)
        self.wall += slice_s
        self.ref += slice_s / ((last + unit) / 2)
        self.mark = time.perf_counter()

    def start(self):
        self.wall = self.ref = 0.0
        self.mark = time.perf_counter()

    def tick(self):
        if self.mark is not None and time.perf_counter() - self.mark >= SLICE_S:
            self._pause()

    def stop(self):
        """End the call; return its seconds and its reference units."""
        self._pause()
        self.mark = None
        return self.wall, self.ref


def install_ticks(wl, clock):
    """Make each call to the workload's ``tick_at`` method tick ``clock`` first.

    Returns a function that puts the method back.
    """
    if wl.tick_at is None:
        return lambda: None
    owner, attr = wl.tick_at
    original = owner.__dict__[attr]

    def ticking(*args, **kwargs):
        clock.tick()
        return original(*args, **kwargs)

    setattr(owner, attr, ticking)
    return lambda: setattr(owner, attr, original)


def timed_loop(wl, seconds, start, max_calls=None, tracer=None, setup_times=None, clock=None):
    """Call the workload back to back for ``seconds`` (at least once).

    Returns the seconds of calls ``start, start + 1, ...`` in a flat float32
    array (4 bytes a call), NaN where the call raised, and, with a RefClock
    ``clock``, their reference units in a second array (else None).  With
    ``setup_times``, a set-up round runs between calls every SETUP_INTERVAL
    seconds and appends its times there.
    """
    durations = array("f")
    in_ref = array("d") if clock else None
    i = start
    now = time.perf_counter()
    deadline, next_setup = now + seconds, now + SETUP_INTERVAL
    while i == start or (now < deadline and (max_calls is None or i - start < max_calls)):
        if setup_times is not None and now >= next_setup:
            setup_round(wl, setup_times)
            next_setup = time.perf_counter() + SETUP_INTERVAL
        t0 = time.perf_counter()
        if clock:
            clock.start()
        try:
            out = tracer.run_op(i, wl.call, i) if tracer else wl.call(i)
            returned = True
        except Exception:  # a failing call is counted, and the run goes on
            traceback.print_exc(file=sys.stderr)
            returned = False
        took = time.perf_counter() - t0
        if clock:
            took, ref = clock.stop()
            in_ref.append(ref if returned else float("nan"))
        durations.append(took if returned else float("nan"))
        if returned:
            wl.record(i, out)
        i += 1
        now = time.perf_counter()
    return durations, in_ref


def raised(start, durations):
    return {start + int(k) for k in np.flatnonzero(np.isnan(np.array(durations, dtype=float)))}


def passed(start, durations, failed):
    """Indices and seconds of the calls that returned and passed their checks."""
    d = np.array(durations, dtype=float)
    keep = ~np.isnan(d)
    keep[[i - start for i in failed if 0 <= i - start < d.size]] = False
    idx = np.flatnonzero(keep)
    return idx + start, d[idx]


def throughput(times, items_per_call):
    """Items completed over the summed time of the calls."""
    return items_per_call * len(times) / float(np.sum(times)) if len(times) else 0.0


def measure(name, seed, seconds, trace):
    from tracing import Tracer, per_layer
    from workloads import WORKLOADS

    wl = WORKLOADS[name](seed)
    tracer = Tracer() if trace else None
    if tracer:
        tracer.install()
    setup_times = []
    setup_round(wl, setup_times, tracer)
    if tracer:
        tracer.uninstall()
    wl.warm_up()

    if not trace:
        clock = RefClock()
        restore = install_ticks(wl, clock)
        try:
            durations, in_ref = timed_loop(wl, seconds, 0, setup_times=setup_times, clock=clock)
        finally:
            restore()
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        attempted = len(durations)
        failed = raised(0, durations)
    else:
        deadline = time.perf_counter() + seconds
        tracer.install()
        traced, _ = timed_loop(wl, seconds * TRACED_SHARE, 0, MAX_TRACED_CALLS, tracer)
        tracer.uninstall()
        wl.replay(tracer, seconds * REPLAY_SHARE)
        durations, _ = timed_loop(wl, deadline - time.perf_counter(), len(traced))
        attempted = len(traced) + len(durations)
        failed = raised(0, traced) | raised(len(traced), durations)

    bad, checks = wl.verify()
    failed |= bad
    if trace:
        _, traced_s = passed(0, traced, failed)
        _, untraced_s = passed(len(traced), durations, failed)
        overhead = throughput(traced_s, wl.items_per_call) - throughput(untraced_s, wl.items_per_call)
        metrics, samples = per_layer(tracer.spans, tensor_bytes(tracer), overhead)
        samples["trace.overhead_items_per_s"] = len(traced_s) + len(untraced_s)
        shown = {k: (v, u, samples.get(k, "")) for k, (v, u) in metrics.items()}
    else:
        ok, ok_s = passed(0, durations, failed)
        ok_r = np.array(in_ref, dtype=float)[ok]
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "items_per_kref": (1e3 * throughput(ok_r, wl.items_per_call), "1/kref"),
            "call_ref_p50": (float(np.median(ok_r)) if ok.size else 0.0, "ref"),
            "peak_rss_mb": (peak_mb, "MB"),
        }
        samples = {"setup_s": len(setup_times), "items_per_kref": ok.size, "call_ref_p50": ok.size, "peak_rss_mb": 1}
        shown = {key: (v, u, samples[key]) for key, (v, u) in metrics.items()}
        shown["ref_unit_us_p50"] = (statistics.median(clock.units) * 1e6, "us", len(clock.units))
        shown["items_per_s"] = (throughput(ok_s, wl.items_per_call), "1/s", ok.size)
        shown["call_ms_p50"] = (float(np.median(ok_s)) * 1e3 if ok.size else 0.0, "ms", ok.size)
        shown.update(own_names(name, wl, ok, ok_s, ok_r, shown))
        shown["fail_ratio"] = (len(failed) / attempted, "ratio", attempted)

    result = {
        "correct": not failed and checks > 0,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }
    info = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace, **machine(), "checks": checks}
    print(f"# workload {name} seed {seed} seconds {seconds} trace {trace}")
    print(f"# {info['machine']}, {info['cores']} cores, python {info['python']}, numpy {info['numpy']}, threads 1")
    for key, (value, unit, n) in shown.items():
        print(f"{key:44s} {value:>16.6g} {unit:6s} n={n}")
    print(f"# checks {checks}, attempted {attempted}, failed {len(failed)}")
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{name}-seed{seed}-trace{trace}"
    with open(f"{stem}.json", "w") as fh:
        json.dump({**info, **result, "shown": shown}, fh, indent=1)
    if tracer:
        tracer.dump(f"{stem}-spans.json", info)
    return result


def own_names(name, wl, ok, ok_s, ok_r, shown):
    """The wall-clock metrics under each workload's own names, for reading."""
    if name == "identify":
        steps = wl.steps(set(ok.tolist()))
        return {
            "identify_s": (shown["call_ms_p50"][0] / 1e3, "s", ok.size),
            "identify_steps": (statistics.median(steps) if steps else 0, "count", len(steps)),
        }
    if name == "jacobian":
        return {"jacobians_per_s": (shown["items_per_s"][0], "1/s", ok.size)}
    p90 = float(np.percentile(ok_s, 90)) * 1e3 if ok.size else 0.0
    p90_r = float(np.percentile(ok_r, 90)) if ok.size else 0.0
    return {
        "poses_per_s": (shown["items_per_s"][0], "1/s", ok.size),
        "call_ms_p90": (p90, "ms", ok.size),
        "call_ref_p90": (p90_r, "ref", ok.size),
    }


def tensor_bytes(tracer):
    """Peak bytes numpy holds during one float forward call, from tracemalloc."""
    import tracemalloc

    if tracer.float_forward_args is None:
        return 0
    args, kwargs = tracer.float_forward_args
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        args[0].forward(*args[1:], **kwargs)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def run_all(args):
    """Each workload in its own process, one after another."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in NAMES:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"workload {name} exited with code {proc.returncode}", file=sys.stderr)
            return None
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    return merged


def main(argv=None):
    args = parse_args(argv)
    missing = [str(p.relative_to(ROOT)) for p in REQUIRED if not p.is_file()]
    if missing:
        print(f"benchmark needs the diffkin source tree; missing: {', '.join(missing)}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        result = run_all(args)
        if result is None:
            return 1
    else:
        result = measure(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
