"""The benchmark's workloads.

Each workload is a closed loop with one caller: call ``i + 1`` starts when
call ``i`` has returned.  Inputs come from the workload seed alone, drawn
uniformly within URDF joint limits, or in [-pi, pi) where a joint has none.
``setup`` is the set-up a user pays before the first call (parse the URDF,
extract the chain, build the engine or estimator) and is what ``setup_s``
times.  What a workload needs only to check outputs (oracle chains, a
single-configuration engine, input pools) is built untimed in ``__init__``.

``call(i)`` is the timed operation.  ``record(i, out)`` keeps, untimed, what
``verify`` needs; ``verify`` runs after the loop and returns the indices of
calls whose output failed a check, so a wrong answer counts as a failure and
never stops the run.  ``tick_at`` is None, or a method, as ``(class, name)``,
that one call runs many times: there the benchmark may pause the call's
clock to run its reference job.
"""

from __future__ import annotations

import time
from pathlib import Path

import numpy as np

from diffkin import autodiff, identify, kinematics, naive, transforms, urdf

ROOT = Path(__file__).resolve().parent.parent

FK_TOL = 1e-9  # batched FK vs naive.fk_single
FD_STEP = 1e-6  # central-difference step for Jacobian checks
FD_ATOL, FD_RTOL = 1e-8, 1e-5
GIMBAL_MARGIN = 0.05  # |cos(beta)| below this: central differences are not checked
ID_TOL = 1e-3  # identification pose and parameter error
MAX_SAMPLES = 512


class Samples:
    """Outputs kept for checking, at most MAX_SAMPLES, spread over the run.

    Call ``i`` is kept when ``i % stride == 0``; when the list overflows,
    every other sample is dropped and the stride doubles.  The memory this
    takes does not grow with the number of calls, so it cannot make a faster
    program read as using more memory.
    """

    def __init__(self, stride=1):
        self.stride = stride
        self.items = []

    def wants(self, i):
        return i % self.stride == 0

    def add(self, i, *item):
        self.items.append((i, *item))
        if len(self.items) > MAX_SAMPLES:
            self.stride *= 2
            self.items = [s for s in self.items if s[0] % self.stride == 0]


def joint_ranges(chain):
    lo, hi = [], []
    for _, joint in chain.segments:
        for _ in range(joint.dof):
            if joint.limits is not None:
                lo.append(joint.limits.lower)
                hi.append(joint.limits.upper)
            else:
                lo.append(-np.pi)
                hi.append(np.pi)
    return np.array(lo), np.array(hi)


def draw_thetas(rng, chain, batch):
    lo, hi = joint_ranges(chain)
    return rng.uniform(lo, hi, size=(batch, chain.m))


class FkBatch:
    """``FkEngine.forward`` (finals only) on arm4 at b=4096, float64.

    The calls cycle through a pool of input batches.
    """

    name = "fk_batch"
    batch = 4096
    pool_size = 16
    warm_calls = 20
    tick_at = None

    def __init__(self, seed):
        self.urdf_text = (ROOT / "scripts" / "arm4.urdf").read_text()
        self.items_per_call = self.batch
        rng = np.random.default_rng(seed)
        self.chain = urdf.extract_chain(urdf.parse_urdf(self.urdf_text), "base", "tool")
        self.pool = [draw_thetas(rng, self.chain, self.batch) for _ in range(self.pool_size)]
        self._pick = np.random.default_rng([seed, 1])
        self._samples = Samples()

    def setup(self):
        chain = urdf.extract_chain(urdf.parse_urdf(self.urdf_text), "base", "tool")
        self.engine = kinematics.FkEngine(chain, self.batch)

    def warm_up(self):
        for i in range(self.warm_calls):
            self.call(i)

    def call(self, i):
        return self.engine.forward(self.pool[i % self.pool_size])

    def record(self, i, out):
        if self._samples.wants(i):
            k = int(self._pick.integers(self.batch))
            self._samples.add(i, k, out[k].copy())

    def verify(self):
        failed = set()
        for i, k, got in self._samples.items:
            want = np.array(naive.fk_single(self.chain, self.pool[i % self.pool_size][k].tolist()))
            if not np.abs(got - want).max() <= FK_TOL:
                failed.add(i)
        return failed, len(self._samples.items)

    def replay(self, tracer, seconds):
        """Time the public pipeline stages one by one on call 0's inputs."""
        stages = (
            ("kinematics.scatter_thetas", self.engine.scatter_thetas),
            ("kinematics.joint_transforms", kinematics.joint_transforms),
            ("kinematics.combine_link_joint", self.engine.combine_link_joint),
            ("kinematics.scan_compose", kinematics.scan_compose),
        )
        deadline = time.perf_counter() + seconds
        reps = 0
        while reps < 3 or (time.perf_counter() < deadline and reps < 5000):
            value = self.pool[0]
            for name, fn in stages:
                start = time.perf_counter()
                value = fn(value)
                tracer.add(name, start, time.perf_counter())
            reps += 1


class Jacobian:
    """``kinematics.pose_jacobian`` on arm4 at b=256, float64."""

    name = "jacobian"
    batch = 256
    pool_size = 4
    tick_at = None

    def __init__(self, seed):
        self.urdf_text = (ROOT / "scripts" / "arm4.urdf").read_text()
        self.items_per_call = self.batch
        rng = np.random.default_rng(seed)
        self.chain = urdf.extract_chain(urdf.parse_urdf(self.urdf_text), "base", "tool")
        self.pool = [draw_thetas(rng, self.chain, self.batch) for _ in range(self.pool_size)]
        self._single = kinematics.FkEngine(self.chain, 1)
        self._pick = np.random.default_rng([seed, 1])
        self._samples = Samples()

    def setup(self):
        chain = urdf.extract_chain(urdf.parse_urdf(self.urdf_text), "base", "tool")
        self.engine = kinematics.FkEngine(chain, self.batch)

    def warm_up(self):
        self.call(0)

    def call(self, i):
        return kinematics.pose_jacobian(self.engine, self.pool[i % self.pool_size])

    def _pose(self, thetas):
        poses, _ = transforms.pose_batch_from_transforms(self._single.forward(thetas))
        return poses[0]

    def record(self, i, out):
        # central differences are meaningless at gimbal lock: check the first
        # sampled row whose pitch keeps clear of it
        if not self._samples.wants(i):
            return
        rows = self.pool[i % self.pool_size]
        for k in self._pick.permutation(self.batch)[:16]:
            final = self._single.forward(rows[k])[0]
            if np.hypot(final[0, 0], final[1, 0]) > GIMBAL_MARGIN:
                self._samples.add(i, int(k), np.array(out[k]))
                return

    def verify(self):
        failed = set()
        for i, k, jac in self._samples.items:
            theta = self.pool[i % self.pool_size][k]
            fd = np.empty((6, self.chain.m))
            for j in range(self.chain.m):
                up, dn = theta.copy(), theta.copy()
                up[j] += FD_STEP
                dn[j] -= FD_STEP
                d = self._pose(up) - self._pose(dn)
                d[3:] = (d[3:] + np.pi) % (2 * np.pi) - np.pi
                fd[:, j] = d / (2 * FD_STEP)
            if not (np.abs(jac - fd) <= FD_ATOL + FD_RTOL * np.abs(fd)).all():
                failed.add(i)
        return failed, len(self._samples.items)

    def replay(self, tracer, seconds):
        """Time ``FkEngine.forward`` on call 0's inputs seeded as DiffScalars."""
        flat = self.pool[0].ravel()
        m = self.chain.m
        seeded = np.empty(flat.size, dtype=object)
        for j, v in enumerate(flat):
            g = np.zeros(m)
            g[j % m] = 1.0
            seeded[j] = autodiff.DiffScalar(v, g)
        deadline = time.perf_counter() + seconds
        reps = 0
        while reps < 1 or (time.perf_counter() < deadline and reps < 10):
            start = time.perf_counter()
            self.engine.forward(seeded)
            tracer.add("kinematics.forward_dual", start, time.perf_counter())
            reps += 1


class Identify:
    """``run_identification`` of the cam_arm camera mount, b=10, defaults otherwise.

    Call ``i`` solves on its own dataset, seeded from (workload seed, i).
    """

    name = "identify"
    items_per_call = 1
    tick_at = (identify.ParamEstimator, "step")  # about 8 ms a step, 399 steps a solve

    def __init__(self, seed):
        self.urdf_text = (ROOT / "scripts" / "cam_arm.urdf").read_text()
        self.seed = seed
        self._results = []

    def setup(self):
        # run_identification substitutes the mount and builds this estimator
        # again inside every solve; here it is only timed
        self.model = urdf.parse_urdf(self.urdf_text)
        self.estimator = identify.ParamEstimator(self.model, "camera", "base", "camera", batch_size=10)

    def _config(self, i, **overrides):
        dataset_seed = int(np.random.SeedSequence([self.seed, i]).generate_state(1)[0])
        return identify.IdentifyConfig(batch_size=10, seed=dataset_seed, **overrides)

    def warm_up(self):
        identify.run_identification(self.model, "camera", "base", "camera", self._config(0, max_steps=5))

    def call(self, i):
        return identify.run_identification(self.model, "camera", "base", "camera", self._config(i))

    def record(self, i, out):
        self._results.append((i, out))

    def verify(self):
        failed = set()
        for i, res in self._results:
            if not (res.status == "converged" and res.pose_error.max() < ID_TOL and res.param_error.max() < ID_TOL):
                failed.add(i)
        return failed, len(self._results)

    def steps(self, ok):
        return [res.steps for i, res in self._results if i in ok]

    def replay(self, tracer, seconds):
        """The dual forward already runs inside every solve; nothing to replay."""


WORKLOADS = {w.name: w for w in (FkBatch, Jacobian, Identify)}
