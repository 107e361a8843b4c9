"""The names the benchmark under perfbench/ reaches into must keep working."""

import importlib
import importlib.util
import inspect
from pathlib import Path

import numpy as np

from diffkin import autodiff as ad
from diffkin import kinematics

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_resolves():
    for module_name, attr, _ in _load("tracing").TARGETS:
        holder = importlib.import_module(module_name)
        if "." in attr:
            cls_name, attr = attr.split(".")
            holder = vars(holder)[cls_name]
        assert callable(vars(holder)[attr]), f"{module_name}.{attr}"


def test_every_tick_method_resolves():
    """run.install_ticks wraps ``owner.__dict__[attr]``: a renamed method
    would crash the untraced run of its workload."""
    for name, workload in _load("workloads").WORKLOADS.items():
        if workload.tick_at is not None:
            owner, attr = workload.tick_at
            assert inspect.isfunction(vars(owner).get(attr)), f"{name}: {owner.__name__}.{attr}"


def test_forward_on_seeded_diffscalars(arm2r_chain, rng):
    """FkEngine.forward on an object array of DiffScalar(v, g), as the
    jacobian workload's replay builds it: values and tangents equal a
    DualArray pass."""
    b = 3
    eng = kinematics.FkEngine(arm2r_chain, batch_size=b)
    m = eng.m
    flat = rng.uniform(-2, 2, size=b * m)
    seeded = np.empty(flat.size, dtype=object)
    for j, v in enumerate(flat):
        g = np.zeros(m)
        g[j % m] = 1.0
        seeded[j] = ad.DiffScalar(v, g)
    out = eng.forward(seeded)
    want = eng.forward(ad.seed_array(flat.reshape(b, m)))
    assert out.shape == (b, 4, 4) and out.dtype == object
    np.testing.assert_array_equal([c.value for c in out.ravel()], want.primal.ravel())
    np.testing.assert_array_equal(np.stack([c.grad for c in out.ravel()]), want.tangent.reshape(m, -1).T)


class _SpanRecorder:
    """The one tracer method a stage replay calls."""

    def __init__(self):
        self.names = []

    def add(self, name, start, end):
        self.names.append(name)


def test_trace_replays_reach_their_stages():
    """A traced run (``--trace 1``) replays each workload's stages after its
    set-up: fk_batch times the four reference stages and jacobian the dual
    forward.  A renamed or deleted stage would otherwise break traced runs
    only."""
    recorded = {}
    for name, workload in _load("workloads").WORKLOADS.items():
        wl = workload(0)
        wl.setup()
        tracer = _SpanRecorder()
        wl.replay(tracer, 0.0)
        recorded[name] = set(tracer.names)
    stages = {"scatter_thetas", "joint_transforms", "combine_link_joint", "scan_compose"}
    assert recorded == {
        "fk_batch": {f"kinematics.{stage}" for stage in stages},
        "jacobian": {"kinematics.forward_dual"},
        "identify": set(),
    }
