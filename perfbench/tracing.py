"""Spans recorded from outside the program, around calls into its modules.

``Tracer.install`` replaces the public functions and methods listed in
``TARGETS`` with timing wrappers, in every loaded ``diffkin`` module that
holds a reference to them, and ``Tracer.uninstall`` puts the originals back.
Nothing under ``src/`` is edited.  A span is the tuple
``(name, start, end, parent, op, units)``: ``parent`` is the index of the
enclosing span (-1 at the top), ``op`` the workload operation it ran under
(-1 for set-up and stage replays) and ``units`` a work count for the spans that
have one.  Spans stay in memory until ``dump`` writes them out.
"""

from __future__ import annotations

import importlib
import json
import statistics
import sys
import time

import numpy as np

# (module, attribute, span name).  A dotted attribute is a method.
TARGETS = (
    ("diffkin.urdf", "parse_urdf", "urdf.parse_urdf"),
    ("diffkin.urdf", "extract_chain", "urdf.extract_chain"),
    ("diffkin.urdf", "substitute_link_with_joint", "urdf.substitute_link_with_joint"),
    ("diffkin.kinematics", "FkEngine.__init__", "kinematics.FkEngine.init"),
    ("diffkin.kinematics", "FkEngine.forward", "kinematics.forward"),
    ("diffkin.kinematics", "pose_jacobian", "kinematics.pose_jacobian"),
    ("diffkin.transforms", "sixdof_batch_to_transforms", "transforms.sixdof_batch_to_transforms"),
    ("diffkin.transforms", "pose_values_from_transform", "transforms.pose_values_from_transform"),
    ("diffkin.autodiff", "batch_jacobian", "autodiff.batch_jacobian"),
    ("diffkin.identify", "ParamEstimator.__init__", "identify.ParamEstimator.init"),
    ("diffkin.identify", "ParamEstimator.loss_gradient", "identify.loss_gradient"),
    ("diffkin.identify", "ParamEstimator.loss_value", "identify.loss_value"),
    ("diffkin.identify", "ParamEstimator.step", "identify.step"),
    ("diffkin.identify", "SampleGenerator.sample_batch", "identify.sample_batch"),
    ("diffkin.identify", "run_identification", "identify.run_identification"),
)

OP_SPAN = "bench.op"


def _forward_kind(args, kwargs):
    """Span name and work count of FkEngine.forward(self, thetas, ...)."""
    engine, thetas = args[0], args[1] if len(args) > 1 else kwargs["thetas"]
    arr = thetas if isinstance(thetas, np.ndarray) else np.asarray(thetas)
    if arr.dtype == object:
        return "kinematics.forward_dual", 0
    return "kinematics.forward", engine.batch_size * engine.m


def _slots_kind(args, kwargs):
    """Parameter slots expanded by sixdof_batch_to_transforms(q)."""
    return "transforms.sixdof_batch_to_transforms", int(np.size(args[0]))


_KINDS = {
    "kinematics.forward": _forward_kind,
    "transforms.sixdof_batch_to_transforms": _slots_kind,
}


class Tracer:
    """Timing wrappers, and the spans they record while a run is traced."""

    def __init__(self):
        self.spans = []
        self.op = None  # None: wrappers pass calls through unrecorded
        self.float_forward_args = None  # first float forward call seen in an op
        self._stack = []
        self._restore = []

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        kind = _KINDS.get(name)

        def wrapper(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            span_name, units = kind(args, kwargs) if kind else (name, 0)
            if units and span_name == "kinematics.forward" and self.float_forward_args is None and self.op >= 0:
                self.float_forward_args = (args, kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (span_name, start, end, parent, self.op, units)

        return wrapper

    def run_op(self, op, fn, *args):
        """Call ``fn(*args)`` as workload operation ``op`` under a root span."""
        self.op = op
        try:
            return self._wrap(OP_SPAN, fn)(*args)
        finally:
            self.op = None

    def run_setup(self, fn):
        """Call ``fn()`` with its spans recorded outside any operation."""
        self.op = -1
        try:
            return fn()
        finally:
            self.op = None

    def install(self):
        loaded = [m for name, m in list(sys.modules.items()) if name == "diffkin" or name.startswith("diffkin.")]
        for module_name, attr, span_name in TARGETS:
            module = importlib.import_module(module_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                setattr(cls, meth, self._wrap(span_name, original))
                self._restore.append((cls, meth, original))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(span_name, original)
            for holder in loaded:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, key, wrapper)
                        self._restore.append((holder, key, original))

    def uninstall(self):
        for holder, key, original in reversed(self._restore):
            setattr(holder, key, original)
        self._restore.clear()

    def add(self, name, start, end):
        """Record a span timed by the caller (stage replays)."""
        self.spans.append((name, start, end, -1, -1, 0))

    def dump(self, path, header):
        with open(path, "w") as fh:
            json.dump({**header, "fields": ["name", "start", "end", "parent", "op", "units"], "spans": self.spans}, fh)


class SpanStats:
    """Per-name durations, self times and work counts of a span list."""

    def __init__(self, spans):
        child = [0.0] * len(spans)
        for name, start, end, parent, op, units in spans:
            if parent >= 0:
                child[parent] += end - start
        self.rows = {}  # name -> [(inclusive s, self s, units, op)]
        self.ops = set()
        for i, (name, start, end, parent, op, units) in enumerate(spans):
            self.rows.setdefault(name, []).append((end - start, end - start - child[i], units, op))
            if op >= 0:
                self.ops.add(op)

    def calls_per_op(self, name):
        calls = sum(1 for row in self.rows.get(name, ()) if row[3] >= 0)
        return calls / len(self.ops) if self.ops else 0.0

    def count(self, name):
        return len(self.rows.get(name, ()))

    def median_us(self, name, self_time=False):
        values = [row[1] if self_time else row[0] for row in self.rows.get(name, ())]
        return statistics.median(values) * 1e6 if values else 0.0

    def total_s(self, name):
        return sum(row[0] for row in self.rows.get(name, ()) if row[3] >= 0)

    def units(self, name):
        return sum(row[2] for row in self.rows.get(name, ()) if row[3] >= 0)


def _ratio(num, den):
    return num / den if den else 0.0


# Span-derived per-layer metrics: (metric, unit, span name, statistic), where
# "us" is the median inclusive time per call, "self_us" the median self time
# and "calls" the number of calls per workload operation.
SPAN_METRICS = (
    ("kinematics.forward.calls", "count", "kinematics.forward", "calls"),
    ("kinematics.forward.self_us", "us", "kinematics.forward", "self_us"),
    ("kinematics.scatter_thetas.us", "us", "kinematics.scatter_thetas", "us"),
    ("kinematics.joint_transforms.us", "us", "kinematics.joint_transforms", "us"),
    ("kinematics.combine_link_joint.us", "us", "kinematics.combine_link_joint", "us"),
    ("kinematics.scan_compose.us", "us", "kinematics.scan_compose", "us"),
    ("transforms.sixdof_batch_to_transforms.us", "us", "transforms.sixdof_batch_to_transforms", "us"),
    ("kinematics.forward_dual.us", "us", "kinematics.forward_dual", "us"),
    ("transforms.pose_values_from_transform.us", "us", "transforms.pose_values_from_transform", "us"),
    ("autodiff.batch_jacobian.self_us", "us", "autodiff.batch_jacobian", "self_us"),
    ("kinematics.pose_jacobian.self_us", "us", "kinematics.pose_jacobian", "self_us"),
    ("identify.loss_gradient.self_us", "us", "identify.loss_gradient", "self_us"),
    ("identify.loss_value.us", "us", "identify.loss_value", "us"),
    ("identify.step.calls", "count", "identify.step", "calls"),
    ("identify.sample_batch.us", "us", "identify.sample_batch", "us"),
    ("urdf.parse_urdf.us", "us", "urdf.parse_urdf", "us"),
    ("urdf.extract_chain.us", "us", "urdf.extract_chain", "us"),
    ("urdf.substitute_link_with_joint.us", "us", "urdf.substitute_link_with_joint", "us"),
    ("kinematics.FkEngine.init_us", "us", "kinematics.FkEngine.init", "us"),
    ("identify.ParamEstimator.init_us", "us", "identify.ParamEstimator.init", "us"),
)


def per_layer(spans, tensor_bytes, overhead_items_per_s):
    """Every per-layer metric as name -> (value, unit), and its sample counts.

    Per-call times are medians over all spans of that name: calls made by
    the workload's operations, set-up calls, and stage replays.  A layer the
    workload never reaches reads 0.
    """
    st = SpanStats(spans)
    metrics, samples = {}, {}
    for metric, unit, span, stat in SPAN_METRICS:
        if stat == "calls":
            value = st.calls_per_op(span)
        else:
            value = st.median_us(span, self_time=stat == "self_us")
        metrics[metric] = (value, unit)
        samples[metric] = st.count(span)
    slots = st.units("transforms.sixdof_batch_to_transforms")
    metrics["kinematics.trig_useful_ratio"] = (_ratio(st.units("kinematics.forward"), slots), "ratio")
    metrics["kinematics.tensor_bytes_per_call"] = (tensor_bytes, "bytes")
    grad = _ratio(st.total_s("identify.loss_gradient"), st.total_s(OP_SPAN))
    metrics["identify.grad_share"] = (grad, "ratio")
    metrics["trace.overhead_items_per_s"] = (overhead_items_per_s, "1/s")
    return metrics, samples
