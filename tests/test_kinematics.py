import compileall
import copy
import gc
import os
import pickle
import shutil
import subprocess
import sys
import threading
import tracemalloc
import types
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diffkin import autodiff as ad
from diffkin import identify, kinematics, metrics, naive, transforms, urdf
from diffkin.kinematics import FkEngine, ShapeError

import reference_pass
import treegen
from conftest import ARM4


def test_two_link_closed_form(arm2r_chain):
    """Planar 2R arm with unit links: forward position has a textbook form."""
    eng = FkEngine(arm2r_chain, batch_size=4)
    thetas = np.array(
        [
            [0.0, 0.0],
            [np.pi / 2, 0.0],
            [0.3, 0.7],
            [-1.2, 2.1],
        ]
    )
    out = eng.forward(thetas.ravel())
    for row, (t1, t2) in zip(out, thetas):
        x = np.cos(t1) + np.cos(t1 + t2)
        y = np.sin(t1) + np.sin(t1 + t2)
        np.testing.assert_allclose(row[:3, 3], [x, y, 0.0], atol=1e-14)
    np.testing.assert_allclose(out[0], np.array([[1, 0, 0, 2], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]), atol=1e-15)


def test_matches_naive_oracle(mixed_chain, rng):
    b = 37
    eng = FkEngine(mixed_chain, batch_size=b)
    thetas = rng.uniform(-1.0, 1.0, size=b * eng.m)
    got = eng.forward(thetas)
    want = np.array(naive.fk_batch(mixed_chain, thetas.reshape(b, eng.m).tolist()))
    assert np.abs(got - want).max() < 1e-12


def test_intermediates_consistent(mixed_chain, rng):
    b = 5
    eng = FkEngine(mixed_chain, batch_size=b)
    thetas = rng.uniform(-1.0, 1.0, size=b * eng.m)
    finals = eng.forward(thetas)
    inters = eng.forward(thetas, want_intermediates=True)
    assert inters.shape == (b, mixed_chain.n, 4, 4)
    np.testing.assert_array_equal(inters[:, -1], finals)
    want = naive.fk_batch(mixed_chain, thetas.reshape(b, eng.m).tolist(), want_intermediates=True)
    assert np.abs(inters - np.array(want)).max() < 1e-12


def test_blocked_batches_bitwise_identical(arm4_chain, rng):
    """Batches larger than the internal block size must not change results."""
    b = kinematics._BLOCK_ROWS + 188
    eng = FkEngine(arm4_chain, batch_size=b)
    thetas = rng.uniform(-2.0, 2.0, size=(b, eng.m))
    big = eng.forward(thetas.ravel())
    one = FkEngine(arm4_chain, batch_size=1)
    for k in (0, 255, 256, b - 189, b - 188, b - 1):
        np.testing.assert_array_equal(big[k], one.forward(thetas[k])[0])


def test_blocked_batches_bitwise_identical_off_axis(mixed_chain, rng):
    """A row's value does not depend on its block, off-axis statics
    included, down to a last block of one row."""
    one = FkEngine(mixed_chain, batch_size=1)
    for extra in (1, 188):
        b = kinematics._BLOCK_ROWS + extra
        eng = FkEngine(mixed_chain, batch_size=b)
        thetas = rng.uniform(-1.0, 1.0, size=(b, eng.m))
        big = eng.forward(thetas.ravel(), want_intermediates=True)
        for k in (0, 1, 255, 256, b - extra - 1, b - extra, b - 1):
            _assert_bits_equal(big[k], one.forward(thetas[k], want_intermediates=True)[0])


def test_generic_path_matches_float(mixed_chain, rng):
    b = 3
    eng = FkEngine(mixed_chain, batch_size=b)
    thetas = rng.uniform(-1.0, 1.0, size=b * eng.m)
    flt = eng.forward(thetas)
    obj = np.array([ad.DiffScalar(v) for v in thetas], dtype=object)
    gen = eng.forward(obj)
    vals = np.array([[[c.value for c in row] for row in mat] for mat in gen])
    assert np.abs(vals - flt).max() < 1e-12


@pytest.mark.parametrize("want_intermediates", [False, True])
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("case", ["mixed", "mixed_blocked", "zero_dof"])
def test_dual_forward_matches_float_and_central_differences(case, dtype, want_intermediates, mixed_chain, arm2r, rng):
    """Dual primal is bitwise the float result; tangents are the derivatives."""
    chain, b = {
        "mixed": (mixed_chain, 3),
        "mixed_blocked": (mixed_chain, kinematics._BLOCK_ROWS + 44),
        "zero_dof": (urdf.extract_chain(arm2r, "lower", "tip"), 4),
    }[case]
    eng = FkEngine(chain, batch_size=b, dtype=dtype)
    thetas = rng.uniform(-1.0, 1.0, size=(b, chain.m))
    dual = eng.forward(ad.seed_array(thetas), want_intermediates=want_intermediates)
    assert dual.primal.dtype == dtype and dual.width == chain.m
    flt = eng.forward(thetas, want_intermediates=want_intermediates)
    np.testing.assert_array_equal(dual.primal, flt)
    poses, degenerate = transforms.pose_batch_from_transforms(dual)
    want_poses, want_degenerate = transforms.pose_batch_from_transforms(flt)
    assert poses.primal.dtype == dtype
    np.testing.assert_array_equal(poses.primal, want_poses)
    np.testing.assert_array_equal(degenerate, want_degenerate)
    ref = FkEngine(chain, batch_size=b)
    h = 1e-6
    for j in range(chain.m):
        step = np.zeros_like(thetas)
        step[:, j] = h
        up = ref.forward(thetas + step, want_intermediates=want_intermediates)
        dn = ref.forward(thetas - step, want_intermediates=want_intermediates)
        tol = 1e-8 if dtype is np.float64 else 2e-5
        np.testing.assert_allclose(dual.tangent[j], (up - dn) / (2 * h), rtol=0, atol=tol)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 3000), st.integers(1, 5))
def test_index_matrix_slots_respect_joint_types(seed, b):
    """The scatter writes each theta into a cell of its own, (batch, joint
    row, parameter slot), in a slot of its joint's type."""
    _, model, leaf = treegen.random_tree(seed)
    chain = urdf.extract_chain(model, model.root_link, leaf)
    eng = FkEngine(chain, batch_size=b)
    p = np.argwhere(eng.scatter_thetas(np.ones(b * eng.m)))
    assert len(p) == b * eng.m
    rotation_slots = {3, 4, 5}
    translation_slots = {0, 1, 2}
    cursor = 0
    for i, (_, joint) in enumerate(chain.segments):
        slots = {int(s) for (_, row, s) in p[cursor : cursor + joint.dof]}
        assert all(int(row) == i for (_, row, _) in p[cursor : cursor + joint.dof])
        jt = joint.joint_type
        if jt in (urdf.JointType.REVOLUTE, urdf.JointType.CONTINUOUS):
            assert slots <= rotation_slots and len(slots) == 1
        elif jt is urdf.JointType.PRISMATIC:
            assert slots <= translation_slots and len(slots) == 1
        elif jt is urdf.JointType.PLANAR:
            assert slots == {0, 1}
        elif jt is urdf.JointType.FLOATING:
            assert slots == {0, 1, 2, 3, 4, 5}
        cursor += joint.dof
    assert cursor == eng.m


def test_scatter_starts_from_zeros(arm2r_chain):
    eng = FkEngine(arm2r_chain, batch_size=2)
    q1 = eng.scatter_thetas([0.1, 0.2, 0.3, 0.4])
    q1 += 100.0  # corrupt the returned tensor
    q2 = eng.scatter_thetas([0.1, 0.2, 0.3, 0.4])
    assert q2.max() <= 0.4
    # only the addressed cells are nonzero
    assert np.count_nonzero(q2) == 4


def test_axis_sign_folded_into_scale():
    text = """
    <robot name="r"><link name="a"/><link name="b"/>
    <joint name="j" type="revolute"><parent link="a"/><child link="b"/>
    <axis xyz="0 0 -1"/></joint>
    </robot>"""
    chain = urdf.extract_chain(urdf.parse_urdf(text), "a", "b")
    eng = FkEngine(chain, batch_size=1)
    out = eng.forward([0.7])
    np.testing.assert_allclose(out[0], transforms.rot_z(-0.7), atol=1e-15)


# The pass's cos and sin come from tan(q/2); measured against np.cos and np.sin: 1.5 eps (float64), 1.6 (float32)
# on an aligned axis, 1.9 and 2.0 on the skew axis below.
_TRIG_EPS = {np.float64: 2.0, np.float32: 3.0}


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("axis", ["0 0 1", "0.2672612419124244 0.5345224838248488 0.8017837257372666"])
def test_rotation_matches_cos_and_sin(axis, dtype):
    """A revolute joint with an identity origin turns by A Rz(q) A^T, A = I
    on an aligned axis and the engine's alignment on a skew one; its
    rotation entries match that product built from np.cos and np.sin in
    extended precision, from zeros of either sign to the largest angles."""
    text = f"""
    <robot name="r"><link name="a"/><link name="b"/>
    <joint name="j" type="revolute"><parent link="a"/><child link="b"/>
    <axis xyz="{axis}"/></joint>
    </robot>"""
    chain = urdf.extract_chain(urdf.parse_urdf(text), "a", "b")
    big = 1e300 if dtype is np.float64 else 1e38
    special = [0.0, -0.0, np.pi / 2, -np.pi / 2, np.pi, -np.pi, 2 * np.pi, -2 * np.pi, 1e6, 1e15, big, -big]
    q = np.concatenate([special, np.random.default_rng(0).uniform(-50.0, 50.0, 10_000)]).astype(dtype)
    out = FkEngine(chain, batch_size=len(q), dtype=dtype).forward(q)
    align = kinematics._joint_motion(chain.segments[0][1])[0]
    a = np.eye(3, dtype=np.longdouble) if align is None else align[:3, :3].astype(np.longdouble)
    c, s = np.cos(q.astype(np.float64)).astype(np.longdouble), np.sin(q.astype(np.float64)).astype(np.longdouble)
    turn = np.zeros((len(q), 3, 3), dtype=np.longdouble)
    turn[:, 0, 0], turn[:, 0, 1], turn[:, 1, 0], turn[:, 1, 1], turn[:, 2, 2] = c, -s, s, c, 1.0
    err = np.abs(out[:, :3, :3] - a @ turn @ a.T).max(axis=(1, 2)) / np.finfo(dtype).eps
    assert err.max() <= _TRIG_EPS[dtype], (q[err.argmax()], err.max())


def test_arbitrary_axis_matches_rodrigues(rng):
    axis = np.array([0.26726124191242440, 0.53452248382484879, 0.80178372573726657])
    text = """
    <robot name="r"><link name="a"/><link name="b"/>
    <joint name="j" type="revolute"><parent link="a"/><child link="b"/>
    <axis xyz="0.2672612419124244 0.5345224838248488 0.8017837257372666"/></joint>
    </robot>"""
    chain = urdf.extract_chain(urdf.parse_urdf(text), "a", "b")
    eng = FkEngine(chain, batch_size=1)
    for theta in rng.uniform(-3, 3, size=5):
        out = eng.forward([theta])[0]
        k = np.array([[0, -axis[2], axis[1]], [axis[2], 0, -axis[0]], [-axis[1], axis[0], 0]])
        want = np.eye(3) + np.sin(theta) * k + (1 - np.cos(theta)) * (k @ k)
        np.testing.assert_allclose(out[:3, :3], want, atol=1e-12)
        np.testing.assert_allclose(out[:3, 3], 0.0, atol=1e-15)


def test_all_fixed_chain_has_no_dof():
    text = """
    <robot name="r"><link name="a"/><link name="b"/><link name="c"/>
    <joint name="j1" type="fixed"><parent link="a"/><child link="b"/>
    <origin xyz="1 0 0"/></joint>
    <joint name="j2" type="fixed"><parent link="b"/><child link="c"/>
    <origin xyz="0 2 0" rpy="0 0 1.2"/></joint>
    </robot>"""
    chain = urdf.extract_chain(urdf.parse_urdf(text), "a", "c")
    assert chain.m == 0
    eng = FkEngine(chain, batch_size=3)
    out = eng.forward([])
    assert out.shape == (3, 4, 4)
    want = np.array(naive.fk_single(chain, []))
    for k in range(3):
        np.testing.assert_allclose(out[k], want, atol=1e-15)


def test_empty_chain_is_identity(mixed):
    chain = urdf.extract_chain(mixed, "l2", "l2")
    eng = FkEngine(chain, batch_size=2)
    out = eng.forward([])
    np.testing.assert_array_equal(out, np.broadcast_to(np.eye(4), (2, 4, 4)))
    inter = eng.forward([], want_intermediates=True)
    assert inter.shape == (2, 0, 4, 4)


def test_shape_error_message(arm2r_chain):
    eng = FkEngine(arm2r_chain, batch_size=3)
    with pytest.raises(ShapeError, match="expected 6 joint values"):
        eng.forward([0.1, 0.2, 0.3])
    with pytest.raises(ShapeError, match="batch 3 x dof 2"):
        eng.forward(np.zeros(7))


def test_theta_shape_is_flat_or_batch_by_dof(cam_arm, rng):
    """(b*m,) and (b, m) are the two theta layouts, of an integer or float
    dtype with every value finite, and every entry that takes
    configurations reads them by that one rule: forward on floats,
    DualArrays and object arrays, the reference scatter, pose_jacobian, the
    estimator's loss_value and loss_gradient (b rows of the chain's m) and
    limit_violations (any b).  A transposed (m, b) batch and
    a (2, b*m/2) array have the right size but neither shape, and are not
    read as (b, m); a complex batch would lose its imaginary part, a string
    batch would parse and a bool batch read as 0 and 1, so none is cast."""
    b, m = 4, 3
    chain = urdf.extract_chain(cam_arm, "base", "camera")
    eng = FkEngine(chain, batch_size=b)
    est = identify.ParamEstimator(cam_arm, "camera", "base", "camera", batch_size=b)
    thetas = rng.uniform(-1, 1, size=(b, m))
    targets = eng.forward(thetas)
    np.testing.assert_array_equal(eng.forward(thetas.ravel()), targets)
    np.testing.assert_array_equal(eng.forward(np.ones((b, m), dtype=int)), eng.forward(np.ones((b, m))))
    assert est.loss_value(thetas.ravel(), targets) == est.loss_value(thetas, targets)
    wide = rng.uniform(-4, 4, size=(10, m))
    assert kinematics.limit_violations(chain, wide.ravel()) == kinematics.limit_violations(chain, wide) != []

    nan = thetas.copy()
    nan[2, 1] = np.nan
    misread = [
        (thetas.T.copy(), ShapeError, r"got shape \(3, 4\)"),
        (thetas.reshape(2, 6), ShapeError, r"got shape \(2, 6\)"),
        (thetas[None], ShapeError, r"got shape \(1, 4, 3\)"),
        (nan, ValueError, "non-finite"),
    ]
    cast = [
        (thetas + 1j, TypeError, "dtype complex128"),
        (thetas.astype(str), TypeError, "dtype <U"),
        (thetas > 0, TypeError, "dtype bool"),
    ]
    entries = [
        (eng.forward, misread + cast),
        (lambda t: eng.forward(ad.seed_array(t)), misread + cast),
        (lambda t: eng.forward(t.astype(object)), misread + cast),
        (eng.scatter_thetas, misread + cast),
        (lambda t: kinematics.pose_jacobian(eng, t), misread + cast),
        (lambda t: est.loss_value(t, targets), misread + cast),
        (lambda t: est.loss_gradient(t, targets), misread + cast),
        (lambda t: kinematics.limit_violations(chain, t), misread + cast),
    ]
    for call, refused in entries:
        for bad, error, match in refused:
            with pytest.raises(error, match=match):
                call(bad)


_DTYPE_RULE_ENTRIES = {
    "sixdof_batch_to_transforms": lambda c: transforms.sixdof_batch_to_transforms(c.params),
    "pose_batch_from_transforms": lambda c: transforms.pose_batch_from_transforms(c.ts),
    "quaternion_batch_from_rotations": lambda c: transforms.quaternion_batch_from_rotations(c.ts),
    "rotation_with_rmse": lambda c: metrics.rotation_with_rmse(c.good_ts, c.ts),
    "phi2_loss": lambda c: metrics.phi2_loss(c.ts, c.good_ts),
    "phi3_loss": lambda c: metrics.phi3_loss(c.good_ts, c.ts),
    "phi4_loss": lambda c: metrics.phi4_loss(c.ts, c.good_ts),
    "phi5_loss": lambda c: metrics.phi5_loss(c.good_ts, c.ts),
    "phi5_squared_batch": lambda c: metrics.phi5_squared_batch(c.ts, c.good_ts),
    "phi2_quat": lambda c: metrics.phi2_quat(c.quats, c.good_quats),
    "phi3_quat": lambda c: metrics.phi3_quat(c.good_quats, c.quats),
    "phi4_quat": lambda c: metrics.phi4_quat(c.quats, c.good_quats),
    "sixdof_to_transform": lambda c: transforms.sixdof_to_transform(c.params[0]),
    "sixdof_to_transform list": lambda c: transforms.sixdof_to_transform([0.0, *c.params[0, 1:].tolist()]),
    "rpy_to_rotation": lambda c: transforms.rpy_to_rotation(*c.params[0, 3:]),
    "pose_from_transform": lambda c: transforms.pose_from_transform(c.ts[0]),
    "pose_values_from_transform": lambda c: transforms.pose_values_from_transform(c.ts[0]),
    "quaternion_from_rotation": lambda c: transforms.quaternion_from_rotation(c.ts[0]),
    "loss_value targets": lambda c: c.est.loss_value(c.thetas, c.ts),
    "loss_gradient targets": lambda c: c.est.loss_gradient(c.thetas, c.ts),
    "batch_jacobian": lambda c: ad.batch_jacobian(lambda x: x * x, c.params),
    "forward object array": lambda c: c.eng.forward(c.thetas_as.astype(object)),
    "forward list": lambda c: c.eng.forward([[0, *row[1:]] for row in c.thetas_as.tolist()]),
    "pose_jacobian list": lambda c: kinematics.pose_jacobian(c.eng, [0.0, *c.thetas_as.ravel().tolist()[1:]]),
}


@pytest.mark.parametrize("bad", ["complex", "string", "bool"])
@pytest.mark.parametrize("entry", list(_DTYPE_RULE_ENTRIES))
def test_array_entries_refuse_other_dtypes(cam_arm, rng, entry, bad):
    """Every array entry reads its input by autodiff.operand, as the theta
    entries do: a complex array would lose its imaginary part, a string
    array would parse and a bool array read as 0 and 1, so each is a
    TypeError; an object array of strings reaches forward too.  The list
    cases mix the values with a number, which numpy alone would read as
    float64 when the values are bools."""
    b, m = 4, 3
    eng = FkEngine(urdf.extract_chain(cam_arm, "base", "camera"), batch_size=b)
    thetas = rng.uniform(-1, 1, size=(b, m))
    params = rng.uniform(-1, 1, size=(b, 6))
    good_ts = eng.forward(thetas)
    make = {"complex": lambda x: x + 0.5j, "string": lambda x: x.astype(str), "bool": lambda x: x > 0}[bad]
    case = types.SimpleNamespace(
        eng=eng,
        est=identify.ParamEstimator(cam_arm, "camera", "base", "camera", batch_size=b),
        thetas=thetas,
        thetas_as=make(thetas),
        params=make(params),
        ts=make(transforms.sixdof_batch_to_transforms(params)),
        good_ts=good_ts,
        quats=make(transforms.quaternion_batch_from_rotations(good_ts)),
        good_quats=transforms.quaternion_batch_from_rotations(good_ts),
    )
    with pytest.raises(TypeError, match="got dtype"):
        _DTYPE_RULE_ENTRIES[entry](case)


def test_integer_arrays_run_as_float64(rng):
    """The dtype rule turns integer input into float64, in kernels, metrics,
    helpers and batch_jacobian alike; float32 stays float32."""
    params = rng.integers(-2, 3, size=(5, 6))
    want = transforms.sixdof_batch_to_transforms(params.astype(float))
    np.testing.assert_array_equal(transforms.sixdof_batch_to_transforms(params), want)
    np.testing.assert_array_equal(transforms.sixdof_to_transform(params[0]), want[0])
    assert transforms.sixdof_to_transform(params[0].astype(np.float32)).dtype == np.float64
    assert transforms.sixdof_batch_to_transforms(params.astype(np.float32)).dtype == np.float32
    eye = np.eye(4, dtype=int)
    assert metrics.phi5_loss(eye, eye) == metrics.phi5_loss(np.eye(4), np.eye(4)) == 0.0
    jac = ad.batch_jacobian(lambda x: x * x, params)
    assert jac.dtype == np.float64
    np.testing.assert_array_equal(jac, ad.batch_jacobian(lambda x: x * x, params.astype(float)))


@pytest.mark.parametrize("batch_size", [2.7, 2.0, True, "2", None])
def test_batch_size_must_be_an_integer(arm2r_chain, batch_size):
    """A float would build a smaller batch than asked, and True a batch of 1."""
    with pytest.raises(ValueError, match="batch_size must be an integer"):
        FkEngine(arm2r_chain, batch_size)
    assert FkEngine(arm2r_chain, np.int64(3)).batch_size == 3


def test_nonfinite_theta_rejected(arm2r_chain):
    eng = FkEngine(arm2r_chain, batch_size=1)
    with pytest.raises(ValueError, match="non-finite"):
        eng.forward([np.nan, 0.0])


def test_engine_validation(arm2r_chain):
    with pytest.raises(ValueError):
        FkEngine(arm2r_chain, batch_size=0)
    with pytest.raises(ValueError):
        FkEngine(arm2r_chain, batch_size=2, dtype=np.int32)


def test_float32_supported(mixed_chain, rng):
    b = 16
    eng64 = FkEngine(mixed_chain, batch_size=b)
    eng32 = FkEngine(mixed_chain, batch_size=b, dtype=np.float32)
    thetas = rng.uniform(-1, 1, size=b * eng64.m)
    out64 = eng64.forward(thetas)
    out32 = eng32.forward(thetas.astype(np.float32))
    assert out32.dtype == np.float32
    assert np.abs(out64 - out32).max() < 1e-5


def test_pipeline_stage_functions(arm2r_chain, rng):
    """scatter -> joint transforms -> combine -> scan equals forward."""
    b = 6
    eng = FkEngine(arm2r_chain, batch_size=b)
    thetas = rng.uniform(-2, 2, size=b * eng.m)
    q = eng.scatter_thetas(thetas)
    tj = kinematics.joint_transforms(q)
    tlj = eng.combine_link_joint(tj)
    cum = kinematics.scan_compose(tlj)
    np.testing.assert_allclose(cum[:, -1], eng.forward(thetas), atol=1e-14)
    np.testing.assert_allclose(cum, eng.forward(thetas, want_intermediates=True), atol=1e-14)


def _stage_pipeline(eng, thetas):
    """The reference pipeline: scatter -> joint transforms -> combine -> scan,
    then the post-corrections, R_align^T after the scan at each joint with an
    arbitrary axis (kinematics._joint_motion).  ``thetas`` is a (b, m) float
    or DualArray."""
    b, m = eng.batch_size, eng.m
    cell = (np.repeat(np.arange(b), m), np.tile(eng._rows_per_dof, b), np.tile(eng._slots_per_dof, b))
    scale = eng.scatter_thetas(np.ones(b * m))[cell]
    q = np.zeros((b, eng.n, 6), dtype=eng.dtype, like=thetas)
    q[cell] = thetas.reshape(b * m) * scale
    cum = kinematics.scan_compose(eng.combine_link_joint(kinematics.joint_transforms(q)))
    for i, (_, joint) in enumerate(eng.chain.segments):
        align = kinematics._joint_motion(joint)[0]
        if align is not None:
            cum[:, i] = cum[:, i] @ align.T.astype(eng.dtype)
    return cum


def _assert_bits_equal(got, want):
    """Bitwise equality, signed zeros included, whatever either's memory order."""
    assert got.dtype == want.dtype and got.shape == want.shape
    np.testing.assert_array_equal(*(np.ascontiguousarray(a).view(np.uint8) for a in (got, want)))


# Bound of forward against the stage pipeline, which rounds differently: the
# column pass starts each span with one GEMM on (1, c, s) or (1, q), applies
# each later static as one GEMM, or in place where it only translates along
# one axis (as it does a span's trailing one), and each later motion as a
# two-column mix, the pipeline multiplies 4x4 joint transforms.  Per
# transform, in units of the dtype's eps times max(1, the largest entry of
# the reference transform).  The largest seen (x86_64, OpenBLAS) over arm4,
# cam_arm, mixed_chain and 200 random trees is 8.5 with libm cos and sin,
# and 8.7 (float32) with the pass's cos and sin from tan(q/2).  Applying
# single-axis statics in place changed no value there (7.5 at b=64 on the
# same chains and _SINGLE_AXIS); starting spans with one GEMM reads 10.5
# (float64) and 6.9 (float32) at b=64 over those chains and both cam_arm
# substitutions, as the column pass before it did on the same draws.
_STAGE_ULPS = 32


def _assert_within_stage_ulps(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    scale = np.maximum(np.abs(want).max(axis=(-2, -1), keepdims=True), 1.0)
    ulps = np.abs(got - want) / (np.finfo(want.dtype).eps * scale)
    assert ulps.max() <= _STAGE_ULPS


def _stage_snapshots(eng, thetas, want_intermediates):
    """_stage_pipeline on a (b, m) DualArray, which carries every tangent
    through every 4x4 product, the oracle of forward's twist tangents: its
    intermediates, or its finals (the identity on an empty chain)."""
    cum = _stage_pipeline(eng, thetas)
    if want_intermediates:
        return cum
    if eng.n:
        return cum[:, -1]
    eye = np.broadcast_to(np.eye(4, dtype=eng.dtype), (eng.batch_size, 4, 4)).copy()
    return ad.DualArray(eye, np.zeros((thetas.width,) + eye.shape, dtype=eng.dtype))


# Bound of forward's twist tangents against the stage pipeline on a
# DualArray, per tangent entry, in units of the dtype's eps times max(1, the
# largest entry of the snapshot's transform) times max(1, the sum of |input
# tangent| over the configuration's theta columns).  The largest seen
# (x86_64, OpenBLAS) over arm4, both cam_arm substitutions, mixed_chain and
# 200 random trees, every seeding of test_twist_tangents_match_stage_pipeline,
# is 14.7.
_TANGENT_ULPS = 32


def _assert_within_tangent_ulps(got, want, thetas):
    assert got.tangent.dtype == want.tangent.dtype and got.tangent.shape == want.tangent.shape
    if not want.tangent.size:
        return
    scale = np.maximum(np.abs(want.primal).max(axis=(-2, -1), keepdims=True), 1.0)
    weight = np.abs(thetas.tangent).sum(axis=-1).reshape(thetas.tangent.shape[:2] + (1,) * (want.ndim - 1))
    ulps = np.abs(got.tangent - want.tangent) / (np.finfo(want.dtype).eps * scale * np.maximum(weight, 1.0))
    assert ulps.max() <= _TANGENT_ULPS


@pytest.mark.parametrize("b", [1, 255, 256, 257, 700])
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("robot", ["arm4", "cam_arm"])
def test_aligned_chains_match_stage_pipeline(robot, dtype, b, arm4_chain, cam_arm, rng):
    """On axis-aligned statics forward is within _STAGE_ULPS of the stage
    pipeline, and its twist tangents within _TANGENT_ULPS of the pipeline
    run on a DualArray; the DualArray primal is bitwise the float forward,
    and every row bitwise that row evaluated alone."""
    chain = arm4_chain if robot == "arm4" else urdf.extract_chain(cam_arm, "base", "camera")
    eng = FkEngine(chain, batch_size=b, dtype=dtype)
    thetas = rng.uniform(-3.0, 3.0, size=(b, chain.m)).astype(dtype)
    want = _stage_pipeline(eng, thetas)
    inters = eng.forward(thetas.ravel(), want_intermediates=True)
    _assert_within_stage_ulps(inters, want)
    _assert_bits_equal(eng.forward(thetas.ravel()), inters[:, -1])
    one = FkEngine(chain, batch_size=1, dtype=dtype)
    for k in {0, b // 2, b - 1}:
        _assert_bits_equal(inters[k], one.forward(thetas[k], want_intermediates=True)[0])
    seeded = ad.seed_array(thetas)
    for inter in (True, False):
        dual = eng.forward(seeded, want_intermediates=inter)
        _assert_bits_equal(dual.primal, inters if inter else inters[:, -1])
        _assert_within_tangent_ulps(dual, _stage_snapshots(eng, seeded, inter), seeded)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("b", [1, 300])
def test_mixed_chain_matches_stage_pipeline(mixed_chain, dtype, b, rng):
    eng = FkEngine(mixed_chain, batch_size=b, dtype=dtype)
    thetas = rng.uniform(-1.0, 1.0, size=(b, eng.m)).astype(dtype)
    inters = eng.forward(thetas.ravel(), want_intermediates=True)
    _assert_within_stage_ulps(inters, _stage_pipeline(eng, thetas))
    seeded = ad.seed_array(thetas)
    dual = eng.forward(seeded, want_intermediates=True)
    want = _stage_pipeline(eng, seeded)
    scale = np.abs(want.tangent).max() + 1.0
    assert np.abs(dual.tangent - want.tangent).max() <= _STAGE_ULPS * np.finfo(dtype).eps * scale
    if dtype is np.float64:
        naive_inters = naive.fk_batch(mixed_chain, thetas.tolist(), want_intermediates=True)
        assert np.abs(inters - np.array(naive_inters)).max() < 1e-12


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2000))
def test_random_tree_matches_stage_pipeline(seed):
    _, model, leaf = treegen.random_tree(seed)
    chain = urdf.extract_chain(model, model.root_link, leaf)
    rng = np.random.default_rng(seed + 78)
    b = int(rng.integers(1, 9))
    thetas = treegen.sample_thetas(chain, b, rng)
    for dtype in (np.float32, np.float64):
        eng = FkEngine(chain, batch_size=b, dtype=dtype)
        inters = eng.forward(thetas.astype(dtype).ravel(), want_intermediates=True)
        _assert_within_stage_ulps(inters, _stage_pipeline(eng, thetas.astype(dtype)))
    want = np.array(naive.fk_batch(chain, thetas.tolist(), want_intermediates=True))
    assert np.abs(inters - want.reshape(inters.shape)).max() < 1e-9


_FIXED_ONLY = """
<robot name="r"><link name="a"/><link name="b"/><link name="c"/>
<joint name="j1" type="fixed"><parent link="a"/><child link="b"/>
<origin xyz="1 0 0" rpy="0.3 0 0"/></joint>
<joint name="j2" type="fixed"><parent link="b"/><child link="c"/>
<origin xyz="0 2 0" rpy="0 0 1.2"/></joint>
</robot>"""


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_all_fixed_and_empty_chains_match_stage_pipeline(dtype, mixed):
    fixed = urdf.extract_chain(urdf.parse_urdf(_FIXED_ONLY), "a", "c")
    eng = FkEngine(fixed, batch_size=3, dtype=dtype)
    want = _stage_pipeline(eng, np.empty((3, 0), dtype=dtype))
    inters = eng.forward([], want_intermediates=True)
    _assert_within_stage_ulps(inters, want)
    _assert_bits_equal(eng.forward([]), inters[:, -1])
    dual = eng.forward(ad.seed_array(np.empty((3, 0), dtype=dtype)), want_intermediates=True)
    _assert_bits_equal(dual.primal, inters)
    assert dual.tangent.shape == (0, 3, 2, 4, 4)

    empty = FkEngine(urdf.extract_chain(mixed, "l2", "l2"), batch_size=3, dtype=dtype)
    assert _stage_pipeline(empty, np.empty((3, 0), dtype=dtype)).shape == (3, 0, 4, 4)
    assert empty.forward([], want_intermediates=True).shape == (3, 0, 4, 4)
    _assert_bits_equal(empty.forward([]), np.broadcast_to(np.eye(4, dtype=dtype), (3, 4, 4)))


def _seeded(chain, thetas, seeding, rng):
    """(b, m) DualArray: every column seeded, the six columns of the first
    floating joint (as ParamEstimator.loss_gradient seeds them), no tangent,
    or three random tangents."""
    b, m = thetas.shape
    if seeding == "full":
        return ad.seed_array(thetas)
    if seeding == "random":
        return ad.DualArray(thetas, rng.normal(size=(3, b, m)).astype(thetas.dtype))
    cols, col = [], 0
    for _, joint in chain.segments:
        if seeding == "floating" and joint.joint_type is urdf.JointType.FLOATING:
            cols = range(col, col + 6)
            break
        col += joint.dof
    tangent = np.zeros((len(cols), b, m), dtype=thetas.dtype)
    for j, c in enumerate(cols):
        tangent[j, :, c] = 1.0
    return ad.DualArray(thetas, tangent)


def _check_twist_tangents(chain, b, rng):
    for dtype in (np.float64, np.float32):
        eng = FkEngine(chain, batch_size=b, dtype=dtype)
        thetas = treegen.sample_thetas(chain, b, rng).astype(dtype)
        for inter in (False, True):
            flt = eng.forward(thetas.ravel(), want_intermediates=inter)
            for seeding in ("full", "floating", "none", "random"):
                seeded = _seeded(chain, thetas, seeding, rng)
                dual = eng.forward(seeded.reshape(b * eng.m), want_intermediates=inter)
                _assert_bits_equal(dual.primal, flt)
                _assert_within_tangent_ulps(dual, _stage_snapshots(eng, seeded, inter), seeded)


@pytest.mark.parametrize("b", [1, 255, 256, 257, 700])
@pytest.mark.parametrize("case", ["arm4", "cam_arm_camera", "cam_arm_link2", "mixed", "all_fixed", "empty"])
def test_twist_tangents_match_stage_pipeline(case, b, arm4_chain, cam_arm_camera, cam_arm_link2, mixed, mixed_chain):
    """forward on a DualArray: primals bitwise the float forward, tangents
    within _TANGENT_ULPS of the stage pipeline on a DualArray, in both
    dtypes, finals and intermediates, for full, floating-column, empty and
    random seeds."""
    chain = {
        "arm4": lambda: arm4_chain,
        "cam_arm_camera": lambda: cam_arm_camera,
        "cam_arm_link2": lambda: cam_arm_link2,
        "mixed": lambda: mixed_chain,
        "all_fixed": lambda: urdf.extract_chain(urdf.parse_urdf(_FIXED_ONLY), "a", "c"),
        "empty": lambda: urdf.extract_chain(mixed, "l2", "l2"),
    }[case]()
    _check_twist_tangents(chain, b, np.random.default_rng(b))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2000))
def test_random_tree_twist_tangents_match_stage_pipeline(seed):
    _, model, leaf = treegen.random_tree(seed)
    chain = urdf.extract_chain(model, model.root_link, leaf)
    _check_twist_tangents(chain, (1, 255, 256, 257, 700)[seed % 5], np.random.default_rng(seed + 79))


def _counting(monkeypatch, name, calls):
    """Replace the ufunc np.<name> by a wrapper that records each call's
    input shapes and whether it passed ``out``, as a keyword or as a
    positional argument after the inputs.  The engine's programs take the
    function when they are compiled, on an engine's first pass of a kind."""
    original = getattr(np, name)

    def wrapped(*args, **kwargs):
        out = kwargs.get("out") is not None or len(args) > original.nin
        calls.append((name, tuple(np.shape(arg) for arg in args[: original.nin]), out))
        return original(*args, **kwargs)

    monkeypatch.setattr(np, name, wrapped)


@pytest.mark.parametrize("dual", [False, True])
def test_trig_only_on_rotational_dofs(dual, mixed_chain, monkeypatch, rng):
    """Each block takes one tan of the half angles, over (rotational dofs,
    rows), in place in the thread's workspace, and no cos or sin, for float
    and for DualArray input alike (the DualArray forward runs in blocks of
    _TANGENT_ROWS)."""
    b = kinematics._BLOCK_ROWS + 44
    eng = FkEngine(mixed_chain, batch_size=b)
    thetas = rng.uniform(-1.0, 1.0, size=(b, eng.m))
    calls = []
    for name in ("cos", "sin", "tan"):
        _counting(monkeypatch, name, calls)
    eng.forward(ad.seed_array(thetas) if dual else thetas.ravel())
    # revolute, continuous and the floating joint's three angles
    m_rot = 5
    block = kinematics._TANGENT_ROWS if dual else kinematics._BLOCK_ROWS
    rows = [block] * (b // block) + [b % block]
    assert sorted(calls) == sorted(("tan", ((m_rot, r),), True) for r in rows)


@pytest.mark.parametrize("want_intermediates", [False, True])
@pytest.mark.parametrize("robot", ["arm4", "mixed"])
def test_float_forward_matmul_count(robot, want_intermediates, arm4_chain, mixed_chain, monkeypatch, rng):
    """A float forward block starts with one (12, 3) @ (3, rows) GEMM, its
    first factor's seed, and makes one (4, 4) @ (4, 3 rows) GEMM into a
    kept buffer per later static transform that neither is the identity nor
    only translates along one axis, and one per snapshot whose static is
    pending, but for a one-axis translation at the last snapshot; no
    per-row product."""
    chain = arm4_chain if robot == "arm4" else mixed_chain
    # statics: none on arm4, whose j2-j4 origins translate along x alone and
    # are applied in place; mixed's j2, j3, j4 and j5 (the planar and
    # floating joints' later factors have S = I)
    statics = 0 if robot == "arm4" else 4
    # pending: none on arm4, whose fixed flange translates along x alone; on
    # mixed, j6 at its segment and at the finals, and with intermediates the
    # alignment inverses after j1, j2 and j4
    pending = 0 if robot == "arm4" else 4 if want_intermediates else 1
    b = kinematics._BLOCK_ROWS + 44
    eng = FkEngine(chain, batch_size=b)
    thetas = rng.uniform(-1.0, 1.0, size=b * eng.m)
    calls = []
    _counting(monkeypatch, "matmul", calls)
    eng.forward(thetas, want_intermediates=want_intermediates)
    want = []
    for rows in (kinematics._BLOCK_ROWS, 44):
        want += [("matmul", ((12, 3), (3, rows)), True)]
        want += [("matmul", ((4, 4), (4, 3 * rows)), True)] * (statics + pending)
    assert sorted(calls) == sorted(want)


@pytest.mark.parametrize("call", ["forward", "intermediates", "dual", "pose_jacobian", "geometric_jacobian"])
def test_rotation_mix_operands_share_one_shape(call, arm4_chain, monkeypatch, rng):
    """Every product, sum and difference of a rotation mix gets operands of
    the (3, rows) shape of the columns it mixes, and an in-place static's
    product the column and its scalar d, so that no broadcast operand sends
    numpy through its general iterator: on arm4, per block, four products,
    a sum and a difference for each of j2-j4 (j1's rotation is in the
    span's first GEMM), and one product for each of j2-j4's origins and the
    flange, all along x (their sums are in place), in every entry that runs
    the pass.  The Jacobians keep only the mixes' calls that the final C_0
    and C_3 need (FkEngine._compile): j2's six, the two products and the
    difference that update j3's C_0, and none of j4's, a roll about x; so
    their trig runs on three rotations, and its t^2 is a product of (3,
    rows) operands too."""
    b = 300
    eng = FkEngine(arm4_chain, batch_size=b)
    thetas = rng.uniform(-1.0, 1.0, size=(b, eng.m))
    run = {
        "forward": lambda: eng.forward(thetas),
        "intermediates": lambda: eng.forward(thetas, want_intermediates=True),
        "dual": lambda: eng.forward(ad.seed_array(thetas), want_intermediates=True),
        "pose_jacobian": lambda: kinematics.pose_jacobian(eng, thetas),
        "geometric_jacobian": lambda: kinematics.geometric_jacobian(eng, thetas),
    }[call]
    calls = []
    for name in ("multiply", "add", "subtract"):
        _counting(monkeypatch, name, calls)
    run()
    both = ((3, b), (3, b))
    products, sums, differences = (6 + 1, 1, 2) if call.endswith("jacobian") else (12, 3, 3)
    want = [("multiply", both, True)] * products + [("add", both, True)] * sums
    want += [("subtract", both, True)] * differences + [("multiply", ((3, b), ()), True)] * 4
    assert sorted(c for c in calls if (3, b) in c[1]) == sorted(want)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("robot", ["arm4", "mixed", "single_axis"])
def test_block_rows_match_single_rows(robot, dtype, arm4_chain, mixed_chain, single_axis_chain):
    """Every row of a two-block batch is bitwise the row evaluated alone:
    float forward, the DualArray forward's primal and tangents, finals and
    intermediates, and both Jacobians."""
    chain = {"arm4": arm4_chain, "mixed": mixed_chain, "single_axis": single_axis_chain}[robot]
    b = kinematics._BLOCK_ROWS + 44
    thetas = np.random.default_rng(b).uniform(-1.5, 1.5, size=(b, chain.m)).astype(dtype)

    def run(eng, rows):
        seeded = ad.seed_array(rows)
        out = [kinematics.pose_jacobian(eng, rows), kinematics.geometric_jacobian(eng, rows)]
        for inter in (False, True):
            dual = eng.forward(seeded, want_intermediates=inter)
            out += [eng.forward(rows, want_intermediates=inter), dual.primal, np.moveaxis(dual.tangent, 0, 1)]
        return out

    batch = run(FkEngine(chain, batch_size=b, dtype=dtype), thetas)
    one = FkEngine(chain, batch_size=1, dtype=dtype)
    for k in (0, 1, kinematics._BLOCK_ROWS - 1, kinematics._BLOCK_ROWS, b - 1):
        for got, want in zip((out[k] for out in batch), run(one, thetas[k : k + 1]), strict=True):
            _assert_bits_equal(got, want[0])


@pytest.mark.parametrize("b", [256, 4096])
def test_threads_share_an_engine(b, arm4_chain):
    """Two threads evaluating one engine each run on their own workspace:
    200 forward and 200 pose_jacobian calls per thread, each thread on its
    own inputs, are all bitwise the sequential results."""
    eng = FkEngine(arm4_chain, batch_size=b)
    inputs = [np.random.default_rng(seed).uniform(-1.5, 1.5, size=(b, eng.m)) for seed in range(2)]
    want = [(eng.forward(th).tobytes(), kinematics.pose_jacobian(eng, th).tobytes()) for th in inputs]
    done, mismatched = [0, 0], [0, 0]

    def run(k):
        for _ in range(200):
            got = eng.forward(inputs[k]).tobytes(), kinematics.pose_jacobian(eng, inputs[k]).tobytes()
            mismatched[k] += got != want[k]
            done[k] += 1

    threads = [threading.Thread(target=run, args=(k,)) for k in range(2)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=300)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert done == [200, 200] and mismatched == [0, 0]


def test_engine_copies_build_their_own_workspaces(mixed_chain, rng):
    """The per-thread workspaces are not engine state: pickle and deepcopy
    leave them out, and a copy evaluates bitwise equal on buffers of its
    own."""
    b = 37
    eng = FkEngine(mixed_chain, batch_size=b)
    thetas = rng.uniform(-1.0, 1.0, size=(b, eng.m))
    want = eng.forward(thetas, want_intermediates=True), kinematics.pose_jacobian(eng, thetas)
    for clone in (pickle.loads(pickle.dumps(eng)), copy.deepcopy(eng)):
        got = clone.forward(thetas, want_intermediates=True), kinematics.pose_jacobian(clone, thetas)
        for g, w in zip(got, want):
            _assert_bits_equal(g, w)
        buffers = (vars(e._local.__dict__[b]).values() for e in (clone, eng))
        ours, theirs = ([a for a in values if isinstance(a, np.ndarray)] for values in buffers)
        assert not any(np.shares_memory(a, t) for a in ours for t in theirs)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("robot", ["arm4", "mixed"])
def test_forward_builds_no_derivative_buffers(robot, dtype, arm4_chain, mixed_chain):
    """A fresh engine's first forward of one block holds at most its (4, 4,
    b) result and the workspace, 31 + m + 9 r items a row for r rotations:
    two sets of columns (24), (1, q) (m + 1), the mixes' temporaries (6),
    each rotation's (1, c, s) (3 r) and cos and sin over three rows (6 r,
    but for a rotating factor 0, which no pass mixes), and
    the half angles apart from q beside a translation (r); plus 256 KB for
    numpy's ufunc buffers, the seeds and the workspace's views: the
    derivative passes' 19 m + 6 items a row are built by the thread's first
    derivative pass, never by forward alone."""
    chain = arm4_chain if robot == "arm4" else mixed_chain
    b = kinematics._BLOCK_ROWS
    eng = FkEngine(chain, batch_size=b, dtype=dtype)
    thetas = np.random.default_rng(b).uniform(-1.0, 1.0, size=(b, eng.m)).astype(dtype)
    rot = len(eng._rot_cols)
    # factor 0 is theta column 0, a rotation when the first rotation's column is 0
    mixed = rot - (rot > 0 and eng._rot_cols[0] == 0)
    per_row = 16 + 31 + eng.m + 3 * rot + 6 * mixed + (rot if rot < eng.m else 0)
    per_row *= np.dtype(dtype).itemsize
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        eng.forward(thetas)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= per_row * b + 256 * 1024


def test_origins_are_the_kernel_transforms():
    """An origin whose rpy is +0 is built without sixdof_batch_to_transforms;
    every static transform is still bitwise the kernel's, -0 included."""
    robot = urdf.parse_urdf(
        """<robot name="zeros"><link name="a"/><link name="b"/><link name="c"/><link name="d"/><link name="e"/>
        <joint name="j1" type="revolute"><parent link="a"/><child link="b"/>
          <origin xyz="0.1 -0 0.3"/><axis xyz="0 0 1"/></joint>
        <joint name="j2" type="fixed"><parent link="b"/><child link="c"/><origin xyz="0 0 0.5" rpy="-0 0 0"/></joint>
        <joint name="j3" type="revolute"><parent link="c"/><child link="d"/>
          <origin xyz="0 1 0" rpy="0 -0 0.25"/><axis xyz="1 0 0"/></joint>
        <joint name="j4" type="prismatic"><parent link="d"/><child link="e"/>
          <origin xyz="0.2 0 0" rpy="0 0 0"/><axis xyz="0 1 0"/></joint>
        </robot>"""
    )
    chain = urdf.extract_chain(robot, "a", "e")
    params = np.array([joint.origin_params() for _, joint in chain.segments])
    _assert_bits_equal(FkEngine(chain, batch_size=1)._tl, transforms.sixdof_batch_to_transforms(params))


def test_aligned_axis_tolerance():
    assert kinematics._aligned_axis((0.0, 1.0, 0.0)) == (1, 1.0)
    assert kinematics._aligned_axis((1e-10, 0.0, -1.0)) == (2, -1.0)
    assert kinematics._aligned_axis((-1.0 + 1e-10, -1e-10, 0.0)) == (0, -1.0)
    assert kinematics._aligned_axis((1e-8, 0.0, 1.0)) is None
    assert kinematics._aligned_axis((0.6, 0.8, 0.0)) is None


def test_pose_jacobian_matches_finite_differences(arm4_chain, rng):
    b = 3
    eng = FkEngine(arm4_chain, batch_size=b)
    thetas = rng.uniform(-1.2, 1.2, size=(b, eng.m))
    jacs = kinematics.pose_jacobian(eng, thetas.ravel())
    assert len(jacs) == b and jacs[0].shape == (6, eng.m)
    single = FkEngine(arm4_chain, batch_size=1)
    h = 1e-6
    for k in range(b):
        for j in range(eng.m):
            up = thetas[k].copy()
            dn = thetas[k].copy()
            up[j] += h
            dn[j] -= h
            pu, _ = transforms.pose_batch_from_transforms(single.forward(up))
            pd, _ = transforms.pose_batch_from_transforms(single.forward(dn))
            d = pu[0] - pd[0]
            d[3:] = (d[3:] + np.pi) % (2 * np.pi) - np.pi
            fd_col = d / (2 * h)
            err = np.abs(jacs[k][:, j] - fd_col)
            tol = 1e-5 * np.maximum(np.abs(fd_col), 1.0) + 1e-8
            assert (err < tol).all()


def test_pose_jacobian_at_gimbal_lock(arm4_chain):
    """At pitch pi/2 the capped sqrt derivative keeps d(beta) finite and tiny.

    An uncapped hypot derivative would give d(beta)/d(j2) near 1 here.  The
    capped value is _DERIVATIVE_CAP times the rounding residue of cos(beta),
    about 1e-8, so only its magnitude is pinned; every other row is pinned.
    """
    eng = FkEngine(arm4_chain, batch_size=1)
    jac = kinematics.pose_jacobian(eng, [0.3, 1.0, np.pi / 2 - 1.0, 0.2])
    assert jac.shape == (1, 6, 4)
    want = np.array(
        [
            [-1.8207618230043621e-01, -7.0368977018121925e-01, -3.8213459565024238e-01, 0.0],
            [5.8860279883205757e-01, -2.1767675439651604e-01, -1.1820808266453581e-01, 0.0],
            [0.0, -2.1612092234725594e-01, -4.4408920985006264e-17, 0.0],
            [0.0, 0.0, 0.0, 0.0],
            [0.0, 1.0606365664918082e-08, 1.0606365664918082e-08, 0.0],
            [1.0, -1.0973267386642720e-17, -1.0973267386642720e-17, -1.0],
        ]
    )
    rows = [0, 1, 2, 3, 5]
    np.testing.assert_allclose(jac[0][rows], want[rows], rtol=0, atol=1e-12)
    assert np.abs(jac[0, 4]).max() < 1e-7


def _dual_pose_jacobian(eng, thetas):
    """The DualArray pose Jacobian, the oracle of pose_jacobian: the pose
    extraction run on forward's twist tangents of the seeded batch."""
    return ad.batch_jacobian(lambda seeded: transforms.pose_batch_from_transforms(eng.forward(seeded))[0], thetas)


def _vee(s):
    """(..., 3) axial vector of the skew part of (..., 3, 3) matrices."""
    return 0.5 * np.stack([s[..., 2, 1] - s[..., 1, 2], s[..., 0, 2] - s[..., 2, 0], s[..., 1, 0] - s[..., 0, 1]], -1)


def _gimbal_locked(chain, theta):
    """``chain`` with a trailing fixed joint that puts its tip at pitch pi/2
    in configuration ``theta``."""
    tip = FkEngine(chain, 1).forward(theta)[0]
    offset = np.linalg.inv(tip) @ transforms.sixdof_to_transform([0.1, -0.2, 0.3, 0.4, np.pi / 2, -0.7])
    pose = transforms.pose_from_transform(offset).as_array()
    joint = urdf.Joint("gimbal", urdf.JointType.FIXED, chain.end_link, "gimbal_tip", tuple(pose[:3]), tuple(pose[3:]))
    return urdf.KinematicChain(chain.base_link, "gimbal_tip", chain.segments + ((urdf.Link("gimbal_tip"), joint),))


# Bound of pose_jacobian against _dual_pose_jacobian, per configuration: the
# largest entry difference times cos(beta)^2, in units of the dtype's eps
# times max(1, the largest entry of the final transform).  Both divide by
# cos(beta)^2 (the rate map, the arctan2 derivatives) of entries that round
# differently, so the difference grows as 1/cos(beta)^2 towards gimbal lock.
# Gimbal-locked rows run the oracle's extraction and take cos(beta) as 1.
# The largest seen (x86_64, OpenBLAS) over arm4, both cam_arm substitutions,
# mixed_chain and 200 random trees at b = 1 and 513 in both dtypes is 4.9;
# with cos(beta) as sqrt(r00^2 + r10^2) in place of hypot, 5.5 on other
# draws, where hypot read 5.7.
# The same unit, without the cos(beta) factor, bounds geometric_jacobian
# against the DualArray forward's tangents (largest seen 5.5).
_JACOBIAN_ULPS = 32


def _check_closed_form_jacobians(chain, b, dtype, rng):
    """pose_jacobian against its DualArray oracle, and geometric_jacobian
    against forward's tangents (dp, and the axial vector of dR R^T), with
    every 7th row gimbal-locked."""
    thetas = treegen.sample_thetas(chain, b, rng).astype(dtype)
    thetas[::7] = thetas[0]
    chain = _gimbal_locked(chain, thetas[0].astype(np.float64))
    eng = FkEngine(chain, batch_size=b, dtype=dtype)
    finals = eng.forward(thetas)
    cb = np.hypot(finals[:, 0, 0], finals[:, 1, 0])
    locked = cb <= transforms._GIMBAL_COS_TOL
    assert locked[::7].all()
    unit = np.finfo(dtype).eps * np.maximum(np.abs(finals).max(axis=(1, 2)), 1.0)

    jac, want = kinematics.pose_jacobian(eng, thetas), _dual_pose_jacobian(eng, thetas)
    assert jac.dtype == want.dtype == dtype and jac.shape == want.shape == (b, 6, eng.m)
    err = np.abs(jac - want).max(axis=(1, 2), initial=0.0)
    assert (err * np.where(locked, 1.0, cb) ** 2 <= _JACOBIAN_ULPS * unit).all()

    geo = kinematics.geometric_jacobian(eng, thetas)
    assert geo.dtype == dtype and geo.shape == (b, 6, eng.m)
    np.testing.assert_array_equal(geo[~locked, :3], jac[~locked, :3])
    tangent = eng.forward(ad.seed_array(thetas)).tangent
    twists = np.concatenate([tangent[..., :3, 3], _vee(tangent[..., :3, :3] @ finals[:, :3, :3].swapaxes(-1, -2))], -1)
    err = np.abs(geo - twists.transpose(1, 2, 0)).max(axis=(1, 2), initial=0.0)
    assert (err <= _JACOBIAN_ULPS * unit).all()


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("b", [1, kinematics._BLOCK_ROWS + 1])
@pytest.mark.parametrize("case", ["arm4", "cam_arm_camera", "cam_arm_link2", "mixed", "all_fixed", "empty"])
def test_closed_form_jacobians_match_dual_oracle(
    case, b, dtype, arm4_chain, cam_arm_camera, cam_arm_link2, mixed, mixed_chain
):
    """pose_jacobian and geometric_jacobian, one block or two, both dtypes,
    every 7th row gimbal-locked, against the DualArray pass within
    _JACOBIAN_ULPS; all_fixed and empty have m = 0."""
    chain = {
        "arm4": lambda: arm4_chain,
        "cam_arm_camera": lambda: cam_arm_camera,
        "cam_arm_link2": lambda: cam_arm_link2,
        "mixed": lambda: mixed_chain,
        "all_fixed": lambda: urdf.extract_chain(urdf.parse_urdf(_FIXED_ONLY), "a", "c"),
        "empty": lambda: urdf.extract_chain(mixed, "l2", "l2"),
    }[case]()
    _check_closed_form_jacobians(chain, b, dtype, np.random.default_rng(b))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2000))
def test_random_tree_closed_form_jacobians_match_dual_oracle(seed):
    _, model, leaf = treegen.random_tree(seed)
    chain = urdf.extract_chain(model, model.root_link, leaf)
    rng = np.random.default_rng(seed + 81)
    for dtype in (np.float64, np.float32):
        _check_closed_form_jacobians(chain, (1, kinematics._BLOCK_ROWS + 1)[seed % 2], dtype, rng)


@pytest.mark.parametrize("robot", ["arm4", "mixed", "single_axis"])
def test_geometric_jacobian_matches_central_differences(robot, arm4_chain, mixed_chain, single_axis_chain, rng):
    """Rows 0-2 against the central difference of the final position, rows
    3-5 against vee((R(theta + h) - R(theta - h)) R^T) / 2h; arm4's last
    row is at gimbal lock, where the geometric Jacobian is as regular."""
    chain = {"arm4": arm4_chain, "mixed": mixed_chain, "single_axis": single_axis_chain}[robot]
    b, h = 3, 1e-6
    thetas = treegen.sample_thetas(chain, b, rng)
    if robot == "arm4":
        thetas[-1] = [0.3, 1.0, np.pi / 2 - 1.0, 0.2]
    jac = kinematics.geometric_jacobian(FkEngine(chain, batch_size=b), thetas)
    single = FkEngine(chain, batch_size=1)
    for k in range(b):
        rot = single.forward(thetas[k])[0, :3, :3]
        for j in range(chain.m):
            up, dn = thetas[k].copy(), thetas[k].copy()
            up[j] += h
            dn[j] -= h
            tu, td = single.forward(up)[0], single.forward(dn)[0]
            fd = np.concatenate([tu[:3, 3] - td[:3, 3], _vee((tu[:3, :3] - td[:3, :3]) @ rot.T)]) / (2 * h)
            tol = 1e-5 * np.maximum(np.abs(fd), 1.0) + 1e-8
            assert (np.abs(jac[k, :, j] - fd) < tol).all()


# Joint origins that translate along one axis alone, which the pass applies
# in place: -x (j2), +y (j3), -z (j5), +z (the fixed mount and j6, folded
# into one static), -y (j8), +x (j9) and +x (the flange, pending at the
# last snapshot); j1's +z is the first factor's, in the span's first GEMM.
# j4 and j10 have rpy and j4 and j7 translate along two axes: these keep
# their GEMM.  j2 and j6 turn about negative axes, j3 and j10 translate.
_SINGLE_AXIS = """<robot name="single_axis">
  <link name="base"/><link name="l1"/><link name="l2"/><link name="l3"/><link name="l4"/><link name="l5"/>
  <link name="l6"/><link name="l7"/><link name="l8"/><link name="l9"/><link name="l10"/><link name="l11"/>
  <link name="tool"/>
  <joint name="j1" type="revolute"><parent link="base"/><child link="l1"/>
    <origin xyz="0 0 0.3"/><axis xyz="0 0 1"/><limit lower="-3" upper="3"/></joint>
  <joint name="j2" type="revolute"><parent link="l1"/><child link="l2"/>
    <origin xyz="-0.4 0 0"/><axis xyz="0 -1 0"/><limit lower="-2" upper="2"/></joint>
  <joint name="j3" type="prismatic"><parent link="l2"/><child link="l3"/>
    <origin xyz="0 0.25 0"/><axis xyz="1 0 0"/><limit lower="-0.5" upper="0.5"/></joint>
  <joint name="j4" type="continuous"><parent link="l3"/><child link="l4"/>
    <origin xyz="0.1 0.2 -0.05" rpy="0.3 -0.2 0.1"/><axis xyz="1 0 0"/></joint>
  <joint name="j5" type="revolute"><parent link="l4"/><child link="l5"/>
    <origin xyz="0 0 -0.2"/><axis xyz="0 1 0"/><limit lower="-2" upper="2"/></joint>
  <joint name="mount" type="fixed"><parent link="l5"/><child link="l6"/><origin xyz="0 0 0.1"/></joint>
  <joint name="j6" type="revolute"><parent link="l6"/><child link="l7"/>
    <origin xyz="0 0 0.15"/><axis xyz="0 0 -1"/><limit lower="-3" upper="3"/></joint>
  <joint name="j7" type="revolute"><parent link="l7"/><child link="l8"/>
    <origin xyz="0.2 0.1 0"/><axis xyz="1 0 0"/><limit lower="-3" upper="3"/></joint>
  <joint name="j8" type="revolute"><parent link="l8"/><child link="l9"/>
    <origin xyz="0 -0.3 0"/><axis xyz="0 1 0"/><limit lower="-2" upper="2"/></joint>
  <joint name="j9" type="revolute"><parent link="l9"/><child link="l10"/>
    <origin xyz="0.35 0 0"/><axis xyz="0 0 1"/><limit lower="-3" upper="3"/></joint>
  <joint name="j10" type="prismatic"><parent link="l10"/><child link="l11"/>
    <origin xyz="0 0 0" rpy="0 0 0.5"/><axis xyz="0 0 1"/><limit lower="-0.4" upper="0.4"/></joint>
  <joint name="flange" type="fixed"><parent link="l11"/><child link="tool"/><origin xyz="0.1 0 0"/></joint>
</robot>
"""


@pytest.fixture(scope="module")
def single_axis_chain():
    return urdf.extract_chain(urdf.parse_urdf(_SINGLE_AXIS), "base", "tool")


def test_single_axis_statics_match_oracles(single_axis_chain, monkeypatch):
    """Statics that translate along one axis, applied in place (C_3 += d
    C_k, no GEMM): forward within _STAGE_ULPS of the stage pipeline in both
    dtypes, the DualArray primal bitwise the float forward and its tangents
    within _TANGENT_ULPS, both Jacobians against their DualArray oracles,
    pose_jacobian against central differences (geometric_jacobian's are in
    test_geometric_jacobian_matches_central_differences)."""
    chain, b = single_axis_chain, 300
    rng = np.random.default_rng(22)
    for dtype in (np.float64, np.float32):
        eng = FkEngine(chain, batch_size=b, dtype=dtype)
        thetas = treegen.sample_thetas(chain, b, rng).astype(dtype)
        calls = []
        with monkeypatch.context() as patch:
            _counting(patch, "matmul", calls)
            finals = eng.forward(thetas)
        # j1's seed and the GEMMs of j4's, j7's and j10's statics; the flange's
        # pending translates along x alone and is applied in place
        assert calls == [("matmul", ((12, 3), (3, b)), True)] + [("matmul", ((4, 4), (4, 3 * b)), True)] * 3
        inters = eng.forward(thetas, want_intermediates=True)
        _assert_within_stage_ulps(inters, _stage_pipeline(eng, thetas))
        _assert_bits_equal(finals, inters[:, -1])
        _check_closed_form_jacobians(chain, b, dtype, rng)
    _check_twist_tangents(chain, b, rng)

    h, thetas = 1e-6, treegen.sample_thetas(chain, 3, rng)
    jac = kinematics.pose_jacobian(FkEngine(chain, batch_size=3), thetas)
    single = FkEngine(chain, batch_size=1)
    for k in range(3):
        for j in range(chain.m):
            up, dn = thetas[k].copy(), thetas[k].copy()
            up[j] += h
            dn[j] -= h
            poses, _ = transforms.pose_batch_from_transforms(np.concatenate([single.forward(up), single.forward(dn)]))
            d = poses[0] - poses[1]
            d[3:] = (d[3:] + np.pi) % (2 * np.pi) - np.pi
            fd = d / (2 * h)
            assert (np.abs(jac[k, :, j] - fd) < 1e-5 * np.maximum(np.abs(fd), 1.0) + 1e-8).all()


def _central_jacobians(single, theta, h=1e-6):
    """Central differences of a configuration's final transform on a b=1
    engine: geometric_jacobian's oracle (the final position, and
    vee((R(theta + h) - R(theta - h)) R^T)) and pose_jacobian's (the pose,
    angles wrapped), each (6, m) over 2h."""
    rot = single.forward(theta)[0, :3, :3]
    geo, pose = np.empty((2, 6, len(theta)))
    for j in range(len(theta)):
        up, dn = theta.copy(), theta.copy()
        up[j] += h
        dn[j] -= h
        tu, td = single.forward(up)[0], single.forward(dn)[0]
        geo[:, j] = np.concatenate([tu[:3, 3] - td[:3, 3], _vee((tu[:3, :3] - td[:3, :3]) @ rot.T)])
        poses, _ = transforms.pose_batch_from_transforms(np.stack([tu, td]))
        pose[:, j] = poses[0] - poses[1]
        pose[3:, j] = (pose[3:, j] + np.pi) % (2 * np.pi) - np.pi
    return geo / (2 * h), pose / (2 * h)


# Chains whose first factor, which starts every pass with one GEMM, sits
# under a turned origin: a rotation about -y (theta scale -1), a prismatic
# joint, a planar joint (two translations) or a floating joint (six factors);
# then a revolute joint under a turned origin, a prismatic one under a
# one-axis origin, and a trailing fixed joint that translates along one axis
# (applied in place) or also turns (a GEMM).
_SEEDED = """<robot name="seeded">
  <link name="base"/><link name="l1"/><link name="l2"/><link name="l3"/><link name="tool"/>
  <joint name="j1" type="{first}"><parent link="base"/><child link="l1"/>
    <origin xyz="0.1 -0.2 0.3" rpy="0.4 0.1 -0.3"/>{axis}</joint>
  <joint name="j2" type="revolute"><parent link="l1"/><child link="l2"/>
    <origin xyz="0.3 0.1 0" rpy="0 0.2 0.5"/><axis xyz="1 0 0"/><limit lower="-2" upper="2"/></joint>
  <joint name="j3" type="prismatic"><parent link="l2"/><child link="l3"/>
    <origin xyz="0 0 0.2"/><axis xyz="0 1 0"/><limit lower="-0.5" upper="0.5"/></joint>
  <joint name="flange" type="fixed"><parent link="l3"/><child link="tool"/>
    <origin xyz="{flange}"/></joint>
</robot>"""
_SEEDED_FIRST = {
    "negative_axis": ("revolute", '<axis xyz="0 -1 0"/><limit lower="-3" upper="3"/>'),
    "prismatic": ("prismatic", '<axis xyz="0 0 1"/><limit lower="-0.5" upper="0.5"/>'),
    "planar": ("planar", '<axis xyz="0.48 0.6 0.64"/>'),
    "floating": ("floating", ""),
}


@pytest.mark.parametrize("trailing", ["one_axis", "turned"])
@pytest.mark.parametrize("first", ["mixed", *_SEEDED_FIRST])
def test_seeded_spans_match_oracles(first, trailing, mixed_chain):
    """Passes that start with their first factor's GEMM: forward within
    _STAGE_ULPS of the stage pipeline in both dtypes, its finals bitwise its
    last intermediate, the DualArray primal bitwise the float forward and
    its tangents within _TANGENT_ULPS, and both Jacobians against their
    DualArray oracles and central differences.  mixed_chain's first factor
    turns about an arbitrary axis under a turned origin; its trailing j6
    turns, or is followed by a one-axis fixed joint."""
    if first == "mixed":
        chain = mixed_chain
        if trailing == "one_axis":
            joint = urdf.Joint("tip", urdf.JointType.FIXED, chain.end_link, "tip", (0.0, 0.0, -0.3), (0.0, 0.0, 0.0))
            chain = urdf.KinematicChain(chain.base_link, "tip", chain.segments + ((urdf.Link("tip"), joint),))
    else:
        joint_type, axis = _SEEDED_FIRST[first]
        flange = "0.15 0 0" if trailing == "one_axis" else "0.15 0.05 0"
        text = _SEEDED.format(first=joint_type, axis=axis, flange=flange)
        if trailing == "turned":
            text = text.replace(f'<origin xyz="{flange}"/>', f'<origin xyz="{flange}" rpy="0.2 0 0"/>')
        chain = urdf.extract_chain(urdf.parse_urdf(text), "base", "tool")
    b, rng = 40, np.random.default_rng(23)
    for dtype in (np.float64, np.float32):
        eng = FkEngine(chain, batch_size=b, dtype=dtype)
        thetas = treegen.sample_thetas(chain, b, rng).astype(dtype)
        inters = eng.forward(thetas, want_intermediates=True)
        _assert_within_stage_ulps(inters, _stage_pipeline(eng, thetas))
        finals = eng.forward(thetas)
        _assert_bits_equal(finals, inters[:, -1])
        _check_closed_form_jacobians(chain, b, dtype, rng)
    _check_twist_tangents(chain, 3, rng)

    thetas = treegen.sample_thetas(chain, 3, rng)
    eng, single = FkEngine(chain, batch_size=3), FkEngine(chain, batch_size=1)
    geo, pose = kinematics.geometric_jacobian(eng, thetas), kinematics.pose_jacobian(eng, thetas)
    for k in range(3):
        for got, fd in zip((geo[k], pose[k]), _central_jacobians(single, thetas[k])):
            assert (np.abs(got - fd) < 1e-5 * np.maximum(np.abs(fd), 1.0) + 1e-8).all()


def test_random_tree_rows_independent_of_blocks(monkeypatch):
    """On each of 200 random trees, in both dtypes, rows of a 300-row batch
    run in 128-row blocks (128, 128, 44) are bitwise those rows evaluated
    alone, one-row blocks: forward finals and intermediates, and both
    Jacobians.  A one-row span's first GEMM is a matrix-vector product."""
    monkeypatch.setattr(kinematics, "_BLOCK_ROWS", 128)
    b, picks = 300, (0, 127, 128, 299)
    for seed in range(200):
        _, model, leaf = treegen.random_tree(seed)
        chain = urdf.extract_chain(model, model.root_link, leaf)
        thetas = treegen.sample_thetas(chain, b, np.random.default_rng(seed + 82))
        for dtype in (np.float64, np.float32):
            rows = thetas.astype(dtype)

            def run(eng, rows):
                out = [eng.forward(rows), eng.forward(rows, want_intermediates=True)]
                if chain.m:
                    out += [kinematics.geometric_jacobian(eng, rows), kinematics.pose_jacobian(eng, rows)]
                return out

            batch, one = run(FkEngine(chain, b, dtype), rows), FkEngine(chain, 1, dtype)
            for k in picks:
                for got, want in zip((out[k] for out in batch), run(one, rows[k : k + 1]), strict=True):
                    _assert_bits_equal(got, want[0])


# The engine's programs (FkEngine._compile) and the reference walk they replay
# (tests/reference_pass.py), as the same two calls.
_REPLAY = types.SimpleNamespace(
    forward=lambda eng, thetas, inter: eng.forward(thetas, want_intermediates=inter),
    jacobian=lambda eng, thetas, rates: eng._jacobian(thetas, rates),
)


def _every_output(walk, eng, thetas, tangent):
    """Every output of ``eng`` on ``thetas`` by ``walk`` (_REPLAY or
    reference_pass): forward finals and intermediates, the DualArray primal
    and tangents of both with input tangents ``tangent``, and both Jacobians
    (a ValueError's message where one raises)."""
    out = []
    for inter in (False, True):
        out.append(walk.forward(eng, thetas, inter))
        dual = walk.forward(eng, ad.DualArray(thetas, tangent), inter)
        out += [dual.primal, dual.tangent]
    for rates in (False, True):
        try:
            out.append(walk.jacobian(eng, thetas, rates))
        except ValueError as error:
            out.append(str(error))
    return out


def _assert_outputs_equal(got, want):
    """_every_output's lists equal, arrays bitwise (compared as bytes first, which is quicker)."""
    assert len(got) == len(want)
    for g, w in zip(got, want):
        if isinstance(w, str) or isinstance(g, str):
            assert g == w
        elif g.dtype != w.dtype or g.shape != w.shape or g.tobytes() != w.tobytes():
            _assert_bits_equal(g, w)


# arm4_locked's configuration at gimbal lock (see _oracle_chains)
_LOCKED = np.array([0.3, 1.0, -0.4, 0.2])


def _oracle_chains(request):
    """The named chains of the program tests, from the test's fixtures: arm4
    and arm4 with a tip at pitch pi/2 in configuration _LOCKED (gimbal
    lock), cam_arm and both its substitutions, mixed_chain, single_axis, and
    the all-fixed and empty chains."""
    get = request.getfixturevalue
    return {
        "arm4": get("arm4_chain"),
        "arm4_locked": _gimbal_locked(get("arm4_chain"), _LOCKED),
        "cam_arm": urdf.extract_chain(get("cam_arm"), "base", "camera"),
        "cam_arm_camera": get("cam_arm_camera"),
        "cam_arm_link2": get("cam_arm_link2"),
        "mixed": get("mixed_chain"),
        "single_axis": get("single_axis_chain"),
        "all_fixed": urdf.extract_chain(urdf.parse_urdf(_FIXED_ONLY), "a", "c"),
        "empty": urdf.extract_chain(get("mixed"), "l2", "l2"),
    }


def _oracle_thetas(name, chain, b, dtype, seed):
    """b configurations of chain ``name`` and two input tangents; on
    arm4_locked every 7th configuration is _LOCKED."""
    rng = np.random.default_rng(seed)
    thetas = treegen.sample_thetas(chain, b, rng).reshape(b, chain.m)
    if name == "arm4_locked":
        thetas[::7] = _LOCKED
    return thetas.astype(dtype), rng.normal(size=(2, b, chain.m)).astype(dtype)


def test_programs_match_reference_walk(request, monkeypatch):
    """Every output of the compiled programs is bitwise the reference
    walk's (tests/reference_pass.py), the interpreter they replaced: forward
    finals and intermediates, the DualArray primal and tangents and both
    Jacobians, on the named chains (_oracle_chains) and
    200 random trees, in both dtypes, at b = 1, 2 and 300 in 128-row
    blocks."""
    monkeypatch.setattr(kinematics, "_BLOCK_ROWS", 128)
    monkeypatch.setattr(kinematics, "_TANGENT_ROWS", 128)
    chains = _oracle_chains(request)
    for seed in range(200):
        _, model, leaf = treegen.random_tree(seed)
        chains[f"tree{seed}"] = urdf.extract_chain(model, model.root_link, leaf)
    for k, (name, chain) in enumerate(chains.items()):
        for dtype in (np.float64, np.float32):
            for b in (1, 2, 300):
                thetas, tangent = _oracle_thetas(name, chain, b, dtype, k)
                eng = FkEngine(chain, b, dtype)
                want = _every_output(reference_pass, eng, thetas, tangent)
                _assert_outputs_equal(_every_output(_REPLAY, eng, thetas, tangent), want)


def test_programs_keep_no_state_between_calls(request):
    """On one engine and one thread, every evaluation kind interleaved over
    two batches, one with a gimbal-locked row and one that overflows (the
    Jacobians raise on it), gives each result bitwise as a fresh engine
    does."""
    b, raised = 9, set()
    for name, chain in _oracle_chains(request).items():
        for dtype in (np.float64, np.float32):
            locked, tangent = _oracle_thetas(name, chain, b, dtype, 5)
            huge = np.full_like(locked, np.finfo(dtype).max)
            eng = FkEngine(chain, b, dtype)
            with np.errstate(over="ignore", invalid="ignore"):
                for thetas in (locked, huge, locked, huge):
                    got = _every_output(_REPLAY, eng, thetas, tangent)
                    _assert_outputs_equal(got, _every_output(_REPLAY, FkEngine(chain, b, dtype), thetas, tangent))
                    raised.update((name, out) for out in got if isinstance(out, str))
            finals = eng.forward(locked)
            assert (np.hypot(finals[::7, 0, 0], finals[::7, 1, 0]) <= transforms._GIMBAL_COS_TOL).all() == (
                name == "arm4_locked"
            )
    assert ("mixed", "non-finite value in jacobian output") in raised


# Two pitch joints about y, then a prismatic joint along x: the final's first
# column is (cos(q1 + q2), 0, -sin(q1 + q2)) as the pass rounds it.
_PITCH_PITCH_SLIDE = """
<robot name="pps"><link name="a"/><link name="b"/><link name="c"/><link name="d"/>
<joint name="p1" type="revolute"><parent link="a"/><child link="b"/><origin xyz="0 0 0.5"/><axis xyz="0 1 0"/></joint>
<joint name="p2" type="revolute"><parent link="b"/><child link="c"/><origin xyz="0.3 0 0"/><axis xyz="0 1 0"/></joint>
<joint name="s" type="prismatic"><parent link="c"/><child link="d"/><origin xyz="0 0 0.2"/><axis xyz="1 0 0"/></joint>
</robot>"""


@pytest.mark.parametrize(
    "dtype, locked",
    [(np.float64, (2.47653346366633, -0.9057371368714335)), (np.float32, (1.8796213865280151, -0.30882513523101807))],
)
def test_exactly_locked_rows_match_reference_walk(dtype, locked):
    """At a configuration (q1 + q2 within a few ulps of pi/2) where the
    pass's cos(beta) is exactly 0, the pose's rate map divides 0 by 0 on
    that row, which the gimbal-lock fallback then overwrites: both
    Jacobians are bitwise the reference walk's, which never divides there,
    alone and beside unlocked rows, and no numpy warning is raised."""
    chain = urdf.extract_chain(urdf.parse_urdf(_PITCH_PITCH_SLIDE), "a", "d")
    for thetas in ([[*locked, 0.1]], [[*locked, 0.1], [0.3, -0.2, 0.4], [*locked, -0.7]]):
        thetas = np.array(thetas, dtype=dtype)
        eng = FkEngine(chain, len(thetas), dtype)
        first = eng.forward(thetas)[::2, :2, 0]
        assert (first == 0.0).all()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for rates in (False, True):
                _assert_bits_equal(eng._jacobian(thetas, rates), reference_pass.jacobian(eng, thetas, rates))


@pytest.mark.parametrize("dtype, value", [(np.float64, 1e308), (np.float32, 3e38)])
def test_overflowing_prismatic_chain_raises(dtype, value):
    """On a chain of prismatic joints only, a batch that overflows makes the
    final origin infinite while every Jacobian entry stays finite (a
    translation column is its axis over zeros), so the check of the final
    columns alone catches it: both Jacobians raise."""
    robot = urdf.parse_urdf(
        """<robot name="slides"><link name="a"/><link name="b"/><link name="c"/>
        <joint name="s1" type="prismatic"><parent link="a"/><child link="b"/><axis xyz="1 0 0"/></joint>
        <joint name="s2" type="prismatic"><parent link="b"/><child link="c"/><axis xyz="1 0 0"/></joint>
        </robot>"""
    )
    eng = FkEngine(urdf.extract_chain(robot, "a", "c"), 2, dtype)
    for jacobian in (kinematics.geometric_jacobian, kinematics.pose_jacobian):
        with pytest.raises(ValueError, match="^non-finite value in jacobian output$"):
            jacobian(eng, np.full((2, 2), value, dtype=dtype))
        assert np.isfinite(eng._local.__dict__[2].derivatives[3]).all()


def _poison(ws, derivatives, constants):
    """Fill every buffer of ``ws`` that a program writes with NaN: the
    columns, the mixes' temporaries, q and the half angles, the cos and sin
    rows and their three-row copies, and with ``derivatives`` every
    derivative buffer, then put back the values that a Jacobian's program
    wrote when it was compiled, ``constants`` ((view, values) pairs by
    workspace).  The ones rows stay."""
    buffers = [ws.columns, ws.mixed, ws.q, ws.angles, ws.ucs[1:], ws.trig]
    for buffer in buffers + list(ws.derivatives if derivatives else ()):
        buffer[...] = np.nan
    for view, values in constants.get(ws, ()):
        view[...] = values


def test_dropped_calls_are_never_read(request, monkeypatch):
    """The Jacobians' programs drop the calls whose results no Jacobian row
    reads (FkEngine._compile), and no later call reads what they would
    have written: with every buffer that a program writes filled with NaN
    before every block pass (_poison; the value buffers alone before the
    gimbal-lock fallback's finals pass), but for the axis and origin
    columns of a rotating factor 0 as a Jacobian's program wrote them when
    it was compiled, every output and every error message stays bitwise
    the reference walk's: forward finals and intermediates, the DualArray
    primal and tangents and both Jacobians, on the named chains
    (_oracle_chains) and 200 random trees, in both dtypes, at b = 1, 2 and
    300 in 128-row blocks, and on the named chains for a batch that
    overflows."""
    monkeypatch.setattr(kinematics, "_BLOCK_ROWS", 128)
    monkeypatch.setattr(kinematics, "_TANGENT_ROWS", 128)
    column_pass, compile_pass, constants = FkEngine._pass, FkEngine._compile, weakref.WeakKeyDictionary()

    def poisoned_pass(self, ws, flat2d, out, kind):
        _poison(ws, kind[1] is not None, constants)
        return column_pass(self, ws, flat2d, out, kind)

    def recorded_compile(self, ws, kind):
        program = compile_pass(self, ws, kind)
        if kind[1] in ("geometric", "pose") and self._steps and self._steps[0][5] is not None:
            fixed = ws.derivatives[0][:, :, self._steps[0][1]]
            constants[ws] = ((fixed, fixed.copy()),)
        return program

    monkeypatch.setattr(FkEngine, "_pass", poisoned_pass)
    monkeypatch.setattr(FkEngine, "_compile", recorded_compile)
    chains, raised = _oracle_chains(request), set()
    named = set(chains)
    for seed in range(200):
        _, model, leaf = treegen.random_tree(seed)
        chains[f"tree{seed}"] = urdf.extract_chain(model, model.root_link, leaf)
    for k, (name, chain) in enumerate(chains.items()):
        for dtype in (np.float64, np.float32):
            for b in (1, 2, 300):
                thetas, tangent = _oracle_thetas(name, chain, b, dtype, k)
                batches = [thetas, np.full_like(thetas, np.finfo(dtype).max)] if name in named else [thetas]
                for batch in batches:
                    eng = FkEngine(chain, b, dtype)
                    with np.errstate(over="ignore", invalid="ignore"):
                        want = _every_output(reference_pass, eng, batch, tangent)
                        got = _every_output(_REPLAY, eng, batch, tangent)
                    _assert_outputs_equal(got, want)
                    raised.update((name, out) for out in got if isinstance(out, str))
    assert ("mixed", "non-finite value in jacobian output") in raised


def _pass_calls(eng, rows, kind):
    """The pass calls of ``kind``'s program on ``eng``'s workspace for
    ``rows`` rows, each as its function's name and its operands: an array
    of the workspace by its address, shape and strides, any other by its
    value."""
    ws = eng._local.__dict__[rows]
    buffers = [v for v in vars(ws).values() if isinstance(v, np.ndarray)] + list(ws.derivatives)

    def operand(x):
        if not isinstance(x, np.ndarray):
            return x
        if any(np.shares_memory(x, buffer) for buffer in buffers):
            return x.__array_interface__["data"][0], x.shape, x.strides
        return x.shape, x.tobytes()

    return [
        (fn.__name__, operand(getattr(fn, "__self__", None)), tuple(operand(x) for x in args))
        for ops, _, _ in ws.programs[kind][0]
        for fn, args in ops
    ]


# The calls of arm4's tangents pass after its trig, each factor's: factor 0's
# GEMM and axis copy, then per factor j2-j4 the static's in-place translation
# (2 calls), the axis copy and the rotation mix (6: the product into t1, the
# one into t2, then C_i's product and sum, C_j's product and difference), and
# the flange's translation.
_MIX = {"j2": 5, "j3": 14, "j4": 23}
_C_I, _C_J = (0, 2, 3), (1, 4, 5)
# The tail that a Jacobian's program runs after its pass, by function name
# (FkEngine._compile_tail, on a chain of rotations only): p_T - origin and its
# cross product with the axes, then the pose's c^2, c and rate map, or the
# geometric Jacobian's copy of the axes.
_CROSS = ["subtract"] + ["multiply", "multiply", "__isub__"] * 3
_TAIL = {
    "pose": _CROSS + ["multiply", "add", "sqrt", "divide", "multiply", "add", "multiply", "subtract", "multiply"]
    + ["subtract"],
    "geometric": _CROSS + ["__setitem__"],
}


@pytest.mark.parametrize("robot", ["arm4", "roll_z", "roll_z_bare"])
def test_jacobian_programs_drop_the_calls_no_row_reads(robot, arm4_chain):
    """A Jacobian's program is the tangents pass of the finals but for the
    calls that no entry of its tail reads (FkEngine._compile), followed by
    the tail's calls (_TAIL); the finals,
    intermediates and tangents programs keep every call (34, 34, 38 and 38
    with a flange, 2 fewer each without).  Both Jacobians drop factor 0's axis copy, which the
    program writes once when it is compiled.  On arm4 (j2 and j3 pitch
    about y, j4 rolls about x): j4's mix, which turns C_1 and C_2, and the
    three calls of j3's that update C_2, so 28 calls of 38, and the trig
    runs on the first three rotations.  With j4 rolling about z and a
    flange along z, or with no flange: the pose keeps the three calls of
    j4's mix that update C_0, the geometric Jacobian none of the six."""
    if robot == "arm4":
        chain = arm4_chain
    else:
        text = ARM4.replace('<axis xyz="1 0 0"/>', '<axis xyz="0 0 1"/>').replace('"0.1 0 0"', '"0 0 0.1"')
        chain = urdf.extract_chain(urdf.parse_urdf(text), "base", "tool" if robot == "roll_z" else "l4")
    b = 5
    eng = FkEngine(chain, b)
    thetas = np.random.default_rng(b).uniform(-1.0, 1.0, size=(b, eng.m))
    for inter in (False, True):
        eng.forward(thetas, want_intermediates=inter)
        eng.forward(ad.seed_array(thetas), want_intermediates=inter)
    kinematics.pose_jacobian(eng, thetas)
    kinematics.geometric_jacobian(eng, thetas)
    calls = {kind: _pass_calls(eng, b, kind) for kind in eng._local.__dict__[b].programs}
    flange = 2 * (robot != "roll_z_bare")
    assert [len(calls[kind]) for kind in [("finals", None), ("intermediates", None)]] == [32 + flange] * 2
    assert [len(calls[kind]) for kind in [("finals", "tangents"), ("intermediates", "tangents")]] == [36 + flange] * 2
    if robot == "arm4":
        dropped = {"pose": [1, *(_MIX["j3"] + e for e in _C_I), *(_MIX["j4"] + e for e in range(6))]}
        dropped["geometric"], rotations = dropped["pose"], {"pose": 3, "geometric": 3}
    else:
        dropped = {"pose": [1, *(_MIX["j4"] + e for e in _C_J)], "geometric": [1, *(_MIX["j4"] + e for e in range(6))]}
        rotations = {"pose": 4, "geometric": 3}
    tangents = calls[("finals", "tangents")]
    for mode in ("pose", "geometric"):
        got, tail = calls[("finals", mode)], len(_TAIL[mode])
        assert [call[0] for call in got[-tail:]] == _TAIL[mode]
        got = got[:-tail]
        assert len(got) == len(tangents) - len(dropped[mode])
        assert got[7:] == [call for n, call in enumerate(tangents[7:]) if n not in dropped[mode]]
        # the trig: the same calls on the first rotations' rows
        assert [call[0] for call in got[:7]] == [call[0] for call in tangents[:7]]
        assert got[0][2][0][1] == (rotations[mode], b)
    if robot == "arm4":
        assert [len(calls[("finals", mode)]) for mode in ("pose", "geometric")] == [28 + 20, 28 + 11]


def test_programs_hold_no_reference_to_the_engine(arm4_chain, mixed_chain):
    """An engine and its workspaces are freed as soon as the engine is
    deleted, with the cyclic collector off, after each evaluation kind in
    both dtypes: the compiled programs hold views of the workspace's
    buffers and constants, never the engine, the workspace or a bound
    method of either."""
    b = 3
    kinds = (
        lambda eng, th: eng.forward(th),
        lambda eng, th: eng.forward(th, want_intermediates=True),
        lambda eng, th: eng.forward(ad.seed_array(th), want_intermediates=True),
        lambda eng, th: kinematics.geometric_jacobian(eng, th),
        lambda eng, th: kinematics.pose_jacobian(eng, th),
    )
    enabled = gc.isenabled()
    gc.disable()
    try:
        for chain in (arm4_chain, mixed_chain):
            for dtype in (np.float64, np.float32):
                for run in kinds:
                    eng = FkEngine(chain, b, dtype)
                    run(eng, np.full((b, chain.m), 0.25, dtype=dtype))
                    engine, buffer = weakref.ref(eng), weakref.ref(eng._local.__dict__[b].columns)
                    del eng
                    assert engine() is None and buffer() is None
    finally:
        if enabled:
            gc.enable()


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_results_keep_the_batch_axis_last(arm4_chain, dtype, monkeypatch):
    """forward's finals and intermediates, the DualArray primal and both
    Jacobians are views whose batch axis is last in memory (its stride the
    itemsize), and in C order (np.ascontiguousarray) they are bitwise the
    reference walk's C-contiguous results.  On arm4 with a gimbal-locked
    tip (every 7th row locked), at b = 1, 2 and 300 in 128-row blocks and at
    _BLOCK_ROWS + 44 in two blocks."""
    chain = _gimbal_locked(arm4_chain, _LOCKED)
    for b in (1, 2, 300, kinematics._BLOCK_ROWS + 44):
        with monkeypatch.context() as patch:
            if b <= 300:
                patch.setattr(kinematics, "_BLOCK_ROWS", 128)
            thetas, tangent = _oracle_thetas("arm4_locked", chain, b, dtype, b)
            dual = ad.DualArray(thetas, tangent)
            eng = FkEngine(chain, b, dtype)
            finals = eng.forward(thetas)
            assert (np.hypot(finals[::7, 0, 0], finals[::7, 1, 0]) <= transforms._GIMBAL_COS_TOL).all()
            got = [finals, eng.forward(thetas, want_intermediates=True), eng.forward(dual).primal]
            got += [eng.forward(dual, want_intermediates=True).primal]
            got += [kinematics.geometric_jacobian(eng, thetas), kinematics.pose_jacobian(eng, thetas)]
            want = [reference_pass.forward(eng, thetas), reference_pass.forward(eng, thetas, True)]
            want += [reference_pass.forward(eng, dual).primal, reference_pass.forward(eng, dual, True).primal]
            want += [reference_pass.jacobian(eng, thetas, False), reference_pass.jacobian(eng, thetas, True)]
            for g, w in zip(got, want, strict=True):
                assert g.shape == w.shape and g.dtype == w.dtype == dtype and w.flags.c_contiguous
                assert g.strides[0] == g.itemsize
                assert np.ascontiguousarray(g).tobytes() == w.tobytes()


# Counts the minor page faults of 20 calls on arm4, on an engine of the last
# of the comma-separated batch sizes, after 3 warm-up calls on an engine of
# each size in turn; diffkin loads first, so that DIFFKIN_NUM_THREADS reaches
# the BLAS.
_FAULTS = """
import resource, sys
from diffkin import autodiff, kinematics, urdf
import numpy as np
urdf_path, call, sizes = sys.argv[1], sys.argv[2], sys.argv[3].split(",")
chain = urdf.extract_chain(urdf.parse_urdf(open(urdf_path).read()), "base", "tool")
run = {
    "forward": lambda: eng.forward(thetas),
    "dual_forward": lambda: eng.forward(seeded),
    "dual_intermediates": lambda: eng.forward(seeded, want_intermediates=True),
    "pose_jacobian": lambda: kinematics.pose_jacobian(eng, thetas),
    "geometric_jacobian": lambda: kinematics.geometric_jacobian(eng, thetas),
}[call]
for b in map(int, sizes):
    eng = kinematics.FkEngine(chain, b)
    thetas = np.random.default_rng(0).uniform(-1.2, 1.2, size=(b, chain.m))
    seeded = autodiff.seed_array(thetas)
    for _ in range(3):
        run()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(20):
    run()
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 20)
"""


@pytest.fixture(scope="module")
def package_states(tmp_path_factory):
    """Two copies of the diffkin package, keyed by how it is imported:
    "source" has no bytecode (and gets none, see _minor_faults_per_call),
    "bytecode" is compiled by compileall.  The heap that importing leaves
    decides whether glibc trims its top after every call, so the fault
    counts are taken in both states, whatever state a run leaves
    src/diffkin/__pycache__ in."""
    package = Path(kinematics.__file__).resolve().parent
    roots = {}
    for state in ("source", "bytecode"):
        roots[state] = tmp_path_factory.mktemp(state)
        shutil.copytree(package, roots[state] / "diffkin", ignore=shutil.ignore_patterns("__pycache__"))
    assert compileall.compile_dir(roots["bytecode"] / "diffkin", quiet=1)
    return {state: str(root) for state, root in roots.items()}


def _minor_faults_per_call(call, b, threads, root):
    """Minor page faults per ``call`` at batch b (see _FAULTS), in a fresh
    interpreter that imports diffkin from ``root`` and writes no bytecode,
    with DIFFKIN_NUM_THREADS set to ``threads`` or unset: the allocator's
    thresholds move with whatever ran before in a process, so only a fresh
    one repeats.  Faults are counted, not timed, so a loaded host does not
    move them."""
    pytest.importorskip("resource")
    urdf_path = str(Path(__file__).resolve().parents[1] / "scripts" / "arm4.urdf")
    env = {k: v for k, v in os.environ.items() if k != "DIFFKIN_NUM_THREADS"}
    env["PYTHONPATH"], env["PYTHONDONTWRITEBYTECODE"] = root, "1"
    if threads:
        env["DIFFKIN_NUM_THREADS"] = threads
    run = subprocess.run(
        [sys.executable, "-c", _FAULTS, urdf_path, call, str(b)],
        capture_output=True, text=True, env=env, timeout=300, check=True,
    )
    return float(run.stdout)


@pytest.mark.parametrize("state", ["source", "bytecode"])
@pytest.mark.parametrize("threads", ["1", None])
@pytest.mark.parametrize("b", [1024, 2048, 4096, "1024,4096"])
def test_pose_jacobian_minor_faults(b, threads, state, package_states):
    """No b-wide temporary and no block temporary that the allocator maps
    afresh on every call: at most 100 minor page faults a call of
    pose_jacobian and of geometric_jacobian, also at b=4096 after b=1024
    calls, with diffkin imported from source and from bytecode (a DualArray
    pass over the batch took about 1170 at b=4096, mapping its (m, b, 4, 4)
    tangents afresh on every call; a (rows, F, 4, 4) factor stack and twist
    gather per block took 184 at b=1024 and 188 at b=2048; fresh block
    temporaries in 4096-row blocks took 480 at b=4096)."""
    root = package_states[state]
    faults = {call: _minor_faults_per_call(call, b, threads, root) for call in ("pose_jacobian", "geometric_jacobian")}
    assert max(faults.values()) <= 100, faults


@pytest.mark.parametrize("state", ["source", "bytecode"])
@pytest.mark.parametrize("threads", ["1", None])
@pytest.mark.parametrize("b", [1024, 2048, 4096])
def test_forward_minor_faults(b, threads, state, package_states):
    """forward takes at most 100 minor page faults a call, on float and on
    seeded DualArray input, finals and intermediates, with diffkin imported
    from source and from bytecode: only its results span the batch, and the
    block's buffers are the thread's workspace, kept across calls (fresh
    512-row temporaries took about 105 a call at b=2048 with one BLAS
    thread; the DualArray pass's fresh block buffers and tangent products
    about 210 at b=1024 from bytecode, and about 1430 with intermediates;
    cos and sin copied within one buffer, a source numpy first copies, 224
    at b=4096)."""
    calls = ("forward", "dual_forward", "dual_intermediates")
    faults = {call: _minor_faults_per_call(call, b, threads, package_states[state]) for call in calls}
    assert max(faults.values()) <= 100, faults


def test_limit_violations(arm2r_chain):
    viol = kinematics.limit_violations(arm2r_chain, [0.0, 0.0, 5.0, -4.0])
    assert len(viol) == 2
    config, joint_name, dof_idx, value, lo, hi = viol[0]
    assert (config, joint_name, dof_idx, value) == (1, "shoulder", 0, 5.0)
    assert (lo, hi) == (-3.1, 3.1)
    assert viol[1][:2] == (1, "elbow")
    assert kinematics.limit_violations(arm2r_chain, [0.5, -0.5, 1.0, 1.0]) == []


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2000))
def test_random_tree_oracle_property(seed):
    _, model, leaf = treegen.random_tree(seed)
    chain = urdf.extract_chain(model, model.root_link, leaf)
    rng = np.random.default_rng(seed + 77)
    b = int(rng.integers(1, 9))
    eng = FkEngine(chain, batch_size=b)
    thetas = treegen.sample_thetas(chain, b, rng)
    got = eng.forward(thetas.ravel())
    want = np.array(naive.fk_batch(chain, thetas.tolist()))
    assert np.abs(got - want).max() < 1e-9
