import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diffkin import autodiff as ad
from diffkin import identify, kinematics, naive, transforms, urdf
from diffkin.kinematics import FkEngine, ShapeError

import treegen


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
    b = 700
    eng = FkEngine(arm4_chain, batch_size=b)
    thetas = rng.uniform(-2.0, 2.0, size=(b, eng.m))
    big = eng.forward(thetas.ravel())
    one = FkEngine(arm4_chain, batch_size=1)
    for k in (0, 255, 256, 511, 512, 699):
        np.testing.assert_array_equal(big[k], one.forward(thetas[k])[0])


def test_blocked_batches_bitwise_identical_off_axis(mixed_chain, rng):
    """A row's value does not depend on its block, off-axis statics included."""
    b = 700
    eng = FkEngine(mixed_chain, batch_size=b)
    thetas = rng.uniform(-1.0, 1.0, size=(b, eng.m))
    big = eng.forward(thetas.ravel(), want_intermediates=True)
    one = FkEngine(mixed_chain, batch_size=1)
    for k in (0, 1, 255, 256, 257, 699):
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


def test_index_matrix_shape_and_invariants(mixed_chain):
    b = 3
    eng = FkEngine(mixed_chain, batch_size=b)
    p = eng.index_matrix
    assert p.shape == (b * eng.m, 3)
    # rows unique: each theta lands in its own cell
    assert len({tuple(r) for r in p.tolist()}) == len(p)
    # batch index varies slowest, matching flat theta layout
    np.testing.assert_array_equal(p[:, 0], np.repeat(np.arange(b), eng.m))
    assert p[:, 1].min() >= 0 and p[:, 1].max() < eng.n
    assert p[:, 2].min() >= 0 and p[:, 2].max() < 6


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 3000), st.integers(1, 5))
def test_index_matrix_slots_respect_joint_types(seed, b):
    _, model, leaf = treegen.random_tree(seed)
    chain = urdf.extract_chain(model, model.root_link, leaf)
    eng = FkEngine(chain, batch_size=b)
    p = eng.index_matrix
    assert len({tuple(r) for r in p.tolist()}) == len(p)
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
    estimator's loss_value and loss_gradient (b rows of the original
    chain's m) and limit_violations (any b).  A transposed (m, b) batch and
    a (2, b*m/2) array have the right size but neither shape, and are not
    read as (b, m); a complex batch would lose its imaginary part and a
    string batch would parse, so neither is cast."""
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
    cast = [(thetas + 1j, TypeError, "dtype complex128"), (thetas.astype(str), TypeError, "dtype <U")]
    entries = [
        (eng.forward, misread + cast),
        (lambda t: eng.forward(ad.seed_array(t)), misread + cast),
        # DiffScalar converts each entry of an object array with float()
        (lambda t: eng.forward(t.astype(object)), misread),
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
    then the post-corrections.  ``thetas`` is a (b, m) float or DualArray."""
    b, p = eng.batch_size, eng.index_matrix
    scale = eng.scatter_thetas(np.ones(b * eng.m))[p[:, 0], p[:, 1], p[:, 2]]
    q = np.zeros((b, eng.n, 6), dtype=eng.dtype, like=thetas)
    q[p[:, 0], p[:, 1], p[:, 2]] = thetas.reshape(b * eng.m) * scale
    cum = kinematics.scan_compose(eng.combine_link_joint(kinematics.joint_transforms(q)))
    for i, post in eng._posts:
        cum[:, i] = cum[:, i] @ post
    return cum


def _assert_bits_equal(got, want):
    """Bitwise equality, signed zeros included."""
    assert got.dtype == want.dtype and got.shape == want.shape
    np.testing.assert_array_equal(got.view(np.uint8), want.view(np.uint8))


# Bound of forward against the stage pipeline where the two round
# differently: folded fixed joints, multi-dof joints, and static transforms
# whose rotation is not axis-aligned.  Per transform, in units of the dtype's
# eps times max(1, the largest entry of the reference transform).  The
# largest seen (x86_64, OpenBLAS) over 500 random trees and mixed_chain is 10.
_STAGE_ULPS = 32


def _assert_within_stage_ulps(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    scale = np.maximum(np.abs(want).max(axis=(-2, -1), keepdims=True), 1.0)
    ulps = np.abs(got - want) / (np.finfo(want.dtype).eps * scale)
    assert ulps.max() <= _STAGE_ULPS


def _dense_pass(eng, thetas, want_intermediates):
    """The dense DualArray pass, the oracle of forward's twist tangents:
    _factors and _product_block on DualArray blocks, so every tangent is
    carried through every 4x4 product.  ``thetas`` is a (b, m) DualArray."""
    b = eng.batch_size
    marks = eng._marks if want_intermediates else eng._final_marks
    out = np.empty((b, len(marks), 4, 4), dtype=eng.dtype, like=thetas)
    for start in range(0, b, kinematics._BLOCK_ROWS):
        rows = slice(start, start + kinematics._BLOCK_ROWS)
        eng._product_block(eng._factors(thetas[rows]), out[rows], marks)
    return out if want_intermediates else out[:, 0]


# Bound of forward's twist tangents against the dense pass, per tangent
# entry, in units of the dtype's eps times max(1, the largest entry of the
# snapshot's transform) times max(1, the sum of |input tangent| over the
# configuration's theta columns).  The largest seen (x86_64, OpenBLAS) over
# arm4, both cam_arm substitutions, mixed_chain and 200 random trees, every
# seeding of test_twist_tangents_match_dense_pass, is 11.
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
def test_forward_bitwise_equals_stage_pipeline(robot, dtype, b, arm4_chain, cam_arm, rng):
    """On axis-aligned statics every factor product is exact, so the compiled
    factors reproduce the stage pipeline bit for bit, tangents included when
    the factors are multiplied as DualArrays; forward's twist tangents are
    within _TANGENT_ULPS of those."""
    chain = arm4_chain if robot == "arm4" else urdf.extract_chain(cam_arm, "base", "camera")
    eng = FkEngine(chain, batch_size=b, dtype=dtype)
    thetas = rng.uniform(-3.0, 3.0, size=(b, chain.m)).astype(dtype)
    want = _stage_pipeline(eng, thetas)
    _assert_bits_equal(eng.forward(thetas.ravel(), want_intermediates=True), want)
    _assert_bits_equal(eng.forward(thetas.ravel()), want[:, -1])
    seeded = ad.seed_array(thetas)
    want_dual = _stage_pipeline(eng, seeded)
    for inter, expect in ((True, want_dual), (False, want_dual[:, -1])):
        dense = _dense_pass(eng, seeded, inter)
        _assert_bits_equal(dense.primal, expect.primal)
        _assert_bits_equal(dense.tangent, expect.tangent)
        dual = eng.forward(seeded, want_intermediates=inter)
        _assert_bits_equal(dual.primal, expect.primal)
        _assert_within_tangent_ulps(dual, dense, seeded)


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
                _assert_within_tangent_ulps(dual, _dense_pass(eng, seeded, inter), seeded)


@pytest.mark.parametrize("b", [1, 255, 256, 257, 700])
@pytest.mark.parametrize("case", ["arm4", "cam_arm_camera", "cam_arm_link2", "mixed", "all_fixed", "empty"])
def test_twist_tangents_match_dense_pass(case, b, arm4_chain, cam_arm, mixed, mixed_chain):
    """forward on a DualArray: primals bitwise the float forward, tangents
    within _TANGENT_ULPS of the dense DualArray pass, in both dtypes, finals
    and intermediates, for full, floating-column, empty and random seeds."""
    chain = {
        "arm4": lambda: arm4_chain,
        "cam_arm_camera": lambda: identify.ParamEstimator(cam_arm, "camera", "base", "camera", 1).chain,
        "cam_arm_link2": lambda: identify.ParamEstimator(cam_arm, "link2", "base", "camera", 1).chain,
        "mixed": lambda: mixed_chain,
        "all_fixed": lambda: urdf.extract_chain(urdf.parse_urdf(_FIXED_ONLY), "a", "c"),
        "empty": lambda: urdf.extract_chain(mixed, "l2", "l2"),
    }[case]()
    _check_twist_tangents(chain, b, np.random.default_rng(b))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2000))
def test_random_tree_twist_tangents_match_dense_pass(seed):
    _, model, leaf = treegen.random_tree(seed)
    chain = urdf.extract_chain(model, model.root_link, leaf)
    _check_twist_tangents(chain, (1, 255, 256, 257, 700)[seed % 5], np.random.default_rng(seed + 79))


def _counting(monkeypatch, name, calls):
    """Replace np.<name> by a wrapper that records each call's first
    argument's shape and whether it passed ``out``."""
    original = getattr(np, name)

    def wrapped(*args, **kwargs):
        calls.append((name, np.shape(args[0]), kwargs.get("out") is not None))
        return original(*args, **kwargs)

    monkeypatch.setattr(np, name, wrapped)


@pytest.mark.parametrize("dual", [False, True])
def test_trig_only_on_rotational_dofs(dual, mixed_chain, monkeypatch, rng):
    """Each block takes one cos and one sin, over (rows, rotational dofs),
    for float and for DualArray input alike."""
    b = kinematics._BLOCK_ROWS + 44
    eng = FkEngine(mixed_chain, batch_size=b)
    thetas = rng.uniform(-1.0, 1.0, size=(b, eng.m))
    calls = []
    for name in ("cos", "sin"):
        _counting(monkeypatch, name, calls)
    eng.forward(ad.seed_array(thetas) if dual else thetas.ravel())
    # revolute, continuous and the floating joint's three angles
    m_rot = 5
    rows = (kinematics._BLOCK_ROWS, 44)
    assert sorted(calls) == sorted((name, (r, m_rot), False) for r in rows for name in ("cos", "sin"))


@pytest.mark.parametrize("want_intermediates", [False, True])
@pytest.mark.parametrize("robot", ["arm4", "mixed"])
def test_float_forward_matmul_count(robot, want_intermediates, arm4_chain, mixed_chain, monkeypatch, rng):
    """A float forward block makes F - 1 per-row products along the factor
    axis, one (rows * 4, 4) GEMM per snapshot whose static is pending, and
    keeps no prefix products: no product writes into an ``out`` array."""
    chain = arm4_chain if robot == "arm4" else mixed_chain
    # pending: the fixed flange (arm4) or j6 (mixed) at its segment and at
    # the finals, and on mixed the alignment inverses after j1, j2 and j4
    pending = 4 if robot == "mixed" and want_intermediates else 1
    b = kinematics._BLOCK_ROWS + 44
    eng = FkEngine(chain, batch_size=b)
    thetas = rng.uniform(-1.0, 1.0, size=b * eng.m)
    calls = []
    _counting(monkeypatch, "matmul", calls)
    eng.forward(thetas, want_intermediates=want_intermediates)
    want = []
    for rows in (kinematics._BLOCK_ROWS, 44):
        want += [("matmul", (rows, 4, 4), False)] * (eng.m - 1) + [("matmul", (rows * 4, 4), False)] * pending
    assert sorted(calls) == sorted(want)


def _product_block_per_row(self, g, out, marks, keep_prefix=False):
    """FkEngine._product_block with each pending static multiplied per row,
    one broadcast np.matmul: the form the single GEMM replaced, kept as its
    oracle."""
    cur, done = None, 0
    for f, i, pending in marks:
        while done <= f:
            if done == 0:
                cur = g[:, 0]
            else:
                cur = np.matmul(cur, g[:, done], out=g[:, done] if keep_prefix else None)
            done += 1
        if cur is None:
            out[:, i] = pending
        elif pending is None:
            out[:, i] = cur
        else:
            np.matmul(cur, pending, out=out[:, i])


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("b", [1, kinematics._BLOCK_ROWS + 44])
@pytest.mark.parametrize("robot", ["arm4", "mixed"])
def test_pending_gemm_matches_per_row_products(robot, b, dtype, arm4_chain, mixed_chain, monkeypatch):
    """One (rows * 4, 4) GEMM per pending static gives the bits of the
    per-row products: float forward, the DualArray forward (its prefix
    products kept) and the dense DualArray pass, finals and intermediates."""
    chain = arm4_chain if robot == "arm4" else mixed_chain
    eng = FkEngine(chain, batch_size=b, dtype=dtype)
    thetas = np.random.default_rng(b).uniform(-1.5, 1.5, size=(b, eng.m)).astype(dtype)
    seeded = ad.seed_array(thetas)

    def run():
        out = []
        for inter in (False, True):
            dual = eng.forward(seeded.reshape(b * eng.m), want_intermediates=inter)
            dense = _dense_pass(eng, seeded, inter)
            out += [eng.forward(thetas.ravel(), want_intermediates=inter)]
            out += [dual.primal, dual.tangent, dense.primal, dense.tangent]
        return out

    got = run()
    monkeypatch.setattr(FkEngine, "_product_block", _product_block_per_row)
    for g, w in zip(got, run(), strict=True):
        _assert_bits_equal(g, w)


def test_aligned_axis_tolerance():
    assert kinematics._aligned_axis((0.0, 1.0, 0.0)) == (1, 1.0)
    assert kinematics._aligned_axis((1e-10, 0.0, -1.0)) == (2, -1.0)
    assert kinematics._aligned_axis((-1.0 + 1e-10, -1e-10, 0.0)) == (0, -1.0)
    assert kinematics._aligned_axis((1e-8, 0.0, 1.0)) is None
    assert kinematics._aligned_axis((0.6, 0.8, 0.0)) is None


def test_link_transforms_property(arm2r_chain):
    eng = FkEngine(arm2r_chain, batch_size=1)
    tl = eng.link_transforms
    assert tl.shape == (arm2r_chain.n, 4, 4)
    np.testing.assert_allclose(tl[1][:3, 3], [1, 0, 0])
    tl[0, 0, 0] = 99.0  # caller copy; engine state must not change
    np.testing.assert_allclose(eng.link_transforms[0, 0, 0], 1.0)


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
