import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diffkin import transforms as tf
from diffkin import autodiff as ad


def _quat_to_rotation(q):
    """Independent quaternion-to-matrix oracle, (x, y, z, w) order."""
    x, y, z, w = q
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - z * w), 2 * (x * z + y * w)],
            [2 * (x * y + z * w), 1 - 2 * (x * x + z * z), 2 * (y * z - x * w)],
            [2 * (x * z - y * w), 2 * (y * z + x * w), 1 - 2 * (x * x + y * y)],
        ]
    )


def _random_rotations(rng, count):
    q = rng.normal(size=(count, 4))
    q /= np.linalg.norm(q, axis=1, keepdims=True)
    return np.stack([_quat_to_rotation(row) for row in q])


def test_principal_rotations():
    np.testing.assert_allclose(
        tf.rot_x(np.pi / 2)[:3, :3],
        [[1, 0, 0], [0, 0, -1], [0, 1, 0]],
        atol=1e-15,
    )
    np.testing.assert_allclose(
        tf.rot_y(np.pi / 2)[:3, :3],
        [[0, 0, 1], [0, 1, 0], [-1, 0, 0]],
        atol=1e-15,
    )
    np.testing.assert_allclose(
        tf.rot_z(np.pi / 2)[:3, :3],
        [[0, -1, 0], [1, 0, 0], [0, 0, 1]],
        atol=1e-15,
    )


def test_rpy_is_z_y_x_product(rng):
    for _ in range(20):
        a, b, g = rng.uniform(-np.pi, np.pi, size=3)
        expected = tf.rot_z(g) @ tf.rot_y(b) @ tf.rot_x(a)
        np.testing.assert_allclose(tf.rpy_to_rotation(a, b, g), expected[:3, :3], atol=1e-14)


def test_sixdof_layout(rng):
    x, y, z, a, b, g = rng.uniform(-1, 1, size=6)
    t = tf.sixdof_to_transform([x, y, z, a, b, g])
    np.testing.assert_allclose(t[:3, 3], [x, y, z])
    np.testing.assert_allclose(t[:3, :3], tf.rpy_to_rotation(a, b, g))
    np.testing.assert_allclose(t[3], [0, 0, 0, 1])


def test_sixdof_batch_matches_scalar(rng):
    q = rng.uniform(-2, 2, size=(5, 3, 6))
    batch = tf.sixdof_batch_to_transforms(q)
    assert batch.shape == (5, 3, 4, 4)
    for i in range(5):
        for j in range(3):
            np.testing.assert_allclose(batch[i, j], tf.sixdof_to_transform(q[i, j]), atol=1e-15)


def _one_row_grid():
    """Rows for the one-row oracle: random poses, every pairing of the
    special angles +-0, +-pi and +-1e6 over (alpha, beta, gamma) and angles
    up to 1e6."""
    rng = np.random.default_rng(27)
    special = np.array([0.0, -0.0, np.pi, -np.pi, 1e6, -1e6])
    pick = np.stack(np.meshgrid(*[np.arange(6)] * 3, indexing="ij"), axis=-1).reshape(-1, 3)
    corners = np.concatenate([rng.uniform(-1, 1, (len(pick), 3)), special[pick]], axis=1)
    random = rng.uniform(-np.pi, np.pi, (200, 6))
    large = np.concatenate([rng.uniform(-5, 5, (100, 3)), rng.uniform(-1e6, 1e6, (100, 3))], axis=1)
    return np.concatenate([corners, random, large])


def test_one_row_is_the_batch_kernel_row():
    """One float64 row, (6,) or (1, 6), is built on Python floats; its
    transform is bitwise the row the batch kernel makes for it inside a
    larger batch.  A nan angle gives nan where the kernel does (the sign of
    a nan is not kept, there or in the kernel), and an infinite one, which
    math.cos refuses, runs the kernel.  Integer rows take the same path as
    float64; float32 and DualArray rows keep their kind."""
    rows = _one_row_grid()
    for row, want in zip(rows, tf.sixdof_batch_to_transforms(rows)):
        one, single = tf.sixdof_batch_to_transforms(row), tf.sixdof_batch_to_transforms(row[None])
        assert one.shape == (4, 4) and single.shape == (1, 4, 4) and one.dtype == single.dtype == np.float64
        np.testing.assert_array_equal(_bits(one), _bits(want))
        np.testing.assert_array_equal(_bits(single), _bits(want))
    odd = np.array([[0.1, 0.2, 0.3, np.nan, 0.5, 0.6], [0.1, 0.2, 0.3, 0.4, np.inf, -np.inf]])
    with np.errstate(invalid="ignore"):  # cos and sin of an infinite angle
        for row, want in zip(odd, tf.sixdof_batch_to_transforms(odd)):
            np.testing.assert_array_equal(tf.sixdof_batch_to_transforms(row), want)
    ints = np.array([[1, -2, 3, 4, -5, 6], [0, 0, 0, -3, 7, 100], [2, 0, 0, 0, 0, 0]])
    for row, want in zip(ints, tf.sixdof_batch_to_transforms(ints.astype(np.float64))):
        for given in (row, row.tolist(), row[None]):
            np.testing.assert_array_equal(_bits(tf.sixdof_batch_to_transforms(given)), _bits(want))
        np.testing.assert_array_equal(_bits(tf.sixdof_to_transform(row.tolist())), _bits(want))
    narrow = rows[:50].astype(np.float32)
    for row, want in zip(narrow, tf.sixdof_batch_to_transforms(narrow)):
        got = tf.sixdof_batch_to_transforms(row)
        assert got.dtype == np.float32
        np.testing.assert_array_equal(_bits(got), _bits(want))
    for row in rows[:50]:
        dual = tf.sixdof_batch_to_transforms(ad.seed_array(row))
        assert isinstance(dual, ad.DualArray) and dual.primal.shape == (4, 4)
        np.testing.assert_array_equal(_bits(dual.primal), _bits(tf.sixdof_batch_to_transforms(row)))


def test_pose_roundtrip_batch(rng):
    count = 10_000
    poses = np.column_stack(
        [
            rng.uniform(-2, 2, size=(count, 3)),
            rng.uniform(-np.pi, np.pi, size=count),
            rng.uniform(-1.5, 1.5, size=count),
            rng.uniform(-np.pi, np.pi, size=count),
        ]
    )
    t = tf.sixdof_batch_to_transforms(poses)
    recovered, degenerate = tf.pose_batch_from_transforms(t)
    assert not degenerate.any()
    t2 = tf.sixdof_batch_to_transforms(recovered)
    assert np.abs(t2 - t).max() < 1e-10


def test_pose_from_transform_scalar(rng):
    pose = [0.3, -0.2, 0.9, 0.4, -0.8, 2.2]
    t = tf.sixdof_to_transform(pose)
    p = tf.pose_from_transform(t)
    assert isinstance(p, tf.PoseRPY)
    assert not p.degenerate
    np.testing.assert_allclose(p.as_array(), pose, atol=1e-12)


def test_gimbal_lock_convention():
    # beta = +pi/2: alpha is pinned to zero and the flag is set, but the
    # recovered pose must still reproduce the same rotation
    t = tf.rot_z(0.7) @ tf.rot_y(np.pi / 2) @ tf.rot_x(0.3)
    p = tf.pose_from_transform(t)
    assert p.degenerate
    assert p.alpha == 0.0
    rebuilt = tf.sixdof_to_transform(p.as_array())
    np.testing.assert_allclose(rebuilt, t, atol=1e-12)

    t2 = tf.rot_z(-0.4) @ tf.rot_y(-np.pi / 2) @ tf.rot_x(1.1)
    p2 = tf.pose_from_transform(t2)
    assert p2.degenerate and p2.alpha == 0.0
    np.testing.assert_allclose(tf.sixdof_to_transform(p2.as_array()), t2, atol=1e-12)


def test_gimbal_flag_in_batch():
    ts = np.stack(
        [
            tf.sixdof_to_transform([0, 0, 0, 0.1, 0.2, 0.3]),
            tf.rot_y(np.pi / 2),
        ]
    )
    _, degenerate = tf.pose_batch_from_transforms(ts)
    assert degenerate.tolist() == [False, True]


def test_quaternion_identity_and_w_sign(rng):
    q = tf.quaternion_from_rotation(np.eye(4))
    np.testing.assert_allclose(q, [0, 0, 0, 1], atol=1e-15)
    for r in _random_rotations(rng, 50):
        q = tf.quaternion_from_rotation(r)
        assert q[3] >= 0.0
        np.testing.assert_allclose(np.linalg.norm(q), 1.0, atol=1e-12)
        np.testing.assert_allclose(_quat_to_rotation(q), r, atol=1e-9)


def test_quaternion_all_extraction_branches():
    # pi rotations about each axis force the trace-negative branches
    for t in (np.eye(4), tf.rot_x(np.pi), tf.rot_y(np.pi), tf.rot_z(np.pi)):
        q = tf.quaternion_from_rotation(t)
        np.testing.assert_allclose(_quat_to_rotation(q), t[:3, :3], atol=1e-12)


def _shepperd_quaternions(ts):
    """The quaternion extraction the K-row kernel replaced, float64 only,
    kept as its oracle: all four Shepperd candidate quaternions, each
    divided by its s, the one with the largest candidate selected, then
    normalized and signed to w >= 0."""
    r = np.asarray(ts, dtype=float)[..., :3, :3]
    d0, d1, d2 = r[..., 0, 0], r[..., 1, 1], r[..., 2, 2]
    cands = np.stack(
        [1.0 + d0 + d1 + d2, 1.0 + d0 - d1 - d2, 1.0 - d0 + d1 - d2, 1.0 - d0 - d1 + d2], axis=-1
    )
    best = np.argmax(cands, axis=-1)
    s = 2.0 * np.sqrt(np.maximum(np.take_along_axis(cands, best[..., None], axis=-1)[..., 0], 0.0))
    c = s * s / 4.0
    sym = {(i, j): r[..., i, j] + r[..., j, i] for i in range(3) for j in range(i + 1, 3)}
    skew = [r[..., 2, 1] - r[..., 1, 2], r[..., 0, 2] - r[..., 2, 0], r[..., 1, 0] - r[..., 0, 1]]
    rows = (
        skew + [c],
        [c, sym[0, 1], sym[0, 2], skew[0]],
        [sym[0, 1], c, sym[1, 2], skew[1]],
        [sym[0, 2], sym[1, 2], c, skew[2]],
    )
    with np.errstate(divide="ignore", invalid="ignore"):
        all_q = np.stack([np.stack(row, axis=-1) / s[..., None] for row in rows], axis=-2)
    q = np.take_along_axis(all_q, best[..., None, None], axis=-2)[..., 0, :]
    q = q / np.sqrt((q * q).sum(axis=-1, keepdims=True))
    return np.where(q[..., 3:4] < 0, -q, q)


def test_quaternion_kernel_matches_shepperd_oracle(rng):
    """Within 2 eps per component of the four-candidate extraction, over
    1e5 random rotations and the identity and 180 degree turns (one per
    row of K), unit norm and w >= 0."""
    q = rng.normal(size=(100_000, 4))
    q /= np.linalg.norm(q, axis=1, keepdims=True)
    x, y, z, w = q.T
    rots = np.stack(
        [
            np.stack([1 - 2 * (y * y + z * z), 2 * (x * y - z * w), 2 * (x * z + y * w)], axis=-1),
            np.stack([2 * (x * y + z * w), 1 - 2 * (x * x + z * z), 2 * (y * z - x * w)], axis=-1),
            np.stack([2 * (x * z - y * w), 2 * (y * z + x * w), 1 - 2 * (x * x + y * y)], axis=-1),
        ],
        axis=-2,
    )
    branches = np.stack([np.eye(4), tf.rot_x(np.pi), tf.rot_y(np.pi), tf.rot_z(np.pi)])[:, :3, :3]
    for rs in (rots, branches):
        got = tf.quaternion_batch_from_rotations(rs)
        assert np.abs(got - _shepperd_quaternions(rs)).max() <= 2 * np.finfo(float).eps
        assert np.abs(np.linalg.norm(got, axis=1) - 1.0).max() <= 2 * np.finfo(float).eps
        assert (got[:, 3] >= 0.0).all()


def test_quaternion_rejects_non_orthonormal():
    with pytest.raises(ValueError):
        tf.quaternion_from_rotation(np.diag([2.0, 2.0, 2.0, 1.0]))


def test_quaternion_batch_matches_scalar(rng):
    rots = _random_rotations(rng, 64)
    batch = tf.quaternion_batch_from_rotations(rots)
    for i in range(64):
        np.testing.assert_allclose(batch[i], tf.quaternion_from_rotation(rots[i]), atol=1e-12)


def test_float32_dtype_preserved(rng):
    q = rng.uniform(-1, 1, size=(4, 2, 6)).astype(np.float32)
    t = tf.sixdof_batch_to_transforms(q)
    assert t.dtype == np.float32
    poses, _ = tf.pose_batch_from_transforms(t)
    assert poses.dtype == np.float32
    t2 = tf.sixdof_batch_to_transforms(poses)
    assert np.abs(t2 - t).max() < 1e-5


def test_generic_pose_extraction_matches_float(rng):
    pose = rng.uniform(-1, 1, size=6)
    t = tf.sixdof_to_transform(pose)
    poses, degenerate = tf.pose_batch_from_transforms(ad.DualArray(t, np.zeros((1, 4, 4))))
    assert poses.shape == (6,) and not degenerate
    np.testing.assert_allclose(poses.primal, pose, atol=1e-12)
    np.testing.assert_allclose(tf.pose_values_from_transform(t), pose, atol=1e-12)


def test_generic_quaternion_matches_float(rng):
    for r in _random_rotations(rng, 8):
        t = np.eye(4)
        t[:3, :3] = r
        q_gen = tf.quaternion_batch_from_rotations(ad.DualArray(t, np.zeros((1, 4, 4))))
        np.testing.assert_allclose(q_gen.primal, tf.quaternion_from_rotation(t), atol=1e-9)


@settings(max_examples=60, deadline=None)
@given(
    st.floats(-3.1, 3.1),
    st.floats(-1.4, 1.4),
    st.floats(-3.1, 3.1),
)
def test_rotation_roundtrip_property(alpha, beta, gamma):
    t = tf.sixdof_to_transform([0, 0, 0, alpha, beta, gamma])
    p = tf.pose_from_transform(t)
    np.testing.assert_allclose(tf.sixdof_to_transform(p.as_array()), t, atol=1e-10)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_quaternion_reconstruction_property(seed):
    r = _random_rotations(np.random.default_rng(seed), 1)[0]
    q = tf.quaternion_from_rotation(r)
    np.testing.assert_allclose(_quat_to_rotation(q), r, atol=1e-9)


def _pose_both_branches(ts):
    """The pose extraction with both gimbal branches computed for every row:
    the form pose_batch_from_transforms replaced, kept as its oracle."""
    cb = np.hypot(ts[..., 0, 0], ts[..., 1, 0])
    degenerate = ad.primal_of(cb) <= tf._GIMBAL_COS_TOL
    beta = np.arctan2(-ts[..., 2, 0], cb)
    alpha = np.where(degenerate, 0.0, np.arctan2(ts[..., 2, 1], ts[..., 2, 2]))
    gamma = np.where(
        degenerate,
        np.arctan2(-ts[..., 0, 1], ts[..., 1, 1]),
        np.arctan2(ts[..., 1, 0], ts[..., 0, 0]),
    )
    poses = np.stack([ts[..., 0, 3], ts[..., 1, 3], ts[..., 2, 3], alpha, beta, gamma], axis=-1)
    return poses, degenerate


def _bits(x):
    return np.ascontiguousarray(x).reshape(-1).view(np.uint8)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("rows", ["regular", "degenerate", "mixed"])
def test_pose_extraction_matches_both_branch_form(rows, dtype):
    """Computing the gimbal-lock branch only for a batch with a degenerate
    row changes no bit of any row, for floats and DualArrays."""
    rng = np.random.default_rng(11)
    params = rng.uniform(-1.0, 1.0, size=(40, 6))
    locked = {"regular": [], "degenerate": slice(None), "mixed": slice(None, None, 3)}[rows]
    params[locked, 4] = np.pi / 2
    params[locked, 4][::2] *= -1.0
    seeded = ad.seed_array(params.astype(dtype))
    for ts in (tf.sixdof_batch_to_transforms(params.astype(dtype)), tf.sixdof_batch_to_transforms(seeded)):
        (got, got_flag), (want, want_flag) = tf.pose_batch_from_transforms(ts), _pose_both_branches(ts)
        assert got_flag.tolist() == want_flag.tolist()
        assert want_flag.any() == (rows != "regular") and want_flag.all() == (rows == "degenerate")
        if isinstance(ts, ad.DualArray):
            assert got.tangent.dtype == want.tangent.dtype and got.tangent.shape == want.tangent.shape
            np.testing.assert_array_equal(_bits(got.tangent), _bits(want.tangent))
            got, want = got.primal, want.primal
        assert got.dtype == want.dtype == dtype and got.shape == want.shape
        np.testing.assert_array_equal(_bits(got), _bits(want))
