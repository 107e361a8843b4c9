import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diffkin import autodiff as ad
from diffkin import metrics, transforms as tf


def _random_transform(rng):
    q = rng.normal(size=4)
    q /= np.linalg.norm(q)
    x, y, z, w = q
    t = np.eye(4)
    t[:3, :3] = [
        [1 - 2 * (y * y + z * z), 2 * (x * y - z * w), 2 * (x * z + y * w)],
        [2 * (x * y + z * w), 1 - 2 * (x * x + z * z), 2 * (y * z - x * w)],
        [2 * (x * z - y * w), 2 * (y * z + x * w), 1 - 2 * (x * x + y * y)],
    ]
    t[:3, 3] = rng.uniform(-5, 5, size=3)
    return t


def _oracle_phi5(t, t_hat):
    return np.linalg.norm(np.eye(3) - t[:3, :3] @ t_hat[:3, :3].T, "fro")


def _oracle_quat_pair(t, t_hat):
    q = tf.quaternion_from_rotation(t)
    qh = tf.quaternion_from_rotation(t_hat)
    return q, qh


def test_identity_pairs_are_zero(rng):
    for _ in range(10):
        t = _random_transform(rng)
        assert metrics.rotation_with_rmse(t, t) == 0.0
        assert metrics.phi2_loss(t, t) < 1e-12
        assert metrics.phi3_loss(t, t) < 1e-5  # arccos near 1 is ill-conditioned
        assert metrics.phi4_loss(t, t) < 1e-12
        assert metrics.phi5_loss(t, t) < 1e-12


def test_known_maxima():
    t = np.eye(4)
    t_hat = tf.rot_z(np.pi)
    assert abs(metrics.phi2_loss(t, t_hat) - np.sqrt(2.0)) < 1e-12
    assert abs(metrics.phi3_loss(t, t_hat) - np.pi / 2) < 1e-12
    assert abs(metrics.phi4_loss(t, t_hat) - 1.0) < 1e-12
    assert abs(metrics.phi5_loss(t, t_hat) - 2.0 * np.sqrt(2.0)) < 1e-12


def test_phi5_against_oracle(rng):
    for _ in range(50):
        t, t_hat = _random_transform(rng), _random_transform(rng)
        assert metrics.phi5_loss(t, t_hat) == pytest.approx(_oracle_phi5(t, t_hat), abs=1e-12)


def test_quaternion_forms_against_oracle(rng):
    for _ in range(50):
        t, t_hat = _random_transform(rng), _random_transform(rng)
        q, qh = _oracle_quat_pair(t, t_hat)
        dot = abs(float(q @ qh))
        assert metrics.phi2_loss(t, t_hat) == pytest.approx(
            min(np.linalg.norm(q - qh), np.linalg.norm(q + qh)), abs=1e-9
        )
        assert metrics.phi3_loss(t, t_hat) == pytest.approx(np.arccos(min(dot, 1.0)), abs=1e-6)
        assert metrics.phi4_loss(t, t_hat) == pytest.approx(1.0 - dot, abs=1e-9)


def test_phi1_matches_euler_difference(rng):
    t = tf.sixdof_to_transform([0, 0, 0, 0.2, 0.3, 0.4])
    t_hat = tf.sixdof_to_transform([1, 2, 3, 0.1, -0.2, 0.9])
    want = np.linalg.norm([0.2 - 0.1, 0.3 + 0.2, 0.4 - 0.9])
    assert metrics.rotation_with_rmse(t, t_hat) == pytest.approx(want, abs=1e-12)


def test_translation_ignored(rng):
    t = _random_transform(rng)
    t2 = t.copy()
    t2[:3, 3] += [10.0, -4.0, 2.5]
    assert metrics.phi2_loss(t, t2) < 1e-12
    assert metrics.phi5_loss(t, t2) < 1e-12
    assert metrics.rotation_with_rmse(t, t2) < 1e-12


def test_sign_flip_invariance_is_exact(rng):
    for _ in range(100):
        q = rng.normal(size=4)
        q /= np.linalg.norm(q)
        qh = rng.normal(size=4)
        qh /= np.linalg.norm(qh)
        assert metrics.phi2_quat(q, qh) == metrics.phi2_quat(q, -qh)
        assert metrics.phi3_quat(q, qh) == metrics.phi3_quat(q, -qh)
        assert metrics.phi4_quat(q, qh) == metrics.phi4_quat(q, -qh)


def test_batch_matches_scalar(rng):
    ts = np.stack([_random_transform(rng) for _ in range(16)])
    hats = np.stack([_random_transform(rng) for _ in range(16)])
    for fn in (metrics.rotation_with_rmse, metrics.phi2_loss, metrics.phi3_loss, metrics.phi4_loss, metrics.phi5_loss):
        batch = fn(ts, hats)
        assert batch.shape == (16,)
        for k in range(16):
            assert batch[k] == pytest.approx(fn(ts[k], hats[k]), abs=1e-9)


def test_shape_mismatch_rejected(rng):
    with pytest.raises(ValueError, match="shapes"):
        metrics.phi5_loss(np.eye(4), np.stack([np.eye(4)] * 2))


def test_ranges_hold_in_bulk(rng):
    ts = np.stack([_random_transform(rng) for _ in range(200)])
    hats = np.stack([_random_transform(rng) for _ in range(200)])
    assert (metrics.phi2_loss(ts, hats) <= np.sqrt(2.0) + 1e-12).all()
    assert (metrics.phi3_loss(ts, hats) <= np.pi / 2 + 1e-12).all()
    assert (metrics.phi4_loss(ts, hats) <= 1.0 + 1e-12).all()
    assert (metrics.phi5_loss(ts, hats) <= 2.0 * np.sqrt(2.0) + 1e-12).all()
    for fn in (metrics.phi2_loss, metrics.phi3_loss, metrics.phi4_loss, metrics.phi5_loss):
        assert (fn(ts, hats) >= 0.0).all()


def test_object_path_is_differentiable(rng):
    t = _random_transform(rng)
    t_hat = _random_transform(rng)

    def wrap(mat):
        return ad.DualArray(mat, np.zeros((1,) + mat.shape))

    for fn in (metrics.rotation_with_rmse, metrics.phi2_loss, metrics.phi3_loss, metrics.phi4_loss, metrics.phi5_loss):
        out = fn(wrap(t), wrap(t_hat))
        assert isinstance(out, ad.DualArray) and out.shape == ()
        assert out.primal == pytest.approx(fn(t, t_hat), abs=1e-6)


def test_phi5_gradient_flows(rng):
    """d phi5 / d theta through a rotation built from a seeded angle."""
    theta = ad.DualArray(np.array([0.0, 0.0, 0.0, 0.0, 0.0, 0.8]), np.eye(6)[5:])
    t = tf.sixdof_batch_to_transforms(theta)
    target = ad.DualArray(tf.rot_z(0.3), np.zeros((1, 4, 4)))
    loss = metrics.phi5_loss(t, target)
    h = 1e-6
    want = (
        metrics.phi5_loss(tf.rot_z(0.8 + h), tf.rot_z(0.3))
        - metrics.phi5_loss(tf.rot_z(0.8 - h), tf.rot_z(0.3))
    ) / (2 * h)
    assert loss.tangent[0] == pytest.approx(want, rel=1e-5)


@pytest.mark.parametrize("b", [1, 16])
def test_metrics_on_dual_arrays_match_central_differences(rng, b):
    """Every metric on DualArray transforms: primal bitwise equal to the
    float metric, tangents equal to central differences of the float metric.

    Rows 0 and 1 of a 16-batch compare a rotation with itself (the sqrt cap
    at 0; row 1 is the identity, where |q . qhat| ties with 1 exactly), and
    row 2 is gimbal-locked.
    """
    params = np.column_stack([rng.uniform(-1, 1, (b, 3)), rng.uniform(-np.pi, np.pi, (b, 3))])
    params_hat = np.column_stack([rng.uniform(-1, 1, (b, 3)), rng.uniform(-np.pi, np.pi, (b, 3))])
    if b > 1:
        params[1, 3:] = 0.0
        params_hat[:2] = params[:2]
        params[2, 4] = np.pi / 2
    t_hat = tf.sixdof_batch_to_transforms(params_hat)
    locked = tf.pose_batch_from_transforms(tf.sixdof_batch_to_transforms(params))[1]
    np.testing.assert_array_equal(np.flatnonzero(locked), [2] if b > 1 else [])
    h = 1e-6
    for fn in (metrics.rotation_with_rmse, metrics.phi2_loss, metrics.phi3_loss, metrics.phi4_loss, metrics.phi5_loss):
        dual = fn(tf.sixdof_batch_to_transforms(ad.seed_array(params)), t_hat)
        if b == 1:  # the single-transform form
            single = fn(tf.sixdof_batch_to_transforms(ad.seed_array(params[0])), t_hat[0])
            assert single.shape == () and single.primal == dual.primal[0]
            np.testing.assert_array_equal(single.tangent, dual.tangent[:, 0])
        np.testing.assert_array_equal(dual.primal, fn(tf.sixdof_batch_to_transforms(params), t_hat))
        assert np.isfinite(dual.tangent).all()
        for j in range(6):
            step = np.zeros(6)
            step[j] = h
            up = fn(tf.sixdof_batch_to_transforms(params + step), t_hat)
            down = fn(tf.sixdof_batch_to_transforms(params - step), t_hat)
            fd = (up - down) / (2 * h)
            # phi1's Euler extraction jumps across the gimbal lock, where no
            # central difference exists
            rows = ~locked if fn is metrics.rotation_with_rmse else slice(None)
            np.testing.assert_allclose(dual.tangent[j][rows], fd[rows], rtol=1e-6, atol=1e-7)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 100_000))
def test_symmetry_property(seed):
    rng = np.random.default_rng(seed)
    t, t_hat = _random_transform(rng), _random_transform(rng)
    for fn in (metrics.phi2_loss, metrics.phi3_loss, metrics.phi4_loss, metrics.phi5_loss):
        assert fn(t, t_hat) == pytest.approx(fn(t_hat, t), abs=1e-9)
