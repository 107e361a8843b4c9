import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diffkin import autodiff as ad
from diffkin import kinematics, naive, transforms, urdf
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
    out = kinematics.forward(eng, thetas.ravel())
    for row, (t1, t2) in zip(out, thetas):
        x = np.cos(t1) + np.cos(t1 + t2)
        y = np.sin(t1) + np.sin(t1 + t2)
        np.testing.assert_allclose(row[:3, 3], [x, y, 0.0], atol=1e-14)
    np.testing.assert_allclose(out[0], np.array([[1, 0, 0, 2], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]), atol=1e-15)


def test_matches_naive_oracle(mixed_chain, rng):
    b = 37
    eng = FkEngine(mixed_chain, batch_size=b)
    thetas = rng.uniform(-1.0, 1.0, size=b * eng.m)
    got = kinematics.forward(eng, thetas)
    want = np.array(naive.fk_batch(mixed_chain, thetas.reshape(b, eng.m).tolist()))
    assert np.abs(got - want).max() < 1e-12


def test_intermediates_consistent(mixed_chain, rng):
    b = 5
    eng = FkEngine(mixed_chain, batch_size=b)
    thetas = rng.uniform(-1.0, 1.0, size=b * eng.m)
    finals = kinematics.forward(eng, thetas)
    inters = kinematics.forward(eng, thetas, want_intermediates=True)
    assert inters.shape == (b, mixed_chain.n, 4, 4)
    np.testing.assert_array_equal(inters[:, -1], finals)
    want = naive.fk_batch(mixed_chain, thetas.reshape(b, eng.m).tolist(), want_intermediates=True)
    assert np.abs(inters - np.array(want)).max() < 1e-12


def test_blocked_batches_bitwise_identical(arm4_chain, rng):
    """Batches larger than the internal block size must not change results."""
    b = 700
    eng = FkEngine(arm4_chain, batch_size=b)
    thetas = rng.uniform(-2.0, 2.0, size=(b, eng.m))
    big = kinematics.forward(eng, thetas.ravel())
    one = FkEngine(arm4_chain, batch_size=1)
    for k in (0, 255, 256, 511, 512, 699):
        np.testing.assert_array_equal(big[k], kinematics.forward(one, thetas[k])[0])


def test_generic_path_matches_float(mixed_chain, rng):
    b = 3
    eng = FkEngine(mixed_chain, batch_size=b)
    thetas = rng.uniform(-1.0, 1.0, size=b * eng.m)
    flt = kinematics.forward(eng, thetas)
    obj = np.array([ad.lift(v) for v in thetas], dtype=object)
    gen = kinematics.forward(eng, obj)
    vals = np.array([[[ad.value_of(c) for c in row] for row in mat] for mat in gen])
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
    out = kinematics.forward(eng, [0.7])
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
        out = kinematics.forward(eng, [theta])[0]
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
    out = kinematics.forward(eng, [])
    assert out.shape == (3, 4, 4)
    want = np.array(naive.fk_single(chain, []))
    for k in range(3):
        np.testing.assert_allclose(out[k], want, atol=1e-15)


def test_empty_chain_is_identity(mixed):
    chain = urdf.extract_chain(mixed, "l2", "l2")
    eng = FkEngine(chain, batch_size=2)
    out = kinematics.forward(eng, [])
    np.testing.assert_array_equal(out, np.broadcast_to(np.eye(4), (2, 4, 4)))
    inter = kinematics.forward(eng, [], want_intermediates=True)
    assert inter.shape == (2, 0, 4, 4)


def test_shape_error_message(arm2r_chain):
    eng = FkEngine(arm2r_chain, batch_size=3)
    with pytest.raises(ShapeError, match="expected 6 joint values"):
        kinematics.forward(eng, [0.1, 0.2, 0.3])
    with pytest.raises(ShapeError, match="batch 3 x dof 2"):
        kinematics.forward(eng, np.zeros(7))


def test_nonfinite_theta_rejected(arm2r_chain):
    eng = FkEngine(arm2r_chain, batch_size=1)
    with pytest.raises(ValueError, match="non-finite"):
        kinematics.forward(eng, [np.nan, 0.0])


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
    out64 = kinematics.forward(eng64, thetas)
    out32 = kinematics.forward(eng32, thetas.astype(np.float32))
    assert out32.dtype == np.float32
    assert np.abs(out64 - out32).max() < 1e-5


def test_pipeline_stage_functions(arm2r_chain, rng):
    """scatter -> joint transforms -> combine -> scan equals forward."""
    b = 6
    eng = FkEngine(arm2r_chain, batch_size=b)
    thetas = rng.uniform(-2, 2, size=b * eng.m)
    q = kinematics.scatter_thetas(eng, thetas)
    tj = kinematics.joint_transforms(q)
    tlj = kinematics.combine_link_joint(eng, tj)
    cum = kinematics.scan_compose(tlj)
    np.testing.assert_allclose(cum[:, -1], kinematics.forward(eng, thetas), atol=1e-14)
    np.testing.assert_allclose(cum, kinematics.forward(eng, thetas, want_intermediates=True), atol=1e-14)


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
            pu, _ = transforms.pose_batch_from_transforms(kinematics.forward(single, up))
            pd, _ = transforms.pose_batch_from_transforms(kinematics.forward(single, dn))
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
    got = kinematics.forward(eng, thetas.ravel())
    want = np.array(naive.fk_batch(chain, thetas.tolist()))
    assert np.abs(got - want).max() < 1e-9
