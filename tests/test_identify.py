import json
import math
from dataclasses import replace

import numpy as np
import pytest

from diffkin import autodiff as ad
from diffkin import cli, identify, kinematics, metrics, transforms, urdf
from diffkin.identify import IdentifyConfig, ParamEstimator, SampleGenerator

from conftest import CAM_ARM


def test_recover_fixed_mount(cam_arm):
    res = identify.run_identification(
        cam_arm, "camera", "base", "camera", IdentifyConfig(batch_size=10, seed=0)
    )
    assert res.status == "converged"
    assert res.steps <= 5000
    assert res.final_loss < 1e-8
    np.testing.assert_allclose(res.init_hint, [0.3, 0, 0.1, 0, 0, np.pi / 4], atol=1e-12)
    assert res.param_error.max() < 1e-3
    assert res.pose_error.max() < 1e-3
    assert res.seconds > 0


def test_recover_revolute_parent_joint(cam_arm):
    """Replacing a 1-dof joint: the six parameters absorb its origin."""
    res = identify.run_identification(
        cam_arm, "link2", "base", "camera", IdentifyConfig(batch_size=10, seed=3)
    )
    assert res.status == "converged"
    assert res.param_error.max() < 1e-3
    assert res.pose_error.max() < 1e-3


@pytest.mark.parametrize("target", ["camera", "link2"])
def test_single_configuration_identifies_mount(target, cam_arm):
    """A full observed pose gives six residual directions for six unknowns,
    so one configuration already pins the parameters."""
    res = identify.run_identification(cam_arm, target, "base", "camera", IdentifyConfig(batch_size=1))
    assert res.status == "converged"
    assert res.param_error.max() < 1e-3


@pytest.mark.parametrize("max_steps, status", [(5000, "converged"), (3, "budget_exhausted")])
def test_one_model_evaluation_per_step(max_steps, status, cam_arm, monkeypatch):
    """Each step evaluates the model once, as A M(p) B: a solve builds one
    FkEngine, which samples the dataset with one finals pass and splits the
    chain into A and B with one intermediates pass, and no step makes a
    DualArray pass or calls the explicit loss."""
    calls, passes = {"engines": 0, "dual": 0, "loss_value": 0}, []
    init, forward, column_pass = kinematics.FkEngine.__init__, kinematics.FkEngine.forward, kinematics.FkEngine._pass
    loss_value = ParamEstimator.loss_value

    def counting_init(self, *args, **kwargs):
        calls["engines"] += 1
        return init(self, *args, **kwargs)

    def counting_forward(self, thetas, *args, **kwargs):
        calls["dual"] += isinstance(thetas, ad.DualArray)
        return forward(self, thetas, *args, **kwargs)

    def counting_pass(self, ws, flat2d, out, kind):
        passes.append(kind)
        return column_pass(self, ws, flat2d, out, kind)

    def counting_loss_value(self, *args):
        calls["loss_value"] += 1
        return loss_value(self, *args)

    monkeypatch.setattr(kinematics.FkEngine, "__init__", counting_init)
    monkeypatch.setattr(kinematics.FkEngine, "forward", counting_forward)
    monkeypatch.setattr(kinematics.FkEngine, "_pass", counting_pass)
    monkeypatch.setattr(ParamEstimator, "loss_value", counting_loss_value)
    res = identify.run_identification(
        cam_arm, "camera", "base", "camera", IdentifyConfig(batch_size=10, max_steps=max_steps)
    )
    assert res.status == status
    assert res.steps > 1
    assert calls == {"engines": 1, "dual": 0, "loss_value": 0}
    assert passes == [("finals", None), ("intermediates", None)]


@pytest.mark.parametrize("target", ["camera", "link2"])
def test_solve_checks_its_dataset_once(target, cam_arm, monkeypatch):
    """A solve checks its dataset once: the steps pass back the estimator's
    read-only copies, which are not checked again, and the result is bitwise
    that of a solve whose every step re-checks fresh copies by content."""
    cfg = IdentifyConfig(batch_size=10, seed=4)
    checks = []
    check_shapes, step = ParamEstimator._check_shapes, ParamEstimator.step

    def counting_check_shapes(self, *args):
        checks.append(args)
        return check_shapes(self, *args)

    def rechecking_step(self, thetas, targets, grad):
        return step(self, thetas.copy(), targets.copy(), grad)

    monkeypatch.setattr(ParamEstimator, "_check_shapes", counting_check_shapes)
    once = identify.run_identification(cam_arm, target, "base", "camera", cfg)
    assert len(checks) == 1
    monkeypatch.setattr(ParamEstimator, "step", rechecking_step)
    every = identify.run_identification(cam_arm, target, "base", "camera", cfg)
    assert len(checks) == 2 + every.steps
    assert (once.status, once.steps, once.final_loss) == (every.status, every.steps, every.final_loss)
    for name in ("params", "pose_error", "param_error"):
        assert getattr(once, name).tobytes() == getattr(every, name).tobytes()


def _numpy_adam_step(self, thetas, target_poses, grad):
    """ParamEstimator.step as numpy arithmetic on (6,) arrays, the update
    the float loop replaced; M(p) comes from the batch kernel, which runs
    on a batch of more than one row, and the gradient norm is checked to be
    np.linalg.norm's."""
    assert float(np.linalg.norm(grad)) == math.sqrt(grad.dot(grad))
    moments = self.__dict__.setdefault("numpy_moments", [np.zeros(6), np.zeros(6)])
    self.steps_taken += 1
    t = self.steps_taken
    moments[0] = 0.9 * moments[0] + 0.1 * grad
    moments[1] = 0.999 * moments[1] + 0.001 * grad * grad
    m_hat = moments[0] / (1.0 - 0.9**t)
    v_hat = moments[1] / (1.0 - 0.999**t)
    self.params = self.params - identify.LEARNING_RATE * m_hat / (np.sqrt(v_hat) + 1e-8)
    return self.loss_gradient(thetas, target_poses)


def _batch_kernel_transform(params):
    return transforms.sixdof_batch_to_transforms(np.stack([params, params]))[0]


def test_float_adam_is_the_numpy_update(cam_arm, monkeypatch):
    """Every solve on the grid (three targets, seeds 0-9, b = 1, 10, 100)
    is bitwise the solve whose steps run the numpy update on (6,) arrays
    and build M(p) with the batch kernel: params, pose and param errors,
    steps, status and final loss."""
    solves = {}
    for reference in (False, True):
        if reference:
            monkeypatch.setattr(ParamEstimator, "step", _numpy_adam_step)
            monkeypatch.setattr(identify, "sixdof_batch_to_transforms", _batch_kernel_transform)
        for target in ("camera", "link2", "link3"):
            for seed in range(10):
                for b in (1, 10, 100):
                    res = identify.run_identification(cam_arm, target, "base", "camera", IdentifyConfig(batch_size=b, seed=seed))
                    key = (target, seed, b)
                    got = (res.params.tobytes(), res.pose_error.tobytes(), res.param_error.tobytes(), res.steps, res.status, res.final_loss)
                    assert solves.setdefault(key, got) == got, key
    assert len(solves) == 90


def test_budget_exhausted(cam_arm):
    res = identify.run_identification(
        cam_arm, "camera", "base", "camera", IdentifyConfig(batch_size=4, max_steps=3)
    )
    assert res.status == "budget_exhausted"
    assert res.steps == 3


def test_deterministic_given_seed(cam_arm):
    cfg = IdentifyConfig(batch_size=6, seed=11, max_steps=200)
    a = identify.run_identification(cam_arm, "camera", "base", "camera", cfg)
    b = identify.run_identification(cam_arm, "camera", "base", "camera", cfg)
    np.testing.assert_array_equal(a.params, b.params)
    assert a.steps == b.steps and a.final_loss == b.final_loss


def _dataset(cam_arm, batch_size, seed=0):
    chain = urdf.extract_chain(cam_arm, "base", "camera")
    gen = SampleGenerator(kinematics.FkEngine(chain, batch_size), np.random.default_rng(seed))
    return gen.sample_batch()


def test_loss_zero_at_truth(cam_arm):
    thetas, targets = _dataset(cam_arm, 5)
    est = ParamEstimator(cam_arm, "camera", "base", "camera", 5)
    est.params = np.array([0.3, 0, 0.1, 0, 0, np.pi / 4])
    assert est.loss_value(thetas, targets) < 1e-20
    # the kept reduction's loss is a sum of squares, not a difference
    value, _ = est.loss_gradient(thetas, targets)
    assert 0 <= value < 1e-20


@pytest.mark.parametrize("target", ["camera", "link2"])
def test_loss_is_translation_plus_phi5_squared(target, cam_arm):
    """On the substituted chain's final transforms (the oracle's)."""
    thetas, targets = _dataset(cam_arm, 4, seed=6)
    est = ParamEstimator(cam_arm, target, "base", "camera", 4)
    est.params = np.array([0.1, 0.2, -0.1, 0.3, 0.0, -0.2])
    finals = _substituted_finals(cam_arm, target, "camera", thetas, est.params)
    dp = finals[:, :3, 3] - targets[:, :3, 3]
    want = (dp * dp).sum(axis=1).mean() + (metrics.phi5_loss(finals, targets) ** 2).mean()
    assert est.loss_value(thetas, targets) == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("target", ["camera", "link2"])
def test_gradient_matches_finite_differences(target, cam_arm):
    """camera's parameters move the end frame last; link2's sit mid-chain,
    so their twists are carried past j3 and the camera mount."""
    thetas, targets = _dataset(cam_arm, 4, seed=5)
    est = ParamEstimator(cam_arm, target, "base", "camera", 4)
    est.params = np.array([0.1, -0.2, 0.05, 0.3, -0.1, 0.5])
    _, grad = est.loss_gradient(thetas, targets)
    h = 1e-6
    for j in range(6):
        saved = est.params[j]
        est.params[j] = saved + h
        up = est.loss_value(thetas, targets)
        est.params[j] = saved - h
        dn = est.loss_value(thetas, targets)
        est.params[j] = saved
        assert grad[j] == pytest.approx((up - dn) / (2 * h), rel=1e-5, abs=1e-9)


def test_gradient_value_matches_loss_value(cam_arm):
    thetas, targets = _dataset(cam_arm, 3, seed=8)
    est = ParamEstimator(cam_arm, "camera", "base", "camera", 3)
    est.params = np.array([0.2, 0.1, -0.3, 0.0, 0.4, -0.2])
    value, _ = est.loss_gradient(thetas, targets)
    assert value == pytest.approx(est.loss_value(thetas, targets), rel=1e-12)


def test_first_step_decreases_loss(cam_arm):
    thetas, targets = _dataset(cam_arm, 8, seed=2)
    est = ParamEstimator(cam_arm, "camera", "base", "camera", 8)
    before, grad = est.loss_gradient(thetas, targets)
    after, next_grad = est.step(thetas, targets, grad)
    assert after < before
    assert est.steps_taken == 1
    # the returned gradient is the one at the updated parameters
    _, want = est.loss_gradient(thetas, targets)
    assert next_grad.tobytes() == want.tobytes()


def test_sample_generator_respects_limits_and_pins(cam_arm):
    chain = urdf.extract_chain(cam_arm, "base", "camera")
    gen = SampleGenerator(
        kinematics.FkEngine(chain, 200), np.random.default_rng(0), zero_dofs=(1,)
    )
    s = gen.joint_samples()
    assert s.shape == (200, 3)
    assert (np.abs(s[:, 0]) <= 2.9).all()
    assert (s[:, 1] == 0.0).all()
    assert (np.abs(s[:, 2]) <= 2.0).all()


def test_sample_batch_poses_are_forward(cam_arm):
    chain = urdf.extract_chain(cam_arm, "base", "camera")
    gen = SampleGenerator(kinematics.FkEngine(chain, 7), np.random.default_rng(4))
    thetas, poses = gen.sample_batch()
    assert thetas.shape == (7, 3) and poses.shape == (7, 4, 4)
    np.testing.assert_allclose(
        poses, gen.engine.forward(thetas.ravel()), atol=0
    )


def test_config_from_mapping_roundtrip():
    cfg = IdentifyConfig.from_mapping({"batch_size": 3, "max_steps": 40, "seed": 9})
    assert cfg.seed == 9
    assert cfg.batch_size == 3
    assert cfg.max_steps == 40
    assert IdentifyConfig.from_mapping({}) == IdentifyConfig()


@pytest.mark.parametrize(
    "key, value",
    [("batch_size", 0), ("max_steps", -3), ("seed", -1), ("seed", "1"), ("max_steps", True), ("batch_size", 1.5)],
)
def test_config_rejects_out_of_range_or_non_integer(key, value):
    """Checked on construction, so replace() cannot bypass it either; a
    numpy integer is an integer, as for FkEngine's batch_size."""
    with pytest.raises(ValueError, match=key):
        IdentifyConfig(**{key: value})
    with pytest.raises(ValueError, match=key):
        replace(IdentifyConfig(), **{key: value})
    assert replace(IdentifyConfig(), max_steps=0, seed=0, batch_size=1).max_steps == 0
    assert replace(IdentifyConfig(), **{key: np.int64(7)}) == replace(IdentifyConfig(), **{key: 7})


def test_config_from_mapping_rejects_unknown():
    with pytest.raises(ValueError, match="stepsize"):
        IdentifyConfig.from_mapping({"stepsize": 0.1})


@pytest.mark.parametrize(
    "target, end, error, match, code",
    [("base", "camera", urdf.ChainError, "is the root and has no parent joint", 3),
     ("ghost", "camera", urdf.ChainError, "unknown link", 3),
     ("camera", "ghost", urdf.ChainError, "unknown link", 3),
     ("camera", "link2", ValueError, "not on the chain", 4)],
)
def test_estimator_and_cli_refuse_bad_targets(target, end, error, match, code, cam_arm, capsys, tmp_path):
    """A root or unknown target link and an unknown chain end are ChainErrors
    (exit 3), a target joint off the chain a ValueError (exit 4), from the
    estimator and from ``diffkin identify`` alike."""
    with pytest.raises(error, match=match) as raised:
        ParamEstimator(cam_arm, target, "base", end, 4)
    assert isinstance(raised.value, urdf.ChainError) == (error is urdf.ChainError)
    urdf_path, cfg = tmp_path / "cam.urdf", tmp_path / "id.json"
    urdf_path.write_text(CAM_ARM)
    cfg.write_text(json.dumps({"target_link": target, "base": "base", "end": end}))
    assert cli.main(["identify", str(urdf_path), str(cfg)]) == code
    out, err = capsys.readouterr()
    assert out == "" and match in err


def test_optimizer_key_is_rejected():
    # Adam is the one update rule; there is no knob to choose another
    with pytest.raises(ValueError, match="optimizer"):
        IdentifyConfig.from_mapping({"optimizer": "adam"})


def test_shape_validation(cam_arm):
    thetas, targets = _dataset(cam_arm, 4)
    est = ParamEstimator(cam_arm, "camera", "base", "camera", 4)
    with pytest.raises(ValueError, match="joint values"):
        est.loss_value(np.zeros((4, 5)), targets)
    with pytest.raises(ValueError, match="target poses"):
        est.loss_value(thetas, targets[:2])


@pytest.mark.parametrize("key", ["target_link", "base", "end"])
def test_target_keys_are_not_config_fields(key):
    # the target and the chain are run_identification's arguments only
    with pytest.raises(ValueError, match=key):
        IdentifyConfig.from_mapping({key: "camera"})


def test_num_configurations_key_is_rejected():
    # the dataset size is batch_size; there is no second knob for it
    with pytest.raises(ValueError, match="num_configurations"):
        IdentifyConfig.from_mapping({"num_configurations": 12})


# Loss and gradient of the kept QR reduction against the DualArray pass
# through the whole substituted chain, relative to max(1, loss) and
# max(1, |g|_inf), and its loss against loss_value, the explicit loss of
# A M(p) B: the largest seen are 1.2e-15 (loss) and 2.8e-15 (gradient) at
# b <= 10, and 1.5e-15 and 1.1e-14 at b = 513 (1.2e-15 against
# loss_value), growing with b as the batch sums do.
_ORACLE_REL = 1e-13


def _substituted_finals(model, target, end, thetas, params):
    """The oracle's final transforms: the chain base -> end with ``target``'s
    parent joint substituted by a floating joint at zero origin
    (urdf.substitute_link_with_joint), its six theta columns spliced in
    place of the joint's own with ``params`` (floats or a DualArray of six),
    evaluated by one forward pass."""
    joint = model.parent_joint_of(target).name
    chain = urdf.extract_chain(model, "base", end)
    sub_chain = urdf.extract_chain(urdf.substitute_link_with_joint(model, target), "base", end)
    sub, orig = ([j.name for j, _ in c.dofs] for c in (sub_chain, chain))
    kept = [np.array([c for c, name in enumerate(names) if name != joint], dtype=np.intp) for names in (sub, orig)]
    spliced = np.empty((len(thetas), len(sub)), dtype=params.dtype, like=params)
    spliced[:, kept[0]] = thetas[:, kept[1]]
    spliced[:, sub.index(joint) : sub.index(joint) + 6] = params
    return kinematics.FkEngine(sub_chain, len(thetas)).forward(spliced)


def _dual_loss_gradient(model, target, end, thetas, targets, params):
    """(loss, gradient) at ``params`` from one k=6 seed_array pass over the
    whole substituted chain (_substituted_finals) and the vectorized loss on
    its DualArray."""
    finals = _substituted_finals(model, target, end, thetas, ad.seed_array(params))
    dp = finals[:, :3, 3] - targets[:, :3, 3]
    loss = (dp * dp).sum(axis=1).mean() + metrics.phi5_squared_batch(finals, targets).mean()
    return float(loss.primal), loss.tangent


def _robot_dataset(model, est, end, batch_size, rng):
    chain = urdf.extract_chain(model, "base", end)
    gen = SampleGenerator(kinematics.FkEngine(chain, batch_size), rng, zero_dofs=est.target_dofs)
    return gen.sample_batch()


@pytest.mark.parametrize(
    "robot, end, target",
    [("cam_arm", "camera", "camera"), ("cam_arm", "camera", "link2"), ("cam_arm", "camera", "link1"),
     ("arm4", "tool", "l1"), ("arm4", "tool", "tool"),
     ("mixed", "l6", "l1"), ("mixed", "l6", "l2"), ("mixed", "l6", "l4")],
)
@pytest.mark.parametrize("batch_size", [1, 10, 513])
def test_closed_form_gradient_matches_dual_oracle(robot, end, target, batch_size, request):
    """``loss_gradient`` (the kept QR reduction, closed-form gradient)
    agrees with the DualArray pass through the whole substituted chain (the
    oracle) at random parameters, to _ORACLE_REL * max(1, |g|_inf) in the
    gradient and _ORACLE_REL * max(1, loss) in the loss, and with
    loss_value, the explicit loss of A M(p) B, in the loss.  On mixed the
    target joint is the first, a mid-chain off-axis prismatic and an
    off-axis planar one, with a floating joint and aligned statics after it.
    A and B come from one 4096-row block; 513 rows span two of the oracle's
    512-row tangent blocks.  Larger b is not taken: the QR's sums grow with
    b, and reached 1.03e-13 at b = 4140 on arm4 tool."""
    model = request.getfixturevalue(robot)
    rng = np.random.default_rng(batch_size)
    est = ParamEstimator(model, target, "base", end, batch_size)
    thetas, targets = _robot_dataset(model, est, end, batch_size, rng)
    for _ in range(4):
        est.params = rng.uniform(-1.5, 1.5, 6)
        want_loss, want = _dual_loss_gradient(model, target, end, thetas, targets, est.params)
        loss, grad = est.loss_gradient(thetas, targets)
        scale = max(1.0, np.abs(want).max())
        assert abs(loss - want_loss) <= _ORACLE_REL * max(1.0, want_loss)
        assert abs(loss - est.loss_value(thetas, targets)) <= _ORACLE_REL * max(1.0, loss)
        assert np.abs(grad - want).max() <= _ORACLE_REL * scale
        assert grad.shape == (6,) and grad.dtype == np.float64


def _same(got, want):
    assert got[0] == want[0] and got[1].tobytes() == want[1].tobytes()


# A S_i B against forward's final, in units of eps times max(1, max |entry|),
# and B against the identity at the chain's last segment, in eps: the largest
# seen are 5.9 and 7.0, both at b = _BLOCK_ROWS + 44 on arm4 tool.
_SPLIT_ULPS = 16


@pytest.mark.parametrize(
    "robot, end, target",
    [("cam_arm", "camera", "link1"), ("cam_arm", "camera", "link2"), ("cam_arm", "camera", "camera"),
     ("arm4", "tool", "l1"), ("arm4", "tool", "tool"), ("mixed", "l6", "l4")],
)
@pytest.mark.parametrize("batch_size", [1, 10, kinematics._BLOCK_ROWS + 44])
def test_dataset_splits_the_chain_at_the_target(robot, end, target, batch_size, request):
    """The dataset's A and B come from forward's intermediates with the
    target joint's own dof at zero: A is exactly the identity at segment 0
    (link1, l1) and bitwise intermediate i - 1 elsewhere, B is the identity
    within _SPLIT_ULPS at the last segment (camera, tool), and A S_i B, S_i
    the joint's origin, is forward's final within _SPLIT_ULPS; at
    _BLOCK_ROWS + 44 rows the pass runs two blocks.  Values in the target's
    own theta columns (one on link1, link2 and l1, two on mixed's planar l4)
    change no bit of loss_gradient."""
    model = request.getfixturevalue(robot)
    rng = np.random.default_rng(batch_size)
    est = ParamEstimator(model, target, "base", end, batch_size)
    thetas, targets = _robot_dataset(model, est, end, batch_size, rng)
    head, tail = est._dataset(thetas, targets)[2:4]
    inters = est.engine.forward(thetas, want_intermediates=True)
    i = [joint.name for joint in est.chain.joints].index(est.target_joint)
    want_head = np.broadcast_to(np.eye(4) if i == 0 else inters[:, i - 1], head.shape)
    assert np.ascontiguousarray(head).tobytes() == np.ascontiguousarray(want_head).tobytes()
    eps = np.finfo(np.float64).eps
    if i == est.chain.n - 1:
        assert np.abs(tail - np.eye(4)).max() <= _SPLIT_ULPS * eps
    finals = inters[:, -1]
    split = head @ transforms.sixdof_batch_to_transforms(est.init_hint) @ tail
    assert np.abs(split - finals).max() <= _SPLIT_ULPS * eps * max(1.0, np.abs(finals).max())

    est.params = rng.uniform(-1.5, 1.5, 6)
    want = est.loss_gradient(thetas, targets)
    moved, dofs = thetas.copy(), list(est.target_dofs)
    moved[:, dofs] = rng.uniform(-1.0, 1.0, (batch_size, len(dofs)))
    assert len(dofs) == (0 if i == est.chain.n - 1 else 2 if robot == "mixed" else 1)
    _same(est.loss_gradient(moved, targets), want)


def test_kept_dataset_follows_its_content(cam_arm):
    """A and B are kept between calls only while thetas and targets are equal
    by content: a second dataset, and an in-place edit of either array after
    a call, give a fresh estimator's (loss, gradient) bit for bit."""
    est = ParamEstimator(cam_arm, "link2", "base", "camera", 6)
    params = np.array([0.1, -0.2, 0.05, 0.3, -0.1, 0.5])

    def fresh(thetas, targets):
        other = ParamEstimator(cam_arm, "link2", "base", "camera", 6)
        other.params = params.copy()
        return other.loss_gradient(thetas, targets)

    est.params = params.copy()
    thetas, targets = _robot_dataset(cam_arm, est, "camera", 6, np.random.default_rng(0))
    _same(est.loss_gradient(thetas, targets), fresh(thetas, targets))
    thetas2, targets2 = _robot_dataset(cam_arm, est, "camera", 6, np.random.default_rng(1))
    _same(est.loss_gradient(thetas2, targets2), fresh(thetas2, targets2))
    _same(est.loss_gradient(thetas, targets), fresh(thetas, targets))
    before = est.loss_gradient(thetas, targets)
    thetas[2, 0] += 0.25
    _same(est.loss_gradient(thetas, targets), fresh(thetas, targets))
    assert est.loss_gradient(thetas, targets)[0] != before[0]
    before = est.loss_gradient(thetas, targets)
    targets[3, :3, 3] += 0.01
    _same(est.loss_gradient(thetas, targets), fresh(thetas, targets))
    assert est.loss_gradient(thetas, targets)[0] != before[0]


@pytest.mark.parametrize("row, col, value", [(0, 3, np.inf), (1, 0, np.nan), (2, 2, -np.inf)])
def test_non_finite_target_is_refused_without_a_warning(row, col, value, cam_arm):
    """A non-finite target entry, in the translation or the rotation block,
    is the non-finite loss error; no RuntimeWarning (an error under the
    suite's warning filter) comes from the products or the QR, and nothing
    is kept."""
    est = ParamEstimator(cam_arm, "camera", "base", "camera", 4)
    thetas, targets = _dataset(cam_arm, 4)
    bad = targets.copy()
    bad[1, row, col] = value
    with pytest.raises(ValueError, match="non-finite identification loss"):
        est.loss_gradient(thetas, bad)
    assert est._kept is None


def test_overflowing_loss_is_refused_without_a_warning(cam_arm):
    """Finite targets at 1e200 make a finite model, so the dataset is kept,
    but a loss that overflows: loss_gradient and loss_value both raise the
    non-finite loss error, and no RuntimeWarning (an error under the suite's
    warning filter) comes from their products."""
    est = ParamEstimator(cam_arm, "camera", "base", "camera", 3)
    thetas, targets = _dataset(cam_arm, 3)
    far = np.full_like(targets, 1e200)
    for loss in (est.loss_gradient, est.loss_value):
        with pytest.raises(ValueError, match="non-finite identification loss"):
            loss(thetas, far)
        assert est._kept is not None


def test_kept_dataset_keeps_the_input_refusals(cam_arm):
    """After A and B are kept, loss_gradient still refuses what the theta
    rule and the target shape refuse (test_theta_shape_is_flat_or_batch_by_dof),
    and a non-finite target."""
    b = 4
    est = ParamEstimator(cam_arm, "camera", "base", "camera", b)
    thetas, targets = _dataset(cam_arm, b)
    est.loss_gradient(thetas, targets)
    nan = thetas.copy()
    nan[2, 1] = np.nan
    refused = [
        (thetas.T.copy(), kinematics.ShapeError, r"got shape \(3, 4\)"),
        (thetas.reshape(2, 6), kinematics.ShapeError, r"got shape \(2, 6\)"),
        (thetas[None], kinematics.ShapeError, r"got shape \(1, 4, 3\)"),
        (nan, ValueError, "non-finite"),
        (thetas + 1j, TypeError, "dtype complex128"),
        (thetas.astype(str), TypeError, "dtype <U"),
        (thetas > 0, TypeError, "dtype bool"),
    ]
    for bad, error, match in refused:
        with pytest.raises(error, match=match):
            est.loss_gradient(bad, targets)
    with pytest.raises(ValueError, match="target poses"):
        est.loss_gradient(thetas, targets[:2])
    with pytest.raises(TypeError, match="dtype bool"):
        est.loss_gradient(thetas, targets > 0)
    bad_targets = targets.copy()
    bad_targets[1, 0, 3] = np.inf
    with pytest.raises(ValueError, match="non-finite identification loss"):
        est.loss_gradient(thetas, bad_targets)
    # the kept dataset is unchanged by the refused calls
    _same(est.loss_gradient(thetas, targets), ParamEstimator(cam_arm, "camera", "base", "camera", b).loss_gradient(thetas, targets))
