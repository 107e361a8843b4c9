from dataclasses import replace

import numpy as np
import pytest

from diffkin import autodiff as ad
from diffkin import identify, kinematics, metrics, transforms, urdf
from diffkin.identify import IdentifyConfig, ParamEstimator, SampleGenerator


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
    """Each step evaluates the model once, as A M(p) B: a solve runs the
    estimator engine's column pass once, for the dataset's A and B, and no
    step makes a DualArray pass or calls the float loss."""
    calls = {"dual": 0, "estimator_pass": 0, "loss_value": 0}
    evaluate, column_pass, loss_value = kinematics.FkEngine._evaluate, kinematics.FkEngine._pass, ParamEstimator.loss_value

    def counting_evaluate(self, thetas, *args, **kwargs):
        calls["dual"] += isinstance(thetas, ad.DualArray)
        return evaluate(self, thetas, *args, **kwargs)

    def counting_pass(self, *args, **kwargs):
        calls["estimator_pass"] += self.m == 9  # j1 j2 j3 | six parameters
        return column_pass(self, *args, **kwargs)

    def counting_loss_value(self, *args):
        calls["loss_value"] += 1
        return loss_value(self, *args)

    monkeypatch.setattr(kinematics.FkEngine, "_evaluate", counting_evaluate)
    monkeypatch.setattr(kinematics.FkEngine, "_pass", counting_pass)
    monkeypatch.setattr(ParamEstimator, "loss_value", counting_loss_value)
    res = identify.run_identification(
        cam_arm, "camera", "base", "camera", IdentifyConfig(batch_size=10, max_steps=max_steps)
    )
    assert res.status == status
    assert res.steps > 1
    assert calls == {"dual": 0, "estimator_pass": 1, "loss_value": 0}


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


def test_loss_is_translation_plus_phi5_squared(cam_arm):
    thetas, targets = _dataset(cam_arm, 4, seed=6)
    est = ParamEstimator(cam_arm, "camera", "base", "camera", 4)
    est.params = np.array([0.1, 0.2, -0.1, 0.3, 0.0, -0.2])
    finals = est.engine.forward(est._flat_sub_thetas(thetas, est.params))
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


def test_estimator_rejects_off_chain_target(cam_arm):
    with pytest.raises(ValueError, match="not on the chain"):
        ParamEstimator(cam_arm, "camera", "base", "link2", 4)


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


def test_splice_of_mid_chain_joint(cam_arm):
    """link2's parent joint j2 has a dof of its own in mid-chain: the six
    parameters take its column, the sampled columns keep their order."""
    thetas, _ = _dataset(cam_arm, 5, seed=1)
    est = ParamEstimator(cam_arm, "link2", "base", "camera", 5)
    assert est.target_dofs == (1,)
    assert est.engine.m == 8  # j1 | six parameters | j3
    params = np.array([0.1, -0.2, 0.3, 0.4, -0.5, 0.6])
    flat = est._flat_sub_thetas(thetas, ad.seed_array(params))
    np.testing.assert_array_equal(flat.primal[:, [0, 7]], thetas[:, [0, 2]])
    np.testing.assert_array_equal(flat.primal[:, 1:7], np.tile(params, (5, 1)))
    np.testing.assert_array_equal(est._flat_sub_thetas(thetas, params), flat.primal)
    # tangent j is 1 on parameter column 1 + j and 0 everywhere else
    expected = np.zeros((6, 5, 8))
    for j in range(6):
        expected[j, :, 1 + j] = 1.0
    np.testing.assert_array_equal(flat.tangent, expected)


# Loss and gradient of the kept QR reduction against the DualArray pass
# through the whole chain, relative to max(1, loss) and max(1, |g|_inf),
# and its loss against the explicit residual sum of A M(p) B: the largest
# seen are 7.2e-16 (loss) and 1.7e-15 (gradient) at b <= 10, and 1.0e-15
# and 1.3e-14 at b = 513 (1.1e-15 against the explicit sum), growing with b
# as the batch sums do.
_ORACLE_REL = 1e-13


def _dual_loss_gradient(est, thetas, targets):
    """(loss, gradient) from one k=6 seed_array pass over the whole
    substituted chain and the vectorized loss on its DualArray."""
    thetas, targets = est._check_shapes(thetas, targets)
    loss = est._loss(est.engine._evaluate(est._flat_sub_thetas(thetas, ad.seed_array(est.params))), targets)
    return float(loss.primal), loss.tangent


def _explicit_loss(est, thetas, targets):
    """The loss summed over the (b, 4, 4) final transforms A M(p) B, the
    residual sum the kept reduction replaces."""
    head, tail = est._dataset(thetas, targets)[:2]
    finals = head @ transforms.sixdof_batch_to_transforms(est.params) @ tail
    e = finals[:, :3, 3] - targets[:, :3, 3]
    d = np.eye(3) - finals[:, :3, :3] @ targets[:, :3, :3].transpose(0, 2, 1)
    return ((e * e).sum() + (d * d).sum()) / len(finals)


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
    agrees with the DualArray pass through the whole chain at random
    parameters, to _ORACLE_REL * max(1, |g|_inf) in the gradient and
    _ORACLE_REL * max(1, loss) in the loss, and with the explicit residual
    sum of A M(p) B in the loss.  On mixed the
    substituted joint is the first, a mid-chain off-axis prismatic and an
    off-axis planar one, with a floating joint and aligned statics after it;
    513 rows span two blocks of A and B."""
    model = request.getfixturevalue(robot)
    rng = np.random.default_rng(batch_size)
    est = ParamEstimator(model, target, "base", end, batch_size)
    thetas, targets = _robot_dataset(model, est, end, batch_size, rng)
    for _ in range(4):
        est.params = rng.uniform(-1.5, 1.5, 6)
        want_loss, want = _dual_loss_gradient(est, thetas, targets)
        loss, grad = est.loss_gradient(thetas, targets)
        scale = max(1.0, np.abs(want).max())
        assert abs(loss - want_loss) <= _ORACLE_REL * max(1.0, want_loss)
        assert abs(loss - _explicit_loss(est, thetas, targets)) <= _ORACLE_REL * max(1.0, loss)
        assert np.abs(grad - want).max() <= _ORACLE_REL * scale
        assert grad.shape == (6,) and grad.dtype == np.float64


def _same(got, want):
    assert got[0] == want[0] and got[1].tobytes() == want[1].tobytes()


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
