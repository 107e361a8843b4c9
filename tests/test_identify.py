import numpy as np
import pytest

from diffkin import autodiff as ad
from diffkin import identify, kinematics, metrics, urdf
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
    """Each step makes exactly one dual pass; the float loss stays off the loop."""
    calls = {"dual": 0, "loss_value": 0}
    evaluate, loss_value = kinematics.FkEngine._evaluate, ParamEstimator.loss_value

    def counting_evaluate(self, thetas, *args, **kwargs):
        calls["dual"] += isinstance(thetas, ad.DualArray)
        return evaluate(self, thetas, *args, **kwargs)

    def counting_loss_value(self, *args):
        calls["loss_value"] += 1
        return loss_value(self, *args)

    monkeypatch.setattr(kinematics.FkEngine, "_evaluate", counting_evaluate)
    monkeypatch.setattr(ParamEstimator, "loss_value", counting_loss_value)
    res = identify.run_identification(
        cam_arm, "camera", "base", "camera", IdentifyConfig(batch_size=10, max_steps=max_steps)
    )
    assert res.status == status
    assert calls == {"dual": res.steps + 1, "loss_value": 0}


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
