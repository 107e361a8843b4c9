"""Kinematic model identification.

Protocol: a suspect link's parent joint is replaced by a zero-initialized
Floating (6-DoF) joint; end-effector poses measured on the true robot (here:
generated from the unmodified model) supervise Adam (Kingma & Ba 2015) on the
six parameters until the substituted chain reproduces the measurements.  The
parent joint's original origin is kept as the initialization hint, which for
an identifiable geometry is also the ground truth the estimate should reach.

If the replaced joint had degrees of freedom of its own, those are subsumed
by the Floating joint and held at zero while sampling: a per-configuration
joint motion cannot be explained by one constant 6-DoF transform.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .kinematics import FkEngine, _theta_rows
from .metrics import phi5_squared_batch
from .transforms import pose_batch_from_transforms
from .urdf import RobotModel, extract_chain, substitute_link_with_joint

__all__ = [
    "IdentifyConfig",
    "IdentificationResult",
    "SampleGenerator",
    "ParamEstimator",
    "run_identification",
]


# Adam's step on the six parameters; the cam_arm camera solve takes 143 steps.
LEARNING_RATE = 0.02
# Converged once the post-update loss is below this: a 1e-4 translation
# residual, well inside sub-millimetre accuracy.
EPSILON = 1e-8
# Converged also once the pre-update gradient norm is below this: the
# parameters sit at a stationary point that further steps cannot leave.
GRAD_EPSILON = 1e-10


# Smallest accepted value of each IdentifyConfig field.
_CONFIG_MINIMUM = {"batch_size": 1, "max_steps": 0, "seed": 0}


@dataclass(frozen=True)
class IdentifyConfig:
    batch_size: int = 10
    max_steps: int = 5000
    seed: int = 0

    def __post_init__(self):
        for key, low in _CONFIG_MINIMUM.items():
            value = getattr(self, key)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"identification config key {key!r} must be an integer, got {value!r}")
            if value < low:
                raise ValueError(f"identification config key {key!r} must be at least {low}, got {value}")

    @classmethod
    def from_mapping(cls, mapping):
        unknown = set(mapping) - set(cls.__dataclass_fields__)
        if unknown:
            raise ValueError(f"unknown identification config keys {sorted(unknown)!r}")
        return cls(**mapping)


@dataclass(frozen=True)
class IdentificationResult:
    params: np.ndarray  # estimated six-vector [x, y, z, alpha, beta, gamma]
    init_hint: np.ndarray  # the replaced joint's original origin
    steps: int
    status: str  # 'converged' | 'budget_exhausted'
    final_loss: float
    pose_error: np.ndarray  # per-axis max |pose - target pose| over the dataset
    param_error: np.ndarray  # per-axis |params - init_hint| (angles wrapped)
    seconds: float


def _wrap_angle(d):
    return (np.asarray(d) + np.pi) % (2.0 * np.pi) - np.pi


# -- sample generation -------------------------------------------------------


@dataclass
class SampleGenerator:
    """Draws joint configurations and their ground-truth end poses.

    Per-dof ranges come from URDF limits where present, [-pi, pi) otherwise
    (also for prismatic dof; a sampling convention, not a physical claim).
    """

    engine: FkEngine
    rng: np.random.Generator
    zero_dofs: tuple = ()

    def __post_init__(self):
        limits = [joint.limits for joint, _ in self.engine.chain.dofs]
        self._lo = np.array([-np.pi if lim is None else lim.lower for lim in limits])
        self._hi = np.array([np.pi if lim is None else lim.upper for lim in limits])

    def joint_samples(self):
        """One (b, m) batch of configurations."""
        b, m = self.engine.batch_size, self.engine.m
        samples = self.rng.uniform(self._lo, self._hi, size=(b, m)) if m else np.zeros((b, 0))
        for j in self.zero_dofs:
            samples[:, j] = 0.0
        return samples

    def sample_batch(self):
        """(thetas, poses): configurations plus their exact forward transforms."""
        thetas = self.joint_samples()
        return thetas, self.engine.forward(thetas)


# -- estimation --------------------------------------------------------------


class ParamEstimator:
    """Adam estimator for one substituted joint's six parameters.

    The loss is the batch mean of squared translation error plus the squared
    Frobenius deviation of the rotation (the square of the phi5 metric, so
    the surface is smooth at the optimum).  The parameters start at zero.
    ``loss_gradient`` seeds the six parameters as the tangents of a
    DualArray, evaluates the substituted chain on it (the six floating-joint
    factors' twists give the transforms' derivatives, see kinematics) and the
    same vectorized loss on the result.  ``step`` applies one Adam update and
    makes that one dual pass at the new parameters, so each step evaluates
    the model once.  Only the six parameters ever change; sampled joint
    values are inputs.

    The estimator owns the substituted chain's layout, built from both
    chains' dofs: its theta columns are the original chain's, with the
    replaced joint's ``target_dofs`` columns (original-chain offsets) swapped
    for the six parameters.  ``loss_value`` and ``loss_gradient`` read b
    rows of the original chain's m dofs (see kinematics).
    """

    def __init__(
        self,
        model: RobotModel,
        target_link: str,
        base: str,
        end: str,
        batch_size: int,
    ):
        model_sub = substitute_link_with_joint(model, target_link)
        self.target_joint = model.parent_joint_of(target_link).name
        self.init_hint = np.array(model_sub.init_hints[self.target_joint])
        self.chain_orig = extract_chain(model, base, end)
        self.chain = extract_chain(model_sub, base, end)

        sub = [joint.name for joint, _ in self.chain.dofs]
        orig = [joint.name for joint, _ in self.chain_orig.dofs]
        if self.target_joint not in sub:
            raise ValueError(f"substituted joint {self.target_joint!r} is not on the chain {base!r} -> {end!r}")
        start = sub.index(self.target_joint)
        self._param_cols = slice(start, start + 6)
        self.target_dofs = tuple(c for c, name in enumerate(orig) if name == self.target_joint)
        self._sub_cols = np.array([c for c, name in enumerate(sub) if name != self.target_joint], dtype=np.intp)
        self._orig_cols = np.array([c for c, name in enumerate(orig) if name != self.target_joint], dtype=np.intp)
        self.engine = FkEngine(self.chain, batch_size)
        self.params = np.zeros(6)
        self.steps_taken = 0
        self._adam_m = np.zeros(6)
        self._adam_v = np.zeros(6)

    def _check_shapes(self, thetas, target_poses):
        b = self.engine.batch_size
        thetas = _theta_rows(thetas, self.chain_orig.m, b)
        target_poses = np.asarray(target_poses, dtype=float)
        if target_poses.shape != (b, 4, 4):
            raise ValueError(f"expected target poses of shape {(b, 4, 4)}, got {target_poses.shape}")
        return thetas, target_poses

    def _flat_sub_thetas(self, thetas, params_row):
        """Substituted-chain theta batch with ``params_row`` (floats or a
        DualArray) spliced in."""
        out = np.empty((self.engine.batch_size, self.engine.m), dtype=params_row.dtype, like=params_row)
        out[:, self._sub_cols] = thetas[:, self._orig_cols]
        out[:, self._param_cols] = params_row
        return out

    def _loss(self, finals, target_poses):
        dp = finals[:, :3, 3] - target_poses[:, :3, 3]
        rot = phi5_squared_batch(finals, target_poses)
        return (dp * dp).sum(axis=1).mean() + rot.mean()

    def loss_value(self, thetas, target_poses):
        """Loss at the current parameters (plain float path)."""
        thetas, target_poses = self._check_shapes(thetas, target_poses)
        finals = self.engine.forward(self._flat_sub_thetas(thetas, self.params))
        return float(self._loss(finals, target_poses))

    def loss_gradient(self, thetas, target_poses):
        """(loss, d loss / d params) at the current parameters, no update."""
        thetas, target_poses = self._check_shapes(thetas, target_poses)
        flat = self._flat_sub_thetas(thetas, ad.seed_array(self.params))
        loss = self._loss(self.engine._evaluate(flat), target_poses)
        value = float(loss.primal)
        if not np.isfinite(value):
            raise ValueError(f"non-finite identification loss at params {self.params.tolist()}")
        return value, loss.tangent

    def step(self, thetas, target_poses, grad):
        """One Adam update of the six parameters from ``grad``, the gradient
        at the current parameters.

        Returns ``loss_gradient`` at the updated parameters, the next step's
        gradient included.
        """
        self.steps_taken += 1
        t = self.steps_taken
        self._adam_m = 0.9 * self._adam_m + 0.1 * grad
        self._adam_v = 0.999 * self._adam_v + 0.001 * grad * grad
        m_hat = self._adam_m / (1.0 - 0.9**t)
        v_hat = self._adam_v / (1.0 - 0.999**t)
        self.params = self.params - LEARNING_RATE * m_hat / (np.sqrt(v_hat) + 1e-8)
        return self.loss_gradient(thetas, target_poses)


# -- end-to-end driver -------------------------------------------------------


def run_identification(model: RobotModel, target_link: str, base: str, end: str, config: IdentifyConfig = IdentifyConfig()) -> IdentificationResult:
    """Substitute, sample, descend; see the module docstring for the protocol.

    The dataset is ``config.batch_size`` joint samples drawn once from the
    unmodified model with ``config.seed``, the replaced joint's own dof
    pinned to zero; every step is a full-batch Adam update (``LEARNING_RATE``)
    against it, until the post-update loss falls below ``EPSILON``, the
    pre-update gradient norm below ``GRAD_EPSILON``, or
    ``config.max_steps`` steps are spent.
    """
    start = time.perf_counter()
    estimator = ParamEstimator(model, target_link, base, end, batch_size=config.batch_size)
    generator = SampleGenerator(
        FkEngine(estimator.chain_orig, config.batch_size),
        np.random.default_rng(config.seed),
        zero_dofs=estimator.target_dofs,
    )
    thetas, targets = generator.sample_batch()

    loss, grad = estimator.loss_gradient(thetas, targets)
    status = "budget_exhausted"
    while estimator.steps_taken < config.max_steps:
        grad_norm = float(np.linalg.norm(grad))
        loss, grad = estimator.step(thetas, targets, grad)
        if loss < EPSILON or grad_norm < GRAD_EPSILON:
            status = "converged"
            break

    finals = estimator.engine.forward(estimator._flat_sub_thetas(thetas, estimator.params))
    got, _ = pose_batch_from_transforms(finals)
    want, _ = pose_batch_from_transforms(targets)
    diff = got - want
    diff[:, 3:] = _wrap_angle(diff[:, 3:])
    pose_error = np.abs(diff).max(axis=0)
    param_error = np.abs(estimator.params - estimator.init_hint)
    param_error[3:] = np.abs(_wrap_angle(estimator.params[3:] - estimator.init_hint[3:]))
    return IdentificationResult(
        params=estimator.params.copy(),
        init_hint=estimator.init_hint.copy(),
        steps=estimator.steps_taken,
        status=status,
        final_loss=loss,
        pose_error=pose_error,
        param_error=param_error,
        seconds=time.perf_counter() - start,
    )
