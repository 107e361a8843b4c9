"""Kinematic model identification.

Protocol: a suspect link's parent joint is replaced by a zero-initialized
Floating (6-DoF) joint; end-effector poses measured on the true robot (here:
generated from the unmodified model) supervise gradient descent on the six
parameters until the substituted chain reproduces the measurements.  The
parent joint's original origin is kept as the initialization hint, which for
an identifiable geometry is also the ground truth the estimate should reach.

If the replaced joint had degrees of freedom of its own, those are subsumed
by the Floating joint and held at zero while sampling: a per-configuration
joint motion cannot be explained by one constant 6-DoF transform.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np

from . import autodiff as ad
from .kinematics import FkEngine
from .transforms import pose_batch_from_transforms
from .urdf import RobotModel, extract_chain, substitute_link_with_joint

__all__ = [
    "IdentifyConfig",
    "IdentificationResult",
    "SampleGenerator",
    "make_generator",
    "ParamEstimator",
    "estimator_step",
    "run_identification",
]


@dataclass(frozen=True)
class IdentifyConfig:
    target_link: str | None = None
    base: str | None = None
    end: str | None = None
    batch_size: int = 10
    learning_rate: float = 1e-2
    max_steps: int = 5000
    epsilon: float = 1e-8
    grad_epsilon: float = 1e-10
    seed: int = 0
    num_configurations: int | None = None
    rotation_weight: float = 1.0
    optimizer: str = "gd"  # or "adam"

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
        lo, hi = [], []
        for _, joint in self.engine.chain.segments:
            for _ in range(joint.dof):
                if joint.limits is not None:
                    lo.append(joint.limits.lower)
                    hi.append(joint.limits.upper)
                else:
                    lo.append(-np.pi)
                    hi.append(np.pi)
        self._lo = np.array(lo)
        self._hi = np.array(hi)

    @property
    def batch_size(self):
        return self.engine.batch_size

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


def make_generator(model: RobotModel, base: str, end: str, batch_size: int, rng_seed: int = 0) -> SampleGenerator:
    chain = extract_chain(model, base, end)
    return SampleGenerator(FkEngine(chain, batch_size), np.random.default_rng(rng_seed))


# -- estimation --------------------------------------------------------------


def _target_dof_offsets(chain, target_joint_name):
    offsets, off = [], 0
    for _, joint in chain.segments:
        if joint.name == target_joint_name:
            offsets = list(range(off, off + joint.dof))
        off += joint.dof
    return offsets


class ParamEstimator:
    """Gradient-descent estimator for one substituted joint's six parameters.

    The loss is the batch mean of squared translation error plus
    ``rotation_weight`` times the squared Frobenius deviation of the rotation
    (the square of the phi5 metric, so the surface is smooth at the optimum).
    Each step seeds the six parameters as the tangents of a DualArray, runs
    one dual forward pass of the substituted chain and the same vectorized
    loss, and applies one fixed-step (or Adam) update.  Only the six
    parameters ever change; sampled joint values are inputs.
    """

    def __init__(
        self,
        model: RobotModel,
        target_link: str,
        base: str,
        end: str,
        batch_size: int,
        learning_rate: float = 1e-2,
        rotation_weight: float = 1.0,
        optimizer: str = "gd",
        init_params=None,
    ):
        if optimizer not in ("gd", "adam"):
            raise ValueError(f"unknown optimizer {optimizer!r}")
        model_sub = substitute_link_with_joint(model, target_link)
        self.target_joint = model.parent_joint_of(target_link).name
        self.init_hint = np.array(model_sub.init_hints[self.target_joint])
        self.chain_orig = extract_chain(model, base, end)
        self.chain = extract_chain(model_sub, base, end)
        if self.target_joint not in {j.name for j in self.chain.joints}:
            raise ValueError(f"substituted joint {self.target_joint!r} is not on the chain {base!r} -> {end!r}")
        self.engine = FkEngine(self.chain, batch_size)
        self.learning_rate = float(learning_rate)
        self.rotation_weight = float(rotation_weight)
        self.optimizer = optimizer
        self.params = np.zeros(6) if init_params is None else np.array(init_params, dtype=float)
        self.steps_taken = 0
        self._adam_m = np.zeros(6)
        self._adam_v = np.zeros(6)

        # column map from (original-chain thetas | the six parameters) into
        # the substituted chain's theta layout
        mapping, orig_off = [], 0
        for _, joint in self.chain_orig.segments:
            if joint.name == self.target_joint:
                mapping.extend(("param", i) for i in range(6))
            else:
                mapping.extend(("sample", orig_off + d) for d in range(joint.dof))
            orig_off += joint.dof
        self._mapping = tuple(mapping)
        assert len(self._mapping) == self.engine.m

    def _check_shapes(self, thetas, target_poses):
        b = self.engine.batch_size
        thetas = np.asarray(thetas, dtype=float).reshape(b, -1)
        if thetas.shape[1] != self.chain_orig.m:
            raise ValueError(
                f"expected {self.chain_orig.m} joint values per configuration, got {thetas.shape[1]}"
            )
        target_poses = np.asarray(target_poses, dtype=float)
        if target_poses.shape != (b, 4, 4):
            raise ValueError(f"expected target poses of shape {(b, 4, 4)}, got {target_poses.shape}")
        return thetas, target_poses

    def _flat_sub_thetas(self, thetas, params_row):
        """Substituted-chain theta batch with ``params_row`` (floats or a
        DualArray) spliced in."""
        out = np.empty((self.engine.batch_size, self.engine.m), dtype=params_row.dtype, like=params_row)
        for col, (kind, idx) in enumerate(self._mapping):
            out[:, col] = thetas[:, idx] if kind == "sample" else params_row[idx]
        return out

    def _loss(self, finals, target_poses):
        dp = finals[:, :3, 3] - target_poses[:, :3, 3]
        d = np.eye(3) - finals[:, :3, :3] @ target_poses[:, :3, :3].transpose(0, 2, 1)
        return (dp * dp).sum(axis=1).mean() + self.rotation_weight * (d * d).sum(axis=(1, 2)).mean()

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

    def step(self, thetas, target_poses):
        """One update of the six parameters.

        Returns (post-update loss, pre-update gradient norm).
        """
        _, grad = self.loss_gradient(thetas, target_poses)
        grad_norm = float(np.linalg.norm(grad))
        self.steps_taken += 1
        if self.optimizer == "adam":
            t = self.steps_taken
            self._adam_m = 0.9 * self._adam_m + 0.1 * grad
            self._adam_v = 0.999 * self._adam_v + 0.001 * grad * grad
            m_hat = self._adam_m / (1.0 - 0.9**t)
            v_hat = self._adam_v / (1.0 - 0.999**t)
            self.params = self.params - self.learning_rate * m_hat / (np.sqrt(v_hat) + 1e-8)
        else:
            self.params = self.params - self.learning_rate * grad
        return self.loss_value(thetas, target_poses), grad_norm


def estimator_step(estimator: ParamEstimator, thetas, target_poses):
    return estimator.step(thetas, target_poses)


# -- end-to-end driver -------------------------------------------------------


def run_identification(model: RobotModel, target_link: str, base: str, end: str, config: IdentifyConfig = IdentifyConfig()) -> IdentificationResult:
    """Substitute, sample, descend; see the module docstring for the protocol.

    The dataset is ``num_configurations`` (default: ``batch_size``) joint
    samples drawn once from the unmodified model, with the replaced joint's
    own dof pinned to zero; every step is a full-batch update against it.
    """
    cfg = replace(config, target_link=target_link, base=base, end=end)
    n_configs = cfg.num_configurations if cfg.num_configurations is not None else cfg.batch_size
    if n_configs < 1:
        raise ValueError("need at least one configuration")

    start = time.perf_counter()
    chain_orig = extract_chain(model, base, end)
    target_joint = model.parent_joint_of(target_link)
    if target_joint is None:
        # root link; substitute_link_with_joint raises the canonical error
        substitute_link_with_joint(model, target_link)
    generator = SampleGenerator(
        FkEngine(chain_orig, n_configs),
        np.random.default_rng(cfg.seed),
        zero_dofs=tuple(_target_dof_offsets(chain_orig, target_joint.name)),
    )
    thetas, targets = generator.sample_batch()

    estimator = ParamEstimator(
        model,
        target_link,
        base,
        end,
        batch_size=n_configs,
        learning_rate=cfg.learning_rate,
        rotation_weight=cfg.rotation_weight,
        optimizer=cfg.optimizer,
    )
    loss = estimator.loss_value(thetas, targets)
    status = "budget_exhausted"
    while estimator.steps_taken < cfg.max_steps:
        loss, grad_norm = estimator.step(thetas, targets)
        if loss < cfg.epsilon or grad_norm < cfg.grad_epsilon:
            status = "converged"
            break

    finals = estimator.engine.forward(estimator._flat_sub_thetas(np.asarray(thetas), estimator.params))
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
