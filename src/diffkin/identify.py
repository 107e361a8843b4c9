"""Kinematic model identification.

Protocol: the origin of a suspect link's parent joint, six parameters
[x, y, z, alpha, beta, gamma], is estimated from end-effector poses measured
on the true robot (here: generated from the parsed model).  Adam (Kingma &
Ba 2015) moves the six parameters from zero until the chain with that origin
reproduces the measurements.  The origin as parsed is kept as the
initialization hint, which for an identifiable geometry is also the ground
truth the estimate should reach.  Every residual is affine in the origin
transform's twelve free entries, so each dataset is reduced once to a 12x12
triangular factor and a step costs the same at any batch size (see
ParamEstimator).

If the joint has degrees of freedom of its own, they are held at zero, in
the samples and in the model: a per-configuration joint motion cannot be
explained by one constant 6-DoF transform.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .kinematics import FkEngine, _integer_setting, _theta_rows
from .metrics import phi5_squared_batch
from .transforms import pose_batch_from_transforms, sixdof_batch_to_transforms
from .urdf import RobotModel, _parent_joint, extract_chain

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

_EYE3, _EYE4 = np.eye(3), np.eye(4)


@dataclass(frozen=True)
class IdentifyConfig:
    batch_size: int = 10
    max_steps: int = 5000
    seed: int = 0

    def __post_init__(self):
        for key, low in (("batch_size", 1), ("max_steps", 0), ("seed", 0)):
            _integer_setting(f"identification config key {key!r}", getattr(self, key), low)

    @classmethod
    def from_mapping(cls, mapping):
        unknown = set(mapping) - set(cls.__dataclass_fields__)
        if unknown:
            raise ValueError(f"unknown identification config keys {sorted(unknown)!r}")
        return cls(**mapping)


@dataclass(frozen=True)
class IdentificationResult:
    params: np.ndarray  # estimated six-vector [x, y, z, alpha, beta, gamma]
    init_hint: np.ndarray  # the target joint's origin as parsed
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
    """Adam estimator for the six origin parameters of one joint of a chain.

    The loss is the batch mean of squared translation error plus the squared
    Frobenius deviation of the rotation (the square of the phi5 metric, so
    the surface is smooth at the optimum).  The parameters start at zero.

    With the joint's own dof (``target_dofs``, theta columns of the chain)
    at zero, its segment i contributes its origin S_i alone, so every final
    transform is T_b = A_b S_i B_b, and the model puts M(p) =
    sixdof_to_transform(p) in S_i's place.  One forward pass with
    intermediates over the chain makes both factors: A_b is intermediate
    i - 1 (the identity for i = 0), and B_b = T_i^-1 T_b, with T_i
    intermediate i and its rigid inverse [R^T | -R^T p], so that S_i cancels
    and its value enters B_b's rounding only.  M's bottom row is
    (0, 0, 0, 1), so a configuration's 12 residuals, the 3x4
    [p_b - p*_b | I - R_b R*_b^T], are affine in x = vec(M[:3, :4]): they
    are A_b[:3, :3] M[:3, :4] W_b^T + [A_b[:3, 3] - p*_b | I], W_b the 4x4
    with rows B_b[:, 3] and -R*_b B_b[:, :3]^T.  Stacked, r = K x + k0 with
    K (12b, 12).  On the first ``loss_gradient`` call for a dataset (that
    one pass for A and B) a QR of [K | k0] reduces it, and the estimator
    keeps, while the next call's thetas and target poses are equal by
    content: the 12x12 triangular factor R, z = Q^T k0 and
    rho^2 = |k0 - Q z|^2, scaled by 1/b (1.3 KB), with A and B (256 B a
    configuration) for the final pose check and ``loss_value`` only.  It
    keeps the dataset as read-only copies too, and a call given those very
    arrays skips the content check (run_identification's steps).  A step
    then costs one 4x4 M(p), built on Python floats (see transforms), and
    12x12 products at any b (``loss_gradient``); no DualArray is built.
    Adam's update runs on six Python floats, bitwise numpy's on (6,)
    arrays (``step``).  ``loss_value`` evaluates the loss of the final
    transforms A M(p) B explicitly.

    ``loss_value`` and ``loss_gradient`` read b rows of the chain's m dofs
    (see kinematics); ``engine`` is the chain's one FkEngine, which
    run_identification's sampler shares.
    """

    def __init__(
        self,
        model: RobotModel,
        target_link: str,
        base: str,
        end: str,
        batch_size: int,
    ):
        joint = _parent_joint(model, target_link)
        self.target_joint = joint.name
        self.init_hint = np.array(joint.origin_params())
        self.chain = extract_chain(model, base, end)
        names = [j.name for j in self.chain.joints]
        if joint.name not in names:
            raise ValueError(f"joint {joint.name!r} of link {target_link!r} is not on the chain {base!r} -> {end!r}")
        self._segment = names.index(joint.name)
        self.target_dofs = tuple(c for c, (j, _) in enumerate(self.chain.dofs) if j.name == joint.name)
        self.engine = FkEngine(self.chain, batch_size)
        self.params = np.zeros(6)
        self.steps_taken = 0
        self._adam_m = [0.0] * 6  # Adam's moments, as floats (see step)
        self._adam_v = [0.0] * 6
        self._kept = None  # (thetas, targets, A, B, R, z, rho^2) of the last dataset

    def _check_shapes(self, thetas, target_poses):
        b = self.engine.batch_size
        thetas = _theta_rows(thetas, self.chain.m, b)
        target_poses = ad.operand(target_poses)
        if target_poses.shape != (b, 4, 4):
            raise ValueError(f"expected target poses of shape {(b, 4, 4)}, got {target_poses.shape}")
        return thetas, target_poses

    def loss_value(self, thetas, target_poses):
        """Loss at the current parameters, on the final transforms A M(p) B."""
        _, targets, head, tail = self._dataset(thetas, target_poses)[:4]
        finals = head @ sixdof_batch_to_transforms(self.params) @ tail
        dp = finals[:, :3, 3] - targets[:, :3, 3]
        return float((dp * dp).sum(axis=1).mean() + phi5_squared_batch(finals, targets).mean())

    def _dataset(self, thetas, target_poses):
        """(thetas, targets, A, B, R, z, rho^2) of a dataset (see the class
        docstring), kept from the last call unless its thetas or target
        poses differ by content; the kept copies themselves are not checked
        again.  A non-finite model is refused before it is kept."""
        kept = self._kept
        if kept is not None and thetas is kept[0] and target_poses is kept[1]:
            return kept
        thetas, target_poses = self._check_shapes(thetas, target_poses)
        if kept is None or not (np.array_equal(thetas, kept[0]) and np.array_equal(target_poses, kept[1])):
            i, b = self._segment, len(thetas)
            zeroed = thetas.copy()
            zeroed[:, list(self.target_dofs)] = 0.0
            frames = self.engine.forward(zeroed, want_intermediates=True)
            targets = target_poses.astype(np.float64)
            head = frames[:, i - 1] if i else np.broadcast_to(_EYE4, (b, 4, 4))
            tail = np.empty((b, 4, 4))  # B = T_i^-1 T = R_i^T [R | p - p_i] over (0, 0, 0, 1)
            mix = np.empty((b, 4, 4))  # W_b
            model = np.empty((b, 3, 4, 13))  # [K | k0], row (r, s) for residual entry [r, s]
            with np.errstate(all="ignore"):  # overflow and inf * 0 end in the refusal below, not in a warning
                tail[:, :3], tail[:, 3] = frames[:, -1, :3], _EYE4[3]
                tail[:, :3, 3] -= frames[:, i, :3, 3]
                tail[:, :3] = frames[:, i, :3, :3].transpose(0, 2, 1) @ tail[:, :3]
                mix[:, 0] = tail[:, :, 3]
                mix[:, 1:] = -(targets[:, :3, :3] @ tail[:, :, :3].transpose(0, 2, 1))
                model[..., :12] = (head[:, :3, None, :3, None] * mix[:, None, :, None, :]).reshape(b, 3, 4, 12)
                model[:, :, 0, 12] = head[:, :3, 3] - targets[:, :3, 3]
                model[:, :, 1:, 12] = _EYE3
                if not np.isfinite(model).all():
                    raise ValueError(f"non-finite identification loss at params {self.params.tolist()}")
                r = np.linalg.qr(model.reshape(-1, 13), mode="r") / np.sqrt(b)  # 12x13 at b = 1, where rho = 0
                rho2 = r[12:, 12] @ r[12:, 12]
            thetas = thetas.copy()
            thetas.flags.writeable = targets.flags.writeable = False
            kept = self._kept = (thetas, targets, head, tail, r[:12, :12].copy(), r[:12, 12].copy(), rho2)
        return kept

    def loss_gradient(self, thetas, target_poses):
        """(loss, d loss / d params) at the current parameters, no update.

        From the kept reduction (class docstring): u = R x + z, the loss is
        |u|^2 + rho^2 and its gradient in M is H[:3, :4] = 2 R^T u, whose
        translation column is the gradient in (x, y, z).  A rotation
        dR_M = [w]x R_M moves the loss by w . vee(R_M H_R^T), vee(Q) =
        (Q12 - Q21, Q20 - Q02, Q01 - Q10), and the angle rates give
        w = R_M e_x alpha' + Rz(gamma) e_y beta' + e_z gamma'
        (R_M = Rz(gamma) Ry(beta) Rx(alpha)).
        """
        r, z, rho2 = self._dataset(thetas, target_poses)[4:]
        m = sixdof_batch_to_transforms(self.params)
        u = r @ m[:3].ravel() + z
        value = float(u @ u + rho2)
        if not math.isfinite(value):
            raise ValueError(f"non-finite identification loss at params {self.params.tolist()}")
        h = (2.0 * u @ r).reshape(3, 4)
        rot = m[:3, :3]
        q = rot @ h[:, :3].T
        v = (q - q.T)[[1, 2, 0], [2, 0, 1]]
        gamma = float(self.params[5])
        grad = np.array([h[0, 3], h[1, 3], h[2, 3], rot[:, 0] @ v, math.cos(gamma) * v[1] - math.sin(gamma) * v[0], v[2]])
        return value, grad

    def step(self, thetas, target_poses, grad):
        """One Adam update of the six parameters from ``grad``, the gradient
        at the current parameters.

        The update loops over six Python floats and is bitwise numpy's on
        (6,) float64 arrays: each float operation is the one numpy applies
        elementwise, in numpy's order.  ``params`` stays such an array and
        the source of truth, read and replaced whole every step.  Returns
        ``loss_gradient`` at the updated parameters, the next step's
        gradient included.
        """
        self.steps_taken += 1
        t = self.steps_taken
        m_scale, v_scale = 1.0 - 0.9**t, 1.0 - 0.999**t
        m, v, params = self._adam_m, self._adam_v, self.params.tolist()
        for i, g in enumerate(grad.tolist()):
            m[i] = m_i = 0.9 * m[i] + 0.1 * g
            v[i] = v_i = 0.999 * v[i] + 0.001 * g * g
            params[i] -= LEARNING_RATE * (m_i / m_scale) / (math.sqrt(v_i / v_scale) + 1e-8)
        self.params = np.array(params)
        return self.loss_gradient(thetas, target_poses)


# -- end-to-end driver -------------------------------------------------------


def run_identification(model: RobotModel, target_link: str, base: str, end: str, config: IdentifyConfig = IdentifyConfig()) -> IdentificationResult:
    """Sample, reduce, descend; see the module docstring for the protocol.

    The dataset is ``config.batch_size`` joint samples drawn once from the
    parsed model with ``config.seed``, on the estimator's engine, the target
    joint's own dof pinned to zero; every step is a full-batch Adam update
    (``LEARNING_RATE``) against it, until the post-update loss falls below
    ``EPSILON``, the pre-update gradient norm below ``GRAD_EPSILON``, or
    ``config.max_steps`` steps are spent.
    """
    start = time.perf_counter()
    estimator = ParamEstimator(model, target_link, base, end, batch_size=config.batch_size)
    generator = SampleGenerator(estimator.engine, np.random.default_rng(config.seed), zero_dofs=estimator.target_dofs)
    thetas, targets = generator.sample_batch()

    loss, grad = estimator.loss_gradient(thetas, targets)
    # the estimator's kept copies of the dataset: the steps pass them back, and are not checked again
    thetas, targets = estimator._kept[:2]
    status = "budget_exhausted"
    while estimator.steps_taken < config.max_steps:
        grad_norm = math.sqrt(grad.dot(grad))  # np.linalg.norm of a vector, without its checks
        loss, grad = estimator.step(thetas, targets, grad)
        if loss < EPSILON or grad_norm < GRAD_EPSILON:
            status = "converged"
            break

    head, tail = estimator._dataset(thetas, targets)[2:4]
    finals = head @ sixdof_batch_to_transforms(estimator.params) @ tail
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
