"""Kinematic model identification.

Protocol: a suspect link's parent joint is replaced by a zero-initialized
Floating (6-DoF) joint; end-effector poses measured on the true robot (here:
generated from the unmodified model) supervise Adam (Kingma & Ba 2015) on the
six parameters until the substituted chain reproduces the measurements.  The
parent joint's original origin is kept as the initialization hint, which for
an identifiable geometry is also the ground truth the estimate should reach.
Every residual is affine in the six-parameter transform's twelve free
entries, so each dataset is reduced once to a 12x12 triangular factor and a
step costs the same at any batch size (see ParamEstimator).

If the replaced joint had degrees of freedom of its own, those are subsumed
by the Floating joint and held at zero while sampling: a per-configuration
joint motion cannot be explained by one constant 6-DoF transform.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .kinematics import FkEngine, _integer_setting, _theta_rows
from .metrics import phi5_squared_batch
from .transforms import pose_batch_from_transforms, sixdof_batch_to_transforms
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

_EYE3 = np.eye(3)


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

    The floating joint's six factors are consecutive in the substituted
    chain (see kinematics) and compose to M(p) = sixdof_to_transform(p), so
    every final transform is T_b = A_b M(p) B_b: A_b the product of the
    factors up to the first parameter factor's static, B_b that of the
    factors after the sixth, times the trailing static.  M's bottom row is
    (0, 0, 0, 1), so a configuration's 12 residuals, the 3x4
    [p_b - p*_b | I - R_b R*_b^T], are affine in x = vec(M[:3, :4]): they
    are A_b[:3, :3] M[:3, :4] W_b^T + [A_b[:3, 3] - p*_b | I], W_b the 4x4
    with rows B_b[:, 3] and -R*_b B_b[:, :3]^T.  Stacked, r = K x + k0 with
    K (12b, 12).  On the first ``loss_gradient`` call for a dataset (one
    float pass over the chain's factors for A and B) a QR of [K | k0]
    reduces it, and the estimator keeps, while the next call's thetas and
    target poses are equal by content: the 12x12 triangular factor R,
    z = Q^T k0 and rho^2 = |k0 - Q z|^2, scaled by 1/b (1.3 KB), with A and
    B (256 B a configuration) for the final pose check only.  It keeps the
    dataset as read-only copies too, and a call given those very arrays
    skips the content check (run_identification's steps).  A step then
    costs one 4x4 M(p) and 12x12 products at any b (``loss_gradient``); no
    DualArray is built.  ``loss_value`` evaluates the whole chain with
    ``forward``.

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
        self._kept = None  # (thetas, targets, A, B, R, z, rho^2) of the last dataset

    def _check_shapes(self, thetas, target_poses):
        b = self.engine.batch_size
        thetas = _theta_rows(thetas, self.chain_orig.m, b)
        target_poses = ad.operand(target_poses)
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

    def _dataset(self, thetas, target_poses):
        """(A, B, R, z, rho^2) of a dataset (see the class docstring), kept
        from the last call unless its thetas or target poses differ by
        content; the kept copies themselves are not checked again.  A
        non-finite model is refused before it is kept."""
        kept = self._kept
        if kept is not None and thetas is kept[0] and target_poses is kept[1]:
            return kept[2:]
        thetas, target_poses = self._check_shapes(thetas, target_poses)
        if kept is None or not (np.array_equal(thetas, kept[0]) and np.array_equal(target_poses, kept[1])):
            start = self._param_cols.start
            zeroed = self._flat_sub_thetas(thetas, np.zeros(6))
            head, tail = self.engine._products_around(zeroed, start + 1, start + 6)
            targets, b = target_poses.astype(np.float64), len(head)
            mix = np.empty((b, 4, 4))  # W_b
            model = np.empty((b, 3, 4, 13))  # [K | k0], row (r, s) for residual entry [r, s]
            with np.errstate(all="ignore"):  # overflow and inf * 0 end in the refusal below, not in a warning
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
        return kept[2:]

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
        r, z, rho2 = self._dataset(thetas, target_poses)[2:]
        m = sixdof_batch_to_transforms(self.params)
        u = r @ m[:3].ravel() + z
        value = float(u @ u + rho2)
        if not np.isfinite(value):
            raise ValueError(f"non-finite identification loss at params {self.params.tolist()}")
        h = (2.0 * u @ r).reshape(3, 4)
        rot = m[:3, :3]
        q = rot @ h[:, :3].T
        v = (q - q.T)[[1, 2, 0], [2, 0, 1]]
        gamma = self.params[5]
        grad = np.array([h[0, 3], h[1, 3], h[2, 3], rot[:, 0] @ v, np.cos(gamma) * v[1] - np.sin(gamma) * v[0], v[2]])
        return value, grad

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
    # the estimator's kept copies of the dataset: the steps pass them back, and are not checked again
    thetas, targets = estimator._kept[:2]
    status = "budget_exhausted"
    while estimator.steps_taken < config.max_steps:
        grad_norm = float(np.linalg.norm(grad))
        loss, grad = estimator.step(thetas, targets, grad)
        if loss < EPSILON or grad_norm < GRAD_EPSILON:
            status = "converged"
            break

    head, tail = estimator._dataset(thetas, targets)[:2]
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
