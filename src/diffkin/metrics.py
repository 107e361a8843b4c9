"""Rotation-distance functions over homogeneous transforms.

Five distances with different tradeoffs:

  rotation_with_rmse  root of summed squared Euler-angle differences
                      (wraps badly near +-pi; kept for comparability)
  phi2_loss           Euclidean quaternion distance modulo sign, [0, sqrt 2]
  phi3_loss           arccos |q . qhat|, [0, pi/2]
  phi4_loss           1 - |q . qhat|, [0, 1]
  phi5_loss           || I - R Rhat^T ||_F, [0, 2 sqrt 2]

All ignore translation.  Inputs are single 4x4 transforms (scalar result)
or (b, 4, 4) batches (length-b vector), read by autodiff.operand: float32
stays float32, integers run as float64, other dtypes are a TypeError.
Every metric is one batch kernel that also runs on DualArray inputs, giving
the metric's tangents alongside a primal bitwise equal to the float result.
"""

from __future__ import annotations

import numpy as np

from .autodiff import operand
from .transforms import pose_batch_from_transforms, quaternion_batch_from_rotations

__all__ = [
    "rotation_with_rmse",
    "phi2_loss",
    "phi3_loss",
    "phi4_loss",
    "phi5_loss",
    "phi5_squared_batch",
    "phi2_quat",
    "phi3_quat",
    "phi4_quat",
]


def _pair(t, t_hat):
    """Both operands, through the input rule, checked to be of one shape."""
    t, t_hat = operand(t), operand(t_hat)
    if t.shape != t_hat.shape:
        raise ValueError(f"mismatched transform shapes {t.shape} vs {t_hat.shape}")
    return t, t_hat


# -- phi1: Euler-angle distance ---------------------------------------------


def rotation_with_rmse(t, t_hat):
    """Euclidean distance of extracted Euler angles.

    Not wrap-aware: nearly identical rotations straddling the +-pi seam can
    score near 2*pi.  At gimbal lock the angles follow the extraction's
    alpha = 0 convention; transforms.pose_batch_from_transforms flags those
    rows.
    """
    t, t_hat = _pair(t, t_hat)
    diff = pose_batch_from_transforms(t)[0][..., 3:] - pose_batch_from_transforms(t_hat)[0][..., 3:]
    return np.sqrt((diff * diff).sum(axis=-1))


# -- phi2..phi4: quaternion-level forms -------------------------------------


def phi2_quat(q, q_hat):
    """min(||q - qhat||, ||q + qhat||) over (..., 4) quaternion arrays."""
    q, q_hat = operand(q), operand(q_hat)
    dm, dp = q - q_hat, q + q_hat
    return np.minimum(np.sqrt((dm * dm).sum(axis=-1)), np.sqrt((dp * dp).sum(axis=-1)))


def phi3_quat(q, q_hat):
    """arccos |q . qhat|, evaluated as 2 arcsin(phi2 / 2).

    The half-angle form is the same function but stays accurate where the
    inner product rounds to within one ulp of 1: coincident quaternions give
    exactly zero instead of ~1e-8 of arccos noise.
    """
    half = phi2_quat(q, q_hat) * 0.5
    return 2.0 * np.arcsin(np.minimum(half, 1.0))


def phi4_quat(q, q_hat):
    """1 - |q . qhat|."""
    q, q_hat = operand(q), operand(q_hat)
    return 1.0 - np.minimum(np.abs((q * q_hat).sum(axis=-1)), 1.0)


def _quaternions(t, t_hat):
    return tuple(quaternion_batch_from_rotations(x) for x in _pair(t, t_hat))


def phi2_loss(t, t_hat):
    """Quaternion Euclidean distance modulo sign; range [0, sqrt 2]."""
    return phi2_quat(*_quaternions(t, t_hat))


def phi3_loss(t, t_hat):
    """Quaternion inner-product angle; range [0, pi/2]."""
    return phi3_quat(*_quaternions(t, t_hat))


def phi4_loss(t, t_hat):
    """Complement of the absolute quaternion inner product; range [0, 1]."""
    return phi4_quat(*_quaternions(t, t_hat))


# -- phi5: Frobenius deviation from identity --------------------------------


def phi5_squared_batch(a, b):
    """||I - R Rhat^T||_F^2 over (..., 4, 4) batches: phi5 without its root,
    smooth where the rotations coincide."""
    a, b = operand(a), operand(b)
    d = np.eye(3, dtype=a.dtype) - a[..., :3, :3] @ np.swapaxes(b[..., :3, :3], -1, -2)
    return (d * d).sum(axis=(-1, -2))


def phi5_loss(t, t_hat):
    """Frobenius norm of I - R Rhat^T; range [0, 2 sqrt 2]."""
    return np.sqrt(phi5_squared_batch(*_pair(t, t_hat)))
