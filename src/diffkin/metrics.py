"""Rotation-distance functions over homogeneous transforms.

Five distances with different tradeoffs:

  rotation_with_rmse  root of summed squared Euler-angle differences
                      (wraps badly near +-pi; kept for comparability)
  phi2_loss           Euclidean quaternion distance modulo sign, [0, sqrt 2]
  phi3_loss           arccos |q . qhat|, [0, pi/2]
  phi4_loss           1 - |q . qhat|, [0, 1]
  phi5_loss           || I - R Rhat^T ||_F, [0, 2 sqrt 2]

All ignore translation.  Inputs are single 4x4 transforms (scalar result)
or (b, 4, 4) batches (length-b vector).  Every metric is one batch kernel
that also runs on autodiff.DualArray inputs, giving the metric's tangents
alongside a primal bitwise equal to the float result.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from . import transforms

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


def _operand(x):
    return x if isinstance(x, (np.ndarray, ad.DualArray)) else np.asarray(x)


def _first(x):
    """Element 0 of a length-1 batch; a python scalar unless it is a DualArray."""
    x = x[0]
    return x if isinstance(x, ad.DualArray) else x.item()


def _dispatch(t, t_hat, batch_fn):
    t, t_hat = _operand(t), _operand(t_hat)
    if t.shape != t_hat.shape:
        raise ValueError(f"mismatched transform shapes {t.shape} vs {t_hat.shape}")
    if t.ndim == 2:
        return _first(batch_fn(t[None], t_hat[None]))
    return batch_fn(t, t_hat)


# -- phi1: Euler-angle distance ---------------------------------------------


def rotation_with_rmse(t, t_hat):
    """Euclidean distance of extracted Euler angles.

    Not wrap-aware: nearly identical rotations straddling the +-pi seam can
    score near 2*pi.  At gimbal lock the angles follow the extraction's
    alpha = 0 convention; transforms.pose_batch_from_transforms flags those
    rows.
    """

    def batch(ts, ts_hat):
        pa, _ = transforms.pose_batch_from_transforms(ts)
        pb, _ = transforms.pose_batch_from_transforms(ts_hat)
        diff = pa[..., 3:] - pb[..., 3:]
        return np.sqrt((diff * diff).sum(axis=-1))

    return _dispatch(t, t_hat, batch)


# -- phi2..phi4: quaternion-level forms -------------------------------------


def phi2_quat(q, q_hat):
    """min(||q - qhat||, ||q + qhat||) over (..., 4) quaternion arrays."""
    q, q_hat = _operand(q), _operand(q_hat)
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
    q, q_hat = _operand(q), _operand(q_hat)
    return 1.0 - np.minimum(np.abs((q * q_hat).sum(axis=-1)), 1.0)


def _quat_metric(quat_fn):
    """Batch kernel of a transform metric that compares quaternions."""

    def batch(ts, ts_hat):
        q = transforms.quaternion_batch_from_rotations(ts)
        return quat_fn(q, transforms.quaternion_batch_from_rotations(ts_hat))

    return batch


def phi2_loss(t, t_hat):
    """Quaternion Euclidean distance modulo sign; range [0, sqrt 2]."""
    return _dispatch(t, t_hat, _quat_metric(phi2_quat))


def phi3_loss(t, t_hat):
    """Quaternion inner-product angle; range [0, pi/2]."""
    return _dispatch(t, t_hat, _quat_metric(phi3_quat))


def phi4_loss(t, t_hat):
    """Complement of the absolute quaternion inner product; range [0, 1]."""
    return _dispatch(t, t_hat, _quat_metric(phi4_quat))


# -- phi5: Frobenius deviation from identity --------------------------------


def phi5_squared_batch(a, b):
    """||I - R Rhat^T||_F^2 over (..., 4, 4) batches: phi5 without its root,
    smooth where the rotations coincide."""
    d = np.eye(3) - a[..., :3, :3] @ np.swapaxes(b[..., :3, :3], -1, -2)
    return (d * d).sum(axis=(-1, -2))


def phi5_loss(t, t_hat):
    """Frobenius norm of I - R Rhat^T; range [0, 2 sqrt 2]."""
    return _dispatch(t, t_hat, lambda a, b: np.sqrt(phi5_squared_batch(a, b)))
