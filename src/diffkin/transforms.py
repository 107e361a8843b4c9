"""Rigid-transform construction and pose extraction.

A pose is a six-vector [x, y, z, alpha, beta, gamma]: translation followed by
fixed-axis roll/pitch/yaw, composed as R = Rz(gamma) @ Ry(beta) @ Rx(alpha).

Each formula exists once, as a batch kernel (sixdof_batch_to_transforms,
pose_batch_from_transforms, quaternion_batch_from_rotations) that runs on
float arrays and on autodiff.DualArray alike.  The single-transform helpers
(sixdof_to_transform, rpy_to_rotation, pose_from_transform,
quaternion_from_rotation) check their float input and call the kernel on it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad

__all__ = [
    "PoseRPY",
    "rot_x",
    "rot_y",
    "rot_z",
    "rpy_to_rotation",
    "sixdof_to_transform",
    "sixdof_batch_to_transforms",
    "pose_from_transform",
    "pose_batch_from_transforms",
    "pose_values_from_transform",
    "quaternion_from_rotation",
    "quaternion_batch_from_rotations",
]

# cos(pitch) below this is treated as the gimbal-locked configuration.
_GIMBAL_COS_TOL = 1e-6
_ORTHONORMAL_TOL = 1e-6


@dataclass(frozen=True)
class PoseRPY:
    """Translation plus fixed-axis roll/pitch/yaw angles."""

    x: float
    y: float
    z: float
    alpha: float
    beta: float
    gamma: float
    degenerate: bool = False

    def as_array(self):
        return np.array([self.x, self.y, self.z, self.alpha, self.beta, self.gamma])


def rot_x(angle):
    c, s = np.cos(angle), np.sin(angle)
    return np.array(
        [
            [1.0, 0.0, 0.0, 0.0],
            [0.0, c, -s, 0.0],
            [0.0, s, c, 0.0],
            [0.0, 0.0, 0.0, 1.0],
        ]
    )


def rot_y(angle):
    c, s = np.cos(angle), np.sin(angle)
    return np.array(
        [
            [c, 0.0, s, 0.0],
            [0.0, 1.0, 0.0, 0.0],
            [-s, 0.0, c, 0.0],
            [0.0, 0.0, 0.0, 1.0],
        ]
    )


def rot_z(angle):
    c, s = np.cos(angle), np.sin(angle)
    return np.array(
        [
            [c, -s, 0.0, 0.0],
            [s, c, 0.0, 0.0],
            [0.0, 0.0, 1.0, 0.0],
            [0.0, 0.0, 0.0, 1.0],
        ]
    )


def rpy_to_rotation(alpha, beta, gamma):
    """3x3 rotation for fixed-axis rpy angles (z-yaw about the world frame last)."""
    return sixdof_to_transform([0.0, 0.0, 0.0, alpha, beta, gamma])[:3, :3]


def sixdof_to_transform(params):
    """4x4 homogeneous transform for a [x, y, z, alpha, beta, gamma] six-vector."""
    return sixdof_batch_to_transforms(np.asarray(params, dtype=float))


def sixdof_batch_to_transforms(params):
    """Vectorized transform construction, (..., 6) -> (..., 4, 4).

    ``params`` is a float array or a DualArray; the result is of the same kind.
    """
    if not isinstance(params, ad.DualArray):
        params = np.asarray(params)
        if params.dtype not in (np.dtype(np.float32), np.dtype(np.float64)):
            params = params.astype(float)
    lead = params.shape[:-1]
    x, y, z = params[..., 0], params[..., 1], params[..., 2]
    ca, sa = np.cos(params[..., 3]), np.sin(params[..., 3])
    cb, sb = np.cos(params[..., 4]), np.sin(params[..., 4])
    cg, sg = np.cos(params[..., 5]), np.sin(params[..., 5])
    out = np.zeros(lead + (4, 4), dtype=params.dtype, like=params)
    out[..., 0, 0] = cg * cb
    out[..., 0, 1] = cg * sb * sa - sg * ca
    out[..., 0, 2] = cg * sb * ca + sg * sa
    out[..., 0, 3] = x
    out[..., 1, 0] = sg * cb
    out[..., 1, 1] = sg * sb * sa + cg * ca
    out[..., 1, 2] = sg * sb * ca - cg * sa
    out[..., 1, 3] = y
    out[..., 2, 0] = -sb
    out[..., 2, 1] = cb * sa
    out[..., 2, 2] = cb * ca
    out[..., 2, 3] = z
    out[..., 3, 3] = 1.0
    return out


def _check_rotation_block(t):
    r = np.asarray(t, dtype=float)[:3, :3]
    err = np.abs(r @ r.T - np.eye(3)).max()
    if err > _ORTHONORMAL_TOL or np.linalg.det(r) < 0:
        raise ValueError(f"rotation block is not orthonormal (defect {err:.3g}, det {np.linalg.det(r):.3g})")


def pose_from_transform(t):
    """Extract a PoseRPY from a 4x4 float transform.

    At gimbal lock (|cos(beta)| ~ 0) the roll/yaw split is not unique; the
    returned pose fixes alpha = 0, absorbs the remaining rotation into gamma,
    and flags ``degenerate=True``.  Round-tripping through
    sixdof_to_transform reproduces the input transform either way.
    """
    t = np.asarray(t, dtype=float)
    _check_rotation_block(t)
    poses, degenerate = pose_batch_from_transforms(t[None])
    return PoseRPY(*poses[0].tolist(), degenerate=bool(degenerate[0]))


def pose_values_from_transform(t):
    """[x, y, z, alpha, beta, gamma] of one 4x4 float transform, as a list."""
    poses, _ = pose_batch_from_transforms(np.asarray(t, dtype=float)[None])
    return poses[0].tolist()


def pose_batch_from_transforms(ts):
    """Vectorized pose extraction: (..., 4, 4) -> ((..., 6) poses, bool degenerate mask).

    ``ts`` is a float array or a DualArray; the poses are of the same kind.
    On a DualArray the derivative of cos(beta) = hypot(r00, r10) is capped
    like that of np.sqrt, so at gimbal lock d(beta) stays finite.
    """
    if not isinstance(ts, ad.DualArray):
        ts = np.asarray(ts)
        if ts.dtype not in (np.float32, np.float64):
            ts = ts.astype(float)
    cb = np.hypot(ts[..., 0, 0], ts[..., 1, 0])
    degenerate = ad.primal_of(cb) <= _GIMBAL_COS_TOL
    beta = np.arctan2(-ts[..., 2, 0], cb)
    alpha = np.where(degenerate, 0.0, np.arctan2(ts[..., 2, 1], ts[..., 2, 2]))
    gamma = np.where(
        degenerate,
        np.arctan2(-ts[..., 0, 1], ts[..., 1, 1]),
        np.arctan2(ts[..., 1, 0], ts[..., 0, 0]),
    )
    poses = np.stack([ts[..., 0, 3], ts[..., 1, 3], ts[..., 2, 3], alpha, beta, gamma], axis=-1)
    return poses, degenerate


def quaternion_from_rotation(t):
    """Unit quaternion (x, y, z, w) with w >= 0 from a transform or 3x3 rotation."""
    t = np.asarray(t, dtype=float)
    _check_rotation_block(t)
    return quaternion_batch_from_rotations(t)


def quaternion_batch_from_rotations(ts):
    """Vectorized quaternion extraction, (..., 4, 4) or (..., 3, 3) -> (..., 4).

    Uses the largest of the four Shepperd candidates so the square root is
    always well-conditioned.  ``ts`` is a float array or a DualArray; the
    branch choice and the w >= 0 sign follow the primal values.
    """
    if not isinstance(ts, ad.DualArray):
        ts = np.asarray(ts, dtype=float)
    r = ts[..., :3, :3]
    lead = r.shape[:-2]
    c0 = 1.0 + r[..., 0, 0] + r[..., 1, 1] + r[..., 2, 2]
    c1 = 1.0 + r[..., 0, 0] - r[..., 1, 1] - r[..., 2, 2]
    c2 = 1.0 - r[..., 0, 0] + r[..., 1, 1] - r[..., 2, 2]
    c3 = 1.0 - r[..., 0, 0] - r[..., 1, 1] + r[..., 2, 2]
    cands = np.stack([c0, c1, c2, c3], axis=-1)
    best = np.argmax(ad.primal_of(cands), axis=-1)
    s = 2.0 * np.sqrt(np.maximum(np.take_along_axis(cands, best[..., None], axis=-1)[..., 0], 0.0))
    # All four candidate quaternions computed dense, then selected; the
    # rejected branches may divide by small s, which is fine to discard.
    with np.errstate(divide="ignore", invalid="ignore"):
        q0 = np.stack(
            [r[..., 2, 1] - r[..., 1, 2], r[..., 0, 2] - r[..., 2, 0], r[..., 1, 0] - r[..., 0, 1], s * s / 4.0],
            axis=-1,
        ) / s[..., None]
        q1 = np.stack(
            [s * s / 4.0, r[..., 0, 1] + r[..., 1, 0], r[..., 0, 2] + r[..., 2, 0], r[..., 2, 1] - r[..., 1, 2]],
            axis=-1,
        ) / s[..., None]
        q2 = np.stack(
            [r[..., 0, 1] + r[..., 1, 0], s * s / 4.0, r[..., 1, 2] + r[..., 2, 1], r[..., 0, 2] - r[..., 2, 0]],
            axis=-1,
        ) / s[..., None]
        q3 = np.stack(
            [r[..., 0, 2] + r[..., 2, 0], r[..., 1, 2] + r[..., 2, 1], s * s / 4.0, r[..., 1, 0] - r[..., 0, 1]],
            axis=-1,
        ) / s[..., None]
    all_q = np.stack([q0, q1, q2, q3], axis=-2)
    q = np.take_along_axis(all_q, best[..., None, None], axis=-2).reshape(lead + (4,))
    q = q / np.sqrt((q * q).sum(axis=-1, keepdims=True))
    return np.where(ad.primal_of(q)[..., 3:4] < 0, -q, q)
