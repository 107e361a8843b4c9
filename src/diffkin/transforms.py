"""Rigid-transform construction and pose extraction.

A pose is a six-vector [x, y, z, alpha, beta, gamma]: translation followed by
fixed-axis roll/pitch/yaw, composed as R = Rz(gamma) @ Ry(beta) @ Rx(alpha).

Each formula exists once, as a batch kernel (sixdof_batch_to_transforms,
pose_batch_from_transforms, quaternion_batch_from_rotations) that runs on
float arrays and on autodiff.DualArray alike, over any leading shape, a
single transform included.  The kernels and helpers read their input by the
dtype rule autodiff.operand: float32 stays float32, integers run as float64,
and a complex, string, bool or object array is a TypeError.  A DualArray's
primal is therefore bitwise the float run on the same input, in either
dtype.  The single-transform helpers (sixdof_to_transform, rpy_to_rotation,
pose_from_transform, pose_values_from_transform, quaternion_from_rotation)
then convert to float64, refusing a DualArray, check their input and call
the kernel on it.

sixdof_batch_to_transforms builds one float64 row, (6,) or (1, 6), on
Python floats instead: math.cos and math.sin, then the kernel's products in
the kernel's order (one helper, _rotation, holds the nine rotation entries
for both), so the transform is bitwise the kernel's row, without the
kernel's forty-odd numpy calls on six values.  That rests on numpy's
float64 cos and sin being the C library's, as math's are (the tests check
it on a grid of angles).  An infinite angle, which math.cos refuses,
float32 and DualArray input, and batches of more than one row run the
kernel.

Quaternions come from the symmetric 4x4 matrix K = 4 q q^T (order x, y, z,
w), whose entries are linear in the rotation matrix: row i of K is
4 q_i q, and its diagonal holds the four Shepperd candidates 4 q_i^2.  The
row with the largest diagonal entry, normalized, is +-q.
"""

from __future__ import annotations

import math
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
# the shapes of one row, which sixdof_batch_to_transforms builds on floats
_ONE_ROW = ((6,), (1, 6))


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
    return sixdof_batch_to_transforms(np.asarray(ad.operand(params), dtype=np.float64))


def _rotation(ca, sa, cb, sb, cg, sg):
    """The nine entries of Rz(gamma) Ry(beta) Rx(alpha), row by row, from
    the cosines and sines of (alpha, beta, gamma): floats or arrays."""
    return (
        cg * cb,
        cg * sb * sa - sg * ca,
        cg * sb * ca + sg * sa,
        sg * cb,
        sg * sb * sa + cg * ca,
        sg * sb * ca - cg * sa,
        -sb,
        cb * sa,
        cb * ca,
    )


def _sixdof_row(params):
    """sixdof_batch_to_transforms of one float64 row, (6,) or (1, 6), on
    Python floats; math.cos/math.sin raise ValueError on an infinite angle."""
    x, y, z, alpha, beta, gamma = params.ravel().tolist()
    r = _rotation(math.cos(alpha), math.sin(alpha), math.cos(beta), math.sin(beta), math.cos(gamma), math.sin(gamma))
    out = np.array((*r[:3], x, *r[3:6], y, *r[6:], z, 0.0, 0.0, 0.0, 1.0))
    return out.reshape(params.shape[:-1] + (4, 4))


def sixdof_batch_to_transforms(params):
    """Vectorized transform construction, (..., 6) -> (..., 4, 4).

    ``params`` is a float array or a DualArray; the result is of the same
    kind.  One float64 row, (6,) or (1, 6), with finite angles is built on
    Python floats instead (see the module docstring).
    """
    params = ad.operand(params)
    if type(params) is np.ndarray and params.dtype == np.float64 and params.shape in _ONE_ROW:
        try:
            return _sixdof_row(params)
        except ValueError:  # an infinite angle: numpy's cos and sin return nan for it
            pass
    lead = params.shape[:-1]
    a, b, g = params[..., 3], params[..., 4], params[..., 5]
    r = _rotation(np.cos(a), np.sin(a), np.cos(b), np.sin(b), np.cos(g), np.sin(g))
    out = np.zeros(lead + (4, 4), dtype=params.dtype, like=params)
    for k, entry in enumerate(r):
        out[..., k // 3, k % 3] = entry
    out[..., :3, 3] = params[..., :3]
    out[..., 3, 3] = 1.0
    return out


def _checked_rotation(t):
    """``t`` as float64, refused unless its rotation block is orthonormal."""
    t = np.asarray(ad.operand(t), dtype=np.float64)
    r = t[:3, :3]
    err = np.abs(r @ r.T - np.eye(3)).max()
    if err > _ORTHONORMAL_TOL or np.linalg.det(r) < 0:
        raise ValueError(f"rotation block is not orthonormal (defect {err:.3g}, det {np.linalg.det(r):.3g})")
    return t


def pose_from_transform(t):
    """Extract a PoseRPY from a 4x4 float transform.

    At gimbal lock (|cos(beta)| ~ 0) the roll/yaw split is not unique; the
    returned pose fixes alpha = 0, absorbs the remaining rotation into gamma,
    and flags ``degenerate=True``.  Round-tripping through
    sixdof_to_transform reproduces the input transform either way.
    """
    pose, degenerate = pose_batch_from_transforms(_checked_rotation(t))
    return PoseRPY(*pose.tolist(), degenerate=bool(degenerate))


def pose_values_from_transform(t):
    """[x, y, z, alpha, beta, gamma] of one 4x4 float transform, as a list."""
    return pose_batch_from_transforms(np.asarray(ad.operand(t), dtype=np.float64))[0].tolist()


def pose_batch_from_transforms(ts):
    """Vectorized pose extraction: (..., 4, 4) -> ((..., 6) poses, bool degenerate mask).

    ``ts`` is a float array or a DualArray; the poses are of the same kind.
    On a DualArray the derivative of cos(beta) = hypot(r00, r10) is capped
    like that of np.sqrt, so at gimbal lock d(beta) stays finite.  The
    gimbal-lock branch (alpha = 0, gamma from the second column) is
    computed only for a batch with a degenerate row, one check per batch;
    every row's pose is the same either way.
    """
    ts = ad.operand(ts)
    cb = np.hypot(ts[..., 0, 0], ts[..., 1, 0])
    degenerate = ad.primal_of(cb) <= _GIMBAL_COS_TOL
    beta = np.arctan2(-ts[..., 2, 0], cb)
    alpha = np.arctan2(ts[..., 2, 1], ts[..., 2, 2])
    gamma = np.arctan2(ts[..., 1, 0], ts[..., 0, 0])
    if degenerate.any():
        alpha = np.where(degenerate, 0.0, alpha)
        gamma = np.where(degenerate, np.arctan2(-ts[..., 0, 1], ts[..., 1, 1]), gamma)
    poses = np.stack([ts[..., 0, 3], ts[..., 1, 3], ts[..., 2, 3], alpha, beta, gamma], axis=-1)
    return poses, degenerate


def quaternion_from_rotation(t):
    """Unit quaternion (x, y, z, w) with w >= 0 from a transform or 3x3 rotation."""
    return quaternion_batch_from_rotations(_checked_rotation(t))


def quaternion_batch_from_rotations(ts):
    """Vectorized quaternion extraction, (..., 4, 4) or (..., 3, 3) -> (..., 4).

    Normalizes the row of K (see the module docstring) with the largest
    diagonal entry, at least 1 since the diagonal sums to 4, so the result
    is well-conditioned for every rotation.  ``ts`` is a float array or a
    DualArray; the row choice and the w >= 0 sign follow the primal values.
    """
    r = ad.operand(ts)[..., :3, :3]
    r00, r11, r22 = r[..., 0, 0], r[..., 1, 1], r[..., 2, 2]
    xy, xz, yz = r[..., 0, 1] + r[..., 1, 0], r[..., 0, 2] + r[..., 2, 0], r[..., 1, 2] + r[..., 2, 1]
    xw, yw, zw = r[..., 2, 1] - r[..., 1, 2], r[..., 0, 2] - r[..., 2, 0], r[..., 1, 0] - r[..., 0, 1]
    xx, yy = 1.0 + r00 - r11 - r22, 1.0 - r00 + r11 - r22
    zz, ww = 1.0 - r00 - r11 + r22, 1.0 + r00 + r11 + r22
    k = np.stack([xx, xy, xz, xw, xy, yy, yz, yw, xz, yz, zz, zw, xw, yw, zw, ww], axis=-1)
    k = k.reshape(k.shape[:-1] + (4, 4))
    best = np.argmax(np.diagonal(ad.primal_of(k), axis1=-2, axis2=-1), axis=-1)
    q = np.take_along_axis(k, best[..., None, None], axis=-2)[..., 0, :]
    q = q / np.sqrt((q * q).sum(axis=-1, keepdims=True))
    return np.where(ad.primal_of(q)[..., 3:4] < 0, -q, q)
