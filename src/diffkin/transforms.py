"""Rigid-transform construction and pose extraction.

A pose is a six-vector [x, y, z, alpha, beta, gamma]: translation followed by
fixed-axis roll/pitch/yaw, composed as R = Rz(gamma) @ Ry(beta) @ Rx(alpha).

The batch kernels (sixdof_batch_to_transforms, pose_batch_from_transforms)
are what the kinematics pipeline runs, on float arrays and on
autodiff.DualArray alike.  The single-transform helpers build or read one
4x4 at a time; rot_*, rpy_to_rotation and the *_values_* extractors also
accept DiffScalar entries, for the scalar-generic rotation metrics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad

__all__ = [
    "PoseRPY",
    "PoseQuaternion",
    "rot_x",
    "rot_y",
    "rot_z",
    "rpy_to_rotation",
    "sixdof_to_transform",
    "sixdof_batch_to_transforms",
    "compose",
    "pose_from_transform",
    "pose_batch_from_transforms",
    "pose_values_from_transform",
    "quaternion_from_rotation",
    "quaternion_batch_from_rotations",
    "quaternion_values_from_rotation",
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


@dataclass(frozen=True)
class PoseQuaternion:
    """Translation plus unit quaternion (x, y, z, w), w >= 0."""

    x: float
    y: float
    z: float
    qx: float
    qy: float
    qz: float
    qw: float

    def as_array(self):
        return np.array([self.x, self.y, self.z, self.qx, self.qy, self.qz, self.qw])


def _as_transform(rows):
    """4x4 array from nested lists; object dtype iff any cell is a DiffScalar."""
    return np.array(rows)


def rot_x(angle):
    c, s = ad.cos(angle), ad.sin(angle)
    return _as_transform(
        [
            [1.0, 0.0, 0.0, 0.0],
            [0.0, c, -s, 0.0],
            [0.0, s, c, 0.0],
            [0.0, 0.0, 0.0, 1.0],
        ]
    )


def rot_y(angle):
    c, s = ad.cos(angle), ad.sin(angle)
    return _as_transform(
        [
            [c, 0.0, s, 0.0],
            [0.0, 1.0, 0.0, 0.0],
            [-s, 0.0, c, 0.0],
            [0.0, 0.0, 0.0, 1.0],
        ]
    )


def rot_z(angle):
    c, s = ad.cos(angle), ad.sin(angle)
    return _as_transform(
        [
            [c, -s, 0.0, 0.0],
            [s, c, 0.0, 0.0],
            [0.0, 0.0, 1.0, 0.0],
            [0.0, 0.0, 0.0, 1.0],
        ]
    )


def rpy_rotation_rows(alpha, beta, gamma):
    """3x3 rows of Rz(gamma) @ Ry(beta) @ Rx(alpha), expanded in closed form."""
    ca, sa = ad.cos(alpha), ad.sin(alpha)
    cb, sb = ad.cos(beta), ad.sin(beta)
    cg, sg = ad.cos(gamma), ad.sin(gamma)
    return [
        [cg * cb, cg * sb * sa - sg * ca, cg * sb * ca + sg * sa],
        [sg * cb, sg * sb * sa + cg * ca, sg * sb * ca - cg * sa],
        [-sb, cb * sa, cb * ca],
    ]


def rpy_to_rotation(alpha, beta, gamma):
    """3x3 rotation for fixed-axis rpy angles (z-yaw about the world frame last)."""
    return np.array(rpy_rotation_rows(alpha, beta, gamma))


def sixdof_to_transform(params):
    """4x4 homogeneous transform for a [x, y, z, alpha, beta, gamma] six-vector."""
    x, y, z, alpha, beta, gamma = params
    r = rpy_rotation_rows(alpha, beta, gamma)
    return np.array(
        [
            [r[0][0], r[0][1], r[0][2], x],
            [r[1][0], r[1][1], r[1][2], y],
            [r[2][0], r[2][1], r[2][2], z],
            [0.0, 0.0, 0.0, 1.0],
        ]
    )


def compose(a, b):
    """Matrix product of two transforms (works elementwise on batches)."""
    return np.asarray(a) @ np.asarray(b)


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


def pose_from_transform(t, check=True):
    """Extract a PoseRPY from a 4x4 float transform.

    At gimbal lock (|cos(beta)| ~ 0) the roll/yaw split is not unique; the
    returned pose fixes alpha = 0, absorbs the remaining rotation into gamma,
    and flags ``degenerate=True``.  Round-tripping through
    sixdof_to_transform reproduces the input transform either way.
    """
    t = np.asarray(t, dtype=float)
    if check:
        _check_rotation_block(t)
    r00, r10, r20 = t[0, 0], t[1, 0], t[2, 0]
    cb = np.hypot(r00, r10)
    beta = np.arctan2(-r20, cb)
    if cb <= _GIMBAL_COS_TOL:
        # beta = +-pi/2: only alpha -+ gamma is observable.
        alpha = 0.0
        gamma = np.arctan2(-t[0, 1], t[1, 1])
        return PoseRPY(t[0, 3], t[1, 3], t[2, 3], alpha, float(beta), float(gamma), degenerate=True)
    alpha = np.arctan2(t[2, 1], t[2, 2])
    gamma = np.arctan2(r10, r00)
    return PoseRPY(t[0, 3], t[1, 3], t[2, 3], float(alpha), float(beta), float(gamma))


def pose_batch_from_transforms(ts):
    """Vectorized pose extraction: (..., 4, 4) -> ((..., 6) poses, bool degenerate mask).

    ``ts`` is a float array or a DualArray; the poses are of the same kind.
    On a DualArray the derivative of cos(beta) = hypot(r00, r10) is capped
    like DiffScalar.sqrt, so at gimbal lock d(beta) stays finite.
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


def quaternion_from_rotation(t, check=True):
    """Unit quaternion (x, y, z, w) with w >= 0 from a transform or 3x3 rotation.

    Uses the largest of the four Shepperd candidates so the square root is
    always well-conditioned.
    """
    t = np.asarray(t, dtype=float)
    r = t[:3, :3]
    if check:
        err = np.abs(r @ r.T - np.eye(3)).max()
        if err > _ORTHONORMAL_TOL or np.linalg.det(r) < 0:
            raise ValueError(f"rotation block is not orthonormal (defect {err:.3g})")
    tr = r[0, 0] + r[1, 1] + r[2, 2]
    cands = np.array([1.0 + tr, 1.0 + r[0, 0] - r[1, 1] - r[2, 2], 1.0 - r[0, 0] + r[1, 1] - r[2, 2], 1.0 - r[0, 0] - r[1, 1] + r[2, 2]])
    i = int(np.argmax(cands))
    s = 2.0 * np.sqrt(max(cands[i], 0.0))
    if i == 0:
        q = np.array([(r[2, 1] - r[1, 2]) / s, (r[0, 2] - r[2, 0]) / s, (r[1, 0] - r[0, 1]) / s, s / 4.0])
    elif i == 1:
        q = np.array([s / 4.0, (r[0, 1] + r[1, 0]) / s, (r[0, 2] + r[2, 0]) / s, (r[2, 1] - r[1, 2]) / s])
    elif i == 2:
        q = np.array([(r[0, 1] + r[1, 0]) / s, s / 4.0, (r[1, 2] + r[2, 1]) / s, (r[0, 2] - r[2, 0]) / s])
    else:
        q = np.array([(r[0, 2] + r[2, 0]) / s, (r[1, 2] + r[2, 1]) / s, s / 4.0, (r[1, 0] - r[0, 1]) / s])
    q /= np.linalg.norm(q)
    if q[3] < 0:
        q = -q
    return q


def quaternion_batch_from_rotations(ts):
    """Vectorized quaternion extraction, (..., 4, 4) or (..., 3, 3) -> (..., 4)."""
    ts = np.asarray(ts, dtype=float)
    r = ts[..., :3, :3]
    lead = r.shape[:-2]
    c0 = 1.0 + r[..., 0, 0] + r[..., 1, 1] + r[..., 2, 2]
    c1 = 1.0 + r[..., 0, 0] - r[..., 1, 1] - r[..., 2, 2]
    c2 = 1.0 - r[..., 0, 0] + r[..., 1, 1] - r[..., 2, 2]
    c3 = 1.0 - r[..., 0, 0] - r[..., 1, 1] + r[..., 2, 2]
    cands = np.stack([c0, c1, c2, c3], axis=-1)
    best = np.argmax(cands, axis=-1)
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
    q /= np.linalg.norm(q, axis=-1, keepdims=True)
    return np.where(q[..., 3:4] < 0, -q, q)


# -- scalar-generic extraction (floats or DiffScalars) -----------------------


def pose_values_from_transform(t, with_flag=False):
    """Pose [x, y, z, alpha, beta, gamma] from a 4x4 of plain or
    differentiable scalars, with the same gimbal convention as
    pose_from_transform.  Differentiable away from the lock."""
    r00, r10, r20 = t[0][0], t[1][0], t[2][0]
    cb = ad.sqrt(r00 * r00 + r10 * r10)
    beta = ad.atan2(-r20, cb)
    degenerate = ad.value_of(cb) <= _GIMBAL_COS_TOL
    if degenerate:
        alpha = 0.0
        gamma = ad.atan2(-t[0][1], t[1][1])
    else:
        alpha = ad.atan2(t[2][1], t[2][2])
        gamma = ad.atan2(r10, r00)
    values = [t[0][3], t[1][3], t[2][3], alpha, beta, gamma]
    if with_flag:
        return values, degenerate
    return values


def quaternion_values_from_rotation(t):
    """Unit quaternion [x, y, z, w] (w >= 0 by value) from a 4x4 or 3x3 of
    plain or differentiable scalars; branch choice follows the primal values."""
    r = t
    cands = [
        1.0 + r[0][0] + r[1][1] + r[2][2],
        1.0 + r[0][0] - r[1][1] - r[2][2],
        1.0 - r[0][0] + r[1][1] - r[2][2],
        1.0 - r[0][0] - r[1][1] + r[2][2],
    ]
    values = [ad.value_of(c) for c in cands]
    i = values.index(max(values))
    s = 2.0 * ad.sqrt(cands[i])
    if i == 0:
        q = [(r[2][1] - r[1][2]) / s, (r[0][2] - r[2][0]) / s, (r[1][0] - r[0][1]) / s, s / 4.0]
    elif i == 1:
        q = [s / 4.0, (r[0][1] + r[1][0]) / s, (r[0][2] + r[2][0]) / s, (r[2][1] - r[1][2]) / s]
    elif i == 2:
        q = [(r[0][1] + r[1][0]) / s, s / 4.0, (r[1][2] + r[2][1]) / s, (r[0][2] - r[2][0]) / s]
    else:
        q = [(r[0][2] + r[2][0]) / s, (r[1][2] + r[2][1]) / s, s / 4.0, (r[1][0] - r[0][1]) / s]
    norm = ad.sqrt(q[0] * q[0] + q[1] * q[1] + q[2] * q[2] + q[3] * q[3])
    q = [component / norm for component in q]
    if ad.value_of(q[3]) < 0:
        q = [-component for component in q]
    return q
