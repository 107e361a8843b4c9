"""Batched forward kinematics over a kinematic chain.

The pipeline mirrors a scatter/map/scan structure: a flat joint-value batch
theta (b*m,) is scattered through a precomputed index matrix P into the
6-DoF parameter tensor Q (b, n, 6); every Q row is expanded into a joint
transform; each joint transform is premultiplied by its segment's static
link transform; and an inclusive cumulative matrix product along the chain
axis yields every intermediate (and the final) base-to-frame transform.

One pipeline serves values and derivatives: every stage is written in numpy
operations that autodiff.DualArray also implements, so a DualArray theta
batch runs the same function bodies as a float batch and carries its
tangents (vector forward mode) through all of them.  pose_jacobian is one
such pass with the m joint columns seeded.

Joints with an arbitrary axis are handled by conjugation: motion about axis
``a`` equals R_align . canonical-slot-motion . R_align^T, where R_align maps
the canonical axis onto ``a``.  R_align is folded into the segment's static
transform and R_align^T into the following segment's, so the scatter/scan
pipeline itself only ever sees canonical slots.  Axis-aligned joints
(axis = +-e_i) use their slot directly with the sign folded into the theta
scaling.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import transforms
from .urdf import JointType, KinematicChain

__all__ = [
    "ShapeError",
    "FkEngine",
    "new_engine",
    "scatter_thetas",
    "joint_transforms",
    "combine_link_joint",
    "scan_compose",
    "forward",
    "pose_jacobian",
    "limit_violations",
]


class ShapeError(ValueError):
    """Input dimensions inconsistent with the engine's chain and batch size."""


_AXIS_TOL = 1e-9

# Large batches run through the float pipeline in blocks of this many
# configurations: beyond it the (b, n, 4, 4) working set falls out of cache
# and per-sample cost climbs.  Blocking changes no arithmetic (batch elements
# never interact), so results are bitwise identical to a single pass.
_BLOCK_ROWS = 256


def _aligned_axis(axis):
    """(coordinate index, sign) if axis is +-e_i within tolerance, else None."""
    a = np.asarray(axis, dtype=float)
    for i in range(3):
        e = np.zeros(3)
        e[i] = 1.0
        if np.abs(a - e).max() <= _AXIS_TOL:
            return i, 1.0
        if np.abs(a + e).max() <= _AXIS_TOL:
            return i, -1.0
    return None


def plane_basis(axis):
    """Deterministic orthonormal (u, v) spanning the plane perpendicular to axis.

    u is the Gram-Schmidt projection of the coordinate axis with the
    smallest-magnitude component of ``axis`` (ties to the lowest index);
    v = axis x u completes the right-handed triad (u, v, axis).
    """
    a = np.asarray(axis, dtype=float)
    seed = int(np.argmin(np.abs(a)))
    e = np.zeros(3)
    e[seed] = 1.0
    u = e - a * a[seed]
    u /= np.linalg.norm(u)
    v = np.cross(a, u)
    return u, v


def _align_rotation(columns):
    r = np.eye(4)
    r[:3, :3] = np.column_stack(columns)
    return r


@dataclass(frozen=True)
class _Segment:
    pre: np.ndarray  # 4x4 static transform: origin with any alignment folded in
    slots: tuple  # Q slots written by this joint's dof, in theta order
    scales: tuple  # per-dof sign/scale applied to theta before scatter
    post: np.ndarray | None  # alignment inverse pending after this joint


def _build_segment(joint):
    pre = transforms.sixdof_to_transform(joint.origin_params()).astype(float)
    jt = joint.joint_type
    align = None
    if jt is JointType.FIXED:
        slots, scales = (), ()
    elif jt is JointType.FLOATING:
        slots, scales = (0, 1, 2, 3, 4, 5), (1.0,) * 6
    elif jt is JointType.PLANAR:
        u, v = plane_basis(joint.axis)
        slots, scales = (0, 1), (1.0, 1.0)
        r = _align_rotation((u, v, np.asarray(joint.axis, dtype=float)))
        if not np.array_equal(r, np.eye(4)):
            align = r
    else:  # revolute, continuous, prismatic: one dof about/along `axis`
        hit = _aligned_axis(joint.axis)
        rotational = jt is not JointType.PRISMATIC
        if hit is not None:
            i, sign = hit
            slots, scales = ((3 + i,) if rotational else (i,)), (sign,)
        else:
            # canonical z slot, conjugated onto the actual axis
            slots, scales = ((5,) if rotational else (2,)), (1.0,)
            a = np.asarray(joint.axis, dtype=float)
            u, v = plane_basis(a)
            align = _align_rotation((u, v, a))
    return pre, align, slots, scales


class FkEngine:
    """Immutable forward-kinematics evaluator for one chain at one batch size.

    All shape-independent work (static transforms, the index matrix, axis
    alignment) happens at construction; forward calls only scatter, build
    joint transforms, and scan.
    """

    def __init__(self, chain: KinematicChain, batch_size: int, dtype=np.float64):
        if batch_size < 1:
            raise ValueError(f"batch_size must be positive, got {batch_size}")
        self.chain = chain
        self.batch_size = int(batch_size)
        self.n = chain.n
        self.m = chain.m
        self.dtype = np.dtype(dtype)
        if self.dtype not in (np.dtype(np.float64), np.dtype(np.float32)):
            raise ValueError(f"unsupported dtype {dtype!r}")

        segments = []
        carry = None  # alignment inverse awaiting the next static transform
        for _, joint in chain.segments:
            pre, align, slots, scales = _build_segment(joint)
            if carry is not None:
                pre = carry @ pre
            post = None
            if align is not None:
                pre = pre @ align
                post = align.T.copy()
            carry = post
            segments.append(_Segment(pre=pre, slots=slots, scales=scales, post=post))

        b, n, m = self.batch_size, self.n, self.m
        if n:
            self._tl = np.stack([seg.pre for seg in segments]).astype(self.dtype)
        else:
            self._tl = np.empty((0, 4, 4), dtype=self.dtype)

        slot_per_dof = np.array([s for seg in segments for s in seg.slots], dtype=np.intp)
        row_per_dof = np.array(
            [i for i, seg in enumerate(segments) for _ in seg.slots], dtype=np.intp
        )
        scale_per_dof = np.array([s for seg in segments for s in seg.scales])
        self._rows_per_dof = row_per_dof
        self._slots_per_dof = slot_per_dof
        self._scale_per_dof = scale_per_dof.astype(self.dtype)
        self._index_matrix = np.column_stack(
            [
                np.repeat(np.arange(b, dtype=np.intp), m),
                np.tile(row_per_dof, b),
                np.tile(slot_per_dof, b),
            ]
        )
        self._scale_tile = np.tile(scale_per_dof, b).astype(self.dtype)
        # per-row post-corrections, applied after the scan
        self._posts = tuple(
            (i, seg.post.astype(self.dtype)) for i, seg in enumerate(segments) if seg.post is not None
        )
        self._final_post = None
        if self._posts and self._posts[-1][0] == self.n - 1:
            self._final_post = self._posts[-1][1]

    # aliases matching the tensor-pipeline notation
    @property
    def b(self):
        return self.batch_size

    @property
    def index_matrix(self):
        """(b*m, 3) rows of (batch index, joint row, parameter slot)."""
        return self._index_matrix.copy()

    @property
    def link_transforms(self):
        """The precomputed static per-segment transforms, shape (n, 4, 4)."""
        return self._tl.copy()

    # -- pipeline stages ------------------------------------------------------

    def _check_flat(self, flat):
        if flat.size != self.batch_size * self.m:
            raise ShapeError(
                f"expected {self.batch_size * self.m} joint values "
                f"(batch {self.batch_size} x dof {self.m}), got {flat.size}"
            )

    def scatter_thetas(self, thetas):
        """Scatter a flat theta batch into the (b, n, 6) parameter tensor.

        The tensor starts from fresh zeros on every call; only the index
        matrix rows are written, so unaddressed cells are exactly zero.
        """
        flat = np.asarray(thetas, dtype=self.dtype).ravel()
        self._check_flat(flat)
        q = np.zeros((self.batch_size, self.n, 6), dtype=self.dtype)
        if flat.size:
            p = self._index_matrix
            q[p[:, 0], p[:, 1], p[:, 2]] = flat * self._scale_tile
        return q

    def combine_link_joint(self, tj):
        """Per-cell static-times-joint product: TLJ[k, i] = TL[i] @ TJ[k, i]."""
        return np.matmul(self._tl, tj)

    def forward(self, thetas, want_intermediates=False):
        """Full pipeline: scatter -> joint transforms -> combine -> scan.

        Returns the (b, 4, 4) final transforms, or all cumulative
        (b, n, 4, 4) transforms with ``want_intermediates``.  A DualArray
        batch returns a DualArray whose primal is bitwise equal to the float
        result and whose tangents are pushed through the same kernels.
        Object-dtype input (floats and seeded DiffScalars) is converted to a
        DualArray at entry and back to DiffScalars at exit.
        """
        if isinstance(thetas, ad.DualArray):
            return self._evaluate(thetas, want_intermediates)
        arr = thetas if isinstance(thetas, np.ndarray) else np.asarray(thetas)
        if arr.dtype == object:
            return self._evaluate(ad.DualArray.from_scalars(arr), want_intermediates).to_scalars()
        return self._evaluate(arr, want_intermediates)

    def _evaluate(self, thetas, want_intermediates=False):
        """forward() on a float ndarray or DualArray batch."""
        thetas = thetas.astype(self.dtype, copy=False)
        self._check_flat(thetas)
        values = ad.primal_of(thetas)
        if values.size and not np.isfinite(values).all():
            raise ValueError("non-finite joint value in theta batch")
        b, n, m = self.batch_size, self.n, self.m
        flat2d = thetas.reshape(b, m)
        if n == 0:
            if want_intermediates:
                return np.empty((b, 0, 4, 4), dtype=self.dtype, like=flat2d)
            out = np.zeros((b, 4, 4), dtype=self.dtype, like=flat2d)
            out[...] = np.eye(4)
            return out
        if want_intermediates:
            if b <= _BLOCK_ROWS:
                return self._intermediates_block(flat2d)
            out = np.empty((b, n, 4, 4), dtype=self.dtype, like=flat2d)
            for start in range(0, b, _BLOCK_ROWS):
                stop = min(start + _BLOCK_ROWS, b)
                out[start:stop] = self._intermediates_block(flat2d[start:stop])
            return out
        out = np.empty((b, 4, 4), dtype=self.dtype, like=flat2d)
        for start in range(0, b, _BLOCK_ROWS):
            stop = min(start + _BLOCK_ROWS, b)
            self._finals_block(flat2d[start:stop], out[start:stop])
        return out

    def _joint_transforms_block(self, flat2d):
        q = np.zeros((flat2d.shape[0], self.n, 6), dtype=self.dtype, like=flat2d)
        if self.m:
            q[:, self._rows_per_dof, self._slots_per_dof] = flat2d * self._scale_per_dof
        return transforms.sixdof_batch_to_transforms(q)

    def _intermediates_block(self, flat2d):
        tj = self._joint_transforms_block(flat2d)
        cum = scan_compose(self.combine_link_joint(tj))
        for i, post in self._posts:
            cum[:, i] = cum[:, i] @ post
        return cum

    def _finals_block(self, flat2d, out):
        # finals only: fold the running product directly into the output
        # slice, without materializing the (b, n, 4, 4) cumulative tensor
        tj = self._joint_transforms_block(flat2d)
        n, post = self.n, self._final_post
        if n == 1 and post is None:
            np.matmul(self._tl[0], tj[:, 0], out=out)
            return
        cur = np.matmul(self._tl[0], tj[:, 0])
        for i in range(1, n):
            term = np.matmul(self._tl[i], tj[:, i])
            if i == n - 1 and post is None:
                np.matmul(cur, term, out=out)
                return
            cur = cur @ term
        np.matmul(cur, post, out=out)

# -- module-level operation wrappers ----------------------------------------


def new_engine(chain: KinematicChain, batch_size: int, dtype=np.float64) -> FkEngine:
    return FkEngine(chain, batch_size, dtype=dtype)


def scatter_thetas(engine: FkEngine, thetas):
    return engine.scatter_thetas(thetas)


def joint_transforms(q):
    """Expand every (batch, joint) parameter row of Q into its 4x4 transform."""
    return transforms.sixdof_batch_to_transforms(q)


def combine_link_joint(engine: FkEngine, tj):
    return engine.combine_link_joint(tj)


def scan_compose(tlj):
    """Inclusive cumulative matrix product along the chain axis (axis -3)."""
    if not isinstance(tlj, ad.DualArray):
        tlj = np.asarray(tlj)
    n = tlj.shape[-3]
    out = np.empty(tlj.shape, dtype=tlj.dtype, like=tlj)
    if n == 0:
        return out
    out[..., 0, :, :] = tlj[..., 0, :, :]
    for i in range(1, n):
        out[..., i, :, :] = out[..., i - 1, :, :] @ tlj[..., i, :, :]
    return out


def forward(engine: FkEngine, thetas, want_intermediates=False):
    return engine.forward(thetas, want_intermediates=want_intermediates)


def pose_jacobian(engine: FkEngine, thetas):
    """(b, 6, m) pose Jacobians, one per batch configuration.

    Rows follow the pose layout (x, y, z, alpha, beta, gamma); columns follow
    the chain's theta layout.  Computed by one DualArray forward pass with
    the m joint columns seeded, followed by the same pose extraction the
    float path uses: all configurations share the m-wide tangent space
    because cross-configuration derivatives are structurally zero.  The
    Jacobian has the engine's dtype.
    """
    flat = np.asarray(thetas, dtype=engine.dtype).ravel()
    engine._check_flat(flat)
    b, m = engine.batch_size, engine.m
    # _evaluate is forward() without its input coercion; wrappers around
    # forward (perfbench's tracer) expect array-like thetas
    finals = engine._evaluate(ad.seed_array(flat.reshape(b, m)))
    poses, _ = transforms.pose_batch_from_transforms(finals)
    jac = np.moveaxis(poses.tangent, 0, -1)
    if not np.isfinite(jac).all():
        raise ValueError("non-finite derivative in jacobian output")
    return jac


def limit_violations(chain: KinematicChain, thetas):
    """URDF limit violations in a theta batch (forward never enforces limits).

    Returns (config index, joint name, dof index within joint, value, lower,
    upper) tuples.
    """
    if chain.m == 0:
        return []
    flat = np.asarray(thetas, dtype=float).reshape(-1, chain.m)
    violations = []
    offset = 0
    for _, joint in chain.segments:
        if joint.limits is not None:
            lo, hi = joint.limits.lower, joint.limits.upper
            for d in range(joint.dof):
                col = flat[:, offset + d]
                for k in np.nonzero((col < lo) | (col > hi))[0]:
                    violations.append((int(k), joint.name, d, float(col[k]), lo, hi))
        offset += joint.dof
    return violations
