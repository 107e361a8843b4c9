"""Batched forward kinematics over a kinematic chain.

An FkEngine compiles its chain once into F = m one-dof factors: a static 4x4
transform S_f followed by one elementary motion M_f, a rotation about or a
translation along a canonical axis, so the chain's transform is
S_0 M_0 S_1 M_1 ... S_{F-1} M_{F-1} S_F.  A revolute, continuous or
prismatic joint gives one factor, a planar joint two (Tx Ty), a floating
joint six, in the order Tx Ty Tz Rz Ry Rx of sixdof_batch_to_transforms.
Joint origins, fixed joints and alignment inverses fold into the static
transforms; what follows the last factor is the trailing S_F.

Every evaluation runs one column pass, block by block (FkEngine._pass).
It keeps a block's running product P as its columns C, an array (4 columns,
3 rows, rows), each entry contiguous over the rows; P's bottom row is
(0, 0, 0, 1) in every product of these factors and is not stored.  Factor f
is applied in two steps: P S_f is one constant GEMM S_f^T @ C, skipped
where S_f = I, and P M_f mixes two columns.  A rotation about axis a by q,
(c, s) = (cos q, sin q), sets C_i, C_j <- c C_i + s C_j, c C_j - s C_i,
(i, j) = (1, 2), (2, 0), (0, 1) for a = x, y, z; a translation by d sets
C_3 <- C_3 + d C_a.  cos and sin are taken once per block.  Snapshots
(intermediates at each segment's last factor, finals after the chain) are
the columns times the static pending there, one more GEMM unless it is I.

The reference pipeline is the scatter/map/scan form of the same chain: a
flat theta batch (b*m,) is scattered through the index matrix P into the
6-DoF parameter tensor Q (b, n, 6) (scatter_thetas), every Q row is expanded
into a joint transform (joint_transforms), premultiplied by its segment's
static link transform (combine_link_joint), and an inclusive cumulative
product along the chain axis (scan_compose), then the post-corrections,
gives every intermediate and the final transform.  forward does not call
these stages; they are the oracle it is tested against, within a few ulps.

One pass serves values and derivatives.  Factor f moves one theta column
about or along axis a of the frame P_{f-1} S_f, whose axis column C_a and
origin column C_3 the pass reads off before f's mix, so that column's
derivative of every later transform T is a twist of that frame applied to
T: for a rotation with w = C_a, dR_T = w x R_T and dp_T = w x (p_T - C_3);
for a translation dp_T = w (Orin & Schrader 1984).  A DualArray theta batch
runs the float pass on its primal, so its primal result is the float result
bit for bit, and contracts those twists with the input tangents, so forward
carries any tangents (vector forward mode) at the cost of a few products
per block, whatever their number.  The kernels downstream (pose and
quaternion extraction, metrics) run on the resulting DualArray unchanged.

Jacobians of the final transform need no DualArray.  The twists of the
theta columns, times their theta scales, are the columns of the geometric
Jacobian in the base frame: rows w_c x (p_T - C_3) (w_c for a translation),
the velocity of T's origin, over rows w_c (0 for a translation), its
angular velocity (geometric_jacobian).  pose_jacobian maps the angular rows
through the rate map of R_T = Rz(gamma) Ry(beta) Rx(alpha) (Siciliano et al.
2009, sec. 3.6): with c = cos(beta) = hypot(r00, r10),
alpha' = (r00 wx + r10 wy) / c^2, beta' = (r00 wy - r10 wx) / c and
gamma' = wz - r20 alpha'.  Both run block by block on (m, rows) arrays, so
no temporary spans the batch.  Rows at gimbal lock
(c <= transforms._GIMBAL_COS_TOL), where the rate map is singular, take the
pose extraction's derivatives instead: _tangent_block applies their twists
to T, and pose_batch_from_transforms runs on that DualArray, so they keep
the float pose's convention (alpha = 0).

Joints with an arbitrary axis are handled by conjugation: motion about axis
``a`` equals R_align . canonical-slot-motion . R_align^T, where R_align maps
the canonical axis onto ``a``.  R_align is folded into the segment's static
transform and R_align^T into the following one, so the factors only ever
see canonical slots.  Axis-aligned joints (axis = +-e_i) use their slot
directly with the sign folded into the theta scaling.

Every entry that takes configurations reads them with _theta_rows: a batch
is (b*m,) or (b, m), all finite, of a dtype that autodiff.operand accepts.
Another shape, even of the right size, is a ShapeError; a NaN or inf a
ValueError; another dtype a TypeError, raised before any cast.  Values that
overflow inside the pass give inf or NaN without a numpy warning; the
callers that refuse non-finite output (the Jacobians, the CLI) raise.
"""

from __future__ import annotations

import functools

import numpy as np

from . import autodiff as ad
from . import transforms
from .urdf import JointType, KinematicChain

__all__ = [
    "ShapeError",
    "FkEngine",
    "joint_transforms",
    "scan_compose",
    "geometric_jacobian",
    "pose_jacobian",
    "limit_violations",
]


class ShapeError(ValueError):
    """Input dimensions inconsistent with the engine's chain and batch size."""


def _theta_rows(thetas, m, b=None, dtype=np.float64):
    """``thetas`` as (b, m) rows of ``dtype``, for any b if None: the one
    reading of a theta batch (see the module docstring)."""
    arr = ad.operand(thetas)
    if b is None:
        b = len(arr) if arr.ndim == 2 else arr.size // max(m, 1)
    if arr.shape not in ((b * m,), (b, m)):
        raise ShapeError(
            f"expected {b * m} joint values (batch {b} x dof {m}) of shape ({b * m},) or ({b}, {m}), "
            f"got shape {arr.shape}"
        )
    arr = arr.astype(dtype, copy=False)
    if arr.size and not np.isfinite(arr).all():
        raise ValueError("non-finite joint value in theta batch")
    return arr.reshape(b, m)


def _integer_setting(name, value, minimum):
    """``value`` as an int, refused unless an int or np.integer (a float would
    be truncated, True read as 1) of at least ``minimum``: the one integer rule."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        bound = "non-negative" if minimum == 0 else f"at least {minimum} (positive)"
        raise ValueError(f"{name} must be {bound}, got {value}")
    return int(value)


_AXIS_TOL = 1e-9

# Large batches run in blocks of this many configurations.  Median items per
# kilo reference unit (bench._timed_loop), arm4, one thread, 2-core x86_64,
# blocks of 256 / 512 / 1024 / 2048 rows:
#   forward       f64 b=1024  191k / 240k / 268k / 289k    b=4096 192k / 249k / 300k / 216k
#                 f32 b=1024  305k / 469k / 616k / 622k    b=4096 319k / 477k / 523k / 607k
#   pose_jacobian f64 b=256   115k / 111k / 111k / 111k    b=4096 120k / 162k / 184k / 119k
#                 f32 b=256   164k / 166k / 161k / 164k    b=4096 182k / 282k / 309k / 307k
# With 1024 a block's temporaries outgrow glibc's trim threshold beside the
# result, and the heap is refaulted on every call: pose_jacobian at b=1024
# and 2048 took 90-160 minor faults a call, forward at b=4096 about 250
# after a b=1024 run (b=4096 then read 20% below b=1024 in bench.run_bench).
# 512 took none.  Blocking changes no arithmetic, so results are bitwise
# identical to a single pass.
_BLOCK_ROWS = 512


def _aligned_axis(axis):
    """(coordinate index, sign) if axis is +-e_i within tolerance, else None."""
    x, y, z = axis
    for i, (lead, u, v) in enumerate(((x, y, z), (y, x, z), (z, x, y))):
        if abs(u) <= _AXIS_TOL and abs(v) <= _AXIS_TOL:
            if abs(lead - 1.0) <= _AXIS_TOL:
                return i, 1.0
            if abs(lead + 1.0) <= _AXIS_TOL:
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


def _unit(axis):
    """``axis`` scaled to unit length.  The parser keeps an axis within 1e-12
    of unit length as written, but an alignment built from it must be
    orthonormal to rounding: every factor is then a rigid motion, which the
    twist tangents of FkEngine._tangent_block rely on."""
    a = np.asarray(axis, dtype=float)
    return a / np.sqrt(a @ a)


def _align_rotation(columns):
    r = np.eye(4)
    r[:3, :3] = np.column_stack(columns)
    return r


def _joint_motion(joint):
    """(alignment or None, parameter slots, per-dof theta scales) of a joint."""
    jt = joint.joint_type
    if jt is JointType.FIXED:
        return None, (), ()
    if jt is JointType.FLOATING:
        return None, (0, 1, 2, 3, 4, 5), (1.0,) * 6
    if jt is JointType.PLANAR:
        a = _unit(joint.axis)
        u, v = plane_basis(a)
        r = _align_rotation((u, v, a))
        return (None if np.array_equal(r, np.eye(4)) else r), (0, 1), (1.0, 1.0)
    # revolute, continuous, prismatic: one dof about/along `axis`
    rotational = jt is not JointType.PRISMATIC
    hit = _aligned_axis(joint.axis)
    if hit is not None:
        i, sign = hit
        return None, ((3 + i,) if rotational else (i,)), (sign,)
    # canonical z slot, conjugated onto the actual axis
    a = _unit(joint.axis)
    u, v = plane_basis(a)
    return _align_rotation((u, v, a)), ((5,) if rotational else (2,)), (1.0,)


# Position of each parameter slot in a factor sequence: a six-vector is the
# motion Tx Ty Tz Rz Ry Rx (sixdof_batch_to_transforms' composition order).
_FACTOR_ORDER = (0, 1, 2, 5, 4, 3)
# The columns (C_i, C_j) that a rotation about x, y, z mixes, and the same
# two swapped, as views of the pass's (4, 3, rows) columns.
_PAIRS = (slice(1, 3), slice(2, None, -2), slice(0, 2))
_SWAPPED = (slice(2, 0, -1), slice(0, 3, 2), slice(1, None, -1))
# (s, -s) from a block's sines s; float32, so that the product keeps the
# sines' dtype, float32 or float64.
_SIGNS = np.array([1.0, -1.0], dtype=np.float32).reshape(2, 1, 1)
_EYE, _BOTTOM = np.eye(4), np.array([0.0, 0.0, 0.0, 1.0])
# A twist (w, v) as its 4x4 matrix [[w]x | v; 0 0 0 0], flattened row-major.
_TWIST_MATRIX = np.zeros((6, 16))
_TWIST_MATRIX[[2, 1, 2, 0, 1, 0], [1, 2, 4, 6, 8, 9]] = [-1.0, 1.0, 1.0, -1.0, -1.0, 1.0]
_TWIST_MATRIX[[3, 4, 5], [3, 7, 11]] = 1.0


def _blocks(b):
    """Row slices of a batch of b, _BLOCK_ROWS at a time."""
    return [slice(start, min(start + _BLOCK_ROWS, b)) for start in range(0, b, _BLOCK_ROWS)]


def _cross(a, b, out):
    """out = a x b along the first axis of (3, ...) arrays, one component at
    a time, so that no temporary is larger than a component."""
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        np.multiply(a[j], b[k], out=out[i])
        out[i] -= a[k] * b[j]


def _put_transforms(columns, out):
    """Write (4, 3, rows) columns as the (rows, 4, 4) transforms ``out``."""
    out[..., :3, :] = columns.transpose(2, 1, 0)
    out[..., 3, :] = _BOTTOM


class FkEngine:
    """Immutable forward-kinematics evaluator for one chain at one batch size.

    Construction compiles the chain into one-dof factors (see the module
    docstring): per factor its static transform, transposed for the column
    GEMM (None where it is the identity), its theta column and its motion;
    and the static transforms pending at each snapshot.  Every evaluation
    (forward, its DualArray tangents, the Jacobians and _products_around)
    runs the column pass _pass, one block of rows at a time.

    scatter_thetas, combine_link_joint, index_matrix and link_transforms,
    with the module's joint_transforms and scan_compose, are the reference
    pipeline; forward does not call them.
    """

    def __init__(self, chain: KinematicChain, batch_size: int, dtype=np.float64):
        self.chain = chain
        self.batch_size = _integer_setting("batch_size", batch_size, 1)
        self.n = chain.n
        self.m = chain.m
        self.dtype = np.dtype(dtype)
        if self.dtype not in (np.dtype(np.float64), np.dtype(np.float32)):
            raise ValueError(f"unsupported dtype {dtype!r}")

        joints = [joint for _, joint in chain.segments]
        origins = transforms.sixdof_batch_to_transforms(
            np.array([joint.origin_params() for joint in joints], dtype=float).reshape(-1, 6)
        )
        eye = np.eye(4)
        tl, posts, dof_rows, dof_slots, dof_scales = [], [], [], [], []
        factors = []  # (static, theta column, slot) in product order, one per dof
        marks = []  # (last factor so far, segment, static pending after it)
        carry = None  # alignment inverse awaiting the next static transform
        fixed = None  # product of the statics since the last factor
        for i, joint in enumerate(joints):
            align, joint_slots, joint_scales = _joint_motion(joint)
            pre = origins[i] if carry is None else carry @ origins[i]
            carry = None
            if align is not None:
                pre = pre @ align
                carry = align.T.copy()
                posts.append((i, carry.astype(self.dtype)))
            tl.append(pre)
            if joint_slots:
                col = len(dof_slots)
                static = pre if fixed is None else fixed @ pre
                for k in sorted(range(len(joint_slots)), key=lambda k: _FACTOR_ORDER[joint_slots[k]]):
                    factors.append((static, col + k, joint_slots[k]))
                    static = eye
                fixed = None
                pending = carry
            else:
                fixed = pending = pre if fixed is None else fixed @ pre
            dof_rows.extend([i] * len(joint_slots))
            dof_slots.extend(joint_slots)
            dof_scales.extend(joint_scales)
            marks.append((len(factors) - 1, i, pending))

        dt = self.dtype
        self._tl = np.array(tl, dtype=dt).reshape(-1, 4, 4)
        self._rows_per_dof = np.array(dof_rows, dtype=np.intp)
        self._slots_per_dof = np.array(dof_slots, dtype=np.intp)
        self._scale_per_dof = np.array(dof_scales, dtype=dt)
        # per-row post-corrections, applied after the reference pipeline's scan
        self._posts = tuple(posts)

        def transposed(static):
            return None if static is None or np.array_equal(static, eye) else np.ascontiguousarray(static.T, dtype=dt)

        # the pass's steps: (S_f^T or None, theta column, axis, and for a
        # rotation the mixed columns, them swapped, and its row of the
        # block's cos and sin)
        cols = np.array([col for _, col, _ in factors], dtype=np.intp)
        rot = np.array([slot >= 3 for _, _, slot in factors], dtype=bool)
        self._steps = tuple(
            (transposed(s), col, slot % 3) + ((_PAIRS[slot - 3], _SWAPPED[slot - 3], k) if r else (None, None, None))
            for (s, col, slot), r, k in zip(factors, rot, np.cumsum(rot) - 1)
        )
        self._rot_cols, self._trans_cols, self._factor_cols = cols[rot], cols[~rot], cols
        # snapshots: intermediates at every segment, finals after the chain
        marks.append((self.m - 1, 0, marks[-1][2] if self.n else eye))
        marks = [(f, i, transposed(p)) for f, i, p in marks]
        self._marks, self._final_marks = tuple(marks[:-1]), (marks[-1],)

    @functools.cached_property
    def _twist_weights(self):
        """Each theta column's theta scale, as (m,) for the finals and
        (n, 1, m) for the intermediates, zero where the column's factor
        comes after intermediate j's mark; built on the first DualArray
        evaluation, so that a float-only engine never pays for them."""
        col_factor = np.argsort(self._factor_cols)
        marked = np.array([f for f, _, _ in self._marks], dtype=np.intp)
        scale = self._scale_per_dof
        return scale, (col_factor <= marked[:, None, None]) * scale

    @property
    def index_matrix(self):
        """(b*m, 3) rows of (batch index, joint row, parameter slot)."""
        b = self.batch_size
        return np.column_stack(
            [
                np.repeat(np.arange(b, dtype=np.intp), self.m),
                np.tile(self._rows_per_dof, b),
                np.tile(self._slots_per_dof, b),
            ]
        )

    @property
    def link_transforms(self):
        """The precomputed static per-segment transforms, shape (n, 4, 4)."""
        return self._tl.copy()

    # -- reference pipeline stages --------------------------------------------

    def scatter_thetas(self, thetas):
        """Scatter a flat theta batch into the (b, n, 6) parameter tensor.

        The tensor starts from fresh zeros on every call; only the index
        matrix rows are written, so unaddressed cells are exactly zero.
        """
        flat2d = _theta_rows(thetas, self.m, self.batch_size, self.dtype)
        q = np.zeros((self.batch_size, self.n, 6), dtype=self.dtype)
        q[:, self._rows_per_dof, self._slots_per_dof] = flat2d * self._scale_per_dof
        return q

    def combine_link_joint(self, tj):
        """Per-cell static-times-joint product: TLJ[k, i] = TL[i] @ TJ[k, i]."""
        return np.matmul(self._tl, tj)

    # -- evaluation -------------------------------------------------------------

    def forward(self, thetas, want_intermediates=False):
        """Evaluate the compiled factors for a theta batch (see the module docstring).

        Returns the (b, 4, 4) final transforms, or all cumulative
        (b, n, 4, 4) transforms with ``want_intermediates``.  A DualArray
        batch with k tangents returns a DualArray whose primal is bitwise
        equal to the float result and whose k tangents come from the twists
        the pass reads off (see the module docstring).  Object-dtype input
        (floats and seeded DiffScalars) is converted to a DualArray at entry
        and back to DiffScalars at exit.
        """
        arr = thetas if isinstance(thetas, (np.ndarray, ad.DualArray)) else np.asarray(thetas)
        if arr.dtype == object:
            return self._evaluate(ad.DualArray.from_scalars(arr), want_intermediates).to_scalars()
        return self._evaluate(thetas, want_intermediates)

    def _evaluate(self, thetas, want_intermediates=False):
        """forward() on a float ndarray or DualArray batch: both run the
        float pass on the primal; a DualArray also has it read off the
        twists and turns them into tangents (_tangent_block)."""
        b, m = self.batch_size, self.m
        flat2d = _theta_rows(ad.primal_of(thetas), m, b, self.dtype)
        if want_intermediates:
            out = np.empty((b, self.n, 4, 4), dtype=self.dtype)
            snapshots, marks = out, self._marks
        else:
            out = np.empty((b, 4, 4), dtype=self.dtype)
            snapshots, marks = out[:, None], self._final_marks
        if not isinstance(thetas, ad.DualArray):
            for rows in _blocks(b):
                self._pass(flat2d[rows], snapshots[rows], ((0, marks),))
            return out
        k = thetas.width
        # (b, 1, k, m): each row's input tangents, one matrix row per tangent
        seeds = thetas.tangent.astype(self.dtype, copy=False).reshape(k, b, m).transpose(1, 0, 2)[:, None]
        tangent = np.empty((b, len(marks), k, 4, 4), dtype=self.dtype)
        weights = self._twist_weights[want_intermediates]
        for rows in _blocks(b):
            axes = np.empty((6, m, rows.stop - rows.start), dtype=self.dtype)
            self._pass(flat2d[rows], snapshots[rows], ((0, marks),), axes)
            self._tangent_block(self._twists(axes), snapshots[rows], seeds[rows], weights, tangent[rows])
        tangent = tangent.transpose(2, 0, 1, 3, 4) if want_intermediates else tangent[:, 0].transpose(1, 0, 2, 3)
        return ad.DualArray(out, tangent)

    def _pass(self, flat2d, out, spans, axes=None):
        """The column pass (see the module docstring) on a (rows, m) theta
        block.  Each span (first, marks) starts a product at factor
        ``first``; for each of its marks (f, i, pending^T) it puts the
        product of factors first..f times the pending static into
        out[:, i], or the pending static alone where f < first.  Returns the
        last mark's (4, 3, rows) columns; ``out`` may then be None.  With
        ``axes`` (6, m, rows), the pass writes each factor's axis column and
        origin column, read before its mix, into axes[:3, c] and
        axes[3:, c] of its theta column c.

        Inputs that overflow make inf and NaN silently; the callers that
        refuse non-finite output check it."""
        rows = len(flat2d)
        q = np.multiply(flat2d.T, self._scale_per_dof[:, None], order="C")
        angles = q[self._rot_cols]
        cos, sin = np.cos(angles), np.sin(angles)[:, None, None] * _SIGNS
        # two allocations: the columns a caller keeps hold no spare alive
        cur, spare = (np.empty((4, 3, rows), dtype=self.dtype) for _ in range(2))
        mixed = np.empty((2, 3, rows), dtype=self.dtype)
        columns = None
        with np.errstate(over="ignore", invalid="ignore"):
            for first, marks in spans:
                f = first
                for last, i, pending in marks:
                    for static, col, axis, pair, swapped, k in self._steps[f : last + 1]:
                        if f == first:
                            cur[...] = (_EYE if static is None else static)[:, :3, None]
                        elif static is not None:
                            np.matmul(static, cur.reshape(4, -1), out=spare.reshape(4, -1))
                            cur, spare = spare, cur
                        if axes is not None:
                            axes[:3, col], axes[3:, col] = cur[axis], cur[3]
                        if pair is not None:
                            np.multiply(cur[swapped], sin[k], out=mixed)
                            pair = cur[pair]
                            pair *= cos[k]
                            pair += mixed
                        else:
                            np.multiply(cur[axis], q[col], out=mixed[0])
                            cur[3] += mixed[0]
                        f += 1
                    if last < first:
                        columns = np.broadcast_to((_EYE if pending is None else pending)[:, :3, None], cur.shape)
                    elif pending is None:
                        columns = cur
                    else:
                        columns = np.matmul(pending, cur.reshape(4, -1), out=spare.reshape(4, -1)).reshape(cur.shape)
                    if out is not None:
                        _put_transforms(columns, out[:, i])
        return columns

    def _products_around(self, thetas, start, stop):
        """(head, tail), (b, 4, 4) each, of a theta batch: the product of
        factors 0..start-1 and that of factors stop..F-1 times the trailing
        static, so the final transform is head @ (factors start..stop-1) @
        tail.  ``start`` is at least 1; an empty tail product is the
        identity.  One pass per block makes both, and the head rounds as
        forward's prefix products do."""
        b = self.batch_size
        flat2d = _theta_rows(thetas, self.m, b, self.dtype)
        out = np.empty((b, 2, 4, 4), dtype=self.dtype)
        spans = ((0, ((start - 1, 0, None),)), (stop, ((self.m - 1, 1, self._final_marks[0][2]),)))
        for rows in _blocks(b):
            self._pass(flat2d[rows], out[rows], spans)
        # contiguous, as every identification step multiplies them
        return out[:, 0].copy(), out[:, 1].copy()

    def _twists(self, axes):
        """(rows, m, 6) twists (w, v) per unit of q of the pass's axis and
        origin columns ``axes`` (6, m, rows): w the axis and v = origin x w
        for a rotation, (0, axis) for a translation, so that dT = [w, v]^ T."""
        w = axes[:3]
        twists = np.empty_like(axes)
        twists[:3] = w
        _cross(axes[3:], w, twists[3:])
        twists[3:, self._trans_cols], twists[:3, self._trans_cols] = w[:, self._trans_cols], 0.0
        return twists.transpose(2, 1, 0)

    def _tangent_block(self, twists, frames, seeds, weights, out):
        """Tangents of a block's snapshots: the (r, m, 6) ``twists`` (see
        _twists) contracted with the input tangents ``seeds`` (r, 1, k, m)
        times ``weights`` (see _twist_weights), then as 4x4 twist matrices
        applied to the (r, S, 4, 4) ``frames``; ``out`` is (r, S, k, 4, 4).
        For seed_array input the contraction copies the twists exactly.
        """
        spatial = (seeds * weights) @ twists[:, None]
        rows, snaps, k = spatial.shape[:3]
        mats = (spatial.reshape(-1, 6) @ _TWIST_MATRIX.astype(self.dtype, copy=False)).reshape(rows, snaps, 4 * k, 4)
        np.matmul(mats, frames, out=out.reshape(rows, snaps, 4 * k, 4))

    def _jacobian(self, thetas, rates):
        """(b, 6, m) Jacobians of the final transforms (see the module
        docstring): geometric_jacobian's, or with ``rates`` pose_jacobian's."""
        b, m = self.batch_size, self.m
        flat2d = _theta_rows(thetas, m, b, self.dtype)
        jac = np.empty((b, 6, m), dtype=self.dtype)
        for rows in _blocks(b):
            self._jacobian_block(flat2d[rows], jac[rows], rates)
        return jac

    def _jacobian_block(self, flat2d, out, rates):
        """_jacobian's rows ``out`` (rows, 6, m) of a (rows, m) theta block,
        every product on contiguous (m, rows) arrays.  A method of its own
        so that the block's temporaries are freed before the next block
        allocates."""
        axes = np.empty((6, self.m, len(flat2d)), dtype=self.dtype)
        t = self._pass(flat2d, None, ((0, self._final_marks),), axes)
        if not np.isfinite(t).all():
            raise ValueError("non-finite value in jacobian output")
        (r00, r10, r20), p = t[0], t[3]
        trans = self._trans_cols
        w = axes[:3] * self._scale_per_dof[:, None]
        # p_T - origin in the angular rows until the rates overwrite it: the
        # block's temporaries stay small beside a b-wide result, else glibc
        # trims and refaults its heap on every call (b = 1024, 2048)
        block = np.empty_like(axes)
        _cross(w, np.subtract(p[:, None], axes[3:], out=block[3:]), block[:3])
        if trans.size:
            block[:3, trans], w[:, trans] = w[:, trans], 0.0
        locked = ()
        if rates:
            cb = np.hypot(r00, r10)
            locked = np.flatnonzero(cb <= transforms._GIMBAL_COS_TOL)
            cb[locked] = 1.0
            # per-row coefficients (r00, r10) / c^2 and / c, then two
            # products a rate
            alpha, beta = t[0, :2] / (cb * cb), t[0, :2] / cb
            np.multiply(w[0], alpha[0], out=block[3])
            block[3] += w[1] * alpha[1]
            np.multiply(w[1], beta[0], out=block[4])
            block[4] -= w[0] * beta[1]
            np.subtract(w[2], r20 * block[3], out=block[5])
        else:
            block[3:] = w
        out[...] = block.transpose(2, 0, 1)
        if len(locked):
            # the rate map is singular: these rows take the pose extraction's
            # derivatives, on a DualArray of their tangents
            m = self.m
            frames = np.empty((len(locked), 1, 4, 4), dtype=self.dtype)
            _put_transforms(t[..., locked], frames[:, 0])
            tangent = np.empty((len(locked), 1, m, 4, 4), dtype=self.dtype)
            seeds = np.eye(m, dtype=self.dtype)[None, None]
            self._tangent_block(self._twists(axes[..., locked]), frames, seeds, self._scale_per_dof, tangent)
            dual = ad.DualArray(frames[:, 0], tangent[:, 0].transpose(1, 0, 2, 3))
            out[locked] = transforms.pose_batch_from_transforms(dual)[0].tangent.transpose(1, 2, 0)
        if not np.isfinite(out).all():
            raise ValueError("non-finite derivative in jacobian output")


# -- module-level stages and derivatives ------------------------------------


def joint_transforms(q):
    """Expand every (batch, joint) parameter row of Q into its 4x4 transform."""
    return transforms.sixdof_batch_to_transforms(q)


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


def geometric_jacobian(engine: FkEngine, thetas):
    """(b, 6, m) geometric Jacobians of the final transforms, in the base frame.

    Column c is theta column c's twist (see the module docstring): rows 0-2
    are w_c x p_T + v_c, the velocity of the final frame's origin, and rows
    3-5 are w_c, its angular velocity, so the Jacobian is defined at every
    configuration.  Columns follow the chain's theta layout; the Jacobian
    has the engine's dtype.
    """
    return engine._jacobian(thetas, rates=False)


def pose_jacobian(engine: FkEngine, thetas):
    """(b, 6, m) pose Jacobians, one per batch configuration.

    Rows follow the pose layout (x, y, z, alpha, beta, gamma); columns follow
    the chain's theta layout.  Rows 0-2 are geometric_jacobian's; rows 3-5
    are its angular rows through the RPY rate map of the final rotation,
    and rows at gimbal lock take the pose extraction's derivatives (see the
    module docstring).  The Jacobian has the engine's dtype.
    """
    return engine._jacobian(thetas, rates=True)


def limit_violations(chain: KinematicChain, thetas):
    """URDF limit violations in a theta batch (forward never enforces limits).

    Returns (config index, joint name, dof index within joint, value, lower,
    upper) tuples.
    """
    flat = _theta_rows(thetas, chain.m)
    violations = []
    for col, (joint, d) in enumerate(chain.dofs):
        if joint.limits is not None:
            lo, hi = joint.limits.lower, joint.limits.upper
            for k in np.nonzero((flat[:, col] < lo) | (flat[:, col] > hi))[0]:
                violations.append((int(k), joint.name, d, float(flat[k, col]), lo, hi))
    return violations
