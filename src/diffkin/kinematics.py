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
(0, 0, 0, 1) in every product of these factors and is not stored.  A span
of the pass (a product from some factor on) starts with one GEMM: factor
f's static columns pushed through its motion are linear in (1, c, s) for a
rotation and in (1, q) for a translation, so the span's first C is a
constant (12 x 3) or (12 x 2) matrix G_f, each entry one of S_f's or its
negative, times those rows of the block.  Every later factor is applied in
two steps: P S_f is one constant GEMM S_f^T @ C, skipped where S_f = I,
and P M_f mixes two columns.  A static that only translates, by d along
one axis k (a common joint origin), is applied in place instead,
C_3 <- C_3 + d C_k, as a translation factor is; so is the static pending
at a span's last snapshot.  A rotation about axis a by q,
(c, s) = (cos q, sin q), sets C_i, C_j <- c C_i + s C_j, c C_j - s C_i,
(i, j) = (1, 2), (2, 0), (0, 1) for a = x, y, z, in six products and sums
whose operands all have the (3, rows) shape of one column: the two columns,
and c and s repeated over three rows.  numpy runs an elementwise op on
contiguous operands of one shape as one flat loop, but one with a broadcast
or reversed operand through its general iterator, at up to twice the cost.
A translation by d sets C_3 <- C_3 + d C_a.  A block takes c and s of all
its rotations from one tan of the half angles, t = tan(q/2):
c = 2/(1 + t^2) - 1, s = t 2/(1 + t^2), within 2 eps of cos and sin
(numpy's float64 tan loop is vectorised, its cos and sin loops call scalar
libm, about 5x slower an angle).  Snapshots (intermediates at each
segment's last factor, finals after the chain) are the columns times the
static pending there, one more GEMM unless it is I or applied in place,
copied as matrix rows into a (4, 4, rows) block in the result's transposed
layout, whose bottom row is (0, 0, 0, 1), then into the result by one 2-D
transposed copy, (rows, 16) <- (16, rows)^T.  The buffers are the calling
thread's workspace (see FkEngine); every entry is written before it is
read, so no result depends on them or on the block a row runs in.

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
origin column C_3 the pass reads off before f's mix (after a span's first
GEMM, which leaves a rotation's C_a and C_3 as they were; no derivative
reads a translation's C_3), so that column's derivative of every later
transform T is a twist of that frame applied to T: for a rotation with
w = C_a, dR_T = w x R_T and dp_T = w x (p_T - C_3); for a translation
dp_T = w (Orin & Schrader 1984).  A DualArray theta batch runs the float
pass on its primal, so its primal result is the float result bit for bit,
and contracts those twists with the input tangents, so forward carries any
tangents (vector forward mode) at the cost of a few products per block,
whatever their number.  The kernels downstream (pose and
quaternion extraction, metrics) run on the resulting DualArray unchanged.

Jacobians of the final transform need no DualArray.  The twists of the
theta columns, times their theta scales (+-1, which the pass folds into
the axis column it reads off), are the columns of the geometric Jacobian in
the base frame: rows w_c x (p_T - C_3) (w_c for a translation), the
velocity of T's origin, over rows w_c (0 for a translation), its angular
velocity (geometric_jacobian).  pose_jacobian maps the angular rows through
the rate map of R_T = Rz(gamma) Ry(beta) Rx(alpha) (Siciliano et al. 2009,
sec. 3.6): with c = cos(beta) = sqrt(r00^2 + r10^2),
alpha' = (r00 wx + r10 wy) / c^2, beta' = (r00 wy - r10 wx) / c and
gamma' = wz - r20 alpha'.  Both run forward's blocks, every product on
(m, rows) buffers of the thread's workspace.  Rows at gimbal lock
(c <= transforms._GIMBAL_COS_TOL), where the rate map is singular, take the
pose extraction's derivatives instead: _tangent_block applies their twists
to T, and pose_batch_from_transforms runs on that DualArray, so they keep
the float pose's convention (alpha = 0).  That extraction tests hypot(r00,
r10), so the two can lock different rows only where c is within an ulp of
the tolerance.

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
import threading

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

# Every evaluation runs blocks of _BLOCK_ROWS configurations but the DualArray tangents.  Median items per kilo
# reference unit (bench._timed_loop, 9 rounds), arm4, one thread, 2-core x86_64, by rows a block:
#        forward f64 b=1024 4096 8192 | f32 b=1024 4096 8192 | pose_jacobian f64 b=256 4096 | f32 b=256 4096
#   512            429k 473k 452k     |      571k  615k  594k |                   141k 220k |     171k 301k
#  1024            538k 580k 611k     |      831k  868k  877k |                   145k 275k |     172k 425k
#  2048            540k 693k 724k     |      817k 1038k 1126k |                   145k 308k |     174k 531k
#  4096            531k 726k 720k     |      826k 1317k 1226k |                   155k 324k |     178k 615k
#  8192            551k 772k 707k     |      802k 1327k 1446k |                   149k 340k |     180k 610k
# A batch in one block at every size reads alike within the host's noise (up to 10%); 8192 rows read -2% (float64)
# to +18% (float32) at b=8192 only, for twice the workspace.  The workspace, kept per thread, takes 376 + 8 m + 72 r
# bytes a row in float64 for r rotations (80 r beside a translation; each rotation's (1, c, s), and its cos and sin
# over three rows, 48 fewer where factor 0 rotates, as no pass mixes it; 648 on arm4, 2.7 MB at 4096 rows; a one-row
# block takes two), and 48 + 152 m more from the thread's first derivative pass (656 on arm4), so no call maps a
# block's buffers afresh.  The DualArray tangents' products, kept as well, take (m + 22) S k items a row for S
# snapshots of k tangents, which the caller sets: in 4096-row blocks a b=4096 arm4 forward took 0.83-0.94x the time,
# for 8x the memory, so they run _TANGENT_ROWS blocks (made afresh, 512-row products refaulted 200 pages a call at
# b=1024).  Blocks change no arithmetic.
_BLOCK_ROWS = 4096
_TANGENT_ROWS = 512


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
# The columns (C_i, C_j) that a rotation about x, y, z mixes.
_PAIRS = ((1, 2), (2, 0), (0, 1))
_EYE, _UNTURNED = np.eye(4), transforms.sixdof_batch_to_transforms(np.zeros(6))
# A twist (w, v) as its 4x4 matrix [[w]x | v; 0 0 0 0], flattened row-major.
_TWIST_MATRIX = np.zeros((6, 16))
_TWIST_MATRIX[[2, 1, 2, 0, 1, 0], [1, 2, 4, 6, 8, 9]] = [-1.0, 1.0, 1.0, -1.0, -1.0, 1.0]
_TWIST_MATRIX[[3, 4, 5], [3, 7, 11]] = 1.0


def _seed_maps():
    """(take, sign), (6, 12, 3) each, per slot: a span's first factor f makes its columns as G_f @ (1, q) (G_f's first
    two columns) or G_f @ (1, c, s), G_f = sign * S_f^T.flat[take], column k's row r in G_f's row 3 k + r; a zero
    takes S_f^T[0, 3], the bottom row's 0."""
    take, sign = np.full((6, 4, 3, 3), 3, dtype=np.intp), np.ones((6, 4, 3, 3))
    entry = 4 * np.arange(4)[:, None] + np.arange(3)  # S^T[k, r], column k's row r
    for a, (i, j) in enumerate(_PAIRS):
        # a translation keeps every column and adds q C_a to C_3; a rotation keeps C_a and C_3 and mixes C_i, C_j
        take[a, :, :, 0], take[a, 3, :, 1] = entry, entry[a]
        take[3 + a, [a, 3], :, 0] = entry[[a, 3]]
        take[3 + a, [i, j], :, 1], take[3 + a, [i, j], :, 2] = entry[[i, j]], entry[[j, i]]
        sign[3 + a, j, :, 2] = -1.0
    return take.reshape(6, 12, 3), sign.reshape(6, 12, 3)


_SEED_TAKE, _SEED_SIGN = _seed_maps()


def _blocks(b, rows):
    """Row slices of a batch of b, ``rows`` at a time."""
    return [slice(start, min(start + rows, b)) for start in range(0, b, rows)]


class _Workspace:
    """One thread's buffers for FkEngine._pass on blocks of ``rows`` rows
    (see the FkEngine docstring), with every factor's operands as views of
    them, so that the pass indexes nothing per factor, the theta columns'
    scales with the half of every rotation's tan(q/2) folded in, and the
    span-starting G_f of every factor that has started one (seed)."""

    def __init__(self, engine, rows):
        dt, m, rot, steps = engine.dtype, engine.m, len(engine._rot_cols), engine._steps
        # a one-row block runs its row twice: a span's first GEMM on one row would be a matrix-vector product, which
        # OpenBLAS rounds differently from a matrix product, so that a row's result would depend on its block
        out_rows, rows = rows, max(rows, 2)
        self.columns, snapshot = np.empty((2, 4, 3, rows), dtype=dt), np.zeros((4, 4, rows), dtype=dt)
        snapshot[3, 3] = 1.0
        # views: the GEMM operands (4, 3 rows) and results (12, rows), the columns as matrix rows, the snapshot's top
        # and its block's transposed rows
        self.flat, self.grid = self.columns.reshape(2, 4, -1), self.columns.reshape(2, 12, rows)
        self.rows, self.top = self.columns.transpose(0, 2, 1, 3), snapshot[:3]
        self.staged = snapshot.reshape(16, rows).T[:out_rows]
        # (1, q): a ones row over the theta columns, so that a translation's (1, q) is one strided view
        ones_q = np.empty((m + 1, rows), dtype=dt)
        ones_q[0] = 1.0
        self.q = q = ones_q[1:]
        self.mixed = np.empty((2, 3, rows), dtype=dt)  # the mixes' two temporaries
        # each theta column's scale, halved for a rotation: q holds half angles and full displacements
        self.scale = engine._scale_per_dof[:, None].copy()
        self.scale[engine._rot_cols] *= 0.5
        self.angles = q if rot == m else np.empty((rot, rows), dtype=dt)
        # the ones, cos and sin rows of every rotation, each contiguous, so that rotation k's (1, c, s) is ucs[:, k];
        # and the cos and sin, each repeated over a column's three rows, of every rotation that a pass mixes: all but
        # factor 0's, which every pass seeds
        self.ucs = ucs = np.empty((3, rot, rows), dtype=dt)
        ucs[0] = 1.0
        self.cos, self.sin = ucs[1], ucs[2]
        skip = int(bool(steps) and steps[0][5] is not None)
        self.trig = np.empty((2, rot - skip, 3, rows), dtype=dt)
        self.spread = ucs[1:, skip:, None]  # the trig's source, (2, rot - skip, 1, rows)
        self.spare = np.empty(0, dtype=dt)  # FkEngine._tangent_block's products, regrown when a block needs more
        self.steps, self.ones_q, self.seeds = steps, ones_q, {}
        # every view that an operand is, made once: each set's columns and (axis, origin) pairs, each cos and sin
        c, trig = self.columns, self.trig
        columns = [[c[p, 0], c[p, 1], c[p, 2], c[p, 3]] for p in (0, 1)]
        moved = [[c[p, 0:4:3], c[p, 1:4:2], c[p, 2:4]] for p in (0, 1)]
        cos3, sin3 = [trig[0, k] for k in range(rot - skip)], [trig[1, k] for k in range(rot - skip)]

        def operands(static, col, _, a, shift, k):
            """Factor operands in each set of columns c: the axis and origin columns as one (2, 3, rows) view, the
            origin column, an in-place static's (C_k, d) or None, and the motion's: a rotation's (C_i, C_j, sin, cos)
            (None for a factor 0, which no pass mixes), a translation's (C_a, q)."""
            i, j = _PAIRS[a]
            d, qa = None if shift is None else static[3, shift], q[col] if k is None else None
            return tuple(
                (
                    pairs[a],
                    c[3],
                    None if d is None else (c[shift], d),
                    (c[a], qa) if k is None else (c[i], c[j], sin3[k - skip], cos3[k - skip]) if k >= skip else None,
                )
                for c, pairs in zip(columns, moved)
            )

        self.ops = tuple(operands(*step) for step in steps)

    def seed(self, f):
        """Factor f's span-starting operands, (G_f, (1, q)) or (G_f, (1, c, s)) (see _seed_maps), built on the first
        span that starts there."""
        static, col, _, a, _, k = self.steps[f]
        kind = a if k is None else 3 + a
        entries = (_EYE if static is None else static).ravel()[_SEED_TAKE[kind]]
        g = np.multiply(entries, _SEED_SIGN[kind], dtype=self.q.dtype)
        operands = (g[:, :2], self.ones_q[0 : col + 2 : col + 1]) if k is None else (g, self.ucs[:, k])
        return self.seeds.setdefault(f, operands)

    @functools.cached_property
    def derivatives(self):
        """The derivative passes' buffers, built on the thread's first one, never by forward alone: axes (2, 3, m,
        rows), the axis and origin columns, twists (6, m, rows), whose first two rows the rate map borrows, an (m,
        rows) product, the Jacobian block, (c^2, c), and (r00, r10) / (c^2, c)."""
        (m, rows), dt = self.q.shape, self.q.dtype
        block, rates = np.empty((19, m, rows), dtype=dt), np.empty((3, 2, rows), dtype=dt)
        return block[:6].reshape(2, 3, m, rows), block[6:12], block[12], block[13:], rates[0], rates[1:]


def _cross(a, b, out, prod):
    """out = a x b along the first axis of (3, ...) arrays, one component at a time, ``prod`` a component's size."""
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        np.multiply(a[j], b[k], out=out[i])
        out[i] -= np.multiply(a[k], b[j], out=prod)


class FkEngine:
    """Immutable forward-kinematics evaluator for one chain at one batch size.

    Construction compiles the chain into one-dof factors (see the module
    docstring): per factor its static transform, transposed for the column
    GEMM (None where it is the identity), the axis it alone translates along
    if so, its theta column and its motion; and the static transforms
    pending at each snapshot, with the axis each alone translates along if
    so.  Every evaluation (forward, its DualArray tangents, the Jacobians
    and _products_around) runs the column pass _pass, one block of rows at
    a time: each span of it starts with one GEMM, G_f on the block's
    (1, c, s) or (1, q), and adds a trailing one-axis translation in place.
    The pass runs on the calling thread's workspace (_Workspace), built on
    the thread's first block of that size (not in __init__), G_f on its
    first span that starts at f, its derivative buffers on the first
    derivative pass, and kept in a threading.local, so that a call
    allocates no block's buffers but the DualArray tangents' products and
    threads can share an engine.  A pickled or copied engine is built again.

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
        params = np.array([joint.origin_params() for joint in joints], dtype=float).reshape(-1, 6)
        # an origin whose rpy bits are all zero is the kernel's zero-angle transform: only the others run it
        origins, turned = np.empty((len(joints), 4, 4)), params[:, 3:].view(np.uint64).any(axis=1)
        origins[:], origins[:, :3, 3] = _UNTURNED, params[:, :3]
        if np.count_nonzero(turned):
            origins[turned] = transforms.sixdof_batch_to_transforms(params[turned])
        tl, posts, dof_rows, dof_slots, dof_scales = [], [], [], [], []
        factors = []  # (static or None for I, theta column, slot) in product order, one per dof
        marks = []  # (last factor so far, segment, static pending after it or None)
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
                # the joint's slots in factor order: a joint of several slots has 0, 1, ..., and
                # _FACTOR_ORDER is its own inverse
                for k in _FACTOR_ORDER[: len(joint_slots)]:
                    factors.append((static, col + k, joint_slots[k]))
                    static = None
                fixed = None
                pending = carry
            else:
                fixed = pending = pre if fixed is None else fixed @ pre
            dof_rows.extend([i] * len(joint_slots))
            dof_slots.extend(joint_slots)
            dof_scales.extend(joint_scales)
            marks.append((len(factors) - 1, i, pending))
        # snapshots: intermediates at every segment, finals after the chain
        marks.append((self.m - 1, 0, marks[-1][2] if self.n else None))

        dt = self.dtype
        self._tl = np.array(tl, dtype=dt).reshape(-1, 4, 4)
        self._rows_per_dof = np.array(dof_rows, dtype=np.intp)
        self._slots_per_dof = np.array(dof_slots, dtype=np.intp)
        self._scale_per_dof = np.array(dof_scales, dtype=dt)
        # per-row post-corrections, applied after the reference pipeline's scan
        self._posts = tuple(posts)

        # every static as S^T for the column GEMM, None where it is I, from one stacked comparison; its count of
        # the entries that differ from I's, per column of S, also finds the statics that only translate, along one
        # axis k: a factor's is applied in place, C_3 += d C_k (d = S^T[3, k]), and so is a snapshot's pending one
        # at a span's last mark
        statics = [s for s, _, _ in factors] + [p for _, _, p in marks]
        given = [k for k, s in enumerate(statics) if s is not None]
        stack = np.array([statics[k] for k in given]).reshape(-1, 4, 4)
        flipped, differ = np.ascontiguousarray(stack.transpose(0, 2, 1), dtype=dt), (stack != _EYE).sum(axis=1)
        shifts = [None] * len(statics)
        for k, t, counts in zip(given, flipped, differ.tolist()):
            statics[k] = t if any(counts) else None
            if counts == [0, 0, 0, 1]:
                shifts[k] = 0 if t[3, 0] else 1 if t[3, 1] else 2
        # the pass's steps: (S_f^T or None, theta column, whether its theta
        # scale is -1, axis, the in-place static's axis k or None, and for a
        # rotation its row of the block's trig)
        steps, rot, trans = [], [], []
        for s, shift, (_, col, slot) in zip(statics, shifts, factors):
            (rot if slot >= 3 else trans).append(col)
            steps.append((s, col, dof_scales[col] < 0, slot % 3, shift, len(rot) - 1 if slot >= 3 else None))
        self._steps = tuple(steps)
        self._rot_cols, self._trans_cols = np.array(rot, dtype=np.intp), tuple(trans)
        marks = [(f, i, t, k) for (f, i, _), t, k in zip(marks, statics[len(factors) :], shifts[len(factors) :])]
        self._marks, self._final_marks = tuple(marks[:-1]), (marks[-1],)
        self._local = threading.local()

    def __reduce__(self):
        # a copy is built again, with workspaces of its own
        return type(self), (self.chain, self.batch_size, self.dtype)

    @functools.cached_property
    def _twist_weights(self):
        """(n, 1, m) weights of the theta columns' twists in the
        intermediates: 1 where the column's factor comes at or before
        intermediate j's mark, else 0; built on the first DualArray
        evaluation with intermediates, so that a float-only engine never
        pays for them."""
        col_factor = np.argsort([col for _, col, *_ in self._steps])
        marked = np.array([mark[0] for mark in self._marks], dtype=np.intp)
        return (col_factor <= marked[:, None, None]).astype(self.dtype)

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
            for rows in _blocks(b, _BLOCK_ROWS):
                self._pass(flat2d[rows], snapshots[rows], ((0, marks),))
            return out
        k = thetas.width
        # (b, 1, k, m): each row's input tangents, one matrix row per tangent
        seeds = thetas.tangent.astype(self.dtype, copy=False).reshape(k, b, m).transpose(1, 0, 2)[:, None]
        tangent = np.empty((b, len(marks), k, 4, 4), dtype=self.dtype)
        weights = self._twist_weights if want_intermediates else 1.0
        for rows in _blocks(b, _TANGENT_ROWS):
            ws = self._workspace(rows.stop - rows.start)
            self._pass(flat2d[rows], snapshots[rows], ((0, marks),), ws.derivatives[0])
            self._tangent_block(ws, slice(rows.stop - rows.start), snapshots[rows], seeds[rows], weights, tangent[rows])
        tangent = tangent.transpose(2, 0, 1, 3, 4) if want_intermediates else tangent[:, 0].transpose(1, 0, 2, 3)
        return ad.DualArray(out, tangent)

    def _workspace(self, rows):
        """The calling thread's _Workspace for blocks of ``rows`` rows, built on its first such block."""
        spaces = self._local.__dict__
        return spaces.get(rows) or spaces.setdefault(rows, _Workspace(self, rows))

    def _pass(self, flat2d, out, spans, axes=None):
        """The column pass (see the module docstring) on a (rows, m) theta
        block.  Each span (first, marks) starts a product at factor
        ``first``, with G_first's GEMM; for each of its marks (f, i,
        pending^T, the axis it alone translates along or None) it puts the
        product of factors first..f times the pending static into
        out[:, i], or the pending static alone where f < first.  Returns the
        last mark's (4, 3, rows) columns, a buffer of the thread's workspace
        that its next pass overwrites; ``out`` may then be None.  With
        ``axes`` (2, 3, m, rows) of the workspace's derivatives, the pass
        writes each factor's axis column, times its theta scale, and its
        origin column, both read before its mix, into axes[:, :, c] of its
        theta column c.

        Inputs that overflow make inf and NaN silently; the callers that
        refuse non-finite output check it."""
        ws = self._workspace(len(flat2d))
        columns, flat, grid, ops, seeds, (t1, t2) = ws.columns, ws.flat, ws.grid, ws.ops, ws.seeds, ws.mixed
        cos, sin = ws.cos, ws.sin
        np.multiply(flat2d.T, ws.scale, out=ws.q)
        if ws.angles is not ws.q:
            np.take(ws.q, self._rot_cols, axis=0, out=ws.angles)
        product = None
        with np.errstate(over="ignore", invalid="ignore"):
            # t = tan(q/2) in sin's row, k = 2/(1 + t^2) in cos's, then sin = t k and cos = k - 1, each copied from
            # there to its three rows
            np.tan(ws.angles, out=sin)
            np.multiply(sin, sin, out=cos)
            cos += 1.0
            np.divide(2.0, cos, out=cos)
            sin *= cos
            cos -= 1.0
            ws.trig[...] = ws.spread
            for first, marks in spans:
                f, p = first, 0
                for mark in marks:
                    last, i, pending, shift = mark
                    for static, col, negative, *_ in self._steps[f : last + 1]:
                        moved, origin, step_shift, mix = ops[f][p]
                        if f == first:
                            np.matmul(*(seeds.get(f) or ws.seed(f)), out=grid[p])
                            mix = ()  # the seed holds the motion
                        elif step_shift is not None:
                            origin += np.multiply(*step_shift, out=t1)
                        elif static is not None:
                            np.matmul(static, flat[p], out=flat[1 - p])
                            p = 1 - p
                            moved, origin, _, mix = ops[f][p]
                        if axes is not None:
                            axes[:, :, col] = moved
                            if negative:
                                np.negative(moved[0], out=axes[0, :, col])
                        if len(mix) == 2:
                            origin += np.multiply(*mix, out=t1)
                        elif mix:
                            # C_i, C_j <- c C_i + s C_j, c C_j - s C_i, every operand one contiguous (3, rows)
                            ci, cj, s, c = mix
                            np.multiply(s, cj, out=t1)
                            np.multiply(s, ci, out=t2)
                            np.multiply(ci, c, out=ci)
                            np.add(ci, t1, out=ci)
                            np.multiply(cj, c, out=cj)
                            np.subtract(cj, t2, out=cj)
                        f += 1
                    snap = 1 - p
                    if last < first:
                        columns[snap] = (_EYE if pending is None else pending)[:, :3, None]
                    elif pending is None:
                        snap = p
                    elif shift is not None and mark is marks[-1]:
                        # the span's last product: nothing reads its columns again
                        snap = p
                        columns[p, 3] += np.multiply(columns[p, shift], pending[3, shift], out=t1)
                    else:
                        np.matmul(pending, flat[p], out=flat[snap])
                    if out is not None:
                        ws.top[...] = ws.rows[snap]
                        out[:, i].reshape(-1, 16)[...] = ws.staged
                    product = columns[snap]
        return product

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
        spans = ((0, ((start - 1, 0, None, None),)), (stop, ((self.m - 1, 1) + self._final_marks[0][2:],)))
        for rows in _blocks(b, _BLOCK_ROWS):
            self._pass(flat2d[rows], out[rows], spans)
        # contiguous, as every identification step multiplies them
        return out[:, 0].copy(), out[:, 1].copy()

    def _tangent_block(self, ws, picked, frames, seeds, weights, out):
        """Tangents ``out`` (r, S, k, 4, 4) of the snapshots ``frames`` (r, S, 4, 4) of the rows ``picked`` of the
        last derivative pass on ``ws``: the twists (w, v) per unit of theta of its axis and origin columns (w the
        axis times the theta scale and v = origin x w for a rotation, (0, w) for a translation, so that dT = [w, v]^
        T) contracted with the input tangents ``seeds`` (r, 1, k, m) times ``weights`` (1, or _twist_weights), then
        as 4x4 twist matrices applied to ``frames``, every product in ws.spare.  For seed_array input the
        contraction copies exactly."""
        axes, twists, prod = ws.derivatives[:3]
        w, origin = axes
        twists[:3] = w
        _cross(origin, w, twists[3:], prod)
        for c in self._trans_cols:
            twists[3:, c], twists[:3, c] = w[:, c], 0.0
        rows, snaps, k = out.shape[:3]
        n, m = rows * snaps * k, self.m
        if ws.spare.size < n * (m + 22):
            ws.spare = np.empty(n * (m + 22), dtype=self.dtype)
        seeded, spatial, mats = ws.spare[: n * m], ws.spare[n * m : n * (m + 6)], ws.spare[n * (m + 6) : n * (m + 22)]
        seeded = np.multiply(seeds, weights, out=seeded.reshape(rows, snaps, k, m))
        np.matmul(seeded, twists[..., picked].T[:, None], out=spatial.reshape(rows, snaps, k, 6))
        np.matmul(spatial.reshape(n, 6), _TWIST_MATRIX.astype(self.dtype, copy=False), out=mats.reshape(n, 16))
        np.matmul(mats.reshape(rows, snaps, 4 * k, 4), frames, out=out.reshape(rows, snaps, 4 * k, 4))

    def _jacobian(self, thetas, rates):
        """(b, 6, m) Jacobians of the final transforms (see the module docstring): geometric_jacobian's, or
        with ``rates`` pose_jacobian's, every product on (m, rows) buffers of the workspace's derivatives."""
        b, m = self.batch_size, self.m
        flat2d = _theta_rows(thetas, m, b, self.dtype)
        jac = np.empty((b, 6, m), dtype=self.dtype)
        for rows in _blocks(b, _BLOCK_ROWS):
            ws = self._workspace(rows.stop - rows.start)
            axes, twists, prod, block, cb, coef = ws.derivatives
            t = self._pass(flat2d[rows], None, ((0, self._final_marks),), axes)
            if not np.isfinite(t).all():
                raise ValueError("non-finite value in jacobian output")
            r20, p = t[0, 2], t[3]
            w, origin = axes
            # p_T - origin in the angular rows until the rates overwrite them
            _cross(w, np.subtract(p[:, None], origin, out=block[3:]), block[:3], prod)
            locked = ()
            if rates:
                # c^2 = r00^2 + r10^2 (squares in coef, which the coefficients overwrite) and c = sqrt(c^2)
                squares = np.multiply(t[0, :2], t[0, :2], out=coef[0])
                np.add(squares[0], squares[1], out=cb[0])
                np.sqrt(cb[0], out=cb[1])
                if cb[1].min() <= transforms._GIMBAL_COS_TOL:
                    locked = np.flatnonzero(cb[1] <= transforms._GIMBAL_COS_TOL)
                    cb[:, locked] = 1.0
                # per-row coefficients (r00, r10) / c^2 and / c, then one product and one sum or difference a rate
                np.divide(t[0, :2], cb[:, None], out=coef)
                terms = twists[:2]
                np.add(*np.multiply(w[:2], coef[0, :, None], out=terms), out=block[3])
                np.subtract(*np.multiply(w[1::-1], coef[1, :, None], out=terms), out=block[4])
                np.subtract(w[2], np.multiply(r20, block[3], out=prod), out=block[5])
            else:
                block[3:] = w
            for c in self._trans_cols:
                block[:3, c], block[3:, c] = w[:, c], 0.0
            if len(locked):
                # the rate map is singular: these rows take the pose extraction's
                # derivatives, on a DualArray of their tangents
                frames = np.empty((len(locked), 1, 4, 4), dtype=self.dtype)
                frames[:, 0, :3], frames[:, 0, 3] = t[..., locked].transpose(2, 1, 0), _EYE[3]
                tangent = np.empty((len(locked), 1, m, 4, 4), dtype=self.dtype)
                seeds = np.eye(m, dtype=self.dtype)[None, None]
                self._tangent_block(ws, locked, frames, seeds, 1.0, tangent)
                dual = ad.DualArray(frames[:, 0], tangent[:, 0].transpose(1, 0, 2, 3))
                block[..., locked] = transforms.pose_batch_from_transforms(dual)[0].tangent.transpose(2, 0, 1)
            if not np.isfinite(block).all():
                raise ValueError("non-finite derivative in jacobian output")
            jac[rows] = block[..., : rows.stop - rows.start].transpose(2, 0, 1)
        return jac


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
