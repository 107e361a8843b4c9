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
(0, 0, 0, 1) in every product of these factors and is not stored.  The
pass starts with one GEMM: factor 0's static columns pushed through its
motion are linear in (1, c, s) for a rotation and in (1, q) for a
translation, so the first C is a constant (12 x 3) or (12 x 2) matrix G_0,
each entry one of S_0's or its negative, times those rows of the block.
Every later factor is applied in two steps: P S_f is one constant GEMM
S_f^T @ C, skipped where S_f = I, and P M_f mixes two columns.  A static
that only translates, by d along one axis k (a common joint origin), is
applied in place instead, C_3 <- C_3 + d C_k, as a translation factor is;
so is the static pending at the last snapshot.  A rotation about axis a by
q, (c, s) = (cos q, sin q), sets C_i, C_j <- c C_i + s C_j, c C_j - s C_i,
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
copied as matrix rows straight into the result, which keeps the batch axis
last in memory as the columns do: a (S, 4, 4, b) array for S snapshots,
whose bottom rows (0, 0, 0, 1) are filled once a call, returned as its
(b, S, 4, 4) view, so that no snapshot is staged or transposed.  The
buffers are the calling thread's workspace (see FkEngine); every entry a
result reads is written before it is read, so no result depends on them or
on the block a row runs in.  Each kind of pass is compiled once per
workspace, on its first use, into the straight-line list of numpy calls
that this walk over the factors makes, every operand and output a view made
then (FkEngine._compile); a block scales its thetas into the workspace and
replays the list, so that a call pays no per-factor branching or view
making.  A Jacobian reads less of the pass than a value does, so its list
keeps only the calls that a backward liveness sweep over the entries each
call reads and writes finds live (see the Jacobians below).

The reference pipeline is the scatter/map/scan form of the same chain: a
flat theta batch (b*m,) is scattered into the 6-DoF parameter tensor Q
(b, n, 6), each theta into its joint's row and parameter slot
(scatter_thetas), every Q row is expanded into a joint transform
(joint_transforms), premultiplied by its segment's static link transform
(combine_link_joint), and an inclusive cumulative product along the chain
axis (scan_compose), followed by R_align^T at each joint with an arbitrary
axis (see below), gives every intermediate and the final transform.
forward does not call these stages.  They stay because the benchmark in
perfbench/ times each of them as a layer, and the tests use them as the
oracle that forward matches within a few ulps; what only that oracle would
read (the scatter's index and the post-corrections) is built in the tests.

One pass serves values and derivatives.  Factor f moves one theta column
about or along axis a of the frame P_{f-1} S_f, whose axis column C_a and
origin column C_3 the pass reads off before f's mix (after the first
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
gamma' = wz - r20 alpha'.  Both run forward's blocks, each block one
program: the pass, then these rows (the tail), every product on (m, rows)
buffers of the thread's workspace.  The tail reads of the pass only the
axis and origin columns, T's origin column and, for the pose, T's first
column, so the pass leaves out every call that only feeds other columns
(on arm4 the last joint's roll and half of the mix before it), and the trig
of trailing rotations that no kept call reads; factor 0's axis and origin
columns, which its motion leaves as they were, are written once, when the
program is compiled.  The rate map runs on every row, also those at gimbal
lock (c <= transforms._GIMBAL_COS_TOL), where it is singular (c may be 0,
and the row inf or NaN).  Their angular rows are then overwritten with the
pose extraction's derivatives: the finals pass, replayed on the same
workspace, gives their full R_T, whose tangents are w_c x R_T's columns
(0 for a translation), and pose_batch_from_transforms runs on that
DualArray, so they keep the float pose's convention (alpha = 0); their
rows 0-2 stay geometric_jacobian's.  That extraction tests hypot(r00, r10),
so the two can lock different rows only where c is within an ulp of the
tolerance.

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
# to +18% (float32) at b=8192 only, for twice the workspace.  The workspace, kept per thread, takes 248 + 8 m + 72 r
# bytes a row in float64 for r rotations (80 r beside a translation; each rotation's (1, c, s), and its cos and sin
# over three rows, 48 fewer where factor 0 rotates, as no pass mixes it; 520 on arm4, 2.1 MB at 4096 rows; a one-row
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
_BOTTOM = _EYE[3, :, None]  # a result's bottom row, over its batch axis
# A twist (w, v) as its 4x4 matrix [[w]x | v; 0 0 0 0], flattened row-major.
_TWIST_MATRIX = np.zeros((6, 16))
_TWIST_MATRIX[[2, 1, 2, 0, 1, 0], [1, 2, 4, 6, 8, 9]] = [-1.0, 1.0, 1.0, -1.0, -1.0, 1.0]
_TWIST_MATRIX[[3, 4, 5], [3, 7, 11]] = 1.0


def _seed(static, slot, dtype):
    """G_0, (12, 3): the pass's first factor, S_0^T ``static`` (None for I) then the motion of ``slot``, makes its
    columns as G_0 @ (1, q) (G_0's first two columns) or G_0 @ (1, c, s), column k's row r in G_0's row 3 k + r."""
    cols, a = (_EYE if static is None else static)[:, :3].astype(dtype), slot % 3
    g = np.zeros((4, 3, 3), dtype=dtype)
    if slot < 3:
        # a translation keeps every column and adds q C_a to C_3
        g[:, :, 0], g[3, :, 1] = cols, cols[a]
    else:
        # a rotation keeps C_a and C_3 and mixes C_i, C_j
        i, j = _PAIRS[a]
        g[[a, 3], :, 0], g[[i, j], :, 1] = cols[[a, 3]], cols[[i, j]]
        g[i, :, 2], g[j, :, 2] = cols[j], -cols[i]
    return g.reshape(12, 3)


def _blocks(b, rows):
    """Row slices of a batch of b, ``rows`` at a time."""
    return [slice(start, min(start + rows, b)) for start in range(0, b, rows)]


class _Workspace:
    """One thread's buffers for FkEngine._pass on blocks of ``rows`` rows
    (see the FkEngine docstring), the theta columns' scales with the half of
    every rotation's tan(q/2) folded in, and the programs compiled on them,
    one per kind of pass (FkEngine._compile)."""

    def __init__(self, engine, rows):
        dt, m, rot, steps = engine.dtype, engine.m, len(engine._rot_cols), engine._steps
        # a one-row block runs its row twice: the pass's first GEMM on one row would be a matrix-vector product, which
        # OpenBLAS rounds differently from a matrix product, so that a row's result would depend on its block
        out_rows, rows = rows, max(rows, 2)
        self.columns = np.empty((2, 4, 3, rows), dtype=dt)
        # views: the GEMM operands (4, 3 rows) and results (12, rows), and the columns as a snapshot's matrix rows
        # (3, 4) over the block's rows
        self.flat, self.grid = self.columns.reshape(2, 4, -1), self.columns.reshape(2, 12, rows)
        self.snapshots = self.columns.transpose(0, 2, 1, 3)[..., :out_rows]
        # (1, q): a ones row over the theta columns, so that a translation's (1, q) is one strided view
        self.ones_q = np.empty((m + 1, rows), dtype=dt)
        self.ones_q[0] = 1.0
        self.q = q = self.ones_q[1:]
        self.mixed = np.empty((2, 3, rows), dtype=dt)  # the mixes' two temporaries
        # each theta column's scale, halved for a rotation: q holds half angles and full displacements
        self.scale = engine._scale_per_dof[:, None].copy()
        self.scale[engine._rot_cols] *= 0.5
        self.angles = q if rot == m else np.empty((rot, rows), dtype=dt)
        # the ones, cos and sin rows of every rotation, each contiguous, so that rotation k's (1, c, s) is ucs[:, k];
        # and the cos and sin, each repeated over a column's three rows, of every rotation that a pass mixes: all but
        # factor 0's (the first ``skip``), which every pass seeds
        self.ucs = ucs = np.empty((3, rot, rows), dtype=dt)
        ucs[0] = 1.0
        self.cos, self.sin = ucs[1], ucs[2]
        self.skip = int(bool(steps) and steps[0][5] is not None)
        self.trig = np.empty((2, rot - self.skip, 3, rows), dtype=dt)
        self.spread = ucs[1:, self.skip :, None]  # the trig's source, (2, rot - skip, 1, rows)
        self.spare = np.empty(0, dtype=dt)  # the DualArray tangents' products (_tangent_block), regrown as needed
        self.programs = {}

    @functools.cached_property
    def derivatives(self):
        """The derivative passes' buffers, built on the thread's first one, never by forward alone: axes (2, 3, m,
        rows), the axis and origin columns, twists (6, m, rows), whose first two rows the rate map borrows, an (m,
        rows) product, the Jacobian block, (c^2, c), and (r00, r10) / (c^2, c)."""
        (m, rows), dt = self.q.shape, self.q.dtype
        block, rates = np.empty((19, m, rows), dtype=dt), np.empty((3, 2, rows), dtype=dt)
        return block[:6].reshape(2, 3, m, rows), block[6:12], block[12], block[13:], rates[0], rates[1:]


def _replay(ops):
    """Make the numpy calls ``ops``, (function, positional arguments) each, in order."""
    for fn, args in ops:
        fn(*args)


def _cross(a, b, out, prod):
    """The calls that make out = a x b along the first axis of (3, ...) arrays, one component at a time, ``prod`` a
    component's size."""
    ops = []
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        ops += [(np.multiply, (a[j], b[k], out[i])), (np.multiply, (a[k], b[j], prod)), (out[i].__isub__, (prod,))]
    return ops


def _live(calls, live):
    """A backward liveness sweep: of ``calls``, (function, arguments, entries read, entries written) each, in
    order, the ones that write an entry live after them, ``live`` being the entries read after the last; and the
    entries live before the first."""
    kept = []
    for call in reversed(calls):
        if not live.isdisjoint(call[3]):
            kept.append(call)
            live = live.difference(call[3]).union(call[2])
    return kept[::-1], live


class FkEngine:
    """Immutable forward-kinematics evaluator for one chain at one batch size.

    Construction compiles the chain into one-dof factors (see the module
    docstring): per factor its static transform, transposed for the column
    GEMM (None where it is the identity), the axis it alone translates along
    if so, its theta column and its motion; and the static transforms
    pending at each snapshot, with the axis each alone translates along if
    so.  Every evaluation (forward, its DualArray tangents and the
    Jacobians) runs the column pass _pass, one block of rows at a time: it
    starts with one GEMM, G_0 on the block's (1, c, s) or (1, q), and adds
    a trailing one-axis translation in place.
    Results keep the batch axis last, as the pass's buffers do: forward
    copies each snapshot's columns straight into an (S, 4, 4, b) array, the
    Jacobians each block into a (6, m, b) array, and both return its view
    with the batch axis first.
    The pass runs on the calling thread's workspace (_Workspace), built on
    the thread's first block of that size (not in __init__), its derivative
    buffers on the first derivative pass, and kept in a threading.local, so
    that a call allocates no block's buffers but the DualArray tangents'
    products and threads can share an engine.  Each kind of pass is compiled
    once per workspace, on its first block (_compile), into a program of
    numpy calls on views of the workspace, which every later block of that
    kind replays (_pass).  Every entry that a result reads is written in the
    block before it is read: a value program writes every column of every
    snapshot, and a Jacobian's program only the entries that a backward
    liveness sweep from its tail's reads keeps, then runs the tail, so that
    the other columns hold whatever an earlier pass left.  Its gimbal-lock
    fallback, which needs the full final rotation, replays the finals program
    on the same workspace, compiled on first use, and reads the axes that the
    Jacobian's pass wrote there.  A program holds no reference to the engine
    or the workspace, so a dropped engine is freed at once.  A pickled or
    copied engine is built again.

    scatter_thetas and combine_link_joint, with the module's
    joint_transforms and scan_compose, are the reference pipeline (see the
    module docstring); forward does not call them.
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
        tl, dof_rows, dof_slots, dof_scales = [], [], [], []
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
                carry = align.T
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

        # every static as S^T for the column GEMM, None where it is I, from one stacked comparison; its count of
        # the entries that differ from I's, per column of S, also finds the statics that only translate, along one
        # axis k: a factor's is applied in place, C_3 += d C_k (d = S^T[3, k]), and so is a snapshot's pending one
        # at the last mark
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
        (b, n, 4, 4) transforms with ``want_intermediates``, as a view of
        an array with the batch axis last in memory (its stride is the
        itemsize); np.ascontiguousarray gives them in C order, at the cost
        of the transposed copy that forward does not make.  A DualArray
        batch with k tangents returns a DualArray whose primal is bitwise
        equal to the float result and whose k tangents come from the twists
        the pass reads off (see the module docstring).  Object-dtype input
        (floats and seeded DiffScalars) is converted to a DualArray at entry
        and back to DiffScalars at exit.
        """
        arr = thetas if isinstance(thetas, (np.ndarray, ad.DualArray)) else np.asarray(thetas)
        if arr.dtype == object:
            return self.forward(ad.DualArray.from_scalars(arr), want_intermediates).to_scalars()
        b, m = self.batch_size, self.m
        flat2d = _theta_rows(ad.primal_of(thetas), m, b, self.dtype)
        where = "intermediates" if want_intermediates else "finals"
        res = np.empty((self.n if want_intermediates else 1, 4, 4, b), dtype=self.dtype)
        res[:, 3] = _BOTTOM
        snapshots = res.transpose(3, 0, 1, 2)
        out = snapshots if want_intermediates else snapshots[:, 0]
        if not isinstance(thetas, ad.DualArray):
            for rows in _blocks(b, _BLOCK_ROWS):
                self._pass(self._workspace(rows.stop - rows.start), flat2d[rows], res[..., rows], (where, None))
            return out
        k = thetas.width
        # (b, 1, k, m): each row's input tangents, one matrix row per tangent
        seeds = thetas.tangent.astype(self.dtype, copy=False).reshape(k, b, m).transpose(1, 0, 2)[:, None]
        tangent = np.empty((b, snapshots.shape[1], k, 4, 4), dtype=self.dtype)
        weights = self._twist_weights if want_intermediates else 1.0
        for rows in _blocks(b, _TANGENT_ROWS):
            ws = self._workspace(rows.stop - rows.start)
            self._pass(ws, flat2d[rows], res[..., rows], (where, "tangents"))
            self._tangent_block(ws, snapshots[rows], seeds[rows], weights, tangent[rows])
        tangent = tangent.transpose(2, 0, 1, 3, 4) if want_intermediates else tangent[:, 0].transpose(1, 0, 2, 3)
        return ad.DualArray(out, tangent)

    def _workspace(self, rows):
        """The calling thread's _Workspace for blocks of ``rows`` rows, built on its first such block."""
        spaces = self._local.__dict__
        return spaces.get(rows) or spaces.setdefault(rows, _Workspace(self, rows))

    def _pass(self, ws, flat2d, out, kind):
        """The column pass (see the module docstring) of ``kind`` (see
        _compile) on a (rows, m) theta block, on the caller's workspace
        ``ws`` for blocks of that size: scales the block into its q, then
        replays the kind's program there, copying each snapshot's matrix rows
        into out[i, :3] of the (S, 4, 4, rows) block of the result after its
        segment, unless ``out`` is None.  Returns the program.

        Inputs that overflow make inf and NaN silently, and so does a
        Jacobian's rate map on a gimbal-locked row, which may divide 0 by 0,
        or by a c^2 that underflows to 0 in float32 (the value programs
        divide only by 1 + t^2 >= 1); the callers that refuse non-finite
        output check it, and the Jacobians overwrite the locked rows."""
        program = ws.programs.get(kind) or self._compile(ws, kind)
        np.multiply(flat2d.T, ws.scale, out=ws.q)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            for ops, i, snapshot in program[0]:
                _replay(ops)
                if out is not None:
                    out[i, :3] = snapshot
        return program

    def _compile(self, ws, kind):
        """The program of one kind of pass on ``ws``, kept there: the numpy calls of the pass, as (function,
        positional arguments) on views of ws's buffers and the engine's constants, and nothing that refers to the
        engine or the workspace.  ``kind`` is (where, mode): ``where`` "finals" or "intermediates", the marks;
        ``mode`` None for values, "tangents" for the DualArray pass, "geometric" or "pose" for the Jacobians.  The
        product starts at factor 0, with G_0's GEMM; for each mark (f, i, pending^T, the axis it alone translates
        along or None) it ends a segment at the columns of the product of factors 0..f times the pending static, or
        of the pending static alone where f < 0 (leading fixed segments), snapshot i (not in a Jacobian).  A mode
        but None writes each factor's axis column, times its theta scale, and its origin column, both read before
        its mix, into the derivatives' axes[:, :, c] of its theta column c.

        A value program reads every column of every snapshot, but a Jacobian's tail reads only the axes, the final
        C_3 and, for the pose, the final C_0.  So every call of the pass records the entries it reads and writes,
        and a Jacobian keeps only the calls that a backward sweep from the tail's entries finds live (_live); its
        trig runs on the rows up to the last live rotation's.  Where factor 0 rotates, its axis and origin columns
        are S_0's whatever the angle: a Jacobian writes them once, here, from its GEMM at angle 0, as only
        derivative passes write the axes and all of them write the same there.

        Returns (segments, the last mark's (4, 3, rows) columns, and a Jacobian's tail or None): segments (calls,
        i, snapshot), each to be followed by the copy of the snapshot's (3, 4, rows) matrix rows to out[i, :3] (not
        in a Jacobian, whose one segment ends with the calls of its tail, which the sweep starts from and keeps
        whole); a tail is the block's result view (6, m, rows) and the final columns that the pass computes
        (_compile_tail)."""
        where, mode = kind
        marks = self._final_marks if where == "finals" else self._marks
        axes, jacobian = None if mode is None else ws.derivatives[0], mode in ("geometric", "pose")
        columns, flat, grid, q, (t1, t2), trig = ws.columns, ws.flat, ws.grid, ws.q, ws.mixed, ws.trig
        # a call is (function, arguments, entries read, entries written), an entry (p, k) for column k of
        # columns[p], ("t", 1) or ("t", 2) for t1 or t2, ("trig", k) for rotation k's cos and sin rows or
        # ("axes", c) for theta column c's slot; a partial write reads its entry too
        T1, T2 = ("t", 1), ("t", 2)

        def whole(p):
            return [(p, e) for e in range(4)]

        def translate(p, k, d):
            c = columns[p]
            return [(np.multiply, (c[k], d, t1), [(p, k)], [T1]), (c[3].__iadd__, (t1,), [(p, 3), T1], [(p, 3)])]

        segments, calls, fixed, product, f, p = [], [], [], None, 0, 0
        for mark in marks:
            last, i, pending, shift = mark
            for static, col, negative, a, step_shift, k in self._steps[f : last + 1]:
                c = columns[p]
                if f == 0:
                    # G_0 (12 x 3 or 12 x 2, see _seed) on (1, c, s) or (1, q): the seed holds the motion
                    g = _seed(static, a if k is None else 3 + a, q.dtype)
                    x = (g[:, :2], ws.ones_q[0 : col + 2 : col + 1]) if k is None else (g, ws.ucs[:, k])
                    seed = (np.matmul, (*x, grid[p]))
                    calls.append((*seed, [] if k is None else [("trig", k)], whole(p)))
                elif step_shift is not None:
                    calls += translate(p, step_shift, static[3, step_shift])
                elif static is not None:
                    calls.append((np.matmul, (static, flat[p], flat[1 - p]), whole(p), whole(1 - p)))
                    p = 1 - p
                    c = columns[p]
                if axes is not None:
                    # the axis and origin columns (C_a, C_3) as one view
                    own = ("axes", col)
                    copy = [(axes[:, :, col].__setitem__, (Ellipsis, c[a : 4 : 3 - a]), [(p, a), (p, 3)], [own])]
                    if negative:
                        copy.append((np.negative, (c[a], axes[0, :, col]), [(p, a), own], [own]))
                    (fixed if jacobian and f == 0 and k is not None else calls).extend(copy)
                if f != 0 and k is None:
                    calls += translate(p, a, q[col])
                elif f != 0:
                    # C_i, C_j <- c C_i + s C_j, c C_j - s C_i, every operand one contiguous (3, rows)
                    (ei, ej), r = ((p, e) for e in _PAIRS[a]), ("trig", k)
                    ci, cj, (cs, s) = c[ei[1]], c[ej[1]], trig[:, k - ws.skip]
                    calls += [(np.multiply, (s, cj, t1), [r, ej], [T1]), (np.multiply, (s, ci, t2), [r, ei], [T2])]
                    calls += [(np.multiply, (ci, cs, ci), [ei, r], [ei]), (np.add, (ci, t1, ci), [ei, T1], [ei])]
                    calls += [(np.multiply, (cj, cs, cj), [ej, r], [ej]), (np.subtract, (cj, t2, cj), [ej, T2], [ej])]
                f += 1
            snap = 1 - p
            if last < 0:
                static = _EYE if pending is None else pending
                calls.append((columns[snap].__setitem__, (Ellipsis, static[:, :3, None]), [], whole(snap)))
            elif pending is None:
                snap = p
            elif shift is not None and mark is marks[-1]:
                # the last product: nothing reads its columns again
                snap = p
                calls += translate(p, shift, pending[3, shift])
            else:
                calls.append((np.matmul, (pending, flat[p], flat[snap]), whole(p), whole(snap)))
            if not jacobian:
                segments.append([calls, i, ws.snapshots[snap]])
                calls = []
            product = columns[snap]
        rotations, tail = len(self._rot_cols), None
        if jacobian:
            final = [0, 3] if mode == "pose" else [3]
            calls, live = _live(calls, {("axes", c) for c in range(self.m)} | {(snap, e) for e in final})
            rotations = 1 + max((k for tag, k in live if tag == "trig"), default=-1)
            # the tail runs whole: its reads are where the sweep starts
            tail_calls, *tail = self._compile_tail(ws, product, mode == "pose")
            segments.append([calls + tail_calls, None, None])
            if fixed:
                # factor 0's GEMM at angle 0 (cos 1, sin 0), then its axis copy
                ws.ucs[1:, 0] = ((1.0,), (0.0,))
                _replay([seed] + [call[:2] for call in fixed])
        # the trig of the first ``rotations``: t = tan(q/2) in sin's rows, k = 2/(1 + t^2) in cos's, then sin = t k
        # and cos = k - 1, each copied from there to its three rows where a pass mixes it
        angles, cos, sin = ws.angles[:rotations], ws.cos[:rotations], ws.sin[:rotations]
        mixes = slice(max(rotations - ws.skip, 0))
        ops = [] if ws.angles is q else [(np.take, (q, self._rot_cols[:rotations], 0, angles))]
        ops += [(np.tan, (angles, sin)), (np.multiply, (sin, sin, cos)), (cos.__iadd__, (1.0,))]
        ops += [(np.divide, (2.0, cos, cos)), (sin.__imul__, (cos,)), (cos.__isub__, (1.0,))]
        ops += [(trig[:, mixes].__setitem__, (Ellipsis, ws.spread[:, mixes]))]
        if segments:
            segments[0][0] = [*ops, *segments[0][0]]
        segments = tuple((tuple(call[:2] for call in calls), i, snapshot) for calls, i, snapshot in segments)
        return ws.programs.setdefault(kind, (segments, product, tail))

    def _compile_tail(self, ws, t, rates):
        """(calls, result, final): a Jacobian's calls after its pass, whose final columns are ``t``, which make its
        block's (6, m, rows) ``result`` on every row, gimbal-locked ones too (see _jacobian), and the columns of
        ``t`` that they read and the pass computes: C_3, and C_0 with ``rates``."""
        (w, origin), twists, prod, block, cb, coef = ws.derivatives
        r20, p = t[0, 2], t[3]
        # p_T - origin in the angular rows until the rates overwrite them
        calls = [(np.subtract, (p[:, None], origin, block[3:]))] + _cross(w, block[3:], block[:3], prod)
        if rates:
            # c^2 = r00^2 + r10^2 (squares in coef, which the coefficients overwrite) and c = sqrt(c^2)
            calls += [(np.multiply, (t[0, :2], t[0, :2], coef[0])), (np.add, (coef[0, 0], coef[0, 1], cb[0]))]
            calls += [(np.sqrt, (cb[0], cb[1]))]
            # per-row coefficients (r00, r10) / c^2 and / c, then one product and one sum or difference a rate
            terms = twists[:2]
            calls += [(np.divide, (t[0, :2], cb[:, None], coef)), (np.multiply, (w[:2], coef[0, :, None], terms))]
            calls += [(np.add, (terms[0], terms[1], block[3])), (np.multiply, (w[1::-1], coef[1, :, None], terms))]
            calls += [(np.subtract, (terms[0], terms[1], block[4])), (np.multiply, (r20, block[3], prod))]
            calls += [(np.subtract, (w[2], prod, block[5]))]
        else:
            calls += [(block[3:].__setitem__, (Ellipsis, w))]
        for c in self._trans_cols:
            calls += [(block[:3, c].__setitem__, (Ellipsis, w[:, c])), (block[3:, c].__setitem__, (Ellipsis, 0.0))]
        return calls, block[..., : ws.snapshots.shape[-1]], t[0 if rates else 3 :: 3]

    def _tangent_block(self, ws, frames, seeds, weights, out):
        """Tangents ``out`` (r, S, k, 4, 4) of the snapshots ``frames`` (r, S, 4, 4) of the r-row block of the last
        tangents pass on ``ws``: the twists (w, v) per unit of theta of its axis and origin columns (w the axis times
        the theta scale and v = origin x w for a rotation, (0, w) for a translation, so that dT = [w, v]^ T)
        contracted with the input tangents ``seeds`` (r, 1, k, m) times ``weights`` (1, or _twist_weights), then as
        4x4 twist matrices applied to ``frames``, every product in ws.spare.  For seed_array input the contraction
        copies exactly."""
        axes, twists, prod = ws.derivatives[:3]
        w, origin = axes
        twists[:3] = w
        _replay(_cross(origin, w, twists[3:], prod))
        for c in self._trans_cols:
            twists[3:, c], twists[:3, c] = w[:, c], 0.0
        rows, snaps, k = out.shape[:3]
        n, m = rows * snaps * k, self.m
        if ws.spare.size < n * (m + 22):
            ws.spare = np.empty(n * (m + 22), dtype=self.dtype)
        seeded, spatial, mats = ws.spare[: n * m], ws.spare[n * m : n * (m + 6)], ws.spare[n * (m + 6) : n * (m + 22)]
        seeded = np.multiply(seeds, weights, out=seeded.reshape(rows, snaps, k, m))
        np.matmul(seeded, twists[..., :rows].T[:, None], out=spatial.reshape(rows, snaps, k, 6))
        np.matmul(spatial.reshape(n, 6), _TWIST_MATRIX.astype(self.dtype, copy=False), out=mats.reshape(n, 16))
        np.matmul(mats.reshape(rows, snaps, 4 * k, 4), frames, out=out.reshape(rows, snaps, 4 * k, 4))

    def _jacobian(self, thetas, rates):
        """(b, 6, m) Jacobians of the final transforms (see the module docstring): geometric_jacobian's, or
        with ``rates`` pose_jacobian's, every product on (m, rows) buffers of the workspace's derivatives, each
        block copied as it is into a (6, m, b) result, of which this is a view.  A block is one replay of the
        kind's program, the pass and then the tail (_pass, _compile), followed by the checks and the gimbal-lock
        fallback.  The pass computes only the final columns that the tail reads (C_3, and C_0 for the pose), so
        only those are checked of the final pose: a rotation column goes non-finite only through an origin column
        that already is, and stays so.  Both checks are needed: the block's catches derivatives that overflow from a
        finite pose, and the final's a pose that overflows while the block stays finite, as on a chain of
        prismatic joints only, whose columns are their axes over zeros.  The fallback overwrites the angular rows
        of every locked row, which the rate map made too, from the axes of the block's pass and the full final
        rotations, for which it replays the finals program on the same workspace (the pose program leaves C_1
        out, which gamma' reads)."""
        b, m = self.batch_size, self.m
        flat2d = _theta_rows(thetas, m, b, self.dtype)
        jac, kind = np.empty((6, m, b), dtype=self.dtype), ("finals", "pose" if rates else "geometric")
        for rows in _blocks(b, _BLOCK_ROWS):
            ws = self._workspace(rows.stop - rows.start)
            result, final = self._pass(ws, flat2d[rows], None, kind)[2]
            if not np.isfinite(final).all():
                raise ValueError("non-finite value in jacobian output")
            block, cb = ws.derivatives[3:5]
            if rates and cb[1].min() <= transforms._GIMBAL_COS_TOL:
                # the rate map is singular: these rows' angular rows take the pose extraction's derivatives, on a
                # DualArray of their frames' matrix rows whose tangents are dR = [w]x R (0 for a translation)
                locked = np.flatnonzero(cb[1] <= transforms._GIMBAL_COS_TOL)
                t = self._pass(ws, flat2d[rows], None, ("finals", None))[1]
                w = ws.derivatives[0][0][..., locked].transpose(1, 2, 0)[..., None]
                w[list(self._trans_cols)] = 0.0
                dual = np.zeros((1 + m, len(locked), 3, 4), dtype=self.dtype)
                dual[0] = t[..., locked].transpose(2, 1, 0)
                dual[1:, ..., :3] = np.cross(w, dual[:1, ..., :3], axis=2)
                pose = transforms.pose_batch_from_transforms(ad.DualArray(dual[0], dual[1:]))[0]
                block[3:, :, locked] = pose.tangent[..., 3:].transpose(2, 0, 1)
            if not np.isfinite(block).all():
                raise ValueError("non-finite derivative in jacobian output")
            jac[..., rows] = result
        return jac.transpose(2, 0, 1)


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
    has the engine's dtype.  It is a view of a (6, m, b) array, the batch
    axis last in memory; np.ascontiguousarray gives it in C order, at the
    cost of a transposed copy that the Jacobian does not make.
    """
    return engine._jacobian(thetas, rates=False)


def pose_jacobian(engine: FkEngine, thetas):
    """(b, 6, m) pose Jacobians, one per batch configuration.

    Rows follow the pose layout (x, y, z, alpha, beta, gamma); columns follow
    the chain's theta layout.  Rows 0-2 are geometric_jacobian's, bit for
    bit; rows 3-5 are its angular rows through the RPY rate map of the
    final rotation, or at gimbal lock the pose extraction's derivatives
    (see the module docstring).  The Jacobian has the engine's dtype.  It
    is a view of a (6, m, b) array, the batch axis last in memory;
    np.ascontiguousarray gives it in C order, at the cost of a transposed
    copy that the Jacobian does not make.
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
