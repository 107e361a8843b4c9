"""Batched forward kinematics over a kinematic chain.

An FkEngine compiles its chain once into F = m one-dof factors: a static 4x4
transform S_f followed by one elementary motion M_f, a rotation about or a
translation along a canonical axis, so the chain's transform is
S_0 M_0 S_1 M_1 ... S_{F-1} M_{F-1} S_F.  A revolute, continuous or
prismatic joint gives one factor, a planar joint two (Tx Ty), a floating
joint six, in the order Tx Ty Tz Rz Ry Rx of sixdof_batch_to_transforms.
Joint origins, fixed joints and alignment inverses fold into the static
transforms; what follows the last factor is the trailing S_F.

Every entry of S_f M_f is linear in (cos, sin) of a rotation angle or in
(d, 1) of a translation, so forward scales theta, takes cos and sin of the
rotational dofs only, and gets the whole (rows, F, 4, 4) factor stack of a
block from one matmul of the per-row coefficients with a precomputed basis.
It then multiplies along the factor axis; intermediates are snapshots of the
running product at each segment's last factor, times the static pending
there.

The reference pipeline is the scatter/map/scan form of the same chain: a
flat theta batch (b*m,) is scattered through the index matrix P into the
6-DoF parameter tensor Q (b, n, 6) (scatter_thetas), every Q row is expanded
into a joint transform (joint_transforms), premultiplied by its segment's
static link transform (combine_link_joint), and an inclusive cumulative
product along the chain axis (scan_compose), then the post-corrections,
gives every intermediate and the final transform.  forward does not call
these stages; they are the oracle it is tested against.  Where every static
transform's rotation is axis-aligned (arm4, cam_arm) all coefficient
products are exact and forward equals the reference bit for bit; elsewhere
they round differently, within a few ulps.

One product serves values and derivatives.  A DualArray theta batch runs
the float factors and product on its primal, so its primal result is the
float result bit for bit, and keeps the running product P_f after every
factor.  Factor f moves one theta column about or along one canonical axis
of P_f, so that column's derivative of every later transform T is a twist
of P_f applied to T: for a rotation with w = R(P_f)[:, a],
dR_T = w x R_T and dp_T = w x (p_T - p(P_f)); for a translation dp_T = w
(Orin & Schrader 1984).  These per-column twists are contracted with the
input tangents, so forward carries any tangents (vector forward mode) at
the cost of a few products per block, whatever their number.  The kernels
downstream (pose and quaternion extraction, metrics) run on the resulting
DualArray unchanged.  _factors and
_product_block stay numpy-generic: run on a DualArray they are the dense
pass, which carries every tangent through every product, and the tests use
it as the oracle of the twist tangents.

Jacobians of the final transform need no DualArray.  The twists (w_c, v_c)
of the theta columns, times their theta scales, are the columns of the
geometric Jacobian in the base frame: rows w_c x p_T + v_c, the velocity of
T's origin, over rows w_c, its angular velocity (geometric_jacobian).
pose_jacobian maps the angular rows through the rate map of
R_T = Rz(gamma) Ry(beta) Rx(alpha) (Siciliano et al. 2009, sec. 3.6): with
c = cos(beta) = hypot(r00, r10), alpha' = (r00 wx + r10 wy) / c^2,
beta' = (r00 wy - r10 wx) / c and gamma' = wz - r20 alpha'.  Both run block
by block: a few elementwise products turn each block's twists into its rows
of the (b, 6, m) result, so no temporary spans the batch.  Rows at gimbal
lock (c <= transforms._GIMBAL_COS_TOL), where the rate map is singular,
take the pose extraction's derivatives instead: _tangent_block applies
their twists to T, and pose_batch_from_transforms runs on that DualArray,
so they keep the float pose's convention (alpha = 0).

Joints with an arbitrary axis are handled by conjugation: motion about axis
``a`` equals R_align . canonical-slot-motion . R_align^T, where R_align maps
the canonical axis onto ``a``.  R_align is folded into the segment's static
transform and R_align^T into the following one, so the factors only ever
see canonical slots.  Axis-aligned joints (axis = +-e_i) use their slot
directly with the sign folded into the theta scaling.

Every entry that takes configurations reads them with _theta_rows: a batch
is (b*m,) or (b, m), all finite, of a dtype that autodiff.operand accepts.
Another shape, even of the right size, is a ShapeError; a NaN or inf a
ValueError; another dtype a TypeError, raised before any cast.
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

# Large batches run in blocks of this many configurations: smaller blocks pay
# more per-call overhead, and from 1024 rows on the (rows, F, 4, 4) factor
# stack and its products fall out of cache (arm4: 512 is the fastest of 128,
# 256, 512 and 1024 at b = 1024, 2048 and 4096 in float64 and float32).
# Blocking changes no arithmetic (batch elements never interact), so results
# are bitwise identical to a single pass.
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
# Columns (i, j) that a rotation about x, y, z mixes.
_MIXED_I = np.array([1, 2, 0])
_MIXED_J = np.array([2, 0, 1])
_XYZ = np.arange(3)
# A twist (w, v) as its 4x4 matrix [[w]x | v; 0 0 0 0], flattened row-major.
_TWIST_MATRIX = np.zeros((6, 16))
_TWIST_MATRIX[[2, 1, 2, 0, 1, 0], [1, 2, 4, 6, 8, 9]] = [-1.0, 1.0, 1.0, -1.0, -1.0, 1.0]
_TWIST_MATRIX[[3, 4, 5], [3, 7, 11]] = 1.0


class FkEngine:
    """Immutable forward-kinematics evaluator for one chain at one batch size.

    Construction compiles the chain into one-dof factors (see the module
    docstring): the basis that maps a row of (cos, sin, translation, 1)
    coefficients to the row's factor stack, which theta columns feed those
    coefficients, and the static transforms pending at each snapshot.
    forward scales theta, takes cos/sin of the rotational dofs, makes the
    factors with one matmul per block and multiplies them in order.

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

        # Every factor entry is linear in the block's coefficient row
        # (cos of the rotational dofs, their sin, the translational dofs, 1):
        # S @ R(theta) has column i = c*S_i + s*S_j and column j =
        # c*S_j - s*S_i, S @ T(d) has column 3 = S_3 + d*S_a, and the rest is
        # S.  _basis holds those coefficients, one row per coefficient.
        stack = np.array([static for static, _, _ in factors]).reshape(self.m, 4, 4)
        cols = np.array([col for _, col, _ in factors], dtype=np.intp)
        slots = np.array([slot for _, _, slot in factors], dtype=np.intp)
        rot, trans = np.flatnonzero(slots >= 3), np.flatnonzero(slots < 3)
        n_r, n_t = rot.size, trans.size
        ci, cj = _MIXED_I[slots[rot] - 3], _MIXED_J[slots[rot] - 3]
        r3, k = np.arange(3)[:, None], np.arange(n_r)
        si, sj = stack[rot, r3, ci], stack[rot, r3, cj]
        basis = np.zeros((2 * n_r + n_t + 1, self.m, 4, 4))
        basis[-1] = stack
        basis[-1, rot, r3, ci] = basis[-1, rot, r3, cj] = 0.0
        basis[k, rot, r3, ci], basis[k, rot, r3, cj] = si, sj
        basis[n_r + k, rot, r3, ci], basis[n_r + k, rot, r3, cj] = sj, -si
        basis[2 * n_r + np.arange(n_t), trans, r3, 3] = stack[trans, r3, slots[trans]]
        self._basis = basis.reshape(len(basis), -1).astype(dt)
        self._rot_cols, self._trans_cols = cols[rot], cols[trans]
        self._factor_cols, self._factor_slots = cols, slots
        # snapshots: intermediates at every segment, finals after the chain
        marks.append((self.m - 1, 0, marks[-1][2] if self.n else eye))
        marks = [(f, i, None if p is None else p.astype(dt)) for f, i, p in marks]
        self._marks, self._final_marks = tuple(marks[:-1]), (marks[-1],)

    @functools.cached_property
    def _twist_tables(self):
        """(src, weights) of the twist tangents, built on the first DualArray
        evaluation, so that a float-only engine never pays for them.

        ``src`` (m, 5, 3): for theta column c, whose factor f moves about or
        along canonical axis a, flat indices into a block's (rows, 16 F)
        prefix products of five triples (w, x, y, z, u), such that c's twist
        per unit theta scale is (w, x * y - z * u).  A rotation gathers
        (R[:, a], p[I], R[J, a], p[J], R[I, a]) of P_f, with I = (1, 2, 0)
        and J = (2, 0, 1), so its moment is p x R[:, a]; a translation
        gathers (0, R[:, a], 1, 0, 0), the zeros and ones from P_f's bottom
        row, which is exactly (0, 0, 0, 1) in every product of the factors.
        ``weights``: each column's theta scale, as (m,) for the finals and
        (n, 1, m) for the intermediates, zero where c's factor comes after
        intermediate j's mark.
        """
        col_factor = np.argsort(self._factor_cols)
        slots = self._factor_slots[col_factor]
        frame = 16 * col_factor[:, None]
        axis = frame + 4 * _XYZ + slots[:, None] % 3
        origin = frame + 4 * _XYZ + 3
        zero, one = (np.broadcast_to(frame + entry, axis.shape) for entry in (12, 15))
        rot = np.stack([axis, origin[:, _MIXED_I], axis[:, _MIXED_J], origin[:, _MIXED_J], axis[:, _MIXED_I]], axis=1)
        trans = np.stack([zero, axis, one, zero, zero], axis=1)
        src = np.where((slots >= 3)[:, None, None], rot, trans)
        marked = np.array([f for f, _, _ in self._marks], dtype=np.intp)
        scale = self._scale_per_dof
        return src, (scale, (col_factor <= marked[:, None, None]) * scale)

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
        of the prefix products (see the module docstring).  Object-dtype
        input (floats and seeded DiffScalars) is converted to a DualArray at
        entry and back to DiffScalars at exit.
        """
        arr = thetas if isinstance(thetas, (np.ndarray, ad.DualArray)) else np.asarray(thetas)
        if arr.dtype == object:
            return self._evaluate(ad.DualArray.from_scalars(arr), want_intermediates).to_scalars()
        return self._evaluate(thetas, want_intermediates)

    def _evaluate(self, thetas, want_intermediates=False):
        """forward() on a float ndarray or DualArray batch.

        Both run the float factors and product on the primal; a DualArray
        also keeps each block's prefix products and turns them into
        tangents (_prefix_twists, _tangent_block).
        """
        b = self.batch_size
        flat2d = _theta_rows(ad.primal_of(thetas), self.m, b, self.dtype)
        if want_intermediates:
            out = np.empty((b, self.n, 4, 4), dtype=self.dtype)
            snapshots, marks = out, self._marks
        else:
            out = np.empty((b, 4, 4), dtype=self.dtype)
            snapshots, marks = out[:, None], self._final_marks
        if not isinstance(thetas, ad.DualArray):
            for start in range(0, b, _BLOCK_ROWS):
                rows = slice(start, min(start + _BLOCK_ROWS, b))
                self._product_block(self._factors(flat2d[rows]), snapshots[rows], marks)
            return out
        k = thetas.width
        # (b, 1, k, m): each row's input tangents, one matrix row per tangent
        seeds = thetas.tangent.astype(self.dtype, copy=False).reshape(k, b, self.m).transpose(1, 0, 2)[:, None]
        tangent = np.empty((b, len(marks), k, 4, 4), dtype=self.dtype)
        weights = self._twist_tables[1][want_intermediates]
        for start in range(0, b, _BLOCK_ROWS):
            rows = slice(start, min(start + _BLOCK_ROWS, b))
            twists = self._prefix_twists(flat2d[rows], snapshots[rows], marks)
            self._tangent_block(twists, snapshots[rows], seeds[rows], weights, tangent[rows])
        tangent = tangent.transpose(2, 0, 1, 3, 4) if want_intermediates else tangent[:, 0].transpose(1, 0, 2, 3)
        return ad.DualArray(out, tangent)

    def _factors(self, flat2d):
        """(rows, F, 4, 4) factor transforms of a (rows, m) theta block."""
        rows = flat2d.shape[0]
        if rows == 1:
            # numpy runs a one-row matmul as gemv, which rounds unlike gemm;
            # a repeated row keeps each row's value independent of its block
            return self._factors(flat2d[[0, 0]])[:1]
        q = flat2d * self._scale_per_dof
        r = self._rot_cols.size
        coef = np.empty((rows, self._basis.shape[0]), dtype=self.dtype, like=q)
        a = q[:, self._rot_cols]
        coef[:, :r] = np.cos(a)
        coef[:, r : 2 * r] = np.sin(a)
        coef[:, 2 * r : -1] = q[:, self._trans_cols]
        coef[:, -1] = 1.0
        return (coef @ self._basis).reshape(rows, self.m, 4, 4)

    def _product_block(self, g, out, marks, keep_prefix=False):
        """Multiply the factors in order; for each mark (f, i, pending) write
        out[:, i] = (product of factors 0..f) @ pending.  With
        ``keep_prefix``, every g[:, f] is overwritten by the product of
        factors 0..f (numpy buffers the overlapping operand, so the
        products round as without it).

        The F - 1 products along the factor axis are per-row 4x4 products;
        a pending static is one constant 4x4 for the whole block, so its
        product is a single (rows * 4, 4) @ (4, 4) GEMM, not one BLAS call
        per row; each row rounds as in the per-row product (tested)."""
        cur, done = None, 0  # the product of the first `done` factors
        for f, i, pending in marks:
            while done <= f:
                if done == 0:
                    cur = g[:, 0]
                else:
                    cur = np.matmul(cur, g[:, done], out=g[:, done] if keep_prefix else None)
                done += 1
            if cur is None:
                out[:, i] = pending
            elif pending is None:
                out[:, i] = cur
            else:
                out[:, i] = np.matmul(cur.reshape(-1, 4), pending).reshape(-1, 4, 4)

    def _products_around(self, thetas, start, stop):
        """(head, tail), (b, 4, 4) each, of a theta batch: the product of
        factors 0..start-1 and that of factors stop..F-1 times the trailing
        static, so the final transform is head @ (factors start..stop-1) @
        tail.  ``start`` is at least 1; an empty tail product is the
        identity.  The head rounds as forward's prefix products do."""
        b = self.batch_size
        flat2d = _theta_rows(thetas, self.m, b, self.dtype)
        trailing = self._final_marks[0][2]
        head, tail = (np.empty((b, 1, 4, 4), dtype=self.dtype) for _ in range(2))
        if stop == self.m:
            tail[:] = np.eye(4) if trailing is None else trailing
        for first in range(0, b, _BLOCK_ROWS):
            rows = slice(first, min(first + _BLOCK_ROWS, b))
            g = self._factors(flat2d[rows])
            self._product_block(g[:, :start], head[rows], ((start - 1, 0, None),))
            if stop < self.m:
                self._product_block(g[:, stop:], tail[rows], ((self.m - stop - 1, 0, trailing),))
        return head[:, 0], tail[:, 0]

    def _prefix_twists(self, flat2d, out, marks):
        """_product_block on the factors of a (rows, m) theta block, kept as
        the prefix products P_f, then every theta column's twist
        (rows, m, 6) in its frame (see _twist_tables).

        The factors are made here, not by the caller, so that they and the
        gather are freed as soon as the twists are out, before the caller
        allocates: with all of them alive at once, glibc trims and refaults
        its heap on every call (arm4, b = 256 and 4096).
        """
        g = self._factors(flat2d)
        self._product_block(g, out, marks, keep_prefix=True)
        rows = len(g)
        gathered = g.reshape(rows, -1)[:, self._twist_tables[0]]
        del g
        _, x, y, z, u = gathered.transpose(2, 0, 1, 3)
        np.multiply(x, y, out=x)
        x -= z * u
        return gathered[:, :, :2].reshape(rows, self.m, 6)

    def _tangent_block(self, twists, frames, seeds, weights, out):
        """Tangents of a block's snapshots: the (r, m, 6) ``twists`` (see
        the module docstring) contracted with the input tangents ``seeds``
        (r, 1, k, m) times ``weights`` (see _twist_tables), then as 4x4
        twist matrices applied to the (r, S, 4, 4) ``frames``; ``out`` is
        (r, S, k, 4, 4).  For seed_array input the contraction copies the
        twists exactly.
        """
        # The batched matmuls stay: elementwise cross products made
        # pose_jacobian 1.06-1.97x slower at b = 256, 1.16-1.79x at b = 4096.
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
        frames = np.empty((min(b, _BLOCK_ROWS), 1, 4, 4), dtype=self.dtype)
        for start in range(0, b, _BLOCK_ROWS):
            stop = min(start + _BLOCK_ROWS, b)
            self._jacobian_block(flat2d[start:stop], frames[: stop - start], jac[start:stop], rates)
        return jac

    def _jacobian_block(self, flat2d, frames, out, rates):
        """_jacobian's rows ``out`` (rows, 6, m) of a (rows, m) theta block,
        with ``frames`` (rows, 1, 4, 4) as scratch for the final transforms.
        A method of its own so that the block's temporaries are freed before
        the next block allocates (see _prefix_twists)."""
        twists = self._prefix_twists(flat2d, frames, self._final_marks)
        t = frames[:, 0]
        if not np.isfinite(t).all():
            raise ValueError("non-finite value in jacobian output")
        # the entries of T used and the scaled twists, (rows,) and (m, rows)
        # each: every product below runs along contiguous rows
        r00, r10, r20, px, py, pz = t.reshape(-1, 16)[:, [0, 4, 8, 3, 7, 11]].T.copy()
        wx, wy, wz, vx, vy, vz = tw = np.multiply(twists.transpose(2, 1, 0), self._scale_per_dof[:, None], order="C")
        block = np.empty_like(tw)
        block[0] = wy * pz - wz * py + vx
        block[1] = wz * px - wx * pz + vy
        block[2] = wx * py - wy * px + vz
        locked = ()
        if rates:
            cb = np.hypot(r00, r10)
            locked = np.flatnonzero(cb <= transforms._GIMBAL_COS_TOL)
            cb[locked] = 1.0
            block[3] = (r00 * wx + r10 * wy) / (cb * cb)
            block[4] = (r00 * wy - r10 * wx) / cb
            block[5] = wz - r20 * block[3]
        else:
            block[3:] = tw[:3]
        out[...] = block.transpose(2, 0, 1)
        if len(locked):
            # the rate map is singular: these rows take the pose extraction's
            # derivatives, on a DualArray of their tangents
            m = self.m
            tangent = np.empty((len(locked), 1, m, 4, 4), dtype=self.dtype)
            seeds = np.eye(m, dtype=self.dtype)[None, None]
            self._tangent_block(twists[locked], frames[locked], seeds, self._scale_per_dof, tangent)
            dual = ad.DualArray(t[locked], tangent[:, 0].transpose(1, 0, 2, 3))
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
