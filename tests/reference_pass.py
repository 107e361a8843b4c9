"""Reference walk of FkEngine's column pass, for tests.

FkEngine compiles each kind of block pass into a list of numpy calls on
views of its workspace and replays it.  This module keeps the interpreter it
replaced: every block walks the engine's factors (engine._steps) and marks
(engine._marks, engine._final_marks), branches per factor and makes its
operand views afresh, on a workspace of its own.  It makes the same numpy
calls on the same operands in the same order, so every result of the
engine must be bitwise equal to this module's: forward finals and
intermediates, the DualArray primal and tangents, and both Jacobians.  Its
results are C-contiguous, written as the engine wrote them before it kept
the batch axis last: each snapshot staged as matrix rows in a (4, 4, rows)
block whose bottom row is (0, 0, 0, 1), then copied into the result by a 2-D
transposed copy, (rows, 16) <- (16, rows)^T, and each Jacobian block by a
transposed copy; the engine's results equal them in C order
(np.ascontiguousarray, or tobytes).
"""

import weakref

import numpy as np

from diffkin import autodiff as ad
from diffkin import kinematics, transforms
from diffkin.kinematics import _EYE, _PAIRS, _SEED_SIGN, _SEED_TAKE, _blocks, _theta_rows


def _cross(a, b, out, prod):
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        np.multiply(a[j], b[k], out=out[i])
        out[i] -= np.multiply(a[k], b[j], out=prod)


def _seed(engine, ws, f):
    """Factor f's span-starting operands, (G_f, (1, q)) or (G_f, (1, c, s))."""
    static, col, _, a, _, k = engine._steps[f]
    kind = a if k is None else 3 + a
    entries = (_EYE if static is None else static).ravel()[_SEED_TAKE[kind]]
    g = np.multiply(entries, _SEED_SIGN[kind], dtype=ws.q.dtype)
    return (g[:, :2], ws.ones_q[0 : col + 2 : col + 1]) if k is None else (g, ws.ucs[:, k])


def walk(engine, ws, flat2d, out, marks, axes=None):
    """The column pass on a (rows, m) theta block, walked: the product starts
    at factor 0; each mark (f, i, pending^T, shift) puts the product of
    factors 0..f times the pending static into out[:, i] through ws.staged
    (unless ``out`` is None).  Returns the last mark's columns.  With
    ``axes``, writes every factor's scaled axis and origin columns there."""
    columns, flat, grid, (t1, t2) = ws.columns, ws.flat, ws.grid, ws.mixed
    cos, sin = ws.cos, ws.sin
    skip = int(bool(engine._steps) and engine._steps[0][5] is not None)
    np.multiply(flat2d.T, ws.scale, out=ws.q)
    if ws.angles is not ws.q:
        np.take(ws.q, engine._rot_cols, axis=0, out=ws.angles)
    product = None
    with np.errstate(over="ignore", invalid="ignore"):
        np.tan(ws.angles, out=sin)
        np.multiply(sin, sin, out=cos)
        cos += 1.0
        np.divide(2.0, cos, out=cos)
        sin *= cos
        cos -= 1.0
        ws.trig[...] = ws.spread
        f, p = 0, 0
        for mark in marks:
            last, i, pending, shift = mark
            for static, col, negative, a, step_shift, k in engine._steps[f : last + 1]:
                c = columns[p]
                if f == 0:
                    np.matmul(*_seed(engine, ws, f), out=grid[p])
                elif step_shift is not None:
                    c[3] += np.multiply(c[step_shift], static[3, step_shift], out=t1)
                elif static is not None:
                    np.matmul(static, flat[p], out=flat[1 - p])
                    p = 1 - p
                    c = columns[p]
                if axes is not None:
                    axes[:, :, col] = c[a : 4 : 3 - a]
                    if negative:
                        np.negative(c[a], out=axes[0, :, col])
                if f == 0:
                    pass
                elif k is None:
                    c[3] += np.multiply(c[a], ws.q[col], out=t1)
                else:
                    i_, j_ = _PAIRS[a]
                    ci, cj = c[i_], c[j_]
                    s, co = ws.trig[1, k - skip], ws.trig[0, k - skip]
                    np.multiply(s, cj, out=t1)
                    np.multiply(s, ci, out=t2)
                    np.multiply(ci, co, out=ci)
                    np.add(ci, t1, out=ci)
                    np.multiply(cj, co, out=cj)
                    np.subtract(cj, t2, out=cj)
                f += 1
            snap = 1 - p
            if last < 0:
                columns[snap] = (_EYE if pending is None else pending)[:, :3, None]
            elif pending is None:
                snap = p
            elif shift is not None and mark is marks[-1]:
                snap = p
                columns[p, 3] += np.multiply(columns[p, shift], pending[3, shift], out=t1)
            else:
                np.matmul(pending, flat[p], out=flat[snap])
            if out is not None:
                ws.staged[:3] = columns[snap].transpose(1, 0, 2)
                out[:, i].reshape(-1, 16)[...] = ws.staged.reshape(16, -1).T[: len(out)]
            product = columns[snap]
    return product


# each engine's buffers for the walk, apart from its own workspaces, by block rows
_SPACES = weakref.WeakKeyDictionary()


def _workspace(engine, rows):
    """A _Workspace for blocks of ``rows`` rows with, as ws.staged, the
    walk's snapshot: (4, 4, rows), its bottom row (0, 0, 0, 1)."""
    spaces = _SPACES.setdefault(engine, {})
    if rows not in spaces:
        ws = spaces[rows] = kinematics._Workspace(engine, rows)
        ws.staged = np.zeros((4, 4, ws.columns.shape[-1]), dtype=engine.dtype)
        ws.staged[3, 3] = 1.0
    return spaces[rows]


def forward(engine, thetas, want_intermediates=False):
    """engine.forward on a float ndarray or DualArray batch, walked."""
    b, m, dt = engine.batch_size, engine.m, engine.dtype
    flat2d = _theta_rows(ad.primal_of(thetas), m, b, dt)
    if want_intermediates:
        out = np.empty((b, engine.n, 4, 4), dtype=dt)
        snapshots, marks = out, engine._marks
    else:
        out = np.empty((b, 4, 4), dtype=dt)
        snapshots, marks = out[:, None], engine._final_marks
    if not isinstance(thetas, ad.DualArray):
        for rows in _blocks(b, kinematics._BLOCK_ROWS):
            walk(engine, _workspace(engine, rows.stop - rows.start), flat2d[rows], snapshots[rows], marks)
        return out
    k = thetas.width
    seeds = thetas.tangent.astype(dt, copy=False).reshape(k, b, m).transpose(1, 0, 2)[:, None]
    tangent = np.empty((b, len(marks), k, 4, 4), dtype=dt)
    weights = engine._twist_weights if want_intermediates else 1.0
    for rows in _blocks(b, kinematics._TANGENT_ROWS):
        ws = _workspace(engine, rows.stop - rows.start)
        walk(engine, ws, flat2d[rows], snapshots[rows], marks, ws.derivatives[0])
        engine._tangent_block(ws, slice(rows.stop - rows.start), snapshots[rows], seeds[rows], weights, tangent[rows])
    tangent = tangent.transpose(2, 0, 1, 3, 4) if want_intermediates else tangent[:, 0].transpose(1, 0, 2, 3)
    return ad.DualArray(out, tangent)


def jacobian(engine, thetas, rates):
    """engine._jacobian: pose_jacobian's with ``rates``, else geometric_jacobian's, walked."""
    b, m, dt = engine.batch_size, engine.m, engine.dtype
    flat2d = _theta_rows(thetas, m, b, dt)
    jac = np.empty((b, 6, m), dtype=dt)
    for rows in _blocks(b, kinematics._BLOCK_ROWS):
        ws = _workspace(engine, rows.stop - rows.start)
        axes, twists, prod, block, cb, coef = ws.derivatives
        t = walk(engine, ws, flat2d[rows], None, engine._final_marks, axes)
        if not np.isfinite(t).all():
            raise ValueError("non-finite value in jacobian output")
        r20, p = t[0, 2], t[3]
        w, origin = axes
        _cross(w, np.subtract(p[:, None], origin, out=block[3:]), block[:3], prod)
        locked = ()
        if rates:
            squares = np.multiply(t[0, :2], t[0, :2], out=coef[0])
            np.add(squares[0], squares[1], out=cb[0])
            np.sqrt(cb[0], out=cb[1])
            if cb[1].min() <= transforms._GIMBAL_COS_TOL:
                locked = np.flatnonzero(cb[1] <= transforms._GIMBAL_COS_TOL)
                cb[:, locked] = 1.0
            np.divide(t[0, :2], cb[:, None], out=coef)
            terms = twists[:2]
            np.add(*np.multiply(w[:2], coef[0, :, None], out=terms), out=block[3])
            np.subtract(*np.multiply(w[1::-1], coef[1, :, None], out=terms), out=block[4])
            np.subtract(w[2], np.multiply(r20, block[3], out=prod), out=block[5])
        else:
            block[3:] = w
        for c in engine._trans_cols:
            block[:3, c], block[3:, c] = w[:, c], 0.0
        if len(locked):
            frames = np.empty((len(locked), 1, 4, 4), dtype=dt)
            frames[:, 0, :3], frames[:, 0, 3] = t[..., locked].transpose(2, 1, 0), _EYE[3]
            tangent = np.empty((len(locked), 1, m, 4, 4), dtype=dt)
            seeds = np.eye(m, dtype=dt)[None, None]
            engine._tangent_block(ws, locked, frames, seeds, 1.0, tangent)
            dual = ad.DualArray(frames[:, 0], tangent[:, 0].transpose(1, 0, 2, 3))
            block[..., locked] = transforms.pose_batch_from_transforms(dual)[0].tangent.transpose(2, 0, 1)
        if not np.isfinite(block).all():
            raise ValueError("non-finite derivative in jacobian output")
        jac[rows] = block[..., : rows.stop - rows.start].transpose(2, 0, 1)
    return jac
