"""Forward-mode automatic differentiation over arrays.

``DualArray`` is the vector forward mode (Griewank & Walther, *Evaluating
Derivatives*, 2008, section 3) that the library's kernels run on: one primal
ndarray plus a tangent ndarray with the tangent axis leading, shape
``(k,) + primal.shape``.  It implements numpy's ``__array_ufunc__`` and
``__array_function__`` protocols for exactly the operations the pose,
quaternion and metric kernels use, so those kernels run unchanged on it;
every other ufunc or function, and any conversion to a plain ndarray,
raises instead of silently dropping the tangent.  The operators come from
numpy's ``NDArrayOperatorsMixin``, so ``a + b`` runs ``np.add`` and its
rule in ``_UFUNC_RULES``.  Primals are computed by the same numpy calls as
the float kernels, so they are bitwise equal to a float run.
``FkEngine.forward`` takes a DualArray too, but builds the tangents of its
factor product from the twists of the float prefix products instead of
pushing them through every 4x4 product (see ``kinematics``); run through
the reference stages (``scan_compose`` and the rest) that the tests drive,
a DualArray gives that dense product, the oracle of the twist tangents.

``batch_jacobian`` turns a batched map into per-row Jacobians with one
seeded pass.  ``DiffScalar`` is only a (value, tangent) record, the
element type of the object arrays that ``FkEngine.forward`` converts at
its boundary.

``operand`` is the library's one dtype rule for array input: a DualArray,
or a float32 or float64 ndarray, passes uncopied; integer input, or a list
of floats, becomes float64; any other dtype (complex, string, bool, object,
float16) is a ``TypeError``, raised before any cast.  A list or tuple is
checked by element, so a bool among its numbers is refused too.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "DualArray",
    "seed_array",
    "primal_of",
    "operand",
    "DiffScalar",
    "batch_jacobian",
]

# Cap for one-sided derivatives where the true derivative diverges
# (arccos/arcsin at |u|=1, sqrt at 0).  Keeps optimization loops finite.
_DERIVATIVE_CAP = 1e8

_FLOAT_DTYPES = (np.dtype(np.float64), np.dtype(np.float32))
_BOOL_TYPES = frozenset((bool, np.bool_))


class DiffScalar:
    """A value and its tangent vector d(value)/d(seeds), as one record.

    ``grad`` is a numpy vector of the seeded input width, or the scalar
    ``0.0`` for a constant.  ``FkEngine.forward`` accepts object arrays of
    these and converts them to and from a DualArray at its boundary.
    """

    __slots__ = ("value", "grad")

    def __init__(self, value, grad=0.0):
        self.value = float(value)
        self.grad = grad

    def __repr__(self):
        return f"DiffScalar({self.value!r}, grad={self.grad!r})"


def batch_jacobian(f, thetas):
    """(b, p, k) Jacobians of a batched map, one per row of ``thetas``.

    ``thetas`` of shape (b, k) is seeded with seed_array, so every row
    shares one k-wide tangent space: output row i depends on input row i
    alone, and the cross-row blocks are structurally zero.  ``f`` maps the
    (b, k) DualArray to a (b, p) DualArray.
    """
    thetas = operand(thetas)
    if thetas.ndim != 2:
        raise ValueError(f"thetas must be a (b, k) batch, got shape {thetas.shape}")
    out = f(seed_array(thetas))
    if not np.isfinite(out.primal).all():
        raise ValueError("non-finite value in jacobian output")
    jac = out.tangent.transpose((*range(1, out.tangent.ndim), 0))
    if not np.isfinite(jac).all():
        raise ValueError("non-finite derivative in jacobian output")
    return jac


# -- vector forward mode over arrays -----------------------------------------


class DualArray(np.lib.mixins.NDArrayOperatorsMixin):
    """A primal ndarray plus k tangents: ``tangent[j]`` is d(primal)/d(input j).

    ``tangent`` has shape ``(k,) + primal.shape``.  numpy ufuncs and
    functions dispatch here through ``__array_ufunc__`` and
    ``__array_function__``; only the operations in ``_UFUNC_RULES`` and
    ``_FUNCTIONS``, and ``np.zeros``/``np.empty`` with ``like=`` a
    DualArray, are supported.  Every operator goes through the mixin to its
    ufunc.  Anything unsupported raises ``TypeError``.
    """

    __slots__ = ("primal", "tangent")

    def __init__(self, primal, tangent):
        primal = np.asarray(primal)
        tangent = np.asarray(tangent)
        if tangent.shape[1:] != primal.shape:
            raise ValueError(f"tangent shape {tangent.shape} is not (k,) + primal shape {primal.shape}")
        self.primal = primal
        self.tangent = tangent

    @classmethod
    def from_scalars(cls, values):
        """DualArray from an array of DiffScalars of one tangent width and constants."""
        values = np.asarray(values, dtype=object)
        flat = values.ravel().tolist()
        primal = operand([v.value if isinstance(v, DiffScalar) else v for v in flat])
        grads = [v.grad if isinstance(v, DiffScalar) else 0.0 for v in flat]
        widths = {g.size for g in grads if isinstance(g, np.ndarray)}
        if len(widths) > 1:
            raise ValueError(f"DiffScalar tangents of mixed widths {sorted(widths)}")
        k = widths.pop() if widths else 0
        tangent = np.zeros((len(flat), k))
        for row, grad in zip(tangent, grads):
            row[...] = grad
        return cls(primal.reshape(values.shape), tangent.T.reshape((k,) + values.shape))

    def to_scalars(self):
        """Object array of DiffScalars (constants when the tangent width is 0)."""
        k = self.width
        rows = np.ascontiguousarray(self.tangent.reshape(k, self.size).T)
        out = np.empty(self.shape, dtype=object)
        for i, (value, grad) in enumerate(zip(self.primal.ravel().tolist(), rows)):
            out.flat[i] = DiffScalar(value, grad if k else 0.0)
        return out

    shape = property(lambda self: self.primal.shape)
    ndim = property(lambda self: self.primal.ndim)
    size = property(lambda self: self.primal.size)
    dtype = property(lambda self: self.primal.dtype)
    width = property(lambda self: self.tangent.shape[0], doc="Number of tangents k.")

    def __array__(self, dtype=None, copy=None):
        raise TypeError("a DualArray has no plain-array form; use .primal and .tangent")

    def __array_ufunc__(self, ufunc, method, *inputs, out=None, **kwargs):
        rule = _UFUNC_RULES.get(ufunc)
        if method != "__call__" or rule is None or kwargs:
            what = ufunc.__name__ if method == "__call__" else f"{ufunc.__name__}.{method}"
            raise TypeError(f"DualArray does not support numpy.{what}" + (f" with {sorted(kwargs)}" if kwargs else ""))
        result = rule(ufunc, *inputs)
        if out is None:
            return result
        out[0][...] = result
        return out[0]

    def __array_function__(self, func, types, args, kwargs):
        if func in (np.zeros, np.empty):
            # creation with like=self: a new array with k tangents of its shape
            primal = func(*args, **kwargs)
            return _new(primal, func((self.width,) + primal.shape, dtype=primal.dtype))
        impl = _FUNCTIONS.get(func)
        if impl is None:
            raise TypeError(f"DualArray does not support numpy.{func.__name__}")
        return impl(*args, **kwargs)

    def __getitem__(self, key):
        key = key if isinstance(key, tuple) else (key,)
        return _new(self.primal[key], self.tangent[(slice(None),) + key])

    def __setitem__(self, key, value):
        key = key if isinstance(key, tuple) else (key,)
        primal, tangent = _split(value)
        self.primal[key] = primal
        tkey = (slice(None),) + key
        self.tangent[tkey] = 0 if tangent is None else _aligned(tangent, np.ndim(self.primal[key]))

    def reshape(self, *shape):
        primal = self.primal.reshape(*shape)
        return _new(primal, self.tangent.reshape(self.tangent.shape[:1] + primal.shape))

    def astype(self, dtype, copy=True):
        return _new(self.primal.astype(dtype, copy=copy), self.tangent.astype(dtype, copy=copy))

    def sum(self, axis=None, keepdims=False):
        # np.add.reduce is what ndarray.sum and ndarray.mean run, without
        # their Python layer
        axes = range(self.ndim) if axis is None else (axis if isinstance(axis, tuple) else (axis,))
        shifted = tuple(a % self.ndim + 1 for a in axes)
        return _new(
            np.add.reduce(self.primal, axis=axis, keepdims=keepdims),
            np.add.reduce(self.tangent, axis=shifted, keepdims=keepdims),
        )

    def mean(self, axis=None, keepdims=False):
        total = self.sum(axis, keepdims)
        # the number of entries summed; ndarray.mean divides by it as an
        # intp, and a python int gives the same bits (the float32 quotient
        # is correctly rounded either way)
        count = self.size // max(total.size, 1)
        return _new(total.primal / count, total.tangent / count)

    def __repr__(self):
        return f"DualArray(primal={self.primal!r}, tangent={self.tangent!r})"


def _new(primal, tangent):
    """DualArray of a primal and tangent that already fit, unchecked: the
    constructor for results built here."""
    out = object.__new__(DualArray)
    out.primal = primal
    out.tangent = tangent
    return out


def seed_array(values):
    """DualArray seeding each index of the last axis as an independent input.

    ``values`` of shape (..., k) gets k tangents, tangent j being one at
    [..., j] and zero elsewhere: every row of a batch shares one k-wide
    tangent space, since its outputs depend on that row alone.
    """
    values = np.asarray(values)
    k = values.shape[-1]
    tangent = np.zeros((k,) + values.shape, dtype=values.dtype)
    idx = np.arange(k)
    tangent[idx, ..., idx] = 1
    return DualArray(values, tangent)


def operand(x):
    """``x`` by the library's one dtype rule (see the module docstring)."""
    if isinstance(x, DualArray) or (isinstance(x, np.ndarray) and x.dtype in _FLOAT_DTYPES):
        return x
    arr = np.asarray(x)
    dtype = arr.dtype
    if isinstance(x, (list, tuple)):
        # numpy reads a bool among numbers as 0 or 1, so a list is checked by element
        leaves = np.asarray(x, dtype=object).ravel().tolist()
        if not _BOOL_TYPES.isdisjoint(map(type, leaves)):
            dtype = np.dtype(bool)
    if dtype.kind not in "iu" and dtype not in _FLOAT_DTYPES:
        raise TypeError(f"expected integer or float32/float64 values, got dtype {dtype}")
    return arr.astype(np.float64, copy=False)


def primal_of(x):
    """The primal ndarray of a DualArray; anything else unchanged."""
    return x.primal if isinstance(x, DualArray) else x


def _split(x):
    """(primal, tangent) of a DualArray; (x, None) of a constant.

    Constants pass through unconverted, so a python scalar stays weakly
    typed and a float32 primal stays float32, as in the float kernels.
    """
    if isinstance(x, DualArray):
        return x.primal, x.tangent
    return x, None


def _aligned(tangent, ndim):
    """``tangent`` with singleton axes inserted after the tangent axis, so its
    primal axes broadcast against a rank-``ndim`` primal."""
    extra = ndim - (tangent.ndim - 1)
    if extra <= 0:
        return tangent
    return tangent.reshape(tangent.shape[:1] + (1,) * extra + tangent.shape[1:])


def _dual(primal, terms):
    """DualArray whose tangent is the sum of ``terms``, broadcast to full shape."""
    tangent = terms[0]
    for term in terms[1:]:
        tangent = tangent + term
    shape = tangent.shape[:1] + primal.shape
    if tangent.shape != shape:
        tangent = np.broadcast_to(tangent, shape).copy()
    return _new(primal, tangent)


def _elementwise(partials):
    """Rule for an elementwise ufunc: ``partials(result, *primals)`` gives one
    factor per input, None standing for 1."""

    def rule(ufunc, *inputs):
        parts = [_split(x) for x in inputs]
        primals = [p for p, _ in parts]
        result = ufunc(*primals)
        ndim = result.ndim
        terms = []
        for (_, tangent), factor in zip(parts, partials(result, *primals)):
            if tangent is not None:
                term = _aligned(tangent, ndim)
                terms.append(term if factor is None else term * factor)
        return _dual(result, terms)

    return rule


def _capped_ratio(c, d):
    """c / d, capped at _DERIVATIVE_CAP where d <= c / cap."""
    limit = c / _DERIVATIVE_CAP
    return np.where(d > limit, c / np.maximum(d, limit), _DERIVATIVE_CAP)


def _arctan2_partials(result, y, x):
    with np.errstate(divide="ignore", invalid="ignore"):
        denom = y * y + x * x
        return x / denom, -y / denom


def _hypot_partials(result, a, b):
    # d sqrt(a^2 + b^2), with the capped derivative of np.sqrt
    scale = 2.0 * _capped_ratio(0.5, result)
    return a * scale, b * scale


def _arcsin_scale(x):
    return _capped_ratio(1.0, np.sqrt(np.maximum(1.0 - x * x, 0.0)))


def _matmul(ufunc, a, b):
    (pa, ta), (pb, tb) = _split(a), _split(b)
    if np.ndim(pa) < 2 or np.ndim(pb) < 2:
        raise TypeError("DualArray matmul needs operands of rank 2 or more")
    result = np.matmul(pa, pb)
    terms = []
    if ta is not None:
        terms.append(np.matmul(_aligned(ta, result.ndim), pb))
    if tb is not None:
        terms.append(np.matmul(pa, _aligned(tb, result.ndim)))
    return _dual(result, terms)


def _selected(condition, x, y, ndim):
    """Tangent of x where ``condition`` holds and of y elsewhere."""
    (_, tx), (_, ty) = _split(x), _split(y)
    tx = 0.0 if tx is None else _aligned(tx, ndim)
    ty = 0.0 if ty is None else _aligned(ty, ndim)
    return np.where(condition, tx, ty)


def _extremum(first_wins):
    """Rule for minimum/maximum: the tangent of the argument the primal picks,
    the first one on a tie."""

    def rule(ufunc, a, b):
        pa, pb = primal_of(a), primal_of(b)
        result = ufunc(pa, pb)
        return _dual(result, [_selected(first_wins(pa, pb), a, b, result.ndim)])

    return rule


_UFUNC_RULES = {
    np.add: _elementwise(lambda r, a, b: (None, None)),
    np.subtract: _elementwise(lambda r, a, b: (None, -1.0)),
    np.multiply: _elementwise(lambda r, a, b: (b, a)),
    np.divide: _elementwise(lambda r, a, b: (1.0 / b, -r / b)),
    np.negative: _elementwise(lambda r, a: (-1.0,)),
    # the kink at 0 takes the positive branch
    np.absolute: _elementwise(lambda r, a: (np.where(a < 0, -1.0, 1.0),)),
    np.minimum: _extremum(np.less_equal),
    np.maximum: _extremum(np.greater_equal),
    np.sin: _elementwise(lambda r, a: (np.cos(a),)),
    np.cos: _elementwise(lambda r, a: (-np.sin(a),)),
    np.sqrt: _elementwise(lambda r, a: (_capped_ratio(0.5, r),)),
    np.arcsin: _elementwise(lambda r, a: (_arcsin_scale(a),)),
    np.arccos: _elementwise(lambda r, a: (-_arcsin_scale(a),)),
    np.arctan2: _elementwise(_arctan2_partials),
    np.hypot: _elementwise(_hypot_partials),
    np.matmul: _matmul,
}


def _tangent_axis(axis):
    """The tangent's axis for primal axis ``axis``: the tangent axis leads."""
    return axis + 1 if axis >= 0 else axis


def _where(condition, x, y):
    if isinstance(condition, DualArray):
        raise TypeError("numpy.where needs a plain boolean condition")
    result = np.where(condition, primal_of(x), primal_of(y))
    return _dual(result, [_selected(condition, x, y, result.ndim)])


def _stack(arrays, axis=0):
    parts = [_split(a) for a in arrays]
    ref = next(t for _, t in parts if t is not None)
    tangents = [np.zeros(ref.shape[:1] + np.shape(p), ref.dtype) if t is None else t for p, t in parts]
    primal = np.stack([p for p, _ in parts], axis=axis)
    return _new(primal, np.stack(tangents, axis=_tangent_axis(axis)))


def _take_along_axis(arr, indices, axis):
    if isinstance(indices, DualArray):
        raise TypeError("numpy.take_along_axis needs plain integer indices")
    primal = np.take_along_axis(arr.primal, indices, axis=axis)
    return _new(primal, np.take_along_axis(arr.tangent, indices[None], axis=_tangent_axis(axis)))


def _swapaxes(a, axis1, axis2):
    tangent = np.swapaxes(a.tangent, _tangent_axis(axis1), _tangent_axis(axis2))
    return _new(np.swapaxes(a.primal, axis1, axis2), tangent)


_FUNCTIONS = {
    np.where: _where,
    np.stack: _stack,
    np.take_along_axis: _take_along_axis,
    np.swapaxes: _swapaxes,
    np.size: lambda a, axis=None: np.size(a.primal, axis),  # a shape query carries no derivative
}
