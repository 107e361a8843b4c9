"""Forward-mode automatic differentiation.

Two dual types carry tangents alongside values:

``DualArray`` is the vector forward mode (Griewank & Walther, *Evaluating
Derivatives*, 2008, section 3) that the kinematics pipeline runs on: one
primal ndarray plus a tangent ndarray with the tangent axis leading, shape
``(k,) + primal.shape``.  It implements numpy's ``__array_ufunc__`` and
``__array_function__`` protocols for exactly the operations the FK and
pose-extraction kernels use, so those kernels run unchanged on it; every
other ufunc or function, and any conversion to a plain ndarray, raises
instead of silently dropping the tangent.  Primals are computed by the same
numpy calls as the float kernels, so they are bitwise equal to a float run.

``DiffScalar`` is a scalar dual number whose derivative part is a numpy
tangent vector.  A constant carries the scalar tangent ``0.0``, which
broadcasts against any seeded width.  Its primal uses the same python
``math`` call and evaluation order as plain-float code.  The scalar-generic
rotation metrics still run on it.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "DualArray",
    "seed_array",
    "primal_of",
    "DiffScalar",
    "lift",
    "seed_vector",
    "value_of",
    "tangent_of",
    "sin",
    "cos",
    "sqrt",
    "asin",
    "acos",
    "atan2",
    "absolute",
    "minimum",
    "maximum",
    "jacobian",
    "batch_jacobian",
]

# Cap for one-sided derivatives where the true derivative diverges
# (acos/asin at |u|=1, sqrt at 0).  Keeps optimization loops finite.
_DERIVATIVE_CAP = 1e8


class DiffScalar:
    """Dual number: a float value plus a tangent vector d(value)/d(seeds).

    ``grad`` is either a numpy vector of the seeded input width or the
    scalar ``0.0`` for quantities with no input dependence.
    """

    __slots__ = ("value", "grad")

    def __init__(self, value, grad=0.0):
        self.value = float(value)
        self.grad = grad

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, DiffScalar):
            return DiffScalar(self.value + other.value, self.grad + other.grad)
        return DiffScalar(self.value + other, self.grad)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, DiffScalar):
            return DiffScalar(self.value - other.value, self.grad - other.grad)
        return DiffScalar(self.value - other, self.grad)

    def __rsub__(self, other):
        return DiffScalar(other - self.value, -self.grad)

    def __mul__(self, other):
        if isinstance(other, DiffScalar):
            return DiffScalar(
                self.value * other.value,
                self.grad * other.value + other.grad * self.value,
            )
        return DiffScalar(self.value * other, self.grad * other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, DiffScalar):
            ov = other.value
            return DiffScalar(
                self.value / ov,
                (self.grad * ov - other.grad * self.value) / (ov * ov),
            )
        return DiffScalar(self.value / other, self.grad / other)

    def __rtruediv__(self, other):
        v = self.value
        return DiffScalar(other / v, self.grad * (-other / (v * v)))

    def __neg__(self):
        return DiffScalar(-self.value, -self.grad)

    def __pos__(self):
        return self

    def __pow__(self, exponent):
        v = self.value
        return DiffScalar(v**exponent, self.grad * (exponent * v ** (exponent - 1)))

    def __abs__(self):
        # Kink at 0 resolves to the positive branch: d|x|/dx = +1.
        if self.value < 0:
            return DiffScalar(-self.value, -self.grad)
        return DiffScalar(self.value, self.grad)

    # -- comparisons (on the primal value) ----------------------------------

    def __lt__(self, other):
        return self.value < value_of(other)

    def __le__(self, other):
        return self.value <= value_of(other)

    def __gt__(self, other):
        return self.value > value_of(other)

    def __ge__(self, other):
        return self.value >= value_of(other)

    def __eq__(self, other):
        return self.value == value_of(other)

    __hash__ = None

    # -- transcendental methods (named after numpy ufuncs so object-dtype
    #    arrays dispatch here) ----------------------------------------------

    def sin(self):
        return DiffScalar(math.sin(self.value), self.grad * math.cos(self.value))

    def cos(self):
        return DiffScalar(math.cos(self.value), self.grad * -math.sin(self.value))

    def sqrt(self):
        r = math.sqrt(self.value)
        scale = 0.5 / r if r > 0.5 / _DERIVATIVE_CAP else _DERIVATIVE_CAP
        return DiffScalar(r, self.grad * scale)

    def arcsin(self):
        v = self.value
        d = math.sqrt(max(1.0 - v * v, 0.0))
        scale = 1.0 / d if d > 1.0 / _DERIVATIVE_CAP else _DERIVATIVE_CAP
        return DiffScalar(math.asin(v), self.grad * scale)

    def arccos(self):
        v = self.value
        d = math.sqrt(max(1.0 - v * v, 0.0))
        scale = 1.0 / d if d > 1.0 / _DERIVATIVE_CAP else _DERIVATIVE_CAP
        return DiffScalar(math.acos(v), self.grad * -scale)

    def arctan2(self, other):
        if isinstance(other, DiffScalar):
            ov, og = other.value, other.grad
        else:
            ov, og = other, 0.0
        denom = self.value * self.value + ov * ov
        return DiffScalar(
            math.atan2(self.value, ov),
            (self.grad * ov - og * self.value) / denom,
        )

    def __repr__(self):
        return f"DiffScalar({self.value!r}, grad={self.grad!r})"


# -- float/DiffScalar dispatch helpers --------------------------------------


def value_of(x):
    """Primal value of a plain number or DiffScalar."""
    if isinstance(x, DiffScalar):
        return x.value
    return float(x)


def tangent_of(x, width):
    """Tangent vector of ``x`` as a dense length-``width`` array."""
    if isinstance(x, DiffScalar):
        g = x.grad
        if isinstance(g, np.ndarray):
            return np.asarray(g, dtype=float)
        return np.full(width, float(g))
    return np.zeros(width)


def lift(x, seed_index=None, num_inputs=None):
    """Wrap a float as a constant, or as the ``seed_index``-th independent input."""
    if seed_index is None:
        return DiffScalar(x, 0.0)
    if num_inputs is None:
        raise ValueError("num_inputs is required when seeding an input")
    if not 0 <= seed_index < num_inputs:
        raise IndexError(f"seed_index {seed_index} out of range for {num_inputs} inputs")
    g = np.zeros(num_inputs)
    g[seed_index] = 1.0
    return DiffScalar(x, g)


def seed_vector(values):
    """Seed each element of ``values`` as an independent input (width = len)."""
    values = np.asarray(values, dtype=float).ravel()
    k = values.size
    out = []
    for j, v in enumerate(values):
        g = np.zeros(k)
        g[j] = 1.0
        out.append(DiffScalar(v, g))
    return out


def sin(x):
    return x.sin() if isinstance(x, DiffScalar) else math.sin(x)


def cos(x):
    return x.cos() if isinstance(x, DiffScalar) else math.cos(x)


def sqrt(x):
    return x.sqrt() if isinstance(x, DiffScalar) else math.sqrt(x)


def asin(x):
    return x.arcsin() if isinstance(x, DiffScalar) else math.asin(x)


def acos(x):
    return x.arccos() if isinstance(x, DiffScalar) else math.acos(x)


def atan2(y, x):
    if isinstance(y, DiffScalar):
        return y.arctan2(x)
    if isinstance(x, DiffScalar):
        denom = y * y + x.value * x.value
        return DiffScalar(math.atan2(y, x.value), x.grad * (-y / denom))
    return math.atan2(y, x)


def absolute(x):
    return abs(x)


def minimum(a, b):
    """Smaller argument by value; ties resolve to the first argument."""
    return a if value_of(a) <= value_of(b) else b


def maximum(a, b):
    """Larger argument by value; ties resolve to the first argument."""
    return a if value_of(a) >= value_of(b) else b


# -- Jacobian drivers --------------------------------------------------------


def _row_of(y, width, label):
    v = value_of(y)
    if not math.isfinite(v):
        raise ValueError(f"non-finite value in jacobian output {label}")
    row = tangent_of(y, width)
    if not np.all(np.isfinite(row)):
        raise ValueError(f"non-finite derivative in jacobian output {label}")
    return row


def jacobian(f, x):
    """Dense Jacobian J[i][j] = d f_i / d x_j from one seeded forward pass.

    ``f`` receives a 1-D object array of seeded DiffScalars and returns a
    sequence (any nesting) of outputs; the result has one row per flattened
    output.
    """
    x = np.asarray(x, dtype=float).ravel()
    inputs = np.array(seed_vector(x), dtype=object)
    outputs = np.ravel(np.asarray(f(inputs), dtype=object))
    jac = np.empty((outputs.size, x.size))
    for i, y in enumerate(outputs):
        jac[i] = _row_of(y, x.size, f"row {i}")
    return jac


def batch_jacobian(f, thetas, dof, batch_size=None):
    """Per-configuration Jacobians of a batched map, one per batch element.

    Every configuration is seeded in the same ``dof``-wide tangent space.
    Output element k depends only on configuration k, so a single forward
    evaluation yields all per-element Jacobians; the cross-element blocks
    are identically zero and never materialized.

    ``f`` maps a flat (b*dof,) object array to a (b, p) array of outputs;
    returns a list of b arrays of shape (p, dof).
    """
    flat = np.asarray(thetas, dtype=float).ravel()
    if dof == 0:
        if batch_size is None:
            raise ValueError("batch_size is required when dof == 0")
        b = batch_size
        inputs = np.array([], dtype=object)
    else:
        if flat.size % dof:
            raise ValueError(f"theta batch of length {flat.size} is not a multiple of dof {dof}")
        b = flat.size // dof
        if batch_size is not None and batch_size != b:
            raise ValueError(f"batch_size {batch_size} inconsistent with {flat.size} thetas of dof {dof}")
        seeds = []
        for j, v in enumerate(flat):
            g = np.zeros(dof)
            g[j % dof] = 1.0
            seeds.append(DiffScalar(v, g))
        inputs = np.array(seeds, dtype=object)
    outputs = np.asarray(f(inputs), dtype=object).reshape(b, -1)
    jacs = []
    for k in range(b):
        jac = np.empty((outputs.shape[1], dof))
        for i, y in enumerate(outputs[k]):
            jac[i] = _row_of(y, dof, f"batch {k}, row {i}")
        jacs.append(jac)
    return jacs


# -- vector forward mode over arrays -----------------------------------------


class DualArray(np.lib.mixins.NDArrayOperatorsMixin):
    """A primal ndarray plus k tangents: ``tangent[j]`` is d(primal)/d(input j).

    ``tangent`` has shape ``(k,) + primal.shape``.  numpy ufuncs and
    functions, and the arithmetic and comparison operators (which the mixin
    maps to ufuncs), dispatch here through ``__array_ufunc__`` and
    ``__array_function__``; only the operations in ``_UFUNC_RULES`` and
    ``_FUNCTIONS``, and ``np.zeros``/``np.empty`` with ``like=`` a
    DualArray, are supported.  Anything else raises ``TypeError``.
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
        """DualArray from an array of floats and DiffScalars of one tangent width."""
        values = np.asarray(values, dtype=object)
        flat = values.ravel()
        widths = {v.grad.size for v in flat if isinstance(v, DiffScalar) and isinstance(v.grad, np.ndarray)}
        if len(widths) > 1:
            raise ValueError(f"DiffScalar tangents of mixed widths {sorted(widths)}")
        k = widths.pop() if widths else 0
        primal = np.array([value_of(v) for v in flat], dtype=float).reshape(values.shape)
        tangent = np.array([tangent_of(v, k) for v in flat], dtype=float).reshape(flat.size, k)
        return cls(primal, tangent.T.reshape((k,) + values.shape))

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
            return DualArray(primal, func((self.width,) + primal.shape, dtype=primal.dtype))
        impl = _FUNCTIONS.get(func)
        if impl is None:
            raise TypeError(f"DualArray does not support numpy.{func.__name__}")
        return impl(*args, **kwargs)

    def __getitem__(self, key):
        key = key if isinstance(key, tuple) else (key,)
        return DualArray(self.primal[key], self.tangent[(slice(None),) + key])

    def __setitem__(self, key, value):
        key = key if isinstance(key, tuple) else (key,)
        primal, tangent = _split(value)
        self.primal[key] = primal
        tkey = (slice(None),) + key
        self.tangent[tkey] = 0 if tangent is None else _aligned(tangent, np.ndim(self.primal[key]))

    def reshape(self, *shape):
        primal = self.primal.reshape(*shape)
        return DualArray(primal, self.tangent.reshape((self.width,) + primal.shape))

    def astype(self, dtype, copy=True):
        return DualArray(self.primal.astype(dtype, copy=copy), self.tangent.astype(dtype, copy=copy))

    def _reduce(self, name, axis):
        axes = range(self.ndim) if axis is None else (axis if isinstance(axis, tuple) else (axis,))
        shifted = tuple(a % self.ndim + 1 for a in axes)
        return DualArray(getattr(self.primal, name)(axis=axis), getattr(self.tangent, name)(axis=shifted))

    def sum(self, axis=None):
        return self._reduce("sum", axis)

    def mean(self, axis=None):
        return self._reduce("mean", axis)

    def __repr__(self):
        return f"DualArray(primal={self.primal!r}, tangent={self.tangent!r})"


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
    shape = tangent.shape[:1] + np.shape(primal)
    if tangent.shape != shape:
        tangent = np.broadcast_to(tangent, shape).copy()
    return DualArray(primal, tangent)


def _elementwise(partials):
    """Rule for an elementwise ufunc: ``partials(result, *primals)`` gives one
    factor per input, None standing for 1."""

    def rule(ufunc, *inputs):
        parts = [_split(x) for x in inputs]
        primals = [p for p, _ in parts]
        result = ufunc(*primals)
        ndim = np.ndim(result)
        terms = []
        for (_, tangent), factor in zip(parts, partials(result, *primals)):
            if tangent is not None:
                term = _aligned(tangent, ndim)
                terms.append(term if factor is None else term * factor)
        return _dual(result, terms)

    return rule


def _capped_ratio(c, d):
    """c / d, capped at _DERIVATIVE_CAP where d <= c / cap, as in DiffScalar."""
    limit = c / _DERIVATIVE_CAP
    return np.where(d > limit, c / np.maximum(d, limit), _DERIVATIVE_CAP)


def _arctan2_partials(result, y, x):
    with np.errstate(divide="ignore", invalid="ignore"):
        denom = y * y + x * x
        return x / denom, -y / denom


def _hypot_partials(result, a, b):
    # d sqrt(a^2 + b^2), with the capped sqrt derivative of DiffScalar.sqrt
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


_UFUNC_RULES = {
    np.add: _elementwise(lambda r, a, b: (None, None)),
    np.subtract: _elementwise(lambda r, a, b: (None, -1.0)),
    np.multiply: _elementwise(lambda r, a, b: (b, a)),
    np.negative: _elementwise(lambda r, a: (-1.0,)),
    np.sin: _elementwise(lambda r, a: (np.cos(a),)),
    np.cos: _elementwise(lambda r, a: (-np.sin(a),)),
    np.sqrt: _elementwise(lambda r, a: (_capped_ratio(0.5, r),)),
    np.arcsin: _elementwise(lambda r, a: (_arcsin_scale(a),)),
    np.arccos: _elementwise(lambda r, a: (-_arcsin_scale(a),)),
    np.arctan2: _elementwise(_arctan2_partials),
    np.hypot: _elementwise(_hypot_partials),
    np.matmul: _matmul,
}


def _where(condition, x, y):
    if isinstance(condition, DualArray):
        raise TypeError("numpy.where needs a plain boolean condition")
    (px, tx), (py, ty) = _split(x), _split(y)
    result = np.where(condition, px, py)
    ndim = result.ndim
    tx = 0.0 if tx is None else _aligned(tx, ndim)
    ty = 0.0 if ty is None else _aligned(ty, ndim)
    return _dual(result, [np.where(condition, tx, ty)])


def _stack(arrays, axis=0):
    parts = [_split(a) for a in arrays]
    ref = next(t for _, t in parts if t is not None)
    tangents = [np.zeros(ref.shape[:1] + np.shape(p), ref.dtype) if t is None else t for p, t in parts]
    primal = np.stack([p for p, _ in parts], axis=axis)
    return DualArray(primal, np.stack(tangents, axis=axis + 1 if axis >= 0 else axis))


_FUNCTIONS = {
    np.where: _where,
    np.stack: _stack,
    np.size: lambda a, axis=None: np.size(a.primal, axis),  # a shape query carries no derivative
}
