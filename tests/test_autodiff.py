import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diffkin import autodiff as ad


def fd(f, x, h=1e-7):
    return (f(x + h) - f(x - h)) / (2 * h)


def seeded(x):
    """x as a one-element DualArray seeded as the single input."""
    return ad.seed_array(np.array([float(x)]))


def deriv(f, x):
    return f(seeded(x)).tangent[0, 0]


@pytest.mark.parametrize(
    "f",
    [
        lambda v: v * v + 3.0 * v - 1.0,
        lambda v: 1.0 / (v + 2.0),
        lambda v: np.sin(v) * np.cos(2.0 * v),
        lambda v: np.sqrt(v * v + 1.0),
        lambda v: v * v * v,
        lambda v: np.arctan2(v, 1.5),
        lambda v: np.arctan2(0.7, v),
        lambda v: np.arccos(v * 0.5),
        lambda v: np.arcsin(v * 0.5),
    ],
)
def test_derivative_matches_finite_difference(f):
    for x in (-0.9, -0.3, 0.1, 0.8, 1.4):
        want = fd(f, x)
        assert deriv(f, x) == pytest.approx(want, rel=1e-6, abs=1e-9)


def test_constant_mixing():
    a = seeded(2.0)
    y = 3.0 + a * 2.0 - 1.0
    assert y.primal[0] == 6.0
    assert y.tangent[0, 0] == 2.0
    z = 5.0 / a
    assert z.tangent[0, 0] == pytest.approx(-5.0 / 4.0)
    w = 2.0 - a
    assert w.tangent[0, 0] == -1.0


def test_abs_min_max_branch_conventions():
    a = seeded(0.0)
    # abs at the kink follows the positive branch
    assert np.abs(a).tangent[0, 0] == 1.0
    assert np.absolute(a).tangent[0, 0] == 1.0
    a2, b = ad.DualArray(np.array([0.0]), np.eye(2)[:, :1]), ad.DualArray(np.array([0.0]), np.eye(2)[::-1, :1])
    # ties resolve to the first argument
    np.testing.assert_array_equal(np.minimum(a2, b).tangent[:, 0], [1.0, 0.0])
    np.testing.assert_array_equal(np.maximum(a2, b).tangent[:, 0], [1.0, 0.0])
    assert np.minimum(seeded(1.0), 2.0).primal[0] == 1.0
    assert np.maximum(seeded(1.0), 2.0).primal[0] == 2.0
    assert np.maximum(seeded(1.0), 2.0).tangent[0, 0] == 0.0


def test_capped_one_sided_derivatives():
    # arccos/arcsin diverge at |u| = 1 and sqrt at 0; the implementation
    # caps the magnitude so downstream optimization stays finite
    g = deriv(np.arccos, 1.0)
    assert np.isfinite(g) and abs(g) >= 1e7
    g = deriv(np.sqrt, 0.0)
    assert np.isfinite(g) and g >= 1e7


def test_jacobian_analytic():
    def f(v):
        x, y = v[:, 0], v[:, 1]
        return np.stack([x * y, np.sin(x), x + 3.0 * y], axis=-1)

    jac = ad.batch_jacobian(f, [[0.5, 2.0]])
    expected = np.array([[2.0, 0.5], [math.cos(0.5), 0.0], [1.0, 3.0]])
    np.testing.assert_allclose(jac[0], expected, atol=1e-12)


def test_jacobian_rejects_nonfinite():
    with pytest.raises(ValueError, match="non-finite value"):
        ad.batch_jacobian(lambda v: v * math.inf, [[1.0]])
    # atan2(0, 0) is finite, its partials are 0/0
    with pytest.raises(ValueError, match="non-finite derivative"):
        ad.batch_jacobian(lambda v: np.arctan2(v - 1.0, v - 1.0), [[1.0]])


def test_batch_jacobian_matches_per_config():
    def f(v):
        x, y = v[:, 0], v[:, 1]
        return np.stack([x * y, x + y, np.cos(y)], axis=-1)

    thetas = np.array([0.2, 1.0, -0.4, 0.3, 2.0, -1.0]).reshape(3, 2)
    jacs = ad.batch_jacobian(f, thetas)
    assert jacs.shape == (3, 3, 2)
    for k in range(3):
        single = ad.batch_jacobian(f, thetas[k : k + 1])[0]
        np.testing.assert_allclose(jacs[k], single, atol=1e-12)


def test_batch_jacobian_validation():
    with pytest.raises(ValueError, match="batch"):
        ad.batch_jacobian(lambda v: v, [1.0, 2.0, 3.0])
    out = ad.batch_jacobian(lambda v: np.stack([v.sum(axis=-1) + 1.0], axis=-1), np.zeros((2, 0)))
    assert out.shape == (2, 1, 0)


@settings(max_examples=80, deadline=None)
@given(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0))
def test_chain_rule_property(x, y):
    def f(v):
        a, b = v[:, 0], v[:, 1]
        return np.stack([np.sin(a * b) + np.sqrt(a * a + b * b + 1.0)], axis=-1)

    jac = ad.batch_jacobian(f, [[x, y]])[0]
    s = math.hypot(x, y)
    dx = math.cos(x * y) * y + x / math.sqrt(s * s + 1.0)
    dy = math.cos(x * y) * x + y / math.sqrt(s * s + 1.0)
    np.testing.assert_allclose(jac[0], [dx, dy], atol=1e-10)


# -- DualArray ----------------------------------------------------------------


CAP = ad._DERIVATIVE_CAP


def _seeded_pair(xs, ys):
    """x and y as DualArrays with tangents d/dx, d/dy, and as float arrays."""
    xs, ys = np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)
    zero, one = np.zeros_like(xs), np.ones_like(xs)
    return ad.DualArray(xs, np.stack([one, zero])), ad.DualArray(ys, np.stack([zero, one])), xs, ys


def _assert_dual_matches(got, primal, tangent):
    np.testing.assert_allclose(got.primal, primal, rtol=1e-14, atol=1e-300)
    np.testing.assert_allclose(got.tangent, tangent, rtol=1e-12, atol=1e-12)


XS = [0.3, -0.7, 1.3, 0.0]
YS = [0.5, 0.2, -0.4, 1.1]


@pytest.mark.parametrize(
    "fn, partials, xs, ys",
    [
        (lambda a, b: a * b + a - b * 2.0 - (-a), lambda x, y: (y + 2.0, x - 2.0), XS, YS),
        (lambda a, b: np.sin(a) * np.cos(b), lambda x, y: (np.cos(x) * np.cos(y), -np.sin(x) * np.sin(y)), XS, YS),
        (np.arctan2, lambda x, y: (y / (x * x + y * y), -x / (x * x + y * y)), XS, YS),
        (lambda a, b: a / b, lambda x, y: (1.0 / y, -x / (y * y)), XS, YS),
        # sqrt and hypot at zero, or within 0.5 / CAP of it, take the capped
        # derivative: d sqrt(u) = CAP du, and d hypot = 2 CAP (a da + b db)
        (lambda a, b: np.sqrt(a) * b, lambda x, y: (y * [CAP, CAP, 1.0, 0.25], np.sqrt(x)), [0.0, 1e-20, 0.25, 4.0], YS),
        (np.hypot, lambda x, y: ([0.0, 2e-20 * CAP, 0.6, -2.0 / 5**0.5], [0.0, 0.0, 0.8, 1.0 / 5**0.5]),
         [0.0, 1e-20, 0.3, -2.0], [0.0, 0.0, 0.4, 1.0]),
        # arcsin/arccos at +-1 likewise: d arcsin(u) = CAP du
        (lambda a, b: np.arcsin(a) + np.arccos(b),
         lambda x, y: ([CAP, 1.0 / 0.75**0.5, 1.0, CAP], [-CAP, -1.0 / 0.75**0.5, -CAP, -1.0 / 0.96**0.5]),
         [-1.0, -0.5, 0.0, 1.0], [1.0, 0.5, -1.0, 0.2]),
        # |u| at its kink takes +1; min/max on a tie take the first argument
        (lambda a, b: np.abs(a) + np.minimum(a, b) * 3.0 + np.maximum(b, a),
         lambda x, y: ([1.0 + 3.0, -1.0 + 3.0, 1.0 + 3.0, 1.0 + 1.0], [1.0, 1.0, 1.0, 3.0]),
         [0.0, -0.7, 0.5, 0.9], [0.0, 0.2, 0.5, 0.3]),
    ],
)
def test_dual_array_elementwise_matches_closed_form(fn, partials, xs, ys):
    x, y, px, py = _seeded_pair(xs, ys)
    _assert_dual_matches(fn(x, y), fn(px, py), np.stack([np.broadcast_to(p, px.shape) for p in partials(px, py)]))


def test_dual_array_structural_ops_match_central_differences(rng):
    a = ad.DualArray(rng.normal(size=(2, 3, 3)), rng.normal(size=(4, 2, 3, 3)))
    b = ad.DualArray(rng.normal(size=(3, 3)), rng.normal(size=(4, 3, 3)))
    c = rng.normal(size=(2, 3, 3))
    cond = rng.random((2, 3, 3)) < 0.5
    idx = rng.integers(0, 3, size=(2, 1, 3))

    def f(x, y):
        z = x @ y + c @ y - np.swapaxes(x, -1, -2) @ c
        w = np.where(cond, z, 0.5)
        s = np.stack([w[:, 0], x[:, 1, :], c[:, 2]], axis=-1)
        out = np.zeros((2, 3, 3), dtype=s.dtype, like=s)
        out[...] = s
        out[1, :, 0] = y[0, 0]
        picked = np.take_along_axis(out, idx, axis=1)[:, 0]
        return (out * out).sum(axis=(0, 2)) + out.mean(axis=1)[0] + (picked * w[:, 2]).sum(axis=0, keepdims=True)[0]

    # f is a polynomial of degree 4 in (x, y), so the five-point central
    # difference is its exact directional derivative, up to rounding
    def along(j, h):
        return f(a.primal + h * a.tangent[j], b.primal + h * b.tangent[j])

    cd = [(8.0 * (along(j, 1.0) - along(j, -1.0)) - along(j, 2.0) + along(j, -2.0)) / 12.0 for j in range(4)]
    _assert_dual_matches(f(a, b), f(a.primal, b.primal), np.stack(cd))


def test_dual_array_refuses_to_drop_tangents():
    x = ad.seed_array(np.array([0.3, 0.4]))
    plain = np.zeros(2)
    refused = [
        lambda: np.asarray(x),
        lambda: np.exp(x),
        lambda: np.isfinite(x),
        lambda: np.add.reduce(x),
        lambda: np.add(x, x, where=True),
        lambda: np.concatenate([x, x]),
        lambda: np.linalg.norm(x),
        lambda: x == x,
        lambda: plain.__setitem__(slice(None), x),
    ]
    for op in refused:
        with pytest.raises(TypeError):
            op()
    with pytest.raises(ValueError, match="widths"):
        ad.DualArray.from_scalars([ad.DiffScalar(1.0, np.ones(2)), ad.DiffScalar(2.0, np.ones(3))])


def test_seed_array_shares_one_tangent_space():
    x = ad.seed_array(np.arange(6.0).reshape(2, 3))
    assert x.width == 3 and x.tangent.shape == (3, 2, 3)
    for j in range(3):
        want = np.zeros((2, 3))
        want[:, j] = 1.0
        np.testing.assert_array_equal(x.tangent[j], want)


def _assert_same_dual(got, want):
    """Bitwise equality of two DualArrays, signed zeros included."""
    for g, w in ((got.primal, want.primal), (got.tangent, want.tangent)):
        g, w = np.asarray(g), np.asarray(w)
        assert g.dtype == w.dtype and g.shape == w.shape
        np.testing.assert_array_equal(g.reshape(-1).view(np.uint8), w.reshape(-1).view(np.uint8))


_OPERATOR_CASES = [
    (lambda a, b: a + b, np.add),
    (lambda a, b: a - b, np.subtract),
    (lambda a, b: a * b, np.multiply),
    (lambda a, b: a / b, np.divide),
    (lambda a, b: a @ b, np.matmul),
]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("op, ufunc", _OPERATOR_CASES)
def test_direct_operators_match_ufunc_dispatch(op, ufunc, dtype):
    """``+ - * / @`` and unary ``-`` bypass __array_ufunc__ and give the
    bits of ``np.<ufunc>`` through it: DualArray with DualArray, with an
    ndarray and with a python scalar, on either side."""
    rng = np.random.default_rng(3)

    def dual(shape):
        return ad.DualArray(rng.normal(size=shape).astype(dtype), rng.normal(size=(3,) + shape).astype(dtype))

    a, b, plain = dual((2, 3, 3)), dual((3, 3)), rng.normal(size=(2, 3, 3)).astype(dtype) + 2.0
    pairs = [(a, b), (b, a), (a, plain), (plain, a)]
    if ufunc is not np.matmul:
        pairs += [(a, 1.5), (1.5, a), (a, 3), (-2, a)]
    for x, y in pairs:
        _assert_same_dual(op(x, y), ufunc(x, y))
    _assert_same_dual(-a, np.negative(a))
    if ufunc is np.matmul:
        for x, y in ((a, 1.5), (1.5, a)):
            with pytest.raises(TypeError):
                op(x, y)


def test_direct_operators_skip_array_ufunc(monkeypatch):
    """With the ufunc route shut, the direct operators still work, the
    reflected ones included; an unsupported operator still raises."""
    a = ad.seed_array(np.array([[0.3, 0.4], [0.5, 0.6]]))
    want = [a + a, a - 2.0, 2.0 - a, a * a, 3.0 * a, a / 2.0, 1.0 / a, a @ a, -a]

    def shut(*args, **kwargs):
        raise AssertionError("went through __array_ufunc__")

    monkeypatch.setattr(ad.DualArray, "__array_ufunc__", shut)
    got = [a + a, a - 2.0, 2.0 - a, a * a, 3.0 * a, a / 2.0, 1.0 / a, a @ a, -a]
    for g, w in zip(got, want):
        _assert_same_dual(g, w)
    monkeypatch.undo()
    for op in (lambda: a < a, lambda: a**2, lambda: a // 2.0, lambda: a % 2.0, lambda: 2.0**a):
        with pytest.raises(TypeError):
            op()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("axis", [None, 0, -1, (0, 2), (-1, -2)])
@pytest.mark.parametrize("keepdims", [False, True])
def test_sum_and_mean_match_ndarray_methods(axis, keepdims, dtype):
    """sum and mean reduce with np.add.reduce, with the bits of ndarray.sum
    and ndarray.mean on the primal and on the tangent's matching axes."""
    rng = np.random.default_rng(5)
    x = ad.DualArray(rng.normal(size=(4, 5, 6)).astype(dtype), rng.normal(size=(3, 4, 5, 6)).astype(dtype))
    axes = range(3) if axis is None else (axis if isinstance(axis, tuple) else (axis,))
    shifted = tuple(a % 3 + 1 for a in axes)
    for name in ("sum", "mean"):
        got = getattr(x, name)(axis=axis, keepdims=keepdims)
        want = ad.DualArray(
            getattr(x.primal, name)(axis=axis, keepdims=keepdims),
            getattr(x.tangent, name)(axis=shifted, keepdims=keepdims),
        )
        _assert_same_dual(got, want)
