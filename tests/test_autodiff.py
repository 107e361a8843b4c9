import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diffkin import autodiff as ad


def fd(f, x, h=1e-7):
    return (f(x + h) - f(x - h)) / (2 * h)


def seeded(x):
    return ad.lift(x, seed_index=0, num_inputs=1)


def deriv(f, x):
    return ad.tangent_of(f(seeded(x)), 1)[0]


@pytest.mark.parametrize(
    "f",
    [
        lambda v: v * v + 3.0 * v - 1.0,
        lambda v: 1.0 / (v + 2.0),
        lambda v: ad.sin(v) * ad.cos(2.0 * v),
        lambda v: ad.sqrt(v * v + 1.0),
        lambda v: v**3,
        lambda v: ad.atan2(v, 1.5),
        lambda v: ad.atan2(0.7, v),
        lambda v: ad.acos(v * 0.5),
        lambda v: ad.asin(v * 0.5),
    ],
)
def test_derivative_matches_finite_difference(f):
    for x in (-0.9, -0.3, 0.1, 0.8, 1.4):
        want = fd(lambda t: ad.value_of(f(ad.lift(t))), x)
        assert deriv(f, x) == pytest.approx(want, rel=1e-6, abs=1e-9)


def test_constant_mixing():
    a = seeded(2.0)
    y = 3.0 + a * 2.0 - 1.0
    assert ad.value_of(y) == 6.0
    assert ad.tangent_of(y, 1)[0] == 2.0
    z = 5.0 / a
    assert ad.tangent_of(z, 1)[0] == pytest.approx(-5.0 / 4.0)
    w = 2.0 - a
    assert ad.tangent_of(w, 1)[0] == -1.0


def test_abs_min_max_branch_conventions():
    a = seeded(0.0)
    # abs at the kink follows the positive branch
    assert ad.tangent_of(abs(a), 1)[0] == 1.0
    assert ad.tangent_of(ad.absolute(a), 1)[0] == 1.0
    b = ad.lift(0.0, seed_index=1, num_inputs=2)
    a2 = ad.lift(0.0, seed_index=0, num_inputs=2)
    # ties resolve to the first argument
    m = ad.minimum(a2, b)
    np.testing.assert_array_equal(ad.tangent_of(m, 2), [1.0, 0.0])
    m = ad.maximum(a2, b)
    np.testing.assert_array_equal(ad.tangent_of(m, 2), [1.0, 0.0])
    assert ad.value_of(ad.minimum(ad.lift(1.0), 2.0)) == 1.0
    assert ad.value_of(ad.maximum(1.0, 2.0)) == 2.0


def test_comparisons_use_primal_values():
    a = ad.DiffScalar(1.0, np.array([5.0]))
    b = ad.DiffScalar(2.0, np.array([-5.0]))
    assert a < b and b > a and a <= b and b >= a
    assert a == ad.DiffScalar(1.0, np.array([99.0]))
    assert a != b


def test_capped_one_sided_derivatives():
    # acos/asin diverge at |u| = 1 and sqrt at 0; the implementation caps
    # the magnitude so downstream optimization stays finite
    g = ad.tangent_of(ad.acos(seeded(1.0)), 1)[0]
    assert np.isfinite(g) and abs(g) >= 1e7
    g = ad.tangent_of(ad.sqrt(seeded(0.0)), 1)[0]
    assert np.isfinite(g) and g >= 1e7


def test_numpy_ufunc_dispatch_on_object_arrays():
    arr = np.array(ad.seed_vector([0.3, 1.1]), dtype=object)
    out = np.sin(arr)
    assert isinstance(out[0], ad.DiffScalar)
    assert ad.value_of(out[0]) == pytest.approx(math.sin(0.3))
    np.testing.assert_allclose(ad.tangent_of(out[1], 2), [0.0, math.cos(1.1)])
    total = arr.sum()
    np.testing.assert_allclose(ad.tangent_of(total, 2), [1.0, 1.0])


def test_seed_vector_and_lift_validation():
    vals = ad.seed_vector([4.0, 5.0, 6.0])
    assert [ad.value_of(v) for v in vals] == [4.0, 5.0, 6.0]
    for j, v in enumerate(vals):
        expect = np.zeros(3)
        expect[j] = 1.0
        np.testing.assert_array_equal(ad.tangent_of(v, 3), expect)
    with pytest.raises(ValueError):
        ad.lift(1.0, seed_index=0)
    with pytest.raises(IndexError):
        ad.lift(1.0, seed_index=3, num_inputs=3)


def test_jacobian_analytic():
    def f(v):
        x, y = v
        return [x * y, ad.sin(x), x + 3.0 * y]

    jac = ad.jacobian(f, [0.5, 2.0])
    expected = np.array([[2.0, 0.5], [math.cos(0.5), 0.0], [1.0, 3.0]])
    np.testing.assert_allclose(jac, expected, atol=1e-12)


def test_jacobian_rejects_nonfinite():
    def f(v):
        return [ad.DiffScalar(math.inf, np.zeros(1))]

    with pytest.raises(ValueError, match="non-finite"):
        ad.jacobian(f, [1.0])


def test_batch_jacobian_matches_per_config():
    def f(flat):
        out = []
        for k in range(0, len(flat), 2):
            x, y = flat[k], flat[k + 1]
            out.append([x * y, x + y, ad.cos(y)])
        return out

    thetas = np.array([0.2, 1.0, -0.4, 0.3, 2.0, -1.0])
    jacs = ad.batch_jacobian(f, thetas, dof=2)
    assert len(jacs) == 3
    for k in range(3):
        single = ad.jacobian(lambda v: f(list(v)), thetas[2 * k : 2 * k + 2])
        np.testing.assert_allclose(jacs[k], single, atol=1e-12)


def test_batch_jacobian_validation():
    with pytest.raises(ValueError, match="multiple"):
        ad.batch_jacobian(lambda v: [], [1.0, 2.0, 3.0], dof=2)
    with pytest.raises(ValueError, match="batch_size"):
        ad.batch_jacobian(lambda v: [], [], dof=0)
    out = ad.batch_jacobian(lambda v: [[1.0], [2.0]], [], dof=0, batch_size=2)
    assert len(out) == 2 and out[0].shape == (1, 0)


@settings(max_examples=80, deadline=None)
@given(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0))
def test_chain_rule_property(x, y):
    def f(v):
        return ad.sin(v[0] * v[1]) + ad.sqrt(v[0] * v[0] + v[1] * v[1] + 1.0)

    jac = ad.jacobian(lambda v: [f(v)], [x, y])
    s = math.hypot(x, y)
    dx = math.cos(x * y) * y + x / math.sqrt(s * s + 1.0)
    dy = math.cos(x * y) * x + y / math.sqrt(s * s + 1.0)
    np.testing.assert_allclose(jac[0], [dx, dy], atol=1e-10)


def test_hash_disabled():
    with pytest.raises(TypeError):
        hash(ad.DiffScalar(1.0, np.zeros(1)))


# -- DualArray ----------------------------------------------------------------


def _seeded_pair(xs, ys):
    """x and y as DualArrays with tangents d/dx, d/dy, and as DiffScalar arrays."""
    xs, ys = np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)
    zero, one = np.zeros_like(xs), np.ones_like(xs)
    x = ad.DualArray(xs, np.stack([one, zero]))
    y = ad.DualArray(ys, np.stack([zero, one]))
    return x, y, x.to_scalars(), y.to_scalars()


def _assert_dual_matches(got, scalars):
    want = ad.DualArray.from_scalars(scalars)
    np.testing.assert_allclose(got.primal, want.primal, rtol=1e-14, atol=1e-300)
    np.testing.assert_allclose(got.tangent, want.tangent, rtol=1e-12, atol=1e-12)


XS = [0.3, -0.7, 1.3, 0.0]
YS = [0.5, 0.2, -0.4, 1.1]


@pytest.mark.parametrize(
    "dual_fn, scalar_fn, xs, ys",
    [
        (lambda a, b: a * b + a - b * 2.0 - (-a), None, XS, YS),
        (lambda a, b: np.sin(a) * np.cos(b), None, XS, YS),
        (lambda a, b: np.arctan2(a, b), None, XS, YS),
        # sqrt and hypot at zero take DiffScalar.sqrt's capped derivative
        (lambda a, b: np.sqrt(a) * b, None, [0.0, 1e-20, 0.25, 4.0], YS),
        (np.hypot, lambda a, b: np.sqrt(a * a + b * b), [0.0, 1e-20, 0.3, -2.0], [0.0, 0.0, 0.4, 1.0]),
        # arcsin/arccos at +-1 likewise
        (lambda a, b: np.arcsin(a) + np.arccos(b), None, [-1.0, -0.5, 0.0, 1.0], [1.0, 0.5, -1.0, 0.2]),
    ],
)
def test_dual_array_elementwise_matches_diffscalar(dual_fn, scalar_fn, xs, ys):
    x, y, sx, sy = _seeded_pair(xs, ys)
    _assert_dual_matches(dual_fn(x, y), (scalar_fn or dual_fn)(sx, sy))


def test_dual_array_structural_ops_match_diffscalar(rng):
    a = ad.DualArray(rng.normal(size=(2, 3, 3)), rng.normal(size=(4, 2, 3, 3)))
    b = ad.DualArray(rng.normal(size=(3, 3)), rng.normal(size=(4, 3, 3)))
    c = rng.normal(size=(2, 3, 3))
    cond = rng.random((2, 3, 3)) < 0.5

    def f(x, y):
        z = x @ y + c @ y - x @ c
        w = np.where(cond, z, 0.5)
        s = np.stack([w[:, 0], x[:, 1, :], c[:, 2]], axis=-1)
        out = np.zeros((2, 3, 3), dtype=s.dtype, like=s)
        out[...] = s
        out[1, :, 0] = y[0, 0]
        return (out * out).sum(axis=(0, 2)) + out.mean(axis=1)[0]

    _assert_dual_matches(f(a, b), f(a.to_scalars(), b.to_scalars()))


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
        lambda: x / 2.0,
        lambda: x == x,
        lambda: plain.__setitem__(slice(None), x),
    ]
    for op in refused:
        with pytest.raises(TypeError):
            op()
    with pytest.raises(ValueError, match="widths"):
        ad.DualArray.from_scalars([ad.lift(1.0, 0, 2), ad.lift(2.0, 0, 3)])


def test_seed_array_shares_one_tangent_space():
    x = ad.seed_array(np.arange(6.0).reshape(2, 3))
    assert x.width == 3 and x.tangent.shape == (3, 2, 3)
    for j in range(3):
        want = np.zeros((2, 3))
        want[:, j] = 1.0
        np.testing.assert_array_equal(x.tangent[j], want)
