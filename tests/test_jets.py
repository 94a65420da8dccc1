import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cartanweyl.errors import JetOrderError
from cartanweyl.exprs import compile_expr, eval_jets
from cartanweyl.forms import MForm
from cartanweyl.jets import (Chart, jder, jmat_inv, jmat_mul, jmul, jrecip,
                             jtrunc, order_of, space)


def test_chart_defaults():
    ch = Chart(4)
    assert ch.signature == (1, -1, -1, -1)
    assert ch.names == ("x0", "x1", "x2", "x3")


def test_chart_rejects_bad_signature():
    with pytest.raises(ValueError):
        Chart(3, signature=(1, 2, -1))


def _jet(text, ch, point, order):
    """The (C,) jet of ``text`` at ``point``, its polynomials folded."""
    return eval_jets([compile_expr(text)], ch, point, order)[0]


def test_exact_polynomial_reproduction():
    """A K-th order integer polynomial is reproduced bit-exactly at order K."""
    ch = Chart(2, signature=(1, -1))
    sp_ = space(2, 3)
    j = _jet("7*x0^2*x1 - 3*x0*x1 + 11", ch, (2.0, 3.0), 3) * sp_.factorials
    ders = dict(zip(sp_.monos, j.tolist()))
    # d0 d0 d1 of 7 x0^2 x1 is exactly 14
    assert ders[(2, 1)] == 14.0
    assert ders[(1, 1)] == 7.0 * 2 * 2.0 - 3.0
    assert ders[(0, 0)] == 7.0 * 4 * 3.0 - 3.0 * 6.0 + 11.0
    assert all(float(v).is_integer() for v in ders.values())


def test_order_truncation_and_exhaustion():
    ch = Chart(2, signature=(1, -1))
    j = _jet("x0^4", ch, (1.0, 0.0), 4)
    j2 = jtrunc(j, 2, 1)
    assert order_of(2, j2) == 1
    d = jder(j2, 2, 0)
    assert order_of(2, d) == 0
    with pytest.raises(JetOrderError):
        jder(d, 2, 0)


def test_truncation_below_order_zero_raises():
    """An order-0 jet has nothing below it: jtrunc(a, m, -1) raises instead of
    returning an empty coefficient axis."""
    a = np.ones((2, space(3, 2).size))
    assert jtrunc(a, 3, 0).shape == (2, 1)
    for bad in (-1, 3):
        with pytest.raises(JetOrderError):
            jtrunc(a, 3, bad)
    with pytest.raises(JetOrderError):
        jtrunc(a[0, :1], 3, -1)
    with pytest.raises(JetOrderError):
        MForm.zeros(3, (2, 2), 1, 0, 0).truncate(-1)


def test_mixed_order_product_takes_min():
    ch = Chart(2, signature=(1, -1))
    a = _jet("x0^2 + x1", ch, (1.0, 2.0), 4)
    b = _jet("x0 - x1^2", ch, (1.0, 2.0), 2)
    assert order_of(2, jmul(a, b, 2)) == 2


def test_recip_is_exact_inverse():
    ch = Chart(2, signature=(1, -1))
    a = _jet("2 + x0*x1 - x1^2/3", ch, (0.4, -0.8), 4)
    one = jmul(a, jrecip(a, 2), 2)
    want = np.zeros_like(one)
    want[0] = 1.0
    assert np.abs(one - want).max() < 1e-14


def _ref_mat_mul(A, B, m):
    """Entrywise jet-matrix product: out[i, j] = sum_t jmul(A[i, t], B[t, j])."""
    out = np.zeros((A.shape[0], B.shape[1],
                    space(m, order_of(m, min(A.shape[-1], B.shape[-1]))).size))
    for i in range(A.shape[0]):
        for j in range(B.shape[1]):
            for t in range(A.shape[1]):
                out[i, j] += jmul(A[i, t], B[t, j], m)
    return out


def _newton_inv(E, m):
    """Oracle inverse of one (n, n, C) matrix: Newton sweeps X <- X(2I - EX)."""
    order = order_of(m, E)
    X = np.zeros_like(E)
    X[..., 0] = np.linalg.inv(E[..., 0])
    eye2 = np.zeros_like(E)
    eye2[..., 0] = 2.0 * np.eye(E.shape[0])
    for _ in range(max(1, math.ceil(math.log2(order + 1))) + 1):
        X = _ref_mat_mul(X, eye2 - _ref_mat_mul(E, X, m), m)
    return X


def _rand_invertible(rng, lead, n, m, order):
    E = 0.5 * rng.normal(size=lead + (n, n, space(m, order).size))
    E[..., 0] += 3.0 * np.eye(n)
    return E


def test_matrix_inverse_random(rng):
    m, K = 3, 4
    sp_ = space(m, K)
    E = rng.normal(size=(4, 4, sp_.size))
    E[..., 0] += 5.0 * np.eye(4)
    X = jmat_inv(E, m)
    I = jmat_mul(E, X, m)
    expect = np.zeros_like(I)
    for i in range(4):
        expect[i, i, 0] = 1.0
    assert np.abs(I - expect).max() < 1e-12


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("order", [0, 1, 2, 3, 4, 5, 6])
def test_matrix_inverse_two_sided_against_newton(m, order):
    """E X = X E = I to rounding; X equals the Newton oracle, batched or not."""
    rng = np.random.default_rng(1000 * m + order)
    n = 3
    E = _rand_invertible(rng, (2,), n, m, order)
    X = jmat_inv(E, m)
    assert X.shape == E.shape
    eye = np.zeros(E.shape[1:])
    eye[..., 0] = np.eye(n)
    for b in range(2):
        ref = _newton_inv(E[b], m)
        scale = max(1.0, np.abs(ref).max())
        assert np.abs(X[b] - ref).max() <= 1e-13 * scale
        assert np.abs(jmat_inv(E[b], m) - X[b]).max() <= 1e-14 * scale
        assert np.abs(_ref_mat_mul(E[b], X[b], m) - eye).max() <= 1e-13 * scale
        assert np.abs(_ref_mat_mul(X[b], E[b], m) - eye).max() <= 1e-13 * scale


def test_matrix_product_broadcasts_and_mixes_orders(rng):
    """Leading axes broadcast; the product takes the lower order of the two."""
    m = 3
    A = rng.normal(size=(2, 3, 4, 5, space(m, 4).size))
    B = rng.normal(size=(3, 5, 2, space(m, 2).size))
    out = jmat_mul(A, B, m)
    assert out.shape == (2, 3, 4, 2, space(m, 2).size)
    for i in range(2):
        for j in range(3):
            assert np.abs(out[i, j] - jmat_mul(A[i, j], B[j], m)).max() < 1e-13
            assert np.abs(out[i, j] - _ref_mat_mul(A[i, j], B[j], m)).max() < 1e-13
    # the higher-order factor on the right trims the same way
    swapped = jmat_mul(B[0].swapaxes(0, 1), A[0, 0].swapaxes(0, 1), m)
    assert np.abs(swapped - out[0, 0].swapaxes(0, 1)).max() < 1e-13


@pytest.mark.parametrize("m", [3, 4, 5])
@pytest.mark.parametrize("order", [1, 2, 3, 4, 5, 6])
def test_truncating_operands_first_is_bitwise_exact(m, order):
    """Truncate-then-multiply equals multiply-then-truncate bit for bit, for
    every lower order k: a degree-d coefficient sums the same table pairs in
    the same order at every order >= d.  Leading axes are batched."""
    rng = np.random.default_rng(100 * m + order)
    C = space(m, order).size
    a = rng.normal(size=(2, 3, C))
    b = rng.normal(size=(3, C))
    A = rng.normal(size=(2, 3, 4, C))
    B = rng.normal(size=(4, 2, C))
    E = _rand_invertible(rng, (2,), 3, m, order)
    full = (jmul(a, b, m), jmat_mul(A, B, m), jmat_inv(E, m))
    for k in range(order):
        a_k, b_k, A_k, B_k, E_k = (jtrunc(x, m, k) for x in (a, b, A, B, E))
        low = (jmul(a_k, b_k, m), jmat_mul(A_k, B_k, m), jmat_inv(E_k, m))
        for f, l in zip(full, low):
            assert np.array_equal(jtrunc(f, m, k), l)
    # with one operand already lower, only the other one is trimmed
    assert np.array_equal(jmul(a, jtrunc(b, m, order - 1), m),
                          jtrunc(full[0], m, order - 1))


def test_order_of_round_trip():
    for m in (2, 3, 4, 5):
        for k in range(5):
            assert order_of(m, space(m, k).size) == k


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_jmul_commutative_and_associative(data):
    m, K = 2, 3
    n = space(m, K).size
    f = st.lists(st.floats(min_value=-2, max_value=2), min_size=n, max_size=n)
    a = np.array(data.draw(f))
    b = np.array(data.draw(f))
    c = np.array(data.draw(f))
    ab = jmul(a, b, m)
    assert np.allclose(ab, jmul(b, a, m), atol=1e-12)
    assert np.allclose(jmul(ab, c, m), jmul(a, jmul(b, c, m), m), atol=1e-11)
