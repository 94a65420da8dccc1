import numpy as np
import pytest

from cartanweyl.errors import ShapeError
from cartanweyl.forms import (MForm, algebra_residual, block_matrix, eta_t,
                              form_comps, gcomm, wedge_plan)
from cartanweyl.grassmann import GeneratorPool, GradedScalar
from cartanweyl.jets import Jet, jmat_mul, space

M, K = 3, 4


def rand_form(rng, shape, p, q=0, order=K, pool=None, tag=""):
    out = MForm.zeros(M, shape, p, q, order, ghost=q > 0)
    if q == 0:
        out.data[:] = rng.normal(size=out.data.shape)
        return out
    for i, j, f in np.ndindex(out.gdata.shape):
        coeffs = rng.normal(size=space(M, order).size)
        out.gdata[i, j, f] = ghost_field(coeffs, order, pool, f"{tag}{i}{j}{f}")
    return out


def ghost_field(coeffs, order, pool, prefix):
    """Odd jet sum_beta theta_{prefix@beta} c_beta (unit jet at beta)."""
    terms = {}
    for i, beta in enumerate(space(M, order).monos):
        gen = pool.register(f"{prefix}@{''.join(map(str, beta))}")
        unit = np.zeros(len(coeffs))
        unit[i] = coeffs[i]
        terms[(gen.index,)] = Jet(M, unit)
    return GradedScalar(terms)


def test_wedge_antisymmetry_of_coordinate_forms():
    dx0 = MForm.zeros(M, (1, 1), 1, 0, K)
    dx0.data[0, 0, 0, 0] = 1.0
    assert dx0.wedge(dx0).full_norm() == 0.0


def test_wedge_components_antisymmetrized(rng):
    a = rand_form(rng, (1, 1), 1)
    b = rand_form(rng, (1, 1), 1)
    ab = a.wedge(b)
    # stored coefficient for (mu, nu) is a_mu b_nu - a_nu b_mu
    for f, (mu, nu) in enumerate(form_comps(M, 2)):
        want = (a.data[0, 0, mu] * 0 + np.zeros_like(ab.data[0, 0, f]))
        from cartanweyl.jets import jmul
        want = jmul(a.data[0, 0, mu], b.data[0, 0, nu], M) \
            - jmul(a.data[0, 0, nu], b.data[0, 0, mu], M)
        assert np.allclose(ab.data[0, 0, f], want, atol=1e-13)


def _wedge_per_entry(a, b):
    """Float wedge with one jet-matrix product per plan entry."""
    koszul = -1.0 if (a.p * b.q) % 2 else 1.0
    k = min(a.order, b.order)
    out = MForm.zeros(M, (a.shape[0], b.shape[1]), a.p + b.p, a.q + b.q, k)
    for f1, f2, h, sgn in zip(*wedge_plan(M, a.p, b.p)):
        out.data[:, :, h, :] += (sgn * koszul) * jmat_mul(
            a.data[:, :, f1, :], b.data[:, :, f2, :], M)
    return out


@pytest.mark.parametrize("p1", [0, 1, 2])
@pytest.mark.parametrize("p2", [0, 1, 2])
@pytest.mark.parametrize("q2", [0, 1])
def test_batched_wedge_matches_per_entry_loop(rng, p1, p2, q2):
    """One batched product plus a scatter-add equals the per-entry loop.

    At m = 3, (1, 1) and (1, 2) plans send several entries to one target and
    (2, 2) has no entries at all.
    """
    h = wedge_plan(M, p1, p2)[2]
    if p1 + p2 > M:
        assert h.size == 0
    a = rand_form(rng, (2, 3), p1)
    b = rand_form(rng, (3, 4), p2, order=K - 1)
    b.q = q2
    got = a.wedge(b)
    want = _wedge_per_entry(a, b)
    assert (got.p, got.q, got.order) == (want.p, want.q, want.order)
    assert got.data.shape == want.data.shape
    assert np.abs(got.data - want.data).max(initial=0.0) <= 1e-13


def test_wedge_plans_repeat_targets():
    for p1, p2 in ((1, 1), (1, 2), (2, 1)):
        h = wedge_plan(M, p1, p2)[2]
        assert np.unique(h).size < h.size


def test_identity_is_wedge_unit(rng):
    a = rand_form(rng, (3, 3), 1)
    eye = MForm.identity(M, 3, K)
    assert (eye.wedge(a) - a).full_norm() < 1e-14
    assert (a.wedge(eye) - a).full_norm() < 1e-14


def test_wedge_shape_mismatch():
    a = MForm.zeros(M, (2, 3), 1, 0, K)
    b = MForm.zeros(M, (2, 3), 1, 0, K)
    with pytest.raises(ShapeError):
        a.wedge(b)


def test_d_squared_vanishes(rng):
    a = rand_form(rng, (2, 2), 1)
    scale = max(1.0, a.full_norm())
    assert a.ext_d().ext_d().full_norm() / scale < 1e-12


def test_d_of_coordinate_product():
    # d(x0 dx^1) = dx^0 ^ dx^1
    a = MForm.zeros(M, (1, 1), 1, 0, K)
    a.data[0, 0, 1, :] = 0.0
    sp_ = space(M, K)
    a.data[0, 0, 1, 0] = 0.7  # x0 value at the point
    a.data[0, 0, 1, sp_.index[(1, 0, 0)]] = 1.0
    d = a.ext_d()
    f01 = list(form_comps(M, 2)).index((0, 1))
    assert d.data[0, 0, f01, 0] == 1.0
    others = [f for f in range(len(form_comps(M, 2))) if f != f01]
    assert all(np.abs(d.data[0, 0, f]).max() == 0.0 for f in others)


def test_leibniz_total_degree(rng):
    pool = GeneratorPool()
    a = rand_form(rng, (2, 2), 1, 0)
    b = rand_form(rng, (2, 2), 0, 1, pool=pool, tag="b")
    lhs = a.wedge(b).ext_d()
    sign = -1.0 if (a.p + a.q) % 2 else 1.0
    rhs = a.ext_d().wedge(b) + a.wedge(b.ext_d()).scale(sign)
    assert (lhs - rhs).full_norm() < 1e-12


def test_graded_jacobi(rng):
    pool = GeneratorPool()
    al = rand_form(rng, (2, 2), 1, 0)
    be = rand_form(rng, (2, 2), 0, 1, pool=pool, tag="be")
    ga = rand_form(rng, (2, 2), 1, 0)
    sign = -1.0 if ((al.p + al.q) * (be.p + be.q)) % 2 else 1.0
    lhs = gcomm(al, gcomm(be, ga))
    rhs = gcomm(gcomm(al, be), ga) + gcomm(be, gcomm(al, ga)).scale(sign)
    assert (lhs - rhs).full_norm() < 1e-12


def test_gcomm_odd_odd_is_anticommutator(rng):
    pool = GeneratorPool()
    a = rand_form(rng, (2, 2), 0, 1, pool=pool, tag="a")
    b = rand_form(rng, (2, 2), 0, 1, pool=pool, tag="b")
    lhs = gcomm(a, b)
    rhs = a.wedge(b) + b.wedge(a)
    assert (lhs - rhs).full_norm() == 0.0


def test_gcomm_scalar_matrix_is_central(rng):
    a = rand_form(rng, (2, 2), 1, 0)
    c = MForm.identity(M, 2, K).scale(0.7)
    assert gcomm(c, a).full_norm() < 1e-15


def test_gcomm_of_odd_with_itself(rng):
    pool = GeneratorPool()
    v = rand_form(rng, (2, 2), 0, 1, pool=pool, tag="v")
    lhs = gcomm(v, v)
    rhs = v.wedge(v).scale(2.0)
    assert (lhs - rhs).full_norm() == 0.0


# eta-transposition: frozen hand-oracle values ---------------------------------

ETA = np.array([1.0, -1.0, -1.0])


def test_eta_t_row_frozen():
    # hand oracle: r^t = (r eta^-1)^T with eta = diag(1,-1,-1)
    r = MForm.zeros(M, (1, 3), 0, 0, K)
    r.data[0, :, 0, 0] = [1.0, 2.0, 3.0]
    rt = eta_t(r, ETA)
    assert rt.shape == (3, 1)
    assert list(rt.data[:, 0, 0, 0]) == [1.0, -2.0, -3.0]


def test_eta_t_column_frozen():
    tau = MForm.zeros(M, (3, 1), 0, 0, K)
    tau.data[:, 0, 0, 0] = [1.0, 0.0, 0.0]
    tt = eta_t(tau, ETA)
    assert tt.shape == (1, 3)
    assert list(tt.data[0, :, 0, 0]) == [1.0, 0.0, 0.0]


def test_eta_t_involution(rng):
    r = rand_form(rng, (1, 3), 1)
    assert (eta_t(eta_t(r, ETA), ETA) - r).full_norm() == 0.0


# algebra residuals -------------------------------------------------------------

def test_algebra_residual_zero_element():
    X = MForm.zeros(M, (3, 3), 1, 0, K)
    assert algebra_residual(X, "so", eta=np.diag(ETA)) == 0.0


def test_algebra_residual_identity_not_so():
    X = MForm.identity(M, 3, K)
    assert algebra_residual(X, "so", eta=np.diag(ETA)) > 0.5


def test_algebra_residual_co_subtracts_trace(rng):
    # an so element plus a multiple of the identity is co-valued
    X = MForm.zeros(M, (3, 3), 0, 0, K)
    A = rng.normal(size=(3, 3))
    eta = np.diag(ETA)
    A = A - np.linalg.inv(eta) @ A.T @ eta
    X.data[:, :, 0, 0] = A + 0.8 * np.eye(3)
    assert algebra_residual(X, "co", eta=eta) < 1e-14
    assert algebra_residual(X, "so", eta=eta) > 0.1


def test_block_matrix_round_trip(rng):
    a = rand_form(rng, (1, 1), 1)
    b = rand_form(rng, (1, 2), 1)
    c = rand_form(rng, (2, 2), 1)
    bm = block_matrix([[a, b], [None, c]], M, 1, 0, K)
    assert bm.shape == (3, 3)
    assert (bm.block((0, 1), (1, 3)) - b).full_norm() == 0.0
    assert bm.block((1, 3), (0, 1)).full_norm() == 0.0


def test_algebra_residual_h_pattern(mobius3, rng):
    """Upper-triangular h-valued matrices pass; a lower block breaks it."""
    import numpy as np
    n = 5
    X = MForm.zeros(M, (n, n), 0, 0, K)
    eta = np.diag(ETA)
    L = rng.normal(size=(3, 3))
    L = L - np.linalg.inv(eta) @ L.T @ eta  # so(eta) block
    c = 0.4
    r = rng.normal(size=3)
    X.data[0, 0, 0, 0] = c
    X.data[4, 4, 0, 0] = -c
    X.data[1:4, 1:4, 0, 0] = L
    X.data[0, 1:4, 0, 0] = r
    X.data[1:4, 4, 0, 0] = (r * ETA)  # r^t with eta weights
    assert algebra_residual(X, "h", sigma=mobius3.sigma) < 1e-12
    X.data[2, 0, 0, 0] = 0.3  # a translation-sector entry
    assert algebra_residual(X, "h", sigma=mobius3.sigma) > 0.1


# hypothesis-driven versions of the algebra invariants --------------------------

from hypothesis import given, settings
from hypothesis import strategies as st


def _seeded_form(seed, shape, p, q=0, tag=""):
    r = np.random.default_rng(seed)
    pool = GeneratorPool() if q else None
    return rand_form(r, shape, p, q, pool=pool, tag=tag), pool


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6),
       p=st.integers(min_value=0, max_value=2))
def test_d_squared_property(seed, p):
    a, _ = _seeded_form(seed, (2, 2), p)
    scale = max(1.0, a.full_norm())
    assert a.ext_d().ext_d().full_norm() / scale < 1e-12


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6),
       pa=st.integers(min_value=0, max_value=1),
       qa=st.integers(min_value=0, max_value=1),
       pb=st.integers(min_value=0, max_value=1),
       qb=st.integers(min_value=0, max_value=1))
def test_leibniz_property(seed, pa, qa, pb, qb):
    r = np.random.default_rng(seed)
    pool = GeneratorPool()
    a = rand_form(r, (2, 2), pa, qa, pool=pool, tag="a")
    b = rand_form(r, (2, 2), pb, qb, pool=pool, tag="b")
    lhs = a.wedge(b).ext_d()
    sign = -1.0 if (a.p + a.q) % 2 else 1.0
    rhs = a.ext_d().wedge(b) + a.wedge(b.ext_d()).scale(sign)
    scale = max(1.0, lhs.full_norm())
    assert (lhs - rhs).full_norm() / scale < 1e-11


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6),
       degs=st.tuples(*[st.tuples(st.integers(0, 1), st.integers(0, 1))] * 3))
def test_graded_jacobi_property(seed, degs):
    r = np.random.default_rng(seed)
    pool = GeneratorPool()
    (pa, qa), (pb, qb), (pc, qc) = degs
    a = rand_form(r, (2, 2), pa, qa, pool=pool, tag="a")
    b = rand_form(r, (2, 2), pb, qb, pool=pool, tag="b")
    c = rand_form(r, (2, 2), pc, qc, pool=pool, tag="c")
    sign = -1.0 if ((a.p + a.q) * (b.p + b.q)) % 2 else 1.0
    lhs = gcomm(a, gcomm(b, c))
    rhs = gcomm(gcomm(a, b), c) + gcomm(b, gcomm(a, c)).scale(sign)
    scale = max(1.0, lhs.full_norm(), rhs.full_norm())
    assert (lhs - rhs).full_norm() / scale < 1e-11
