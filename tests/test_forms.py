import numpy as np
import pytest

from cartanweyl.errors import ShapeError
from cartanweyl.forms import (GHOST_POOL, MForm, algebra_residual, block_matrix,
                              d_plan, eta_t, form_comps, gcomm, ghost_monos, wedge_plan)
from cartanweyl.grassmann import GradedScalar
from cartanweyl.jets import Jet, jmat_mul, space

M, K = 3, 4


def rand_form(rng, shape, p, q=0, order=K):
    """Random (p, q) form; a ghost entry is a dense random jet on every
    degree-q monomial of the generators range(GHOST_POOL)."""
    if q == 0:
        out = MForm.zeros(M, shape, p, q, order)
        out.data[:] = rng.normal(size=out.data.shape)
        return out
    size = space(M, order).size
    entries = {idx: GradedScalar({g: Jet(M, rng.normal(size=size)) for g in ghost_monos(q)})
               for idx in np.ndindex(shape + (len(form_comps(M, p)),))}
    return MForm.from_entries(M, shape, p, q, order, entries)


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
    """Wedge with one jet-matrix product per plan entry."""
    k = min(a.order, b.order)
    out = MForm.zeros(M, (a.shape[0], b.shape[1]), a.p + b.p, a.q + b.q, k)
    for f1, f2, h, sgn in zip(*wedge_plan(M, a.p, a.q, b.p, b.q)):
        out.data[:, :, h, :] += sgn * jmat_mul(a.data[:, :, f1, :], b.data[:, :, f2, :], M)
    return out


@pytest.mark.parametrize("p1", [0, 1, 2])
@pytest.mark.parametrize("p2", [0, 1, 2])
@pytest.mark.parametrize("q2", [0, 1])
def test_batched_wedge_matches_per_entry_loop(rng, p1, p2, q2):
    """One batched product plus a scatter-add equals the per-entry loop.

    At m = 3, (1, 1) and (1, 2) plans send several entries to one target and
    (2, 2) has no entries at all; a ghost right factor adds ghost components.
    """
    h = wedge_plan(M, p1, 0, p2, q2)[2]
    if p1 + p2 > M:
        assert h.size == 0
    a = rand_form(rng, (2, 3), p1)
    b = rand_form(rng, (3, 4), p2, q2, order=K - 1)
    got = a.wedge(b)
    want = _wedge_per_entry(a, b)
    assert (got.p, got.q, got.order) == (want.p, want.q, want.order)
    assert got.data.shape == want.data.shape
    assert np.abs(got.data - want.data).max(initial=0.0) <= 1e-13


@pytest.mark.parametrize("m", [3, 4, 5])
@pytest.mark.parametrize("order", [2, 4, 6])
def test_wedge_of_truncated_factors_is_bitwise_exact(m, order):
    """Truncating both factors to k and wedging equals wedging and then
    truncating, bit for bit, at every k below the factors' order."""
    rng = np.random.default_rng(10 * m + order)
    for p1, p2 in ((0, 1), (1, 1), (1, 2), (2, 0)):
        a = MForm.zeros(m, (2, 3), p1, 0, order)
        b = MForm.zeros(m, (3, 2), p2, 0, order)
        a.data[:] = rng.normal(size=a.data.shape)
        b.data[:] = rng.normal(size=b.data.shape)
        full = a.wedge(b)
        for k in range(order):
            low = a.truncate(k).wedge(b.truncate(k))
            assert low.order == k
            assert np.array_equal(low.data, full.truncate(k).data)


def test_wedge_plans_repeat_targets():
    for p1, p2 in ((1, 1), (1, 2), (2, 1)):
        h = wedge_plan(M, p1, 0, p2, 0)[2]
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
    a = rand_form(rng, (2, 2), 1, 0)
    b = rand_form(rng, (2, 2), 0, 1)
    lhs = a.wedge(b).ext_d()
    sign = -1.0 if (a.p + a.q) % 2 else 1.0
    rhs = a.ext_d().wedge(b) + a.wedge(b.ext_d()).scale(sign)
    assert (lhs - rhs).full_norm() < 1e-12


def test_graded_jacobi(rng):
    al = rand_form(rng, (2, 2), 1, 0)
    be = rand_form(rng, (2, 2), 0, 1)
    ga = rand_form(rng, (2, 2), 1, 0)
    sign = -1.0 if ((al.p + al.q) * (be.p + be.q)) % 2 else 1.0
    lhs = gcomm(al, gcomm(be, ga))
    rhs = gcomm(gcomm(al, be), ga) + gcomm(be, gcomm(al, ga)).scale(sign)
    assert (lhs - rhs).full_norm() < 1e-12


def test_gcomm_odd_odd_is_anticommutator(rng):
    a = rand_form(rng, (2, 2), 0, 1)
    b = rand_form(rng, (2, 2), 0, 1)
    lhs = gcomm(a, b)
    rhs = a.wedge(b) + b.wedge(a)
    assert (lhs - rhs).full_norm() == 0.0


def test_gcomm_scalar_matrix_is_central(rng):
    a = rand_form(rng, (2, 2), 1, 0)
    c = MForm.identity(M, 2, K).scale(0.7)
    assert gcomm(c, a).full_norm() < 1e-15


def test_gcomm_of_odd_with_itself(rng):
    v = rand_form(rng, (2, 2), 0, 1)
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


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6),
       p=st.integers(min_value=0, max_value=2))
def test_d_squared_property(seed, p):
    a = rand_form(np.random.default_rng(seed), (2, 2), p)
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
    a = rand_form(r, (2, 2), pa, qa)
    b = rand_form(r, (2, 2), pb, qb)
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
    (pa, qa), (pb, qb), (pc, qc) = degs
    a = rand_form(r, (2, 2), pa, qa)
    b = rand_form(r, (2, 2), pb, qb)
    c = rand_form(r, (2, 2), pc, qc)
    sign = -1.0 if ((a.p + a.q) * (b.p + b.q)) % 2 else 1.0
    lhs = gcomm(a, gcomm(b, c))
    rhs = gcomm(gcomm(a, b), c) + gcomm(b, gcomm(a, c)).scale(sign)
    scale = max(1.0, lhs.full_norm(), rhs.full_norm())
    assert (lhs - rhs).full_norm() / scale < 1e-11


# the dense ghost layout against the per-entry oracle ------------------------------
#
# The oracle is per-entry GradedScalar arithmetic: an entry dict
# {(row, col, dx comp): GradedScalar over jets}, multiplied term by term with
# its own dx and Koszul signs, so it shares no sign table with wedge_plan.

TM = 3          # chart dimension of the oracle tests


def _draw_entries(rng, shape, p, q, order):
    """Random ghost entries: some absent, a few pool monomials each, unit or dense jets."""
    size = space(TM, order).size
    out = {}
    for idx in np.ndindex(shape + (len(form_comps(TM, p)),)):
        if rng.random() < 0.3:
            continue
        terms = {}
        for _ in range(rng.integers(1, 4)):
            mono = tuple(sorted(int(g) for g in rng.choice(GHOST_POOL, size=q, replace=False)))
            if rng.random() < 0.5:
                coeffs = rng.normal(size=size)
            else:
                coeffs = np.zeros(size)
                coeffs[rng.integers(size)] = rng.normal()
            terms[mono] = Jet(TM, coeffs)
        out[idx] = GradedScalar(terms)
    return out


def _draw_float(rng, shape, p, order):
    out = MForm.zeros(TM, shape, p, 0, order)
    out.data[:] = rng.normal(size=out.data.shape)
    out.data[rng.random(out.data.shape[:3]) < 0.3] = 0.0
    return out


def _float_entries(form):
    return {idx: GradedScalar({(): Jet(TM, form.data[idx].copy())})
            for idx in np.ndindex(form.data.shape[:3]) if form.data[idx].any()}


def _trunc(entries, k):
    return {idx: g.map(lambda c: c.truncate(k)) for idx, g in entries.items()}


def _oracle_wedge(a, ea, b, eb):
    """Per-entry GradedScalar products with the dx sign and the Koszul sign."""
    k = min(a.order, b.order)
    ea, eb = _trunc(ea, k), _trunc(eb, k)
    koszul = -1.0 if (a.p * b.q) % 2 else 1.0
    target = {c: h for h, c in enumerate(form_comps(TM, a.p + b.p))}
    out = {}
    for f1, c1 in enumerate(form_comps(TM, a.p)):
        for f2, c2 in enumerate(form_comps(TM, b.p)):
            if set(c1) & set(c2):
                continue
            sgn = koszul * (-1.0) ** sum(1 for x in c1 for y in c2 if x > y)
            h = target[tuple(sorted(c1 + c2))]
            for i in range(a.shape[0]):
                for j in range(b.shape[1]):
                    acc = out.get((i, j, h), GradedScalar())
                    for t in range(a.shape[1]):
                        ga, gb = ea.get((i, t, f1)), eb.get((t, j, f2))
                        if ga is not None and gb is not None:
                            acc = acc + (ga * gb) * sgn
                    out[i, j, h] = acc
    return out


def _oracle_ext_d(form, entries):
    sign_q = -1.0 if form.q % 2 else 1.0
    out = {}
    for f, nu, h, sgn in d_plan(TM, form.p):
        for (i, j, g), x in entries.items():
            if g == f:
                der = x.map(lambda c: c.derivative(nu)) * (sgn * sign_q)
                out[i, j, h] = out.get((i, j, h), GradedScalar()) + der
    return out


def _assert_matches(form, want, rel=1e-15):
    """Entrywise agreement with an oracle entry dict, relative to the largest
    coefficient of either side; the array has the (p, q) layout's shape."""
    assert form.data.shape == form.shape + (
        len(ghost_monos(form.q)) * form.n_comps, space(form.m, form.order).size)
    got = {idx: form.entry(*idx) for idx in np.ndindex(form.shape + (form.n_comps,))}
    scale = max([0.0] + [g.norm(Jet.norm) for g in list(got.values()) + list(want.values())])
    for idx, g in got.items():
        diff = g - want.get(idx, GradedScalar())
        assert diff.norm(Jet.norm) <= rel * scale, idx


def _operand(rng, kind, shape, p, q, order):
    """(MForm, oracle entries) of one wedge factor: 'float' or 'ghost'."""
    if kind == "float":
        f = _draw_float(rng, shape, p, order)
        return f, _float_entries(f)
    e = _draw_entries(rng, shape, p, q, order)
    f = MForm.from_entries(TM, shape, p, q, order, e)
    _assert_matches(f, e, rel=0.0)
    return f, e


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1),
       p1=st.integers(0, 2), p2=st.integers(0, 2),
       q1=st.integers(1, 2), q2=st.integers(1, 2),
       kinds=st.sampled_from([("float", "ghost"), ("ghost", "float"), ("ghost", "ghost")]),
       orders=st.sampled_from([(1, 1), (2, 1), (1, 2), (2, 2)]))
def test_table_wedge_matches_per_entry_oracle(seed, p1, p2, q1, q2, kinds, orders):
    """Plans with repeated targets ((1, 1), (1, 2)), empty plans (p1 + p2 > 3),
    float x ghost, ghost x float and ghost x ghost, unit and dense jets; a
    product above the pool's ghost degree is refused."""
    rng = np.random.default_rng(seed)
    a, ea = _operand(rng, kinds[0], (2, 3), p1, q1, orders[0])
    b, eb = _operand(rng, kinds[1], (3, 2), p2, q2, orders[1])
    if a.q + b.q > GHOST_POOL:
        with pytest.raises(ShapeError):
            a.wedge(b)
        return
    ab = a.wedge(b)
    assert (ab.p, ab.q, ab.order) == (p1 + p2, a.q + b.q, min(orders))
    _assert_matches(ab, _oracle_wedge(a, ea, b, eb))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1),
       p=st.integers(0, 2), q=st.integers(1, 2),
       orders=st.sampled_from([(2, 2), (2, 1), (1, 2)]))
def test_table_linear_and_inspection_match_oracle(seed, p, q, orders):
    rng = np.random.default_rng(seed)
    shape = (2, 3)
    a, ea = _operand(rng, "ghost", shape, p, q, orders[0])
    b, eb = _operand(rng, "ghost", shape, p, q, orders[1])
    k = min(orders)
    ta, tb = _trunc(ea, k), _trunc(eb, k)
    keys = set(ta) | set(tb)
    zero = GradedScalar()
    _assert_matches(a + b, {i: ta.get(i, zero) + tb.get(i, zero) for i in keys})
    _assert_matches(a - b, {i: ta.get(i, zero) - tb.get(i, zero) for i in keys})
    _assert_matches(a.scale(-0.75), {i: g * -0.75 for i, g in ea.items()})
    _assert_matches(a.scale(0.0), {})
    _assert_matches(a - a, {})
    _assert_matches(a.truncate(orders[0] - 1), _trunc(ea, orders[0] - 1))
    _assert_matches(a.ext_d(), _oracle_ext_d(a, ea))
    # ghost degree 0 is the float layout: the same array either way
    c = _draw_float(rng, shape, p, k)
    fc = _float_entries(c)
    a0, ea0 = _operand(rng, "ghost", shape, p, 0, k)
    want = {i: fc.get(i, zero) + ea0.get(i, zero) for i in set(fc) | set(ea0)}
    _assert_matches(c + a0, want)
    _assert_matches(a0 + c, want)
    # block, set_block and block_matrix
    blk = a.block((0, 2), (1, 3))
    _assert_matches(blk, {(i, j - 1, f): g for (i, j, f), g in ea.items() if j >= 1})
    if orders[1] >= orders[0]:      # set_block never raises the jet order
        put = a.copy()
        put.set_block((0, 2), (0, 2), b.block((0, 2), (1, 3)))
        want = {(i, j, f): g for (i, j, f), g in ea.items() if j == 2}
        want.update({(i, j - 1, f): g.map(lambda x: x.truncate(orders[0]))
                     for (i, j, f), g in eb.items() if j >= 1})
        _assert_matches(put, want)
        _assert_matches(a, ea, rel=0.0)     # set_block on the copy left a as it was
    grid = block_matrix([[a, None], [None, b]], TM, p, q, max(orders))
    want = {(i, j, f): g for (i, j, f), g in ta.items()}
    want.update({(i + 2, j + 3, f): g for (i, j, f), g in tb.items()})
    _assert_matches(grid, want)
    # eta-transposition of a row and of a column
    w = np.array([1.0, -1.0, -1.0])
    row = a.block((1, 2), (0, 3))
    erow = {(j, 0, f): g * float(w[j]) for (i, j, f), g in ea.items() if i == 1}
    _assert_matches(eta_t(row, w), erow)
    # the column back to a row: the weights square to one
    _assert_matches(eta_t(eta_t(row, w), w), {(0, j, f): g for (i, j, f), g in ea.items() if i == 1})
    # the body and the norms
    body = a.body()
    assert body.q == 0 and body.gdata is None
    for idx in np.ndindex(shape + (a.n_comps,)):
        g = ea.get(idx)
        want = sum(c.coeffs for c in g.terms.values()) if g is not None else 0.0
        assert np.abs(body.data[idx] - want).max() <= 1e-15 * max(1.0, a.full_norm())
    assert a.value_norm() == max([0.0] + [g.norm(lambda c: abs(c.value)) for g in ea.values()])
    assert a.full_norm() == max([0.0] + [g.norm(Jet.norm) for g in ea.values()])


def test_table_product_cancels_to_empty_table():
    """(g0 c0 + g1 c1)^2 = g0 g1 (c0 c1 - c1 c0): the two products are equal
    bit for bit, so the sum cancels to an exact zero; a repeated generator
    has no plan entry at all."""
    c0, c1 = Jet.constant(0.3, TM, 2), Jet.constant(-1.7, TM, 2)
    z = MForm.from_entries(TM, (1, 1), 0, 1, 2,
                           {(0, 0, 0): GradedScalar({(0,): c0, (1,): c1})})
    zz = z.wedge(z)
    assert zz.q == 2 and zz.full_norm() == 0.0
    assert not zz.entry(0, 0, 0).terms
    x = MForm.from_entries(TM, (1, 1), 0, 1, 2, {(0, 0, 0): GradedScalar({(2,): c0})})
    xx = x.wedge(x)
    assert xx.full_norm() == 0.0
    # the zero form goes through every other operation
    for y in (xx + xx, xx.scale(2.0), xx.ext_d(), xx.block((0, 1), (0, 1)),
              xx.wedge(z), z.wedge(xx), eta_t(xx, [1.0])):
        assert y.full_norm() == 0.0 and y.value_norm() == 0.0
        assert not any(y.entry(0, 0, f).terms for f in range(y.n_comps))
    assert xx.body().full_norm() == 0.0


@pytest.mark.parametrize("idx", [(2, 0, 0), (0, 3, 0), (0, 0, 3), (-1, 0, 0), (0, -1, 0), (0, 0, -1)])
def test_entries_outside_the_form_raise(idx):
    """(row, col, comp) is checked against the shape and the component count
    on both sides, so no index lands on another entry."""
    g = GradedScalar({(0,): Jet.constant(1.0, TM, 1)})
    form = MForm.from_entries(TM, (2, 3), 1, 1, 1, {(1, 2, 2): g})
    assert form.entry(1, 2, 2).terms
    with pytest.raises(IndexError):
        form.entry(*idx)
    with pytest.raises(IndexError):
        MForm.from_entries(TM, (2, 3), 1, 1, 1, {idx: g})


def test_ghost_degree_above_the_pool_raises():
    """No form of ghost degree above GHOST_POOL exists: not as zeros, not as
    a product, and no entry may name a generator outside the pool or a
    monomial of the wrong degree."""
    c = Jet.constant(1.0, TM, 1)
    with pytest.raises(ShapeError):
        MForm.zeros(TM, (1, 1), 0, GHOST_POOL + 1, 1)
    two = MForm.from_entries(TM, (1, 1), 0, 2, 1, {(0, 0, 0): GradedScalar({(0, 1): c})})
    with pytest.raises(ShapeError):
        two.wedge(two)
    for key in ((GHOST_POOL,), (0, 1)):
        with pytest.raises(ShapeError):
            MForm.from_entries(TM, (1, 1), 0, 1, 1, {(0, 0, 0): GradedScalar({key: c})})
