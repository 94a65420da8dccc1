from functools import partial

import numpy as np
import pytest

import gauge_oracle
from cartanweyl import forms, tensors
from cartanweyl.brs import ConformalBRS, GhostSpec, PoincareBRS
from cartanweyl.cartan import (SAMPLE_BOX, GaugeElement, KleinModel, VielbeinField,
                               _so_factors, assemble, build_normal, conjugate, covariant_d,
                               curvature, gauge_transform, k1_pair,
                               normality_residual, random_gauge, random_polynomial,
                               spin_connection)
from cartanweyl.checks import deformed_connection, run_check
from cartanweyl.errors import AlgebraResidualError, DegenerateVielbeinError
from cartanweyl.exprs import compile_expr, eval_jets
from cartanweyl.forms import MForm, algebra_residual, eta_t, gcomm
from cartanweyl.jets import Chart, jcos, jcosh, jmat_inv, jmul, jsin, jsinh, jtrunc, space
from cartanweyl.reduction import worst_entry
from cartanweyl.scenarios import catalog
from cartanweyl.tensors import classical_bundle

from conftest import POINT3

K = 5


def _expr_block(texts, chart, point, order, shape):
    out = MForm.zeros(chart.m, shape, 1, 0, order)
    for i in range(shape[0]):
        for j in range(shape[1]):
            for mu in range(chart.m):
                out.data[i, j, mu, :] = eval_jets(
                    [compile_expr(texts[i][j][mu])], chart, point, order)[0]
    return out


def _random_g_valued(model, rng, point, order):
    """Generic Moebius connection with polynomial blocks (not normal)."""
    m = model.m
    chart = model.chart

    def polys(shape):
        return [[[_poly(rng) for _ in range(m)] for _ in range(shape[1])]
                for _ in range(shape[0])]

    def _poly(rng):
        c = rng.uniform(-0.5, 0.5, size=3).round(3)
        return f"({c[0]}) + ({c[1]})*x0 + ({c[2]})*x1"

    a = _expr_block(polys((1, 1)), chart, point, order, (1, 1))
    alpha = _expr_block(polys((1, m)), chart, point, order, (1, m))
    theta = _expr_block(polys((m, 1)), chart, point, order, (m, 1))
    for i in range(m):
        theta.data[i, 0, i, 0] += 1.0  # keep the soldering invertible
    sig = model.eta
    A = MForm.zeros(m, (m, m), 1, 0, order)
    for i in range(m):
        for j in range(i + 1, m):
            for mu in range(m):
                c = eval_jets([compile_expr(_poly(rng))], chart, point, order)[0]
                A.data[i, j, mu, :] += sig[j] * c
                A.data[j, i, mu, :] -= sig[i] * c
    return assemble(model, a=a, alpha=alpha, theta=theta, A=A)


@pytest.mark.parametrize("kind, lorentz, solder", [("mobius", 2, (2, 1)),
                                                   ("poincare", 1, (1, 2))])
def test_the_model_grid_places_u0_theta_and_A(kind, lorentz, solder, chart3, vielbein3, rng):
    """``embed`` holds M on the Lorentz block and the identity everywhere
    else; theta and A read the soldering and Lorentz labels; and each BRS
    class's u0 term (and its inverse) evaluates to ``embed`` of its e (e^-1)
    cut to the same order, exactly."""
    model = KleinModel(kind, chart3)
    m, n = model.m, model.n
    assert (model.lorentz, model.solder) == (lorentz, solder)
    lo, hi = model.bounds(lorentz)
    assert hi - lo == m and n == (m + 2 if kind == "mobius" else m + 1)
    size = space(m, 2).size
    M = rng.normal(size=(2, m, m, size))      # two points, order 2
    E = model.embed(M)
    assert (E.shape, E.p, E.q, E.order, E.lead) == ((n, n), 0, 0, 2, (2,))
    want = np.zeros((2, n, n, size))
    want[:, range(n), range(n), 0] = 1.0
    want[:, lo:hi, lo:hi] = M
    assert np.array_equal(E.data[..., 0, :], want)
    conn = build_normal(vielbein3, model, POINT3, K)
    e = vielbein3.jets_at(POINT3, K)
    theta, A = conn.theta(), conn.A()
    assert np.array_equal(theta.data, model.block(conn.omega, *solder).data)
    assert np.array_equal(A.data, model.block(conn.omega, lorentz, lorentz).data)
    assert np.array_equal(theta.data[:, 0], jtrunc(e, m, theta.order))
    if kind == "mobius":
        b = ConformalBRS(conn, e, GhostSpec(), POINT3)
    else:
        b = PoincareBRS(conn, e, None, POINT3)
    for term, jets in ((b.T_u0, b.e), (b.T_u0inv, b.einv)):
        u0 = b.ev(term)
        assert np.array_equal(u0.data, model.embed(jtrunc(jets, m, u0.order)).data)


def test_sigma_matrix(mobius3):
    S = mobius3.sigma
    assert S[0, 4] == -1.0 and S[4, 0] == -1.0
    assert np.allclose(S[1:4, 1:4], np.diag([1.0, -1.0, -1.0]))
    assert np.allclose(S, S.T)


def test_flat_connection_is_flat(mobius3, flat3):
    conn = build_normal(flat3, mobius3, POINT3, K)
    assert conn.a().full_norm() == 0.0
    assert conn.alpha().full_norm() == 0.0
    assert conn.A().full_norm() == 0.0
    assert curvature(conn).full_norm() == 0.0


def test_flat_poincare(poincare3, flat3):
    conn = build_normal(flat3, poincare3, POINT3, K)
    assert curvature(conn).full_norm() == 0.0
    # theta block is dx
    th = conn.theta()
    for a in range(3):
        for mu in range(3):
            want = 1.0 if a == mu else 0.0
            assert th.data[a, 0, mu, 0] == want


def test_assemble_rejects_non_so_block(mobius3, chart3):
    m = 3
    theta = MForm.zeros(m, (m, 1), 1, 0, K)
    for i in range(m):
        theta.data[i, 0, i, 0] = 1.0
    bad = MForm.zeros(m, (m, m), 1, 0, K)
    bad.data[0, 1, 0, 0] = 1.0  # not eta-antisymmetric
    a = MForm.zeros(m, (1, 1), 1, 0, K)
    alpha = MForm.zeros(m, (1, m), 1, 0, K)
    with pytest.raises(AlgebraResidualError):
        assemble(mobius3, a=a, alpha=alpha, theta=theta, A=bad)


def test_assembled_connection_is_g_valued(mobius3, vielbein3):
    conn = build_normal(vielbein3, mobius3, POINT3, K)
    assert algebra_residual(conn.omega, "o2m", sigma=mobius3.sigma) < 1e-12


def test_curvature_blocks_match_closed_forms(mobius3, rng):
    """Omega = d varpi + varpi^2 equals the blockwise matrix of the model."""
    conn = _random_g_valued(mobius3, rng, POINT3, K)
    curv = curvature(conn)
    a, al, th, A = conn.a(), conn.alpha(), conn.theta(), conn.A()
    eta = mobius3.eta

    def eye_times(f):
        out = MForm.zeros(3, (3, 3), f.p, f.q, f.order)
        for i in range(3):
            out.data[i, i] = f.data[0, 0]
        return out

    f = a.ext_d() + al.wedge(th)
    Pi = al.ext_d() + al.wedge(A - eye_times(a))
    Th = th.ext_d() + (A - eye_times(a)).wedge(th)
    F = A.ext_d() + A.wedge(A) + th.wedge(al) + eta_t(al, eta).wedge(eta_t(th, eta))
    blk = partial(mobius3.block, curv)
    assert (blk(1, 1) - f).value_norm() < 1e-12
    assert (blk(1, 2) - Pi).value_norm() < 1e-12
    assert (blk(2, 1) - Th).value_norm() < 1e-12
    assert (blk(2, 2) - F).value_norm() < 1e-12


def test_poincare_curvature_blocks(poincare3, vielbein3):
    conn = build_normal(vielbein3, poincare3, POINT3, K)
    curv = curvature(conn)
    A, th = conn.A(), conn.theta()
    F, Theta = poincare3.block(curv, 1, 1), poincare3.block(curv, 1, 2)
    assert (F - (A.ext_d() + A.wedge(A))).value_norm() < 1e-12
    assert (Theta - (th.ext_d() + A.wedge(th))).value_norm() < 1e-12
    # the spin connection kills the torsion
    assert Theta.value_norm() < 1e-12


def test_bianchi_identity(mobius3, vielbein3, rng):
    for conn in (build_normal(vielbein3, mobius3, POINT3, K),
                 _random_g_valued(mobius3, rng, POINT3, K)):
        Om = curvature(conn)
        res = Om.ext_d() + gcomm(conn.omega.truncate(Om.order), Om)
        assert res.value_norm() < 1e-10


def test_helpers_multiply_no_higher_than_they_keep(mobius3, vielbein3, rng, monkeypatch):
    """On an order-(K - 2) connection, with gauge matrices at order K, no
    jet-matrix product of the curvature, the conjugation or the covariant
    derivative runs above the order of the form it returns."""
    conn = build_normal(vielbein3, mobius3, POINT3, K)
    ge = random_gauge(mobius3, rng)
    mats = ge.matrices(mobius3, POINT3, K)
    # a dressing field of the connection's own order, as u1 is
    low = ge.matrices(mobius3, POINT3, K - 2)
    assert conn.order == K - 2
    orders = []
    wedge = forms.MForm.wedge

    def recorded(a, b):
        out = wedge(a, b)           # every jet-matrix product of a form
        orders.append(out.order)
        return out

    monkeypatch.setattr(forms.MForm, "wedge", recorded)
    Om = curvature(conn)
    assert orders and max(orders) == Om.order == K - 3
    for x, u, connection in ((conn.omega, mats, True), (Om, mats, False),
                             (conn.omega, low, True)):
        orders.clear()
        out = conjugate(x, u["gamma"], u["gamma_inv"], connection)
        assert orders and max(orders) == out.order
    orders.clear()
    assert gauge_transform(conn, mats["gamma"], mats["gamma_inv"]).order == max(orders)
    orders.clear()
    assert covariant_d(conn.omega, Om).order == max(orders) == K - 4


def test_gauge_identity_element(mobius3, vielbein3):
    conn = build_normal(vielbein3, mobius3, POINT3, K)
    ge = GaugeElement()
    mats = ge.matrices(mobius3, POINT3, K)
    out = gauge_transform(conn, mats["gamma"], mats["gamma_inv"])
    assert (out.omega - conn.omega).value_norm() < 1e-14


def test_gauge_gamma1_trace_block(mobius3, vielbein3):
    # pure gamma_1(r) on a = 0 gives a^{gamma_1} = -r theta
    conn = build_normal(vielbein3, mobius3, POINT3, K)
    ge = GaugeElement(r=["x0/3", "1/4", "x2/5 - x1/7"])
    mats = ge.matrices(mobius3, POINT3, K)
    out = gauge_transform(conn, mats["gamma1"], mats["gamma1_inv"])
    want = mats["r"].wedge(conn.theta()).scale(-1.0)
    assert (out.a() - want).value_norm() < 1e-13


def test_gauge_weyl_soldering(mobius3, vielbein3):
    # pure W(z): theta -> z theta and a -> a + z^-1 dz
    conn = build_normal(vielbein3, mobius3, POINT3, K)
    ge = GaugeElement(z="1 + x0/4 + x1*x2/10")
    mats = ge.matrices(mobius3, POINT3, K)
    out = gauge_transform(conn, mats["W"], mats["Winv"])
    zth = MForm.zeros(3, (3, 1), 1, 0, conn.theta().order)
    zth.data[:, 0, :, :] = jmul(mats["z"][None, None, :],
                                conn.theta().data[:, 0, :, :], 3)
    assert (out.theta() - zth).value_norm() < 1e-13
    from cartanweyl.jets import jder, jrecip
    zinv = jrecip(mats["z"], 3)
    for mu in range(3):
        want = jmul(zinv, jder(mats["z"], 3, mu), 3)
        got = out.a().data[0, 0, mu]
        assert abs(got[0] - want[0]) < 1e-13


def test_gauge_right_action(mobius3, vielbein3, rng):
    conn = build_normal(vielbein3, mobius3, POINT3, K)
    g1 = random_gauge(mobius3, rng)
    g2 = random_gauge(mobius3, rng)
    m1 = g1.matrices(mobius3, POINT3, K)
    m2 = g2.matrices(mobius3, POINT3, K)
    lhs = gauge_transform(gauge_transform(conn, m1["gamma"], m1["gamma_inv"]),
                          m2["gamma"], m2["gamma_inv"])
    g12 = m1["gamma"].wedge(m2["gamma"])
    g12i = m2["gamma_inv"].wedge(m1["gamma_inv"])
    rhs = gauge_transform(conn, g12, g12i)
    assert (lhs.omega - rhs.omega).value_norm() < 1e-12


def test_curvature_equivariance(mobius3, vielbein3, rng):
    conn = build_normal(vielbein3, mobius3, POINT3, K)
    Om = curvature(conn)
    ge = random_gauge(mobius3, rng)
    mats = ge.matrices(mobius3, POINT3, K)
    out = curvature(gauge_transform(conn, mats["gamma"], mats["gamma_inv"]))
    conj = mats["gamma_inv"].wedge(Om.wedge(mats["gamma"]))
    assert (out - conj).value_norm() < 1e-12


def test_normality_of_build_normal(mobius3, vielbein3):
    conn = build_normal(vielbein3, mobius3, POINT3, K)
    e = vielbein3.jets_at(POINT3, K)
    t, r, f = (worst_entry(x, ()) for x in normality_residual(curvature(conn), e[..., 0],
                                                               mobius3))
    assert t < 1e-12 and r < 1e-12 and f < 1e-12


def test_build_normal_builds_no_cotton_or_weyl_tensor(mobius3, vielbein3, monkeypatch):
    """The normal connection reads only the Schouten tensor of the oracle."""
    want = build_normal(vielbein3, mobius3, POINT3, K)

    def unused(*args):
        raise AssertionError("build_normal needs only g -> ... -> P")
    monkeypatch.setattr(tensors, "cotton", unused)
    monkeypatch.setattr(tensors, "weyl_tensor", unused)
    got = build_normal(vielbein3, mobius3, POINT3, K)
    assert np.array_equal(got.omega.data, want.omega.data)


def test_normality_of_flat(mobius3, flat3):
    conn = build_normal(flat3, mobius3, POINT3, K)
    e = flat3.jets_at(POINT3, K)
    assert tuple(worst_entry(x, ()) for x in normality_residual(curvature(conn), e[..., 0],
                                                                mobius3)) == (0, 0, 0)


def test_perturbed_alpha_breaks_ricci(mobius3, vielbein3, rng):
    """Uniqueness probe: a random alpha offset must show up in Ric(F)."""
    conn = build_normal(vielbein3, mobius3, POINT3, K)
    e = vielbein3.jets_at(POINT3, K)
    alpha = conn.alpha()
    bump = MForm.zeros(3, (1, 3), 1, 0, alpha.order)
    bump.data[:] = rng.normal(size=bump.data.shape) * 0.1
    pert = assemble(mobius3, a=conn.a().truncate(alpha.order),
                    alpha=alpha + bump,
                    theta=conn.theta().truncate(alpha.order),
                    A=conn.A().truncate(alpha.order))
    t, r, f = (worst_entry(x, ()) for x in normality_residual(curvature(pert), e[..., 0],
                                                               mobius3))
    assert r > 1e-3
    assert t < 1e-12  # the torsion block does not feel alpha


def test_constant_curvature_schouten(chart3, mobius3):
    """R_{mn} = (m-1) k g_{mn} forces P = -(k/2) g; classical-oracle check."""
    q = " + ".join(f"({s})*x{i}*x{i}" for i, s in enumerate(chart3.signature))
    f = f"1/(1 + ({q})/4)"
    vb = VielbeinField(chart3, [[f if i == j else "0" for j in range(3)]
                                for i in range(3)])
    e = vb.jets_at(POINT3, K)
    B = classical_bundle(e, chart3.signature, 3)
    g = B["g"][..., 0]
    ric = B["Ricci"][..., 0]
    assert np.abs(ric - (3 - 1) * 1.0 * g).max() < 1e-10
    # frozen oracle value: P = -(k/2) g with k = 1
    assert np.abs(B["P"][..., 0] - (-0.5) * g).max() < 1e-10
    conn = build_normal(vb, mobius3, POINT3, K)
    alpha = conn.alpha()
    einv = np.linalg.inv(e[..., 0])
    for mu in range(3):
        for a in range(3):
            want = float((-0.5) * g[mu] @ einv[:, a])
            assert alpha.data[0, a, mu, 0] == pytest.approx(want, abs=1e-10)


def test_schwarzschild_is_ricci_flat():
    """Classical oracle gives R_mn = 0, hence alpha_1 = 0 and Pi_1 = 0."""
    from cartanweyl.jets import Chart
    ch = Chart(4, signature=(1, -1, -1, -1))
    model = KleinModel("mobius", ch)
    vb = VielbeinField(ch, [["sqrt(1 - 2/x1)", "0", "0", "0"],
                            ["0", "1/sqrt(1 - 2/x1)", "0", "0"],
                            ["0", "0", "x1", "0"],
                            ["0", "0", "0", "x1*sin(x2)"]])
    pt = (0.2, 3.7, 1.1, 0.4)
    e = vb.jets_at(pt, K)
    B = classical_bundle(e, ch.signature, 4)
    assert np.abs(B["Ricci"][..., 0]).max() < 1e-9
    assert np.abs(B["P"][..., 0]).max() < 1e-9
    conn = build_normal(vb, model, pt, K)
    assert conn.alpha().value_norm() < 1e-9
    assert model.block(curvature(conn), 1, 2).value_norm() < 1e-8


def test_spin_connection_properties(vielbein3, chart3, rng):
    e = vielbein3.jets_at(POINT3, K)
    A = spin_connection(e, jmat_inv(e, 3), chart3.signature, 3)
    eta = np.diag(np.asarray(chart3.signature, dtype=float))
    for mu in range(3):
        M = A[:, :, mu, 0]
        assert np.abs(M.T @ eta + eta @ M).max() < 1e-13


def test_degenerate_vielbein_raises(chart3):
    vb = VielbeinField(chart3, [["x0", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]])
    with pytest.raises(DegenerateVielbeinError):
        vb.jets_at((0.0, 0.1, 0.2), 3)


def test_lorentz_factor_is_eta_orthogonal(mobius3, rng):
    ge = random_gauge(mobius3, rng, with_z=False, with_r=False)
    mats = ge.matrices(mobius3, POINT3, K)
    S = mats["S"][..., 0]
    eta = np.diag(mobius3.eta)
    assert np.abs(S.T @ eta @ S - eta).max() < 1e-12


# Schwarzschild points with r = x1 in 5.5-5.9, far outside the catalog box
FAR_POINTS = [(0.038488, 5.849999, 1.279506, 0.051676),
              (-0.010713, 5.632337, 1.197437, 0.113758),
              (0.2, 5.5, 1.1, 0.4)]


def test_random_gauge_unchanged_inside_catalog_box(mobius3):
    point = (0.23, -SAMPLE_BOX, 0.17)
    for seed in range(20):
        plain = random_gauge(mobius3, np.random.default_rng(seed))
        boxed = random_gauge(mobius3, np.random.default_rng(seed), point=point)
        for a, b in zip([plain.z, *plain.so, *plain.r], [boxed.z, *boxed.so, *boxed.r]):
            assert np.array_equal(a, b)


def test_random_gauge_scaled_to_far_point():
    """z = 1 + p(x) stays positive at r ~ 5.5-5.9, where the box scaling fails.

    The draws are the same, so the rng stream after the gauge is unchanged.
    """
    model = KleinModel("mobius", Chart(4, signature=(1, -1, -1, -1)))
    for point in FAR_POINTS:
        unscaled_bad = 0
        for seed in range(300):
            rng_box, rng_far = np.random.default_rng(seed), np.random.default_rng(seed)
            plain = random_gauge(model, rng_box)
            far = random_gauge(model, rng_far, point=point)
            assert eval_jets([far.z], model.chart, point, 0)[0, 0] > 0.5
            unscaled_bad += eval_jets([plain.z], model.chart, point, 0)[0, 0] <= 0
            assert rng_box.uniform() == rng_far.uniform()
        assert unscaled_bad > 0


def _replayed(seed, draws):
    """The rng after ``draws`` scalar draws, one per polynomial coefficient."""
    rng = np.random.default_rng(seed)
    for _ in range(draws):
        rng.uniform(-0.5, 0.5)
    return rng


@pytest.mark.parametrize("m, after", [(3, 0.6717651626112849), (5, 0.7691109901866398)])
def test_random_gauge_leaves_the_rng_where_it_was(m, after):
    """Coefficient arrays take the same draws in the same order (z, so, r) as
    the term-by-term polynomials did; ``after`` is the next draw there."""
    model = KleinModel("mobius", Chart(m))
    rng = np.random.default_rng(7)
    random_gauge(model, rng)
    polys = 1 + m * (m - 1) // 2 + m
    assert rng.bit_generator.state == _replayed(7, polys * space(m, 2).size).bit_generator.state
    assert rng.uniform() == after


def test_deformed_connection_leaves_the_rng_where_it_was():
    scn = catalog("torsionful", 3)
    model = KleinModel("mobius", scn.chart)
    point = scn.points[0]
    conn = build_normal(VielbeinField(scn.chart, scn.vielbein), model, [point], 4)
    rng = np.random.default_rng(11)
    deformed_connection(conn, model, [point], 4, [rng])
    polys = (1 + 3 + 3) * 3     # a, alpha, so(eta) part of A; one per component
    assert rng.bit_generator.state == _replayed(11, polys * space(3, 1).size).bit_generator.state
    assert rng.uniform() == 0.43600150359233103


def _one_polynomial(rng, m, degree=2, scale=1.0, radius=SAMPLE_BOX):
    """The single-draw polynomial: one Python ``round`` per coefficient."""
    base = m * max(1.0, radius / SAMPLE_BOX)
    sp = space(m, degree)
    draws = rng.uniform(-0.5, 0.5, size=sp.size)
    return np.array([round((u / (2.0 * base ** d) if d > 0 else u) * scale, 6)
                     for u, d in zip(draws.tolist(), sp.degrees.tolist())])


class _Planted:
    """An rng whose uniform draws are fixed values, in row order."""

    def __init__(self, values):
        self.values = np.asarray(values, dtype=float).ravel()

    def uniform(self, low, high, size):
        out, self.values = np.split(self.values, [int(np.prod(size))])
        return out.reshape(size)


@pytest.mark.parametrize("m, degree, scale, radius",
                         [(3, 2, 1.0, SAMPLE_BOX), (4, 1, 0.5, SAMPLE_BOX), (5, 2, 1.0, 5.9)])
def test_random_polynomial_rows_are_the_single_draws_bit_for_bit(m, degree, scale, radius):
    """n rows from one draw are n single-draw polynomials in turn, and each
    vectorized coefficient is Python's ``round(x, 6)``, sign of zero
    included.  2.5e-06 is planted where np.round alone gives 2e-06 (x 1e6 =
    2.5 rounds to even) and ``round`` gives 3e-06, as -2.5e-06 and as a
    coefficient of every degree."""
    size = space(m, degree).size
    for seed in range(5):
        rows = random_polynomial(np.random.default_rng(seed), m, degree, scale, radius, rows=7)
        ref = np.random.default_rng(seed)
        want = np.stack([_one_polynomial(ref, m, degree, scale, radius) for _ in range(7)])
        assert rows.tobytes() == want.tobytes()
        single = random_polynomial(np.random.default_rng(seed), m, degree, scale, radius)
        assert single.tobytes() == want[0].tobytes()
    base = m * max(1.0, radius / SAMPLE_BOX)
    dens = [1.0] + [2.0 * base ** d for d in range(1, degree + 1)]
    planted = np.full((3, size), 2.5e-06 / scale)
    planted[1] *= -1.0
    planted[2] = [2.5e-06 * dens[d] / scale for d in space(m, degree).degrees.tolist()]
    planted[2, -1] = -1e-9      # rounds to -0.0
    assert np.round(2.5e-06, 6) != round(2.5e-06, 6)
    got = random_polynomial(_Planted(planted), m, degree, scale, radius, rows=3)
    fixed = _Planted(planted)
    want = np.stack([_one_polynomial(fixed, m, degree, scale, radius) for _ in range(3)])
    assert got.tobytes() == want.tobytes()
    assert got[0, 0] == 3e-06 and np.signbit(got[2, -1])


def test_k1_pair_is_the_k1_matrices_of_r_and_minus_r(mobius3, rng):
    """One product serves both: (-r)(-r)^t / 2 = r r^t / 2 bit for bit, so
    the pair is the one-matrix builder's matrices of r and of -r."""
    for lead in ((), (3,), (2, 3)):
        r = MForm.zeros(3, (1, 3), 0, 0, 3, lead)
        r.data[...] = rng.normal(size=r.data.shape)
        r.data[..., 0, 1, 0, 2] = 0.0       # a zero entry keeps its sign as well
        k1, k1inv = k1_pair(r, mobius3)
        for got, want in ((k1, gauge_oracle.k1_in_place(r, mobius3)),
                          (k1inv, gauge_oracle.k1_in_place(r.scale(-1.0), mobius3))):
            assert (got.order, got.lead) == (want.order, want.lead)
            assert got.data.tobytes() == want.data.tobytes()


def _so_factor_list(model, pairs, angles):
    """The plane factors one pair at a time, m + 4 writes each."""
    m, sig = model.m, model.eta
    out = []
    for k, (a, b) in enumerate(pairs):
        rot = sig[a] == sig[b]
        fe, fo = (jcos, jsin) if rot else (jcosh, jsinh)
        c, s = fe(angles[..., k, :], m), fo(angles[..., k, :], m)
        S = np.zeros(angles.shape[:-2] + (m, m, angles.shape[-1]))
        for i in range(m):
            S[..., i, i, 0] = 1.0
        S[..., a, a, :], S[..., b, b, :] = c, c
        S[..., a, b, :], S[..., b, a, :] = (-s, s) if rot else (s, s)
        out.append(S)
    return out


@pytest.mark.parametrize("m, lead", [(3, ()), (4, (2,)), (5, (3,))])
def test_so_factors_in_one_array_are_the_per_pair_factors(m, lead):
    model = KleinModel("mobius", Chart(m))
    pairs = [(a, b) for a in range(m) for b in range(a + 1, m)]
    angles = np.random.default_rng(m).normal(size=lead + (len(pairs), space(m, 3).size)) * 0.1
    got = _so_factors(model, pairs, angles)
    want = _so_factor_list(model, pairs, angles)
    assert got.shape == (len(pairs),) + want[0].shape
    assert all(g.tobytes() == w.tobytes() for g, w in zip(got, want))
    assert _so_factors(model, [], angles[..., :0, :]).shape == (0,) + want[0].shape


@pytest.mark.parametrize("seed,offset,point", [(200, 3, FAR_POINTS[0]),
                                               (209, 6, FAR_POINTS[1])])
def test_gauge_suite_on_far_schwarzschild_point(seed, offset, point):
    """One-point scenarios whose seeded gauge factor z was once non-positive."""
    scn = catalog("ricci-flat-m4", 4)
    scn.points, scn.seed, scn.point_offset = [point], seed, offset
    assert run_check(scn, "gauge").passed


# the factors each element of the gauge-matrix oracle test carries
_FACTORS = {"z": (True, False, False), "S": (False, True, False),
            "r": (False, False, True), "full": (True, True, True)}


@pytest.mark.parametrize("factors", sorted(_FACTORS))
@pytest.mark.parametrize("batch", [False, True])
def test_gauge_matrices_by_blocks_match_the_product_route(factors, batch):
    """gamma, gamma^-1 and gamma_1^{+-1} written block by block equal W S
    gamma_1 and its inverse as products of dense wedges (tests/gauge_oracle.py)
    to rounding, at one point and at a batch of three, and gamma gamma^-1 = 1."""
    model = KleinModel("mobius", Chart(4, signature=(1, -1, -1, -1)))
    points = [(0.21, -0.13, 0.3, 0.05), (-0.3, 0.27, -0.08, 0.19), (0.02, 0.1, -0.25, -0.31)]
    with_z, with_s, with_r = _FACTORS[factors]
    if batch:
        rng, point = [np.random.default_rng(s) for s in range(3)], points
    else:
        rng, point = np.random.default_rng(7), points[0]
    ge = random_gauge(model, rng, with_z=with_z, with_s=with_s, with_r=with_r, point=point)
    mats = ge.matrices(model, point, 3)
    assert mats["gamma"].lead == ((3,) if batch else ())
    want = gauge_oracle.gauge_matrices(model, mats["z"], mats["S"], mats["Sinv"], mats["r"])
    for name, ref in zip(("gamma", "gamma_inv", "gamma1", "gamma1_inv"), want):
        got = mats[name]
        assert got.shape == ref.shape and got.order == ref.order
        assert np.all((got - ref).full_norm() <= 1e-14 * ref.full_norm()), name
    assert np.all((gauge_oracle.k1_matrix(mats["r"], model)
                   - k1_pair(mats["r"], model)[0]).full_norm() <= 1e-15)
    # a lacking factor takes no product: the dressing suite's routes rely on it
    same = {"r": ("gamma1", "gamma1_inv"), "S": ("S_emb", "Sinv_emb")}.get(factors, ())
    for got, want in zip(("gamma", "gamma_inv"), same):
        assert np.array_equal(mats[got].data, mats[want].data)
    eye = MForm.identity(4, 6, 3)
    for a, b in (("gamma", "gamma_inv"), ("gamma1", "gamma1_inv")):
        assert np.all((mats[a].wedge(mats[b]) - eye).full_norm() < 1e-13)


@pytest.mark.parametrize("name, m", [("generic", 3), ("generic", 5), ("torsionful", 4),
                                     ("constant-curvature", 4), ("ricci-flat-m4", 4),
                                     ("conformally-flat", 3)])
def test_alpha_of_build_normal_is_the_schouten_tensor_of_the_metric(name, m):
    """alpha, read off the curvature of the spin connection, equals P e^-1
    with P from the metric route of tensors.curvature_bundle to rounding,
    in every jet coefficient and at every point of the catalog."""
    scn = catalog(name, m)
    model = KleinModel(scn.model, scn.chart)
    e = VielbeinField(scn.chart, scn.vielbein).jets_at(scn.points, 5)
    got = build_normal(e, model, scn.points, 5).alpha().data[..., 0, :, :, :]  # (P, a, mu, C)
    P = tensors.curvature_bundle(e, scn.signature, m)["P"]
    want = tensors.tr(tensors.jeinsum("mn,na->ma", P, jmat_inv(e, m), m), 1, 0)
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= 1e-14 * max(1.0, np.abs(want).max())


def test_build_normal_calls_no_classical_curvature(mobius3, vielbein3, monkeypatch):
    """The Schouten block comes from the Cartan route alone, so the metric
    route stays an independent oracle."""
    def refused(*args, **kwargs):
        raise AssertionError("build_normal called the classical curvature route")

    for name in ("curvature_bundle", "ricci_scalar", "schouten_from_ricci"):
        monkeypatch.setattr(tensors, name, refused)
    conn = build_normal(vielbein3, mobius3, POINT3, K)
    assert conn.alpha().full_norm() > 0.0
