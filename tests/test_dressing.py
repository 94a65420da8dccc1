import numpy as np
import pytest

from cartanweyl import checks, tensors
from cartanweyl.cartan import (GaugeElement, KleinModel, VielbeinField, build_normal,
                               conjugate, gauge_transform, random_gauge)
from cartanweyl.dressing import (compatibility_residuals, dress,
                                 dressed_normality, extract_u1, full_pipeline,
                                 gr_dress, pair_residuals, vielbein_of)
from cartanweyl.errors import ShapeError
from cartanweyl.forms import MForm, eta_t
from cartanweyl.jets import jder, jmat_inv, jmul, jrecip, space
from cartanweyl.reduction import worst_entry
from cartanweyl.scenarios import catalog
from cartanweyl.tensors import classical_bundle, jeinsum

from conftest import POINT3, single_step_residual

K = 5


def test_u1_identity_when_trace_block_vanishes(mobius3, vielbein3):
    conn = build_normal(vielbein3, mobius3, POINT3, K)
    u1 = extract_u1(conn, jmat_inv(vielbein3.jets_at(POINT3, K), 3))
    assert u1.q.full_norm() == 0.0
    eye = MForm.identity(3, 5, u1.mat.order)
    assert (u1.mat - eye).full_norm() == 0.0


def test_u1_gamma1_shift(mobius3, vielbein3):
    """Re-extracted q after a gamma_1(r) scramble is q - r (here q = 0)."""
    conn = build_normal(vielbein3, mobius3, POINT3, K)
    e = vielbein3.jets_at(POINT3, K)
    ge = GaugeElement(r=["x0/3", "1/4", "x2/5 - x1/7"])
    mats = ge.matrices(mobius3, POINT3, K)
    conn_g = gauge_transform(conn, mats["gamma1"], mats["gamma1_inv"])
    u1 = extract_u1(conn_g, jmat_inv(e, 3))
    assert (u1.q + mats["r"]).value_norm() < 1e-13


def test_u1_weyl_shift(mobius3, vielbein3):
    """After W(z), the extracted covector is z^-1 (q + zeta . e^-1), q = 0."""
    conn = build_normal(vielbein3, mobius3, POINT3, K)
    e = vielbein3.jets_at(POINT3, K)
    ge = GaugeElement(z="1 + x0/4 + x1*x2/10")
    mats = ge.matrices(mobius3, POINT3, K)
    conn_w = gauge_transform(conn, mats["W"], mats["Winv"])
    e_w = jmul(mats["z"][None, None, :], e, 3)
    einv_w = jmat_inv(e_w, 3)
    u1 = extract_u1(conn_w, einv_w)
    z, zinv = mats["z"], jrecip(mats["z"], 3)
    zeta = np.stack([jmul(zinv, jder(z, 3, mu), 3) for mu in range(3)])
    want = jeinsum("m,ma->a", zeta, einv_w, 3)
    got = u1.q.data[0, :, 0, :]
    kk = min(got.shape[-1], want.shape[-1])
    assert np.abs(got[:, 0] - want[:, 0]).max() < 1e-12


def test_dress_with_identity(mobius3, vielbein3):
    conn = build_normal(vielbein3, mobius3, POINT3, K)
    eye = MForm.identity(3, 5, K)
    out = conjugate(conn.omega, eye, eye, connection=True)
    assert (out - conn.omega).value_norm() < 1e-14


def test_varpi1_blocks(mobius3, vielbein3, rng):
    """Dressed blocks: a_1 = 0 and A_1 = theta q + A - q^t theta^t."""
    conn0 = build_normal(vielbein3, mobius3, POINT3, K)
    ge = random_gauge(mobius3, rng)
    mats = ge.matrices(mobius3, POINT3, K)
    conn = gauge_transform(conn0, mats["gamma"], mats["gamma_inv"])
    e = vielbein_of(conn)
    u1 = extract_u1(conn, jmat_inv(e, 3))
    varpi1 = conjugate(conn.omega, u1.mat, u1.inv, connection=True)
    m1 = KleinModel("mobius", mobius3.chart)
    assert m1.block(varpi1, 1, 1).value_norm() < 1e-12
    th, A = conn.theta(), conn.A()
    eta = mobius3.eta
    want = th.wedge(u1.q) + A - eta_t(u1.q, eta).wedge(eta_t(th, eta))
    assert (m1.block(varpi1, 2, 2) - want).value_norm() < 1e-12


def test_omega1_and_omega0_conjugation_blocks(mobius3, vielbein3, rng):
    """Omega_0 (2,2) = e^-1 F_1 e after the second dressing."""
    conn0 = build_normal(vielbein3, mobius3, POINT3, K)
    ge = random_gauge(mobius3, rng)
    mats = ge.matrices(mobius3, POINT3, K)
    conn = gauge_transform(conn0, mats["gamma"], mats["gamma_inv"])
    fields = full_pipeline(conn)
    m = 3
    F1 = mobius3.block(fields.Omega1, 2, 2)
    einv_f = MForm.zeros(m, (m, m), 0, 0, fields.Omega1.order)
    e_f = MForm.zeros(m, (m, m), 0, 0, fields.Omega1.order)
    from cartanweyl.jets import jtrunc
    e = vielbein_of(conn)
    einv = fields.u0.einv
    e_f.data[:, :, 0, :] = jtrunc(e, m, fields.Omega1.order)
    einv_f.data[:, :, 0, :] = jtrunc(einv, m, fields.Omega1.order)
    want = einv_f.wedge(F1.wedge(e_f))
    assert (mobius3.block(fields.Omega0, 2, 2) - want).value_norm() < 1e-11


def test_pipeline_flat_everything_vanishes(mobius3, flat3):
    conn = build_normal(flat3, mobius3, POINT3, K)
    f = full_pipeline(conn)
    assert np.abs(f.Gamma).max() == 0.0
    assert np.abs(f.P).max() == 0.0
    assert np.abs(f.T).max() == 0.0
    assert np.abs(f.C).max() == 0.0
    assert np.abs(f.W).max() == 0.0
    assert np.abs(f.f0).max() == 0.0
    eta = np.diag(mobius3.eta)
    assert np.abs(f.g[..., 0] - eta).max() == 0.0


def test_pipeline_normal_case(mobius3, vielbein3):
    conn = build_normal(vielbein3, mobius3, POINT3, K)
    e = vielbein3.jets_at(POINT3, K)
    f = full_pipeline(conn, e)
    t, ric, f0 = (worst_entry(x, ()) for x in dressed_normality(f))
    assert t < 1e-12 and ric < 1e-12 and f0 < 1e-12
    B = classical_bundle(e, mobius3.chart.signature, 3)
    assert np.abs(f.Gamma[..., 0] - B["Gamma"][..., 0]).max() < 1e-11
    assert np.abs(f.P[..., 0] - B["P"][..., 0]).max() < 1e-11
    assert np.abs(f.C - B["C"][..., 0]).max() < 1e-10
    assert np.abs(f.W - B["W"][..., 0]).max() < 1e-10
    assert worst_entry(single_step_residual(conn, f), ()) < 1e-12
    metricity = pair_residuals(mobius3, f.varpi0, f.Omega0, f.g, f.Gamma)["metricity"]
    assert worst_entry(metricity, ()) < 1e-12


def test_pipeline_gauge_blindness(mobius3, vielbein3, rng):
    """Scrambling by the erased sectors leaves varpi0, Omega0 untouched."""
    conn = build_normal(vielbein3, mobius3, POINT3, K)
    e = vielbein3.jets_at(POINT3, K)
    f0 = full_pipeline(conn, e)
    for _ in range(3):
        ge = random_gauge(mobius3, rng, with_z=False)
        mats = ge.matrices(mobius3, POINT3, K)
        conn_g = gauge_transform(conn, mats["gamma"], mats["gamma_inv"])
        eS = jeinsum("ab,bm->am", mats["Sinv"], e, 3)
        fg = full_pipeline(conn_g, eS)
        assert (f0.varpi0 - fg.varpi0).value_norm() < 1e-11
        assert (f0.Omega0 - fg.Omega0).value_norm() < 1e-11


def test_compatibility_residuals_identity(mobius3, vielbein3):
    conn = build_normal(vielbein3, mobius3, POINT3, K)
    e = vielbein3.jets_at(POINT3, K)
    identity = GaugeElement().matrices(mobius3, POINT3, K)
    moved = dress(conn)[:2]
    out = compatibility_residuals(dress(conn, e)[:2], moved, identity, moved, identity)
    assert all(worst_entry(v, ()) < 1e-13 for v in out.values())


def test_compatibility_residuals_random(mobius3, vielbein3, rng):
    conn = build_normal(vielbein3, mobius3, POINT3, K)
    e = vielbein3.jets_at(POINT3, K)
    g1 = random_gauge(mobius3, rng, with_z=False, with_s=False)
    gS = random_gauge(mobius3, rng, with_z=False, with_r=False)
    m1, mS = g1.matrices(mobius3, POINT3, K), gS.matrices(mobius3, POINT3, K)
    conn_g1 = gauge_transform(conn, m1["gamma1"], m1["gamma1_inv"])
    conn_S = gauge_transform(conn, mS["S_emb"], mS["Sinv_emb"])
    out = compatibility_residuals(dress(conn, e)[:2], dress(conn_g1)[:2], m1,
                                  dress(conn_S)[:2], mS)
    assert all(worst_entry(v, ()) < 1e-11 for v in out.values()), out


def test_compat_u0_gamma1_fails_when_gamma1_moves_the_soldering_block(monkeypatch):
    """u0^{gamma1} is read off the gamma1-transformed connection, so a gamma1
    action that scales its theta block fails the row (it passes clean).  The
    dressing suite moves its connection by gamma1 once, as route 0 of its
    shared transform, and the compatibility rows read that route."""
    orig = checks.transform_routes

    def moved_theta(conn, routes):
        out = orig(conn, routes)
        g1 = routes[0][0]
        model = out.model
        rows, cols = model.bounds(2), model.bounds(1)
        # route 0 is the unipotent element: the identity on the diagonal
        assert (g1.data[..., rows[0]:rows[1], rows[0]:rows[1], 0, :]
                == MForm.identity(g1.m, model.m, g1.order).data[..., 0, :]).all()
        theta = out.omega.data[0, ..., rows[0]:rows[1], cols[0]:cols[1], :, :]
        theta *= 1 + 1e-6
        return out

    scn = catalog("generic", 3)
    scn.points = scn.points[:1]
    row = "dressing/compat_u0_gamma1"
    clean = {r.name: r for r in checks.run_check(scn, "dressing").rows}
    assert clean[row].passed
    monkeypatch.setattr(checks, "transform_routes", moved_theta)
    bad = {r.name: r for r in checks.run_check(scn, "dressing").rows}
    assert not bad[row].passed and bad[row].residual > 1e-7


@pytest.mark.parametrize("name", ["constant-curvature", "ricci-flat-m4", "generic"])
def test_a_schouten_defect_of_the_oracle_fails_the_oracle_rows(name, monkeypatch):
    """build_normal reads P off the curvature of the spin connection, not off
    the classical route, so a 1e-6 defect planted in the oracle's Schouten
    tensor shows in the rows that compare the two."""
    scn = catalog(name, 4)
    rows = ("dressing/oracle_P", "dressing/oracle_C", "dressing/oracle_W")
    clean = {r.name: r for r in checks.run_check(scn, "dressing").rows}
    assert all(clean[r].passed for r in rows)
    orig = tensors.schouten_from_ricci
    monkeypatch.setattr(tensors, "schouten_from_ricci", lambda *args: orig(*args) + 1e-6)
    bad = {r.name: r for r in checks.run_check(scn, "dressing").rows}
    assert not any(bad[r].passed for r in rows), {r: bad[r].residual for r in rows}


def test_q_reextraction_after_S(mobius3, vielbein3, rng):
    """q^S = q S for a Lorentz scramble of a connection with q != 0."""
    conn0 = build_normal(vielbein3, mobius3, POINT3, K)
    ge1 = GaugeElement(r=["x1/3", "1/5", "x0/4"])
    m1 = ge1.matrices(mobius3, POINT3, K)
    conn = gauge_transform(conn0, m1["gamma1"], m1["gamma1_inv"])  # q = -r now
    e = vielbein_of(conn)
    u1 = extract_u1(conn, jmat_inv(e, 3))
    gS = random_gauge(mobius3, rng, with_z=False, with_r=False)
    mS = gS.matrices(mobius3, POINT3, K)
    conn_S = gauge_transform(conn, mS["S_emb"], mS["Sinv_emb"])
    eS = jeinsum("ab,bm->am", mS["Sinv"], e, 3)
    u1_S = extract_u1(conn_S, jmat_inv(eS, 3))
    qS = MForm.zeros(3, (1, 3), 0, 0, u1.q.order)
    qS.data[0, :, 0, :] = jeinsum("a,ab->b", u1.q.data[0, :, 0, :], mS["S"], 3)
    assert (u1_S.q - qS).value_norm() < 1e-12


def test_gr_dress_flat(poincare3, flat3):
    conn = build_normal(flat3, poincare3, POINT3, K)
    e = flat3.jets_at(POINT3, K)
    _, _, Gamma, R, T, g = gr_dress(conn, e)
    assert np.abs(Gamma).max() == 0.0
    assert np.abs(R).max() == 0.0
    assert np.abs(T).max() == 0.0


def test_gr_dress_matches_classical(poincare3, vielbein3):
    conn = build_normal(vielbein3, poincare3, POINT3, K)
    e = vielbein3.jets_at(POINT3, K)
    varpi_h, Omega_h, Gamma, R, T, g = gr_dress(conn, e)
    B = classical_bundle(e, poincare3.chart.signature, 3)
    assert np.abs(Gamma[..., 0] - B["Gamma"][..., 0]).max() < 1e-11
    assert np.abs(R - B["Riemann"][..., 0]).max() < 1e-10
    assert np.abs(T).max() < 1e-12
    metricity = pair_residuals(poincare3, varpi_h, Omega_h, g, Gamma)["metricity"]
    assert worst_entry(metricity, ()) < 1e-12


def test_gr_dress_lorentz_invariance(poincare3, vielbein3, rng):
    conn = build_normal(vielbein3, poincare3, POINT3, K)
    e = vielbein3.jets_at(POINT3, K)
    _, _, G0, R0, T0, _ = gr_dress(conn, e)
    ge = random_gauge(poincare3, rng, with_z=False, with_r=False)
    mats = ge.matrices(poincare3, POINT3, K)
    conn_S = gauge_transform(conn, mats["gamma"], mats["gamma_inv"])
    eS = jeinsum("ab,bm->am", mats["Sinv"], e, 3)
    _, _, G1, R1, T1, _ = gr_dress(conn_S, eS)
    assert np.abs(G0[..., 0] - G1[..., 0]).max() < 1e-11
    assert np.abs(R0 - R1).max() < 1e-11
    assert np.abs(T0 - T1).max() < 1e-11


@pytest.mark.parametrize("m", [3, 4, 5])
def test_gr_dressing_suite_rows_equal_the_full_order_dressing(m):
    """The suite dresses varpi at order 1 and e at order 2; each row equals
    the one from dressing at order 5, bit for bit."""
    scn = catalog("poincare", m)
    scn.points = scn.points[:1]
    model = KleinModel(scn.model, scn.chart)
    ctx = checks.PointContext(scn, model, VielbeinField(scn.chart, scn.vielbein), 0, 1)
    got = {k: worst_entry(v, ())
           for k, v in checks.point_of(checks.gr_dressing_suite(ctx), 0).items()}
    point, seed = ctx.point[0], ctx.seed[0]
    e = ctx.vb.jets_at(point, 5)
    conn = build_normal(e, model, point, 5)
    assert conn.order == 4
    varpi_h, Omega_h, Gamma, R, T, g = gr_dress(conn, e)
    want = {k: worst_entry(v, ())
            for k, v in pair_residuals(model, varpi_h, Omega_h, g, Gamma).items()}
    B = classical_bundle(e, scn.signature, m)
    want["oracle_Gamma"] = float(np.abs(Gamma[..., 0] - B["Gamma"][..., 0]).max())
    want["oracle_R"] = float(np.abs(R - B["Riemann"][..., 0]).max())
    want["torsion"] = float(np.abs(T).max())
    ge = random_gauge(model, np.random.default_rng(seed), with_z=False, with_r=False,
                      point=point)
    mats = ge.matrices(model, point, conn.order + 1)
    conn_S = gauge_transform(conn, mats["gamma"], mats["gamma_inv"])
    _, _, G2, R2, T2, _ = gr_dress(conn_S, jeinsum("ab,bm->am", mats["Sinv"], e, m))
    want["so_invariance_Gamma"] = float(np.abs(Gamma[..., 0] - G2[..., 0]).max())
    want["so_invariance_R"] = float(np.abs(R - R2).max())
    want["so_invariance_T"] = float(np.abs(T - T2).max())
    assert got == want


def test_gr_dress_rejects_mobius(mobius3, vielbein3):
    conn = build_normal(vielbein3, mobius3, POINT3, K)
    with pytest.raises(ShapeError):
        gr_dress(conn, vielbein3.jets_at(POINT3, K))


def test_dressed_pair_satisfies_structure_equation(mobius3, vielbein3, rng):
    """F-hat = d A-hat + A-hat^2 after every dress call."""
    conn0 = build_normal(vielbein3, mobius3, POINT3, K)
    ge = random_gauge(mobius3, rng)
    mats = ge.matrices(mobius3, POINT3, K)
    conn = gauge_transform(conn0, mats["gamma"], mats["gamma_inv"])
    f = full_pipeline(conn)
    for A, F in ((f.varpi1, f.Omega1), (f.varpi0, f.Omega0)):
        res = A.ext_d() + A.wedge(A) - F
        assert res.value_norm() < 1e-11


def test_u1_group_inverse(mobius3, vielbein3, rng):
    """The inverse of u1(q) is u1(-q)."""
    conn0 = build_normal(vielbein3, mobius3, POINT3, K)
    ge = random_gauge(mobius3, rng)
    mats = ge.matrices(mobius3, POINT3, K)
    conn = gauge_transform(conn0, mats["gamma"], mats["gamma_inv"])
    u1 = extract_u1(conn, jmat_inv(vielbein_of(conn), 3))
    prod = u1.mat.wedge(u1.inv)
    eye = MForm.identity(3, 5, prod.order)
    assert (prod - eye).full_norm() < 1e-13


def _full_order_base(ctx, order):
    """The input connection and vielbein of the context's one point with
    every piece at ``order``: the vielbein jets, the normal connection and
    the factors of a seeded scramble of a normal input."""
    m = ctx.model.m
    point, seed = ctx.point[0], ctx.seed[0]
    e = ctx.vb.jets_at(point, order)
    conn = build_normal(e, ctx.model, point, order)
    if ctx.scn.gauge:
        assert ctx.scn.normal and ctx.scn.gauge == {"seeded": True}
        ge = random_gauge(ctx.model, np.random.default_rng(seed), point=point)
        mats = ge.matrices(ctx.model, point, order)
        conn = gauge_transform(conn, mats["gamma"], mats["gamma_inv"])
        e = jmul(mats["z"][None, None, :], jeinsum("ab,bm->am", mats["Sinv"], e, m), m)
    return conn, e


@pytest.mark.parametrize("name, m", [("generic", 3), ("generic", 5), ("constant-curvature", 3),
                                     ("constant-curvature", 4), ("ricci-flat-m4", 4)])
def test_oracle_rows_at_order_three_equal_the_full_order(name, m, monkeypatch):
    """The classical oracle runs on e cut to order 3, and its five oracle_*
    rows equal those of the oracle on e at the full jet order bit for bit
    at every point: ``np.einsum`` in ricci and weyl_tensor and every jet
    product keep the value coefficient of each tensor as it is."""
    scn = catalog(name, m)
    model, vb = KleinModel(scn.model, scn.chart), VielbeinField(scn.chart, scn.vielbein)
    seen = []
    bundle = checks.tensors.classical_bundle

    def recorded(e, signature, m):
        seen.append(e.shape[-1])
        return bundle(e, signature, m)

    monkeypatch.setattr(checks.tensors, "classical_bundle", recorded)
    for idx in range(len(scn.points)):
        ctx = checks.PointContext(scn, model, vb, idx, idx + 1)
        low = {k: worst_entry(v, ())
               for k, v in checks.point_of(checks.dressing_suite(ctx), 0).items()}
        conn, e = _full_order_base(ctx, 6)
        assert e.shape[-1] == space(m, 6).size
        B, f = bundle(e, scn.signature, m), full_pipeline(conn, e)
        full = {"oracle_g": float(np.abs(f.g[..., 0] - B["g"][..., 0]).max()),
                "oracle_Gamma": float(np.abs(f.Gamma[..., 0] - B["Gamma"][..., 0]).max()),
                "oracle_P": float(np.abs(f.P[..., 0] - B["P"][..., 0]).max()),
                "oracle_C": float(np.abs(f.C - B["C"][..., 0]).max()),
                "oracle_W": float(np.abs(f.W - B["W"][..., 0]).max())}
        assert {r: low[r] for r in full} == full
    assert seen == [space(m, 3).size] * len(scn.points)
