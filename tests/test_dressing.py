import numpy as np
import pytest

from cartanweyl import checks, dressing
from cartanweyl.cartan import (GaugeElement, KleinModel, build_normal, conjugate,
                               gauge_transform, random_gauge)
from cartanweyl.dressing import (compatibility_residuals,
                                 dressed_normality, extract_u1, full_pipeline,
                                 gr_dress, vielbein_of)
from cartanweyl.errors import ShapeError
from cartanweyl.forms import MForm, eta_t
from cartanweyl.jets import jder, jmat_inv, jmul, jrecip
from cartanweyl.scenarios import catalog
from cartanweyl.tensors import classical_bundle, jeinsum

from conftest import POINT3

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
    t, ric, f0 = dressed_normality(f)
    assert t < 1e-12 and ric < 1e-12 and f0 < 1e-12
    B = classical_bundle(e, mobius3.chart.signature, 3)
    assert np.abs(f.Gamma[..., 0] - B["Gamma"][..., 0]).max() < 1e-11
    assert np.abs(f.P[..., 0] - B["P"][..., 0]).max() < 1e-11
    assert np.abs(f.C - B["C"][..., 0]).max() < 1e-10
    assert np.abs(f.W - B["W"][..., 0]).max() < 1e-10
    assert f.single_step_residual < 1e-12
    assert f.diagnostics["metricity"] < 1e-12


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
    out = compatibility_residuals(conn, e, identity, identity, mobius3)
    assert all(v < 1e-13 for v in out.values())


def test_compatibility_residuals_random(mobius3, vielbein3, rng):
    conn = build_normal(vielbein3, mobius3, POINT3, K)
    e = vielbein3.jets_at(POINT3, K)
    g1 = random_gauge(mobius3, rng, with_z=False, with_s=False)
    gS = random_gauge(mobius3, rng, with_z=False, with_r=False)
    out = compatibility_residuals(conn, e, g1.matrices(mobius3, POINT3, K),
                                  gS.matrices(mobius3, POINT3, K), mobius3)
    assert all(v < 1e-11 for v in out.values()), out


def test_compat_u0_gamma1_fails_when_gamma1_moves_the_soldering_block(monkeypatch):
    """u0^{gamma1} is read off the gamma1-transformed connection, so a gamma1
    action that scales its theta block fails the row (it passes clean)."""
    def moved_theta(conn, e, m1, mS, model):
        orig = dressing.gauge_transform

        def transform(c, g, ginv):
            out = orig(c, g, ginv)
            if g is m1["gamma1"]:
                rows, cols = model.bounds(2), model.bounds(1)
                out.omega.set_block(rows, cols, out.omega.block(rows, cols).scale(1 + 1e-6))
            return out

        with monkeypatch.context() as mp:
            mp.setattr(dressing, "gauge_transform", transform)
            return compatibility_residuals(conn, e, m1, mS, model)

    scn = catalog("generic", 3)
    scn.points = scn.points[:1]
    row = "dressing/compat_u0_gamma1"
    clean = {r.name: r for r in checks.run_check(scn, "dressing").rows}
    assert clean[row].passed
    monkeypatch.setattr(checks, "compatibility_residuals", moved_theta)
    bad = {r.name: r for r in checks.run_check(scn, "dressing").rows}
    assert not bad[row].passed and bad[row].residual > 1e-7


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
    _, _, Gamma, R, T, g, diag = gr_dress(conn, e)
    assert np.abs(Gamma).max() == 0.0
    assert np.abs(R).max() == 0.0
    assert np.abs(T).max() == 0.0


def test_gr_dress_matches_classical(poincare3, vielbein3):
    conn = build_normal(vielbein3, poincare3, POINT3, K)
    e = vielbein3.jets_at(POINT3, K)
    _, _, Gamma, R, T, g, diag = gr_dress(conn, e)
    B = classical_bundle(e, poincare3.chart.signature, 3)
    assert np.abs(Gamma[..., 0] - B["Gamma"][..., 0]).max() < 1e-11
    assert np.abs(R - B["Riemann"][..., 0]).max() < 1e-10
    assert np.abs(T).max() < 1e-12
    assert diag["metricity"] < 1e-12


def test_gr_dress_lorentz_invariance(poincare3, vielbein3, rng):
    conn = build_normal(vielbein3, poincare3, POINT3, K)
    e = vielbein3.jets_at(POINT3, K)
    _, _, G0, R0, T0, _, _ = gr_dress(conn, e)
    ge = random_gauge(poincare3, rng, with_z=False, with_r=False)
    mats = ge.matrices(poincare3, POINT3, K)
    conn_S = gauge_transform(conn, mats["gamma"], mats["gamma_inv"])
    eS = jeinsum("ab,bm->am", mats["Sinv"], e, 3)
    _, _, G1, R1, T1, _, _ = gr_dress(conn_S, eS)
    assert np.abs(G0[..., 0] - G1[..., 0]).max() < 1e-11
    assert np.abs(R0 - R1).max() < 1e-11
    assert np.abs(T0 - T1).max() < 1e-11


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
