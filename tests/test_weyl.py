import numpy as np
import pytest

from cartanweyl.cartan import build_normal, gauge_transform, random_gauge
from cartanweyl.checks import base_connection
from cartanweyl.dressing import full_pipeline
from cartanweyl.jets import jder, jmul
from cartanweyl.orders import order_plan
from cartanweyl.reduction import worst_entry
from cartanweyl.weyl import (WeylElement, closed_form_laws, wbar_closed_form,
                             weyl_group_law_residual, weyl_matrices,
                             weyl_transform_dressed, weyl_transform_midlevel)

from conftest import POINT3

K = 5
PHI = "x0/4 - x1*x2/6"


@pytest.fixture
def normal_state(mobius3, vielbein3):
    conn = build_normal(vielbein3, mobius3, POINT3, K)
    e = vielbein3.jets_at(POINT3, K)
    fields = full_pipeline(conn, e)
    return conn, e, fields


def test_identity_rescaling_fixes_everything(mobius3, normal_state):
    conn, e, fields = normal_state
    z, zeta = WeylElement("0").at(mobius3.chart, POINT3, K)
    moved = weyl_transform_dressed(fields, weyl_matrices(mobius3, z, zeta, fields.u0))
    assert (moved.varpi0 - fields.varpi0).value_norm() < 1e-13
    assert (moved.Omega0 - fields.Omega0).value_norm() < 1e-13


def test_wbar_closed_form(mobius3, normal_state):
    conn, e, fields = normal_state
    z, zeta = WeylElement(PHI).at(mobius3.chart, POINT3, K)
    wbar = weyl_matrices(mobius3, z, zeta, fields.u0)["wbar"]
    closed = wbar_closed_form(mobius3, z, zeta, e)
    assert closed.order == wbar.order
    assert (wbar - closed).full_norm() < 1e-12


def test_k1_u1_commute(mobius3, vielbein3, rng):
    """The two unipotent factors commute; asserted numerically."""
    conn0 = build_normal(vielbein3, mobius3, POINT3, K)
    ge = random_gauge(mobius3, rng)
    m_ = ge.matrices(mobius3, POINT3, K)
    conn = gauge_transform(conn0, m_["gamma"], m_["gamma_inv"])
    fields = full_pipeline(conn)
    z, zeta = WeylElement(PHI).at(mobius3.chart, POINT3, K)
    mats = weyl_matrices(mobius3, z, zeta, fields.u0)
    comm = mats["k1"].wedge(fields.u1.mat) - fields.u1.mat.wedge(mats["k1"])
    assert comm.full_norm() < 1e-12


def test_zeta_is_exact(mobius3):
    z, zeta = WeylElement(PHI).at(mobius3.chart, POINT3, K)
    for mu in range(3):
        for nu in range(mu + 1, 3):
            d1 = jder(zeta[nu], 3, mu)[0]
            d2 = jder(zeta[mu], 3, nu)[0]
            assert abs(d1 - d2) < 1e-15


def test_conjugation_equals_closed_laws(mobius3, normal_state):
    conn, e, fields = normal_state
    z, zeta = WeylElement(PHI).at(mobius3.chart, POINT3, K)
    stW = weyl_transform_dressed(fields, weyl_matrices(mobius3, z, zeta, fields.u0))
    laws = closed_form_laws(fields, z, zeta)
    assert np.abs(stW.g[..., 0] - laws["g"]).max() < 1e-12
    assert np.abs(stW.Gamma[..., 0] - laws["Gamma"]).max() < 1e-12
    assert np.abs(stW.P[..., 0] - laws["P"]).max() < 1e-12
    assert np.abs(stW.T - laws["T"]).max() < 1e-13
    assert np.abs(stW.W - laws["W"]).max() < 1e-12
    assert np.abs(stW.C - laws["C"]).max() < 1e-12


def test_conjugation_equals_rescaled_pipeline(mobius3, normal_state):
    conn, e, fields = normal_state
    z, zeta = WeylElement(PHI).at(mobius3.chart, POINT3, K)
    stW = weyl_transform_dressed(fields, weyl_matrices(mobius3, z, zeta, fields.u0))
    conn2 = build_normal(stW.e, mobius3, POINT3, K)
    f2 = full_pipeline(conn2, stW.e)
    assert np.abs(stW.g[..., 0] - f2.g[..., 0]).max() < 1e-11
    assert np.abs(stW.Gamma[..., 0] - f2.Gamma[..., 0]).max() < 1e-11
    assert np.abs(stW.P[..., 0] - f2.P[..., 0]).max() < 1e-11
    assert np.abs(stW.C - f2.C).max() < 1e-11
    assert np.abs(stW.W - f2.W).max() < 1e-11


def test_normal_case_invariances(mobius3, normal_state):
    conn, e, fields = normal_state
    z, zeta = WeylElement(PHI).at(mobius3.chart, POINT3, K)
    stW = weyl_transform_dressed(fields, weyl_matrices(mobius3, z, zeta, fields.u0))
    # Weyl-tensor invariance and the Cotton shift C -> C - zeta . W
    assert np.abs(stW.W - fields.W).max() < 1e-12
    zt = zeta[..., 0]
    want = fields.C - np.einsum("l,lnms->nms", zt, fields.W)
    assert np.abs(stW.C - want).max() < 1e-12
    # normality is preserved
    assert np.abs(stW.T).max() < 1e-12
    assert np.abs(np.einsum("anas->ns", stW.W)).max() < 1e-11
    assert np.abs(stW.f0).max() < 1e-12


def test_torsionful_laws(mobius3, vielbein3):
    """AS-W etc.: antisymmetric Christoffel part and torsion are inert."""
    from cartanweyl.scenarios import catalog
    scn = catalog("torsionful", 3)
    scn.points = [POINT3]
    rng = np.random.default_rng(7)
    e = vielbein3.jets_at(scn.points, 4)      # a batch of one point, as checks runs it
    conn, e_full = base_connection(scn, mobius3, build_normal(e, mobius3, scn.points, 4),
                                   e, scn.points, [rng])
    fields = full_pipeline(conn, e_full)
    assert np.abs(fields.T).max() > 1e-3  # genuinely torsionful
    z, zeta = WeylElement(PHI).at(mobius3.chart, scn.points, 4)
    stW = weyl_transform_dressed(fields, weyl_matrices(mobius3, z, zeta, fields.u0))
    laws = closed_form_laws(fields, z, zeta)
    for key in ("g", "Gamma", "P", "T", "f0", "W", "C"):
        got = {"g": stW.g[..., 0], "Gamma": stW.Gamma[..., 0],
               "P": stW.P[..., 0], "T": stW.T, "f0": stW.f0,
               "W": stW.W, "C": stW.C}[key]
        assert np.abs(got - laws[key]).max() < 1e-10, key
    # torsion invariance and the inert antisymmetric part
    assert np.abs(stW.T - fields.T).max() < 1e-12
    asym = lambda G: 0.5 * (G - G.swapaxes(-1, -2))
    assert np.abs(asym(stW.Gamma[..., 0]) - asym(fields.Gamma[..., 0])).max() < 1e-12
    # trace law reproduces the antisymmetric Schouten shift
    asymP = lambda P: P - P.swapaxes(-1, -2)
    want = asymP(fields.P[..., 0]) - np.einsum("...l,...lms->...ms", zeta[..., 0], fields.T)
    assert np.abs(asymP(stW.P[..., 0]) - want).max() < 1e-11


def test_group_law(mobius3, normal_state):
    conn, e, fields = normal_state
    first = WeylElement(PHI).at(mobius3.chart, POINT3, K)
    moved = weyl_transform_dressed(fields, weyl_matrices(mobius3, *first, fields.u0))
    res = weyl_group_law_residual(fields, moved, first,
                                  WeylElement("x1/5 + x0*x0/10").at(mobius3.chart, POINT3, K),
                                  order_plan("mobius").group_law)
    assert worst_entry(res, ()) < 1e-11


def test_midlevel_closed_forms(mobius3, normal_state):
    conn, e, fields = normal_state
    z, zeta = WeylElement(PHI).at(mobius3.chart, POINT3, K)
    mats = weyl_matrices(mobius3, z, zeta, fields.u0)
    v1W, O1W, closed = weyl_transform_midlevel(fields, mats)
    for name, ij, M in [("theta", (2, 1), v1W), ("A1", (2, 2), v1W),
                        ("alpha1", (1, 2), v1W), ("f1", (1, 1), O1W),
                        ("Theta1", (2, 1), O1W), ("F1", (2, 2), O1W),
                        ("Pi1", (1, 2), O1W)]:
        assert (mobius3.block(M, *ij) - closed[name]).value_norm() < 1e-11, name
    # normal case: the middle curvature block is invariant
    assert (mobius3.block(O1W, 2, 2)
            - mobius3.block(fields.Omega1, 2, 2)).value_norm() < 1e-11


def test_midlevel_flat_only_soldering_moves(mobius3, flat3):
    conn = build_normal(flat3, mobius3, POINT3, K)
    fields = full_pipeline(conn, flat3.jets_at(POINT3, K))
    z, zeta = WeylElement(PHI).at(mobius3.chart, POINT3, K)
    mats = weyl_matrices(mobius3, z, zeta, fields.u0)
    v1W, O1W, closed = weyl_transform_midlevel(fields, mats)
    assert O1W.value_norm() < 1e-13
    th = mobius3.block(v1W, 2, 1)
    zth = mobius3.block(fields.varpi1, 2, 1).copy()
    from cartanweyl.jets import jtrunc
    zth.data = jmul(jtrunc(z, 3, zth.order)[None, None, None, :], zth.data, 3)
    assert (th - zth).value_norm() < 1e-13


def test_conformally_flat_weyl_vanishes_both_routes(mobius3, chart3):
    from cartanweyl.cartan import VielbeinField
    phi0 = "x0/4 - x1*x1/6"
    vb = VielbeinField(chart3, [[f"exp({phi0})" if i == j else "0"
                                 for j in range(3)] for i in range(3)])
    conn = build_normal(vb, mobius3, POINT3, K)
    e = vb.jets_at(POINT3, K)
    fields = full_pipeline(conn, e)
    z, zeta = WeylElement(PHI).at(mobius3.chart, POINT3, K)
    stW = weyl_transform_dressed(fields, weyl_matrices(mobius3, z, zeta, fields.u0))
    # both routes annihilate the Weyl-type tensor (m = 3 and conformally flat)
    assert np.abs(fields.W).max() < 1e-11
    assert np.abs(stW.W).max() < 1e-10


def test_redundant_entries(mobius3, normal_state):
    conn, e, fields = normal_state
    z, zeta = WeylElement(PHI).at(mobius3.chart, POINT3, K)
    stW = weyl_transform_dressed(fields, weyl_matrices(mobius3, z, zeta, fields.u0))
    from cartanweyl.checks import _redundancy
    assert worst_entry(_redundancy(stW.varpi0, stW, mobius3), ()) < 1e-11
    assert worst_entry(_redundancy(stW.Omega0, stW, mobius3), ()) < 1e-11


def test_weyl_factor_must_stay_positive(mobius3):
    # z = exp(phi) keeps the factor positive by construction
    wz = WeylElement("x0")
    z, zeta = wz.at(mobius3.chart, POINT3, K)
    assert z[0] > 0.0
