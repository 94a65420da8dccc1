"""The core identities at chart dimensions beyond three."""

import numpy as np
import pytest

from cartanweyl.brs import (ConformalBRS, GhostSpec, modified_brs_residuals,
                            nilpotency_residuals, russian_residual)
from cartanweyl.cartan import (KleinModel, VielbeinField, build_normal, curvature,
                               gauge_transform, random_gauge)
from cartanweyl.dressing import dressed_normality, full_pipeline
from cartanweyl.forms import gcomm
from cartanweyl.jets import Chart
from cartanweyl.reduction import worst_entry
from cartanweyl.tensors import classical_bundle, jeinsum
from cartanweyl.weyl import (WeylElement, closed_form_laws, weyl_matrices,
                             weyl_transform_dressed)

from conftest import single_step_residual


def _setup(m, order=4):
    ch = Chart(m)
    model = KleinModel("mobius", ch)
    diag = [f"1 + x{(i + 1) % m}^2/{2 + i}" for i in range(m)]
    vb = VielbeinField(ch, [[diag[i] if i == j else "0" for j in range(m)]
                            for i in range(m)])
    pt = tuple(0.12 + 0.05 * i for i in range(m))
    return ch, model, vb, pt


@pytest.mark.parametrize("m", [4, 5])
def test_pipeline_oracle_and_normality(m):
    ch, model, vb, pt = _setup(m)
    conn = build_normal(vb, model, pt, 4)
    e = vb.jets_at(pt, 4)
    f = full_pipeline(conn, e)
    B = classical_bundle(e, ch.signature, m)
    assert np.abs(f.Gamma[..., 0] - B["Gamma"][..., 0]).max() < 1e-10
    assert np.abs(f.P[..., 0] - B["P"][..., 0]).max() < 1e-10
    assert np.abs(f.W - B["W"][..., 0]).max() < 1e-9
    assert np.abs(f.C - B["C"][..., 0]).max() < 1e-9
    assert worst_entry(dressed_normality(f), ()) < 1e-10
    assert worst_entry(single_step_residual(conn, f), ()) < 1e-11


@pytest.mark.parametrize("m", [4, 5])
def test_scramble_invariance(m, rng):
    ch, model, vb, pt = _setup(m)
    conn = build_normal(vb, model, pt, 4)
    e = vb.jets_at(pt, 4)
    ref = full_pipeline(conn, e)
    ge = random_gauge(model, rng, with_z=False)
    mats = ge.matrices(model, pt, 4)
    conn_g = gauge_transform(conn, mats["gamma"], mats["gamma_inv"])
    eS = jeinsum("ab,bm->am", mats["Sinv"], e, m)
    fg = full_pipeline(conn_g, eS)
    assert (ref.varpi0 - fg.varpi0).value_norm() < 1e-10
    assert (ref.Omega0 - fg.Omega0).value_norm() < 1e-10


@pytest.mark.parametrize("m", [4])
def test_weyl_routes(m):
    ch, model, vb, pt = _setup(m)
    conn = build_normal(vb, model, pt, 4)
    e = vb.jets_at(pt, 4)
    f = full_pipeline(conn, e)
    z, zeta = WeylElement("x0/5 - x1*x3/7").at(ch, pt, 4)
    stW = weyl_transform_dressed(f, weyl_matrices(model, z, zeta, f.u0))
    laws = closed_form_laws(f, z, zeta)
    for key, got in (("g", stW.g[..., 0]), ("Gamma", stW.Gamma[..., 0]),
                     ("P", stW.P[..., 0]), ("W", stW.W), ("C", stW.C)):
        assert np.abs(got - laws[key]).max() < 1e-10, key
    # the genuinely four-dimensional statement: W is nonzero yet inert
    assert np.abs(f.W).max() > 1e-4
    assert np.abs(stW.W - f.W).max() < 1e-11


@pytest.mark.parametrize("m", [4, 5])
def test_bianchi_and_brs(m, rng):
    ch, model, vb, pt = _setup(m)
    conn0 = build_normal(vb, model, pt, 4)
    ge = random_gauge(model, rng)
    mats = ge.matrices(model, pt, 4)
    conn = gauge_transform(conn0, mats["gamma"], mats["gamma_inv"])
    Om = curvature(conn)
    assert (Om.ext_d() + gcomm(conn.omega.truncate(Om.order), Om)).value_norm() < 1e-10
    pairs = m * (m - 1) // 2
    spec = GhostSpec(eps="1/2 + x0/3 - x1*x2/5",
                     iota=[f"1/{2 + a} + x{a}/4" for a in range(m)],
                     lorentz=[f"1/{3 + k} + x{k % m}/5" for k in range(pairs)])
    b = ConformalBRS(conn, None, spec, pt)
    cache = {}
    r = russian_residual(b.L_varpi.ev(cache), b.T_v.ev(cache),
                         b.T_omega.ev(cache),
                         b.stotal(b.L_varpi).ev(cache),
                         b.stotal(b.T_v).ev(cache))
    assert worst_entry(r, ()) < 1e-10
    nil = nilpotency_residuals(b, {"varpi": b.L_varpi, "v": b.T_v})
    assert worst_entry(tuple(nil.values()), ()) < 1e-10
    assert (b.ev(b.T_vhat) - b.expected_final_ghost).value_norm() < 1e-11
    lem = modified_brs_residuals(b, b.T_varpi0, b.T_omega0, b.T_vhat)
    assert worst_entry(lem, ()) < 1e-10


def test_higher_jet_order_headroom():
    """Order six keeps every residual at rounding level (headroom check)."""
    ch, model, vb, pt = _setup(3, order=6)
    conn = build_normal(vb, model, pt, 6)
    e = vb.jets_at(pt, 6)
    f = full_pipeline(conn, e)
    Om = curvature(conn)
    assert (Om.ext_d() + gcomm(conn.omega.truncate(Om.order), Om)).value_norm() < 1e-12
    assert worst_entry(dressed_normality(f), ()) < 1e-11
    B = classical_bundle(e, ch.signature, 3)
    assert np.abs(f.P[..., 0] - B["P"][..., 0]).max() < 1e-11


def test_euclidean_signature():
    """Nothing pins the Lorentzian signature; all-plus charts work too."""
    m = 3
    ch = Chart(m, signature=(1, 1, 1))
    model = KleinModel("mobius", ch)
    vb = VielbeinField(ch, [["1 + x1^2/3", "0", "0"],
                            ["0", "1 + x2^2/4", "0"],
                            ["0", "0", "1 + x0^2/5"]])
    pt = (0.2, -0.3, 0.4)
    conn = build_normal(vb, model, pt, 4)
    e = vb.jets_at(pt, 4)
    f = full_pipeline(conn, e)
    assert worst_entry(dressed_normality(f), ()) < 1e-12
    B = classical_bundle(e, ch.signature, m)
    assert np.abs(f.P[..., 0] - B["P"][..., 0]).max() < 1e-11
    z, zeta = WeylElement("x0/5").at(ch, pt, 4)
    stW = weyl_transform_dressed(f, weyl_matrices(model, z, zeta, f.u0))
    laws = closed_form_laws(f, z, zeta)
    assert np.abs(stW.P[..., 0] - laws["P"]).max() < 1e-11
