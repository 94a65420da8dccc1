"""Acceptance criteria, one test per criterion, run at the stated tolerances.

Each test prints a single PASS/FAIL line (visible with pytest -s or in the
captured output of a failing run) so the suite doubles as a checklist.
"""

import json
import time

import numpy as np

from cartanweyl.brs import (ConformalBRS, GhostSpec, PoincareBRS, linearization_check,
                            nilpotency_residuals, russian_residual)
from cartanweyl.cartan import (KleinModel, VielbeinField, build_normal, curvature,
                               gauge_transform, random_gauge)
from cartanweyl.checks import PointContext, dof_report, point_of, run_check
from cartanweyl.dressing import dressed_normality, full_pipeline
from cartanweyl.forms import gcomm
from cartanweyl.jets import Chart
from cartanweyl.orders import order_plan
from cartanweyl.reduction import worst_entry
from cartanweyl.scenarios import catalog
from cartanweyl.tensors import classical_bundle, jeinsum
from cartanweyl.weyl import (WeylElement, closed_form_laws, weyl_group_law_residual,
                             weyl_matrices, weyl_transform_dressed)

# The jet order the routes below build at: the Moebius build order, and
# every value they read is the same at any higher order.
PLAN = order_plan("mobius")
ORDER = PLAN.build
GHOSTS3 = GhostSpec(eps="1/2 + x0/3 - x1*x2/5",
                    iota=["x1/2", "1/3 - x0/4", "x2/2 + 1/5"],
                    lorentz=["x0/2 + 1/6", "x1/3 - 1/7", "1/4 + x2/8"])


def _verdict(num, label, residual, threshold):
    status = "PASS" if residual <= threshold else "FAIL"
    print(f"[{status}] criterion {num} ({label}): "
          f"max residual {residual:.3e} <= {threshold:.1e}")
    assert residual <= threshold, f"criterion {num}: {residual} > {threshold}"


def _diag_vielbein(m):
    ch = Chart(m)
    diag = [f"1 + x{(i + 1) % m}^2/{2 + i}" for i in range(m)]
    vb = VielbeinField(ch, [[diag[i] if i == j else "0" for j in range(m)]
                            for i in range(m)])
    return ch, vb


def test_criterion_1_gauge_invariance_of_composites():
    """20 seeded scrambles per dimension leave (varpi0, Omega0) unchanged."""
    t0 = time.perf_counter()
    worst = 0.0
    for m in (3, 4, 5):
        ch, vb = _diag_vielbein(m)
        model = KleinModel("mobius", ch)
        pt = tuple(0.1 + 0.05 * i for i in range(m))
        conn = build_normal(vb, model, pt, ORDER)
        e = vb.jets_at(pt, ORDER)
        ref = full_pipeline(conn, e)
        scale = max(1.0, ref.varpi0.full_norm(), ref.Omega0.full_norm())
        rng = np.random.default_rng(m)
        for _ in range(20):
            ge = random_gauge(model, rng, with_z=False)
            mats = ge.matrices(model, pt, ORDER)
            conn_g = gauge_transform(conn, mats["gamma"], mats["gamma_inv"])
            eS = jeinsum("ab,bm->am", mats["Sinv"], e, m)
            fg = full_pipeline(conn_g, eS)
            worst = max(worst,
                        (ref.varpi0 - fg.varpi0).value_norm() / scale,
                        (ref.Omega0 - fg.Omega0).value_norm() / scale)
    elapsed = time.perf_counter() - t0
    print(f"    (60 scrambles across m=3,4,5 in {elapsed:.2f}s)")
    assert elapsed < 10.0
    _verdict(1, "gauge invariance", worst, 1e-9)


def test_criterion_2_riemannian_parametrization_oracle():
    """Pipeline tensors equal the classical tensor-calculus oracle."""
    worst = 0.0
    for name in ("diag-poly", "conformally-flat", "constant-curvature",
                 "ricci-flat-m4"):
        scn = catalog(name, 4 if name == "ricci-flat-m4" else 3)
        model = KleinModel(scn.model, scn.chart)
        vb = VielbeinField(scn.chart, scn.vielbein)
        for pt in scn.points:
            conn = build_normal(vb, model, pt, ORDER)
            e = vb.jets_at(pt, ORDER)
            f = full_pipeline(conn, e)
            B = classical_bundle(e, scn.signature, model.m)
            worst = max(
                worst,
                float(np.abs(f.Gamma[..., 0] - B["Gamma"][..., 0]).max()),
                float(np.abs(f.P[..., 0] - B["P"][..., 0]).max()),
                float(np.abs(f.C - B["C"][..., 0]).max()),
                float(np.abs(f.W - B["W"][..., 0]).max()))
    _verdict(2, "Riemannian parametrization vs oracle", worst, 1e-8)


def test_criterion_3_normality():
    """T = 0, f0 = 0, Ric(W) = 0 for pipeline outputs, before and after
    finite Weyl transforms."""
    worst = 0.0
    for name in ("diag-poly", "constant-curvature", "ricci-flat-m4"):
        scn = catalog(name, 4 if name == "ricci-flat-m4" else 3)
        model = KleinModel(scn.model, scn.chart)
        vb = VielbeinField(scn.chart, scn.vielbein)
        wz = WeylElement(scn.weyl)
        for pt in scn.points:
            conn = build_normal(vb, model, pt, ORDER)
            f = full_pipeline(conn, vb.jets_at(pt, ORDER))
            worst = max(worst, worst_entry(dressed_normality(f), ()))
            z, zeta = wz.at(scn.chart, pt, ORDER)
            stW = weyl_transform_dressed(f, weyl_matrices(model, z, zeta, f.u0))
            worst = max(worst,
                        float(np.abs(stW.T).max()),
                        float(np.abs(np.einsum("anas->ns", stW.W)).max()),
                        float(np.abs(stW.f0).max()))
    _verdict(3, "normality incl. Weyl transforms", worst, 1e-9)


def _route_defect(stW, f2):
    """Largest value defect between the conjugation route and recomputation."""
    return max(float(np.abs(got - ref).max())
               for got, ref in ((stW.g[..., 0], f2.g[..., 0]),
                                (stW.Gamma[..., 0], f2.Gamma[..., 0]),
                                (stW.P[..., 0], f2.P[..., 0]), (stW.T, f2.T),
                                (stW.f0, f2.f0), (stW.C, f2.C), (stW.W, f2.W)))


def test_criterion_4_finite_weyl_laws():
    """Conjugation = closed-form blocks = recomputation, per tensor; the
    identity rescaling moves nothing on either route."""
    worst_routes = 0.0
    worst_winv = 0.0
    worst_identity = 0.0
    # normal scenarios: all three routes
    for name in ("diag-poly", "constant-curvature"):
        scn = catalog(name, 3)
        model = KleinModel(scn.model, scn.chart)
        vb = VielbeinField(scn.chart, scn.vielbein)
        wz = WeylElement(scn.weyl)
        for pt in scn.points:
            conn = build_normal(vb, model, pt, ORDER)
            e = vb.jets_at(pt, ORDER)
            f = full_pipeline(conn, e)
            z, zeta = wz.at(scn.chart, pt, ORDER)
            stW = weyl_transform_dressed(f, weyl_matrices(model, z, zeta, f.u0))
            laws = closed_form_laws(f, z, zeta)
            f2 = full_pipeline(build_normal(stW.e, model, pt, ORDER), stW.e)
            for key, got in (("g", stW.g[..., 0]), ("Gamma", stW.Gamma[..., 0]),
                             ("P", stW.P[..., 0]), ("T", stW.T),
                             ("f0", stW.f0), ("W", stW.W), ("C", stW.C)):
                worst_routes = max(worst_routes, float(np.abs(got - laws[key]).max()))
            worst_routes = max(worst_routes, _route_defect(stW, f2))
            worst_winv = max(worst_winv, float(np.abs(stW.W - f.W).max()))
            # phi = 0: both routes give back the untransformed tensors
            z0, zeta0 = WeylElement("0").at(scn.chart, pt, ORDER)
            st0 = weyl_transform_dressed(f, weyl_matrices(model, z0, zeta0, f.u0))
            f_id = full_pipeline(build_normal(st0.e, model, pt, ORDER), st0.e)
            worst_identity = max(worst_identity, _route_defect(st0, f_id),
                                 _route_defect(st0, f))
    # torsionful scenario: the general component laws
    scn = catalog("torsionful", 3)
    model = KleinModel(scn.model, scn.chart)
    vb = VielbeinField(scn.chart, scn.vielbein)
    wz = WeylElement(scn.weyl)
    for idx, pt in enumerate(scn.points):
        conn, e_full = point_of(PointContext(scn, model, vb, idx, idx + 1).base, 0)
        f = full_pipeline(conn, e_full)
        assert np.abs(f.T).max() > 1e-3
        z, zeta = wz.at(scn.chart, pt, ORDER)
        stW = weyl_transform_dressed(f, weyl_matrices(model, z, zeta, f.u0))
        laws = closed_form_laws(f, z, zeta)
        for key, got in (("g", stW.g[..., 0]), ("Gamma", stW.Gamma[..., 0]),
                         ("P", stW.P[..., 0]), ("T", stW.T), ("f0", stW.f0),
                         ("W", stW.W), ("C", stW.C)):
            worst_routes = max(worst_routes, float(np.abs(got - laws[key]).max()))
    _verdict(4, "finite Weyl transformation laws", worst_routes, 1e-8)
    _verdict(4, "Weyl tensor invariance", worst_winv, 1e-9)
    _verdict(4, "identity rescaling", worst_identity, 1e-12)


def test_criterion_5_weyl_group_law():
    worst = 0.0
    for name in ("diag-poly", "conformally-flat"):
        scn = catalog(name, 3)
        model = KleinModel(scn.model, scn.chart)
        vb = VielbeinField(scn.chart, scn.vielbein)
        for pt in scn.points:
            conn = build_normal(vb, model, pt, ORDER)
            f = full_pipeline(conn, vb.jets_at(pt, ORDER))
            first = WeylElement("x0/4 - x1*x2/6").at(scn.chart, pt, ORDER)
            moved = weyl_transform_dressed(f, weyl_matrices(model, *first, f.u0))
            res = weyl_group_law_residual(
                f, moved, first, WeylElement("x1/5 + x0*x0/10").at(scn.chart, pt, ORDER),
                PLAN.group_law)
            worst = max(worst, worst_entry(res, ()))
    _verdict(5, "Weyl group law", worst, 1e-9)


def test_criterion_6_brs():
    scn = catalog("generic", 3)
    model = KleinModel(scn.model, scn.chart)
    vb = VielbeinField(scn.chart, scn.vielbein)
    worst_russe = 0.0
    worst_nilp = 0.0
    worst_ghost = 0.0
    for idx, pt in enumerate(scn.points):
        conn, e_full = point_of(PointContext(scn, model, vb, idx, idx + 1).base, 0)
        b = ConformalBRS(conn, e_full, GHOSTS3, pt)
        cache = {}
        A = b.L_varpi.ev(cache)
        F = b.T_omega.ev(cache)
        v = b.T_v.ev(cache)
        worst_russe = max(worst_russe, worst_entry(russian_residual(
            A, v, F, b.stotal(b.L_varpi).ev(cache), b.stotal(b.T_v).ev(cache)), ()))
        vt = b.T_vhat
        worst_russe = max(worst_russe, worst_entry(russian_residual(
            b.T_varpi0.ev(cache), vt.ev(cache), b.T_omega0.ev(cache),
            b.stotal(b.T_varpi0).ev(cache), b.stotal(vt).ev(cache)), ()))
        nil = nilpotency_residuals(b, {"varpi": b.L_varpi, "Omega": b.T_omega, "v": b.T_v,
                                       "u1": b.T_u1, "u0": b.T_u0})
        worst_nilp = max(worst_nilp, worst_entry(tuple(nil.values()), ()))
        worst_ghost = max(
            worst_ghost,
            (b.ev(b.T_vhat1) - b.expected_first_ghost()).value_norm(),
            (b.ev(b.T_vhat) - b.expected_final_ghost).value_norm())
    # GR: the composite ghost vanishes exactly
    ch, vbgr = _diag_vielbein(3)
    pmodel = KleinModel("poincare", ch)
    pt = (0.15, 0.2, 0.25)
    conn = build_normal(vbgr, pmodel, pt, 4)
    pb = PoincareBRS(conn, vbgr.jets_at(pt, 4), GHOSTS3.lorentz, pt)
    gr_ghost = worst_entry(pb.residuals()["composite_ghost"], ())
    _verdict(6, "Russian formulas", worst_russe, 1e-10)
    _verdict(6, "nilpotency and sector split", worst_nilp, 1e-10)
    _verdict(6, "composite ghosts entrywise", worst_ghost, 1e-10)
    print(f"    (GR composite ghost norm = {gr_ghost})")
    assert gr_ghost == 0.0


def test_criterion_7_linearization():
    scn = catalog("diag-poly", 3)
    model = KleinModel(scn.model, scn.chart)
    vb = VielbeinField(scn.chart, scn.vielbein)
    pt = scn.points[0]
    conn = build_normal(vb, model, pt, ORDER)
    out = linearization_check(conn, vb.jets_at(pt, ORDER), model, scn.weyl, pt)
    worst = max(out.values())
    _verdict(7, "finite vs BRS derivative (g, Gamma, P, C, W)", worst, 1e-6)


def test_criterion_8_dof_accounting():
    ok = True
    for m in range(3, 9):
        table = dof_report(m)
        want = m * (m + 1) // 2 - 1
        ok = ok and table["columns_agree"] and table["starting"]["total"] == want
    table4 = dof_report(4)
    exact = (table4["starting"]["variables"] == 60
             and table4["starting"]["symmetries"] == 11
             and table4["starting"]["constraints"] == {"torsion": 24, "ricci": 10,
                                                       "trace": 6}
             and table4["starting"]["total"] == 9
             and table4["outcoming"]["total"] == 9)
    status = "PASS" if ok and exact else "FAIL"
    print(f"[{status}] criterion 8 (degrees-of-freedom table, m=3..8, integers)")
    assert ok and exact


def test_criterion_9_bianchi():
    worst = 0.0
    worst_f = 0.0
    for name in ("flat", "diag-poly", "constant-curvature", "ricci-flat-m4",
                 "generic", "torsionful"):
        scn = catalog(name, 4 if name == "ricci-flat-m4" else 3)
        model = KleinModel(scn.model, scn.chart)
        vb = VielbeinField(scn.chart, scn.vielbein)
        for idx, pt in enumerate(scn.points):
            conn, _ = point_of(PointContext(scn, model, vb, idx, idx + 1).base, 0)
            Om = curvature(conn).omega2
            res = Om.ext_d() + gcomm(conn.omega.truncate(Om.order), Om)
            scale = max(1.0, Om.full_norm())
            worst = max(worst, res.value_norm() / scale)
            if scn.normal and not scn.gauge:
                # the trace block vanishes as a Bianchi consequence
                worst_f = max(worst_f, curvature(conn).f().value_norm())
    _verdict(9, "Bianchi identity", worst, 1e-10)
    _verdict(9, "trace block vanishes on normal inputs", worst_f, 1e-10)


def test_criterion_10_determinism():
    blobs = []
    for _ in range(2):
        rep = run_check(catalog("generic", 3), "dressing")
        blobs.append(json.dumps(rep.payload(), sort_keys=True).encode())
    ok = blobs[0] == blobs[1]
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion 10 (byte-identical report payloads)")
    assert ok
