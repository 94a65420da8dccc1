import dataclasses
import gc
import json
import weakref

import numpy as np
import pytest

from cartanweyl import brs, dressing, forms
from cartanweyl.brs import (ConformalBRS, GhostSpec, PoincareBRS,
                            algebraic_connection, linearization_check,
                            modified_brs_residuals, nilpotency_residuals,
                            residual_weyl_brs, russian_residual, two_steps_in_one,
                            _is_zero)
from cartanweyl.cartan import (KleinModel, VielbeinField, build_normal, curvature_form,
                               gauge_transform, random_gauge)
from cartanweyl.checks import BATCH_SIZE, DEFAULT_WEYL, PointContext, point_of, run_check
from cartanweyl.cli import main
from cartanweyl.dressing import full_pipeline
from cartanweyl.errors import JetOrderError, ShapeError
from cartanweyl.forms import MForm, gcomm
from cartanweyl.grassmann import GradedScalar
from cartanweyl.jets import space
from cartanweyl.reduction import worst_entry
from cartanweyl.scenarios import Scenario, catalog

import ghost_oracle
from conftest import POINT3
from entry_oracle import Jet, d, entry, from_entries, value_norm
from law_oracle import LAWS, law_rows
from linearization_oracle import full_order_linearization

K = 4


def eps_of(s):
    """The eps ghost field of a one-point ConformalBRS as a ghost-valued jet."""
    return entry(s.L_eps.value, 0, 0, 0)


def vary(s, t, sector="all"):
    """s_sector (summed over the sectors for "all") of the term ``t`` at full
    order; a structural zero reads 0.0."""
    return s.ev(s.stotal(t) if sector == "all" else s.s(t, sector))


GHOSTS = GhostSpec(eps="1/2 + x0/3 - x1*x2/5",
                   iota=["x1/2", "1/3 - x0/4", "x2/2 + 1/5"],
                   lorentz=["x0/2 + 1/6", "x1/3 - 1/7", "1/4 + x2/8"])


@pytest.fixture
def scrambled(mobius3, vielbein3, rng):
    conn0 = build_normal(vielbein3, mobius3, POINT3, K)
    ge = random_gauge(mobius3, rng)
    mats = ge.matrices(mobius3, POINT3, K)
    conn = gauge_transform(conn0, mats["gamma"], mats["gamma_inv"])
    return conn


@pytest.fixture
def scn(scrambled):
    return ConformalBRS(scrambled, None, GHOSTS, POINT3)


def test_flat_connection_zero_ghost_varies_trivially(mobius3, flat3):
    conn = build_normal(flat3, mobius3, POINT3, K)
    spec = GhostSpec(eps="0", iota=["0"] * 3, lorentz=["0"] * 3)
    s = ConformalBRS(conn, None, spec, POINT3)
    assert worst_entry(vary(s, s.L_varpi), ()) == 0.0


def test_undressed_russian_formula(scn):
    cache = {}
    A = scn.L_varpi.ev(cache)
    F = scn.T_omega.ev(cache)
    v = scn.T_v.ev(cache)
    sA = scn.stotal(scn.L_varpi).ev(cache)
    sv = scn.stotal(scn.T_v).ev(cache)
    r0, r1, r2 = (worst_entry(r, ()) for r in russian_residual(A, v, F, sA, sv))
    assert r0 < 1e-10 and r1 < 1e-10 and r2 < 1e-10


def test_russian_formula_with_zero_ghost(mobius3, vielbein3):
    """v = 0: the formula reduces to the structure equation F = dA + A^2."""
    conn = build_normal(vielbein3, mobius3, POINT3, K)
    spec = GhostSpec(eps="0", iota=["0"] * 3, lorentz=["0"] * 3)
    s = ConformalBRS(conn, None, spec, POINT3)
    cache = {}
    A = s.L_varpi.ev(cache)
    F = s.T_omega.ev(cache)
    v = s.T_v.ev(cache)
    sA = s.stotal(s.L_varpi).ev(cache)
    sv = s.stotal(s.T_v).ev(cache)
    assert worst_entry(russian_residual(A, v, F, sA, sv), ()) < 1e-12


def test_modified_russian_formula(scn):
    cache = {}
    A = scn.T_varpi0.ev(cache)
    F = scn.T_omega0.ev(cache)
    vt = scn.T_vhat
    v = vt.ev(cache)
    sA = scn.stotal(scn.T_varpi0).ev(cache)
    sv = scn.stotal(vt).ev(cache)
    r = russian_residual(A, v, F, sA, sv)
    assert worst_entry(r, ()) < 1e-10


def test_nilpotency_and_sector_split(scn):
    out = nilpotency_residuals(scn, {"varpi": scn.L_varpi, "v": scn.T_v, "u1": scn.T_u1,
                                     "u0": scn.T_u0, "u": scn.T_u, "Omega": scn.T_omega})
    for name, v in out.items():
        assert worst_entry(v, ()) < 1e-10, (name, v)


def test_first_composite_ghost(scn):
    v1 = scn.ev(scn.T_vhat1)
    assert (v1 - scn.expected_first_ghost()).value_norm() < 1e-12
    # the inversion slot (1,2) of v-hat_1 is deps . e^-1, not iota
    blk = scn.model.block(v1, 3, 1)
    assert blk.value_norm() == 0.0


def test_final_composite_ghost(scn):
    vW = scn.ev(scn.T_vhat)
    assert (vW - scn.expected_final_ghost).value_norm() < 1e-12


def test_composite_ghost_identity_dressing(scn):
    """u = 1 keeps the ghost: evaluate v-hat with the trivial dressing."""
    cache = {}
    eye = scn.T_one  # (1,1) identity leaf exists; build full identity instead
    v = scn.T_v.ev(cache)
    n = scn.model.n
    ident = MForm.identity(scn.m, n, scn.order)
    vhat = ident.wedge(v.wedge(ident))  # u^-1 v u with su = 0
    assert (vhat - v).value_norm() == 0.0


def test_u1_sector_rules(scn):
    cache = {}
    u1 = scn.T_u1.ev(cache)
    vi = scn.V["i"].ev(cache)
    vl = scn.V["L"].ev(cache)
    su1_i = vary(scn, scn.T_u1, "i")
    assert (su1_i + vi.wedge(u1)).value_norm() < 1e-13
    su1_L = vary(scn, scn.T_u1, "L")
    assert (su1_L - gcomm(u1, vl)).value_norm() < 1e-13
    # the Weyl image's (1,2) slot is -eps q + deps . e^-1
    su1_W = vary(scn, scn.T_u1, "W")
    blk = scn.model.block(su1_W, 1, 2)
    eps = eps_of(scn)
    einv = scn.einv
    q = scn.u1.q
    for a in range(scn.m):
        want = GradedScalar()
        want = want - (eps * Jet(scn.m, q.data[0, a, 0, :]))
        for mu in range(scn.m):
            want = want + d(eps, mu) * Jet(scn.m, einv[mu, a])
        assert value_norm(entry(blk, 0, a, 0) - want) < 1e-13


def test_u0_rules(scn):
    cache = {}
    u0 = scn.T_u0.ev(cache)
    m, n = scn.m, scn.model.n
    epst = scn.eps_eye(n, range(1, m + 1))
    assert (vary(scn, scn.T_u0, "W") - epst.wedge(u0)).value_norm() < 1e-13
    vl = scn.V["L"].ev(cache)
    assert (vary(scn, scn.T_u0, "L") + vl.wedge(u0)).value_norm() < 1e-13
    assert worst_entry(vary(scn, scn.T_u0, "i"), ()) == 0.0


def test_three_ghost_cases(scn):
    """Gauge-like, dressing-like, and mixed transformation laws of u1."""
    cache = {}
    u1 = scn.T_u1.ev(cache)
    u1inv = scn.T_u1inv.ev(cache)
    vl = scn.V["L"].ev(cache)
    vi = scn.V["i"].ev(cache)
    # case one: s_L u1 = [u1, v_L] keeps the Lorentz ghost unchanged
    su = vary(scn, scn.T_u1, "L")
    vhat = u1inv.wedge(vl.wedge(u1)) + u1inv.wedge(su)
    assert (vhat - vl).value_norm() < 1e-13
    # case two: s_i u1 = -v_i u1 erases the inversion ghost
    su = vary(scn, scn.T_u1, "i")
    vhat = u1inv.wedge(vi.wedge(u1)) + u1inv.wedge(su)
    assert vhat.value_norm() < 1e-13
    # case three: the full ghost leaves exactly the first composite ghost
    assert (scn.ev(scn.T_vhat1) - scn.expected_first_ghost()).value_norm() < 1e-12


def test_two_steps_in_one(scn):
    ell, rho, resid_dec, resid_ghost = two_steps_in_one(scn)
    assert worst_entry(resid_dec, ()) < 1e-12
    assert worst_entry(resid_ghost, ()) < 1e-12
    # ell is the erased-sector ghost matrix
    cache = {}
    want = scn.V["L"].ev(cache) + scn.V["i"].ev(cache)
    assert (ell - want).value_norm() == 0.0


def test_two_steps_pure_erased_sectors(scrambled):
    """v_W = 0: the composite ghost dies and su = -ell u."""
    spec = GhostSpec(eps="0", iota=GHOSTS.iota, lorentz=GHOSTS.lorentz)
    s = ConformalBRS(scrambled, None, spec, POINT3)
    vhat = s.ev(s.T_vhat)
    assert vhat.value_norm() < 1e-13
    ell, rho, resid_dec, _ = two_steps_in_one(s)
    assert rho.value_norm() == 0.0
    assert worst_entry(resid_dec, ()) < 1e-13


def test_modified_brs_lemma_both_stages(scn):
    for stage, terms in (("u1", (scn.T_varpi1, scn.T_omega1, scn.T_vhat1)),
                         ("full", (scn.T_varpi0, scn.T_omega0, scn.T_vhat))):
        rA, rF, rv = (worst_entry(r, ()) for r in modified_brs_residuals(scn, *terms))
        assert rA < 1e-10 and rF < 1e-10 and rv < 1e-10, stage


def test_residual_weyl_brs_components(scrambled, scn):
    fields = full_pipeline(scrambled)
    out = residual_weyl_brs(fields, scn)
    for name, v in out.items():
        assert worst_entry(v, ()) < 1e-10, name


def test_flat_christoffel_variation(mobius3, flat3):
    """Flat scenario: s_W Gamma = delta deps + delta deps - eta^-1 deps eta."""
    conn = build_normal(flat3, mobius3, POINT3, K)
    s = ConformalBRS(conn, None, GHOSTS, POINT3)
    fields = full_pipeline(conn)
    vhat = s.ev(s.T_vhat)
    s_varpi0 = (vhat.ext_d() + gcomm(fields.varpi0, vhat)).scale(-1.0)
    blk = s.model.block(s_varpi0, 2, 2)
    eps = eps_of(s)
    deps = [d(eps, mu) for mu in range(3)]
    eta = s.model.eta
    for r in range(3):
        for mu in range(3):
            for nu in range(3):
                want = GradedScalar()
                if r == nu:
                    want = want + deps[mu]
                if r == mu:
                    want = want + deps[nu]
                if mu == nu:
                    want = want - deps[r] * float(eta[r] * eta[mu])
                assert value_norm(entry(blk, r, nu, mu) - want) < 1e-13


def test_sector_triviality_after_full_dressing(scn):
    for x in ("L", "i"):
        t0 = scn.s(scn.T_varpi0, x)
        t1 = scn.s(scn.T_omega0, x)
        n0 = 0.0 if _is_zero(t0) else t0.ev({}).value_norm()
        n1 = 0.0 if _is_zero(t1) else t1.ev({}).value_norm()
        assert n0 < 1e-12 and n1 < 1e-12


def test_algebraic_connection(scrambled, scn):
    fields = full_pipeline(scrambled)
    vhat, entry_defect, rr = algebraic_connection(fields, scn)
    assert worst_entry(entry_defect, ()) < 1e-12
    assert worst_entry(rr, ()) < 1e-10


def test_algebraic_connection_flat(mobius3, flat3):
    """Flat, eps != 0: blocks are (eps, deps; dx, eps delta, eta^-1 deps^T;
    dx^T eta, -eps)."""
    conn = build_normal(flat3, mobius3, POINT3, K)
    s = ConformalBRS(conn, None, GHOSTS, POINT3)
    fields = full_pipeline(conn)
    vhat = s.ev(s.T_vhat)
    eps = eps_of(s)
    eta = s.model.eta
    m = 3
    blk = s.model.block(vhat, 1, 1)
    assert value_norm(entry(blk, 0, 0, 0) - eps) == 0.0
    blk = s.model.block(vhat, 2, 3)
    for r in range(m):
        want = d(eps, r) * float(eta[r])
        assert value_norm(entry(blk, r, 0, 0) - want) < 1e-14
    # eps = 0 reduces the algebraic connection to varpi0 itself
    spec0 = GhostSpec(eps="0", iota=["0"] * 3, lorentz=["0"] * 3)
    s0 = ConformalBRS(conn, None, spec0, POINT3)
    v0 = s0.ev(s0.T_vhat)
    assert v0.value_norm() == 0.0


def test_gr_composite_ghost_vanishes(poincare3, vielbein3):
    conn = build_normal(vielbein3, poincare3, POINT3, K)
    e = vielbein3.jets_at(POINT3, K)
    s = PoincareBRS(conn, e, GHOSTS.lorentz, POINT3)
    out = {k: worst_entry(v, ()) for k, v in s.residuals().items()}
    assert out["composite_ghost"] == 0.0
    assert out["su_rule"] == 0.0
    assert out["s_gamma_hat"] < 1e-12
    assert out["s_omega_hat"] < 1e-12
    assert out["s2_varpi"] < 1e-12


def test_linearization(mobius3, vielbein3):
    conn = build_normal(vielbein3, mobius3, POINT3, K)
    out = linearization_check(conn, vielbein3.jets_at(POINT3, K), mobius3,
                              "x0/4 - x1*x2/6", POINT3)
    for key in ("g", "Gamma", "P", "C", "W"):
        assert out[key] < 1e-6, (key, out[key])


def test_ds_plus_sd_vanishes(scn):
    """d and s anticommute on every field where both act."""
    from cartanweyl.brs import D
    for term in (scn.L_varpi, scn.T_u1, scn.T_v):
        lhs = scn.stotal(D(term))
        rhs = scn.stotal(term)
        # s(D t) + D(s t) must evaluate to zero
        cache = {}
        got = lhs.ev(cache) + rhs.ev(cache).ext_d()
        assert got.value_norm() < 1e-12


def test_ghost_degree_bookkeeping(scn):
    sv = vary(scn, scn.L_varpi)
    assert sv.q == 1 and sv.p == 1
    sO = vary(scn, scn.T_omega)
    assert sO.q == 1 and sO.p == 2
    vhat = scn.ev(scn.T_vhat)
    assert vhat.q == 1 and vhat.p == 0


def test_first_stage_weyl_brs_blocks(mobius3, vielbein3):
    """s_W of the first-stage pair matches the block matrices with the
    Lorentz ghost switched off: s_W theta = eps theta, s_W F1 = 0 (normal),
    s_W Pi1 = -eps Pi1 - (deps e^-1) F1."""
    conn = build_normal(vielbein3, mobius3, POINT3, K)
    s = ConformalBRS(conn, None, GHOSTS, POINT3)
    fields = full_pipeline(conn)
    sW_varpi1 = s.s(s.T_varpi1, "W").ev({})
    sW_omega1 = s.s(s.T_omega1, "W").ev({})
    m = 3
    eps = eps_of(s)
    # s_W theta = eps theta
    blk = s.model.block(sW_varpi1, 2, 1)
    th = s.model.block(fields.varpi1, 2, 1)
    for a in range(m):
        for mu in range(m):
            want = eps * Jet(m, th.data[a, 0, mu, :])
            assert value_norm(entry(blk, a, 0, mu) - want) < 1e-13
    # normal case: the middle curvature block is inert
    assert s.model.block(sW_omega1, 2, 2).value_norm() < 1e-12
    # s_W Pi1 = -eps Pi1 - (deps . e^-1) F1
    blk = s.model.block(sW_omega1, 1, 2)
    Pi1 = s.model.block(fields.Omega1, 1, 2)
    F1 = s.model.block(fields.Omega1, 2, 2)
    deps_row = [GradedScalar() for _ in range(m)]
    for b in range(m):
        for mu in range(m):
            acc = GradedScalar()
            for lam in range(m):
                acc = acc + d(eps, lam) * Jet(m, s.einv[lam, b])
            deps_row[b] = acc
    from cartanweyl.forms import form_comps
    for f, _ in enumerate(form_comps(m, 2)):
        for b in range(m):
            want = (eps * Jet(m, Pi1.data[0, b, f, :])) * -1.0
            for a in range(m):
                want = want - deps_row[a] * Jet(m, F1.data[a, b, f, :])
            assert value_norm(entry(blk, 0, b, f) - want) < 1e-12


def test_first_stage_sector_behavior(scn):
    """After u1: the inversion sector is erased while the Lorentz sector
    still acts as a gauge transformation: s_L varpi1 = -D1 v_L."""
    cache = {}
    t_i = scn.s(scn.T_varpi1, "i")
    n_i = 0.0 if _is_zero(t_i) else t_i.ev(cache).value_norm()
    assert n_i < 1e-12
    t_iO = scn.s(scn.T_omega1, "i")
    assert (0.0 if _is_zero(t_iO) else t_iO.ev(cache).value_norm()) < 1e-12
    sL = scn.s(scn.T_varpi1, "L").ev(cache)
    varpi1 = scn.T_varpi1.ev(cache)
    vl = scn.V["L"].ev(cache)
    want = (vl.ext_d() + gcomm(varpi1, vl)).scale(-1.0)
    assert (sL - want).value_norm() < 1e-12
    sLO = scn.s(scn.T_omega1, "L").ev(cache)
    omega1 = scn.T_omega1.ev(cache)
    assert (sLO - gcomm(omega1, vl)).value_norm() < 1e-12


def _second_reduction(s):
    """The first composite ghost dressed by u0: u0^-1 v-hat_1 u0 + u0^-1 s u0."""
    return brs._composite_ghost(s.T_u0, s.T_u0inv, s.T_vhat1, s.stotal(s.T_u0))


def test_second_reduction_chains_to_final_ghost(scn):
    """Dressing the first composite ghost by u0 gives the final ghost."""
    v0 = scn.ev(_second_reduction(scn))
    assert (v0 - scn.expected_final_ghost).value_norm() < 1e-12
    assert (v0 - scn.ev(scn.T_vhat)).value_norm() < 1e-12


# -- one evaluation context per point -------------------------------------------

def _generic_one_point():
    scn = catalog("generic", 3)
    scn.points = scn.points[:1]
    return scn


def _generic_brs():
    """The ConformalBRS of a one-point batch."""
    scn = _generic_one_point()
    model, vb = KleinModel(scn.model, scn.chart), VielbeinField(scn.chart, scn.vielbein)
    ctx = PointContext(scn, model, vb, 0, 1)
    g = scn.ghosts
    return ConformalBRS(*ctx.base, GhostSpec(g["eps"], g["iota"], g["lorentz"]), ctx.point)


def test_brs_suite_evaluates_each_node_once(monkeypatch):
    """Once per rising need: the point cache serves a lower or equal need by
    truncation and evaluates a node again only for a higher one."""
    needs = {}
    for cls in (brs.Leaf, brs.Sum, brs.Prod, brs.D, brs.EtaT, brs.Blk):
        def counted(self, cache, need, _orig=cls._ev):
            needs.setdefault(self, []).append(need)
            return _orig(self, cache, need)
        monkeypatch.setattr(cls, "_ev", counted)
    report = run_check(_generic_one_point(), "brs")
    assert report.passed and len(report.rows) == 51
    assert needs and all(ks == sorted(set(ks)) for ks in needs.values())


def test_composite_ghost_and_stotal_are_built_once():
    s = _generic_brs()
    vhat = s.T_vhat
    assert s.stotal(vhat) is s.stotal(vhat)
    assert _second_reduction(s).terms[0].b.a is s.T_vhat1


def _exact_terms(mform):
    r, c = mform.shape
    return [{k: x.coeffs.tolist() for k, x in entry(mform, i, j, f).terms.items()}
            for i in range(r) for j in range(c) for f in range(mform.n_comps)]


def test_shared_cache_matches_cold_evaluation():
    s = _generic_brs()
    modified_brs_residuals(s, s.T_varpi0, s.T_omega0, s.T_vhat)   # fill the shared cache first
    nilpotency_residuals(s, {"v": s.T_v, "u1": s.T_u1})
    vhat = s.T_vhat
    for t in (vhat, s.stotal(vhat)):
        warm, cold = s.ev(t), t.ev({})
        assert np.array_equal(warm.body().data, cold.body().data)
        assert _exact_terms(point_of(warm, 0)) == _exact_terms(point_of(cold, 0))


# -- reads at the jet order they need ---------------------------------------------

def _one_point_context(name, m):
    scn = catalog(name, m)
    scn.points = scn.points[:1]
    model, vb = KleinModel(scn.model, scn.chart), VielbeinField(scn.chart, scn.vielbein)
    return PointContext(scn, model, vb, 0, 1)


def _poincare_brs(ctx):
    lorentz = (ctx.scn.ghosts or {}).get("lorentz")
    return PoincareBRS(ctx.normal, ctx.e_normal, lorentz, ctx.point, ctx.seed)


def _record_reads(mp):
    """Patch both BRS classes to record (term, need, value) of every read."""
    reads = []
    for cls in (ConformalBRS, PoincareBRS):
        def ev(self, term, need=brs.FULL, _orig=cls.ev):
            out = _orig(self, term, need)
            reads.append((term, need, out))
            return out
        mp.setattr(cls, "ev", ev)
    return reads


def _record_leaf_values(mp):
    """Patch Leaf to record every instance with its value."""
    built = []

    def init(self, *args, _orig=brs.Leaf.__init__, **kwargs):
        _orig(self, *args, **kwargs)
        built.append((self, self.value))
    mp.setattr(brs.Leaf, "__init__", init)
    return built


@pytest.mark.parametrize("name,m", [("generic", 3), ("poincare", 3), ("poincare", 4),
                                    ("poincare", 5)], ids=lambda x: str(x))
def test_every_read_is_exact_at_its_need(name, m, monkeypatch):
    """Every read of the brs suite (with ``linearization_check``, or
    ``PoincareBRS.residuals``) is at its need and equals the same term
    evaluated at full order in a fresh cache, bit for bit at orders 0 and
    need; the run changes no Leaf value (a Blk takes its order from the
    read, so it has none to change)."""
    scn = catalog(name, m)
    scn.points = scn.points[:1]
    with monkeypatch.context() as mp:
        reads, built = _record_reads(mp), _record_leaf_values(mp)
        assert run_check(scn, "brs").passed
    assert {k for _, k, _ in reads} == ({0, 1} if name == "generic" else {0})
    for term, k, got in reads:
        want = term.ev({})
        assert got.order == k <= want.order
        for j in {0, k}:
            assert np.array_equal(got.truncate(j).data, want.truncate(j).data)
    assert built and all(t.value is v for t, v in built)


def test_brs_gr_products_run_at_order_two_at_most(monkeypatch):
    """At m = 4 and jet order 4 the connection and the ghosts are at order 3;
    the brs-gr rows read values, so no jet-matrix product of theirs runs
    above order 1 (the d of u^-1 du), where the same reads at full order run
    at 3."""
    ctx = _one_point_context("poincare", 4)
    ctx.normal
    e = ctx.vb.jets_at(ctx.point, 4)
    conn = build_normal(e, ctx.model, ctx.point, 4)
    assert conn.order == 3
    orders = []
    wedge = MForm.wedge

    def recorded(a, b):
        out = wedge(a, b)           # every jet-matrix product of a form
        orders.append(out.order)
        return out

    monkeypatch.setattr(MForm, "wedge", recorded)
    _poincare_brs(ctx).residuals()
    assert orders and max(orders) == 1
    orders.clear()
    # the same reads, each at full order, on the connection of order 3
    with monkeypatch.context() as mp:
        mp.setattr(PoincareBRS, "ev", lambda self, term, need=brs.FULL: term.ev(self.cache))
        PoincareBRS(conn, e, (ctx.scn.ghosts or {}).get("lorentz"), ctx.point,
                    ctx.seed).residuals()
    assert max(orders) == 3


@pytest.mark.parametrize("name,m,order", [("generic", 3, 4), ("torsionful", 3, 4),
                                          ("conformally-flat", 4, 6), ("generic", 5, 8)],
                         ids=lambda x: str(x))
def test_linearization_rows_equal_the_full_order_reference(name, m, order):
    """The value-order Weyl transforms and composite ghost give the rows of
    the full-order check bit for bit, and so does the check on the point
    context, built at the build order."""
    ctx = _one_point_context(name, m)
    point = ctx.point[0]
    e = ctx.vb.jets_at(point, order)
    conn = build_normal(e, ctx.model, point, order)
    rest = (ctx.model, ctx.scn.weyl or DEFAULT_WEYL)
    want = full_order_linearization(conn, e, *rest, point)
    assert linearization_check(conn, e, *rest, point) == want
    assert point_of(linearization_check(ctx.normal, ctx.e_normal, *rest, ctx.point), 0) == want
    assert max(want.values()) < 1e-6


def test_a_d_of_a_value_read_fails_loudly():
    """A term read as a value and then differentiated outside the DAG raises
    JetOrderError instead of passing."""
    s = _generic_brs()
    value = s.ev(s.L_varpi, 0)
    assert value.order == 0
    with pytest.raises(JetOrderError):
        curvature_form(value)


# -- planted defects in the ghost layer ------------------------------------------

def _commuting_generators(mp):
    orig = forms._merge_monomials

    def merge(a, b):
        merged = orig(a, b)
        return None if merged is None else (merged[0], 1.0)
    mp.setattr(forms, "_merge_monomials", merge)


def _flipped_koszul_sign(mp):
    orig = forms.wedge_plan

    def plan(m, p1, q1, p2, q2):
        pl = orig(m, p1, q1, p2, q2)
        if (p1 * q2) % 2:
            return forms.WedgePlan(m, pl.f1, pl.f2, -pl.sign, pl.n_left)
        return pl
    mp.setattr(forms, "wedge_plan", plan)


def _weight_row_off_one(mp):
    orig = brs._pool_weights

    def weights(seed, name, size, keep_body=False):
        w = orig(seed, name, size, keep_body)
        if name == "eps":
            w[0, 0] += 1e-3     # the body-keeping value row of eps sums to 1 + 1e-3
        return w
    mp.setattr(brs, "_pool_weights", weights)


def _kernel_triple(w, m, n, order):
    """(n, n) form (theta_0 - theta_1)(theta_2 - theta_3)(theta_4 - theta_5)
    at entry (0, 0), with theta_k sent to sum_j w[k, j] eta_j.

    Each factor's coefficients sum to 0, so the product lies in the third
    power of the kernel of theta -> 1.
    """
    def factor(k):
        d = w[2 * k] - w[2 * k + 1]
        return from_entries(m, (n, n), 0, 1, order, {(0, 0, 0): GradedScalar(
            {(j,): Jet.constant(float(d[j]), m, order) for j in range(forms.GHOST_POOL)})})
    return factor(0).wedge(factor(1)).wedge(factor(2))


def _kernel_degree_three_defect(mp):
    """s^2 v gains 1e-6 times the triple of eps's first six Taylor generators,
    projected with the scenario's own weights."""
    orig = brs.ConformalBRS.ev

    def ev(self, term, need=brs.FULL):
        out = orig(self, term, need)
        if term is self.stotal(self.stotal(self.T_v)):
            size = space(self.m, self.ghost_order).size
            triples = [_kernel_triple(brs._pool_weights(seed, "eps", size, self.keep_body),
                                      self.m, self.model.n, out.order).data
                       for seed in self.seeds]       # one per point of the batch
            out = out + MForm(out.m, out.shape, out.p, out.q, out.order,
                              np.stack(triples)).scale(1e-6)
        return out
    mp.setattr(brs.ConformalBRS, "ev", ev)


def _scaled_final_ghost(mp):
    orig = brs.ConformalBRS.expected_final_ghost
    mp.setattr(brs.ConformalBRS, "expected_final_ghost",
               property(lambda self: orig.func(self).scale(1 + 1e-6)))


def _ghost_derivative_off(mp):
    orig = brs._deps_form
    mp.setattr(brs, "_deps_form", lambda eps, m, order: orig(eps, m, order).scale(1 + 1e-6))


@pytest.mark.parametrize("plant", [_commuting_generators, _flipped_koszul_sign,
                                   _weight_row_off_one, _scaled_final_ghost,
                                   _ghost_derivative_off, _kernel_degree_three_defect],
                         ids=lambda f: f.__name__.strip("_"))
def test_planted_ghost_defect_fails_the_brs_suite(plant, tmp_path, monkeypatch, capsys):
    """Each defect, patched where its name is looked up, makes ``check
    --suite brs`` exit 1 on a one-point generic m = 3 scenario.

    A square of one generator (theta^2 != 0) is not among the defects: the
    dense layout cannot express it, since no ghost component has a repeated
    generator and wedge_plan has no entry for such a pair.
    """
    path = tmp_path / "one-point.json"
    path.write_text(_generic_one_point().to_json())
    argv = ["check", "--scenario", str(path), "--suite", "brs"]
    assert main(argv) == 0
    plans = forms.wedge_plan
    try:
        with monkeypatch.context() as mp:
            plant(mp)
            plans.cache_clear()     # plans are rebuilt with the seam patched
            assert main(argv) == 1
    finally:
        plans.cache_clear()
    assert "FAIL" in capsys.readouterr().out


def test_kernel_degree_three_products_survive_free_weights_only():
    """A product of three combinations whose coefficients sum to 0 projects
    to a nonzero form under the free weights, for every seed tried.  Rows
    tied to sum to 1 send each such combination into a 2-plane, so the
    product vanishes to rounding: that projection cannot see the defect."""
    for seed in [(s, i) for s in (0, 7, 911) for i in range(3)]:
        free = brs._pool_weights(seed, "eps", 6)
        tied = brs._pool_weights(seed, "eps", 6, keep_body=True)
        assert _kernel_triple(free, 3, 1, 2).value_norm() > 1e-2
        assert _kernel_triple(tied, 3, 1, 2).value_norm() < 1e-13


def test_suite_projects_freely_and_linearization_keeps_the_body(monkeypatch):
    """The suite's ghosts take the free weights; only the linearization's
    own scenario, which reads the body of degree-1 results, ties rows to 1."""
    built = []
    orig = brs.ConformalBRS.__init__

    def init(self, *args, **kwargs):
        orig(self, *args, **kwargs)
        built.append(self.keep_body)
    monkeypatch.setattr(brs.ConformalBRS, "__init__", init)
    assert run_check(_generic_one_point(), "brs").passed
    assert built == [False, True]


def test_ghosts_take_one_eval_jets_call_on_the_shared_pool(monkeypatch):
    """eps, iota and the Lorentz components are evaluated together, and each
    field's projection weights are seeded by name; the body-keeping rows are
    the free rows shifted to sum to 1."""
    calls = []
    orig = brs.eval_jets

    def counted(entries, *args):
        calls.append(len(entries))
        return orig(entries, *args)
    monkeypatch.setattr(brs, "eval_jets", counted)
    s = _generic_brs()
    assert calls == [1 + 3 + 3]
    assert len(s.pool) == forms.GHOST_POOL
    # one point, one jet per pool generator
    assert s.eps_jet.shape == (1, forms.GHOST_POOL, space(3, s.ghost_order).size)
    w = brs._pool_weights((7, 0), "eps", 20)
    tied = brs._pool_weights((7, 0), "eps", 20, keep_body=True)
    assert w.shape == tied.shape == (20, forms.GHOST_POOL)
    assert np.abs(tied.sum(axis=1) - 1.0).max() < 1e-15
    assert np.abs(w.sum(axis=1) - 1.0).min() > 1e-3
    assert np.abs(np.diff(tied - w, axis=1)).max() < 1e-15
    assert np.array_equal(w, brs._pool_weights((7, 0), "eps", 20))
    assert not np.array_equal(w, brs._pool_weights((7, 0), "iota0", 20))


def _generic_batch(count):
    """The generic m = 3 catalog scenario on ``count`` points."""
    scn = catalog("generic", 3)
    scn.points = [tuple(round(float(x), 6) for x in row)
                  for row in np.random.default_rng(17).uniform(-0.31, 0.31, size=(count, 3))]
    scn.validate()
    return scn


def test_ghost_seeds_come_one_per_point(scrambled):
    """A bare point seed at a lone point, or too few seeds for a batch, is
    refused, not shared by every point."""
    with pytest.raises(ShapeError, match="2 ghost seeds for 1 points"):
        ConformalBRS(scrambled, None, GHOSTS, POINT3, (7, 0))
    scn = _generic_batch(2)
    ctx = PointContext(scn, KleinModel(scn.model, scn.chart),
                       VielbeinField(scn.chart, scn.vielbein), 0, 2)
    g = scn.ghosts
    with pytest.raises(ShapeError, match="1 ghost seeds for 2 points"):
        ConformalBRS(*ctx.base, GhostSpec(g["eps"], g["iota"], g["lorentz"]), ctx.point,
                     ctx.seed[:1])


@pytest.mark.parametrize("keep_body", [False, True])
@pytest.mark.parametrize("points", [None, 3], ids=["lone-point", "3-point-batch"])
def test_dense_ghost_leaves_match_the_per_entry_oracle(points, keep_body):
    """The dense ghost leaves and the expected final ghost equal, bit for bit
    at each point, the per-entry GradedScalar builds of tests/ghost_oracle.py
    with that point's seed: at a lone point without a point axis and at each
    point of a batch."""
    scn = _generic_batch(points or 1)
    model, vb = KleinModel(scn.model, scn.chart), VielbeinField(scn.chart, scn.vielbein)
    ctx = PointContext(scn, model, vb, 0, len(scn.points))
    g = scn.ghosts
    spec = GhostSpec(g["eps"], g["iota"], g["lorentz"])
    if points is None:
        b = ConformalBRS(*point_of(ctx.base, 0), spec, ctx.point[0], ctx.seed[:1],
                         keep_body=keep_body)
    else:
        b = ConformalBRS(*ctx.base, spec, ctx.point, ctx.seed, keep_body=keep_body)
    m, order = b.m, b.ghost_order
    names = (["eps"] + [f"iota{a}" for a in range(m)]
             + [f"vl{a}{c}" for a, c in forms.form_comps(m, 2)])
    final = b.expected_final_ghost
    for i, (point, seed) in enumerate(zip(ctx.point, ctx.seed)):
        eps, *rest = ghost_oracle.ghost_jets([g["eps"]] + g["iota"] + g["lorentz"], names,
                                             scn.chart, point, order, seed, keep_body)
        want = {"L_eps": ghost_oracle.scalar_form(eps, m, order),
                "L_deps": ghost_oracle.deps_form(eps, m, order),
                "L_iota": ghost_oracle.row_form(rest[:m], m, order),
                "L_vl": ghost_oracle.lorentz_ghost(rest[m:], m, order, model.eta),
                "L_epsI_m": ghost_oracle.eps_eye(eps, m, m, order)}
        e = b.e if points is None else b.e[i]
        want["final"] = ghost_oracle.final_ghost(eps, e, model, order)
        got = {name: getattr(b, name).value for name in want if name != "final"}
        got["final"] = final
        for name, form in want.items():
            have = got[name] if points is None else point_of(got[name], i)
            assert have.lead == () and (have.shape, have.q, have.order) == (
                form.shape, form.q, form.order), name
            assert np.array_equal(have.data, form.data), name


@pytest.mark.parametrize("name, points", [("generic", 1), ("generic", 4), ("generic", 6),
                                          ("poincare", 1), ("poincare", 5)])
def test_each_batch_builds_its_brs_classes_once(name, points, monkeypatch):
    """A generic batch builds one ConformalBRS with free weights and one, the
    linearization's, that keeps the body; a Poincare batch one PoincareBRS;
    however many points the batch holds."""
    built = []
    for cls in (ConformalBRS, PoincareBRS):
        def init(self, *args, _orig=cls.__init__, **kwargs):
            _orig(self, *args, **kwargs)
            built.append((type(self).__name__, getattr(self, "keep_body", None),
                          len(args[3])))
        monkeypatch.setattr(cls, "__init__", init)
    scn = _generic_batch(points)
    if name == "poincare":
        scn = Scenario.from_dict({**catalog("poincare", 3).to_dict(), "points": scn.points})
    assert run_check(scn, "brs").passed
    sizes = [min(BATCH_SIZE, points - start) for start in range(0, points, BATCH_SIZE)]
    if name == "generic":
        want = [(cls, keep, n) for n in sizes for cls, keep in (("ConformalBRS", False),
                                                                 ("ConformalBRS", True))]
    else:
        want = [("PoincareBRS", None, n) for n in sizes]
    assert built == want


def test_dropping_a_brs_object_frees_its_term_graph(monkeypatch):
    """No term refers to the BRS object that owns its s-images, so the term
    graph is acyclic and reference counting frees it: with the collector
    off, no ghost field of a generic or a Poincare brs run is left, and a
    BRS object built outside any suite frees its leaf values once dropped."""
    fields = []
    for cls in (ConformalBRS, PoincareBRS):
        def init(self, *args, _orig=cls.__init__, **kwargs):
            _orig(self, *args, **kwargs)
            fields.append(weakref.ref(self.L_vl.value.data))
        monkeypatch.setattr(cls, "__init__", init)
    gc.collect()
    gc.disable()
    try:
        for scn in (_generic_one_point(), _one_point_context("poincare", 3).scn):
            assert run_check(scn, "brs").passed
        assert len(fields) == 3 and all(ref() is None for ref in fields)
        for build, term in ((_generic_brs, "T_v"),
                            (lambda: _poincare_brs(_one_point_context("poincare", 3)),
                             "L_varpi")):
            s = build()
            assert s.ev(s.stotal(getattr(s, term)), 0).value_norm() > 0
            leaves = [weakref.ref(t.value.data) for t in vars(s).values()
                      if isinstance(t, brs.Leaf)]
            del s
            assert len(leaves) >= 4 and all(ref() is None for ref in leaves)
    finally:
        gc.enable()


def test_a_term_no_sector_varies_has_a_zero_total_variation():
    """s of a constant leaf is Zero in each sector and summed over them, so
    it reads as a structural zero rather than an empty Sum."""
    s = _generic_brs()
    assert all(_is_zero(s.s(s.T_one, x)) for x in brs.SECTORS)
    assert _is_zero(s.stotal(s.T_one))
    assert _is_zero(s.ssum(s.T_one, ("L", "i")))


def test_a_composite_no_child_varies_has_a_zero_image():
    """Sum, Prod, D, EtaT and Blk vary to a Zero of their degrees and shape,
    built once per sector, whenever no child varies; the Zero reads 0.0.
    With one child varying, a Prod keeps only the side whose image is not
    Zero."""
    s = _generic_brs()
    one, eye = s.T_one, s.T_eye         # leaves with no registered image
    terms = (brs.Sum([one, one], [1.0, -2.0]), brs.Prod(one, one), brs.D(one),
             brs.EtaT(one, s.model.eta), brs.Blk([[one, None], [None, eye]]))
    for t in terms:
        for x in brs.SECTORS:
            z = s.s(t, x)
            assert type(z) is brs.Zero, (t, x)
            assert (z.p, z.q, z.shape) == (t.p, t.q + 1, t.shape)
            assert s.s(t, x) is z
            assert s.ev(z) == 0.0 and s.ev(z, 0) == 0.0
    sq = s.s(brs.Prod(one, s.L_q), "W")
    assert type(sq) is brs.Sum and sq.coeffs == [1.0]
    assert sq.terms[0].a is one and sq.terms[0].b is s.s(s.L_q, "W")


# -- the reduced Weyl laws: dense closed forms against the per-entry oracle ----

LAW_SCENARIOS = [("generic", 3), ("generic", 4), ("generic", 5), ("torsionful", 3),
                 ("torsionful", 4), ("conformally-flat", 3), ("constant-curvature", 4)]


def _law_brs(name, m):
    """(fields, ConformalBRS) of the first point, without a point axis."""
    ctx = _one_point_context(name, m)
    g = ctx.scn.ghosts
    b = ConformalBRS(*point_of(ctx.base, 0), GhostSpec(g["eps"], g["iota"], g["lorentz"]),
                     ctx.point[0], ctx.seed[:1])
    return point_of(ctx.fields, 0), b


def _off_by_noise(fields, rng):
    """The dressed tensors the laws read, each moved by about 1e-3."""
    m = fields.g.shape[0]
    g = fields.g.copy()
    dg = rng.normal(size=(m, m)) * 1e-3
    g[..., 0] += dg + dg.T
    moved = {k: getattr(fields, k) + rng.normal(size=getattr(fields, k).shape) * 1e-3
             for k in ("Gamma", "T", "f0", "W")}
    return dataclasses.replace(fields, g=g, **moved)


@pytest.mark.parametrize("name,m", LAW_SCENARIOS, ids=lambda x: str(x))
def test_dense_weyl_laws_match_the_per_entry_oracle(name, m):
    """On the scenario's own tensors every law row is rounding, and with the
    tensors moved by 1e-3 every row is about 1e-3: both times the dense rows
    equal the per-entry GradedScalar rows to 1e-15."""
    fields, b = _law_brs(name, m)
    moved = _off_by_noise(fields, np.random.default_rng(m))
    for f in (fields, moved):
        got = {k: worst_entry(v, ()) for k, v in brs.residual_weyl_brs(f, b).items()}
        want = law_rows(f, b)
        for row in LAWS:
            assert abs(got[row] - want[row]) <= 1e-15, (row, got[row], want[row])
    assert min(got[row] for row in LAWS) > 1e-5


def test_residual_weyl_brs_makes_no_grassmann_product(monkeypatch):
    fields, b = _law_brs("generic", 3)
    calls = []
    orig = GradedScalar.__mul__

    def counted(self, other):
        calls.append(1)
        return orig(self, other)
    monkeypatch.setattr(GradedScalar, "__mul__", counted)
    monkeypatch.setattr(GradedScalar, "__rmul__", counted)
    rows = brs.residual_weyl_brs(fields, b)
    assert calls == [] and len(rows) == 9
    law_rows(fields, b)             # the counter does see per-entry products
    assert calls


def test_expected_final_ghost_is_built_once_per_point(monkeypatch):
    """final_ghost, two_steps_ghost and algebraic_connection_entries share it;
    only its build reads the metric of the vielbein in brs."""
    built = []
    orig = brs.metric_from_vielbein

    def counted(*args):
        built.append(args)
        return orig(*args)
    monkeypatch.setattr(brs, "metric_from_vielbein", counted)
    assert run_check(_generic_one_point(), "brs").passed
    assert len(built) == 1


def _vielbein_weyl_weight_off(mp):
    """s_W e = (1 + 1e-6) eps e and s_W e^-1 to match: a Weyl weight off 1."""
    orig = brs.ConformalBRS._register_images

    def register(self):
        orig(self)
        for t in (self.L_e, self.L_einv):
            self.register(t, "W", brs.Sum([self.images[t, "W"]], [1 + 1e-6]))
    mp.setattr(brs.ConformalBRS, "_register_images", register)


def _dressed_tensor_off(name):
    """Defect: the dressing reads the tensor ``name`` 1e-6 too large."""
    keys = ("g", "Gamma", "P", "T", "f0", "C", "W")

    def plant(mp):
        orig = dressing.extract_tensors

        def extract(*args):
            out = list(orig(*args))
            out[keys.index(name)] = out[keys.index(name)] * (1 + 1e-6)
            return tuple(out)
        mp.setattr(dressing, "extract_tensors", extract)
    plant.__name__ = f"{name}_read_off"
    return plant


@pytest.mark.parametrize("plant,name,killed", [
    (_vielbein_weyl_weight_off, "generic",
     {"s_w_metric", "s_w_gamma", "s_w_schouten", "s_w_vhat_23"}),
    (_ghost_derivative_off, "generic", {"s_w_gamma", "s_w_schouten", "s_w_vhat_23"}),
    # generic has T = f0 = 0 to rounding, so only a torsionful point sees these
    (_dressed_tensor_off("T"), "torsionful", {"s_w_weyl"}),
    (_dressed_tensor_off("f0"), "torsionful", {"s_w_cotton"}),
], ids=["vielbein_weyl_weight_off", "ghost_derivative_off", "T_read_off", "f0_read_off"])
def test_planted_defect_fails_the_weyl_laws(plant, name, killed, tmp_path, monkeypatch):
    """Each law row fails under a defect of the program side it checks: a
    BRS image, the ghost derivative or the dressing's tensor read-out."""
    scn = catalog(name, 3)
    scn.points = scn.points[:1]
    path, out = tmp_path / "one-point.json", tmp_path / "report.json"
    path.write_text(scn.to_json())
    argv = ["check", "--scenario", str(path), "--suite", "brs", "--json", str(out)]
    with monkeypatch.context() as mp:
        plant(mp)
        assert main(argv) == 1
    rows = json.loads(out.read_text())["payload"]["checks"]
    failed = {r["name"][len("brs/"):] for r in rows if not r["pass"]}
    assert killed <= failed
    if name == "torsionful":
        assert failed == killed
