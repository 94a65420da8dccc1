import numpy as np
import pytest

from cartanweyl import brs, forms
from cartanweyl.brs import (ConformalBRS, GhostSpec, PoincareBRS,
                            algebraic_connection, brs_vary, composite_ghost,
                            linearization_check, modified_brs_residuals,
                            nilpotency_residuals, residual_weyl_brs,
                            russian_residual, two_steps_in_one, _is_zero)
from cartanweyl.cartan import (KleinModel, VielbeinField, build_normal, gauge_transform,
                               random_gauge)
from cartanweyl.checks import PointContext, run_check
from cartanweyl.cli import main
from cartanweyl.dressing import full_pipeline
from cartanweyl.forms import MForm, gcomm
from cartanweyl.grassmann import GradedScalar
from cartanweyl.jets import Jet, space
from cartanweyl.scenarios import catalog

from conftest import POINT3

K = 4


def vnorm(g):
    """Largest value coefficient of a ghost-valued jet (a GradedScalar entry)."""
    return g.norm(lambda c: abs(c.value))


def d(g, mu):
    """Derivative along x^mu of a ghost-valued jet."""
    return g.map(lambda c: c.derivative(mu))

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
    assert brs_vary(s, "varpi").value_norm() == 0.0


def test_undressed_russian_formula(scn):
    cache = {}
    A = scn.L_varpi.ev(cache)
    F = scn.T_omega.ev(cache)
    v = scn.T_v.ev(cache)
    sA = scn.L_varpi.stotal().ev(cache)
    sv = scn.T_v.stotal().ev(cache)
    r0, r1, r2 = russian_residual(A, v, F, sA, sv)
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
    sA = s.L_varpi.stotal().ev(cache)
    sv = s.T_v.stotal().ev(cache)
    assert max(russian_residual(A, v, F, sA, sv)) < 1e-12


def test_modified_russian_formula(scn):
    cache = {}
    A = scn.T_varpi0.ev(cache)
    F = scn.T_omega0.ev(cache)
    vt = scn.composite_ghost_term("full")
    v = vt.ev(cache)
    sA = scn.T_varpi0.stotal().ev(cache)
    sv = vt.stotal().ev(cache)
    r = russian_residual(A, v, F, sA, sv)
    assert max(r) < 1e-10


def test_nilpotency_and_sector_split(scn):
    out = nilpotency_residuals(scn, names=("varpi", "v", "u1", "u0", "u", "Omega"))
    for name, v in out.items():
        assert v < 1e-10, (name, v)


def test_first_composite_ghost(scn):
    v1 = composite_ghost(scn, "u1")
    assert (v1 - scn.expected_first_ghost()).value_norm() < 1e-12
    # the inversion slot (1,2) of v-hat_1 is deps . e^-1, not iota
    blk = scn.model.block(v1, 3, 1)
    assert blk.value_norm() == 0.0


def test_final_composite_ghost(scn):
    vW = composite_ghost(scn, "full")
    assert (vW - scn.expected_final_ghost()).value_norm() < 1e-12


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
    su1_i = brs_vary(scn, "u1", "i")
    assert (su1_i + vi.wedge(u1)).value_norm() < 1e-13
    su1_L = brs_vary(scn, "u1", "L")
    assert (su1_L - gcomm(u1, vl)).value_norm() < 1e-13
    # the Weyl image's (1,2) slot is -eps q + deps . e^-1
    su1_W = brs_vary(scn, "u1", "W")
    blk = scn.model.block(su1_W, 1, 2)
    eps = scn.eps_jet
    einv = scn.einv
    q = scn.u1.q
    for a in range(scn.m):
        want = GradedScalar()
        want = want - (eps * Jet(scn.m, q.data[0, a, 0, :]))
        for mu in range(scn.m):
            want = want + d(eps, mu) * Jet(scn.m, einv[mu, a])
        assert vnorm(blk.entry(0, a, 0) - want) < 1e-13


def test_u0_rules(scn):
    cache = {}
    u0 = scn.T_u0.ev(cache)
    m, n = scn.m, scn.model.n
    epst = MForm.from_entries(m, (n, n), 0, 1, scn.ghost_order,
                              {(i, i, 0): scn.eps_jet for i in range(1, m + 1)})
    assert (brs_vary(scn, "u0", "W") - epst.wedge(u0)).value_norm() < 1e-13
    vl = scn.V["L"].ev(cache)
    assert (brs_vary(scn, "u0", "L") + vl.wedge(u0)).value_norm() < 1e-13
    assert brs_vary(scn, "u0", "i").value_norm() == 0.0


def test_three_ghost_cases(scn):
    """Gauge-like, dressing-like, and mixed transformation laws of u1."""
    cache = {}
    u1 = scn.T_u1.ev(cache)
    u1inv = scn.T_u1inv.ev(cache)
    vl = scn.V["L"].ev(cache)
    vi = scn.V["i"].ev(cache)
    # case one: s_L u1 = [u1, v_L] keeps the Lorentz ghost unchanged
    su = brs_vary(scn, "u1", "L")
    vhat = u1inv.wedge(vl.wedge(u1)) + u1inv.wedge(su)
    assert (vhat - vl).value_norm() < 1e-13
    # case two: s_i u1 = -v_i u1 erases the inversion ghost
    su = brs_vary(scn, "u1", "i")
    vhat = u1inv.wedge(vi.wedge(u1)) + u1inv.wedge(su)
    assert vhat.value_norm() < 1e-13
    # case three: the full ghost leaves exactly the first composite ghost
    assert (composite_ghost(scn, "u1") - scn.expected_first_ghost()).value_norm() < 1e-12


def test_two_steps_in_one(scn):
    ell, rho, resid_dec, resid_ghost = two_steps_in_one(scn)
    assert resid_dec < 1e-12
    assert resid_ghost < 1e-12
    # ell is the erased-sector ghost matrix
    cache = {}
    want = scn.V["L"].ev(cache) + scn.V["i"].ev(cache)
    assert (ell - want).value_norm() == 0.0


def test_two_steps_pure_erased_sectors(scrambled):
    """v_W = 0: the composite ghost dies and su = -ell u."""
    spec = GhostSpec(eps="0", iota=GHOSTS.iota, lorentz=GHOSTS.lorentz)
    s = ConformalBRS(scrambled, None, spec, POINT3)
    vhat = composite_ghost(s, "full")
    assert vhat.value_norm() < 1e-13
    ell, rho, resid_dec, _ = two_steps_in_one(s)
    assert rho.value_norm() == 0.0
    assert resid_dec < 1e-13


def test_modified_brs_lemma_both_stages(scn):
    for stage in ("u1", "full"):
        rA, rF, rv = modified_brs_residuals(scn, stage)
        assert rA < 1e-10 and rF < 1e-10 and rv < 1e-10, stage


def test_residual_weyl_brs_components(scrambled, scn):
    fields = full_pipeline(scrambled)
    out = residual_weyl_brs(fields, scn)
    for name, v in out.items():
        assert v < 1e-10, (name, v)


def test_flat_christoffel_variation(mobius3, flat3):
    """Flat scenario: s_W Gamma = delta deps + delta deps - eta^-1 deps eta."""
    conn = build_normal(flat3, mobius3, POINT3, K)
    s = ConformalBRS(conn, None, GHOSTS, POINT3)
    fields = full_pipeline(conn)
    vhat = composite_ghost(s, "full")
    s_varpi0 = (vhat.ext_d() + gcomm(fields.varpi0, vhat)).scale(-1.0)
    blk = s.model.block(s_varpi0, 2, 2)
    eps = s.eps_jet
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
                assert vnorm(blk.entry(r, nu, mu) - want) < 1e-13


def test_sector_triviality_after_full_dressing(scn):
    for x in ("L", "i"):
        t0 = scn.T_varpi0.svar(x)
        t1 = scn.T_omega0.svar(x)
        n0 = 0.0 if _is_zero(t0) else t0.ev({}).value_norm()
        n1 = 0.0 if _is_zero(t1) else t1.ev({}).value_norm()
        assert n0 < 1e-12 and n1 < 1e-12


def test_algebraic_connection(scrambled, scn):
    fields = full_pipeline(scrambled)
    vhat, entry_defect, rr = algebraic_connection(fields, scn)
    assert entry_defect < 1e-12
    assert max(rr) < 1e-10


def test_algebraic_connection_flat(mobius3, flat3):
    """Flat, eps != 0: blocks are (eps, deps; dx, eps delta, eta^-1 deps^T;
    dx^T eta, -eps)."""
    conn = build_normal(flat3, mobius3, POINT3, K)
    s = ConformalBRS(conn, None, GHOSTS, POINT3)
    fields = full_pipeline(conn)
    vhat = composite_ghost(s, "full")
    eps = s.eps_jet
    eta = s.model.eta
    m = 3
    blk = s.model.block(vhat, 1, 1)
    assert vnorm(blk.entry(0, 0, 0) - eps) == 0.0
    blk = s.model.block(vhat, 2, 3)
    for r in range(m):
        want = d(eps, r) * float(eta[r])
        assert vnorm(blk.entry(r, 0, 0) - want) < 1e-14
    # eps = 0 reduces the algebraic connection to varpi0 itself
    spec0 = GhostSpec(eps="0", iota=["0"] * 3, lorentz=["0"] * 3)
    s0 = ConformalBRS(conn, None, spec0, POINT3)
    v0 = composite_ghost(s0, "full")
    assert v0.value_norm() == 0.0


def test_gr_composite_ghost_vanishes(poincare3, vielbein3):
    conn = build_normal(vielbein3, poincare3, POINT3, K)
    e = vielbein3.jets_at(POINT3, K)
    s = PoincareBRS(conn, e, GHOSTS.lorentz, POINT3)
    out = s.residuals()
    assert out["composite_ghost"] == 0.0
    assert out["su_rule"] == 0.0
    assert out["s_gamma_hat"] < 1e-12
    assert out["s_omega_hat"] < 1e-12
    assert out["s2_varpi"] < 1e-12


def test_linearization(mobius3, vielbein3):
    conn = build_normal(vielbein3, mobius3, POINT3, K)
    out = linearization_check(conn, vielbein3.jets_at(POINT3, K), mobius3,
                              "x0/4 - x1*x2/6", POINT3, K)
    for key in ("g", "Gamma", "P", "C", "W"):
        assert out[key] < 1e-6, (key, out[key])


def test_ds_plus_sd_vanishes(scn):
    """d and s anticommute on every field where both act."""
    from cartanweyl.brs import D
    for term in (scn.L_varpi, scn.T_u1, scn.T_v):
        lhs = D(term).stotal()
        rhs = term.stotal()
        # s(D t) + D(s t) must evaluate to zero
        cache = {}
        got = lhs.ev(cache) + rhs.ev(cache).ext_d()
        assert got.value_norm() < 1e-12


def test_ghost_degree_bookkeeping(scn):
    sv = brs_vary(scn, "varpi")
    assert sv.q == 1 and sv.p == 1
    sO = brs_vary(scn, "Omega")
    assert sO.q == 1 and sO.p == 2
    vhat = composite_ghost(scn, "full")
    assert vhat.q == 1 and vhat.p == 0


def test_first_stage_weyl_brs_blocks(mobius3, vielbein3):
    """s_W of the first-stage pair matches the block matrices with the
    Lorentz ghost switched off: s_W theta = eps theta, s_W F1 = 0 (normal),
    s_W Pi1 = -eps Pi1 - (deps e^-1) F1."""
    conn = build_normal(vielbein3, mobius3, POINT3, K)
    s = ConformalBRS(conn, None, GHOSTS, POINT3)
    fields = full_pipeline(conn)
    sW_varpi1 = s.T_varpi1.svar("W").ev({})
    sW_omega1 = s.T_omega1.svar("W").ev({})
    m = 3
    eps = s.eps_jet
    # s_W theta = eps theta
    blk = s.model.block(sW_varpi1, 2, 1)
    th = s.model.block(fields.varpi1, 2, 1)
    for a in range(m):
        for mu in range(m):
            want = eps * Jet(m, th.data[a, 0, mu, :])
            assert vnorm(blk.entry(a, 0, mu) - want) < 1e-13
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
            assert vnorm(blk.entry(0, b, f) - want) < 1e-12


def test_first_stage_sector_behavior(scn):
    """After u1: the inversion sector is erased while the Lorentz sector
    still acts as a gauge transformation: s_L varpi1 = -D1 v_L."""
    cache = {}
    t_i = scn.T_varpi1.svar("i")
    n_i = 0.0 if _is_zero(t_i) else t_i.ev(cache).value_norm()
    assert n_i < 1e-12
    t_iO = scn.T_omega1.svar("i")
    assert (0.0 if _is_zero(t_iO) else t_iO.ev(cache).value_norm()) < 1e-12
    sL = scn.T_varpi1.svar("L").ev(cache)
    varpi1 = scn.T_varpi1.ev(cache)
    vl = scn.V["L"].ev(cache)
    want = (vl.ext_d() + gcomm(varpi1, vl)).scale(-1.0)
    assert (sL - want).value_norm() < 1e-12
    sLO = scn.T_omega1.svar("L").ev(cache)
    omega1 = scn.T_omega1.ev(cache)
    assert (sLO - gcomm(omega1, vl)).value_norm() < 1e-12


def test_second_reduction_chains_to_final_ghost(scn):
    """Dressing the first composite ghost by u0 gives the final ghost."""
    v0 = composite_ghost(scn, "u0")
    assert (v0 - scn.expected_final_ghost()).value_norm() < 1e-12
    assert (v0 - composite_ghost(scn, "full")).value_norm() < 1e-12


# -- one evaluation context per point -------------------------------------------

def _generic_one_point():
    scn = catalog("generic", 3)
    scn.points = scn.points[:1]
    return scn


def _generic_brs():
    scn = _generic_one_point()
    model, vb = KleinModel(scn.model, scn.chart), VielbeinField(scn.chart, scn.vielbein)
    conn, e = PointContext(scn, model, vb, 0).base
    g = scn.ghosts
    return ConformalBRS(conn, e, GhostSpec(g["eps"], g["iota"], g["lorentz"]),
                        scn.points[0])


def test_brs_suite_evaluates_each_node_once(monkeypatch):
    counts = {}
    for cls in (brs.Leaf, brs.Sum, brs.Prod, brs.D, brs.EtaT, brs.Blk):
        def counted(self, cache, _orig=cls._ev):
            counts[self] = counts.get(self, 0) + 1
            return _orig(self, cache)
        monkeypatch.setattr(cls, "_ev", counted)
    report = run_check(_generic_one_point(), "brs")
    assert report.passed and len(report.rows) == 51
    assert counts and max(counts.values()) == 1


def test_composite_ghost_and_stotal_are_built_once():
    s = _generic_brs()
    for stage in ("u1", "full", "u0"):
        assert s.composite_ghost_term(stage) is s.composite_ghost_term(stage)
    vhat = s.composite_ghost_term("full")
    assert vhat.stotal() is vhat.stotal()
    assert s.composite_ghost_term("u0").terms[0].b.a is s.composite_ghost_term("u1")


def _exact_terms(mform):
    r, c = mform.shape
    return [{k: x.coeffs.tolist() for k, x in mform.entry(i, j, f).terms.items()}
            for i in range(r) for j in range(c) for f in range(mform.n_comps)]


def test_shared_cache_matches_cold_evaluation():
    s = _generic_brs()
    modified_brs_residuals(s, "full")   # fill the shared cache first
    nilpotency_residuals(s, names=("v", "u1"))
    vhat = s.composite_ghost_term("full")
    for t in (vhat, vhat.stotal()):
        warm, cold = s.ev(t), t.ev({})
        assert np.array_equal(warm.body().data, cold.body().data)
        assert _exact_terms(warm) == _exact_terms(cold)


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
        f1, f2, h, sign = orig(m, p1, q1, p2, q2)
        return f1, f2, h, -sign if (p1 * q2) % 2 else sign
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
        return MForm.from_entries(m, (n, n), 0, 1, order, {(0, 0, 0): GradedScalar(
            {(j,): Jet.constant(float(d[j]), m, order) for j in range(forms.GHOST_POOL)})})
    return factor(0).wedge(factor(1)).wedge(factor(2))


def _kernel_degree_three_defect(mp):
    """s^2 v gains 1e-6 times the triple of eps's first six Taylor generators,
    projected with the scenario's own weights."""
    orig = brs.ConformalBRS.ev

    def ev(self, term):
        out = orig(self, term)
        if term is self.T_v.stotal().stotal():
            w = brs._pool_weights(self.seed, "eps", space(self.m, self.ghost_order).size,
                                  self.keep_body)
            out = out + _kernel_triple(w, self.m, self.model.n, out.order).scale(1e-6)
        return out
    mp.setattr(brs.ConformalBRS, "ev", ev)


def _scaled_final_ghost(mp):
    orig = brs.ConformalBRS.expected_final_ghost
    mp.setattr(brs.ConformalBRS, "expected_final_ghost",
               lambda self: orig(self).scale(1 + 1e-6))


def _ghost_derivative_off(mp):
    orig = brs._d
    mp.setattr(brs, "_d", lambda g, nu: orig(g, nu) * (1 + 1e-6))


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
    assert set(s.eps_jet.terms) <= set(forms.ghost_monos(1))
    w = brs._pool_weights((7, 0), "eps", 20)
    tied = brs._pool_weights((7, 0), "eps", 20, keep_body=True)
    assert w.shape == tied.shape == (20, forms.GHOST_POOL)
    assert np.abs(tied.sum(axis=1) - 1.0).max() < 1e-15
    assert np.abs(w.sum(axis=1) - 1.0).min() > 1e-3
    assert np.abs(np.diff(tied - w, axis=1)).max() < 1e-15
    assert np.array_equal(w, brs._pool_weights((7, 0), "eps", 20))
    assert not np.array_equal(w, brs._pool_weights((7, 0), "iota0", 20))
