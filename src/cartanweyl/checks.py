"""Named check suites, report assembly and the degrees-of-freedom table.

Every suite maps one sample point's :class:`PointContext` to its residuals;
one loop visits each point once, runs the requested suites on it, and
keeps each row's worst residual over the points.  Reports keep a
deterministic payload (no timings inside) so golden-file comparisons and
the byte-identical-report guarantee hold.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import tensors
from .cartan import (GaugeElement, KleinModel, VielbeinField, assemble,
                     build_normal, conjugate, covariant_d, curvature, gauge_transform,
                     normality_residual, random_gauge, random_polynomial)
from .dressing import (compatibility_residuals, dressed_normality,
                       full_pipeline, gr_dress)
from .errors import CartanWeylError, ScenarioError
from .exprs import eval_jets
from .forms import MForm, gcomm
from .jets import jmul, order_of
from .reduction import worst_of
from .weyl import (WeylElement, closed_form_laws, wbar_closed_form, weyl_group_law_residual,
                   weyl_matrices, weyl_transform_dressed, weyl_transform_midlevel)

# Default thresholds by check family; scenario.tolerance covers the rest.
STRICT = 1e-10   # exact algebraic identities (Bianchi, nilpotency, Russian)
ORACLE = 1e-8    # cross-route comparisons through independent formulas
LINEAR = 1e-6    # finite differences in the group parameter


@dataclass
class CheckRow:
    name: str
    residual: float
    threshold: float

    @property
    def passed(self):
        return bool(math.isfinite(self.residual) and self.residual <= self.threshold)


@dataclass
class Report:
    scenario: dict
    rows: list = field(default_factory=list)
    tensors: dict = field(default_factory=dict)
    dof: dict = field(default_factory=dict)
    wall_time: float = 0.0

    def add(self, name, residual, threshold):
        self.rows.append(CheckRow(name, float(residual), float(threshold)))

    @property
    def passed(self):
        return all(r.passed for r in self.rows)

    def payload(self):
        out = {
            "scenario": self.scenario,
            "checks": [
                {"name": r.name, "residual": repr(r.residual),
                 "threshold": repr(r.threshold), "pass": r.passed}
                for r in self.rows
            ],
        }
        if self.tensors:
            out["tensors"] = self.tensors
        if self.dof:
            out["dof"] = self.dof
        return out

    def to_json(self):
        doc = {"payload": self.payload(),
               "meta": {"wall_time_s": self.wall_time}}
        return json.dumps(doc, indent=2, sort_keys=True)

    def summary_lines(self):
        lines = []
        for r in self.rows:
            status = "PASS" if r.passed else "FAIL"
            lines.append(f"[{status}] {r.name}: residual {r.residual:.3e} "
                         f"(threshold {r.threshold:.1e})")
        return lines


def _merge(worst, new):
    for k, v in new.items():
        worst[k] = worst_of((worst.get(k, 0.0), v))


# ---------------------------------------------------------------------------
# scenario plumbing
# ---------------------------------------------------------------------------

def base_connection(scn, model, conn, e, point, rng):
    """The scenario's input connection and its effective vielbein.

    Starts from the normal connection ``conn`` of the vielbein jets ``e`` and
    applies the scenario's deformation and gauge scramble, drawing from
    ``rng``.  The theta block of the returned connection equals e dx for the
    returned e, including the z and S factors of any scramble.
    """
    if not scn.normal:
        conn = deformed_connection(conn, model, point, scn.jet_order, rng)
    if scn.gauge:
        if scn.gauge.get("seeded"):
            ge = random_gauge(model, rng, point=point)
        else:
            ge = GaugeElement(z=scn.gauge.get("z"), so=scn.gauge.get("so"),
                              r=scn.gauge.get("r"))
        mats = ge.matrices(model, point, scn.jet_order)
        conn = gauge_transform(conn, mats["gamma"], mats["gamma_inv"])
        if "Sinv" in mats:
            e = tensors.jeinsum("ab,bm->am", mats["Sinv"], e, model.m)
        if "z" in mats:
            e = jmul(mats["z"][None, None, :], e, model.m)
    return conn, e


def deformed_connection(conn, model, point, order, rng):
    """Add a seeded g-valued 1-form: torsion, trace and Ricci defects at once.

    One degree-1 polynomial per entry and form component, drawn for a, then
    alpha, then the so(eta) part of A, and shifted to the point together.
    """
    m = model.m
    pairs = [(i, j) for i in range(m) for j in range(i + 1, m)]
    polys = [random_polynomial(rng, m, degree=1, scale=0.5)
             for _ in range((1 + m + len(pairs)) * m)]
    jets = eval_jets(polys, model.chart, point, order).reshape(1 + m + len(pairs), m, -1)
    da = MForm.zeros(m, (1, 1), 1, 0, order)
    da.data[0, 0] = jets[0]
    dalpha = MForm.zeros(m, (1, m), 1, 0, order)
    dalpha.data[0] = jets[1:m + 1]
    # so(eta)-valued perturbation of A keeps g-valuedness but adds torsion
    sig = model.eta
    dA = MForm.zeros(m, (m, m), 1, 0, order)
    for (i, j), c in zip(pairs, jets[m + 1:]):
        dA.data[i, j] = sig[j] * c
        dA.data[j, i] = -sig[i] * c
    return assemble(model, a=conn.a() + da, alpha=conn.alpha() + dalpha,
                    theta=conn.theta(), A=conn.A() + dA)


class PointContext:
    """What every suite reads at one sample point, each piece built once.

    Point ``index`` is seeded as ``(seed, point_offset + index)``.  The
    vielbein jets and their normal connection come first; ``base_connection``
    then scrambles that connection and is the first to draw from the point's
    rng.  Every suite that draws resumes from the state right after it
    (:meth:`rng`).  Each piece is built on first use, so a lone gauge suite
    never runs the dressing pipeline, and no suite changes one in place.
    """

    def __init__(self, scn, model, vb, index):
        self.scn, self.model, self.vb = scn, model, vb
        self.point = scn.points[index]
        self.seed = (scn.seed, scn.point_offset + index)

    @cached_property
    def e_normal(self):
        return self.vb.jets_at(self.point, self.scn.jet_order)

    @cached_property
    def normal(self):
        """The normal connection of :attr:`e_normal`."""
        return build_normal(self.e_normal, self.model, self.point, self.scn.jet_order)

    @cached_property
    def base(self):
        """(connection, vielbein jets) after the scenario's scramble."""
        rng = np.random.default_rng(self.seed)
        conn_e = base_connection(self.scn, self.model, self.normal, self.e_normal,
                                 self.point, rng)
        self._drawn = rng.bit_generator.state
        return conn_e

    @cached_property
    def fields(self):
        return full_pipeline(*self.base)

    def rng(self):
        """The point's rng at the state right after ``base_connection`` drew."""
        self.base   # builds the scramble and saves that state
        rng = np.random.default_rng(self.seed)
        rng.bit_generator.state = self._drawn
        return rng


# ---------------------------------------------------------------------------
# suites, each mapping one point's context to {row: residual}, and the loop
# that runs them
# ---------------------------------------------------------------------------

def gauge_suite(ctx):
    scn, model, point = ctx.scn, ctx.model, ctx.point
    conn, _ = ctx.base
    curv = curvature(conn)
    Om = curv.omega2
    # the gauge matrices meet only conjugations and connection-order
    # products, so one order above the connection is all they need
    k = conn.order + 1
    res = {}
    res["bianchi"] = covariant_d(conn.omega, Om).value_norm()
    if model.kind == "mobius":
        rng = ctx.rng()
        ge = random_gauge(model, rng, point=point)
        mats = ge.matrices(model, point, k)
        conn_g = gauge_transform(conn, mats["gamma"], mats["gamma_inv"])
        curv_g = curvature(conn_g)
        conj = conjugate(Om, mats["gamma"], mats["gamma_inv"])
        res["curvature_equivariance"] = (curv_g.omega2 - conj).value_norm()
        # right action on a random pair
        g2 = random_gauge(model, rng, point=point)
        m2 = g2.matrices(model, point, k)
        lhs = gauge_transform(conn_g, m2["gamma"], m2["gamma_inv"])
        g12 = mats["gamma"].wedge(m2["gamma"])
        g12i = m2["gamma_inv"].wedge(mats["gamma_inv"])
        rhs = gauge_transform(conn, g12, g12i)
        res["right_action"] = (lhs.omega - rhs.omega).value_norm()
        # unipotent factor: a -> a - r theta; Weyl factor: theta -> z theta
        r_ge = GaugeElement(r=[f"x{i}/3 + 1/{4 + i}" for i in range(model.m)])
        m1 = r_ge.matrices(model, point, k)
        c1 = gauge_transform(conn, m1["gamma1"], m1["gamma1_inv"])
        rth = m1["r"].wedge(conn.theta())
        res["unipotent_trace_shift"] = (c1.a() - (conn.a() - rth)).value_norm()
        z_ge = GaugeElement(z="1 + x0/4")
        mw = z_ge.matrices(model, point, k)
        cw = gauge_transform(conn, mw["W"], mw["Winv"])
        zth = MForm.zeros(model.m, (model.m, 1), 1, 0, conn.theta().order)
        zth.data[:, 0, :, :] = jmul(mw["z"][None, None, :],
                                    conn.theta().data[:, 0, :, :], model.m)
        res["weyl_soldering_scale"] = (cw.theta() - zth).value_norm()
    if scn.normal and not scn.gauge:
        t, r_, f_ = normality_residual(curv, ctx.e_normal[..., 0], model)
        res["normality_theta"] = t
        if model.kind == "mobius":
            # GR normality is torsion-freeness only: Ric(F) is the
            # actual Ricci tensor there and need not vanish
            res["normality_ricci"] = r_
            res["normality_trace"] = f_
    return res


def dressing_suite(ctx):
    if ctx.model.kind == "poincare":
        return _gr_dressing(ctx)
    scn, model, point = ctx.scn, ctx.model, ctx.point
    conn, e_full = ctx.base
    fields = ctx.fields
    rng = ctx.rng()
    res = dict(fields.diagnostics)
    res["single_step"] = fields.single_step_residual
    # invariance under the erased sectors, same composite output
    k = conn.order + 1
    mats1 = random_gauge(model, rng, with_z=False, with_s=False,
                         point=point).matrices(model, point, k)
    matsS = random_gauge(model, rng, with_z=False, with_r=False,
                         point=point).matrices(model, point, k)
    for tag, mats in (("k1", mats1), ("so", matsS)):
        conn_g = gauge_transform(conn, mats["gamma"], mats["gamma_inv"])
        fg = full_pipeline(conn_g)
        res[f"invariance_{tag}_varpi0"] = (fields.varpi0 - fg.varpi0).value_norm()
        res[f"invariance_{tag}_Omega0"] = (fields.Omega0 - fg.Omega0).value_norm()
    # midpoint equivariance: varpi1^S = S^-1 varpi1 S + S^-1 dS
    conn_S = gauge_transform(conn, matsS["S_emb"], matsS["Sinv_emb"])
    fS = full_pipeline(conn_S)
    S, Sinv = matsS["S_emb"], matsS["Sinv_emb"]
    expect = conjugate(fields.varpi1, S, Sinv, connection=True)
    res["equivariance_varpi1_S"] = (fS.varpi1 - expect).value_norm()
    expectO = conjugate(fields.Omega1, S, Sinv)
    res["equivariance_Omega1_S"] = (fS.Omega1 - expectO).value_norm()
    # compatibility conditions
    comp = compatibility_residuals(conn, e_full, mats1, matsS, model)
    res.update({f"compat_{k}": v for k, v in comp.items()})
    # tensors against the classical oracle
    B = tensors.classical_bundle(e_full, scn.signature, model.m)
    res["oracle_g"] = float(np.abs(fields.g[..., 0] - B["g"][..., 0]).max())
    if scn.normal:
        # only torsion-free inputs reduce Gamma to the Levi-Civita symbols
        res["oracle_Gamma"] = float(np.abs(fields.Gamma[..., 0]
                                           - B["Gamma"][..., 0]).max())
        res["oracle_P"] = float(np.abs(fields.P[..., 0] - B["P"][..., 0]).max())
        res["oracle_C"] = float(np.abs(fields.C - B["C"][..., 0]).max())
        res["oracle_W"] = float(np.abs(fields.W - B["W"][..., 0]).max())
        t, ric, f0 = dressed_normality(fields)
        res["dressed_torsion"] = t
        res["dressed_ricci"] = ric
        res["dressed_trace"] = f0
    return res


def _gr_dressing(ctx):
    """The dressing suite of the Poincare model, on the normal connection.

    Its Lorentz scramble draws from a fresh rng, not from the state after
    ``base_connection``.
    """
    scn, model, point = ctx.scn, ctx.model, ctx.point
    conn, e = ctx.normal, ctx.e_normal
    _, _, Gamma, R, T, g, diag = gr_dress(conn, e)
    res = dict(diag)
    B = tensors.classical_bundle(e, scn.signature, model.m)
    res["oracle_Gamma"] = float(np.abs(Gamma[..., 0] - B["Gamma"][..., 0]).max())
    res["oracle_R"] = float(np.abs(R - B["Riemann"][..., 0]).max())
    res["torsion"] = float(np.abs(T).max())
    # Lorentz invariance of the dressed outputs
    ge = random_gauge(model, np.random.default_rng(ctx.seed), with_z=False, with_r=False,
                      point=point)
    mats = ge.matrices(model, point, conn.order + 1)
    conn_S = gauge_transform(conn, mats["gamma"], mats["gamma_inv"])
    eS = tensors.jeinsum("ab,bm->am", mats["Sinv"], e, model.m)
    _, _, G2, R2, T2, _, _ = gr_dress(conn_S, eS)
    res["so_invariance_Gamma"] = float(np.abs(Gamma[..., 0] - G2[..., 0]).max())
    res["so_invariance_R"] = float(np.abs(R - R2).max())
    res["so_invariance_T"] = float(np.abs(T - T2).max())
    return res


def weyl_suite(ctx):
    scn, model, point = ctx.scn, ctx.model, ctx.point
    conn, _ = ctx.base
    fields = ctx.fields
    wz = WeylElement(scn.weyl if scn.weyl else "x0/4")
    z, zeta = wz.at(scn.chart, point, scn.jet_order)
    mats = weyl_matrices(model, z, zeta, fields.e)
    res = {}
    res["wbar_closed_form"] = (mats["wbar"]
                               - wbar_closed_form(model, z, zeta, fields.e)).full_norm()
    res["k1_u1_commute"] = _k1_u1_commutator(fields, mats).value_norm()
    stW = weyl_transform_dressed(fields, mats)
    laws = closed_form_laws(fields, z, zeta)
    res["law_metric"] = float(np.abs(stW.g[..., 0] - laws["g"]).max())
    res["law_christoffel"] = float(np.abs(stW.Gamma[..., 0] - laws["Gamma"]).max())
    res["law_schouten"] = float(np.abs(stW.P[..., 0] - laws["P"]).max())
    res["law_torsion"] = float(np.abs(stW.T - laws["T"]).max())
    res["law_trace"] = float(np.abs(stW.f0 - laws["f0"]).max())
    res["law_weyl_tensor"] = float(np.abs(stW.W - laws["W"]).max())
    res["law_cotton"] = float(np.abs(stW.C - laws["C"]).max())
    # antisymmetric parts are inert
    asym = 0.5 * (stW.Gamma[..., 0] - stW.Gamma[..., 0].transpose(0, 2, 1))
    asym0 = 0.5 * (fields.Gamma[..., 0] - fields.Gamma[..., 0].transpose(0, 2, 1))
    res["law_antisym_christoffel"] = float(np.abs(asym - asym0).max())
    # route three: Weyl-transform the input connection and redo everything
    k = conn.order + 1
    conn_W = gauge_transform(conn, mats["W"].truncate(k), mats["Winv"].truncate(k))
    fW = full_pipeline(conn_W)
    res["route_pipeline_varpi0"] = (stW.varpi0 - fW.varpi0).value_norm()
    res["route_pipeline_Omega0"] = (stW.Omega0 - fW.Omega0).value_norm()
    if scn.normal:
        # and from the rescaled vielbein through the normal construction
        conn2 = build_normal(stW.e, model, point, order_of(model.m, stW.e))
        f2 = full_pipeline(conn2)
        res["route_rescaled_g"] = float(np.abs(stW.g[..., 0] - f2.g[..., 0]).max())
        res["route_rescaled_Gamma"] = float(np.abs(stW.Gamma[..., 0]
                                                   - f2.Gamma[..., 0]).max())
        res["route_rescaled_P"] = float(np.abs(stW.P[..., 0] - f2.P[..., 0]).max())
        res["route_rescaled_C"] = float(np.abs(stW.C - f2.C).max())
        res["route_rescaled_W"] = float(np.abs(stW.W - f2.W).max())
        res["weyl_tensor_invariance"] = float(np.abs(stW.W - fields.W).max())
        t, ric, f0n = (float(np.abs(stW.T).max()),
                       float(np.abs(np.einsum("anas->ns", stW.W)).max()),
                       float(np.abs(stW.f0).max()))
        res["normality_preserved_T"] = t
        res["normality_preserved_ric"] = ric
        res["normality_preserved_f0"] = f0n
    # redundancy: entry (2,3) of the transformed pair
    res["redundancy_varpi"] = _redundancy_varpi(stW, model)
    res["redundancy_omega"] = _redundancy_omega(stW, model)
    # group law
    w2 = WeylElement("x1/5 + x0*x0/10")
    res["group_law"] = weyl_group_law_residual(
        fields, stW, (z, zeta), w2.at(scn.chart, point, scn.jet_order))
    # first-stage (internal-index) action
    v1W, O1W, closed = weyl_transform_midlevel(fields, mats)
    for nm, ij, M in [("theta", (2, 1), v1W), ("A1", (2, 2), v1W),
                      ("alpha1", (1, 2), v1W), ("f1", (1, 1), O1W),
                      ("Theta1", (2, 1), O1W), ("F1", (2, 2), O1W),
                      ("Pi1", (1, 2), O1W)]:
        res[f"midlevel_{nm}"] = (model.block(M, *ij) - closed[nm]).value_norm()
    if scn.normal:
        res["midlevel_F1_invariance"] = (model.block(O1W, 2, 2)
                                         - model.block(fields.Omega1, 2, 2)).value_norm()
    return res


def _k1_u1_commutator(fields, mats):
    """u1 and k1 commute (both unipotent on the same row pattern)."""
    return mats["k1"].wedge(fields.u1.mat) - fields.u1.mat.wedge(mats["k1"])


def _redundancy_varpi(stW, model):
    m = model.m
    b12 = model.block(stW.varpi0, 1, 2)
    b23 = model.block(stW.varpi0, 2, 3)
    gWinv = np.linalg.inv(stW.g[..., 0])
    want = np.einsum("rl,nl->rn", gWinv, b12.data[0, :, :, 0].T)
    got = b23.data[:, 0, :, 0]
    return float(np.abs(got - want.reshape(got.shape)).max())


def _redundancy_omega(stW, model):
    m = model.m
    b12 = model.block(stW.Omega0, 1, 2)
    b23 = model.block(stW.Omega0, 2, 3)
    gWinv = np.linalg.inv(stW.g[..., 0])
    # b12.data[0, lam, f, 0]: row entry lam at 2-form component f
    want = np.einsum("rl,lf->rf", gWinv, b12.data[0, :, :, 0])
    got = b23.data[:, 0, :, 0]
    return float(np.abs(got - want).max())


def brs_suite(ctx):
    from .brs import (ConformalBRS, GhostSpec, PoincareBRS, algebraic_connection,
                      composite_ghost, linearization_check, modified_brs_residuals,
                      nilpotency_residuals, residual_weyl_brs, russian_residual,
                      two_steps_in_one)
    scn, model, point = ctx.scn, ctx.model, ctx.point
    m = model.m
    ghosts = scn.ghosts or {}
    if model.kind == "poincare":
        return PoincareBRS(ctx.normal, ctx.e_normal, ghosts.get("lorentz"),
                           point, seed=ctx.seed).residuals()
    spec = GhostSpec(eps=ghosts.get("eps", "1/2 + x0/3"),
                     iota=ghosts.get("iota"), lorentz=ghosts.get("lorentz"))
    scn_b = ConformalBRS(*ctx.base, spec, point, seed=ctx.seed)
    fields = ctx.fields
    res = {}
    ev = scn_b.ev
    vh_t = scn_b.composite_ghost_term("full")
    for tag, (A, v, F) in (("", (scn_b.L_varpi, scn_b.T_v, scn_b.T_omega)),
                           ("_dressed", (scn_b.T_varpi0, vh_t, scn_b.T_omega0))):
        rs = russian_residual(ev(A), ev(v), ev(F), ev(A.stotal()), ev(v.stotal()))
        res.update({f"russian{tag}_deg{d}": r for d, r in enumerate(rs)})
    vh = ev(vh_t)
    res.update(nilpotency_residuals(scn_b, names=("varpi", "v", "u1", "u0")))
    v1 = composite_ghost(scn_b, "u1")
    res["first_ghost"] = (v1 - scn_b.expected_first_ghost()).value_norm()
    res["final_ghost"] = (vh - scn_b.expected_final_ghost()).value_norm()
    # sector transformation rules of the dressing fields
    u1 = ev(scn_b.T_u1)
    vi = ev(scn_b.V["i"])
    vl = ev(scn_b.V["L"])
    res["u1_inversion_rule"] = (ev(scn_b.T_u1.svar("i")) + vi.wedge(u1)).value_norm()
    res["u1_lorentz_rule"] = (ev(scn_b.T_u1.svar("L")) - gcomm(u1, vl)).value_norm()
    u0 = ev(scn_b.T_u0)
    epst = MForm.from_entries(m, (model.n, model.n), 0, 1, scn_b.ghost_order,
                              {(i, i, 0): scn_b.eps_jet for i in range(1, m + 1)})
    su0W = ev(scn_b.T_u0.svar("W"))
    res["u0_weyl_rule"] = (su0W - epst.wedge(u0)).value_norm()
    _, _, res["two_steps_decomposition"], res["two_steps_ghost"] = two_steps_in_one(scn_b)
    for stage in ("u1", "full"):
        conn_r, curv_r, ghost_r = modified_brs_residuals(scn_b, stage)
        res[f"lemma_{stage}_connection"] = conn_r
        res[f"lemma_{stage}_curvature"] = curv_r
        res[f"lemma_{stage}_ghost"] = ghost_r
    res.update(residual_weyl_brs(fields, scn_b))
    _, res["algebraic_connection_entries"], rr = algebraic_connection(fields, scn_b)
    res["algebraic_connection_russian"] = worst_of(rr)
    # on a normal, unscrambled input the context has dressed ctx.normal already
    lin = linearization_check(ctx.normal, ctx.e_normal, model,
                              scn.weyl if scn.weyl else "x0/4", point, scn.jet_order,
                              fields=fields if scn.normal and not scn.gauge else None)
    res.update({f"linearization_{k}": v for k, v in lin.items()})
    return res


SUITES = ("gauge", "dressing", "weyl", "brs")
# (model kind, suite) -> (row prefix, per-point residuals, threshold rules).
# A row takes the threshold of the first rule with a prefix its name starts
# with, else the scenario tolerance.
_ORACLE_RULES = ((("oracle",), ORACLE),)
SUITE_TABLE = {
    ("mobius", "gauge"): ("gauge", gauge_suite, ((("bianchi",), STRICT),)),
    ("poincare", "gauge"): ("gauge", gauge_suite, ((("bianchi",), STRICT),)),
    ("mobius", "dressing"): ("dressing", dressing_suite, _ORACLE_RULES),
    ("poincare", "dressing"): ("gr", dressing_suite, _ORACLE_RULES),
    ("mobius", "weyl"): ("weyl", weyl_suite, ((("law", "route"), ORACLE),)),
    ("mobius", "brs"): ("brs", brs_suite, (
        (("linearization",), LINEAR),
        (("russian", "s2", "sH2", "sP2", "mixed"), STRICT))),
    ("poincare", "brs"): ("brs-gr", brs_suite, ((("",), STRICT),)),
}


def _run_suites(scn, suite, visit=None):
    """The report of ``suite`` ("all" or one of SUITES) on ``scn``.

    Each sample point gets one :class:`PointContext`, shared by every suite
    of the run and dropped before the next point; ``visit(ctx)`` runs after
    the point's suites.  A row is the worst residual over the points.
    "all" runs the suites the model has; a single suite the model lacks is
    a :class:`ScenarioError`.
    """
    if suite != "all" and suite not in SUITES:
        raise ScenarioError(f"unknown suite {suite!r}: "
                            f"choose from {sorted(SUITES + ('all',))}")
    t0 = time.perf_counter()
    model = KleinModel(scn.model, scn.chart)
    if suite != "all" and (model.kind, suite) not in SUITE_TABLE:
        raise ScenarioError(f"the {scn.model} model has no {suite} suite")
    plan = [(name, *SUITE_TABLE[model.kind, name])
            for name in (SUITES if suite == "all" else (suite,))
            if (model.kind, name) in SUITE_TABLE]
    vb = VielbeinField(scn.chart, scn.vielbein)
    worst = {name: {} for name, *_ in plan}
    for idx in range(len(scn.points)):
        ctx = PointContext(scn, model, vb, idx)
        for name, _, residuals, _ in plan:
            try:
                _merge(worst[name], residuals(ctx))
            except CartanWeylError as ex:
                # label the message in place: a subclass constructor may
                # take more than the message (ExprSyntaxError takes pos)
                ex.args = (f"[{name} suite] {ex}",)
                raise
        if visit is not None:
            visit(ctx)
    report = Report(scenario=scn.to_dict())
    for name, prefix, _, rules in plan:
        for row, v in sorted(worst[name].items()):
            thr = next((t for pre, t in rules if row.startswith(pre)), scn.tolerance)
            report.add(f"{prefix}/{row}", v, thr)
    report.wall_time = time.perf_counter() - t0
    return report


def run_check(scn, suite="all"):
    """Execute a named suite for a scenario; returns the Report.

    Point ``i`` of the scenario is seeded as ``(seed, point_offset + i)``, so
    a one-point sub-scenario with the matching ``point_offset`` reproduces
    that point's residuals exactly.
    """
    return _run_suites(scn, suite)


def compute_tensors(scn):
    """Dressing-suite report plus g, Gamma, P, T, C, W, f0 at each sample
    point (Moebius model only)."""
    dump = {}

    def visit(ctx):
        if ctx.model.kind == "mobius":
            f = ctx.fields
            dump[str(list(ctx.point))] = {
                "g": f.g[..., 0].tolist(), "Gamma": f.Gamma[..., 0].tolist(),
                "P": f.P[..., 0].tolist(), "T": f.T.tolist(), "f0": f.f0.tolist(),
                "C": f.C.tolist(), "W": f.W.tolist(),
            }

    report = _run_suites(scn, "dressing", visit)
    report.tensors = dump
    return report


# ---------------------------------------------------------------------------
# degrees-of-freedom accounting
# ---------------------------------------------------------------------------

def dof_report(m):
    """Field-count bookkeeping before and after the dressing operation.

    Both columns must total m(m+1)/2 - 1, the size of a conformal class.
    """
    if m < 3:
        raise ScenarioError("the accounting needs m >= 3")
    so_dim = m * (m - 1) // 2
    start_vars = m * (1 + so_dim + 2 * m)
    start_syms = so_dim + 1 + m
    start_constraints = {
        "torsion": m * so_dim,
        "ricci": m * (m + 1) // 2,
        "trace": so_dim,
    }
    start_total = start_vars - start_syms - sum(start_constraints.values())
    out_vars = {
        "metric": m * (m + 1) // 2,
        "linear_connection": m ** 3,
        "schouten": 0,
    }
    out_syms = 1
    out_constraints = {
        "metricity": m * m * (m + 1) // 2,
        "torsion": m * m * (m - 1) // 2,
    }
    out_total = sum(out_vars.values()) - out_syms - sum(out_constraints.values())
    return {
        "m": m,
        "starting": {
            "variables": start_vars,
            "symmetries": start_syms,
            "constraints": start_constraints,
            "total": start_total,
        },
        "outcoming": {
            "variables": out_vars,
            "symmetries": out_syms,
            "constraints": out_constraints,
            "total": out_total,
        },
        "conformal_class": m * (m + 1) // 2 - 1,
        "columns_agree": start_total == out_total == m * (m + 1) // 2 - 1,
    }
