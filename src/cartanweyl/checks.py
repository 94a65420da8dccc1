"""Named check suites, report assembly and the degrees-of-freedom table.

Every suite maps a :class:`PointContext` to its rows' residuals, unreduced
(an MForm, a value array, a tuple whose worst member counts, or 0.0 for a
structural zero), and builds every row it reports, from fields the context
builds once; ``SUITE_TABLE`` picks the suite of each model kind.  One
reducer, :func:`~cartanweyl.reduction.worst_entry`, reads each residual down
to one value per point.  One loop visits the sample points in batches of at
most ``BATCH_SIZE``, runs each requested suite once per batch, keeps each
row's values at every point, and picks each row's worst point with one
``np.argmax`` at the end.  Every piece of a batch, the ghost fields and the
BRS term caches included, carries a leading point axis and every kernel
acts on each point alone, so a batch reports, bit for bit, what its points
report one at a time.  Reports keep a deterministic payload (no timings
inside) so golden-file comparisons and the byte-identical-report guarantee
hold; the report's meta names each row's worst point.
"""

from __future__ import annotations

import dataclasses
import json
import math
import time
from dataclasses import dataclass, field
from functools import cached_property, partial

import numpy as np

from . import tensors
from .cartan import (CartanConnection, GaugeElement, KleinModel, VielbeinField, assemble,
                     build_normal, conjugate, covariant_d, curvature, gauge_transform,
                     normality_residual, random_gauge, random_polynomial)
from .dressing import (DressedPair, DressingU0, DressingU1, compatibility_residuals, dress,
                       dressed_normality, extract_tensors, full_pipeline, gr_dress,
                       pair_residuals)
from .errors import CartanWeylError, ScenarioError
from .exprs import eval_jets
from .forms import MForm, form_comps, gcomm, scale_by_jet
from .jets import jmul, jtrunc, order_of
from .orders import order_plan
from .reduction import worst_entry
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
    worst_point: int = 0        # absolute index of the point the residual came from

    @property
    def passed(self):
        return bool(math.isfinite(self.residual) and self.residual <= self.threshold)

    @property
    def headroom(self):
        """Digits between the residual and the threshold, -log10(residual /
        threshold); None for a zero or non-finite residual."""
        if not (math.isfinite(self.residual) and self.residual > 0.0):
            return None
        return -math.log10(self.residual / self.threshold)


@dataclass
class Report:
    scenario: dict
    rows: list = field(default_factory=list)
    tensors: dict = field(default_factory=dict)
    wall_time: float = 0.0

    def add(self, name, residual, threshold, worst_point=0):
        self.rows.append(CheckRow(name, float(residual), float(threshold), worst_point))

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
        return out

    def meta(self):
        """What the payload leaves out: the wall time, and for each row the
        point its residual came from and the headroom there."""
        return {"wall_time_s": self.wall_time,
                "rows": {r.name: {"worst_point": r.worst_point, "headroom_digits": r.headroom}
                         for r in self.rows}}

    def to_json(self):
        doc = {"payload": self.payload(), "meta": self.meta()}
        return json.dumps(doc, indent=2, sort_keys=True)

    def summary_lines(self):
        lines = []
        for r in self.rows:
            status = "PASS" if r.passed else "FAIL"
            lines.append(f"[{status}] {r.name}: residual {r.residual:.3e} "
                         f"(threshold {r.threshold:.1e})")
        return lines


# ---------------------------------------------------------------------------
# scenario plumbing
# ---------------------------------------------------------------------------

# the Weyl factor exp(phi) of a scenario without one
DEFAULT_WEYL = "x0/4"


def _parsed_list(scn, texts):
    """Parse trees of a list of expression strings (None stays None)."""
    return None if texts is None else [scn.parsed(t) for t in texts]


def base_connection(scn, model, conn, e, point, rng):
    """The scenario's input connection and its effective vielbein.

    Starts from the normal connection ``conn`` of the vielbein jets ``e`` and
    applies the scenario's deformation and gauge scramble, drawing from
    ``rng``.  The theta block of the returned connection equals e dx for the
    returned e, including the z and S factors of any scramble.  The
    deformation is built at the order of ``e``, and the scramble, like every
    gauge element, one order above the connection: that cuts e to it too.
    """
    if not scn.normal:
        conn = deformed_connection(conn, model, point, order_of(model.m, e), rng)
    if scn.gauge:
        if scn.gauge.get("seeded"):
            ge = random_gauge(model, rng, point=point)
        else:
            ge = GaugeElement(z=scn.parsed(scn.gauge.get("z")),
                              so=_parsed_list(scn, scn.gauge.get("so")),
                              r=_parsed_list(scn, scn.gauge.get("r")))
        mats = ge.matrices(model, point, conn.order + 1)
        conn = gauge_transform(conn, mats["gamma"], mats["gamma_inv"])
        if "Sinv" in mats:
            e = tensors.jeinsum("ab,bm->am", mats["Sinv"], e, model.m)
        if "z" in mats:
            e = jmul(mats["z"][..., None, None, :], e, model.m)
    return conn, e


def deformed_connection(conn, model, point, order, rng):
    """Add a seeded g-valued 1-form: torsion, trace and Ricci defects at once.

    One degree-1 polynomial per entry and form component, drawn for a, then
    alpha, then the so(eta) part of A, and shifted to the points together;
    ``rng`` lists one rng per point, and each point's polynomials come from
    its own.
    """
    m = model.m
    pairs = form_comps(m, 2)
    count = (1 + m + len(pairs)) * m
    polys = list(np.stack([[random_polynomial(g, m, degree=1, scale=0.5)
                            for _ in range(count)] for g in rng], axis=1))
    jets = eval_jets(polys, model.chart, point, order)
    jets = jets.reshape(jets.shape[:-2] + (1 + m + len(pairs), m, -1))
    lead = jets.shape[:-3]
    da = MForm.zeros(m, (1, 1), 1, 0, order, lead)
    da.data[..., 0, 0, :, :] = jets[..., 0, :, :]
    dalpha = MForm.zeros(m, (1, m), 1, 0, order, lead)
    dalpha.data[..., 0, :, :, :] = jets[..., 1:m + 1, :, :]
    # so(eta)-valued perturbation of A keeps g-valuedness but adds torsion
    sig = model.eta
    dA = MForm.zeros(m, (m, m), 1, 0, order, lead)
    for k, (i, j) in enumerate(pairs):
        c = jets[..., m + 1 + k, :, :]
        dA.data[..., i, j, :, :] = sig[j] * c
        dA.data[..., j, i, :, :] = -sig[i] * c
    return assemble(model, a=conn.a() + da, alpha=conn.alpha() + dalpha,
                    theta=conn.theta(), A=conn.A() + dA)


class PointContext:
    """What every suite reads at a batch of sample points, each piece built once.

    ``PointContext(scn, model, vb, start, stop)`` covers points start ..
    stop - 1, and every piece carries one leading point axis, so each suite
    runs once on the whole batch; a lone point is a batch of one.  Point
    ``i`` is seeded as ``(seed, point_offset + i)`` and draws from its own
    rng.  The vielbein jets and their normal connection come first;
    ``base_connection`` then scrambles that connection and is the first to
    draw from each point's rng.  Every suite that draws resumes from the
    state right after it (:meth:`rng`).  Each piece is built on first use,
    so a lone gauge suite never runs the dressing pipeline, no suite changes
    one in place, and each takes its jet order from ``plan``, the model's
    :class:`~cartanweyl.orders.OrderPlan`.
    """

    def __init__(self, scn, model, vb, start, stop):
        self.scn, self.model, self.vb = scn, model, vb
        self.seed = [(scn.seed, scn.point_offset + i) for i in range(start, stop)]
        self.point = scn.points[start:stop]
        self.plan = order_plan(model.kind)

    @cached_property
    def e_normal(self):
        return self.vb.jets_at(self.point, self.plan.build)

    @cached_property
    def normal(self):
        """The normal connection of :attr:`e_normal`."""
        return build_normal(self.e_normal, self.model, self.point, self.plan.build)

    @cached_property
    def base(self):
        """(connection, vielbein jets) after the scenario's scramble."""
        rng = self.fresh_rng()
        conn_e = base_connection(self.scn, self.model, self.normal, self.e_normal,
                                 self.point, rng)
        self._drawn = [g.bit_generator.state for g in rng]
        return conn_e

    @cached_property
    def fields(self):
        return full_pipeline(*self.base)

    def fresh_rng(self):
        """A new rng per point, seeded with the point's seed."""
        return [np.random.default_rng(s) for s in self.seed]

    def rng(self):
        """The point rngs at the state right after ``base_connection`` drew."""
        self.base
        rngs = self.fresh_rng()
        for g, state in zip(rngs, self._drawn):
            g.bit_generator.state = state
        return rngs


def transform_routes(conn, routes):
    """``conn`` moved by each (gamma, gamma_inv) pair of ``routes``, as one
    :func:`gauge_transform` over a leading route axis in front of any point
    axes; ``point_of(out, i)`` is route i.  Every pair has one order."""
    def stacked(forms):
        f = forms[0]
        return MForm(f.m, f.shape, f.p, f.q, f.order, np.stack([x.data for x in forms]))

    gammas, ginvs = zip(*routes)
    return gauge_transform(conn, stacked(gammas), stacked(ginvs))


def point_of(x, slot):
    """Point ``slot`` of a piece of a batch, or route ``slot`` of a
    :func:`transform_routes` result: arrays and forms lose their leading
    axis, containers are sliced entry by entry."""
    if isinstance(x, np.ndarray):
        return x[slot]
    if isinstance(x, MForm):
        return MForm(x.m, x.shape, x.p, x.q, x.order, x.data[slot])
    if isinstance(x, CartanConnection):
        return CartanConnection(x.model, point_of(x.omega, slot))
    if isinstance(x, (DressedPair, DressingU0, DressingU1)):
        return type(x)(**{f.name: point_of(getattr(x, f.name), slot)
                          for f in dataclasses.fields(x)})
    if isinstance(x, dict):
        return {k: point_of(v, slot) for k, v in x.items()}
    if isinstance(x, tuple):
        return tuple(point_of(v, slot) for v in x)
    return x


# ---------------------------------------------------------------------------
# suites, each mapping a batch's context to {row: residual}, and the loop
# that runs them
# ---------------------------------------------------------------------------

def gauge_suite(ctx):
    scn, model, point = ctx.scn, ctx.model, ctx.point
    conn, _ = ctx.base
    Om = curvature(conn)
    res = {}
    # the one row that takes a d of the curvature; the routes after it read
    # values only
    res["bianchi"] = covariant_d(conn.omega, Om)
    if model.kind == "mobius":
        conn = conn.truncate(ctx.plan.route)
        k = conn.order + 1
        rng = ctx.rng()
        mats = random_gauge(model, rng, point=point).matrices(model, point, k)
        m2 = random_gauge(model, rng, point=point).matrices(model, point, k)
        g12 = mats["gamma"].wedge(m2["gamma"])
        g12i = m2["gamma_inv"].wedge(mats["gamma_inv"])
        # unipotent factor: a -> a - r theta; Weyl factor: theta -> z theta
        r_ge = GaugeElement(r=_parsed_list(scn, [f"x{i}/3 + 1/{4 + i}"
                                                 for i in range(model.m)]))
        m1 = r_ge.matrices(model, point, k)
        mw = GaugeElement(z=scn.parsed("1 + x0/4")).matrices(model, point, k)
        routes = transform_routes(conn, [(mats["gamma"], mats["gamma_inv"]), (g12, g12i),
                                         (m1["gamma1"], m1["gamma1_inv"]),
                                         (mw["W"], mw["Winv"])])
        conn_g, rhs, c1, cw = (point_of(routes, i) for i in range(4))
        conj = conjugate(Om, mats["gamma"], mats["gamma_inv"])
        res["curvature_equivariance"] = curvature(conn_g) - conj
        # right action on a random pair
        lhs = gauge_transform(conn_g, m2["gamma"], m2["gamma_inv"])
        res["right_action"] = lhs.omega - rhs.omega
        rth = m1["r"].wedge(conn.theta())
        res["unipotent_trace_shift"] = c1.a() - (conn.a() - rth)
        zth = scale_by_jet(conn.theta(), mw["z"])
        res["weyl_soldering_scale"] = cw.theta() - zth
    if scn.normal and not scn.gauge:
        t, r_, f_ = normality_residual(Om, ctx.e_normal[..., 0], model)
        res["normality_theta"] = t
        if model.kind == "mobius":
            # GR normality is torsion-freeness only: Ric(F) is the
            # actual Ricci tensor there and need not vanish
            res["normality_ricci"] = r_
            res["normality_trace"] = f_
    return res


def dressing_suite(ctx):
    """The dressing suite of the Moebius model."""
    scn, model, point = ctx.scn, ctx.model, ctx.point
    conn, e_full = ctx.base
    fields = ctx.fields
    rng = ctx.rng()
    res = pair_residuals(model, fields.varpi0, fields.Omega0, fields.g, fields.Gamma)
    res["a1_residual"] = model.block(fields.varpi1, 1, 1)
    # blocks (1,1) and (3,3) of the dressed connection vanish
    res["corner_residual"] = (model.block(fields.varpi0, 1, 1), model.block(fields.varpi0, 3, 3))
    # one step through u = u1 u0 lands on the same pair as the two stages
    u, uinv = fields.u1.mat.wedge(fields.u0.mat), fields.u0.inv.wedge(fields.u1.inv)
    res["single_step"] = (fields.varpi0 - conjugate(conn.omega, u, uinv, connection=True),
                          fields.Omega0 - conjugate(fields.Omega, u, uinv))
    # invariance under the erased sectors, same composite output.  The
    # unipotent element's gamma is its gamma_1 and the Lorentz one's its
    # S_emb, so the connection is moved once by each, and both routes are
    # dressed together
    low = conn.truncate(ctx.plan.route)
    k = low.order + 1
    mats1 = random_gauge(model, rng, with_z=False, with_s=False,
                         point=point).matrices(model, point, k)
    matsS = random_gauge(model, rng, with_z=False, with_r=False,
                         point=point).matrices(model, point, k)
    routes = transform_routes(low, [(mats1["gamma"], mats1["gamma_inv"]),
                                    (matsS["gamma"], matsS["gamma_inv"])])
    # each route's (u1, u0, Omega, varpi1, Omega1, varpi0, Omega0)
    dressed = dress(routes)
    stages1, stagesS = (point_of(dressed, i) for i in range(2))
    for tag, (*_, varpi0_g, Omega0_g) in (("k1", stages1), ("so", stagesS)):
        res[f"invariance_{tag}_varpi0"] = fields.varpi0 - varpi0_g
        res[f"invariance_{tag}_Omega0"] = fields.Omega0 - Omega0_g
    # midpoint equivariance: varpi1^S = S^-1 varpi1 S + S^-1 dS
    S, Sinv = matsS["S_emb"], matsS["Sinv_emb"]
    varpi1_S, Omega1_S = stagesS[3:5]
    res["equivariance_varpi1_S"] = varpi1_S - conjugate(fields.varpi1, S, Sinv, connection=True)
    res["equivariance_Omega1_S"] = Omega1_S - conjugate(fields.Omega1, S, Sinv)
    # compatibility conditions, on the dressings of the same two routes
    comp = compatibility_residuals((fields.u1, fields.u0), stages1[:2], mats1, stagesS[:2],
                                   matsS)
    res.update({f"compat_{k}": v for k, v in comp.items()})
    # tensors against the classical oracle, whose rows read values only
    B = tensors.classical_bundle(jtrunc(e_full, model.m, ctx.plan.oracle),
                                 scn.signature, model.m)
    res["oracle_g"] = fields.g[..., 0] - B["g"][..., 0]
    if scn.normal:
        # only torsion-free inputs reduce Gamma to the Levi-Civita symbols
        res["oracle_Gamma"] = fields.Gamma[..., 0] - B["Gamma"][..., 0]
        res["oracle_P"] = fields.P[..., 0] - B["P"][..., 0]
        res["oracle_C"] = fields.C - B["C"][..., 0]
        res["oracle_W"] = fields.W - B["W"][..., 0]
        res["dressed_torsion"], res["dressed_ricci"], res["dressed_trace"] = (
            dressed_normality(fields))
    return res


def gr_dressing_suite(ctx):
    """The dressing suite of the Poincare model, on the normal connection.

    Every row reads values: metricity takes one d of g and curvature_compat
    one of varpi-hat = e^-1 varpi e + e^-1 de.  The Lorentz scramble draws
    from a fresh rng, not from the state after ``base_connection``.
    """
    scn, model, point = ctx.scn, ctx.model, ctx.point
    low = ctx.normal.truncate(ctx.plan.route)
    e = jtrunc(ctx.e_normal, model.m, ctx.plan.gr_vielbein)
    varpi_h, Omega_h, Gamma, R, T, g = gr_dress(low, e)
    res = pair_residuals(model, varpi_h, Omega_h, g, Gamma)
    B = tensors.curvature_bundle(e, scn.signature, model.m)
    res["oracle_Gamma"] = Gamma[..., 0] - B["Gamma"][..., 0]
    res["oracle_R"] = R - B["Riemann"][..., 0]
    res["torsion"] = T
    # Lorentz invariance of the dressed outputs
    ge = random_gauge(model, ctx.fresh_rng(), with_z=False, with_r=False, point=point)
    mats = ge.matrices(model, point, low.order + 1)
    conn_S = gauge_transform(low, mats["gamma"], mats["gamma_inv"])
    eS = tensors.jeinsum("ab,bm->am", mats["Sinv"], e, model.m)
    _, _, G2, R2, T2, _ = gr_dress(conn_S, eS)
    res["so_invariance_Gamma"] = Gamma[..., 0] - G2[..., 0]
    res["so_invariance_R"] = R - R2
    res["so_invariance_T"] = T - T2
    return res


def weyl_suite(ctx):
    scn, model, point = ctx.scn, ctx.model, ctx.point
    conn, _ = ctx.base
    fields = ctx.fields
    wz = WeylElement(scn.parsed(scn.weyl or DEFAULT_WEYL))
    z, zeta = wz.at(scn.chart, point, ctx.plan.build)
    mats = weyl_matrices(model, z, zeta, fields.u0)
    res = {}
    # the one row read on its whole jet, not its values
    res["wbar_closed_form"] = (mats["wbar"] - wbar_closed_form(model, z, zeta, fields.e)).data
    # u1 and k1 commute (both unipotent on the same row pattern)
    res["k1_u1_commute"] = gcomm(mats["k1"], fields.u1.mat)
    # z e is read by the rescaled route alone, so e is cut to the oracle order
    stW = weyl_transform_dressed(
        dataclasses.replace(fields, e=jtrunc(fields.e, model.m, ctx.plan.oracle)), mats)
    laws = closed_form_laws(fields, z, zeta)
    res["law_metric"] = stW.g[..., 0] - laws["g"]
    res["law_christoffel"] = stW.Gamma[..., 0] - laws["Gamma"]
    res["law_schouten"] = stW.P[..., 0] - laws["P"]
    res["law_torsion"] = stW.T - laws["T"]
    res["law_trace"] = stW.f0 - laws["f0"]
    res["law_weyl_tensor"] = stW.W - laws["W"]
    res["law_cotton"] = stW.C - laws["C"]
    # antisymmetric parts are inert
    asym = 0.5 * (stW.Gamma[..., 0] - stW.Gamma[..., 0].swapaxes(-1, -2))
    asym0 = 0.5 * (fields.Gamma[..., 0] - fields.Gamma[..., 0].swapaxes(-1, -2))
    res["law_antisym_christoffel"] = asym - asym0
    # route three: Weyl-transform the input connection and dress it again
    low = conn.truncate(ctx.plan.route)
    k = low.order + 1       # a gauge element one order above the connection
    *_, varpi0_W, Omega0_W = dress(gauge_transform(low, mats["W"].truncate(k),
                                                   mats["Winv"].truncate(k)))
    res["route_pipeline_varpi0"] = stW.varpi0 - varpi0_W
    res["route_pipeline_Omega0"] = stW.Omega0 - Omega0_W
    if scn.normal:
        # and from the rescaled vielbein through the normal construction,
        # whose rows, like the oracle's, read values of up to three d of e
        *_, varpi0_2, Omega0_2 = dress(build_normal(stW.e, model, point, ctx.plan.oracle))
        g2, Gamma2, P2, _, _, C2, W2 = extract_tensors(varpi0_2, Omega0_2, model)
        res["route_rescaled_g"] = stW.g[..., 0] - g2[..., 0]
        res["route_rescaled_Gamma"] = stW.Gamma[..., 0] - Gamma2[..., 0]
        res["route_rescaled_P"] = stW.P[..., 0] - P2[..., 0]
        res["route_rescaled_C"] = stW.C - C2
        res["route_rescaled_W"] = stW.W - W2
        res["weyl_tensor_invariance"] = stW.W - fields.W
        (res["normality_preserved_T"], res["normality_preserved_ric"],
         res["normality_preserved_f0"]) = dressed_normality(stW)
    # redundancy: entry (2,3) of the transformed pair
    res["redundancy_varpi"] = _redundancy(stW.varpi0, stW, model)
    res["redundancy_omega"] = _redundancy(stW.Omega0, stW, model)
    # group law; the second element's zeta = d phi is read at the law's order
    law = ctx.plan.group_law
    w2 = WeylElement(scn.parsed("x1/5 + x0*x0/10")).at(scn.chart, point, law + 1)
    res["group_law"] = weyl_group_law_residual(fields, stW, (z, zeta), w2, law)
    # first-stage (internal-index) action
    v1W, O1W, closed = weyl_transform_midlevel(fields, mats)
    for nm, ij, M in [("theta", (2, 1), v1W), ("A1", (2, 2), v1W),
                      ("alpha1", (1, 2), v1W), ("f1", (1, 1), O1W),
                      ("Theta1", (2, 1), O1W), ("F1", (2, 2), O1W),
                      ("Pi1", (1, 2), O1W)]:
        res[f"midlevel_{nm}"] = model.block(M, *ij) - closed[nm]
    if scn.normal:
        res["midlevel_F1_invariance"] = model.block(O1W, 2, 2) - model.block(fields.Omega1, 2, 2)
    return res


def _redundancy(form, stW, model):
    """Entry (2,3) of a dressed form against g^-1 times its entry (1,2)^T."""
    want = np.einsum("...rl,...lf->...rf", np.linalg.inv(stW.g[..., 0]),
                     model.block(form, 1, 2).data[..., 0, :, :, 0])
    return model.block(form, 2, 3).data[..., :, 0, :, 0] - want


def brs_suite(ctx):
    """The brs suite of the Moebius model."""
    # the brs suites import brs on first use: its import takes over 10 ms
    # (python -X importtime), which gauge, dressing and weyl runs need not pay
    from .brs import linearization_check
    scn, model, point = ctx.scn, ctx.model, ctx.point
    res = _conformal_brs(ctx, scn.ghosts or {})
    # the check dresses ctx.normal cut to order 1 and builds its own BRS
    # object; the suite's is gone with its helper, so a batch never holds two
    lin = linearization_check(ctx.normal, ctx.e_normal, model,
                              scn.parsed(scn.weyl or DEFAULT_WEYL), point)
    res.update({f"linearization_{k}": v for k, v in lin.items()})
    return res


def _conformal_brs(ctx, ghosts):
    """The brs rows of a Moebius batch but the linearization."""
    from .brs import (ConformalBRS, GhostSpec, algebraic_connection, modified_brs_residuals,
                      nilpotency_residuals, residual_weyl_brs, russian_residual,
                      two_steps_in_one)
    scn, model = ctx.scn, ctx.model
    spec = GhostSpec(eps=scn.parsed(ghosts.get("eps", "1/2 + x0/3")),
                     iota=_parsed_list(scn, ghosts.get("iota")),
                     lorentz=_parsed_list(scn, ghosts.get("lorentz")))
    fields = ctx.fields
    b = ConformalBRS(*ctx.base, spec, ctx.point, ctx.seed)
    res = {}
    # every read is a value but A and v of the Russian formula, whose d it takes
    ev = partial(b.ev, need=0)
    for tag, (A, v, F) in (("", (b.L_varpi, b.T_v, b.T_omega)),
                           ("_dressed", (b.T_varpi0, b.T_vhat, b.T_omega0))):
        rs = russian_residual(b.ev(A, 1), b.ev(v, 1), ev(F), ev(b.stotal(A)),
                              ev(b.stotal(v)))
        res.update({f"russian{tag}_deg{d}": r for d, r in enumerate(rs)})
    vh = ev(b.T_vhat)
    res.update(nilpotency_residuals(b, {"varpi": b.L_varpi, "v": b.T_v, "u1": b.T_u1,
                                        "u0": b.T_u0}))
    res["first_ghost"] = ev(b.T_vhat1) - b.expected_first_ghost()
    res["final_ghost"] = vh - b.expected_final_ghost
    # sector transformation rules of the dressing fields
    u1 = ev(b.T_u1)
    vi = ev(b.V["i"])
    vl = ev(b.V["L"])
    res["u1_inversion_rule"] = ev(b.s(b.T_u1, "i")) + vi.wedge(u1)
    res["u1_lorentz_rule"] = ev(b.s(b.T_u1, "L")) - gcomm(u1, vl)
    u0 = ev(b.T_u0)
    epst = b.eps_eye(model.n, range(*model.bounds(model.lorentz)))
    su0W = ev(b.s(b.T_u0, "W"))
    res["u0_weyl_rule"] = su0W - epst.wedge(u0)
    _, _, res["two_steps_decomposition"], res["two_steps_ghost"] = two_steps_in_one(b)
    for stage, terms in (("u1", (b.T_varpi1, b.T_omega1, b.T_vhat1)),
                         ("full", (b.T_varpi0, b.T_omega0, b.T_vhat))):
        conn_r, curv_r, ghost_r = modified_brs_residuals(b, *terms)
        res[f"lemma_{stage}_connection"] = conn_r
        res[f"lemma_{stage}_curvature"] = curv_r
        res[f"lemma_{stage}_ghost"] = ghost_r
    res.update(residual_weyl_brs(fields, b))
    _, res["algebraic_connection_entries"], res["algebraic_connection_russian"] = (
        algebraic_connection(fields, b))
    return res


def gr_brs_suite(ctx):
    """The brs suite of the Poincare model, on the normal connection."""
    from .brs import PoincareBRS
    lorentz = _parsed_list(ctx.scn, (ctx.scn.ghosts or {}).get("lorentz"))
    return PoincareBRS(ctx.normal, ctx.e_normal, lorentz, ctx.point, ctx.seed).residuals()


SUITES = ("gauge", "dressing", "weyl", "brs")
# (model kind, suite) -> (row prefix, residuals, threshold rules).
# A row takes the threshold of the first rule with a prefix its name starts
# with, else the scenario tolerance.
_ORACLE_RULES = ((("oracle",), ORACLE),)
SUITE_TABLE = {
    ("mobius", "gauge"): ("gauge", gauge_suite, ((("bianchi",), STRICT),)),
    ("poincare", "gauge"): ("gauge", gauge_suite, ((("bianchi",), STRICT),)),
    ("mobius", "dressing"): ("dressing", dressing_suite, _ORACLE_RULES),
    ("poincare", "dressing"): ("gr", gr_dressing_suite, _ORACLE_RULES),
    ("mobius", "weyl"): ("weyl", weyl_suite, ((("law", "route"), ORACLE),)),
    ("mobius", "brs"): ("brs", brs_suite, (
        (("linearization",), LINEAR),
        (("russian", "s2", "sH2", "sP2", "mixed"), STRICT))),
    ("poincare", "brs"): ("brs-gr", gr_brs_suite, ((("",), STRICT),)),
}


# Points per batch: the suites run once per batch, and every piece of a
# batch holds this many points at most, so memory stays flat in the number
# of points.
BATCH_SIZE = 4


def _batch_rows(ctx, suites):
    """{suite: {row: one value per point}} of every entry of ``suites``: each
    row's residual read through :func:`worst_entry`."""
    out = {}
    lead = (len(ctx.point),)
    for name, _, residuals, _ in suites:
        try:
            rows = residuals(ctx)
            out[name] = {row: worst_entry(v, lead) for row, v in rows.items()}
        except CartanWeylError as ex:
            # label the message in place: a subclass constructor may
            # take more than the message (ExprSyntaxError takes pos)
            ex.args = (f"[{name} suite] {ex}",)
            raise
    return out


def run_check(scn, suite="all", visit=None):
    """The report of ``suite`` ("all" or one of SUITES) on ``scn``.

    Point ``i`` of the scenario is seeded as ``(seed, point_offset + i)``, so
    a one-point sub-scenario with the matching ``point_offset`` reproduces
    that point's residuals exactly.  The points run in batches of at most
    BATCH_SIZE, each with one :class:`PointContext` shared by every suite of
    the run and dropped before the next batch; ``visit(ctx)`` runs after the
    batch's suites.  A row is the worst residual over the points, the first
    NaN or else the first of the largest values (one ``np.argmax`` over
    every point), and the report's meta names the point it came from.  A
    batch that raises is run again one point at a time, so the error is the
    one the first failing point raises, in the first suite that fails on it.
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
    suites = [(name, *SUITE_TABLE[model.kind, name])
              for name in (SUITES if suite == "all" else (suite,))
              if (model.kind, name) in SUITE_TABLE]
    vb = VielbeinField(scn.chart, [_parsed_list(scn, row) for row in scn.vielbein])
    values = {name: {} for name, *_ in suites}     # {suite: {row: [values per batch]}}
    for start in range(0, len(scn.points), BATCH_SIZE):
        stop = min(start + BATCH_SIZE, len(scn.points))
        ctx = PointContext(scn, model, vb, start, stop)
        try:
            rows = _batch_rows(ctx, suites)
        except CartanWeylError:
            for idx in range(start, stop):
                _batch_rows(PointContext(scn, model, vb, idx, idx + 1), suites)
            raise
        for name, got in rows.items():
            for row, v in got.items():
                values[name].setdefault(row, []).append(v)
        if visit is not None:
            visit(ctx)
    report = Report(scenario=scn.to_dict())
    for name, prefix, _, rules in suites:
        for row, parts in sorted(values[name].items()):
            v = np.concatenate(parts)
            i = int(np.argmax(v))       # the first NaN, else the first largest value
            thr = next((t for pre, t in rules if row.startswith(pre)), scn.tolerance)
            report.add(f"{prefix}/{row}", v[i], thr, worst_point=scn.point_offset + i)
    report.wall_time = time.perf_counter() - t0
    return report


def compute_tensors(scn):
    """Dressing-suite report plus g, Gamma, P, T, C, W, f0 at each sample
    point.  The tensors are those of the Moebius dressing: a scenario of
    another model is a :class:`ScenarioError`."""
    if scn.model != "mobius":
        raise ScenarioError(f"compute dumps the Moebius dressing's tensors; "
                            f"the {scn.model} model has none")
    dump = {}

    def visit(ctx):
        for slot, point in enumerate(ctx.point):
            f = point_of(ctx.fields, slot)
            dump[str(list(point))] = {
                "g": f.g[..., 0].tolist(), "Gamma": f.Gamma[..., 0].tolist(),
                "P": f.P[..., 0].tolist(), "T": f.T.tolist(), "f0": f.f0.tolist(),
                "C": f.C.tolist(), "W": f.W.tolist(),
            }

    report = run_check(scn, "dressing", visit)
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
