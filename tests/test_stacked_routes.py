"""Independent routes stacked into one kernel call give, bit for bit, what
the routes give one after another.

Every kernel acts on each slice of its leading axes alone, so a route axis
in front of the point axes changes no bit.  Each test keeps the former call
sequence, one route at a time, as its oracle and compares every output with
exact equality.
"""

import dataclasses
import math

import numpy as np
import pytest

from cartanweyl import brs, checks
from cartanweyl.cartan import (KleinModel, VielbeinField, gauge_transform, random_gauge,
                               weyl_diagonal)
from cartanweyl.dressing import (DressedPair, DressingU0, dress, extract_tensors, gr_dress,
                                 pair_residuals, u0_from_vielbein)
from cartanweyl.exprs import compile_expr, eval_jets
from cartanweyl.forms import MForm
from cartanweyl.jets import jexp, jmul, jrecip, jtrunc, order_of
from cartanweyl.orders import order_plan
from cartanweyl.scenarios import catalog
from cartanweyl.tensors import curvature_bundle, dstack, jeinsum
from cartanweyl.weyl import (WeylElement, weyl_group_law_residual, weyl_matrices,
                             weyl_transform_dressed)
from gauge_oracle import k1_in_place


def _context(name, m):
    scn = catalog(name, m)
    model = KleinModel(scn.model, scn.chart)
    vb = VielbeinField(scn.chart, [[scn.parsed(t) for t in row] for row in scn.vielbein])
    return checks.PointContext(scn, model, vb, 0, len(scn.points))


def _same(got, want):
    if isinstance(want, MForm):
        assert (got.shape, got.p, got.q, got.order) == (want.shape, want.p, want.q, want.order)
        got, want = got.data, want.data
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


def _weyl_matrices_in_turn(model, z, zeta, u0):
    """Wbar and Wbar^-1 as two chains of four wedges each."""
    m = model.m
    order = min(order_of(m, z), order_of(m, zeta), order_of(m, u0.e))
    zinv = jrecip(z, m)
    W, Winv = weyl_diagonal(z, zinv, model, order)
    eye = np.eye(m, dtype=bool)[:, :, None]
    Wt, Wtinv = (model.embed(np.where(eye, jtrunc(x, m, order)[..., None, None, :], 0.0))
                 for x in (z, zinv))
    xi = MForm.of_jets(m, jeinsum("m,ma->a", zeta, u0.einv, m)[..., None, :, :])
    k1, k1inv = k1_in_place(xi, model), k1_in_place(xi.scale(-1.0), model)
    wbar = u0.inv.wedge(k1.wedge(u0.mat.wedge(W.wedge(Wt))))
    wbar_inv = Wtinv.wedge(Winv.wedge(u0.inv.wedge(k1inv.wedge(u0.mat))))
    return {"W": W, "Winv": Winv, "k1": k1, "k1inv": k1inv, "xi": xi,
            "wbar": wbar, "wbar_inv": wbar_inv, "z": z, "zinv": zinv}


def _weyl_inputs(ctx):
    """The weyl suite's (fields, z, zeta, mats, moved pair, second element)."""
    scn, plan = ctx.scn, ctx.plan
    fields = ctx.fields
    z, zeta = WeylElement(scn.parsed(scn.weyl or checks.DEFAULT_WEYL)).at(
        scn.chart, ctx.point, plan.build)
    mats = weyl_matrices(ctx.model, z, zeta, fields.u0)
    stW = weyl_transform_dressed(
        dataclasses.replace(fields, e=jtrunc(fields.e, ctx.model.m, plan.oracle)), mats)
    w2 = WeylElement(scn.parsed("x1/5 + x0*x0/10")).at(scn.chart, ctx.point,
                                                        plan.group_law + 1)
    return fields, z, zeta, mats, stW, w2


@pytest.mark.parametrize("name, m", [("generic", 3), ("torsionful", 4), ("generic", 5)])
def test_weyl_matrices_stack_the_two_chains(name, m):
    ctx = _context(name, m)
    fields, z, zeta, mats, *_ = _weyl_inputs(ctx)
    want = _weyl_matrices_in_turn(ctx.model, z, zeta, fields.u0)
    assert mats.keys() == want.keys()
    for key in want:
        _same(mats[key], want[key])


def _group_law_in_turn(state, moved, first, second, order):
    """z2 on ``moved`` and z1 z2 on ``state``, one after the other, each
    through ``weyl_transform_dressed``."""
    m = state.model.m
    (z1, zeta1), (z2, zeta2) = [tuple(jtrunc(x, m, order) for x in pair)
                                for pair in (first, second)]
    model = state.model
    u0_moved = u0_from_vielbein(jtrunc(moved.e, m, order), model)
    s12 = weyl_transform_dressed(moved, _weyl_matrices_in_turn(model, z2, zeta2, u0_moved))
    z12 = jmul(z1, z2, m)
    u0 = state.u0
    u0_low = DressingU0(*(jtrunc(x, m, order) for x in (u0.e, u0.einv)),
                        *(x.truncate(order) for x in (u0.mat, u0.inv)))
    s_both = weyl_transform_dressed(
        state, _weyl_matrices_in_turn(model, z12, zeta1 + zeta2, u0_low))
    return s12.varpi0 - s_both.varpi0, s12.Omega0 - s_both.Omega0


@pytest.mark.parametrize("name, m", [("generic", 3), ("torsionful", 4), ("generic", 5)])
def test_weyl_group_law_stacks_its_two_sides(name, m):
    ctx = _context(name, m)
    fields, z, zeta, _, stW, w2 = _weyl_inputs(ctx)
    law = ctx.plan.group_law
    got = weyl_group_law_residual(fields, stW, (z, zeta), w2, law)
    want = _group_law_in_turn(fields, stW, (z, zeta), w2, law)
    for g, w in zip(got, want):
        _same(g, w)


def _gr_dressing_in_turn(ctx):
    """The Poincare dressing rows, the base and the Lorentz-moved route
    dressed by two ``gr_dress`` calls."""
    scn, model, point = ctx.scn, ctx.model, ctx.point
    low = ctx.normal.truncate(ctx.plan.route)
    e = jtrunc(ctx.e_normal, model.m, ctx.plan.gr_vielbein)
    varpi_h, Omega_h, Gamma, R, T, g = gr_dress(low, e)
    res = pair_residuals(model, varpi_h, Omega_h, g, Gamma)
    B = curvature_bundle(e, scn.signature, model.m)
    res["oracle_Gamma"] = Gamma[..., 0] - B["Gamma"][..., 0]
    res["oracle_R"] = R - B["Riemann"][..., 0]
    res["torsion"] = T
    ge = random_gauge(model, ctx.fresh_rng(), with_z=False, with_r=False, point=point)
    mats = ge.matrices(model, point, low.order + 1)
    conn_S = gauge_transform(low, mats["gamma"], mats["gamma_inv"])
    eS = jeinsum("ab,bm->am", mats["Sinv"], e, model.m)
    _, _, G2, R2, T2, _ = gr_dress(conn_S, eS)
    res["so_invariance_Gamma"] = Gamma[..., 0] - G2[..., 0]
    res["so_invariance_R"] = R - R2
    res["so_invariance_T"] = T - T2
    return res


@pytest.mark.parametrize("m", [3, 4, 5])
def test_gr_dressing_suite_dresses_both_routes_in_one_call(m):
    got = checks.gr_dressing_suite(_context("poincare", m))
    want = _gr_dressing_in_turn(_context("poincare", m))
    assert got.keys() == want.keys()
    for key in want:
        _same(got[key], want[key])


def _finite_side_in_turn(conn, e, model, phi, point):
    """The finite side of the linearization check, its four moved pairs
    (t = h, -h, h/2, -h/2) one ``weyl_transform_dressed`` call each."""
    m = model.m
    k = order_plan(model.kind).route
    e1 = jtrunc(e, m, k)
    _, u0, _, _, _, varpi0, Omega0 = dress(conn.truncate(k), e1)
    varpi0, Omega0 = varpi0.truncate(0), Omega0.truncate(0)
    low = DressedPair(model, varpi0, Omega0, e1, *extract_tensors(varpi0, Omega0, model))
    phi_j = eval_jets([compile_expr(phi)], model.chart, point, k + 1)[..., 0, :]
    dphi = dstack(phi_j, m, 0)

    def tensors_at(t):
        z = jexp(t * jtrunc(phi_j, m, k), m)
        moved = weyl_transform_dressed(low, _weyl_matrices_in_turn(model, z, t * dphi, u0))
        return {"g": moved.g[..., 0], "Gamma": moved.Gamma[..., 0],
                "P": moved.P[..., 0], "C": moved.C, "W": moved.W}

    def diff_at(step):
        plus, minus = tensors_at(step), tensors_at(-step)
        return {k: (plus[k] - minus[k]) / (2.0 * step) for k in plus}

    d1, d2 = diff_at(brs.STEP), diff_at(brs.STEP / 2.0)
    return {k: (4.0 * d2[k] - d1[k]) / 3.0 for k in d1}


@pytest.mark.parametrize("name, m", [("generic", 3), ("diag-poly", 3), ("generic", 4)])
def test_linearization_check_moves_its_four_steps_in_one_stack(name, m, monkeypatch):
    """The rows read the finite side through ``worst_entry``; a spy there
    hands over each finite-side array, which must be the one the four calls
    in turn give."""
    ctx = _context(name, m)
    phi = ctx.scn.parsed(ctx.scn.weyl or checks.DEFAULT_WEYL)
    want = _finite_side_in_turn(ctx.normal, ctx.e_normal, ctx.model, phi, ctx.point)
    seen = []
    real = brs.worst_entry

    def spy(x, lead):
        seen.append(x)
        return real(x, lead)

    monkeypatch.setattr(brs, "worst_entry", spy)
    rows = brs.linearization_check(ctx.normal, ctx.e_normal, ctx.model, phi, ctx.point)
    # per tensor: the defect first, then the finite side
    finite = dict(zip(rows, seen[1::2]))
    assert finite.keys() == want.keys() and len(seen) == 2 * len(want)
    for key in want:
        _same(finite[key], want[key])
        assert math.isfinite(float(np.max(rows[key])))
