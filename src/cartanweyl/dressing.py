"""Two-stage dressing of the conformal Cartan connection.

Stage one extracts the unipotent field u1 from the gauge-fixing-like
condition that kills the scalar block of the connection; stage two absorbs
the vielbein.  The composite fields are inert under the inversion and
Lorentz sectors, leaving only the Weyl rescalings, and their blocks carry
the Riemannian data (metric, linear connection, trace-modified Ricci,
torsion, Cotton- and Weyl-type tensors) in plain coordinate indices.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .cartan import (KleinModel, conjugate, curvature, curvature_form, gauge_transform,
                     k1_matrix)
from .errors import ShapeError
from .forms import MForm, block_matrix, form_comps
from .jets import jder, jmat_inv, jtrunc, order_of, space
from .reduction import worst_of
from .tensors import jeinsum


@dataclass
class DressingU1:
    """Unipotent dressing built on the covector q = a . e^-1."""

    q: MForm          # (1, m) 0-form
    mat: MForm        # (n, n)
    inv: MForm


@dataclass
class DressingU0:
    """Block-diagonal dressing diag(1, e, 1) (or diag(e, 1) for Poincare)."""

    e: np.ndarray     # (m, m, C) jets
    einv: np.ndarray  # its inverse, for the callers that need e^-1 as well
    mat: MForm
    inv: MForm


@dataclass
class DressedPair:
    """The dressed pair, its vielbein and the tensors read off the pair.

    This is the state the finite Weyl action moves.
    """

    model: KleinModel
    varpi0: MForm
    Omega0: MForm
    e: np.ndarray
    # extracted 1-form tensors as jets: g[mu,nu], Gamma[rho,mu,nu], P[mu,nu]
    g: np.ndarray
    Gamma: np.ndarray
    P: np.ndarray
    # extracted 2-form tensors as values: antisymmetric in the last two slots
    T: np.ndarray
    f0: np.ndarray
    C: np.ndarray
    W: np.ndarray


@dataclass
class DressedFields(DressedPair):
    """Everything the two-stage pipeline produces at one sample point."""

    varpi1: MForm
    Omega1: MForm
    u1: DressingU1
    u0: DressingU0
    single_step_residual: float
    diagnostics: dict = field(default_factory=dict)


def vielbein_of(conn):
    """Vielbein jets read off the soldering block: theta = e dx."""
    model = conn.model
    m = model.m
    theta = conn.theta()
    e = np.empty((m, m, space(m, theta.order).size))
    for mu in range(m):
        e[:, mu, :] = theta.data[:, 0, mu, :]
    det = float(np.linalg.det(e[..., 0]))
    if abs(det) < 1e-8:
        raise ShapeError(f"soldering block is degenerate: |det e| = {abs(det):.3e}")
    return e


def extract_u1(conn, einv):
    """Dressing u1 from the vanishing of the dressed scalar block.

    q = a . e^-1 pointwise with full jets, for the inverse vielbein ``einv``;
    dressing by u1 zeroes block (1,1).
    """
    model = conn.model
    if model.kind != "mobius":
        raise ShapeError("u1 extraction applies to the Moebius model")
    m = model.m
    a = conn.a()  # (1,1) scalar 1-form
    order = min(a.order, order_of(m, einv))
    arow = np.empty((1, m, space(m, order).size))
    for mu in range(m):
        arow[0, mu] = a.truncate(order).data[0, 0, mu, :]
    qarr = jeinsum("om,ma->oa", arow, einv, m)
    q = MForm.zeros(m, (1, m), 0, 0, order_of(m, qarr))
    q.data[:, :, 0, :] = qarr
    mat = k1_matrix(q, model)
    inv = k1_matrix(q.scale(-1.0), model)
    return DressingU1(q=q, mat=mat, inv=inv)


def u0_from_vielbein(e, model):
    m = model.m
    order = order_of(m, e)
    eform = MForm.zeros(m, (m, m), 0, 0, order)
    eform.data[:, :, 0, :] = e
    einv = jmat_inv(e, m)
    einvform = MForm.zeros(m, (m, m), 0, 0, order)
    einvform.data[:, :, 0, :] = einv
    one = MForm.identity(m, 1, order)
    if model.kind == "poincare":
        mat = block_matrix([[eform, None], [None, one]], m, 0, 0, order)
        inv = block_matrix([[einvform, None], [None, one]], m, 0, 0, order)
    else:
        mat = block_matrix([[one, None, None], [None, eform, None],
                            [None, None, one]], m, 0, 0, order)
        inv = block_matrix([[one, None, None], [None, einvform, None],
                            [None, None, one]], m, 0, 0, order)
    return DressingU0(e=e, einv=einv, mat=mat, inv=inv)


def _two_form_components(block, m):
    """Antisymmetric component array X[..., mu, sigma] from stored comps."""
    comps = form_comps(m, 2)
    lead = block.shape
    out = np.zeros(lead + (m, m))
    for f, (mu, sg) in enumerate(comps):
        vals = block.data[:, :, f, 0]
        out[:, :, mu, sg] = vals
        out[:, :, sg, mu] = -vals
    return out


def extract_tensors(varpi0, Omega0, model):
    """Read the Riemannian parametrization out of the dressed pair."""
    m = model.m
    g = np.empty((m, m, space(m, varpi0.order).size))
    Gamma = np.empty((m, m, m, space(m, varpi0.order).size))
    P = np.empty((m, m, space(m, varpi0.order).size))
    b32 = model.block(varpi0, 3, 2)   # dx^T . g
    b22 = model.block(varpi0, 2, 2)   # Gamma
    b12 = model.block(varpi0, 1, 2)   # P
    for mu in range(m):
        g[mu, :, :] = b32.data[0, :, mu, :]
        P[mu, :, :] = b12.data[0, :, mu, :]
        Gamma[:, mu, :, :] = b22.data[:, :, mu, :]
    T = _two_form_components(model.block(Omega0, 2, 1), m)[:, 0]       # (rho, mu, sigma)
    f0 = _two_form_components(model.block(Omega0, 1, 1), m)[0, 0]      # (mu, sigma)
    C = _two_form_components(model.block(Omega0, 1, 2), m)[0]          # (nu, mu, sigma)
    W = _two_form_components(model.block(Omega0, 2, 2), m)             # (rho, nu, mu, sigma)
    return g, Gamma, P, T, f0, C, W


def full_pipeline(conn, e=None):
    """Both dressing stages plus the single-step cross-check.

    ``e`` defaults to the vielbein read off the soldering block; passing it
    explicitly is only useful to prove invariance statements where the same
    array must serve several scrambled connections.
    """
    model = conn.model
    m = model.m
    if e is None:
        e = vielbein_of(conn)
    u0 = u0_from_vielbein(e, model)
    u1 = extract_u1(conn, u0.einv)
    Om = curvature(conn).omega2
    varpi1 = conjugate(conn.omega, u1.mat, u1.inv, connection=True)
    Omega1 = conjugate(Om, u1.mat, u1.inv)
    varpi0 = conjugate(varpi1, u0.mat, u0.inv, connection=True)
    Omega0 = conjugate(Omega1, u0.mat, u0.inv)
    # single step through u = u1 u0
    u = u1.mat.wedge(u0.mat)
    uinv = u0.inv.wedge(u1.inv)
    varpi0_b = conjugate(conn.omega, u, uinv, connection=True)
    Omega0_b = conjugate(Om, u, uinv)
    single = worst_of(((varpi0 - varpi0_b).value_norm(),
                       (Omega0 - Omega0_b).value_norm()))
    g, Gamma, P, T, f0, C, W = extract_tensors(varpi0, Omega0, model)
    diag = {}
    diag["a1_residual"] = model.block(varpi1, 1, 1).value_norm()
    # block (2,1) must be exactly dx and (3,3) zero
    b21 = model.block(varpi0, 2, 1)
    expect = np.zeros_like(b21.data[:, 0, :, 0])
    for mu in range(m):
        expect[mu, mu] = 1.0
    diag["dx_residual"] = float(np.abs(b21.data[:, 0, :, 0] - expect).max())
    diag["corner_residual"] = worst_of((model.block(varpi0, 1, 1).value_norm(),
                                        model.block(varpi0, 3, 3).value_norm()))
    # metricity: d g - Gamma^T g - g Gamma = 0
    diag["metricity"] = metricity_residual(g, Gamma, m)
    # curvature compatibility of the dressed pair
    diag["curvature_compat"] = (curvature_form(varpi0) - Omega0).value_norm()
    return DressedFields(
        model=model, varpi0=varpi0, Omega0=Omega0, e=e, g=g, Gamma=Gamma, P=P,
        T=T, f0=f0, C=C, W=W, varpi1=varpi1, Omega1=Omega1, u1=u1, u0=u0,
        single_step_residual=single, diagnostics=diag)


def metricity_residual(g, Gamma, m):
    """Value norm of d_mu g_nr - Gamma^l_mn g_lr - g_nl Gamma^l_mr."""
    dg = np.stack([jder(g, m, mu) for mu in range(m)])  # (mu, n, r)
    # only the values are read, so the products run at order 0
    g0, Gamma0 = jtrunc(g, m, 0), jtrunc(Gamma, m, 0)
    t1 = jeinsum("lmn,lr->mnr", Gamma0, g0, m)
    t2 = jeinsum("nl,lmr->mnr", g0, Gamma0, m)
    res = dg[..., 0] - t1[..., 0] - t2[..., 0]
    return float(np.abs(res).max())


def dressed_normality(fields):
    """(|T|, |Ric(W)|, |f0|) for a pipeline output (value level)."""
    ric = np.einsum("anas->ns", fields.W)
    return (float(np.abs(fields.T).max()),
            float(np.abs(ric).max()),
            float(np.abs(fields.f0).max()))


def compatibility_residuals(conn, e, m1, mS, model):
    """Defects of the four dressing compatibility laws.

    ``m1`` and ``mS`` are the ``GaugeElement.matrices`` of a unipotent and a
    Lorentz gauge element at the point.  Re-extracts the dressings from the
    gauge-transformed connection and compares with the closed-form actions:
      u1^{gamma1} = gamma1^-1 u1,  u1^S = S^-1 u1 S,
      u0^S = S^-1 u0,              u0^{gamma1} = u0.
    """
    m = model.m
    u0 = u0_from_vielbein(e, model)
    u1 = extract_u1(conn, u0.einv)
    out = {}
    # gamma1 action: the soldering block, so e, is untouched
    conn_g1 = gauge_transform(conn, m1["gamma1"], m1["gamma1_inv"])
    u1_g1 = extract_u1(conn_g1, u0.einv)
    expect = m1["gamma1_inv"].wedge(u1.mat)
    out["u1_gamma1"] = (u1_g1.mat - expect).value_norm()
    u0_g1 = u0_from_vielbein(vielbein_of(conn_g1), model)
    out["u0_gamma1"] = (u0_g1.mat - u0.mat).value_norm()
    # S action: the vielbein rotates, e^S = S^-1 e
    S, Sinv = mS["S"], mS["Sinv"]
    eS = jeinsum("ab,bm->am", Sinv, e, m)
    conn_S = gauge_transform(conn, mS["S_emb"], mS["Sinv_emb"])
    u0_S = u0_from_vielbein(eS, model)
    u1_S = extract_u1(conn_S, u0_S.einv)
    expect = conjugate(u1.mat, mS["S_emb"], mS["Sinv_emb"])
    out["u1_S"] = (u1_S.mat - expect).value_norm()
    expect = mS["Sinv_emb"].wedge(u0.mat)
    out["u0_S"] = (u0_S.mat - expect).value_norm()
    return out


def gr_dress(conn, e):
    """Vielbein dressing of a Poincare connection.

    Returns the dressed pair plus the extracted linear connection, its
    curvature and the torsion, with the metricity defect in diagnostics.
    """
    model = conn.model
    if model.kind != "poincare":
        raise ShapeError("gr_dress applies to the Poincare model")
    m = model.m
    u0 = u0_from_vielbein(e, model)
    varpi_h = conjugate(conn.omega, u0.mat, u0.inv, connection=True)
    Om = curvature(conn).omega2
    Omega_h = conjugate(Om, u0.mat, u0.inv)
    Gamma_blk = model.block(varpi_h, 1, 1)
    Gamma = np.empty((m, m, m, space(m, varpi_h.order).size))
    for mu in range(m):
        Gamma[:, mu, :, :] = Gamma_blk.data[:, :, mu, :]
    R = _two_form_components(model.block(Omega_h, 1, 1), m)
    T = _two_form_components(model.block(Omega_h, 1, 2), m)[:, 0]
    g = jeinsum("am,an->mn", np.asarray(model.eta)[:, None, None] * e, e, m)
    diag = {
        "metricity": metricity_residual(g, Gamma, m),
        "dx_residual": float(np.abs(
            model.block(varpi_h, 1, 2).data[:, 0, :, 0] - np.eye(m)).max()),
        "curvature_compat": (curvature_form(varpi_h) - Omega_h).value_norm(),
    }
    return varpi_h, Omega_h, Gamma, R, T, g, diag
