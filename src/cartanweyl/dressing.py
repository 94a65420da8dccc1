"""Two-stage dressing of the conformal Cartan connection.

Stage one extracts the unipotent field u1 from the gauge-fixing-like
condition that kills the scalar block of the connection; stage two absorbs
the vielbein.  The composite fields are inert under the inversion and
Lorentz sectors, leaving only the Weyl rescalings, and their blocks carry
the Riemannian data (metric, linear connection, trace-modified Ricci,
torsion, Cotton- and Weyl-type tensors) in plain coordinate indices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cartan import DET_FLOOR, KleinModel, conjugate, curvature, curvature_form, k1_matrix
from .errors import ShapeError
from .forms import MForm, two_form_values
from .jets import jmat_inv, jtrunc, order_of
from .tensors import dstack, jeinsum, metric_from_vielbein


@dataclass
class DressingU1:
    """Unipotent dressing built on the covector q = a . e^-1."""

    q: MForm          # (1, m) 0-form
    mat: MForm        # (n, n)
    inv: MForm


@dataclass
class DressingU0:
    """Block-diagonal dressing: e on the model's Lorentz block."""

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
    """The fields the two-stage pipeline produces at a batch of points: the
    dressed pair with its tensors, the curvature ``Omega`` of the input
    connection, and the stage-one pair and both dressings.  No row is built
    here; each suite builds its own from these fields.

    ``u0`` is built from ``e`` cut one order above the input connection
    (see :func:`dress`), so it may carry fewer orders than ``e``.
    """

    Omega: MForm
    varpi1: MForm
    Omega1: MForm
    u1: DressingU1
    u0: DressingU0


def vielbein_of(conn):
    """Vielbein jets read off the soldering block: theta = e dx."""
    e = np.ascontiguousarray(conn.theta().data[..., 0, :, :])
    for det in np.ravel(np.linalg.det(e[..., 0])):
        if abs(det) < DET_FLOOR:
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
    arow = np.ascontiguousarray(a.truncate(order).data[..., 0, :, :])   # (1, m, C)
    qarr = jeinsum("om,ma->oa", arow, einv, m)
    q = MForm.of_jets(m, qarr)
    mat = k1_matrix(q, model)
    inv = k1_matrix(q.scale(-1.0), model)
    return DressingU1(q=q, mat=mat, inv=inv)


def u0_from_vielbein(e, model):
    einv = jmat_inv(e, model.m)
    return DressingU0(e=e, einv=einv, mat=model.embed(e), inv=model.embed(einv))


def extract_tensors(varpi0, Omega0, model):
    """Read the Riemannian parametrization out of the dressed pair."""
    # g[mu, nu] is entry nu of dx^mu in block (3, 2), P the same in block
    # (1, 2), and Gamma[rho, mu, nu] entry (rho, nu) of dx^mu in block (2, 2)
    g = _form_index_first(model.block(varpi0, 3, 2).data[..., 0, :, :, :])
    Gamma = _form_index_first(model.block(varpi0, 2, 2).data)
    P = _form_index_first(model.block(varpi0, 1, 2).data[..., 0, :, :, :])
    T = two_form_values(model.block(Omega0, 2, 1))[..., :, 0, :, :]   # (rho, mu, sigma)
    f0 = two_form_values(model.block(Omega0, 1, 1))[..., 0, 0, :, :]  # (mu, sigma)
    C = two_form_values(model.block(Omega0, 1, 2))[..., 0, :, :, :]   # (nu, mu, sigma)
    W = two_form_values(model.block(Omega0, 2, 2))                    # (rho, nu, mu, sigma)
    return g, Gamma, P, T, f0, C, W


def _form_index_first(x):
    """(..., mu, nu, C) copy of an (..., nu, mu, C) array: the dx index
    moved in front of the entry's column."""
    return np.ascontiguousarray(x.swapaxes(-3, -2))


def dress(conn, e=None):
    """Both dressing stages with their dressings: (u1, u0, Omega, varpi1,
    Omega1, varpi0, Omega0), Omega the curvature of ``conn``.

    ``e`` defaults to the vielbein read off the soldering block; passing it
    explicitly is only useful to prove invariance statements where the same
    array must serve several scrambled connections.  The pairs come out one
    order below ``conn``: u1 is built from its a block.  u0 is built from e
    cut one order above ``conn``, as :mod:`cartanweyl.orders` states.
    """
    if e is None:
        e = vielbein_of(conn)
    m = conn.model.m
    u0 = u0_from_vielbein(jtrunc(e, m, min(conn.omega.order + 1, order_of(m, e))), conn.model)
    u1 = extract_u1(conn, u0.einv)
    Om = curvature(conn)
    varpi1 = conjugate(conn.omega, u1.mat, u1.inv, connection=True)
    Omega1 = conjugate(Om, u1.mat, u1.inv)
    varpi0 = conjugate(varpi1, u0.mat, u0.inv, connection=True)
    Omega0 = conjugate(Omega1, u0.mat, u0.inv)
    return u1, u0, Om, varpi1, Omega1, varpi0, Omega0


def full_pipeline(conn, e=None):
    """The fields of :func:`dress` and the tensors read off the dressed
    pair, as one :class:`DressedFields`."""
    model = conn.model
    u1, u0, Om, varpi1, Omega1, varpi0, Omega0 = dress(conn, e)
    return DressedFields(model, varpi0, Omega0, u0.e if e is None else e,
                         *extract_tensors(varpi0, Omega0, model), Omega=Om, varpi1=varpi1,
                         Omega1=Omega1, u1=u1, u0=u0)


def pair_residuals(model, varpi, Omega, g, Gamma):
    """The rows both models' dressing suites read off a dressed pair
    (varpi, Omega) with its metric ``g`` and linear connection ``Gamma``:
    ``dx_residual``, the soldering block minus dx; ``metricity``, the values
    of d_mu g_nr - Gamma^l_mn g_lr - g_nl Gamma^l_mr; and
    ``curvature_compat``, the curvature of varpi minus Omega."""
    m = model.m
    dg = dstack(g, m, 2)  # (mu, n, r)
    # only the values are read, so the products run at order 0
    g0, Gamma0 = jtrunc(g, m, 0), jtrunc(Gamma, m, 0)
    t1 = jeinsum("lmn,lr->mnr", Gamma0, g0, m)
    t2 = jeinsum("nl,lmr->mnr", g0, Gamma0, m)
    theta = model.block(varpi, *model.solder)
    return {"dx_residual": theta.data[..., :, 0, :, 0] - np.eye(m),
            "metricity": dg[..., 0] - t1[..., 0] - t2[..., 0],
            "curvature_compat": curvature_form(varpi) - Omega}


def dressed_normality(fields):
    """The values (T, Ric(W), f0) of a pipeline output, each zero when the
    input connection is normal."""
    return fields.T, np.einsum("...anas->...ns", fields.W), fields.f0


def compatibility_residuals(base, g1, m1, S, mS):
    """Defects of the four dressing compatibility laws.

    ``base``, ``g1`` and ``S`` are the (u1, u0) dressings of a connection
    and of that connection moved by the gamma_1 of a unipotent gauge element
    and by the S of a Lorentz one, as :func:`dress` extracts them; ``m1``
    and ``mS`` are the two elements' ``GaugeElement.matrices``.  Compares the
    moved dressings with the closed-form actions:
      u1^{gamma1} = gamma1^-1 u1,  u1^S = S^-1 u1 S,
      u0^S = S^-1 u0,              u0^{gamma1} = u0,
    the last because gamma_1 leaves the soldering block, so e, untouched.

    Both u0 rows compare a route's u0, its e read off the moved soldering
    block, with ``base``'s u0, built from the explicit e, so both carry the
    rounding gap between that e and the unmoved soldering block.  gamma_1
    leaves the block bit for bit, so ``u0_gamma1`` is exactly that gap;
    ``u0_S`` is S^-1 times it, rounded by its own products.
    """
    (u1, u0), (u1_g1, u0_g1), (u1_S, u0_S) = base, g1, S
    return {"u1_gamma1": u1_g1.mat - m1["gamma1_inv"].wedge(u1.mat),
            "u0_gamma1": u0_g1.mat - u0.mat,
            "u1_S": u1_S.mat - conjugate(u1.mat, mS["S_emb"], mS["Sinv_emb"]),
            "u0_S": u0_S.mat - mS["Sinv_emb"].wedge(u0.mat)}


def gr_dress(conn, e):
    """Vielbein dressing of a Poincare connection: (varpi_h, Omega_h, Gamma,
    R, T, g), the dressed pair, the linear connection, its curvature, the
    torsion and the metric of ``e``.
    """
    model = conn.model
    if model.kind != "poincare":
        raise ShapeError("gr_dress applies to the Poincare model")
    u0 = u0_from_vielbein(e, model)
    varpi_h = conjugate(conn.omega, u0.mat, u0.inv, connection=True)
    Omega_h = conjugate(curvature(conn), u0.mat, u0.inv)
    lor = model.lorentz
    Gamma = _form_index_first(model.block(varpi_h, lor, lor).data)
    R = two_form_values(model.block(Omega_h, lor, lor))
    T = two_form_values(model.block(Omega_h, *model.solder))[..., :, 0, :, :]
    return varpi_h, Omega_h, Gamma, R, T, metric_from_vielbein(e, model.eta)
