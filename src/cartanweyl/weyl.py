"""Finite residual Weyl action on the dressed fields.

The rescaling z acts on the dressed pair through conjugation by a single
z-dependent matrix (built from the dressing factors and the two diagonal
representations of the Weyl group), and equivalently through closed-form
block laws for every extracted tensor.  Both routes are implemented; the
test suite diffs them and also re-derives everything from the rescaled
vielbein, turning the derivation chain into executable identities.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cartan import conjugate, k1_pair, weyl_diagonal
from .dressing import DressedPair, DressingU0, extract_tensors, u0_from_vielbein
from .errors import ExprDomainError
from .exprs import compile_expr, eval_jets
from .forms import MForm, eta_t, scale_by_jet
from .jets import jexp, jmat_inv, jmul, jrecip, jtrunc, order_of
from .tensors import dstack, jeinsum, metric_from_vielbein


@dataclass
class WeylElement:
    """Positive rescaling field z = exp(phi) with exact jets of zeta = d phi.

    phi is parsed and compiled once, when the element is built.
    """

    phi: object  # Expr or str

    def __post_init__(self):
        self._phi = compile_expr(self.phi)

    def at(self, chart, point, order):
        """The jets (z, zeta) at ``point``, or at each point of a batch."""
        pj = eval_jets([self._phi], chart, point, order)[..., 0, :]
        z = jexp(pj, chart.m)
        if np.any(z[..., 0] <= 0.0):
            raise ExprDomainError("Weyl factor must stay positive")
        return z, dstack(pj, chart.m, 0)


def weyl_matrices(model, z, zeta, u0):
    """The matrices of the rescaling (z, zeta) on the pair dressed by ``u0``.

    ``u0`` is the :class:`DressingU0` of the pair's vielbein e, as the
    dressing built it.  Wbar = u0^-1 k1 u0 W Wtilde and its inverse, with k1
    the unipotent built on xi = zeta . e^-1; W, k1 and their inverses for the
    first-stage action; and the scalar jets z, z^-1.  The two chains run as
    one 2-stack of four wedges, their factors cut to the order both end at.
    Point axes broadcast where one side has 1, as in :func:`jeinsum`.
    """
    m = model.m
    order = min(order_of(m, z), order_of(m, zeta), order_of(m, u0.e))
    zinv = jrecip(z, m)
    W, Winv = weyl_diagonal(z, zinv, model, order)
    # Wtilde = z on the Lorentz diagonal; np.where writes z and 0 exactly
    eye = np.eye(m, dtype=bool)[:, :, None]
    Wt, Wtinv = (model.embed(np.where(eye, jtrunc(x, m, order)[..., None, None, :], 0.0))
                 for x in (z, zinv))
    xi_arr = jeinsum("m,ma->a", zeta, u0.einv, m)  # zeta . e^-1
    xi = MForm.of_jets(m, xi_arr[..., None, :, :])
    k1, k1inv = k1_pair(xi, model)
    # Wbar right to left, u0^-1 (k1 (u0 (W Wt))), beside Wbar^-1 =
    # Wt^-1 (W^-1 (u0^-1 (k1^-1 u0)))
    u0mat, u0inv, k1k, k1inv_k = (x.truncate(order) for x in (u0.mat, u0.inv, k1, k1inv))
    chain = MForm.stack([Wt, u0mat])
    for left in ((W, k1inv_k), (u0mat, u0inv), (k1k, Winv), (u0inv, Wtinv)):
        chain = MForm.stack(left).wedge(chain)
    wbar, wbar_inv = chain.split()
    return {"W": W, "Winv": Winv, "k1": k1, "k1inv": k1inv, "xi": xi,
            "wbar": wbar, "wbar_inv": wbar_inv, "z": z, "zinv": zinv}


def wbar_closed_form(model, z, zeta, e):
    """Wbar in closed form, at the order :func:`weyl_matrices` builds it.

    Entries (z, z zeta, z^-1 zeta g^-1 zeta^T / 2; 0, z delta, z^-1 g^-1
    zeta^T; 0, 0, z^-1) with g = e^T eta e.
    """
    m, n = model.m, model.n
    k = min(order_of(m, z), order_of(m, zeta), order_of(m, e))
    zinv = jrecip(z, m)
    # g^-1 is read at order k, and its degree-k part needs e to degree k only
    ginv = jmat_inv(metric_from_vielbein(jtrunc(e, m, k), model.eta), m)
    zg = jeinsum("l,lr->r", zeta, ginv, m)       # zeta with one index raised
    zz = jeinsum("r,r->", zeta, zg, m)           # zeta . g^-1 . zeta^T
    closed = MForm.zeros(m, (n, n), 0, 0, k, np.broadcast_shapes(z.shape[:-1], e.shape[:-3]))
    entry = closed.data[..., 0, :]      # (..., n, n, C)
    entry[..., 0, 0, :] = jtrunc(z, m, k)
    entry[..., n - 1, n - 1, :] = jtrunc(zinv, m, k)
    for i in range(m):
        entry[..., i + 1, i + 1, :] = jtrunc(z, m, k)
        entry[..., 0, i + 1, :] = jtrunc(jmul(z, zeta[..., i, :], m), m, k)
        entry[..., i + 1, n - 1, :] = jtrunc(jmul(zinv, zg[..., i, :], m), m, k)
    entry[..., 0, n - 1, :] = jtrunc(0.5 * jmul(zinv, zz, m), m, k)
    return closed


def weyl_transform_dressed(state, mats):
    """Conjugation route: move the dressed pair by Wbar.

    ``mats`` is the :func:`weyl_matrices` bundle of the u0 that dressed the
    pair (``state.u0`` for :class:`DressedFields`), which may be cut below
    ``state.e``; e is moved at its own order.
    Returns the moved :class:`DressedPair`, with e -> z e and the tensors
    read off anew.
    """
    model = state.model
    wbar, wbar_inv = mats["wbar"], mats["wbar_inv"]
    varpi0W = conjugate(state.varpi0, wbar, wbar_inv, connection=True)
    Omega0W = conjugate(state.Omega0, wbar, wbar_inv)
    e_new = jmul(mats["z"][..., None, None, :], state.e, model.m)
    return DressedPair(model, varpi0W, Omega0W, e_new,
                       *extract_tensors(varpi0W, Omega0W, model))


def closed_form_laws(state, z, zeta):
    """Component transformation laws evaluated on the untransformed tensors.

    Valid with or without normality; value-level arrays keyed by tensor name,
    with the point axes of the state in front.
    """
    m = state.model.m
    kv = min(order_of(m, state.g), order_of(m, zeta), order_of(m, z))
    g = jtrunc(state.g, m, kv)[..., 0]
    ginv = jmat_inv(jtrunc(state.g, m, kv), m)[..., 0]
    Gam = state.Gamma[..., 0]
    P = state.P[..., 0]
    zv = z[..., 0, None, None]
    zt = zeta[..., 0]
    # dzeta[mu, nu] = d_mu zeta_nu = d_mu d_nu phi (symmetric since zeta is exact)
    dzeta = dstack(zeta, m, 1)[..., 0]
    # matrix products, as one point's ginv @ zt and zt @ ztup are
    ztup = (ginv @ zt[..., None])[..., 0]
    zz = (zt[..., None, :] @ ztup[..., None])[..., 0]      # (..., 1)
    zz2 = zz[..., None]
    laws = {}
    laws["g"] = zv ** 2 * g
    laws["Gamma"] = (Gam
                     + np.einsum("rn,...m->...rmn", np.eye(m), zt)
                     + np.einsum("rm,...n->...rmn", np.eye(m), zt)
                     - np.einsum("...r,...mn->...rmn", ztup, g))
    laws["P"] = (P + dzeta - np.einsum("...l,...lmn->...mn", zt, Gam)
                 - zt[..., :, None] * zt[..., None, :] + 0.5 * zz2 * g)
    laws["T"] = state.T.copy()
    laws["f0"] = state.f0 - np.einsum("...l,...lms->...ms", zt, state.T)
    laws["W"] = (state.W
                 + np.einsum("...rms,...n->...rnms", state.T, zt)
                 - np.einsum("...r,...ams,...an->...rnms", ztup, state.T, g))
    laws["C"] = (state.C
                 - np.einsum("...l,...lnms->...nms", zt, state.W)
                 + np.einsum("...n,...ms->...nms", zt, state.f0)
                 + 0.5 * zz2[..., None] * np.einsum("...bms,...bn->...nms", state.T, g)
                 - np.einsum("...l,...lms,...n->...nms", zt, state.T, zt))
    return laws


def weyl_transform_midlevel(fields, mats):
    """First-stage action: conjugate (varpi1, Omega1) by k1 W.

    ``mats`` is the :func:`weyl_matrices` bundle of ``fields.u0``.  Returns the
    conjugated (varpi1W, Omega1W) plus closed-form blocks for theta, A1,
    alpha1, f1, Theta, F1, Pi1.
    """
    model = fields.model
    m = model.m
    # the conjugations read k1 W to one order above varpi1 (its d) and to the
    # order of Omega1, so the products are taken at that order
    k = min(mats["k1"].order, max(fields.varpi1.order + 1, fields.Omega1.order))
    k1, W, k1inv, Winv = (mats[x].truncate(k) for x in ("k1", "W", "k1inv", "Winv"))
    k1W = k1.wedge(W)
    k1W_inv = Winv.wedge(k1inv)
    varpi1W = conjugate(fields.varpi1, k1W, k1W_inv, connection=True)
    Omega1W = conjugate(fields.Omega1, k1W, k1W_inv)
    # closed forms
    xi = mats["xi"]
    eta = model.eta
    xit = eta_t(xi, eta)
    blk = lambda M, i, j: model.block(M, i, j)
    theta = blk(fields.varpi1, 2, 1)
    A1 = blk(fields.varpi1, 2, 2)
    alpha1 = blk(fields.varpi1, 1, 2)
    f1 = blk(fields.Omega1, 1, 1)
    Theta1 = blk(fields.Omega1, 2, 1)
    F1 = blk(fields.Omega1, 2, 2)
    Pi1 = blk(fields.Omega1, 1, 2)
    closed = {}
    closed["theta"] = scale_by_jet(theta, mats["z"])
    closed["A1"] = A1 + theta.wedge(xi) - xit.wedge(eta_t(theta, eta))
    Dxi = xi.ext_d() - xi.wedge(A1)
    corr = (alpha1 + Dxi - xi.wedge(theta.wedge(xi))
            + xi.wedge(xit).wedge(eta_t(theta, eta)).scale(0.5))
    closed["alpha1"] = scale_by_jet(corr, mats["zinv"])
    closed["f1"] = f1 - xi.wedge(Theta1)
    closed["Theta1"] = scale_by_jet(Theta1, mats["z"])
    closed["F1"] = F1 + Theta1.wedge(xi) - xit.wedge(eta_t(Theta1, eta))
    f1_eye = _eye_times(f1, m)
    corr2 = (Pi1 - xi.wedge(F1 - f1_eye) - xi.wedge(Theta1.wedge(xi))
             + xi.wedge(xit).wedge(eta_t(Theta1, eta)).scale(0.5))
    closed["Pi1"] = scale_by_jet(corr2, mats["zinv"])
    return varpi1W, Omega1W, closed


def _eye_times(f, m):
    """Scalar (1,1) form times the m x m identity."""
    out = MForm.zeros(f.m, (m, m), f.p, f.q, f.order, f.lead)
    for i in range(m):
        out.data[..., i, i, :, :] = f.data[..., 0, 0, :, :]
    return out


def weyl_group_law_residual(state, moved, first, second, order):
    """Apply z1 then z2 versus z1 z2 on the dressed pair: the two defects.

    ``state`` is a pipeline output (its u0 serves the combined step),
    ``first`` and ``second`` are the (z, zeta) jets of the two elements, as
    :meth:`WeylElement.at` returns them, and ``moved`` is ``state`` already
    moved by ``first``; z, zeta, e and u0 are cut to ``order`` first.  The
    two sides, z2 on ``moved`` and z1 z2 on ``state``, run as one 2-stack
    through :func:`weyl_matrices` and both conjugations, which is all they
    read: no tensor is read off either moved pair.
    """
    m = state.model.m
    (z1, zeta1), (z2, zeta2) = [tuple(jtrunc(x, m, order) for x in pair)
                                for pair in (first, second)]
    model = state.model
    u0 = state.u0
    u0_moved = u0_from_vielbein(jtrunc(moved.e, m, order), model)
    u0_low = DressingU0(*(jtrunc(x, m, order) for x in (u0.e, u0.einv)),
                        *(x.truncate(order) for x in (u0.mat, u0.inv)))
    u0s = DressingU0(np.stack([u0_moved.e, u0_low.e]), np.stack([u0_moved.einv, u0_low.einv]),
                     MForm.stack([u0_moved.mat, u0_low.mat]),
                     MForm.stack([u0_moved.inv, u0_low.inv]))
    mats = weyl_matrices(model, np.stack([z2, jmul(z1, z2, m)]),
                         np.stack([zeta2, zeta1 + zeta2]), u0s)
    wbar, wbar_inv = mats["wbar"], mats["wbar_inv"]
    varpi0 = conjugate(MForm.stack([moved.varpi0, state.varpi0]), wbar, wbar_inv,
                       connection=True)
    Omega0 = conjugate(MForm.stack([moved.Omega0, state.Omega0]), wbar, wbar_inv)
    (v12, v_both), (O12, O_both) = varpi0.split(), Omega0.split()
    return v12 - v_both, O12 - O_both
