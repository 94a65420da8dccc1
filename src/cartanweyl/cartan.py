"""Klein model data and the Cartan connection machinery on one chart.

Supports the Moebius model (matrix size m+2, bilinear form Sigma with -1
corners and an eta middle block) and the Poincare model (size m+1).  The
model owns its 3x3 (or 2x2) block grid; the connection's block accessors and
every other module read a block's place from it, and the curvature is a
plain 2-form read through :meth:`KleinModel.block`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate

import numpy as np

from . import tensors
from .errors import (AlgebraResidualError, DegenerateVielbeinError, ShapeError)
from .exprs import compile_expr, eval_jets
from .forms import (MForm, algebra_residual, block_matrix, eta_t, form_comps, gcomm,
                    scale_by_jet, two_form_values)
from .jets import (Chart, jconst, jcos, jcosh, jmat_inv, jmat_mul, jmul, jrecip, jsin,
                   jsinh, jtrunc, order_of, space)

# largest |x_i| of the catalog sample points; random gauge polynomials are
# scaled for it
SAMPLE_BOX = 0.31
# largest algebra residual :func:`assemble` accepts, relative to the
# connection's scale
ALGEBRA_TOL = 1e-9
# smallest |det e| a vielbein may have at a sample point
DET_FLOOR = 1e-8
# degree of the polynomials :func:`random_gauge` draws
GAUGE_DEGREE = 2


# the block grid of each model kind: the sizes of its diagonal blocks, None
# standing for the m x m Lorentz block, and the (row, column) labels of the
# soldering block theta = e dx
_GRIDS = {"mobius": ((1, None, 1), (2, 1)), "poincare": ((None, 1), (1, 2))}


@dataclass(frozen=True)
class KleinModel:
    """Model geometry: the gauge group and its block grid, from which every
    module reads where a block sits (labels are 1-based)."""

    kind: str  # "mobius" | "poincare"
    chart: Chart

    def __post_init__(self):
        if self.kind not in _GRIDS:
            raise ValueError(f"unknown model kind {self.kind!r}")
        if self.kind == "mobius" and self.chart.m < 3:
            raise ValueError("the Moebius model needs chart dimension m >= 3")

    @property
    def m(self):
        return self.chart.m

    @cached_property
    def edges(self):
        """Row/column edges of the block grid: label i spans edges[i-1]:edges[i]."""
        sizes = (self.m if s is None else s for s in _GRIDS[self.kind][0])
        return tuple(accumulate(sizes, initial=0))

    @property
    def n(self):
        return self.edges[-1]

    @property
    def lorentz(self):
        """Label of the m x m Lorentz block."""
        return _GRIDS[self.kind][0].index(None) + 1

    @property
    def solder(self):
        """(row, column) labels of the soldering block."""
        return _GRIDS[self.kind][1]

    @property
    def eta(self):
        return np.asarray(self.chart.signature, dtype=float)

    @property
    def sigma(self):
        """The invariant bilinear form of the Moebius model."""
        if self.kind != "mobius":
            raise ShapeError("Sigma exists only for the Moebius model")
        n = self.n
        S = np.zeros((n, n))
        S[0, n - 1] = -1.0
        S[n - 1, 0] = -1.0
        lor = slice(*self.bounds(self.lorentz))
        S[lor, lor] = np.diag(self.eta)
        return S

    def bounds(self, label):
        """(start, stop) row/col range of a 1-based block label."""
        return self.edges[label - 1], self.edges[label]

    def block(self, mform, i, j):
        return mform.block(self.bounds(i), self.bounds(j))

    def embed(self, M):
        """The identity (n, n) 0-form with the (..., m, m, C) jets ``M`` on
        the Lorentz block."""
        m = self.m
        out = MForm.identity(m, self.n, order_of(m, M), M.shape[:-3])
        lor = slice(*self.bounds(self.lorentz))
        out.data[..., lor, lor, 0, :] = M
        return out


@dataclass
class CartanConnection:
    model: KleinModel
    omega: MForm

    @property
    def order(self):
        return self.omega.order

    def truncate(self, to_order):
        return CartanConnection(self.model, self.omega.truncate(to_order))

    # Moebius block names
    def a(self):
        return self.model.block(self.omega, 1, 1)

    def alpha(self):
        return self.model.block(self.omega, 1, 2)

    def theta(self):
        return self.model.block(self.omega, *self.model.solder)

    def A(self):
        return self.model.block(self.omega, self.model.lorentz, self.model.lorentz)


def assemble(model, a=None, alpha=None, theta=None, A=None):
    """Build the g-valued connection matrix from its independent blocks.

    Moebius blocks: a scalar 1-form, alpha row 1-form, theta column 1-form,
    A an so(eta)-valued 1-form; the eta-transposed and trace blocks are
    derived.  Poincare uses (A, theta) only.
    """
    m = model.m
    eta = model.eta
    if theta is None or A is None:
        raise ShapeError("theta and A are required")
    if theta.shape != (m, 1) or A.shape != (m, m):
        raise ShapeError("theta must be (m,1) and A (m,m)")
    if model.kind == "poincare":
        omega = block_matrix([[A, theta], [None, None]], m, 1, 0, min(theta.order, A.order),
                             row_sizes=(m, 1))
        resid = _first_over(algebra_residual(A, "so", eta=np.diag(eta)), omega)
        if resid is not None:
            raise AlgebraResidualError(
                f"A block is not so(eta)-valued: residual {resid:.3e}")
        return CartanConnection(model, omega)
    if a is None or alpha is None:
        raise ShapeError("Moebius connections need a and alpha blocks")
    if a.shape != (1, 1) or alpha.shape != (1, m):
        raise ShapeError("a must be (1,1) and alpha (1,m)")
    order = min(a.order, alpha.order, theta.order, A.order)
    omega = block_matrix(
        [[a, alpha, None],
         [theta, A, eta_t(alpha, eta)],
         [None, eta_t(theta, eta), a.scale(-1.0)]],
        model.chart.m, 1, 0, order)
    resid = _first_over(algebra_residual(omega, "o2m", sigma=model.sigma), omega)
    if resid is not None:
        raise AlgebraResidualError(
            f"assembled connection is not g-valued: residual {resid:.3e}")
    return CartanConnection(model, omega)


def _first_over(resid, omega):
    """The residual of the first point whose residual, relative to its
    connection's scale, is not within ``ALGEBRA_TOL``; None when every point is."""
    resid = np.atleast_1d(resid)
    bad = np.flatnonzero(~(resid / np.maximum(1.0, omega.full_norm()) <= ALGEBRA_TOL))
    return float(resid[bad[0]]) if bad.size else None


# Each helper below truncates its operands to the order its result keeps and
# then multiplies: the truncation lemma (:mod:`cartanweyl.orders`) makes that exact.

def curvature_form(w):
    """d w + w wedge w, the wedge taken at the order of d w."""
    wk = w.truncate(w.order - 1)
    return w.ext_d() + wk.wedge(wk)


def conjugate(x, u, u_inv, connection=False):
    """u^-1 x u, plus u^-1 du when x transforms as a connection."""
    k = min(x.order, u.order, u_inv.order)
    if connection:
        k = min(k, u.order - 1)
    u_k, u_inv_k = u.truncate(k), u_inv.truncate(k)
    out = u_inv_k.wedge(x.truncate(k).wedge(u_k))
    if connection:
        out = out + u_inv_k.wedge(u.truncate(k + 1).ext_d())
    return out


def covariant_d(A, v):
    """d v + [A, v], the graded commutator taken at the order of d v."""
    k = min(v.order - 1, A.order)
    return v.truncate(k + 1).ext_d() + gcomm(A.truncate(k), v.truncate(k))


def curvature(conn):
    """The 2-form Omega = d varpi + varpi wedge varpi of a connection."""
    return curvature_form(conn.omega)


def gauge_transform(conn, gamma, gamma_inv):
    """varpi^gamma = gamma^-1 varpi gamma + gamma^-1 d gamma."""
    return CartanConnection(conn.model,
                            conjugate(conn.omega, gamma, gamma_inv, connection=True))


# ---------------------------------------------------------------------------
# vielbein fields and the normal connection
# ---------------------------------------------------------------------------

@dataclass
class VielbeinField:
    """m x m matrix of expressions; the metric g = e^T eta e is derived.

    The entries are parsed and compiled once, here; all their polynomial
    parts take one Taylor shift per point.
    """

    chart: Chart
    entries: list  # m x m nested list of Expr or str
    _compiled: list = field(init=False, repr=False)

    def __post_init__(self):
        m = self.chart.m
        if len(self.entries) != m or any(len(r) != m for r in self.entries):
            raise ShapeError("vielbein must be an m x m grid of expressions")
        self._compiled = [compile_expr(c) for row in self.entries for c in row]

    def jets_at(self, point, order):
        """The (m, m, C) jets at ``point``, or (P, m, m, C) at a list of P
        points; the first point where e degenerates is named."""
        m = self.chart.m
        e = eval_jets(self._compiled, self.chart, point, order)
        e = e.reshape(e.shape[:-2] + (m, m, -1))
        dets = np.linalg.det(e[..., 0])
        points = [point] if dets.ndim == 0 else point
        for p, det in zip(points, np.ravel(dets)):
            if abs(det) < DET_FLOOR:
                raise DegenerateVielbeinError(
                    f"|det e| = {abs(det):.3e} < {DET_FLOOR:.1e} at point {tuple(p)}")
        return e


def spin_connection(e, einv, signature, m):
    """Unique torsion-free eta-antisymmetric A with d theta + A theta = 0.

    Solved in closed form from the anholonomy of e:
      K^a_bc = (d_mu e^a_nu - d_nu e^a_mu) einv^mu_b einv^nu_c
      omega_ab,c = (K_abc + K_bca - K_cab) / 2    (first index lowered)
      A^a_b = eta^aa omega_ab,c e^c_mu dx^mu
    ``einv`` is the inverse jet matrix of ``e``.  Returns the (m, m, m, C')
    array A[a, b, mu].
    """
    sig = np.asarray(signature, dtype=float)
    de = tensors.dstack(e, m, 2)          # (mu, a, nu, C')
    anti = de - tensors.tr(de, 2, 1, 0)   # anti[mu, a, nu] = d_mu e^a_nu - d_nu e^a_mu
    k1 = tensors.jeinsum("man,mb->abn", anti, einv, m)
    K = tensors.jeinsum("abn,nc->abc", k1, einv, m)
    Klow = sig[:, None, None, None] * K
    # cyclic solution omega_ab,c = (K_abc + K_bca - K_cab) / 2
    omega_low = 0.5 * (Klow + tensors.tr(Klow, 2, 0, 1) - tensors.tr(Klow, 1, 2, 0))
    Aup = sig[:, None, None, None] * omega_low  # A^a_b,c frame indices
    return tensors.jeinsum("abc,cm->abm", Aup, e, m)


def build_normal(vielbein, model, point, order):
    """Normal Cartan connection from a vielbein at a sample point, or at
    each point of a batch (vielbein jets with leading point axes).

    Moebius: a = 0, theta = e dx, A the spin connection, alpha the Schouten
    1-form in frame indices, read off the curvature of A
    (:func:`schouten_form`).  Poincare: the torsion-free (A, theta) pair.
    """
    m = model.m
    ch = model.chart
    e = vielbein.jets_at(point, order) if isinstance(vielbein, VielbeinField) else vielbein
    lead = e.shape[:-3]
    # the spin connection's d cuts every product e^-1 enters to order - 1
    einv = jmat_inv(jtrunc(e, m, order - 1), m)
    A_arr = spin_connection(e, einv, ch.signature, m)  # (a, b, mu, C-1)
    theta = MForm.zeros(m, (m, 1), 1, 0, order, lead)
    theta.data[..., 0, :, :] = e  # component mu <- e[a, mu]
    A = MForm.zeros(m, (m, m), 1, 0, order - 1, lead)
    A.data[...] = A_arr
    if model.kind == "poincare":
        return assemble(model, theta=theta, A=A)
    alpha_arr = schouten_form(A_arr, e, einv, model.eta)  # (mu, a, C-2)
    alpha = MForm.zeros(m, (1, m), 1, 0, order_of(m, alpha_arr), lead)
    alpha.data[..., 0, :, :, :] = tensors.tr(alpha_arr, 1, 0)  # [a, comp mu]
    a = MForm.zeros(m, (1, 1), 1, 0, order, lead)
    return assemble(model, a=a, alpha=alpha, theta=theta, A=A)


def schouten_form(A, e, einv, eta):
    """The Schouten 1-form alpha[mu, a] = P_mu,nu einv[nu, a] of a vielbein
    ``e``, from the curvature F = dA + A^2 of its spin connection, the
    (a, b, mu, C) array ``A``.

    In frame indices Ric_bd = F^a_b,mu,nu einv[mu, a] einv[nu, d], the
    scalar curvature is R = eta^bd Ric_bd, P_bd = -(Ric_bd - R eta_bd /
    (2(m-1))) / (m-2), and alpha[mu, a] = e[b, mu] P_ba.  No metric,
    Christoffel symbol or Riemann tensor enters, so the classical route of
    :mod:`tensors` stays an independent oracle of it.
    """
    m = len(eta)
    dA = tensors.dstack(A, m, 3)                        # (mu, a, b, nu): d_mu A[a, b, nu]
    Ak = jtrunc(A, m, order_of(m, dA))
    half = tensors.tr(dA, 1, 2, 0, 3) + tensors.jeinsum("acm,cbn->abmn", Ak, Ak, m)
    F = half - tensors.tr(half, 0, 1, 3, 2)             # F[a, b, mu, nu]
    ric = tensors.jeinsum("bn,nd->bd", tensors.jeinsum("abmn,ma->bn", F, einv, m), einv, m)
    scal = np.einsum("b,...bbc->...c", eta, ric)
    P = (ric - np.diag(eta)[..., None] * scal[..., None, None, :] / (2.0 * (m - 1))) / (2.0 - m)
    return tensors.jeinsum("bm,ba->ma", e, P, m)


def normality_residual(Omega, e_values, model):
    """The normality defects (Theta, Ric(F), f) of the curvature 2-form
    ``Omega``, each read on its values; f is 0.0 for the Poincare model,
    which has no trace block."""
    lor = model.lorentz
    Fv = two_form_values(model.block(Omega, lor, lor))
    einv_v = np.linalg.inv(e_values)
    Ffr = np.einsum("...abmn,...mc,...nd->...abcd", Fv, einv_v, einv_v)
    ric = np.einsum("...abad->...bd", Ffr)
    trace = 0.0 if model.kind == "poincare" else model.block(Omega, 1, 1)
    return model.block(Omega, *model.solder), ric, trace


# ---------------------------------------------------------------------------
# gauge elements
# ---------------------------------------------------------------------------

def _so_factors(model, pairs, angles):
    """Plane rotations/boosts embedded in the m x m Lorentz block, one per
    (pair, angle jet); ``angles`` is (..., pairs, C), and the trigonometric
    jets of all angles at all points are composed together."""
    m = model.m
    sig = model.eta
    rot = np.array([sig[a] == sig[b] for a, b in pairs], dtype=bool)
    even, odd = np.empty_like(angles), np.empty_like(angles)
    for sel, fe, fo in ((rot, jcos, jsin), (~rot, jcosh, jsinh)):
        if sel.any():
            even[..., sel, :] = fe(angles[..., sel, :], m)
            odd[..., sel, :] = fo(angles[..., sel, :], m)
    out = []
    for k, ((a, b), r) in enumerate(zip(pairs, rot)):
        c, s = even[..., k, :], odd[..., k, :]
        S = np.zeros(angles.shape[:-2] + (m, m, angles.shape[-1]))
        for i in range(m):
            S[..., i, i, 0] = 1.0
        S[..., a, a, :], S[..., b, b, :] = c, c
        S[..., a, b, :], S[..., b, a, :] = (-s, s) if r else (s, s)
        out.append(S)
    return out


@dataclass
class GaugeElement:
    """Factorized gauge transformation gamma = W(z) S gamma_1(r).

    Any factor may be omitted.  An entry is an expression string, an Expr
    node or a coefficient array over ``space(m, d).monos``, one for every
    point or one row per point of a batch (as :func:`random_gauge` draws
    them); strings are parsed and compiled once, here.
    """

    z: object = None                 # positive scalar field
    so: list = None                  # coefficients per (a<b) generator pair
    r: list = None                   # covector field entries

    def __post_init__(self):
        if self.z is not None:
            self.z = compile_expr(self.z)
        if self.so is not None:
            self.so = [None if c is None else compile_expr(c) for c in self.so]
        if self.r is not None:
            self.r = [compile_expr(c) for c in self.r]

    def matrices(self, model, point, order):
        """MForms (gamma, gamma_inv) plus factor data at one point, or at
        each point of a batch (P, m).

        z, every so angle and every r entry take one :func:`eval_jets` call;
        the Poincare model reads only the so angles.  gamma = W(z) S gamma_1(r)
        and its inverse are written block by block,
          gamma    = [[z, z r, z r r^t / 2], [0, S, S r^t], [0, 0, z^-1]],
          gamma^-1 = [[z^-1, -r S^-1, z r r^t / 2], [0, S^-1, -z r^t], [0, 0, z]],
        with r^t = eta r^T and r S^-1 the eta-transpose of S r^t, and a
        factor the element lacks takes no product.  W, S and gamma_1 come
        with their inverses as well.
        """
        m = model.m
        ch = model.chart
        n = model.n
        mobius = model.kind == "mobius"
        rotations = [(pair, c) for pair, c in zip(form_comps(m, 2), self.so or ())
                     if c is not None]
        z_entry = [self.z] if mobius and self.z is not None else []
        r_entries = list(self.r) if mobius and self.r is not None else []
        jets = eval_jets(z_entry + [c for _, c in rotations] + r_entries, ch, point, order)
        lead = jets.shape[:-2]
        nz, nrot = len(z_entry), len(rotations)
        # Lorentz factor S as raw (..., m, m, C)
        S = None
        for factor in _so_factors(model, [pair for pair, _ in rotations],
                                  jets[..., nz:nz + nrot, :]):
            S = factor if S is None else jmat_mul(S, factor, m)
        if S is None:
            S = MForm.identity(m, m, order, lead).data[..., 0, :]
        sig = model.eta
        Sinv = np.einsum("a,...bac,b->...abc", sig, S, sig)  # eta S^T eta
        out = {"S": S, "Sinv": Sinv, "S_emb": model.embed(S), "Sinv_emb": model.embed(Sinv)}
        if not mobius:
            out["gamma"], out["gamma_inv"] = out["S_emb"], out["Sinv_emb"]
            return out
        # Weyl factor
        if z_entry:
            z = jets[..., 0, :]
            if np.any(z[..., 0] <= 0.0):
                raise DegenerateVielbeinError("gauge factor z must be positive")
        else:
            z = jconst(1.0, m, order)
        zinv = jrecip(z, m)
        out["z"] = z
        out["W"], out["Winv"] = weyl_diagonal(z, zinv, model, order)
        r_form = MForm.zeros(m, (1, m), 0, 0, order, lead)
        r_form.data[..., 0, :len(r_entries), 0, :] = jets[..., nz + nrot:, :]
        out["r"] = r_form
        g1 = k1_matrix(r_form, model)
        out["gamma1"], out["gamma1_inv"] = g1, k1_matrix(r_form.scale(-1.0), model)
        gamma, ginv = out["S_emb"].copy(), out["Sinv_emb"].copy()
        gamma.data[..., 0, 0, 0, :] = ginv.data[..., n - 1, n - 1, 0, :] = z
        gamma.data[..., n - 1, n - 1, 0, :] = ginv.data[..., 0, 0, 0, :] = zinv
        if r_entries:
            # z r, z r r^t / 2 and S r^t; -z r^t and -r S^-1 are their
            # eta-transposes
            r, rt, rr = (model.block(g1, *ij) for ij in ((1, 2), (2, 3), (1, 3)))
            if z_entry:
                r, rr = scale_by_jet(r, z), scale_by_jet(rr, z)
            if rotations:
                rt = MForm.of_jets(m, jmat_mul(S, rt.data[..., 0, :], m))
            one, mid, last = (model.bounds(i) for i in (1, 2, 3))
            gamma.set_block(one, mid, r)
            gamma.set_block(one, last, rr)
            gamma.set_block(mid, last, rt)
            ginv.set_block(one, mid, -eta_t(rt, sig))
            ginv.set_block(one, last, rr)
            ginv.set_block(mid, last, -eta_t(r, sig))
        out["gamma"], out["gamma_inv"] = gamma, ginv
        return out


def weyl_diagonal(z, zinv, model, order):
    """W = diag(z, 1, ..., 1, z^-1) and its inverse at ``order`` (Moebius)."""
    m, n = model.m, model.n
    W = MForm.identity(m, n, order, z.shape[:-1])
    Winv = MForm.identity(m, n, order, z.shape[:-1])
    W.data[..., 0, 0, 0, :] = Winv.data[..., n - 1, n - 1, 0, :] = jtrunc(z, m, order)
    W.data[..., n - 1, n - 1, 0, :] = Winv.data[..., 0, 0, 0, :] = jtrunc(zinv, m, order)
    return W, Winv


def k1_matrix(r, model):
    """Unipotent K1-type matrix [[1, r, r r^t / 2], [0, 1, r^t], [0, 0, 1]]
    of a (1, m) 0-form r, its three blocks written in place."""
    one, mid, last = (slice(*model.bounds(i)) for i in (1, 2, 3))
    out = MForm.identity(model.m, model.n, r.order, r.lead)
    row, col = r.data[..., 0, :], eta_t(r, model.eta).data[..., 0, :]
    grid = out.data[..., 0, :]
    grid[..., one, mid, :], grid[..., mid, last, :] = row, col
    grid[..., one, last, :] = 0.5 * jmat_mul(row, col, model.m)
    return out


def random_polynomial(rng, m, degree=2, scale=1.0, radius=SAMPLE_BOX):
    """Low-degree polynomial with coefficients drawn from [-1/2, 1/2].

    Returns its coefficients over ``space(m, degree).monos``, each rounded to
    6 decimals.  Nonconstant coefficients shrink with the monomial degree so
    values stay bounded for |x_i| <= radius and gauge z factors stay
    positive.  Past the catalog box they shrink by (SAMPLE_BOX / radius)^degree
    as well; the rng draws, and every polynomial for a point inside the box,
    stay the same.
    """
    base = m * max(1.0, radius / SAMPLE_BOX)
    sp = space(m, degree)
    draws = rng.uniform(-0.5, 0.5, size=sp.size)
    return np.array([round((u / (2.0 * base ** d) if d > 0 else u) * scale, 6)
                     for u, d in zip(draws.tolist(), sp.degrees.tolist())])


def random_gauge(model, rng, with_z=True, with_s=True, with_r=True, point=None):
    """Generic gauge element for scramble tests (seeded, deterministic).

    Its polynomials are coefficient arrays, scaled to the coordinates of
    ``point`` when given; z is 1 plus one of them.  A list of rngs with a
    list of as many points draws one element per point, each from its own
    rng in the order a single draw takes, and stacks every coefficient
    array over the points.
    """
    if isinstance(rng, list):
        each = [random_gauge(model, g, with_z, with_s, with_r, p)
                for g, p in zip(rng, point)]
        return GaugeElement(
            z=np.stack([ge.z for ge in each]) if with_z else None,
            so=list(np.stack([ge.so for ge in each], axis=1)) if with_s else None,
            r=list(np.stack([ge.r for ge in each], axis=1)) if with_r else None)
    m = model.m
    radius = max(map(abs, point)) if point is not None else SAMPLE_BOX

    def poly():
        return random_polynomial(rng, m, GAUGE_DEGREE, radius=radius)

    z = None
    if with_z:
        z = poly()
        z[0] += 1.0
    so = None
    if with_s:
        so = [poly() for _ in range(m * (m - 1) // 2)]
    r = None
    if with_r:
        r = [poly() for _ in range(m)]
    return GaugeElement(z=z, so=so, r=r)
