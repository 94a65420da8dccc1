"""Graded matrix-valued differential forms on a chart.

An :class:`MForm` is a rectangular matrix of homogeneous (form degree p,
ghost degree q) differential forms whose coefficients are jets at one sample
point.  Form components are stored on strictly increasing multi-indices; the
Koszul sign convention is governed by the total degree p + q throughout, so
moving a dx past a ghost-odd coefficient costs a sign.  That one convention
fixes every sign in wedge products, graded commutators and the exterior
derivative (whose stored-coefficient rule picks up (-1)^q).
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations

import numpy as np

from .errors import JetOrderError, ShapeError
from .grassmann import GradedScalar
from .jets import Jet, jmat_mul, jtrunc, space
from .reduction import worst_of


@lru_cache(maxsize=None)
def form_comps(m, p):
    """Strictly increasing form multi-indices of length p."""
    if p == 0:
        return ((),)
    return tuple(combinations(range(m), p))


@lru_cache(maxsize=None)
def _comp_index(m, p):
    return {c: i for i, c in enumerate(form_comps(m, p))}


@lru_cache(maxsize=None)
def wedge_plan(m, p1, p2):
    """Component-level wedge as index arrays (f1, f2, h, sign), one entry each.

    Entries are empty when p1 + p2 > m; several entries share a target h.
    """
    plan = []
    if p1 + p2 <= m:
        target = _comp_index(m, p1 + p2)
        for i1, c1 in enumerate(form_comps(m, p1)):
            for i2, c2 in enumerate(form_comps(m, p2)):
                if set(c1) & set(c2):
                    continue
                inversions = sum(1 for a in c1 for b in c2 if a > b)
                sign = -1.0 if inversions % 2 else 1.0
                plan.append((i1, i2, target[tuple(sorted(c1 + c2))], sign))
    f1, f2, h = (np.array([e[k] for e in plan], dtype=int) for k in range(3))
    return f1, f2, h, np.array([e[3] for e in plan])


@lru_cache(maxsize=None)
def d_plan(m, p):
    """(f, nu, h, sign) entries for the exterior derivative."""
    if p + 1 > m:
        return ()
    target = _comp_index(m, p + 1)
    plan = []
    for i, c in enumerate(form_comps(m, p)):
        for nu in range(m):
            if nu in c:
                continue
            pos = sum(1 for a in c if a < nu)
            sign = -1.0 if pos % 2 else 1.0
            plan.append((i, nu, target[tuple(sorted(c + (nu,)))], sign))
    return tuple(plan)


def _abs_value(jet):
    return abs(jet.value)


class MForm:
    """Matrix of homogeneous-(p, q) forms with jet coefficients.

    Exactly one of ``data`` (float path, shape (r, c, F, C)) or ``gdata``
    (ghost path, object array (r, c, F) of GradedScalar whose coefficients
    are jets of order ``order``) is set.
    """

    __slots__ = ("m", "shape", "p", "q", "order", "data", "gdata")

    def __init__(self, m, shape, p, q, order, data=None, gdata=None):
        self.m = m
        self.shape = tuple(shape)
        self.p = p
        self.q = q
        self.order = order
        self.data = data
        self.gdata = gdata

    # -- constructors --------------------------------------------------------

    @classmethod
    def zeros(cls, m, shape, p, q, order, ghost=False):
        F = len(form_comps(m, p))
        if ghost:
            g = np.empty((shape[0], shape[1], F), dtype=object)
            for idx in np.ndindex(g.shape):
                g[idx] = GradedScalar()
            return cls(m, shape, p, q, order, gdata=g)
        C = space(m, order).size
        return cls(m, shape, p, q, order, data=np.zeros((shape[0], shape[1], F, C)))

    @classmethod
    def identity(cls, m, n, order):
        out = cls.zeros(m, (n, n), 0, 0, order)
        for i in range(n):
            out.data[i, i, 0, 0] = 1.0
        return out

    @classmethod
    def constant(cls, matrix, m, order):
        matrix = np.asarray(matrix, dtype=float)
        out = cls.zeros(m, matrix.shape, 0, 0, order)
        out.data[:, :, 0, 0] = matrix
        return out

    @property
    def is_ghost(self):
        return self.gdata is not None

    @property
    def n_comps(self):
        return len(form_comps(self.m, self.p))

    def copy(self):
        if self.is_ghost:
            return MForm(self.m, self.shape, self.p, self.q, self.order,
                         gdata=self.gdata.copy())
        return MForm(self.m, self.shape, self.p, self.q, self.order,
                     data=self.data.copy())

    def _map_ghost(self, fn, order=None):
        """Ghost MForm of the same shape with ``fn`` applied to every entry."""
        g = np.empty(self.gdata.shape, dtype=object)
        for idx, x in np.ndenumerate(self.gdata):
            g[idx] = fn(x)
        return MForm(self.m, self.shape, self.p, self.q,
                     self.order if order is None else order, gdata=g)

    def to_ghost(self):
        """Lift a float MForm: each nonzero entry c becomes GradedScalar({(): c})."""
        if self.is_ghost:
            return self
        g = np.empty(self.data.shape[:3], dtype=object)
        for idx in np.ndindex(g.shape):
            jet = Jet(self.m, self.data[idx].copy())
            g[idx] = GradedScalar({(): jet} if jet else None)
        return MForm(self.m, self.shape, self.p, self.q, self.order, gdata=g)

    def truncate(self, to_order):
        if to_order == self.order:
            return self
        if self.is_ghost:
            if to_order > self.order:
                raise JetOrderError(f"cannot raise jet order {self.order} to {to_order}")
            return self._map_ghost(lambda x: x.map(lambda c: c.truncate(to_order)),
                                   order=to_order)
        return MForm(self.m, self.shape, self.p, self.q, to_order,
                     data=jtrunc(self.data, self.m, to_order))

    # -- linear structure ----------------------------------------------------

    def _check_addable(self, other):
        if (self.m, self.shape, self.p, self.q) != (other.m, other.shape, other.p, other.q):
            raise ShapeError(
                f"cannot add ({self.shape},p={self.p},q={self.q}) "
                f"and ({other.shape},p={other.p},q={other.q})")

    def __add__(self, other):
        self._check_addable(other)
        k = min(self.order, other.order)
        a, b = self.truncate(k), other.truncate(k)
        if a.is_ghost or b.is_ghost:
            a, b = a.to_ghost(), b.to_ghost()
            g = np.empty(a.gdata.shape, dtype=object)
            for idx in np.ndindex(g.shape):
                g[idx] = a.gdata[idx] + b.gdata[idx]
            return MForm(self.m, self.shape, self.p, self.q, k, gdata=g)
        return MForm(self.m, self.shape, self.p, self.q, k, data=a.data + b.data)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return self.scale(-1.0)

    def scale(self, factor):
        if self.is_ghost:
            factor = float(factor)
            return self._map_ghost(lambda x: x * factor)
        return MForm(self.m, self.shape, self.p, self.q, self.order,
                     data=self.data * float(factor))

    # -- products ------------------------------------------------------------

    def wedge(self, other):
        """Matrix product with wedge on coefficients, total-degree signs."""
        if self.m != other.m:
            raise ShapeError("mixed charts")
        if self.shape[1] != other.shape[0]:
            raise ShapeError(f"shape mismatch {self.shape} x {other.shape}")
        p, q = self.p + other.p, self.q + other.q
        koszul = -1.0 if (self.p * other.q) % 2 else 1.0
        plan = wedge_plan(self.m, self.p, other.p)
        k = min(self.order, other.order)
        out_shape = (self.shape[0], other.shape[1])
        if self.is_ghost or other.is_ghost:
            a, b = self.truncate(k).to_ghost(), other.truncate(k).to_ghost()
            out = MForm.zeros(self.m, out_shape, p, q, k, ghost=True)
            inner = self.shape[1]
            for f1, f2, h, sgn in zip(*plan):
                s = sgn * koszul
                for i in range(out_shape[0]):
                    for j in range(out_shape[1]):
                        acc = out.gdata[i, j, h]
                        for t in range(inner):
                            ga = a.gdata[i, t, f1]
                            gb = b.gdata[t, j, f2]
                            if ga.is_zero() or gb.is_zero():
                                continue
                            prod = ga * gb
                            acc = acc + prod if s > 0 else acc - prod
                        out.gdata[i, j, h] = acc
            return out
        out = MForm.zeros(self.m, out_shape, p, q, k)
        f1, f2, h, sign = plan
        if h.size:
            # every plan entry in one product, stacked on a leading axis;
            # jmat_mul trims both factors to order k
            prod = jmat_mul(self.data[:, :, f1].transpose(2, 0, 1, 3),
                            other.data[:, :, f2].transpose(2, 0, 1, 3), self.m)
            # entries sharing a target need the unbuffered scatter-add
            np.add.at(out.data.transpose(2, 0, 1, 3), h,
                      (koszul * sign)[:, None, None, None] * prod)
        return out

    def ext_d(self):
        """Exterior derivative; stored coefficients pick up (-1)^q."""
        if self.order == 0:
            raise JetOrderError("jet order exhausted in exterior derivative")
        sign_q = -1.0 if self.q % 2 else 1.0
        plan = d_plan(self.m, self.p)
        out = MForm.zeros(self.m, self.shape, self.p + 1, self.q,
                          self.order - 1, ghost=self.is_ghost)
        if self.is_ghost:
            for f, nu, h, sgn in plan:
                s = sgn * sign_q
                for i in range(self.shape[0]):
                    for j in range(self.shape[1]):
                        src = self.gdata[i, j, f]
                        if src.is_zero():
                            continue
                        der = src.map(lambda c: c.derivative(nu))
                        acc = out.gdata[i, j, h]
                        out.gdata[i, j, h] = acc + der if s > 0 else acc - der
            return out
        for f, nu, h, sgn in plan:
            sp = space(self.m, self.order)
            der = self.data[:, :, f, :][..., sp.deriv_src[nu]] * sp.deriv_fac[nu]
            out.data[:, :, h, :] += (sgn * sign_q) * der
        return out

    # -- inspection ----------------------------------------------------------

    def block(self, rows, cols):
        """View-copy of a sub-matrix given (start, stop) row/col ranges."""
        r0, r1 = rows
        c0, c1 = cols
        if self.is_ghost:
            return MForm(self.m, (r1 - r0, c1 - c0), self.p, self.q, self.order,
                         gdata=self.gdata[r0:r1, c0:c1].copy())
        return MForm(self.m, (r1 - r0, c1 - c0), self.p, self.q, self.order,
                     data=self.data[r0:r1, c0:c1].copy())

    def set_block(self, rows, cols, sub):
        r0, r1 = rows
        c0, c1 = cols
        if sub.shape != (r1 - r0, c1 - c0):
            raise ShapeError("block shape mismatch")
        if self.is_ghost != sub.is_ghost:
            raise ShapeError("mixed float/ghost block assignment")
        if self.is_ghost:
            self.gdata[r0:r1, c0:c1] = sub.truncate(self.order).gdata
        else:
            self.data[r0:r1, c0:c1] = sub.truncate(self.order).data

    def value_norm(self):
        """Max |value coefficient| over entries and form components."""
        if self.is_ghost:
            return worst_of(g.norm(_abs_value) for g in self.gdata.flat)
        return float(np.abs(self.data[..., 0]).max()) if self.data.size else 0.0

    def full_norm(self):
        """Max |coefficient| over all jet orders (used for relative scales)."""
        if self.is_ghost:
            return worst_of(g.norm(Jet.norm) for g in self.gdata.flat)
        return float(np.abs(self.data).max()) if self.data.size else 0.0

    def body(self):
        """Float MForm obtained by sending every ghost generator to 1."""
        if not self.is_ghost:
            return self
        out = MForm.zeros(self.m, self.shape, self.p, 0, self.order)
        for idx, g in np.ndenumerate(self.gdata):
            if not g.is_zero():
                out.data[idx] = g.body().coeffs
        return out

    def __repr__(self):
        kind = "ghost" if self.is_ghost else "float"
        return (f"MForm(shape={self.shape}, p={self.p}, q={self.q}, "
                f"order={self.order}, {kind})")


# ---------------------------------------------------------------------------
# derived operations
# ---------------------------------------------------------------------------

def wedge(a, b):
    return a.wedge(b)


def gcomm(a, b):
    """Graded commutator [a, b] with |.| the total degree p + q."""
    sign = -1.0 if ((a.p + a.q) * (b.p + b.q)) % 2 else 1.0
    return a.wedge(b) - b.wedge(a).scale(sign)


def ext_d(a):
    return a.ext_d()


def block_matrix(rows, m, p, q, order, ghost=False, row_sizes=None, col_sizes=None):
    """Assemble an MForm from a grid of blocks (None = zero block).

    Row/column sizes are inferred from the non-None blocks unless given.
    """
    nr = len(rows)
    nc = len(rows[0])
    rsz = list(row_sizes) if row_sizes else [None] * nr
    csz = list(col_sizes) if col_sizes else [None] * nc
    any_ghost = ghost
    for i in range(nr):
        for j in range(nc):
            blk = rows[i][j]
            if isinstance(blk, MForm):
                rsz[i] = blk.shape[0]
                csz[j] = blk.shape[1]
                any_ghost = any_ghost or blk.is_ghost
    if any(s is None for s in rsz) or any(s is None for s in csz):
        raise ShapeError("cannot infer block sizes: a full row/column is zero")
    k = order
    for row in rows:
        for blk in row:
            if isinstance(blk, MForm) and blk.order < k:
                k = blk.order
    out = MForm.zeros(m, (sum(rsz), sum(csz)), p, q, k, ghost=any_ghost)
    r0 = 0
    for i in range(nr):
        c0 = 0
        for j in range(nc):
            blk = rows[i][j]
            if isinstance(blk, MForm):
                if any_ghost:
                    blk = blk.to_ghost()
                out.set_block((r0, r0 + rsz[i]), (c0, c0 + csz[j]), blk.truncate(k))
            c0 += csz[j]
        r0 += rsz[i]
    return out


def eta_t(v, eta_diag):
    """Signature-weighted transposition of a row or column MForm.

    Rows map as r^t = (r eta^{-1})^T, columns as tau^t = (eta tau)^T; for a
    diagonal +/-1 eta the inverse equals eta, so both are entry reweighting.
    """
    w = np.asarray(eta_diag, dtype=float)
    r, c = v.shape
    if r == 1:
        out = MForm.zeros(v.m, (c, 1), v.p, v.q, v.order, ghost=v.is_ghost)
        for j in range(c):
            if v.is_ghost:
                for f in range(v.n_comps):
                    out.gdata[j, 0, f] = v.gdata[0, j, f] * float(w[j])
            else:
                out.data[j, 0] = v.data[0, j] * w[j]
        return out
    if c == 1:
        out = MForm.zeros(v.m, (1, r), v.p, v.q, v.order, ghost=v.is_ghost)
        for j in range(r):
            if v.is_ghost:
                for f in range(v.n_comps):
                    out.gdata[0, j, f] = v.gdata[j, 0, f] * float(w[j])
            else:
                out.data[0, j] = v.data[j, 0] * w[j]
        return out
    raise ShapeError("eta-transposition applies to row or column vectors")


def algebra_residual(X, kind, eta=None, sigma=None):
    """Frobenius defect of the defining relation of a matrix Lie algebra.

    Evaluated on the value coefficients of every form component.  For the
    conformal algebra ('co') the trace part is projected out first, matching
    v^T eta + eta v = eps 1.
    """
    if X.is_ghost:
        raise ShapeError("algebra residuals are defined for float-valued forms")
    vals = X.data[..., 0]  # (r, c, F)
    defects = []
    for f in range(vals.shape[2]):
        M = vals[:, :, f]
        if kind == "o2m":
            R = M.T @ sigma + sigma @ M
            defect = float(np.linalg.norm(R))
        elif kind == "so":
            R = M.T @ eta + eta @ M
            defect = float(np.linalg.norm(R))
        elif kind == "co":
            # linearizing M^T eta M = z^2 eta gives v^T eta + eta v = eps eta,
            # so the trace part to project out is along eta, not the identity
            R = M.T @ eta + eta @ M
            eps = np.trace(np.linalg.inv(eta) @ R) / M.shape[0]
            defect = float(np.linalg.norm(R - eps * eta))
        elif kind == "h":
            n = M.shape[0]
            R = M.T @ sigma + sigma @ M
            low = np.concatenate([M[1:, 0], M[n - 1, 1:n - 1], [M[0, n - 1]]])
            defect = worst_of((float(np.linalg.norm(R)), float(np.linalg.norm(low))))
        else:
            raise ValueError(f"unknown algebra kind {kind!r}")
        defects.append(defect)
    return worst_of(defects)

