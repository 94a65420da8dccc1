"""Graded matrix-valued differential forms on a chart.

An :class:`MForm` is a rectangular matrix of homogeneous (form degree p,
ghost degree q) differential forms whose coefficients are jets at one sample
point.  Odd quantities live in the exterior algebra of ``GHOST_POOL`` shared
anticommuting generators eta_0 .. eta_{N-1}, so every form is one dense
array: its component axis runs over pairs (ghost monomial of degree q, dx
monomial of degree p), ghost monomial major, and a float form is the q = 0
case with the one empty ghost monomial.  Form and ghost monomials are stored
on strictly increasing index tuples.

The Koszul sign convention is governed by the total degree p + q
throughout, so moving a dx past a ghost-odd coefficient costs a sign.  That
one convention fixes every sign in wedge products, graded commutators and
the exterior derivative (whose stored-coefficient rule picks up (-1)^q).
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations

import numpy as np

from .errors import JetOrderError, ShapeError
from .grassmann import GradedScalar, _merge_monomials
from .jets import Jet, jmat_mul, jtrunc, space
from .reduction import worst_of

# Shared ghost generators.  Every BRS identity is checked at ghost degree
# q <= 3, and a nonzero residual of degree q <= GHOST_POOL survives the
# projection onto the pool for almost every choice of free Gaussian weights
# (rows tied to sum to 1 lose degree 3; see brs._pool_weights).  At 4 the
# brs suite on Poincare m = 5 took 0.27 s against 0.18 s at 3.
GHOST_POOL = 3


@lru_cache(maxsize=None)
def form_comps(m, p):
    """Strictly increasing form multi-indices of length p."""
    return tuple(combinations(range(m), p))


@lru_cache(maxsize=None)
def ghost_monos(q):
    """Ghost monomials of degree q: increasing generator-id tuples of the pool."""
    if not 0 <= q <= GHOST_POOL:
        raise ShapeError(f"ghost degree {q} outside the {GHOST_POOL}-generator pool")
    return tuple(combinations(range(GHOST_POOL), q))


@lru_cache(maxsize=None)
def _dx_plan(m, p1, p2):
    """(i1, i2, h, sign) of every pair of disjoint dx monomials, in order."""
    if p1 + p2 > m:
        return ()
    target = {c: i for i, c in enumerate(form_comps(m, p1 + p2))}
    plan = []
    for i1, c1 in enumerate(form_comps(m, p1)):
        for i2, c2 in enumerate(form_comps(m, p2)):
            if set(c1) & set(c2):
                continue
            inversions = sum(1 for a in c1 for b in c2 if a > b)
            sign = -1.0 if inversions % 2 else 1.0
            plan.append((i1, i2, target[tuple(sorted(c1 + c2))], sign))
    return tuple(plan)


@lru_cache(maxsize=None)
def wedge_plan(m, p1, q1, p2, q2):
    """Component-level wedge of a (p1, q1) and a (p2, q2) form as index
    arrays (f1, f2, h, sign), one entry per component pair with a product.

    The sign folds the ghost-merge sign, the dx sign and the Koszul sign
    (-1)^(p1 q2) of moving the left dx monomial past the right ghost
    monomial.  Entries are empty when p1 + p2 > m; several share a target h.
    """
    F1, F2 = len(form_comps(m, p1)), len(form_comps(m, p2))
    F = len(form_comps(m, p1 + p2))
    target = {g: i for i, g in enumerate(ghost_monos(q1 + q2))}
    koszul = -1.0 if (p1 * q2) % 2 else 1.0
    dx = _dx_plan(m, p1, p2)
    plan = []
    for a, g1 in enumerate(ghost_monos(q1)):
        for b, g2 in enumerate(ghost_monos(q2)):
            merged = _merge_monomials(g1, g2)
            if merged is None:          # a repeated generator
                continue
            g, gsign = merged
            for i1, i2, h, sign in dx:
                plan.append((a * F1 + i1, b * F2 + i2, target[g] * F + h,
                             koszul * gsign * sign))
    f1, f2, h = (np.array([e[k] for e in plan], dtype=int) for k in range(3))
    return f1, f2, h, np.array([e[3] for e in plan])


@lru_cache(maxsize=None)
def d_plan(m, p):
    """(f, nu, h, sign) entries for the exterior derivative."""
    if p + 1 > m:
        return ()
    target = {c: i for i, c in enumerate(form_comps(m, p + 1))}
    plan = []
    for i, c in enumerate(form_comps(m, p)):
        for nu in range(m):
            if nu in c:
                continue
            pos = sum(1 for a in c if a < nu)
            sign = -1.0 if pos % 2 else 1.0
            plan.append((i, nu, target[tuple(sorted(c + (nu,)))], sign))
    return tuple(plan)


class MForm:
    """Matrix of homogeneous-(p, q) forms with jet coefficients.

    ``data`` has shape (r, c, C(GHOST_POOL, q) * C(m, p), C): component
    g * C(m, p) + f holds the jet of ghost monomial g times dx monomial f.
    :meth:`from_entries` builds a form from one GradedScalar per (row, col,
    dx comp) and :meth:`entry` reads one back.
    """

    __slots__ = ("m", "shape", "p", "q", "order", "data")

    def __init__(self, m, shape, p, q, order, data):
        self.m = m
        self.shape = tuple(shape)
        self.p = p
        self.q = q
        self.order = order
        self.data = data

    # -- constructors --------------------------------------------------------

    @classmethod
    def zeros(cls, m, shape, p, q, order):
        n = len(ghost_monos(q)) * len(form_comps(m, p))
        return cls(m, shape, p, q, order,
                   np.zeros((shape[0], shape[1], n, space(m, order).size)))

    @classmethod
    def from_entries(cls, m, shape, p, q, order, entries):
        """MForm from {(row, col, comp): GradedScalar over jets}.

        Every term's key is a ghost monomial of degree q of the pool.
        Coefficients are trimmed to ``order``; absent entries are zero.
        """
        out = cls.zeros(m, shape, p, q, order)
        where = {g: i for i, g in enumerate(ghost_monos(q))}
        for (i, j, f), x in entries.items():
            out._check_entry(i, j, f)
            for k, c in x.terms.items():
                if k not in where:
                    raise ShapeError(f"ghost monomial {k} is not of degree {q} "
                                     f"in the {GHOST_POOL}-generator pool")
                out.data[i, j, where[k] * out.n_comps + f] = jtrunc(c.coeffs, m, order)
        return out

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
    def n_comps(self):
        """Number of dx monomials of degree p."""
        return len(form_comps(self.m, self.p))

    @property
    def gdata(self):
        """``data`` when q > 0, else None.  Kept read-only for the benchmark
        tracer, which tells ghost wedges from float ones by it."""
        return self.data if self.q else None

    def _check_entry(self, i, j, f):
        """IndexError unless (row, col, dx comp) lies inside the form."""
        if not (0 <= i < self.shape[0] and 0 <= j < self.shape[1] and 0 <= f < self.n_comps):
            raise IndexError(f"entry ({i}, {j}, {f}) outside shape {self.shape} "
                             f"with {self.n_comps} components")

    def entry(self, i, j, f):
        """The (row i, col j, dx comp f) entry as a GradedScalar; all-zero
        ghost monomials are left out."""
        self._check_entry(i, j, f)
        F = self.n_comps
        terms = {}
        for g, k in enumerate(ghost_monos(self.q)):
            c = self.data[i, j, g * F + f]
            if c.any():
                terms[k] = Jet(self.m, c.copy())
        return GradedScalar(terms)

    def _like(self, data, order=None, shape=None, q=None):
        return MForm(self.m, self.shape if shape is None else shape, self.p,
                     self.q if q is None else q,
                     self.order if order is None else order, data)

    def copy(self):
        return self._like(self.data.copy())

    def truncate(self, to_order):
        if to_order == self.order:
            return self
        return self._like(jtrunc(self.data, self.m, to_order), order=to_order)

    # -- linear structure ----------------------------------------------------

    def _check_addable(self, other):
        if (self.m, self.shape, self.p, self.q) != (other.m, other.shape, other.p, other.q):
            raise ShapeError(
                f"cannot add ({self.shape},p={self.p},q={self.q}) "
                f"and ({other.shape},p={other.p},q={other.q})")

    def __add__(self, other):
        self._check_addable(other)
        k = min(self.order, other.order)
        return self._like(self.truncate(k).data + other.truncate(k).data, order=k)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return self.scale(-1.0)

    def scale(self, factor):
        return self._like(self.data * float(factor))

    # -- products ------------------------------------------------------------

    def wedge(self, other):
        """Matrix product with wedge on coefficients, total-degree signs."""
        if self.m != other.m:
            raise ShapeError("mixed charts")
        if self.shape[1] != other.shape[0]:
            raise ShapeError(f"shape mismatch {self.shape} x {other.shape}")
        out = MForm.zeros(self.m, (self.shape[0], other.shape[1]), self.p + other.p,
                          self.q + other.q, min(self.order, other.order))
        f1, f2, h, sign = wedge_plan(self.m, self.p, self.q, other.p, other.q)
        if h.size:
            # every plan entry in one product, stacked on a leading axis;
            # jmat_mul trims both factors to the lower order
            prod = jmat_mul(self.data[:, :, f1].transpose(2, 0, 1, 3),
                            other.data[:, :, f2].transpose(2, 0, 1, 3), self.m)
            # entries sharing a target need the unbuffered scatter-add
            np.add.at(out.data.transpose(2, 0, 1, 3), h,
                      sign[:, None, None, None] * prod)
        return out

    def ext_d(self):
        """Exterior derivative; stored coefficients pick up (-1)^q."""
        if self.order == 0:
            raise JetOrderError("jet order exhausted in exterior derivative")
        sign_q = -1.0 if self.q % 2 else 1.0
        sp = space(self.m, self.order)
        out = MForm.zeros(self.m, self.shape, self.p + 1, self.q, self.order - 1)
        # d acts on the dx part of each ghost monomial alike
        r, c = self.shape
        G = len(ghost_monos(self.q))
        src = self.data.reshape(r, c, G, self.n_comps, sp.size)
        dst = out.data.reshape(r, c, G, out.n_comps, out.data.shape[-1])
        for f, nu, h, sgn in d_plan(self.m, self.p):
            der = src[:, :, :, f, :][..., sp.deriv_src[nu]] * sp.deriv_fac[nu]
            dst[:, :, :, h, :] += (sgn * sign_q) * der
        return out

    # -- inspection ----------------------------------------------------------

    def block(self, rows, cols):
        """View-copy of a sub-matrix given (start, stop) row/col ranges."""
        r0, r1 = rows
        c0, c1 = cols
        return self._like(self.data[r0:r1, c0:c1].copy(), shape=(r1 - r0, c1 - c0))

    def set_block(self, rows, cols, sub):
        r0, r1 = rows
        c0, c1 = cols
        if sub.shape != (r1 - r0, c1 - c0) or (sub.p, sub.q) != (self.p, self.q):
            raise ShapeError(f"cannot set a ({sub.shape},p={sub.p},q={sub.q}) block "
                             f"into ({self.shape},p={self.p},q={self.q})")
        self.data[r0:r1, c0:c1] = sub.truncate(self.order).data

    def value_norm(self):
        """Max |value coefficient| over entries and components."""
        x = self.data[..., 0]
        return float(np.abs(x).max()) if x.size else 0.0

    def full_norm(self):
        """Max |coefficient| over all jet orders (used for relative scales)."""
        return float(np.abs(self.data).max()) if self.data.size else 0.0

    def body(self):
        """Float MForm obtained by sending every ghost generator to 1."""
        r, c = self.shape
        G = len(ghost_monos(self.q))
        data = self.data.reshape(r, c, G, self.n_comps, self.data.shape[-1]).sum(axis=2)
        return self._like(data, q=0)

    def __repr__(self):
        return (f"MForm(shape={self.shape}, p={self.p}, q={self.q}, "
                f"order={self.order})")


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


def block_matrix(rows, m, p, q, order, row_sizes=None, col_sizes=None):
    """Assemble a (p, q) MForm from a grid of (p, q) blocks (None = zero block).

    Row/column sizes are inferred from the non-None blocks unless given.
    """
    nr = len(rows)
    nc = len(rows[0])
    rsz = list(row_sizes) if row_sizes else [None] * nr
    csz = list(col_sizes) if col_sizes else [None] * nc
    for i in range(nr):
        for j in range(nc):
            blk = rows[i][j]
            if isinstance(blk, MForm):
                rsz[i] = blk.shape[0]
                csz[j] = blk.shape[1]
    if any(s is None for s in rsz) or any(s is None for s in csz):
        raise ShapeError("cannot infer block sizes: a full row/column is zero")
    k = order
    for row in rows:
        for blk in row:
            if isinstance(blk, MForm) and blk.order < k:
                k = blk.order
    out = MForm.zeros(m, (sum(rsz), sum(csz)), p, q, k)
    r0 = 0
    for i in range(nr):
        c0 = 0
        for j in range(nc):
            blk = rows[i][j]
            if isinstance(blk, MForm):
                out.set_block((r0, r0 + rsz[i]), (c0, c0 + csz[j]), blk.truncate(k))
            c0 += csz[j]
        r0 += rsz[i]
    return out


def eta_t(v, eta_diag):
    """Signature-weighted transposition of a row or column MForm.

    Rows map as r^t = (r eta^{-1})^T, columns as tau^t = (eta tau)^T; for a
    diagonal +/-1 eta the inverse equals eta, so both are entry reweighting.
    """
    r, c = v.shape
    if 1 not in (r, c):
        raise ShapeError("eta-transposition applies to row or column vectors")
    # entry (0, j) of a row and (j, 0) of a column both take the weight w[j]
    w = np.asarray(eta_diag, dtype=float).reshape(r, c)
    data = (v.data * w[:, :, None, None]).transpose(1, 0, 2, 3)
    return v._like(np.ascontiguousarray(data), shape=(c, r))


def algebra_residual(X, kind, eta=None, sigma=None):
    """Frobenius defect of the defining relation of a matrix Lie algebra.

    Evaluated on the value coefficients of every form component.  For the
    conformal algebra ('co') the trace part is projected out first, matching
    v^T eta + eta v = eps 1.
    """
    if X.q:
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

