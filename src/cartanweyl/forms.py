"""Graded matrix-valued differential forms on a chart.

An :class:`MForm` is a rectangular matrix of homogeneous (form degree p,
ghost degree q) differential forms whose coefficients are jets at a sample
point, or at each point of a batch: leading axes of ``data`` run over the
points, and every operation acts on each point alone.  Odd quantities live
in the exterior algebra of ``GHOST_POOL`` shared
anticommuting generators eta_0 .. eta_{N-1}, so every form is one dense
array: its component axis runs over pairs (ghost monomial of degree q, dx
monomial of degree p), ghost monomial major, and a float form is the q = 0
case with the one empty ghost monomial.  Form and ghost monomials are stored
on strictly increasing index tuples.

The Koszul sign convention is governed by the total degree p + q
throughout, so moving a dx past a ghost-odd coefficient costs a sign.  That
one convention fixes every sign in wedge products, graded commutators and
the exterior derivative (whose stored-coefficient rule picks up (-1)^q).

Products follow the jet kernels' layout: a wedge gathers each factor once
by an index that fuses its :class:`WedgePlan` with the jet product table,
makes every component-pair product in one batched ``matmul`` and sums each
target's entries and the table's layers densely; the exterior derivative
is one cached gather and a weighted sum per target.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations

import numpy as np

from .errors import JetOrderError, ShapeError
from .jets import jmul, jtrunc, order_of, space
from .jets import jmat_mul  # noqa: F401  (re-exported; perfbench's tracer test rebinds it)
from .reduction import worst_entry

# Shared ghost generators.  Every BRS identity is checked at ghost degree
# q <= 3, and a nonzero residual of degree q <= GHOST_POOL survives the
# projection onto the pool for almost every choice of free Gaussian weights
# (rows tied to sum to 1 lose degree 3; see brs._pool_weights).  At 4 the
# brs suite on Poincare m = 5 took 0.27 s against 0.18 s at 3.
GHOST_POOL = 3

# a factor next to its negative: plan signs become gather offsets
_SIGNS = np.array([1.0, -1.0])


@lru_cache(maxsize=None)
def _wedge_axes(k):
    """The axis orders of a wedge whose factors have ``k`` point axes: data
    to ([sign,] component, coefficient, points, rows, cols), the sign
    column, the product (H, T, points, r, c) to (points, H, T, r, c) for
    the table's sum, and that sum to the data layout (points, r, c, H, C)."""
    return ((k + 2, k + 3, *range(k + 2)), _SIGNS.reshape((2,) + (1,) * (k + 4)),
            (*range(2, k + 2), 0, 1, k + 2, k + 3), (*range(k), k + 2, k + 3, k, k + 1))


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


def _merge_monomials(a, b):
    """Merge two sorted generator tuples; return (monomial, sign) or None.

    The sign is the parity of the permutation that interleaves ``b`` into
    ``a``; a repeated generator kills the product.
    """
    if not a:
        return b, 1.0
    if not b:
        return a, 1.0
    out = []
    sign = 1.0
    i, j = 0, 0
    la, lb = len(a), len(b)
    while i < la and j < lb:
        x, y = a[i], b[j]
        if x == y:
            return None
        if x < y:
            out.append(x)
            i += 1
        else:
            # b[j] hops over the remaining la-i generators of a
            if (la - i) & 1:
                sign = -sign
            out.append(y)
            j += 1
    out.extend(a[i:])
    out.extend(b[j:])
    return tuple(out), sign


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


class WedgePlan:
    """Component pairs of a wedge, grouped by target component.

    Row h of ``f1``, ``f2`` and ``sign`` (each (H, E)) lists the E pairs
    (left component, right component, sign) whose products land on target
    component h: every target of a (p, q) product has the same number
    E = C(q, q1) C(p, p1) of them.  :meth:`gathers` fuses the plan with the
    jet product table of one order into one gather index per factor.
    """

    def __init__(self, m, f1, f2, sign, n_left):
        self.m = m
        self.f1, self.f2, self.sign = f1, f2, sign
        self.n_left = n_left            # components of the left factor
        self._gathers = {}

    def gathers(self, order):
        """(ia, ib, signed) at jet order ``order``.

        ``ia`` and ``ib`` (E, H, T) index the first axis after the point
        axes of the left and the right factor laid out as ([sign,]
        component, coefficient, row, column), the sign axis holding the
        left factor and its negative when ``signed``.  T runs over the
        product table's pairs.
        """
        if order not in self._gathers:
            tab = space(self.m, order).table
            signed = bool((self.sign < 0).any())
            left = (self.f1 + self.n_left * (self.sign < 0)).T
            ia = left[:, :, None] * tab.size + tab.i
            ib = self.f2.T[:, :, None] * tab.size + tab.j
            self._gathers[order] = (ia, ib, signed)
        return self._gathers[order]


@lru_cache(maxsize=None)
def wedge_plan(m, p1, q1, p2, q2):
    """:class:`WedgePlan` of the wedge of a (p1, q1) and a (p2, q2) form.

    The sign folds the ghost-merge sign, the dx sign and the Koszul sign
    (-1)^(p1 q2) of moving the left dx monomial past the right ghost
    monomial.  The plan has no targets when p1 + p2 > m.
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
                plan.append((target[g] * F + h, a * F1 + i1, b * F2 + i2,
                             koszul * gsign * sign))
    plan.sort(key=lambda e: e[0])       # stable: grouped by target
    rows = len(target) * F if plan else 0
    shape = (rows, len(plan) // rows if rows else 0)
    h, f1, f2 = (np.array([e[k] for e in plan], dtype=int).reshape(shape)
                 for k in range(3))
    sign = np.array([e[3] for e in plan]).reshape(h.shape)
    assert (h == np.arange(rows)[:, None]).all()
    return WedgePlan(m, f1, f2, sign, len(ghost_monos(q1)) * F1)


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


@lru_cache(maxsize=None)
def _d_gather(m, p, q, order):
    """(src, weight) of the exterior derivative at jet order ``order``.

    Target component h of the derivative sums, over its p + 1 entries e,
    weight[h, e] * data[src[h, e]] on the (component, coefficient) axis of
    the order-``order`` source; the weight folds the d_plan sign, the
    (-1)^q of the stored coefficients and the derivative's factor.
    """
    sp = space(m, order)
    sign_q = -1.0 if q % 2 else 1.0
    plan = sorted(d_plan(m, p), key=lambda e: e[2])     # stable: grouped by target
    f, nu = (np.array([e[k] for e in plan], dtype=int).reshape(-1, p + 1) for k in (0, 1))
    sgn = np.array([e[3] for e in plan], dtype=float).reshape(-1, p + 1)
    src = np.array(sp.deriv_src)[nu] + (f * sp.size)[..., None]
    weight = np.array(sp.deriv_fac)[nu] * (sgn * sign_q)[..., None]
    # the same d acts on every ghost monomial's block of components
    G, block = len(ghost_monos(q)), len(form_comps(m, p)) * sp.size
    src = (np.arange(G)[:, None, None, None] * block + src).reshape(-1, *src.shape[1:])
    return src, np.broadcast_to(weight, (G,) + weight.shape).reshape(src.shape)


class MForm:
    """Matrix of homogeneous-(p, q) forms with jet coefficients.

    ``data`` has shape (..., r, c, C(GHOST_POOL, q) * C(m, p), C): component
    g * C(m, p) + f holds the jet of ghost monomial g times dx monomial f,
    and the leading axes (:attr:`lead`, none for one point) run over sample
    points.  Forms of different leads broadcast against each other, and the
    norms reduce to one value per point.
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
    def zeros(cls, m, shape, p, q, order, lead=()):
        n = len(ghost_monos(q)) * len(form_comps(m, p))
        return cls(m, shape, p, q, order,
                   np.zeros(tuple(lead) + (shape[0], shape[1], n, space(m, order).size)))

    @classmethod
    def of_jets(cls, m, arr):
        """(0, 0) form of an (..., r, c, C) array of jets, copied."""
        return cls(m, arr.shape[-3:-1], 0, 0, order_of(m, arr),
                   np.array(arr[..., None, :], dtype=float))

    @classmethod
    def identity(cls, m, n, order, lead=()):
        out = cls.zeros(m, (n, n), 0, 0, order, lead)
        for i in range(n):
            out.data[..., i, i, 0, 0] = 1.0
        return out

    @staticmethod
    def stack(forms):
        """Forms of one kind and order on a new leading axis; point axes broadcast."""
        f = forms[0]
        data = np.stack(np.broadcast_arrays(*(x.data for x in forms)))
        return MForm(f.m, f.shape, f.p, f.q, f.order, data)

    def split(self):
        """The forms along the leading axis of ``data``, as :meth:`stack` put them."""
        return [self._like(d) for d in self.data]

    @property
    def lead(self):
        """The leading (sample point) axes of ``data``."""
        return self.data.shape[:-4]

    @property
    def n_comps(self):
        """Number of dx monomials of degree p."""
        return len(form_comps(self.m, self.p))

    @property
    def gdata(self):
        """``data`` when q > 0, else None.  Kept read-only for the benchmark
        tracer, which tells ghost wedges from float ones by it."""
        return self.data if self.q else None

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
        """Matrix product with wedge on coefficients, total-degree signs.

        Each factor is gathered once by the plan's fused (component, table
        pair) index, one batched ``matmul`` makes every product, and the
        sums over each target's E entries and over the product table's
        layers are dense.  Point axes broadcast: a factor with fewer of them
        is padded with ones.
        """
        if self.m != other.m:
            raise ShapeError("mixed charts")
        if self.shape[1] != other.shape[0]:
            raise ShapeError(f"shape mismatch {self.shape} x {other.shape}")
        m, order = self.m, min(self.order, other.order)
        (r, n), c = self.shape, other.shape[1]
        p, q = self.p + other.p, self.q + other.q
        plan = wedge_plan(m, self.p, self.q, other.p, other.q)
        H, E = plan.f1.shape
        if not H:
            return MForm.zeros(m, (r, c), p, q, order,
                               np.broadcast_shapes(self.lead, other.lead))
        ia, ib, signed = plan.gathers(order)
        tab = space(m, order).table
        a, b = self.data[..., :tab.size], other.data[..., :tab.size]
        k = max(a.ndim, b.ndim) - 4                     # point axes of the product
        to_plan, signs, to_table, back = _wedge_axes(k)
        # each factor laid out as ([sign,] component, coefficient, points,
        # rows, cols), a factor with fewer point axes padded with ones
        left = a[(None,) * (k + 4 - a.ndim)].transpose(to_plan)
        if signed:
            left = left * signs
        left = left.reshape((-1,) + left.shape[-k - 2:]).take(ia, axis=0)
        right = b[(None,) * (k + 4 - b.ndim)].transpose(to_plan)
        right = right.reshape((-1,) + right.shape[-k - 2:]).take(ib, axis=0)
        prod = left @ right                                 # (E, H, T, ..., r, c)
        # entries add as whole products, so equal ones cancel exactly
        acc = prod[0]
        for e in range(1, E):
            acc += prod[e]
        acc = tab.sum(acc.transpose(to_table))              # (..., H, C, r, c)
        return MForm(m, (r, c), p, q, order, acc.transpose(back)[..., tab.unslot])

    def ext_d(self):
        """Exterior derivative; stored coefficients pick up (-1)^q.

        One gather of the plan's (component, coefficient) entries and a
        weighted sum over the p + 1 entries of each target.
        """
        if self.order == 0:
            raise JetOrderError("jet order exhausted in exterior derivative")
        src, weight = _d_gather(self.m, self.p, self.q, self.order)
        terms = self.data.reshape(self.data.shape[:-2] + (-1,)).take(src, axis=-1) * weight
        return MForm(self.m, self.shape, self.p + 1, self.q, self.order - 1,
                     terms.sum(axis=-2))

    # -- inspection ----------------------------------------------------------

    def block(self, rows, cols):
        """View-copy of a sub-matrix given (start, stop) row/col ranges."""
        r0, r1 = rows
        c0, c1 = cols
        return self._like(self.data[..., r0:r1, c0:c1, :, :].copy(),
                          shape=(r1 - r0, c1 - c0))

    def set_block(self, rows, cols, sub):
        r0, r1 = rows
        c0, c1 = cols
        if sub.shape != (r1 - r0, c1 - c0) or (sub.p, sub.q) != (self.p, self.q):
            raise ShapeError(f"cannot set a ({sub.shape},p={sub.p},q={sub.q}) block "
                             f"into ({self.shape},p={self.p},q={self.q})")
        self.data[..., r0:r1, c0:c1, :, :] = sub.truncate(self.order).data

    def value_norm(self):
        """Max |value coefficient| over entries and components, per point."""
        return worst_entry(self, self.lead)

    def full_norm(self):
        """Max |coefficient| over all jet orders (used for relative scales),
        per point."""
        return worst_entry(self.data, self.lead)

    def body(self):
        """Float MForm obtained by sending every ghost generator to 1."""
        G = len(ghost_monos(self.q))
        data = self.data.reshape(self.data.shape[:-2] + (G, self.n_comps, self.data.shape[-1]))
        return self._like(data.sum(axis=-3), q=0)

    def __repr__(self):
        return (f"MForm(shape={self.shape}, p={self.p}, q={self.q}, "
                f"order={self.order})")


# ---------------------------------------------------------------------------
# derived operations
# ---------------------------------------------------------------------------

def gcomm(a, b):
    """Graded commutator [a, b] with |.| the total degree p + q."""
    sign = -1.0 if ((a.p + a.q) * (b.p + b.q)) % 2 else 1.0
    return a.wedge(b) - b.wedge(a).scale(sign)


def scale_by_jet(M, z):
    """Multiply every entry of a float MForm by the scalar jet z."""
    m = M.m
    k = min(M.order, order_of(m, z))
    Mk = M.truncate(k)
    return Mk._like(jmul(jtrunc(z, m, k)[..., None, None, None, :], Mk.data, m))


def two_form_values(form):
    """Values X[..., mu, sigma] of a float 2-form, antisymmetric in mu, sigma."""
    m = form.m
    mu, sg = np.array(form_comps(m, 2)).T
    vals = form.data[..., 0]
    out = np.zeros(vals.shape[:-1] + (m, m))
    out[..., mu, sg] = vals
    out[..., sg, mu] = -vals
    return out


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
    blocks = [blk for row in rows for blk in row if isinstance(blk, MForm)]
    k = min([order] + [blk.order for blk in blocks])
    # a block without point axes broadcasts into those of the others
    out = MForm.zeros(m, (sum(rsz), sum(csz)), p, q, k, max((b.lead for b in blocks), key=len))
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
    data = (v.data * w[:, :, None, None]).swapaxes(-4, -3)
    return v._like(np.ascontiguousarray(data), shape=(c, r))


def algebra_residual(X, kind, eta=None, sigma=None):
    """Frobenius defect of M^T G + G M, the defining relation of so(eta)
    (kind 'so', G = eta) or of o(Sigma) (kind 'o2m', G = sigma).

    Evaluated on the value coefficients of every form component; the worst
    component per point.
    """
    if X.q:
        raise ShapeError("algebra residuals are defined for float-valued forms")
    if kind not in ("so", "o2m"):
        raise ValueError(f"unknown algebra kind {kind!r}")
    G = eta if kind == "so" else sigma
    M = np.moveaxis(X.data[..., 0], -1, -3)     # (..., F, r, c)
    R = M.swapaxes(-1, -2) @ G + G @ M
    return worst_entry(np.linalg.norm(R, axis=(-2, -1)), X.lead)
