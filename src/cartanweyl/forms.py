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
from itertools import combinations, compress

import numpy as np

from .errors import JetOrderError, ShapeError
from .grassmann import GradedScalar, _merge_monomials
from .jets import Jet, jmat_mul, jmul, jtrunc, space
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


# largest (pair x multiplication-table) product one jmul call of a ghost
# wedge may hold: about 32 MB per float64 intermediate.  Only the jmul
# intermediates are blocked; the pair index arrays before it are built whole.
_PRODUCT_BLOCK = 1 << 22


@lru_cache(maxsize=None)
def _plan_index(m, p1, p2):
    """(F1, F2) table of the wedge-plan entry for each component pair; -1 if none."""
    f1, f2, _, _ = wedge_plan(m, p1, p2)
    out = np.full((len(form_comps(m, p1)), len(form_comps(m, p2))), -1)
    out[f1, f2] = np.arange(f1.size)
    return out


@lru_cache(maxsize=None)
def _d_arrays(m, p):
    """d_plan as arrays (nu, h, sign); the m - p entries of component f are
    at f * (m - p) + (0 .. m - p - 1)."""
    plan = d_plan(m, p)
    return tuple(np.array([e[k] for e in plan]) for k in (1, 2, 3))


def _monomial_table(keys):
    """Sorted unique monomials (generator-id tuples) of ``keys``, and the
    index of each key among them."""
    monos = tuple(sorted(set(keys)))
    where = {k: g for g, k in enumerate(monos)}
    return monos, np.array([where[k] for k in keys], dtype=np.int64)


class _Terms:
    """Sparse ghost term table: one jet row per (entry, Grassmann monomial).

    ``ent`` holds the flat (row, col, comp) index of each row, ``mono`` an
    index into ``monos`` and ``coef`` the (N, C) jet coefficients.  ``monos``
    is a sorted tuple of distinct monomials, each a tuple of increasing
    generator ids.  A table is canonical and never changed in place: rows
    sorted by (ent, mono) with no repeated key and no all-zero row, and every
    monomial of ``monos`` is used.
    """

    __slots__ = ("ent", "mono", "coef", "monos")

    def __init__(self, ent, mono, coef, monos):
        self.ent = ent
        self.mono = mono
        self.coef = coef
        self.monos = monos

    @classmethod
    def empty(cls, size):
        none = np.zeros(0, dtype=np.int64)
        return cls(none, none, np.zeros((0, size)), ())


def _collect(ent, mono, coef, monos):
    """Canonical table of raw rows: equal (ent, mono) keys are summed in input
    order (a stable argsort, then one ``reduceat``), then :func:`_nonzero`."""
    if not ent.size:
        return _Terms.empty(coef.shape[1])
    n = len(monos)
    key = ent * n + mono
    order = np.argsort(key, kind="stable")
    key, coef = key[order], coef[order]
    starts = np.flatnonzero(np.concatenate(([True], key[1:] != key[:-1])))
    if starts.size < key.size:
        # only keys with several rows need a sum; reduceat pays per group
        lens = np.diff(starts, append=key.size)
        multi = lens > 1
        rows = np.repeat(multi, lens)
        summed = np.add.reduceat(coef[rows], np.cumsum(lens[multi]) - lens[multi], axis=0)
        key, coef = key[starts], coef[starts]
        coef[multi] = summed
    return _nonzero(key // n, key % n, coef, monos)


def _nonzero(ent, mono, coef, monos):
    """Canonical table of rows already sorted by unique (ent, mono) keys:
    all-zero rows dropped, then unused monomials."""
    keep = coef.any(axis=1)
    if not keep.all():
        ent, mono, coef = ent[keep], mono[keep], coef[keep]
    if not ent.size:
        return _Terms.empty(coef.shape[1])
    used = np.zeros(len(monos), dtype=bool)
    used[mono] = True
    if not used.all():
        mono = (np.cumsum(used) - 1)[mono]
        monos = tuple(compress(monos, used))
    return _Terms(ent, mono, coef, monos)


def _merged(tables, size):
    """Canonical sum of tables that share one entry layout, each trimmed to
    ``size`` jet coefficients; their monomial tables are merged first."""
    monos, inv = _monomial_table([k for t in tables for k in t.monos])
    offsets = np.cumsum([0] + [len(t.monos) for t in tables])
    mono = np.concatenate([inv[o + t.mono] for o, t in zip(offsets, tables)])
    return _collect(np.concatenate([t.ent for t in tables]), mono,
                    np.concatenate([t.coef[:, :size] for t in tables]), monos)


def _moved(t, shape, new_shape, n_comps, r0, c0):
    """Rows of ``t`` re-indexed from ``shape`` into ``new_shape``, shifted by
    (r0, c0); rows that fall outside ``new_shape`` are dropped."""
    f = t.ent % n_comps
    cell = t.ent // n_comps
    r, c = cell // shape[1] + r0, cell % shape[1] + c0
    sel = (r >= 0) & (r < new_shape[0]) & (c >= 0) & (c < new_shape[1])
    ent = (r[sel] * new_shape[1] + c[sel]) * n_comps + f[sel]
    return _Terms(ent, t.mono[sel], t.coef[sel], t.monos)


def _low_degrees(coef, m, k):
    """Lowest degree with a nonzero coefficient in each row, up to order k;
    k + 1 for a row that is zero there."""
    sp = space(m, k)
    nz = coef[:, :sp.size] != 0
    return np.where(nz.any(axis=1), sp.degrees[nz.argmax(axis=1)], k + 1)


def _wedge_terms(a, b, A, B, koszul, k):
    """Ghost table of the wedge of MForms a and b with term tables A and B.

    Every A row meets every B row on the same inner index; pairs with no
    wedge-plan entry, with a product that vanishes by degree or with a shared
    generator drop out.  The rest are multiplied as jets, all at once, and
    group-summed with their signs into the output entries.
    """
    m = a.m
    inner, cols = a.shape[1], b.shape[1]
    Fa, Fb = a.n_comps, b.n_comps
    _, _, plan_h, plan_sign = wedge_plan(m, a.p, b.p)
    size = space(m, k).size
    if not (A.ent.size and B.ent.size and plan_h.size):
        return _Terms.empty(size)
    # B rows are sorted by entry, so its rows with inner index t are one run
    tb = B.ent // (cols * Fb)
    starts = np.searchsorted(tb, np.arange(inner + 1))
    ta = (A.ent // Fa) % inner
    lo, cnt = starts[ta], starts[ta + 1] - starts[ta]
    ia = np.repeat(np.arange(A.ent.size), cnt)
    ib = np.arange(ia.size) - np.repeat(np.cumsum(cnt) - cnt - lo, cnt)
    plan = _plan_index(m, a.p, b.p)[A.ent[ia] % Fa, B.ent[ib] % Fb]
    # a product vanishes when its factors' lowest degrees add up beyond k;
    # ghost fields are sums of unit jets, so most pairs of their terms do
    low_a, low_b = _low_degrees(A.coef, m, k), _low_degrees(B.coef, m, k)
    sel = (plan >= 0) & (low_a[ia] + low_b[ib] <= k)
    ia, ib, plan = ia[sel], ib[sel], plan[sel]
    # the Grassmann product of each distinct monomial pair; a shared
    # generator kills it
    nb = len(B.monos)
    pairs, inv = np.unique(A.mono[ia] * nb + B.mono[ib], return_inverse=True)
    merged = [_merge_monomials(A.monos[g // nb], B.monos[g % nb]) for g in pairs.tolist()]
    live = np.array([x is not None for x in merged], dtype=bool)
    gsign = np.array([x[1] if x else 0.0 for x in merged])
    monos, target = _monomial_table([x[0] for x in merged if x])
    pair_target = np.zeros(pairs.size, dtype=np.int64)
    pair_target[live] = target
    inv = inv.reshape(-1)
    sel = live[inv]
    ia, ib, plan, inv = ia[sel], ib[sel], plan[sel], inv[sel]
    # one jmul for all pairs, in blocks that bound its (pairs x table)
    # intermediates when a product is large
    step = max(1, _PRODUCT_BLOCK // len(space(m, k).mul_i))
    coef = np.concatenate([jmul(A.coef[ia[s:s + step]], B.coef[ib[s:s + step]], m)
                           for s in range(0, ia.size, step)] or [np.zeros((0, size))])
    coef *= (koszul * plan_sign[plan] * gsign[inv])[:, None]
    Fh = len(form_comps(m, a.p + b.p))
    ent = ((A.ent[ia] // (Fa * inner)) * cols + (B.ent[ib] // Fb) % cols) * Fh + plan_h[plan]
    return _collect(ent, pair_target[inv], coef, monos)


class MForm:
    """Matrix of homogeneous-(p, q) forms with jet coefficients.

    Exactly one of ``data`` (float path, shape (r, c, F, C)) or ``gdata``
    (ghost path, a sparse term table private to this module, jets of order
    ``order``) is set.  Ghost forms are built with :meth:`from_entries` and
    read with :meth:`entry`, one GradedScalar per (row, col, comp).
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
        C = space(m, order).size
        if ghost:
            return cls(m, shape, p, q, order, gdata=_Terms.empty(C))
        F = len(form_comps(m, p))
        return cls(m, shape, p, q, order, data=np.zeros((shape[0], shape[1], F, C)))

    @classmethod
    def from_entries(cls, m, shape, p, q, order, entries):
        """Ghost MForm from {(row, col, comp): GradedScalar over jets}.

        Coefficients are trimmed to ``order``; absent entries are zero.
        """
        out = cls(m, shape, p, q, order)
        size = space(m, order).size
        ent, mono, coef = [], [], []
        for (i, j, f), g in entries.items():
            e = out._flat_index(i, j, f)
            for k, c in g.terms.items():
                ent.append(e)
                mono.append(k)
                coef.append(jtrunc(c.coeffs, m, order))
        monos, idx = _monomial_table(mono)
        out.gdata = _collect(np.array(ent, dtype=np.int64), idx,
                             np.array(coef, dtype=float).reshape(-1, size), monos)
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
    def is_ghost(self):
        return self.gdata is not None

    @property
    def n_comps(self):
        return len(form_comps(self.m, self.p))

    def _flat_index(self, i, j, f):
        """Flat (row, col, comp) index of an entry; IndexError outside the form."""
        if not (0 <= i < self.shape[0] and 0 <= j < self.shape[1] and 0 <= f < self.n_comps):
            raise IndexError(f"entry ({i}, {j}, {f}) outside shape {self.shape} "
                             f"with {self.n_comps} components")
        return (i * self.shape[1] + j) * self.n_comps + f

    def entry(self, i, j, f):
        """The (row i, col j, comp f) entry of a ghost MForm as a GradedScalar."""
        t = self.gdata
        e = self._flat_index(i, j, f)
        lo, hi = np.searchsorted(t.ent, (e, e + 1))
        return GradedScalar({t.monos[t.mono[r]]: Jet(self.m, t.coef[r].copy())
                             for r in range(lo, hi)})

    def _with(self, table, order=None, shape=None, p=None):
        return MForm(self.m, self.shape if shape is None else shape,
                     self.p if p is None else p, self.q,
                     self.order if order is None else order, gdata=table)

    def copy(self):
        if self.is_ghost:
            return self._with(self.gdata)   # tables are never changed in place
        return MForm(self.m, self.shape, self.p, self.q, self.order,
                     data=self.data.copy())

    def to_ghost(self):
        """Lift a float MForm: each nonzero entry c becomes the body term c."""
        if self.is_ghost:
            return self
        flat = self.data.reshape(-1, self.data.shape[-1])
        ent = np.flatnonzero(flat.any(axis=1))
        table = _Terms(ent, np.zeros(ent.size, dtype=np.int64), flat[ent],
                       ((),) if ent.size else ())
        return self._with(table)

    def truncate(self, to_order):
        if to_order == self.order:
            return self
        if self.is_ghost:
            if to_order > self.order:
                raise JetOrderError(f"cannot raise jet order {self.order} to {to_order}")
            t = self.gdata
            return self._with(_nonzero(t.ent, t.mono, t.coef[:, :space(self.m, to_order).size],
                                       t.monos), order=to_order)
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
        if self.is_ghost or other.is_ghost:
            table = _merged([self.to_ghost().gdata, other.to_ghost().gdata],
                            space(self.m, k).size)
            return self._with(table, order=k)
        a, b = self.truncate(k), other.truncate(k)
        return MForm(self.m, self.shape, self.p, self.q, k, data=a.data + b.data)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return self.scale(-1.0)

    def scale(self, factor):
        if self.is_ghost:
            t = self.gdata
            return self._with(_nonzero(t.ent, t.mono, t.coef * float(factor), t.monos))
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
        k = min(self.order, other.order)
        out_shape = (self.shape[0], other.shape[1])
        if self.is_ghost or other.is_ghost:
            table = _wedge_terms(self, other, self.to_ghost().gdata,
                                 other.to_ghost().gdata, koszul, k)
            return MForm(self.m, out_shape, p, q, k, gdata=table)
        out = MForm.zeros(self.m, out_shape, p, q, k)
        f1, f2, h, sign = wedge_plan(self.m, self.p, other.p)
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
        sp = space(self.m, self.order)
        if self.is_ghost:
            t = self.gdata
            F, w = self.n_comps, self.m - self.p
            table = _Terms.empty(space(self.m, self.order - 1).size)
            if w and t.ent.size:
                # each row meets the m - p plan entries of its component
                nu, h, sign = _d_arrays(self.m, self.p)
                rows = np.repeat(np.arange(t.ent.size), w)
                plan = (t.ent[rows] % F) * w + np.tile(np.arange(w), t.ent.size)
                der = np.take_along_axis(t.coef[rows], np.array(sp.deriv_src)[nu[plan]], axis=1)
                der *= np.array(sp.deriv_fac)[nu[plan]] * (sign_q * sign[plan])[:, None]
                ent = (t.ent[rows] // F) * len(form_comps(self.m, self.p + 1)) + h[plan]
                table = _collect(ent, t.mono[rows], der, t.monos)
            return self._with(table, order=self.order - 1, p=self.p + 1)
        out = MForm.zeros(self.m, self.shape, self.p + 1, self.q, self.order - 1)
        for f, nu, h, sgn in d_plan(self.m, self.p):
            der = self.data[:, :, f, :][..., sp.deriv_src[nu]] * sp.deriv_fac[nu]
            out.data[:, :, h, :] += (sgn * sign_q) * der
        return out

    # -- inspection ----------------------------------------------------------

    def block(self, rows, cols):
        """View-copy of a sub-matrix given (start, stop) row/col ranges."""
        r0, r1 = rows
        c0, c1 = cols
        shape = (r1 - r0, c1 - c0)
        if self.is_ghost:
            t = _moved(self.gdata, self.shape, shape, self.n_comps, -r0, -c0)
            return self._with(_nonzero(t.ent, t.mono, t.coef, t.monos), shape=shape)
        return MForm(self.m, shape, self.p, self.q, self.order,
                     data=self.data[r0:r1, c0:c1].copy())

    def set_block(self, rows, cols, sub):
        r0, r1 = rows
        c0, c1 = cols
        if sub.shape != (r1 - r0, c1 - c0):
            raise ShapeError("block shape mismatch")
        if self.is_ghost != sub.is_ghost:
            raise ShapeError("mixed float/ghost block assignment")
        if self.is_ghost:
            t = self.gdata
            cell = t.ent // self.n_comps
            r, c = cell // self.shape[1], cell % self.shape[1]
            keep = ~((r >= r0) & (r < r1) & (c >= c0) & (c < c1))
            rest = _Terms(t.ent[keep], t.mono[keep], t.coef[keep], t.monos)
            moved = _moved(sub.truncate(self.order).gdata, sub.shape, self.shape,
                           self.n_comps, r0, c0)
            self.gdata = _merged([rest, moved], space(self.m, self.order).size)
        else:
            self.data[r0:r1, c0:c1] = sub.truncate(self.order).data

    def value_norm(self):
        """Max |value coefficient| over entries and form components."""
        x = self.gdata.coef[:, 0] if self.is_ghost else self.data[..., 0]
        return float(np.abs(x).max()) if x.size else 0.0

    def full_norm(self):
        """Max |coefficient| over all jet orders (used for relative scales)."""
        x = self.gdata.coef if self.is_ghost else self.data
        return float(np.abs(x).max()) if x.size else 0.0

    def body(self):
        """Float MForm obtained by sending every ghost generator to 1."""
        if not self.is_ghost:
            return self
        out = MForm.zeros(self.m, self.shape, self.p, 0, self.order)
        t = self.gdata
        if t.ent.size:
            starts = np.flatnonzero(np.concatenate(([True], t.ent[1:] != t.ent[:-1])))
            flat = out.data.reshape(-1, t.coef.shape[1])
            flat[t.ent[starts]] = np.add.reduceat(t.coef, starts, axis=0)
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
    if v.is_ghost and 1 in (r, c):
        # entry (0, j, f) of a row and (j, 0, f) of a column share one index
        t = v.gdata
        return v._with(_nonzero(t.ent, t.mono, t.coef * w[t.ent // v.n_comps, None],
                                t.monos), shape=(c, r))
    if r == 1:
        out = MForm.zeros(v.m, (c, 1), v.p, v.q, v.order)
        for j in range(c):
            out.data[j, 0] = v.data[0, j] * w[j]
        return out
    if c == 1:
        out = MForm.zeros(v.m, (1, r), v.p, v.q, v.order)
        for j in range(r):
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

