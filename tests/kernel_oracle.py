"""Reference jet and form kernels: the segment-sum formulation.

The product table is built by a Python loop over monomial pairs and sorted
by output, so each output's pairs form one contiguous segment that
``np.add.reduceat`` sums; a wedge makes one jet-matrix product per plan
entry and scatter-adds the entries onto shared targets with ``np.add.at``.
Nothing here is used by the package: the tests check the package's
gather -> matmul -> dense-sum kernels against these.
"""

from functools import lru_cache

import numpy as np

from cartanweyl.forms import MForm, _dx_plan, _merge_monomials, d_plan, form_comps, ghost_monos
from cartanweyl.jets import order_of, space


class RefTables:
    """Product table sorted by output, plus derivative maps, of (m, order)."""

    def __init__(self, m, order):
        sp = space(m, order)
        self.size = sp.size
        pairs = []
        for i, bi in enumerate(sp.monos):
            for j, bj in enumerate(sp.monos):
                if sum(bi) + sum(bj) > order:
                    continue
                pairs.append((sp.index[tuple(a + b for a, b in zip(bi, bj))], i, j))
        pairs.sort(key=lambda e: e[0])          # stable: ascending i per output
        k, self.mul_i, self.mul_j = (np.array([e[n] for e in pairs]) for n in range(3))
        self.triples = pairs
        # every output is hit (pairing with the constant monomial)
        self.mul_starts = np.searchsorted(k, np.arange(sp.size))
        self.inv_tables = []
        for d in range(1, order + 1):
            sel = (sp.degrees[k] == d) & (sp.degrees[self.mul_i] > 0)
            starts = np.searchsorted(k[sel], np.arange(sp.prefix[d - 1], sp.prefix[d]))
            self.inv_tables.append((self.mul_i[sel], self.mul_j[sel], starts))
        self.deriv_src, self.deriv_fac = [], []
        if order:
            sub = space(m, order - 1).monos
            for nu in range(m):
                ups = [tuple(b + (n == nu) for n, b in enumerate(beta)) for beta in sub]
                self.deriv_src.append(np.array([sp.index[u] for u in ups]))
                self.deriv_fac.append(np.array([float(u[nu]) for u in ups]))


@lru_cache(maxsize=None)
def tables(m, order):
    return RefTables(m, order)


def jmul(a, b, m):
    t = tables(m, order_of(m, min(a.shape[-1], b.shape[-1])))
    prod = a.take(t.mul_i, axis=-1) * b.take(t.mul_j, axis=-1)
    return np.add.reduceat(prod, t.mul_starts, axis=-1)


def jmat_mul(A, B, m):
    t = tables(m, order_of(m, min(A.shape[-1], B.shape[-1])))
    At, Bt = A.swapaxes(-1, -3), B.swapaxes(-1, -3)
    prod = Bt.take(t.mul_j, axis=-3) @ At.take(t.mul_i, axis=-3)
    return np.add.reduceat(prod, t.mul_starts, axis=-3).swapaxes(-1, -3)


def jmat_inv(E, m):
    sp = space(m, order_of(m, E))
    t = tables(m, sp.order)
    Et = np.moveaxis(E, -1, -3)
    X = np.empty(Et.shape)
    X0 = np.linalg.inv(Et[..., 0, :, :])
    X[..., 0, :, :] = X0
    for d, (ti, tj, starts) in enumerate(t.inv_tables, start=1):
        EX = np.add.reduceat(Et.take(ti, axis=-3) @ X.take(tj, axis=-3), starts, axis=-3)
        X[..., sp.prefix[d - 1]:sp.prefix[d], :, :] = -(X0[..., None, :, :] @ EX)
    return np.moveaxis(X, -3, -1)


def jeinsum(spec, a, b, m):
    """Every label product elementwise, then a sum over the contracted axes."""
    ins, out = spec.split("->")
    la, lb = ins.split(",")
    contracted = [c for c in dict.fromkeys(la + lb) if c not in out]
    full = out + "".join(contracted)
    sizes = dict(zip(la, a.shape[:-1]))
    sizes.update(zip(lb, b.shape[:-1]))

    def arrange(x, labels):
        x = x.transpose(*[labels.index(c) for c in full if c in labels], x.ndim - 1)
        return x.reshape([sizes[c] if c in labels else 1 for c in full] + [x.shape[-1]])

    prod = jmul(arrange(a, la), arrange(b, lb), m)
    if contracted:
        prod = prod.sum(axis=tuple(range(len(out), len(full))))
    return prod


def wedge_plan(m, p1, q1, p2, q2):
    """(f1, f2, h, sign), one entry per component pair with a product."""
    F1, F2 = len(form_comps(m, p1)), len(form_comps(m, p2))
    F = len(form_comps(m, p1 + p2))
    target = {g: i for i, g in enumerate(ghost_monos(q1 + q2))}
    koszul = -1.0 if (p1 * q2) % 2 else 1.0
    plan = []
    for a, g1 in enumerate(ghost_monos(q1)):
        for b, g2 in enumerate(ghost_monos(q2)):
            merged = _merge_monomials(g1, g2)
            if merged is None:
                continue
            g, gsign = merged
            for i1, i2, h, sign in _dx_plan(m, p1, p2):
                plan.append((a * F1 + i1, b * F2 + i2, target[g] * F + h, koszul * gsign * sign))
    f1, f2, h = (np.array([e[k] for e in plan], dtype=int) for k in range(3))
    return f1, f2, h, np.array([e[3] for e in plan])


def wedge(a, b):
    out = MForm.zeros(a.m, (a.shape[0], b.shape[1]), a.p + b.p, a.q + b.q,
                      min(a.order, b.order))
    f1, f2, h, sign = wedge_plan(a.m, a.p, a.q, b.p, b.q)
    if h.size:
        prod = jmat_mul(a.data[:, :, f1].transpose(2, 0, 1, 3),
                        b.data[:, :, f2].transpose(2, 0, 1, 3), a.m)
        np.add.at(out.data.transpose(2, 0, 1, 3), h, sign[:, None, None, None] * prod)
    return out


def ext_d(form):
    t = tables(form.m, form.order)
    sign_q = -1.0 if form.q % 2 else 1.0
    out = MForm.zeros(form.m, form.shape, form.p + 1, form.q, form.order - 1)
    r, c = form.shape
    G = len(ghost_monos(form.q))
    src = form.data.reshape(r, c, G, form.n_comps, t.size)
    dst = out.data.reshape(r, c, G, out.n_comps, out.data.shape[-1])
    for f, nu, h, sgn in d_plan(form.m, form.p):
        der = src[:, :, :, f, :][..., t.deriv_src[nu]] * t.deriv_fac[nu]
        dst[:, :, :, h, :] += (sgn * sign_q) * der
    return out
