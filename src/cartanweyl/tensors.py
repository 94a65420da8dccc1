"""Classical coordinate tensor calculus over jet coefficients.

Independent oracle route: everything here is computed from the metric by the
textbook index formulas, never through the Cartan-connection machinery,
and the engine reads none of its curvature chain: ``build_normal`` takes
its Schouten block from the spin connection (``cartan.schouten_form``).  All
arrays carry jet coefficients on the trailing axis; the jet order drops by
one per derivative taken.  Any axes in front of a tensor's indices run over
sample points, and every function acts on each point alone.

Index conventions (fixed once, shared with the dressing route):
  Gamma[rho, mu, nu]        Christoffel symbols, first lower index = form index
  R[rho, nu, mu, sigma]     Riemann from R = d Gamma + Gamma^2, antisym (mu, sigma)
  Ricci[nu, sigma] = R[lam, nu, lam, sigma]
  P = -1/(m-2) (Ricci - R g / (2(m-1)))
  Cotton[nu, mu, sigma] = cov_mu P[sigma, nu] - cov_sigma P[mu, nu]
  Weyl[rho, nu, mu, sigma]  traceless completion of Riemann by P and g
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .jets import jder, jmat_inv, jmat_mul, jmul, jtrunc, order_of


def tr(x, *perm):
    """Permute the trailing len(perm) axes before the coefficient axis of
    ``x``; the point axes in front stay in place."""
    lead = x.ndim - 1 - len(perm)
    return x.transpose(*range(lead), *(lead + p for p in perm), x.ndim - 1)


def jeinsum(spec, a, b, m):
    """Two-operand einsum with jet-valued entries (trailing coeff axis).

    Contracted labels are those missing from the output; each must appear
    once in each operand.  Axes in front of the labelled ones are point
    axes, as many in each operand, broadcast between them.  The operands
    are reshaped to (batch, free, contracted) and (batch, contracted, free)
    jet matrices, so the whole contraction is one :func:`jmat_mul`; a spec
    that contracts nothing is one broadcast :func:`jmul`.  The axis orders
    and merged shapes are worked out once per spec and operand shapes.
    """
    (ta, sa), (tb, sb), summed, shape, back = _jeinsum_plan(spec, a.shape, b.shape)
    va, vb = a.transpose(ta).reshape(sa), b.transpose(tb).reshape(sb)
    prod = jmat_mul(va, vb, m) if summed else jmul(va, vb, m)
    return prod.reshape(shape + prod.shape[-1:]).transpose(back)


@lru_cache(maxsize=1024)
def _jeinsum_plan(spec, shape_a, shape_b):
    """:func:`jeinsum`'s axis order and merged shape per operand, whether it
    sums, and the shape and axis order that turn the product into the result."""
    ins, out = spec.split("->")
    la, lb = ins.split(",")
    if len(set(la)) < len(la) or len(set(lb)) < len(lb) or len(set(out)) < len(out):
        raise ValueError(f"jeinsum spec {spec!r} repeats a label within one operand")
    if any(c not in out for c in set(la) ^ set(lb)):
        raise ValueError(f"jeinsum spec {spec!r} sums a label of one operand only")
    na, nb = len(shape_a) - 1 - len(la), len(shape_b) - 1 - len(lb)
    if na != nb:
        raise ValueError(f"jeinsum spec {spec!r} does not match the operands' axes")
    lead = tuple(max(x, y) for x, y in zip(shape_a[:na], shape_b[:nb]))     # 1 broadcasts
    sizes = dict(zip(la, shape_a[na:-1]))
    sizes.update(zip(lb, shape_b[nb:-1]))
    batch = [c for c in out if c in la and c in lb]
    left = [c for c in out if c in la and c not in lb]
    right = [c for c in out if c in lb and c not in la]
    summed = [c for c in la if c not in out]

    def arrange(shape, labels, groups):
        # the transpose to the group order, and the shape merging each group
        n = len(shape) - 1 - len(labels)
        order = [n + labels.index(c) for g in groups for c in g]
        merged = [math.prod(sizes[c] for c in g) for g in groups]
        return (*range(n), *order, len(shape) - 1), shape[:n] + tuple(merged) + shape[-1:]

    if summed:
        plan_a = arrange(shape_a, la, [[c] for c in batch] + [left, summed])
        plan_b = arrange(shape_b, lb, [[c] for c in batch] + [summed, right])
    else:
        # an outer product: singleton axes line the operands up
        full = batch + left + right
        plan_a = arrange(shape_a, la, [[c] if c in la else [] for c in full])
        plan_b = arrange(shape_b, lb, [[c] if c in lb else [] for c in full])
    have = batch + left + right
    k = len(lead)
    back = (*range(k), *(k + have.index(c) for c in out), k + len(have))
    return plan_a, plan_b, bool(summed), lead + tuple(sizes[c] for c in have), back


def dstack(a, m, rank):
    """Stack the partial derivatives of a rank-``rank`` jet tensor over a
    new first index, after the point axes."""
    return np.stack([jder(a, m, nu) for nu in range(m)], axis=a.ndim - 1 - rank)


def metric_from_vielbein(e, signature):
    """g = e^T eta e for a vielbein array e[a, mu, :]."""
    m = e.shape[-2]
    sig = np.asarray(signature, dtype=float)
    weighted = sig[:, None, None] * e
    return jeinsum("am,an->mn", weighted, e, m)


def christoffel(g, ginv, m):
    dg = dstack(g, m, 2)  # dg[d, i, j] = partial_d g_ij
    A = tr(dg, 1, 0, 2) + tr(dg, 1, 2, 0) - dg
    return 0.5 * jeinsum("rl,lmn->rmn", ginv, A, m)


def riemann(gamma, m):
    dG = dstack(gamma, m, 3)  # dG[d, rho, a, b] = partial_d Gamma[rho, a, b]
    t1 = tr(dG, 1, 3, 0, 2)   # [rho, nu, mu, sigma] = d_mu G[rho, sigma, nu]
    t2 = tr(dG, 1, 3, 2, 0)   # [rho, nu, mu, sigma] = d_sigma G[rho, mu, nu]
    # the products run at the order of the derivative terms
    gk = jtrunc(gamma, m, order_of(m, dG))
    q1 = jeinsum("rml,lsn->rnms", gk, gk, m)  # G[rho,mu,lam] G[lam,sigma,nu]
    q2 = jeinsum("rsl,lmn->rnms", gk, gk, m)  # G[rho,sigma,lam] G[lam,mu,nu]
    return t1 - t2 + q1 - q2


def ricci(riem):
    return np.einsum("...anasc->...nsc", riem)


def ricci_scalar(ric, ginv, m):
    return jeinsum("ns,ns->", ginv, ric, m)


def schouten_from_ricci(ric, scal, g, m):
    dim = g.shape[-2]
    k = order_of(m, ric)
    gk = jtrunc(g, m, k)
    return (-1.0 / (dim - 2)) * (ric - jeinsum(",mn->mn", scal, gk, m) / (2.0 * (dim - 1)))


def covariant_dP(P, gamma, m):
    """cov[mu, sigma, nu] = d_mu P[sigma, nu] - G[lam,mu,sigma] P[lam,nu]
    - G[lam,mu,nu] P[sigma,lam]."""
    dP = dstack(P, m, 2)
    k = order_of(m, dP)
    gk, Pk = jtrunc(gamma, m, k), jtrunc(P, m, k)
    gp1 = jeinsum("lms,ln->msn", gk, Pk, m)
    gp2 = jeinsum("lmn,sl->msn", gk, Pk, m)
    return dP - gp1 - gp2


def cotton(P, gamma, m):
    cov = covariant_dP(P, gamma, m)
    return tr(cov, 2, 0, 1) - tr(cov, 2, 1, 0)


def weyl_tensor(riem, P, g, ginv, m):
    """W[rho, nu, mu, sigma] = R + (delta wedge P + P-raised wedge g) terms."""
    k = order_of(m, riem)
    Pk = jtrunc(P, m, k)
    gk = jtrunc(g, m, k)
    dim = g.shape[-2]
    delta = np.eye(dim)
    W = riem.copy()
    W = W + np.einsum("rm,...snc->...rnmsc", delta, Pk) \
          - np.einsum("rs,...mnc->...rnmsc", delta, Pk)
    praise = jeinsum("ml,lr->mr", Pk, jtrunc(ginv, m, k), m)  # P[mu,lam] ginv[lam,rho]
    W = W + jeinsum("mr,sn->rnms", praise, gk, m) \
          - jeinsum("sr,mn->rnms", praise, gk, m)
    return W


def curvature_bundle(e, signature, m):
    """g, its inverse, Gamma, Riemann, Ricci, scalar curvature and the
    Schouten tensor P from a vielbein jet array."""
    g = metric_from_vielbein(e, signature)
    ginv = jmat_inv(g, m)
    gamma = christoffel(g, ginv, m)
    riem = riemann(gamma, m)
    ric = ricci(riem)
    scal = ricci_scalar(ric, jtrunc(ginv, m, order_of(m, ric)), m)
    P = schouten_from_ricci(ric, scal, g, m)
    return {"g": g, "ginv": ginv, "Gamma": gamma, "Riemann": riem,
            "Ricci": ric, "Rscal": scal, "P": P}


def classical_bundle(e, signature, m):
    """All oracle tensors from a vielbein jet array in one pass: the
    :func:`curvature_bundle` plus the Cotton and Weyl tensors."""
    out = curvature_bundle(e, signature, m)
    out["C"] = cotton(out["P"], out["Gamma"], m)
    out["W"] = weyl_tensor(out["Riemann"], out["P"], out["g"], out["ginv"], m)
    return out

