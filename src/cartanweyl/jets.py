"""Truncated multivariate Taylor (jet) arithmetic.

A jet of order K at a point stores the normalized Taylor coefficients
t_beta = (d^beta f)/beta! for every multi-index |beta| <= K.  Products are
exact truncated polynomial convolutions, so identity residuals downstream
are limited only by rounding.  Each order has one :class:`ProductTable` of
the pairs (i, j) -> k with beta_i + beta_j = beta_k, stored layer by layer:
a product gathers each factor once in table order, multiplies (one batched
``matmul`` for jet matrices) and sums the layers densely, without segment
sums or scatter-adds.

Jets are flat numpy arrays over the monomial basis of a cached
:class:`JetSpace`.  A ghost field is one such array per pool generator, and
a ghost form stores one per (ghost monomial, dx monomial) component of each
entry, in the last axis of :attr:`~cartanweyl.forms.MForm.data`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import combinations_with_replacement

import numpy as np

from .errors import ExprDomainError, JetOrderError


def _monomials(m, order):
    """All exponent tuples with |beta| <= order, sorted by (degree, lex)."""
    out = []
    for deg in range(order + 1):
        row = set()
        for combo in combinations_with_replacement(range(m), deg):
            beta = [0] * m
            for i in combo:
                beta[i] += 1
            row.add(tuple(beta))
        out.extend(sorted(row))
    return tuple(out)


class ProductTable:
    """Pairs (i, j) -> k of a truncated product, stored layer by layer.

    Every output k sums the products of its pairs, taken in a fixed order
    (ascending i).  Layer l holds the l-th pair of every output with more
    than l pairs.  Outputs sit in *slots* sorted by pair count, most first,
    so layer l covers slots 0 .. width_l - 1: :meth:`sum` is one slice-add
    per layer and ends with the outputs in slot order; ``unslot[k]`` is the
    slot of output k.

    An output of degree d has the same pairs, in the same order, in the table
    of every order >= d, so each coefficient is summed the same way at every
    order that holds it: truncating the factors first is bitwise exact.
    """

    def __init__(self, i, j, k, size):
        counts = np.bincount(k, minlength=size)
        by_k = np.argsort(k, kind="stable")
        rank = np.empty_like(k)
        rank[by_k] = np.arange(k.size) - np.repeat(np.cumsum(counts) - counts, counts)
        self.unslot = np.empty(size, dtype=np.intp)
        self.unslot[np.argsort(-counts, kind="stable")] = np.arange(size)
        layer_major = np.lexsort((self.unslot[k], rank))
        self.i, self.j = i[layer_major], j[layer_major]
        self.size = size
        self.widths = np.bincount(rank).tolist()        # outputs per layer
        # (destination slots, table entries) of every layer after the first
        self._layers = []
        start = size
        for width in self.widths[1:]:
            self._layers.append((np.s_[..., :width, :, :], np.s_[..., start:start + width, :, :]))
            start += width
        self._grid = (rank[layer_major], k[layer_major])

    def sum(self, prod):
        """Sum per output of the per-pair products on axis -3 (matrix
        products), in slot order; adds into ``prod`` in place."""
        acc = prod[..., :self.size, :, :]
        for dst, src in self._layers:
            acc[dst] += prod[src]
        return acc

    @cached_property
    def padded(self):
        """(i, j, layers): the table on a dense (layers, size) grid in output
        order, for a sum over one axis.  A gap pairs j = 0 with i = size, a
        zero appended to the left factor."""
        rank, k = self._grid
        layers = len(self.widths)
        pi = np.full((layers, self.size), self.size, dtype=np.intp)
        pj = np.zeros((layers, self.size), dtype=np.intp)
        pi[rank, k] = self.i
        pj[rank, k] = self.j
        return pi.ravel(), pj.ravel(), layers


class JetSpace:
    """Monomial basis plus multiplication/derivative tables for (m, order).

    The product tables are built with numpy on first use.
    """

    def __init__(self, m, order):
        self.m = m
        self.order = order
        self.monos = _monomials(m, order)
        self.size = len(self.monos)
        self.index = {b: i for i, b in enumerate(self.monos)}
        self.exponents = np.array(self.monos, dtype=int).reshape(self.size, m)
        self.degrees = self.exponents.sum(axis=1)
        # prefix length of the sub-basis of order <= d
        self.prefix = [int(np.searchsorted(self.degrees, d, side="right"))
                       for d in range(order + 1)]
        self.factorials = np.array(
            [math.prod(math.factorial(k) for k in b) for b in self.monos],
            dtype=float,
        )
        # mixed-radix codes add like exponent vectors up to total order
        self._codes = self.exponents @ (order + 1) ** np.arange(m)
        self._sorted = np.argsort(self._codes)
        self._build_deriv_maps()

    def _lookup(self, codes):
        """Basis indices of monomials given by their codes."""
        return self._sorted[np.searchsorted(self._codes[self._sorted], codes)]

    def _pairs(self):
        """(i, j, k) of every product pair, ascending i within each k."""
        deg = self.degrees
        i, j = np.nonzero(deg[:, None] + deg[None, :] <= self.order)
        return i, j, self._lookup(self._codes[i] + self._codes[j])

    @cached_property
    def table(self):
        """The full product table."""
        i, j, k = self._pairs()
        return ProductTable(i, j, k, self.size)

    @property
    def mul_i(self):
        """Left factor index of every product pair, in table order (the
        benchmark tracer counts product terms by its length)."""
        return self.table.i

    @cached_property
    def inv_tables(self):
        """Degree-d sub-tables of :func:`jmat_inv`, d = 1..order: the pairs
        i, j -> k with deg k = d and deg i >= 1, so every output still has
        its (degree-1, rest) pair; outputs are numbered from prefix[d - 1]."""
        i, j, k = self._pairs()
        out = []
        for d in range(1, self.order + 1):
            sel = (self.degrees[k] == d) & (i > 0)
            lo = self.prefix[d - 1]
            out.append(ProductTable(i[sel], j[sel], k[sel] - lo, self.prefix[d] - lo))
        return out

    def _build_deriv_maps(self):
        # For direction nu: coefficients of d_nu f on the (order-1) basis.
        self.deriv_src = []
        self.deriv_fac = []
        if self.order == 0:
            return
        n = self.prefix[self.order - 1]
        for nu in range(self.m):
            self.deriv_src.append(self._lookup(self._codes[:n] + (self.order + 1) ** nu))
            self.deriv_fac.append(self.exponents[:n, nu] + 1.0)


@lru_cache(maxsize=None)
def space(m, order):
    return JetSpace(m, order)


@lru_cache(maxsize=None)
def _size_to_order(m, size):
    k = 0
    while space(m, k).size < size:
        k += 1
    if space(m, k).size != size:
        raise ValueError(f"no jet order has basis size {size} in {m} variables")
    return k


def order_of(m, arr_or_size):
    """Recover the jet order from a coefficient-array trailing size."""
    size = arr_or_size if isinstance(arr_or_size, int) else arr_or_size.shape[-1]
    return _size_to_order(m, size)


# ---------------------------------------------------------------------------
# raw float-coefficient helpers: arrays carry jet coefficients on the last axis
# ---------------------------------------------------------------------------

def jconst(value, m, order):
    c = np.zeros(space(m, order).size)
    c[0] = value
    return c


def jcoord(i, point, m, order):
    """Jet of the coordinate x_i at ``point``, or at each of a batch (P, m)."""
    sp = space(m, order)
    point = np.asarray(point, dtype=float)
    c = np.zeros(point.shape[:-1] + (sp.size,))
    c[..., 0] = point[..., i]
    if order >= 1:
        e_i = tuple(1 if k == i else 0 for k in range(m))
        c[..., sp.index[e_i]] = 1.0
    return c


def shift_matrix(exponents, point, order):
    """Order-``order`` jets at ``point`` of the monomials x^beta, one per row.

    ``exponents`` (N, m) lists the betas; a batch of points (P, m) gives one
    matrix per point, (P, N, C).  Entry (beta, gamma) of the
    (N, C) result is prod_i C(beta_i, gamma_i) p_i^(beta_i - gamma_i), zero
    unless gamma <= beta: a product of one (max beta_i + 1, order + 1) table
    per coordinate, gathered with numpy.  A polynomial's coefficients times
    this matrix are its jet at p, the coefficients of its Taylor shift
    x -> p + x (truncated Taylor propagation: Griewank and Walther,
    Evaluating Derivatives, 2nd ed., ch. 13).
    """
    exponents = np.asarray(exponents, dtype=int)
    m = exponents.shape[1]
    gamma = space(m, order).exponents
    top = int(exponents.max(initial=0))
    binom = np.array([[math.comb(b, g) for g in range(order + 1)]
                      for b in range(top + 1)], dtype=float)
    steps = np.maximum(np.arange(top + 1)[:, None] - np.arange(order + 1), 0)
    # table[..., i, b, g] = C(b, g) p_i^(b - g); binom is zero where g > b
    point = np.asarray(point, dtype=float)
    table = binom * point[..., None, None] ** steps
    shift = np.ones(point.shape[:-1] + (exponents.shape[0], gamma.shape[0]))
    for i in range(m):
        shift *= table[..., i, exponents[:, i, None], gamma[None, :, i]]
    return shift


def jtrunc(a, m, to_order):
    cur = order_of(m, a)
    if to_order > cur:
        raise JetOrderError(f"cannot raise jet order {cur} to {to_order}")
    if to_order < 0:
        raise JetOrderError(f"cannot truncate jet order {cur} to {to_order}")
    if to_order == cur:
        return a
    return a[..., : space(m, to_order).size]


def jmul(a, b, m):
    """Truncated product; broadcasts over leading axes, trims to min order.

    The padded table gathers both factors once, and the layer axis is
    summed in one reduction.  As the order-k tables index only the first
    size(k) coefficients, the longer operand needs no explicit truncation.
    """
    sp = space(m, order_of(m, min(a.shape[-1], b.shape[-1])))
    if sp.size == 1:        # order 0: the product of the values
        return a[..., :1] * b[..., :1]
    pi, pj, layers = sp.table.padded
    a0 = np.concatenate((a[..., :sp.size], np.zeros(a.shape[:-1] + (1,))), axis=-1)
    prod = a0.take(pi, axis=-1) * b.take(pj, axis=-1)
    return prod.reshape(prod.shape[:-1] + (layers, sp.size)).sum(axis=-2)


def jder(a, m, nu):
    k = order_of(m, a)
    if k == 0:
        raise JetOrderError("jet order exhausted: cannot differentiate order 0")
    sp = space(m, k)
    return a[..., sp.deriv_src[nu]] * sp.deriv_fac[nu]


def jcompose(u, ders, m):
    """phi(u) for scalar phi given derivatives ders[n] = phi^(n)(u0).

    Each ``ders[n]`` is a float or, when the jets on u's leading axes have
    their own phi derivatives, an array over those axes; the Horner steps
    are one batched product each.
    """
    k = order_of(m, u)
    delta = u.copy()
    delta[..., 0] = 0.0
    out = np.zeros(u.shape)
    out[..., 0] = ders[k] / math.factorial(k)
    for n in range(k - 1, -1, -1):
        out = jmul(out, delta, m)
        out[..., 0] += ders[n] / math.factorial(n)
    return out


def _compose_rows(a, m, row_ders, name):
    """phi(a) for a (..., C) jet array, ``row_ders(v, k)`` giving the phi
    derivatives at one value v: scalars per jet, one batched Horner pass.
    Every composed function takes this path, so a derivative past the float
    range, of phi or of phi(a), is refused here as an ExprDomainError."""
    k = order_of(m, a)
    flat = a.reshape(-1, a.shape[-1])
    with np.errstate(all="ignore"):     # a non-finite jet is refused below
        ders = []
        for v in flat[:, 0]:
            try:
                ders.append(row_ders(v, k))
            except OverflowError:       # math.exp and cosh raise where numpy gives inf
                ders.append([math.inf] * (k + 1))
        out = jcompose(flat, np.array(ders).reshape(flat.shape[0], k + 1).T, m)
    bad = np.flatnonzero(~np.isfinite(out).all(axis=-1))
    if bad.size:
        raise ExprDomainError(f"{name}({flat[bad[0], 0]:.6g}) overflows in jet evaluation")
    return out.reshape(a.shape)


def _scalar_compose(fn_ders, name):
    def op(a, m):
        return _compose_rows(a, m, fn_ders, name)
    return op


def _recip_ders(v, k):
    if v == 0.0:
        raise ExprDomainError("division by zero in jet evaluation")
    return [math.factorial(n) * (-1.0) ** n / v ** (n + 1) for n in range(k + 1)]


def _exp_ders(v, k):
    e = math.exp(v)
    return [e] * (k + 1)


def _sin_ders(v, k):
    s, c = math.sin(v), math.cos(v)
    cycle = [s, c, -s, -c]
    return [cycle[n % 4] for n in range(k + 1)]


def _cos_ders(v, k):
    s, c = math.sin(v), math.cos(v)
    cycle = [c, -s, -c, s]
    return [cycle[n % 4] for n in range(k + 1)]


def _cosh_ders(v, k):
    ch, sh = math.cosh(v), math.sinh(v)
    return [ch if n % 2 == 0 else sh for n in range(k + 1)]


def _sinh_ders(v, k):
    ch, sh = math.cosh(v), math.sinh(v)
    return [sh if n % 2 == 0 else ch for n in range(k + 1)]


def _sqrt_ders(v, k):
    if v < 0.0:
        raise ExprDomainError("sqrt of a negative value in jet evaluation")
    if v == 0.0:
        raise ExprDomainError("sqrt not differentiable at zero")
    r = math.sqrt(v)
    ders = [r]
    coef = 0.5
    for n in range(1, k + 1):
        ders.append(coef * v ** (0.5 - n))
        coef *= 0.5 - n
    return ders


jrecip = _scalar_compose(_recip_ders, "1/")
jexp = _scalar_compose(_exp_ders, "exp")
jsin = _scalar_compose(_sin_ders, "sin")
jcos = _scalar_compose(_cos_ders, "cos")
jcosh = _scalar_compose(_cosh_ders, "cosh")
jsinh = _scalar_compose(_sinh_ders, "sinh")
jsqrt = _scalar_compose(_sqrt_ders, "sqrt")


def jipow(a, n, m):
    if n == 0:
        return jconst(1.0, m, order_of(m, a)) if a.ndim == 1 else np.broadcast_to(
            jconst(1.0, m, order_of(m, a)), a.shape).copy()
    if n < 0:
        return jipow(jrecip(a, m), -n, m)
    out = a
    for _ in range(n - 1):
        out = jmul(out, a, m)
    return out


# ---------------------------------------------------------------------------
# jet-valued matrices: (..., r, c, C) arrays
# ---------------------------------------------------------------------------

def jmat_mul(A, B, m):
    """Matrix product with jet entries: (..., r, k, C) x (..., k, c, C).

    Broadcasts over leading axes and trims to the lower order.  Both factors
    are gathered once in table order, every table pair is one matrix of a
    batched ``matmul``, and :meth:`ProductTable.sum` adds the layers; as in
    :func:`jmul`, the order-k table indexes only the first size(k)
    coefficients of the longer operand.
    """
    tab = space(m, order_of(m, min(A.shape[-1], B.shape[-1]))).table
    # swapping the jet and row axes gives (..., C, k, r) stacks of transposed
    # matrices, and (A_i B_j)^T = B_j^T A_i^T
    At, Bt = A.swapaxes(-1, -3), B.swapaxes(-1, -3)
    acc = tab.sum(Bt.take(tab.j, axis=-3) @ At.take(tab.i, axis=-3))
    return acc.swapaxes(-1, -3)[..., tab.unslot]


def jmat_inv(E, m):
    """Inverse of a jet-valued square matrix (..., n, n, C), degree by degree.

    Taylor division: X_0 = E_0^-1 and, for d = 1..order,
    X_d = -X_0 (E X)_d, where (E X)_d runs only over the products E_i X_j
    with deg i >= 1, so every X_j it reads is already solved (Griewank and
    Walther, Evaluating Derivatives, 2nd ed., ch. 13).  The whole solve
    costs about one jet-matrix product.
    """
    sp = space(m, order_of(m, E))
    Et = np.moveaxis(E, -1, -3)                # (..., C, n, n)
    X = np.empty(Et.shape)
    X0 = np.linalg.inv(Et[..., 0, :, :])
    X[..., 0, :, :] = X0
    for d, tab in enumerate(sp.inv_tables, start=1):
        EX = tab.sum(Et.take(tab.i, axis=-3) @ X.take(tab.j, axis=-3))
        X[..., sp.prefix[d - 1]:sp.prefix[d], :, :] = -(
            X0[..., None, :, :] @ EX.take(tab.unslot, axis=-3))
    return np.moveaxis(X, -3, -1)


# ---------------------------------------------------------------------------
# the chart
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Chart:
    """Local coordinate chart with a fixed diagonal signature metric."""

    m: int
    signature: tuple = None

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("chart dimension must be positive")
        sig = self.signature
        if sig is None:
            sig = (1,) + (-1,) * (self.m - 1)
        sig = tuple(int(s) for s in sig)
        if len(sig) != self.m or any(s not in (-1, 1) for s in sig):
            raise ValueError("signature must be a list of +/-1 of length m")
        object.__setattr__(self, "signature", sig)

    @property
    def names(self):
        """The coordinate names x0 .. x{m-1}."""
        return tuple(f"x{i}" for i in range(self.m))

    def coord_index(self, name):
        return self.names.index(name)
