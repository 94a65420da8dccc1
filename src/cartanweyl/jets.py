"""Truncated multivariate Taylor (jet) arithmetic.

A jet of order K at a point stores the normalized Taylor coefficients
t_beta = (d^beta f)/beta! for every multi-index |beta| <= K.  Products are
exact truncated polynomial convolutions driven by precomputed sparse tables,
so identity residuals downstream are limited only by rounding.

Jets are flat numpy arrays over the monomial basis of a cached
:class:`JetSpace`, wrapped as :class:`Jet` for scalar arithmetic.  A ghost
form stores one such array per (ghost monomial, dx monomial) component of
each entry, in the last axis of :attr:`~cartanweyl.forms.MForm.data`; read
per entry, a ghost-valued jet is a
:class:`~cartanweyl.grassmann.GradedScalar` with one jet per monomial.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
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


class JetSpace:
    """Monomial basis plus multiplication/derivative tables for (m, order)."""

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
        self._build_mul_table()
        self._build_deriv_maps()
        self.factorials = np.array(
            [math.prod(math.factorial(k) for k in b) for b in self.monos],
            dtype=float,
        )

    def _build_mul_table(self):
        pairs_i, pairs_j, pairs_k = [], [], []
        for i, bi in enumerate(self.monos):
            di = sum(bi)
            for j, bj in enumerate(self.monos):
                if di + sum(bj) > self.order:
                    continue
                bk = tuple(a + b for a, b in zip(bi, bj))
                pairs_i.append(i)
                pairs_j.append(j)
                pairs_k.append(self.index[bk])
        order_perm = np.argsort(np.array(pairs_k), kind="stable")
        self.mul_i = np.array(pairs_i)[order_perm]
        self.mul_j = np.array(pairs_j)[order_perm]
        mul_k = np.array(pairs_k)[order_perm]
        # every output index is hit (pairing with the constant monomial)
        self.mul_starts = np.searchsorted(mul_k, np.arange(self.size))
        # degree-d sub-tables of jmat_inv: entries i, j -> k with deg k = d
        # and deg i >= 1; every such k still has a (degree-1, rest) entry
        self.inv_tables = []
        for d in range(1, self.order + 1):
            sel = (self.degrees[mul_k] == d) & (self.degrees[self.mul_i] > 0)
            starts = np.searchsorted(mul_k[sel], np.arange(self.prefix[d - 1],
                                                          self.prefix[d]))
            self.inv_tables.append((self.mul_i[sel], self.mul_j[sel], starts))

    def _build_deriv_maps(self):
        # For direction nu: coefficients of d_nu f on the (order-1) basis.
        self.deriv_src = []
        self.deriv_fac = []
        if self.order == 0:
            return
        sub = _monomials(self.m, self.order - 1)
        for nu in range(self.m):
            src = np.empty(len(sub), dtype=int)
            fac = np.empty(len(sub), dtype=float)
            for i, beta in enumerate(sub):
                up = list(beta)
                up[nu] += 1
                src[i] = self.index[tuple(up)]
                fac[i] = up[nu]
            self.deriv_src.append(src)
            self.deriv_fac.append(fac)


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
    sp = space(m, order)
    c = np.zeros(sp.size)
    c[0] = point[i]
    if order >= 1:
        e_i = tuple(1 if k == i else 0 for k in range(m))
        c[sp.index[e_i]] = 1.0
    return c


def shift_matrix(exponents, point, order):
    """Order-``order`` jets at ``point`` of the monomials x^beta, one per row.

    ``exponents`` (N, m) lists the betas.  Entry (beta, gamma) of the
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
    # table[i, b, g] = C(b, g) p_i^(b - g); binom is zero where g > b
    table = binom * np.asarray(point, dtype=float)[:, None, None] ** steps
    shift = np.ones((exponents.shape[0], gamma.shape[0]))
    for i in range(m):
        shift *= table[i][exponents[:, i, None], gamma[None, :, i]]
    return shift


def jtrunc(a, m, to_order):
    cur = order_of(m, a)
    if to_order > cur:
        raise JetOrderError(f"cannot raise jet order {cur} to {to_order}")
    if to_order == cur:
        return a
    return a[..., : space(m, to_order).size]


def jmul(a, b, m):
    """Truncated product; broadcasts over leading axes, trims to min order."""
    # the order-k tables index only the first size(k) coefficients, so the
    # longer operand needs no explicit truncation
    sp = space(m, order_of(m, min(a.shape[-1], b.shape[-1])))
    prod = a.take(sp.mul_i, axis=-1) * b.take(sp.mul_j, axis=-1)
    return np.add.reduceat(prod, sp.mul_starts, axis=-1)


def jder(a, m, nu):
    k = order_of(m, a)
    if k == 0:
        raise JetOrderError("jet order exhausted: cannot differentiate order 0")
    sp = space(m, k)
    return a[..., sp.deriv_src[nu]] * sp.deriv_fac[nu]


def jcompose(u, ders, m):
    """phi(u) for scalar phi given derivatives ders[k] = phi^(k)(u0)."""
    k = order_of(m, u)
    sp = space(m, k)
    delta = u.copy()
    delta[..., 0] = 0.0
    out = jconst(ders[k] / math.factorial(k), m, k)
    out = np.broadcast_to(out, u.shape).copy()
    for n in range(k - 1, -1, -1):
        out = jmul(out, delta, m)
        out[..., 0] += ders[n] / math.factorial(n)
    return out


def jrecip(a, m):
    v = a[..., 0]
    if np.any(v == 0.0):
        raise ExprDomainError("division by zero in jet evaluation")
    k = order_of(m, a)
    if a.ndim == 1:
        ders = [math.factorial(n) * (-1.0) ** n / v ** (n + 1) for n in range(k + 1)]
        return jcompose(a, ders, m)
    flat = a.reshape(-1, a.shape[-1])
    out = np.stack([jrecip(row, m) for row in flat])
    return out.reshape(a.shape)


def _scalar_compose(fn_ders, name):
    def op(a, m):
        if a.ndim == 1:
            k = order_of(m, a)
            try:
                ders = fn_ders(a[0], k)
            except OverflowError:
                raise ExprDomainError(
                    f"{name}({a[0]:.6g}) overflows in jet evaluation") from None
            return jcompose(a, ders, m)
        flat = a.reshape(-1, a.shape[-1])
        out = np.stack([op(row, m) for row in flat])
        return out.reshape(a.shape)
    return op


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

    Broadcasts over leading axes and trims to the lower order.  The
    multiplication-table axis goes in front of the matrix axes, so all table
    entries are one batched ``matmul``; as in :func:`jmul`, the order-k
    tables index only the first size(k) coefficients of the longer operand.
    """
    sp = space(m, order_of(m, min(A.shape[-1], B.shape[-1])))
    # swapping the jet and row axes gives (..., C, k, r) stacks of transposed
    # matrices, and (A_i B_j)^T = B_j^T A_i^T
    At, Bt = A.swapaxes(-1, -3), B.swapaxes(-1, -3)
    prod = Bt.take(sp.mul_j, axis=-3) @ At.take(sp.mul_i, axis=-3)
    return np.add.reduceat(prod, sp.mul_starts, axis=-3).swapaxes(-1, -3)


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
    for d, (ti, tj, starts) in enumerate(sp.inv_tables, start=1):
        EX = np.add.reduceat(Et.take(ti, axis=-3) @ X.take(tj, axis=-3),
                             starts, axis=-3)
        X[..., sp.prefix[d - 1]:sp.prefix[d], :, :] = -(X0[..., None, :, :] @ EX)
    return np.moveaxis(X, -3, -1)


# ---------------------------------------------------------------------------
# public Jet wrapper and Chart
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Chart:
    """Local coordinate chart with a fixed diagonal signature metric."""

    m: int
    signature: tuple = None
    names: tuple = None

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
        names = self.names or tuple(f"x{i}" for i in range(self.m))
        if len(names) != self.m:
            raise ValueError("need one coordinate name per dimension")
        object.__setattr__(self, "names", tuple(names))

    def coord_index(self, name):
        return self.names.index(name)


class Jet:
    """Value plus partial derivatives of a scalar at a chart point."""

    __slots__ = ("m", "coeffs")

    def __init__(self, m, coeffs):
        self.m = m
        self.coeffs = np.asarray(coeffs, dtype=float)

    @classmethod
    def constant(cls, value, m, order):
        return cls(m, jconst(value, m, order))

    @classmethod
    def coordinate(cls, i, point, m, order):
        return cls(m, jcoord(i, point, m, order))

    @property
    def order(self):
        return order_of(self.m, self.coeffs)

    @property
    def value(self):
        return float(self.coeffs[0])

    def partial(self, beta):
        """Derivative d^beta f at the point (not Taylor-normalized)."""
        beta = tuple(beta)
        sp = space(self.m, self.order)
        i = sp.index[beta]
        return float(self.coeffs[i] * sp.factorials[i])

    def derivatives(self):
        sp = space(self.m, self.order)
        return {b: float(self.coeffs[i] * sp.factorials[i])
                for i, b in enumerate(sp.monos)}

    def norm(self):
        """Largest |Taylor coefficient|; NaN when any coefficient is NaN."""
        return float(np.abs(self.coeffs).max())

    def __bool__(self):
        # like a float: false only for the exact zero
        return bool(self.coeffs.any())

    def truncate(self, to_order):
        return Jet(self.m, jtrunc(self.coeffs, self.m, to_order))

    def derivative(self, nu):
        return Jet(self.m, jder(self.coeffs, self.m, nu))

    def _coerce(self, other):
        if isinstance(other, Jet):
            return other
        if isinstance(other, (int, float)):
            return Jet.constant(float(other), self.m, self.order)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        # the basis is sorted by degree: the lower order is a prefix
        n = min(self.coeffs.size, o.coeffs.size)
        return Jet(self.m, self.coeffs[:n] + o.coeffs[:n])

    __radd__ = __add__

    def __neg__(self):
        return Jet(self.m, -self.coeffs)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        n = min(self.coeffs.size, o.coeffs.size)
        return Jet(self.m, self.coeffs[:n] - o.coeffs[:n])

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, Jet):
            return Jet(self.m, jmul(self.coeffs, other.coeffs, self.m))
        if isinstance(other, (int, float)):
            # same as the product with a constant jet, which only adds zeros
            return Jet(self.m, self.coeffs * float(other))
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Jet(self.m, jmul(self.coeffs, jrecip(o.coeffs, self.m), self.m))

    def __rtruediv__(self, other):
        o = self._coerce(other)
        return o * Jet(self.m, jrecip(self.coeffs, self.m))

    def __pow__(self, n):
        if not isinstance(n, int):
            return NotImplemented
        return Jet(self.m, jipow(self.coeffs, n, self.m))

    def exp(self):
        return Jet(self.m, jexp(self.coeffs, self.m))

    def sin(self):
        return Jet(self.m, jsin(self.coeffs, self.m))

    def cos(self):
        return Jet(self.m, jcos(self.coeffs, self.m))

    def sqrt(self):
        return Jet(self.m, jsqrt(self.coeffs, self.m))

    def __repr__(self):
        return f"Jet(m={self.m}, order={self.order}, value={self.value:.6g})"
