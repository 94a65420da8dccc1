"""Truncated multivariate Taylor (jet) arithmetic.

A jet of order K at a point stores the normalized Taylor coefficients
t_beta = (d^beta f)/beta! for every multi-index |beta| <= K.  Products are
exact truncated polynomial convolutions driven by precomputed sparse tables,
so identity residuals downstream are limited only by rounding.

Float-valued jets are flat numpy arrays over the monomial basis of a cached
:class:`JetSpace`; ghost-valued jets (Grassmann coefficients) live in
:class:`GhostJet` with a sparse dict of the same monomials.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations_with_replacement

import numpy as np

from .errors import ExprDomainError, JetOrderError
from .grassmann import GradedScalar, gmul
from .reduction import worst_of


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
        self.degrees = np.array([sum(b) for b in self.monos])
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


def jtrunc(a, m, to_order):
    cur = order_of(m, a)
    if to_order > cur:
        raise JetOrderError(f"cannot raise jet order {cur} to {to_order}")
    if to_order == cur:
        return a
    return a[..., : space(m, to_order).size]


def jmul(a, b, m):
    """Truncated product; broadcasts over leading axes, trims to min order."""
    ka, kb = order_of(m, a), order_of(m, b)
    k = min(ka, kb)
    a = jtrunc(a, m, k)
    b = jtrunc(b, m, k)
    sp = space(m, k)
    prod = a[..., sp.mul_i] * b[..., sp.mul_j]
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


def _scalar_compose(fn_ders):
    def op(a, m):
        if a.ndim == 1:
            k = order_of(m, a)
            return jcompose(a, fn_ders(a[0], k), m)
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


jexp = _scalar_compose(_exp_ders)
jsin = _scalar_compose(_sin_ders)
jcos = _scalar_compose(_cos_ders)
jcosh = _scalar_compose(_cosh_ders)
jsinh = _scalar_compose(_sinh_ders)
jsqrt = _scalar_compose(_sqrt_ders)


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
# jet-valued matrices: (r, c, C) arrays
# ---------------------------------------------------------------------------

def jmat_mul(A, B, m):
    """Matrix product with jet-coefficient entries: (r,k,C) x (k,c,C)."""
    ka, kb = order_of(m, A), order_of(m, B)
    k = min(ka, kb)
    A = jtrunc(A, m, k)
    B = jtrunc(B, m, k)
    sp = space(m, k)
    g1 = A[:, :, sp.mul_i]
    g2 = B[:, :, sp.mul_j]
    e = np.einsum("ikt,kjt->ijt", g1, g2)
    return np.add.reduceat(e, sp.mul_starts, axis=-1)


def jmat_eye(n, m, order):
    out = np.zeros((n, n, space(m, order).size))
    for i in range(n):
        out[i, i, 0] = 1.0
    return out


def jmat_inv(E, m, newton_extra=1):
    """Inverse of a jet-valued square matrix via Newton iteration.

    The value-level inverse seeds X; each sweep X <- X(2I - EX) doubles the
    corrected Taylor order, so ceil(log2(order+1)) sweeps suffice.
    """
    order = order_of(m, E)
    n = E.shape[0]
    v = E[..., 0]
    X = np.zeros_like(E)
    X[..., 0] = np.linalg.inv(v)
    if order == 0:
        return X
    sweeps = max(1, math.ceil(math.log2(order + 1))) + newton_extra
    eye2 = 2.0 * jmat_eye(n, m, order)
    for _ in range(sweeps):
        X = jmat_mul(X, eye2 - jmat_mul(E, X, m), m)
    return X


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

    @property
    def eta(self):
        return np.diag(np.array(self.signature, dtype=float))

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
        k = min(self.order, o.order)
        return Jet(self.m, jtrunc(self.coeffs, self.m, k) + jtrunc(o.coeffs, self.m, k))

    __radd__ = __add__

    def __neg__(self):
        return Jet(self.m, -self.coeffs)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Jet(self.m, jmul(self.coeffs, o.coeffs, self.m))

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


# ---------------------------------------------------------------------------
# ghost-valued jets
# ---------------------------------------------------------------------------

class GhostJet:
    """Jet whose Taylor coefficients live in the Grassmann algebra.

    Sparse: ``terms`` maps exponent tuples to floats or GradedScalars.
    """

    __slots__ = ("m", "order", "terms")

    def __init__(self, m, order, terms=None):
        self.m = m
        self.order = order
        self.terms = {}
        if terms:
            for b, c in terms.items():
                if isinstance(c, GradedScalar):
                    if not c.is_zero():
                        self.terms[b] = c
                elif c != 0.0:
                    self.terms[b] = c

    @classmethod
    def from_float(cls, coeffs, m):
        order = order_of(m, coeffs)
        sp = space(m, order)
        return cls(m, order, {sp.monos[i]: float(coeffs[i])
                              for i in np.nonzero(coeffs)[0]})

    @classmethod
    def ghost_field(cls, coeffs, m, pool, prefix):
        """Odd field whose derivative values are independent generators.

        The Taylor coefficient at beta becomes (d^beta f / beta!) times a
        fresh generator named ``prefix@beta``, so products like eps * d(eps)
        stay nonzero exactly as the BRS identities require.
        """
        order = order_of(m, coeffs)
        sp = space(m, order)
        terms = {}
        for i, beta in enumerate(sp.monos):
            gen = pool.register(f"{prefix}@{''.join(map(str, beta))}")
            c = float(coeffs[i])
            if c != 0.0:
                terms[beta] = GradedScalar.generator(gen.index, c)
        return cls(m, order, terms)

    def value(self):
        c = self.terms.get(tuple([0] * self.m), 0.0)
        return c if isinstance(c, GradedScalar) else GradedScalar.scalar(c)

    def truncate(self, to_order):
        if to_order > self.order:
            raise JetOrderError(f"cannot raise ghost jet order {self.order}")
        if to_order == self.order:
            return self
        return GhostJet(self.m, to_order,
                        {b: c for b, c in self.terms.items() if sum(b) <= to_order})

    def __add__(self, other):
        if not isinstance(other, GhostJet):
            return NotImplemented
        k = min(self.order, other.order)
        out = {b: c for b, c in self.terms.items() if sum(b) <= k}
        for b, c in other.terms.items():
            if sum(b) > k:
                continue
            if b in out:
                s = out[b] + c
                if isinstance(s, GradedScalar) and s.is_zero():
                    del out[b]
                elif not isinstance(s, GradedScalar) and s == 0.0:
                    del out[b]
                else:
                    out[b] = s
            else:
                out[b] = c
        return GhostJet(self.m, k, out)

    def __neg__(self):
        return GhostJet(self.m, self.order, {b: -c for b, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, GhostJet):
            return NotImplemented
        k = min(self.order, other.order)
        out = {}
        for b1, c1 in self.terms.items():
            d1 = sum(b1)
            if d1 > k:
                continue
            for b2, c2 in other.terms.items():
                if d1 + sum(b2) > k:
                    continue
                b = tuple(x + y for x, y in zip(b1, b2))
                c = gmul(c1, c2)
                if isinstance(c, GradedScalar) and c.is_zero():
                    continue
                if b in out:
                    out[b] = out[b] + c
                else:
                    out[b] = c
        return GhostJet(self.m, k, out)

    def scale(self, factor):
        """Multiply by a real number or a constant GradedScalar from the left."""
        return GhostJet(self.m, self.order,
                        {b: gmul(factor, c) for b, c in self.terms.items()})

    def derivative(self, nu):
        if self.order == 0:
            raise JetOrderError("ghost jet order exhausted")
        out = {}
        for b, c in self.terms.items():
            if b[nu] == 0:
                continue
            down = list(b)
            down[nu] -= 1
            if sum(down) > self.order - 1:
                continue
            out[tuple(down)] = gmul(float(b[nu]), c)
        return GhostJet(self.m, self.order - 1, out)

    def norm(self):
        return worst_of(c.norm() if isinstance(c, GradedScalar) else abs(c)
                        for c in self.terms.values())

    def value_norm(self):
        c = self.terms.get(tuple([0] * self.m))
        if c is None:
            return 0.0
        return c.norm() if isinstance(c, GradedScalar) else abs(c)

    def body(self):
        """Float jet obtained by sending every generator to 1."""
        sp = space(self.m, self.order)
        out = np.zeros(sp.size)
        for b, c in self.terms.items():
            out[sp.index[b]] = c.body() if isinstance(c, GradedScalar) else float(c)
        return out

    def is_zero(self):
        return not self.terms

    def __repr__(self):
        return f"GhostJet(m={self.m}, order={self.order}, nnz={len(self.terms)})"
