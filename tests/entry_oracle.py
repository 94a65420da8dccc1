"""The per-entry route: scalar jets and ghost-valued form entries.

A :class:`Jet` is one dense Taylor array with the arithmetic of a Grassmann
coefficient, and a ghost-valued jet is a
:class:`~cartanweyl.grassmann.GradedScalar` over such jets.
:func:`from_entries` builds a one-point form from one GradedScalar per
(row, col, dx comp) entry, and :func:`entry` reads one back.  Nothing here
is used by the package: the tests check its dense forms against these.
"""

import numpy as np

from cartanweyl.errors import ShapeError
from cartanweyl.forms import GHOST_POOL, MForm, ghost_monos
from cartanweyl.grassmann import GradedScalar
from cartanweyl.jets import jconst, jder, jmul, jtrunc, order_of


class Jet:
    """Value plus partial derivatives of a scalar at a chart point."""

    __slots__ = ("m", "coeffs")

    def __init__(self, m, coeffs):
        self.m = m
        self.coeffs = np.asarray(coeffs, dtype=float)

    @classmethod
    def constant(cls, value, m, order):
        return cls(m, jconst(value, m, order))

    @property
    def order(self):
        return order_of(self.m, self.coeffs)

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

    def __add__(self, other):
        if not isinstance(other, Jet):
            return NotImplemented
        # the basis is sorted by degree: the lower order is a prefix
        n = min(self.coeffs.size, other.coeffs.size)
        return Jet(self.m, self.coeffs[:n] + other.coeffs[:n])

    def __neg__(self):
        return Jet(self.m, -self.coeffs)

    def __sub__(self, other):
        if not isinstance(other, Jet):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, Jet):
            return Jet(self.m, jmul(self.coeffs, other.coeffs, self.m))
        if isinstance(other, (int, float)):
            # same as the product with a constant jet, which only adds zeros
            return Jet(self.m, self.coeffs * float(other))
        return NotImplemented

    __rmul__ = __mul__


def value_norm(g):
    """Largest value coefficient of a ghost-valued jet."""
    return g.norm(lambda c: abs(c.coeffs[0]))


def d(g, nu):
    """Derivative along x^nu of a ghost-valued jet."""
    return g.map(lambda c: c.derivative(nu))


def _check_entry(form, i, j, f):
    """IndexError unless (row, col, dx comp) lies inside the form."""
    if not (0 <= i < form.shape[0] and 0 <= j < form.shape[1] and 0 <= f < form.n_comps):
        raise IndexError(f"entry ({i}, {j}, {f}) outside shape {form.shape} "
                         f"with {form.n_comps} components")


def from_entries(m, shape, p, q, order, entries):
    """One-point MForm from {(row, col, comp): GradedScalar over jets}.

    Every term's key is a ghost monomial of degree q of the pool.
    Coefficients are trimmed to ``order``; absent entries are zero.
    """
    out = MForm.zeros(m, shape, p, q, order)
    where = {g: i for i, g in enumerate(ghost_monos(q))}
    for (i, j, f), x in entries.items():
        _check_entry(out, i, j, f)
        for k, c in x.terms.items():
            if k not in where:
                raise ShapeError(f"ghost monomial {k} is not of degree {q} "
                                 f"in the {GHOST_POOL}-generator pool")
            out.data[i, j, where[k] * out.n_comps + f] = jtrunc(c.coeffs, m, order)
    return out


def entry(form, i, j, f):
    """The (row i, col j, dx comp f) entry of a one-point form as a
    GradedScalar; all-zero ghost monomials are left out."""
    _check_entry(form, i, j, f)
    F = form.n_comps
    terms = {}
    for g, k in enumerate(ghost_monos(form.q)):
        c = form.data[i, j, g * F + f]
        if c.any():
            terms[k] = Jet(form.m, c.copy())
    return GradedScalar(terms)
