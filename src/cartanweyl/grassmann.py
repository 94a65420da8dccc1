"""Sparse Grassmann algebra over anticommuting generators.

Ghost-valued quantities live in the algebra generated by odd generators over
a commutative coefficient ring.  Elements are stored as sparse maps from
strictly sorted generator-id tuples (monomials) to coefficients, so
nilpotency and the anticommutation signs are structural.  A coefficient is a
float or a jet object with ``+``, ``-``, ``*`` and a truth value, so one
ghost-valued jet is one element: a dense Taylor array per Grassmann
monomial.  It is the entry type of the tests' per-entry route, which they
check the dense ghost forms against.  No engine module imports it: the ghost
fields, the ghost forms and the closed forms of the reduced Weyl laws are
dense arrays (:mod:`cartanweyl.brs`, :mod:`cartanweyl.forms`), and the
benchmark tracer is its one reader outside the tests.
"""

from __future__ import annotations

from .forms import _merge_monomials
from .reduction import worst_entry


class GradedScalar:
    """Element of the Grassmann algebra over floats or jets.

    ``terms`` maps strictly increasing generator-id tuples to coefficients.
    The empty tuple is the even (body) part, so plain numbers and jets embed
    as ``{(): c}``.  A coefficient that is exactly zero (``not c``: a float
    0.0 or an all-zero jet) is dropped, never stored; products of ghost
    fields cancel to exact zeros often, and dropping them saves the products
    they would feed.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = dict(terms) if terms else {}

    # -- structure ---------------------------------------------------------

    def norm(self, coeff_norm=abs):
        """Largest ``coeff_norm`` over the coefficients; 0.0 when zero."""
        return worst_entry(tuple(coeff_norm(c) for c in self.terms.values()), ())

    def map(self, fn):
        """Apply ``fn`` to every coefficient (an even, linear map such as a
        derivative or a truncation); exact-zero results are dropped."""
        out = {}
        for k, c in self.terms.items():
            v = fn(c)
            if v:
                out[k] = v
        return GradedScalar(out)

    # -- arithmetic --------------------------------------------------------

    @staticmethod
    def _as_terms(other):
        """Terms of ``other``; an even coefficient embeds as {(): other}."""
        if isinstance(other, GradedScalar):
            return other.terms
        return {(): other} if other else {}

    def _combine(self, other, negate):
        out = dict(self.terms)
        for k, c in self._as_terms(other).items():
            prev = out.get(k)
            if prev is None:
                v = -c if negate else c
            else:
                v = prev - c if negate else prev + c
            if v:
                out[k] = v
            else:
                out.pop(k, None)
        return GradedScalar(out)

    def __add__(self, other):
        return self._combine(other, False)

    __radd__ = __add__

    def __sub__(self, other):
        return self._combine(other, True)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return GradedScalar({k: -c for k, c in self.terms.items()})

    def __mul__(self, other):
        right = self._as_terms(other).items()
        out = {}
        for ka, ca in self.terms.items():
            for kb, cb in right:
                p = ca * cb
                if not p:
                    continue
                merged = _merge_monomials(ka, kb)
                if merged is None:
                    continue
                mono, sign = merged
                prev = out.get(mono)
                if prev is None:
                    v = p if sign > 0 else -p
                else:
                    v = prev + p if sign > 0 else prev - p
                if v:
                    out[mono] = v
                else:
                    out.pop(mono, None)
        return GradedScalar(out)

    # coefficients are even and commute with every generator
    __rmul__ = __mul__

    def __repr__(self):
        if not self.terms:
            return "GradedScalar(0)"
        bits = []
        for k in sorted(self.terms, key=lambda t: (len(t), t)):
            c = self.terms[k]
            mono = "*".join(f"g{i}" for i in k) if k else "1"
            bits.append(f"{c:+.6g}*{mono}" if isinstance(c, float) else f"{c!r}*{mono}")
        return "GradedScalar(" + " ".join(bits) + ")"
