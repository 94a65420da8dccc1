"""Sparse Grassmann algebra over named anticommuting generators.

Ghost-valued quantities live in the real algebra generated by a finite pool
of odd generators.  Elements are stored as sparse maps from strictly sorted
generator-id tuples (monomials) to real coefficients, so nilpotency and the
anticommutation signs are structural.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .reduction import worst_of

_COEFF_EPS = 0.0  # exact zeros only are pruned; tiny residuals must survive


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


class GradedScalar:
    """Element of the Grassmann algebra with real coefficients.

    ``terms`` maps strictly increasing generator-id tuples to floats.  The
    empty tuple is the real (body) part, so plain numbers embed naturally.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = dict(terms) if terms else {}

    @classmethod
    def scalar(cls, value):
        return cls({(): float(value)}) if value != 0.0 else cls()

    @classmethod
    def generator(cls, gen_id, coeff=1.0):
        return cls({(int(gen_id),): float(coeff)})

    # -- structure ---------------------------------------------------------

    def is_zero(self):
        return not self.terms

    @property
    def ghost_degree(self):
        """Common monomial length, or None if inhomogeneous; 0 when zero."""
        degs = {len(k) for k in self.terms}
        if not degs:
            return 0
        if len(degs) == 1:
            return degs.pop()
        return None

    def norm(self):
        return worst_of(abs(c) for c in self.terms.values())

    def body(self):
        """Sum of all coefficients: the image under every generator -> 1."""
        return sum(self.terms.values())

    def real_part(self):
        return self.terms.get((), 0.0)

    # -- arithmetic --------------------------------------------------------

    def _as_terms(self, other):
        if isinstance(other, GradedScalar):
            return other.terms
        if isinstance(other, (int, float)):
            return {(): float(other)} if other else {}
        return NotImplemented

    def __add__(self, other):
        terms = self._as_terms(other)
        if terms is NotImplemented:
            return NotImplemented
        out = dict(self.terms)
        for k, c in terms.items():
            v = out.get(k, 0.0) + c
            if v == 0.0:
                out.pop(k, None)
            else:
                out[k] = v
        return GradedScalar(out)

    __radd__ = __add__

    def __neg__(self):
        return GradedScalar({k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        terms = self._as_terms(other)
        if terms is NotImplemented:
            return NotImplemented
        out = dict(self.terms)
        for k, c in terms.items():
            v = out.get(k, 0.0) - c
            if v == 0.0:
                out.pop(k, None)
            else:
                out[k] = v
        return GradedScalar(out)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            if other == 0.0:
                return GradedScalar()
            return GradedScalar({k: c * other for k, c in self.terms.items()})
        if not isinstance(other, GradedScalar):
            return NotImplemented
        out = {}
        for ka, ca in self.terms.items():
            for kb, cb in other.terms.items():
                merged = _merge_monomials(ka, kb)
                if merged is None:
                    continue
                mono, sign = merged
                v = out.get(mono, 0.0) + sign * ca * cb
                if v == 0.0:
                    out.pop(mono, None)
                else:
                    out[mono] = v
        return GradedScalar(out)

    def __rmul__(self, other):
        if isinstance(other, (int, float)):
            return self.__mul__(other)
        return NotImplemented

    def __repr__(self):
        if not self.terms:
            return "GradedScalar(0)"
        bits = []
        for k in sorted(self.terms, key=lambda t: (len(t), t)):
            c = self.terms[k]
            mono = "*".join(f"g{i}" for i in k) if k else "1"
            bits.append(f"{c:+.6g}*{mono}")
        return "GradedScalar(" + " ".join(bits) + ")"


def gmul(a, b):
    """Product in the Grassmann algebra; accepts floats on either side."""
    if isinstance(a, GradedScalar):
        return a * b
    if isinstance(b, GradedScalar):
        return b.__rmul__(a) if isinstance(a, (int, float)) else NotImplemented
    return a * b


@dataclass(frozen=True)
class GhostGenerator:
    """One independent odd quantity at the evaluation point."""

    name: str
    index: int   # global order


@dataclass
class GeneratorPool:
    """Registry fixing the global ordering of ghost generators."""

    generators: list = field(default_factory=list)
    _by_name: dict = field(default_factory=dict)

    def register(self, name):
        if name in self._by_name:
            raise ValueError(f"generator {name!r} already registered")
        gen = GhostGenerator(name, len(self.generators))
        self.generators.append(gen)
        self._by_name[name] = gen
        return gen

    def get(self, name):
        return self._by_name[name]

    def __len__(self):
        return len(self.generators)
