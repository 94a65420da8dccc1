from itertools import combinations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from cartanweyl.grassmann import GradedScalar
from cartanweyl.jets import Jet, space


def g(i, c=1.0):
    """The generator with id i, times c."""
    return GradedScalar({(i,): float(c)})


def test_odd_nilpotency():
    t1 = g(1)
    assert not (t1 * t1).terms


def test_anticommutation():
    t1, t2 = g(1), g(2)
    a = t1 * t2
    b = t2 * t1
    assert a.terms == {(1, 2): 1.0}
    assert b.terms == {(1, 2): -1.0}


def test_unit_expansion():
    one = GradedScalar({(): 1.0})
    t1, t2 = g(1), g(2)
    prod = (one + t1) * (one + t2)
    assert prod.terms == {(): 1.0, (1,): 1.0, (2,): 1.0, (1, 2): 1.0}


def test_float_embedding():
    x = 2.0 + g(3) * 0.5
    assert x.terms[()] == 2.0
    assert (3.0 * x).terms[(3,)] == 1.5


def _random_homogeneous(data, degree, max_gen=6):
    """Homogeneous element of the given ghost degree with small coefficients."""
    from itertools import combinations
    monos = list(combinations(range(max_gen), degree))
    coeffs = data.draw(st.lists(
        st.integers(min_value=-3, max_value=3),
        min_size=len(monos), max_size=len(monos)))
    terms = {m: float(c) for m, c in zip(monos, coeffs) if c}
    return GradedScalar(terms)


@settings(max_examples=60, deadline=None)
@given(data=st.data(),
       da=st.integers(min_value=0, max_value=3),
       db=st.integers(min_value=0, max_value=3))
def test_graded_commutativity(data, da, db):
    a = _random_homogeneous(data, da)
    b = _random_homogeneous(data, db)
    sign = -1.0 if (da * db) % 2 else 1.0
    lhs = a * b
    rhs = (b * a) * sign
    assert (lhs - rhs).norm() == 0.0


@settings(max_examples=40, deadline=None)
@given(data=st.data(),
       da=st.integers(min_value=0, max_value=2),
       db=st.integers(min_value=0, max_value=2),
       dc=st.integers(min_value=0, max_value=2))
def test_associativity(data, da, db, dc):
    a = _random_homogeneous(data, da)
    b = _random_homogeneous(data, db)
    c = _random_homogeneous(data, dc)
    assert (((a * b) * c) - (a * (b * c))).norm() == 0.0


def test_ghost_degree_tracking():
    """Sums and products keep every monomial at its own ghost degree."""
    def degrees(x):
        return {len(k) for k in x.terms}

    x = g(1) * g(2)
    assert degrees(x) == {2}
    y = x + g(3) * g(4)
    assert degrees(y) == {2}
    mixed = x + g(5)
    assert degrees(mixed) == {1, 2}


# -- ghost-valued jets against a sparse reference ---------------------------
#
# Reference layout: one dict {(jet monomial beta, generator tuple): float}, the
# layout ghost jets used before they became GradedScalars over dense jets.

def _ref_mul(a, b, order):
    """Sparse product: every jet-monomial pair times every Grassmann pair."""
    out = {}
    for (b1, k1), c1 in a.items():
        for (b2, k2), c2 in b.items():
            beta = tuple(x + y for x, y in zip(b1, b2))
            if sum(beta) > order or set(k1) & set(k2):
                continue
            sign = -1.0 if sum(1 for x in k1 for y in k2 if x > y) % 2 else 1.0
            key = (beta, tuple(sorted(k1 + k2)))
            out[key] = out.get(key, 0.0) + sign * c1 * c2
    return out


def _ref_add(a, b):
    out = dict(a)
    for key, c in b.items():
        out[key] = out.get(key, 0.0) + c
    return out


def _ref_d(a, nu, order):
    out = {}
    for (beta, k), c in a.items():
        down = tuple(x - (i == nu) for i, x in enumerate(beta))
        if beta[nu] and sum(down) <= order - 1:
            out[(down, k)] = beta[nu] * c
    return out


def _sparse(g, m):
    out = {}
    for k, jet in g.terms.items():
        for i, beta in enumerate(space(m, jet.order).monos):
            if jet.coeffs[i] != 0.0:
                out[(beta, k)] = float(jet.coeffs[i])
    return out


def _random_ghost_jet(rng, m, order, n_gen=4):
    """Dense random jet coefficients on random Grassmann monomials (degree <= 2)."""
    monos = [k for d in range(3) for k in combinations(range(n_gen), d)]
    picked = rng.choice(len(monos), size=rng.integers(1, 5), replace=False)
    size = space(m, order).size
    return GradedScalar({monos[i]: Jet(m, rng.normal(size=size)) for i in picked})


def _assert_close(got, want):
    scale = max([0.0] + [abs(c) for c in want.values()])
    for key in set(got) | set(want):
        assert abs(got.get(key, 0.0) - want.get(key, 0.0)) <= 1e-15 * scale, key


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1),
       m=st.integers(min_value=2, max_value=3),
       order=st.integers(min_value=1, max_value=3))
def test_ghost_jet_ops_match_sparse_reference(seed, m, order):
    rng = np.random.default_rng(seed)
    a = _random_ghost_jet(rng, m, order)
    b = _random_ghost_jet(rng, m, order)
    sa, sb = _sparse(a, m), _sparse(b, m)
    _assert_close(_sparse(a * b, m), _ref_mul(sa, sb, order))
    _assert_close(_sparse(a + b, m), _ref_add(sa, sb))
    for nu in range(m):
        da = a.map(lambda c: c.derivative(nu))
        _assert_close(_sparse(da, m), _ref_d(sa, nu, order))
