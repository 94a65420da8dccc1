import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cartanweyl.grassmann import GeneratorPool, GradedScalar, gmul


def g(i, c=1.0):
    return GradedScalar.generator(i, c)


def test_odd_nilpotency():
    t1 = g(1)
    assert (t1 * t1).is_zero()


def test_anticommutation():
    t1, t2 = g(1), g(2)
    a = t1 * t2
    b = t2 * t1
    assert a.terms == {(1, 2): 1.0}
    assert b.terms == {(1, 2): -1.0}


def test_unit_expansion():
    one = GradedScalar.scalar(1.0)
    t1, t2 = g(1), g(2)
    prod = (one + t1) * (one + t2)
    assert prod.terms == {(): 1.0, (1,): 1.0, (2,): 1.0, (1, 2): 1.0}


def test_float_embedding():
    x = 2.0 + g(3) * 0.5
    assert x.real_part() == 2.0
    assert (3.0 * x).terms[(3,)] == 1.5


def test_generator_pool_ordering():
    pool = GeneratorPool()
    a = pool.register("eps@000")
    b = pool.register("iota0@000")
    assert a.index == 0 and b.index == 1
    with pytest.raises(ValueError):
        pool.register("eps@000")


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
    x = g(1) * g(2)
    assert x.ghost_degree == 2
    y = x + g(3) * g(4)
    assert y.ghost_degree == 2
    mixed = x + g(5)
    assert mixed.ghost_degree is None


def test_gmul_handles_floats():
    assert gmul(2.0, 3.0) == 6.0
    assert gmul(2.0, g(1)).terms == {(1,): 2.0}
    assert gmul(g(1), 2.0).terms == {(1,): 2.0}
