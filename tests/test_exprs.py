from fractions import Fraction

import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from cartanweyl.errors import ExprDomainError, ExprSyntaxError
from cartanweyl.exprs import BinOp, Call, const, eval_jet, parse_expr, print_expr
from cartanweyl.jets import Chart


def test_parse_two_terms():
    e = parse_expr("x0^2 + 3*x1")
    assert isinstance(e, BinOp) and e.op == "+"


def test_parse_nested_call():
    e = parse_expr("exp(x0*x1)")
    assert isinstance(e, Call) and e.func == "exp"
    assert isinstance(e.arg, BinOp) and e.arg.op == "*"


def test_syntax_error_position():
    with pytest.raises(ExprSyntaxError) as exc:
        parse_expr("x0 +")
    assert exc.value.pos == 4


def test_unknown_function():
    with pytest.raises(ExprSyntaxError):
        parse_expr("tan(x0)")


def test_unknown_identifier_with_variables():
    with pytest.raises(ExprSyntaxError):
        parse_expr("x0 + y1", variables=("x0", "x1"))


@pytest.mark.parametrize("text", [
    "x0^2 + 3*x1",
    "exp(x0*x1) - sin(x2)/(1 + x0^2)",
    "-x0 + (x1 - x2)*x0^(-2)",
    "1/2 + 2/3*x1",
    "sqrt(1 + x0*x0)*cos(x1)",
])
def test_printer_round_trip(text):
    ast = parse_expr(text)
    assert parse_expr(print_expr(ast)) == ast


def test_eval_square():
    ch = Chart(2, signature=(1, -1))
    j = eval_jet(parse_expr("x0^2"), ch, (3.0, 0.0), 2)
    assert j.value == 9.0
    assert j.partial((1, 0)) == 6.0
    assert j.partial((2, 0)) == 2.0


def test_eval_exp_at_zero():
    ch = Chart(1, signature=(1,))
    j = eval_jet(parse_expr("exp(x0)"), ch, (0.0,), 3)
    for k in range(4):
        assert j.partial((k,)) == pytest.approx(1.0, abs=1e-15)


def test_eval_bilinear():
    ch = Chart(2, signature=(1, -1))
    j = eval_jet(parse_expr("x0*x1"), ch, (2.0, 5.0), 2)
    assert j.value == 10.0
    assert j.partial((1, 0)) == 5.0
    assert j.partial((0, 1)) == 2.0
    assert j.partial((1, 1)) == 1.0


def test_division_by_zero_at_point():
    ch = Chart(1, signature=(1,))
    with pytest.raises(ExprDomainError):
        eval_jet(parse_expr("1/x0"), ch, (0.0,), 2)


def test_sqrt_of_negative_at_point():
    ch = Chart(1, signature=(1,))
    with pytest.raises(ExprDomainError):
        eval_jet(parse_expr("sqrt(x0)"), ch, (-1.0,), 2)


def _sympy_jet(text, names, point, order):
    """Oracle: all partial derivatives up to `order` via sympy."""
    syms = sp.symbols(names)
    expr = sp.sympify(text.replace("^", "**"))
    subs = dict(zip(syms, point))
    out = {}
    from itertools import product
    m = len(names)
    for beta in product(range(order + 1), repeat=m):
        if sum(beta) > order:
            continue
        d = expr
        for s, k in zip(syms, beta):
            d = sp.diff(d, s, k)
        out[beta] = float(sp.N(d.subs(subs)))
    return out


@pytest.mark.parametrize("text,point", [
    ("x0^3*x1 - x1^2/3 + 1/2", (1.2, -0.7)),
    ("exp(x0/2)*sin(x1)", (0.4, 1.1)),
    ("cos(x0*x1)/(2 + x0)", (0.3, -0.5)),
    ("sqrt(4 + x0^2 + x1^2)", (0.9, -1.3)),
])
def test_eval_jet_matches_sympy(text, point):
    ch = Chart(2, signature=(1, -1))
    j = eval_jet(parse_expr(text), ch, point, 4)
    oracle = _sympy_jet(text, ("x0", "x1"), point, 4)
    for beta, want in oracle.items():
        assert j.partial(beta) == pytest.approx(want, rel=1e-12, abs=1e-12)


coeffs = st.integers(min_value=-4, max_value=4)


@settings(max_examples=40, deadline=None)
@given(a=st.tuples(coeffs, coeffs, coeffs), b=st.tuples(coeffs, coeffs, coeffs))
def test_product_rule_on_random_polynomials(a, b):
    """Jet of a product equals the product of jets to relative 1e-12."""
    ch = Chart(2, signature=(1, -1))
    pa = f"({a[0]}) + ({a[1]})*x0 + ({a[2]})*x1^2"
    pb = f"({b[0]}) + ({b[1]})*x1 + ({b[2]})*x0^2"
    pt = (0.37, -0.85)
    ja = eval_jet(parse_expr(pa), ch, pt, 4)
    jb = eval_jet(parse_expr(pb), ch, pt, 4)
    jab = eval_jet(parse_expr(f"({pa})*({pb})"), ch, pt, 4)
    scale = max(1.0, np.abs(jab.coeffs).max())
    assert np.abs((ja * jb).coeffs - jab.coeffs).max() <= 1e-12 * scale


@settings(max_examples=300, deadline=None)
@given(x=st.floats(min_value=-1000.0, max_value=1000.0))
def test_const_of_six_decimal_value_is_its_best_rational(x):
    """For a value rounded to 6 decimals, n / 10^6 is the closest fraction with
    denominator <= 10^6, so const agrees with limit_denominator."""
    v = round(x, 6)
    assert const(v).value == Fraction(v).limit_denominator(10**6)
