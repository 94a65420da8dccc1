from fractions import Fraction

import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import token_oracle
from cartanweyl.errors import ExprDomainError, ExprSyntaxError
from cartanweyl.exprs import (POLY_MAX_DEGREE, BinOp, Call, Const, Poly, Var, _Tokenizer,
                              compile_expr, eval_jets, parse_expr, print_expr)
from cartanweyl.jets import Chart, jmul, shift_matrix, space


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


@pytest.mark.parametrize("text,pos", [
    ("x0^²", 3),                        # passes str.isdigit, not int()
    ("1/3²", 3),
    ("٣*x0", 0),                        # an Arabic-Indic three
    ("x0 +\u00a0x1", 4),               # a non-ASCII space
    ("x0²", 2),                         # passes str.isalnum
    ("x0*" + "9" * 400, 3),             # past the float range
    ("1e5", 1),                         # no exponent notation in literals
    ("0." + "0" * 5000 + "1", 0),       # past Python's int digit limit
    ("x0^" + "9" * 5000, 3),
])
def test_only_ascii_literals_within_float_range_parse(text, pos):
    with pytest.raises(ExprSyntaxError) as exc:
        parse_expr(text, variables=("x0", "x1", "e5"))
    assert exc.value.pos == pos


def test_ascii_literals_keep_their_exact_values():
    assert parse_expr("1.") == parse_expr("1") == Const(Fraction(1))
    assert parse_expr(".25") == Const(Fraction(1, 4))
    assert parse_expr("x0^0064") == parse_expr("x0^64")
    assert parse_expr("x_1a2\t+ 3") == BinOp("+", Var("x_1a2"), Const(Fraction(3)))
    big = "9" * 308
    assert parse_expr(big) == Const(Fraction(int(big)))


def test_folded_coefficient_past_float_range_is_a_domain_error():
    ch = Chart(2, signature=(1, -1))
    node = compile_expr("(100000000000)^64*x0")
    with pytest.raises(ExprDomainError):
        eval_jets([node], ch, (0.1, 0.2), 2)
    # exact folding cancels what no float could hold
    got = eval_jets([compile_expr("(100000000000)^64/(100000000000)^64*x0")], ch, (0.1, 0.2), 1)
    assert got[0, 0] == 0.1


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


def _jet(text, ch, point, order):
    """The (C,) jet of ``text`` at ``point``, its polynomials folded."""
    return eval_jets([compile_expr(text)], ch, point, order)[0]


def _partials(text, ch, point, order):
    """{beta: d^beta f at the point}: the jet of ``text`` times beta!."""
    sp_ = space(ch.m, order)
    return dict(zip(sp_.monos, (_jet(text, ch, point, order) * sp_.factorials).tolist()))


def test_eval_square():
    ch = Chart(2, signature=(1, -1))
    j = _partials("x0^2", ch, (3.0, 0.0), 2)
    assert j[(0, 0)] == 9.0
    assert j[(1, 0)] == 6.0
    assert j[(2, 0)] == 2.0


def test_eval_exp_at_zero():
    ch = Chart(1, signature=(1,))
    j = _partials("exp(x0)", ch, (0.0,), 3)
    for k in range(4):
        assert j[(k,)] == pytest.approx(1.0, abs=1e-15)


def test_eval_bilinear():
    ch = Chart(2, signature=(1, -1))
    j = _partials("x0*x1", ch, (2.0, 5.0), 2)
    assert j[(0, 0)] == 10.0
    assert j[(1, 0)] == 5.0
    assert j[(0, 1)] == 2.0
    assert j[(1, 1)] == 1.0


def test_division_by_zero_at_point():
    ch = Chart(1, signature=(1,))
    with pytest.raises(ExprDomainError):
        _jet("1/x0", ch, (0.0,), 2)


def test_sqrt_of_negative_at_point():
    ch = Chart(1, signature=(1,))
    with pytest.raises(ExprDomainError):
        _jet("sqrt(x0)", ch, (-1.0,), 2)


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
    j = _partials(text, ch, point, 4)
    oracle = _sympy_jet(text, ("x0", "x1"), point, 4)
    for beta, want in oracle.items():
        assert j[beta] == pytest.approx(want, rel=1e-12, abs=1e-12)


coeffs = st.integers(min_value=-4, max_value=4)


@settings(max_examples=40, deadline=None)
@given(a=st.tuples(coeffs, coeffs, coeffs), b=st.tuples(coeffs, coeffs, coeffs))
def test_product_rule_on_random_polynomials(a, b):
    """Jet of a product equals the product of jets to relative 1e-12."""
    ch = Chart(2, signature=(1, -1))
    pa = f"({a[0]}) + ({a[1]})*x0 + ({a[2]})*x1^2"
    pb = f"({b[0]}) + ({b[1]})*x1 + ({b[2]})*x0^2"
    pt = (0.37, -0.85)
    ja = _jet(pa, ch, pt, 4)
    jb = _jet(pb, ch, pt, 4)
    jab = _jet(f"({pa})*({pb})", ch, pt, 4)
    scale = max(1.0, np.abs(jab).max())
    assert np.abs(jmul(ja, jb, 2) - jab).max() <= 1e-12 * scale


def _random_poly_text(rng, names, degree):
    """Sum of rational multiples of random monomials, with at least one term
    of the full degree."""
    terms = []
    for d in range(degree + 1):
        for _ in range(2):
            factors = [str(names[i]) for i in rng.integers(0, len(names), size=d)]
            num, den = int(rng.integers(-9, 10)), int(rng.integers(1, 7))
            terms.append("*".join([f"({num})/{den}"] + factors))
    top = "*".join(["7/3"] + [names[0]] * degree)
    return " + ".join(terms + [top])


SHIFT_CASES = [(order, degree) for order in range(7)
               for degree in (order - 1, order, order + 1) if degree >= 0]


@pytest.mark.parametrize("order,degree", SHIFT_CASES)
@pytest.mark.parametrize("point", [(0.0, 0.0, 0.0), (-0.7, 0.45, -1.3)])
def test_taylor_shift_matches_node_by_node(order, degree, point):
    """The shift of a folded polynomial agrees to rounding with jet arithmetic
    on the unfolded tree, below, at and above the jet order."""
    ch = Chart(3, signature=(1, -1, -1))
    rng = np.random.default_rng(100 * order + degree)
    for _ in range(3):
        ast = parse_expr(_random_poly_text(rng, ch.names, degree))
        assert isinstance(compile_expr(ast), Poly)
        shifted = eval_jets([compile_expr(ast)], ch, point, order)[0]
        walked = eval_jets([ast], ch, point, order)[0]   # not compiled: node by node
        scale = max(1.0, np.abs(walked).max())
        assert np.abs(shifted - walked).max() <= 1e-13 * scale


@pytest.mark.parametrize("order", [0, 2, 5])
def test_taylor_shift_of_coefficient_arrays(order):
    """Dense coefficient arrays of any degree shift as their polynomials do,
    in one batch."""
    ch = Chart(2, signature=(1, -1))
    point = (-0.35, 0.8)
    rng = np.random.default_rng(order)
    for degree in (0, 1, 3):
        sp = space(2, degree)
        coeffs = rng.uniform(-1.0, 1.0, size=(4, sp.size))
        texts = [" + ".join(f"({float(c)!r})*x0^{b[0]}*x1^{b[1]}" for c, b in zip(row, sp.monos))
                 for row in coeffs]
        want = np.stack([eval_jets([parse_expr(t)], ch, point, order)[0] for t in texts])
        got = eval_jets(list(coeffs), ch, point, order)
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-13 * max(1.0, np.abs(want).max())
        assert np.array_equal(got, coeffs @ shift_matrix(sp.exponents, point, order))


def test_polynomial_subtrees_fold_and_the_rest_stays():
    c = compile_expr("1/(1 + (x0*x0 - x1*x1)/4) + sqrt(x0)*sin(x1)/(2 + x1)")
    assert isinstance(c, BinOp) and c.op == "+"
    quotient = c.left
    assert quotient.op == "/"
    assert isinstance(quotient.left, Poly) and isinstance(quotient.right, Poly)
    assert quotient.right.degree == 2
    prod = c.right
    assert prod.op == "/" and isinstance(prod.right, Poly)
    assert isinstance(prod.left.left, Call) and isinstance(prod.left.left.arg, Poly)
    assert isinstance(compile_expr("x0/3 - 2^3*x1^2"), Poly)
    assert isinstance(compile_expr("x0^(-2)"), type(parse_expr("x0^(-2)")))
    assert not isinstance(compile_expr(f"x0^{POLY_MAX_DEGREE + 1}"), Poly)


@pytest.mark.parametrize("text,point", [
    ("1/x0", (0.0, 0.5)),
    ("x1/(x0 - x0)", (0.3, 0.5)),
    ("x1/(1 - 1)", (0.3, 0.5)),
    ("sqrt(x0 - 1)", (0.3, 0.5)),
    ("sqrt(x0*x0)", (0.0, 0.5)),
    ("x0 + y3", (0.3, 0.5)),
    ("(x0 - x0)^(-1)", (0.3, 0.5)),
])
def test_jet_route_keeps_its_domain_errors(text, point):
    ch = Chart(2, signature=(1, -1))
    with pytest.raises(ExprDomainError):
        _jet(text, ch, point, 3)
    with pytest.raises(ExprDomainError):
        eval_jets([parse_expr(text)], ch, point, 3)


def test_compile_and_eval_reject_bad_input():
    with pytest.raises(ExprSyntaxError):
        compile_expr("x0 +")
    with pytest.raises(ValueError):
        _jet("x0", Chart(2, signature=(1, -1)), (0.1,), 2)


def _scan_or_error(scan, text):
    try:
        return scan(text)
    except ExprSyntaxError as ex:
        return ("error", str(ex), ex.pos)


_TOKEN_TEXT = st.text(alphabet=st.sampled_from("x0123456789._+-*/^() \t\n\r\f\vaezZ"), max_size=30)
_ANY_TEXT = st.text(max_size=30)


@given(st.one_of(_TOKEN_TEXT, _ANY_TEXT,
                 st.tuples(_TOKEN_TEXT, _ANY_TEXT, _TOKEN_TEXT).map("".join)))
@settings(max_examples=300, deadline=None)
def test_tokenizer_matches_the_two_pattern_scanner(text):
    """One ``finditer`` pass gives the reference scanner's tokens and
    positions, and its error text and offset, on ASCII token soup, on any
    unicode text and on the two mixed."""
    assert (_scan_or_error(lambda t: _Tokenizer(t).tokens, text)
            == _scan_or_error(token_oracle.scan, text))


@pytest.mark.parametrize("text", ["", "   ", "x0**2 + .5*x1", "1. ", "x0 ² ", "٣",
                                  "exp(x0)\n*\tsin(x1)", "x0 $ x1", "a\U0001f600"])
def test_tokenizer_matches_the_two_pattern_scanner_on_edge_cases(text):
    assert (_scan_or_error(lambda t: _Tokenizer(t).tokens, text)
            == _scan_or_error(token_oracle.scan, text))
