"""Field-expression language: AST, recursive-descent parser, printer, jets.

Grammar (whitespace-insensitive)::

    expr   := term (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := ('+' | '-') unary | power
    power  := atom (('^' | '**') sint)?
    atom   := NUMBER | IDENT | FUNC '(' expr ')' | '(' expr ')'
    sint   := ('-')? INTEGER

Numbers are ASCII decimal literals (integers or decimals) within the float
range, identifiers are ``[A-Za-z_][A-Za-z0-9_]*`` and whitespace is ASCII;
any other character is a syntax error.  Functions are exp, sin, cos, sqrt.
Exponents are integers so the grammar is closed under differentiation; their
magnitude is at most :data:`MAX_EXPONENT`, because a power costs one jet
product per unit of exponent.

:func:`compile_expr` folds every polynomial subtree (``+``, ``-``, ``*``,
unary minus, ``^`` with n >= 0 and division by a nonzero constant) into a
:class:`Poly` of exact coefficients.  :func:`eval_jets` evaluates all the
polynomials of one field at one point by a single Taylor shift (one
matmul with a :func:`~cartanweyl.jets.shift_matrix`) and every other node
by jet arithmetic, node by node.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import ExprDomainError, ExprSyntaxError
from .jets import (jconst, jcoord, jcos, jexp, jipow, jmul, jrecip, jsin, jsqrt, order_of,
                   shift_matrix, space)

FUNCTIONS = ("exp", "sin", "cos", "sqrt")
_CALLS = {"exp": jexp, "sin": jsin, "cos": jcos, "sqrt": jsqrt}
MAX_EXPONENT = 64
# A polynomial subtree of higher degree stays on the jet route: the shift
# matrix has a row per monomial, and few products cost less than that.
POLY_MAX_DEGREE = 8
# One pass of one alternation: whitespace, a number, an identifier, an operator
# and, a syntax error, any other character.  re.ASCII keeps \s, \d and \w to
# ASCII: a superscript or Arabic-Indic digit is no digit here.
_TOKEN = re.compile(r"(\s+)|(\d+(?:\.\d*)?|\.\d+)|([A-Za-z_]\w*)|(\*\*|[-+*/^()])|(.)",
                    re.ASCII | re.DOTALL)


@dataclass(frozen=True)
class Const:
    value: Fraction

    def __str__(self):
        if self.value.denominator == 1:
            return str(self.value.numerator)
        return f"{self.value.numerator}/{self.value.denominator}"


@dataclass(frozen=True)
class Var:
    name: str

    def __str__(self):
        return self.name


@dataclass(frozen=True)
class BinOp:
    op: str  # '+', '-', '*', '/'
    left: object
    right: object


@dataclass(frozen=True)
class Neg:
    arg: object


@dataclass(frozen=True)
class Pow:
    base: object
    exponent: int


@dataclass(frozen=True)
class Call:
    func: str
    arg: object


def _coord_index(chart, name):
    try:
        return chart.coord_index(name)
    except ValueError:
        raise ExprDomainError(f"unknown coordinate {name!r} for this chart") from None


@dataclass(frozen=True)
class Poly:
    """A polynomial with exact coefficients, made by :func:`compile_expr`.

    ``terms`` pairs each monomial, a sorted tuple of (variable, power), with
    its nonzero coefficient.
    """

    terms: tuple

    @property
    def degree(self):
        return max((sum(k for _, k in mono) for mono, _ in self.terms), default=0)

    def on_chart(self, chart):
        """(beta, float coefficient) pairs over the chart's coordinates."""
        out = []
        for mono, c in self.terms:
            beta = [0] * chart.m
            for name, k in mono:
                beta[_coord_index(chart, name)] += k
            try:
                out.append((tuple(beta), float(c)))
            except OverflowError:
                raise ExprDomainError("a folded coefficient is past the float range") from None
        return out


Expr = (Const, Var, BinOp, Neg, Pow, Call, Poly)


class _Tokenizer:
    def __init__(self, text):
        self.text = text
        self.pos = 0
        self.tokens = []
        self._scan()
        self.cursor = 0

    def _scan(self):
        tokens = self.tokens
        for tok in _TOKEN.finditer(self.text):
            group = tok.lastindex
            if group == 5:
                raise ExprSyntaxError(f"unexpected character {tok.group()!r}", tok.start())
            if group > 1:
                val = tok.group()
                kind = ("num", "ident", "op")[group - 2]
                tokens.append((kind, "^" if val == "**" else val, tok.start()))
        tokens.append(("end", "", len(self.text)))

    def peek(self):
        return self.tokens[self.cursor]

    def next(self):
        tok = self.tokens[self.cursor]
        self.cursor += 1
        return tok


class _Parser:
    def __init__(self, text, variables=None):
        self.toks = _Tokenizer(text)
        self.variables = set(variables) if variables is not None else None

    def parse(self):
        node = self._expr()
        kind, val, pos = self.toks.peek()
        if kind != "end":
            raise ExprSyntaxError(f"unexpected trailing {val!r}", pos)
        return node

    def _expr(self):
        node = self._term()
        while True:
            kind, val, _ = self.toks.peek()
            if kind == "op" and val in "+-":
                self.toks.next()
                rhs = self._term()
                node = BinOp(val, node, rhs)
            else:
                return node

    def _term(self):
        node = self._unary()
        while True:
            kind, val, _ = self.toks.peek()
            if kind == "op" and val in "*/":
                self.toks.next()
                rhs = self._unary()
                node = BinOp(val, node, rhs)
            else:
                return node

    def _unary(self):
        kind, val, _ = self.toks.peek()
        if kind == "op" and val == "-":
            self.toks.next()
            return Neg(self._unary())
        if kind == "op" and val == "+":
            self.toks.next()
            return self._unary()
        return self._power()

    def _power(self):
        base = self._atom()
        kind, val, pos = self.toks.peek()
        if kind == "op" and val == "^":
            self.toks.next()
            exponent = self._signed_int()
            return Pow(base, exponent)
        return base

    def _signed_int(self):
        kind, val, pos = self.toks.peek()
        parens = kind == "op" and val == "("
        if parens:
            self.toks.next()
            kind, val, pos = self.toks.peek()
        neg = False
        if kind == "op" and val == "-":
            self.toks.next()
            neg = True
            kind, val, pos = self.toks.peek()
        if kind != "num" or "." in val:
            raise ExprSyntaxError("exponent must be an integer", pos)
        self.toks.next()
        if parens:
            ckind, cval, cpos = self.toks.next()
            if not (ckind == "op" and cval == ")"):
                raise ExprSyntaxError("expected ')' after exponent", cpos)
        digits = val.lstrip("0") or "0"
        # the length test keeps int() off texts past Python's digit limit
        if len(digits) > len(str(MAX_EXPONENT)) or int(digits) > MAX_EXPONENT:
            raise ExprSyntaxError(f"exponent magnitude exceeds {MAX_EXPONENT}", pos)
        n = int(digits)
        return -n if neg else n

    def _atom(self):
        kind, val, pos = self.toks.next()
        if kind == "num":
            if not math.isfinite(float(val)):
                raise ExprSyntaxError("number literal past the float range", pos)
            try:
                return Const(Fraction(val))
            except ValueError:      # more digits than Python converts to an int
                raise ExprSyntaxError("number literal has too many digits", pos) from None
        if kind == "ident":
            nkind, nval, _ = self.toks.peek()
            if nkind == "op" and nval == "(":
                if val not in FUNCTIONS:
                    raise ExprSyntaxError(f"unknown function {val!r}", pos)
                self.toks.next()
                arg = self._expr()
                ckind, cval, cpos = self.toks.next()
                if not (ckind == "op" and cval == ")"):
                    raise ExprSyntaxError("expected ')'", cpos)
                return Call(val, arg)
            if self.variables is not None and val not in self.variables:
                raise ExprSyntaxError(f"unknown identifier {val!r}", pos)
            return Var(val)
        if kind == "op" and val == "(":
            node = self._expr()
            ckind, cval, cpos = self.toks.next()
            if not (ckind == "op" and cval == ")"):
                raise ExprSyntaxError("expected ')'", cpos)
            return node
        if kind == "end":
            raise ExprSyntaxError("unexpected end of input", pos)
        raise ExprSyntaxError(f"unexpected token {val!r}", pos)


def parse_expr(text, variables=None):
    """Parse ``text`` into an AST; optionally restrict variable names."""
    try:
        return _Parser(text, variables).parse()
    except RecursionError:
        raise ExprSyntaxError("expression nested too deeply", 0) from None


# ---------------------------------------------------------------------------
# canonical printer (round-trips through parse_expr)
# ---------------------------------------------------------------------------

_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "pow": 4, "atom": 5}


def _print(node, parent_prec):
    if isinstance(node, Const):
        s = str(node)
        prec = _PREC["/"] if node.value.denominator != 1 else _PREC["atom"]
    elif isinstance(node, Var):
        s, prec = node.name, _PREC["atom"]
    elif isinstance(node, Neg):
        s, prec = "-" + _print(node.arg, _PREC["neg"]), _PREC["neg"]
    elif isinstance(node, Pow):
        base = _print(node.base, _PREC["pow"] + 1)
        exp = str(node.exponent) if node.exponent >= 0 else f"(-{-node.exponent})"
        s, prec = f"{base}^{exp}", _PREC["pow"]
    elif isinstance(node, Call):
        s, prec = f"{node.func}({_print(node.arg, 0)})", _PREC["atom"]
    elif isinstance(node, BinOp):
        prec = _PREC[node.op]
        left = _print(node.left, prec)
        right = _print(node.right, prec + 1)  # -,/ are left-assoc
        s = f"{left} {node.op} {right}" if node.op in "+-" else f"{left}{node.op}{right}"
    else:
        raise TypeError(f"not an Expr node: {node!r}")
    if prec < parent_prec:
        return f"({s})"
    return s


def print_expr(node):
    return _print(node, 0)


# ---------------------------------------------------------------------------
# evaluation to jets
# ---------------------------------------------------------------------------

def _poly(terms):
    return Poly(tuple(sorted((mono, c) for mono, c in terms.items() if c != 0)))


def _poly_mul(a, b):
    out = {}
    for ma, ca in a.terms:
        for mb, cb in b.terms:
            powers = dict(ma)
            for name, k in mb:
                powers[name] = powers.get(name, 0) + k
            mono = tuple(sorted(powers.items()))
            out[mono] = out.get(mono, 0) + ca * cb
    return _poly(out)


def _fold(op, a, b):
    """The Poly of ``a op b`` for two Polys, or None if it is not one."""
    if op in "+-":
        out = dict(a.terms)
        for mono, c in b.terms:
            out[mono] = out.get(mono, 0) + (c if op == "+" else -c)
        return _poly(out)
    if op == "*":
        return _poly_mul(a, b) if a.degree + b.degree <= POLY_MAX_DEGREE else None
    if b.degree == 0 and b.terms:   # division by a nonzero constant
        c = b.terms[0][1]
        return Poly(tuple((mono, v / c) for mono, v in a.terms))
    return None


def _compile(n):
    if isinstance(n, Poly):
        return n
    if isinstance(n, Const):
        return _poly({(): n.value})
    if isinstance(n, Var):
        return _poly({((n.name, 1),): Fraction(1)})
    if isinstance(n, Neg):
        a = _compile(n.arg)
        return Poly(tuple((mono, -c) for mono, c in a.terms)) if isinstance(a, Poly) \
            else Neg(a)
    if isinstance(n, BinOp):
        a, b = _compile(n.left), _compile(n.right)
        if isinstance(a, Poly) and isinstance(b, Poly):
            folded = _fold(n.op, a, b)
            if folded is not None:
                return folded
        return BinOp(n.op, a, b)
    if isinstance(n, Pow):
        base = _compile(n.base)
        if (isinstance(base, Poly) and n.exponent >= 0
                and base.degree * n.exponent <= POLY_MAX_DEGREE):
            out = _poly({(): Fraction(1)})
            for _ in range(n.exponent):
                out = _poly_mul(out, base)
            return out
        return Pow(base, n.exponent)
    if isinstance(n, Call):
        return Call(n.func, _compile(n.arg))
    raise TypeError(f"not an Expr node: {n!r}")


def compile_expr(entry):
    """A field entry ready for :func:`eval_jets`, parsed and folded once.

    A string is parsed; in an Expr every polynomial subtree becomes one
    :class:`Poly`.  A coefficient array over ``space(m, d).monos`` is
    already a polynomial and is returned as it is.
    """
    if isinstance(entry, np.ndarray):
        return entry
    if isinstance(entry, str):
        entry = parse_expr(entry)
    try:
        return _compile(entry)
    except RecursionError:
        raise ExprSyntaxError("expression nested too deeply", 0) from None


def eval_jets(entries, chart, point, order):
    """The order-``order`` jets at ``point`` of field entries, (len(entries), C).

    ``point`` is one point (m,) or a batch of points (P, m); a batch gives
    (P, len(entries), C), each point shifted on its own.  An entry is an
    Expr node or a coefficient array over ``space(m, d).monos``, either one
    array for every point or one row per point, (P, size).  The arrays and
    every :class:`Poly` inside the nodes take one Taylor shift together;
    every other node is evaluated by jet arithmetic, node by node and on all
    the points at once, so a node that :func:`compile_expr` has not folded
    takes the jet route throughout.
    """
    m = chart.m
    point = np.asarray(point, dtype=float)
    if point.shape[-1:] != (m,):
        raise ValueError("point dimension does not match chart")
    lead = point.shape[:-1]
    polys = []

    def gather(n):
        if isinstance(n, (Poly, np.ndarray)):
            polys.append(n)
        elif isinstance(n, BinOp):
            gather(n.left)
            gather(n.right)
        elif isinstance(n, (Neg, Call)):
            gather(n.arg)
        elif isinstance(n, Pow):
            gather(n.base)

    for entry in entries:
        gather(entry)
    # one column per monomial: the basis of the arrays first, in its order,
    # then every other monomial a Poly uses
    dense = max((order_of(m, p) for p in polys if isinstance(p, np.ndarray)), default=0)
    columns = dict(space(m, dense).index)
    placed = []
    per_point = False
    for p in polys:
        if isinstance(p, Poly):
            pairs = p.on_chart(chart)
            placed.append(([columns.setdefault(beta, len(columns)) for beta, _ in pairs],
                           [c for _, c in pairs]))
        else:
            placed.append((slice(0, p.shape[-1]), p))
            per_point |= p.ndim > 1
    coeffs = np.zeros((lead if per_point else ()) + (len(polys), len(columns)))
    for k, (cols, values) in enumerate(placed):
        coeffs[..., k, cols] = values
    shifted = iter(np.moveaxis(coeffs @ shift_matrix(list(columns), point, order), -2, 0))

    # jet arithmetic on (..., C) arrays: the lower order of a sum is a prefix
    # of the degree-sorted basis
    def ev(n):
        if isinstance(n, (Poly, np.ndarray)):
            return next(shifted)
        if isinstance(n, Const):
            return jconst(float(n.value), m, order)
        if isinstance(n, Var):
            return jcoord(_coord_index(chart, n.name), point, m, order)
        if isinstance(n, Neg):
            return -ev(n.arg)
        if isinstance(n, BinOp):
            a, b = ev(n.left), ev(n.right)
            k = min(a.shape[-1], b.shape[-1])
            if n.op == "+":
                return a[..., :k] + b[..., :k]
            if n.op == "-":
                return a[..., :k] - b[..., :k]
            if n.op == "*":
                return jmul(a, b, m)
            return jmul(a, jrecip(b, m), m)
        if isinstance(n, Pow):
            return jipow(ev(n.base), n.exponent, m)
        if isinstance(n, Call):
            return _CALLS[n.func](ev(n.arg), m)
        raise TypeError(f"not an Expr node: {n!r}")

    out = np.empty(lead + (len(entries), space(m, order).size))
    for k, entry in enumerate(entries):
        out[..., k, :] = ev(entry)
    # gather and ev reach themselves through their closures: clearing them
    # frees the shifted coefficients now rather than at the next gc pass
    gather = ev = None
    return out

