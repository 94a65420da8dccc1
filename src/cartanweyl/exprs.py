"""Field-expression language: AST, recursive-descent parser, printer, jets.

Grammar (whitespace-insensitive)::

    expr   := term (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := ('+' | '-') unary | power
    power  := atom (('^' | '**') sint)?
    atom   := NUMBER | IDENT | FUNC '(' expr ')' | '(' expr ')'
    sint   := ('-')? INTEGER

Numbers are rational literals (integers or decimals); functions are exp,
sin, cos, sqrt.  Exponents are integers so the grammar is closed under
differentiation; their magnitude is at most :data:`MAX_EXPONENT`, because a
power costs one jet product per unit of exponent.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import ExprDomainError, ExprSyntaxError
from .jets import Jet

FUNCTIONS = ("exp", "sin", "cos", "sqrt")
MAX_EXPONENT = 64


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


Expr = (Const, Var, BinOp, Neg, Pow, Call)


class _Tokenizer:
    def __init__(self, text):
        self.text = text
        self.pos = 0
        self.tokens = []
        self._scan()
        self.cursor = 0

    def _scan(self):
        text, n = self.text, len(self.text)
        i = 0
        while i < n:
            ch = text[i]
            if ch.isspace():
                i += 1
                continue
            if ch.isdigit() or (ch == "." and i + 1 < n and text[i + 1].isdigit()):
                j = i
                seen_dot = False
                while j < n and (text[j].isdigit() or (text[j] == "." and not seen_dot)):
                    if text[j] == ".":
                        seen_dot = True
                    j += 1
                self.tokens.append(("num", text[i:j], i))
                i = j
                continue
            if ch.isalpha() or ch == "_":
                j = i
                while j < n and (text[j].isalnum() or text[j] == "_"):
                    j += 1
                self.tokens.append(("ident", text[i:j], i))
                i = j
                continue
            if text.startswith("**", i):
                self.tokens.append(("op", "^", i))
                i += 2
                continue
            if ch in "+-*/^()":
                self.tokens.append(("op", ch, i))
                i += 1
                continue
            raise ExprSyntaxError(f"unexpected character {ch!r}", i)
        self.tokens.append(("end", "", n))

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
        n = int(val)
        if n > MAX_EXPONENT:
            raise ExprSyntaxError(
                f"exponent magnitude {n} exceeds {MAX_EXPONENT}", pos)
        return -n if neg else n

    def _atom(self):
        kind, val, pos = self.toks.next()
        if kind == "num":
            if "." in val:
                return Const(Fraction(val))
            return Const(Fraction(int(val)))
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

def eval_jet(node, chart, point, order):
    """Evaluate an Expr to a :class:`Jet` of the given order at ``point``."""
    if len(point) != chart.m:
        raise ValueError("point dimension does not match chart")

    def ev(n):
        if isinstance(n, Const):
            return Jet.constant(float(n.value), chart.m, order)
        if isinstance(n, Var):
            try:
                i = chart.coord_index(n.name)
            except ValueError:
                raise ExprDomainError(
                    f"unknown coordinate {n.name!r} for this chart") from None
            return Jet.coordinate(i, point, chart.m, order)
        if isinstance(n, Neg):
            return -ev(n.arg)
        if isinstance(n, BinOp):
            a, b = ev(n.left), ev(n.right)
            if n.op == "+":
                return a + b
            if n.op == "-":
                return a - b
            if n.op == "*":
                return a * b
            return a / b
        if isinstance(n, Pow):
            return ev(n.base) ** n.exponent
        if isinstance(n, Call):
            arg = ev(n.arg)
            return getattr(arg, n.func)()
        raise TypeError(f"not an Expr node: {n!r}")

    return ev(node)


# -- tiny builders used by the scenario generator ---------------------------

def const(v):
    """Exact constant for v rounded to 6 decimals (scenario coefficients are)."""
    return Const(Fraction(round(v * 10**6), 10**6))


def var(name):
    return Var(name)


def add(a, b):
    return BinOp("+", a, b)


def mul(a, b):
    return BinOp("*", a, b)


def poly_expr(coeff_map, names):
    """Build sum_beta c_beta * prod x_i^beta_i as an AST."""
    node = None
    for beta, c in sorted(coeff_map.items()):
        if c == 0:
            continue
        term = const(c)
        for i, k in enumerate(beta):
            for _ in range(k):
                term = mul(term, var(names[i]))
        node = term if node is None else add(node, term)
    return node if node is not None else Const(Fraction(0))
