"""The jet-based classical oracle is itself cross-checked against sympy."""

import math

import numpy as np
import pytest
import sympy as sp

from cartanweyl import tensors
from cartanweyl.exprs import compile_expr, eval_jets
from cartanweyl.jets import Chart, jmat_mul, jmul, space
from cartanweyl.tensors import jeinsum, tr

from conftest import DIAG3, POINT3

K = 5


def _vielbein_jets(chart, entries, point, order):
    m = chart.m
    rows = []
    for a in range(m):
        rows.append([eval_jets([compile_expr(entries[a][mu])], chart, point, order)[0]
                     for mu in range(m)])
    return np.array(rows)


@pytest.fixture(scope="module")
def bundle():
    ch = Chart(3, signature=(1, -1, -1))
    e = _vielbein_jets(ch, DIAG3, POINT3, K)
    return ch, e, tensors.classical_bundle(e, ch.signature, 3)


def _sympy_geometry():
    xs = sp.symbols("x0 x1 x2")
    diag = [sp.sympify("1 + x1**2/2"), sp.sympify("1 + x0*x2/4"),
            sp.sympify("1 + x0**2/3 + x2/5")]
    sig = [1, -1, -1]
    m = 3
    g = sp.diag(*[sig[i] * diag[i] ** 2 for i in range(m)])
    ginv = g.inv()
    Gam = [[[sum(sp.Rational(1, 2) * ginv[r, l] *
                 (sp.diff(g[l, mu], xs[nu]) + sp.diff(g[l, nu], xs[mu])
                  - sp.diff(g[mu, nu], xs[l])) for l in range(m))
             for nu in range(m)] for mu in range(m)] for r in range(m)]
    Riem = [[[[sp.diff(Gam[r][s][n], xs[mu]) - sp.diff(Gam[r][mu][n], xs[s])
               + sum(Gam[r][mu][l] * Gam[l][s][n]
                     - Gam[r][s][l] * Gam[l][mu][n] for l in range(m))
               for s in range(m)] for mu in range(m)]
             for n in range(m)] for r in range(m)]
    Ric = [[sum(Riem[l][n][l][s] for l in range(m)) for s in range(m)]
           for n in range(m)]
    Rs = sum(ginv[n, s] * Ric[n][s] for n in range(m) for s in range(m))
    P = [[sp.Rational(-1, m - 2) * (Ric[mu][nu] - Rs * g[mu, nu] / (2 * (m - 1)))
          for nu in range(m)] for mu in range(m)]
    return xs, g, Gam, Riem, Ric, P


@pytest.fixture(scope="module")
def sym():
    return _sympy_geometry()


def _at(expr, xs):
    return float(sp.N(expr.subs(dict(zip(xs, POINT3)))))


def test_metric_vs_sympy(bundle, sym):
    ch, e, B = bundle
    xs, g, *_ = sym
    want = np.array([[_at(g[i, j], xs) for j in range(3)] for i in range(3)])
    assert np.abs(B["g"][..., 0] - want).max() < 1e-12


def test_christoffel_vs_sympy(bundle, sym):
    ch, e, B = bundle
    xs, _, Gam, *_ = sym
    want = np.array([[[_at(Gam[r][mu][nu], xs) for nu in range(3)]
                      for mu in range(3)] for r in range(3)])
    assert np.abs(B["Gamma"][..., 0] - want).max() < 1e-11


def test_riemann_and_ricci_vs_sympy(bundle, sym):
    ch, e, B = bundle
    xs, _, _, Riem, Ric, _ = sym
    wantR = np.array([[[[_at(Riem[r][n][mu][s], xs) for s in range(3)]
                        for mu in range(3)] for n in range(3)]
                      for r in range(3)])
    assert np.abs(B["Riemann"][..., 0] - wantR).max() < 1e-10
    wantRic = np.array([[_at(Ric[n][s], xs) for s in range(3)] for n in range(3)])
    assert np.abs(B["Ricci"][..., 0] - wantRic).max() < 1e-10


def test_schouten_vs_sympy(bundle, sym):
    ch, e, B = bundle
    xs, *_, P = sym
    want = np.array([[_at(P[mu][nu], xs) for nu in range(3)] for mu in range(3)])
    assert np.abs(B["P"][..., 0] - want).max() < 1e-10


def test_weyl_is_traceless_and_vanishes_in_3d(bundle):
    # dimension 3: the Weyl tensor vanishes identically
    ch, e, B = bundle
    W = B["W"][..., 0]
    assert np.abs(np.einsum("anas->ns", W)).max() < 1e-11
    assert np.abs(W).max() < 1e-10


def test_weyl_nonzero_in_4d():
    ch = Chart(4, signature=(1, -1, -1, -1))
    vb = [["sqrt(1 - 2/x1)", "0", "0", "0"],
          ["0", "1/sqrt(1 - 2/x1)", "0", "0"],
          ["0", "0", "x1", "0"],
          ["0", "0", "0", "x1*sin(x2)"]]
    e = _vielbein_jets(ch, vb, (0.2, 3.7, 1.1, 0.4), K)
    B = tensors.classical_bundle(e, ch.signature, 4)
    W = B["W"][..., 0]
    assert np.abs(W).max() > 1e-3
    assert np.abs(np.einsum("anas->ns", W)).max() < 1e-9
    # Ricci-flat: the Weyl tensor equals the Riemann tensor
    assert np.abs(W - B["Riemann"][..., 0]).max() < 1e-9


def test_cotton_antisymmetry(bundle):
    ch, e, B = bundle
    C = B["C"][..., 0]
    assert np.abs(C + C.transpose(0, 2, 1)).max() < 1e-12


def test_conformally_flat_weyl_vanishes():
    ch = Chart(4, signature=(1, -1, -1, -1))
    phi = "x0/4 - x1*x1/6 + x2*x3/8"
    vb = [[f"exp({phi})" if i == j else "0" for j in range(4)] for i in range(4)]
    e = _vielbein_jets(ch, vb, (0.2, -0.3, 0.4, 0.1), K)
    B = tensors.classical_bundle(e, ch.signature, 4)
    assert np.abs(B["W"][..., 0]).max() < 1e-10


def _jeinsum_unplanned(spec, a, b, m):
    """:func:`jeinsum` with its labels worked out on every call."""
    ins, out = spec.split("->")
    la, lb = ins.split(",")
    lead_a = a.shape[:a.ndim - 1 - len(la)]
    lead = tuple(max(x, y) for x, y in zip(lead_a, b.shape[:b.ndim - 1 - len(lb)]))
    sizes = dict(zip(la, a.shape[len(lead_a):-1]))
    sizes.update(zip(lb, b.shape[len(lead_a):-1]))
    batch = [c for c in out if c in la and c in lb]
    left = [c for c in out if c in la and c not in lb]
    right = [c for c in out if c in lb and c not in la]
    summed = [c for c in la if c not in out]

    def arrange(x, labels, groups):
        n = x.ndim - 1 - len(labels)
        order = [n + labels.index(c) for g in groups for c in g]
        shape = [math.prod(sizes[c] for c in g) for g in groups]
        return x.transpose(*range(n), *order, x.ndim - 1).reshape(
            x.shape[:n] + tuple(shape) + x.shape[-1:])

    if summed:
        prod = jmat_mul(arrange(a, la, [[c] for c in batch] + [left, summed]),
                        arrange(b, lb, [[c] for c in batch] + [summed, right]), m)
    else:
        full = batch + left + right
        prod = jmul(arrange(a, la, [[c] if c in la else [] for c in full]),
                    arrange(b, lb, [[c] if c in lb else [] for c in full]), m)
    have = batch + left + right
    prod = prod.reshape(lead + tuple(sizes[c] for c in have) + prod.shape[-1:])
    return tr(prod, *[have.index(c) for c in out])


@pytest.mark.parametrize("spec, a_axes, b_axes", [("man,mb->abn", (3, 3, 3), (3, 3)),
                                                  ("acm,cbn->abmn", (3, 3, 3), (3, 3, 3)),
                                                  ("m,ma->a", (3,), (3, 3)),
                                                  (",mn->mn", (), (3, 3)),
                                                  ("ab,cd->dbca", (3, 2), (2, 3))])
def test_jeinsum_plans_per_spec_and_shapes(spec, a_axes, b_axes):
    """One spec at two operand shapes, one after the other and back: each
    call takes the plan of its own shapes and gives, bit for bit, the
    answer of the labels worked out afresh."""
    m, size = 3, space(3, 2).size
    rng = np.random.default_rng(len(spec))
    for lead_a, lead_b in (((), ()), ((4,), (4,)), ((2, 1), (1, 3)), ((), ())):
        a = rng.normal(size=lead_a + a_axes + (size,))
        b = rng.normal(size=lead_b + b_axes + (size,))
        got = jeinsum(spec, a, b, m)
        assert got.tobytes() == _jeinsum_unplanned(spec, a, b, m).tobytes()
        assert got.shape[:len(lead_a)] == np.broadcast_shapes(lead_a, lead_b)
    with pytest.raises(ValueError, match="does not match"):
        jeinsum("m,ma->a", np.zeros((2, 3, size)), np.zeros((3, 3, size)), m)
