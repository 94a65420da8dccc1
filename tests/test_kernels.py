"""The gather -> matmul -> dense-sum kernels against the segment-sum oracle.

``kernel_oracle`` keeps the previous formulation: a product table sorted by
output and summed with ``np.add.reduceat``, and a wedge that scatter-adds
one jet-matrix product per plan entry with ``np.add.at``.  Every kernel
must agree with it to a relative error of 1e-13 over m = 1..5 and jet
orders 0..4; forms run over every (p, q) with q <= 3.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cartanweyl.errors import ShapeError
from cartanweyl.forms import GHOST_POOL, MForm, form_comps, ghost_monos, wedge_plan
from cartanweyl.jets import jmat_inv, jmat_mul, jmul, space
from cartanweyl.tensors import jeinsum

import kernel_oracle as ref

REL = 1e-13

# every jeinsum spec the package uses
SPECS = (",mn->mn", "ab,bm->am", "abc,cm->abm", "abn,nc->abc", "am,an->mn", "l,lr->r",
         "lmn,lr->mnr", "lmn,sl->msn", "lms,ln->msn", "m,ma->a", "man,mb->abn",
         "ml,lr->mr", "mn,na->ma", "mr,sn->rnms", "nl,lmr->mnr", "ns,ns->", "om,ma->oa",
         "r,r->", "rl,lmn->rmn", "rml,lsn->rnms", "rsl,lmn->rnms", "sr,mn->rnms")

dims = st.integers(1, 5)
orders = st.integers(0, 4)
seeds = st.integers(0, 2**32 - 1)


def _close(got, want):
    assert got.shape == want.shape
    scale = max(1.0, float(np.abs(want).max(initial=0.0)))
    assert float(np.abs(got - want).max(initial=0.0)) <= REL * scale


def _jets(rng, lead, m, order):
    return rng.normal(size=tuple(lead) + (space(m, order).size,))


@settings(max_examples=60, deadline=None)
@given(m=dims, k1=orders, k2=orders, seed=seeds)
def test_jmul_matches_reduceat(m, k1, k2, seed):
    rng = np.random.default_rng(seed)
    a, b = _jets(rng, (2, 3), m, k1), _jets(rng, (3,), m, k2)
    _close(jmul(a, b, m), ref.jmul(a, b, m))
    _close(jmul(a[0, 0], b[1], m), ref.jmul(a[0, 0], b[1], m))


@settings(max_examples=60, deadline=None)
@given(m=dims, k1=orders, k2=orders, seed=seeds,
       r=st.integers(1, 4), k=st.integers(1, 4), c=st.integers(1, 4))
def test_jmat_mul_matches_reduceat(m, k1, k2, seed, r, k, c):
    rng = np.random.default_rng(seed)
    A, B = _jets(rng, (2, r, k), m, k1), _jets(rng, (k, c), m, k2)
    _close(jmat_mul(A, B, m), ref.jmat_mul(A, B, m))


@settings(max_examples=40, deadline=None)
@given(m=dims, order=orders, seed=seeds, n=st.integers(1, 4))
def test_jmat_inv_matches_reduceat(m, order, seed, n):
    rng = np.random.default_rng(seed)
    E = 0.5 * _jets(rng, (2, n, n), m, order)
    E[..., 0] += 3.0 * np.eye(n)
    _close(jmat_inv(E, m), ref.jmat_inv(E, m))


@settings(max_examples=80, deadline=None)
@given(spec=st.sampled_from(SPECS), m=dims, k1=orders, k2=orders, seed=seeds,
       sizes=st.lists(st.integers(1, 4), min_size=8, max_size=8))
def test_jeinsum_matches_elementwise_sum(spec, m, k1, k2, seed, sizes):
    """One jmat_mul over the contracted labels equals every product taken
    elementwise and summed over those labels."""
    rng = np.random.default_rng(seed)
    ins = spec.split("->")[0]
    labels = sorted(set(ins) - {","})
    size = dict(zip(labels, sizes))
    la, lb = ins.split(",")
    a = _jets(rng, [size[c] for c in la], m, k1)
    b = _jets(rng, [size[c] for c in lb], m, k2)
    _close(jeinsum(spec, a, b, m), ref.jeinsum(spec, a, b, m))


def test_jeinsum_refuses_specs_it_cannot_contract():
    a = np.ones((2, 3, 1))
    for spec in ("ab,b->a", "aa,ab->b", "ab,bc->"):
        with pytest.raises(ValueError):
            jeinsum(spec, a, a, 1)


def _form(rng, m, shape, p, q, order):
    out = MForm.zeros(m, shape, p, q, order)
    out.data[:] = rng.normal(size=out.data.shape)
    out.data[rng.random(out.data.shape[:3]) < 0.2] = 0.0
    return out


degrees = st.tuples(st.integers(0, 5), st.integers(0, 3))


@settings(max_examples=120, deadline=None)
@given(m=dims, k1=orders, k2=orders, seed=seeds, left=degrees, right=degrees,
       r=st.integers(1, 3), k=st.integers(1, 3), c=st.integers(1, 3))
def test_wedge_matches_scatter_add(m, k1, k2, seed, left, right, r, k, c):
    """Float (q = 0) and ghost wedges of every (p, q), including plans with
    no targets (p1 + p2 > m) and products above the pool, which raise."""
    (p1, q1), (p2, q2) = left, right
    if p1 > m or p2 > m:
        return
    rng = np.random.default_rng(seed)
    a, b = _form(rng, m, (r, k), p1, q1, k1), _form(rng, m, (k, c), p2, q2, k2)
    if q1 + q2 > GHOST_POOL:
        with pytest.raises(ShapeError):
            a.wedge(b)
        return
    got, want = a.wedge(b), ref.wedge(a, b)
    assert (got.p, got.q, got.order, got.shape) == (want.p, want.q, want.order, want.shape)
    _close(got.data, want.data)


@settings(max_examples=80, deadline=None)
@given(m=dims, order=st.integers(1, 4), seed=seeds, p=st.integers(0, 5), q=st.integers(0, 3))
def test_ext_d_matches_plan_loop(m, order, seed, p, q):
    if p > m:
        return
    rng = np.random.default_rng(seed)
    form = _form(rng, m, (2, 3), p, q, order)
    got, want = form.ext_d(), ref.ext_d(form)
    assert (got.p, got.q, got.order) == (want.p, want.q, want.order)
    _close(got.data, want.data)


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("order", [0, 1, 2, 3, 4, 6])
def test_numpy_tables_hold_the_pair_loop_tables(m, order):
    """The same (k, i, j) pairs as the Python pair loop, each output's pairs
    in the same order (ascending i), and the same derivative maps."""
    sp, want = space(m, order), ref.tables(m, order)
    tab = sp.table
    k_of_slot = np.argsort(tab.unslot)
    layer = np.repeat(np.arange(len(tab.widths)), tab.widths)
    slot = np.concatenate([np.arange(w) for w in tab.widths])
    got = sorted(zip(k_of_slot[slot].tolist(), layer.tolist(), tab.i.tolist(), tab.j.tolist()))
    assert [(k, i, j) for k, _, i, j in got] == want.triples
    assert len(sp.mul_i) == len(want.mul_i)
    for nu in range(m if order else 0):
        assert np.array_equal(sp.deriv_src[nu], want.deriv_src[nu])
        assert np.array_equal(sp.deriv_fac[nu], want.deriv_fac[nu])


@pytest.mark.parametrize("m", [2, 3, 5])
def test_wedge_plan_groups_every_target(m):
    """Each target of a (p, q) product has C(q, q1) C(p, p1) entries."""
    for p1 in range(m + 1):
        for p2 in range(m + 1 - p1):
            for q1 in range(GHOST_POOL + 1):
                for q2 in range(GHOST_POOL + 1 - q1):
                    plan = wedge_plan(m, p1, q1, p2, q2)
                    p, q = p1 + p2, q1 + q2
                    width = math.comb(q, q1) * math.comb(p, p1)
                    rows = len(ghost_monos(q)) * len(form_comps(m, p))
                    assert plan.f1.shape == plan.f2.shape == plan.sign.shape == (rows, width)
