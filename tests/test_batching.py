"""A batch of points computes, bit for bit, what its points compute alone.

Every kernel takes leading point axes, and a suite runs once per batch of
``checks.BATCH_SIZE`` points.  These tests stack independent one-point
inputs, run the kernel or the report once on the stack, and compare with
the one-point results stacked: exact equality, not a tolerance.
"""

import json
import tracemalloc

import numpy as np
import pytest

from cartanweyl import checks
from cartanweyl.cartan import GaugeElement, KleinModel, random_gauge
from cartanweyl.checks import run_check
from cartanweyl.cli import main
from cartanweyl.exprs import compile_expr, eval_jets
from cartanweyl.forms import MForm, block_matrix
from cartanweyl.jets import Chart, jmat_inv, space
from cartanweyl.scenarios import Scenario, catalog
from cartanweyl.tensors import jeinsum

POINTS = 3


def _form(rng, m, shape, p, q, order, lead=()):
    out = MForm.zeros(m, shape, p, q, order, lead)
    out.data[:] = rng.normal(size=out.data.shape)
    return out


def _point(x, i):
    return MForm(x.m, x.shape, x.p, x.q, x.order, x.data[i])


def _same(batched, singles):
    want = np.stack([s.data if isinstance(s, MForm) else s for s in singles])
    got = batched.data if isinstance(batched, MForm) else batched
    assert got.shape == want.shape
    assert np.array_equal(got, want)


@pytest.mark.parametrize("m, order", [(3, 2), (4, 3)])
@pytest.mark.parametrize("p1, q1, p2, q2", [(p1, q1, p2, q2)
                                            for p1 in range(3) for q1 in range(3)
                                            for p2 in range(3) for q2 in range(2)
                                            if q1 + q2 <= 3])
def test_wedge_and_ext_d_act_on_each_point(m, order, p1, q1, p2, q2):
    rng = np.random.default_rng(1000 * m + 100 * p1 + 10 * q1 + p2 + q2)
    a = _form(rng, m, (3, 2), p1, q1, order, (POINTS,))
    b = _form(rng, m, (2, 4), p2, q2, order - 1, (POINTS,))
    _same(a.wedge(b), [_point(a, i).wedge(_point(b, i)) for i in range(POINTS)])
    _same(a.ext_d(), [_point(a, i).ext_d() for i in range(POINTS)])
    # a one-point factor broadcasts against the batch
    _same(_point(a, 0).wedge(b), [_point(a, 0).wedge(_point(b, i)) for i in range(POINTS)])


@pytest.mark.parametrize("p, q", [(p, q) for p in range(3) for q in range(3)])
def test_block_matrix_acts_on_each_point(p, q):
    rng = np.random.default_rng(10 * p + q)
    m, order = 3, 2
    a = _form(rng, m, (1, 2), p, q, order, (POINTS,))
    b = _form(rng, m, (2, 2), p, q, order, (POINTS,))
    one = _form(rng, m, (1, 1), p, q, order)        # no point axis: broadcast
    got = block_matrix([[one, a], [None, b]], m, p, q, order)
    _same(got, [block_matrix([[one, _point(a, i)], [None, _point(b, i)]], m, p, q, order)
                for i in range(POINTS)])
    _same(got.block((0, 1), (1, 3)), [_point(a, i) for i in range(POINTS)])


@pytest.mark.parametrize("spec", ["ab,bm->am", "man,mb->abn", "m,ma->a", ",mn->mn",
                                  "rml,lsn->rnms", "ns,ns->", "mr,sn->rnms"])
def test_jeinsum_acts_on_each_point(spec):
    rng = np.random.default_rng(len(spec))
    m, order = 3, 2
    la, lb = spec.split("->")[0].split(",")
    size = space(m, order).size
    a = rng.normal(size=(POINTS,) + (m,) * len(la) + (size,))
    b = rng.normal(size=(POINTS,) + (m,) * len(lb) + (size,))
    _same(jeinsum(spec, a, b, m), [jeinsum(spec, a[i], b[i], m) for i in range(POINTS)])


def test_jmat_inv_acts_on_each_point():
    rng = np.random.default_rng(7)
    m, order = 4, 3
    E = rng.normal(size=(POINTS, m, m, space(m, order).size))
    E[..., 0] += 3.0 * np.eye(m)
    _same(jmat_inv(E, m), [jmat_inv(E[i], m) for i in range(POINTS)])


def _points(m, count, seed):
    rng = np.random.default_rng(seed)
    return [tuple(round(x, 6) for x in rng.uniform(-0.31, 0.31, size=m))
            for _ in range(count)]


def test_eval_jets_shifts_each_point():
    chart = Chart(3, signature=(1, -1, -1))
    entries = [compile_expr(t) for t in ("1 + x0^2/3 + x2/5", "exp(x1)/(2 + x0)",
                                         "sqrt(4 + x0*x1)", "x2")]
    pts = _points(3, POINTS, 3)
    _same(eval_jets(entries, chart, pts, 3),
          [eval_jets(entries, chart, p, 3) for p in pts])
    # one coefficient array per point
    rows = np.random.default_rng(4).normal(size=(POINTS, space(3, 2).size))
    _same(eval_jets([rows], chart, pts, 3),
          [eval_jets([rows[i]], chart, p, 3) for i, p in enumerate(pts)])


@pytest.mark.parametrize("kind", ["mobius", "poincare"])
def test_gauge_matrices_draw_and_build_per_point(kind):
    model = KleinModel(kind, Chart(4, signature=(1, -1, -1, -1)))
    pts = _points(4, POINTS, 5)
    batch = random_gauge(model, [np.random.default_rng(s) for s in range(POINTS)],
                         point=pts).matrices(model, pts, 2)
    singles = [random_gauge(model, np.random.default_rng(s), point=p).matrices(model, p, 2)
               for s, p in enumerate(pts)]
    for name, value in batch.items():
        _same(value, [s[name] for s in singles])
    # an expression element is the same field at every point
    ge = GaugeElement(z="1 + x0/4", so=["x1/5", None, "1/3", "0", "x2", "x3/7"],
                      r=["x0/3", "1/4", "0", "x1"])
    batch = ge.matrices(model, pts, 2)
    for name, value in batch.items():
        _same(value, [ge.matrices(model, p, 2)[name] for p in pts])


def _generic_m3(count):
    scn = catalog("generic", 3)
    scn.points = _points(3, count, 11)
    scn.validate()
    return scn


def test_twenty_points_keep_memory_flat():
    """20 points run as batches, and the traced peak stays that of an
    8-point run (the weyl suite holds the largest batch temporaries).
    tests/test_cli.py checks the rows against the one-point runs."""
    def peak(count):
        s = _generic_m3(count)
        run_check(s, "weyl")         # warm the jet and plan caches
        tracemalloc.start()
        try:
            run_check(s, "weyl")
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(20) <= 1.15 * peak(8)


def test_meta_names_the_worst_point(monkeypatch):
    """A defect planted at point 1 alone is reported at point 1, with its
    headroom; the payload is that of any report."""
    original = checks.dressed_normality

    def planted(fields):
        t, ric, f0 = original(fields)
        return t + np.where(np.arange(len(t)) == 1, 1e-3, 0.0), ric, f0

    monkeypatch.setattr(checks, "dressed_normality", planted)
    scn = _generic_m3(3)
    report = run_check(scn, "dressing")
    rows = report.meta()["rows"]
    assert rows["dressing/dressed_torsion"]["worst_point"] == 1
    assert rows["dressing/dressed_torsion"]["headroom_digits"] < 0
    assert not report.passed
    doc = json.loads(report.to_json())
    assert doc["meta"]["rows"] == rows and "meta" not in doc["payload"]
    # a sub-scenario names its points by their absolute index
    sub = Scenario.from_dict({**scn.to_dict(), "points": scn.points[2:],
                              "point_offset": 2})
    assert {r["worst_point"] for r in run_check(sub, "dressing").meta()["rows"].values()} == {2}


def _scenario_file(tmp_path, **changes):
    doc = catalog("diag-poly", 3).to_dict()
    doc.update(changes)
    path = tmp_path / "scn.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize("changes, suite, message", [
    # e degenerates at the second point only
    ({"vielbein": [["x0", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
      "points": [[0.2, 0.1, 0.3], [0.0, 0.1, 0.2], [0.0, 0.3, 0.2]]},
     "all", "error: [gauge suite] |det e| = 0.000e+00 < 1.0e-08 at point (0.0, 0.1, 0.2)"),
    # the gauge factor z is non-positive at the second point only
    ({"gauge": {"z": "x0"}, "points": [[0.2, 0.1, 0.3], [-0.1, 0.1, 0.2]]},
     "all", "error: [gauge suite] gauge factor z must be positive"),
    # the Weyl factor overflows at the second point only
    ({"weyl": "x0*10000", "points": [[0.0, 0.1, 0.3], [0.23, 0.1, 0.2]]},
     "all", "error: [weyl suite] exp(2300) overflows in jet evaluation"),
    # the first point fails in the weyl suite, the second already in the
    # gauge suite: a one-point run of the first point meets its error first
    ({"gauge": {"z": "x0"}, "weyl": "x0*10000",
      "points": [[0.23, 0.1, 0.3], [-0.1, 0.1, 0.2]]},
     "all", "error: [weyl suite] exp(2300) overflows in jet evaluation"),
])
def test_an_error_at_a_later_point_names_it(tmp_path, capsys, changes, suite, message):
    """The error of the first failing point, in the first suite that fails on
    it, exits 2 with the message a run of that point alone gives."""
    code = main(["check", "--scenario", _scenario_file(tmp_path, **changes),
                 "--suite", suite])
    assert code == 2
    assert capsys.readouterr().err.strip() == message
