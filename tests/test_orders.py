"""The order plan walked: every piece of a batch is built at the order its
reader takes from the model's :class:`OrderPlan`."""

import sys
from collections import defaultdict

import pytest

from cartanweyl import brs, cartan, checks, dressing
from cartanweyl.cartan import GaugeElement
from cartanweyl.jets import order_of
from cartanweyl.orders import order_plan
from cartanweyl.scenarios import catalog
from cartanweyl.weyl import WeylElement


def _spy(monkeypatch, owner, name, order, seen):
    """Wrap ``owner.name`` so that each call adds ``order(*args)`` to
    ``seen[name, its caller's name]``."""
    real = getattr(owner, name)

    def spy(*args, **kwargs):
        seen[name, sys._getframe(1).f_code.co_name].add(order(*args))
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, spy)


def _planned(kind):
    """{(reader, caller): the orders the plan gives its calls} under
    ``--suite all``: README "Jet orders" tabulates them."""
    plan = order_plan(kind)
    if kind == "poincare":
        return {("build_normal", "normal"): {plan.build},
                ("jmat_inv", "build_normal"): {plan.build - 1},
                ("jmat_inv", "_lorentz_leaves"): {plan.build},
                ("matrices", "gr_dressing_suite"): {plan.route + 1}}
    # the normal connection comes out two orders below e (its Schouten
    # block), and a gauge element and the BRS e^-1 are built one above the
    # connection they act on
    normal = plan.build - 2
    return {("build_normal", "normal"): {plan.build},
            ("build_normal", "weyl_suite"): {plan.oracle},
            ("jmat_inv", "build_normal"): {plan.build - 1, plan.oracle - 1},
            ("jmat_inv", "_lorentz_leaves"): {normal + 1},
            ("jmat_inv", "expected_final_ghost"): {0},
            ("jmat_inv", "residual_weyl_brs"): {0},
            ("matrices", "base_connection"): {normal + 1},
            ("matrices", "gauge_suite"): {plan.route + 1},
            ("matrices", "dressing_suite"): {plan.route + 1},
            ("at", "weyl_suite"): {plan.build, plan.group_law + 1},
            ("dress", "full_pipeline"): {normal},
            ("dress", "dressing_suite"): {plan.route},
            ("dress", "weyl_suite"): {plan.route, plan.oracle - 2},
            ("dress", "linearization_check"): {plan.route}}


@pytest.mark.parametrize("name", ["generic", "poincare"])
def test_every_piece_is_built_at_its_planned_order(name, monkeypatch):
    """One batch of the m = 3 catalog entry under --suite all: each call of
    build_normal, its e^-1, the BRS e^-1 and metric inverses,
    WeylElement.at, GaugeElement.matrices and dress takes the order the plan
    gives its reader, and no reader goes unplanned."""
    seen = defaultdict(set)
    _spy(monkeypatch, checks, "build_normal", lambda *a: a[3], seen)
    for owner in (cartan, brs):
        _spy(monkeypatch, owner, "jmat_inv", lambda a, m: order_of(m, a), seen)
    _spy(monkeypatch, WeylElement, "at", lambda *a: a[3], seen)
    _spy(monkeypatch, GaugeElement, "matrices", lambda *a: a[3], seen)
    for owner in (checks, dressing):
        _spy(monkeypatch, owner, "dress", lambda conn, e=None: conn.order, seen)
    scn = catalog(name, 3)
    assert len(scn.points) <= checks.BATCH_SIZE
    assert checks.run_check(scn, "all").passed
    assert dict(seen) == _planned(scn.model)
