"""Benchmark workloads: seeded scenario files and the (scenario, suite) items.

The scenario definitions are written out here rather than taken from
``cartanweyl.scenarios.catalog``, so a change to the catalog cannot change
the benchmark's inputs.  They mirror the catalog entries of the same name;
only the sample points and the scenario ``seed`` come from the workload seed.
"""

from __future__ import annotations

import json
import os
import random

JET_ORDER = 4
TOLERANCE = 1e-9
POINTS_PER_SCENARIO = 2
# Rounding residuals on the Schwarzschild chart grow with r across (3, 6), so
# the report's worst row depends on the largest r drawn; eight points make
# headroom_digits steady from seed to seed where two left it spreading ~15-20%.
SCHWARZSCHILD_POINTS = 8
COORD_BOX = 0.31          # |x_i| <= 0.31, as in the catalog points
SCHWARZSCHILD_R = (3.0, 6.0)
SCHWARZSCHILD_THETA = (1.1, 1.4)   # the catalog's polar angles; keeps sin away from 0

# Check rows each (model, suite) pair reports; the same at m = 3, 4 and 5.
EXPECTED_ROWS = {
    ("generic", "gauge"): 5,
    ("generic", "dressing"): 24,
    ("generic", "weyl"): 32,
    ("generic", "brs"): 51,
    ("torsionful", "gauge"): 5,
    ("torsionful", "dressing"): 17,
    ("torsionful", "weyl"): 22,
    ("constant-curvature", "gauge"): 8,
    ("constant-curvature", "dressing"): 24,
    ("constant-curvature", "weyl"): 32,
    ("ricci-flat-m4", "dressing"): 24,
    ("ricci-flat-m4", "weyl"): 32,
    ("poincare", "gauge"): 2,
    ("poincare", "all"): 16,
}

FLOAT_SUITES = ("gauge", "dressing", "weyl")

# (model, dimension, suite) triples of one pass, in run order.  Why each
# workload (also recorded in BENCHMARK.json):
# - float-suites: jet kernels and expression evaluation do the work and the
#   ghost algebra never runs, so a ghost-layer change must leave it unchanged
#   and a width-1 ghost axis on float forms would show as a cost.  The gauge
#   suite on ricci-flat-m4 is left out: its random gauge factor z is scaled
#   for |x| <= 0.31, goes non-positive at r ~ 5 for some seeds, and the call
#   then exits 2 ("gauge factor z must be positive").
# - brs-conformal: Grassmann products, ghost wedges and term-DAG evaluation do
#   over 90% of the work; brs at m = 4 and 5 (30 s and 94 s a pass) is left out.
# - gr-all: the same ghost layers on Lorentz-only ghosts of low degree, and
#   the one workload where a single call rebuilds build_normal once per suite
#   per point.
WORKLOADS = {
    "float-suites": (
        [(model, m, suite)
         for model in ("generic", "torsionful", "constant-curvature")
         for m in (3, 4, 5)
         for suite in FLOAT_SUITES]
        + [("ricci-flat-m4", 4, suite) for suite in ("dressing", "weyl")]
    ),
    "brs-conformal": [("generic", 3, "brs")],
    "gr-all": [("poincare", m, "all") for m in (3, 4, 5)],
}


def _signature(m):
    return [1] + [-1] * (m - 1)


def _diag(entries):
    m = len(entries)
    return [[entries[i] if i == j else "0" for j in range(m)] for i in range(m)]


def _default_ghosts(m):
    pairs = m * (m - 1) // 2
    return {"eps": "1/2 + x0/3 - x1*x1/5",
            "iota": [f"1/2 + x{(a + 1) % m}/3" for a in range(m)],
            "lorentz": [f"1/3 + x{k % m}/4" for k in range(pairs)]}


def _diag_poly(m):
    diag = ["1 + x1^2/2", f"1 + x0*x{m - 1}/4", f"1 + x0^2/3 + x{m - 1}/5"]
    while len(diag) < m:
        diag.append(f"1 + x{len(diag) % m}^2/{3 + len(diag)}")
    return {"vielbein": _diag(diag), "weyl": "x0/4 - x1*x2/6",
            "ghosts": _default_ghosts(m)}


def _model_fields(model, m):
    """Everything of a scenario except its name, points and seed."""
    fields = {"dimension": m, "signature": _signature(m), "model": "mobius",
              "gauge": None, "normal": True}
    if model == "generic":
        fields.update(_diag_poly(m), gauge={"seeded": True})
    elif model == "torsionful":
        fields.update(_diag_poly(m), normal=False)
    elif model == "poincare":
        fields.update(_diag_poly(m), model="poincare")
    elif model == "constant-curvature":
        q = " + ".join(f"({s})*x{i}*x{i}" for i, s in enumerate(_signature(m)))
        fields.update(vielbein=_diag([f"1/(1 + ({q})/4)"] * m), weyl="x0/6",
                      ghosts=_default_ghosts(m))
    elif model == "ricci-flat-m4":
        fields.update(
            vielbein=[["sqrt(1 - 2/x1)", "0", "0", "0"],
                      ["0", "1/sqrt(1 - 2/x1)", "0", "0"],
                      ["0", "0", "x1", "0"],
                      ["0", "0", "0", "x1*sin(x2)"]],
            weyl="x1/20 - x0/30",
            ghosts={"eps": "1/2 + x1/9", "iota": ["1/2", "x1/8", "1/3", "x2/5"],
                    "lorentz": ["1/3", "x1/7", "1/4", "x2/6", "1/5", "x3/9"]})
    else:
        raise ValueError(f"unknown model {model!r}")
    return fields


def sample_points(model, m, seed):
    rng = random.Random(f"{seed}:{model}:{m}")
    count = SCHWARZSCHILD_POINTS if model == "ricci-flat-m4" else POINTS_PER_SCENARIO
    pts = []
    for _ in range(count):
        p = [round(rng.uniform(-COORD_BOX, COORD_BOX), 6) for _ in range(m)]
        if model == "ricci-flat-m4":
            p[1] = round(rng.uniform(*SCHWARZSCHILD_R), 6)
            p[2] = round(rng.uniform(*SCHWARZSCHILD_THETA), 6)
        pts.append(p)
    return pts


def scenario(model, m, seed, points=None):
    doc = _model_fields(model, m)
    doc.update(name=f"bench-{model}-m{m}", jet_order=JET_ORDER,
               tolerance=TOLERANCE, seed=seed,
               points=points if points is not None else sample_points(model, m, seed))
    return doc


def _write(path, doc):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def build_plan(workload, seed, workdir):
    """Write the workload's scenario files under ``workdir``; return the plan.

    The plan lists one pass's items and the untimed warm-up item: the gauge
    suite on the workload's first scenario, cut to its first point.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}: choose from {sorted(WORKLOADS)}")
    if seed < 0:
        raise ValueError("the seed must be a non-negative integer")
    os.makedirs(workdir, exist_ok=True)
    items = []
    written = {}
    for model, m, suite in WORKLOADS[workload]:
        path = os.path.join(workdir, f"{model}-m{m}.json")
        if path not in written:
            written[path] = scenario(model, m, seed)
            _write(path, written[path])
        items.append({"scenario": path, "suite": suite, "model": model, "m": m,
                      "points": len(written[path]["points"]),
                      "expected_rows": EXPECTED_ROWS[(model, suite)]})
    model, m, _ = WORKLOADS[workload][0]
    first = next(iter(written.values()))
    warm = scenario(model, m, seed, points=first["points"][:1])
    warm_path = os.path.join(workdir, "warmup.json")
    _write(warm_path, warm)
    warmup = {"scenario": warm_path, "suite": "gauge", "model": model, "m": m,
              "points": 1, "expected_rows": EXPECTED_ROWS[(model, "gauge")]}
    return {"workload": workload, "seed": seed, "items": items, "warmup": warmup}
