"""Self-tests of the benchmark: tracer hygiene, trace-neutral reports, the gate.

  PYTHONPATH=src python3 -m pytest -q perfbench
"""

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

from cartanweyl import cli  # noqa: E402
import run  # noqa: E402
import tracer as tracer_mod  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

# one-point items that reach every layer: float suites and the Lorentz ghost algebra
SMALL = (("generic", 3, "weyl"), ("poincare", 3, "all"))


@pytest.fixture(scope="module")
def items(tmp_path_factory):
    d = tmp_path_factory.mktemp("scenarios")
    out = []
    for model, m, suite in SMALL:
        doc = workloads.scenario(model, m, seed=5,
                                 points=workloads.sample_points(model, m, 5)[:1])
        path = d / f"{model}-{m}.json"
        path.write_text(json.dumps(doc))
        out.append({"scenario": str(path), "suite": suite, "model": model, "m": m,
                    "points": 1, "expected_rows": workloads.EXPECTED_ROWS[(model, suite)]})
    return out


def _bindings():
    """Every module attribute, class-dict entry and module-level table of the package."""
    snap = {}
    for modname, mod in list(sys.modules.items()):
        if mod is None or not modname.startswith(tracer_mod.PACKAGE):
            continue
        for name, val in vars(mod).items():
            snap[(modname, name)] = val
            if isinstance(val, dict):
                for k, v in val.items():
                    snap[(modname, name, k)] = v
            if isinstance(val, type) and val.__module__ == modname:
                for attr, raw in vars(val).items():
                    snap[(modname, name, "." + attr)] = raw
    return snap


def _traced_run(items):
    t = tracer_mod.Tracer()
    with t:
        passed = worker.run_pass(cli, items, t)
    return t, passed


def test_tracer_restores_every_binding(items):
    t = tracer_mod.Tracer()   # imports every layer module first
    before = _bindings()
    with t:
        import cartanweyl.forms as forms
        import cartanweyl.jets as jets
        assert forms.jmat_mul is jets.jmat_mul
        assert forms.jmat_mul is not before[("cartanweyl.jets", "jmat_mul")]
        assert forms.MForm.wedge is not before[("cartanweyl.forms", "MForm", ".wedge")]
        worker.run_pass(cli, items, t)
    after = _bindings()
    assert not t.installed
    assert before.keys() == after.keys()
    changed = [k for k in before if before[k] is not after[k]]
    assert changed == []


def test_traced_payload_is_byte_identical(items):
    plain = worker.run_pass(cli, items)
    _, traced = _traced_run(items)
    for a, b in zip(plain["gates"], traced["gates"]):
        assert a["errors"] == [] and b["errors"] == []
        assert a["payload"] == b["payload"]


def test_layer_counts_repeat_exactly(items):
    runs = []
    for _ in range(2):
        t, p = _traced_run(items)
        runs.append(t.metrics(points=len(items), traced_wall=p["wall"], untraced_wall=p["wall"]))
    counts = {k: v for k, v in runs[0].items() if isinstance(v, int)}
    assert counts["jets.jmul.calls"] > 0 and counts["grassmann.mul.calls"] > 0
    assert counts["brs.ev.calls"] > 0 and counts["forms.wedge_ghost.calls"] > 0
    assert all(runs[1][k] == v for k, v in counts.items())


def test_metric_lists_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    e2e = [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]]
    layers = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    assert e2e == list(run.END_TO_END)
    assert layers == list(tracer_mod.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    t = tracer_mod.Tracer()
    assert set(t.metrics(points=1, traced_wall=1.0, untraced_wall=1.0)) == {n for n, _, _ in layers}


def _gate_on(tmp_path, rows, rc=0, expected=None):
    path = tmp_path / "report.json"
    path.write_text(json.dumps({"payload": {"checks": rows}}))
    item = {"expected_rows": len(rows) if expected is None else expected}
    return worker.gate(item, rc, str(path))


def _row(name, residual, threshold=1e-9, passed=True):
    return {"name": name, "residual": repr(residual), "threshold": repr(threshold),
            "pass": passed}


def test_gate_accepts_a_clean_report(tmp_path):
    g = _gate_on(tmp_path, [_row("a", 1e-12), _row("b", 1e-10)])
    assert g["errors"] == [] and g["verified"] == 2
    assert g["worst_ratio"] == pytest.approx(0.1)


@pytest.mark.parametrize("rows, rc, expected", [
    ([_row("a", float("nan"), passed=True)], 0, None),
    ([_row("a", 1e-6, passed=False)], 1, None),
    ([_row("a", 1e-12)], 0, 2),
    ([_row("a", 1e-12)], 2, None),
])
def test_gate_rejects(tmp_path, rows, rc, expected):
    g = _gate_on(tmp_path, rows, rc, expected)
    assert g["errors"]


def test_workload_inputs_follow_the_seed(tmp_path):
    a = workloads.build_plan("float-suites", 7, str(tmp_path / "a"))
    b = workloads.build_plan("float-suites", 7, str(tmp_path / "b"))
    c = workloads.build_plan("float-suites", 8, str(tmp_path / "c"))

    def files(plan):
        return [open(i["scenario"]).read() for i in plan["items"]]

    assert files(a) == files(b) and files(a) != files(c)
    for item in a["items"]:
        doc = json.loads(open(item["scenario"]).read())
        assert doc["seed"] == 7
        for p in doc["points"]:
            if item["model"] == "ricci-flat-m4":
                assert 3 < p[1] < 6 and abs(p[0]) <= 0.31 and abs(p[3]) <= 0.31
            else:
                assert max(abs(x) for x in p) <= 0.31
