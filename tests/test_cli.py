import json
import math
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import cartanweyl
from cartanweyl import brs, cartan, checks, cli, dressing, weyl
from cartanweyl.checks import SUITES, CheckRow, compute_tensors, dof_report, run_check
from cartanweyl.cli import main
from cartanweyl.errors import ExprSyntaxError, ScenarioError
from cartanweyl.orders import order_plan
from cartanweyl.scenarios import CATALOG_NAMES, MAX_JET_ORDER, Scenario, catalog


def test_scenario_json_round_trip(tmp_path):
    scn = catalog("diag-poly", 3)
    path = tmp_path / "scn.json"
    path.write_text(scn.to_json())
    loaded = Scenario.load(path)
    assert loaded.to_dict() == scn.to_dict()


def test_scenario_rejects_unknown_keys():
    with pytest.raises(ScenarioError):
        Scenario.from_dict({"dimension": 3, "points": [[0, 0, 0]], "bogus": 1})


def test_scenario_rejects_low_jet_order():
    """A file's legacy jet order key is still checked before it is dropped."""
    with pytest.raises(ScenarioError):
        Scenario.from_dict({"dimension": 3, "points": [[0.1, 0.2, 0.3]], "jet_order": 2})


def test_scenario_rejects_bad_expression():
    with pytest.raises(Exception):
        Scenario(name="x", dimension=3, signature=None,
                 vielbein=[["1 +", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
                 points=[(0.1, 0.2, 0.3)])


def test_catalog_names_all_construct():
    for name in CATALOG_NAMES:
        m = 4 if name == "ricci-flat-m4" else 3
        scn = catalog(name, m)
        assert scn.points


def test_flat_compute_tensors():
    rep = compute_tensors(catalog("flat", 3))
    assert rep.passed
    key = next(iter(rep.tensors))
    t = rep.tensors[key]
    assert np.abs(np.array(t["Gamma"])).max() == 0.0
    assert np.abs(np.array(t["W"])).max() == 0.0
    assert np.allclose(np.array(t["g"]), np.diag([1.0, -1.0, -1.0]))


def test_constant_curvature_compute():
    rep = compute_tensors(catalog("constant-curvature", 3))
    assert rep.passed
    for t in rep.tensors.values():
        g = np.array(t["g"])
        P = np.array(t["P"])
        assert np.abs(P - (-0.5) * g).max() < 1e-9


def test_ricci_flat_compute():
    rep = compute_tensors(catalog("ricci-flat-m4", 4))
    assert rep.passed
    for t in rep.tensors.values():
        assert np.abs(np.array(t["P"])).max() < 1e-8
        assert np.abs(np.array(t["C"])).max() < 1e-8
        assert np.abs(np.array(t["W"])).max() > 1e-3


def test_determinism_same_seed_same_payload():
    a = run_check(catalog("generic", 3), "dressing")
    b = run_check(catalog("generic", 3), "dressing")
    assert json.dumps(a.payload(), sort_keys=True) == \
        json.dumps(b.payload(), sort_keys=True)


# eight Schwarzschild points, r in (3, 6): two batches of checks.BATCH_SIZE = 4
SCHWARZSCHILD_8 = [(0.2, 3.7, 1.1, 0.4), (-0.1, 4.6, 1.4, 0.9), (0.05, 3.1, 1.2, -0.3),
                   (-0.25, 5.9, 1.3, 0.1), (0.3, 4.1, 1.15, -0.2), (0.0, 5.2, 1.35, 0.25),
                   (-0.2, 3.4, 1.25, 0.3), (0.15, 5.5, 1.05, -0.1)]

# twenty generic points: five batches
GENERIC_20 = [tuple(round(float(x), 6) for x in row)
              for row in np.random.default_rng(11).uniform(-0.31, 0.31, size=(20, 3))]

# five torsionful m = 4 points: one full batch and one partial batch
TORSIONFUL_5 = [tuple(round(float(x), 6) for x in row)
                for row in np.random.default_rng(5).uniform(-0.31, 0.31, size=(5, 4))]


@pytest.mark.parametrize("name, suite, m, points", [
    pytest.param("generic", "gauge", 3, None, id="generic-gauge"),
    pytest.param("generic", "all", 3, None, id="generic-all"),
    pytest.param("poincare", "all", 3, None, id="poincare-all"),
    pytest.param("torsionful", "all", 5, None, id="torsionful-all-m5"),
    pytest.param("constant-curvature", "all", 4, None, id="constant-curvature-all-m4"),
    pytest.param("ricci-flat-m4", "all", 4, SCHWARZSCHILD_8, id="ricci-flat-m4-all-8-points"),
    pytest.param("generic", "all", 3, GENERIC_20, id="generic-all-20-points"),
    # the T and f0 terms of the reduced Weyl laws vanish to rounding on generic
    pytest.param("torsionful", "brs", 4, TORSIONFUL_5, id="torsionful-brs-m4-5-points"),
    pytest.param("poincare", "brs", 5, None, id="poincare-brs-m5"),
])
def test_parallel_matches_sequential(name, suite, m, points):
    """One-point sub-scenarios with their point_offset merge to the full run,
    which runs its points in batches."""
    scn = catalog(name, m)
    if points is not None:
        scn.points = points
    full = run_check(scn, suite)
    merged = {}
    for idx, point in enumerate(scn.points):
        sub = Scenario.from_dict({**scn.to_dict(), "points": [point],
                                  "point_offset": idx})
        for row in run_check(sub, suite).rows:
            merged[row.name] = max(merged.get(row.name, 0.0), row.residual)
    assert sorted((r.name, r.residual) for r in full.rows) == sorted(merged.items())


@pytest.mark.parametrize("name", ["generic", "torsionful", "poincare"])
def test_all_is_the_union_of_single_suites(name):
    """The suites of one run share each point's connection and dressed fields;
    none may change them, so "all" reports exactly what the runs of the
    model's single suites report."""
    scn = catalog(name, 3)
    scn.points = scn.points[:1]

    def rows(report):
        return [(r.name, repr(r.residual), repr(r.threshold)) for r in report.rows]

    singles = [row for suite in SUITES if (scn.model, suite) in checks.SUITE_TABLE
               for row in rows(run_check(scn, suite))]
    assert rows(run_check(scn, "all")) == singles


@pytest.mark.parametrize("name, rescaled", [("generic", 1), ("poincare", 0)])
def test_suite_all_builds_each_point_once(name, rescaled, monkeypatch):
    """One normal and one scrambled connection per batch of points under
    --suite all, however many points the batch holds.

    The weyl suite's rescaled-vielbein route builds one more normal
    connection per batch, from z e rather than from the scenario vielbein.
    """
    counts = {"build_normal": 0, "base_connection": 0}

    def counted(fn):
        def wrapper(*args, **kwargs):
            counts[fn.__name__] += 1
            return fn(*args, **kwargs)
        return wrapper

    for fn in (checks.build_normal, checks.base_connection):
        monkeypatch.setattr(checks, fn.__name__, counted(fn))
    scn = catalog(name, 3)
    assert len(scn.points) > 1
    assert run_check(scn, "all").passed
    assert counts == {"build_normal": 1 + rescaled, "base_connection": 1}


def test_brs_suite_dresses_a_normal_input_once(monkeypatch):
    """On a normal, unscrambled input the linearization check reuses the
    context's dressed fields: one full_pipeline call per point."""
    calls = []
    original = dressing.full_pipeline

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(checks, "full_pipeline", counted)
    monkeypatch.setattr(dressing, "full_pipeline", counted)
    scn = catalog("diag-poly", 3)
    scn.points = scn.points[:1]
    assert run_check(scn, "brs").passed
    assert len(calls) == 1


@pytest.mark.parametrize("suite, builds", [("gauge", 5), ("dressing", 3)])
def test_each_gauge_is_built_once_per_point(suite, builds, monkeypatch):
    """The scramble, then the gauge suite's four elements or the dressing
    suite's unipotent and Lorentz elements: one matrices build each for the
    whole batch of points."""
    calls = []
    original = cartan.GaugeElement.matrices

    def counted(self, *args, **kwargs):
        calls.append(1)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(cartan.GaugeElement, "matrices", counted)
    scn = catalog("generic", 3)
    assert len(scn.points) > 1
    assert run_check(scn, suite).passed
    assert len(calls) == builds


def test_gr_dressing_builds_its_lorentz_element_at_the_order_it_moves(monkeypatch):
    """The Poincare dressing suite moves the connection cut to order 1, which
    reads the gauge matrices to order 2: its Lorentz element is built there."""
    orders = []
    original = cartan.GaugeElement.matrices

    def recorded(self, model, point, order):
        orders.append(order)
        return original(self, model, point, order)

    monkeypatch.setattr(cartan.GaugeElement, "matrices", recorded)
    assert run_check(catalog("poincare", 4), "dressing").passed
    assert orders == [2]


@pytest.mark.parametrize("suite, routes", [("gauge", 4), ("dressing", 2)])
def test_each_suite_moves_its_connection_once_per_gauge_element(suite, routes, monkeypatch):
    """The gauge suite's routes (gamma, gamma gamma_2, gamma_1, W) and the
    dressing suite's (gamma_1, S) are one stacked transform per batch; the
    only other transforms are the scramble and the gauge suite's second
    step of the right action."""
    stacks, calls = [], []
    transform_routes, gauge_transform = checks.transform_routes, checks.gauge_transform

    def stacked(conn, pairs):
        stacks.append(len(pairs))
        return transform_routes(conn, pairs)

    def counted(*args):
        calls.append(1)
        return gauge_transform(*args)

    monkeypatch.setattr(checks, "transform_routes", stacked)
    monkeypatch.setattr(checks, "gauge_transform", counted)
    scn = catalog("generic", 3)
    assert len(scn.points) > 1 and scn.gauge
    assert run_check(scn, suite).passed
    assert stacks == [routes]
    assert len(calls) == (3 if suite == "gauge" else 2)


def test_weyl_suite_evaluates_each_element_once_per_point(monkeypatch):
    """The scenario's Weyl element and the group law's second element: the
    group law reuses the (z, zeta) the suite already has."""
    calls = []
    original = weyl.WeylElement.at

    def counted(self, *args, **kwargs):
        calls.append(1)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(weyl.WeylElement, "at", counted)
    scn = catalog("generic", 3)
    scn.points = scn.points[:1]
    assert run_check(scn, "weyl").passed
    assert len(calls) == 2


def _count_calls(monkeypatch, names, scn, suite):
    """Calls of each function in ``names`` while ``suite`` runs on ``scn``,
    patched in every module that looks it up."""
    counts = dict.fromkeys(names, 0)

    def counted(fn):
        def wrapper(*args, **kwargs):
            counts[fn.__name__] += 1
            return fn(*args, **kwargs)
        return wrapper

    with monkeypatch.context() as mp:
        for name in names:
            home = dressing if name in ("u0_from_vielbein", "extract_u1") else weyl
            wrapped = counted(getattr(home, name))
            for module in (checks, weyl, dressing, brs):
                if hasattr(module, name):
                    mp.setattr(module, name, wrapped)
        assert run_check(scn, suite).passed
    return counts


def test_weyl_suite_builds_each_weyl_matrix_once(monkeypatch):
    """Per batch of points: one bundle for the scenario's rescaling, shared
    by the conjugation, the midlevel action, the k1/u1 commutator, route
    three and the group law's first step; two more for the group law's
    second step and its product.  The closed form of Wbar is built for its
    own row only.

    Each vielbein gets one u0: the batch's dressing, the group law's second
    step, and the two routes that dress a connection again (4 per batch).
    The brs suite builds the batch's dressing once and the linearization's
    once, whose u0 also moves the linearization's dressed pair."""
    scn = catalog("generic", 3)
    n = len(scn.points)
    assert n > 1
    counts = _count_calls(monkeypatch, ("weyl_matrices", "weyl_transform_dressed",
                                        "wbar_closed_form", "u0_from_vielbein"),
                          scn, "weyl")
    assert counts == {"weyl_matrices": 3, "weyl_transform_dressed": 3,
                      "wbar_closed_form": 1, "u0_from_vielbein": 4}
    for name in ("generic", "diag-poly"):
        scn = catalog(name, 3)
        counts = _count_calls(monkeypatch, ("u0_from_vielbein",), scn, "brs")
        assert len(scn.points) <= checks.BATCH_SIZE
        assert counts == {"u0_from_vielbein": 2}, name


def test_dressing_suite_dresses_each_connection_once(monkeypatch):
    """Per batch of points the dressing suite builds u0 and u1 once for the
    batch's dressed fields and once for its two routes, dressed together;
    the compat_* rows read those dressings and build none of their own."""
    scn = catalog("generic", 4)
    assert 1 < len(scn.points) <= checks.BATCH_SIZE
    counts = _count_calls(monkeypatch, ("u0_from_vielbein", "extract_u1"), scn, "dressing")
    assert counts == {"u0_from_vielbein": 2, "extract_u1": 2}


def test_cli_check_pass(tmp_path, capsys):
    out = tmp_path / "rep.json"
    code = main(["check", "--catalog", "flat", "--suite", "gauge",
                 "--json", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert all(c["pass"] for c in doc["payload"]["checks"])
    assert "wall_time_s" in doc["meta"]


def test_cli_dof(capsys):
    code = main(["dof", "-m", "4"])
    assert code == 0
    table = json.loads(capsys.readouterr().out)
    assert table["starting"]["variables"] == 60
    assert table["starting"]["symmetries"] == 11
    assert table["starting"]["total"] == 9


def test_cli_bad_scenario_is_input_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code = main(["check", "--scenario", str(path)])
    assert code == 2


def test_cli_degenerate_vielbein_names_point(tmp_path, capsys):
    scn = catalog("diag-poly", 3)
    d = scn.to_dict()
    d["vielbein"][0][0] = "x0"
    d["points"] = [[0.0, 0.1, 0.2]]
    path = tmp_path / "degenerate.json"
    path.write_text(json.dumps(d))
    code = main(["check", "--scenario", str(path), "--suite", "gauge"])
    err = capsys.readouterr().err
    assert code == 2
    assert "0.0, 0.1, 0.2" in err


def test_cli_compute_and_transform(tmp_path):
    assert main(["compute", "--catalog", "flat"]) == 0
    assert main(["transform", "--catalog", "flat"]) == 0
    assert main(["brs", "--catalog", "flat"]) == 0


def test_cli_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "cartanweyl.cli", "dof", "-m", "3"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    table = json.loads(proc.stdout)
    assert table["conformal_class"] == 5


@pytest.mark.parametrize("name", ["generic", "poincare"])
def test_check_never_loads_the_grassmann_algebra(name):
    """Every field of a check is a dense array: a full run in a fresh
    process imports no per-entry Grassmann algebra."""
    script = ("import sys; from cartanweyl.cli import main; "
              f"code = main(['check', '--catalog', '{name}', '--dimension', '3', "
              "'--suite', 'all']); print(code, 'cartanweyl.grassmann' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.stdout.split()[-2:] == ["0", "False"], proc.stderr


def test_package_exports_no_per_entry_name():
    assert not {"Jet", "eval_jet", "GradedScalar", "wedge", "ext_d"} & set(cartanweyl.__all__)


def test_failed_check_exit_code(tmp_path):
    scn = catalog("flat", 3)
    scn.tolerance = -1.0  # force every residual to fail
    rep = run_check(scn, "gauge")
    assert not rep.passed


def test_dof_rejects_small_m():
    with pytest.raises(ScenarioError):
        dof_report(2)


@pytest.mark.parametrize("m", range(3, 9))
def test_dof_columns_agree(m):
    table = dof_report(m)
    want = m * (m + 1) // 2 - 1
    assert table["starting"]["total"] == want
    assert table["outcoming"]["total"] == want
    assert table["columns_agree"]


def test_dof_m3_frozen_values():
    table = dof_report(3)
    assert table["starting"]["variables"] == 30
    assert table["starting"]["symmetries"] == 7
    assert table["starting"]["constraints"] == {"torsion": 9, "ricci": 6, "trace": 3}
    assert table["starting"]["total"] == 5


# (catalog name, dimension, suite, golden file): the flat gauge report and
# the two ghost suites, whose rows only a row count guarded before
GOLDEN_REPORTS = (("flat", 3, "gauge", "flat_gauge_structure.json"),
                  ("generic", 3, "brs", "generic_m3_brs_structure.json"),
                  ("poincare", 3, "all", "poincare_m3_all_structure.json"))


def test_golden_report_structure():
    """Each golden report keeps its check names, thresholds and flags."""
    import pathlib
    for name, m, suite, golden_file in GOLDEN_REPORTS:
        golden = json.loads((pathlib.Path(__file__).parent / "golden" / golden_file).read_text())
        payload = run_check(catalog(name, m), suite).payload()
        got = {
            "scenario_name": payload["scenario"]["name"],
            "checks": [{"name": c["name"], "threshold": c["threshold"],
                        "pass": c["pass"]} for c in payload["checks"]],
        }
        assert got == golden, golden_file


def test_cli_tolerance_flag(tmp_path):
    out = tmp_path / "r.json"
    code = main(["check", "--catalog", "flat", "--suite", "gauge",
                 "--tolerance", "1e-3", "--json", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["payload"]["scenario"]["tolerance"] == 1e-3


def test_a_row_takes_the_first_nan_else_the_first_largest_value(monkeypatch):
    """Over two batches of points a NaN at a point of the second batch beats
    larger finite values before and after it, and a tie across batches
    names the lower point."""
    values = {"nan": [1e3, 1.0, 2.0, 3.0, 4.0, math.nan, 1e4],
              "tie": [0.0, 1.0, 7.0, 1.0, 0.0, 7.0, 7.0]}

    def per_point(ctx):
        idx = [s[1] for s in ctx.seed]
        return {row: np.array([v[i] for i in idx]) for row, v in values.items()}

    monkeypatch.setitem(checks.SUITE_TABLE, ("mobius", "gauge"), ("gauge", per_point, ()))
    scn = catalog("generic", 3)
    scn.points = [scn.points[i % len(scn.points)] for i in range(7)]
    assert len(scn.points) > checks.BATCH_SIZE
    report = run_check(scn, "gauge")
    rows = {r.name: r for r in report.rows}
    assert math.isnan(rows["gauge/nan"].residual) and rows["gauge/nan"].worst_point == 5
    assert rows["gauge/tie"].residual == 7.0 and rows["gauge/tie"].worst_point == 2


def test_non_finite_residual_never_passes():
    assert CheckRow("x", math.nan, 1.0).passed is False
    assert CheckRow("x", math.inf, math.inf).passed is False
    assert CheckRow("x", 0.5, 1.0).passed is True


def _one_point_m3():
    d = catalog("generic", 3).to_dict()
    d["points"] = d["points"][:1]
    return d


BAD_INPUTS = {
    "jet_order_string": {"jet_order": "4"},
    "jet_order_bool": {"jet_order": True},
    "jet_order_huge": {"jet_order": 10 ** 6},
    "mobius_jet_order_3": {"jet_order": 3},
    "unknown_model": {"model": "nope"},
    "mobius_m2": {"dimension": 2, "signature": [1, -1], "points": [[0.1, 0.2]],
                  "vielbein": [["1", "0"], ["0", "1"]], "gauge": None, "weyl": None,
                  "ghosts": None},
    "huge_dimension": {"dimension": 99},
    "signature_entry": {"signature": [1, 2, -1]},
    "signature_length": {"signature": [1, -1]},
    "signature_text": {"signature": "abc"},
    "negative_tolerance": {"tolerance": -1e-9},
    "nan_tolerance": {"tolerance": math.nan},
    "nan_point": {"points": [[math.nan, 0.1, 0.2]]},
    "inf_point": {"points": [[math.inf, 0.1, 0.2]]},
    "text_point": {"points": [["a", 0.1, 0.2]]},
    "points_not_list": {"points": 5},
    "negative_seed": {"seed": -1},
    "ghost_arity": {"ghosts": {"eps": "1/2", "iota": ["1"], "lorentz": None}},
    "ghost_not_text": {"ghosts": {"eps": 3}},
    "gauge_not_object": {"gauge": [1]},
    "unknown_variable": {"weyl": "x7"},
    "deep_nesting": {"weyl": "(" * 3000 + "x0" + ")" * 3000},
    "huge_exponent": {"weyl": "x0^1000000000"},
    "exponent_past_int_digit_limit": {"weyl": "x0^" + "9" * 5000},
    "superscript_exponent": {"weyl": "x0^²"},
    "superscript_digit": {"weyl": "1/3²"},
    "arabic_indic_digit": {"weyl": "٣*x0"},
    "literal_past_float_range": {"weyl": "x0*" + "9" * 400},
    "literal_past_int_digit_limit": {"weyl": "0." + "0" * 5000 + "1"},
    "vielbein_superscript_exponent": {"vielbein": [["x0^²", "0", "0"], ["0", "1", "0"],
                                                   ["0", "0", "1"]]},
    "poincare_not_normal": {"model": "poincare", "normal": False},
    "not_an_object": None,
}


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_cli_bad_input_exits_2(case, tmp_path, capsys):
    doc = [1, 2] if BAD_INPUTS[case] is None else {**_one_point_m3(), **BAD_INPUTS[case]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    start = time.perf_counter()
    code = main(["check", "--scenario", str(path), "--suite", "gauge"])
    elapsed = time.perf_counter() - start
    err = capsys.readouterr().err
    assert code == 2
    assert "Traceback" not in err and err.startswith("error:")
    if "jet_order" in case:   # refused by the legacy key's own check
        assert "jet order must be an integer" in err
    assert elapsed < 1.0   # rejected at validation, before any jet arithmetic


@pytest.mark.parametrize("key,suite", [("weyl", "weyl"), ("vielbein", "gauge")])
def test_folded_coefficient_past_float_range_exits_2(key, suite, tmp_path, capsys):
    """Each literal of (10^11)^64 is in range, so validation takes the file;
    the suite that compiles the expression refuses the folded 10^704."""
    doc = _one_point_m3()
    text = "(100000000000)^64*x0"
    if key == "weyl":
        doc["weyl"] = text
    else:
        doc["vielbein"][0][0] = text
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code = main(["check", "--scenario", str(path), "--suite", suite])
    err = capsys.readouterr().err
    assert code == 2
    assert "Traceback" not in err and err.startswith(f"error: [{suite} suite]")
    assert "past the float range" in err
    assert main(["check", "--scenario", str(path)]) == 2


def test_suite_error_keeps_its_type_and_exits_2(tmp_path, capsys):
    """An error raised inside a suite gets the suite's label without a new
    instance: ExprSyntaxError keeps its type and its pos."""
    doc = catalog("diag-poly", 3).to_dict()
    doc["points"] = doc["points"][:1]
    doc["weyl"] = " + ".join(["x0/4000"] * 1500)
    with pytest.raises(ExprSyntaxError) as info:
        run_check(Scenario.from_dict(doc), "weyl")
    assert info.value.pos == 0 and str(info.value).startswith("[weyl suite]")
    path = tmp_path / "deep.json"
    path.write_text(json.dumps(doc))
    code = main(["check", "--scenario", str(path), "--suite", "weyl"])
    err = capsys.readouterr().err
    assert code == 2
    assert "Traceback" not in err and err.startswith("error:")
    assert "[weyl suite]" in err and "nested too deeply" in err


def _overflow_doc(case):
    """(scenario document, suite) of an overflow case."""
    doc = json.loads((Path(__file__).parents[1] / "scenarios" / "demo-diag-poly.json")
                     .read_text())
    big = "x0*10000"   # the first point has x0 = 0.23: exp, cosh of 2300
    # 0.23e-200: sqrt and 1/ have finite values there but derivatives past
    # the float range
    tiny = "x0*0." + "0" * 199 + "1"
    if case == "weyl":
        doc["weyl"] = big
    elif case == "dressing":
        doc["vielbein"][0][0] = f"exp({big})"
    elif case == "brs":
        doc["ghosts"]["eps"] = f"exp({big})"
    elif case == "gauge":
        doc["gauge"] = {"so": [big, "0", "0"]}
    elif case == "tiny_sqrt_weyl":
        # a deformed input: no normality row stands between the NaN and a FAIL
        doc["points"], doc["normal"] = doc["points"][:1], False
        doc["weyl"] = f"sqrt({tiny})"
        return doc, "weyl"
    else:
        doc["points"] = doc["points"][:1]
        doc["vielbein"][0][0] = f"1/({tiny})"
        return doc, "weyl"
    return doc, case


@pytest.mark.parametrize("case", ["weyl", "dressing", "brs", "gauge", "tiny_sqrt_weyl",
                                  "tiny_reciprocal_vielbein"])
def test_jet_overflow_exits_2(case, tmp_path, capsys):
    """exp, cosh and sinh of an argument past the float range, and sqrt and 1/
    of a value whose derivatives are past it, are bad input."""
    doc, suite = _overflow_doc(case)
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(doc))
    code = main(["check", "--scenario", str(path), "--suite", suite])
    err = capsys.readouterr().err
    assert code == 2
    assert "Traceback" not in err and err.startswith("error:")
    assert "overflows in jet evaluation" in err


def _legacy_file(tmp_path, name, m, order):
    """The catalog scenario as a file, with the legacy key ``jet_order`` set
    to ``order`` (left out for None)."""
    doc = catalog(name, m).to_dict()
    if order is not None:
        doc["jet_order"] = order
    path = tmp_path / f"{name}-{order}.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize("name, model", [("generic", "mobius"), ("poincare", "poincare")])
def test_lowest_admitted_jet_order_runs_every_suite(name, model, tmp_path, capsys):
    """A file's legacy jet order key is refused below the model's build order,
    and a file at that order runs every suite."""
    low = order_plan(model).build
    base = ["check", "--suite", "all", "--scenario"]
    assert main(base + [_legacy_file(tmp_path, name, 3, low - 1)]) == 2
    assert f"[{low}, " in capsys.readouterr().err
    assert main(base + [_legacy_file(tmp_path, name, 3, low)]) == 0


@pytest.mark.parametrize("name, m", [("generic", 3), ("torsionful", 3),
                                     ("constant-curvature", 3), ("ricci-flat-m4", 4),
                                     ("poincare", 4)])
def test_check_rows_do_not_depend_on_the_jet_order(name, m, tmp_path):
    """Every point is built at the model's build order, so a file's legacy
    jet order key changes nothing: at that order, at the ceiling and left
    out, --suite all reports the same rows byte for byte, and no report
    echoes the key."""
    def report(order):
        out = tmp_path / "r.json"
        assert main(["check", "--suite", "all", "--json", str(out), "--scenario",
                     _legacy_file(tmp_path, name, m, order)]) == 0
        payload = json.loads(out.read_text())["payload"]
        assert "jet_order" not in payload["scenario"]
        return json.dumps(payload["checks"])

    low = order_plan(catalog(name, m).model).build
    assert report(low) == report(MAX_JET_ORDER) == report(None)


@pytest.mark.parametrize("name", ["generic", "torsionful"])
def test_routes_dress_connections_of_order_one(name, monkeypatch):
    """The batch's dressed fields dress its input connection at order 2, the
    build order's connection, once for all its points; every route, and the
    linearization check on an input it cannot reuse them for, dresses a
    connection of order 1."""
    orders = []
    stages = dressing.dress

    def recorded(conn, e=None):
        orders.append(conn.order)
        return stages(conn, e)

    monkeypatch.setattr(dressing, "dress", recorded)
    monkeypatch.setattr(checks, "dress", recorded)
    scn = catalog(name, 3)
    assert len(scn.points) > 1
    assert run_check(scn, "all").passed
    assert orders.count(2) == 1
    assert set(orders) == {1, 2}


@pytest.mark.parametrize("argv", [["transform", "--catalog", "poincare"],
                                  ["check", "--catalog", "poincare", "--suite", "weyl"]])
def test_suite_the_model_lacks_exits_2(argv, capsys):
    """A single suite with no entry for the model is refused, not run empty."""
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "poincare" in err and "weyl" in err


def test_compute_on_a_poincare_scenario_exits_2(tmp_path, capsys):
    """compute dumps the Moebius dressing's tensors: a Poincare scenario is
    bad input, refused before any report is written."""
    path = tmp_path / "r.json"
    assert main(["compute", "--catalog", "poincare", "--json", str(path)]) == 2
    out, err = capsys.readouterr()
    assert err.startswith("error:") and "poincare" in err and "Traceback" not in err
    assert out == "" and not path.exists()


@pytest.mark.parametrize("argv", [["check", "--catalog", "flat", "--suite", "gauge"],
                                  ["dof", "-m", "3"]], ids=["check", "dof"])
def test_unwritable_json_path_exits_2(argv, tmp_path, capsys):
    """A report that cannot be written is bad input: exit 2 with an error
    line, not a traceback and exit 1."""
    path = tmp_path / "missing" / "r.json"
    assert main(argv + ["--json", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write report") and str(path) in err
    assert "Traceback" not in err and not path.exists()


def test_out_of_memory_exits_2(monkeypatch, capsys):
    def exhausted(*args, **kwargs):
        raise MemoryError
    monkeypatch.setattr(cli, "run_check", exhausted)
    assert main(["check", "--catalog", "flat", "--suite", "gauge"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "out of memory" in err
    assert "lower the dimension" in err and "jet order" not in err
    assert "Traceback" not in err


@pytest.mark.parametrize("flags", [["--tolerance", "-1"], ["--jet-order", "5"],
                                   ["--seed", "-3"], ["--dimension", "2"]])
def test_cli_bad_override_exits_2(flags, capsys):
    argv = ["check", "--catalog", "flat", "--suite", "gauge"] + flags
    if flags[0] == "--jet-order":
        # no such flag: argparse refuses it with its usage message
        with pytest.raises(SystemExit) as info:
            main(argv)
        code = info.value.code
    else:
        code = main(argv)
    assert code == 2
    assert "Traceback" not in capsys.readouterr().err


_ANY = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 9), st.text(max_size=6),
    st.floats(allow_nan=True, allow_infinity=True),
    st.lists(st.one_of(st.integers(-2, 2), st.floats(-1, 1), st.text(max_size=4)),
             max_size=4),
    st.dictionaries(st.sampled_from(["eps", "iota", "z", "seeded", "q"]),
                    st.one_of(st.text(max_size=4), st.booleans()), max_size=2),
)


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(key=st.sampled_from(sorted(_one_point_m3())), value=_ANY)
@example(key="weyl", value="x0^²")
@example(key="weyl", value="x0*" + "9" * 400)
def test_cli_fuzzed_scenario_never_escapes(key, value, capsys):
    doc = {**_one_point_m3(), key: value}
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzz.json"
        path.write_text(json.dumps(doc))
        code = main(["check", "--scenario", str(path), "--suite", "gauge"])
    assert code in (0, 1, 2)
    assert "Traceback" not in capsys.readouterr().err


def _expression_texts(scn):
    """Every expression string of a scenario."""
    out = set()
    for val in [scn.vielbein, scn.weyl, scn.gauge, scn.ghosts]:
        stack = [val]
        while stack:
            x = stack.pop()
            if isinstance(x, str):
                out.add(x)
            elif isinstance(x, dict):
                stack.extend(x.values())
            elif isinstance(x, list):
                stack.extend(x)
    return out


@pytest.mark.parametrize("scn", [catalog("generic", 3), catalog("poincare", 4),
                                 Scenario.load(Path(__file__).resolve().parents[1]
                                               / "scenarios" / "demo-generic-m4.json")],
                         ids=["generic", "poincare", "demo-generic-m4"])
def test_one_check_run_parses_each_expression_once(scn, tmp_path, monkeypatch, capsys):
    """Validation keeps the parse trees and the suites compile those: in a
    whole ``check --suite all`` run every expression text is parsed exactly
    once, each of the scenario's own among them."""
    from cartanweyl import exprs, scenarios
    path = tmp_path / "scn.json"
    path.write_text(scn.to_json())
    texts = []
    parse = exprs.parse_expr

    def counted(text, variables=None):
        texts.append(text)
        return parse(text, variables)

    monkeypatch.setattr(exprs, "parse_expr", counted)
    monkeypatch.setattr(scenarios, "parse_expr", counted)
    assert main(["check", "--scenario", str(path), "--suite", "all"]) == 0
    assert len(texts) == len(set(texts))
    assert _expression_texts(scn) <= set(texts)
