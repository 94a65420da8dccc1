"""One workload's process: import cartanweyl, warm up, then time passes.

Run by ``run.py`` with the thread-count variables set to 1 and ``src`` on
``PYTHONPATH``.  Every item is a ``cartanweyl check`` call made in-process
through ``cartanweyl.cli.main`` with stdout captured; its ``--json`` report
is read back and checked.  The last line of stdout is one JSON object.

  worker.py --plan PLAN --mode probe               set-up time only
  worker.py --plan PLAN --mode measure --seconds S untraced passes for S seconds
  worker.py --plan PLAN --mode trace --seconds S   untraced and traced passes
"""

import time

_T0 = time.perf_counter()   # set-up time counts from here: before cartanweyl is imported

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

from speed import SpeedProbe, at_reference  # noqa: E402


def run_item(cli, item, tracer=None, probe=None):
    """Run one CLI call; return (seconds net of probe time, gate dict)."""
    out_path = item["scenario"][:-len(".json")] + f".{item['suite']}.report.json"
    argv = ["check", "--scenario", item["scenario"], "--suite", item["suite"],
            "--json", out_path]
    before = len(probe.samples) if probe else 0
    with contextlib.redirect_stdout(io.StringIO()):
        if probe:
            probe.start()
        t = time.perf_counter()
        rc = cli.main(argv)
        dt = time.perf_counter() - t
        if probe:
            probe.stop()
            dt -= sum(probe.samples[before:])
    if tracer is not None:
        tracer.end_item()
    return dt, gate(item, rc, out_path)


def gate(item, rc, out_path):
    """Correctness of one report: exit code, finite passing rows, row count."""
    res = {"rc": rc, "rows": 0, "verified": 0, "worst_ratio": 0.0,
           "payload": None, "errors": []}
    if rc != 0:
        res["errors"].append(f"exit code {rc}")
    try:
        with open(out_path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        os.remove(out_path)
    except (OSError, json.JSONDecodeError) as ex:
        res["errors"].append(f"no readable report: {ex}")
        return res
    rows = doc["payload"]["checks"]
    res["payload"] = json.dumps(doc["payload"], sort_keys=True)
    res["rows"] = len(rows)
    for r in rows:
        resid, thr = float(r["residual"]), float(r["threshold"])
        if math.isfinite(resid):
            res["worst_ratio"] = max(res["worst_ratio"], resid / thr)
        if math.isfinite(resid) and r["pass"] and resid <= thr:
            res["verified"] += 1
        else:
            res["errors"].append(f"row {r['name']} failed: residual {r['residual']}")
    if len(rows) != item["expected_rows"]:
        res["errors"].append(f"{len(rows)} rows, expected {item['expected_rows']}")
    return res


def run_pass(cli, items, tracer=None, probe=None):
    """One pass over the items: wall (net of probe time), reference-speed wall, gates."""
    if probe:
        probe.samples = []
    wall = 0.0
    gates = []
    for item in items:
        dt, g = run_item(cli, item, tracer, probe)
        wall += dt
        gates.append(g)
    ref = at_reference(wall, probe.samples) if probe else wall
    return {"wall": wall, "ref_wall": ref, "gates": gates}


def judge(items, passes):
    """Fold the gates of every pass; a payload must repeat byte for byte."""
    attempted = failed = 0
    worst = 0.0
    errors = []
    first = [g["payload"] for g in passes[0]["gates"]]
    for p in passes:
        for item, g, ref in zip(items, p["gates"], first):
            attempted += 1
            errs = list(g["errors"])
            if g["payload"] != ref:
                errs.append("payload differs from the first pass")
            if errs:
                failed += 1
                errors.append(f"{item['model']} m={item['m']} {item['suite']}: "
                              + "; ".join(errs))
            worst = max(worst, g["worst_ratio"])
    return {"attempted": attempted, "failed": failed, "worst_ratio": worst,
            "errors": errors[:20]}


def measure(cli, items, seconds):
    probe = SpeedProbe()
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        passes.append(run_pass(cli, items, probe=probe))
    return {**judge(items, passes),
            "pass_walls": [p["ref_wall"] for p in passes],
            "raw_pass_walls": [p["wall"] for p in passes],
            "checks_verified": [sum(g["verified"] for g in p["gates"]) for p in passes],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}


def trace(cli, items, seconds):
    """Alternate untraced and traced passes; report the traced layers.

    Counts come from the first traced pass and must repeat exactly in every
    later one; times are medians over the traced passes.  Both sides are raw
    wall time, so their difference is the tracing overhead.
    """
    from tracer import Tracer

    points = sum(item["points"] for item in items)
    tracer = Tracer()
    untraced, traced, layer_runs = [], [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        untraced.append(run_pass(cli, items))
        tracer.reset()
        with tracer:
            traced.append(run_pass(cli, items, tracer))
        layer_runs.append({"buckets": tracer.buckets(), "spans": tracer.spans,
                           "metrics": tracer.metrics(points, traced[-1]["wall"],
                                                     untraced[-1]["wall"])})
    untraced_wall = statistics.median(p["wall"] for p in untraced)
    traced_wall = statistics.median(p["wall"] for p in traced)
    metrics = {}
    repeat = True
    for name, value in layer_runs[0]["metrics"].items():
        if isinstance(value, int):
            metrics[name] = value
            repeat &= all(r["metrics"][name] == value for r in layer_runs)
        else:
            metrics[name] = statistics.median(r["metrics"][name] for r in layer_runs)
    metrics["trace.wall_s"] = traced_wall
    metrics["trace.overhead_s"] = traced_wall - untraced_wall
    return {**judge(items, untraced + traced), "layer_metrics": metrics,
            "counts_repeat": repeat, "untraced_wall_s": untraced_wall,
            "traced_passes": len(traced), "buckets": layer_runs[-1]["buckets"],
            "spans": layer_runs[-1]["spans"]}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--plan", required=True)
    ap.add_argument("--mode", choices=("probe", "measure", "trace"), required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    args = ap.parse_args(argv)

    probe = SpeedProbe()
    probe.start()
    with open(args.plan, "r", encoding="utf-8") as fh:
        plan = json.load(fh)
    from cartanweyl import cli
    _, warm = run_item(cli, plan["warmup"])
    setup_raw = time.perf_counter() - _T0
    probe.stop()
    if warm["errors"]:
        print(f"warm-up item failed: {warm['errors']}", file=sys.stderr)
        return 1
    setup_net = setup_raw - sum(probe.samples)
    result = {"setup_s": at_reference(setup_net, probe.samples), "raw_setup_s": setup_raw}
    if args.mode != "probe":
        import numpy
        result["env"] = {"python": sys.version.split()[0], "numpy": numpy.__version__,
                         "nproc": os.cpu_count(),
                         "threads": {k: os.environ.get(k) for k in
                                     ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                      "MKL_NUM_THREADS")}}
        run = measure if args.mode == "measure" else trace
        result.update(run(cli, plan["items"], args.seconds))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
