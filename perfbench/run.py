"""cartanweyl benchmark: verified reports through the CLI, end to end and per layer.

  python3 perfbench/run.py --workload float-suites --seed 1 --seconds 20 --trace 0
  python3 perfbench/run.py --workload all            # every workload, one table

Run from the repository root; the program is imported from ``src``.  The
scenario files are generated from ``--seed`` under ``perfbench/out``.  Each
workload runs in its own processes with one BLAS/OpenMP thread: several
fresh set-up probes, then one process that times passes for ``--seconds``
seconds (``--trace 0``) or alternates untraced and traced passes
(``--trace 1``).  The last line of stdout is a JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  Untraced times are
given at a fixed reference machine speed (see ``speed.py``); the raw medians
are printed beside them.  A full record,
with the machine, the seed and (traced) the layer table and spans, is
written to ``perfbench/out/<workload>-seed<seed>-trace<t>.json``.
"""

from __future__ import annotations

import argparse
import compileall
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

from tracer import PER_LAYER  # noqa: E402
from workloads import WORKLOADS, build_plan  # noqa: E402

SETUP_PROBES = 6      # fresh processes; the measuring process adds one more sample
RUN_LIMIT_S = 170     # every process of one run ends within this many seconds

# (name, unit, better) of every end-to-end metric.
END_TO_END = (
    ("wall_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("headroom_digits", "digits", "higher"),
    ("checks_verified", "count", "higher"),
    ("pass_frac", "ratio", "higher"),
)


class BenchError(Exception):
    pass


def child_env():
    env = dict(os.environ)
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONHASHSEED="0")
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_worker(plan_path, mode, seconds, deadline):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--plan", plan_path,
           "--mode", mode, "--seconds", str(seconds)]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError(f"no time left for the {mode} process")
    try:
        proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as ex:
        raise BenchError(f"{mode} process exceeded the {RUN_LIMIT_S} s run limit") from ex
    if proc.returncode != 0:
        raise BenchError(f"{mode} process exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(res, setups, items):
    """The six end-to-end metrics of one measured run."""
    passes = len(res["pass_walls"])
    return {
        "wall_s": statistics.median(res["pass_walls"]),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": res["peak_rss_mb"],
        # finite rows only; 0 when no report had one
        "headroom_digits": -math.log10(res["worst_ratio"]) if res["worst_ratio"] > 0 else 0.0,
        "checks_verified": min(res["checks_verified"]),
        "pass_frac": (res["attempted"] - res["failed"]) / res["attempted"],
        "passes": passes,
        "items": len(items),
    }


def run_workload(workload, seed, seconds, trace):
    """Run one workload; return (result line dict, report lines, record)."""
    deadline = time.monotonic() + RUN_LIMIT_S
    workdir = os.path.join(OUT, f"work-{workload}-{seed}-{os.getpid()}")
    try:
        plan = build_plan(workload, seed, workdir)
        plan_path = os.path.join(workdir, "plan.json")
        with open(plan_path, "w", encoding="utf-8") as fh:
            json.dump(plan, fh, indent=2)
        if trace:
            res = run_worker(plan_path, "trace", seconds, deadline)
            probes = []
        else:
            probes = [run_worker(plan_path, "probe", seconds, deadline)
                      for _ in range(SETUP_PROBES)]
            res = run_worker(plan_path, "measure", seconds, deadline)
        probes.append(res)
        setups = [p["setup_s"] for p in probes]
        raw_setups = [p["raw_setup_s"] for p in probes]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    env = dict(res["env"], seed=seed, workload=workload, run_seconds=seconds,
               trace=trace)
    lines = [f"# {workload}  seed={seed}  trace={trace}  nproc={env['nproc']}  "
             f"python={env['python']}  numpy={env['numpy']}  "
             f"threads={','.join(f'{k}={v}' for k, v in env['threads'].items())}"]
    if trace:
        values = res["layer_metrics"]
        units = {n: u for n, u, _ in PER_LAYER}
        lines += layer_table(res)
    else:
        values = end_to_end(res, setups, plan["items"])
        units = {n: u for n, u, _ in END_TO_END}
        lines.append(f"#   {values['items']} items per pass, {values['passes']} passes, "
                     f"{len(setups)} set-up samples; raw medians: pass "
                     f"{statistics.median(res['raw_pass_walls']):.4f} s, set-up "
                     f"{statistics.median(raw_setups):.4f} s")
    for name, unit in units.items():
        lines.append(f"{name:34s} {values[name]:>14.6g} {unit}")
    for err in res["errors"]:
        lines.append(f"FAILED {err}")
    metrics = {n: {"value": values[n], "unit": u} for n, u in units.items()}
    result = {"correct": res["failed"] == 0 and (not trace or res["counts_repeat"]),
              "attempted": res["attempted"], "failed": res["failed"],
              "metrics": metrics}
    record = {"env": env, "result": result, "setup_samples": setups,
              "raw_setup_samples": raw_setups,
              **{k: v for k, v in res.items() if k not in ("env", "setup_s", "raw_setup_s")}}
    return result, lines, record


def layer_table(res):
    """Per-layer counts and self times, largest self time first."""
    traced, untraced = res["layer_metrics"]["trace.wall_s"], res["untraced_wall_s"]
    rows = sorted(res["buckets"].items(), key=lambda kv: -kv[1][1])
    lines = [f"#   traced pass {traced:.3f} s, untraced {untraced:.3f} s, "
             f"tracing overhead {traced - untraced:.3f} s "
             f"({res['traced_passes']} traced passes; counts repeat: {res['counts_repeat']})",
             f"#   {'layer':14s} {'calls':>10s} {'self_s':>9s} {'share':>6s}"]
    for name, (calls, self_s) in rows:
        lines.append(f"#   {name:14s} {calls:>10d} {self_s:>9.3f} {self_s / traced:>6.1%}")
    return lines


def write_record(workload, seed, trace, record):
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"{workload}-seed{seed}-trace{trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    return path


def main(argv=None):
    ap = argparse.ArgumentParser(description="cartanweyl benchmark")
    ap.add_argument("--workload", default="all", choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "cartanweyl", "__init__.py")):
        print(f"error: no cartanweyl sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds <= 0:
        print("error: --seed must be >= 0 and --seconds > 0", file=sys.stderr)
        return 2
    compileall.compile_dir(os.path.join(SRC, "cartanweyl"), quiet=1)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        try:
            result, lines, record = run_workload(name, args.seed, args.seconds, args.trace)
        except BenchError as ex:
            print(f"error: {name}: {ex}", file=sys.stderr)
            return 1
        print("\n".join(lines))
        print(f"#   record: {os.path.relpath(write_record(name, args.seed, args.trace, record), ROOT)}")
        results[name] = result
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{w}.{n}": v for w, r in results.items()
                             for n, v in r["metrics"].items()}}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
