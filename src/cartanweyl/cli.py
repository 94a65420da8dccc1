"""Command-line interface: scenario checks, tensor dumps, DOF table.

Subcommands:
  check      run a verification suite (gauge | dressing | weyl | brs | all)
  compute    dump the extracted tensors at every sample point
  transform  finite Weyl action cross-checks (the weyl suite)
  brs        ghost-algebra cross-checks (the brs suite)
  dof        degrees-of-freedom accounting table

Exit codes: 0 all checks pass, 1 a check failed, 2 bad input or out of memory.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import lru_cache

from .checks import compute_tensors, dof_report, run_check
from .errors import CartanWeylError, ScenarioError
from .scenarios import CATALOG_NAMES, Scenario, catalog


def _add_scenario_args(p):
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--scenario", help="path to a scenario JSON file")
    src.add_argument("--catalog", choices=CATALOG_NAMES,
                     help="built-in scenario name")
    p.add_argument("--dimension", type=int, default=3,
                   help="chart dimension for catalog scenarios (default 3); "
                        "ricci-flat-m4 is always 4 and --scenario ignores it")
    p.add_argument("--seed", type=int, default=None,
                   help="seed for the scramble generators")
    p.add_argument("--tolerance", type=float, default=None,
                   help="override the scenario tolerance")
    p.add_argument("--json", dest="json_path",
                   help="write the full report to this path")


def _load_scenario(args):
    if args.scenario:
        scn = Scenario.load(args.scenario)
    else:
        scn = catalog(args.catalog, m=args.dimension)
    if args.seed is not None:
        scn.seed = args.seed
    if args.tolerance is not None:
        scn.tolerance = args.tolerance
    if args.seed is not None or args.tolerance is not None:
        scn.validate()      # loading validated the rest
    return scn


def _write_report(path, text):
    """Write ``text`` and a newline to ``path``; a path that cannot be
    written is bad input, not a failed check."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    except OSError as ex:
        raise ScenarioError(f"cannot write report {path}: {ex.strerror or ex}") from None


def _emit(report, args):
    for line in report.summary_lines():
        print(line)
    if args.json_path:
        _write_report(args.json_path, report.to_json())
        print(f"report written to {args.json_path}")
    return 0 if report.passed else 1


@lru_cache(maxsize=None)
def _parser():
    """The argument parser, built once per process: parsing leaves it as it
    was, so one parser serves every :func:`main` call."""
    parser = argparse.ArgumentParser(
        prog="cartanweyl",
        description="Conformal Cartan connection dressing and its Weyl/BRS "
                    "verification engine.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="run a verification suite")
    _add_scenario_args(p_check)
    p_check.add_argument("--suite", default="all",
                         choices=("gauge", "dressing", "weyl", "brs", "all"))

    p_compute = sub.add_parser("compute", help="dump extracted tensors")
    _add_scenario_args(p_compute)

    p_transform = sub.add_parser("transform", help="finite Weyl cross-checks")
    _add_scenario_args(p_transform)

    p_brs = sub.add_parser("brs", help="BRS ghost-algebra cross-checks")
    _add_scenario_args(p_brs)

    p_dof = sub.add_parser("dof", help="degrees-of-freedom table")
    p_dof.add_argument("-m", "--dimension", type=int, default=4)
    p_dof.add_argument("--json", dest="json_path")
    return parser


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        if args.command == "dof":
            table = dof_report(args.dimension)
            text = json.dumps(table, indent=2, sort_keys=True)
            print(text)
            if args.json_path:
                _write_report(args.json_path, text)
            return 0 if table["columns_agree"] else 1
        scn = _load_scenario(args)
        if args.command == "check":
            report = run_check(scn, args.suite)
        elif args.command == "compute":
            report = compute_tensors(scn)
        elif args.command == "transform":
            report = run_check(scn, "weyl")
        else:
            report = run_check(scn, "brs")
        return _emit(report, args)
    except CartanWeylError as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: ran out of memory; lower the dimension", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
