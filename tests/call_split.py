"""Where the time of a ``cartanweyl check`` call goes, in process.

    PYTHONPATH=src python tests/call_split.py [--repeat N]

Writes the scenarios of a fixed item list to a temporary directory: the
``generic``, ``torsionful`` and ``constant-curvature`` catalog entries at
m = 3..5 with the gauge, dressing and weyl suites, and ``poincare`` with
``--suite all`` at m = 3..5.  It then makes every item's ``check --scenario
FILE --suite S --json OUT`` call through ``cartanweyl.cli.main`` N times
(default 5) after one warm-up pass, and prints, for the Moebius items, the
Poincare items and all of them, the best of the N passes for each piece of
``main``: the parser and argv, ``_load_scenario``, ``run_check``, ``_emit``
and the rest.  Each piece's best is taken on its own, so the pieces need
not add up to the best total.  The file is not collected by pytest (its
name does not start with ``test_``).
"""

import argparse
import contextlib
import io
import os
import tempfile
import time

from cartanweyl import cli
from cartanweyl.scenarios import catalog

ITEMS = ([(name, m, suite) for name in ("generic", "torsionful", "constant-curvature")
          for m in (3, 4, 5) for suite in ("gauge", "dressing", "weyl")]
         + [("poincare", m, "all") for m in (3, 4, 5)])
PIECES = ("parser and argv", "_load_scenario", "run_check", "_emit", "rest")


class _Timed:
    """The cli functions that ``main`` looks up at call time, each timed
    into ``spent``, and the parser's ``parse_args``."""

    def __init__(self):
        self.spent = dict.fromkeys(PIECES, 0.0)
        parser = cli._parser()
        self.parse_args = self._wrap("parser and argv", parser.parse_args)
        self.saved = {name: getattr(cli, name) for name in ("_parser", "_load_scenario",
                                                            "run_check", "_emit")}

    def _wrap(self, piece, fn):
        def timed(*args, **kwargs):
            t = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.spent[piece] += time.perf_counter() - t
        return timed

    def __enter__(self):
        cli._parser = lambda: self
        for name in ("_load_scenario", "run_check", "_emit"):
            setattr(cli, name, self._wrap(name, self.saved[name]))
        return self

    def __exit__(self, *exc):
        for name, fn in self.saved.items():
            setattr(cli, name, fn)
        return False


def one_pass(calls):
    """{piece: seconds} of one pass over the ``main`` argument lists."""
    with _Timed() as timed, contextlib.redirect_stdout(io.StringIO()):
        for argv in calls:
            t = time.perf_counter()
            if cli.main(argv) != 0:
                raise SystemExit(f"check failed: {' '.join(argv)}")
            timed.spent["rest"] += time.perf_counter() - t
    spent = timed.spent
    spent["rest"] -= sum(spent[p] for p in PIECES[:-1])
    spent["total"] = sum(spent[p] for p in PIECES)
    return spent


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeat", type=int, default=5, help="timed passes (default 5)")
    args = ap.parse_args(argv)
    groups = {"mobius": [], "poincare": []}
    with tempfile.TemporaryDirectory() as tmp:
        for name, m, suite in ITEMS:
            path = os.path.join(tmp, f"{name}-m{m}.json")
            if not os.path.exists(path):
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(catalog(name, m).to_json())
            group = "poincare" if name == "poincare" else "mobius"
            groups[group].append(["check", "--scenario", path, "--suite", suite,
                                  "--json", os.path.join(tmp, f"{name}-m{m}.{suite}.json")])
        one_pass(groups["mobius"] + groups["poincare"])     # warm-up
        best = {g: [one_pass(calls) for _ in range(args.repeat)] for g, calls in groups.items()}
    best["all"] = [{k: a[k] + b[k] for k in a} for a, b in zip(best["mobius"], best["poincare"])]
    print(f"best of {args.repeat} passes, ms per pass "
          f"({len(groups['mobius'])} Moebius and {len(groups['poincare'])} Poincare calls)")
    print(f"{'piece':18s}" + "".join(f"{g:>18s}" for g in best))
    for piece in PIECES + ("total",):
        cells = []
        for passes in best.values():
            low = min(p[piece] for p in passes)
            share = low / min(p["total"] for p in passes)
            cells.append(f"{low * 1e3:10.2f} {share:6.1%}")
        print(f"{piece:18s}" + "".join(f"{c:>18s}" for c in cells))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
