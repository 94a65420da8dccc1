"""Two sha256 digests over the reports of the whole catalog.

Run with the package of the commit to fingerprint on the path:

    PYTHONPATH=src python tests/payload_digest.py [--rows PATH]

It prints two lines, each a hex digest and the number of reports.  The
reports are ``run_check(scn, "all")`` for every catalog name at m = 3..6
(``ricci-flat-m4`` at 4 only) and seeds 0 and 901, plus
``compute_tensors(scn)`` for each Moebius one: 108 in all.  The first line
hashes each payload as ``json.dumps(payload, sort_keys=True)``, the second
each report's ``json.dumps({row: worst_point}, sort_keys=True)``, both in
that order.  Two commits whose first lines agree report the same payloads
byte for byte; whose second lines agree, the same worst point for every
row.  ``--rows PATH`` also writes ``{report: {row: residual repr}}`` as
JSON, a compute report's tensor dump as one more row, ``compute/tensors``,
holding the dump's sha256: diffing two such files names the rows that
moved.  The file is not collected by pytest (its name does not start with
``test_``).
"""

import argparse
import hashlib
import json

from cartanweyl.checks import compute_tensors, run_check
from cartanweyl.scenarios import CATALOG_NAMES, catalog

SEEDS = (0, 901)
DIMENSIONS = (3, 4, 5, 6)


def reports():
    """Every (label, report) the digest covers, in digest order."""
    for name in CATALOG_NAMES:
        for m in (4,) if name == "ricci-flat-m4" else DIMENSIONS:
            for seed in SEEDS:
                scn = catalog(name, m)
                scn.seed = seed
                label = f"{name} m={m} seed={seed}"
                yield f"check {label}", run_check(scn, "all")
                if scn.model == "mobius":
                    yield f"compute {label}", compute_tensors(scn)


def digest():
    """(payload hex digest, worst-point hex digest, number of reports,
    {report label: {row: residual repr}})."""
    payloads, points = hashlib.sha256(), hashlib.sha256()
    rows = {}
    for label, report in reports():
        payload = json.dumps(report.payload(), sort_keys=True).encode()
        payloads.update(payload)
        points.update(json.dumps({r.name: r.worst_point for r in report.rows},
                                 sort_keys=True).encode())
        rows[label] = {r.name: repr(r.residual) for r in report.rows}
        if report.tensors:
            dump = json.dumps(report.tensors, sort_keys=True).encode()
            rows[label]["compute/tensors"] = hashlib.sha256(dump).hexdigest()
    return payloads.hexdigest(), points.hexdigest(), len(rows), rows


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--rows", help="also write each report's row residuals here")
    args = parser.parse_args()
    payload_digest, point_digest, count, rows = digest()
    if args.rows:
        with open(args.rows, "w", encoding="utf-8") as fh:
            json.dump(rows, fh, indent=1, sort_keys=True)
    print(payload_digest, count)
    print(point_digest, count)
