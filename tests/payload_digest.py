"""Two sha256 digests over the reports of the whole catalog.

Run with the package of the commit to fingerprint on the path:

    PYTHONPATH=src python tests/payload_digest.py

It prints two lines, each a hex digest and the number of reports.  The
reports are ``run_check(scn, "all")`` for every catalog name at m = 3..6
(``ricci-flat-m4`` at 4 only) and seeds 0 and 901, plus
``compute_tensors(scn)`` for each Moebius one: 108 in all.  The first line
hashes each payload as ``json.dumps(payload, sort_keys=True)``, the second
each report's ``json.dumps({row: worst_point}, sort_keys=True)``, both in
that order.  Two commits whose first lines agree report the same payloads
byte for byte; whose second lines agree, the same worst point for every
row.  The file is not collected by pytest (its name does not start with
``test_``).
"""

import hashlib
import json

from cartanweyl.checks import compute_tensors, run_check
from cartanweyl.scenarios import CATALOG_NAMES, catalog

SEEDS = (0, 901)
DIMENSIONS = (3, 4, 5, 6)


def reports():
    """Every report the digest covers, in digest order."""
    for name in CATALOG_NAMES:
        for m in (4,) if name == "ricci-flat-m4" else DIMENSIONS:
            for seed in SEEDS:
                scn = catalog(name, m)
                scn.seed = seed
                yield run_check(scn, "all")
                if scn.model == "mobius":
                    yield compute_tensors(scn)


def digest():
    """(payload hex digest, worst-point hex digest, number of reports)."""
    payloads, points = hashlib.sha256(), hashlib.sha256()
    count = 0
    for report in reports():
        payloads.update(json.dumps(report.payload(), sort_keys=True).encode())
        points.update(json.dumps({r.name: r.worst_point for r in report.rows},
                                 sort_keys=True).encode())
        count += 1
    return payloads.hexdigest(), points.hexdigest(), count


if __name__ == "__main__":
    payload_digest, point_digest, count = digest()
    print(payload_digest, count)
    print(point_digest, count)
