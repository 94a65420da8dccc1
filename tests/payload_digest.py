"""One sha256 over the report payloads of the whole catalog.

Run with the package of the commit to fingerprint on the path:

    PYTHONPATH=src python tests/payload_digest.py

It prints the hex digest and the number of reports.  The reports are
``run_check(scn, "all")`` for every catalog name at m = 3..6
(``ricci-flat-m4`` at 4 only) and seeds 0 and 901, plus
``compute_tensors(scn)`` for each Moebius one: 108 in all.  Each payload is
hashed as ``json.dumps(payload, sort_keys=True)``, in that order.  Two
commits whose digests agree report the same payloads byte for byte.  The
file is not collected by pytest (its name does not start with ``test_``).
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
    """(hex digest, number of reports)."""
    h = hashlib.sha256()
    count = 0
    for report in reports():
        h.update(json.dumps(report.payload(), sort_keys=True).encode())
        count += 1
    return h.hexdigest(), count


if __name__ == "__main__":
    hexdigest, count = digest()
    print(hexdigest, count)
