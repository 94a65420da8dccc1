"""The one reduction every residual goes through.

Python's ``max`` drops a NaN depending on where it sits (``max(0.0, nan)`` is
``0.0``), and ``x > best`` loops skip it outright, so a broken evaluation
could read as a perfect residual.  :func:`worst_of` lets a NaN win instead.
"""

from __future__ import annotations

import math


def worst_of(values):
    """Largest of ``values`` and 0.0; NaN as soon as any value is NaN."""
    best = 0.0
    for v in values:
        if math.isnan(v):
            return math.nan
        if v > best:
            best = v
    return best
