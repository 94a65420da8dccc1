"""The one reduction every residual goes through.

Python's ``max`` drops a NaN depending on where it sits (``max(0.0, nan)`` is
``0.0``), and ``x > best`` loops skip it outright, so a broken evaluation
could read as a perfect residual.  :func:`worst_of` lets a NaN win instead.
"""

from __future__ import annotations

import numpy as np


def worst_of(values):
    """Largest of ``values`` and 0.0; NaN as soon as any value is NaN.

    The values are floats, giving a float, or per-point arrays of one shape,
    giving the worst of each point.
    """
    best = 0.0
    for v in values:
        best = np.maximum(v, best)      # lets a NaN through, keeps best on a tie
    return float(best) if np.ndim(best) == 0 else best


def max_abs(x, rank):
    """Largest |entry| over the trailing ``rank`` axes of ``x``: a float for
    one sample point, one value per point for a batch; NaN wins, and an
    empty set of entries gives 0.0."""
    x = np.asarray(x)
    out = np.abs(x).max(axis=tuple(range(x.ndim - rank, x.ndim)), initial=0.0)
    return float(out) if x.ndim == rank else out

