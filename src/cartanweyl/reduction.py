"""The one reducer that turns a residual into its report row.

Suites and the residual helpers they call return residuals unreduced: an
``MForm``, a value array, a tuple whose worst member counts, or 0.0 for a
structural zero.  :func:`worst_entry` reads each one at the points of a
batch.

Python's ``max`` drops a NaN depending on where it sits (``max(0.0, nan)`` is
``0.0``), and ``x > best`` loops skip it outright, so a broken evaluation
could read as a perfect residual.  :func:`worst_entry` lets a NaN win instead.
"""

from __future__ import annotations

import numpy as np

from .errors import ShapeError


def worst_entry(residual, lead):
    """Largest |entry| of ``residual`` at each point of the point axes ``lead``.

    An MForm is read on its value coefficients, an array on every entry and
    a tuple by its worst member; a float is the same at every point.  The
    max runs over every axis after the point axes: one value per point, a
    Python float when ``lead`` is () (a lone point).  NaN wins, and no
    entries give 0.0.  An MForm whose own point axes are not ``lead`` raises
    ShapeError; an array has no point axes of its own, so it raises only when
    its leading sizes are not ``lead``.
    """
    from .forms import MForm    # forms reads its own norms through this function
    lead = tuple(lead)
    if isinstance(residual, tuple):
        best = np.zeros(lead)
        for r in residual:
            best = np.maximum(worst_entry(r, lead), best)   # lets a NaN through
        return float(best) if not lead else best
    if isinstance(residual, MForm) and residual.lead != lead:
        raise ShapeError(f"a form at point axes {residual.lead} read at {lead}")
    x = residual.data[..., 0] if isinstance(residual, MForm) else np.asarray(residual, dtype=float)
    if x.ndim == 0:
        x = np.broadcast_to(x, lead)
    if x.shape[:len(lead)] != lead:
        raise ShapeError(f"a residual of shape {x.shape} at a batch of point axes {lead}")
    out = np.abs(x).max(axis=tuple(range(len(lead), x.ndim)), initial=0.0)
    return float(out) if not lead else out
