"""Reference linearization check with every jet at the scenario's order.

:func:`cartanweyl.brs.linearization_check` reads values only, so it moves
the dressed pair at order 0 and reads the composite ghost at order 1.  This
is the same check at the full jet order K: the Weyl transforms move the
whole dressed pair, and the composite ghost is evaluated at full order.
Nothing here is used by the package: the tests pin its rows to these, bit
for bit.
"""

from fractions import Fraction

import numpy as np

from cartanweyl.brs import ConformalBRS, GhostSpec
from cartanweyl.cartan import covariant_d
from cartanweyl.dressing import extract_tensors, full_pipeline
from cartanweyl.exprs import Const, compile_expr, eval_jets
from cartanweyl.forms import gcomm
from cartanweyl.jets import jder, jexp, order_of
from cartanweyl.weyl import weyl_matrices, weyl_transform_dressed


def full_order_linearization(conn, e, model, phi, point, h=1e-3):
    """The rows of ``linearization_check(conn, e, model, phi, point)``, whose
    step is ``brs.STEP``; ``h`` is this reference's own."""
    m = model.m
    fields = full_pipeline(conn, e)
    phi_j = eval_jets([compile_expr(phi)], model.chart, point, order_of(m, e))[0]
    dphi = np.stack([jder(phi_j, m, mu) for mu in range(m)])

    def tensors_at(t):
        mats = weyl_matrices(model, jexp(t * phi_j, m), t * dphi, fields.u0)
        moved = weyl_transform_dressed(fields, mats)
        return {"g": moved.g[..., 0], "Gamma": moved.Gamma[..., 0],
                "P": moved.P[..., 0], "C": moved.C, "W": moved.W}

    def diff_at(step):
        plus, minus = tensors_at(step), tensors_at(-step)
        return {k: (plus[k] - minus[k]) / (2.0 * step) for k in plus}

    d1, d2 = diff_at(h), diff_at(h / 2.0)
    finite = {k: (4.0 * d2[k] - d1[k]) / 3.0 for k in d1}
    zero = Const(Fraction(0))
    spec = GhostSpec(eps=phi, iota=[zero] * m, lorentz=[zero] * (m * (m - 1) // 2))
    b = ConformalBRS(conn, e, spec, point, keep_body=True)
    vhat = b.ev(b.T_vhat)
    s_varpi0 = covariant_d(fields.varpi0, vhat).scale(-1.0).body()
    s_Omega0 = gcomm(fields.Omega0, vhat).body()
    g, Gamma, P, _, _, C, W = extract_tensors(s_varpi0, s_Omega0, model)
    got = {"g": g[..., 0], "Gamma": Gamma[..., 0], "P": P[..., 0], "C": C, "W": W}
    return {k: float(np.abs(finite[k] - got[k]).max() / max(1.0, np.abs(finite[k]).max()))
            for k in finite}
