"""Reference ghost fields: the per-entry route.

One point at a time, each ghost field is a GradedScalar over jets, one jet
per pool generator, and every ghost form is assembled entry by entry with
``entry_oracle.from_entries``: eps, d eps, iota, eps 1, the Lorentz ghost
and the expected final composite ghost.  Nothing here is used by the package: the
tests check the dense leaves of ``ConformalBRS``, at one point and at each
point of a batch, against these.
"""

from cartanweyl.brs import _pool_weights
from cartanweyl.exprs import compile_expr, eval_jets
from cartanweyl.forms import block_matrix, form_comps, ghost_monos
from cartanweyl.grassmann import GradedScalar
from cartanweyl.jets import jmat_inv, jtrunc
from cartanweyl.tensors import metric_from_vielbein
from entry_oracle import Jet, d, entry, from_entries


def ghost_jets(exprs, names, chart, point, order, seed, keep_body=False):
    """Odd fields of the named coefficient functions at one point: the jet
    sum_beta r_beta,j c_beta (unit jet at beta) on generator j."""
    coeffs = eval_jets([compile_expr(x) for x in exprs], chart, point, order)
    out = []
    for c, name in zip(coeffs, names):
        jets = c[:, None] * _pool_weights(seed, name, c.size, keep_body)
        out.append(GradedScalar({g: Jet(chart.m, jets[:, j].copy())
                                 for j, g in enumerate(ghost_monos(1)) if jets[:, j].any()}))
    return out


def scalar_form(g, m, order):
    """(1, 1) ghost form of the ghost-valued jet g."""
    return from_entries(m, (1, 1), 0, 1, order, {(0, 0, 0): g})


def row_form(gs, m, order):
    """(1, len(gs)) ghost form of the ghost-valued jets gs."""
    return from_entries(m, (1, len(gs)), 0, 1, order,
                        {(0, a, 0): g for a, g in enumerate(gs)})


def deps_form(eps, m, order):
    """The (1, m) row d_mu eps at ``order - 1``."""
    return row_form([d(eps, mu) for mu in range(m)], m, order - 1)


def eps_eye(eps, m, n, order, rows=None):
    """(n, n) ghost matrix of eps on the diagonal ``rows`` (all by default)."""
    rows = range(n) if rows is None else rows
    return from_entries(m, (n, n), 0, 1, order, {(i, i, 0): eps for i in rows})


def lorentz_ghost(jets, m, order, eta):
    """so(eta)-valued Lorentz ghost: sum of the (a, b) ghost field times G_ab."""
    entries = {}
    for (a, b), jet in zip(form_comps(m, 2), jets):
        entries[a, b, 0] = jet * float(eta[b])
        entries[b, a, 0] = jet * float(-eta[a])
    return from_entries(m, (m, m), 0, 1, order, entries)


def final_ghost(eps, e, model, order):
    """[[eps, deps, 0], [0, eps delta, g^-1 deps^T], [0, 0, -eps]] at order 0,
    with g^-1 deps^T summed per entry in GradedScalar arithmetic."""
    m = model.m
    deps = deps_form(eps, m, order).truncate(0)
    ginv = jmat_inv(metric_from_vielbein(jtrunc(e, m, 0), model.eta), m)
    deps_row = [entry(deps, 0, lam, 0) for lam in range(m)]
    entries = {}
    for r in range(m):
        acc = GradedScalar()
        for lam in range(m):
            acc = acc + Jet(m, ginv[r, lam]) * deps_row[lam]
        entries[r, 0, 0] = acc
    col = from_entries(m, (m, 1), 0, 1, 0, entries)
    eps0 = scalar_form(eps, m, 0)
    grid = [[eps0, deps, None],
            [None, eps_eye(eps, m, m, order), col],
            [None, None, eps0.scale(-1.0)]]
    return block_matrix(grid, m, 0, 1, 0)
