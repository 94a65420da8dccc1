"""Reference gauge matrices: the product route.

gamma = W(z) S gamma_1(r) and its inverse gamma_1(-r) S^-1 W(z)^-1 as
products of dense jet wedges, with S and S^-1 embedded in identities and
gamma_1 assembled by ``block_matrix`` around the wedge r r^t.  Nothing here
is used by the package: the tests check the block-by-block matrices of
``GaugeElement.matrices`` and ``k1_pair`` against these.  ``k1_in_place``
is the one-matrix builder ``k1_pair`` replaced, one product per matrix: the
tests pin ``k1_pair`` to it bit for bit.
"""

from cartanweyl.cartan import weyl_diagonal
from cartanweyl.forms import MForm, block_matrix, eta_t
from cartanweyl.jets import jmat_mul, jrecip


def k1_in_place(r, model):
    """[[1, r, r r^t / 2], [0, 1, r^t], [0, 0, 1]], its three blocks written
    in place."""
    one, mid, last = (slice(*model.bounds(i)) for i in (1, 2, 3))
    out = MForm.identity(model.m, model.n, r.order, r.lead)
    row, col = r.data[..., 0, :], eta_t(r, model.eta).data[..., 0, :]
    grid = out.data[..., 0, :]
    grid[..., one, mid, :], grid[..., mid, last, :] = row, col
    grid[..., one, last, :] = 0.5 * jmat_mul(row, col, model.m)
    return out


def k1_matrix(r, model):
    """[[1, r, r r^t / 2], [0, 1, r^t], [0, 0, 1]] through ``block_matrix``."""
    m = model.m
    rt = eta_t(r, model.eta)
    rrt = r.wedge(rt).scale(0.5)
    one = MForm.identity(m, 1, r.order)
    eye_m = MForm.identity(m, m, r.order)
    return block_matrix([[one, r, rrt], [None, eye_m, rt], [None, None, one]],
                        m, 0, 0, r.order)


def gauge_matrices(model, z, S, Sinv, r):
    """(gamma, gamma_inv, gamma_1, gamma_1^-1) from the factor data z, S,
    S^-1 (raw jets) and r (a (1, m) 0-form) of one element (Moebius)."""
    m, n, order = model.m, model.n, r.order
    W, Winv = weyl_diagonal(z, jrecip(z, m), model, order)
    S_emb = MForm.identity(m, n, order, S.shape[:-3])
    Sinv_emb = MForm.identity(m, n, order, S.shape[:-3])
    S_emb.data[..., 1:m + 1, 1:m + 1, 0, :] = S
    Sinv_emb.data[..., 1:m + 1, 1:m + 1, 0, :] = Sinv
    g1, g1_inv = k1_matrix(r, model), k1_matrix(r.scale(-1.0), model)
    gamma = W.wedge(S_emb).wedge(g1)
    gamma_inv = g1_inv.wedge(Sinv_emb.wedge(Winv))
    return gamma, gamma_inv, g1, g1_inv
