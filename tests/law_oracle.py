"""Reference closed forms of the reduced Weyl BRS laws: per-entry GradedScalar.

Each law of :func:`cartanweyl.brs.residual_weyl_brs` is checked entry by
entry against a closed form built as a GradedScalar over jets: eps and its
derivatives as ghost-valued jets, the dressed tensors as jet or float
coefficients.  The program side (s_W varpi0 = -D0 vhat, s_W Omega0 =
[Omega0, vhat] and s_W vhat) is evaluated as in the package.  Nothing here
is used by the package: the tests check its dense value-array laws against
these.
"""

from cartanweyl.cartan import covariant_d
from cartanweyl.forms import form_comps, gcomm
from cartanweyl.grassmann import GradedScalar
from cartanweyl.jets import jmat_inv, jtrunc
from cartanweyl.reduction import worst_entry
from entry_oracle import Jet, d, entry, value_norm

LAWS = ("s_w_metric", "s_w_gamma", "s_w_schouten", "s_w_cotton", "s_w_weyl", "s_w_vhat_23")


def _value_defect(a, b):
    """Largest value coefficient of the ghost-valued jet a - b."""
    return value_norm(a - b)


def law_rows(fields, scn):
    """The rows of :data:`LAWS`, each a worst value defect over entries."""
    m = scn.m
    model = scn.model
    vhat = scn.ev(scn.T_vhat)
    s_varpi0 = covariant_d(fields.varpi0, vhat).scale(-1.0)
    s_Omega0 = gcomm(fields.Omega0, vhat)
    eps = entry(scn.L_eps.value, 0, 0, 0).map(lambda c: c.truncate(min(2, c.order)))
    g, Gamma = jtrunc(fields.g, m, 0), jtrunc(fields.Gamma, m, 0)
    ginv = jmat_inv(g, m)
    out = {}

    def fj(arr):
        return Jet(m, arr)

    # s_W g = 2 eps g
    blk = model.block(s_varpi0, 3, 2)
    out["s_w_metric"] = worst_entry(tuple(
        _value_defect(entry(blk, 0, nu, mu), (fj(g[mu, nu]) * eps) * 2.0)
        for mu in range(m) for nu in range(m)), ())
    # s_W Gamma^r_mn = delta^r_n d_m eps + delta^r_m d_n eps - g^{rl} d_l eps g_mn
    blk = model.block(s_varpi0, 2, 2)
    deps = [d(eps, mu) for mu in range(m)]
    defects = []
    for r in range(m):
        for mu in range(m):
            for nu in range(m):
                want = GradedScalar()
                if r == nu:
                    want = want + deps[mu]
                if r == mu:
                    want = want + deps[nu]
                corr = GradedScalar()
                for lam in range(m):
                    corr = corr + (fj(ginv[r, lam]) * deps[lam]) * fj(g[mu, nu])
                want = want - corr
                defects.append(_value_defect(entry(blk, r, nu, mu), want))
    out["s_w_gamma"] = worst_entry(tuple(defects), ())
    # s_W P_mn = d_m d_n eps - d_l eps Gamma^l_mn
    blk = model.block(s_varpi0, 1, 2)
    defects = []
    for mu in range(m):
        for nu in range(m):
            want = d(deps[mu], nu)
            for lam in range(m):
                want = want - deps[lam] * fj(Gamma[lam, mu, nu])
            defects.append(_value_defect(entry(blk, 0, nu, mu), want))
    out["s_w_schouten"] = worst_entry(tuple(defects), ())
    # s_W C_{n,ms} = f0_{ms} d_n eps - d_l eps W^l_{n,ms}
    # s_W W^r_{n,ms} = T^r_{ms} d_n eps - g^{rl} d_l eps T^a_{ms} g_{an}
    blkC = model.block(s_Omega0, 1, 2)
    blkW = model.block(s_Omega0, 2, 2)
    defectsC, defectsW = [], []
    gval = g[..., 0]
    for f, (mu, sg) in enumerate(form_comps(m, 2)):
        for nu in range(m):
            want = deps[nu] * float(fields.f0[mu, sg])
            for lam in range(m):
                want = want - deps[lam] * float(fields.W[lam, nu, mu, sg])
            defectsC.append(_value_defect(entry(blkC, 0, nu, f), want))
        for r in range(m):
            for nu in range(m):
                tlow = float(fields.T[:, mu, sg] @ gval[:, nu])
                want = deps[nu] * float(fields.T[r, mu, sg])
                for lam in range(m):
                    want = want - (fj(ginv[r, lam]) * deps[lam]) * tlow
                defectsW.append(_value_defect(entry(blkW, r, nu, f), want))
    out["s_w_cotton"] = worst_entry(tuple(defectsC), ())
    out["s_w_weyl"] = worst_entry(tuple(defectsW), ())
    # s_W vhat entry (2,3) = -2 eps g^-1 deps
    svhat = scn.ev(scn.s(scn.T_vhat, "W"))
    blk = model.block(svhat, 2, 3)
    defects = []
    for r in range(m):
        want = GradedScalar()
        for lam in range(m):
            want = want - (fj(ginv[r, lam]) * (eps * deps[lam])) * 2.0
        defects.append(_value_defect(entry(blk, r, 0, 0), want))
    out["s_w_vhat_23"] = worst_entry(tuple(defects), ())
    return out
