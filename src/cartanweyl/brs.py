"""BRS ghost algebra for the conformal and GR Cartan geometries.

The BRS operator s acts as an antiderivation of total degree +1 with
ds = -sd.  It is realized over a shallow term layer: leaves are the basic
fields (connection, ghost components, q, vielbein) carrying registered
sector images; composites (dressings, dressed fields, composite ghosts)
are Sum/Prod/D/Block nodes, so second applications of s follow from the
graded Leibniz rule with no symbolic algebra beyond the DAG.

A ghost field is a jet whose Taylor coefficients each carry their own
Grassmann generator, scaled by the scenario coefficient function; this keeps
products like eps * d(eps) nonzero, which the reduced Weyl algebra requires.
Each such generator is projected onto the GHOST_POOL shared generators of
:mod:`cartanweyl.forms` with seeded weights, a homomorphism of Grassmann
algebras, so every identity is checked on its image in the small pool.

Sector variations of the ghosts (with h' = Lorentz + inversions, p = Weyl):
  s_W eps = 0            s_W v_L = 0          s_W iota = -eps iota
  s_L v_L = -v_L^2       s_L iota = -iota v_L
  s_i (all ghosts) = 0
The cross term [v_W, v_i] lands in s_W because the Weyl complement is not
Ad-invariant under the inversion sector; with this routing every pairwise
identity s_X v_Y + s_Y v_X = -[v_X, v_Y] holds, which is exactly what the
sector-split nilpotency checks need.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

from .cartan import covariant_d, curvature_form
from .dressing import extract_u1
from .errors import ShapeError
from .exprs import compile_expr, eval_jet, eval_jets
from .forms import GHOST_POOL, MForm, block_matrix, eta_t, form_comps, gcomm, ghost_monos
from .grassmann import GradedScalar
from .jets import Jet, jmat_inv, jtrunc, order_of
from .reduction import worst_of
from .tensors import jeinsum

SECTORS = ("W", "L", "i")


# ---------------------------------------------------------------------------
# term layer
# ---------------------------------------------------------------------------

class Term:
    """Immutable node of the BRS term DAG."""

    __slots__ = ("p", "q", "shape", "_s")

    def __init__(self, p, q, shape):
        self.p = p
        self.q = q
        self.shape = shape
        self._s = {}

    @property
    def total(self):
        return self.p + self.q

    def svar(self, sector):
        if sector not in self._s:
            self._s[sector] = self._build_s(sector)
        return self._s[sector]

    def stotal(self):
        if "total" not in self._s:
            self._s["total"] = Sum([self.svar(x) for x in SECTORS])
        return self._s["total"]

    def ev(self, cache):
        # keyed on the node itself: the cache then also keeps temporaries
        # alive, so identity-based lookups can never alias freed nodes
        if self not in cache:
            cache[self] = self._ev(cache)
        return cache[self]


class Leaf(Term):
    __slots__ = ("name", "value", "images")

    def __init__(self, name, value, p, q):
        super().__init__(p, q, value.shape)
        self.name = name
        self.value = value
        self.images = {}

    def register(self, sector, term):
        self.images[sector] = term

    def _build_s(self, sector):
        return self.images.get(sector, Zero(self.p, self.q + 1, self.shape))

    def _ev(self, cache):
        return self.value

    def __repr__(self):
        return f"Leaf({self.name})"


class Zero(Term):
    __slots__ = ()

    def _build_s(self, sector):
        return Zero(self.p, self.q + 1, self.shape)

    def _ev(self, cache):
        raise ShapeError("a bare Zero term cannot be evaluated")


def _is_zero(t):
    return isinstance(t, Zero)


class Sum(Term):
    __slots__ = ("terms", "coeffs")

    def __init__(self, terms, coeffs=None):
        coeffs = list(coeffs) if coeffs is not None else [1.0] * len(terms)
        live = [(t, c) for t, c in zip(terms, coeffs) if not _is_zero(t)]
        if live:
            p, q, shape = live[0][0].p, live[0][0].q, live[0][0].shape
        else:
            p, q, shape = terms[0].p, terms[0].q, terms[0].shape
        super().__init__(p, q, shape)
        self.terms = [t for t, _ in live]
        self.coeffs = [c for _, c in live]

    def _build_s(self, sector):
        return mk_sum([t.svar(sector) for t in self.terms], self.coeffs,
                      self.p, self.q + 1, self.shape)

    def _ev(self, cache):
        if not self.terms:
            raise ShapeError("empty Sum evaluation needs a Zero context")
        acc = None
        for t, c in zip(self.terms, self.coeffs):
            v = t.ev(cache) if c == 1.0 else t.ev(cache).scale(c)
            acc = v if acc is None else acc + v
        return acc


def mk_sum(terms, coeffs=None, p=None, q=None, shape=None):
    """Sum that collapses to Zero when every summand is structurally zero."""
    coeffs = list(coeffs) if coeffs is not None else [1.0] * len(terms)
    live = [(t, c) for t, c in zip(terms, coeffs) if not _is_zero(t)]
    if not live:
        if p is None:
            p, q, shape = terms[0].p, terms[0].q, terms[0].shape
        return Zero(p, q, shape)
    return Sum([t for t, _ in live], [c for _, c in live])


class Prod(Term):
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        if a.shape[1] != b.shape[0]:
            raise ShapeError(f"Prod shape mismatch {a.shape} x {b.shape}")
        super().__init__(a.p + b.p, a.q + b.q, (a.shape[0], b.shape[1]))
        self.a = a
        self.b = b

    def _build_s(self, sector):
        sa, sb = self.a.svar(sector), self.b.svar(sector)
        sign = -1.0 if self.a.total % 2 else 1.0
        parts, cs = [], []
        if not _is_zero(sa):
            parts.append(Prod(sa, self.b))
            cs.append(1.0)
        if not _is_zero(sb):
            parts.append(Prod(self.a, sb))
            cs.append(sign)
        if not parts:
            return Zero(self.p, self.q + 1, self.shape)
        return Sum(parts, cs)

    def _ev(self, cache):
        return self.a.ev(cache).wedge(self.b.ev(cache))


class D(Term):
    __slots__ = ("t",)

    def __init__(self, t):
        super().__init__(t.p + 1, t.q, t.shape)
        self.t = t

    def _build_s(self, sector):
        st = self.t.svar(sector)
        if _is_zero(st):
            return Zero(self.p, self.q + 1, self.shape)
        return Sum([D(st)], [-1.0])

    def _ev(self, cache):
        return self.t.ev(cache).ext_d()


class EtaT(Term):
    __slots__ = ("t", "eta")

    def __init__(self, t, eta):
        r, c = t.shape
        super().__init__(t.p, t.q, (c, r))
        self.t = t
        self.eta = eta

    def _build_s(self, sector):
        st = self.t.svar(sector)
        if _is_zero(st):
            return Zero(self.p, self.q + 1, self.shape)
        return EtaT(st, self.eta)

    def _ev(self, cache):
        return eta_t(self.t.ev(cache), self.eta)


class Blk(Term):
    """Block matrix of terms; None entries are zero blocks.

    Zero terms participate in size inference but evaluate as zero blocks,
    so a row or column of structural zeros just needs one sized Zero.
    """

    __slots__ = ("rows", "m", "order")

    def __init__(self, rows, p, q, m, order):
        rsz = [None] * len(rows)
        csz = [None] * len(rows[0])
        for i, row in enumerate(rows):
            for j, t in enumerate(row):
                if isinstance(t, Term):
                    rsz[i] = t.shape[0]
                    csz[j] = t.shape[1]
        if any(x is None for x in rsz) or any(x is None for x in csz):
            raise ShapeError("cannot infer Blk sizes")
        super().__init__(p, q, (sum(rsz), sum(csz)))
        self.rows = rows
        self.m = m
        self.order = order

    def _build_s(self, sector):
        new = [[t.svar(sector) if isinstance(t, Term) else None for t in row]
               for row in self.rows]
        if all(t is None or _is_zero(t) for row in new for t in row):
            return Zero(self.p, self.q + 1, self.shape)
        return Blk(new, self.p, self.q + 1, self.m, self.order)

    def _ev(self, cache):
        grid = [[None if (t is None or _is_zero(t)) else t.ev(cache)
                 for t in row] for row in self.rows]
        rsz = [next(t.shape[0] for t in row if isinstance(t, Term))
               for row in self.rows]
        csz = [next(row[j].shape[1] for row in self.rows
                    if isinstance(row[j], Term))
               for j in range(len(self.rows[0]))]
        return block_matrix(grid, self.m, self.p, self.q, self.order,
                            row_sizes=rsz, col_sizes=csz)


def leaf(name, value, p=0, q=0):
    return Leaf(name, value, p, q)


def neg(t):
    return Sum([t], [-1.0])


# ---------------------------------------------------------------------------
# ghost assignment and the conformal BRS scenario
# ---------------------------------------------------------------------------

@dataclass
class GhostSpec:
    """Coefficient functions for the ghost components (Exprs or strings)."""

    eps: object = "1"
    iota: list = None          # m entries
    lorentz: list = None       # m(m-1)/2 entries


def _pool_weights(seed, name, size, keep_body=False):
    """(size, GHOST_POOL) projection weights of one ghost field.

    Drawn from the point seed and the ghost's name, so payloads are
    deterministic.  The rows are plain Gaussian: for a nonzero residual of
    ghost degree q <= GHOST_POOL the projected residual is a polynomial in
    the weights that is not identically zero, so it stays nonzero for all
    but a measure-zero set of them.

    With ``keep_body`` each row is shifted to sum to 1, so sending every
    generator to 1 keeps each Taylor coefficient: the body that
    :meth:`MForm.body` reads.  Those rows send every combination whose
    coefficients sum to 0 (theta_1 - theta_2, say) into the 2-plane of
    sum-zero pool vectors, where every product of three such combinations
    vanishes; only degree-1 results should be read through them.
    """
    rng = np.random.default_rng(zlib.crc32(repr((seed, name)).encode()))
    r = rng.normal(size=(size, GHOST_POOL))
    if keep_body:
        r = r - r.mean(axis=1, keepdims=True) + 1.0 / GHOST_POOL
    return r


def _ghost_jets(exprs, names, chart, point, order, seed, keep_body=False):
    """Odd fields of the named coefficient functions, one eval_jets call.

    The field of f is sum_beta theta_beta c_beta (unit jet at beta) with
    c_beta = d^beta f / beta!: one generator per Taylor coefficient, so
    products like eps * d(eps) stay nonzero.  Each theta_beta is sent to
    sum_j r_beta,j eta_j over the shared generators eta_j, which leaves the
    jet sum_beta r_beta,j c_beta (unit jet at beta) on eta_j.
    """
    coeffs = eval_jets([compile_expr(x) for x in exprs], chart, point, order)
    out = []
    for c, name in zip(coeffs, names):
        jets = c[:, None] * _pool_weights(seed, name, c.size, keep_body)
        out.append(GradedScalar({g: Jet(chart.m, jets[:, j].copy())
                                 for j, g in enumerate(ghost_monos(1)) if jets[:, j].any()}))
    return out


def _d(g, nu):
    """Derivative along x^nu of a ghost-valued jet."""
    return g.map(lambda c: c.derivative(nu))


def _value_defect(a, b):
    """Largest value coefficient of the ghost-valued jet a - b."""
    return (a - b).norm(lambda c: abs(c.value))


def _lorentz_pairs(m):
    return [(a, b) for a in range(m) for b in range(a + 1, m)]


def _lorentz_ghost(jets, m, order, eta):
    """so(eta)-valued Lorentz ghost: sum of the (a, b) ghost field times G_ab."""
    entries = {}
    for (a, b), jet in zip(_lorentz_pairs(m), jets):
        # (G_ab)^i_j = delta^i_a eta_bj - delta^i_b eta_aj
        entries[a, b, 0] = jet * float(eta[b])
        entries[b, a, 0] = jet * float(-eta[a])
    return MForm.from_entries(m, (m, m), 0, 1, order, entries)


def _ghost_scalar_mform(jet, m, order):
    return MForm.from_entries(m, (1, 1), 0, 1, order, {(0, 0, 0): jet})


def _composite_ghost(u, uinv, v, su):
    """The composite ghost u^-1 v u + u^-1 s u as a term."""
    return Sum([Prod(uinv, Prod(v, u)), Prod(uinv, su)])


class ConformalBRS:
    """Terms, leaves and ghost data for one Moebius scenario point.

    ``cache`` is the one term-DAG evaluation context of the point: every
    evaluation through this object reads and fills it, so each node, the
    composite ghosts included, is evaluated once however many checks use it.
    ``seed`` and ``keep_body`` select the projection weights of the ghosts
    (see :func:`_pool_weights`); ``keep_body`` is for readers of the body.
    """

    def __init__(self, conn, e, ghost_spec, point, ghost_order=None, seed=0,
                 keep_body=False):
        from .dressing import vielbein_of
        model = conn.model
        if model.kind != "mobius":
            raise ShapeError("ConformalBRS needs the Moebius model")
        self.model = model
        self.chart = model.chart
        m = self.m = model.m
        self.point = tuple(point)
        self.e = vielbein_of(conn) if e is None else e
        self.order = conn.order
        korder = ghost_order if ghost_order is not None else max(self.order, 2)
        self.ghost_order = korder
        self.pool = ghost_monos(1)
        self.cache = {}
        self._vhat = {}
        gs = ghost_spec
        iota = list(gs.iota or ["1"] * m)
        pairs = _lorentz_pairs(m)
        names = (["eps"] + [f"iota{a}" for a in range(len(iota))]
                 + [f"vl{a}{b}" for a, b in pairs])
        self.seed, self.keep_body = seed, keep_body
        jets = _ghost_jets([gs.eps] + iota + list(gs.lorentz or ["1"] * len(pairs)),
                           names, self.chart, point, korder, seed, keep_body)
        self.eps_jet, self.iota_jets = jets[0], jets[1:len(iota) + 1]
        vl = _lorentz_ghost(jets[len(iota) + 1:], m, korder, model.eta)
        self._build_leaves(conn, vl)
        self._register_images()
        self._build_composites()

    # -- ghost matrices ------------------------------------------------------

    def _eps_mform(self):
        return _ghost_scalar_mform(self.eps_jet, self.m, self.ghost_order)

    def _deps_mform(self):
        m = self.m
        return MForm.from_entries(m, (1, m), 0, 1, self.ghost_order - 1,
                                  {(0, mu, 0): _d(self.eps_jet, mu) for mu in range(m)})

    def _iota_mform(self):
        m = self.m
        return MForm.from_entries(m, (1, m), 0, 1, self.ghost_order,
                                  {(0, a, 0): g for a, g in enumerate(self.iota_jets)})

    def _eps_eye(self, n):
        return MForm.from_entries(self.m, (n, n), 0, 1, self.ghost_order,
                                  {(i, i, 0): self.eps_jet for i in range(n)})

    # -- leaves and images -----------------------------------------------------

    def _build_leaves(self, conn, vl):
        m, n = self.m, self.model.n
        self.L_varpi = leaf("varpi", conn.omega, p=1, q=0)
        self.L_eps = leaf("eps", self._eps_mform(), q=1)
        self.L_deps = leaf("deps", self._deps_mform(), q=1)
        self.L_iota = leaf("iota", self._iota_mform(), q=1)
        self.L_vl = leaf("vl", vl, q=1)
        self.L_epsI_m = leaf("eps_eye_m", self._eps_eye(m), q=1)
        eiv = MForm.zeros(m, (m, m), 0, 0, order_of(m, self.e))
        eiv.data[:, :, 0, :] = self.e
        self.L_e = leaf("e", eiv)
        einv_arr = jmat_inv(self.e, m)
        self.einv = einv_arr
        eivi = MForm.zeros(m, (m, m), 0, 0, order_of(m, einv_arr))
        eivi.data[:, :, 0, :] = einv_arr
        self.L_einv = leaf("einv", eivi)
        u1 = extract_u1(conn, einv_arr)
        self.u1 = u1
        self.L_q = leaf("q", u1.q)

    def _v_sector(self, which):
        m = self.m
        eta = self.model.eta
        z11 = Zero(0, 1, (1, 1))
        zmm = Zero(0, 1, (m, m))
        if which == "W":
            return Blk([[self.L_eps, None, None],
                        [None, zmm, None],
                        [None, None, neg(self.L_eps)]],
                       0, 1, m, self.ghost_order)
        if which == "L":
            return Blk([[z11, None, None],
                        [None, self.L_vl, None],
                        [None, None, z11]],
                       0, 1, m, self.L_vl.value.order)
        return Blk([[z11, self.L_iota, None],
                    [None, zmm, EtaT(self.L_iota, eta)],
                    [None, None, z11]],
                   0, 1, m, self.L_iota.value.order)

    def _register_images(self):
        eps, deps, iota, vl = self.L_eps, self.L_deps, self.L_iota, self.L_vl
        q, e, einv, epsI = self.L_q, self.L_e, self.L_einv, self.L_epsI_m
        # ghosts
        iota.register("W", neg(Prod(eps, iota)))
        iota.register("L", neg(Prod(iota, vl)))
        vl.register("L", neg(Prod(vl, vl)))
        # vielbein and its inverse
        e.register("W", Prod(epsI, e))
        e.register("L", neg(Prod(vl, e)))
        einv.register("W", neg(Prod(epsI, einv)))
        einv.register("L", Prod(einv, vl))
        # q = a . e^-1
        q.register("W", Sum([Prod(eps, q), Prod(deps, einv)], [-1.0, 1.0]))
        q.register("L", Prod(q, vl))
        q.register("i", neg(iota))
        # the connection
        self.V = {x: self._v_sector(x) for x in SECTORS}
        for x in SECTORS:
            vx = self.V[x]
            img = Sum([D(vx), Prod(self.L_varpi, vx), Prod(vx, self.L_varpi)],
                      [-1.0, -1.0, -1.0])
            self.L_varpi.register(x, img)

    def _build_composites(self):
        m, n = self.m, self.model.n
        eta = self.model.eta
        order = self.order
        one = leaf("one", MForm.identity(m, 1, order))
        eye = leaf("eye_m", MForm.identity(m, m, order))
        self.T_one, self.T_eye = one, eye
        q, e, einv = self.L_q, self.L_e, self.L_einv
        qt = EtaT(q, eta)
        self.T_u1 = Blk([[one, q, Sum([Prod(q, qt)], [0.5])],
                         [None, eye, qt],
                         [None, None, one]], 0, 0, m, order)
        nq = neg(q)
        nqt = EtaT(nq, eta)
        self.T_u1inv = Blk([[one, nq, Sum([Prod(nq, nqt)], [0.5])],
                            [None, eye, nqt],
                            [None, None, one]], 0, 0, m, order)
        self.T_u0 = Blk([[one, None, None], [None, e, None], [None, None, one]],
                        0, 0, m, order)
        self.T_u0inv = Blk([[one, None, None], [None, einv, None],
                            [None, None, one]], 0, 0, m, order)
        self.T_u = Prod(self.T_u1, self.T_u0)
        self.T_uinv = Prod(self.T_u0inv, self.T_u1inv)
        self.T_v = Sum([self.V["W"], self.V["L"], self.V["i"]])
        w = self.L_varpi
        self.T_omega = Sum([D(w), Prod(w, w)])
        self.T_varpi1 = Sum([Prod(self.T_u1inv, Prod(w, self.T_u1)),
                             Prod(self.T_u1inv, D(self.T_u1))])
        self.T_omega1 = Prod(self.T_u1inv, Prod(self.T_omega, self.T_u1))
        self.T_varpi0 = Sum([Prod(self.T_uinv, Prod(w, self.T_u)),
                             Prod(self.T_uinv, D(self.T_u))])
        self.T_omega0 = Prod(self.T_uinv, Prod(self.T_omega, self.T_u))

    # -- evaluation helpers ----------------------------------------------------

    def ev(self, term):
        return term.ev(self.cache)

    def composite_ghost_term(self, stage):
        """Composite ghost v-hat = u^-1 v u + u^-1 s u, built once per stage.

        Stage 'u1' uses the unipotent dressing on the raw ghost, 'full' the
        combined u1 u0 in one step, and 'u0' chains the second reduction on
        top of the first composite ghost; the last two must agree.
        """
        if stage in self._vhat:
            return self._vhat[stage]
        if stage == "u1":
            u, uinv, v = self.T_u1, self.T_u1inv, self.T_v
        elif stage == "full":
            u, uinv, v = self.T_u, self.T_uinv, self.T_v
        elif stage == "u0":
            u, uinv = self.T_u0, self.T_u0inv
            v = self.composite_ghost_term("u1")
        else:
            raise ValueError(stage)
        self._vhat[stage] = _composite_ghost(u, uinv, v, u.stotal())
        return self._vhat[stage]

    def expected_first_ghost(self):
        """[[eps, deps.e^-1, 0], [0, v_L, (.)^t], [0, 0, -eps]]."""
        m = self.m
        eta = self.model.eta
        row = self.L_deps.value.wedge(self.L_einv.value)
        vl = self.L_vl.value
        one = self.L_eps.value
        grid = [[one, row, None],
                [None, vl, eta_t(row, eta)],
                [None, None, one.scale(-1.0)]]
        return block_matrix(grid, m, 0, 1, min(row.order, vl.order))

    def expected_final_ghost(self):
        """[[eps, deps, 0], [0, eps delta, g^-1 deps^T], [0, 0, -eps]]."""
        m = self.m
        deps = self.L_deps.value
        g = jeinsum("am,an->mn",
                    np.asarray(self.model.eta)[:, None, None] * self.e, self.e, m)
        ginv = jmat_inv(g, m)
        k = min(deps.order, order_of(m, ginv))
        deps_row = [deps.entry(0, lam, 0) for lam in range(m)]
        entries = {}
        for r in range(m):
            acc = GradedScalar()
            for lam in range(m):
                # the jet product truncates to the lower order k
                acc = acc + Jet(m, ginv[r, lam]) * deps_row[lam]
            entries[r, 0, 0] = acc
        col = MForm.from_entries(m, (m, 1), 0, 1, k, entries)
        one = self.L_eps.value
        grid = [[one, deps, None],
                [None, self._eps_eye(m), col],
                [None, None, one.scale(-1.0)]]
        return block_matrix(grid, m, 0, 1, k)


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------

def brs_vary(scn, name, sector="all"):
    """Value of s_sector applied to a named field of the scenario."""
    terms = {
        "varpi": scn.L_varpi, "Omega": scn.T_omega, "v": scn.T_v,
        "u1": scn.T_u1, "u0": scn.T_u0, "u": scn.T_u,
        "q": scn.L_q, "e": scn.L_e,
        "varpi1": scn.T_varpi1, "Omega1": scn.T_omega1,
        "varpi0": scn.T_varpi0, "Omega0": scn.T_omega0,
    }
    t = terms[name]
    st = t.stotal() if sector in ("all", "total") else t.svar(sector)
    if _is_zero(st):
        base = scn.ev(t)
        return MForm.zeros(scn.m, base.shape, base.p, base.q + 1, base.order)
    return scn.ev(st)


def composite_ghost(scn, stage):
    """Evaluated composite ghost for 'u1' or 'full' (or 'u0')."""
    return scn.ev(scn.composite_ghost_term(stage))


def russian_residual(A, v, F, sA, sv):
    """Ghost-degree split of (d+s)(A+v) + (A+v)^2 - F.

    Returns the three value-norms (degree 0, 1, 2); the inputs are MForms
    with sA, sv the evaluated BRS variations.
    """
    r0 = (curvature_form(A) - F).value_norm()
    r1 = (sA + v.ext_d() + gcomm(A, v)).value_norm()
    r2 = (sv + v.wedge(v)).value_norm()
    return r0, r1, r2


def nilpotency_residuals(scn, names=("varpi", "v", "u1", "u0")):
    """s^2 and the sector-split identities on the requested fields."""
    out = {}
    terms = {
        "varpi": scn.L_varpi, "v": scn.T_v, "u1": scn.T_u1, "u0": scn.T_u0,
        "u": scn.T_u, "Omega": scn.T_omega,
    }
    for name in names:
        t = terms[name]

        def ev0(term):
            return None if _is_zero(term) else scn.ev(term)

        def norm(x):
            return 0.0 if x is None else x.value_norm()

        ss = ev0(t.stotal().stotal())
        out[f"s2_{name}"] = norm(ss)
        sH = lambda x: Sum([x.svar("L"), x.svar("i")])
        sP = lambda x: x.svar("W")
        out[f"sH2_{name}"] = norm(ev0(sH(sH(t))))
        out[f"sP2_{name}"] = norm(ev0(sP(sP(t))))
        out[f"mixed_{name}"] = norm(ev0(Sum([sH(sP(t)), sP(sH(t))])))
    return out


def two_steps_in_one(scn):
    """su u^-1 = -ell + rho u^-1 decomposition and the resulting ghost."""
    ev = scn.ev
    u = ev(scn.T_u)
    uinv = ev(scn.T_uinv)
    su = ev(scn.T_u.stotal())
    ell = ev(scn.V["L"]) + ev(scn.V["i"])
    rho = ev(scn.T_u.svar("W"))
    resid_dec = (su + ell.wedge(u) - rho).value_norm()
    vW = ev(scn.V["W"])
    vhat = uinv.wedge(vW.wedge(u)) + uinv.wedge(rho)
    resid_ghost = (vhat - scn.expected_final_ghost()).value_norm()
    return ell, rho, resid_dec, resid_ghost


def modified_brs_residuals(scn, stage="full"):
    """Lemma check: s A-hat = -D-hat v-hat, s F-hat = [F-hat, v-hat],
    s v-hat = -v-hat^2 for the requested dressing stage."""
    if stage == "u1":
        At, Ft = scn.T_varpi1, scn.T_omega1
    else:
        At, Ft = scn.T_varpi0, scn.T_omega0
    ev = scn.ev
    A = ev(At)
    F = ev(Ft)
    vhat_t = scn.composite_ghost_term(stage)
    vhat = ev(vhat_t)
    sA = ev(At.stotal())
    sF = ev(Ft.stotal())
    svhat = ev(vhat_t.stotal())
    rA = (sA + vhat.ext_d() + gcomm(A, vhat)).value_norm()
    rF = (sF - gcomm(F, vhat)).value_norm()
    rv = (svhat + vhat.wedge(vhat)).value_norm()
    return rA, rF, rv


def residual_weyl_brs(fields, scn):
    """Component laws of the reduced Weyl BRS algebra on a dressed pipeline.

    Computes s_W varpi0 = -D0 vhat_W and s_W Omega0 = [Omega0, vhat_W] with
    the evaluated composite ghost, extracts the block laws and returns the
    defect of each against its closed form, plus the sector trivialities.
    """
    m = scn.m
    model = scn.model
    vhat = composite_ghost(scn, "full")
    varpi0, Omega0 = fields.varpi0, fields.Omega0
    s_varpi0 = covariant_d(varpi0, vhat).scale(-1.0)
    s_Omega0 = gcomm(Omega0, vhat)
    eps = scn.eps_jet
    out = {}

    def fj(arr):  # float jet array -> jet coefficient, truncated in products
        return Jet(m, arr)

    # s_W g = 2 eps g (block (3,2), coefficient of dx^mu at entry nu)
    blk = model.block(s_varpi0, 3, 2)
    out["s_w_metric"] = worst_of(
        _value_defect(blk.entry(0, nu, mu), (fj(fields.g[mu, nu]) * eps) * 2.0)
        for mu in range(m) for nu in range(m))
    # s_W Gamma^r_mn = delta^r_n d_m eps + delta^r_m d_n eps - g^{rl} d_l eps g_mn
    blk = model.block(s_varpi0, 2, 2)
    ginv = jmat_inv(jtrunc(fields.g, m, min(order_of(m, fields.g), scn.ghost_order)), m)
    deps = [_d(eps, mu) for mu in range(m)]
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
                    corr = corr + (fj(ginv[r, lam]) * deps[lam]) * fj(fields.g[mu, nu])
                want = want - corr
                defects.append(_value_defect(blk.entry(r, nu, mu), want))
    out["s_w_gamma"] = worst_of(defects)
    # s_W P_mn = d_m d_n eps - d_l eps Gamma^l_mn
    blk = model.block(s_varpi0, 1, 2)
    defects = []
    for mu in range(m):
        for nu in range(m):
            want = _d(deps[mu], nu)
            for lam in range(m):
                want = want - deps[lam] * fj(fields.Gamma[lam, mu, nu])
            defects.append(_value_defect(blk.entry(0, nu, mu), want))
    out["s_w_schouten"] = worst_of(defects)
    # general two-form laws (they reduce to -d eps.W and 0 when T = f0 = 0):
    #   s_W C_{n,ms} = f0_{ms} d_n eps - d_l eps W^l_{n,ms}
    #   s_W W^r_{n,ms} = T^r_{ms} d_n eps - g^{rl} d_l eps T^a_{ms} g_{an}
    blkC = model.block(s_Omega0, 1, 2)
    blkW = model.block(s_Omega0, 2, 2)
    defectsC, defectsW = [], []
    gval = fields.g[..., 0]
    for f, (mu, sg) in enumerate(form_comps(m, 2)):
        for nu in range(m):
            want = deps[nu] * float(fields.f0[mu, sg])
            for lam in range(m):
                want = want - deps[lam] * float(fields.W[lam, nu, mu, sg])
            defectsC.append(_value_defect(blkC.entry(0, nu, f), want))
        for r in range(m):
            for nu in range(m):
                tlow = float(fields.T[:, mu, sg] @ gval[:, nu])
                want = deps[nu] * float(fields.T[r, mu, sg])
                for lam in range(m):
                    want = want - (fj(ginv[r, lam]) * deps[lam]) * tlow
                defectsW.append(_value_defect(blkW.entry(r, nu, f), want))
    out["s_w_cotton"] = worst_of(defectsC)
    out["s_w_weyl"] = worst_of(defectsW)
    # sector trivialities after full dressing
    for x in ("L", "i"):
        t0 = scn.T_varpi0.svar(x)
        t1 = scn.T_omega0.svar(x)
        n0 = 0.0 if _is_zero(t0) else scn.ev(t0).value_norm()
        n1 = 0.0 if _is_zero(t1) else scn.ev(t1).value_norm()
        out[f"s_{x}_trivial"] = worst_of((n0, n1))
    # abelian residual symmetry: s_W vhat entry (2,3) = -2 eps g^-1 deps
    vhat_t = scn.composite_ghost_term("full")
    svhat = scn.ev(vhat_t.svar("W"))
    blk = model.block(svhat, 2, 3)
    defects = []
    for r in range(m):
        want = GradedScalar()
        for lam in range(m):
            want = want - (fj(ginv[r, lam]) * (eps * deps[lam])) * 2.0
        defects.append(_value_defect(blk.entry(r, 0, 0), want))
    out["s_w_vhat_23"] = worst_of(defects)
    sveps = model.block(svhat, 1, 1).value_norm()
    out["s_w_eps"] = sveps
    return out


def algebraic_connection(fields, scn):
    """Even/odd pair (varpi0, vhat_W) with the closed-form block check.

    Blocks: (eps, P + deps; dx, Gamma + eps delta, g^-1 (P + deps)^T;
    dx^T g, -eps); returns the pair plus the entrywise defect and the
    modified Russian residuals it satisfies.
    """
    m = scn.m
    model = scn.model
    vhat = composite_ghost(scn, "full")
    expected = scn.expected_final_ghost()
    entry_defect = (vhat - expected).value_norm()
    A = fields.varpi0
    F = fields.Omega0
    sA = scn.ev(scn.T_varpi0.stotal())
    sv = scn.ev(scn.composite_ghost_term("full").stotal())
    rr = russian_residual(A, vhat, F, sA, sv)
    return vhat, entry_defect, rr


def linearization_check(conn, e, model, phi, point, order, h=1e-3, fields=None):
    """Finite Weyl derivative versus the BRS variation with eps -> phi.

    ``conn`` is the normal connection of the vielbein jets ``e``, and
    ``fields``, when given, is its ``full_pipeline(conn, e)``.  Central
    differences in the group parameter at steps h and h/2 with Richardson
    extrapolation; the BRS side is the body map of the ghost variation when
    the ghost coefficient function equals phi.
    """
    from .dressing import extract_tensors, full_pipeline
    from .jets import jder, jexp
    from .weyl import weyl_matrices, weyl_transform_dressed
    chart = model.chart
    m = model.m
    if fields is None:
        fields = full_pipeline(conn, e)
    phi_j = eval_jet(phi, chart, point, order).coeffs
    dphi = np.stack([jder(phi_j, m, mu) for mu in range(m)])

    def tensors_at(t):
        z = jexp(t * phi_j, m)
        moved = weyl_transform_dressed(fields, weyl_matrices(model, z, t * dphi, fields.e))
        return {"g": moved.g[..., 0], "Gamma": moved.Gamma[..., 0],
                "P": moved.P[..., 0], "C": moved.C, "W": moved.W}

    def diff_at(step):
        plus, minus = tensors_at(step), tensors_at(-step)
        return {k: (plus[k] - minus[k]) / (2.0 * step) for k in plus}

    d1 = diff_at(h)
    d2 = diff_at(h / 2.0)
    finite = {k: (4.0 * d2[k] - d1[k]) / 3.0 for k in d1}
    # BRS side with the ghost built on phi
    spec = GhostSpec(eps=phi, iota=["0"] * m, lorentz=["0"] * (m * (m - 1) // 2))
    scn = ConformalBRS(conn, e, spec, point, keep_body=True)
    vhat = composite_ghost(scn, "full")
    s_varpi0 = covariant_d(fields.varpi0, vhat).scale(-1.0).body()
    s_Omega0 = gcomm(fields.Omega0, vhat).body()
    g, Gamma, P, _, _, C, W = extract_tensors(s_varpi0, s_Omega0, model)
    got = {"g": g[..., 0], "Gamma": Gamma[..., 0], "P": P[..., 0], "C": C, "W": W}
    out = {}
    for k in finite:
        scale = max(1.0, np.abs(finite[k]).max())
        out[k] = float(np.abs(finite[k] - got[k]).max() / scale)
    return out


# ---------------------------------------------------------------------------
# the GR (Poincare) case
# ---------------------------------------------------------------------------

class PoincareBRS:
    """Lorentz-only BRS scenario: the vielbein dressing erases everything."""

    def __init__(self, conn, e, lorentz_spec, point, ghost_order=None, seed=0):
        model = conn.model
        if model.kind != "poincare":
            raise ShapeError("PoincareBRS needs the Poincare model")
        self.model = model
        self.chart = model.chart
        m = self.m = model.m
        self.e = e
        self.order = conn.order
        korder = ghost_order if ghost_order is not None else max(self.order, 2)
        self.pool = ghost_monos(1)
        self.cache = {}
        pairs = _lorentz_pairs(m)
        jets = _ghost_jets(lorentz_spec or ["1"] * len(pairs),
                           [f"vl{a}{b}" for a, b in pairs], self.chart, point, korder, seed)
        vlm = _lorentz_ghost(jets, m, korder, model.eta)
        self.L_vl = leaf("vl", vlm, q=1)
        self.L_vl.register("L", neg(Prod(self.L_vl, self.L_vl)))
        self.L_varpi = leaf("varpi", conn.omega, p=1, q=0)
        eiv = MForm.zeros(m, (m, m), 0, 0, order_of(m, e))
        eiv.data[:, :, 0, :] = e
        self.L_e = leaf("e", eiv)
        einv_arr = jmat_inv(e, m)
        eivi = MForm.zeros(m, (m, m), 0, 0, order_of(m, einv_arr))
        eivi.data[:, :, 0, :] = einv_arr
        self.L_einv = leaf("einv", eivi)
        self.L_e.register("L", neg(Prod(self.L_vl, self.L_e)))
        self.L_einv.register("L", Prod(self.L_einv, self.L_vl))
        one = leaf("one", MForm.identity(m, 1, self.order))
        self.V = Blk([[self.L_vl, None], [None, Zero(0, 1, (1, 1))]],
                     0, 1, m, vlm.order)
        img = Sum([D(self.V), Prod(self.L_varpi, self.V),
                   Prod(self.V, self.L_varpi)], [-1.0, -1.0, -1.0])
        self.L_varpi.register("L", img)
        self.T_u = Blk([[self.L_e, None], [None, one]], 0, 0, m, self.order)
        self.T_uinv = Blk([[self.L_einv, None], [None, one]], 0, 0, m, self.order)
        w = self.L_varpi
        self.T_omega = Sum([D(w), Prod(w, w)])
        self.T_varpi_h = Sum([Prod(self.T_uinv, Prod(w, self.T_u)),
                              Prod(self.T_uinv, D(self.T_u))])
        self.T_omega_h = Prod(self.T_uinv, Prod(self.T_omega, self.T_u))
        self.T_vhat = _composite_ghost(self.T_u, self.T_uinv, self.V,
                                       self.T_u.svar("L"))

    def ev(self, term):
        return term.ev(self.cache)

    def composite_ghost(self):
        return self.ev(self.T_vhat)

    def residuals(self):
        ev = self.ev
        out = {}
        out["composite_ghost"] = self.composite_ghost().value_norm()
        # su = -v u
        su = ev(self.T_u.svar("L"))
        vu = ev(self.V).wedge(ev(self.T_u))
        out["su_rule"] = (su + vu).value_norm()
        out["s_gamma_hat"] = ev(self.T_varpi_h.svar("L")).value_norm()
        out["s_omega_hat"] = ev(self.T_omega_h.svar("L")).value_norm()
        out["s2_varpi"] = ev(self.L_varpi.svar("L").svar("L")).value_norm()
        return out
