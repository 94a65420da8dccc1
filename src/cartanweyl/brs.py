"""BRS ghost algebra for the conformal and GR Cartan geometries.

The BRS operator s acts as an antiderivation of total degree +1 with
ds = -sd.  It is realized over a shallow term layer: leaves are the basic
fields (connection, ghost components, q, vielbein), whose sector images the
BRS object registers; composites (dressings, dressed fields, composite
ghosts) are Sum/Prod/D/Block nodes, so second applications of s follow from
the graded Leibniz rule with no symbolic algebra beyond the DAG.  Each read
names the jet order it needs, and a node is evaluated only to that order.

A ghost field is a jet whose Taylor coefficients each carry their own
Grassmann generator, scaled by the scenario coefficient function; this keeps
products like eps * d(eps) nonzero, which the reduced Weyl algebra requires.
Each such generator is projected onto the GHOST_POOL shared generators of
:mod:`cartanweyl.forms` with seeded weights, a homomorphism of Grassmann
algebras, so every identity is checked on its image in the small pool.  A
ghost field is thus one dense (..., GHOST_POOL, C) array, a jet on each
pool generator at each point of a batch, and the BRS classes build their
terms once for all the points of a batch.

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

import math
import zlib
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, partial
from math import inf

import numpy as np

from .cartan import covariant_d, curvature_form
from .dressing import (DressedPair, DressingU0, dress, extract_tensors, extract_u1,
                       vielbein_of)
from .errors import ShapeError
from .exprs import Const, compile_expr, eval_jets
from .forms import GHOST_POOL, MForm, block_matrix, eta_t, form_comps, gcomm, ghost_monos
from .jets import jder, jexp, jmat_inv, jtrunc, order_of
from .orders import order_plan
from .reduction import worst_entry
from .tensors import dstack, metric_from_vielbein
from .weyl import weyl_matrices, weyl_transform_dressed

SECTORS = ("W", "L", "i")
FULL = inf      # the need of a read that keeps every jet order a node has


# ---------------------------------------------------------------------------
# term layer
# ---------------------------------------------------------------------------

class Term:
    """Immutable node of the BRS term DAG.

    ``ev(cache, need)`` evaluates the node to jet order ``need``: 0 for a
    value, plus 1 for each d a check takes outside the DAG
    (``curvature_form``, ``covariant_d``, ``ext_d``).  Sum, Prod, EtaT and Blk
    ask their children for ``need``, D asks for ``need + 1`` and a Leaf cuts
    its value.  By the truncation lemma (:mod:`cartanweyl.orders`) every
    node evaluates to the truncation of its full-order value, bit for bit,
    and a d of a value read raises JetOrderError.

    ``children`` are the terms the node is built from; a leaf has none.
    ``_build_s(images)`` is a composite's image in one sector by the graded
    Leibniz rule, given the images of its children in that order; it is
    called only when some child varies (see :class:`_TermOwner`).
    """

    __slots__ = ("p", "q", "shape")
    children = ()

    def __init__(self, p, q, shape):
        self.p = p
        self.q = q
        self.shape = shape

    @property
    def total(self):
        return self.p + self.q

    def ev(self, cache, need=FULL):
        # keyed on the node itself: the cache then also keeps temporaries
        # alive, so identity-based lookups can never alias freed nodes.  It
        # keeps the value at the highest need asked so far and serves a lower
        # need by truncating it.
        hit = cache.get(self)
        if hit is None or hit[0] < need:
            hit = cache[self] = (need, self._ev(cache, need))
        value = hit[1]
        return value if value.order <= need else value.truncate(need)


class Leaf(Term):
    __slots__ = ("name", "value")

    def __init__(self, name, value, p=0, q=0):
        super().__init__(p, q, value.shape)
        self.name = name
        self.value = value

    def _ev(self, cache, need):
        return self.value.truncate(min(need, self.value.order))

    def __repr__(self):
        return f"Leaf({self.name})"


class Zero(Term):
    __slots__ = ()

    def _ev(self, cache, need):
        raise ShapeError("a bare Zero term cannot be evaluated")


def _is_zero(t):
    """A structural zero: a Zero, or a product with a Zero factor, as
    ``Prod._build_s`` writes the side whose factor's image is Zero."""
    return isinstance(t, Zero) or isinstance(t, Prod) and Zero in (type(t.a), type(t.b))


class Sum(Term):
    __slots__ = ("terms", "coeffs")

    def __init__(self, terms, coeffs=None):
        t = terms[0]
        super().__init__(t.p, t.q, t.shape)
        self.terms = list(terms)
        self.coeffs = list(coeffs) if coeffs is not None else [1.0] * len(terms)

    @property
    def children(self):
        return self.terms

    def _build_s(self, images):
        return mk_sum(images, self.coeffs)

    def _ev(self, cache, need):
        acc = None
        for t, c in zip(self.terms, self.coeffs):
            v = t.ev(cache, need) if c == 1.0 else t.ev(cache, need).scale(c)
            acc = v if acc is None else acc + v
        return acc


def mk_sum(terms, coeffs=None):
    """Sum of the terms that are not structural zeros; a Zero if none is."""
    coeffs = list(coeffs) if coeffs is not None else [1.0] * len(terms)
    live = [(t, c) for t, c in zip(terms, coeffs) if not _is_zero(t)]
    if not live:
        t = terms[0]
        return Zero(t.p, t.q, t.shape)
    return Sum([t for t, _ in live], [c for _, c in live])


class Prod(Term):
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        if a.shape[1] != b.shape[0]:
            raise ShapeError(f"Prod shape mismatch {a.shape} x {b.shape}")
        super().__init__(a.p + b.p, a.q + b.q, (a.shape[0], b.shape[1]))
        self.a = a
        self.b = b

    @property
    def children(self):
        return (self.a, self.b)

    def _build_s(self, images):
        # the side whose factor's image is Zero is a structural zero, which
        # mk_sum drops
        sa, sb = images
        sign = -1.0 if self.a.total % 2 else 1.0
        return mk_sum([Prod(sa, self.b), Prod(self.a, sb)], [1.0, sign])

    def _ev(self, cache, need):
        return self.a.ev(cache, need).wedge(self.b.ev(cache, need))


class D(Term):
    __slots__ = ("t",)

    def __init__(self, t):
        super().__init__(t.p + 1, t.q, t.shape)
        self.t = t

    @property
    def children(self):
        return (self.t,)

    def _build_s(self, images):
        return Sum([D(images[0])], [-1.0])

    def _ev(self, cache, need):
        return self.t.ev(cache, need + 1).ext_d()


class EtaT(Term):
    __slots__ = ("t", "eta")

    def __init__(self, t, eta):
        r, c = t.shape
        super().__init__(t.p, t.q, (c, r))
        self.t = t
        self.eta = eta

    @property
    def children(self):
        return (self.t,)

    def _build_s(self, images):
        return EtaT(images[0], self.eta)

    def _ev(self, cache, need):
        return eta_t(self.t.ev(cache, need), self.eta)


class Blk(Term):
    """Block matrix of terms; None entries are zero blocks.

    Its degrees are those of its first term entry and its sizes those of
    its entries.  Zero terms participate in size inference but evaluate as
    zero blocks, so a row or column of structural zeros just needs one
    sized Zero.
    """

    __slots__ = ("rows", "row_sizes", "col_sizes")

    def __init__(self, rows):
        rsz = [None] * len(rows)
        csz = [None] * len(rows[0])
        for i, row in enumerate(rows):
            for j, t in enumerate(row):
                if t is not None:
                    rsz[i] = t.shape[0]
                    csz[j] = t.shape[1]
        if None in rsz or None in csz:
            raise ShapeError("cannot infer Blk sizes")
        first = next(t for row in rows for t in row if t is not None)
        super().__init__(first.p, first.q, (sum(rsz), sum(csz)))
        self.rows = rows
        self.row_sizes, self.col_sizes = rsz, csz

    @property
    def children(self):
        return [t for row in self.rows for t in row if t is not None]

    def _build_s(self, images):
        images = iter(images)
        return Blk([[None if t is None else next(images) for t in row] for row in self.rows])

    def _ev(self, cache, need):
        grid = [[None if t is None or _is_zero(t) else t.ev(cache, need)
                 for t in row] for row in self.rows]
        m = next(v for row in grid for v in row if v is not None).m
        return block_matrix(grid, m, self.p, self.q, need,
                            row_sizes=self.row_sizes, col_sizes=self.col_sizes)


def neg(t):
    return Sum([t], [-1.0])


def _on_lorentz(model, term, fill):
    """The block-diagonal term of the model's grid with ``term`` on the
    Lorentz block and ``fill`` on each other diagonal block."""
    blocks = range(len(model.edges) - 1)
    lor = model.lorentz - 1
    return Blk([[(term if i == lor else fill) if i == j else None for j in blocks]
                for i in blocks])


class _TermOwner:
    """What the two BRS classes share: the constructor's prologue, the
    Lorentz leaves, the evaluation cache and the s-images.

    ``images`` maps (term, sector) to s_sector of the term, and (term,
    sector tuple) to its sum over the sectors.  A leaf's images are
    registered.  Any other image is Zero when no child of the term varies,
    a leaf with none registered included, and is built otherwise, once, by
    the graded Leibniz rule on the images of the term's children.  Terms
    refer only to their children, never to this object, so the term graph
    is acyclic: dropping the object frees it, with the cache and the leaf
    values (a batch's connection, ghosts and vielbein jets), by reference
    count alone.
    """

    def __init__(self, conn, e, kind):
        model = conn.model
        if model.kind != kind:
            raise ShapeError(f"{type(self).__name__} needs the {kind} model")
        self.model = model
        self.chart = model.chart
        self.m = model.m
        self.e = vielbein_of(conn) if e is None else e
        self.order = conn.order
        self.plan = order_plan(kind)
        self.ghost_order = max(self.order, self.plan.ghost)
        self.pool = ghost_monos(1)
        self.cache = {}
        self.images = {}
        self.L_varpi = Leaf("varpi", conn.omega, p=1)
        self.T_omega = _curvature(self.L_varpi)

    def _lorentz_leaves(self, fields):
        """The Lorentz ghost, vielbein and inverse-vielbein leaves with their
        Lorentz images, the inverse vielbein jets ``einv``, and the terms
        ``V_L``, ``T_u0`` and ``T_u0inv`` that place them on the model's grid.

        s_L v_L = -v_L^2, s_L e = -v_L e and s_L e^-1 = e^-1 v_L.
        """
        m = self.m
        vl = self.L_vl = Leaf("vl", _lorentz_ghost(fields, m, self.ghost_order,
                                                    self.model.eta), q=1)
        self.register(vl, "L", neg(Prod(vl, vl)))
        # u^-1 du takes one d of e^-1: e is cut one order above the
        # connection, as dress cuts it for u0
        self.einv = jmat_inv(jtrunc(self.e, m, min(self.order + 1, order_of(m, self.e))), m)
        self.L_e = Leaf("e", MForm.of_jets(m, self.e))
        self.L_einv = Leaf("einv", MForm.of_jets(m, self.einv))
        self.register(self.L_e, "L", neg(Prod(vl, self.L_e)))
        self.register(self.L_einv, "L", Prod(self.L_einv, vl))
        one = self.T_one = Leaf("one", MForm.identity(m, 1, self.order))
        self.V_L = _on_lorentz(self.model, vl, Zero(0, 1, (1, 1)))
        self.T_u0 = _on_lorentz(self.model, self.L_e, one)
        self.T_u0inv = _on_lorentz(self.model, self.L_einv, one)

    def register(self, leaf, sector, term):
        self.images[leaf, sector] = term

    def s(self, term, sector):
        key = (term, sector)
        if key not in self.images:
            images = [self.s(c, sector) for c in term.children]
            if all(_is_zero(t) for t in images):
                self.images[key] = Zero(term.p, term.q + 1, term.shape)
            else:
                self.images[key] = term._build_s(images)
        return self.images[key]

    def ssum(self, term, sectors):
        """s_x of ``term`` summed over ``sectors``; Zero if none varies it."""
        key = (term, tuple(sectors))
        if key not in self.images:
            self.images[key] = mk_sum([self.s(term, x) for x in key[1]])
        return self.images[key]

    def stotal(self, term):
        return self.ssum(term, SECTORS)

    def ev(self, term, need=FULL):
        """``term`` at jet order ``need``; a structural zero reads 0.0, as
        the reducer takes it."""
        return 0.0 if _is_zero(term) else term.ev(self.cache, need)


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


def _ghost_fields(exprs, names, chart, point, order, seeds, keep_body=False):
    """Dense odd fields (..., GHOST_POOL, C) of the named coefficient
    functions, one eval_jets call for them all.

    The field of f is sum_beta theta_beta c_beta (unit jet at beta) with
    c_beta = d^beta f / beta!: one generator per Taylor coefficient, so
    products like eps * d(eps) stay nonzero.  Each theta_beta is sent to
    sum_j r_beta,j eta_j over the shared generators eta_j, which leaves the
    jet sum_beta r_beta,j c_beta (unit jet at beta) on eta_j: row j of the
    field.  ``seeds`` holds one seed per point, in the order of the point
    axes; a lone point without a point axis takes one.
    """
    coeffs = eval_jets([compile_expr(x) for x in exprs], chart, point, order)
    lead, size = coeffs.shape[:-2], coeffs.shape[-1]
    if len(seeds) != math.prod(lead):
        raise ShapeError(f"{len(seeds)} ghost seeds for {math.prod(lead)} points")
    out = []
    for k, name in enumerate(names):
        w = np.stack([_pool_weights(s, name, size, keep_body) for s in seeds])
        out.append((coeffs[..., k, :, None] * w.reshape(lead + w.shape[1:])).swapaxes(-1, -2))
    return out


def _ghost_form(m, shape, order, entries):
    """(shape) ghost 0-form with the dense field ``entries[i, j]`` at entry
    (i, j) and zeros elsewhere."""
    lead = next(iter(entries.values())).shape[:-2]
    out = MForm.zeros(m, shape, 0, 1, order, lead)
    for (i, j), field in entries.items():
        out.data[..., i, j, :, :] = field
    return out


def _deps_form(eps, m, order):
    """The (1, m) ghost row d_mu eps of the dense field ``eps``."""
    return _ghost_form(m, (1, m), order - 1, {(0, mu): jder(eps, m, mu) for mu in range(m)})


def _lorentz_ghost(fields, m, order, eta):
    """so(eta)-valued Lorentz ghost: sum of the (a, b) ghost field times G_ab."""
    entries = {}
    for (a, b), field in zip(form_comps(m, 2), fields):
        # (G_ab)^i_j = delta^i_a eta_bj - delta^i_b eta_aj
        entries[a, b] = field * float(eta[b])
        entries[b, a] = field * float(-eta[a])
    return _ghost_form(m, (m, m), order, entries)


def _composite_ghost(u, uinv, v, su):
    """The composite ghost u^-1 v u + u^-1 s u as a term."""
    return Sum([Prod(uinv, Prod(v, u)), Prod(uinv, su)])


def _connection_image(varpi, v):
    """s varpi = -(dv + varpi v + v varpi) for the ghost term v."""
    return Sum([D(v), Prod(varpi, v), Prod(v, varpi)], [-1.0, -1.0, -1.0])


def _curvature(w):
    """Omega = dw + w w as a term."""
    return Sum([D(w), Prod(w, w)])


def _dressed_pair(w, F, u, uinv):
    """The dressed pair (u^-1 w u + u^-1 du, u^-1 F u) as terms."""
    return (Sum([Prod(uinv, Prod(w, u)), Prod(uinv, D(u))]),
            Prod(uinv, Prod(F, u)))


class ConformalBRS(_TermOwner):
    """Terms, leaves and ghost data of a Moebius scenario at the points of a
    batch, whose axis ``conn`` and ``e`` carry (or at one point, without it).

    ``cache`` is the one term-DAG evaluation context: every evaluation
    through this object reads and fills it, so each node, the composite
    ghosts included, is evaluated once however many checks use it, and again
    only when a check needs it to a higher order.  ``seeds`` (one per point)
    and ``keep_body`` select the projection weights of the ghosts (see
    :func:`_pool_weights`).
    """

    def __init__(self, conn, e, ghost_spec, point, seeds=(0,), keep_body=False):
        super().__init__(conn, e, "mobius")
        m = self.m
        gs = ghost_spec
        iota = list(gs.iota or ["1"] * m)
        pairs = form_comps(m, 2)
        names = (["eps"] + [f"iota{a}" for a in range(len(iota))]
                 + [f"vl{a}{b}" for a, b in pairs])
        self.seeds, self.keep_body = seeds, keep_body
        fields = _ghost_fields([gs.eps] + iota + list(gs.lorentz or ["1"] * len(pairs)),
                               names, self.chart, point, self.ghost_order, seeds, keep_body)
        # the dense fields, each (..., GHOST_POOL, C)
        self.eps_jet, self.iota_jets = fields[0], fields[1:len(iota) + 1]
        self._build_leaves(conn, fields[len(iota) + 1:])
        self._register_images()
        self._build_composites()

    def eps_eye(self, n, rows=None):
        """(n, n) ghost matrix of eps on the diagonal ``rows`` (all by default);
        on rows 1..m of the Moebius size it is the s_W u0 = (eps 1) u0 factor."""
        rows = range(n) if rows is None else rows
        return _ghost_form(self.m, (n, n), self.ghost_order,
                           {(i, i): self.eps_jet for i in rows})

    # -- leaves and images -----------------------------------------------------

    def _build_leaves(self, conn, vl_fields):
        m, order = self.m, self.ghost_order
        self.L_eps = Leaf("eps", _ghost_form(m, (1, 1), order, {(0, 0): self.eps_jet}), q=1)
        self.L_deps = Leaf("deps", _deps_form(self.eps_jet, m, order), q=1)
        iota = {(0, a): f for a, f in enumerate(self.iota_jets)}
        self.L_iota = Leaf("iota", _ghost_form(m, (1, m), order, iota), q=1)
        self.L_epsI_m = Leaf("eps_eye_m", self.eps_eye(m), q=1)
        self._lorentz_leaves(vl_fields)
        self.u1 = extract_u1(conn, self.einv)
        self.L_q = Leaf("q", self.u1.q)

    def _v_sectors(self):
        """The ghost of each sector, as a term on the Moebius grid."""
        eps, iota = self.L_eps, self.L_iota
        z11, zmm = Zero(0, 1, (1, 1)), Zero(0, 1, (self.m, self.m))
        return {"W": Blk([[eps, None, None], [None, zmm, None], [None, None, neg(eps)]]),
                "L": self.V_L,
                "i": Blk([[z11, iota, None], [None, zmm, EtaT(iota, self.model.eta)],
                          [None, None, z11]])}

    def _register_images(self):
        eps, deps, iota, vl = self.L_eps, self.L_deps, self.L_iota, self.L_vl
        q, e, einv, epsI = self.L_q, self.L_e, self.L_einv, self.L_epsI_m
        # ghosts (the Lorentz images of v_L, e and e^-1 are set with the leaves)
        self.register(iota, "W", neg(Prod(eps, iota)))
        self.register(iota, "L", neg(Prod(iota, vl)))
        # vielbein and its inverse
        self.register(e, "W", Prod(epsI, e))
        self.register(einv, "W", neg(Prod(epsI, einv)))
        # q = a . e^-1
        self.register(q, "W", Sum([Prod(eps, q), Prod(deps, einv)], [-1.0, 1.0]))
        self.register(q, "L", Prod(q, vl))
        self.register(q, "i", neg(iota))
        # the connection
        self.V = self._v_sectors()
        for x in SECTORS:
            self.register(self.L_varpi, x, _connection_image(self.L_varpi, self.V[x]))

    def _build_composites(self):
        """The dressings u1 and u = u1 u0 (u0 comes with the Lorentz leaves),
        the dressed pairs, and the composite ghosts v-hat = u^-1 v u + u^-1 s u
        of u1 (``T_vhat1``) and of u in one step (``T_vhat``)."""
        m = self.m
        eta = self.model.eta
        one = self.T_one
        eye = self.T_eye = Leaf("eye_m", MForm.identity(m, m, self.order))
        q = self.L_q
        qt = EtaT(q, eta)
        self.T_u1 = Blk([[one, q, Sum([Prod(q, qt)], [0.5])],
                         [None, eye, qt],
                         [None, None, one]])
        nq = neg(q)
        nqt = EtaT(nq, eta)
        self.T_u1inv = Blk([[one, nq, Sum([Prod(nq, nqt)], [0.5])],
                            [None, eye, nqt],
                            [None, None, one]])
        self.T_u = Prod(self.T_u1, self.T_u0)
        self.T_uinv = Prod(self.T_u0inv, self.T_u1inv)
        self.T_v = Sum([self.V["W"], self.V["L"], self.V["i"]])
        w = self.L_varpi
        self.T_varpi1, self.T_omega1 = _dressed_pair(w, self.T_omega, self.T_u1,
                                                     self.T_u1inv)
        self.T_varpi0, self.T_omega0 = _dressed_pair(w, self.T_omega, self.T_u, self.T_uinv)
        self.T_vhat1 = _composite_ghost(self.T_u1, self.T_u1inv, self.T_v,
                                        self.stotal(self.T_u1))
        self.T_vhat = _composite_ghost(self.T_u, self.T_uinv, self.T_v, self.stotal(self.T_u))

    # -- the expected ghosts ---------------------------------------------------
    # They are compared on their values only, so they are built from the leaf
    # values at order 0.

    def expected_first_ghost(self):
        """[[eps, deps.e^-1, 0], [0, v_L, (.)^t], [0, 0, -eps]]."""
        eps, deps, einv, vl = (t.value.truncate(0) for t in
                               (self.L_eps, self.L_deps, self.L_einv, self.L_vl))
        row = deps.wedge(einv)
        grid = [[eps, row, None],
                [None, vl, eta_t(row, self.model.eta)],
                [None, None, eps.scale(-1.0)]]
        return block_matrix(grid, self.m, 0, 1, 0)

    @cached_property
    def expected_final_ghost(self):
        """[[eps, deps, 0], [0, eps delta, g^-1 deps^T], [0, 0, -eps]].

        Built once per batch: three checks compare against it.
        """
        m = self.m
        deps = self.L_deps.value.truncate(0)
        ginv = jmat_inv(metric_from_vielbein(jtrunc(self.e, m, 0), self.model.eta), m)[..., 0]
        # g^{r lam} d_lam eps on each generator, summed over lam in turn
        d = deps.data[..., 0, :, :, 0]          # (..., lam, generator)
        acc = ginv[..., :, 0, None] * d[..., 0, None, :]
        for lam in range(1, m):
            acc = acc + ginv[..., :, lam, None] * d[..., lam, None, :]
        col = MForm.zeros(m, (m, 1), 0, 1, 0, deps.lead)
        col.data[..., 0, :, 0] = acc
        eps = self.L_eps.value.truncate(0)
        grid = [[eps, deps, None],
                [None, self.eps_eye(m), col],
                [None, None, eps.scale(-1.0)]]
        return block_matrix(grid, m, 0, 1, 0)


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------

def russian_residual(A, v, F, sA, sv):
    """Ghost-degree split of (d+s)(A+v) + (A+v)^2 - F.

    Returns its three parts (ghost degree 0, 1, 2); the inputs are MForms
    with sA, sv the evaluated BRS variations.
    """
    return curvature_form(A) - F, sA + v.ext_d() + gcomm(A, v), sv + v.wedge(v)


_H = ("L", "i")     # the sectors of h' = Lorentz + inversions


def nilpotency_residuals(scn, fields):
    """s^2 and the sector-split identities on ``fields``, {row name: term}."""
    out = {}
    for name, t in fields.items():
        sW, sH = scn.s(t, "W"), scn.ssum(t, _H)
        rows = {f"s2_{name}": scn.stotal(scn.stotal(t)),
                f"sH2_{name}": scn.ssum(sH, _H),
                f"sP2_{name}": scn.s(sW, "W"),
                f"mixed_{name}": mk_sum([scn.ssum(sW, _H), scn.s(sH, "W")])}
        out.update({row: scn.ev(term, 0) for row, term in rows.items()})
    return out


def two_steps_in_one(scn):
    """su u^-1 = -ell + rho u^-1 decomposition and the resulting ghost."""
    ev = partial(scn.ev, need=0)
    u = ev(scn.T_u)
    uinv = ev(scn.T_uinv)
    su = ev(scn.stotal(scn.T_u))
    ell = ev(scn.V["L"]) + ev(scn.V["i"])
    rho = ev(scn.s(scn.T_u, "W"))
    resid_dec = su + ell.wedge(u) - rho
    vW = ev(scn.V["W"])
    vhat = uinv.wedge(vW.wedge(u)) + uinv.wedge(rho)
    resid_ghost = vhat - scn.expected_final_ghost
    return ell, rho, resid_dec, resid_ghost


def modified_brs_residuals(scn, A, F, vhat):
    """Lemma check on the dressed pair (A, F) and its composite ghost vhat,
    all terms: s A = -D vhat, s F = [F, vhat] and s vhat = -vhat^2."""
    ev = partial(scn.ev, need=0)
    A_v, F_v = ev(A), ev(F)
    v = scn.ev(vhat, 1)        # its d is taken below
    sA, sF, sv = (ev(scn.stotal(t)) for t in (A, F, vhat))
    return sA + v.ext_d() + gcomm(A_v, v), sF - gcomm(F_v, v), sv + v.wedge(v)


def residual_weyl_brs(fields, scn):
    """Component laws of the reduced Weyl BRS algebra on a dressed pipeline.

    Computes s_W varpi0 = -D0 vhat_W and s_W Omega0 = [Omega0, vhat_W] with
    the evaluated composite ghost, extracts the block laws and returns the
    defect of each against its closed form, plus the sector trivialities.
    Every law is read on value coefficients, so each closed form is one
    array of values over (..., row, col, ghost monomial, dx comp), built from
    eps and its first two derivatives on the pool generators and the values
    of g, g^-1, Gamma, T, f0 and W, and the block's values are split the
    same way (its component axis is ghost-major).  A block of one row takes
    the closed form on its columns with a row axis put in front.
    """
    m = scn.m
    model = scn.model
    vhat = scn.ev(scn.T_vhat, 1)        # covariant_d takes its d
    s_varpi0 = covariant_d(fields.varpi0, vhat).scale(-1.0)
    s_Omega0 = gcomm(fields.Omega0, vhat)
    # eps (..., G), d_mu eps (..., m, G) and d_nu d_mu eps (..., m, m, G)
    e2 = jtrunc(scn.eps_jet, m, scn.plan.ghost)
    d1 = dstack(e2, m, 1)
    eps, deps = e2[..., 0], d1[..., 0]
    ddeps = np.stack([jder(d1, m, nu)[..., 0] for nu in range(m)], axis=-2)
    g, Gamma = fields.g[..., 0], fields.Gamma[..., 0]
    ginv = jmat_inv(jtrunc(fields.g, m, 0), m)[..., 0]
    up = ginv @ deps                    # g^{rl} d_l eps
    delta = np.eye(m)
    laws = {}       # row -> (block, its closed form)
    # s_W g = 2 eps g (block (3,2), coefficient of dx^mu at entry nu)
    laws["s_w_metric"] = (model.block(s_varpi0, 3, 2),
                          2.0 * np.einsum("...mn,...j->...njm", g, eps)[..., None, :, :, :])
    # s_W Gamma^r_mn = delta^r_n d_m eps + delta^r_m d_n eps - g^{rl} d_l eps g_mn
    laws["s_w_gamma"] = (model.block(s_varpi0, 2, 2),
                         np.einsum("rn,...mj->...rnjm", delta, deps)
                         + np.einsum("rm,...nj->...rnjm", delta, deps)
                         - np.einsum("...rj,...mn->...rnjm", up, g))
    # s_W P_mn = d_m d_n eps - d_l eps Gamma^l_mn
    laws["s_w_schouten"] = (model.block(s_varpi0, 1, 2),
                            (np.moveaxis(ddeps, -3, -1)
                             - np.einsum("...lj,...lmn->...njm", deps,
                                         Gamma))[..., None, :, :, :])
    # general two-form laws (they reduce to -d eps.W and 0 when T = f0 = 0):
    #   s_W C_{n,ms} = f0_{ms} d_n eps - d_l eps W^l_{n,ms}
    #   s_W W^r_{n,ms} = T^r_{ms} d_n eps - g^{rl} d_l eps T^a_{ms} g_{an}
    mu, sg = np.array(form_comps(m, 2)).T
    T, f0, W = fields.T[..., mu, sg], fields.f0[..., mu, sg], fields.W[..., mu, sg]
    laws["s_w_cotton"] = (model.block(s_Omega0, 1, 2),
                          (np.einsum("...nj,...f->...njf", deps, f0)
                           - np.einsum("...lj,...lnf->...njf", deps, W))[..., None, :, :, :])
    tlow = np.einsum("...af,...an->...nf", T, g)
    laws["s_w_weyl"] = (model.block(s_Omega0, 2, 2),
                        np.einsum("...nj,...rf->...rnjf", deps, T)
                        - np.einsum("...rj,...nf->...rnjf", up, tlow))
    # abelian residual symmetry: s_W vhat entry (2,3) = -2 eps g^-1 deps, with
    # eps deps = sum over pool pairs j < k of (e_j d_k - e_k d_j) eta_j eta_k
    svhat = scn.ev(scn.s(scn.T_vhat, "W"), 0)
    j, k = np.array(ghost_monos(2)).T
    eps_deps = eps[..., None, j] * deps[..., k] - eps[..., None, k] * deps[..., j]
    laws["s_w_vhat_23"] = (model.block(svhat, 2, 3),
                           (-2.0 * ginv @ eps_deps)[..., :, None, :, None])
    out = {row: blk.data[..., 0].reshape(want.shape) - want
           for row, (blk, want) in laws.items()}
    out["s_w_eps"] = model.block(svhat, 1, 1)
    # sector trivialities after full dressing
    for x in ("L", "i"):
        out[f"s_{x}_trivial"] = tuple(scn.ev(scn.s(t, x), 0)
                                      for t in (scn.T_varpi0, scn.T_omega0))
    return out


def algebraic_connection(fields, scn):
    """Even/odd pair (varpi0, vhat_W) with the closed-form block check.

    Blocks: (eps, P + deps; dx, Gamma + eps delta, g^-1 (P + deps)^T;
    dx^T g, -eps); returns the pair plus the entrywise defect and the
    modified Russian residuals it satisfies.
    """
    vhat = scn.ev(scn.T_vhat, 1)        # the Russian residual takes its d
    entry_defect = vhat - scn.expected_final_ghost
    A = fields.varpi0
    F = fields.Omega0
    sA = scn.ev(scn.stotal(scn.T_varpi0), 0)
    sv = scn.ev(scn.stotal(scn.T_vhat), 0)
    rr = russian_residual(A, vhat, F, sA, sv)
    return vhat, entry_defect, rr


_ZERO = Const(Fraction(0))     # the zero coefficient function, already parsed
STEP = 1e-3                    # the group parameter step h of linearization_check


def linearization_check(conn, e, model, phi, point):
    """Finite Weyl derivative versus the BRS variation with eps -> phi.

    ``conn`` is the normal connection of the vielbein jets ``e``.  Both
    sides read values, so the check cuts ``conn``, e, z and d phi to the
    plan's route order (the d of the conjugation) and moves the dressed pair
    at order 0 with its dressing's u0.  Central differences in the group
    parameter at steps h = ``STEP`` and h/2 with Richardson extrapolation,
    the pair moved at all four parameters as one 4-stack; the BRS side is the body map of the ghost variation when the ghost
    coefficient function equals phi.

    Unlike every other row, each of g, Gamma, P, C and W is reduced here,
    one value per point relative to max(1, |finite side|), and the report
    reads the result as it is.  The finite side is exact only up to the
    extrapolation's O(h^4) and the rounding of its difference quotients,
    which is why the row is held to the looser ``LINEAR`` threshold on a
    relative scale.  It stays a comparison of values: the error of a higher
    jet coefficient of the quotients grows with the derivatives of phi and
    of the fields it takes, and no measurement gives it a scale under
    ``LINEAR``.
    """
    m = model.m
    k = order_plan(model.kind).route
    e1 = jtrunc(e, m, k)
    _, u0, _, _, _, varpi0, Omega0 = dress(conn.truncate(k), e1)
    varpi0, Omega0 = varpi0.truncate(0), Omega0.truncate(0)
    low = DressedPair(model, varpi0, Omega0, e1, *extract_tensors(varpi0, Omega0, model))
    phi_j = eval_jets([compile_expr(phi)], model.chart, point, k + 1)[..., 0, :]
    dphi = dstack(phi_j, m, 0)

    # the pair moved at t = h, -h, h/2, -h/2 as one 4-stack, t on a leading
    # axis in front of the point axes, to which u0 broadcasts
    steps = (STEP, STEP / 2.0)
    tk = np.array([s * sign for s in steps for sign in (1.0, -1.0)]).reshape(
        (-1,) + (1,) * phi_j.ndim)
    u0 = DressingU0(u0.e[None], u0.einv[None], MForm.stack([u0.mat]), MForm.stack([u0.inv]))
    z = jexp(tk * jtrunc(phi_j, m, k), m)
    moved = weyl_transform_dressed(low, weyl_matrices(model, z, tk[..., None] * dphi, u0))
    at = {"g": moved.g[..., 0], "Gamma": moved.Gamma[..., 0], "P": moved.P[..., 0],
          "C": moved.C, "W": moved.W}
    # the central difference at each step, then Richardson's extrapolation
    d1, d2 = ({k: (x[2 * i] - x[2 * i + 1]) / (2.0 * step) for k, x in at.items()}
              for i, step in enumerate(steps))
    finite = {k: (4.0 * d2[k] - d1[k]) / 3.0 for k in d1}
    # BRS side with the ghost built on phi
    spec = GhostSpec(eps=phi, iota=[_ZERO] * m, lorentz=[_ZERO] * (m * (m - 1) // 2))
    seeds = [0] * math.prod(np.shape(point)[:-1])
    b = ConformalBRS(conn, e, spec, point, seeds, keep_body=True)
    vhat = b.ev(b.T_vhat, 1)        # covariant_d takes its d
    del b                           # frees its term graph before the tensors are read
    s_varpi0 = covariant_d(varpi0, vhat).scale(-1.0).body()
    s_Omega0 = gcomm(Omega0, vhat).body()
    g, Gamma, P, _, _, C, W = extract_tensors(s_varpi0, s_Omega0, model)
    got = {"g": g[..., 0], "Gamma": Gamma[..., 0], "P": P[..., 0], "C": C, "W": W}
    lead = phi_j.shape[:-1]
    return {k: worst_entry(finite[k] - got[k], lead)
            / np.maximum(1.0, worst_entry(finite[k], lead)) for k in finite}


# ---------------------------------------------------------------------------
# the GR (Poincare) case
# ---------------------------------------------------------------------------

class PoincareBRS(_TermOwner):
    """Lorentz-only BRS scenario: the vielbein dressing erases everything.
    Its arguments carry a batch's points as :class:`ConformalBRS`'s do."""

    def __init__(self, conn, e, lorentz_spec, point, seeds=(0,)):
        super().__init__(conn, e, "poincare")
        m = self.m
        pairs = form_comps(m, 2)
        self._lorentz_leaves(_ghost_fields(lorentz_spec or ["1"] * len(pairs),
                                           [f"vl{a}{b}" for a, b in pairs], self.chart,
                                           point, self.ghost_order, seeds))
        self.register(self.L_varpi, "L", _connection_image(self.L_varpi, self.V_L))
        self.T_varpi_h, self.T_omega_h = _dressed_pair(self.L_varpi, self.T_omega,
                                                       self.T_u0, self.T_u0inv)
        self.T_vhat = _composite_ghost(self.T_u0, self.T_u0inv, self.V_L,
                                       self.s(self.T_u0, "L"))

    def residuals(self):
        """The brs-gr rows; every one reads values only."""
        ev = partial(self.ev, need=0)
        out = {}
        out["composite_ghost"] = ev(self.T_vhat)
        # su = -v u
        su = ev(self.s(self.T_u0, "L"))
        vu = ev(self.V_L).wedge(ev(self.T_u0))
        out["su_rule"] = su + vu
        out["s_gamma_hat"] = ev(self.s(self.T_varpi_h, "L"))
        out["s_omega_hat"] = ev(self.s(self.T_omega_h, "L"))
        out["s2_varpi"] = ev(self.s(self.s(self.L_varpi, "L"), "L"))
        return out
