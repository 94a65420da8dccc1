"""Scenario files and the built-in catalog.

A scenario pins everything a check run needs: chart dimension and signature,
model kind, vielbein expressions, optional gauge scramble and Weyl factor,
ghost coefficient functions, sample points and tolerance.  The JSON form
is hand-editable and diffable; expression values are strings in the
field-expression grammar.

No scenario sets a jet order: each point is built at its model's build
order (:func:`~cartanweyl.orders.order_plan`).  :meth:`Scenario.from_dict`
checks a file's legacy jet order key as it always did, then drops it.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, field

from .errors import CartanWeylError, ScenarioError
from .exprs import parse_expr
from .jets import Chart
from .orders import order_plan

MODELS = ("mobius", "poincare")
# The Moebius model needs m >= 3, and so does the Poincare model's classical
# oracle (its Schouten tensor divides by m - 2).  MAX_DIMENSION is the largest
# m that CI runs under its memory cap, no measured limit of the engine.
# MAX_JET_ORDER bounds the legacy jet order key, checked and then dropped.
MIN_DIMENSION = 3
MAX_DIMENSION = 6
MAX_JET_ORDER = 8


def _is_int(x):
    return isinstance(x, numbers.Integral) and not isinstance(x, bool)


def _is_real(x):
    return isinstance(x, numbers.Real) and not isinstance(x, bool)


def _check_exprs(exprs, count, what, names, parsed, optional=False):
    """``count`` expression strings over the chart coordinates ``names``;
    their parse trees go into ``parsed``, keyed by (dimension, text)."""
    if not isinstance(exprs, list) or len(exprs) != count:
        raise ScenarioError(f"{what} must list {count} expressions, got {exprs!r}")
    for e in exprs:
        if e is None and optional:
            continue
        if not isinstance(e, str):
            raise ScenarioError(f"{what} entry {e!r} is not an expression string")
        if (len(names), e) in parsed:
            continue
        try:
            parsed[len(names), e] = parse_expr(e, variables=names)
        except CartanWeylError as ex:
            raise ScenarioError(f"{what} entry {e!r}: {ex}") from ex


def _check_table(table, arity, what, names, parsed, flags=()):
    """A dict of expressions (a scalar where the arity is None, else a list of
    that many) plus boolean ``flags``."""
    if not isinstance(table, dict):
        raise ScenarioError(f"{what} must be an object, got {table!r}")
    extra = set(table) - set(arity) - set(flags)
    if extra:
        raise ScenarioError(f"unknown {what} keys: {sorted(extra)}")
    for key in flags:
        if key in table and not isinstance(table[key], bool):
            raise ScenarioError(f"{what}.{key} must be true or false")
    for key, count in arity.items():
        val = table.get(key)
        if val is None:
            continue
        if count is None:
            _check_exprs([val], 1, f"{what}.{key}", names, parsed)
        else:
            _check_exprs(val, count, f"{what}.{key}", names, parsed, optional=key == "so")


@dataclass
class Scenario:
    name: str
    dimension: int
    signature: tuple
    model: str = "mobius"
    vielbein: list = None
    gauge: dict = None          # {"z": str, "so": [str], "r": [str]}
    weyl: str = None            # phi expression; the factor is exp(phi)
    ghosts: dict = None         # {"eps": str, "iota": [str], "lorentz": [str]}
    points: list = field(default_factory=list)
    tolerance: float = 1e-9
    seed: int = 0
    normal: bool = True         # whether the input connection is normal
    point_offset: int = 0       # internal: absolute index of points[0]
    # parse trees by (dimension, text), filled by validate and by parsed()
    _parsed: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.validate()

    def parsed(self, text):
        """The parse tree of an expression string (None for None).

        Validation parses the scenario's own expressions; any other text,
        such as a suite's default, is parsed on first use.  Either way a
        text is parsed once per scenario and dimension, however often the
        scenario is validated again.
        """
        if text is None:
            return None
        key = (self.dimension, text)
        if key not in self._parsed:
            self._parsed[key] = parse_expr(text)
        return self._parsed[key]

    def validate(self):
        """Check every field, before any jet or matrix is allocated.

        Normalizes the signature to a tuple of ints and the points to tuples;
        anything malformed raises :class:`ScenarioError`.
        """
        if not isinstance(self.name, str):
            raise ScenarioError("scenario name must be a string")
        if not isinstance(self.model, str) or self.model not in MODELS:
            raise ScenarioError(f"unknown model {self.model!r}: choose from {MODELS}")
        m = self.dimension
        if not _is_int(m) or not MIN_DIMENSION <= m <= MAX_DIMENSION:
            raise ScenarioError(f"dimension must be an integer in "
                                f"[{MIN_DIMENSION}, {MAX_DIMENSION}], got {m!r}")
        if self.signature is None:
            self.signature = (1,) + (-1,) * (m - 1)
        sig = self.signature
        if (not isinstance(sig, (list, tuple)) or len(sig) != m
                or not all(_is_real(s) and s in (1, -1) for s in sig)):
            raise ScenarioError(f"signature must list {m} entries of +1 or -1, "
                                f"got {sig!r}")
        self.signature = tuple(int(s) for s in sig)
        tol = self.tolerance
        if not _is_real(tol) or not math.isfinite(tol) or tol <= 0:
            raise ScenarioError(f"tolerance must be finite and positive, got {tol!r}")
        for key in ("seed", "point_offset"):
            val = getattr(self, key)
            if not _is_int(val) or val < 0:
                raise ScenarioError(f"{key} must be a non-negative integer, got {val!r}")
        if not isinstance(self.normal, bool):
            raise ScenarioError(f"normal must be true or false, got {self.normal!r}")
        if self.model == "poincare" and not self.normal:
            # its deformation would perturb the Moebius-only a and alpha blocks
            raise ScenarioError("the poincare model runs only on its normal "
                                "connection: normal must be true")
        if not isinstance(self.points, (list, tuple)) or not self.points:
            raise ScenarioError("scenario needs at least one sample point")
        for p in self.points:
            if (not isinstance(p, (list, tuple)) or len(p) != m
                    or not all(_is_real(x) and math.isfinite(x) for x in p)):
                raise ScenarioError(f"point {p!r} must list {m} finite coordinates")
        self.points = [tuple(p) for p in self.points]
        names = tuple(f"x{i}" for i in range(m))
        pairs = m * (m - 1) // 2
        parsed = self._parsed
        if self.vielbein is None:
            self.vielbein = [["1" if i == j else "0" for j in range(m)]
                             for i in range(m)]
        if not isinstance(self.vielbein, list) or len(self.vielbein) != m:
            raise ScenarioError(f"vielbein must be a list of {m} rows")
        for row in self.vielbein:
            _check_exprs(row, m, "vielbein row", names, parsed)
        if self.weyl is not None:
            _check_exprs([self.weyl], 1, "weyl", names, parsed)
        if self.gauge is not None:
            _check_table(self.gauge, {"z": None, "so": pairs, "r": m}, "gauge",
                         names, parsed, flags=("seeded",))
        if self.ghosts is not None:
            _check_table(self.ghosts, {"eps": None, "iota": m, "lorentz": pairs},
                         "ghosts", names, parsed)

    @property
    def chart(self):
        return Chart(self.dimension, signature=self.signature)

    def to_dict(self):
        return {
            "name": self.name,
            "dimension": self.dimension,
            "signature": list(self.signature),
            "model": self.model,
            "vielbein": self.vielbein,
            "gauge": self.gauge,
            "weyl": self.weyl,
            "ghosts": self.ghosts,
            "points": [list(p) for p in self.points],
            "tolerance": self.tolerance,
            "seed": self.seed,
            "normal": self.normal,
        }

    def to_json(self):
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_dict(cls, d):
        if not isinstance(d, dict):
            raise ScenarioError("a scenario must be a JSON object")
        known = {"name", "dimension", "signature", "model", "vielbein",
                 "gauge", "weyl", "ghosts", "points", "jet_order",
                 "tolerance", "seed", "normal", "point_offset"}
        extra = set(d) - known
        if extra:
            raise ScenarioError(f"unknown scenario keys: {sorted(extra)}")
        if "dimension" not in d:
            raise ScenarioError("scenario needs a 'dimension'")
        kwargs = dict(d)
        kwargs.setdefault("name", "unnamed")
        kwargs.setdefault("signature", None)
        order = kwargs.pop("jet_order", None)
        scn = cls(**kwargs)
        if "jet_order" in d:
            low = order_plan(scn.model).build
            if not _is_int(order) or not low <= order <= MAX_JET_ORDER:
                raise ScenarioError(f"jet order must be an integer in [{low}, {MAX_JET_ORDER}] "
                                    f"for the {scn.model} model, got {order!r}")
        return scn

    @classmethod
    def load(cls, path):
        try:
            with open(path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError) as ex:
            raise ScenarioError(f"cannot read scenario {path}: {ex}") from ex
        return cls.from_dict(data)


def _default_ghosts(m):
    pairs = m * (m - 1) // 2
    iota = [f"1/2 + x{(a + 1) % m}/3" for a in range(m)]
    lor = [f"1/3 + x{k % m}/4" for k in range(pairs)]
    return {"eps": "1/2 + x0/3 - x1*x1/5", "iota": iota, "lorentz": lor}


def _points(m, k=2):
    base = [0.23, -0.31, 0.17, 0.11, -0.27, 0.19, 0.13, -0.15]
    pts = []
    for i in range(k):
        pts.append(tuple(base[(i + j) % len(base)] for j in range(m)))
    return pts


def _diag_poly(m):
    """Fields of the diag-poly scenario."""
    sig = (1,) + (-1,) * (m - 1)
    diag = ["1 + x1^2/2", "1 + x0*x%d/4" % (m - 1), "1 + x0^2/3 + x%d/5" % (m - 1)]
    while len(diag) < m:
        diag.append(f"1 + x{len(diag) % m}^2/{3 + len(diag)}")
    vb = [[diag[i] if i == j else "0" for j in range(m)] for i in range(m)]
    return dict(name="diag-poly", dimension=m, signature=sig, vielbein=vb,
                points=_points(m), weyl="x0/4 - x1*x2/6" if m > 2 else "x0/4",
                ghosts=_default_ghosts(m))


def catalog(name, m=3):
    """Built-in scenarios; names: flat, conformally-flat, diag-poly,
    constant-curvature, ricci-flat-m4, generic, torsionful, poincare."""
    sig = (1,) + (-1,) * (m - 1)
    if name == "flat":
        return Scenario(name=name, dimension=m, signature=sig,
                        points=_points(m), ghosts=_default_ghosts(m))
    if name == "conformally-flat":
        phi = "x0/4 - x1*x1/6 + x0*x1/8"
        vb = [[f"exp({phi})" if i == j else "0" for j in range(m)]
              for i in range(m)]
        return Scenario(name=name, dimension=m, signature=sig, vielbein=vb,
                        points=_points(m), weyl="x0/5 - x1/7",
                        ghosts=_default_ghosts(m))
    if name == "diag-poly":
        return Scenario(**_diag_poly(m))
    if name == "constant-curvature":
        # g = eta / (1 + (k/4) x.eta.x)^2 has Ricci = (m-1) k g; k = 1
        q = " + ".join(f"({s})*x{i}*x{i}" for i, s in enumerate(sig))
        f = f"1/(1 + ({q})/4)"
        vb = [[f if i == j else "0" for j in range(m)] for i in range(m)]
        return Scenario(name=name, dimension=m, signature=sig, vielbein=vb,
                        points=_points(m), weyl="x0/6", ghosts=_default_ghosts(m))
    if name == "ricci-flat-m4":
        # Schwarzschild chart, mass 1: x1 = r in (3, 6), x2 = polar angle
        vb = [["sqrt(1 - 2/x1)", "0", "0", "0"],
              ["0", "1/sqrt(1 - 2/x1)", "0", "0"],
              ["0", "0", "x1", "0"],
              ["0", "0", "0", "x1*sin(x2)"]]
        return Scenario(name=name, dimension=4, signature=(1, -1, -1, -1),
                        vielbein=vb, weyl="x1/20 - x0/30",
                        points=[(0.2, 3.7, 1.1, 0.4), (-0.1, 4.6, 1.4, 0.9)],
                        ghosts={"eps": "1/2 + x1/9", "iota": ["1/2", "x1/8", "1/3", "x2/5"],
                                "lorentz": ["1/3", "x1/7", "1/4", "x2/6", "1/5", "x3/9"]})
    if name == "generic":
        base = catalog("diag-poly", m)
        base.name = name
        base.gauge = {"seeded": True}
        return base
    if name == "torsionful":
        base = catalog("diag-poly", m)
        base.name = name
        base.normal = False
        return base
    if name == "poincare":
        return Scenario(**dict(_diag_poly(m), name=name), model="poincare")
    raise ScenarioError(f"unknown catalog scenario {name!r}")


CATALOG_NAMES = ("flat", "conformally-flat", "diag-poly", "constant-curvature",
                 "ricci-flat-m4", "generic", "torsionful", "poincare")
