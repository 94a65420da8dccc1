"""Per-layer tracer that wraps cartanweyl from outside the package.

:class:`Tracer` replaces every public function and class method of the
cartanweyl modules at each binding that refers to it: the defining module,
every module that imported it by name (``forms.jmat_mul`` as well as
``jets.jmat_mul``), module-level tables such as ``checks.SUITES``, and the
class dictionaries.  Each wrapper times its call on a shared stack, so a
function's self time is its duration minus that of the wrapped calls it
made.  Unwrapped helpers (private names) count toward the nearest wrapped
caller.  ``restore`` puts every original binding back.

Self times include the tracer's own cost for the wrapped calls a function
makes, so they are for attribution; end-to-end times come from untraced runs.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
import types
from collections import defaultdict

PACKAGE = "cartanweyl"
LAYERS = ("cli", "checks", "scenarios", "cartan", "dressing", "weyl", "brs",
          "forms", "jets", "grassmann", "exprs", "tensors")
# private names that are still layer entry points: arithmetic and construction
OPERATORS = frozenset({"__init__", "__add__", "__radd__", "__sub__", "__rsub__",
                       "__mul__", "__rmul__", "__neg__", "__truediv__",
                       "__rtruediv__", "__pow__"})
SPAN_LAYERS = frozenset({"cli", "cartan", "dressing", "weyl"})
BRS_INITS = ("brs:ConformalBRS.__init__", "brs:PoincareBRS.__init__")
SUITE_KEYS = tuple(f"checks:{s}_suite" for s in ("gauge", "dressing", "weyl", "brs"))
GHOST_BUCKETS = ("grassmann", "jets.ghost", "forms.ghost", "brs")

# (name, unit, better) of every per-layer metric, in report order.
PER_LAYER = (
    ("jets.jmul.calls", "count", "lower"),
    ("jets.jmat_mul.calls", "count", "lower"),
    ("jets.jmat_inv.calls", "count", "lower"),
    ("jets.mul_terms", "count", "lower"),
    ("jets.self_s", "s", "lower"),
    ("jets.ghost_mul.calls", "count", "lower"),
    ("jets.ghost_self_s", "s", "lower"),
    ("grassmann.mul.calls", "count", "lower"),
    ("grassmann.add.calls", "count", "lower"),
    ("grassmann.pool_size", "count", "lower"),
    ("grassmann.terms_mean", "terms", "lower"),
    ("grassmann.self_s", "s", "lower"),
    ("forms.wedge_float.calls", "count", "lower"),
    ("forms.wedge_ghost.calls", "count", "lower"),
    ("forms.ext_d.calls", "count", "lower"),
    ("forms.float_self_s", "s", "lower"),
    ("forms.ghost_self_s", "s", "lower"),
    ("brs.ev.calls", "count", "lower"),
    ("brs.ev.misses", "count", "lower"),
    ("brs.distinct_nodes", "count", "lower"),
    ("brs.reeval_ratio", "ratio", "lower"),
    ("brs.init_s", "s", "lower"),
    ("brs.self_s", "s", "lower"),
    ("cartan.build_normal.calls", "count", "lower"),
    ("cartan.build_normal.per_point", "count", "lower"),
    ("cartan.gauge_transform.calls", "count", "lower"),
    ("cartan.curvature.calls", "count", "lower"),
    ("cartan.self_s", "s", "lower"),
    ("dressing.full_pipeline.calls", "count", "lower"),
    ("dressing.gr_dress.calls", "count", "lower"),
    ("dressing.self_s", "s", "lower"),
    ("exprs.eval_jet.calls", "count", "lower"),
    ("exprs.self_s", "s", "lower"),
    ("tensors.self_s", "s", "lower"),
    ("weyl.self_s", "s", "lower"),
    ("checks.self_s", "s", "lower"),
    ("checks.gauge_suite.s", "s", "lower"),
    ("checks.dressing_suite.s", "s", "lower"),
    ("checks.weyl_suite.s", "s", "lower"),
    ("checks.brs_suite.s", "s", "lower"),
    ("scenarios.load.s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.ghost_share", "ratio", "lower"),
)


def bucket_of(key):
    """Layer a stats key is reported under; splits jets and forms by ghostness."""
    layer, name = key.split(":", 1)
    if layer == "jets" and name.startswith("GhostJet."):
        return "jets.ghost"
    if layer == "forms":
        return "forms.ghost" if key.endswith("#ghost") else "forms.float"
    return layer


def _traceable(val, module_name):
    if isinstance(val, types.FunctionType):
        return val.__module__ == module_name
    # functools.lru_cache wrappers keep the wrapped function's module
    return hasattr(val, "cache_info") and getattr(val, "__module__", None) == module_name


def _unwrap_descriptor(raw):
    """(function, re-wrap) for a class-dict entry, or (None, None)."""
    if isinstance(raw, staticmethod):
        return raw.__func__, staticmethod
    if isinstance(raw, classmethod):
        return raw.__func__, classmethod
    if isinstance(raw, types.FunctionType):
        return raw, None
    return None, None


class Tracer:
    """Counts and self times per wrapped function, plus coarse-layer spans."""

    def __init__(self):
        self.modules = {name: importlib.import_module(f"{PACKAGE}.{name}")
                        for name in LAYERS}
        jets = self.modules["jets"]
        self._space = jets.space
        self._order_of = jets.order_of
        self._table_len = {}
        self._graded = self.modules["grassmann"].GradedScalar
        self._mform = self.modules["forms"].MForm
        self._patches = []
        self._wrappers = {}
        self.reset()

    # -- bookkeeping -----------------------------------------------------------

    def reset(self):
        """Forget every count, time and span; the wrappers stay installed."""
        self.stats = defaultdict(lambda: [0, 0.0, 0.0])   # calls, self_s, total_s
        self.spans = []
        self.mul_terms = 0
        self.pool_size = 0
        self.graded_terms = 0
        self.graded_products = 0
        self.ev_misses = 0
        self.distinct_nodes = 0
        self._nodes = set()
        self._stack = []
        self._span_stack = []

    def end_item(self):
        """Close one CLI call: term-DAG nodes never outlive the call that built them."""
        self.distinct_nodes += len(self._nodes)
        self._nodes = set()

    # -- install / restore -------------------------------------------------------

    @property
    def installed(self):
        return bool(self._patches)

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        try:
            self._install()
        except BaseException:
            self.restore()
            raise

    def _install(self):
        self._wrappers = {}
        for layer, mod in self.modules.items():
            for name, val in list(vars(mod).items()):
                if name.startswith("_"):
                    continue
                if isinstance(val, type) and val.__module__ == mod.__name__:
                    if issubclass(val, BaseException):
                        continue
                    for attr, raw in list(vars(val).items()):
                        if attr.startswith("_") and attr not in OPERATORS:
                            continue
                        fn, rewrap = _unwrap_descriptor(raw)
                        if fn is None:
                            continue
                        w = self._wrapper(fn, f"{layer}:{val.__name__}.{fn.__name__}")
                        self._set_attr(val, attr, rewrap(w) if rewrap else w)
                elif _traceable(val, mod.__name__):
                    self._set_attr(mod, name, self._wrapper(val, f"{layer}:{name}"))
        # bindings made by ``from .x import f`` and tables such as checks.SUITES
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == PACKAGE or modname.startswith(PACKAGE + ".")):
                continue
            for name, val in list(vars(mod).items()):
                w = self._replacement(val)
                if w is not None:
                    self._set_attr(mod, name, w)
                elif isinstance(val, dict):
                    self._patch_table(val)

    def _wrapper(self, fn, key):
        """One wrapper per original function, shared by all of its bindings."""
        if id(fn) not in self._wrappers:
            self._wrappers[id(fn)] = (fn, self._wrap(fn, key))
        return self._wrappers[id(fn)][1]

    def _replacement(self, val):
        pair = self._wrappers.get(id(val))
        return pair[1] if pair is not None and pair[0] is val else None

    def _patch_table(self, table):
        for k, v in list(table.items()):
            if isinstance(v, (tuple, list)):
                new = [self._replacement(x) or x for x in v]
                if any(a is not b for a, b in zip(new, v)):
                    self._patches.append(("item", table, k, v))
                    table[k] = type(v)(new)

    def _set_attr(self, owner, name, value):
        orig = vars(owner)[name]
        self._patches.append(("attr", owner, name, orig))
        setattr(owner, name, value)

    def restore(self):
        """Put back every binding the tracer replaced, newest first."""
        while self._patches:
            kind, owner, name, orig = self._patches.pop()
            if kind == "attr":
                setattr(owner, name, orig)
            else:
                owner[name] = orig

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    # -- the wrapper -------------------------------------------------------------

    def _wrap(self, fn, key):
        layer = key.split(":", 1)[0]
        clock = time.perf_counter
        tracer = self
        classify = layer == "forms"
        span = (layer in SPAN_LAYERS or key in BRS_INITS or key in SUITE_KEYS
                or key == "checks:run_check")
        pre, post = self._hooks(key)
        mform = self._mform

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            k = key
            if classify and (kwargs.get("ghost") or kwargs.get("gdata") is not None
                             or any(type(a) is mform and getattr(a, "gdata", None) is not None
                                    for a in args)):
                k = key + "#ghost"
            if pre is not None:
                pre(args)
            stack = tracer._stack
            if span:
                parent = tracer._span_stack[-1] if tracer._span_stack else -1
                tracer._span_stack.append(len(tracer.spans))
                record = [key, 0.0, 0.0, parent]
                tracer.spans.append(record)
            frame = [clock(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - frame[0]
                st = tracer.stats[k]
                st[0] += 1
                st[1] += dur - frame[1]
                st[2] += dur
                if stack:
                    stack[-1][1] += dur
                if span:
                    record[1], record[2] = frame[0], end
                    tracer._span_stack.pop()
            if post is not None:
                post(args, kwargs, result)
            return result

        return wrapper

    def _hooks(self, key):
        """Counters recorded at the layer boundary: (pre(args), post(args, kwargs, result))."""
        if key == "jets:jmul":
            return None, self._count_jmul
        if key == "jets:jmat_mul":
            return None, self._count_jmat_mul
        if key == "grassmann:GradedScalar.__mul__":
            return None, self._count_graded
        if key == "brs:Term.ev":
            return self._count_ev, None
        if key in BRS_INITS:
            return None, self._count_pool
        return None, None

    def _mul_table_len(self, m, size):
        n = self._table_len.get((m, size))
        if n is None:
            n = len(self._space(m, self._order_of(m, size)).mul_i)
            self._table_len[(m, size)] = n
        return n

    def _count_jmul(self, args, kwargs, out):
        m = args[2] if len(args) > 2 else kwargs["m"]
        self.mul_terms += self._mul_table_len(m, out.shape[-1]) * (out.size // out.shape[-1])

    def _count_jmat_mul(self, args, kwargs, out):
        m = args[2] if len(args) > 2 else kwargs["m"]
        inner = args[0].shape[1]
        self.mul_terms += (self._mul_table_len(m, out.shape[-1])
                           * out.shape[0] * out.shape[1] * inner)

    def _count_graded(self, args, kwargs, out):
        if type(out) is self._graded:
            self.graded_products += 1
            self.graded_terms += len(out.terms)

    def _count_ev(self, args):
        node, cache = args[0], args[1]
        if node not in cache:
            self.ev_misses += 1
            self._nodes.add(node)

    def _count_pool(self, args, kwargs, out):
        self.pool_size = max(self.pool_size, len(args[0].pool))

    # -- reports -----------------------------------------------------------------

    def _exact_calls(self, key):
        return self.stats[key][0] if key in self.stats else 0

    def calls(self, key):
        """Calls of ``key``, float and ghost together."""
        return sum(self.stats[k][0] for k in (key, key + "#ghost") if k in self.stats)

    def total_s(self, key):
        return self.stats[key][2] if key in self.stats else 0.0

    def buckets(self):
        """{bucket: [calls, self_s]} over every wrapped function."""
        out = defaultdict(lambda: [0, 0.0])
        for key, (calls, self_s, _) in self.stats.items():
            b = out[bucket_of(key)]
            b[0] += calls
            b[1] += self_s
        return dict(out)

    def metrics(self, points, traced_wall, untraced_wall):
        """Every PER_LAYER metric for one traced pass over ``points`` sample points."""
        b = self.buckets()

        def self_s(name):
            return b.get(name, [0, 0.0])[1]

        ghost = sum(self_s(x) for x in GHOST_BUCKETS)
        misses, nodes = self.ev_misses, self.distinct_nodes
        values = {
            "jets.jmul.calls": self.calls("jets:jmul"),
            "jets.jmat_mul.calls": self.calls("jets:jmat_mul"),
            "jets.jmat_inv.calls": self.calls("jets:jmat_inv"),
            "jets.mul_terms": self.mul_terms,
            "jets.self_s": self_s("jets"),
            "jets.ghost_mul.calls": self.calls("jets:GhostJet.__mul__"),
            "jets.ghost_self_s": self_s("jets.ghost"),
            "grassmann.mul.calls": self.calls("grassmann:GradedScalar.__mul__"),
            "grassmann.add.calls": self.calls("grassmann:GradedScalar.__add__"),
            "grassmann.pool_size": self.pool_size,
            "grassmann.terms_mean": (self.graded_terms / self.graded_products
                                     if self.graded_products else 0.0),
            "grassmann.self_s": self_s("grassmann"),
            "forms.wedge_float.calls": self._exact_calls("forms:MForm.wedge"),
            "forms.wedge_ghost.calls": self._exact_calls("forms:MForm.wedge#ghost"),
            "forms.ext_d.calls": self.calls("forms:MForm.ext_d"),
            "forms.float_self_s": self_s("forms.float"),
            "forms.ghost_self_s": self_s("forms.ghost"),
            "brs.ev.calls": self.calls("brs:Term.ev"),
            "brs.ev.misses": misses,
            "brs.distinct_nodes": nodes,
            "brs.reeval_ratio": misses / nodes if nodes else 0.0,
            "brs.init_s": sum(self.total_s(k) for k in BRS_INITS),
            "brs.self_s": self_s("brs"),
            "cartan.build_normal.calls": self.calls("cartan:build_normal"),
            "cartan.build_normal.per_point": self.calls("cartan:build_normal") / points,
            "cartan.gauge_transform.calls": self.calls("cartan:gauge_transform"),
            "cartan.curvature.calls": self.calls("cartan:curvature"),
            "cartan.self_s": self_s("cartan"),
            "dressing.full_pipeline.calls": self.calls("dressing:full_pipeline"),
            "dressing.gr_dress.calls": self.calls("dressing:gr_dress"),
            "dressing.self_s": self_s("dressing"),
            "exprs.eval_jet.calls": self.calls("exprs:eval_jet"),
            "exprs.self_s": self_s("exprs"),
            "tensors.self_s": self_s("tensors"),
            "weyl.self_s": self_s("weyl"),
            "checks.self_s": self_s("checks"),
            "checks.gauge_suite.s": self.total_s("checks:gauge_suite"),
            "checks.dressing_suite.s": self.total_s("checks:dressing_suite"),
            "checks.weyl_suite.s": self.total_s("checks:weyl_suite"),
            "checks.brs_suite.s": self.total_s("checks:brs_suite"),
            "scenarios.load.s": self.total_s("scenarios:Scenario.load"),
            "cli.self_s": self_s("cli"),
            "trace.wall_s": traced_wall,
            "trace.overhead_s": traced_wall - untraced_wall,
            "trace.ghost_share": ghost / traced_wall if traced_wall > 0 else 0.0,
        }
        return values
