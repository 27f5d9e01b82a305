"""Per-layer timing of ppavlab from outside the library.

`install(Tracer())` wraps the public functions of every layer module, plus a
few class methods, and rebinds each wrapper under every name that any
`ppavlab` module bound to the original function (the modules import each
other with `from .x import f`).  Each wrapper counts calls and self time:
its wall time minus the time spent in nested wrapped calls.  Observers
attached to a few functions add work counters.  Nothing under `src/` is
edited; the wrappers live only in the process that installed them.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict

from workloads import case_label

LAYERS = ("exact_linalg", "tori", "polarizations", "group_actions",
          "standard_construction", "jacobian_feasibility")

# Element-level helpers called millions of times inside the matrix code.
# Wrapping them would cost more than the work they do; their time counts
# as self time of the wrapped caller (e.g. OrderMatrix.__mul__).
SKIP = {"tori": {"oadd", "osub", "oneg", "omul", "oconj", "onorm"},
        "polarizations": {"qmodz", "as_vector"}}

# Class methods wrapped in addition to the module-level functions.
METHODS = {
    "exact_linalg": {
        "IntMatrix": ("det", "__mul__", "__add__", "__sub__", "transpose"),
        "RatMatrix": ("__mul__", "__rmul__", "__add__", "__sub__", "inverse",
                      "det", "transpose", "mul_vec", "scaled",
                      "common_denominator", "is_integral", "to_int"),
    },
    "tori": {"OrderMatrix": ("__mul__", "__sub__", "det")},
    "polarizations": {"PolarizedTorus": ("__init__",)},
}

# Reported per-function metrics: name -> wrapped keys whose calls and self
# time it sums.
REPORTED = {
    "exact_linalg": {
        "snf": ("snf",), "hnf_columns": ("hnf_columns",),
        "kernel_basis": ("kernel_basis",), "saturate": ("saturate",),
        "rank_over_field": ("rank_over_field",), "pfaffian": ("pfaffian",),
        "int_det": ("IntMatrix.det",),
        "rat_mul": ("RatMatrix.__mul__", "RatMatrix.__rmul__"),
        "rat_inverse": ("RatMatrix.inverse",), "rat_det": ("RatMatrix.det",),
    },
    "tori": {
        "order_matrix_mul": ("OrderMatrix.__mul__",),
        "analytic_rank_minus_id": ("analytic_rank_minus_id",),
        "rational_rep": ("rational_rep",),
    },
    "group_actions": {
        "closure": ("closure",),
        "pseudoreflection_generated": ("pseudoreflection_generated",),
        "ns_fixed": ("ns_fixed",), "average_pullback": ("average_pullback",),
    },
    "polarizations": {
        "restrict": ("restrict",), "polarization_type": ("polarization_type",),
        "kernel_group": ("kernel_group",),
        "polarized_torus_init": ("PolarizedTorus.__init__",),
        "box_product": ("box_product",),
    },
    "standard_construction": {
        "symplectic_basis": ("symplectic_basis",),
        "verify_glued": ("verify_glued",),
    },
    "jacobian_feasibility": {},
}
# Reported by call count only (their time is in the per-case metrics or is
# a cache lookup).
SELF_TIME_UNREPORTED = {"rational_rep", "verify_glued"}


class Tracer:
    """Call counts, self times and work counters of one traced process."""

    def __init__(self):
        self.calls = defaultdict(int)      # "module.name" -> calls
        self.self_s = defaultdict(float)   # "module.name" -> self seconds
        self.counters = defaultdict(int)   # work counters, exact integers
        self.case_s = defaultdict(float)   # inclusive seconds per labelled case
        self.snf_max_dim = 0
        self._stack = []                   # nested-call time per open call
        self._scan_level = None            # stack depth of the open scan call

    def wrap(self, key: str, fn, observe=None, enter=None):
        stack, calls, self_s = self._stack, self.calls, self.self_s
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if enter is not None:
                enter(args)
            stack.append(0.0)
            start = clock()
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as raised:
                exc = raised
                raise
            finally:
                elapsed = clock() - start
                nested = stack.pop()
                calls[key] += 1
                self_s[key] += elapsed - nested
                if stack:
                    stack[-1] += elapsed
                if observe is not None:
                    observe(args, result, exc, elapsed)

        return functools.update_wrapper(wrapper, fn)

    # -- observers: work counters taken at the layer boundary ---------------

    def _snf(self, args, result, exc, elapsed):
        m = args[0]
        self.snf_max_dim = max(self.snf_max_dim, m.rows, m.cols)

    def _saturate(self, args, result, exc, elapsed):
        # count only the scan's own subset saturations, not restrict()'s
        if self._scan_level is not None and len(self._stack) == self._scan_level + 1:
            self.counters["scan.subsets_tried"] += 1
            if type(exc).__name__ == "RankDeficient":
                self.counters["scan.rank_deficient"] += 1

    def _scan_enter(self, args):
        self._scan_level = len(self._stack)

    def _scan(self, args, result, exc, elapsed):
        self._scan_level = None
        n, height = args[0], args[1]
        self.case_s[f"scan_{n}_{height}"] += elapsed
        if result is not None:
            self.counters["scan.distinct"] += len(result)

    def _closure(self, args, result, exc, elapsed):
        if result is not None:
            self.counters["closure.elements"] += result.order
            self.counters["closure.products"] += result.order * len(result.generators)

    def _symplectic_basis(self, args, result, exc, elapsed):
        self.counters["symplectic_basis.elements_scanned"] += args[0].order

    def _build(self, args, result, exc, elapsed):
        self.case_s["build." + case_label(args[0], args[1])] += elapsed

    def _verify(self, args, result, exc, elapsed):
        self.case_s["verify." + case_label(args[0].factors, args[0].y_dim)] += elapsed

    def _decompose(self, args, result, exc, elapsed):
        self.case_s["decompose." + case_label(args[0].factors, args[0].y_dim)] += elapsed

    def observers(self):
        """(module, name) -> (observe, enter) for the counted functions."""
        return {
            ("exact_linalg", "snf"): (self._snf, None),
            ("exact_linalg", "saturate"): (self._saturate, None),
            ("polarizations", "scan_subtorus_types"): (self._scan, self._scan_enter),
            ("group_actions", "closure"): (self._closure, None),
            ("standard_construction", "symplectic_basis"): (self._symplectic_basis, None),
            ("standard_construction", "build_standard"): (self._build, None),
            ("standard_construction", "verify_glued"): (self._verify, None),
            ("standard_construction", "decompose_glued"): (self._decompose, None),
        }

    def metrics(self, rational_rep_hits: int, rational_rep_misses: int) -> dict:
        """Named per-layer metrics, as {name: [value, unit]}."""
        out = {}
        for layer, names in REPORTED.items():
            for name, keys in names.items():
                out[f"{layer}.{name}.calls"] = [sum(self.calls[f"{layer}.{k}"] for k in keys), "count"]
                if name not in SELF_TIME_UNREPORTED:
                    out[f"{layer}.{name}.self_s"] = [sum(self.self_s[f"{layer}.{k}"] for k in keys), "s"]
            out[f"{layer}.self_s"] = [sum((v for k, v in self.self_s.items()
                                           if k.startswith(layer + ".")), 0.0), "s"]
        out["exact_linalg.snf.max_dim"] = [self.snf_max_dim, "count"]
        lookups = rational_rep_hits + rational_rep_misses
        out["tori.rational_rep.hit_ratio"] = [rational_rep_hits / lookups if lookups else 0.0, "ratio"]
        for key in ("closure.elements", "closure.products"):
            out["group_actions." + key] = [self.counters[key], "count"]
        for key in ("scan.subsets_tried", "scan.rank_deficient", "scan.distinct"):
            out["polarizations." + key] = [self.counters[key], "count"]
        tried = self.counters["scan.subsets_tried"]
        out["polarizations.scan.useful_ratio"] = [
            self.counters["scan.distinct"] / tried if tried else 0.0, "ratio"]
        key = "symplectic_basis.elements_scanned"
        out["standard_construction." + key] = [self.counters[key], "count"]
        for label, seconds in self.case_s.items():
            layer = "polarizations" if label.startswith("scan_") else "standard_construction"
            out[f"{layer}.{label}.s"] = [seconds, "s"]
        return out


def _public_functions(module):
    for name, obj in vars(module).items():
        if name.startswith("_") or name in SKIP.get(module.__name__.rsplit(".", 1)[1], ()):
            continue
        if isinstance(obj, type) or not callable(obj):
            continue
        if getattr(obj, "__module__", None) != module.__name__:
            continue  # imported from another module; wrapped at its home
        if inspect.isgeneratorfunction(getattr(obj, "__wrapped__", obj)):
            continue  # a generator returns before its work is done
        yield name, obj


def install(tracer: Tracer) -> None:
    """Wrap every layer's public functions and the listed class methods."""
    import ppavlab.cli  # noqa: F401  (loads every submodule)

    namespaces = [m for name, m in sys.modules.items()
                  if name == "ppavlab" or name.startswith("ppavlab.")]
    observers = tracer.observers()
    replacements = {}  # id(original) -> wrapper
    for layer in LAYERS:
        module = sys.modules[f"ppavlab.{layer}"]
        for name, fn in _public_functions(module):
            observe, enter = observers.get((layer, name), (None, None))
            replacements[id(fn)] = tracer.wrap(f"{layer}.{name}", fn, observe, enter)
        for cls_name, methods in METHODS.get(layer, {}).items():
            cls = getattr(module, cls_name)
            for meth in methods:
                original = cls.__dict__[meth]
                setattr(cls, meth, tracer.wrap(f"{layer}.{cls_name}.{meth}", original))
    for ns in namespaces:
        for name, obj in list(vars(ns).items()):
            wrapper = replacements.get(id(obj))
            if wrapper is not None:
                setattr(ns, name, wrapper)
