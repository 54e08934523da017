"""Per-layer tracing of the orthoql package, from outside the package.

The tracer wraps public functions and methods of the orthoql modules
for the length of one traced pass and removes every wrapper afterwards.
Module functions are replaced at every binding site, because the
modules import each other's functions by name (``orthoql.subspace.rref``
is the same object as ``orthoql.linalg.rref``).  Methods are replaced
on their class.

Three kinds of wrapper exist:

* spans, for functions that run a bounded number of times per unit: a
  span records its name, its parent span, its start and its end.  Spans
  stay in memory, in flat arrays, until the pass ends;
* counters, for scalar operations that run millions of times: they only
  count calls;
* the law tally, which counts ``LawResult.record`` calls per suite and
  how many of them met the law's hypothesis.

A span's self time is its duration minus the durations of its direct
children, and minus the tracer's own bookkeeping done inside it.
"""

from __future__ import annotations

import importlib
import inspect
import struct
import sys
import time
from array import array
from fractions import Fraction

# Every public function of these modules becomes a span named
# "<layer>.<function>", except the listed per-entry helpers, which run
# once per scalar and would drown the trace without feeding a metric.
SPAN_MODULES = {
    "linalg": {"inner", "norm_sq"},
    "subspace": set(),
    "ortho": set(),
    "partial_op": set(),
    "laws": set(),
    "generators": {"rng_from", "random_scalar"},
}

# Functions outside those modules, or whose layer differs from their
# module: (module, function) -> span name.  The cli's cmd_* functions
# are left unwrapped so that formatting and emitting count as
# cli.main's own time.
EXTRA_FUNCTIONS = {
    ("orthoql.kernel", "rref_gauss"): "linalg.rref_gauss",
    ("orthoql.cli", "main"): "cli.main",
    ("orthoql.cli", "load_instances"): "cli.load_instances",
}

# (module, class, method) -> span name.
METHOD_SPANS = {
    ("orthoql.scalars", "Field", "parse"): "scalars.parse",
    ("orthoql.linalg", "Matrix", "__matmul__"): "linalg.matmul",
    ("orthoql.subspace", "Subspace", "__init__"): "subspace.init",
    ("orthoql.subspace", "Subspace", "meet"): "subspace.meet",
    ("orthoql.subspace", "Subspace", "join"): "subspace.join",
    ("orthoql.subspace", "Subspace", "perp"): "subspace.perp",
    ("orthoql.subspace", "Subspace", "leq"): "subspace.leq",
    ("orthoql.subspace", "Subspace", "contains"): "subspace.contains",
    ("orthoql.subspace", "Subspace", "projector"): "subspace.projector",
    ("orthoql.subspace", "Subspace", "distance_sq"): "subspace.distance_sq",
    ("orthoql.ortho", "OrthoSubspace", "__init__"): "ortho.init",
    ("orthoql.ortho", "OrthoSubspace", "leq"): "ortho.leq",
    ("orthoql.partial_op", "PartialOperator", "__init__"): "partial_op.operator_init",
    ("orthoql.partial_op", "PartialProjection", "__init__"): "partial_op.projection_init",
    ("orthoql.quotient", "QuotientSpace", "__init__"): "quotient.init",
    ("orthoql.quotient", "QuotientSpace", "q_eq"): "quotient.q_eq",
    ("orthoql.quotient", "QuotientSpace", "q_inner"): "quotient.q_inner",
}

GAUSSIAN_OPS = (
    "__add__",
    "__radd__",
    "__sub__",
    "__rsub__",
    "__mul__",
    "__rmul__",
    "__truediv__",
    "__rtruediv__",
    "__neg__",
    "conjugate",
    "abs_sq",
)

# (module, class, method) -> counter name.
METHOD_COUNTERS = {("orthoql.scalars", "Field", "coerce"): "scalars.coerce.calls"}
METHOD_COUNTERS.update(
    {
        ("orthoql.scalars", "GaussianRational", op): "scalars.gaussian_ops.calls"
        for op in GAUSSIAN_OPS
    }
)

ELIMINATION = "linalg.rref"
MARK = "__perfbench_wrapper__"


def scalar_bits(value) -> int:
    """Largest numerator or denominator bit length of one scalar."""
    parts = (value,) if isinstance(value, Fraction) else (value.re, value.im)
    return max(max(abs(p.numerator).bit_length(), p.denominator.bit_length()) for p in parts)


def max_bits(entries) -> int:
    return max((scalar_bits(e) for e in entries), default=0)


def span_stats(names, parents, durations, excluded=None) -> dict:
    """Per span name: [calls, total seconds, self seconds].

    ``parents[i]`` is the index of span i's parent or -1.  Self time is
    the duration minus the direct children's durations minus
    ``excluded[i]``, the tracer's own work inside the span.
    """
    children = [0.0] * len(parents)
    for i, p in enumerate(parents):
        if p >= 0:
            children[p] += durations[i]
    stats = {}
    for i, name in enumerate(names):
        row = stats.setdefault(name, [0, 0.0, 0.0])
        own = durations[i] - children[i] - (excluded[i] if excluded else 0.0)
        row[0] += 1
        row[1] += durations[i]
        row[2] += own
    return stats


def hit_ratio(names, parents, target: str, elimination: str = ELIMINATION) -> float:
    """Share of ``target`` spans with no ``elimination`` span below them.

    Spans are listed parents first, so one backward sweep marks every
    span that has an elimination descendant.
    """
    below = [False] * len(parents)
    for i in range(len(parents) - 1, -1, -1):
        p = parents[i]
        if p >= 0 and (below[i] or names[i] == elimination):
            below[p] = True
    flags = [not below[i] for i, name in enumerate(names) if name == target]
    return sum(flags) / len(flags) if flags else 0.0


class Tracer:
    """Installs the wrappers, keeps spans and counters, removes the wrappers."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_excluded = array("d")
        self._stack = [-1]
        self.counters: dict[str, int] = {}
        self.maxima = {"linalg.rref.out_max_bits": 0, "subspace.out_max_bits": 0}
        self.rref_cells = 0
        self.suite = None
        self.tally: dict[str, list[int]] = {}
        self._patches: list[tuple] = []

    # --- wrappers ---------------------------------------------------

    def _span(self, name: str, fn, after=None):
        nid = self._ids.setdefault(name, len(self._ids))
        if nid == len(self.names):
            self.names.append(name)
        names, parents = self.span_name, self.span_parent
        starts, ends, excluded = self.span_start, self.span_end, self.span_excluded
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            excluded.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                starts[idx] = t0
                ends[idx] = t1
                stack.pop()
            if after is not None:
                after(args, result)
                parent = stack[-1]
                if parent >= 0:
                    excluded[parent] += clock() - t1
            return result

        setattr(wrapper, MARK, True)
        return wrapper

    def _counter(self, name: str, fn):
        counters = self.counters
        counters.setdefault(name, 0)

        def wrapper(*args, **kwargs):
            counters[name] += 1
            return fn(*args, **kwargs)

        setattr(wrapper, MARK, True)
        return wrapper

    def _record(self, fn):
        tally = self.tally
        tracer = self

        def wrapper(result, applicable, *args, **kwargs):
            row = tally.setdefault(tracer.suite, [0, 0])
            row[0] += 1
            row[1] += bool(applicable)
            return fn(result, applicable, *args, **kwargs)

        setattr(wrapper, MARK, True)
        return wrapper

    def _after_rref(self, args, result):
        m = args[0]
        self.rref_cells += m.nrows * m.ncols
        key = "linalg.rref.out_max_bits"
        self.maxima[key] = max(self.maxima[key], max_bits(result[0].entries))

    def _after_subspace_init(self, args, result):
        key = "subspace.out_max_bits"
        self.maxima[key] = max(self.maxima[key], max_bits(args[0].basis.entries))

    # --- install / remove --------------------------------------------

    def _patch(self, owner, attr: str, value):
        """Set ``owner.attr``, remembering the raw value for ``remove``."""
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _wrap_function(self, original, wrapper):
        """Replace ``original`` wherever an orthoql module binds it."""
        for module in orthoql_modules():
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patch(module, attr, wrapper)

    def install(self) -> None:
        afters = {"linalg.rref": self._after_rref}
        for layer, skip in SPAN_MODULES.items():
            module = importlib.import_module(f"orthoql.{layer}")
            for fname in module.__all__:
                fn = getattr(module, fname)
                if fname in skip or not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                name = f"{layer}.{fname}"
                self._wrap_function(fn, self._span(name, fn, afters.get(name)))
        for (modname, fname), name in EXTRA_FUNCTIONS.items():
            fn = getattr(importlib.import_module(modname), fname)
            self._wrap_function(fn, self._span(name, fn))
        for (modname, cname, attr), name in METHOD_SPANS.items():
            cls = getattr(importlib.import_module(modname), cname)
            raw = cls.__dict__[attr]
            after = self._after_subspace_init if name == "subspace.init" else None
            if isinstance(raw, property):
                self._patch(cls, attr, property(self._span(name, raw.fget)))
            else:
                self._patch(cls, attr, self._span(name, raw, after))
        for (modname, cname, attr), name in METHOD_COUNTERS.items():
            cls = getattr(importlib.import_module(modname), cname)
            self._patch(cls, attr, self._counter(name, cls.__dict__[attr]))
        laws = importlib.import_module("orthoql.laws")
        self._patch(laws.LawResult, "record", self._record(laws.LawResult.__dict__["record"]))

    def remove(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # --- results -------------------------------------------------------

    def stats(self) -> dict:
        names = [self.names[i] for i in self.span_name]
        durations = [e - s for s, e in zip(self.span_start, self.span_end)]
        return span_stats(names, self.span_parent, durations, self.span_excluded)

    def hit_ratio(self, target: str) -> float:
        names = [self.names[i] for i in self.span_name]
        return hit_ratio(names, self.span_parent, target)

    def write_spans(self, path) -> None:
        """Write the spans as a header line of names, then packed records
        (int32 name, int32 parent, float64 start, float64 end)."""
        with open(path, "wb") as fh:
            fh.write(("\t".join(self.names) + "\n").encode())
            rec = struct.Struct("<iidd")
            for row in zip(self.span_name, self.span_parent, self.span_start, self.span_end):
                fh.write(rec.pack(*row))


def orthoql_modules():
    return [
        mod
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == "orthoql" or name.startswith("orthoql."))
    ]


def leftover_wrappers() -> list[str]:
    """Names of orthoql bindings that still hold a tracer wrapper."""
    found = []
    for module in orthoql_modules():
        for attr, value in vars(module).items():
            if getattr(value, MARK, False):
                found.append(f"{module.__name__}.{attr}")
            if isinstance(value, type):
                for mattr, raw in vars(value).items():
                    fn = raw.fget if isinstance(raw, property) else raw
                    if getattr(fn, MARK, False):
                        found.append(f"{module.__name__}.{attr}.{mattr}")
    return found
