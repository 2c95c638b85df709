"""Per-layer call counts, work counts and self times, measured from outside.

``install(fc)`` wraps the public functions and methods of the library's
five layers (partitions, exact, models, engine, checks) in place and
returns a ``Tracer`` that accumulates, for the rest of the process:

* ``calls[name]``  how often each counted entry point ran;
* ``work[name]``   operand sizes (Poly term pairs, monomials integrated);
* ``self_s[layer]`` the time spent inside the layer's spans minus the
  time covered by the spans they caused (their children).

Module-level functions are replaced in every ``freecumulants`` module
that holds a reference to them, because engine, models and checks bind
partition and engine names with ``from ... import``.  Methods are
replaced on their class; aliases such as ``__rmul__ = __mul__`` get a
wrapper of their own.  The library's source is not touched.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict
from fractions import Fraction

# public functions of each layer, named after its module; calls are counted
COUNTED_FUNCTIONS = {
    "partitions": ("enumerate_partitions", "interval_list", "moebius", "join", "kreweras"),
    "models": ("free_moment", "classical_expect"),
    "engine": ("phi_partitioned", "free_cumulant", "partial_cumulant", "nested_moment",
               "nested_semicumulant", "nested_cumulant"),
}
# wrapped only so that their time counts towards their own layer
TIMED_FUNCTIONS = {
    "partitions": ("meet", "quotient", "interweave", "parse_partition"),
    "models": ("classical_conditional_expect", "matrix_psi", "matrix_phi"),
    "checks": ("run_check",),
}

# (layer, class name, method names, counted as)
METHODS = (
    ("exact", "Poly", ("__mul__", "__rmul__"), "poly_mul"),
    ("exact", "Poly", ("__add__", "__radd__"), "poly_add"),
    ("exact", "Poly", ("__sub__", "__rsub__", "__neg__"), None),
    ("exact", "Matrix", ("__mul__", "__rmul__"), "matrix_mul"),
    ("exact", "Matrix", ("__add__", "__sub__", "scale"), None),
    ("partitions", "Partition", ("restrict",), None),
)

CONTEXTS = ("ClassicalContext", "MatrixContext", "ScalarFreeContext", "WordContext", "TensorContext")
CONTEXT_COUNTED = ("psi", "phi", "mul")
CONTEXT_UNCOUNTED = ("add", "scale", "phi_scalar")

LAYERS = ("checks", "engine", "models", "partitions", "exact")
# operand sizes summed per counted entry point: metric name
WORK = {"poly_mul": "exact.poly_mul.term_pairs", "classical_expect": "models.classical_expect.terms"}


class Tracer:
    def __init__(self) -> None:
        self.calls: Counter = Counter()
        self.work: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.memos: dict = {}
        self._stack: list[list[float]] = []

    def wrap(self, layer: str, fn, counted: str | None, work=None):
        """``fn`` inside a span of ``layer``; ``counted`` names its call
        counter and ``work`` = (counter name, operand size function)."""
        calls, work_counts, self_s, stack = self.calls, self.work, self.self_s, self._stack
        clock = time.perf_counter
        work_name, size = work if work is not None else (None, None)

        def traced(*args, **kwargs):
            if counted is not None:
                calls[counted] += 1
            if size is not None:
                work_counts[work_name] += size(*args)
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                stack.pop()
                self_s[layer] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed

        return traced

    def metrics(self) -> dict:
        """Every counter, self time and memo statistic, by metric name."""
        out = {name: 0 for name in metric_names()}
        out.update({f"{key}.calls": n for key, n in self.calls.items()})
        out.update(self.work)
        out.update({f"{layer}.self_s": t for layer, t in self.self_s.items()})
        out["partitions.memo_entries"] = sum(fn.cache_info().currsize for fn in self.memos.values())
        info = self.memos.get("interval_list")
        if info is not None:
            ci = info.cache_info()
            if ci.hits + ci.misses:
                out["partitions.interval_list.hit_ratio"] = ci.hits / (ci.hits + ci.misses)
        return out


def metric_names() -> list:
    """The names ``Tracer.metrics`` reports; a layer never reached reads 0."""
    counted = [f"{layer}.{name}" for layer, names in COUNTED_FUNCTIONS.items() for name in names]
    counted += [f"{layer}.{c}" for layer, _, _, c in METHODS if c is not None]
    counted += [f"models.{cls}.{m}" for cls in CONTEXTS for m in CONTEXT_COUNTED]
    names = [f"{key}.calls" for key in dict.fromkeys(counted)]
    names += list(WORK.values())
    names += [f"{layer}.self_s" for layer in LAYERS]
    return names + ["partitions.interval_list.hit_ratio", "partitions.memo_entries"]


def _modules(fc):
    prefix = fc.__name__
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == prefix or name.startswith(prefix + "."))]


def _replace_everywhere(fc, original, replacement) -> None:
    for module in _modules(fc):
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def install(fc) -> Tracer:
    """Wrap the layers of the imported package ``fc``; returns the tracer."""
    tracer = Tracer()
    Poly = fc.exact.Poly

    def term_pairs(a, b):
        if isinstance(b, Poly):
            return len(a.terms) * len(b.terms)
        if isinstance(b, (int, Fraction)):
            return len(a.terms) if b != 0 else 0
        return 0

    def monomials(spec, p, *rest):
        return len(p.terms)

    sizes = {"poly_mul": term_pairs, "classical_expect": monomials}
    work = {counted: (name, sizes[counted]) for counted, name in WORK.items()}

    # memos are read through their public cache_info(), whatever their names
    tracer.memos = {name: fn for name, fn in vars(fc.partitions).items()
                    if callable(getattr(fn, "cache_info", None))}

    for table, counted in ((COUNTED_FUNCTIONS, True), (TIMED_FUNCTIONS, False)):
        for layer, names in table.items():
            for name in names:
                original = getattr(getattr(fc, layer), name)
                key = f"{layer}.{name}" if counted else None
                wrapped = tracer.wrap(layer, original, key, work.get(name))
                _replace_everywhere(fc, original, wrapped)

    # set on the class itself, so an inherited method is counted per class
    for layer, cls_name, names, counted in METHODS:
        cls = getattr(fc, cls_name)
        key = None if counted is None else f"{layer}.{counted}"
        for name in names:
            setattr(cls, name, tracer.wrap(layer, getattr(cls, name), key, work.get(counted)))

    for cls_name in CONTEXTS:
        cls = getattr(fc, cls_name)
        for name in CONTEXT_COUNTED + CONTEXT_UNCOUNTED:
            key = f"models.{cls_name}.{name}" if name in CONTEXT_COUNTED else None
            setattr(cls, name, tracer.wrap("models", getattr(cls, name), key))
    return tracer
