"""Span tracing of radixapprox from the outside, by wrapping its functions.

``Tracer.install`` replaces each traced function by a wrapper under every
name it is bound to in a loaded ``radixapprox`` module: callers bind
functions by name (``from ._kernels import digit_scan_min_sharded``), so a
wrapper must replace the name in each importing module, and in ``_kernels``
itself for the sharded call.  ``uninstall`` puts the originals back.

A span records its name, start, end and parent.  A span opened on a worker
thread with nothing open on that thread takes the main thread's innermost
open span as its parent, so the sharded scan's workers nest under it.
Spans are aggregated and dropped after every query; a layer's self time is
its duration minus the union of its children's intervals.

Very hot leaf calls (``Real`` dunders, ``digitsets.unrank``) are counted,
not timed.
"""
from __future__ import annotations

import functools
import sys
import threading
import time
from collections import Counter, defaultdict
from typing import Callable, Iterable, Optional

_clock = time.perf_counter

#: (module, function) -> None, or (suffix, fn(args, kwargs, result)) whose
#: value is added to the counter "<layer>.<suffix>" after each call.
SPANS: dict[tuple[str, str], Optional[tuple[str, Callable]]] = {
    ("cli", "main"): None,
    ("exact", "frac"): None,
    ("exact", "dist_to_nearest_int"): None,
    ("exact", "cos_bound_margin"): None,
    ("digitsets", "count_upto"): None,
    ("digitsets", "repunits"): None,
    ("approx", "oracle_min"): None,
    ("approx", "pigeonhole_witness"): None,
    ("approx", "transfer_witness"): None,
    ("adversary", "adversarial_gamma"): None,
    ("adversary", "no_multiples_check"): None,
    ("expsum", "eval_expsum"): None,
    ("expsum", "decay_bound_check"): None,
    ("expsum", "separation_check"): None,
    ("expsum", "small_shift_count"): None,
    ("expsum", "classify_G"): None,
    ("discrepancy", "fractional_orbit"): None,
    ("discrepancy", "discrepancy_L"): None,
    ("discrepancy", "erdos_turan_check"): None,
    ("_kernels", "digit_scan_min"): (
        "elems", lambda a, kw, r: a[1] - kw.get("start", a[3] if len(a) > 3 else 1) + 1),
    ("_kernels", "digit_scan_min_sharded"): None,
    ("_kernels", "subset_residues"): ("entries", lambda a, kw, r: len(r)),
    ("_kernels", "first_close"): ("elems", lambda a, kw, r: len(a[0])),
    ("_kernels", "cos_sin_sum"): ("terms", lambda a, kw, r: len(a[0])),
    ("_kernels", "interval_deviation_max"): (
        "pairs", lambda a, kw, r: len(a[0]) * (len(a[0]) + 1) // 2),
    ("diffsets", "max_difference_set"): ("nodes", lambda a, kw, r: r.nodes),
    ("constants", "compute_constants"): None,
    ("constants", "approximation_bound"): None,
}
STREAMS = [("digitsets", "iter_spec_upto")]  # generators: one span per element
COUNTED = [("digitsets", "unrank")]
REAL_OPS = ("__add__", "__radd__", "__neg__", "__sub__", "__rsub__", "__mul__", "__rmul__",
            "__truediv__", "__abs__", "__lt__", "__le__", "__gt__", "__ge__")
INDETERMINATE_LAYERS = ("exact", "approx", "expsum", "discrepancy")


def layer_name(module: str, func: str) -> str:
    return f"{module.lstrip('_')}.{func}"


class Span:
    __slots__ = ("name", "start", "end", "parent")

    def __init__(self, name: str, start: float, parent: Optional["Span"], end: float = 0.0):
        self.name, self.start, self.end, self.parent = name, start, end, parent


def covered(intervals: Iterable[tuple[float, float]]) -> float:
    """Length of the union of the intervals."""
    total, cur_lo, cur_hi = 0.0, None, None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """id(span) -> duration minus the part its direct children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            p = s.parent
            lo, hi = max(s.start, p.start), min(s.end, p.end)
            if hi > lo:
                children[id(p)].append((lo, hi))
    return {id(s): (s.end - s.start) - covered(children.get(id(s), ())) for s in spans}


def _has_ancestor(span: Span, name: str) -> bool:
    p = span.parent
    while p is not None:
        if p.name == name:
            return True
        p = p.parent
    return False


class Tracer:
    """Records spans and counters while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.totals: dict[str, Counter] = defaultdict(Counter)  # name -> s/self_s/calls
        self.counts: Counter = Counter()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack: list[Span] = []
        self._main = threading.main_thread()
        self._patches: list[tuple[object, str, object]] = []
        self.indeterminate_exc: Optional[BaseException] = None

    # -- spans ------------------------------------------------------------

    def _stack(self) -> list[Span]:
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> Span:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._main_stack[-1] if self._main_stack else None
        span = Span(name, _clock(), parent)
        stack.append(span)
        self.spans.append(span)
        return span

    def close(self, span: Span):
        span.end = _clock()
        self._stack().pop()

    def add(self, key: str, n: int = 1):
        with self._lock:
            self.counts[key] += n

    def note_indeterminate(self, exc: BaseException, layer: str):
        """Tag exc with the innermost traced layer it passed through."""
        if not hasattr(exc, "_traced_layer"):
            exc._traced_layer = layer
            self.indeterminate_exc = exc

    def end_query(self, exit_code: int):
        """Fold this query's spans into the totals and drop them."""
        selfs = self_times(self.spans)
        for s in self.spans:
            t = self.totals[s.name]
            t["s"] += s.end - s.start
            t["self_s"] += selfs[id(s)]
            t["calls"] += 1
            if s.name in ("exact.dist_to_nearest_int", "digitsets.iter_spec_upto") and \
                    _has_ancestor(s, "approx.oracle_min"):
                self.counts["oracle_min." + s.name] += 1
        self.spans = []
        if exit_code == 4 and self.indeterminate_exc is not None:
            self.counts["indeterminate." + self.indeterminate_exc._traced_layer] += 1
        self.indeterminate_exc = None

    # -- wrappers ---------------------------------------------------------

    def _wrap_span(self, fn, name: str, count):
        from radixapprox.errors import IndeterminateComparison

        layer = name.split(".")[0]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            except IndeterminateComparison as exc:
                self.note_indeterminate(exc, layer)
                raise
            finally:
                self.close(span)
            if count is not None:
                self.add(f"{name}.{count[0]}", count[1](args, kwargs, result))
            return result

        return wrapper

    def _wrap_stream(self, fn, name: str):
        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)

            def stream():
                while True:
                    span = self.open(name)
                    try:
                        value = next(it)
                    except StopIteration:
                        span.name += ".end"  # the exhausting call yields no element
                        return
                    finally:
                        self.close(span)
                    self.add(name + ".elems")
                    yield value

            return stream()

        return functools.wraps(fn)(wrapper)

    def _wrap_count(self, fn, key: str):
        from radixapprox.errors import IndeterminateComparison

        layer = key.split(".")[0]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.add(key)
            try:
                return fn(*args, **kwargs)
            except IndeterminateComparison as exc:
                self.note_indeterminate(exc, layer)
                raise

        return wrapper

    def _set(self, owner, attr: str, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        """Wrap every traced function under each name it is bound to."""
        import radixapprox.cli  # noqa: F401  (loads every traced module)
        from radixapprox.exact import Real

        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = {name.split(".", 1)[1]: mod for name, mod in sys.modules.items()
                   if name.startswith("radixapprox.")}
        wrappers: dict[int, object] = {}
        for (mod, func), count in SPANS.items():
            fn = getattr(modules[mod], func)
            wrappers[id(fn)] = self._wrap_span(fn, layer_name(mod, func), count)
        for mod, func in STREAMS:
            fn = getattr(modules[mod], func)
            wrappers[id(fn)] = self._wrap_stream(fn, layer_name(mod, func))
        for mod, func in COUNTED:
            fn = getattr(modules[mod], func)
            wrappers[id(fn)] = self._wrap_count(fn, layer_name(mod, func) + ".calls")
        for mod in [sys.modules["radixapprox"], *modules.values()]:
            for attr, value in list(vars(mod).items()):
                if id(value) in wrappers and callable(value):
                    self._set(mod, attr, wrappers[id(value)])
        parse = Real.__dict__["parse"].__func__
        self._set(Real, "parse", classmethod(self._wrap_span(parse, "exact.Real.parse", None)))
        for op in REAL_OPS:
            self._set(Real, op, self._wrap_count(Real.__dict__[op], "exact.real_ops"))

    def uninstall(self):
        for owner, attr, value in reversed(self._patches):
            setattr(owner, attr, value)
        self._patches = []


def layer_metrics(tr: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from a tracer's totals: name -> (value, unit)."""

    def total(name: str, key: str):
        return tr.totals[name][key] if name in tr.totals else 0

    def per(num: float, den: float, scale: float = 1.0) -> float:
        return num * scale / den if den else 0.0

    out: dict[str, tuple[float, str]] = {
        "cli.main.self_s": (total("cli.main", "self_s"), "s"),
        "cli.main.calls": (total("cli.main", "calls"), "count"),
        "exact.Real.parse.s": (total("exact.Real.parse", "s"), "s"),
        "exact.Real.parse.calls": (total("exact.Real.parse", "calls"), "count"),
        "exact.real_ops": (tr.counts["exact.real_ops"], "count"),
    }
    for name in ("exact.dist_to_nearest_int", "exact.frac"):
        out[name + ".s"] = (total(name, "s"), "s")
        out[name + ".calls"] = (total(name, "calls"), "count")
    out["digitsets.iter_spec_upto.s"] = (total("digitsets.iter_spec_upto", "s"), "s")
    out["digitsets.iter_spec_upto.elems"] = (tr.counts["digitsets.iter_spec_upto.elems"], "count")
    out["digitsets.unrank.calls"] = (tr.counts["digitsets.unrank.calls"], "count")
    out["approx.oracle_min.self_s"] = (total("approx.oracle_min", "self_s"), "s")
    out["approx.oracle_min.calls"] = (total("approx.oracle_min", "calls"), "count")
    out["approx.pigeonhole_witness.self_s"] = (total("approx.pigeonhole_witness", "self_s"), "s")
    out["approx.certify_ratio"] = (per(tr.counts["oracle_min.exact.dist_to_nearest_int"],
                                       tr.counts["oracle_min.digitsets.iter_spec_upto"]), "ratio")
    out["adversary.adversarial_gamma.self_s"] = (total("adversary.adversarial_gamma", "self_s"), "s")
    out["adversary.no_multiples_check.s"] = (total("adversary.no_multiples_check", "s"), "s")
    for name in ("expsum.eval_expsum", "expsum.decay_bound_check", "expsum.separation_check"):
        out[name + ".self_s"] = (total(name, "self_s"), "s")
    out["expsum.small_shift_count.s"] = (total("expsum.small_shift_count", "s"), "s")
    out["discrepancy.fractional_orbit.s"] = (total("discrepancy.fractional_orbit", "s"), "s")
    for name in ("discrepancy.discrepancy_L", "discrepancy.erdos_turan_check"):
        out[name + ".self_s"] = (total(name, "self_s"), "s")
    for name, count, rate in (("kernels.digit_scan_min", "elems", "ns_per_elem"),
                              ("kernels.subset_residues", "entries", None),
                              ("kernels.first_close", "elems", None),
                              ("kernels.cos_sin_sum", "terms", "ns_per_term"),
                              ("kernels.interval_deviation_max", "pairs", None)):
        secs, n = total(name, "s"), tr.counts[f"{name}.{count}"]
        out[name + ".s"] = (secs, "s")
        out[f"{name}.{count}"] = (n, "count")
        if rate:
            out[f"{name}.{rate}"] = (per(secs, n, 1e9), "ns")
    out["diffsets.max_difference_set.s"] = (total("diffsets.max_difference_set", "s"), "s")
    out["diffsets.max_difference_set.nodes"] = (tr.counts["diffsets.max_difference_set.nodes"], "count")
    out["constants.compute_constants.s"] = (total("constants.compute_constants", "s"), "s")
    for layer in INDETERMINATE_LAYERS:
        out["indeterminate." + layer] = (tr.counts["indeterminate." + layer], "count")
    return out
