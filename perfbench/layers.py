"""Layer tracing from outside the package, by wrapping at runtime.

``Tracer.install`` replaces ordalab's module functions, a few class methods
(every ``RatFunc`` method, ``StructureHandle.lt/le/eq``, ``Seq.__call__``)
and the registry's ``MetricSpace.distance`` callables with wrappers, and
``Tracer.restore`` puts every original back.  Nothing under ``src/`` changes.

Every wrapper opens a *frame* on one stack.  Time is charged to the layer of
the innermost open frame, so the layers' self times of an op add up to the
op's traced duration by construction; the tracer's own bookkeeping is
charged to the layer ``trace``.  A frame's layer is the ordalab module that
defines the wrapped code; a ``Seq`` evaluation belongs to the module that
defined its term function, and the runner's own code between calls is
``bench``.

Coarse calls (a suite run, a verifier, a scan, a report render) also record
a span: (op index, name, parent span, start, end).  Hot kernels, with up to
hundreds of thousands of calls per op, only feed per-key counters and
inclusive time totals.  Inclusive time counts the outermost frame of a key,
so recursion is not counted twice.
"""

from __future__ import annotations

import inspect
import sys
from collections import Counter, defaultdict
from time import perf_counter

# Module functions called per element or per index get counters only, no
# spans; so do all of order's, which run inside every compare and fold.
_HOT = {
    "metric.absolute_value", "termexpr.eval_term", "poly.poly_gcd", "poly.poly_mul",
    "report.fmt_value", "algebra.padic_norm", "algebra.padic_valuation",
}
# In poly only these module functions are wrapped; the rest run inside
# RatFunc methods and would only add overhead.
_POLY_FUNCS = ("poly_gcd", "poly_mul")
# names of the sequences series.condense builds: condensed terms, their sums
_CONDENSED = ("cond(", "sum(cond(")
_SCANS = ("sequences.scan_window_start", "sequences.scan_cauchy_window_start")
_VERIFIERS = ("sequences.verify_conv_cert", "sequences.verify_cauchy_cert")
_RENDERS = ("report.render_json_lines", "report.render_text")
_ORDER_CMPS = ("order.StructureHandle.lt", "order.StructureHandle.le", "order.StructureHandle.eq")
_CONDENSE = "series.condense"


def _short(module_name: str) -> str:
    return module_name.rsplit(".", 1)[-1]


def snapshot() -> dict:
    """Every attribute ``Tracer.install`` may replace, keyed by where it lives.

    Two snapshots are equal when each entry holds the very same object."""
    import ordalab
    from ordalab import order, poly, sequences

    snap = {}
    for name, mod in sorted(sys.modules.items()):
        if mod is not None and (name == "ordalab" or name.startswith("ordalab.")):
            for attr, value in vars(mod).items():
                if inspect.isfunction(value):
                    snap[(name, attr)] = _Same(value)
    for cls in (poly.RatFunc, order.StructureHandle, sequences.Seq):
        for attr, value in vars(cls).items():
            snap[(cls.__qualname__, attr)] = _Same(value)
    for key, handle in ordalab.registry().items():
        for i, space in enumerate(handle.metrics):
            snap[(key, "metrics", i)] = _Same(space.distance)
    return snap


class _Same:
    """Compares equal only to a holder of the identical object."""

    __slots__ = ("obj",)

    def __init__(self, obj):
        self.obj = obj

    def __eq__(self, other):
        return isinstance(other, _Same) and other.obj is self.obj

    def __hash__(self):
        return id(self.obj)


class Tracer:
    """Counters, layer self times and spans for one traced sequence of ops."""

    def __init__(self):
        self.stack: list[str] = []          # layer of each open frame
        self.span_stack: list[int] = []     # ids of open spans
        self.last = 0.0                     # when time was last charged
        self.busy = False                   # inside the tracer's own bookkeeping
        self.calls: Counter = Counter()
        self.incl: defaultdict = defaultdict(float)
        self.depth: Counter = Counter()
        self.stats: Counter = Counter()
        self.maxima: Counter = Counter()
        self.op_self: defaultdict = defaultdict(float)
        self.self_s: defaultdict = defaultdict(float)
        self.spans: list[list] = []
        self.ops: list[dict] = []
        self.op_no = -1
        self.distance_keys: set = set()
        self._patches: list[tuple] = []

    # -- op boundaries ---------------------------------------------------
    def begin_op(self, label: str) -> None:
        self.op_no += 1
        self.op_self = defaultdict(float)
        self.distance_keys = set()
        now = perf_counter()
        self.spans.append([self.op_no, label, None, now, None])
        self.span_stack = [len(self.spans) - 1]
        self.stack = ["bench"]
        self.op_start = self.last = now

    def end_op(self) -> None:
        now = perf_counter()
        self.op_self[self.stack[-1]] += now - self.last
        self.spans[self.span_stack[0]][4] = now
        duration = now - self.op_start
        gap = abs(sum(self.op_self.values()) - duration)
        self.ops.append({"op": self.op_no, "duration_s": duration,
                         "self_s": dict(self.op_self), "self_sum_gap_s": gap})
        for layer, secs in self.op_self.items():
            self.self_s[layer] += secs
        self.stats["distance_unique"] += len(self.distance_keys)
        self.distance_keys = set()
        self.stack = []
        self.span_stack = []

    # -- the wrapper -----------------------------------------------------
    def wrap(self, f, key, layer, span=False, classify=None, note=None):
        """A wrapper for f that opens a frame of (key, layer).

        classify(args) -> (key, layer) picks both per call; note(args,
        kwargs, result) records statistics after a call returns.  Both run as
        bookkeeping, charged to the ``trace`` layer."""
        tr = self

        def wrapper(*args, **kwargs):
            stack = tr.stack
            if tr.busy or not stack:
                return f(*args, **kwargs)
            t0 = perf_counter()
            op_self = tr.op_self
            op_self[stack[-1]] += t0 - tr.last
            if classify is None:
                k, lay = key, layer
            else:
                tr.busy = True
                k, lay = classify(args)
                tr.busy = False
            if span:
                sid = len(tr.spans)
                tr.spans.append([tr.op_no, k, tr.span_stack[-1], t0, None])
                tr.span_stack.append(sid)
            outer = not tr.depth[k]
            tr.depth[k] += 1
            stack.append(lay)
            t1 = perf_counter()
            op_self["trace"] += t1 - t0
            tr.last = t1
            try:
                result = f(*args, **kwargs)
            finally:
                t2 = perf_counter()
                op_self[lay] += t2 - tr.last
                stack.pop()
                tr.depth[k] -= 1
                tr.calls[k] += 1
                if outer:
                    tr.incl[k] += t2 - t0
                if span:
                    tr.spans[tr.span_stack.pop()][4] = t2
                tr.last = t2
            if note is not None:
                tr.busy = True
                note(args, kwargs, result)
                tr.busy = False
                t3 = perf_counter()
                op_self["trace"] += t3 - t2
                tr.last = t3
            return result

        wrapper.__wrapped__ = f
        wrapper.__name__ = getattr(f, "__name__", "wrapper")
        wrapper.__qualname__ = getattr(f, "__qualname__", wrapper.__name__)
        return wrapper

    # -- statistics hooks -------------------------------------------------
    def _note_ratfunc(self, args, kwargs, result):
        rf = args[0]
        size = len(rf.num) + len(rf.den)
        self.stats["coeffs_built"] += size
        degree = max(len(rf.num), len(rf.den)) - 1
        if degree > self.maxima["poly_degree"]:
            self.maxima["poly_degree"] = degree

    def _note_gcd(self, args, kwargs, result):
        if result == (1,):
            self.stats["gcd_trivial"] += 1

    def _note_distance(self, space):
        def note(args, kwargs, result):
            try:
                self.distance_keys.add((id(space), args))
            except TypeError:
                self.distance_keys.add((id(space), repr(args)))
        return note

    def _note_scan(self, sig):
        def note(args, kwargs, result):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            a = bound.arguments
            end = a["max_index"] if result is None else result
            self.stats["scan_indices"] += end + a["horizon"]
        return note

    def _note_records(self, args, kwargs, result):
        self.stats["records"] += len(result)

    def _note_render(self, args, kwargs, result):
        self.stats["report_bytes"] += len(result.encode("utf-8"))

    def _classify_seq(self, args):
        seq, n = args[0], args[1]
        if n in seq._cache:
            self.stats["seq_hits"] += 1
        module = getattr(seq.term, "__module__", None) or ""
        layer = _short(module) if module.startswith("ordalab") else "bench"
        if layer == "series" and n > self.maxima["series_index"]:
            self.maxima["series_index"] = n
        if seq.name.startswith(_CONDENSED):
            self.stats["condensed_seq_calls"] += 1
            return _CONDENSE, layer
        return "sequences.Seq.__call__", layer

    # -- installation ----------------------------------------------------
    def _patch(self, owner, name, value, frozen=False):
        original = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
        self._patches.append((owner, name, original, frozen))
        if frozen:
            object.__setattr__(owner, name, value)
        else:
            setattr(owner, name, value)

    def install(self) -> None:
        """Wrap ordalab's layer boundaries; ``restore`` undoes every patch."""
        import ordalab
        from ordalab import order, poly, sequences

        modules = [m for name, m in sorted(sys.modules.items())
                   if name.startswith("ordalab.") and m is not None]
        owners = modules + [ordalab]
        for mod in modules:
            layer = _short(mod.__name__)
            for name, f in sorted(vars(mod).items()):
                if not inspect.isfunction(f) or f.__module__ != mod.__name__:
                    continue
                if name.startswith("_") or (mod is poly and name not in _POLY_FUNCS):
                    continue
                key = f"{layer}.{name}"
                note = None
                if key == "poly.poly_gcd":
                    note = self._note_gcd
                elif key in _SCANS:
                    note = self._note_scan(inspect.signature(f))
                elif key == "suites.run_suite":
                    note = self._note_records
                elif key in _RENDERS:
                    note = self._note_render
                hot = key in _HOT or layer == "order"
                wrapper = self.wrap(f, key, layer, span=not hot, note=note)
                for owner in owners:
                    for attr, value in list(vars(owner).items()):
                        if value is f:
                            self._patch(owner, attr, wrapper)

        for attr, value in sorted(vars(poly.RatFunc).items()):
            is_cm = isinstance(value, classmethod)
            f = value.__func__ if is_cm else value
            if attr == "__setattr__" or not inspect.isfunction(f):
                continue
            note = self._note_ratfunc if attr == "__init__" else None
            wrapper = self.wrap(f, f"poly.RatFunc.{f.__name__}", "poly", note=note)
            self._patch(poly.RatFunc, attr, classmethod(wrapper) if is_cm else wrapper)

        for attr in ("lt", "le", "eq"):
            f = vars(order.StructureHandle)[attr]
            self._patch(order.StructureHandle, attr,
                        self.wrap(f, f"order.StructureHandle.{attr}", "order"))

        self._patch(sequences.Seq, "__call__",
                    self.wrap(vars(sequences.Seq)["__call__"], None, None,
                              classify=self._classify_seq))

        seen = set()
        for handle in ordalab.registry().values():
            for space in handle.metrics:
                if id(space) in seen:
                    continue
                seen.add(id(space))
                self._patch(space, "distance",
                            self.wrap(space.distance, "metric.distance", "metric",
                                      note=self._note_distance(space)),
                            frozen=True)

    def restore(self) -> None:
        """Put back every original, newest patch first."""
        while self._patches:
            owner, name, original, frozen = self._patches.pop()
            if frozen:
                object.__setattr__(owner, name, original)
            else:
                setattr(owner, name, original)

    # -- results ---------------------------------------------------------
    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics over every traced op, as {name: (value, unit)}."""
        c, t, s = self.calls, self.incl, self.stats
        gcds = c["poly.poly_gcd"]
        distances = c["metric.distance"]
        seq_calls = c["sequences.Seq.__call__"] + s["condensed_seq_calls"]
        algebra_calls = sum(n for k, n in c.items() if k.startswith("algebra."))
        return {
            "poly.ratfunc_new_calls": (c["poly.RatFunc.__init__"], "count"),
            "poly.canon_s": (t["poly.RatFunc.__init__"], "s"),
            "poly.gcd_calls": (gcds, "count"),
            "poly.gcd_trivial_ratio": (s["gcd_trivial"] / gcds if gcds else 0.0, "ratio"),
            "poly.mul_s": (t["poly.poly_mul"], "s"),
            "poly.cmp_s": (t["poly.RatFunc._cmp_sign"], "s"),
            "poly.max_degree": (self.maxima["poly_degree"], "degree"),
            "poly.coeffs_built": (s["coeffs_built"], "coeffs_computed"),
            "metric.distance_calls": (distances, "count"),
            "metric.distance_unique_ratio": (
                s["distance_unique"] / distances if distances else 0.0, "ratio"),
            "metric.distance_s": (t["metric.distance"], "s"),
            "sequences.scan_calls": (sum(c[k] for k in _SCANS), "count"),
            "sequences.scan_indices": (s["scan_indices"], "count"),
            "sequences.scan_s": (sum(t[k] for k in _SCANS), "s"),
            "sequences.verify_calls": (sum(c[k] for k in _VERIFIERS), "count"),
            "sequences.verify_s": (sum(t[k] for k in _VERIFIERS), "s"),
            "sequences.seq_cache_hit_ratio": (
                s["seq_hits"] / seq_calls if seq_calls else 0.0, "ratio"),
            "series.condense_s": (t[_CONDENSE], "s"),
            "series.max_index": (self.maxima["series_index"], "index"),
            "termexpr.eval_calls": (c["termexpr.eval_term"], "count"),
            "termexpr.eval_s": (t["termexpr.eval_term"], "s"),
            "cli.main_self_s": (self.self_s["cli"], "s"),
            "suites.run_self_s": (self.self_s["suites"], "s"),
            "suites.records": (s["records"], "count"),
            "report.render_s": (sum(t[k] for k in _RENDERS), "s"),
            "report.bytes": (s["report_bytes"], "bytes"),
            "order.cmp_calls": (sum(c[k] for k in _ORDER_CMPS), "count"),
            "algebra.verify_s": (t["algebra.verify_pseudonorm"], "s"),
            "algebra.calls": (algebra_calls, "count"),
        }
