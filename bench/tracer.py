"""Layer tracing for the grwin benchmark, applied from outside the package.

`Tracer.install` replaces the layer functions of the grwin modules with
wrappers that record one span per call (name, parent span, start, end, op)
in flat arrays.  Every module attribute and module-level dict value that
refers to a wrapped function is replaced, so names re-imported with
`from .x import f` and dispatch tables such as `cli.COMMANDS` are counted
too.  `uninstall` puts the original objects back.

Self time of a span is its duration minus the durations of its direct
children; children never overlap because the program is single-threaded.
"""

from __future__ import annotations

import inspect
import json
import statistics
import sys
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter

MODULES = ("cli", "autoequiv", "schur", "characters", "partitions",
           "resolutions", "bundles", "bott", "windows")

# O(1) accessors called millions of times; their cost stays in the caller.
UNWRAPPED = {"partitions": {"canonical", "height", "width", "size",
                            "contains", "column_height"}}

# Private functions that carry a named layer's work.
PRIVATE = {
    "schur": ("_schur_product_items",),
    "cli": ("_emit_complex",),
    "autoequiv": ("_basis_matrix", "_solve_integral_column"),
    "characters": ("_pairing_dimension", "_sl_invariants"),
}

# functools caches whose counters are read around every op.
CACHES = {
    "schur.lr_coefficient": ("schur", "lr_coefficient"),
    "schur._schur_product_items": ("schur", "_schur_product_items"),
    "schur.schur_dimension": ("schur", "schur_dimension"),
    "windows.gamma_set": ("windows", "gamma_set"),
}

ROOT_SPAN = "bench.op"


def cache_objects(grwin_modules: dict) -> dict:
    """The functools cache objects, looked up before any wrapping.

    `functools.cache` sets `__wrapped__` to the uncached function, so the
    objects must be held directly to keep `cache_clear` and `cache_info`.
    """
    return {name: getattr(grwin_modules[mod], attr)
            for name, (mod, attr) in CACHES.items()}


def _is_layer_function(mod, attr: str, obj) -> bool:
    if attr in UNWRAPPED.get(mod.__name__.rsplit(".", 1)[-1], ()):
        return False
    if getattr(obj, "__module__", None) != mod.__name__:
        return False
    if hasattr(obj, "cache_info"):
        return True
    return inspect.isfunction(obj) and not inspect.isgeneratorfunction(obj)


def layer_functions(grwin_modules: dict) -> dict:
    """Span name -> original function for every traced layer function."""
    out = {}
    for short in MODULES:
        mod = grwin_modules[short]
        for attr, obj in vars(mod).items():
            public = not attr.startswith("_") or attr in PRIVATE.get(short, ())
            if public and _is_layer_function(mod, attr, obj):
                out[f"{short}.{attr}"] = obj
    return out


class Tracer:
    """Spans kept in flat arrays; one `Tracer` per traced pass."""

    def __init__(self, caches: dict) -> None:
        self.names: list[str] = [ROOT_SPAN]
        self._ids: dict[str, int] = {ROOT_SPAN: 0}
        self.name_id = array("i")
        self.parent = array("l")
        self.op = array("l")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.current_op = -1
        self.lr_nonzero = 0
        self.caches = caches
        self.cache_misses: Counter = Counter()
        self.cache_entries: Counter = Counter()
        self._before: dict = {}
        self._patched: list[tuple[dict, str, object]] = []

    # -- wrapping -------------------------------------------------------

    def _wrapper(self, name: str, fn):
        nid = self._ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        name_id, parent, op = self.name_id, self.parent, self.op
        start, end, stack = self.start, self.end, self.stack
        tracer = self

        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            op.append(tracer.current_op)
            end.append(0.0)
            stack.append(idx)
            start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()

        if name == "schur.lr_coefficient":
            def traced_lr(*args):
                value = traced(*args)
                if value:
                    tracer.lr_nonzero += 1
                return value
            return traced_lr
        return traced

    def install(self, grwin_modules: dict) -> None:
        originals = layer_functions(grwin_modules)
        wrappers = {id(fn): self._wrapper(name, fn)
                    for name, fn in originals.items()}
        namespaces = [vars(m) for n, m in sys.modules.items()
                      if n == "grwin" or n.startswith("grwin.")]
        for ns in namespaces:
            targets = [(ns, k) for k in ns]
            targets += [(v, k) for v in ns.values() if isinstance(v, dict)
                        and v is not ns for k in v]
            for table, key in targets:
                value = table[key]
                if id(value) in wrappers and callable(value):
                    self._patched.append((table, key, value))
                    table[key] = wrappers[id(value)]

    def uninstall(self) -> None:
        for table, key, value in reversed(self._patched):
            table[key] = value
        self._patched.clear()

    # -- ops ------------------------------------------------------------

    def op_begin(self, index: int) -> None:
        """Open the op's root span and snapshot the cache counters."""
        self.current_op = index
        self._before = {n: c.cache_info() for n, c in self.caches.items()}
        idx = len(self.start)
        self.name_id.append(0)
        self.parent.append(-1)
        self.op.append(index)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(perf_counter())

    def op_end(self) -> None:
        idx = self.stack.pop()
        self.end[idx] = perf_counter()
        for n, c in self.caches.items():
            info, before = c.cache_info(), self._before[n]
            # cache_clear() resets the counters, so a negative delta means
            # the cache was cleared inside the op window.
            misses = info.misses - before.misses
            self.cache_misses[n] += misses if misses >= 0 else info.misses
            self.cache_entries[n] = max(self.cache_entries[n], info.currsize)

    # -- results --------------------------------------------------------

    def aggregate(self) -> dict:
        """Per span name: call count and summed self seconds."""
        n = len(self.start)
        dur = array("d", (self.end[i] - self.start[i] for i in range(n)))
        child = array("d", bytes(8 * n))
        parent = self.parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += dur[i]
        self_s = [0.0] * len(self.names)
        for i in range(n):
            self_s[self.name_id[i]] += dur[i] - child[i]
        calls = Counter(self.name_id)
        return {name: {"calls": calls.get(i, 0), "self_s": self_s[i]}
                for i, name in enumerate(self.names)}

    def write(self, path: Path, header: dict, min_span_s: float) -> None:
        """Write spans lasting at least `min_span_s` as JSON lines.

        A parent lasts at least as long as its child, so the written set is
        closed under parents and every written parent id resolves.
        """
        path.parent.mkdir(parents=True, exist_ok=True)
        keep = [i for i in range(len(self.start))
                if self.end[i] - self.start[i] >= min_span_s]
        with path.open("w") as fh:
            fh.write(json.dumps(dict(header, spans_recorded=len(self.start),
                                     spans_written=len(keep),
                                     min_span_s=min_span_s,
                                     fields=["id", "parent", "name", "op",
                                             "start_s", "end_s"])) + "\n")
            t0 = self.start[0] if len(self.start) else 0.0
            for i in keep:
                fh.write(json.dumps([i, self.parent[i], self.names[self.name_id[i]],
                                     self.op[i], round(self.start[i] - t0, 7),
                                     round(self.end[i] - t0, 7)]) + "\n")


# ---------------------------------------------------------------------------
# per-layer metrics

EMIT = ("cli.format_complex", "cli.format_label", "cli._emit_complex",
        "bundles.dumps", "bundles.complex_to_json", "bundles.label_to_json")


def _self(*spans):
    return "s", ("self", spans)            # summed self seconds of the spans


def _calls(*spans):
    return "count", ("calls", spans)       # summed call counts


def _misses(cache):
    return "count", ("misses", cache)      # cache misses summed over ops


# name -> (unit, (kind, argument)); see bench/METRICS.md for what each moves
LAYER_METRICS: dict[str, tuple[str, tuple]] = {
    **{f"{m}.self_s": ("s", ("module", m)) for m in MODULES},
    "autoequiv.solve_exact.self_s": _self("autoequiv.solve_exact"),
    "autoequiv.solve_exact.calls": _calls("autoequiv.solve_exact"),
    "autoequiv.schur_evaluate.self_s": _self("autoequiv.schur_evaluate"),
    "autoequiv.schur_evaluate.calls": _calls("autoequiv.schur_evaluate"),
    "autoequiv.k_class.self_s": _self("autoequiv.k_class"),
    "autoequiv.k_class.calls": _calls("autoequiv.k_class"),
    "autoequiv.images.self_s": _self("autoequiv.twist_on_generator",
                                     "autoequiv.cotwist_on_generator"),
    "schur.lr_coefficient.self_s": _self("schur.lr_coefficient"),
    "schur.lr_coefficient.calls": _calls("schur.lr_coefficient"),
    "schur.lr_coefficient.cache_misses": _misses("schur.lr_coefficient"),
    "schur.lr_nonzero_ratio": ("ratio", ("lr_nonzero", None)),
    "schur.lr_cache_entries": ("count", ("entries", "schur.lr_coefficient")),
    "schur.schur_product.self_s": _self("schur.schur_product",
                                        "schur._schur_product_items"),
    "schur.schur_product.calls": _calls("schur.schur_product"),
    "schur.schur_product.cache_misses": _misses("schur._schur_product_items"),
    "schur.schur_dimension.cache_misses": _misses("schur.schur_dimension"),
    "partitions.partitions_of.self_s": _self("partitions.partitions_of"),
    "partitions.partitions_of.calls": _calls("partitions.partitions_of"),
    "partitions.staircase.self_s": _self("partitions.staircase"),
    "partitions.staircase.calls": _calls("partitions.staircase"),
    "characters.euler_character.self_s": _self("characters.euler_character"),
    "characters.pushforward_character.self_s": _self("characters.pushforward_character"),
    "cli.build_parser.self_s": _self("cli.build_parser"),
    "cli.build_parser.calls": _calls("cli.build_parser"),
    "cli.main.self_s": _self("cli.main"),
    "cli.emit.self_s": _self(*EMIT),
    "bundles.normalize.self_s": _self("bundles.normalize"),
    "bundles.normalize.calls": _calls("bundles.normalize"),
    "bott.classify.self_s": _self("bott.classify"),
    "windows.gamma_set.cache_misses": _misses("windows.gamma_set"),
    "trace.wall_s": ("s", ("traced_wall", None)),
    "trace.overhead_s": ("s", ("overhead", None)),
    "trace.coverage": ("ratio", ("coverage", None)),
    "trace.spans": ("count", ("spans", None)),
}


def pass_layer_values(tracer: Tracer, traced_wall: float) -> dict:
    """Every per-layer metric of one traced pass, except the overhead."""
    agg = tracer.aggregate()
    lr_calls = agg.get("schur.lr_coefficient", {}).get("calls", 0)
    layer_self = sum(v["self_s"] for k, v in agg.items() if k != ROOT_SPAN)
    out = {}
    for name, (_unit, (kind, arg)) in LAYER_METRICS.items():
        if kind == "module":
            value = sum(v["self_s"] for k, v in agg.items() if k.startswith(arg + "."))
        elif kind in ("self", "calls"):
            field = "self_s" if kind == "self" else "calls"
            value = sum(agg.get(s, {}).get(field, 0) for s in arg)
        elif kind == "misses":
            value = tracer.cache_misses[arg]
        elif kind == "entries":
            value = tracer.cache_entries[arg]
        elif kind == "lr_nonzero":
            value = tracer.lr_nonzero / lr_calls if lr_calls else 0.0
        elif kind == "traced_wall":
            value = traced_wall
        elif kind == "coverage":
            value = layer_self / traced_wall
        elif kind == "spans":
            value = len(tracer.start)
        else:  # overhead needs the plain passes; filled in by the caller
            value = None
        out[name] = value
    return out


def median_layer_values(per_pass: list[dict], overhead_s: float) -> dict:
    out = {}
    for name in LAYER_METRICS:
        if name == "trace.overhead_s":
            out[name] = overhead_s
        else:
            out[name] = statistics.median_low(p[name] for p in per_pass)
    return out
