"""Spans around affaut's public functions, installed from outside the package.

``Tracer.install`` replaces every public function of the affaut modules, a
few hot methods, and the ring arithmetic methods with timing wrappers.  A
function is replaced under every name it is bound to, so ``invert`` as
imported into ``adjoint`` is traced too.  Spans stay in memory; self time
is a span's duration minus the time covered by spans of other layers
(modules) below it, so ``inversion.invert`` self time excludes the
compositions and ring calls it makes, but not its own recursive descent.
Ring arithmetic calls are counted and timed, but not kept as spans: there
are millions of them.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from collections import Counter

MODULES = ("rings", "autgroup", "inversion", "witt", "greenberg", "adjoint")
METHODS = {
    "autgroup": {"TruncPoly": ("compose",)},
    "greenberg": {"GroupLaw": ("compose_points", "point_to_aut", "aut_to_point")},
}
RING_CLASSES = ("IntegerRing", "IntModRing", "TruncSeriesRing", "SymbolicRing")
RING_METHODS = (
    "add", "sub", "neg", "mul", "inv", "q_val", "exact_div_q",
    "is_zero", "is_unit", "is_nilpotent",
)

# per-layer metrics: name -> (span, field); field is calls, ms, self_ms, or
# a counter kept by an extractor below
PER_LAYER = {
    "rings.calls": ("ringop", "calls"),
    "rings.ms": ("ringop", "ms"),
    "rings.q_val.calls": ("ringop.q_val", "calls"),
    "autgroup.compose.calls": ("autgroup.TruncPoly.compose", "calls"),
    "autgroup.compose.ms": ("autgroup.TruncPoly.compose", "ms"),
    "autgroup.compose.self_ms": ("autgroup.TruncPoly.compose", "self_ms"),
    "autgroup.member.ms": ("autgroup.member", "ms"),
    "autgroup.sample_filtered.ms": ("autgroup.sample_filtered", "ms"),
    "autgroup.order.ms": ("autgroup.order", "ms"),
    "autgroup.order.compositions": ("autgroup.order.compositions", "count"),
    "inversion.invert.ms": ("inversion.invert", "ms"),
    "inversion.invert.self_ms": ("inversion.invert", "self_ms"),
    "inversion.invert.depth": ("inversion.invert.depth", "count"),
    "inversion.oracle_invert.ms": ("inversion.oracle_invert", "ms"),
    "witt.derive_witt_laws.ms": ("witt.derive_witt_laws", "ms"),
    "witt.witt_add.calls": ("witt.witt_add", "calls"),
    "witt.witt_mul.calls": ("witt.witt_mul", "calls"),
    "witt.witt_to_residue.ms": ("witt.witt_to_residue", "ms"),
    "greenberg.group_law_shape.ms": ("greenberg.group_law_shape", "ms"),
    "greenberg.raw_terms": ("greenberg.raw_terms", "count"),
    "greenberg.compose_points.calls": ("greenberg.GroupLaw.compose_points", "calls"),
    "greenberg.compose_points.ms": ("greenberg.GroupLaw.compose_points", "ms"),
    "greenberg.verify_group_axioms.ms": ("greenberg.verify_group_axioms", "ms"),
    "adjoint.ad.ms": ("adjoint.ad", "ms"),
    "adjoint.ad_matrix.ms": ("adjoint.ad_matrix", "ms"),
    "adjoint.module_decomposition.ms": ("adjoint.module_decomposition", "ms"),
    "cli.interpreter_ms": ("cli.interpreter", "ms"),
    "cli.import_ms": ("cli.import", "ms"),
    "cli.main_ms": ("cli.main", "ms"),
}


def _depth(tracer, parent, result):
    # only the outermost call of the recursive descent reports its depth
    if parent[1] != "inversion.invert_with_depth":
        tracer.counts["inversion.invert.depth"] += result[1]


def _raw_terms(tracer, parent, result):
    tracer.counts["greenberg.raw_terms"] += sum(len(r.terms) for r in result.raw_laws)


EXTRACTORS = {
    "inversion.invert_with_depth": _depth,
    "greenberg.group_law_shape": _raw_terms,
}


class Tracer:
    def __init__(self):
        self._clock = time.perf_counter_ns
        self.origin = self._clock()
        # a frame is [span id, name, layer, foreign ns]
        self.stack = [[0, "", "", 0]]
        self.next_id = 1
        self.spans: list = []
        self.calls: Counter = Counter()
        self.ns: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.counts: Counter = Counter()
        self._open: Counter = Counter()
        self._in_ring = False

    # -- recording ------------------------------------------------------------

    def reset(self):
        """Forget everything recorded so far (the warm-up operation)."""
        self.spans.clear()
        for c in (self.calls, self.ns, self.self_ns, self.counts):
            c.clear()

    def record(self, name: str, dur_ns: int):
        """A span measured elsewhere, such as in a child process."""
        self.calls[name] += 1
        self.ns[name] += dur_ns
        self.self_ns[name] += dur_ns
        self.spans.append((self.next_id, 0, name, self._clock() - self.origin, dur_ns, dur_ns))
        self.next_id += 1

    def counters(self) -> dict:
        return {"calls": self.calls, "ns": self.ns, "self_ns": self.self_ns, "counts": self.counts}

    def merge(self, counters: dict):
        """Add counters that another process's tracer recorded."""
        mine = self.counters()
        for key, values in counters.items():
            mine[key].update(values)

    def _span(self, name, layer, fn):
        tracer = self
        clock = self._clock
        extract = EXTRACTORS.get(name)
        order_child = name == "autgroup.TruncPoly.compose"

        def wrapper(*args, **kwargs):
            stack = tracer.stack
            parent = stack[-1]
            if order_child and parent[1] == "autgroup.order":
                tracer.counts["autgroup.order.compositions"] += 1
            sid = tracer.next_id
            tracer.next_id = sid + 1
            frame = [sid, name, layer, 0]
            stack.append(frame)
            outermost = not tracer._open[name]
            tracer._open[name] += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                tracer._open[name] -= 1
                stack.pop()
                parent[3] += frame[3] if parent[2] == layer else dur
                own = dur - frame[3]
                tracer.calls[name] += 1
                if outermost:
                    tracer.ns[name] += dur
                    tracer.self_ns[name] += own
                tracer.spans.append((sid, parent[0], name, t0 - tracer.origin, dur, own))
            if extract is not None:
                extract(tracer, parent, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _ring_call(self, method, fn):
        tracer = self
        clock = self._clock
        name = "ringop." + method

        def wrapper(*args):
            tracer.calls[name] += 1
            if tracer._in_ring:
                return fn(*args)
            tracer._in_ring = True
            t0 = clock()
            try:
                return fn(*args)
            finally:
                dur = clock() - t0
                tracer._in_ring = False
                tracer.ns["ringop"] += dur
                parent = tracer.stack[-1]
                if parent[2] != "rings":
                    parent[3] += dur

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation -----------------------------------------------------------

    def install(self):
        """Wrap affaut in place; call once per process, after import."""
        import affaut  # noqa: F401  (loads every submodule)

        mods = {name: sys.modules["affaut." + name] for name in MODULES}
        everywhere = [sys.modules["affaut"]] + [
            m for k, m in sys.modules.items() if k.startswith("affaut.")
        ]
        for layer, mod in mods.items():
            for attr, fn in list(vars(mod).items()):
                if (
                    attr.startswith("_")
                    or not inspect.isfunction(fn)
                    or fn.__module__ != mod.__name__
                ):
                    continue
                wrapped = self._span(f"{layer}.{attr}", layer, fn)
                for m in everywhere:
                    for k, v in list(vars(m).items()):
                        if v is fn:
                            setattr(m, k, wrapped)
            for cls_name, methods in METHODS.get(layer, {}).items():
                cls = getattr(mod, cls_name)
                for meth in methods:
                    qual = f"{layer}.{cls_name}.{meth}"
                    setattr(cls, meth, self._span(qual, layer, vars(cls)[meth]))
        rings = mods["rings"]
        for cls_name in RING_CLASSES:
            cls = getattr(rings, cls_name)
            for meth in RING_METHODS:
                if meth in vars(cls):
                    setattr(cls, meth, self._ring_call(meth, vars(cls)[meth]))

    # -- results ----------------------------------------------------------------

    def per_layer(self, ops: int) -> dict:
        """Every per-layer metric, per operation."""
        self.calls["ringop"] = sum(
            v for k, v in self.calls.items() if k.startswith("ringop.")
        )
        out = {}
        for metric, (name, field) in PER_LAYER.items():
            if field == "calls":
                value, unit = self.calls[name], "count"
            elif field == "count":
                value, unit = self.counts[name], "count"
            elif field == "ms":
                value, unit = self.ns[name] / 1e6, "ms"
            else:
                value, unit = self.self_ns[name] / 1e6, "ms"
            out[metric] = {"value": value / ops, "unit": unit}
        return out

    def dump(self, path, summary: dict):
        """Write the summary line, then one line per span:
        [id, parent id, name, start us, duration us, self us]."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(summary, sort_keys=True) + "\n")
            for sid, parent, name, start, dur, own in self.spans:
                fh.write(
                    json.dumps([sid, parent, name, start // 1000, dur // 1000, own // 1000])
                    + "\n"
                )
