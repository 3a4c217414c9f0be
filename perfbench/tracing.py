"""Spans around the calls into each layer, installed from outside the package.

`Tracer.install()` replaces every binding a caller resolves with a
wrapper that records one span: name, start, end, parent, the exception
it raised (if any) and one integer payload (crossings of a ray trace,
samples of a scan, letters of a word ...).  Spans live in flat arrays
and are written out by `write()` after the measurement.  A layer's self
time is its spans' duration minus the time covered by child spans.

Bindings matter because `from .surface import classify_direction`
copies the function into the importing module: wrapping
`surface.classify_direction` alone would miss the calls made from
`teichmuller` and `cli`.  So the module globals of every caller, and
the class attributes for methods, are wrapped separately.
"""

from __future__ import annotations

import functools
import json
import time
from array import array

from dilatorus import (cli, geometry, intervalmaps, quadratics, rauzy,
                       surface, teichmuller, twists)
from dilatorus.errors import VertexHit

_QN_ARITH = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
             "__rmul__", "__truediv__", "__rtruediv__", "__neg__", "__abs__")


def _payloads():
    """Span name -> function of the call's result giving the payload."""
    return {
        "surface.trace_ray": lambda r: r.crossings,
        "surface.find_cylinders": lambda r: r.n_samples,
        "rauzy.iterate_induction": lambda r: len(r.word),
        "rauzy.survivor_intervals": len,
        "twists.reach_target": lambda r: len(r.word),
        "twists.gauss_contraction": lambda r: len(r.blocks),
    }


def _function_bindings():
    """(owner, attribute, span name) for every function binding to wrap."""
    functions = {
        surface: ("trace_ray", "first_return_map", "_verify_reduction",
                  "direction_to_two_slope", "_collapsed_direction",
                  "classify_direction", "find_cylinders", "rotation_number",
                  "iterate_induction", "restrict_to_image"),
        teichmuller: ("classify_direction", "find_cylinders",
                      "divergence_monitor", "_window_hits"),
        cli: ("classify_direction", "find_cylinders", "rotation_number",
              "divergence_monitor", "survivor_measure", "reach_target",
              "apply_word", "holonomy_class"),
        rauzy: ("iterate_induction", "survivor_measure", "survivor_intervals"),
        intervalmaps: ("restrict_to_image",),
        twists: ("reach_target", "gauss_contraction", "apply_word",
                 "holonomy_class"),
    }
    out = []
    for module, names in functions.items():
        for attr in names:
            fn = getattr(module, attr)
            home = fn.__module__.rsplit(".", 1)[-1]
            out.append((module, attr, f"{home}.{fn.__name__}"))
    for attr in ("vertices", "sides", "diameter"):
        out.append((geometry.Room, attr, f"geometry.Room.{attr}"))
    for attr in _QN_ARITH:
        out.append((quadratics.QuadraticNumber, attr,
                    f"quadratics.QuadraticNumber.{attr}"))
    return out


class Tracer:
    """In-memory span store plus the wrappers that fill it."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.error = array("H")      # 0: returned; else 1 + name id of the exception
        self.payload = array("q")
        self._stack = [-1]
        self._saved: list[tuple[object, str, object]] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, name: str, payload=None):
        nid = self.name_id(name)
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        errors, payloads, stack = self.error, self.payload, self._stack
        clock = time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(names)
            names.append(nid)
            parents.append(stack[-1])
            errors.append(0)
            payloads.append(0)
            ends.append(0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                ends[i] = clock()
                stack.pop()
                errors[i] = 1 + tracer.name_id(type(exc).__name__)
                if isinstance(exc, VertexHit) and exc.trace is not None:
                    payloads[i] = exc.trace.crossings
                raise
            ends[i] = clock()
            stack.pop()
            if payload is not None:
                payloads[i] = payload(result)
            return result

        return wrapper

    def install(self) -> None:
        payloads = _payloads()
        for owner, attr, name in _function_bindings():
            original = vars(owner)[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(original, name, payloads.get(name)))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def write(self, path: str) -> None:
        """One JSON header line, then the six columns as raw arrays."""
        header = {"names": self.names, "count": len(self.name),
                  "columns": [["name", "H"], ["parent", "i"], ["start", "q"],
                              ["end", "q"], ["error", "H"], ["payload", "q"]],
                  "clock": "perf_counter_ns"}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for col in (self.name, self.parent, self.start, self.end,
                        self.error, self.payload):
                col.tofile(fh)


class Layers:
    """Per-layer aggregates of a tracer's spans."""

    def __init__(self, tracer: Tracer):
        names = tracer.names
        name = [names[i] for i in tracer.name]
        parent = tracer.parent.tolist()
        dur = [e - s for s, e in zip(tracer.start, tracer.end)]
        child = [0] * len(name)
        for i, p in enumerate(parent):
            if p >= 0:
                child[p] += dur[i]
        self.calls: dict[str, int] = {}
        self.self_ns: dict[str, int] = {}
        self.failed: dict[str, int] = {}
        self.errors: dict[tuple[str, str], int] = {}
        self.payload: dict[str, int] = {}
        # (child layer, parent layer) -> spans of the child directly under the parent
        self.direct: dict[tuple[str, str], int] = {}
        for i, n in enumerate(name):
            self.calls[n] = self.calls.get(n, 0) + 1
            self.self_ns[n] = self.self_ns.get(n, 0) + dur[i] - child[i]
            err = tracer.error[i]
            if err:
                self.failed[n] = self.failed.get(n, 0) + 1
                key = (n, names[err - 1])
                self.errors[key] = self.errors.get(key, 0) + 1
            p = parent[i]
            pn = name[p] if p >= 0 else ""
            if pn != n:     # recursive calls add no payload of their own
                self.payload[n] = self.payload.get(n, 0) + tracer.payload[i]
            self.direct[(n, pn)] = self.direct.get((n, pn), 0) + 1
        # return maps built anywhere below a classification
        under = [False] * len(name)
        for i, p in enumerate(parent):
            under[i] = p >= 0 and (name[p] == "surface.classify_direction"
                                   or under[p])
        self.maps_under_classify = sum(
            1 for i, n in enumerate(name)
            if n == "surface.first_return_map" and under[i])

    def n(self, layer: str) -> int:
        return self.calls.get(layer, 0)

    def self_s(self, layer: str) -> float:
        return self.self_ns.get(layer, 0) / 1e9

    def ratio(self, num: float, layer: str) -> float:
        calls = self.n(layer)
        return num / calls if calls else 0.0

    def group(self, prefix: str, members) -> tuple[int, float]:
        calls = sum(self.n(f"{prefix}.{m}") for m in members)
        return calls, sum(self.self_s(f"{prefix}.{m}") for m in members)


def per_layer_metrics(layers: Layers) -> dict[str, tuple[float, str]]:
    """The per-layer metric set, each as (value, unit)."""
    L = layers
    out: dict[str, tuple[float, str]] = {}

    def put(name, value, unit):
        out[name] = (value, unit)

    def basic(layer, *stats):
        if "calls" in stats:
            put(f"{layer}.calls", L.n(layer), "count")
        if "self_s" in stats:
            put(f"{layer}.self_s", L.self_s(layer), "s")

    tr = "surface.trace_ray"
    basic(tr, "calls", "self_s")
    put(f"{tr}.crossings_per_call", L.ratio(L.payload.get(tr, 0), tr), "count/call")
    put(f"{tr}.vertex_hit_frac",
        L.ratio(L.errors.get((tr, "VertexHit"), 0), tr), "frac")
    for attr in ("vertices", "sides", "diameter"):
        basic(f"geometry.Room.{attr}", "calls")

    frm = "surface.first_return_map"
    basic(frm, "calls", "self_s")
    put(f"{frm}.traces_per_call", L.ratio(L.direct.get((tr, frm), 0), frm), "count/call")
    put(f"{frm}.failed_frac", L.ratio(L.failed.get(frm, 0), frm), "frac")

    d2 = "surface.direction_to_two_slope"
    basic(d2, "calls", "self_s")
    put(f"{d2}.not_reducible_frac",
        L.ratio(L.errors.get((d2, "NotReducible"), 0), d2), "frac")
    basic("surface._collapsed_direction", "calls", "self_s")
    cd = "surface.classify_direction"
    basic(cd, "calls", "self_s")
    put(f"{cd}.return_maps_per_call", L.ratio(L.maps_under_classify, cd), "count/call")
    vr = "surface._verify_reduction"
    basic(vr, "self_s")
    put(f"{vr}.traces", L.direct.get((tr, vr), 0), "count")

    fc = "surface.find_cylinders"
    basic(fc, "calls", "self_s")
    probes = L.direct.get((cd, fc), 0)
    put(f"{fc}.classify_per_call", L.ratio(probes, fc), "count/call")
    # grid samples are the scan's payload; every other probe serves an edge
    put(f"{fc}.edge_probe_frac",
        (probes - L.payload.get(fc, 0)) / probes if probes else 0.0, "frac")

    basic("teichmuller.divergence_monitor", "calls", "self_s")
    wh = "teichmuller._window_hits"
    basic(wh, "calls", "self_s")
    put(f"{wh}.probes_per_call", L.ratio(L.direct.get((cd, wh), 0), wh), "count/call")

    it = "rauzy.iterate_induction"
    basic(it, "calls", "self_s")
    put(f"{it}.steps_per_call", L.ratio(L.payload.get(it, 0), it), "count/call")
    basic("rauzy.survivor_measure", "calls", "self_s")
    basic("rauzy.survivor_intervals", "self_s")
    put("rauzy.survivor_intervals.intervals",
        L.payload.get("rauzy.survivor_intervals", 0), "count")
    ri = "intervalmaps.restrict_to_image"
    basic(ri, "calls", "self_s")
    put(f"{ri}.failed_frac", L.ratio(L.failed.get(ri, 0), ri), "frac")

    qn_calls, qn_self = L.group("quadratics.QuadraticNumber", _QN_ARITH)
    put("quadratics.QuadraticNumber.arith_calls", qn_calls, "count")
    put("quadratics.QuadraticNumber.self_s", qn_self, "s")

    for fn in ("reach_target", "gauss_contraction", "apply_word",
               "holonomy_class"):
        basic(f"twists.{fn}", "calls", "self_s")
    rt, gc = "twists.reach_target", "twists.gauss_contraction"
    put(f"{rt}.word_len", L.ratio(L.payload.get(rt, 0), rt), "count/call")
    put(f"{gc}.blocks", L.ratio(L.payload.get(gc, 0), gc), "count/call")

    basic("surface.rotation_number", "calls", "self_s")
    basic("cli.main", "calls", "self_s")
    return out
