"""Spans around the program's public functions, installed from outside.

``Tracer.install`` replaces, by name, every public function of each layer
module (and every ``margin`` method of the free-set classes) with a
wrapper that records a span: op id, span id, parent span id, name, start
and end in nanoseconds.  Names a later version of the program no longer
has are simply not wrapped.  Spans stay in memory; ``write`` stores them
when the run ends.  A layer's self time is its span minus the spans of
its direct children.
"""

from __future__ import annotations

import functools
import inspect
import math
import time
from collections import defaultdict

import numpy as np

# Per-layer metric -> (unit, end-to-end metric and workload it should move).
PER_LAYER = {
    "spectral.jacobi_eigen.ms": ("ms", "op_p50_ms, ops_per_s on sep-large; small on loop; none on verify"),
    "spectral.canonicalize.self_ms": ("ms", "op_p50_ms, ops_per_s on sep-large; small on loop; none on verify"),
    "spectral.canonicalize.calls_per_op": ("count", "op_p50_ms on loop only; exactly 1 on sep-*"),
    "freesets.boundary_step.ms_per_ray": ("ms", "ops_per_s on sep-small and loop"),
    "freesets.margin.calls_per_ray": ("count", "ops_per_s on sep-small and loop"),
    "freesets.build_free_set.ms": ("ms", "ops_per_s on sep-small and loop"),
    "freesets.step_exterior_ratio": ("ratio", "cut_rel_dev_max and fail_ratio on sep-small, not time"),
    "cuts.intersection_cut.self_ms": ("ms", "op_p50_ms, ops_per_s on sep-small and sep-large"),
    "cuts.separate.ms": ("ms", "op_p50_ms, ops_per_s on sep-small and sep-large"),
    "corefns.self_ms_per_op": ("ms", "op_p50_ms on verify, via the case-2 reports"),
    "oracle.check_cut_validity.ms": ("ms", "op_p50_ms on verify"),
    "oracle.sample_quadratic_region.samples_per_s": ("1/s", "op_p50_ms on verify"),
    "oracle.freeness_samples.ms": ("ms", "op_p50_ms on verify"),
    "oracle.check_freeness.ms": ("ms", "op_p50_ms on verify"),
    "lp.solve_lp.ms": ("ms", "op_p50_ms on loop"),
    "lp.solve_lp.calls_per_op": ("count", "op_p50_ms on loop"),
    "cli.parse_instance.ms": ("ms", "op_p50_ms on loop and verify"),
    "cli.emit_json.ms": ("ms", "op_p50_ms on loop and verify"),
    "cli.main.self_ms": ("ms", "op_p50_ms on loop and verify"),
    "trace.overhead_ratio": ("ratio", "none: traced over untraced op time"),
}


class Tracer:
    def __init__(self):
        self.spans = []  # (op, span, parent, name, start_ns, end_ns)
        self._stack = []
        self._paused = False
        self.op = -1
        self.sampled_rows = 0
        self._pending_steps = []  # (args, kwargs, step) of boundary_step calls to test
        self.finite_steps = 0
        self.exterior_steps = 0

    # -- recording ---------------------------------------------------------

    def _wrap(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer._paused:
                return fn(*args, **kwargs)
            sid = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer.spans.append(None)
            tracer._stack.append(sid)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                tracer._stack.pop()
                tracer.spans[sid] = (tracer.op, sid, parent, name, start, end)
            if name == "oracle.sample_quadratic_region":
                tracer.sampled_rows += int(np.shape(result)[0])
            elif name == "freesets.boundary_step":
                tracer._pending_steps.append((args, kwargs, result))
            return result

        return wrapper

    def install(self, mods: dict):
        """Wrap each layer's public functions and the free-set ``margin``
        methods."""
        for layer, mod in mods.items():
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                wrapper = self._wrap(f"{layer}.{attr}", fn)
                # Rebind every module-level alias (``from .x import f``) too.
                for other in mods.values():
                    for key, value in list(vars(other).items()):
                        if value is fn:
                            setattr(other, key, wrapper)
        for attr, cls in list(vars(mods["freesets"]).items()):
            if inspect.isclass(cls) and "margin" in vars(cls):
                cls.margin = self._wrap(f"freesets.{attr}.margin", vars(cls)["margin"])

    def op_span(self, seq: int, fn):
        """Run op number ``seq`` of the traced phase under a root span ``op``."""
        self.op = seq
        return self._wrap("op", fn)()

    def settle(self):
        """Test the steps of the last op outside its timed region: a finite
        step is exterior when margin(apex + t·ray) > 0."""
        self._paused = True
        try:
            for args, kwargs, step in self._pending_steps:
                value = float(step.value)
                if not math.isfinite(value):
                    continue
                given = list(args[:3])
                fs, apex, ray = given + [kwargs[k] for k in ("fs", "apex", "ray")[len(given):]]
                self.finite_steps += 1
                if fs.margin(np.asarray(apex) + value * np.asarray(ray)) > 0.0:
                    self.exterior_steps += 1
        finally:
            self._pending_steps.clear()
            self._paused = False

    # -- reporting ---------------------------------------------------------

    def aggregate(self, factors):
        """Per name: calls, total span ns and total self ns, each span scaled
        by its op's speed factor; plus the number of margin calls made
        directly by ``boundary_step``."""
        child_ns = defaultdict(int)
        for _, _, parent, _, start, end in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        calls, total, self_ns = defaultdict(int), defaultdict(float), defaultdict(float)
        step_margins = 0
        for op, sid, parent, name, start, end in self.spans:
            calls[name] += 1
            total[name] += (end - start) * factors[op]
            self_ns[name] += (end - start - child_ns[sid]) * factors[op]
            if parent >= 0 and name.endswith(".margin") and self.spans[parent][3] == "freesets.boundary_step":
                step_margins += 1
        return calls, total, self_ns, step_margins

    def metrics(self, overhead_ratio: float, factors) -> dict:
        """Every per-layer metric; ``factors[op]`` scales op ``op``'s spans
        to the nominal machine speed."""
        calls, total, self_ns, step_margins = self.aggregate(factors)
        ops = max(calls["op"], 1)

        def mean_ms(name, table=total):
            return table[name] / calls[name] / 1e6 if calls[name] else 0.0

        corefns_self = sum(v for k, v in self_ns.items() if k.startswith("corefns."))
        sampled_s = total["oracle.sample_quadratic_region"] / 1e9
        values = {
            "spectral.jacobi_eigen.ms": mean_ms("spectral.jacobi_eigen"),
            "spectral.canonicalize.self_ms": mean_ms("spectral.canonicalize", self_ns),
            "spectral.canonicalize.calls_per_op": calls["spectral.canonicalize"] / ops,
            "freesets.boundary_step.ms_per_ray": mean_ms("freesets.boundary_step"),
            "freesets.margin.calls_per_ray": step_margins / calls["freesets.boundary_step"]
            if calls["freesets.boundary_step"] else 0.0,
            "freesets.build_free_set.ms": mean_ms("freesets.build_free_set"),
            "freesets.step_exterior_ratio": self.exterior_steps / self.finite_steps
            if self.finite_steps else 0.0,
            "cuts.intersection_cut.self_ms": mean_ms("cuts.intersection_cut", self_ns),
            "cuts.separate.ms": mean_ms("cuts.separate"),
            "corefns.self_ms_per_op": corefns_self / ops / 1e6,
            "oracle.check_cut_validity.ms": mean_ms("oracle.check_cut_validity"),
            "oracle.sample_quadratic_region.samples_per_s": self.sampled_rows / sampled_s
            if sampled_s else 0.0,
            "oracle.freeness_samples.ms": mean_ms("oracle.freeness_samples"),
            "oracle.check_freeness.ms": mean_ms("oracle.check_freeness"),
            "lp.solve_lp.ms": mean_ms("lp.solve_lp"),
            "lp.solve_lp.calls_per_op": calls["lp.solve_lp"] / ops,
            "cli.parse_instance.ms": mean_ms("cli.parse_instance"),
            "cli.emit_json.ms": mean_ms("cli.emit_json"),
            "cli.main.self_ms": mean_ms("cli.main", self_ns),
            "trace.overhead_ratio": overhead_ratio,
        }
        return {k: {"value": v, "unit": PER_LAYER[k][0]} for k, v in values.items()}

    def write(self, path):
        """Store every span as one tab-separated line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("op\tspan\tparent\tname\tstart_ns\tend_ns\n")
            for span in self.spans:
                fh.write("\t".join(map(str, span)) + "\n")
