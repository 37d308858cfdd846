"""Per-layer tracing by wrapping the public functions of each germ module.

Nothing is traced inside the program: the tracer replaces every public
function of a ``germ`` module, in every ``germ`` module namespace that binds
it, with a wrapper that records a span.  Callers look the function up in
their own module's namespace at call time (``germ.montecarlo.draw_signs``,
``germ.oracle.bernstein_delta_from_sq``), so the wrapper sees every call the
program makes.  ``install`` and ``uninstall`` swap the wrappers in and out,
so untraced passes run the original functions.

A span's layer is the module that defines the function.  Per layer the
tracer keeps calls, inclusive time of the outermost spans of that layer
(time spent inside the layer, with nested same-layer calls counted once),
and self time (span time minus the time of wrapped calls inside it).
Spans themselves are appended to flat arrays only while ``keep_spans`` is
set, and are written out once, when the run ends.
"""

from __future__ import annotations

import array
import functools
import importlib
import inspect
import math
import pkgutil
from time import perf_counter

LAYERS = (
    "rng",
    "problem",
    "rademacher",
    "gap",
    "algorithm",
    "analysis",
    "oracle",
    "montecarlo",
    "scenarios",
    "cli",
)


def _result_bytes(result) -> int:
    paths = [result.report_path, result.curve_path, *result.coverage_paths.values()]
    if result.trajectory_path is not None:
        paths.append(result.trajectory_path)
    return sum(p.stat().st_size for p in paths)


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _rep_steps(args, kwargs, result):
    cfg = _arg(args, kwargs, 2, "cfg")
    return "montecarlo.rep_steps", cfg.replications * cfg.n_max


# Counts recorded at the layer boundary, from a call's arguments or result.
# Each maps (args, kwargs, result) to (counter name, amount).
COUNTERS = {
    "rng.draw_signs": lambda a, kw, r: ("rng.signs", _arg(a, kw, 1, "k")),
    "oracle.exact_risk_curve": lambda a, kw, r: (
        "oracle.sequences",
        a[0].outcome_count ** _arg(a, kw, 2, "n_max"),
    ),
    "oracle.pairwise_bernstein_coverage": lambda a, kw, r: (
        "oracle.count_vectors",
        math.comb(_arg(a, kw, 1, "n") + a[0].outcome_count - 1, a[0].outcome_count - 1),
    ),
    "montecarlo.mc_risk_curve": _rep_steps,
    "montecarlo.mc_bound_coverage": _rep_steps,
    "cli.run_experiment": lambda a, kw, r: ("cli.bytes_written", _result_bytes(r)),
}


class Tracer:
    """Wraps germ's public functions and aggregates spans per layer."""

    def __init__(self, package) -> None:
        self.modules = [
            importlib.import_module(f"{package.__name__}.{info.name}")
            for info in pkgutil.iter_modules(package.__path__)
        ]
        originals = {}
        for module in self.modules:
            for name, value in vars(module).items():
                if (
                    inspect.isfunction(value)
                    and not name.startswith("_")
                    and value.__module__.startswith(package.__name__ + ".")
                ):
                    originals[id(value)] = value
        funcs = sorted(originals.values(), key=lambda f: (f.__module__, f.__name__))
        # a module added to germ later is traced as a layer of its own, so its
        # time still leaves its callers' self time
        found = {f.__module__.split(".", 1)[1] for f in funcs}
        self.layers = [*LAYERS, *sorted(found - set(LAYERS))]
        self.names = []
        self.layer_of = []
        self._wrappers = {}
        for fid, func in enumerate(funcs):
            layer = func.__module__.split(".", 1)[1]
            qualname = f"{layer}.{func.__name__}"
            self.names.append(qualname)
            self.layer_of.append(self.layers.index(layer))
            self._wrappers[id(func)] = self._wrap(func, fid, self.layer_of[-1], COUNTERS.get(qualname))
        self.keep_spans = False
        self.span_fid = array.array("i")
        self.span_parent = array.array("i")
        self.span_start = array.array("d")
        self.span_end = array.array("d")
        self.reset()

    def reset(self) -> None:
        """Clear the aggregates (not the kept spans)."""
        self._stack = []
        self._depth = [0] * len(self.layers)
        self.layer_calls = [0] * len(self.layers)
        self.layer_incl = [0.0] * len(self.layers)
        self.layer_self = [0.0] * len(self.layers)
        self.func_calls = [0] * len(self.names)
        self.func_time = [0.0] * len(self.names)
        self.counters = {}

    def _wrap(self, func, fid: int, layer: int, counter):
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            depth = tracer._depth
            frame = [0.0, -1]
            if tracer.keep_spans:
                frame[1] = len(tracer.span_fid)
                tracer.span_fid.append(fid)
                tracer.span_parent.append(stack[-1][1] if stack else -1)
                tracer.span_start.append(0.0)
                tracer.span_end.append(0.0)
            stack.append(frame)
            outer = depth[layer] == 0
            depth[layer] += 1
            start = perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                end = perf_counter()
                depth[layer] -= 1
                stack.pop()
                span = end - start
                if stack:
                    stack[-1][0] += span
                if outer:
                    tracer.layer_incl[layer] += span
                tracer.layer_self[layer] += span - frame[0]
                tracer.layer_calls[layer] += 1
                tracer.func_calls[fid] += 1
                tracer.func_time[fid] += span
                if frame[1] >= 0:
                    tracer.span_start[frame[1]] = start
                    tracer.span_end[frame[1]] = end
            if counter is not None:
                key, amount = counter(args, kwargs, result)
                tracer.counters[key] = tracer.counters.get(key, 0) + amount
            return result

        return wrapper

    def install(self) -> None:
        for module in self.modules:
            for name, value in list(vars(module).items()):
                if id(value) in self._wrappers:
                    setattr(module, name, self._wrappers[id(value)])

    def uninstall(self) -> None:
        for module in self.modules:
            for name, value in list(vars(module).items()):
                original = getattr(value, "__wrapped__", None)
                if original is not None and id(original) in self._wrappers:
                    setattr(module, name, original)

    def snapshot(self) -> dict:
        """Raw totals since the last ``reset``: per layer calls, inclusive and
        self time; per function calls and time; the boundary counters."""
        raw = dict(self.counters)
        for i, layer in enumerate(self.layers):
            raw[f"{layer}:calls"] = self.layer_calls[i]
            raw[f"{layer}:incl"] = self.layer_incl[i]
            raw[f"{layer}:self"] = self.layer_self[i]
        for i, name in enumerate(self.names):
            raw[f"{name}:calls"] = self.func_calls[i]
            raw[f"{name}:time"] = self.func_time[i]
        return raw

    def spans(self) -> dict:
        """The kept spans as parallel lists: function id, parent span, and
        start and end in microseconds from the first span."""
        origin = self.span_start[0] if self.span_start else 0.0
        return {
            "names": self.names,
            "layers": [self.layers[i] for i in self.layer_of],
            "fid": self.span_fid.tolist(),
            "parent": self.span_parent.tolist(),
            "start_us": [round((t - origin) * 1e6) for t in self.span_start],
            "end_us": [round((t - origin) * 1e6) for t in self.span_end],
        }


def layer_metrics(raw: dict) -> dict:
    """The benchmark's per-layer metrics, as {name: (value, unit)}, from raw totals."""

    def get(key):
        return raw.get(key, 0)

    def rate(count, seconds):
        return count / seconds if seconds > 0 else 0.0

    figures = {
        "rng.sign_calls": (get("rng.draw_signs:calls"), "count"),
        "rng.sign_s": (get("rng.draw_signs:time"), "s"),
        "rng.signs": (get("rng.signs"), "count"),
        "rng.streams": (get("rng.philox_stream:calls"), "count"),
        "rng.stream_s": (get("rng.philox_stream:time"), "s"),
        "montecarlo.self_s": (get("montecarlo:self"), "s"),
        "montecarlo.rep_steps_per_s": (rate(get("montecarlo.rep_steps"), get("montecarlo:incl")), "1/s"),
        "montecarlo.rep_steps": (get("montecarlo.rep_steps"), "count"),
        "montecarlo.passes": (
            get("montecarlo.mc_risk_curve:calls") + get("montecarlo.mc_bound_coverage:calls"),
            "count",
        ),
        "oracle.self_s": (get("oracle:self"), "s"),
        "oracle.sequences_per_s": (rate(get("oracle.sequences"), get("oracle.exact_risk_curve:time")), "1/s"),
        "oracle.sequences": (get("oracle.sequences"), "count"),
        "oracle.count_vectors": (get("oracle.count_vectors"), "count"),
        "scenarios.loaded": (get("scenarios.load_scenario:calls"), "count"),
        "scenarios.s": (get("scenarios:incl"), "s"),
        "cli.self_s": (get("cli:self"), "s"),
        "cli.bytes_written": (get("cli.bytes_written"), "B"),
    }
    for layer in ("rademacher", "gap", "algorithm", "analysis", "problem"):
        figures[f"{layer}.calls"] = (get(f"{layer}:calls"), "count")
        figures[f"{layer}.s"] = (get(f"{layer}:incl"), "s")
    return figures
