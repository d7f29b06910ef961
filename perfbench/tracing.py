"""Span tracer for the traced benchmark run.

The tracer wraps the public functions listed in ``TRACED`` and rebinds each
wrapper under every ``rwrs`` module attribute that holds the original, so
calls made through ``from .x import f`` bindings are seen as well. The
per-replicate samplers are handed to ``map`` as ``functools.partial``
objects built at call time from module globals, so they pick up the
wrappers too. Spans live in memory and are written out once, at the end.

Tracing is single-threaded (the traced run uses ``workers=1``), so child
spans of one span never overlap and a span's self time is its duration
minus the sum of its direct children's durations. Times are integer
nanoseconds, which keeps that arithmetic exact.
"""
from __future__ import annotations

import functools
import inspect
import json
import re
import sys
import time
from collections import Counter, defaultdict
from dataclasses import asdict, dataclass

# Public functions timed per layer, by rwrs module. A name missing from the
# program (renamed or removed by a later change) is skipped and reads 0.
TRACED = {
    "randomness": ("sample_increments", "derive_site_value",
                   "stable_standard_sample", "calibrate_stable_scale"),
    "walk": ("simulate_walk", "empirical_sheet", "occupation_quadratic",
             "occupation_statistic"),
    "limit": ("simulate_levy_path", "local_time_field", "kiefer_increments",
              "limit_sheet", "local_time_quadratic"),
    "diagnostics": ("two_sample_distance", "holder_norm_estimate",
                    "bickel_wichura_modulus", "limit_scale",
                    "fdd_discrete_replicate", "fdd_limit_replicate",
                    "lemma1_discrete_replicate", "lemma1_limit_replicate",
                    "limit_sheet_replicate"),
    "io": ("sheet_to_csv", "rows_to_csv", "reports_json"),
    "config": ("parse_config",),
    "runner": ("run_experiment",),
}

COUNT_METRICS = ("walk.steps", "randomness.sites_hashed", "limit.levy_steps",
                 "diagnostics.permutations", "io.bytes_written")
RATIO_METRICS = ("walk.distinct_walk_ratio", "limit.distinct_path_ratio")
RUN_METRICS = ("runner.parallel_efficiency", "trace.overhead_frac")

_NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def valid_metric_name(name: str) -> bool:
    """Names start with a letter or digit and use only ``[A-Za-z0-9_.-]``."""
    return isinstance(name, str) and _NAME_RE.fullmatch(name) is not None


def _size(x) -> int:
    shape = getattr(x, "shape", None)
    if shape is not None:
        n = 1
        for d in shape:
            n *= int(d)
        return n
    return len(x) if hasattr(x, "__len__") else 1


# (module, function) -> (argument name, counter name, measure); the measure
# of the argument is added to the counter on every call.
_COUNTED_ARGS = {
    ("walk", "simulate_walk"): ("n", "walk.steps", int),
    ("limit", "simulate_levy_path"): ("steps", "limit.levy_steps", int),
    ("randomness", "derive_site_value"): ("x", "randomness.sites_hashed", _size),
    ("diagnostics", "two_sample_distance"): ("permutations",
                                             "diagnostics.permutations", int),
}
# (module, function) -> (seed argument, ratio name); the ratio is distinct
# seeds over calls, so 1.0 means no path was simulated twice.
_SEEDED = {
    ("walk", "simulate_walk"): ("seed", "walk.distinct_walk_ratio"),
    ("limit", "simulate_levy_path"): ("seed", "limit.distinct_path_ratio"),
}


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: int
    end: int
    parent: int | None
    run: str


def per_layer_units() -> dict[str, str]:
    """Unit of every per-layer metric the traced run reports, in output order."""
    units = {}
    for module, functions in TRACED.items():
        for fn in functions:
            units[f"{module}.{fn}.calls"] = "count"
            units[f"{module}.{fn}.self_s"] = "s"
    units.update({f"{module}.self_s": "s" for module in TRACED})
    units.update({name: "count" for name in COUNT_METRICS})
    units["io.bytes_written"] = "B"
    units.update({name: "ratio" for name in RATIO_METRICS + RUN_METRICS})
    return units


def self_times(spans: list[Span]) -> dict[int, int]:
    """Self time of each span: its duration minus its children's durations."""
    out = {s.id: s.end - s.start for s in spans}
    for s in spans:
        if s.parent is not None:
            out[s.parent] -= s.end - s.start
    return out


def subtree_ids(spans: list[Span], root: int) -> set[int]:
    children = defaultdict(list)
    for s in spans:
        children[s.parent].append(s.id)
    found, todo = set(), [root]
    while todo:
        sid = todo.pop()
        found.add(sid)
        todo.extend(children[sid])
    return found


class Tracer:
    """Records a span per call of each wrapped function, plus counters."""

    def __init__(self, clock=time.perf_counter_ns) -> None:
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.seeds: dict[str, set] = defaultdict(set)
        self.seeded_calls: Counter = Counter()
        self.run = "setup"
        self._stack: list[int] = []
        self._next_id = 0
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, counted=None, seeded=None):
        """Return ``fn`` wrapped to record a span named ``name``.

        ``counted`` is an (argument, counter, measure) triple and ``seeded``
        an (argument, ratio) pair whose distinct argument values are kept.
        """
        signature = inspect.signature(fn) if (counted or seeded) else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if signature is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                if counted:
                    arg, counter, measure = counted
                    self.counts[counter] += measure(bound.arguments[arg])
                if seeded:
                    arg, ratio = seeded
                    self.seeds[ratio].add(bound.arguments[arg])
                    self.seeded_calls[ratio] += 1
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else None
            self._stack.append(span_id)
            start = self.clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = self.clock()
                self._stack.pop()
                self.spans.append(Span(span_id, name, start, end, parent, self.run))

        return traced

    def install(self, package: str = "rwrs") -> None:
        """Wrap every function in ``TRACED`` and rebind it package-wide."""
        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == package or key.startswith(package + "."))]
        for module, functions in TRACED.items():
            home = sys.modules.get(f"{package}.{module}")
            for fn_name in functions:
                original = getattr(home, fn_name, None)
                if original is None:
                    continue
                params = inspect.signature(original).parameters
                counted = _COUNTED_ARGS.get((module, fn_name))
                seeded = _SEEDED.get((module, fn_name))
                wrapper = self.wrap(
                    f"{module}.{fn_name}", original,
                    counted=counted if counted and counted[0] in params else None,
                    seeded=seeded if seeded and seeded[0] in params else None)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patched.append((mod, attr, original))
                            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span)) + "\n")

    def layer_metrics(self) -> dict[str, float]:
        """Calls, self seconds, module self seconds, counts and waste ratios."""
        own = self_times(self.spans)
        calls: Counter = Counter()
        self_ns: Counter = Counter()
        for span in self.spans:
            calls[span.name] += 1
            self_ns[span.name] += own[span.id]
        out: dict[str, float] = {}
        for module, functions in TRACED.items():
            for fn in functions:
                name = f"{module}.{fn}"
                out[name + ".calls"] = calls[name]
                out[name + ".self_s"] = self_ns[name] / 1e9
        for module, functions in TRACED.items():
            out[module + ".self_s"] = sum(self_ns[f"{module}.{fn}"]
                                          for fn in functions) / 1e9
        for name in COUNT_METRICS:
            out[name] = self.counts[name]
        for name in RATIO_METRICS:
            n_calls = self.seeded_calls[name]
            # no calls means nothing to waste; reported as 0 so every name is present
            out[name] = len(self.seeds[name]) / n_calls if n_calls else 0.0
        return out

    def check_closure(self, root_name: str = "runner.run_experiment") -> tuple[int, int]:
        """(sum of self times under each root span, total of those roots) in ns.

        The two are equal by construction; a mismatch means spans were lost
        or mis-parented.
        """
        own = self_times(self.spans)
        roots = [s for s in self.spans if s.name == root_name]
        covered = sum(own[i] for r in roots for i in subtree_ids(self.spans, r.id))
        return covered, sum(r.end - r.start for r in roots)
