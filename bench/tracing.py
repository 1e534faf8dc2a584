"""Spans and counters around calls into gamow's modules, for the traced run.

The tracer replaces module attributes (``gamow.scattering.find_poles``,
``gamow.spectral.find_poles``, ...) with wrappers, so calls the library makes
through its own module globals are seen as well.  Spans record name, start,
end, parent span and op id; they stay in memory and are written out once,
when the process ends.  Hot helpers (``denominator``, ``s_matrix``) only
count, so tracing them costs a counter update per call.  Spans are recorded
by the benchmark around the library's public functions; the library itself
is unchanged.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import statistics
import time
from collections import Counter

_FIND_POLES_COUNTS = {
    "scattering.find_poles.calls": lambda args, result: 1,
    "scattering.find_poles.seeds": lambda args, result: args[1].n_re * args[1].n_im,
    "scattering.find_poles.poles": lambda args, result: len(result),
}

# (module, attribute, span name or None, {counter: f(args, result)}).  One
# span name may cover a function reached through several modules; hot
# helpers get counters only.
WRAPPED = (
    ("cli", "parse_args", "cli.parse_args", {}),
    ("cli", "run", "cli.run", {}),
    ("reps", "verify_group_relations", "reps.verify_group_relations", {}),
    ("scattering", "find_poles", "scattering.find_poles", _FIND_POLES_COUNTS),
    ("spectral", "find_poles", "scattering.find_poles", _FIND_POLES_COUNTS),
    ("scattering", "denominator", None,
     {"scattering.denominator.points": lambda args, result: result.size}),
    ("scattering", "pole_count", "scattering.pole_count", {}),
    ("scattering", "phase_shift_curve", "scattering.phase_shift_curve", {}),
    ("scattering", "s_matrix", None, {"scattering.s_matrix.calls": lambda args, result: 1}),
    ("scattering", "bound_states", "scattering.bound_states", {}),
    ("spectral", "bound_states", "scattering.bound_states", {}),
    ("dynamics", "evolution_series", "dynamics.evolution_series",
     {"dynamics.evolution_series.samples": lambda args, result: len(result)}),
    # continuum matrix bytes, computed from the grid sizes: n_k * n_r * 8
    ("spectral", "build_decomposition", "spectral.build_decomposition",
     {"spectral.continuum.bytes": lambda args, result: result.k.size * result.r.size * 8}),
    ("spectral", "reconstruct_error", "spectral.reconstruct_error", {}),
    ("spectral", "hardy_check", "spectral.hardy_check", {}),
)


class Tracer:
    """Wraps gamow's module attributes while recording; collects spans and counts."""

    def __init__(self, gm):
        self.gm = gm
        self.op = None
        self.spans: list[tuple] = []      # (name, start, end, parent index, op)
        self.counts: Counter = Counter()  # (op, counter) -> total
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    @contextlib.contextmanager
    def recording(self, op):
        """Wrap gamow's functions while the block runs, filing spans under ``op``."""
        self.op = op
        self._install()
        try:
            yield
        finally:
            self._restore()

    def _install(self):
        for module, attr, name, counters in WRAPPED:
            mod = importlib.import_module(f"{self.gm.__name__}.{module}")
            original = getattr(mod, attr)
            self._saved.append((mod, attr, original))
            setattr(mod, attr, self._wrapper(original, name, counters))

    def _restore(self):
        for mod, attr, original in reversed(self._saved):
            setattr(mod, attr, original)
        self._saved.clear()

    def _wrapper(self, fn, name, counters):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if name is None:
                result = fn(*args, **kwargs)
            else:
                index = len(self.spans)
                parent = self._stack[-1] if self._stack else None
                self.spans.append(None)
                self._stack.append(index)
                start = time.perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = time.perf_counter()
                    self._stack.pop()
                    self.spans[index] = (name, start, end, parent, self.op)
            for counter, measure in counters.items():
                self.counts[(self.op, counter)] += measure(args, result)
            return result
        return wrapper

    def dump(self) -> dict:
        return {
            "spans": self.spans,
            "counts": [[op, name, n] for (op, name), n in sorted(self.counts.items(), key=str)],
        }


def merge(dumps) -> dict:
    """Concatenate dumps from several processes, re-basing parent indices."""
    spans, counts = [], []
    for d in dumps:
        base = len(spans)
        spans += [(n, s, e, None if p is None else p + base, op) for n, s, e, p, op in d["spans"]]
        counts += d["counts"]
    return {"spans": spans, "counts": counts}


# metric -> (unit, source).  A metric in ms is the median per call of the
# spans named by (span, parent span or None, self time?); self time excludes
# the child spans.  A count names its counter; a ratio names two counters.
LAYER_METRICS = {
    "cli.parse_args.ms": ("ms", ("cli.parse_args", None, False)),
    "cli.run.self_ms": ("ms", ("cli.run", None, True)),
    "reps.verify_group_relations.ms": ("ms", ("reps.verify_group_relations", None, False)),
    "scattering.find_poles.ms": ("ms", ("scattering.find_poles", None, False)),
    "scattering.find_poles.calls": ("count", "scattering.find_poles.calls"),
    "scattering.find_poles.poles_per_seed": (
        "ratio", ("scattering.find_poles.poles", "scattering.find_poles.seeds")),
    "scattering.denominator.points": ("count", "scattering.denominator.points"),
    "scattering.pole_count.ms": ("ms", ("scattering.pole_count", None, False)),
    "scattering.phase_shift_curve.ms": ("ms", ("scattering.phase_shift_curve", None, False)),
    "scattering.s_matrix.calls": ("count", "scattering.s_matrix.calls"),
    "scattering.bound_states.ms": ("ms", ("scattering.bound_states", None, False)),
    "dynamics.evolution_series.ms": ("ms", ("dynamics.evolution_series", None, False)),
    "dynamics.evolution_series.samples": ("count", "dynamics.evolution_series.samples"),
    "spectral.build_decomposition.ms": ("ms", ("spectral.build_decomposition", None, False)),
    "spectral.build_decomposition.self_ms": (
        "ms", ("spectral.build_decomposition", None, True)),
    "spectral.kgrid_find_poles.ms": (
        "ms", ("scattering.find_poles", "spectral.build_decomposition", False)),
    "spectral.continuum.bytes": ("B", "spectral.continuum.bytes"),
    "spectral.reconstruct_error.ms": ("ms", ("spectral.reconstruct_error", None, False)),
    "spectral.hardy_check.ms": ("ms", ("spectral.hardy_check", None, False)),
}

PROBE = "probe"


def summarise(dump: dict, count_op: int) -> tuple[dict, list[str]]:
    """Layer metrics from merged spans and counts.

    Times are medians per call over the workload's ops.  Counts are those of
    op ``count_op``, a fixed op of the seeded sequence, so they repeat exactly
    for a given seed.  A layer the ops never reach is taken from the probe op
    instead; the names of those metrics are returned too.
    """
    spans = [tuple(s) for s in dump["spans"]]
    child_time = Counter()
    for _, start, end, parent, _ in spans:
        if parent is not None:
            child_time[parent] += end - start
    op_counts, probe_counts = Counter(), Counter()
    for op, name, n in dump["counts"]:
        if op == count_op:
            op_counts[name] += n
        elif op == PROBE:
            probe_counts[name] += n

    metrics, from_probe = {}, []
    for metric, (unit, source) in LAYER_METRICS.items():
        if unit == "ms":
            name, parent, self_time = source
            picked = [i for i, s in enumerate(spans) if s[0] == name and (
                parent is None or (s[3] is not None and spans[s[3]][0] == parent))]
            from_ops = [i for i in picked if spans[i][4] != PROBE]
            probe_only = bool(picked) and not from_ops
            values = [1e3 * (spans[i][2] - spans[i][1] - (child_time[i] if self_time else 0.0))
                      for i in from_ops or picked]
            value = statistics.median(values) if values else 0.0
        else:
            key = source[1] if unit == "ratio" else source
            probe_only = not op_counts[key] and bool(probe_counts[key])
            counts = probe_counts if probe_only else op_counts
            if unit == "ratio":
                value = counts[source[0]] / counts[source[1]] if counts[source[1]] else 0.0
            else:
                value = counts[source]
        metrics[metric] = {"value": value, "unit": unit}
        if probe_only:
            from_probe.append(metric)
    return metrics, from_probe


def write(path, dump: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(dump, fh)
