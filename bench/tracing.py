"""Spans recorded from outside the library, and the per-layer metrics.

The traced run wraps public functions and methods of the six layers.  Each
wrapper replaces the name where callers look it up: every attribute of the
package's modules bound to the original function (``cores_intersect`` is
bound in ``geometry``, ``concept`` and ``optimize``; ``height_of_intersection``
in ``optimize`` and ``cli``), or the attribute on the class for methods.
Spans stay in memory; the caller writes them out when the run ends.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable

from conceptspaces import cli, concept, geometry, kb, optimize, space

LAYERS = ("space", "optimize", "geometry", "concept", "kb", "cli")
OP_SPAN = "bench.op"


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int        # index of the enclosing span, -1 for a root
    op: int            # operation id
    meta: Any = None   # counts taken from arguments and result

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


def _height_meta(args, result):
    return (len(args[0].core.cuboids) * len(args[1].core.cuboids),
            result.iterations, result.converged)


def _core_meta(args, result):
    return (len(args[0].cuboids) + len(args[1].cuboids), len(result.cuboids))


def _project_meta(args, result):
    return (len(args[0].cuboids), len(result.cuboids))


def _command(argv: list[str]) -> str:
    return "-".join(argv[:2]) if argv[0] == "concept" else argv[0]


# (span name, owner, attribute, annotate(args, result))
FUNCTIONS = (
    ("space.combined_distance", space, "combined_distance", None),
    ("space.between", space, "between", None),
    ("optimize.height_of_intersection", optimize, "height_of_intersection",
     _height_meta),
    ("optimize.alpha_cut_bbox", optimize, "alpha_cut_bbox", None),
    ("optimize.distance_to_cuboid", optimize, "distance_to_cuboid", None),
    ("optimize.core_distance_batch", optimize, "core_distance_batch",
     lambda a, r: len(a[0]) * len(a[1].cuboids)),
    ("geometry.repair", geometry, "repair", None),
    ("geometry.cores_intersect", geometry, "cores_intersect", None),
    ("concept.combine_adjective_noun", concept, "combine_adjective_noun", None),
    ("cli.main", cli, "main", lambda a, r: _command(a[0])),
)
METHODS = (
    ("geometry.Core.init", geometry.Core, "__init__", None),
    ("geometry.Core.intersect", geometry.Core, "intersect", _core_meta),
    ("geometry.Core.union", geometry.Core, "union", _core_meta),
    ("geometry.Core.project", geometry.Core, "project", _project_meta),
    ("concept.Concept.intersect", concept.Concept, "intersect", None),
    ("concept.Concept.union", concept.Concept, "union", None),
    ("concept.Concept.project", concept.Concept, "project", None),
    ("concept.Concept.membership", concept.Concept, "membership", None),
    ("concept.Concept.membership_batch", concept.Concept, "membership_batch",
     lambda a, r: len(a[1])),
    ("kb.KnowledgeBase.load", kb.KnowledgeBase, "load", None),
    ("kb.KnowledgeBase.save", kb.KnowledgeBase, "save", None),
    ("cli.GridExport.write_csv", cli.GridExport, "write_csv",
     lambda a, r: a[0].values.size),
)


class Tracer:
    """Records one span per wrapped call while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op = -1
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn: Callable,
              annotate: Callable | None) -> Callable:
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            span = Span(name, 0.0, 0.0, stack[-1] if stack else -1, self.op)
            stack.append(len(spans))
            spans.append(span)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
            if annotate is not None:
                span.meta = annotate(args, result)
            return result

        return wrapper

    def run_op(self, op_id: int, fn: Callable[[], Any]) -> Any:
        """Run one benchmark operation as a root span."""
        self.op = op_id
        return self._wrap(OP_SPAN, fn, None)()

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items()
                   if n == "conceptspaces" or n.startswith("conceptspaces.")]
        for name, owner, attr, annotate in FUNCTIONS:
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original, annotate)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._undo.append((module, key, value))
                        setattr(module, key, wrapper)
        for name, cls, attr, annotate in METHODS:
            original = cls.__dict__[attr]
            if isinstance(original, classmethod):
                wrapper = classmethod(self._wrap(name, original.__func__, annotate))
            else:
                wrapper = self._wrap(name, original, annotate)
            self._undo.append((cls, attr, original))
            setattr(cls, attr, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def take(self) -> list[Span]:
        """Hand over the recorded spans and start a new list."""
        spans = self.spans[:]
        self.spans.clear()
        return spans


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: list[list[int]] = [[] for _ in spans]
    for i, span in enumerate(spans):
        if span.parent >= 0:
            children[span.parent].append(i)
    out = []
    for span, kids in zip(spans, children):
        covered = 0.0
        reach = span.start
        for start, end in sorted((spans[k].start, spans[k].end) for k in kids):
            start, end = max(start, reach), min(end, span.end)
            if end > start:
                covered += end - start
                reach = end
        out.append(span.end - span.start - covered)
    return out


def layer_self(spans: list[Span]) -> tuple[dict[str, float], float]:
    """Self time per layer, and the total time of the operation spans."""
    sums = dict.fromkeys(LAYERS, 0.0)
    for span, t in zip(spans, self_times(spans)):
        if span.layer in sums:
            sums[span.layer] += t
    return sums, sum(s.end - s.start for s in spans if s.name == OP_SPAN)


class Calls:
    """Call count and total inclusive time per span name, accumulated over
    passes.  A numeric ``meta`` is summed as the span's unit count; a string
    ``meta`` (the command of ``cli.main``) keys its own count and time."""

    def __init__(self):
        self.count: dict = {}
        self.time: dict = {}
        self.units: dict = {}
        self.metas: dict[str, list] = {}

    def add(self, spans: list[Span], keep_meta: bool = False) -> "Calls":
        for s in spans:
            keys = [s.name]
            if isinstance(s.meta, str):
                keys.append((s.name, s.meta))
            elif isinstance(s.meta, int):
                self.units[s.name] = self.units.get(s.name, 0) + s.meta
            for key in keys:
                self.count[key] = self.count.get(key, 0) + 1
                self.time[key] = self.time.get(key, 0.0) + (s.end - s.start)
            if keep_meta:
                self.metas.setdefault(s.name, []).append(s.meta)
        return self

    def mean(self, key) -> float:
        n = self.count.get(key, 0)
        return self.time[key] / n if n else 0.0

    def per_unit(self, name: str) -> float:
        units = self.units.get(name, 0)
        return self.time[name] / units if units else 0.0


# Mean inclusive time per call: (metric, span name, seconds -> unit scale).
PER_CALL = (
    ("space.combined_distance.us", "space.combined_distance", 1e6),
    ("optimize.height_of_intersection.ms", "optimize.height_of_intersection", 1e3),
    ("optimize.alpha_cut_bbox.us", "optimize.alpha_cut_bbox", 1e6),
    ("optimize.distance_to_cuboid.us", "optimize.distance_to_cuboid", 1e6),
    ("geometry.Core.intersect.us", "geometry.Core.intersect", 1e6),
    ("geometry.Core.union.us", "geometry.Core.union", 1e6),
    ("geometry.Core.project.us", "geometry.Core.project", 1e6),
    ("geometry.Core.init.us", "geometry.Core.init", 1e6),
    ("geometry.repair.us", "geometry.repair", 1e6),
    ("geometry.cores_intersect.us", "geometry.cores_intersect", 1e6),
    ("concept.Concept.intersect.ms", "concept.Concept.intersect", 1e3),
    ("concept.Concept.union.us", "concept.Concept.union", 1e6),
    ("concept.Concept.project.us", "concept.Concept.project", 1e6),
    ("concept.combine_adjective_noun.ms", "concept.combine_adjective_noun", 1e3),
    ("concept.Concept.membership.us", "concept.Concept.membership", 1e6),
    ("kb.KnowledgeBase.load.ms", "kb.KnowledgeBase.load", 1e3),
    ("kb.KnowledgeBase.save.ms", "kb.KnowledgeBase.save", 1e3),
)
# Time per counted unit: (metric, span name, seconds -> unit scale).
PER_UNIT = (
    ("optimize.core_distance_batch.ns_per_point_cuboid",
     "optimize.core_distance_batch", 1e9),
    ("concept.Concept.membership_batch.ns_per_point",
     "concept.Concept.membership_batch", 1e9),
    ("cli.write_csv.us_per_row", "cli.GridExport.write_csv", 1e6),
)
CLI_COMMANDS = ("membership", "alpha-height", "export-grid", "validate",
                "concept-show", "intersect", "union", "project", "combine",
                "concept-add", "concept-rm")
CALL_COUNTS = ("space.combined_distance", "optimize.height_of_intersection",
               "optimize.distance_to_cuboid", "geometry.Core.intersect")


def _counts(first: Calls) -> dict[str, float]:
    """Counts of one pass; they repeat exactly for a given seed."""
    out = {f"{name}.calls": float(first.count.get(name, 0))
           for name in CALL_COUNTS}
    height = first.metas.get("optimize.height_of_intersection", [])
    n = len(height)
    out["optimize.height.pairs_per_call"] = (
        sum(m[0] for m in height) / n if n else 0.0)
    out["optimize.height.line_searches"] = float(sum(m[1] for m in height))
    out["optimize.height.solver_frac"] = (
        sum(m[1] > 0 for m in height) / n if n else 0.0)
    out["optimize.height.converged_frac"] = (
        sum(bool(m[2]) for m in height) / n if n else 0.0)
    out["optimize.core_distance_batch.point_cuboids"] = float(
        first.units.get("optimize.core_distance_batch", 0))
    algebra = sum(first.count.get(f"geometry.Core.{op}", 0)
                  for op in ("intersect", "union"))
    out["geometry.repair_frac"] = (
        first.count.get("geometry.repair", 0) / algebra if algebra else 0.0)
    moved = [m for op in ("intersect", "union", "project")
             for m in first.metas.get(f"geometry.Core.{op}", ())]
    out["geometry.cuboids_in"] = float(sum(m[0] for m in moved))
    out["geometry.cuboids_out"] = float(sum(m[1] for m in moved))
    return out


def layer_metrics(first: Calls, work: Calls, probe: Calls,
                  self_time: dict[str, float],
                  op_time: float) -> tuple[dict[str, float], list[str]]:
    """Per-layer metrics of a workload's traced passes.

    ``first`` holds the first traced pass (with metadata), ``work`` all
    traced passes, ``probe`` the layer probe.  Counts come from ``first``;
    times from ``work``, except that a function the workload never calls is
    timed on the probe, and its key is returned in the second value.
    """
    out = _counts(first)
    from_probe: list[str] = []

    def pick(key) -> Calls:
        if work.count.get(key):
            return work
        from_probe.append(key if isinstance(key, str) else "[".join(key) + "]")
        return probe

    for metric, name, scale in PER_CALL:
        out[metric] = pick(name).mean(name) * scale
    for metric, name, scale in PER_UNIT:
        out[metric] = pick(name).per_unit(name) * scale
    for command in CLI_COMMANDS:
        key = ("cli.main", command)
        out[f"cli.cmd_ms.{command}"] = pick(key).mean(key) * 1e3
    for layer in LAYERS:
        out[f"{layer}.self_frac"] = self_time[layer] / op_time if op_time else 0.0
    return out, from_probe


def _catalogue() -> dict[str, tuple[str, str]]:
    """Every per-layer metric of a traced run: name -> (unit, better)."""
    out = {}
    for metric, _, scale in PER_CALL + PER_UNIT:
        out[metric] = ({1e3: "ms", 1e6: "us", 1e9: "ns"}[scale], "lower")
    for name in CALL_COUNTS:
        out[f"{name}.calls"] = ("count", "lower")
    out.update({
        "optimize.height.pairs_per_call": ("count", "lower"),
        "optimize.height.line_searches": ("count", "lower"),
        "optimize.height.solver_frac": ("ratio", "lower"),
        "optimize.height.converged_frac": ("ratio", "higher"),
        "optimize.core_distance_batch.point_cuboids": ("count", "lower"),
        "geometry.repair_frac": ("ratio", "lower"),
        "geometry.cuboids_in": ("count", "lower"),
        "geometry.cuboids_out": ("count", "lower"),
    })
    for command in CLI_COMMANDS:
        out[f"cli.cmd_ms.{command}"] = ("ms", "lower")
    for layer in LAYERS:
        out[f"{layer}.self_frac"] = ("ratio", "lower")
    for size in (10, 100, 1000):
        out[f"kb.load_ms.n{size}"] = ("ms", "lower")
        out[f"kb.save_ms.n{size}"] = ("ms", "lower")
    out["kb.bytes.n1000"] = ("bytes", "lower")
    for name in ("cli.interpreter_ms", "cli.import_ms.numpy",
                 "cli.import_ms.conceptspaces"):
        out[name] = ("ms", "lower")
    out["trace.overhead_frac"] = ("ratio", "lower")
    return out


PER_LAYER = _catalogue()


def command_split(spans: list[Span]) -> dict[str, tuple[float, float, float]]:
    """Mean (total, KB load, KB save) seconds per cli command in one pass."""
    sums: dict[str, list[float]] = {}
    for i, s in enumerate(spans):
        if s.name != "cli.main":
            continue
        row = sums.setdefault(s.meta, [0.0, 0.0, 0.0, 0])
        row[0] += s.end - s.start
        row[3] += 1
        for child in spans[i + 1:]:
            if child.start >= s.end:
                break
            if child.parent == i and child.name == "kb.KnowledgeBase.load":
                row[1] += child.end - child.start
            elif child.parent == i and child.name == "kb.KnowledgeBase.save":
                row[2] += child.end - child.start
    return {cmd: (t / n, load / n, save / n) for cmd, (t, load, save, n) in sums.items()}
