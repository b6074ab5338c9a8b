"""Tests of the benchmark's own code.

Run from the repository root with ``python -m pytest bench``.  They are not
part of the library's suite (``testpaths`` names ``tests`` only).
"""

from __future__ import annotations

import json
import subprocess
import sys

import numpy as np
import pytest

from common import ROOT, SRC

sys.path.insert(0, str(SRC))

import reference  # noqa: E402
from inputs import (SPACES, algebra_inputs, cli_concepts,  # noqa: E402
                    height_cases, rng_for)
from tracing import PER_LAYER, Span, Tracer, layer_self, self_times  # noqa: E402

from conceptspaces import (Concept, Core, Cuboid, Space, Weights,  # noqa: E402
                           concept_to_dict, grid_oracle_max_min, oracle_bounds)

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _box(space, domains, lo, hi):
    return Cuboid.from_bounds(space, domains, lo, hi)


def _grid_tolerance(c1: Concept, c2: Concept, step: float) -> float:
    """How far the lattice maximum may sit below the true height.

    The optimum is within ``step / 2`` of a lattice point on every axis,
    which moves the combined distance by at most ``step / 2`` per covered
    domain (dimension weights sum to 1), and a membership by at most
    ``decay`` times that.
    """
    domains = len(c1.core.domain_set | c2.core.domain_set)
    return max(c1.decay, c2.decay) * domains * step / 2


def _fixtures():
    line = SPACES[0]
    plane = Space((("x", ("x1",)), ("y", ("y1",))))
    flat = SPACES[1]
    w_line = Weights.uniform(line)
    w_plane = Weights({"x": 0.6, "y": 1.4}, {"x": {"x1": 1.0}, "y": {"y1": 1.0}})
    w_flat = Weights({"a": 1.0}, {"a": {"a1": 0.3, "a2": 0.7}})
    yield (Concept(Core((_box(line, ["a"], {"a1": 0}, {"a1": 1}),)), 1.0, 1.0, w_line),
           Concept(Core((_box(line, ["a"], {"a1": 3}, {"a1": 4}),)), 0.8, 2.0, w_line))
    yield (Concept(Core((_box(plane, ["x", "y"], {"x1": 0, "y1": 0}, {"x1": 1, "y1": 1}),
                         _box(plane, ["x", "y"], {"x1": 0.5, "y1": -1}, {"x1": 1.5, "y1": 0.5}))),
                   0.9, 1.2, w_plane),
           Concept(Core((_box(plane, ["x", "y"], {"x1": 2.5, "y1": 2}, {"x1": 3, "y1": 3}),)),
                   0.7, 0.6, w_plane))
    yield (Concept(Core((_box(flat, ["a"], {"a1": 0, "a2": 0}, {"a1": 1, "a2": 1}),)),
                   1.0, 0.8, w_flat),
           Concept(Core((_box(flat, ["a"], {"a1": 2, "a2": 2.5}, {"a1": 2.5, "a2": 3}),)),
                   0.6, 1.5, w_flat))
    # A property on one domain against a concept on both.
    yield (Concept(Core((_box(plane, ["x"], {"x1": -2}, {"x1": -1}),)), 0.9, 1.0,
                   Weights({"x": 1.0}, {"x": {"x1": 1.0}})),
           Concept(Core((_box(plane, ["x", "y"], {"x1": 1, "y1": 0}, {"x1": 2, "y1": 1}),)),
                   0.8, 2.0, w_plane))


@pytest.mark.parametrize("pair", list(_fixtures()))
def test_closed_form_height_matches_grid_oracle(pair):
    c1, c2 = pair
    step = 0.01
    exact = reference.closed_form_height(c1, c2)
    grid = grid_oracle_max_min(c1, c2, oracle_bounds(c1, c2), step)
    assert grid - 1e-12 <= exact <= grid + _grid_tolerance(c1, c2, step)


def test_closed_form_height_matches_grid_oracle_on_workload_pairs():
    checked = 0
    for case in height_cases(0):
        if case.first.space.n > 2:
            continue
        exact = reference.closed_form_height(case.first, case.second)
        if exact is None:
            continue
        step = 0.02
        grid = grid_oracle_max_min(case.first, case.second,
                                   oracle_bounds(case.first, case.second), step)
        assert grid - 1e-12 <= exact
        assert exact <= grid + _grid_tolerance(case.first, case.second, step)
        checked += 1
        if checked == 12:
            break
    assert checked == 12


def test_closed_form_height_declines_mixed_dimension_weights():
    flat = SPACES[1]
    core = Core((_box(flat, ["a"], {"a1": 0, "a2": 0}, {"a1": 1, "a2": 1}),))
    far = Core((_box(flat, ["a"], {"a1": 3, "a2": 3}, {"a1": 4, "a2": 4}),))
    c1 = Concept(core, 1.0, 1.0, Weights({"a": 1.0}, {"a": {"a1": 0.3, "a2": 0.7}}))
    c2 = Concept(far, 1.0, 1.0, Weights({"a": 1.0}, {"a": {"a1": 0.6, "a2": 0.4}}))
    assert reference.closed_form_height(c1, c2) is None


def test_reference_membership_matches_definition():
    c1, _ = next(_fixtures())
    points = np.array([[0.5], [3.0], [-2.0]])
    expected = [1.0, np.exp(-2.0), np.exp(-2.0)]
    assert np.allclose(reference.membership(c1, points), expected, rtol=1e-15)


def _span(name, start, end, parent, op=0):
    return Span(name, start, end, parent, op)


def test_self_time_of_a_hand_built_span_tree():
    spans = [
        _span("bench.op", 0.0, 10.0, -1),
        _span("concept.Concept.intersect", 1.0, 4.0, 0),
        _span("optimize.height_of_intersection", 2.0, 3.0, 1),
        _span("geometry.Core.intersect", 3.5, 6.0, 0),   # overlaps its sibling
        _span("geometry.repair", 8.0, 9.0, 0),
    ]
    assert self_times(spans) == pytest.approx([4.0, 2.0, 1.0, 2.5, 1.0])
    own, total = layer_self(spans)
    assert total == 10.0
    assert own == pytest.approx({"space": 0.0, "optimize": 1.0,
                                 "geometry": 3.5, "concept": 2.0,
                                 "kb": 0.0, "cli": 0.0})


def _fingerprint(seed: int) -> str:
    cases = [(c.kind, concept_to_dict(c.first), concept_to_dict(c.second))
             for c in height_cases(seed)]
    algebra = algebra_inputs(seed)
    concepts, _ = cli_concepts(rng_for("cli", seed), 3)
    return json.dumps({
        "height": cases,
        "bases": [concept_to_dict(b) for b in algebra.bases],
        "chains": [algebra.starts.tolist(), algebra.partners.tolist(),
                   algebra.keep.tolist(), algebra.points.tolist()],
        "cli": {k: concept_to_dict(v) for k, v in concepts.items()},
    }, sort_keys=True)


def test_inputs_depend_only_on_the_seed():
    assert _fingerprint(5) == _fingerprint(5)
    assert _fingerprint(5) != _fingerprint(6)


def test_tracer_wraps_every_binding_and_restores_it():
    from conceptspaces import cli, concept, geometry, optimize

    originals = (optimize.height_of_intersection, cli.height_of_intersection,
                 concept.cores_intersect, geometry.Core.__dict__["intersect"])
    case = height_cases(0)[1]   # an intersect case
    tracer = Tracer()
    tracer.install()
    try:
        assert cli.height_of_intersection is optimize.height_of_intersection
        assert optimize.height_of_intersection is not originals[0]
        assert concept.cores_intersect is not originals[2]
        tracer.run_op(7, lambda: case.first.intersect(case.second))
    finally:
        tracer.uninstall()
    assert (optimize.height_of_intersection, cli.height_of_intersection,
            concept.cores_intersect, geometry.Core.__dict__["intersect"]) == originals
    names = {s.name for s in tracer.spans}
    assert {"bench.op", "concept.Concept.intersect",
            "optimize.height_of_intersection"} <= names
    assert all(s.op == 7 for s in tracer.spans)


def _run(workload: str, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload,
         "--seconds", "0.01", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_run_prints_the_declared_metrics(trace, section):
    result = _run("algebra", trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 100 or trace
    declared = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    if trace:
        assert {m["name"]: (m["unit"], m["better"]) for m in BENCHMARK[section]} \
            == PER_LAYER
