"""Acceptance suite.

One test per acceptance criterion, each printing a pass line with its
measured runtime (visible with ``pytest -s``).  Tolerances and sample sizes
are fixed here; the random streams are seeded, so the suite is
deterministic.
"""

import math
import time

import numpy as np
import pytest

from conceptspaces import (CombinationParams, Concept, Core, Cuboid,
                           KnowledgeBase, Point, Space, Weights,
                           combined_distance, distance_to_cuboid,
                           height_of_intersection)
from conceptspaces.cli import export_grid

import paper_oracle
from conftest import (LINE, PLANE, between_points, box_core, central_bounds,
                      line_concept, random_concept, random_weights,
                      sample_window, translated, uniform_points)


class Timer:
    def __init__(self, budget: float):
        self.budget = budget

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.start
        return False

    def check(self):
        assert self.elapsed < self.budget, (
            f"runtime {self.elapsed:.1f}s exceeded the {self.budget:.0f}s "
            f"budget")


def report(criterion: str, timer: Timer):
    timer.check()
    print(f"[PASS] {criterion} ({timer.elapsed:.2f}s)")


# ---------------------------------------------------------------------------
# 1. metric axioms

def test_metric_axioms_on_random_triples():
    space = Space((("shade", ("hue", "sat", "lum")),
                   ("shape", ("round", "tall")),
                   ("mass", ("weight",))))
    rng = np.random.default_rng(101)
    weights = random_weights(rng, space)
    with Timer(5.0) as timer:
        triples = rng.uniform(-10.0, 10.0, size=(10_000, 3, space.n))
        for a, b, c in triples:
            x = Point(space, tuple(a))
            y = Point(space, tuple(b))
            z = Point(space, tuple(c))
            d_xy = combined_distance(x, y, weights)
            assert d_xy >= 0.0
            assert combined_distance(x, x, weights) == 0.0
            assert combined_distance(y, x, weights) == d_xy
            assert (combined_distance(x, z, weights)
                    <= d_xy + combined_distance(y, z, weights) + 1e-9)
    report("metric axioms: identity/symmetry exact, triangle within 1e-9",
           timer)


# ---------------------------------------------------------------------------
# 2. fuzzy star-shapedness

def test_fuzzy_star_shapedness_of_random_concepts():
    rng = np.random.default_rng(102)
    with Timer(60.0) as timer:
        for _ in range(50):
            concept = random_concept(rng)
            space = concept.space
            lo, hi = sample_window(concept)
            core_lo, core_hi = concept.core.bounding_box()
            near = math.log(4.0) / concept.decay
            pool = np.vstack([
                uniform_points(rng, lo, hi, 1500),
                uniform_points(rng, core_lo - near, core_hi + near, 1500),
            ] + [uniform_points(rng, np.asarray(c.p_min), np.asarray(c.p_max),
                                400)
                 for c in concept.core.cuboids])
            values = concept.membership_batch(pool)
            reg_lo, reg_hi = central_bounds(concept.core)
            for alpha in (concept.peak, concept.peak / 2, concept.peak / 4):
                members = pool[values >= alpha]
                assert len(members) > 0
                picks = rng.integers(len(members), size=10_000)
                ends = members[picks]
                anchors = rng.uniform(reg_lo, reg_hi, size=(10_000, space.n))
                mids = between_points(rng, space, anchors, ends)
                got = concept.membership_batch(mids)
                assert float(got.min()) >= alpha - 1e-9
    report("fuzzy star-shapedness: no drop below each level between the "
           "central region and its members", timer)


# ---------------------------------------------------------------------------
# 3. union dominates the fuzzy max-union

def _union_excess(rng, first, second, params=None):
    union = first.union(second, params)
    lo1, hi1 = sample_window(first)
    lo2, hi2 = sample_window(second)
    pool = uniform_points(rng, np.minimum(lo1, lo2), np.maximum(hi1, hi2),
                          10_000)
    # points along single axes from the cores, where the weights differ most
    axis = rng.integers(len(lo1), size=2000)
    step = np.zeros((2000, len(lo1)))
    step[np.arange(2000), axis] = rng.uniform(-4.0, 4.0, size=2000)
    centre = np.where(rng.random((2000, 1)) < 0.5,
                      first.core.central_point.array,
                      second.core.central_point.array)
    pool = np.vstack([pool, centre + step])
    fuzzy_max = np.maximum(first.membership_batch(pool),
                           second.membership_batch(pool))
    return float((fuzzy_max - union.membership_batch(pool)).max())


def test_union_contains_pointwise_max():
    rng = np.random.default_rng(103)
    with Timer(60.0) as timer:
        for _ in range(50):
            first = random_concept(rng)
            space = first.space
            weights = first.weights
            second_core = random_concept(rng, space).core
            second = Concept(second_core, float(rng.uniform(0.5, 1.0)),
                             float(rng.uniform(0.4, 2.5)), weights)
            assert _union_excess(rng, first, second) <= 1e-9
        # differing weights, 2-3 domains, operands over different domain sets
        for k in range(60):
            first = random_concept(rng, min_domains=2)
            second = random_concept(rng, first.space)
            names = sorted(first.space.domain_names)
            if k % 3 == 1:
                second = second.project(names[:int(rng.integers(1, len(names)))])
            elif k % 3 == 2:
                first = first.project(names[int(rng.integers(1, len(names))):])
            params = CombinationParams(float(rng.uniform()),
                                       float(rng.uniform()))
            assert _union_excess(rng, first, second, params) <= 1e-9
    report("union: pointwise max of memberships never exceeds the fuzzy "
           "union by more than 1e-9, with shared or differing weights", timer)


# ---------------------------------------------------------------------------
# 4. projection/reconstruction superset

def test_projection_reconstruction_is_superset():
    rng = np.random.default_rng(104)
    with Timer(60.0) as timer:
        for _ in range(50):
            concept = random_concept(rng, min_domains=2)
            space = concept.space
            names = list(concept.core.domain_set)
            cut = int(rng.integers(1, len(names)))
            part_one, part_two = names[:cut], names[cut:]
            # block-normalize the weights with respect to the partition
            dw = dict(concept.weights.domain_weights)
            for block in (part_one, part_two):
                scale = len(block) / math.fsum(dw[n] for n in block)
                for n in block:
                    dw[n] *= scale
            weights = Weights(dw, concept.weights.dimension_weights)
            concept = Concept(concept.core, concept.peak, concept.decay,
                              weights)
            rebuilt = concept.project(part_one).intersect(
                concept.project(part_two))
            pool = uniform_points(rng, *sample_window(concept), 10_000)
            excess = (concept.membership_batch(pool)
                      - rebuilt.membership_batch(pool))
            assert float(excess.max()) <= 1e-9
    report("projection: intersecting complementary projections yields a "
           "superset within 1e-9", timer)


# ---------------------------------------------------------------------------
# 5. height solver vs the reference's lattice

def _line(lo, hi, peak=1.0, decay=1.0):
    return line_concept(lo, hi, peak=peak, decay=decay)


def _plane_box(bounds, peak=1.0, decay=1.0, weights=None):
    return Concept(box_core(PLANE, bounds), peak, decay,
                   weights or Weights.uniform(PLANE))


def _height_fixtures():
    """20 solver-vs-oracle cases, 1 to 4 dimensions, 1 to 3 cuboids."""
    fixtures = []

    def add(c1, c2, step, expected=None):
        fixtures.append((c1, c2, step, expected))

    # 1D pairs
    add(_line(0, 1), _line(3, 4), 1e-4, math.exp(-1.0))
    add(_line(0, 0), _line(3, 3, decay=2.0), 1e-4, math.exp(-2.0))
    add(_line(0, 2), _line(1, 3), 1e-3, 1.0)
    add(_line(0, 1, peak=0.8), _line(3, 4), 1e-4,
        math.exp(-1.0) * math.sqrt(0.8))
    add(Concept(box_core(LINE, [({"x": 0.0}, {"x": 1.2}),
                                ({"x": 0.8}, {"x": 2.0})]),
                1.0, 1.0, Weights.uniform(LINE)),
        _line(4, 5), 1e-4, math.exp(-1.0))
    add(_line(0, 2, peak=0.6), _line(1, 3, peak=0.9), 1e-3, 0.6)
    add(_line(0, 1, peak=0.8), _line(3, 4, decay=2.0), 1e-4, None)

    # 2D pairs (two singleton domains unless stated otherwise)
    add(_plane_box([({"x": 0.0, "y": 0.0}, {"x": 1.0, "y": 1.0})]),
        _plane_box([({"x": 2.0, "y": 0.0}, {"x": 3.0, "y": 1.0})]),
        5e-3, math.exp(-0.5))
    euclid = Space((("pos", ("x", "y")),))
    w_e = Weights.uniform(euclid)
    add(Concept(box_core(euclid, [({"x": 0.0, "y": 0.0},
                                   {"x": 0.0, "y": 0.0})]), 1.0, 1.0, w_e),
        Concept(box_core(euclid, [({"x": 3.0, "y": 4.0},
                                   {"x": 3.0, "y": 4.0})]), 1.0, 1.0, w_e),
        5e-3, math.exp(-math.sqrt(12.5) / 2))
    w_uneven = Weights.normalized({"width": 1.2, "height": 0.8},
                                  {"width": {"x": 1.0}, "height": {"y": 1.0}})
    add(_plane_box([({"x": 0.0, "y": 0.0}, {"x": 1.0, "y": 1.0})], decay=0.5,
                   weights=w_uneven),
        _plane_box([({"x": 2.0, "y": 2.0}, {"x": 3.0, "y": 3.0})], decay=0.5,
                   weights=w_uneven),
        1e-2, math.exp(-0.5))
    add(_plane_box([({"x": 0.0, "y": 0.0}, {"x": 0.0, "y": 0.0})]),
        _plane_box([({"x": 2.0, "y": 0.0}, {"x": 2.0, "y": 0.0})], decay=3.0),
        5e-3, math.exp(-1.5))
    cross = box_core(PLANE, [
        ({"x": 0.0, "y": 1.5}, {"x": 4.0, "y": 2.5}),
        ({"x": 1.5, "y": 0.0}, {"x": 2.5, "y": 4.0}),
        ({"x": 1.0, "y": 1.0}, {"x": 3.0, "y": 3.0}),
    ])
    add(Concept(cross, 1.0, 0.5, Weights.uniform(PLANE)),
        _plane_box([({"x": 5.0, "y": 1.5}, {"x": 6.0, "y": 2.5})], decay=0.5),
        1e-2, math.exp(-0.25))
    lshape = Concept(box_core(PLANE, [({"x": 0.0, "y": 0.0},
                                       {"x": 1.0, "y": 3.0}),
                                      ({"x": 0.0, "y": 0.0},
                                       {"x": 3.0, "y": 1.0})]),
                     1.0, 1.0, Weights.uniform(PLANE))
    add(lshape, _plane_box([({"x": 4.0, "y": 0.0}, {"x": 5.0, "y": 1.0})]),
        5e-3, math.exp(-0.5))
    shifted_cross = box_core(PLANE, [
        ({"x": 7.0, "y": 1.5}, {"x": 11.0, "y": 2.5}),
        ({"x": 8.5, "y": 0.0}, {"x": 9.5, "y": 4.0}),
        ({"x": 8.0, "y": 1.0}, {"x": 10.0, "y": 3.0}),
    ])
    add(Concept(cross, 1.0, 0.5, Weights.uniform(PLANE)),
        Concept(shifted_cross, 1.0, 0.5, Weights.uniform(PLANE)),
        1e-2, math.exp(-0.75))

    # 3D pairs
    mixed = Space((("color", ("hue", "sat")), ("size", ("diam",))))
    add(Concept(Core((Cuboid.from_bounds(mixed, ["color"],
                                         {"hue": 0.0, "sat": 0.0},
                                         {"hue": 1.0, "sat": 1.0}),)),
                0.9, 1.0, Weights.uniform(mixed, ["color"])),
        Concept(Core((Cuboid.from_bounds(mixed, ["size"],
                                         {"diam": 5.0}, {"diam": 6.0}),)),
                0.7, 2.0, Weights.uniform(mixed, ["size"])),
        5e-2, 0.7)
    tri = Space((("blob", ("u", "v", "w")),))
    w_tri = Weights.uniform(tri)
    add(Concept(box_core(tri, [({"u": 0.0, "v": 0.0, "w": 0.0},
                                {"u": 0.6, "v": 0.6, "w": 0.6})]),
                1.0, 2.0, w_tri),
        Concept(box_core(tri, [({"u": 1.2, "v": 1.2, "w": 1.2},
                                {"u": 1.8, "v": 1.8, "w": 1.8})]),
                1.0, 2.0, w_tri),
        5e-2, math.exp(-0.6))
    duo = Space((("plane", ("x", "y")), ("line", ("z",))))
    w_duo = Weights.uniform(duo)
    add(Concept(box_core(duo, [({"x": 0.0, "y": 0.0, "z": 0.0},
                                {"x": 1.0, "y": 1.0, "z": 0.5})]),
                1.0, 1.0, w_duo),
        Concept(box_core(duo, [({"x": 2.0, "y": 0.0, "z": 0.0},
                                {"x": 3.0, "y": 1.0, "z": 0.5})]),
                1.0, 1.0, w_duo),
        5e-2, math.exp(-math.sqrt(0.5) / 2))
    trio = Space((("a", ("a1",)), ("b", ("b1",)), ("c", ("c1",))))
    w_trio = Weights({"a": 1.5, "b": 0.9, "c": 0.6},
                     {"a": {"a1": 1.0}, "b": {"b1": 1.0}, "c": {"c1": 1.0}})
    add(Concept(box_core(trio, [({"a1": 0.0, "b1": 0.0, "c1": 0.0},
                                 {"a1": 1.0, "b1": 1.0, "c1": 1.0})]),
                1.0, 2.0, w_trio),
        Concept(box_core(trio, [({"a1": 1.5, "b1": 0.5, "c1": 0.0},
                                 {"a1": 2.0, "b1": 1.5, "c1": 2.0})]),
                1.0, 2.0, w_trio),
        5e-2, math.exp(-0.75))

    # 4D pairs
    quad = Space((("q1", ("d1",)), ("q2", ("d2",)),
                  ("q3", ("d3",)), ("q4", ("d4",))))
    w_quad = Weights.uniform(quad)
    lo_a = {f"d{i}": 0.0 for i in range(1, 5)}
    hi_a = {f"d{i}": 0.5 for i in range(1, 5)}
    lo_b = {f"d{i}": 1.0 for i in range(1, 5)}
    hi_b = {f"d{i}": 1.5 for i in range(1, 5)}
    add(Concept(box_core(quad, [(lo_a, hi_a)]), 1.0, 1.0, w_quad),
        Concept(box_core(quad, [(lo_b, hi_b)]), 1.0, 1.0, w_quad),
        0.25, math.exp(-1.0))
    quad2 = Space((("left", ("d1", "d2")), ("right", ("d3", "d4"))))
    w_quad2 = Weights.uniform(quad2)
    add(Concept(box_core(quad2, [(lo_a, hi_a)]), 1.0, 1.0, w_quad2),
        Concept(box_core(quad2, [(lo_b, hi_b)]), 1.0, 1.0, w_quad2),
        0.25, math.exp(-0.5))

    assert len(fixtures) == 20
    return fixtures


def _joint_box(c1, c2):
    """The two cores' joint bounding box over their bounded dimensions, which
    are all the dimensions in these fixtures."""
    # Past the box every per-dimension gap only grows: the max-min is inside.
    lo = np.vstack([c1.core.lo, c2.core.lo])
    hi = np.vstack([c1.core.hi, c2.core.hi])
    return (np.where(np.isfinite(lo), lo, np.inf).min(axis=0),
            np.where(np.isfinite(hi), hi, -np.inf).max(axis=0))


def test_height_solver_matches_grid_oracle():
    with Timer(120.0) as timer:
        for index, (c1, c2, step, expected) in enumerate(_height_fixtures()):
            result = height_of_intersection(c1, c2)
            oracle = paper_oracle.lattice_max_min(c1, c2, *_joint_box(c1, c2),
                                                  step)
            assert abs(result.value - oracle) <= 1e-3, (
                f"fixture {index}: solver {result.value} vs oracle {oracle}")
            if expected is not None:
                assert result.value == pytest.approx(expected, abs=1e-3), (
                    f"fixture {index}")
            attained = min(c1.membership(result.witness),
                           c2.membership(result.witness))
            assert attained == pytest.approx(result.value, rel=1e-9)
    report("height of intersection: solver matches the lattice oracle "
           "within 1e-3 on 20 fixtures", timer)


def _segment_witness(c1, c2, steps=11):
    """Best minimum membership over points that walk, in each domain on its
    own, a fraction of the way between two cuboids' nearest points."""
    space = c1.space
    grid = np.linspace(0.0, 1.0, steps)
    fracs = np.stack(np.meshgrid(*[grid] * len(space.domains)), -1)
    fracs = fracs.reshape(-1, len(space.domains))
    per_dim = np.repeat(fracs, [len(dims) for _, dims in space.domains], axis=1)
    best = 0.0
    for p_lo, p_hi in zip(c1.core.lo, c1.core.hi):
        for q_lo, q_hi in zip(c2.core.lo, c2.core.hi):
            start = np.where(p_hi < q_lo, p_hi,
                             np.where(q_hi < p_lo, p_lo, np.maximum(p_lo, q_lo)))
            end = np.clip(start, q_lo, q_hi)
            pts = start + per_dim * (end - start)
            best = max(best, float(np.minimum(c1.membership_batch(pts),
                                              c2.membership_batch(pts)).max()))
    return best


def test_height_beats_segment_witness_in_multi_domain_spaces():
    rng = np.random.default_rng(107)
    with Timer(30.0) as timer:
        for _ in range(30):
            c1 = random_concept(rng, min_domains=2)
            c2 = translated(random_concept(rng, c1.space),
                            rng.uniform(-3.0, 3.0, c1.space.n))
            result = height_of_intersection(c1, c2)
            assert result.value >= _segment_witness(c1, c2) - 1e-12
            assert result.bound - result.value <= 1e-6
            assert result.converged
    report("height of intersection: at least every per-domain segment "
           "witness, certified gap within 1e-6, on 30 multi-domain pairs",
           timer)


# ---------------------------------------------------------------------------
# 6. clamp distance vs lattice oracle

_PARTITIONS = {
    1: [(1,)],
    2: [(2,), (1, 1)],
    3: [(3,), (2, 1), (1, 1, 1)],
    4: [(2, 2), (3, 1), (2, 1, 1)],
}


def _random_space_for(rng, n_dims):
    parts = _PARTITIONS[n_dims][rng.integers(len(_PARTITIONS[n_dims]))]
    domains = []
    counter = 0
    for k, size in enumerate(parts):
        dims = tuple(f"d{counter + j}" for j in range(size))
        counter += size
        domains.append((f"dom{k}", dims))
    return Space(tuple(domains))


def test_clamp_distance_matches_lattice_oracle():
    rng = np.random.default_rng(106)
    step = 1e-2
    with Timer(30.0) as timer:
        for case in range(100):
            n_dims = 1 + case % 4
            space = _random_space_for(rng, n_dims)
            max_cells = 20 if n_dims < 4 else 25
            extents = rng.integers(5, max_cells + 1, n_dims) * step
            lo = rng.uniform(-1.0, 1.0, n_dims)
            cuboid = Cuboid.from_bounds(
                space, list(space.domain_names),
                dict(zip(space.dim_names, lo)),
                dict(zip(space.dim_names, lo + extents)))
            weights = Weights.normalized(
                {name: rng.uniform(0.6, 1.4) for name in space.domain_names},
                {name: {d: rng.uniform(0.6, 1.4) for d in space.dims_of(name)}
                 for name in space.domain_names})
            coords = rng.uniform(-2.0, 2.0, n_dims)
            x = Point(space, tuple(coords))
            exact = distance_to_cuboid(x, cuboid, weights)
            brute = paper_oracle.lattice_distance(space, weights, coords, lo,
                                                  lo + extents, step)
            assert exact <= brute + 1e-12
            assert brute - exact <= 2 * step
    report("distance to cuboid: clamp agrees with the lattice oracle "
           "within 2e-2 on 100 instances", timer)


# ---------------------------------------------------------------------------
# 7. three-cuboid figure reproduction

def test_three_cuboid_grid_levels_match_crisp_core(fig_cross):
    with Timer(10.0) as timer:
        ranges = {"x": (-2.0, 6.0), "y": (-2.0, 6.0)}
        grid = export_grid(fig_cross, ("x", "y"), ranges, 0.01)
        n1, n2 = grid.values.shape
        coords = np.zeros((n1 * n2, 2))
        coords[:, 0] = np.repeat(grid.axes[0], n2)
        coords[:, 1] = np.tile(grid.axes[1], n1)
        crisp = fig_cross.core.contains_batch(coords).reshape(n1, n2)
        regions = {alpha: grid.values >= alpha for alpha in (1.0, 0.5, 0.25)}
        agreement = np.mean(regions[1.0] == crisp)
        assert agreement >= 0.999
        assert np.all(regions[1.0] <= regions[0.5])
        assert np.all(regions[0.5] <= regions[0.25])
        assert regions[1.0].sum() < regions[0.5].sum() < regions[0.25].sum()
    report(f"figure grid: level regions nested, level-1 region matches the "
           f"crisp core on {agreement:.2%} of cells", timer)


# ---------------------------------------------------------------------------
# 8. persistence round-trip and determinism

def test_roundtrip_and_determinism(fig_cross, tmp_path):
    rng = np.random.default_rng(108)
    with Timer(30.0) as timer:
        kb = KnowledgeBase(PLANE).add_concept("cross", fig_cross)
        for k in range(5):
            kb = kb.add_concept(f"c{k}", random_concept(rng, PLANE))
        path_one = tmp_path / "one.json"
        path_two = tmp_path / "two.json"
        kb.save(path_one)
        kb.save(path_two)
        assert path_one.read_bytes() == path_two.read_bytes()
        loaded = KnowledgeBase.load(path_one)
        for name, concept in kb.concepts.items():
            twin = loaded.get_concept(name)
            pts = uniform_points(rng, *sample_window(concept), 2000)
            drift = np.abs(twin.membership_batch(pts)
                           - concept.membership_batch(pts))
            assert float(drift.max()) <= 1e-12
    report("persistence: repeated saves byte-identical, memberships "
           "preserved within 1e-12 after reload", timer)


# ---------------------------------------------------------------------------
# 9. idempotence of intersection and union

def test_self_intersection_and_union_idempotent(fig_cross):
    rng = np.random.default_rng(109)
    with Timer(30.0) as timer:
        concepts = [fig_cross] + [random_concept(rng) for _ in range(5)]
        for concept in concepts:
            pts = uniform_points(rng, *sample_window(concept), 10_000)
            base = concept.membership_batch(pts)
            inter = concept.intersect(concept)
            union = concept.union(concept)
            assert float(np.abs(inter.membership_batch(pts) - base).max()) \
                <= 1e-9
            assert float(np.abs(union.membership_batch(pts) - base).max()) \
                <= 1e-9
            assert inter.peak == concept.peak
            assert union.peak == concept.peak
    report("idempotence: self-intersection and self-union reproduce "
           "memberships within 1e-9", timer)


# ---------------------------------------------------------------------------
# 10. multi-domain membership vs an independent per-domain formula

def test_multi_domain_membership_matches_independent_oracle():
    rng = np.random.default_rng(110)
    with Timer(30.0) as timer:
        checked = 0
        while checked < 40:
            concept = random_concept(rng, max_cuboids=5, min_domains=2)
            if len(concept.core.cuboids) < 3:
                continue
            checked += 1
            space = concept.space
            lo, hi = sample_window(concept)
            pts = np.vstack([uniform_points(rng, lo, hi, 300),
                             uniform_points(rng, lo - 50.0, hi + 50.0, 50)])
            batch = concept.membership_batch(pts)
            assert np.array_equal(batch, paper_oracle.membership(concept, pts))
            for row, value in zip(pts[:60], batch):
                assert concept.membership(Point(space, tuple(row))) == value
    report("membership: 40 multi-domain concepts with 3-5 cuboids match a "
           "per-domain formula bit for bit, scalar equals batch exactly",
           timer)
