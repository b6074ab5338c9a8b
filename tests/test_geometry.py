"""Crisp geometry: cuboids, cores, repair, and the crisp set operations."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conceptspaces import (Concept, Core, Cuboid, Space, ValidationError,
                           Weights, between, cores_intersect, repair)
from conceptspaces import geometry
from conceptspaces.geometry import (_BLOCK_ENTRIES, _central_rows,
                                    _facing_points, _maximal_rows,
                                    nearest_point_pairs)
from conceptspaces.optimize import core_distance_batch

from conftest import (LINE, PLANE, between_points, box_core, central_bounds,
                      random_concept, random_weights, sample_window,
                      translated, uniform_points)

MIXED = __import__("conceptspaces").Space(
    (("color", ("hue", "sat")), ("size", ("diam",))))


def plane_box(x0, y0, x1, y1):
    return Cuboid.from_bounds(PLANE, ["width", "height"],
                              {"x": x0, "y": y0}, {"x": x1, "y": y1})


def line_box(lo, hi):
    return Cuboid.from_bounds(LINE, ["val"], {"x": lo}, {"x": hi})


def plane_core(x0, y0, x1, y1):
    return Core((plane_box(x0, y0, x1, y1),))


class TestCuboid:
    """Cuboids validate their bounds; containment, intersection and
    projection run on one-cuboid cores."""

    def test_bounds_validation(self):
        with pytest.raises(ValidationError):
            Cuboid.from_bounds(PLANE, ["width"], {"x": 2.0}, {"x": 1.0})
        with pytest.raises(ValidationError):
            Cuboid.from_bounds(PLANE, ["width"], {}, {"x": 1.0})
        with pytest.raises(ValidationError):
            Cuboid.from_bounds(PLANE, ["width"], {"y": 0.0}, {"x": 1.0})
        with pytest.raises(ValidationError):
            Cuboid.from_bounds(PLANE, ["bogus"], {"x": 0.0}, {"x": 1.0})

    def test_contains_boundary(self):
        c = plane_core(0, 0, 2, 2)
        assert c.contains(PLANE.point({"x": 0.0, "y": 0.0}))
        assert c.contains(PLANE.point({"x": 2.0, "y": 1.0}))
        assert not c.contains(PLANE.point({"x": 2.0001, "y": 1.0}))

    def test_partial_cuboid_ignores_outside_dimensions(self):
        c = Core((Cuboid.from_bounds(MIXED, ["color"],
                                     {"hue": 0.0, "sat": 0.0},
                                     {"hue": 1.0, "sat": 1.0}),))
        assert c.contains(MIXED.point({"hue": 0.5, "sat": 0.5, "diam": 1e9}))
        assert not c.contains(MIXED.point({"hue": 1.5, "sat": 0.5, "diam": 0.0}))

    def test_intersect_self(self):
        c = plane_core(0, 0, 2, 2)
        assert c.intersect(c) == c

    def test_intersect_overlapping(self):
        got = plane_core(0, 0, 2, 2).intersect(plane_core(1, 1, 3, 3))
        assert got == plane_core(1, 1, 2, 2)

    def test_intersect_merges_domain_sets(self):
        a = Cuboid.from_bounds(MIXED, ["color"],
                               {"hue": 0.0, "sat": 0.0},
                               {"hue": 1.0, "sat": 1.0})
        b = Cuboid.from_bounds(MIXED, ["size"], {"diam": 2.0}, {"diam": 3.0})
        (got,) = Core((a,)).intersect(Core((b,))).cuboids
        assert got.domains == {"color", "size"}
        assert got.p_min == (0.0, 0.0, 2.0)

    def test_project_identity(self):
        c = plane_core(0, 0, 2, 3)
        assert c.project(["width", "height"]) == c

    def test_project_to_first_domain(self):
        (got,) = plane_core(0, 1, 2, 3).project(["width"]).cuboids
        assert got.domains == {"width"}
        assert got.p_min == (0.0, -math.inf)
        assert got.p_max == (2.0, math.inf)

    def test_project_requires_subset(self):
        c = plane_core(0, 0, 1, 1).project(["width"])
        with pytest.raises(ValidationError):
            c.project(["height"])

    def test_reintersected_projections_cover_original(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            lo = rng.uniform(-3, 0, 2)
            hi = lo + rng.uniform(0.1, 3, 2)
            c = plane_core(lo[0], lo[1], hi[0], hi[1])
            back = c.project(["width"]).intersect(c.project(["height"]))
            pts = rng.uniform(lo, hi, size=(20, 2))
            assert back.contains_batch(pts).all()


boxes_1d = st.tuples(
    st.floats(min_value=-10, max_value=10, allow_nan=False),
    st.floats(min_value=0, max_value=5, allow_nan=False))


@given(a=boxes_1d, b=boxes_1d)
def test_intersection_bounds_are_minmax(a, b):
    ca = Core((line_box(a[0], a[0] + a[1]),))
    cb = Core((line_box(b[0], b[0] + b[1]),))
    lo = max(a[0], b[0])
    hi = min(a[0] + a[1], b[0] + b[1])
    if lo > hi:
        with pytest.raises(ValidationError):
            ca.intersect(cb)
    else:
        got = ca.intersect(cb)
        assert got.lo.tolist() == [[lo]] and got.hi.tolist() == [[hi]]


class TestCentralRegion:
    def test_single_cuboid(self):
        c = plane_core(0, 0, 1, 1)
        assert c.central_point.coords == (0.5, 0.5)

    def test_three_overlapping_cuboids(self, fig_cross):
        core = fig_cross.core
        low, high = _central_rows(core.lo, core.hi)
        assert low.tolist() == [1.5, 1.5] and high.tolist() == [2.5, 2.5]
        assert core.central_point.coords == (2.0, 2.0)

    def test_disjoint_cuboids_have_none(self):
        assert _central_rows(np.array([[0.0], [3.0]]),
                             np.array([[1.0], [4.0]])) is None
        with pytest.raises(ValidationError):
            Core((line_box(0, 1), line_box(3, 4)))


class TestRepair:
    def test_bridges_disjoint_intervals(self):
        got = repair([line_box(0, 1), line_box(3, 4)])
        assert [(c.p_min[0], c.p_max[0]) for c in got] == [(0, 2), (2, 4)]

    def test_single_cuboid_unchanged(self):
        c = plane_box(0, 0, 1, 2)
        assert repair([c]) == (c,)

    def test_output_contains_input(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            cubs = []
            for _ in range(rng.integers(2, 5)):
                lo = rng.uniform(-4, 3, 2)
                hi = lo + rng.uniform(0.1, 2, 2)
                cubs.append(plane_box(lo[0], lo[1], hi[0], hi[1]))
            fixed = repair(cubs)
            for before, after in zip(cubs, fixed):
                assert np.all(np.array(after.p_min) <= before.p_min)
                assert np.all(np.array(after.p_max) >= before.p_max)

    def test_result_always_has_central_region(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            cubs = []
            for _ in range(rng.integers(1, 5)):
                lo = rng.uniform(-5, 4, 2)
                hi = lo + rng.uniform(0.05, 2, 2)
                cubs.append(plane_box(lo[0], lo[1], hi[0], hi[1]))
            fixed = repair(cubs)
            Core(fixed)   # raises on an empty central region

    def test_skips_dimensions_no_cuboid_bounds(self):
        a = Cuboid.from_bounds(MIXED, ["color"],
                               {"hue": 0.0, "sat": 0.0},
                               {"hue": 1.0, "sat": 1.0})
        b = Cuboid.from_bounds(MIXED, ["color"],
                               {"hue": 4.0, "sat": 4.0},
                               {"hue": 5.0, "sat": 5.0})
        fixed = repair([a, b])
        for c in fixed:
            assert c.p_min[2] == -math.inf and c.p_max[2] == math.inf
        Core(fixed)


def test_nearest_points_disjoint_and_overlapping():
    a, b = nearest_point_pairs(plane_core(0, 0, 1, 1), plane_core(3, 0.5, 4, 2))
    a, b = a[0, 0], b[0, 0]
    assert tuple(a) == (1.0, 0.5) or (a[0] == 1.0 and 0.5 <= a[1] <= 1.0)
    assert b[0] == 3.0
    assert a[1] == b[1]
    a, b = nearest_point_pairs(plane_core(0, 0, 2, 2), plane_core(1, 1, 3, 3))
    assert np.array_equal(a, b)


def _facing_reference(lo1, hi1, lo2, hi2):
    """One dimension of ``_facing_points``, written out: the facing bounds
    of disjoint intervals, else their shared coordinate nearest 0."""
    if hi1 < lo2:
        return hi1, lo2
    if hi2 < lo1:
        return lo1, hi2
    shared = min(max(0.0, max(lo1, lo2)), min(hi1, hi2))
    return shared, shared


def test_facing_points_match_per_dimension_reference():
    # bounds from a small set, so that touching endpoints, -0.0 against
    # 0.0 and unbounded dimensions all occur many times
    rng = np.random.default_rng(41)
    values = np.array([-2.0, -1.0, -0.0, 0.0, 0.5, 1.0, 3.0])
    shape = (400, 2, 3)
    ends = np.sort(rng.choice(values, size=shape + (2,)), axis=-1)
    free = rng.random(shape) < 0.2
    lo = np.where(free, -np.inf, ends[..., 0])
    hi = np.where(free, np.inf, ends[..., 1])
    pa, pb = _facing_points(lo[:, 0], hi[:, 0], lo[:, 1], hi[:, 1])
    want = np.array([_facing_reference(*bounds) for bounds in zip(
        *(a.ravel().tolist() for a in (lo[:, 0], hi[:, 0], lo[:, 1],
                                       hi[:, 1])))])
    assert np.array_equal(pa.ravel(), want[:, 0])
    assert np.array_equal(pb.ravel(), want[:, 1])
    disjoint = (hi[:, 0] < lo[:, 1]) | (hi[:, 1] < lo[:, 0])
    touching = (hi[:, 0] == lo[:, 1]) | (hi[:, 1] == lo[:, 0])
    assert disjoint.any() and touching.any() and free.any()
    assert (np.signbit(lo) & (lo == 0)).any()


class TestCore:
    def test_requires_common_intersection(self):
        with pytest.raises(ValidationError):
            Core((line_box(0, 1), line_box(3, 4)))

    def test_domain_set_is_union(self):
        a = Cuboid.from_bounds(MIXED, ["color"],
                               {"hue": 0.0, "sat": 0.0},
                               {"hue": 1.0, "sat": 1.0})
        b = Cuboid.from_bounds(MIXED, ["size"], {"diam": 0.0}, {"diam": 1.0})
        core = Core((a, b))
        assert core.domain_set == {"color", "size"}

    def test_self_intersection_is_identity_pointwise(self, fig_cross):
        rng = np.random.default_rng(10)
        core = fig_cross.core
        same = core.intersect(core)
        pts = rng.uniform(-1, 5, size=(500, 2))
        assert np.array_equal(core.contains_batch(pts),
                              same.contains_batch(pts))

    def test_intersect_disjoint_domain_sets_needs_no_repair(self):
        a = Core((Cuboid.from_bounds(MIXED, ["color"],
                                     {"hue": 0.0, "sat": 0.0},
                                     {"hue": 1.0, "sat": 1.0}),))
        b = Core((Cuboid.from_bounds(MIXED, ["size"],
                                     {"diam": 5.0}, {"diam": 6.0}),))
        got = a.intersect(b)
        assert len(got.cuboids) == 1
        assert got.cuboids[0].p_min == (0.0, 0.0, 5.0)
        assert got.cuboids[0].p_max == (1.0, 1.0, 6.0)

    def test_intersect_repairs_when_central_regions_miss(self):
        # the pairwise intersections exist but have no common point
        a = box_core(PLANE, [({"x": 0.0, "y": 0.0}, {"x": 4.0, "y": 1.0}),
                             ({"x": 0.0, "y": 0.0}, {"x": 1.0, "y": 4.0})])
        b = box_core(PLANE, [({"x": 3.0, "y": 0.0}, {"x": 4.0, "y": 4.0}),
                             ({"x": 0.0, "y": 3.0}, {"x": 4.0, "y": 4.0})])
        got = a.intersect(b)
        meet = got.central_point.array
        assert np.all((got.lo <= meet) & (meet <= got.hi))

    def test_intersect_disjoint_cores_raises(self):
        # no empty core exists to stand for the empty intersection
        a = box_core(PLANE, [({"x": 0.0, "y": 0.0}, {"x": 1.0, "y": 1.0}),
                             ({"x": 0.5, "y": 0.0}, {"x": 1.5, "y": 0.5})])
        b = box_core(PLANE, [({"x": 3.0, "y": 2.0}, {"x": 4.0, "y": 3.0})])
        for x, y in ((a, b), (b, a)):
            with pytest.raises(ValidationError, match="share no point"):
                x.intersect(y)

    def test_union_self_is_identity(self, fig_cross):
        core = fig_cross.core
        assert core.union(core) == core

    def test_union_bridges_disjoint_cores(self):
        a = box_core(LINE, [({"x": 0.0}, {"x": 1.0})])
        b = box_core(LINE, [({"x": 3.0}, {"x": 4.0})])
        got = a.union(b)
        assert [(c.p_min[0], c.p_max[0]) for c in got.cuboids] == [(0, 2), (2, 4)]

    def test_union_with_shared_region_extends_nothing(self):
        a = box_core(PLANE, [({"x": 0.0, "y": 0.0}, {"x": 2.0, "y": 2.0})])
        b = box_core(PLANE, [({"x": 1.0, "y": 1.0}, {"x": 3.0, "y": 3.0})])
        got = a.union(b)
        assert got.cuboids == a.cuboids + b.cuboids

    def test_union_never_shrinks(self):
        rng = np.random.default_rng(13)
        for _ in range(30):
            los = rng.uniform(-4, 3, (2, 2))
            his = los + rng.uniform(0.1, 2, (2, 2))
            a = box_core(PLANE, [(dict(zip(("x", "y"), los[0])),
                                  dict(zip(("x", "y"), his[0])))])
            b = box_core(PLANE, [(dict(zip(("x", "y"), los[1])),
                                  dict(zip(("x", "y"), his[1])))])
            got = a.union(b)
            pts = rng.uniform(-5, 5, size=(300, 2))
            keep = a.contains_batch(pts) | b.contains_batch(pts)
            assert got.contains_batch(pts)[keep].all()

    def test_intersect_never_shrinks(self):
        rng = np.random.default_rng(14)
        for _ in range(30):
            lo_a = rng.uniform(-2, 0, 2)
            hi_a = lo_a + rng.uniform(0.5, 3, 2)
            lo_b = rng.uniform(-2, 0, 2)
            hi_b = lo_b + rng.uniform(0.5, 3, 2)
            a = box_core(PLANE, [(dict(zip(("x", "y"), lo_a)),
                                  dict(zip(("x", "y"), hi_a)))])
            b = box_core(PLANE, [(dict(zip(("x", "y"), lo_b)),
                                  dict(zip(("x", "y"), hi_b)))])
            pts = rng.uniform(-2, 3, size=(300, 2))
            keep = a.contains_batch(pts) & b.contains_batch(pts)
            if not cores_intersect(a, b):
                with pytest.raises(ValidationError):
                    a.intersect(b)
                continue
            assert a.intersect(b).contains_batch(pts)[keep].all()

    def test_project_identity(self, fig_cross):
        core = fig_cross.core
        assert core.project(["width", "height"]) == core

    def test_project_cross_to_one_axis(self, fig_cross):
        got = fig_cross.core.project(["width"])
        # the other two projected spans lie inside [0, 4] and are dropped
        spans = [(c.p_min[0], c.p_max[0]) for c in got.cuboids]
        assert spans == [(0.0, 4.0)]
        assert got.cuboids[0].p_min[1] == -math.inf
        assert got.cuboids[0].p_max[1] == math.inf
        full = Concept(Core(tuple(Core((c,)).project(["width"]).cuboids[0]
                                  for c in fig_cross.core.cuboids)),
                       fig_cross.peak, fig_cross.decay,
                       Weights.uniform(PLANE, ["width"]))
        pts = np.random.default_rng(11).uniform(-2, 6, size=(500, 2))
        assert np.array_equal(fig_cross.project(["width"]).membership_batch(pts),
                              full.membership_batch(pts))

    def test_projected_central_region_contains_projection(self, fig_cross):
        core = fig_cross.core
        low, high = central_bounds(core)
        got_low, got_high = central_bounds(core.project(["width"]))
        assert got_low[0] <= low[0] and high[0] <= got_high[0]
        assert (got_low[1], got_high[1]) == (-math.inf, math.inf)

    def test_project_validates_target(self, fig_cross):
        with pytest.raises(ValidationError):
            fig_cross.core.project([])
        with pytest.raises(ValidationError):
            fig_cross.core.project(["bogus"])


def test_cores_intersect_matches_pairwise():
    a = box_core(LINE, [({"x": 0.0}, {"x": 1.0})])
    b = box_core(LINE, [({"x": 1.0}, {"x": 2.0})])
    c = box_core(LINE, [({"x": 1.5}, {"x": 2.5})])
    assert cores_intersect(a, b)
    assert not cores_intersect(a, c)


class TestStarShapedness:
    def test_core_is_star_shaped_around_central_region(self, fig_cross):
        rng = np.random.default_rng(21)
        core = fig_cross.core
        reg_lo, reg_hi = central_bounds(core)
        window_lo, window_hi = core.bounding_box()
        pool = rng.uniform(window_lo, window_hi, size=(4000, 2))
        members = pool[core.contains_batch(pool)]
        anchors = rng.uniform(reg_lo, reg_hi, size=(len(members), 2))
        picks = rng.integers(len(members), size=2000)
        start = anchors[picks[0]]
        mids = between_points(rng, PLANE, start, members[picks])
        assert core.contains_batch(mids).all()

    def test_cuboid_is_convex_under_betweenness(self):
        rng = np.random.default_rng(22)
        w = Weights.uniform(MIXED)
        c = Cuboid.from_bounds(
            MIXED, ["color", "size"],
            {"hue": -1.0, "sat": 0.0, "diam": 2.0},
            {"hue": 1.0, "sat": 2.0, "diam": 5.0})
        inside = rng.uniform(c.p_min, c.p_max, size=(200, 3))
        for k in range(0, 200, 2):
            x = MIXED.point(dict(zip(MIXED.dim_names, inside[k])))
            z = MIXED.point(dict(zip(MIXED.dim_names, inside[k + 1])))
            y_arr = between_points(rng, MIXED, inside[k],
                                   inside[k + 1][None, :])[0]
            y = MIXED.point(dict(zip(MIXED.dim_names, y_arr)))
            assert between(x, y, z, w)
            assert Core((c,)).contains(y)


# ---------------------------------------------------------------------------
# The core algebra against an independent fold.  The oracle intersects cuboid
# pairs one at a time, drops duplicates with ``dict.fromkeys``, repairs with
# the mean-of-centres formula written out here and prunes contained cuboids
# in a double loop; the library works on the stacked bound arrays.  Results
# must agree bit for bit, in the same order.

def _fold_owned(space, domains):
    own = {space.index_of(d) for name in domains for d in space.dims_of(name)}
    return [i in own for i in range(space.n)]


def _fold_meet(a, b):
    """Coordinate-wise intersection of two cuboids; ``None`` when empty."""
    lo = tuple(max(x, y) for x, y in zip(a.p_min, b.p_min))
    hi = tuple(min(x, y) for x, y in zip(a.p_max, b.p_max))
    if any(x > y for x, y in zip(lo, hi)):
        return None
    return Cuboid(a.space, a.domains | b.domains, lo, hi)


def _fold_central(cubs):
    acc = cubs[0]
    for c in cubs[1:]:
        if acc is None:
            return None
        acc = _fold_meet(acc, c)
    return acc


def _fold_repair(cubs):
    lows = np.array([c.p_min for c in cubs])
    highs = np.array([c.p_max for c in cubs])
    finite = np.isfinite(lows)
    counts = finite.sum(axis=0)
    centers = 0.5 * (np.where(finite, lows, 0.0) + np.where(finite, highs, 0.0))
    meet = np.divide(centers.sum(axis=0), counts,
                     out=np.zeros(lows.shape[1]), where=counts > 0)
    new_lo = np.where(counts > 0, np.minimum(lows, meet), lows)
    new_hi = np.where(counts > 0, np.maximum(highs, meet), highs)
    return tuple(Cuboid(c.space, c.domains, tuple(l), tuple(h))
                 for c, l, h in zip(cubs, new_lo, new_hi))


def _fold_prune(cubs, tally):
    """Drop every cuboid inside another one with the same domains.

    Of equal cuboids the first is kept.
    """
    kept = []
    for i, c in enumerate(cubs):
        for j, d in enumerate(cubs):
            if i == j or c.domains != d.domains:
                continue
            inside = (all(x >= y for x, y in zip(c.p_min, d.p_min))
                      and all(x <= y for x, y in zip(c.p_max, d.p_max)))
            equal = c.p_min == d.p_min and c.p_max == d.p_max
            if inside and (not equal or j < i):
                break
        else:
            kept.append(c)
    tally["pruned"] += len(cubs) - len(kept)
    return tuple(kept)


def _fold_finish(cubs, tally):
    cubs = tuple(dict.fromkeys(cubs))
    if _fold_central(cubs) is None:
        tally["repair"] += 1
        cubs = _fold_repair(cubs)
    return _fold_prune(cubs, tally)


def _fold_intersect(a, b, tally):
    """The intersection's cuboids; ``None`` when the cores share no point."""
    survivors = [got for x in a.cuboids for y in b.cuboids
                 if (got := _fold_meet(x, y)) is not None]
    if not survivors:
        tally["disjoint"] += 1
        return None
    return _fold_finish(survivors, tally)


def _fold_union(a, b, tally):
    return _fold_finish(a.cuboids + b.cuboids, tally)


def _fold_project(core, target, tally):
    out = []
    for c in core.cuboids:
        dom = target & c.domains
        keep = _fold_owned(core.space, dom)
        out.append(Cuboid(core.space, dom,
                          tuple(v if k else -math.inf for v, k in zip(c.p_min, keep)),
                          tuple(v if k else math.inf for v, k in zip(c.p_max, keep))))
    return _fold_finish(out, tally)


def _bits(cubs):
    return [(sorted(c.domains), [v.hex() for v in c.p_min],
             [v.hex() for v in c.p_max]) for c in cubs]


def _partner(rng, core):
    """A random core in the same space: fresh, shifted, projected or shared."""
    space = core.space
    kind = rng.integers(5)
    if kind == 0:   # some of the same cuboids: unions and intersections repeat
        return Core(core.cuboids[int(rng.integers(len(core.cuboids))):])
    concept = random_concept(rng, space, max_cuboids=4)
    if kind == 1:   # far away: disjoint intersections, repaired unions
        concept = translated(concept, rng.choice([-1.0, 1.0], size=space.n)
                             * rng.uniform(4.0, 8.0, size=space.n))
    if kind == 2:   # on a proper subset of the domains
        names = list(space.domain_names)
        keep = [d for d in names if rng.random() < 0.5] or names[:1]
        return concept.core.project(keep)
    return concept.core


def test_core_algebra_matches_independent_fold():
    rng = np.random.default_rng(31)
    tally = {"repair": 0, "disjoint": 0, "duplicates": 0, "pruned": 0,
             "steps": 0}
    for _ in range(40):
        core = random_concept(rng, max_cuboids=4, min_domains=2).core
        for _ in range(5):
            op = rng.integers(3)
            if op == 2 and len(core.domain_set) > 1:
                names = sorted(core.domain_set)
                target = frozenset(names[:int(rng.integers(1, len(names)))])
                got, expect = core.project(target), _fold_project(core, target, tally)
                raw = len(core.cuboids)
            else:
                other = core if rng.random() < 0.1 else _partner(rng, core)
                if op == 0:
                    expect = _fold_intersect(core, other, tally)
                    if expect is None:
                        with pytest.raises(ValidationError):
                            core.intersect(other)
                        tally["steps"] += 1
                        continue
                    got = core.intersect(other)
                    raw = len(core.cuboids) * len(other.cuboids)
                else:
                    got, expect = core.union(other), _fold_union(core, other, tally)
                    raw = len(core.cuboids) + len(other.cuboids)
            assert got.cuboids == expect
            assert _bits(got.cuboids) == _bits(expect)
            tally["duplicates"] += len(expect) < raw
            tally["steps"] += 1
            core = got
    # every branch of the shared tail ran
    assert tally["repair"] >= 10 and tally["disjoint"] >= 5
    assert tally["duplicates"] >= 5 and tally["steps"] == 200
    assert tally["pruned"] >= 50


def test_central_region_and_repair_match_independent_fold():
    rng = np.random.default_rng(32)
    empty = 0
    for _ in range(150):
        cubs = list(random_concept(rng, max_cuboids=4, min_domains=2).core.cuboids)
        space = cubs[0].space
        other = _partner(rng, Core(tuple(cubs)))
        cubs += other.cuboids
        rng.shuffle(cubs)
        want = _fold_central(cubs)
        got = _central_rows(np.array([c.p_min for c in cubs]),
                            np.array([c.p_max for c in cubs]))
        if want is None:
            empty += 1
            assert got is None
            with pytest.raises(ValidationError):
                Core(tuple(cubs))
        else:
            assert _bits([Cuboid(space, want.domains, *got)]) == _bits([want])
            finite = np.isfinite(got[0])
            center = 0.5 * (np.where(finite, got[0], 0.0)
                            + np.where(finite, got[1], 0.0))
            assert Core(tuple(cubs)).central_point.coords == tuple(center)
        assert _bits(repair(cubs)) == _bits(_fold_repair(cubs))
        assert all(c.space == space for c in repair(cubs))
    assert 20 <= empty <= 130


def test_core_contains_batch_matches_member_cuboids():
    rng = np.random.default_rng(33)
    for _ in range(20):
        core = random_concept(rng, max_cuboids=5, min_domains=2).core
        if rng.random() < 0.5:
            core = core.union(_partner(rng, core))
        lo, hi = core.bounding_box()
        lo = np.where(np.isfinite(lo), lo, -3.0) - 0.5
        hi = np.where(np.isfinite(hi), hi, 3.0) + 0.5
        pts = rng.uniform(lo, hi, size=(3000, core.space.n))
        # points exactly on member faces
        faces = rng.integers(len(core.cuboids), size=300)
        dims = rng.integers(core.space.n, size=300)
        side = np.where(rng.random(300) < 0.5, core.lo[faces, dims],
                        core.hi[faces, dims])
        rows = np.arange(300)
        pts[rows, dims] = np.where(np.isfinite(side), side, pts[rows, dims])
        want = np.zeros(len(pts), dtype=bool)
        for lo_c, hi_c in zip(core.lo, core.hi):
            want |= np.all((pts >= lo_c) & (pts <= hi_c), axis=1)
        got = core.contains_batch(pts)
        assert got.dtype == bool and np.array_equal(got, want)
        assert 0 < want.sum() < len(pts)


# ---------------------------------------------------------------------------
# Cuboid validation: every fault keeps its message, with a cold and a warm
# per-space ownership cache.

_INF = math.inf
_FAULTS = [
    (["bogus"], (0, 0, 0), (1, 1, 1), "unknown domains ['bogus']"),
    (["color", "bogus"], (0, 0), (1, 1), "unknown domains ['bogus']"),
    (["color"], (0, 0), (1, 1, _INF), "support bounds must cover every dimension"),
    (["color"], (0, 0, -_INF, 0), (1, 1, _INF, 1),
     "support bounds must cover every dimension"),
    (["color"], (0, -_INF, -_INF), (1, 1, _INF),
     "bounds for dimension 'sat' must be finite"),
    (["color", "size"], (0, 0, 0), (1, 1, math.nan),
     "bounds for dimension 'diam' must be finite"),
    (["color"], (0, 2, -_INF), (1, 1, _INF),
     "lower bound exceeds upper bound on dimension 'sat'"),
    (["color"], (2, 0, -_INF), (1, math.nan, _INF),
     "lower bound exceeds upper bound on dimension 'hue'"),
    (["size"], (0, -_INF, 0), (1, _INF, 1),
     "dimension 'hue' lies outside the cuboid's domains and must be unbounded"),
    (["color"], (0, 0, -_INF), (1, 1, 5.0),
     "dimension 'diam' lies outside the cuboid's domains and must be unbounded"),
    (["size"], (-_INF, 0, 2), (_INF, 0, 1),
     "dimension 'sat' lies outside the cuboid's domains and must be unbounded"),
]


@pytest.mark.parametrize("warm", [False, True])
@pytest.mark.parametrize("domains, lo, hi, message", _FAULTS)
def test_cuboid_validation_messages(domains, lo, hi, message, warm):
    space = Space(MIXED.domains)
    if warm:
        for dom in (["color"], ["size"], ["color", "size"]):
            Cuboid.from_bounds(space, dom, {d: 0.0 for name in dom
                                            for d in space.dims_of(name)},
                               {d: 1.0 for name in dom
                                for d in space.dims_of(name)})
    with pytest.raises(ValidationError) as err:
        Cuboid(space, frozenset(domains), lo, hi)
    assert str(err.value) == message


def test_warm_space_cache_keeps_equality():
    warm, fresh = Space(MIXED.domains), Space(MIXED.domains)
    c = Cuboid.from_bounds(warm, ["color"], {"hue": 0.0, "sat": 0.0},
                           {"hue": 1.0, "sat": 1.0})
    assert Core((c,)).project(["color"]).cuboids == (c,)
    point = Cuboid.from_bounds(warm, ["size"], {"diam": 2.0}, {"diam": 2.0})
    assert point.p_min == (-math.inf, -math.inf, 2.0)
    assert warm == fresh and hash(warm) == hash(fresh)
    assert c == Cuboid(fresh, {"color"}, (0.0, 0.0, -math.inf),
                       (1.0, 1.0, math.inf))
    assert hash(c) == hash(Cuboid(fresh, {"color"}, (0.0, 0.0, -math.inf),
                                  (1.0, 1.0, math.inf)))


# ---------------------------------------------------------------------------
# Canonical cores: the algebra drops every cuboid that lies inside another
# member of the same domain set.  The unpruned reference is the same code
# with the prune switched off.

def _keep_all(domains, lo, hi):
    return [True] * len(domains)


def _step_partner(rng, concept):
    """A concept to intersect or unite with: fresh, shared or projected."""
    space = concept.space
    kind = rng.integers(3)
    if kind == 0:
        core = Core(concept.core.cuboids[int(rng.integers(len(concept.core.cuboids))):])
        return Concept(core, float(rng.uniform(0.5, 1.0)),
                       float(rng.uniform(0.4, 2.5)),
                       random_weights(rng, space, sorted(core.domain_set)))
    other = random_concept(rng, space, max_cuboids=4)
    if kind == 1 and len(space.domain_names) > 1:
        names = list(space.domain_names)
        return other.project([d for d in names if rng.random() < 0.5]
                             or names[:1])
    return other


def test_pruned_algebra_keeps_memberships(monkeypatch):
    rng = np.random.default_rng(34)
    pruned = ops = 0
    for _ in range(30):
        x = random_concept(rng, max_cuboids=4, min_domains=2)
        for _ in range(5):
            op = rng.integers(3)
            if op == 2 and len(x.core.domain_set) > 1:
                names = sorted(x.core.domain_set)
                target = names[:int(rng.integers(1, len(names)))]
                step = lambda x=x, target=target: x.project(target)
            else:
                partner = _step_partner(rng, x)
                method = x.intersect if op == 0 else x.union
                step = lambda method=method, partner=partner: method(partner)
            got = step()
            with monkeypatch.context() as m:
                m.setattr(geometry, "_maximal_rows", _keep_all)
                full = step()
            assert (got.peak, got.decay, got.weights) == \
                (full.peak, full.decay, full.weights)
            assert got.core.domain_set == full.core.domain_set
            lo, hi = sample_window(full)
            pts = uniform_points(rng, lo, hi, 400)
            # the nearest member sets the distance, so only the kernel's
            # rounding, which depends on the batch shape, may differ
            np.testing.assert_array_max_ulp(
                core_distance_batch(pts, got.core, got.weights),
                core_distance_batch(pts, full.core, full.weights), 1)
            gap = got.membership_batch(pts) - full.membership_batch(pts)
            assert np.abs(gap).max() <= np.spacing(got.peak)
            (grown_lo, grown_hi), (base_lo, base_hi) = (
                central_bounds(got.core), central_bounds(full.core))
            assert np.all(grown_lo <= base_lo) and np.all(grown_hi >= base_hi)
            assert _fold_prune(got.core.cuboids, {"pruned": 0}) == got.core.cuboids
            pruned += len(full.core.cuboids) - len(got.core.cuboids)
            ops += 1
            x = got
    assert ops == 150 and pruned >= 40


def test_repair_that_makes_rows_equal_keeps_the_first():
    a = box_core(LINE, [({"x": 0.0}, {"x": 1.0}), ({"x": 0.0}, {"x": 2.0})])
    b = box_core(LINE, [({"x": 5.0}, {"x": 6.0})])
    got = a.union(b)
    # repair stretches both rows of ``a`` to the meet point 7/3
    meet = (0.5 + 1.0 + 5.5) / 3
    assert [(c.p_min[0], c.p_max[0]) for c in got.cuboids] == \
        [(0.0, meet), (meet, 6.0)]


def test_duplicate_rows_count_once_in_the_meet_point():
    # both cores hold [0, 2], and [1, 3] misses [-1, 0.5]
    a = box_core(LINE, [({"x": 0.0}, {"x": 2.0}), ({"x": 1.0}, {"x": 3.0})])
    b = box_core(LINE, [({"x": 0.0}, {"x": 2.0}), ({"x": -1.0}, {"x": 0.5})])
    got = a.union(b)
    # the mean of the centres 1, 2 and -0.25; counting [0, 2] twice would
    # give 3.75 / 4
    meet = 2.75 / 3
    assert got.lo.tolist() == [[0.0], [meet], [-1.0]]
    assert got.hi.tolist() == [[2.0], [3.0], [meet]]


def test_prune_never_shrinks_the_domain_set(monkeypatch):
    # a {color} cuboid contains a {color, size} one; both stay
    a = Core((Cuboid.from_bounds(MIXED, ["color"], {"hue": 0.0, "sat": 0.0},
                                 {"hue": 2.0, "sat": 2.0}),))
    b = Core((Cuboid.from_bounds(MIXED, ["color", "size"],
                                 {"hue": 0.5, "sat": 0.5, "diam": 0.0},
                                 {"hue": 1.0, "sat": 1.0, "diam": 1.0}),))
    for got in (a.union(b), b.union(a)):
        assert len(got.cuboids) == 2
        assert got.domain_set == {"color", "size"}
        Concept(got, 1.0, 1.0, Weights.uniform(MIXED))
    # random mixed-domain families
    rng = np.random.default_rng(35)
    guarded = 0
    for _ in range(150):
        core = random_concept(rng, max_cuboids=4, min_domains=2).core
        names = list(core.domain_set)
        # each cuboid's projection contains the cuboid itself
        shadow = core.project([d for d in names if rng.random() < 0.5]
                              or names[:1])
        other = _partner(rng, core) if rng.random() < 0.5 else shadow
        # cores that share no point have no intersection
        if rng.random() < 0.5 or not cores_intersect(core, other):
            step = lambda core=core, other=other: core.union(other)
        else:
            step = lambda core=core, other=other: core.intersect(other)
        got = step()
        with monkeypatch.context() as m:
            m.setattr(geometry, "_maximal_rows", _keep_all)
            full = step()
        assert got.domain_set == full.domain_set
        Concept(got, 1.0, 1.0,
                random_weights(rng, got.space, sorted(got.domain_set)))
        # kept rows inside a row of fewer domains: the guard held them
        rows = list(zip(got.domains, got.lo, got.hi))
        guarded += sum(
            dc != dd and np.all(lc >= ld) and np.all(hc <= hd)
            for dc, lc, hc in rows for dd, ld, hd in rows)
    assert guarded >= 40


def test_prune_in_blocks_matches_one_broadcast():
    rng = np.random.default_rng(36)
    space = Space((("a", ("a1", "a2", "a3")), ("b", ("b1",)), ("c", ("c1", "c2"))))
    choices = [frozenset({"a", "b", "c"}), frozenset({"a", "c"}),
               frozenset({"a"})]
    rows = {}
    while len(rows) < 150:
        dom = choices[rng.integers(len(choices))]
        own = np.array(space._owned(dom))
        # widths from a small set make containment frequent
        lo = -rng.choice([0.5, 1.0, 2.0], size=space.n)
        hi = rng.choice([0.5, 1.0, 2.0], size=space.n)
        lo, hi = np.where(own, lo, -np.inf), np.where(own, hi, np.inf)
        rows.setdefault((dom, tuple(lo), tuple(hi)), None)
    domains = [d for d, _, _ in rows]
    lo = np.array([r[1] for r in rows])
    hi = np.array([r[2] for r in rows])
    k = len(domains)
    assert k * k * 2 * space.n > 4 * _BLOCK_ENTRIES
    b = np.concatenate([-lo, hi], axis=1)
    code = np.array([choices.index(d) for d in domains])
    inside = (b[:, None] <= b).all(-1) & (code[:, None] == code)
    want = (inside.sum(axis=1) == 1).tolist()
    assert _maximal_rows(domains, lo, hi) == want
    assert 0 < sum(want) < k
    # the same through the algebra: two halves of one family united
    cubs = tuple(Cuboid(space, *row) for row in rows)
    got = Core(cubs[:75]).union(Core(cubs[75:]))
    expect = _fold_union(Core(cubs[:75]), Core(cubs[75:]),
                         {"repair": 0, "pruned": 0})
    assert _bits(got.cuboids) == _bits(expect)


# ---------------------------------------------------------------------------
# Array-first cores: the rows are the state, cuboids are built when read.

def test_algebra_builds_no_cuboids_until_read(monkeypatch):
    rng = np.random.default_rng(37)
    built, repairs = [], []
    post_init, repair_rows = Cuboid.__post_init__, geometry._repair_rows

    def counting_init(self):
        built.append(self)
        post_init(self)

    def counting_repair(lo, hi):
        repairs.append(len(lo))
        return repair_rows(lo, hi)

    for _ in range(12):
        x = random_concept(rng, max_cuboids=4, min_domains=2)
        space = x.space
        near = [random_concept(rng, space, max_cuboids=4) for _ in range(3)]
        # far partners: disjoint cores, so the intersection takes the
        # α-cut path and the union's central region needs repair
        far = [translated(random_concept(rng, space, max_cuboids=4),
                          np.full(space.n, 3.0)) for _ in range(2)]
        target = sorted(space.domain_names)[:-1]
        with monkeypatch.context() as m:
            m.setattr(Cuboid, "__post_init__", counting_init)
            m.setattr(geometry, "_repair_rows", counting_repair)
            y = (x.intersect(near[0]).union(near[1]).intersect(far[0])
                 .union(far[1]).intersect(near[2]).project(target))
            assert built == []
            cubs = y.core.cuboids
            assert len(built) == len(cubs) and y.core.cuboids is cubs
        assert Core(cubs).cuboids == cubs and Core(cubs) == y.core
        assert np.array([c.p_min for c in cubs]).tobytes() == y.core.lo.tobytes()
        assert np.array([c.p_max for c in cubs]).tobytes() == y.core.hi.tobytes()
        assert [c.domains for c in cubs] == list(y.core.domains)
        built.clear()
    assert len(repairs) >= 12


def test_cores_from_rows_and_from_cuboids_are_equal():
    domains = (frozenset({"color"}), frozenset({"color", "size"}))
    lo = np.array([[-0.0, 0.0, -math.inf], [-1.0, -1.0, 0.0]])
    hi = np.array([[1.0, 1.0, math.inf], [0.5, 0.0, 2.0]])
    rows = Core._from_rows(MIXED, domains, lo, hi)
    cubs = (Cuboid(MIXED, domains[0], (0.0, 0.0, -math.inf), (1.0, 1.0, math.inf)),
            Cuboid(MIXED, domains[1], (-1.0, -1.0, 0.0), (0.5, 0.0, 2.0)))
    given = Core(cubs)
    # -0.0 == 0.0, so the cores are equal and must hash equal
    assert math.copysign(1.0, rows.lo[0, 0]) == -1.0
    assert rows == given and hash(rows) == hash(given)
    assert rows.cuboids == cubs and given.cuboids == cubs
    assert {rows} == {given} and {given: 1}[rows] == 1
    w = Weights.uniform(MIXED)
    assert Concept(rows, 0.8, 1.0, w) == Concept(given, 0.8, 1.0, w)
    # another space object of the same structure is the same space
    assert rows == Core(tuple(Cuboid(Space(MIXED.domains), c.domains, c.p_min,
                                     c.p_max) for c in cubs))
    # order, bounds and domains of the rows all count
    assert rows != Core(cubs[::-1]) and rows != Core(cubs[:1])
    assert rows != Core((cubs[0], Cuboid(MIXED, domains[1], (-1.0, -1.0, 0.0),
                                         (0.5, 0.0, 3.0))))
    # algebra results equal their own cuboids, wherever those came from
    rng = np.random.default_rng(38)
    for _ in range(20):
        a = random_concept(rng, max_cuboids=4, min_domains=2).core
        unite, meet = _partner(rng, a), _partner(rng, a)
        results = [a.union(unite)]
        if cores_intersect(a, meet):
            results.append(a.intersect(meet))
        for got in results:
            again = Core(got.cuboids)
            assert got == again and hash(got) == hash(again)
    with pytest.raises(AttributeError):
        rows.lo = hi
    assert not rows.lo.flags.writeable and not rows.hi.flags.writeable


def test_repr_shows_the_rows_and_builds_no_cuboid(monkeypatch):
    domains = (frozenset({"color"}), frozenset({"size", "color"}))
    lo = np.array([[0.0, 0.0, -math.inf], [-1.0, -1.0, 0.0]])
    hi = np.array([[1.0, 1.0, math.inf], [0.5, 0.0, 2.0]])
    core = Core._from_rows(MIXED, domains, lo, hi)

    def refuse(self):
        raise AssertionError("a Cuboid was built")

    monkeypatch.setattr(Cuboid, "__post_init__", refuse)
    assert repr(core) == (
        "Core(domains=[['color'], ['color', 'size']], "
        "lo=[[0.0, 0.0, -inf], [-1.0, -1.0, 0.0]], "
        "hi=[[1.0, 1.0, inf], [0.5, 0.0, 2.0]])")


@pytest.mark.parametrize("domains, lo, hi, message",
                         [f for f in _FAULTS if len(f[1]) == len(f[2]) == 3])
def test_rows_are_checked_like_cuboids(domains, lo, hi, message,
                                       monkeypatch):
    good = Cuboid.from_bounds(MIXED, ["color", "size"],
                              {"hue": 0.0, "sat": 0.0, "diam": 0.0},
                              {"hue": 1.0, "sat": 1.0, "diam": 1.0})

    def refuse(self):
        raise AssertionError("a Cuboid was built")

    # the rows' messages do not come from building a Cuboid
    monkeypatch.setattr(Cuboid, "__post_init__", refuse)
    with pytest.raises(ValidationError) as err:
        Core._from_rows(MIXED, [good.domains, frozenset(domains)],
                        np.array([good.p_min, lo], dtype=float),
                        np.array([good.p_max, hi], dtype=float))
    assert str(err.value) == message
