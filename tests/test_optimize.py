"""Numeric kernels: clamp distance, level-set boxes, height solver, oracle."""

import math
import sys
import warnings

import numpy as np
import pytest

from conceptspaces import (Concept, Core, Cuboid, LatticeSizeError, Space,
                           ValidationError, Weights, alpha_cut_bbox,
                           distance_to_cuboid, grid_oracle_max_min,
                           height_of_intersection, oracle_bounds)
from conceptspaces.geometry import cores_intersect, nearest_point_pairs
from conceptspaces.optimize import (DEFAULT_TOL, _alpha_cut_core, _pair_dual,
                                    _pair_floors, _Term)
import paper_oracle
from conftest import (LINE, PLANE, box_core, line_concept, random_concept,
                      random_space, random_weights, translated)


class TestDistanceToCuboid:
    def test_zero_inside(self):
        c = Cuboid.from_bounds(PLANE, ["width", "height"],
                               {"x": 0.0, "y": 0.0}, {"x": 2.0, "y": 2.0})
        w = Weights.uniform(PLANE)
        assert distance_to_cuboid(PLANE.point({"x": 1.0, "y": 2.0}), c, w) == 0.0

    def test_one_dimensional_clamp(self):
        c = Cuboid.from_bounds(LINE, ["val"], {"x": 0.0}, {"x": 1.0})
        w = Weights.uniform(LINE)
        assert distance_to_cuboid(LINE.point({"x": 3.0}), c, w) == 2.0

    def test_zero_iff_contained(self):
        rng = np.random.default_rng(31)
        c = Cuboid.from_bounds(PLANE, ["width", "height"],
                               {"x": -0.5, "y": 0.0}, {"x": 0.5, "y": 1.0})
        w = Weights.uniform(PLANE)
        for _ in range(300):
            p = PLANE.point({"x": rng.uniform(-1, 1), "y": rng.uniform(-1, 2)})
            assert (distance_to_cuboid(p, c, w) == 0.0) == Core((c,)).contains(p)

    def test_cuboid_without_domains_is_zero_away(self):
        c = Cuboid(PLANE, frozenset(), (-math.inf, -math.inf),
                   (math.inf, math.inf))
        w = Weights.uniform(PLANE)
        assert distance_to_cuboid(PLANE.point({"x": 5.0, "y": -3.0}), c, w) == 0.0

    def test_requires_covering_weights(self):
        c = Cuboid.from_bounds(PLANE, ["width", "height"],
                               {"x": 0.0, "y": 0.0}, {"x": 1.0, "y": 1.0})
        w = Weights.uniform(PLANE, ["width"])
        with pytest.raises(ValidationError):
            distance_to_cuboid(PLANE.point({"x": 0.0, "y": 0.0}), c, w)


class TestAlphaCutBbox:
    def test_identity_at_peak(self):
        c = Cuboid.from_bounds(LINE, ["val"], {"x": 0.0}, {"x": 1.0})
        w = Weights.uniform(LINE)
        assert alpha_cut_bbox(c, 1.0, 1.0, w, 1.0) == c

    def test_unit_example(self):
        c = Cuboid.from_bounds(LINE, ["val"], {"x": 0.0}, {"x": 1.0})
        w = Weights.uniform(LINE)
        got = alpha_cut_bbox(c, 1.0, 1.0, w, math.exp(-1.0))
        assert got.p_min[0] == pytest.approx(-1.0, abs=1e-12)
        assert got.p_max[0] == pytest.approx(2.0, abs=1e-12)

    def test_rejects_level_above_peak(self):
        c = Cuboid.from_bounds(LINE, ["val"], {"x": 0.0}, {"x": 1.0})
        with pytest.raises(ValidationError):
            alpha_cut_bbox(c, 0.5, 1.0, Weights.uniform(LINE), 0.75)

    def test_faces_touch_the_level_set(self):
        space = PLANE
        w = Weights.normalized({"width": 1.2, "height": 0.8},
                               {"width": {"x": 1.0}, "height": {"y": 1.0}})
        cub = Cuboid.from_bounds(space, ["width", "height"],
                                 {"x": 0.0, "y": 0.0}, {"x": 2.0, "y": 1.0})
        concept = Concept(Core((cub,)), 0.9, 1.7, w)
        alpha = 0.4
        box = alpha_cut_bbox(cub, concept.peak, concept.decay, w, alpha)
        mid = 0.5 * (np.array(cub.p_min) + np.array(cub.p_max))
        for i in range(space.n):
            for bound in (box.p_min[i], box.p_max[i]):
                face = mid.copy()
                face[i] = bound
                value = concept.membership(
                    space.point(dict(zip(space.dim_names, face))))
                assert value == pytest.approx(alpha, abs=1e-9)

    def test_contains_the_level_set(self):
        rng = np.random.default_rng(33)
        w = Weights.uniform(PLANE)
        cub = Cuboid.from_bounds(PLANE, ["width", "height"],
                                 {"x": 0.0, "y": 0.0}, {"x": 1.0, "y": 1.0})
        concept = Concept(Core((cub,)), 1.0, 0.8, w)
        alpha = 0.3
        box = alpha_cut_bbox(cub, 1.0, 0.8, w, alpha)
        pts = rng.uniform(-4, 5, size=(4000, 2))
        members = concept.membership_batch(pts) >= alpha
        assert Core((box,)).contains_batch(pts)[members].all()

    def test_unbounded_dimensions_stay_unbounded(self):
        space = Space((("a", ("a1",)), ("b", ("b1",))))
        cub = Cuboid.from_bounds(space, ["a"], {"a1": 0.0}, {"a1": 1.0})
        got = alpha_cut_bbox(cub, 1.0, 1.0, Weights.uniform(space), 0.5)
        assert got.p_min[1] == -math.inf and got.p_max[1] == math.inf
        assert got.domains == {"a"}


class TestHeightOfIntersection:
    def test_identical_concepts_short_circuit(self):
        a = line_concept(0, 1, peak=0.8)
        res = height_of_intersection(a, a)
        assert res.value == 0.8
        assert res.iterations == 0
        assert res.converged
        assert a.membership(res.witness) == 0.8

    def test_disjoint_unit_boxes(self):
        a = line_concept(0, 1)
        b = line_concept(3, 4)
        res = height_of_intersection(a, b)
        assert res.value == pytest.approx(math.exp(-1.0), abs=1e-9)
        assert res.witness.coords[0] == pytest.approx(2.0, abs=1e-6)
        assert res.converged

    def test_asymmetric_decay(self):
        a = line_concept(0, 0, decay=1.0)
        b = line_concept(3, 3, decay=2.0)
        res = height_of_intersection(a, b)
        assert res.value == pytest.approx(math.exp(-2.0), abs=1e-9)
        assert res.witness.coords[0] == pytest.approx(2.0, abs=1e-6)

    def test_witness_attains_value(self):
        a = line_concept(0, 1, peak=0.7, decay=1.3)
        b = line_concept(2.5, 4, peak=0.9, decay=0.6)
        res = height_of_intersection(a, b)
        attained = min(a.membership(res.witness), b.membership(res.witness))
        assert attained == pytest.approx(res.value, rel=1e-12)

    def test_never_below_midpoint_heuristic(self):
        rng = np.random.default_rng(34)
        from conftest import random_concept, random_space
        for _ in range(25):
            space = random_space(rng)
            c1 = random_concept(rng, space)
            c2 = random_concept(rng, space)
            res = height_of_intersection(c1, c2)
            for x in c1.core.cuboids:
                for y in c2.core.cuboids:
                    mid_arr = 0.5 * (Core((x,)).central_point.array
                                     + Core((y,)).central_point.array)
                    mid = space.point(dict(zip(space.dim_names, mid_arr)))
                    bound = min(c1.membership(mid), c2.membership(mid))
                    assert res.value >= bound - 1e-12

    def test_bound_dominates_sampled_memberships(self):
        # Weak duality: no point's minimum membership exceeds the dual bound,
        # here on pairs whose dimension weights differ within a domain.
        rng = np.random.default_rng(35)
        for _ in range(12):
            space = random_space(rng)
            c1 = random_concept(rng, space)
            c2 = translated(random_concept(rng, space),
                             rng.uniform(-3.0, 3.0, space.n))
            res = height_of_intersection(c1, c2)
            assert res.value <= res.bound
            assert res.converged and res.gap <= 1e-9
            lo1, hi1 = c1.core.bounding_box()
            lo2, hi2 = c2.core.bounding_box()
            lo, hi = np.minimum(lo1, lo2) - 1.0, np.maximum(hi1, hi2) + 1.0
            pts = np.vstack([rng.uniform(lo, hi, (400, space.n)),
                             res.witness.array + rng.normal(0, 0.05, (200, space.n))])
            sampled = np.minimum(c1.membership_batch(pts),
                                 c2.membership_batch(pts))
            assert sampled.max() <= res.bound * (1 + 1e-12)

    def test_gap_too_large_to_square(self):
        a = line_concept(0.0, 1.0, decay=1e-200)
        b = line_concept(1e200, 2e200, decay=1e-200)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = height_of_intersection(a, b)
        assert abs(res.value - math.exp(-0.5)) <= 1e-12
        assert res.bound >= res.value

    def test_heights_are_scale_free_past_the_square_limit(self):
        # coordinates times s and decays over s leave every height as it
        # is; s = 1e200 makes every gap too large to square
        def scaled(c, s):
            core = c.core
            cubs = tuple(Cuboid(c.space, d, tuple(lo * s), tuple(hi * s))
                         for d, lo, hi in zip(core.domains, core.lo, core.hi))
            return Concept(Core(cubs), c.peak, c.decay / s, c.weights)

        for c1, c2 in _disjoint_pairs(np.random.default_rng(12), 30):
            want = height_of_intersection(c1, c2)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = height_of_intersection(scaled(c1, 1e200),
                                             scaled(c2, 1e200))
            assert got.value == pytest.approx(want.value, rel=1e-9)
            assert got.bound == pytest.approx(want.bound, rel=1e-9)

    def test_mixed_weights_regression_fixture(self):
        first, second = _mixed_weights_pair()
        res = height_of_intersection(first, second)
        step = 4e-3
        # the box (a1, a2) in [-1.5, 0] x [-2, -0.5] holds the optimum
        oracle = paper_oracle.lattice_max_min(first, second, (-1.5, -2.0),
                                              (0.0, -0.5), step)
        # A lattice point lies within step/2 of the optimum on each axis.
        step_error = (max(first.peak, second.peak)
                      * max(first.decay, second.decay) * step)
        assert abs(res.value - oracle) <= 1e-3
        assert res.value >= oracle - step_error
        assert res.converged and res.gap <= 1e-6


def _mixed_weights_pair():
    """One 2-D domain whose two concepts weight its dimensions differently:
    the optimum leaves the straight nearest-point segment."""
    space = Space((("a", ("a1", "a2")),))
    first = Concept(box_core(space, [
        ({"a1": -0.05802493977537493, "a2": -0.16322183447831717},
         {"a1": 0.28372288403492607, "a2": 0.8612192821865905}),
        ({"a1": 0.020102710463602125, "a2": -0.5184570492592775},
         {"a1": 0.27688516947476594, "a2": 1.21671354334463}),
    ]), 0.5279595521021805, 0.5949269951217153, Weights(
        {"a": 1.0}, {"a": {"a1": 0.6610062459611749,
                           "a2": 0.33899375403882515}}))
    second = Concept(box_core(space, [
        ({"a1": -2.5263007364801644, "a2": -2.643467130197015},
         {"a1": -1.4054956597445334, "a2": -1.736864587322783}),
        ({"a1": -2.4697318859381974, "a2": -2.802305129389894},
         {"a1": -1.2400135448861045, "a2": -2.357318928507642}),
        ({"a1": -2.5622904190990456, "a2": -3.3249353144148523},
         {"a1": -1.505873722368524, "a2": -1.7651400049649513}),
    ]), 0.8077081398963799, 1.0843087407273566, Weights(
        {"a": 1.0}, {"a": {"a1": 0.3520047076459782,
                           "a2": 0.6479952923540218}}))
    return first, second


def _pair_rows(c1, c2):
    """Nearest point of every cuboid pair on the first core, and the gap."""
    near1, near2 = nearest_point_pairs(c1.core, c2.core)
    points = near1.reshape(-1, c1.space.n)
    return points, near2.reshape(-1, c1.space.n) - points


def _pair_duals(c1, c2):
    """Every cuboid pair's certified dual and witness, in row order, each
    pair's search capped at ``_DUAL_CAP`` evaluations as in the solver."""
    space = c1.space
    m1, m2 = c1.weights.metric(space), c2.weights.metric(space)
    k1, k2 = -math.log(c1.peak), -math.log(c2.peak)
    points, deltas = _pair_rows(c1, c2)
    duals, witnesses = [], []
    for pa, delta in zip(points, deltas):
        terms, pos = [], 0
        for name, dims in space.domains:
            span = slice(pos, pos + len(dims))
            pos += len(dims)
            if (name in c1.weights.domain_set and name in c2.weights.domain_set
                    and delta[span].any()):
                terms.append(_Term(
                    span, c1.decay * c1.weights.domain_weights[name],
                    c2.decay * c2.weights.domain_weights[name],
                    m1.wdim[span], m2.wdim[span], delta[span]))
        dual, fracs, _ = _pair_dual(k1, k2, terms)
        f = np.zeros(space.n)
        for term, frac in zip(terms, fracs):
            f[term.span] = frac
        duals.append(dual)
        witnesses.append(pa + f * delta)
    return duals, np.array(witnesses)


def _exhaustive_height(c1, c2):
    """The height solved on every cuboid pair, with no pair skipped."""
    duals, witnesses = _pair_duals(c1, c2)
    values = np.minimum(c1.membership_batch(witnesses),
                        c2.membership_batch(witnesses))
    best = int(np.argmax(values))
    value = float(values[best])
    bound = max(math.exp(-min(duals)), value)
    return (value, bound, tuple(witnesses[best].tolist()),
            bound - value <= DEFAULT_TOL)


def _property(rng, space, domain, weights=None):
    """One-domain concept of 1-4 cuboids whose weights cover only it."""
    dims = space.dims_of(domain)
    anchor = rng.uniform(-2.0, 2.0, len(dims))
    cuboids = [Cuboid.from_bounds(
        space, [domain], dict(zip(dims, anchor - rng.uniform(0.05, 1.5, len(dims)))),
        dict(zip(dims, anchor + rng.uniform(0.05, 1.5, len(dims)))))
        for _ in range(int(rng.integers(1, 5)))]
    weights = weights or random_weights(rng, space, [domain])
    return Concept(Core(tuple(cuboids)), float(rng.uniform(0.5, 1.0)),
                   float(rng.uniform(0.4, 2.5)), weights)


def _disjoint_pairs(rng, count):
    """Concept pairs with disjoint cores: shared weights, differing weights,
    and a one-domain property against a concept over every domain."""
    pairs = []
    while len(pairs) < count:
        space = random_space(rng)
        kind = len(pairs) % 3
        c2 = random_concept(rng, space, max_cuboids=4)
        if kind == 2:
            c1 = _property(rng, space, space.domain_names[
                int(rng.integers(len(space.domain_names)))])
        else:
            c1 = random_concept(rng, space, max_cuboids=4)
            if kind == 0:
                c1 = Concept(c1.core, c1.peak, c1.decay, c2.weights)
        c2 = translated(c2, rng.uniform(-4.0, 4.0, space.n))
        if not cores_intersect(c1.core, c2.core):
            pairs.append((c1, c2))
    return pairs


class TestBestFirstPairs:
    def test_matches_exhaustive_search(self):
        rng = np.random.default_rng(36)
        for c1, c2 in _disjoint_pairs(rng, 150):
            res = height_of_intersection(c1, c2)
            value, bound, witness, converged = _exhaustive_height(c1, c2)
            assert res.value == value
            assert res.bound == bound
            assert res.witness.coords == witness
            assert res.converged == converged

    def test_floor_is_certified(self):
        rng = np.random.default_rng(37)
        for c1, c2 in _disjoint_pairs(rng, 120):
            m1, m2 = c1.weights.metric(c1.space), c2.weights.metric(c2.space)
            floors = _pair_floors(c1, c2, m1, m2, -math.log(c1.peak),
                                  -math.log(c2.peak), _pair_rows(c1, c2)[1])
            duals, _ = _pair_duals(c1, c2)
            for floor, dual in zip(floors.tolist(), duals):
                if c1.weights is c2.weights:
                    assert floor == pytest.approx(dual, rel=1e-12, abs=1e-15)
                else:
                    assert floor <= dual + 1e-12 * (1.0 + abs(dual))

    def test_skips_pairs_that_cannot_win(self):
        # Two crosses of three cuboids whose long arms face each other: only
        # the pair of arms is solved, as if the cores held nothing else.
        def cross(x0, arm):
            return [({"x": x0 + min(0, arm), "y": -0.2},
                     {"x": x0 + max(0, arm), "y": 0.2}),
                    ({"x": x0 - 0.3, "y": -2.0}, {"x": x0 + 0.3, "y": 2.0}),
                    ({"x": x0 - 0.5, "y": -0.5}, {"x": x0 + 0.5, "y": 0.5})]

        w1 = Weights.uniform(PLANE)
        w2 = Weights.normalized({"width": 1.3, "height": 0.7},
                                {"width": {"x": 1.0}, "height": {"y": 1.0}})
        full1, full2 = cross(0.0, 3.0), cross(10.0, -3.0)
        a = Concept(box_core(PLANE, full1), 0.9, 1.0, w1)
        b = Concept(box_core(PLANE, full2), 0.8, 1.4, w2)
        arm_a = Concept(box_core(PLANE, full1[:1]), 0.9, 1.0, w1)
        arm_b = Concept(box_core(PLANE, full2[:1]), 0.8, 1.4, w2)
        res = height_of_intersection(a, b)
        alone = height_of_intersection(arm_a, arm_b)
        assert len(a.core.domains) == len(b.core.domains) == 3
        assert res.iterations == alone.iterations > 0
        assert res.value == alone.value and res.converged

    def test_large_cores_converge(self):
        # Every solved pair gets the full per-pair cap however many pairs
        # the cores make: 64 x 64 cuboids under differing weights.
        rng = np.random.default_rng(38)
        space = random_space(rng)
        while len(space.domain_names) < 3:
            space = random_space(rng)

        def many(anchor):
            cuboids = tuple(Cuboid(space, frozenset(space.domain_names),
                                   tuple(anchor - rng.uniform(0.05, 1.0, space.n)),
                                   tuple(anchor + rng.uniform(0.05, 1.0, space.n)))
                            for _ in range(64))
            return Concept(Core(cuboids), float(rng.uniform(0.5, 1.0)),
                           float(rng.uniform(0.4, 2.5)),
                           random_weights(rng, space))

        anchor = rng.uniform(-2.0, 2.0, space.n)
        offset = rng.normal(size=space.n)
        c1 = many(anchor)
        c2 = many(anchor + offset * (2.5 / np.abs(offset).max()))
        assert not cores_intersect(c1.core, c2.core)
        res = height_of_intersection(c1, c2)
        value, bound, witness, converged = _exhaustive_height(c1, c2)
        assert res.converged and converged
        assert res.value == value
        assert res.bound == bound
        assert res.witness.coords == witness
        assert c1.intersect(c2).peak == value

    def test_capped_pair_keeps_certified_bound(self, monkeypatch):
        # A pair cut at the cap still brackets the height it did not reach.
        first, second = _mixed_weights_pair()
        full = height_of_intersection(first, second)
        assert full.converged
        monkeypatch.setattr("conceptspaces.optimize._DUAL_CAP", 3)
        capped = height_of_intersection(first, second)
        pairs = len(first.core.domains) * len(second.core.domains)
        assert 0 < capped.iterations <= 3 * pairs
        assert not capped.converged and capped.gap > DEFAULT_TOL
        assert capped.value <= full.value <= full.bound <= capped.bound
        assert min(first.membership(capped.witness),
                   second.membership(capped.witness)) == capped.value


class TestIntersectionHoldsWitness:
    """The α-cut boxes of disjoint cores are rounded outward, so the
    intersection's core holds the point that attains its peak."""

    def test_random_disjoint_pairs(self):
        rng = np.random.default_rng(5)
        for c1, c2 in _disjoint_pairs(rng, 300):
            res = height_of_intersection(c1, c2)
            got = c1.intersect(c2)
            assert got.peak == res.value
            assert got.core.contains(res.witness)

    def test_tiny_gap(self):
        # the height rounds to the peak, so ln(peak / alpha) is 0 although
        # the witness lies outside both cores
        a = line_concept(0.0, 1.0, decay=1e-3)
        b = line_concept(1.0 + 1e-14, 2.0, decay=1e-3)
        res = height_of_intersection(a, b)
        assert res.value == 1.0
        assert not a.core.contains(res.witness)
        assert not b.core.contains(res.witness)
        (lo_a, hi_a), (lo_b, hi_b) = (_alpha_cut_core(c, res.value)
                                      for c in (a, b))
        assert (np.maximum(lo_a, lo_b) <= np.minimum(hi_a, hi_b)).all()
        got = a.intersect(b)
        assert got.peak == 1.0 and got.core.contains(res.witness)

    def test_smallest_decay(self):
        # the radius overflows; the grown bounds stop at the largest float
        a = line_concept(0.0, 1.0, decay=5e-324)
        b = line_concept(3.0, 4.0, decay=5e-324)
        res = height_of_intersection(a, b)
        assert res.value == 1.0
        lo, hi = _alpha_cut_core(a, res.value)
        assert lo.tolist() == [[-sys.float_info.max]]
        assert hi.tolist() == [[sys.float_info.max]]
        got = a.intersect(b)
        assert got.peak == 1.0 and got.core.contains(res.witness)


class TestDisjointPath:
    """What the disjoint-core path of the height and the intersection
    relies on, pinned against the routes it replaced."""

    def test_no_iterations_exactly_when_cores_touch(self):
        rng = np.random.default_rng(8)
        touching = 0
        for _ in range(300):
            space = random_space(rng)
            c1 = random_concept(rng, space)
            c2 = translated(random_concept(rng, space),
                            rng.uniform(-3.0, 3.0, space.n))
            meet = cores_intersect(c1.core, c2.core)
            touching += meet
            assert (height_of_intersection(c1, c2).iterations == 0) == meet
        assert 50 < touching < 250

    def test_value_is_the_smaller_membership_at_the_witness(self):
        for c1, c2 in _disjoint_pairs(np.random.default_rng(9), 150):
            res = height_of_intersection(c1, c2)
            assert res.value == min(c1.membership(res.witness),
                                    c2.membership(res.witness))

    def test_intersection_equals_the_core_route(self):
        # the grown rows built into cores and intersected as cores give
        # the same bits as the rows intersected directly
        for c1, c2 in _disjoint_pairs(np.random.default_rng(10), 150):
            alpha = height_of_intersection(c1, c2).value
            grown = [Core._from_rows(c.space, c.core.domains,
                                     *_alpha_cut_core(c, alpha))
                     for c in (c1, c2)]
            want = grown[0].intersect(grown[1])
            got = c1.intersect(c2).core
            assert got.domains == want.domains
            assert got.lo.tobytes() == want.lo.tobytes()
            assert got.hi.tobytes() == want.hi.tobytes()

    def test_bound_does_not_underflow(self):
        # the true height e**-995 is positive, but below the smallest float
        a = line_concept(0.0, 1.0, decay=10.0)
        b = line_concept(200.0, 201.0, decay=10.0)
        res = height_of_intersection(a, b)
        assert res.value == 0.0
        assert res.bound == math.ulp(0.0)
        assert res.converged


class TestGridOracle:
    def test_identical_concepts(self):
        a = line_concept(0, 1, peak=0.85, decay=1.1)
        got = grid_oracle_max_min(a, a, oracle_bounds(a, a), 1e-3)
        assert got == pytest.approx(0.85, abs=0.85 * 1.1 * 1e-3)

    def test_disjoint_boxes_fixture(self):
        a = line_concept(0, 1)
        b = line_concept(3, 4)
        got = grid_oracle_max_min(a, b, oracle_bounds(a, b), 1e-4)
        assert got == pytest.approx(math.exp(-1.0), abs=1e-4)

    def test_matches_solver_in_two_domains(self):
        a = Concept(box_core(PLANE, [({"x": 0.0, "y": 0.0},
                                      {"x": 1.0, "y": 1.0})]),
                    1.0, 1.0, Weights.uniform(PLANE))
        b = Concept(box_core(PLANE, [({"x": 2.0, "y": 0.0},
                                      {"x": 3.0, "y": 1.0})]),
                    1.0, 1.0, Weights.uniform(PLANE))
        solver = height_of_intersection(a, b).value
        oracle = grid_oracle_max_min(a, b, oracle_bounds(a, b), 5e-3)
        assert solver == pytest.approx(oracle, abs=1e-3)

    # the last two count more steps than the largest float
    @pytest.mark.parametrize("x, step", [((0.0, 1.0), 1e-9),
                                         ((-1e308, 1e308), 0.5),
                                         ((0.0, 1.0), 5e-324)])
    def test_lattice_cap(self, x, step):
        a = line_concept(0, 1)
        b = line_concept(3, 4)
        with pytest.raises(LatticeSizeError):
            grid_oracle_max_min(a, b, {"x": x}, step)

    def test_bounds_must_cover_all_dimensions(self):
        a = Concept(box_core(PLANE, [({"x": 0.0, "y": 0.0},
                                      {"x": 1.0, "y": 1.0})]),
                    1.0, 1.0, Weights.uniform(PLANE))
        with pytest.raises(ValidationError):
            grid_oracle_max_min(a, a, {"x": (-1.0, 2.0)}, 0.1)


def test_oracle_bounds_enclose_cores():
    a = line_concept(0, 1, decay=2.0)
    b = line_concept(3, 4, decay=0.5)
    bounds = oracle_bounds(a, b)
    lo, hi = bounds["x"]
    assert lo <= 0 - 3 / 2.0
    assert hi >= 4 + 3 / 0.5
