"""Fuzzy concepts: membership, level sets, the fuzzy operations."""

import math
import warnings

import numpy as np
import pytest

from conceptspaces import (CombinationParams, Concept, Core, Cuboid, Point,
                           Space, UnrelatedConceptsError, ValidationError,
                           Weights, combine_adjective_noun, combined_distance,
                           domain_distance, optimize, subsethood_check)
from conceptspaces.concept import _intersect_at

import paper_oracle
from conftest import (LINE, PLANE, between_points, box_core, central_bounds,
                      line_concept, random_concept, sample_window,
                      uniform_points)

MIXED = Space((("color", ("hue", "sat")), ("size", ("diam",))))


def as_point(space, coords):
    return space.point(dict(zip(space.dim_names, coords)))


class TestConceptValidation:
    def test_peak_and_decay_ranges(self):
        core = box_core(LINE, [({"x": 0.0}, {"x": 1.0})])
        w = Weights.uniform(LINE)
        with pytest.raises(ValidationError):
            Concept(core, 0.0, 1.0, w)
        with pytest.raises(ValidationError):
            Concept(core, 1.2, 1.0, w)
        with pytest.raises(ValidationError):
            Concept(core, 1.0, 0.0, w)

    def test_weights_must_match_core_domains(self):
        core = box_core(PLANE, [({"x": 0.0, "y": 0.0}, {"x": 1.0, "y": 1.0})])
        with pytest.raises(ValidationError):
            Concept(core, 1.0, 1.0, Weights.uniform(PLANE, ["width"]))

    def test_combination_params_range(self):
        with pytest.raises(ValidationError):
            CombinationParams(s=-0.1)
        with pytest.raises(ValidationError):
            CombinationParams(t=1.5)


class TestMembership:
    def test_peak_inside_any_cuboid(self, fig_cross):
        assert fig_cross.membership(PLANE.point({"x": 0.1, "y": 2.0})) == 1.0
        assert fig_cross.membership(PLANE.point({"x": 2.0, "y": 3.9})) == 1.0

    def test_far_point_underflows_to_zero(self):
        # Membership lies in [0, peak]: exp(-1000) underflows to 0.
        concept = line_concept(0.0, 1.0, decay=10.0)
        far = LINE.point({"x": 101.0})
        assert concept.membership(far) == 0.0
        assert concept.membership_batch(far.array[None, :])[0] == 0.0

    def test_half_at_distance_ln2(self):
        concept = line_concept(0.0, 1.0)
        x = 1.0 + math.log(2.0)
        # cross-check the clamped distance with the reference's lattice
        brute = paper_oracle.lattice_distance(
            LINE, concept.weights, (x,), concept.core.lo[0],
            concept.core.hi[0], math.log(2.0) / 128)
        assert brute == pytest.approx(math.log(2.0), abs=1e-2)
        assert concept.membership(LINE.point({"x": x})) == pytest.approx(
            0.5, rel=1e-12)

    def test_level_sets_nested_and_star_shaped(self, fig_cross):
        rng = np.random.default_rng(41)
        lo, hi = sample_window(fig_cross)
        pool = uniform_points(rng, lo, hi, 6000)
        values = fig_cross.membership_batch(pool)
        reg_lo, reg_hi = central_bounds(fig_cross.core)
        for alpha in (1.0, 0.5, 0.25):
            members = pool[values >= alpha]
            assert len(members) > 0
            anchors = rng.uniform(reg_lo, reg_hi, size=(len(members), 2))
            mids = between_points(rng, PLANE, anchors[0], members)
            mids_membership = fig_cross.membership_batch(mids)
            assert (mids_membership >= alpha - 1e-9).all()
        counts = [(values >= a).sum() for a in (1.0, 0.5, 0.25)]
        assert counts[0] < counts[1] < counts[2]

    def test_batch_matches_scalar(self, fig_cross):
        rng = np.random.default_rng(42)
        pts = rng.uniform(-2, 6, size=(50, 2))
        batch = fig_cross.membership_batch(pts)
        for row, expected in zip(pts, batch):
            assert fig_cross.membership(as_point(PLANE, row)) == pytest.approx(
                expected, rel=1e-12)

    def test_extreme_coordinates_do_not_overflow(self):
        # 1e300 squared overflows; the true distance is 1e300, so with decay
        # 1e-300 the membership is exactly exp(-1).
        space = Space((("a", ("x", "y")),))
        weights = Weights.uniform(space)
        core = box_core(space, [({"x": 0.0, "y": 0.0}, {"x": 0.0, "y": 0.0})])
        concept = Concept(core, 1.0, 1e-300, weights)
        far = space.point({"x": 1e300, "y": 1e300})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            scalar = concept.membership(far)
            batch = concept.membership_batch(np.array([[1e300, 1e300]]))
            dist = combined_distance(far, space.point({"x": 0.0, "y": 0.0}),
                                     weights)
        assert scalar == pytest.approx(math.exp(-1.0), rel=1e-12)
        assert batch[0] == pytest.approx(math.exp(-1.0), rel=1e-12)
        assert math.isfinite(dist)

    def test_extreme_gaps_leave_ordinary_ones_exact(self):
        # Rescaling for one huge gap must not flush the other rows, or the
        # other domains of the same row, to zero.
        weights = Weights.uniform(MIXED)
        core = box_core(MIXED, [({"hue": 0.0, "sat": 0.0, "diam": 0.0},
                                 {"hue": 0.0, "sat": 0.0, "diam": 0.0})])
        coords = np.array([[1e300, 1e300, 3.0], [3.0, 4.0, 0.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = optimize.core_distance_batch(coords, core, weights)
            size = domain_distance(as_point(MIXED, coords[0]),
                                   as_point(MIXED, (0.0, 0.0, 0.0)),
                                   "size", weights)
        np.testing.assert_allclose(got, [1e300, math.sqrt(12.5)], rtol=1e-12)
        assert size == 3.0

    def test_point_from_another_layout_is_rejected(self):
        # Same dimensions, grouped into domains differently.
        other = Space((("color", ("hue",)), ("tone", ("sat",)),
                       ("size", ("diam",))))
        concept = Concept(
            box_core(MIXED, [({"hue": 0.0, "sat": 0.0, "diam": 0.0},
                              {"hue": 1.0, "sat": 1.0, "diam": 1.0})]),
            1.0, 1.0, Weights.uniform(MIXED))
        with pytest.raises(ValidationError):
            concept.membership(Point(other, (0.5, 0.5, 0.5)))

    def test_lipschitz_continuity(self):
        rng = np.random.default_rng(43)
        concept = random_concept(rng)
        space = concept.space
        lo, hi = sample_window(concept)
        for _ in range(300):
            a = as_point(space, rng.uniform(lo, hi))
            b = as_point(space, rng.uniform(lo, hi))
            diff = abs(concept.membership(a) - concept.membership(b))
            bound = (concept.peak * concept.decay
                     * combined_distance(a, b, concept.weights))
            assert diff <= bound + 1e-12

    def test_lower_decay_raises_membership_outside_core(self):
        sharp = line_concept(0.0, 1.0, decay=2.0)
        soft = line_concept(0.0, 1.0, decay=0.5)
        rng = np.random.default_rng(44)
        for _ in range(100):
            x = LINE.point({"x": rng.uniform(1.0 + 1e-6, 10.0)})
            assert soft.membership(x) > sharp.membership(x)


class TestAlphaCut:
    def test_at_peak_level(self):
        concept = line_concept(0.0, 1.0, peak=0.8)
        assert concept.alpha_cut_contains(LINE.point({"x": 0.5}), 0.8)
        assert not concept.alpha_cut_contains(LINE.point({"x": 1.5}), 0.8)

    def test_above_peak_is_empty(self):
        concept = line_concept(0.0, 1.0, peak=0.8)
        for x in (-1.0, 0.5, 3.0):
            assert not concept.alpha_cut_contains(LINE.point({"x": x}), 0.9)

    def test_tiny_levels_reach_far_points(self):
        # decay 0.5 keeps the exponent above the float64 underflow limit
        concept = line_concept(0.0, 1.0, decay=0.5)
        far = LINE.point({"x": 1e3})
        assert concept.membership(far) > 0.0
        assert concept.alpha_cut_contains(far, math.exp(-500.0))


class TestIntersect:
    def test_self_intersection_is_identity(self, fig_cross):
        rng = np.random.default_rng(45)
        got = fig_cross.intersect(fig_cross)
        assert got.peak == fig_cross.peak
        assert got.decay == fig_cross.decay
        assert got.weights == fig_cross.weights
        pts = uniform_points(rng, *sample_window(fig_cross), 2000)
        assert np.allclose(got.membership_batch(pts),
                           fig_cross.membership_batch(pts), atol=1e-9)

    def test_disjoint_line_cores(self):
        a = line_concept(0.0, 1.0)
        b = line_concept(3.0, 4.0)
        got = a.intersect(b)
        assert got.peak == pytest.approx(math.exp(-1.0), abs=1e-9)
        assert got.core.cuboids[0].p_min[0] == pytest.approx(2.0, abs=1e-6)
        assert got.core.cuboids[0].p_max[0] == pytest.approx(2.0, abs=1e-6)

    def test_touching_cores_skip_the_height_solver(self, monkeypatch,
                                                   fig_cross):
        other = Concept(box_core(PLANE, [({"x": 3.0, "y": 3.0},
                                          {"x": 5.0, "y": 5.0})]),
                        0.8, 1.0, Weights.uniform(PLANE))
        far = Concept(box_core(PLANE, [({"x": 6.0, "y": 6.0},
                                        {"x": 7.0, "y": 7.0})]),
                      0.8, 1.0, Weights.uniform(PLANE))
        height = optimize.height_of_intersection(fig_cross, other)
        assert height.iterations == 0 and height.value == 0.8
        expected = _intersect_at(fig_cross, other, height.value, None, True)
        calls = []
        solve = optimize.height_of_intersection

        def counted(*args, **kwargs):
            calls.append(args)
            return solve(*args, **kwargs)

        monkeypatch.setattr(optimize, "height_of_intersection", counted)
        assert fig_cross.intersect(other) == expected
        assert calls == []
        # disjoint cores still solve the height, once
        fig_cross.intersect(far)
        assert len(calls) == 1

    def test_disjoint_domain_sets_cross_product(self):
        color = Concept(
            Core((Cuboid.from_bounds(MIXED, ["color"],
                                     {"hue": 0.0, "sat": 0.0},
                                     {"hue": 1.0, "sat": 1.0}),)),
            0.9, 1.0, Weights.uniform(MIXED, ["color"]))
        size = Concept(
            Core((Cuboid.from_bounds(MIXED, ["size"],
                                     {"diam": 5.0}, {"diam": 6.0}),)),
            0.7, 2.0, Weights.uniform(MIXED, ["size"]))
        got = color.intersect(size)
        assert got.peak == 0.7
        assert got.decay == 1.0
        assert len(got.core.cuboids) == 1
        assert got.core.cuboids[0].p_min == (0.0, 0.0, 5.0)
        assert got.core.domain_set == {"color", "size"}
        assert got.weights.domain_weights == {"color": 1.0, "size": 1.0}

    def test_weight_blending_and_renormalization(self):
        w1 = Weights.normalized({"width": 1.4, "height": 0.6},
                                {"width": {"x": 1.0}, "height": {"y": 1.0}})
        w2 = Weights.normalized({"width": 0.8, "height": 1.2},
                                {"width": {"x": 1.0}, "height": {"y": 1.0}})
        a = Concept(box_core(PLANE, [({"x": 0.0, "y": 0.0},
                                      {"x": 1.0, "y": 1.0})]), 1.0, 1.0, w1)
        b = Concept(box_core(PLANE, [({"x": 0.5, "y": 0.5},
                                      {"x": 2.0, "y": 2.0})]), 1.0, 2.0, w2)
        got = a.intersect(b, CombinationParams(s=0.25, t=0.5))
        expected_width = 0.25 * 1.4 + 0.75 * 0.8
        expected_height = 0.25 * 0.6 + 0.75 * 1.2
        total = expected_width + expected_height
        assert got.weights.domain_weights["width"] == pytest.approx(
            2 * expected_width / total)
        assert got.weights.domain_weights["height"] == pytest.approx(
            2 * expected_height / total)
        assert got.decay == 1.0

    def test_bounding_box_path_keeps_witness(self):
        # separated boxes in two domains: the level-set boxes must overlap
        # around the optimum
        a = Concept(box_core(PLANE, [({"x": 0.0, "y": 0.0},
                                      {"x": 1.0, "y": 1.0})]),
                    1.0, 1.0, Weights.uniform(PLANE))
        b = Concept(box_core(PLANE, [({"x": 3.0, "y": 0.0},
                                      {"x": 4.0, "y": 1.0})]),
                    1.0, 1.0, Weights.uniform(PLANE))
        got = a.intersect(b)
        assert got.peak == pytest.approx(math.exp(-1.0), abs=1e-9)
        witness = PLANE.point({"x": 2.0, "y": 0.5})
        assert got.core.contains(witness)

    def test_far_apart_concepts_raise(self):
        a = line_concept(0.0, 1.0)
        b = line_concept(1e5, 1e5 + 1.0)
        with pytest.raises(UnrelatedConceptsError):
            a.intersect(b)


class TestSharedWeights:
    def test_shared_weights_are_kept_bit_for_bit(self):
        rng = np.random.default_rng(39)
        for _ in range(100):
            a = random_concept(rng, max_cuboids=3, min_domains=2)
            w = a.weights
            # equal weights in another object, on another core
            b = random_concept(rng, a.space)
            b = Concept(b.core, b.peak, b.decay,
                        Weights(w.domain_weights, w.dimension_weights))
            # the same core: the intersection takes the touching path
            c = Concept(a.core, float(rng.uniform(0.5, 1.0)),
                        float(rng.uniform(0.4, 2.5)), b.weights)
            for got in (a.union(b), a.intersect(c)):
                assert got.weights is w
                assert got.weights.metric(a.space) is w.metric(a.space)
            assert a.union(b).decay == min(a.decay, b.decay)


class TestUnion:
    def test_self_union_is_identity(self, fig_cross):
        rng = np.random.default_rng(46)
        got = fig_cross.union(fig_cross)
        assert got.peak == fig_cross.peak
        assert got.decay == fig_cross.decay
        assert got.weights == fig_cross.weights
        pts = uniform_points(rng, *sample_window(fig_cross), 2000)
        assert np.array_equal(got.membership_batch(pts),
                              fig_cross.membership_batch(pts))

    def test_peak_is_exact_max(self):
        a = line_concept(0.0, 1.0, peak=0.6)
        b = line_concept(0.5, 2.0, peak=0.9)
        assert a.union(b).peak == 0.9

    def test_dominates_fuzzy_max_union(self):
        rng = np.random.default_rng(47)
        for _ in range(10):
            space = PLANE
            w = Weights.uniform(space)
            lo1 = rng.uniform(-2, 1, 2)
            lo2 = rng.uniform(-2, 1, 2)
            a = Concept(box_core(space, [(dict(zip(("x", "y"), lo1)),
                                          dict(zip(("x", "y"), lo1 + 1)))]),
                        float(rng.uniform(0.5, 1)), float(rng.uniform(0.5, 2)), w)
            b = Concept(box_core(space, [(dict(zip(("x", "y"), lo2)),
                                          dict(zip(("x", "y"), lo2 + 1)))]),
                        float(rng.uniform(0.5, 1)), float(rng.uniform(0.5, 2)), w)
            got = a.union(b)
            pts = rng.uniform(-4, 4, size=(1000, 2))
            fuzzy_max = np.maximum(a.membership_batch(pts),
                                   b.membership_batch(pts))
            assert (fuzzy_max <= got.membership_batch(pts) + 1e-9).all()

    def test_bridged_core_has_peak_membership_at_midpoint(self):
        a = line_concept(0.0, 1.0, peak=0.8)
        b = line_concept(3.0, 4.0, peak=0.95)
        got = a.union(b)
        assert got.membership(LINE.point({"x": 2.0})) == got.peak == 0.95


class TestProject:
    def test_identity_projection(self, fig_cross):
        got = fig_cross.project(["width", "height"])
        assert got == fig_cross

    def test_domain_weight_rescaling(self):
        w = Weights({"width": 1.5, "height": 0.5},
                    {"width": {"x": 1.0}, "height": {"y": 1.0}})
        concept = Concept(box_core(PLANE, [({"x": 0.0, "y": 0.0},
                                            {"x": 1.0, "y": 1.0})]),
                          0.9, 1.3, w)
        got = concept.project(["width"])
        assert got.weights.domain_weights == {"width": 1.0}
        assert got.peak == 0.9
        assert got.decay == 1.3

    def test_reconstruction_is_superset(self):
        rng = np.random.default_rng(48)
        w = Weights.normalized({"color": 1.0, "size": 1.0},
                               {"color": {"hue": 0.3, "sat": 0.7},
                                "size": {"diam": 1.0}})
        core = box_core(MIXED, [
            ({"hue": 0.0, "sat": 0.0, "diam": 0.0},
             {"hue": 2.0, "sat": 1.0, "diam": 1.0}),
            ({"hue": 1.0, "sat": 0.5, "diam": 0.5},
             {"hue": 3.0, "sat": 2.0, "diam": 2.0}),
        ])
        concept = Concept(core, 0.9, 1.1, w)
        rebuilt = concept.project(["color"]).intersect(concept.project(["size"]))
        pts = uniform_points(rng, *sample_window(concept), 3000)
        assert (concept.membership_batch(pts)
                <= rebuilt.membership_batch(pts) + 1e-9).all()

    def test_invalid_targets(self, fig_cross):
        with pytest.raises(ValidationError):
            fig_cross.project([])
        with pytest.raises(ValidationError):
            fig_cross.project(["bogus"])


class TestSubsethood:
    def test_concept_is_subset_of_itself(self, fig_cross):
        report = subsethood_check(fig_cross, fig_cross, 2000)
        assert report.holds
        assert report.witness is None

    def test_projection_reconstruction_holds(self):
        w = Weights.uniform(MIXED)
        core = box_core(MIXED, [({"hue": 0.0, "sat": 0.0, "diam": 0.0},
                                 {"hue": 1.0, "sat": 1.0, "diam": 1.0})])
        concept = Concept(core, 1.0, 1.0, w)
        rebuilt = concept.project(["color"]).intersect(concept.project(["size"]))
        report = subsethood_check(concept, rebuilt, 4000)
        assert report.holds

    def test_shrunken_core_is_subset(self):
        outer = line_concept(0.0, 4.0, peak=0.9, decay=1.2)
        inner = line_concept(1.0, 3.0, peak=0.9, decay=1.2)
        assert subsethood_check(inner, outer, 4000).holds

    def test_builds_no_cuboids(self, monkeypatch, fig_cross):
        built = []
        post_init = Cuboid.__post_init__

        def counting_init(self):
            built.append(self)
            post_init(self)

        rebuilt = fig_cross.project(["width"]).intersect(
            fig_cross.project(["height"]))
        monkeypatch.setattr(Cuboid, "__post_init__", counting_init)
        assert subsethood_check(fig_cross, rebuilt, 1000).holds
        assert not subsethood_check(rebuilt, fig_cross, 1000).holds
        assert built == []

    def test_violation_reports_witness(self):
        wide = line_concept(0.0, 5.0)
        narrow = line_concept(2.0, 3.0)
        report = subsethood_check(wide, narrow, 4000)
        assert not report.holds
        assert report.witness is not None
        assert (wide.membership(report.witness)
                > narrow.membership(report.witness) + 1e-9)
        assert report.max_violation > 0


class TestAdjectiveNoun:
    def build_property(self, lo, hi, peak=1.0):
        core = Core((Cuboid.from_bounds(MIXED, ["color"],
                                        {"hue": lo, "sat": 0.0},
                                        {"hue": hi, "sat": 1.0}),))
        return Concept(core, peak, 1.0, Weights.uniform(MIXED, ["color"]))

    def build_noun(self, hue_lo, hue_hi):
        core = box_core(MIXED, [({"hue": hue_lo, "sat": 0.2, "diam": 1.0},
                                 {"hue": hue_hi, "sat": 0.8, "diam": 2.0})])
        return Concept(core, 1.0, 1.0, Weights.uniform(MIXED))

    def test_compatible_pair_narrows(self):
        prop = self.build_property(0.2, 0.6)
        noun = self.build_noun(0.0, 1.0)
        got = combine_adjective_noun(prop, noun, threshold=0.5)
        assert got.peak == 1.0
        reg_lo, reg_hi = central_bounds(got.core)
        hue = MIXED.index_of("hue")
        assert reg_lo[hue] >= 0.2 and reg_hi[hue] <= 0.6

    @pytest.mark.parametrize("hue", [(0.2, 0.6), (1.2, 1.5)])
    def test_compatible_pair_solves_the_height_once(self, monkeypatch, hue):
        prop = self.build_property(*hue)
        noun = self.build_noun(0.0, 1.0)
        expected = prop.intersect(noun)
        calls = []
        solve = optimize.height_of_intersection

        def counted(*args, **kwargs):
            calls.append(args)
            return solve(*args, **kwargs)

        monkeypatch.setattr(optimize, "height_of_intersection", counted)
        got = combine_adjective_noun(prop, noun, threshold=0.5)
        assert len(calls) == 1
        assert got == expected

    def test_incompatible_pair_replaces(self):
        rng = np.random.default_rng(49)
        prop = self.build_property(10.0, 11.0)
        noun = self.build_noun(0.0, 1.0)
        got = combine_adjective_noun(prop, noun, threshold=0.5)
        # on the property's domain the result matches the property itself
        proj = got.project(["color"])
        pts = uniform_points(rng, *sample_window(prop), 1500)
        inside_prop = prop.membership_batch(pts) >= 1.0
        assert proj.membership_batch(pts)[inside_prop].min() == 1.0
        # the noun's own hue region is gone from the core
        assert central_bounds(got.core)[0][MIXED.index_of("hue")] >= 10.0

    def test_zero_threshold_always_intersects(self):
        prop = self.build_property(10.0, 11.0)
        noun = self.build_noun(0.0, 1.0)
        got = combine_adjective_noun(prop, noun, threshold=0.0)
        # intersection path: the peak drops to the height of intersection,
        # where both pay half of the 9-unit hue gap.  The replacement path
        # would have kept a peak of 1.
        assert got.peak == pytest.approx(
            math.exp(-math.sqrt(0.5) * 4.5), abs=1e-9)

    def test_property_must_be_single_domain(self):
        noun = self.build_noun(0.0, 1.0)
        with pytest.raises(ValidationError):
            combine_adjective_noun(noun, noun)

    def test_property_domain_must_be_in_noun(self):
        prop = self.build_property(0.0, 1.0)
        size_only = Concept(
            Core((Cuboid.from_bounds(MIXED, ["size"],
                                     {"diam": 0.0}, {"diam": 1.0}),)),
            1.0, 1.0, Weights.uniform(MIXED, ["size"]))
        with pytest.raises(ValidationError):
            combine_adjective_noun(prop, size_only)

    def test_single_domain_noun_replacement_returns_property(self):
        prop = self.build_property(10.0, 11.0)
        noun = self.build_property(0.0, 1.0)
        got = combine_adjective_noun(prop, noun, threshold=0.99)
        assert got == prop


class TestFuzzyStarShapedness:
    def test_sampled_betweenness_never_drops_below_level(self):
        rng = np.random.default_rng(50)
        for _ in range(8):
            concept = random_concept(rng)
            space = concept.space
            lo, hi = sample_window(concept)
            pool = uniform_points(rng, lo, hi, 3000)
            values = concept.membership_batch(pool)
            center = concept.core.central_point.array
            for alpha in (concept.peak, concept.peak / 2, concept.peak / 4):
                members = pool[values >= alpha]
                if not len(members):
                    continue
                anchor = rng.uniform(center, center)
                mids = between_points(rng, space, anchor, members)
                got = concept.membership_batch(mids)
                assert (got >= alpha - 1e-9).all()
