"""Metric layer: spaces, points, weights, distances, betweenness."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conceptspaces import (Concept, Core, Cuboid, Point, Space,
                           ValidationError, Weights, between,
                           combine_adjective_noun, combined_distance,
                           cores_intersect, distance_to_cuboid,
                           domain_distance, grid_oracle_max_min,
                           height_of_intersection, similarity,
                           subsethood_check)
from conceptspaces.cli import export_grid

from conftest import PLANE

TWO_DIM_DOMAIN = Space((("color", ("hue", "sat")),))
MIXED = Space((("color", ("hue", "sat")), ("size", ("diam",))))

coord = st.floats(min_value=-100.0, max_value=100.0,
                  allow_nan=False, allow_infinity=False)


def test_space_structure():
    assert MIXED.dim_names == ("hue", "sat", "diam")
    assert MIXED.n == 3
    assert MIXED.dims_of("color") == ("hue", "sat")
    assert MIXED.domain_of("diam") == "size"
    assert MIXED.index_of("sat") == 1


@pytest.mark.parametrize("domains", [
    (),
    ((("a", ()),)),
    ((("a", ("x",)), ("a", ("y",)))),
    ((("a", ("x",)), ("b", ("x",)))),
])
def test_space_rejects_bad_structure(domains):
    with pytest.raises(ValidationError):
        Space(domains)


def test_point_requires_all_finite_coordinates():
    with pytest.raises(ValidationError):
        MIXED.point({"hue": 1.0, "sat": 2.0})
    with pytest.raises(ValidationError):
        MIXED.point({"hue": 1.0, "sat": 2.0, "diam": math.inf})
    with pytest.raises(ValidationError):
        MIXED.point({"hue": 1.0, "sat": 2.0, "diam": 0.0, "bogus": 1.0})
    p = MIXED.point({"hue": 1.0, "sat": 2.0, "diam": 3.0})
    assert p["sat"] == 2.0
    assert p.as_dict() == {"hue": 1.0, "sat": 2.0, "diam": 3.0}


class TestWeights:
    def test_valid_construction(self):
        w = Weights({"color": 1.2, "size": 0.8},
                    {"color": {"hue": 0.3, "sat": 0.7}, "size": {"diam": 1.0}})
        assert w.domain_set == {"color", "size"}
        assert w.dimension_weights["color"]["sat"] == 0.7

    def test_domain_sum_must_match_count(self):
        with pytest.raises(ValidationError):
            Weights({"color": 1.2, "size": 0.9},
                    {"color": {"hue": 0.5, "sat": 0.5},
                     "size": {"diam": 1.0}})

    def test_dimension_sum_must_be_one(self):
        with pytest.raises(ValidationError):
            Weights({"color": 1.0}, {"color": {"hue": 0.6, "sat": 0.6}})

    def test_weights_must_be_positive(self):
        with pytest.raises(ValidationError):
            Weights({"color": 2.0, "size": 0.0},
                    {"color": {"hue": 0.5, "sat": 0.5},
                     "size": {"diam": 1.0}})

    def test_tolerance_accepts_tiny_drift(self):
        Weights({"color": 1.0 + 4e-10, "size": 1.0 - 4e-10},
                {"color": {"hue": 0.5, "sat": 0.5}, "size": {"diam": 1.0}})

    def test_normalized_rescales(self):
        w = Weights.normalized({"color": 3.0, "size": 1.0},
                               {"color": {"hue": 2.0, "sat": 2.0},
                                "size": {"diam": 5.0}})
        assert w.domain_weights["color"] == pytest.approx(1.5)
        assert w.domain_weights["size"] == pytest.approx(0.5)
        assert w.dimension_weights["color"]["hue"] == pytest.approx(0.5)

    def test_uniform(self):
        w = Weights.uniform(MIXED)
        assert w.domain_weights == {"color": 1.0, "size": 1.0}
        assert w.dimension_weights["color"] == {"hue": 0.5, "sat": 0.5}


class TestDomainDistance:
    def test_identity(self):
        w = Weights.uniform(TWO_DIM_DOMAIN)
        p = TWO_DIM_DOMAIN.point({"hue": 1.0, "sat": -2.0})
        assert domain_distance(p, p, "color", w) == 0.0

    def test_hand_computed_value(self):
        # sqrt(0.5 * 3^2 + 0.5 * 4^2) evaluated directly
        w = Weights.uniform(TWO_DIM_DOMAIN)
        x = TWO_DIM_DOMAIN.point({"hue": 0.0, "sat": 0.0})
        y = TWO_DIM_DOMAIN.point({"hue": 3.0, "sat": 4.0})
        assert domain_distance(x, y, "color", w) == pytest.approx(
            math.sqrt(12.5), abs=1e-12)

    def test_symmetry(self):
        w = Weights.uniform(TWO_DIM_DOMAIN)
        x = TWO_DIM_DOMAIN.point({"hue": 0.3, "sat": -1.0})
        y = TWO_DIM_DOMAIN.point({"hue": 3.0, "sat": 4.5})
        assert domain_distance(x, y, "color", w) == domain_distance(y, x, "color", w)

    def test_unknown_domain(self):
        w = Weights.uniform(TWO_DIM_DOMAIN)
        p = TWO_DIM_DOMAIN.point({"hue": 0.0, "sat": 0.0})
        with pytest.raises(ValidationError):
            domain_distance(p, p, "shape", w)

    def test_missing_dimension_weight(self):
        w = Weights.uniform(PLANE, ["width"])
        x = PLANE.point({"x": 0.0, "y": 0.0})
        y = PLANE.point({"x": 1.0, "y": 1.0})
        with pytest.raises(ValidationError):
            domain_distance(x, y, "height", w)


class TestCombinedDistance:
    def test_identity(self):
        w = Weights.uniform(PLANE)
        p = PLANE.point({"x": 0.5, "y": 0.5})
        assert combined_distance(p, p, w) == 0.0

    def test_two_singleton_domains(self):
        # 3 + 4 under unit weights
        w = Weights.uniform(PLANE)
        x = PLANE.point({"x": 0.0, "y": 0.0})
        y = PLANE.point({"x": 3.0, "y": 4.0})
        assert combined_distance(x, y, w) == pytest.approx(7.0, abs=1e-12)

    def test_triangle_inequality_sampled(self):
        rng = np.random.default_rng(7)
        w = Weights.normalized(
            {"color": 1.3, "size": 0.7},
            {"color": {"hue": 0.4, "sat": 0.6}, "size": {"diam": 1.0}})
        for _ in range(1000):
            a, b, c = (Point(MIXED, tuple(rng.uniform(-50, 50, 3)))
                       for _ in range(3))
            assert (combined_distance(a, c, w)
                    <= combined_distance(a, b, w)
                    + combined_distance(b, c, w) + 1e-9)


@given(ax=coord, ay=coord, bx=coord, by=coord)
def test_distance_symmetry_exact(ax, ay, bx, by):
    w = Weights.uniform(PLANE)
    a = PLANE.point({"x": ax, "y": ay})
    b = PLANE.point({"x": bx, "y": by})
    assert combined_distance(a, b, w) == combined_distance(b, a, w)


@given(ax=coord, ay=coord, bx=coord, by=coord, cx=coord, cy=coord)
def test_distance_triangle_property(ax, ay, bx, by, cx, cy):
    w = Weights.uniform(PLANE)
    a = PLANE.point({"x": ax, "y": ay})
    b = PLANE.point({"x": bx, "y": by})
    c = PLANE.point({"x": cx, "y": cy})
    assert (combined_distance(a, c, w)
            <= combined_distance(a, b, w) + combined_distance(b, c, w) + 1e-9)


def test_single_domain_reduces_to_weighted_euclidean():
    rng = np.random.default_rng(11)
    w = Weights({"color": 1.0}, {"color": {"hue": 0.25, "sat": 0.75}})
    for _ in range(200):
        xs, ys = rng.uniform(-20, 20, (2, 2))
        x = TWO_DIM_DOMAIN.point({"hue": xs[0], "sat": xs[1]})
        y = TWO_DIM_DOMAIN.point({"hue": ys[0], "sat": ys[1]})
        euclid = math.sqrt(0.25 * (xs[0] - ys[0]) ** 2
                           + 0.75 * (xs[1] - ys[1]) ** 2)
        assert combined_distance(x, y, w) == pytest.approx(euclid, abs=1e-12)


def test_singleton_domains_reduce_to_weighted_manhattan():
    rng = np.random.default_rng(12)
    w = Weights.normalized({"width": 1.4, "height": 0.6},
                           {"width": {"x": 1.0}, "height": {"y": 1.0}})
    wx = w.domain_weights["width"]
    wy = w.domain_weights["height"]
    for _ in range(200):
        xs, ys = rng.uniform(-20, 20, (2, 2))
        x = PLANE.point({"x": xs[0], "y": xs[1]})
        y = PLANE.point({"x": ys[0], "y": ys[1]})
        manhattan = wx * abs(xs[0] - ys[0]) + wy * abs(xs[1] - ys[1])
        assert combined_distance(x, y, w) == pytest.approx(manhattan, abs=1e-12)


class TestSimilarity:
    def test_identity(self):
        w = Weights.uniform(PLANE)
        p = PLANE.point({"x": 1.0, "y": 1.0})
        assert similarity(p, p, 2.0, w) == 1.0

    def test_hand_computed_value(self):
        w = Weights.uniform(PLANE)
        x = PLANE.point({"x": 0.0, "y": 0.0})
        y = PLANE.point({"x": 3.0, "y": 4.0})
        assert similarity(x, y, 1.0, w) == pytest.approx(math.exp(-7.0), rel=1e-12)

    def test_doubling_decay_squares_similarity(self):
        w = Weights.uniform(PLANE)
        x = PLANE.point({"x": 0.2, "y": -0.4})
        y = PLANE.point({"x": 1.9, "y": 2.8})
        s = similarity(x, y, 0.7, w)
        assert similarity(x, y, 1.4, w) == pytest.approx(s * s, rel=1e-12)

    def test_rejects_nonpositive_decay(self):
        w = Weights.uniform(PLANE)
        p = PLANE.point({"x": 0.0, "y": 0.0})
        with pytest.raises(ValidationError):
            similarity(p, p, 0.0, w)

    @pytest.mark.parametrize("decay", [-1.0, math.inf, math.nan])
    def test_rejects_decay_that_is_not_positive_and_finite(self, decay):
        # an infinite decay at distance 0 would give exp(-inf * 0) = NaN
        w = Weights.uniform(PLANE)
        p = PLANE.point({"x": 0.0, "y": 0.0})
        with pytest.raises(ValidationError) as err:
            similarity(p, p, decay, w)
        assert str(err.value) == (
            f"decay must be positive and finite, got {decay!r}")


class TestBetween:
    def test_endpoint_is_between(self):
        w = Weights.uniform(MIXED)
        x = MIXED.point({"hue": 1.0, "sat": 2.0, "diam": 3.0})
        z = MIXED.point({"hue": -1.0, "sat": 0.0, "diam": 5.0})
        assert between(x, x, z, w)

    def test_midpoint_is_between(self):
        rng = np.random.default_rng(3)
        w = Weights.uniform(MIXED)
        for _ in range(50):
            a, c = rng.uniform(-10, 10, (2, 3))
            x = Point(MIXED, tuple(a))
            z = Point(MIXED, tuple(c))
            y = Point(MIXED, tuple((a + c) / 2))
            assert between(x, y, z, w)

    def test_point_beyond_segment_is_not_between(self):
        from conftest import LINE
        w = Weights.uniform(LINE)
        x = LINE.point({"x": 0.0})
        y = LINE.point({"x": 5.0})
        z = LINE.point({"x": 1.0})
        assert not between(x, y, z, w)

    @pytest.mark.parametrize("tol", [-1e-12, -math.inf, math.nan])
    def test_rejects_tolerance_that_is_not_non_negative(self, tol):
        w = Weights.uniform(MIXED)
        x = MIXED.point({"hue": 1.0, "sat": 2.0, "diam": 3.0})
        assert between(x, x, x, w, tol=0.0)
        with pytest.raises(ValidationError,
                           match="^tolerance must be non-negative$"):
            between(x, x, x, w, tol=tol)

    def test_singleton_domains_accept_exactly_the_spanned_box(self):
        rng = np.random.default_rng(4)
        w = Weights.uniform(PLANE)
        for _ in range(100):
            a, c = rng.uniform(-5, 5, (2, 2))
            x = Point(PLANE, tuple(a))
            z = Point(PLANE, tuple(c))
            lo, hi = np.minimum(a, c), np.maximum(a, c)
            inside = rng.uniform(lo, hi)
            assert between(x, Point(PLANE, tuple(inside)), z, w)
            outside = hi + rng.uniform(0.1, 1.0, 2)
            assert not between(x, Point(PLANE, tuple(outside)), z, w)


# The weights name a dimension the color domain does not have; every metric
# path must refuse them rather than drop the extra weight (the distance from
# (0, 0) to (1, 0) would come out as 0.5).
EXTRA_DIMENSION = ("dimension weights of domain 'color' cover "
                   "['bogus', 'hue', 'sat'], expected ['hue', 'sat']")


@pytest.mark.parametrize("measure", [
    lambda x, y, w: combined_distance(x, y, w),
    lambda x, y, w: domain_distance(x, y, "color", w),
    lambda x, y, w: between(x, y, y, w),
], ids=["combined_distance", "domain_distance", "between"])
def test_metric_rejects_weights_for_a_dimension_the_domain_lacks(measure):
    w = Weights({"color": 1.0},
                {"color": {"hue": 0.25, "sat": 0.25, "bogus": 0.5}})
    x = TWO_DIM_DOMAIN.point({"hue": 0.0, "sat": 0.0})
    y = TWO_DIM_DOMAIN.point({"hue": 1.0, "sat": 0.0})
    with pytest.raises(ValidationError) as err:
        measure(x, y, w)
    assert str(err.value) == EXTRA_DIMENSION


def test_metric_rejects_weights_missing_a_dimension_or_over_unknown_domains():
    x = MIXED.point({"hue": 0.0, "sat": 0.0, "diam": 0.0})
    missing = Weights({"color": 1.0}, {"color": {"hue": 1.0}})
    with pytest.raises(ValidationError) as err:
        combined_distance(x, x, missing)
    assert str(err.value) == ("dimension weights of domain 'color' cover "
                              "['hue'], expected ['hue', 'sat']")
    unknown = Weights({"color": 1.0, "shape": 1.0},
                      {"color": {"hue": 0.5, "sat": 0.5},
                       "shape": {"round": 1.0}})
    with pytest.raises(ValidationError) as err:
        combined_distance(x, x, unknown)
    assert str(err.value) == "weights cover unknown domains ['shape']"


# ---------------------------------------------------------------------------
# One same-space rule: every operation on operands of two spaces of the same
# width raises its one message, and operands of equal spaces pass.

class _Operands:
    """A point, cuboid, core, concept and one-domain property of a space of
    two one-dimensional domains."""

    def __init__(self, space):
        self.point = Point(space, (0.5, 0.5))
        self.cuboid = Cuboid(space, space.domain_names, (0.0, 0.0),
                             (1.0, 1.0))
        self.core = Core((self.cuboid,))
        self.weights = Weights.uniform(space)
        self.concept = Concept(self.core, 1.0, 1.0, self.weights)
        self.prop = self.concept.project(space.domain_names[:1])


_UNIT = {"x": (0.0, 1.0), "y": (0.0, 1.0)}
_SPACED_OPERATIONS = {
    "Concept.intersect": lambda a, b: a.concept.intersect(b.concept),
    "Concept.union": lambda a, b: a.concept.union(b.concept),
    "Concept.membership": lambda a, b: a.concept.membership(b.point),
    "combine_adjective_noun":
        lambda a, b: combine_adjective_noun(a.prop, b.concept),
    "height_of_intersection":
        lambda a, b: height_of_intersection(a.concept, b.concept),
    "subsethood_check":
        lambda a, b: subsethood_check(a.concept, b.concept, 30),
    "grid_oracle_max_min":
        lambda a, b: grid_oracle_max_min(a.concept, b.concept, _UNIT, 0.5),
    "Core": lambda a, b: Core((a.cuboid, b.cuboid)),
    "Core.intersect": lambda a, b: a.core.intersect(b.core),
    "Core.union": lambda a, b: a.core.union(b.core),
    "Core.contains": lambda a, b: a.core.contains(b.point),
    "cores_intersect": lambda a, b: cores_intersect(a.core, b.core),
    "distance_to_cuboid":
        lambda a, b: distance_to_cuboid(b.point, a.cuboid, a.weights),
    "combined_distance":
        lambda a, b: combined_distance(a.point, b.point, a.weights),
    "domain_distance":
        lambda a, b: domain_distance(a.point, b.point, "width", a.weights),
    "between": lambda a, b: between(a.point, a.point, b.point, a.weights),
    "export_grid": lambda a, b: export_grid(a.concept, ("x", "y"), _UNIT, 0.5,
                                            slice_point=b.point),
}


@pytest.mark.parametrize("other", [
    Space((("width", ("u",)), ("height", ("v",)))),
    Space((("wide", ("x",)), ("high", ("y",)))),
], ids=["dimensions", "domains"])
@pytest.mark.parametrize("operation", list(_SPACED_OPERATIONS.values()),
                         ids=list(_SPACED_OPERATIONS))
def test_operands_of_different_spaces_are_refused(operation, other):
    own = _Operands(PLANE)
    with pytest.raises(ValidationError) as err:
        operation(own, _Operands(other))
    assert str(err.value) == "operands belong to different spaces"
    operation(own, _Operands(Space(PLANE.domains)))
