"""The compiled metric kernel: the paper's per-domain formula, bit for bit,
and batch-shape independence."""

import math
import warnings

import numpy as np
import pytest

from conceptspaces import (Point, Space, Weights, between, combined_distance,
                           distance_to_cuboid, domain_distance, optimize)
from conceptspaces.geometry import _BLOCK_ENTRIES

import paper_oracle
from conftest import (_SPACE_POOL, box_core, random_concept, random_weights,
                      sample_window, uniform_points)

# Domains of 1, 2, 3 and 4 dimensions: with four, the order in which a
# domain's squares are summed shows in the last bits.
WIDE = Space((("p", ("p1", "p2", "p3", "p4")), ("q", ("q1",)),
              ("r", ("r1", "r2")), ("s", ("s1", "s2", "s3"))))
MULTI_DOMAIN_POOL = [s for s in _SPACE_POOL if len(s.domain_names) >= 2]


@pytest.mark.parametrize("covered", [None, ["p", "r"], ["q", "s"]])
def test_kernel_matches_per_domain_oracle(covered):
    rng = np.random.default_rng(90)
    weights = random_weights(rng, WIDE, covered)
    metric = weights.metric(WIDE)
    gaps = rng.normal(size=(400, WIDE.n)) * rng.choice([1e-3, 1.0, 1e3],
                                                       size=(400, 1))
    expect_norms = paper_oracle.norms(WIDE, weights, gaps)
    expect = paper_oracle.distance(WIDE, weights, gaps)
    # alone, and as one dimension-first (n, m) batch, bit for bit
    for i in range(0, len(gaps), 37):
        assert (metric._norms(gaps[i], math.inf).tolist()
                == expect_norms[i].tolist())
        assert float(metric._distance(gaps[i], math.inf)) == expect[i]
    assert np.array_equal(metric._norms(gaps.T, math.inf), expect_norms.T)
    assert np.array_equal(metric._distance(gaps.T, math.inf), expect)
    assert np.array_equal(
        metric._distance(gaps.T.reshape(WIDE.n, 20, 20), math.inf),
        expect.reshape(20, 20))
    # and the order only moves the last bits of the true value
    np.testing.assert_allclose(
        expect, paper_oracle.accurate_distance(WIDE, weights, gaps), rtol=1e-14)


def test_distance_does_not_depend_on_batch_shape():
    rng = np.random.default_rng(91)
    for space in MULTI_DOMAIN_POOL:
        concept = random_concept(rng, space, max_cuboids=3)
        metric = concept.weights.metric(space)
        lo, hi = sample_window(concept)
        # enough rows that every batch spans several blocks
        count = _BLOCK_ENTRIES // space.n + 7
        coords = np.vstack([uniform_points(rng, lo, hi, count - 50),
                            uniform_points(rng, lo - 40.0, hi + 40.0, 50)])
        core = concept.core
        clamped = np.minimum(np.maximum(coords[:, None], core.lo), core.hi)
        gaps = np.moveaxis(clamped - coords[:, None], -1, 0)   # (n, m, k)
        stacked = metric._distance(gaps, math.inf)
        flat = metric._distance(
            np.ascontiguousarray(gaps).reshape(space.n, -1), math.inf)
        assert np.array_equal(flat, stacked.ravel())
        picks = rng.choice(stacked.size, size=3000, replace=False)
        rows, cols = np.unravel_index(picks, stacked.shape)
        alone = [float(metric._distance(gaps[:, i, j].copy(), math.inf))
                 for i, j in zip(rows, cols)]
        assert alone == stacked[rows, cols].tolist()
        batch = optimize.core_distance_batch(coords, core, concept.weights)
        assert np.array_equal(batch, stacked.min(axis=1))


def test_between_measures_like_combined_distance():
    rng = np.random.default_rng(92)
    for space in MULTI_DOMAIN_POOL:
        weights = random_weights(rng, space)
        for _ in range(200):
            x, y, z = (Point(space, tuple(rng.uniform(-5.0, 5.0, space.n)))
                       for _ in range(3))
            d_xz = combined_distance(x, z, weights)
            d_xy = combined_distance(x, y, weights)
            d_yz = combined_distance(y, z, weights)
            slack = abs(d_xy + d_yz - d_xz)
            assert between(x, y, z, weights, tol=slack)
            assert not between(x, y, z, weights, tol=math.nextafter(slack, -1.0))


def test_extreme_gap_in_a_later_block_leaves_every_row_exact():
    space = Space((("color", ("hue", "sat", "val")), ("size", ("diam",))))
    weights = Weights.normalized({"color": 1.0, "size": 2.0},
                                 {"color": {"hue": 1.0, "sat": 2.0, "val": 3.0},
                                  "size": {"diam": 1.0}})
    zero = {d: 0.0 for d in space.dim_names}
    core = box_core(space, [(zero, zero)])
    rows = _BLOCK_ENTRIES // space.n
    rng = np.random.default_rng(93)
    coords = rng.uniform(-3.0, 3.0, size=(3 * rows, space.n))
    huge = 2 * rows + 5
    coords[huge, :2] = (1e300, -4e299)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = optimize.core_distance_batch(coords, core, weights)
    np.testing.assert_allclose(
        got, paper_oracle.accurate_distance(space, weights, -coords),
        rtol=1e-14)
    # every row, the huge one and those of its block included, has the
    # bits it has alone
    metric = weights.metric(space)
    assert got.tolist() == [float(metric._distance(-c, math.inf))
                            for c in coords]


def test_callers_keep_the_rescale_for_huge_coordinates():
    # The library's callers tell the metric how large their gaps can be,
    # which spares the overflow test for ordinary points; with coordinates
    # near the largest floats the test must still run, so each caller
    # gives the same bits as the kernel with the test forced on.
    space = Space((("color", ("hue", "sat", "val")), ("size", ("diam",))))
    weights = Weights.normalized({"color": 1.0, "size": 2.0},
                                 {"color": {"hue": 1.0, "sat": 2.0, "val": 3.0},
                                  "size": {"diam": 1.0}})
    metric = weights.metric(space)
    lo = {"hue": -1e200, "sat": 0.0, "val": 1e200, "diam": -5.0}
    hi = {"hue": 1e200, "sat": 2.0, "val": 1e300, "diam": 5.0}
    cuboid = box_core(space, [(lo, hi)]).cuboids[0]
    rng = np.random.default_rng(94)
    for _ in range(100):
        coords = (rng.uniform(-3.0, 3.0, size=(3, space.n))
                  * rng.choice([1.0, 1e140, 1e160, 1e300], size=(3, space.n)))
        x, y, z = (Point(space, tuple(c)) for c in coords)
        gap = x.array - z.array
        d_xz = combined_distance(x, z, weights)
        assert math.isfinite(d_xz)
        assert d_xz == float(metric._distance(gap, math.inf))
        np.testing.assert_allclose(
            d_xz, paper_oracle.accurate_distance(space, weights, gap[None])[0],
            rtol=1e-14)
        assert (domain_distance(x, z, "color", weights)
                == float(metric._norms(gap, math.inf)[0]))
        clamped = np.minimum(np.maximum(y.array, cuboid.p_min), cuboid.p_max)
        assert (distance_to_cuboid(y, cuboid, weights)
                == float(metric._distance(clamped - y.array, math.inf)))
        slack = abs(combined_distance(x, y, weights)
                    + combined_distance(y, z, weights) - d_xz)
        assert between(x, y, z, weights, tol=slack)
        if slack > 0.0:
            assert not between(x, y, z, weights,
                               tol=math.nextafter(slack, -1.0))


def test_axis_rates_match_the_weights():
    weights = random_weights(np.random.default_rng(7), WIDE)
    rates = weights.metric(WIDE)._rate_floats
    expect = [weights.domain_weights[WIDE.domain_of(d)]
              * math.sqrt(weights.dimension_weights[WIDE.domain_of(d)][d])
              for d in WIDE.dim_names]
    np.testing.assert_array_max_ulp(np.array(rates), np.array(expect), 1)
