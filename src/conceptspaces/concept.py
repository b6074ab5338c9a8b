"""Fuzzy concepts over crisp cores.

A concept pairs a core (union of cuboids with a shared central region) with
a peak membership, an exponential decay rate, and context weights.  The
membership of a point is the peak times the exponentially decayed combined
distance to the nearest core point.  Intersection, union, and subspace
projection stay within this representation; intersection lowers the peak to
the height of intersection and rebuilds the core from level-set bounding
boxes when the crisp cores do not touch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from . import optimize
from .errors import UnrelatedConceptsError, ValidationError
from .geometry import Core, cores_intersect
from .space import Point, Space, Weights

# Heights below this floor mean the concepts are effectively unrelated.
ALPHA_FLOOR = 1e-12


@dataclass(frozen=True)
class CombinationParams:
    """Blend factors for combining two concepts' weights.

    ``s`` blends domain weights, ``t`` dimension weights; 1 keeps the first
    concept's weights, 0 the second's.  Weights defined on one side only are
    copied as they are.
    """

    s: float = 0.5
    t: float = 0.5

    def __post_init__(self):
        for name, v in (("s", self.s), ("t", self.t)):
            if not 0.0 <= v <= 1.0:
                raise ValidationError(f"{name} must lie in [0, 1], got {v!r}")


@dataclass(frozen=True)
class Concept:
    """Fuzzy region: a core with graded membership around it."""

    core: Core
    peak: float
    decay: float
    weights: Weights

    def __post_init__(self):
        if not 0.0 < self.peak <= 1.0:
            raise ValidationError(f"peak must lie in (0, 1], got {self.peak!r}")
        if not (self.decay > 0 and math.isfinite(self.decay)):
            raise ValidationError(f"decay must be positive, got {self.decay!r}")
        if self.weights.domain_set != self.core.domain_set:
            raise ValidationError(
                f"weights cover domains {sorted(self.weights.domain_set)} but "
                f"the core spans {sorted(self.core.domain_set)}")
        space = self.core.space
        for name in self.weights.domain_set:
            dims = set(space.dims_of(name))
            have = set(self.weights.dimension_weights[name])
            if dims != have:
                raise ValidationError(
                    f"dimension weights of domain {name!r} cover {sorted(have)}, "
                    f"expected {sorted(dims)}")

    @property
    def space(self) -> Space:
        return self.core.space

    def membership(self, x: Point) -> float:
        """Graded membership of a point, in (0, peak]."""
        if x.space is not self.space and x.space != self.space:
            raise ValidationError("point and concept belong to different spaces")
        dist = optimize.core_distance_batch(x.array[None, :], self.core,
                                            self.weights)
        return float((self.peak * np.exp(-self.decay * dist))[0])

    def membership_batch(self, coords: np.ndarray) -> np.ndarray:
        """Vectorized membership over rows of coordinates in space order."""
        dist = optimize.core_distance_batch(coords, self.core, self.weights)
        return self.peak * np.exp(-self.decay * dist)

    def alpha_cut_contains(self, x: Point, alpha: float) -> bool:
        """Whether the point's membership reaches the given level."""
        if not 0.0 < alpha <= 1.0:
            raise ValidationError(f"level must lie in (0, 1], got {alpha!r}")
        return self.membership(x) >= alpha

    def intersect(self, other: "Concept",
                  params: CombinationParams | None = None,
                  tol: float = optimize.DEFAULT_TOL,
                  max_iter: int = optimize.DEFAULT_MAX_ITER) -> "Concept":
        """Fuzzy intersection.

        The new peak is the height of intersection.  When the crisp cores
        share a point the cores are intersected directly; otherwise each
        cuboid's level set at that height is approximated by its exact
        bounding box and the boxes are intersected, with repair.  The decay
        is the smaller of the two, shared weights are blended, exclusive
        ones copied, and domain weights renormalized.
        """
        alpha = optimize.height_of_intersection(self, other, tol=tol,
                                                max_iter=max_iter).value
        return _intersect_at(self, other, alpha, params)

    def union(self, other: "Concept",
              params: CombinationParams | None = None) -> "Concept":
        """Fuzzy union: combined cores (with repair), the larger peak."""
        params = params or CombinationParams()
        core = self.core.union(other.core)
        weights = _combine_weights(self.weights, other.weights,
                                   core.domain_set, params)
        return Concept(core, max(self.peak, other.peak),
                       min(self.decay, other.decay), weights)

    def project(self, domains: Iterable[str]) -> "Concept":
        """Projection onto a subset of domains.

        Peak and decay are unchanged; the kept domain weights are rescaled
        so they again sum to the number of kept domains.
        """
        target = frozenset(domains)
        core = self.core.project(target)
        return Concept(core, self.peak, self.decay,
                       _project_weights(self.weights, target))


def _intersect_at(a: Concept, b: Concept, alpha: float,
                  params: CombinationParams | None) -> Concept:
    """:meth:`Concept.intersect` for a known height of intersection."""
    params = params or CombinationParams()
    if alpha < ALPHA_FLOOR:
        raise UnrelatedConceptsError(
            f"height of intersection {alpha!r} is below the floor "
            f"{ALPHA_FLOOR}; the concepts are effectively unrelated")
    if cores_intersect(a.core, b.core):
        core = a.core.intersect(b.core)
    else:
        boxes_a = Core(tuple(
            optimize.alpha_cut_bbox(c, a.peak, a.decay, a.weights, alpha)
            for c in a.core.cuboids))
        boxes_b = Core(tuple(
            optimize.alpha_cut_bbox(c, b.peak, b.decay, b.weights, alpha)
            for c in b.core.cuboids))
        core = boxes_a.intersect(boxes_b)
    weights = _combine_weights(a.weights, b.weights, core.domain_set, params)
    return Concept(core, alpha, min(a.decay, b.decay), weights)


def _combine_weights(w1: Weights, w2: Weights, domains: Iterable[str],
                     params: CombinationParams) -> Weights:
    s, t = params.s, params.t
    dw: dict[str, float] = {}
    dimw: dict[str, dict[str, float]] = {}
    for name in sorted(domains):
        in1 = name in w1.domain_set
        in2 = name in w2.domain_set
        if in1 and in2:
            dw[name] = s * w1.domain_weights[name] + (1 - s) * w2.domain_weights[name]
            sub1 = w1.dimension_weights[name]
            sub2 = w2.dimension_weights[name]
            dimw[name] = {d: t * sub1[d] + (1 - t) * sub2[d] for d in sub1}
        elif in1:
            dw[name] = w1.domain_weights[name]
            dimw[name] = dict(w1.dimension_weights[name])
        elif in2:
            dw[name] = w2.domain_weights[name]
            dimw[name] = dict(w2.dimension_weights[name])
        else:
            raise ValidationError(f"domain {name!r} is covered by neither operand")
    total = math.fsum(dw.values())
    scale = len(dw) / total
    dw = {name: v * scale for name, v in dw.items()}
    return Weights(dw, dimw)


def _project_weights(weights: Weights, domains: frozenset[str]) -> Weights:
    kept = {name: weights.domain_weights[name] for name in sorted(domains)}
    total = math.fsum(kept.values())
    scale = len(kept) / total
    return Weights({name: v * scale for name, v in kept.items()},
                   {name: dict(weights.dimension_weights[name]) for name in kept})


@dataclass(frozen=True)
class SubsethoodReport:
    """Result of a sampled subsethood check."""

    holds: bool
    witness: Point | None
    max_violation: float
    samples: int


def subsethood_check(sub: Concept, sup: Concept, sample_count: int = 10_000,
                     seed: int = 0, slack: float = 1e-9) -> SubsethoodReport:
    """Sampled check that one membership function never exceeds another.

    Points are drawn in three strata: inside both cores, near the cores'
    boundaries, and across the far field around them.  Reports the first
    sampled point whose membership in ``sub`` exceeds the one in ``sup`` by
    more than ``slack``.
    """
    if sub.space != sup.space:
        raise ValidationError("concepts belong to different spaces")
    if sample_count < 1:
        raise ValidationError("sample_count must be at least 1")
    space = sub.space
    rng = np.random.default_rng(seed)
    window = optimize.oracle_bounds(sub, sup)
    win_lo = np.zeros(space.n)
    win_hi = np.zeros(space.n)
    for d, (lo, hi) in window.items():
        i = space.index_of(d)
        win_lo[i], win_hi[i] = lo, hi

    def sample_box(lo: np.ndarray, hi: np.ndarray, count: int) -> np.ndarray:
        lo = np.where(np.isfinite(lo), lo, win_lo)
        hi = np.where(np.isfinite(hi), hi, win_hi)
        return rng.uniform(lo, hi, size=(count, space.n))

    boxes_core = [(c.lo, c.hi)
                  for concept in (sub, sup) for c in concept.core.cuboids]
    boxes_near = []
    for concept in (sub, sup):
        for c in concept.core.cuboids:
            grown = optimize.alpha_cut_bbox(
                c, concept.peak, concept.decay, concept.weights,
                concept.peak * math.exp(-1.0))
            boxes_near.append((grown.lo, grown.hi))

    third = max(1, sample_count // 3)
    parts = []
    for lo, hi in boxes_core:
        parts.append(sample_box(lo, hi, max(1, third // len(boxes_core))))
    for lo, hi in boxes_near:
        parts.append(sample_box(lo, hi, max(1, third // len(boxes_near))))
    drawn = sum(len(p) for p in parts)
    parts.append(sample_box(np.full(space.n, -np.inf),
                            np.full(space.n, np.inf),
                            max(1, sample_count - drawn)))
    coords = np.vstack(parts)

    m_sub = sub.membership_batch(coords)
    m_sup = sup.membership_batch(coords)
    excess = m_sub - m_sup
    bad = np.nonzero(excess > slack)[0]
    if bad.size:
        first = int(bad[0])
        return SubsethoodReport(False, Point(space, tuple(coords[first])),
                                float(excess[first]), len(coords))
    return SubsethoodReport(True, None, float(excess.max()), len(coords))


def combine_adjective_noun(prop: Concept, noun: Concept,
                           threshold: float = 0.5,
                           params: CombinationParams | None = None,
                           tol: float = optimize.DEFAULT_TOL,
                           max_iter: int = optimize.DEFAULT_MAX_ITER) -> Concept:
    """Combine a single-domain property with a concept.

    When the two are compatible (height of intersection at least
    ``threshold``) the property narrows the concept down and the plain
    intersection is returned.  Otherwise the property replaces the
    concept's information on its domain: the domain is projected away from
    the concept first, then the intersection is taken.
    """
    if len(prop.core.domain_set) != 1:
        raise ValidationError(
            f"the property must span exactly one domain, got "
            f"{sorted(prop.core.domain_set)}")
    if not 0.0 <= threshold <= 1.0:
        raise ValidationError(f"threshold must lie in [0, 1], got {threshold!r}")
    (prop_domain,) = prop.core.domain_set
    if prop_domain not in noun.core.domain_set:
        raise ValidationError(
            f"the concept does not cover the property's domain {prop_domain!r}")
    height = optimize.height_of_intersection(prop, noun, tol=tol,
                                             max_iter=max_iter).value
    if height >= threshold:
        return _intersect_at(prop, noun, height, params)
    rest = noun.core.domain_set - {prop_domain}
    if not rest:
        # Nothing of the concept survives the replacement; the property is
        # the whole answer.
        return prop
    return prop.intersect(noun.project(rest), params, tol, max_iter)
