"""Fuzzy concepts over crisp cores.

A concept pairs a core (union of cuboids with a shared central region) with
a peak membership, an exponential decay rate, and context weights.  The
membership of a point is the peak times the exponentially decayed combined
distance to the nearest core point.  Intersection, union, and subspace
projection stay within this representation; intersection lowers the peak to
the height of intersection and rebuilds the core from level-set bounding
boxes, rounded outward so that they meet at the height's witness, when the
crisp cores do not touch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from . import optimize
from .errors import UnrelatedConceptsError, ValidationError
from .geometry import Core, _intersect_rows, cores_intersect
from .space import (Point, Space, Weights, _check_decay, _check_same_space,
                    _check_weights_fit, _coordinate_rows, _sum_to_count)

# Heights below this floor mean the concepts are effectively unrelated.
ALPHA_FLOOR = 1e-12
# Largest excess of sub over sup membership that subsethood_check allows.
_SLACK = 1e-9


def _check_unit(name: str, value: float) -> None:
    """Raise unless a blend factor or threshold lies in [0, 1]."""
    if not 0.0 <= value <= 1.0:
        raise ValidationError(f"{name} must lie in [0, 1], got {value!r}")


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
        _check_unit("s", self.s)
        _check_unit("t", self.t)


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
        _check_decay(self.decay)
        if self.weights.domain_set != self.core.domain_set:
            raise ValidationError(
                f"weights cover domains {sorted(self.weights.domain_set)} but "
                f"the core spans {sorted(self.core.domain_set)}")
        _check_weights_fit(self.core.space, self.weights.dimension_weights)

    @property
    def space(self) -> Space:
        return self.core.space

    def membership(self, x: Point) -> float:
        """Graded membership of a point, in [0, peak].

        The value underflows to 0 far from the core: with decay 10, a point
        at distance 100 gets 0.0.
        """
        _check_same_space(self, x)
        dist = optimize.core_distance_batch(x.array[None, :], self.core,
                                            self.weights)[0]
        # numpy's exp on the scalar, so the bits match membership_batch
        return float(self.peak * np.exp(-self.decay * dist))

    def membership_batch(self, coords: np.ndarray) -> np.ndarray:
        """Vectorized membership over points, rows of finite coordinates in
        space order."""
        rows = _coordinate_rows(self.space, coords)
        dist = optimize.core_distance_batch(rows, self.core, self.weights)
        return self.peak * np.exp(-self.decay * dist)

    def alpha_cut_contains(self, x: Point, alpha: float) -> bool:
        """Whether the point's membership reaches the given level."""
        if not 0.0 < alpha <= 1.0:
            raise ValidationError(f"level must lie in (0, 1], got {alpha!r}")
        return self.membership(x) >= alpha

    def intersect(self, other: "Concept",
                  params: CombinationParams | None = None) -> "Concept":
        """Fuzzy intersection.

        The new peak is the height of intersection.  When the crisp cores
        share a point it is the smaller peak and the cores are intersected
        directly; otherwise it is solved, each cuboid's level set at that
        height is approximated by its bounding box, rounded outward, and
        the boxes are intersected, with repair.  Both concepts' boxes hold
        the height's witness, so the result's core does too.  The decay is
        the smaller of the two, shared weights are blended, exclusive ones
        copied, and domain weights renormalized.
        """
        if cores_intersect(self.core, other.core):
            return _intersect_at(self, other, min(self.peak, other.peak),
                                 params, touching=True)
        alpha = optimize.height_of_intersection(self, other).value
        return _intersect_at(self, other, alpha, params, touching=False)

    def union(self, other: "Concept",
              params: CombinationParams | None = None) -> "Concept":
        """Fuzzy union: combined cores (with repair), the larger peak.

        The decay is ``min_i c_i / κ_i`` rather than the paper's
        ``min(c1, c2)``.  ``κ_i`` is the smallest constant with
        ``‖g‖ ≤ κ_i ‖g‖_i`` for every gap ``g`` on operand ``i``'s domains,
        where ``‖·‖`` measures with the blended weights; see
        :func:`_norm_ratio`.  Each operand's core lies inside the union's,
        so the union's membership is at least each operand's everywhere.
        With shared weights over the same domains the weights are kept as
        they are, so ``κ_i = 1`` and the decay is exactly ``min(c1, c2)``.
        """
        params = params or CombinationParams()
        core = self.core.union(other.core)
        weights = _combine_weights(self.weights, other.weights,
                                   core.domain_set, params)
        decay = min(self.decay / _norm_ratio(weights, self.weights),
                    other.decay / _norm_ratio(weights, other.weights))
        return Concept(core, max(self.peak, other.peak), decay, weights)

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
                  params: CombinationParams | None, touching: bool) -> Concept:
    """:meth:`Concept.intersect` at a known height, given whether the cores
    share a point.

    Touching cores are intersected as they are.  Disjoint ones are grown to
    the rows of their α-cut boxes (:func:`optimize._alpha_cut_core`), and
    those rows are intersected directly: only the result's rows are checked
    and built into a core.
    """
    params = params or CombinationParams()
    if alpha < ALPHA_FLOOR:
        raise UnrelatedConceptsError(
            f"height of intersection {alpha!r} is below the floor "
            f"{ALPHA_FLOOR}; the concepts are effectively unrelated")
    if touching:
        core = a.core.intersect(b.core)
    else:
        core = _intersect_rows(a.space, a.core.domains,
                               *optimize._alpha_cut_core(a, alpha),
                               b.core.domains,
                               *optimize._alpha_cut_core(b, alpha))
    weights = _combine_weights(a.weights, b.weights, core.domain_set, params)
    return Concept(core, alpha, min(a.decay, b.decay), weights)


def _combine_weights(w1: Weights, w2: Weights, domains: Iterable[str],
                     params: CombinationParams) -> Weights:
    """Blend shared domains' weights, copy one-sided ones, renormalise.

    Operands with equal weights over exactly the result's domains keep them
    as they are, bit for bit (with their compiled metric): blending equal
    weights and renormalising could move them by an ulp.
    """
    domains = frozenset(domains)
    if w1 == w2 and w1.domain_set == domains:
        return w1
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
        else:   # the result's domains are the operands', so w2 covers it
            dw[name] = w2.domain_weights[name]
            dimw[name] = dict(w2.dimension_weights[name])
    return Weights(_sum_to_count(dw), dimw)


def _norm_ratio(blend: Weights, own: Weights) -> float:
    """Smallest ``κ`` with ``‖g‖_blend ≤ κ ‖g‖_own`` on ``own``'s domains.

    Per domain ``δ`` the blended norm is at most
    ``(w'_δ / w_δ) · max_{j∈δ} sqrt(w'_j / w_j)`` times the own norm, with
    equality along the axis of the largest dimension ratio; ``κ`` is the
    largest of these factors.
    """
    kappa = 0.0
    for name, w in own.domain_weights.items():
        dims = blend.dimension_weights[name]
        ratio = max(dims[d] / v for d, v in own.dimension_weights[name].items())
        kappa = max(kappa, blend.domain_weights[name] / w * math.sqrt(ratio))
    return kappa


def _project_weights(weights: Weights, domains: frozenset[str]) -> Weights:
    kept = {name: weights.domain_weights[name] for name in sorted(domains)}
    return Weights(_sum_to_count(kept),
                   {name: dict(weights.dimension_weights[name]) for name in kept})


@dataclass(frozen=True)
class SubsethoodReport:
    """Result of a sampled subsethood check."""

    holds: bool
    witness: Point | None
    max_violation: float
    samples: int


def subsethood_check(sub: Concept, sup: Concept,
                     sample_count: int = 10_000) -> SubsethoodReport:
    """Sampled check that one membership function never exceeds another.

    Points are drawn, from a fixed seed, in three strata: inside both
    cores, near the cores' boundaries, and across the far field around
    them.  Reports the first sampled point whose membership in ``sub``
    exceeds the one in ``sup`` by more than ``_SLACK``.
    """
    _check_same_space(sub, sup)
    if sample_count < 1:
        raise ValidationError("sample_count must be at least 1")
    space = sub.space
    rng = np.random.default_rng(0)
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

    boxes_core = [box for concept in (sub, sup)
                  for box in zip(concept.core.lo, concept.core.hi)]
    boxes_near = []
    for concept in (sub, sup):
        core = concept.core
        alpha = concept.peak * math.exp(-1.0)
        grown = optimize._alpha_cut_rows(
            space, core.lo, core.hi, concept.weights,
            math.log(concept.peak / alpha) / concept.decay)
        boxes_near.extend(zip(*grown))

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
    bad = np.nonzero(excess > _SLACK)[0]
    if bad.size:
        first = int(bad[0])
        return SubsethoodReport(False, Point(space, tuple(coords[first])),
                                float(excess[first]), len(coords))
    return SubsethoodReport(True, None, float(excess.max()), len(coords))


def combine_adjective_noun(prop: Concept, noun: Concept,
                           threshold: float = 0.5,
                           params: CombinationParams | None = None) -> Concept:
    """Combine a single-domain property with a concept.

    When the two are compatible (height of intersection at least
    ``threshold``) the property narrows the concept down and the plain
    intersection is returned.  Otherwise the property replaces the
    concept's information on its domain: the domain is projected away from
    the concept first, then the intersection is taken.
    """
    _check_same_space(prop, noun)
    if len(prop.core.domain_set) != 1:
        raise ValidationError(
            f"the property must span exactly one domain, got "
            f"{sorted(prop.core.domain_set)}")
    _check_unit("threshold", threshold)
    (prop_domain,) = prop.core.domain_set
    if prop_domain not in noun.core.domain_set:
        raise ValidationError(
            f"the concept does not cover the property's domain {prop_domain!r}")
    height = optimize.height_of_intersection(prop, noun)
    if height.value >= threshold:
        # no iteration exactly when the cores touch
        return _intersect_at(prop, noun, height.value, params,
                             height.iterations == 0)
    rest = noun.core.domain_set - {prop_domain}
    if not rest:
        # Nothing of the concept survives the replacement; the property is
        # the whole answer.
        return prop
    return prop.intersect(noun.project(rest), params)
