"""Crisp geometric building blocks.

Cuboids are axis-parallel boxes bounded exactly on the dimensions of their
own domain set and unbounded elsewhere.  A core is a union of cuboids whose
common intersection (the central region) is non-empty, which makes the union
star-shaped under the combined metric.  The repair mechanism restores a
non-empty central region after intersections and unions by extending every
cuboid to a shared meet point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import ValidationError
from .space import Point, Space, Weights


@dataclass(frozen=True)
class Cuboid:
    """Axis-parallel box with per-dimension support bounds.

    ``p_min``/``p_max`` always span the full space; dimensions outside the
    cuboid's domains carry ``-inf``/``+inf`` sentinels.
    """

    space: Space
    domains: frozenset[str]
    p_min: tuple[float, ...]
    p_max: tuple[float, ...]

    def __post_init__(self):
        domains = frozenset(str(d) for d in self.domains)
        object.__setattr__(self, "domains", domains)
        lo = tuple(float(v) for v in self.p_min)
        hi = tuple(float(v) for v in self.p_max)
        object.__setattr__(self, "p_min", lo)
        object.__setattr__(self, "p_max", hi)
        unknown = domains - set(self.space.domain_names)
        if unknown:
            raise ValidationError(f"unknown domains {sorted(unknown)}")
        if len(lo) != self.space.n or len(hi) != self.space.n:
            raise ValidationError("support bounds must cover every dimension")
        own = set(self.dim_names)
        for d, i in zip(self.space.dim_names, range(self.space.n)):
            if d in own:
                if not (math.isfinite(lo[i]) and math.isfinite(hi[i])):
                    raise ValidationError(
                        f"bounds for dimension {d!r} must be finite")
                if lo[i] > hi[i]:
                    raise ValidationError(
                        f"lower bound exceeds upper bound on dimension {d!r}")
            else:
                if lo[i] != -math.inf or hi[i] != math.inf:
                    raise ValidationError(
                        f"dimension {d!r} lies outside the cuboid's domains "
                        f"and must be unbounded")

    @classmethod
    def from_bounds(cls, space: Space, domains: Iterable[str],
                    low: Mapping[str, float], high: Mapping[str, float]) -> "Cuboid":
        """Build a cuboid from ``{dimension: bound}`` mappings over its domains."""
        domains = frozenset(domains)
        lo = [-math.inf] * space.n
        hi = [math.inf] * space.n
        own = {d for name in domains for d in space.dims_of(name)}
        for mapping, target, side in ((low, lo, "lower"), (high, hi, "upper")):
            for d, v in mapping.items():
                if d not in own:
                    raise ValidationError(
                        f"dimension {d!r} is not covered by domains "
                        f"{sorted(domains)}")
                target[space.index_of(d)] = float(v)
            missing = [d for d in sorted(own)
                       if not math.isfinite(target[space.index_of(d)])]
            if missing:
                raise ValidationError(f"missing {side} bound for {missing}")
        return cls(space, domains, tuple(lo), tuple(hi))

    @cached_property
    def dim_names(self) -> tuple[str, ...]:
        """Dimensions on which this cuboid is bounded, in space order."""
        return tuple(d for name, dims in self.space.domains
                     if name in self.domains for d in dims)

    @cached_property
    def lo(self) -> np.ndarray:
        arr = np.asarray(self.p_min, dtype=float)
        arr.flags.writeable = False
        return arr

    @cached_property
    def hi(self) -> np.ndarray:
        arr = np.asarray(self.p_max, dtype=float)
        arr.flags.writeable = False
        return arr

    def contains(self, x: Point) -> bool:
        """Whether the point lies inside (boundary included)."""
        arr = x.array
        return bool(np.all((arr >= self.lo) & (arr <= self.hi)))

    def contains_batch(self, coords: np.ndarray) -> np.ndarray:
        """Vectorized containment over rows of coordinates in space order."""
        coords = np.asarray(coords, dtype=float)
        return np.all((coords >= self.lo) & (coords <= self.hi), axis=-1)

    def intersect(self, other: "Cuboid") -> "Cuboid | None":
        """Coordinate-wise intersection; ``None`` when empty."""
        if self.space != other.space:
            raise ValidationError("cuboids belong to different spaces")
        lo = np.maximum(self.lo, other.lo)
        hi = np.minimum(self.hi, other.hi)
        if np.any(lo > hi):
            return None
        return Cuboid(self.space, self.domains | other.domains,
                      tuple(lo), tuple(hi))

    def project(self, domains: Iterable[str]) -> "Cuboid":
        """Keep bounds on the given domains, reset the rest to unbounded."""
        target = frozenset(domains)
        if not target <= self.domains:
            raise ValidationError(
                f"projection target {sorted(target)} is not a subset of the "
                f"cuboid's domains {sorted(self.domains)}")
        keep = {self.space.index_of(d)
                for name in target for d in self.space.dims_of(name)}
        lo = tuple(self.p_min[i] if i in keep else -math.inf
                   for i in range(self.space.n))
        hi = tuple(self.p_max[i] if i in keep else math.inf
                   for i in range(self.space.n))
        return Cuboid(self.space, target, lo, hi)

    def clamp(self, coords: np.ndarray) -> np.ndarray:
        """Nearest point of the cuboid to the given coordinates."""
        return np.clip(coords, self.lo, self.hi)

    def inner_point(self) -> np.ndarray:
        """A deterministic finite point inside the cuboid."""
        out = np.zeros(self.space.n)
        finite_lo = np.isfinite(self.lo)
        finite_hi = np.isfinite(self.hi)
        both = finite_lo & finite_hi
        out[both] = 0.5 * (self.lo[both] + self.hi[both])
        only_lo = finite_lo & ~finite_hi
        out[only_lo] = self.lo[only_lo]
        only_hi = finite_hi & ~finite_lo
        out[only_hi] = self.hi[only_hi]
        return out


def point_cuboid(space: Space, domains: Iterable[str],
                 coords: Sequence[float]) -> Cuboid:
    """Degenerate cuboid holding a single point on the given domains."""
    domains = frozenset(domains)
    idx = {space.index_of(d) for name in domains for d in space.dims_of(name)}
    lo = tuple(float(coords[i]) if i in idx else -math.inf
               for i in range(space.n))
    hi = tuple(float(coords[i]) if i in idx else math.inf
               for i in range(space.n))
    return Cuboid(space, domains, lo, hi)


def central_region(cuboids: Sequence[Cuboid]) -> Cuboid | None:
    """Common intersection of the cuboids; ``None`` when empty."""
    if not cuboids:
        raise ValidationError("need at least one cuboid")
    acc: Cuboid | None = cuboids[0]
    for c in cuboids[1:]:
        if acc is None:
            return None
        acc = acc.intersect(c)
    return acc


def nearest_points(a: Cuboid, b: Cuboid) -> tuple[np.ndarray, np.ndarray]:
    """A mutually nearest pair of points of two cuboids.

    Computed per dimension: the facing bounds where the intervals are
    disjoint, a shared finite coordinate where they overlap.  The result is
    nearest under any weighted combined metric because per-dimension gaps
    are independent.
    """
    return _facing_points(a.lo, a.hi, b.lo, b.hi)


def _facing_points(lo1: np.ndarray, hi1: np.ndarray, lo2: np.ndarray,
                   hi2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`nearest_points` on bound arrays, broadcasting over boxes."""
    t = np.maximum(lo1, lo2)
    u = np.minimum(hi1, hi2)
    shared = np.clip(0.0, t, u)
    right = hi1 < lo2
    left = hi2 < lo1
    pa = np.where(right, hi1, np.where(left, lo1, shared))
    pb = np.where(right, lo2, np.where(left, hi2, shared))
    return pa, pb


def repair(cuboids: Sequence[Cuboid]) -> tuple[Cuboid, ...]:
    """Extend cuboids so they all meet in a shared point.

    The meet point is, per dimension, the arithmetic mean of the centers of
    the cuboids bounded there; dimensions no cuboid bounds are untouched.
    Every output cuboid contains the original one, so the repaired family
    covers the input set and has a non-empty central region.
    """
    cubs = list(cuboids)
    if not cubs:
        raise ValidationError("need at least one cuboid")
    space = cubs[0].space
    lows = np.array([c.p_min for c in cubs])
    highs = np.array([c.p_max for c in cubs])
    finite = np.isfinite(lows)
    counts = finite.sum(axis=0)
    centers = 0.5 * (np.where(finite, lows, 0.0) + np.where(finite, highs, 0.0))
    meet = np.divide(centers.sum(axis=0), counts,
                     out=np.zeros(space.n), where=counts > 0)
    bounded = counts > 0
    new_lo = np.where(bounded, np.minimum(lows, meet), lows)
    new_hi = np.where(bounded, np.maximum(highs, meet), highs)
    return tuple(Cuboid(space, c.domains, tuple(l), tuple(h))
                 for c, l, h in zip(cubs, new_lo, new_hi))


def _dedupe(cuboids: Iterable[Cuboid]) -> tuple[Cuboid, ...]:
    return tuple(dict.fromkeys(cuboids))


@dataclass(frozen=True)
class Core:
    """Union of cuboids with a non-empty common intersection.

    The domain set is the union of the member cuboids' domain sets; the
    cached central region is their common intersection.  Construction fails
    when that intersection is empty; use :func:`repair` first in that case.
    """

    cuboids: tuple[Cuboid, ...]
    # The member cuboids' bounds stacked one row each (k x n), read-only.
    lo: np.ndarray = field(init=False, repr=False, compare=False)
    hi: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        cubs = tuple(self.cuboids)
        object.__setattr__(self, "cuboids", cubs)
        if not cubs:
            raise ValidationError("a core needs at least one cuboid")
        space = cubs[0].space
        for c in cubs[1:]:
            if c.space != space:
                raise ValidationError("cuboids belong to different spaces")
        if not frozenset().union(*(c.domains for c in cubs)):
            raise ValidationError("a core must cover at least one domain")
        lo = np.array([c.p_min for c in cubs])
        hi = np.array([c.p_max for c in cubs])
        lo.flags.writeable = hi.flags.writeable = False
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        if np.any(lo.max(axis=0) > hi.min(axis=0)):
            raise ValidationError(
                "cuboids have an empty common intersection; apply repair() "
                "before building a core")

    @property
    def space(self) -> Space:
        return self.cuboids[0].space

    @cached_property
    def domain_set(self) -> frozenset[str]:
        return frozenset().union(*(c.domains for c in self.cuboids))

    @cached_property
    def central_region(self) -> Cuboid:
        return Cuboid(self.space, self.domain_set, tuple(self.lo.max(axis=0)),
                      tuple(self.hi.min(axis=0)))

    @cached_property
    def central_point(self) -> Point:
        """Midpoint of the central region, the natural prototype location."""
        return Point(self.space, tuple(self.central_region.inner_point()))

    def contains(self, x: Point) -> bool:
        return any(c.contains(x) for c in self.cuboids)

    def contains_batch(self, coords: np.ndarray) -> np.ndarray:
        coords = np.asarray(coords, dtype=float)
        out = self.cuboids[0].contains_batch(coords)
        for c in self.cuboids[1:]:
            out |= c.contains_batch(coords)
        return out

    def bounding_box(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-dimension hull of all member cuboids (may be infinite)."""
        return self.lo.min(axis=0), self.hi.max(axis=0)

    def intersect(self, other: "Core") -> "Core":
        """Pairwise cuboid intersection with repair.

        All non-empty pairwise intersections are kept.  When every pair is
        empty, the two mutually nearest points of the cores (under uniform
        weights) seed the result as degenerate point cuboids.  Repair runs
        whenever the survivors' central region is empty.
        """
        if self.space != other.space:
            raise ValidationError("cores belong to different spaces")
        survivors = [got
                     for a in self.cuboids for b in other.cuboids
                     if (got := a.intersect(b)) is not None]
        if not survivors:
            pa, pb = _nearest_between(self, other)
            dom = self.domain_set | other.domain_set
            survivors = [point_cuboid(self.space, dom, pa),
                         point_cuboid(self.space, dom, pb)]
        cubs = _dedupe(survivors)
        if central_region(cubs) is None:
            cubs = repair(cubs)
        return Core(cubs)

    def union(self, other: "Core") -> "Core":
        """Concatenate cuboids, repairing when the central regions miss."""
        if self.space != other.space:
            raise ValidationError("cores belong to different spaces")
        cubs = _dedupe(self.cuboids + other.cuboids)
        if central_region(cubs) is None:
            cubs = repair(cubs)
        return Core(cubs)

    def project(self, domains: Iterable[str]) -> "Core":
        """Project every cuboid onto a non-empty subset of the domain set."""
        target = frozenset(domains)
        if not target:
            raise ValidationError("projection target must be non-empty")
        if not target <= self.domain_set:
            raise ValidationError(
                f"projection target {sorted(target)} is not a subset of the "
                f"core's domains {sorted(self.domain_set)}")
        projected = tuple(c.project(target & c.domains) for c in self.cuboids)
        return Core(_dedupe(projected))


def cores_intersect(a: Core, b: Core) -> bool:
    """Whether the two unions of cuboids share at least one point."""
    if a.space != b.space:
        raise ValidationError("cores belong to different spaces")
    lo = np.maximum(a.lo[:, None], b.lo)
    hi = np.minimum(a.hi[:, None], b.hi)
    return bool(np.any(np.all(lo <= hi, axis=-1)))


def nearest_point_pairs(a: Core, b: Core) -> tuple[np.ndarray, np.ndarray]:
    """:func:`nearest_points` of every cuboid pair, shape ``(ka, kb, n)``."""
    return _facing_points(a.lo[:, None], a.hi[:, None], b.lo, b.hi)


def _nearest_between(a: Core, b: Core) -> tuple[np.ndarray, np.ndarray]:
    """Nearest point pair between two cores under uniform weights."""
    weights = Weights.uniform(a.space, sorted(a.domain_set | b.domain_set))
    pa, pb = nearest_point_pairs(a, b)
    dist = weights.metric(a.space).distance(pb - pa)
    i, j = np.unravel_index(np.argmin(dist), dist.shape)
    return pa[i, j], pb[i, j]
