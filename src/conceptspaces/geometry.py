"""Crisp geometric building blocks.

Cuboids are axis-parallel boxes bounded exactly on the dimensions of their
own domain set and unbounded elsewhere.  A core is a union of cuboids whose
common intersection (the central region) is non-empty, which makes the union
star-shaped under the combined metric.  The repair mechanism restores a
non-empty central region after intersections and unions by extending every
cuboid to a shared meet point.

A core keeps its members' bounds stacked as ``(k, n)`` arrays.  Intersection,
union and projection work on those arrays (all cuboid pairs in one
broadcast), drop duplicate rows, test and repair the central region, and
build validated cuboids only for the rows that survive.  Their results are
canonical: no kept cuboid lies inside another of the same domain set.  Such a
cuboid never sets the distance to the union, which is the minimum over the
members, so memberships are unchanged; it would only cost work in every
later operation.  Cores built directly from cuboids keep them as given.
Which dimensions a domain set owns is cached per space, so each cuboid's
validation is a single pass over its bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import compress
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import ValidationError
from .space import Point, Space, Weights

# Entries of a point-by-cuboid array evaluated at once, which bounds the
# memory of a batch independently of its size.
_BLOCK_ENTRIES = 1 << 14


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
        domains = frozenset(map(str, self.domains))
        object.__setattr__(self, "domains", domains)
        lo = tuple(map(float, self.p_min))
        hi = tuple(map(float, self.p_max))
        object.__setattr__(self, "p_min", lo)
        object.__setattr__(self, "p_max", hi)
        owned = self.space._owned(domains)
        if len(lo) != len(owned) or len(hi) != len(owned):
            raise ValidationError("support bounds must cover every dimension")
        inf = math.inf
        for d, own, l, h in zip(self.space.dim_names, owned, lo, hi):
            if own:
                if -inf < l <= h < inf:   # finite and ordered
                    continue
                if not (math.isfinite(l) and math.isfinite(h)):
                    raise ValidationError(
                        f"bounds for dimension {d!r} must be finite")
                raise ValidationError(
                    f"lower bound exceeds upper bound on dimension {d!r}")
            elif l != -inf or h != inf:
                raise ValidationError(
                    f"dimension {d!r} lies outside the cuboid's domains "
                    f"and must be unbounded")

    @classmethod
    def from_bounds(cls, space: Space, domains: Iterable[str],
                    low: Mapping[str, float], high: Mapping[str, float]) -> "Cuboid":
        """Build a cuboid from ``{dimension: bound}`` mappings over its domains."""
        domains = frozenset(domains)
        owned = space._owned(domains)
        own = set(compress(space.dim_names, owned))
        lo = [-math.inf] * space.n
        hi = [math.inf] * space.n
        for mapping, target, side in ((low, lo, "lower"), (high, hi, "upper")):
            for d, v in mapping.items():
                if d not in own:
                    raise ValidationError(
                        f"dimension {d!r} is not covered by domains "
                        f"{sorted(domains)}")
                target[space.index_of(d)] = float(v)
            missing = sorted(d for d, o, v in zip(space.dim_names, owned, target)
                             if o and not math.isfinite(v))
            if missing:
                raise ValidationError(f"missing {side} bound for {missing}")
        return cls(space, domains, tuple(lo), tuple(hi))

    @cached_property
    def dim_names(self) -> tuple[str, ...]:
        """Dimensions on which this cuboid is bounded, in space order."""
        return tuple(compress(self.space.dim_names,
                              self.space._owned(self.domains)))

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
        keep = self.space._owned(target)
        lo = tuple(v if k else -math.inf for v, k in zip(self.p_min, keep))
        hi = tuple(v if k else math.inf for v, k in zip(self.p_max, keep))
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
    owned = space._owned(domains)
    lo = tuple(v if o else -math.inf for v, o in zip(coords, owned))
    hi = tuple(v if o else math.inf for v, o in zip(coords, owned))
    return Cuboid(space, domains, lo, hi)


def central_region(cuboids: Sequence[Cuboid]) -> Cuboid | None:
    """Common intersection of the cuboids; ``None`` when empty."""
    if not cuboids:
        raise ValidationError("need at least one cuboid")
    space = cuboids[0].space
    if any(c.space != space for c in cuboids[1:]):
        raise ValidationError("cuboids belong to different spaces")
    lo = np.array([c.p_min for c in cuboids]).max(axis=0)
    hi = np.array([c.p_max for c in cuboids]).min(axis=0)
    if np.any(lo > hi):
        return None
    return Cuboid(space, frozenset().union(*(c.domains for c in cuboids)),
                  lo.tolist(), hi.tolist())


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
    return tuple(Cuboid(space, c.domains, l, h)
                 for c, l, h in zip(cubs, new_lo.tolist(), new_hi.tolist()))


def _core_of_rows(space: Space, domains: Sequence[frozenset[str]],
                  lo: np.ndarray, hi: np.ndarray) -> "Core":
    """Canonical core of stacked bound rows.

    Duplicate rows (same domains and bounds) are dropped, keeping the first;
    :func:`repair` runs when the rows' central region is empty, and its
    output is deduplicated again.  Then every row that lies inside another
    row of the same domain set is dropped, so no kept cuboid lies inside
    another.  The distance to a union of cuboids is the minimum over its
    members, so the dropped rows never set it: the result covers the same
    points, and its central region can only grow.  Cuboids are built only
    for the rows kept.
    """
    rows = dict(zip(zip(domains, map(tuple, lo.tolist()), map(tuple, hi.tolist())),
                    range(len(domains))))
    if np.any(lo.max(axis=0) > hi.min(axis=0)):
        # repair can stretch distinct rows into equal ones
        cubs = list({(c.domains, c.p_min, c.p_max): c
                     for c in repair([Cuboid(space, *row) for row in rows])}
                    .values())
        keep = _maximal_rows([c.domains for c in cubs],
                             np.array([c.p_min for c in cubs]),
                             np.array([c.p_max for c in cubs]))
        return Core(tuple(compress(cubs, keep)))
    if len(rows) < len(domains):
        index = list(rows.values())
        lo, hi = lo[index], hi[index]
    keep = _maximal_rows([d for d, _, _ in rows], lo, hi)
    return Core(tuple(Cuboid(space, *row) for row in compress(rows, keep)))


def _maximal_rows(domains: Sequence[frozenset[str]], lo: np.ndarray,
                  hi: np.ndarray) -> list[bool]:
    """Which of the distinct rows lie inside no other row of their domain set.

    Row ``i`` lies inside row ``j`` exactly when ``[-lo, hi]`` of ``i`` is
    at most that of ``j`` everywhere; the pairs are compared in blocks of
    rows.  A row inside another can only own more domains than its
    container, so comparing rows of equal domain sets alone never shrinks
    the core's domain set.
    """
    k = len(domains)
    if k == 1:
        return [True]
    b = np.concatenate([-lo, hi], axis=1)
    inside = np.empty((k, k), dtype=bool)
    step = max(1, _BLOCK_ENTRIES // b.size)
    for start in range(0, k, step):
        inside[start:start + step] = (b[start:start + step, None] <= b).all(-1)
    codes = {d: i for i, d in enumerate(dict.fromkeys(domains))}
    if len(codes) > 1:
        code = np.array([codes[d] for d in domains])
        inside &= code[:, None] == code
    # every row lies inside itself; a maximal row inside no other
    return (inside.sum(axis=1) == 1).tolist()


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
        """Whether each coordinate row lies in at least one member cuboid."""
        coords = np.asarray(coords, dtype=float)
        flat = coords.reshape(-1, coords.shape[-1])
        lo, hi = self.lo, self.hi
        rows = max(1, _BLOCK_ENTRIES // lo.size)
        out = np.empty(len(flat), dtype=bool)
        for start in range(0, len(flat), rows):
            block = flat[start:start + rows, None, :]
            inside = np.all((block >= lo) & (block <= hi), axis=-1)
            out[start:start + rows] = inside.any(axis=1)
        return out.reshape(coords.shape[:-1])

    def bounding_box(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-dimension hull of all member cuboids (may be infinite)."""
        return self.lo.min(axis=0), self.hi.max(axis=0)

    def intersect(self, other: "Core") -> "Core":
        """Pairwise cuboid intersection with repair.

        The non-empty pairwise intersections, in row-major order of the
        pairs, come from one broadcast over the stacked bounds.  When every
        pair is empty, the two mutually nearest points of the cores (under
        uniform weights) seed the result as degenerate point cuboids.  Repair
        runs whenever the survivors' central region is empty.  The result is
        canonical: survivors inside another survivor of the same domain set
        are dropped, which leaves the covered points and so every membership
        unchanged.
        """
        if self.space != other.space:
            raise ValidationError("cores belong to different spaces")
        n = self.space.n
        lo = np.maximum(self.lo[:, None], other.lo).reshape(-1, n)
        hi = np.minimum(self.hi[:, None], other.hi).reshape(-1, n)
        keep = np.flatnonzero(np.all(lo <= hi, axis=1))
        if keep.size:
            ia, ib = np.divmod(keep, len(other.cuboids))
            domains = [self.cuboids[i].domains | other.cuboids[j].domains
                       for i, j in zip(ia.tolist(), ib.tolist())]
            return _core_of_rows(self.space, domains, lo[keep], hi[keep])
        pa, pb = _nearest_between(self, other)
        dom = self.domain_set | other.domain_set
        owned = np.array(self.space._owned(dom))
        points = np.stack([pa, pb])
        return _core_of_rows(self.space, [dom, dom],
                             np.where(owned, points, -np.inf),
                             np.where(owned, points, np.inf))

    def union(self, other: "Core") -> "Core":
        """Concatenate cuboids, repairing when the central regions miss.

        Works on the two cores' stacked bounds.  The result is canonical:
        duplicates and cuboids inside another of the same domain set are
        dropped, which leaves the covered points unchanged.
        """
        if self.space != other.space:
            raise ValidationError("cores belong to different spaces")
        domains = [c.domains for c in self.cuboids + other.cuboids]
        return _core_of_rows(self.space, domains,
                             np.vstack([self.lo, other.lo]),
                             np.vstack([self.hi, other.hi]))

    def project(self, domains: Iterable[str]) -> "Core":
        """Project every cuboid onto a non-empty subset of the domain set.

        Bounds outside the target domains are reset on the stacked arrays.
        The result is canonical: duplicates and projected cuboids inside
        another of the same domain set are dropped, which leaves the covered
        points unchanged.
        """
        target = frozenset(domains)
        if not target:
            raise ValidationError("projection target must be non-empty")
        if not target <= self.domain_set:
            raise ValidationError(
                f"projection target {sorted(target)} is not a subset of the "
                f"core's domains {sorted(self.domain_set)}")
        owned = np.array(self.space._owned(target))
        return _core_of_rows(self.space,
                             [target & c.domains for c in self.cuboids],
                             np.where(owned, self.lo, -np.inf),
                             np.where(owned, self.hi, np.inf))


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
