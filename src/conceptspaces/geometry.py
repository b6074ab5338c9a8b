"""Crisp geometric building blocks.

Cuboids are axis-parallel boxes bounded exactly on the dimensions of their
own domain set and unbounded elsewhere.  A core is a union of cuboids whose
common intersection (the central region) is non-empty, which makes the union
star-shaped under the combined metric.  The repair mechanism restores a
non-empty central region after intersections and unions by extending every
cuboid to a shared meet point.

The rows are the state of a core: one domain set per member and the
members' bounds stacked as read-only ``(k, n)`` arrays.  Intersection, union
and projection compute their results on those arrays (all cuboid pairs in
one broadcast), drop duplicate rows, test and repair the central region and
check the rows they keep in one vectorised pass.  The member ``Cuboid``
objects are built only when ``Core.cuboids`` is first read, also for a
core built from cuboids, which keeps only their rows.  Results are
canonical: no kept row lies inside another of the same domain set.  Such a
row never sets the distance to the union, which is the minimum over the
members, so memberships are unchanged; it would only cost work in every
later operation.

Two cores are equal when their rows are: the same space, the same domain
set per row, in order, and equal bounds (so ``-0.0`` equals ``0.0``), which
is what comparing their cuboids gives.  Repair, the central region and the
inner point each have one routine on bound arrays; :func:`repair` adapts
the first to cuboids.  A ``Cuboid`` is a validated record of one row, for
input and output only: no numeric code reads it.  :func:`_check_row` is
the one check of a row, run by ``Cuboid`` (so by ``Cuboid.from_bounds``),
by the knowledge base on every cuboid entry, and by ``Core._from_rows`` on
the first row its vectorised pass rejects.  Which dimensions a domain set
owns is cached per space, so a row's check is a single pass over its bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import compress
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import ValidationError
from .space import Point, Space, _check_same_space, _coordinate_rows

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
        _check_row(self.space, domains, lo, hi)

    @classmethod
    def from_bounds(cls, space: Space, domains: Iterable[str],
                    low: Mapping[str, float], high: Mapping[str, float]) -> "Cuboid":
        """Build a cuboid from ``{dimension: bound}`` mappings over its
        domains; a dimension missing from a mapping is unbounded there."""
        lo = [-math.inf] * space.n
        hi = [math.inf] * space.n
        for mapping, target in ((low, lo), (high, hi)):
            for d, v in mapping.items():
                target[space.index_of(d)] = float(v)
        return cls(space, frozenset(domains), tuple(lo), tuple(hi))


def _check_row(space: Space, domains: frozenset[str], lo: Sequence[float],
               hi: Sequence[float]) -> None:
    """Raise unless ``lo``/``hi`` are a cuboid row of ``domains``: finite and
    ordered on the dimensions they own, exactly ``-inf``/``+inf`` elsewhere."""
    owned = space._owned(domains)
    if len(lo) != len(owned) or len(hi) != len(owned):
        raise ValidationError("support bounds must cover every dimension")
    inf = math.inf
    for d, own, l, h in zip(space.dim_names, owned, lo, hi):
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


def _inner_point(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """The midpoint of the box ``[lo, hi]`` of cuboid bounds, and 0 on the
    dimensions it leaves unbounded: a cuboid bounds each dimension on both
    sides or on neither."""
    finite = np.isfinite(lo)
    return 0.5 * (np.where(finite, lo, 0.0) + np.where(finite, hi, 0.0))


def _stack(cuboids: Sequence[Cuboid]) -> tuple[np.ndarray, np.ndarray]:
    """The cuboids' lower and upper bounds, one row each."""
    return (np.array([c.p_min for c in cuboids]),
            np.array([c.p_max for c in cuboids]))


def _central_rows(lo: np.ndarray,
                  hi: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """Common intersection of stacked bound rows; ``None`` when empty."""
    low, high = lo.max(axis=0), hi.min(axis=0)
    if (low > high).any():
        return None
    return low, high


def _facing_points(lo1: np.ndarray, hi1: np.ndarray, lo2: np.ndarray,
                   hi2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A mutually nearest pair of points of two boxes, broadcasting over
    boxes.

    Computed per dimension: the facing bounds where the intervals are
    disjoint, a shared finite coordinate (the one nearest 0) where they
    overlap.  The result is nearest under any weighted combined metric
    because per-dimension gaps are independent.
    """
    t = np.maximum(lo1, lo2)
    u = np.minimum(hi1, hi2)
    # the point of [t, u] nearest 0 where they overlap; where they do not,
    # t > u and this is u, the upper bound of the lower interval
    shared = np.minimum(np.maximum(0.0, t), u)
    # t is the lower bound of the upper interval
    pa = np.where(hi2 < lo1, t, shared)
    pb = np.where(hi1 < lo2, t, shared)
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
    lo, hi = _repair_rows(*_stack(cubs))
    return tuple(Cuboid(space, c.domains, l, h)
                 for c, l, h in zip(cubs, lo.tolist(), hi.tolist()))


def _repair_rows(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`repair` on stacked bound rows."""
    finite = np.isfinite(lo)
    counts = finite.sum(axis=0)
    centers = _inner_point(lo, hi)
    bounded = counts > 0
    meet = np.divide(centers.sum(axis=0), counts,
                     out=np.zeros(lo.shape[1]), where=bounded)
    return (np.where(bounded, np.minimum(lo, meet), lo),
            np.where(bounded, np.maximum(hi, meet), hi))


def _core_of_rows(space: Space, domains: Sequence[frozenset[str]],
                  lo: np.ndarray, hi: np.ndarray) -> "Core":
    """Canonical core of stacked bound rows.

    When the rows' central region is empty, duplicate rows (same domains
    and bounds) are dropped, keeping the first, so each counts once in the
    meet point, and the rest are repaired.  Then every row that equals an
    earlier row or lies inside another row of the same domain set is
    dropped, so no kept cuboid lies inside another.  The distance to a union
    of cuboids is the minimum over its members, so the dropped rows never
    set it: the result covers the same points, and its central region can
    only grow.
    """
    if _central_rows(lo, hi) is None:
        inside = _inside(domains, lo, hi)
        first = _first_of_equal(inside & inside.T)
        if not first.all():
            domains = list(compress(domains, first))
            lo, hi = lo[first], hi[first]
        lo, hi = _repair_rows(lo, hi)
    keep = _maximal_rows(domains, lo, hi)
    if not all(keep):
        domains = list(compress(domains, keep))
        lo, hi = lo[keep], hi[keep]
    return Core._from_rows(space, domains, lo, hi)


def _intersect_rows(space: Space, domains_a: Sequence[frozenset[str]],
                    lo_a: np.ndarray, hi_a: np.ndarray,
                    domains_b: Sequence[frozenset[str]], lo_b: np.ndarray,
                    hi_b: np.ndarray) -> "Core":
    """:meth:`Core.intersect` of two sets of stacked bound rows.

    Each row must be a valid cuboid row, as a core's rows and the α-cut
    rows grown from them are; neither set needs a common point.  Only the
    rows of the result are checked, as :meth:`Core._from_rows` checks
    every core.
    """
    n = space.n
    lo = np.maximum(lo_a[:, None], lo_b).reshape(-1, n)
    hi = np.minimum(hi_a[:, None], hi_b).reshape(-1, n)
    keep = np.flatnonzero(np.all(lo <= hi, axis=1))
    if not keep.size:
        raise ValidationError("the cores share no point, and a core "
                              "cannot be empty")
    ia, ib = np.divmod(keep, len(domains_b))
    # each distinct pair of domain sets is joined once
    sets_a, code_a = _domain_codes(domains_a)
    sets_b, code_b = _domain_codes(domains_b)
    joined = [x | y for x in sets_a for y in sets_b]
    pairs = code_a[ia] * len(sets_b) + code_b[ib]
    domains = list(map(joined.__getitem__, pairs.tolist()))
    return _core_of_rows(space, domains, lo[keep], hi[keep])


def _domain_codes(domains: Sequence[frozenset[str]]
                  ) -> tuple[list[frozenset[str]], np.ndarray]:
    """The distinct domain sets in order of appearance, and each row's index
    into them."""
    index = {d: i for i, d in enumerate(dict.fromkeys(domains))}
    code = np.fromiter(map(index.__getitem__, domains), dtype=np.intp,
                       count=len(domains))
    return list(index), code


def _inside(domains: Sequence[frozenset[str]], lo: np.ndarray,
            hi: np.ndarray) -> np.ndarray:
    """``(k, k)`` mask: row ``i`` lies inside row ``j`` of the same domain set.

    Row ``i`` lies inside row ``j`` exactly when ``[-lo, hi]`` of ``i`` is
    at most that of ``j`` everywhere; the pairs are compared in blocks of
    rows.  Equal rows lie inside each other.
    """
    k = len(domains)
    b = np.concatenate([-lo, hi], axis=1)
    inside = np.empty((k, k), dtype=bool)
    step = max(1, _BLOCK_ENTRIES // b.size)
    for start in range(0, k, step):
        inside[start:start + step] = (b[start:start + step, None] <= b).all(-1)
    distinct, code = _domain_codes(domains)
    if len(distinct) > 1:
        inside &= code[:, None] == code
    return inside


def _first_of_equal(equal: np.ndarray) -> np.ndarray:
    """Rows equal to no earlier row, given the ``(k, k)`` equality mask."""
    # argmax finds the first equal row, which is the row itself or earlier
    return equal.argmax(axis=1) == np.arange(len(equal))


def _maximal_rows(domains: Sequence[frozenset[str]], lo: np.ndarray,
                  hi: np.ndarray) -> list[bool]:
    """Which rows lie inside no other row of their domain set.

    Of equal rows only the first is kept.  A row inside another can only
    own more domains than its container, so comparing rows of equal domain
    sets alone never shrinks the core's domain set.
    """
    if len(domains) == 1:
        return [True]
    inside = _inside(domains, lo, hi)
    equal = inside & inside.T
    # ``inside > equal``: inside a row that is not equal to it, so larger
    return (_first_of_equal(equal) & ~(inside > equal).any(axis=1)).tolist()


class Core:
    """Union of cuboids with a non-empty common intersection.

    The state is the rows: ``domains`` holds one domain set per member, and
    ``lo``/``hi`` the members' bounds stacked as read-only ``(k, n)``
    arrays.  ``cuboids``, the member cuboids, are built from the rows when
    first read; a core built from cuboids keeps only their rows, so its
    ``cuboids`` equal the given ones but are new objects.  The domain
    set is the union of the rows' domain sets; the central region is their
    common intersection, whose midpoint is ``central_point``.  Construction
    fails when that intersection is empty; use :func:`repair` first in that
    case.  No core is empty, so intersecting two cores that share no point
    fails too.  Cores are immutable.
    Two cores are equal, and hash equal, when their spaces, their rows'
    domain sets in order and their bounds are equal, as their cuboid tuples
    would be.
    """

    space: Space
    domains: tuple[frozenset[str], ...]
    lo: np.ndarray
    hi: np.ndarray
    domain_set: frozenset[str]

    def __init__(self, cuboids: Iterable[Cuboid]):
        cubs = tuple(cuboids)
        if not cubs:
            raise ValidationError("a core needs at least one cuboid")
        _check_same_space(*cubs)
        space = cubs[0].space
        domains = tuple(c.domains for c in cubs)
        self._set_rows(space, domains, frozenset().union(*domains), *_stack(cubs))

    @classmethod
    def _from_rows(cls, space: Space, domains: Sequence[frozenset[str]],
                   lo: np.ndarray, hi: np.ndarray) -> "Core":
        """Core of stacked bound rows, checked in one vectorised pass.

        The rows must be valid cuboids: finite and ordered bounds on the
        dimensions their domains own, exactly ``-inf``/``+inf`` elsewhere.
        The first faulty row raises its message from :func:`_check_row`.
        """
        domains = tuple(domains)
        distinct, code = _domain_codes(domains)
        owned = np.array([space._owned(d) for d in distinct])[code]
        # owned: -inf < lo <= hi < inf; elsewhere lo == -inf and hi == inf
        # (``lo <= hi`` also rejects NaN on either side)
        valid = (lo <= hi) & ((lo > -np.inf) == owned) & ((hi < np.inf) == owned)
        if not valid.all():
            i = int(np.argmin(valid.all(axis=1)))
            _check_row(space, domains[i], lo[i].tolist(), hi[i].tolist())
            raise ValidationError(f"row {i} is not a valid cuboid")
        core = cls.__new__(cls)
        core._set_rows(space, domains, frozenset().union(*distinct), lo, hi)
        return core

    def _set_rows(self, space: Space, domains: tuple[frozenset[str], ...],
                  domain_set: frozenset[str], lo: np.ndarray,
                  hi: np.ndarray) -> None:
        if not domain_set:
            raise ValidationError("a core must cover at least one domain")
        if _central_rows(lo, hi) is None:
            raise ValidationError(
                "cuboids have an empty common intersection; apply repair() "
                "before building a core")
        lo.flags.writeable = hi.flags.writeable = False
        self.__dict__.update(space=space, domains=domains,
                             domain_set=domain_set, lo=lo, hi=hi)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r}: cores are immutable")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r}: cores are immutable")

    def __eq__(self, other):
        if not isinstance(other, Core):
            return NotImplemented
        return (self.space == other.space and self.domains == other.domains
                and np.array_equal(self.lo, other.lo)
                and np.array_equal(self.hi, other.hi))

    def __hash__(self):
        # float hashes agree with float equality (hash(-0.0) == hash(0.0)),
        # which the raw bytes of the arrays would not
        return hash((self.space, self.domains, tuple(self.lo.ravel().tolist()),
                     tuple(self.hi.ravel().tolist())))

    def __repr__(self):
        return (f"Core(domains={[sorted(d) for d in self.domains]!r}, "
                f"lo={self.lo.tolist()!r}, hi={self.hi.tolist()!r})")

    @cached_property
    def cuboids(self) -> tuple[Cuboid, ...]:
        """The member cuboids, built from the rows on first read."""
        return tuple(Cuboid(self.space, d, l, h) for d, l, h
                     in zip(self.domains, self.lo.tolist(), self.hi.tolist()))

    @cached_property
    def _reach(self) -> float:
        """Largest magnitude of the finite bounds: a point's gap to a row,
        its clamped copy minus itself, is at most this plus the point's
        largest coordinate magnitude."""
        lo, hi = self.lo, self.hi
        return float(max(np.abs(lo[lo > -np.inf]).max(initial=0.0),
                         np.abs(hi[hi < np.inf]).max(initial=0.0)))

    @cached_property
    def _bounds_t(self) -> tuple[np.ndarray, np.ndarray]:
        """``lo`` and ``hi`` transposed, ``(n, k, 1)``: the dimension-first
        operands of point-by-row gaps."""
        return (np.ascontiguousarray(self.lo.T)[:, :, None],
                np.ascontiguousarray(self.hi.T)[:, :, None])

    @cached_property
    def central_point(self) -> Point:
        """Midpoint of the central region, the natural prototype location."""
        return Point(self.space,
                     tuple(_inner_point(*_central_rows(self.lo, self.hi))))

    def contains(self, x: Point) -> bool:
        _check_same_space(self, x)
        return bool(self._contains_rows(x.array[None, :])[0])

    def contains_batch(self, coords: np.ndarray) -> np.ndarray:
        """Whether each point, a row of finite coordinates in space order,
        lies in at least one member cuboid."""
        return self._contains_rows(_coordinate_rows(self.space, coords))

    def _contains_rows(self, coords: np.ndarray) -> np.ndarray:
        """:meth:`contains_batch` on checked ``(m, n)`` float rows."""
        lo, hi = self.lo, self.hi
        rows = max(1, _BLOCK_ENTRIES // lo.size)
        out = np.empty(len(coords), dtype=bool)
        for start in range(0, len(coords), rows):
            block = coords[start:start + rows, None, :]
            inside = np.all((block >= lo) & (block <= hi), axis=-1)
            out[start:start + rows] = inside.any(axis=1)
        return out

    def bounding_box(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-dimension hull of all member cuboids (may be infinite)."""
        return self.lo.min(axis=0), self.hi.max(axis=0)

    def intersect(self, other: "Core") -> "Core":
        """Pairwise cuboid intersection with repair.

        The non-empty pairwise intersections, in row-major order of the
        pairs, come from one broadcast over the stacked bounds.  Repair runs
        whenever the survivors' central region is empty.  The result is
        canonical: survivors inside another survivor of the same domain set
        are dropped, which leaves the covered points and so every membership
        unchanged.  Cores that share no point raise ``ValidationError``, as
        there is no empty core; :meth:`Concept.intersect` grows disjoint
        cores to level-set boxes that meet before intersecting them.
        """
        _check_same_space(self, other)
        return _intersect_rows(self.space, self.domains, self.lo, self.hi,
                               other.domains, other.lo, other.hi)

    def union(self, other: "Core") -> "Core":
        """Concatenate cuboids, repairing when the central regions miss.

        Works on the two cores' stacked bounds.  The result is canonical:
        duplicates and cuboids inside another of the same domain set are
        dropped, which leaves the covered points unchanged.
        """
        _check_same_space(self, other)
        return _core_of_rows(self.space, self.domains + other.domains,
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
        cut = {d: target & d for d in set(self.domains)}
        return _core_of_rows(self.space, [cut[d] for d in self.domains],
                             np.where(owned, self.lo, -np.inf),
                             np.where(owned, self.hi, np.inf))


def cores_intersect(a: Core, b: Core) -> bool:
    """Whether the two unions of cuboids share at least one point."""
    _check_same_space(a, b)
    lo = np.maximum(a.lo[:, None], b.lo)
    hi = np.minimum(a.hi[:, None], b.hi)
    return bool(np.any(np.all(lo <= hi, axis=-1)))


def nearest_point_pairs(a: Core, b: Core) -> tuple[np.ndarray, np.ndarray]:
    """A mutually nearest point pair of every cuboid pair (see
    :func:`_facing_points`), each of shape ``(ka, kb, n)``."""
    return _facing_points(a.lo[:, None], a.hi[:, None], b.lo, b.hi)

