"""Conceptual space structure and metrics.

A space is a set of quality dimensions grouped into named domains.  Distance
within a domain is a weighted Euclidean metric; distances of different
domains are combined by a weighted Manhattan sum.  Similarity decays
exponentially with distance, and betweenness is the additive triangle
equality under the combined metric.

Every distance in the package is evaluated by one kernel: :class:`Metric`,
the weights compiled against a space, maps per-dimension gaps to per-domain
norms and combined distances.  Gaps are dimension-first, ``(n, ...)``, and
the kernel works plane by plane in a fixed summation order, so a gap's
distance does not depend on the shape of the batch that holds it.  It
rescales gaps whose squares could overflow, so distances stay finite and
accurate up to the largest finite coordinates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping

import numpy as np

from .errors import ValidationError

# Absolute tolerance for weight normalization checks.
WEIGHT_TOL = 1e-9
# Gaps up to this size square and sum to well below the largest float, for
# any practical number of dimensions; larger ones are rescaled first.
_SQUARE_LIMIT = 1e150


@dataclass(frozen=True)
class Space:
    """Ordered dimensions of a conceptual space, grouped into named domains.

    ``domains`` is a sequence of ``(domain_name, dimension_names)`` pairs.
    Dimension indices follow declaration order, domain by domain, so the
    dimensions of one domain always occupy a contiguous index range.
    """

    domains: tuple[tuple[str, tuple[str, ...]], ...]

    def __post_init__(self):
        try:
            norm = tuple((str(name), tuple(str(d) for d in dims))
                         for name, dims in self.domains)
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"malformed domain structure: {exc}") from exc
        object.__setattr__(self, "domains", norm)
        if not norm:
            raise ValidationError("a space needs at least one domain")
        seen_domains: set[str] = set()
        seen_dims: set[str] = set()
        for name, dims in norm:
            if not name:
                raise ValidationError("domain names must be non-empty")
            if name in seen_domains:
                raise ValidationError(f"duplicate domain name {name!r}")
            seen_domains.add(name)
            if not dims:
                raise ValidationError(f"domain {name!r} has no dimensions")
            for d in dims:
                if not d:
                    raise ValidationError("dimension names must be non-empty")
                if d in seen_dims:
                    raise ValidationError(f"duplicate dimension name {d!r}")
                seen_dims.add(d)

    @cached_property
    def dim_names(self) -> tuple[str, ...]:
        return tuple(d for _, dims in self.domains for d in dims)

    @cached_property
    def domain_names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.domains)

    @cached_property
    def _dim_index(self) -> dict[str, int]:
        return {d: i for i, d in enumerate(self.dim_names)}

    @cached_property
    def _domain_dims(self) -> dict[str, tuple[str, ...]]:
        return dict(self.domains)

    @cached_property
    def _dim_domain(self) -> dict[str, str]:
        return {d: name for name, dims in self.domains for d in dims}

    @cached_property
    def _owned_cache(self) -> dict[frozenset[str], tuple[bool, ...]]:
        return {}

    def _owned(self, domains: frozenset[str]) -> tuple[bool, ...]:
        """Per dimension, whether one of ``domains`` owns it.

        Cached per domain set, outside the compared fields, so a space with
        a warm cache stays equal and hash-equal to a fresh one.  Raises for
        domains the space does not have.
        """
        cache = self._owned_cache
        mask = cache.get(domains)
        if mask is None:
            unknown = domains.difference(self._domain_dims)
            if unknown:
                raise ValidationError(f"unknown domains {sorted(unknown)}")
            mask = tuple(name in domains
                         for name, dims in self.domains for _ in dims)
            cache[domains] = mask
        return mask

    @cached_property
    def _layout(self) -> tuple[np.ndarray, np.ndarray]:
        """First dimension of every domain, and the domain of every dimension."""
        sizes = [len(dims) for _, dims in self.domains]
        starts = np.cumsum([0] + sizes[:-1])
        owner = np.repeat(np.arange(len(sizes)), sizes)
        starts.flags.writeable = owner.flags.writeable = False
        return starts, owner

    @property
    def n(self) -> int:
        """Total number of dimensions."""
        return len(self.dim_names)

    def dims_of(self, domain: str) -> tuple[str, ...]:
        try:
            return self._domain_dims[domain]
        except KeyError:
            raise ValidationError(f"unknown domain {domain!r}") from None

    def index_of(self, dim: str) -> int:
        try:
            return self._dim_index[dim]
        except KeyError:
            raise ValidationError(f"unknown dimension {dim!r}") from None

    def domain_of(self, dim: str) -> str:
        try:
            return self._dim_domain[dim]
        except KeyError:
            raise ValidationError(f"unknown dimension {dim!r}") from None

    def indices_of(self, domains: Iterable[str]) -> list[int]:
        """Sorted dimension indices covered by the given domains."""
        idx = [self._dim_index[d]
               for name in domains for d in self.dims_of(name)]
        return sorted(idx)

    def point(self, values: Mapping[str, float]) -> "Point":
        """Build a point from a complete ``{dimension: value}`` mapping."""
        missing = [d for d in self.dim_names if d not in values]
        if missing:
            raise ValidationError(f"point is missing dimensions {missing}")
        extra = [d for d in values if d not in self._dim_index]
        if extra:
            raise ValidationError(f"point has unknown dimensions {extra}")
        return Point(self, tuple(float(values[d]) for d in self.dim_names))


@dataclass(frozen=True)
class Point:
    """A point of the conceptual space, with one finite coordinate per dimension."""

    space: Space
    coords: tuple[float, ...]

    def __post_init__(self):
        coords = tuple(float(v) for v in self.coords)
        object.__setattr__(self, "coords", coords)
        if len(coords) != self.space.n:
            raise ValidationError(
                f"expected {self.space.n} coordinates, got {len(coords)}")
        if not all(math.isfinite(v) for v in coords):
            raise ValidationError("point coordinates must be finite")

    def __getitem__(self, dim: str) -> float:
        return self.coords[self.space.index_of(dim)]

    def as_dict(self) -> dict[str, float]:
        return dict(zip(self.space.dim_names, self.coords))

    @cached_property
    def array(self) -> np.ndarray:
        arr = np.asarray(self.coords, dtype=float)
        arr.flags.writeable = False
        return arr

    @cached_property
    def _reach(self) -> float:
        """Largest coordinate magnitude; gaps between two points are at
        most the sum of theirs."""
        return max(map(abs, self.coords))


@dataclass(frozen=True)
class Weights:
    """Context weights over a subset of domains.

    Domain weights sum to the number of covered domains; the dimension
    weights of every covered domain sum to one.  All weights are strictly
    positive.  Construction rejects weights outside tolerance; use
    :meth:`normalized` to rescale raw values first.
    """

    domain_weights: Mapping[str, float]
    dimension_weights: Mapping[str, Mapping[str, float]]

    def __post_init__(self):
        dw = {str(k): float(v) for k, v in self.domain_weights.items()}
        dimw = {str(k): {str(d): float(v) for d, v in sub.items()}
                for k, sub in self.dimension_weights.items()}
        object.__setattr__(self, "domain_weights", dw)
        object.__setattr__(self, "dimension_weights", dimw)
        if not dw:
            raise ValidationError("weights must cover at least one domain")
        if set(dw) != set(dimw):
            raise ValidationError(
                "domain weights and dimension weights cover different domains")
        for name, w in dw.items():
            if not (w > 0 and math.isfinite(w)):
                raise ValidationError(f"domain weight for {name!r} must be positive")
        total = math.fsum(dw.values())
        if abs(total - len(dw)) > WEIGHT_TOL:
            raise ValidationError(
                f"domain weights sum to {total!r}, expected {len(dw)}")
        for name, sub in dimw.items():
            if not sub:
                raise ValidationError(f"domain {name!r} has no dimension weights")
            for d, w in sub.items():
                if not (w > 0 and math.isfinite(w)):
                    raise ValidationError(
                        f"dimension weight for {d!r} must be positive")
            subtotal = math.fsum(sub.values())
            if abs(subtotal - 1.0) > WEIGHT_TOL:
                raise ValidationError(
                    f"dimension weights of domain {name!r} sum to {subtotal!r}, "
                    f"expected 1")

    @cached_property
    def domain_set(self) -> frozenset[str]:
        return frozenset(self.domain_weights)

    def dim_weight(self, domain: str, dim: str) -> float:
        sub = self.dimension_weights.get(domain)
        if sub is None:
            raise ValidationError(f"unknown domain {domain!r}")
        try:
            return sub[dim]
        except KeyError:
            raise ValidationError(
                f"missing dimension weight for {dim!r} in domain {domain!r}"
            ) from None

    def metric(self, space: Space) -> "Metric":
        """These weights compiled against a space, cached for the last one."""
        cached = getattr(self, "_metric", None)
        if cached is None or (cached.space is not space and cached.space != space):
            cached = Metric(space, self)
            object.__setattr__(self, "_metric", cached)
        return cached

    @classmethod
    def uniform(cls, space: Space, domains: Iterable[str] | None = None) -> "Weights":
        """Equal domain weights and equal dimension weights within each domain."""
        names = list(domains) if domains is not None else list(space.domain_names)
        dw = {name: 1.0 for name in names}
        dimw = {
            name: {d: 1.0 / len(space.dims_of(name)) for d in space.dims_of(name)}
            for name in names
        }
        return cls(dw, dimw)

    @classmethod
    def normalized(cls,
                   domain_weights: Mapping[str, float],
                   dimension_weights: Mapping[str, Mapping[str, float]]) -> "Weights":
        """Rescale positive raw weights to exact normalization, then build."""
        dw = _sum_to_count({k: float(v) for k, v in domain_weights.items()})
        dimw = {}
        for name, sub in dimension_weights.items():
            subtotal = math.fsum(float(v) for v in sub.values())
            if subtotal <= 0:
                raise ValidationError(
                    f"dimension weights of domain {name!r} must have a positive sum")
            dimw[name] = {d: float(v) / subtotal for d, v in sub.items()}
        return cls(dw, dimw)


def _sum_to_count(domain_weights: Mapping[str, float]) -> dict[str, float]:
    """Domain weights rescaled by one factor so that they sum to their
    number."""
    total = math.fsum(domain_weights.values())
    if total <= 0:
        raise ValidationError("domain weights must have a positive sum")
    scale = len(domain_weights) / total
    return {k: v * scale for k, v in domain_weights.items()}


class Metric:
    """Weights compiled against a space for array evaluation of the metric.

    ``wdom`` holds one weight per domain of the space and ``wdim`` one per
    dimension, both 0 where the weights do not cover the domain; ``starts``
    and ``domain_index`` are the space's domain layout, and ``domains`` the
    names of the covered domains, in space order.

    Gaps are dimension-first: arrays of shape ``(n, ...)`` whose first axis
    runs over the dimensions in space order, and every step works on whole
    planes of that axis.  The gaps are squared and weighted; each covered
    domain's planes are summed into its first one in the order
    ``a0 + ((a1 + a2) + ...)``, which is how ``np.add.reduceat`` sums a
    short segment; the roots of those sums are the domain norms, and the
    distance is ``(w0 n0 + w1 n1) + ...`` over the covered domains in space
    order (an uncovered domain would only add 0).
    All of it is elementwise across the trailing axes, so a gap's distance
    has the same bits whatever the shape of the batch it is evaluated in:
    alone, stacked with others or in any block of a larger batch.
    """

    __slots__ = ("space", "starts", "domain_index", "wdom", "wdim", "domains",
                 "_spans", "_covered", "_heads", "_folds", "_columns",
                 "_rate_floats")

    def __init__(self, space: Space, weights: Weights):
        unknown = weights.domain_set - set(space.domain_names)
        if unknown:
            raise ValidationError(f"weights cover unknown domains {sorted(unknown)}")
        self.space = space
        self.starts, self.domain_index = space._layout
        self.wdom = np.array([weights.domain_weights.get(name, 0.0)
                              for name in space.domain_names])
        self.wdim = np.array([weights.dim_weight(name, d)
                              if name in weights.domain_set else 0.0
                              for name, dims in space.domains for d in dims])
        ends = self.starts.tolist()[1:] + [space.n]
        self._spans = tuple(zip(self.starts.tolist(), ends))
        self._covered = [i for i, name in enumerate(space.domain_names)
                         if name in weights.domain_set]
        self.domains = tuple(space.domain_names[i] for i in self._covered)
        self._heads = self.starts[self._covered]
        # (target, source) plane additions that sum each covered domain into
        # its first plane: the planes after the second into the second,
        # then the second into the first
        folds = []
        for start, end in (self._spans[i] for i in self._covered):
            folds += [(start + 1, j) for j in range(start + 2, end)]
            if end - start > 1:
                folds.append((start, start + 1))
        self._folds = tuple(folds)
        self._columns: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        # combined distance per unit of movement along each dimension alone;
        # weights are immutable, so the rates are computed once, as Python
        # floats for scalar code
        self._rate_floats = tuple(
            (self.wdom[self.domain_index] * np.sqrt(self.wdim)).tolist())

    def _weight_columns(self, ndim: int) -> tuple[np.ndarray, np.ndarray]:
        """``wdim`` and the covered domains' ``wdom`` shaped to broadcast
        over ``ndim``-D gaps."""
        columns = self._columns.get(ndim)
        if columns is None:
            shape = (-1,) + (1,) * (ndim - 1)
            columns = (self.wdim.reshape(shape),
                       self.wdom[self._covered].reshape(shape))
            self._columns[ndim] = columns
        return columns

    def _norms(self, gap: np.ndarray, reach: float) -> np.ndarray:
        """Weighted Euclidean norm of the gaps on each covered domain,
        ``(len(domains), ...)``.

        ``reach`` bounds the gaps' magnitudes, such as the sum of the
        largest coordinate magnitudes of the points and bounds they join.
        When it exceeds the square limit (``inf`` included), each domain
        whose largest gap magnitude is finite but large enough that squares
        could overflow has its gaps divided by that magnitude first; the
        test is made per gap and domain, so it does not depend on the batch
        either.  A reach up to the square limit spares that test; while it
        bounds the gaps the result is the same either way, but a reach below
        them can skip a rescale that is needed.  Gaps smaller than about
        1e-160 square to 0 and count as no gap.
        """
        scale = None
        if not reach <= _SQUARE_LIMIT:
            mag = np.abs(gap)
            if np.maximum.reduce(mag, axis=None, initial=0.0) > _SQUARE_LIMIT:
                top = np.stack([np.maximum.reduce(mag[start:end])
                                for start, end in self._spans])
                huge = (_SQUARE_LIMIT < top) & (top < math.inf)
                if huge.any():
                    scale = np.where(huge, top, 1.0)
                    gap = gap / scale[self.domain_index]
        sq = gap * gap
        sq *= self._weight_columns(gap.ndim)[0]
        for target, source in self._folds:
            sq[target] += sq[source]
        norms = np.sqrt(sq.take(self._heads, 0))
        if scale is not None:
            norms *= scale.take(self._covered, 0)
        return norms

    def _distance(self, gap: np.ndarray, reach: float) -> np.ndarray:
        """Combined distance of the gaps, shape ``(...)``, with ``reach`` as
        for :meth:`_norms`."""
        norms = self._norms(gap, reach)
        norms *= self._weight_columns(gap.ndim)[1]
        total = norms[0]
        for d in range(1, len(norms)):
            total += norms[d]
        return total


def _check_same_space(x: Point, y: Point) -> None:
    if x.space is not y.space and x.space != y.space:
        raise ValidationError("points belong to different spaces")


def domain_distance(x: Point, y: Point, domain: str, weights: Weights) -> float:
    """Weighted Euclidean distance between two points within one domain."""
    _check_same_space(x, y)
    if domain not in weights.domain_set:
        raise ValidationError(f"domain {domain!r} is not covered by the weights")
    metric = weights.metric(x.space)
    norms = metric._norms(x.array - y.array, x._reach + y._reach)
    return float(norms[metric.domains.index(domain)])


def combined_distance(x: Point, y: Point, weights: Weights) -> float:
    """Weighted Manhattan combination of the per-domain Euclidean distances."""
    _check_same_space(x, y)
    return float(weights.metric(x.space)._distance(x.array - y.array,
                                                   x._reach + y._reach))


def similarity(x: Point, y: Point, decay: float, weights: Weights) -> float:
    """Exponentially decaying similarity, 1 at distance zero."""
    if not decay > 0:
        raise ValidationError("decay rate must be positive")
    return math.exp(-decay * combined_distance(x, y, weights))


def between(x: Point, y: Point, z: Point, weights: Weights,
            tol: float | None = None) -> bool:
    """Whether ``y`` lies metrically between ``x`` and ``z``.

    True when d(x,y) + d(y,z) equals d(x,z) within ``tol``.  The default
    tolerance is relative, ``1e-9 * (1 + d(x,z))``, so the predicate
    survives coordinate rescaling.
    """
    _check_same_space(x, y)
    _check_same_space(y, z)
    if tol is not None and tol < 0:
        raise ValidationError("tolerance must be non-negative")
    # dimension-first, one column per pair
    gaps = np.array((x.array - z.array, x.array - y.array, y.array - z.array)).T
    reach = x._reach + y._reach + z._reach
    d_xz, d_xy, d_yz = weights.metric(x.space)._distance(gaps, reach).tolist()
    if tol is None:
        tol = 1e-9 * (1.0 + d_xz)
    return abs(d_xy + d_yz - d_xz) <= tol
