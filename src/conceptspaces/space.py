"""Conceptual space structure and metrics.

A space is a set of quality dimensions grouped into named domains.  Distance
within a domain is a weighted Euclidean metric; distances of different
domains are combined by a weighted Manhattan sum.  Similarity decays
exponentially with distance, and betweenness is the additive triangle
equality under the combined metric.

Every distance in the package is evaluated by one kernel: :class:`Metric`,
the weights compiled against a space, maps per-dimension gaps to per-domain
norms and combined distances over arrays of any leading shape.  It rescales
gaps whose squares could overflow, so distances stay finite and accurate up
to the largest finite coordinates.
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
        dw = {k: float(v) for k, v in domain_weights.items()}
        total = math.fsum(dw.values())
        if total <= 0:
            raise ValidationError("domain weights must have a positive sum")
        scale = len(dw) / total
        dw = {k: v * scale for k, v in dw.items()}
        dimw = {}
        for name, sub in dimension_weights.items():
            subtotal = math.fsum(float(v) for v in sub.values())
            if subtotal <= 0:
                raise ValidationError(
                    f"dimension weights of domain {name!r} must have a positive sum")
            dimw[name] = {d: float(v) / subtotal for d, v in sub.items()}
        return cls(dw, dimw)


class Metric:
    """Weights compiled against a space for array evaluation of the metric.

    ``wdom`` holds one weight per domain of the space and ``wdim`` one per
    dimension, both 0 where the weights do not cover the domain; ``starts``
    and ``domain_index`` are the space's domain layout.  Gaps are arrays of
    shape ``(..., n)`` in space order.
    """

    __slots__ = ("space", "starts", "domain_index", "wdom", "wdim")

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

    def domain_norms(self, gap: np.ndarray) -> np.ndarray:
        """Weighted Euclidean norm of the gaps on every domain, ``(..., D)``.

        When a gap could overflow its square, each domain's gaps are divided
        by their largest magnitude first.  Gaps smaller than about 1e-160
        square to 0 and count as no gap.
        """
        mag = np.abs(gap)
        scale = None
        if _SQUARE_LIMIT < mag.max(initial=0.0) < math.inf:
            scale = np.maximum.reduceat(mag, self.starts, axis=-1)
            scale[scale == 0.0] = 1.0
            gap = gap / scale[..., self.domain_index]
        sq = gap * gap
        sq *= self.wdim
        norms = np.sqrt(np.add.reduceat(sq, self.starts, axis=-1))
        return norms if scale is None else norms * scale

    def distance(self, gap: np.ndarray) -> np.ndarray:
        """Combined distance of the gaps, shape ``(...)``."""
        return self.domain_norms(gap) @ self.wdom

    def axis_rates(self) -> np.ndarray:
        """Combined distance per unit of movement along each dimension alone."""
        return self.wdom[self.domain_index] * np.sqrt(self.wdim)


def _check_same_space(x: Point, y: Point) -> None:
    if x.space is not y.space and x.space != y.space:
        raise ValidationError("points belong to different spaces")


def domain_distance(x: Point, y: Point, domain: str, weights: Weights) -> float:
    """Weighted Euclidean distance between two points within one domain."""
    _check_same_space(x, y)
    if domain not in weights.domain_set:
        raise ValidationError(f"domain {domain!r} is not covered by the weights")
    norms = weights.metric(x.space).domain_norms(x.array - y.array)
    return float(norms[x.space.domain_names.index(domain)])


def combined_distance(x: Point, y: Point, weights: Weights) -> float:
    """Weighted Manhattan combination of the per-domain Euclidean distances."""
    _check_same_space(x, y)
    return float(weights.metric(x.space).distance(x.array - y.array))


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
    gaps = np.array((x.array - z.array, x.array - y.array, y.array - z.array))
    d_xz, d_xy, d_yz = weights.metric(x.space).distance(gaps).tolist()
    if tol is None:
        tol = 1e-9 * (1.0 + d_xz)
    return abs(d_xy + d_yz - d_xz) <= tol
