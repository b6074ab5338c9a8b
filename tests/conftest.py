"""Shared fixtures and sampling helpers for the test suite."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

from conceptspaces import Concept, Core, Cuboid, Space, Weights

settings.register_profile("suite", deadline=None, max_examples=80,
                          derandomize=True)
settings.load_profile("suite")


LINE = Space((("val", ("x",)),))
PLANE = Space((("width", ("x",)), ("height", ("y",))))


def box_core(space: Space, bounds: list[tuple[dict, dict]],
             domains: list[str] | None = None) -> Core:
    """Core from (low, high) bound mappings, defaulting to all domains."""
    domains = domains if domains is not None else list(space.domain_names)
    return Core(tuple(Cuboid.from_bounds(space, domains, lo, hi)
                      for lo, hi in bounds))


def line_concept(lo: float, hi: float, peak: float = 1.0,
                 decay: float = 1.0) -> Concept:
    core = box_core(LINE, [({"x": lo}, {"x": hi})])
    return Concept(core, peak, decay, Weights.uniform(LINE))


@pytest.fixture
def fig_cross() -> Concept:
    """Three overlapping cuboids forming a cross, one domain per axis."""
    core = box_core(PLANE, [
        ({"x": 0.0, "y": 1.5}, {"x": 4.0, "y": 2.5}),
        ({"x": 1.5, "y": 0.0}, {"x": 2.5, "y": 4.0}),
        ({"x": 1.0, "y": 1.0}, {"x": 3.0, "y": 3.0}),
    ])
    return Concept(core, 1.0, 0.5, Weights.uniform(PLANE))


# ---------------------------------------------------------------------------
# random generation

_SPACE_POOL = [
    Space((("a", ("a1",)),)),
    Space((("a", ("a1", "a2")),)),
    Space((("a", ("a1", "a2")), ("b", ("b1",)))),
    Space((("a", ("a1",)), ("b", ("b1", "b2")), ("c", ("c1",)))),
    Space((("a", ("a1", "a2", "a3")), ("b", ("b1",)), ("c", ("c1", "c2")))),
]


def random_space(rng: np.random.Generator) -> Space:
    return _SPACE_POOL[rng.integers(len(_SPACE_POOL))]


def random_weights(rng: np.random.Generator, space: Space,
                   domains: list[str] | None = None) -> Weights:
    names = domains if domains is not None else list(space.domain_names)
    raw_dom = {n: float(rng.uniform(0.5, 1.5)) for n in names}
    raw_dim = {n: {d: float(rng.uniform(0.5, 1.5)) for d in space.dims_of(n)}
               for n in names}
    return Weights.normalized(raw_dom, raw_dim)


def random_concept(rng: np.random.Generator, space: Space | None = None,
                   max_cuboids: int = 3, min_domains: int = 1) -> Concept:
    """Concept whose cuboids all contain a shared anchor point."""
    while space is None:
        candidate = random_space(rng)
        if len(candidate.domain_names) >= min_domains:
            space = candidate
    anchor = rng.uniform(-2.0, 2.0, size=space.n)
    cuboids = []
    for _ in range(int(rng.integers(1, max_cuboids + 1))):
        lo = anchor - rng.uniform(0.05, 1.5, size=space.n)
        hi = anchor + rng.uniform(0.05, 1.5, size=space.n)
        cuboids.append(Cuboid.from_bounds(
            space, list(space.domain_names),
            dict(zip(space.dim_names, lo)), dict(zip(space.dim_names, hi))))
    peak = float(rng.uniform(0.5, 1.0))
    decay = float(rng.uniform(0.4, 2.5))
    return Concept(Core(tuple(cuboids)), peak, decay,
                   random_weights(rng, space))


def translated(concept: Concept, offset: np.ndarray) -> Concept:
    """The same concept with every cuboid shifted by ``offset``."""
    core = concept.core
    cuboids = tuple(Cuboid(core.space, d, tuple(lo + offset), tuple(hi + offset))
                    for d, lo, hi in zip(core.domains, core.lo, core.hi))
    return Concept(Core(cuboids), concept.peak, concept.decay, concept.weights)


def central_bounds(core: Core) -> tuple[np.ndarray, np.ndarray]:
    """Bounds of the core's central region, the common intersection of its
    rows."""
    return core.lo.max(axis=0), core.hi.min(axis=0)


def sample_window(concept: Concept, margin: float = 3.0) -> tuple[np.ndarray, np.ndarray]:
    """Box around the core, widened by ``margin / decay`` per dimension."""
    lo, hi = concept.core.bounding_box()
    lo = np.where(np.isfinite(lo), lo, -1.0)
    hi = np.where(np.isfinite(hi), hi, 1.0)
    pad = margin / concept.decay
    return lo - pad, hi + pad


def uniform_points(rng: np.random.Generator, lo: np.ndarray, hi: np.ndarray,
                   count: int) -> np.ndarray:
    return rng.uniform(lo, hi, size=(count, len(lo)))


def between_points(rng: np.random.Generator, space: Space, start: np.ndarray,
                   ends: np.ndarray) -> np.ndarray:
    """Points metrically between ``start`` and each row of ``ends``.

    Uses one convex coefficient per domain, which characterizes betweenness
    under the combined metric (each domain block must sit on the straight
    segment of that block).  ``start`` may be a single point or one row per
    end point.
    """
    out = np.empty_like(ends)
    pos = 0
    for _, dims in space.domains:
        span = slice(pos, pos + len(dims))
        coeff = rng.uniform(0.0, 1.0, size=(len(ends), 1))
        base = start[..., span]
        out[:, span] = base + coeff * (ends[:, span] - base)
        pos += len(dims)
    return out
