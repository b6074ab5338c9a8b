"""Seeded input generation for the benchmark workloads.

Every generator takes the workload seed and returns plain library values
built through the public constructors.  The structure of each workload (which
space shape, how many cuboids, which operation comes next) follows a fixed
order that does not depend on the seed; the seed draws only the continuous
values (positions, extents, peaks, decays, weights).  Costs are therefore
comparable across seeds, while the inputs still differ.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from conceptspaces import (Concept, Core, Cuboid, Space, Weights,
                           concept_to_dict)

# The five space shapes of the test suite's random pool: 1-3 domains, 1-6 dims.
SPACES = (
    Space((("a", ("a1",)),)),
    Space((("a", ("a1", "a2")),)),
    Space((("a", ("a1", "a2")), ("b", ("b1",)))),
    Space((("a", ("a1",)), ("b", ("b1", "b2")), ("c", ("c1",)))),
    Space((("a", ("a1", "a2", "a3")), ("b", ("b1",)), ("c", ("c1", "c2")))),
)
BIG_SPACE = SPACES[4]

# Distinct streams per workload, so one workload's draws never shift another's.
_STREAMS = {"height": 1, "algebra": 2, "cli": 3, "probe": 4}


def rng_for(workload: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([seed, _STREAMS[workload]])


def random_weights(rng: np.random.Generator, space: Space,
                   domains: list[str]) -> Weights:
    raw_dom = {n: float(rng.uniform(0.5, 1.5)) for n in domains}
    raw_dim = {n: {d: float(rng.uniform(0.5, 1.5)) for d in space.dims_of(n)}
               for n in domains}
    return Weights.normalized(raw_dom, raw_dim)


def restrict_weights(weights: Weights, domain: str) -> Weights:
    """The same dimension weights on one domain, with domain weight 1."""
    return Weights({domain: 1.0},
                   {domain: dict(weights.dimension_weights[domain])})


def box_concept(rng: np.random.Generator, space: Space, domains: list[str],
                anchor: np.ndarray, n_cuboids: int, weights: Weights,
                half_width: tuple[float, float] = (0.05, 1.0)) -> Concept:
    """Cuboids around one anchor point, bounded on the given domains only."""
    idx = space.indices_of(domains)
    cuboids = []
    for _ in range(n_cuboids):
        lo = np.full(space.n, -math.inf)
        hi = np.full(space.n, math.inf)
        lo[idx] = anchor[idx] - rng.uniform(*half_width, size=len(idx))
        hi[idx] = anchor[idx] + rng.uniform(*half_width, size=len(idx))
        cuboids.append(Cuboid(space, frozenset(domains), tuple(lo), tuple(hi)))
    return Concept(Core(tuple(cuboids)), float(rng.uniform(0.5, 1.0)),
                   float(rng.uniform(0.4, 2.5)), weights)


def disjoint_offset(rng: np.random.Generator, n: int, idx: list[int]) -> np.ndarray:
    """Offset along a random direction within ``idx`` that separates two
    boxes of half-width at most 1 on at least one dimension."""
    direction = np.zeros(n)
    direction[idx] = rng.normal(size=len(idx))
    return direction * (rng.uniform(2.2, 3.2) / np.abs(direction).max())


# ---------------------------------------------------------------------------
# height

HEIGHT_KINDS = ("height", "intersect", "combine")
_PAIR_CLASSES = tuple((a, b) for a in (1, 2, 3) for b in (1, 2, 3))
HEIGHT_BLOCK = 45   # every (pair class, space) combination once
HEIGHT_CASES = 6 * HEIGHT_BLOCK


@dataclass(frozen=True)
class HeightCase:
    """One operation on a pair of concepts whose cores do not touch.

    For ``combine`` the first concept is a property over one domain.
    """

    index: int
    kind: str
    first: Concept
    second: Concept
    shared: bool


def height_cases(seed: int) -> list[HeightCase]:
    """Six blocks of 45 cases; each block holds every (pair class, space).

    Index ``i`` takes pair class ``i % 9`` and space ``i % 5`` (coprime
    periods) and kind ``(i + i // 45) % 3``: 15 of each kind per block, and
    each (pair class, space) meets every kind over three blocks.  Weights
    are shared on even ``i``, so over the six blocks each combination
    appears once with shared weights and once with weights of its own.
    """
    rng = rng_for("height", seed)
    cases = []
    for i in range(HEIGHT_CASES):
        n1, n2 = _PAIR_CLASSES[i % 9]
        space = SPACES[i % 5]
        shared = i % 2 == 0
        kind = HEIGHT_KINDS[(i + i // 45) % 3]
        every = list(space.domain_names)
        noun_w = random_weights(rng, space, every)
        anchor = rng.uniform(-2.0, 2.0, size=space.n)
        if kind == "combine":
            domain = every[i // 5 % len(every)]
            prop_w = (restrict_weights(noun_w, domain) if shared
                      else random_weights(rng, space, [domain]))
            first = box_concept(rng, space, [domain], anchor, n1, prop_w)
            shift = disjoint_offset(rng, space.n, space.indices_of([domain]))
        else:
            first_w = noun_w if shared else random_weights(rng, space, every)
            first = box_concept(rng, space, every, anchor, n1, first_w)
            shift = disjoint_offset(rng, space.n, list(range(space.n)))
        second = box_concept(rng, space, every, anchor + shift, n2, noun_w)
        cases.append(HeightCase(i, kind, first, second, shared))
    return cases


# ---------------------------------------------------------------------------
# algebra

ALGEBRA_PATTERN = "IUIUIP"   # intersect, union, ..., project; then restart
ALGEBRA_BASES = 256
ALGEBRA_CHAINS = 2048
ALGEBRA_BLOCK = 64   # chains
QUERY_POINTS = 256
SCALAR_POINTS = 4


@dataclass(frozen=True)
class AlgebraInputs:
    bases: tuple[Concept, ...]
    starts: np.ndarray        # (chains,) base index each chain starts from
    partners: np.ndarray      # (chains, len(pattern)) base index per step
    keep: np.ndarray          # (chains, 3) bool: domains kept by the project
    points: np.ndarray        # (QUERY_POINTS, n) membership_batch block
    triples: np.ndarray       # (2, 3, n): x, y between x and z, z


def algebra_base(rng: np.random.Generator, narrow: bool,
                 weights: Weights) -> Concept:
    """Three overlapping cuboids; the first always contains [-0.1, 0.1]^n.

    That shared box makes every pair of cores (and every result built from
    them) touch, so the height always takes its exact shortcut.  Narrow
    concepts have smaller, more scattered arms that miss other concepts'
    cuboids, which makes repair run on a share of the operations.
    """
    space = BIG_SPACE
    jitter, width = (0.9, 0.45) if narrow else (0.3, 1.2)
    center = rng.uniform(-jitter, jitter, size=space.n)
    lo = np.minimum(center - rng.uniform(0.5 * width, width, size=space.n), -0.1)
    hi = np.maximum(center + rng.uniform(0.5 * width, width, size=space.n), 0.1)
    boxes = [(lo, hi)]
    for _ in range(2):
        arm = center + rng.uniform(-jitter, jitter, size=space.n)
        boxes.append((
            np.minimum(arm - rng.uniform(0.5 * width, width, size=space.n), center),
            np.maximum(arm + rng.uniform(0.5 * width, width, size=space.n), center)))
    every = frozenset(space.domain_names)
    core = Core(tuple(Cuboid(space, every, tuple(a), tuple(b)) for a, b in boxes))
    return Concept(core, float(rng.uniform(0.6, 1.0)),
                   float(rng.uniform(0.5, 2.0)), weights)


def algebra_inputs(seed: int) -> AlgebraInputs:
    rng = rng_for("algebra", seed)
    space = BIG_SPACE
    every = list(space.domain_names)
    family = random_weights(rng, space, every)
    # Even bases share one set of weights, odd ones have their own; a quarter
    # of each kind is narrow.
    bases = tuple(algebra_base(rng, i % 8 < 2,
                               family if i % 2 == 0
                               else random_weights(rng, space, every))
                  for i in range(ALGEBRA_BASES))
    # Even chains use shared-weight bases only, odd chains any base.
    width = 1 + len(ALGEBRA_PATTERN)
    shared_only = 2 * rng.integers(ALGEBRA_BASES // 2, size=(ALGEBRA_CHAINS, width))
    any_base = rng.integers(ALGEBRA_BASES, size=(ALGEBRA_CHAINS, width))
    even = (np.arange(ALGEBRA_CHAINS) % 2 == 0)[:, None]
    chosen = np.where(even, shared_only, any_base)
    starts, partners = chosen[:, 0], chosen[:, 1:]
    # A non-empty, proper subset of the three domains.
    keep = rng.integers(1, 7, size=ALGEBRA_CHAINS)[:, None] & np.array([1, 2, 4]) > 0
    points = rng.uniform(-3.0, 3.0, size=(QUERY_POINTS, space.n))
    x = rng.uniform(-3.0, 3.0, size=(2, space.n))
    z = rng.uniform(-3.0, 3.0, size=(2, space.n))
    y = np.empty_like(x)
    start = 0
    for _, dims in space.domains:   # one convex coefficient per domain
        block = slice(start, start + len(dims))
        t = rng.uniform(0.0, 1.0, size=(2, 1))
        y[:, block] = x[:, block] + t * (z[:, block] - x[:, block])
        start += len(dims)
    return AlgebraInputs(bases, starts, partners, keep, points,
                         np.stack([x, y, z], axis=1))


# ---------------------------------------------------------------------------
# cli

CLI_GROUPS = 50   # four concepts each: 200 concepts in the KB


@dataclass(frozen=True)
class CliGroup:
    """Names of a noun, one touching it, one disjoint from it, and a
    property on one domain that is disjoint from the noun there."""

    noun: str
    touching: str
    disjoint: str
    prop: str


def cli_concepts(rng: np.random.Generator, groups: int) -> tuple[dict[str, Concept], list[CliGroup]]:
    """Groups of four concepts; cuboid counts follow the group index."""
    space = BIG_SPACE
    every = list(space.domain_names)
    concepts: dict[str, Concept] = {}
    out = []
    for g in range(groups):
        anchor = rng.uniform(-4.0, 4.0, size=space.n)
        names = [f"g{g:03d}{tag}" for tag in ("n", "t", "d", "p")]
        prop_domain = every[g % len(every)]
        near = anchor + rng.uniform(-0.04, 0.04, size=space.n)
        far = anchor + disjoint_offset(rng, space.n, list(range(space.n)))
        for k, (name, center) in enumerate(zip(names[:3], (anchor, near, far))):
            concepts[name] = box_concept(rng, space, every, center,
                                         1 + (g + k) % 3,
                                         random_weights(rng, space, every))
        aside = anchor + disjoint_offset(rng, space.n,
                                         space.indices_of([prop_domain]))
        concepts[names[3]] = box_concept(rng, space, [prop_domain], aside,
                                         1 + g % 2,
                                         random_weights(rng, space, [prop_domain]))
        out.append(CliGroup(*names))
    return concepts, out


def added_concept_json(rng: np.random.Generator) -> str:
    """Inline JSON for ``concept add``, in the knowledge base's own format."""
    space = BIG_SPACE
    every = list(space.domain_names)
    concept = box_concept(rng, space, every, rng.uniform(-4.0, 4.0, size=space.n),
                          2, random_weights(rng, space, every))
    return json.dumps(concept_to_dict(concept), sort_keys=True)
