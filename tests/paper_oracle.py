"""The paper's metric and membership, written out from public fields only.

The tests' one reference for the combined metric: no function here calls
the library's kernels.  A domain's weighted Euclidean norm squares each
gap, weights it, sums the domain's terms in the order ``a0 + ((a1 + a2) +
...)`` and takes the root; the combined distance adds the covered domains'
weighted norms left to right, in space order.  That is the summation
order ``space.Metric`` documents, so for gaps whose squares do not overflow
:func:`distance` and :func:`membership` give the library's bits.
:func:`accurate_distance` rescales and sums exactly, and the lattice
functions search a box exhaustively.
"""

from __future__ import annotations

import math

import numpy as np

# Lattice points evaluated at once.
_CHUNK = 1 << 17


def norms(space, weights, gaps) -> np.ndarray:
    """Weighted norm of each row of ``gaps`` on each covered domain,
    ``(rows, covered domains)``."""
    out = []
    start = 0
    for name, dims in space.domains:
        cols = range(start, start + len(dims))
        start += len(dims)
        if name not in weights.domain_weights:
            continue
        sub = weights.dimension_weights[name]
        terms = [gaps[:, j] * gaps[:, j] * sub[d] for j, d in zip(cols, dims)]
        total = terms[0]
        if len(terms) > 1:
            total = total + sum(terms[2:], terms[1])
        out.append(np.sqrt(total))
    return np.stack(out, axis=1)


def distance(space, weights, gaps) -> np.ndarray:
    """Combined distance of each row of ``gaps``."""
    covered = [name for name in space.domain_names
               if name in weights.domain_weights]
    terms = [weights.domain_weights[name] * column
             for name, column in zip(covered, norms(space, weights, gaps).T)]
    return sum(terms[1:], terms[0])


def accurate_distance(space, weights, gaps) -> np.ndarray:
    """Combined distance of each row of ``gaps``, each domain divided by its
    largest gap before squaring and every sum taken exactly."""
    out = []
    for gap in np.asarray(gaps, dtype=float).tolist():
        parts = []
        start = 0
        for name, dims in space.domains:
            part = gap[start:start + len(dims)]
            start += len(dims)
            if name not in weights.domain_weights:
                continue
            scale = max(map(abs, part)) or 1.0
            sub = weights.dimension_weights[name]
            inner = math.fsum(sub[d] * (g / scale) ** 2
                              for g, d in zip(part, dims))
            parts.append(weights.domain_weights[name] * math.sqrt(inner) * scale)
        out.append(math.fsum(parts))
    return np.array(out)


def membership(concept, points) -> np.ndarray:
    """``peak * exp(-decay * d)`` at each row of ``points``, with ``d`` the
    smallest distance to a core row's clamp of the point."""
    points = np.asarray(points, dtype=float)
    best = np.full(len(points), np.inf)
    for lo, hi in zip(concept.core.lo, concept.core.hi):
        gaps = np.clip(points, lo, hi) - points
        best = np.minimum(best, distance(concept.space, concept.weights, gaps))
    return concept.peak * np.exp(-concept.decay * best)


def _lattice(lo, hi, step):
    """The points, in chunks of rows, of a lattice that spans the box
    ``[lo, hi]`` with spacing at most ``step`` on every axis."""
    axes = [np.linspace(a, b, math.ceil((b - a) / step - 1e-9) + 1)
            for a, b in zip(lo, hi)]
    counts = [len(axis) for axis in axes]
    total = math.prod(counts)
    for start in range(0, total, _CHUNK):
        index = np.unravel_index(np.arange(start, min(start + _CHUNK, total)),
                                 counts)
        yield np.stack([axis[i] for axis, i in zip(axes, index)], axis=1)


def lattice_distance(space, weights, x, lo, hi, step) -> float:
    """Smallest combined distance from the point ``x`` to a lattice over the
    box ``[lo, hi]``, an upper bound on the distance to the box."""
    return min(float(distance(space, weights, pts - x).min())
               for pts in _lattice(lo, hi, step))


def lattice_max_min(c1, c2, lo, hi, step) -> float:
    """Largest minimum of the two memberships over a lattice over the box
    ``[lo, hi]``, a lower bound on the height of intersection."""
    return max(float(np.minimum(membership(c1, pts), membership(c2, pts)).max())
               for pts in _lattice(lo, hi, step))
