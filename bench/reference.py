"""Independent references that the benchmark checks library outputs against.

Nothing here calls the library's distance kernels: the combined metric is
evaluated from the concepts' public fields with plain numpy, one domain
block at a time.
"""

from __future__ import annotations

import math

import numpy as np

from conceptspaces import Concept, Space, Weights


def _blocks(space: Space, weights: Weights):
    """(domain weight, dimension indices, dimension weights) per covered domain."""
    out = []
    for name, dims in space.domains:
        if name in weights.domain_weights:
            sub = weights.dimension_weights[name]
            out.append((weights.domain_weights[name],
                        np.array([space.index_of(d) for d in dims]),
                        np.array([sub[d] for d in dims])))
    return out


def distance(space: Space, weights: Weights, x: np.ndarray,
             y: np.ndarray) -> float:
    """Weighted Manhattan sum over domains of weighted Euclidean distances."""
    return sum(w_dom * math.sqrt(float(np.sum(w_dim * (x[idx] - y[idx]) ** 2)))
               for w_dom, idx, w_dim in _blocks(space, weights))


def membership(concept: Concept, points: np.ndarray) -> np.ndarray:
    """Membership of each row of ``points``: peak * exp(-decay * d(x, core))."""
    lo = np.array([c.p_min for c in concept.core.cuboids])
    hi = np.array([c.p_max for c in concept.core.cuboids])
    # (points, cuboids, dims) gap to each cuboid; 0 inside and on open sides.
    gap = (np.maximum(lo[None] - points[:, None], 0.0)
           + np.maximum(points[:, None] - hi[None], 0.0))
    dist = np.zeros(gap.shape[:2])
    for w_dom, idx, w_dim in _blocks(concept.space, concept.weights):
        dist += w_dom * np.sqrt(np.sum(w_dim * gap[:, :, idx] ** 2, axis=2))
    return concept.peak * np.exp(-concept.decay * dist.min(axis=1))


def closed_form_height(c1: Concept, c2: Concept) -> float | None:
    """Exact height of intersection via the per-domain Lagrangian dual.

    For one cuboid pair, ``-ln`` of the height is ``max_l g(l)`` with
    ``g(l) = l*k1 + (1-l)*k2 + sum_dom min(l*a, (1-l)*b) * delta``, where
    ``k = -ln(peak)``, ``a``/``b`` are decay times domain weight (0 for a
    domain the concept does not cover) and ``delta`` is the distance between
    the two cuboids within the domain.  ``g`` is concave and piecewise
    linear, so its maximum lies at ``l`` in {0, 1, b/(a+b) per domain}.
    The concept height is the largest pair height.

    The per-domain term has this form only when both concepts measure the
    domain with the same norm, which holds when their dimension weights
    agree there (always so for one-dimension domains).  Returns ``None``
    when they differ on a domain both concepts cover.
    """
    space = c1.space
    w1, w2 = c1.weights, c2.weights
    domains = []
    for name, dims in space.domains:
        in1 = name in w1.domain_weights
        in2 = name in w2.domain_weights
        if not (in1 or in2):
            continue
        sub = (w1 if in1 else w2).dimension_weights[name]
        if in1 and in2 and len(dims) > 1 and sub != w2.dimension_weights[name]:
            return None
        domains.append((np.array([space.index_of(d) for d in dims]),
                        np.array([sub[d] for d in dims]),
                        c1.decay * w1.domain_weights[name] if in1 else 0.0,
                        c2.decay * w2.domain_weights[name] if in2 else 0.0))
    k1, k2 = -math.log(c1.peak), -math.log(c2.peak)
    lambdas = [0.0, 1.0] + [b / (a + b) for _, _, a, b in domains if a + b > 0]
    best = math.inf
    for p in c1.core.cuboids:
        for q in c2.core.cuboids:
            gap = np.maximum(np.maximum(np.subtract(q.p_min, p.p_max),
                                        np.subtract(p.p_min, q.p_max)), 0.0)
            deltas = [math.sqrt(float(np.sum(w * gap[idx] ** 2)))
                      for idx, w, _, _ in domains]
            g = max(lam * k1 + (1 - lam) * k2
                    + sum(min(lam * a, (1 - lam) * b) * delta
                          for (_, _, a, b), delta in zip(domains, deltas))
                    for lam in lambdas)
            best = min(best, g)
    return math.exp(-best)


def same_weights(w1: Weights, w2: Weights, rtol: float = 1e-12) -> bool:
    """Equal domain and dimension weights, up to rounding."""
    if w1.domain_weights.keys() != w2.domain_weights.keys():
        return False
    return all(rel_close(w1.domain_weights[n], w2.domain_weights[n], rtol)
               and all(rel_close(v, w2.dimension_weights[n][d], rtol)
                       for d, v in w1.dimension_weights[n].items())
               for n in w1.domain_weights)


def rel_close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b), 1e-300)
