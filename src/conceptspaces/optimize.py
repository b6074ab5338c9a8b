"""Numeric algorithms over concepts.

Exact distance from points to cuboids and cores via per-dimension clamping,
the height of intersection of two fuzzy concepts (largest membership level at
which their level sets still meet), and a brute-force lattice oracle used to
cross-check it.  This module computes gaps; the compiled metric of
:mod:`conceptspaces.space` turns them into distances.  The height is solved
per cuboid pair through the Lagrangian dual of the convex min-max, which
separates by domain under the combined metric; it comes with an attained
value, a witness point and a certified upper bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np

from .errors import LatticeSizeError, ValidationError
from .geometry import Core, Cuboid, nearest_point_pairs
from .space import Point, Weights

if TYPE_CHECKING:  # pragma: no cover
    from .concept import Concept

DEFAULT_TOL = 1e-6
DEFAULT_MAX_ITER = 10_000
DEFAULT_CELL_CAP = 20_000_000


# Entries of the point-by-cuboid gap array evaluated at once, which bounds
# the memory of a batch independently of its size.
_BLOCK_ENTRIES = 1 << 14


def distance_to_cuboid(x: Point, cuboid: Cuboid, weights: Weights) -> float:
    """Exact minimum combined distance from a point to a cuboid.

    Clamping each coordinate into the cuboid's bounds yields the nearest
    point because the combined metric treats dimensions independently.
    """
    if x.space != cuboid.space:
        raise ValidationError("point and cuboid belong to different spaces")
    if not cuboid.domains <= weights.domain_set:
        missing = sorted(cuboid.domains - weights.domain_set)
        raise ValidationError(f"weights do not cover domains {missing}")
    gap = np.minimum(np.maximum(x.array, cuboid.lo), cuboid.hi) - x.array
    return float(weights.metric(x.space).distance(gap))


def core_distance_batch(coords: np.ndarray, core: Core,
                        weights: Weights) -> np.ndarray:
    """Minimum combined distance from each coordinate row to a core."""
    coords = np.asarray(coords, dtype=float)
    metric = weights.metric(core.space)
    lo, hi = core.lo, core.hi
    rows = max(1, _BLOCK_ENTRIES // lo.size)
    out = np.empty(len(coords))
    for start in range(0, len(coords), rows):
        block = coords[start:start + rows, None, :]
        gap = np.minimum(np.maximum(block, lo), hi) - block
        out[start:start + rows] = metric.distance(gap).min(axis=1)
    return out


def alpha_cut_bbox(cuboid: Cuboid, peak: float, decay: float,
                   weights: Weights, alpha: float) -> Cuboid:
    """Tight bounding box of one cuboid's membership level set.

    Every finite bound moves outward by ``r / (w_domain * sqrt(w_dim))``
    with ``r = ln(peak / alpha) / decay``: the cheapest way to gain combined
    distance ``r`` along a single dimension.  The box contains the true
    level set and touches it on every face.
    """
    if not 0 < alpha <= peak:
        raise ValidationError(
            f"level {alpha!r} must be in (0, peak]; peak is {peak!r}")
    if not decay > 0:
        raise ValidationError("decay rate must be positive")
    if not cuboid.domains <= weights.domain_set:
        missing = sorted(cuboid.domains - weights.domain_set)
        raise ValidationError(f"weights do not cover domains {missing}")
    r = math.log(peak / alpha) / decay
    space = cuboid.space
    lo, hi = np.array(cuboid.p_min), np.array(cuboid.p_max)
    own = np.isfinite(lo)
    off = np.zeros(space.n)
    off[own] = r / weights.metric(space).axis_rates()[own]
    return Cuboid(space, cuboid.domains, tuple(lo - off), tuple(hi + off))


@dataclass(frozen=True)
class HeightResult:
    """Outcome of a height-of-intersection computation.

    ``value`` is the smaller of the two memberships at ``witness``, computed
    with the library's metric, so the true height is at least ``value``.
    ``bound`` is an upper bound on the true height from the Lagrangian dual,
    certified up to floating-point rounding, and ``gap`` is
    ``bound - value``.  ``converged`` is true exactly when ``gap`` is within
    the requested tolerance.  ``iterations`` counts the values of the dual
    variable evaluated over all cuboid pairs; it is 0 when the cores touch
    and ``value`` is exact.
    """

    value: float
    witness: Point
    iterations: int
    converged: bool
    bound: float

    @property
    def gap(self) -> float:
        return self.bound - self.value


# Safeguarded Newton steps per inner solve, and the width of the bracket on
# the dual variable at which the outer search stops.
_NEWTON_CAP = 100
_LAMBDA_TOL = 1e-13
# Relative size below which the dual's slope counts as zero.
_SLOPE_TOL = 1e-13
# Search range for ln(nu) beyond the curve's bends; past it the minimiser
# sits at an end of the gap to machine precision.
_NU_MARGIN = 60.0


class _Term:
    """One domain's share ``h(l)`` of a cuboid pair's dual function.

    ``h(l) = min_t l*a*|t|_u + (1-l)*b*|delta - t|_v``, where ``delta`` is
    the gap between the cuboids on the domain, ``|.|_u`` and ``|.|_v`` the
    two concepts' weighted Euclidean norms there and ``a``, ``b`` their
    decay times domain weight.  With ``rho = l*a / ((1-l)*b)``, moving the
    whole gap away from the first cuboid (``t = delta``) is optimal while
    ``rho <= r0``, moving none of it (``t = 0``) once ``rho >= rinf``, and in
    between the minimiser lies on the curve
    ``t_j = delta_j v_j / (v_j + nu u_j)``.  In the dual variable these
    thresholds are ``lo <= hi``; when the norms are proportional on the gap,
    ``lo == hi`` and ``h(l) = min(l*a*|delta|_u, (1-l)*b*|delta|_v)``.
    """

    __slots__ = ("span", "a", "b", "n_u", "n_v", "lo", "hi", "u", "v", "dd",
                 "s", "s_lo", "s_hi")

    def __init__(self, span: slice, a: float, b: float, u: np.ndarray,
                 v: np.ndarray, delta: np.ndarray):
        self.span, self.a, self.b = span, a, b
        dd = delta * delta
        self.n_u = math.sqrt(float(u @ dd))
        self.n_v = math.sqrt(float(v @ dd))
        ratio = (v / u)[dd > 0]
        edge = b * self.n_v / (a * self.n_u + b * self.n_v)
        self.lo = self.hi = edge
        if ratio.min() < ratio.max():
            r0 = self.n_u / math.sqrt(float((u * u / v) @ dd))
            rinf = math.sqrt(float((v * v / u) @ dd)) / self.n_v
            lo, hi = r0 * b / (a + r0 * b), rinf * b / (a + rinf * b)
            if lo < hi:
                self.lo, self.hi = lo, hi
                self.u, self.v, self.dd = u.tolist(), v.tolist(), dd.tolist()
                bend_lo = math.log(float(ratio.min()))
                bend_hi = math.log(float(ratio.max()))
                self.s = 0.5 * (bend_lo + bend_hi)
                self.s_lo = bend_lo - _NU_MARGIN
                self.s_hi = bend_hi + _NU_MARGIN

    def at(self, lam: float, side: int) -> tuple[float, float, list[float]]:
        """Slope term, certified lower bound on ``h(lam)`` and the fractions
        ``t_j / delta_j`` of a minimiser.  ``side`` picks the one-sided
        minimiser where ``lo == hi == lam`` (-1: left, +1: right)."""
        width = self.span.stop - self.span.start
        if lam < self.lo or (lam == self.lo and (side < 0 or self.lo < self.hi)):
            return self.a * self.n_u, lam * self.a * self.n_u, [1.0] * width
        if lam >= self.hi:
            return -self.b * self.n_v, (1.0 - lam) * self.b * self.n_v, [0.0] * width
        alpha, beta = lam * self.a, (1.0 - lam) * self.b
        rho = alpha / beta
        nu = math.exp(self._solve(math.log(rho)))
        tu = tv = cross = 0.0
        fracs = []
        for u, v, d in zip(self.u, self.v, self.dd):
            den = v + nu * u
            q, p = v / den, nu * u / den
            tu += u * d * q * q       # |t|_u^2
            tv += v * d * p * p       # |delta - t|_v^2
            cross += u * d * q        # <U t, delta>
            fracs.append(q)
        # Dual certificate y = alpha*U*t/|t|_u, scaled into the second
        # norm's dual ball: h >= y . delta.
        r = nu * math.sqrt(tu / tv)
        lower = min(1.0, r / rho) * alpha * cross / math.sqrt(tu)
        return self.a * math.sqrt(tu) - self.b * math.sqrt(tv), lower, fracs

    def _solve(self, ln_rho: float) -> float:
        """Root in ``s = ln nu`` of the stationarity condition
        ``ln(nu |t|_u / |delta - t|_v) = ln rho``, increasing in ``s``."""
        s, lo, hi = self.s, self.s_lo, self.s_hi
        for _ in range(_NEWTON_CAP):
            nu = math.exp(s)
            tu = tv = tu_p = tv_p = 0.0
            for u, v, d in zip(self.u, self.v, self.dd):
                den = v + nu * u
                q, p = v / den, nu * u / den
                tu += u * d * q * q
                tv += v * d * p * p
                tu_p += u * d * q * q * p
                tv_p += v * d * p * p * p
            phi = 0.5 * math.log(tu / tv) + s - ln_rho
            if phi > 0:
                hi = s
            elif phi < 0:
                lo = s
            else:
                break
            slope = tv_p / tv - tu_p / tu
            step = s - phi / slope if slope > 0 else lo - 1.0
            if not lo < step < hi:
                step = 0.5 * (lo + hi)
            done = abs(step - s) <= 1e-12
            s = step
            if done:
                break
        self.s = s
        return s


def _pair_dual(k1: float, k2: float, terms: Sequence[_Term],
               budget: int) -> tuple[float, list[list[float]], int]:
    """Maximise one cuboid pair's dual ``g(l)`` over ``l`` in [0, 1].

    ``g(l) = l*k1 + (1-l)*k2 + sum h(l)`` is concave, and its slope at
    ``l`` is ``k1 + A - k2 - B`` for the minimiser's two weighted distances
    ``A`` and ``B``.  The search brackets the sign change of that slope:
    first over the jumps of proportional-norm terms, then by a bracketed
    secant (Illinois) search over the continuous part.  Returns the largest
    certified ``g``, the per-term fractions of a primal point mixed from
    the bracket ends so that both sides balance, and the number of ``l``
    values evaluated.
    """
    steps = 0
    best = -math.inf

    def state(lam: float, side: int) -> tuple[float, list[list[float]]]:
        nonlocal steps, best
        steps += 1
        slope = k1 - k2
        scale = abs(slope)
        g = lam * k1 + (1.0 - lam) * k2
        fracs = []
        for term in terms:
            ds, h, f = term.at(lam, side)
            slope += ds
            scale += abs(ds)
            g += h
            fracs.append(f)
        best = max(best, g)
        # A slope within rounding of 0 marks the maximum itself.
        return (0.0 if abs(slope) <= _SLOPE_TOL * scale else slope), fracs

    def mix(left, right) -> list[list[float]]:
        theta = left[0] / (left[0] - right[0])
        return [[x + theta * (y - x) for x, y in zip(fa, fb)]
                for fa, fb in zip(left[1], right[1])]

    low = state(0.0, 1)
    if low[0] <= 0:
        return best, low[1], steps
    high = state(1.0, -1)
    if high[0] >= 0:
        return best, high[1], steps
    lam_lo, lam_hi = 0.0, 1.0
    jumps = sorted({t.lo for t in terms if t.lo == t.hi and 0.0 < t.lo < 1.0})
    i, j = 0, len(jumps)
    while i < j and steps < budget:
        m = (i + j) // 2
        left = state(jumps[m], -1)
        if left[0] <= 0:
            lam_hi, high, j = jumps[m], left, m
            continue
        right = state(jumps[m], 1)
        if right[0] >= 0:
            lam_lo, low, i = jumps[m], right, m + 1
            continue
        return best, mix(left, right), steps
    # No jump is left inside the bracket, so the slope can change only
    # where some term is strictly between its thresholds.
    curved = [t for t in terms if t.lo < t.hi]
    if curved:
        lam_lo = max(lam_lo, min(t.lo for t in curved))
        lam_hi = min(lam_hi, max(t.hi for t in curved))
    f_lo, f_hi = low[0], high[0]
    last = 0
    while f_hi < 0 and lam_hi - lam_lo > _LAMBDA_TOL and steps < budget:
        lam = lam_lo + (lam_hi - lam_lo) * f_lo / (f_lo - f_hi)
        if not lam_lo < lam < lam_hi:
            lam = 0.5 * (lam_lo + lam_hi)
        mid = state(lam, 1)
        if mid[0] > 0:
            lam_lo, low, f_lo = lam, mid, mid[0]
            if last > 0:
                f_hi *= 0.5
            last = 1
        else:
            lam_hi, high, f_hi = lam, mid, mid[0]
            if last < 0:
                f_lo *= 0.5
            last = -1
    return best, mix(low, high), steps


def height_of_intersection(c1: "Concept", c2: "Concept",
                           tol: float = DEFAULT_TOL,
                           max_iter: int = DEFAULT_MAX_ITER) -> HeightResult:
    """Largest membership level at which two concepts' level sets meet.

    Equals the supremum over the space of the pointwise minimum of the two
    membership functions.  When the crisp cores share a point the answer is
    exactly the smaller peak.  Otherwise the height is the largest over
    cuboid pairs of ``sup min(mu1, mu2)``, and for each pair ``-ln`` of it
    is ``max_l g(l)``, the Lagrangian dual of ``min_x max(f1, f2)`` with
    ``f = -ln(peak) + decay * distance``.  The combined metric makes ``g``
    separate by domain: closed form where the two concepts' norms on a
    domain are proportional, one monotone equation otherwise.  The dual
    gives the certified ``bound``; a point mixed from the search's last
    bracket gives the attained ``value``.  ``max_iter`` caps the dual
    values evaluated, split evenly over the cuboid pairs (at least two per
    pair).
    """
    if c1.space != c2.space:
        raise ValidationError("concepts belong to different spaces")
    if not tol > 0:
        raise ValidationError("tolerance must be positive")
    space = c1.space
    near1, near2 = nearest_point_pairs(c1.core, c2.core)
    points = near1.reshape(-1, space.n)
    deltas = near2.reshape(-1, space.n) - points
    touching = np.flatnonzero(~deltas.any(axis=1))
    if touching.size:
        i, j = divmod(int(touching[0]), len(c2.core.cuboids))
        shared = c1.core.cuboids[i].intersect(c2.core.cuboids[j])
        witness = Point(space, tuple(shared.inner_point()))
        low = min(c1.peak, c2.peak)
        return HeightResult(low, witness, iterations=0, converged=True,
                            bound=low)

    m1 = c1.weights.metric(space)
    m2 = c2.weights.metric(space)
    ends = m1.starts.tolist()[1:] + [space.n]
    domains = [(slice(start, stop), c1.decay * w1, c2.decay * w2)
               for start, stop, w1, w2 in zip(m1.starts.tolist(), ends,
                                              m1.wdom.tolist(), m2.wdom.tolist())
               if w1 > 0 and w2 > 0]
    k1, k2 = -math.log(c1.peak), -math.log(c2.peak)
    budget = max(2, max_iter // len(deltas))
    witnesses = np.empty_like(deltas)
    min_dual = math.inf
    total = 0
    for row, (pa, delta) in enumerate(zip(points, deltas)):
        terms = [_Term(span, da, db, m1.wdim[span], m2.wdim[span], delta[span])
                 for span, da, db in domains if delta[span].any()]
        dual, fracs, steps = _pair_dual(k1, k2, terms, budget)
        total += steps
        min_dual = min(min_dual, dual)
        f = np.zeros(space.n)
        for term, frac in zip(terms, fracs):
            f[term.span] = frac
        witnesses[row] = pa + f * delta
    values = np.minimum(c1.membership_batch(witnesses),
                        c2.membership_batch(witnesses))
    best = int(np.argmax(values))
    value = float(values[best])
    bound = max(math.exp(-min_dual), value)
    return HeightResult(value, Point(space, tuple(witnesses[best].tolist())),
                        iterations=total, converged=bound - value <= tol,
                        bound=bound)


def oracle_bounds(c1: "Concept", c2: "Concept",
                  factor: float = 3.0) -> dict[str, tuple[float, float]]:
    """Lattice bounds enclosing both cores plus a weighted decay margin.

    Each dimension extends beyond the cores' finite extents by
    ``factor / decay`` converted into coordinate units through the owning
    concept's weights.
    """
    space = c1.space
    lows, highs = [], []
    for concept in (c1, c2):
        core = concept.core
        lo = np.where(np.isfinite(core.lo), core.lo, np.inf).min(axis=0)
        hi = np.where(np.isfinite(core.hi), core.hi, -np.inf).max(axis=0)
        bounded = np.isfinite(lo)
        off = np.zeros(space.n)
        rates = concept.weights.metric(space).axis_rates()
        off[bounded] = (factor / concept.decay) / rates[bounded]
        lows.append(lo - off)
        highs.append(hi + off)
    lo, hi = np.minimum(*lows), np.maximum(*highs)
    return {d: (float(lo[i]), float(hi[i]))
            for i, d in enumerate(space.dim_names) if math.isfinite(lo[i])}


def grid_oracle_max_min(c1: "Concept", c2: "Concept",
                        bounds: Mapping[str, tuple[float, float]], step: float,
                        cell_cap: int = DEFAULT_CELL_CAP) -> float:
    """Exhaustive lattice maximization of the two memberships' minimum.

    Validation oracle: evaluates the pointwise minimum on a regular lattice
    over ``bounds`` and returns the best value seen.  Improves monotonically
    as ``step`` shrinks.  Raises ``LatticeSizeError`` when the lattice would
    exceed ``cell_cap`` cells.
    """
    if c1.space != c2.space:
        raise ValidationError("concepts belong to different spaces")
    if not step > 0:
        raise ValidationError("step must be positive")
    space = c1.space
    union = c1.core.domain_set | c2.core.domain_set
    lattice_dims = [d for name in space.domain_names if name in union
                    for d in space.dims_of(name)]
    missing = [d for d in lattice_dims if d not in bounds]
    if missing:
        raise ValidationError(f"bounds missing for dimensions {missing}")

    counts = []
    for d in lattice_dims:
        lo, hi = bounds[d]
        if hi < lo:
            raise ValidationError(f"empty bounds for dimension {d!r}")
        counts.append(int(math.floor((hi - lo) / step + 1e-9)) + 1)
    total = math.prod(counts)
    if total > cell_cap:
        raise LatticeSizeError(
            f"lattice of {total} cells exceeds the cap of {cell_cap}")
    axes = [bounds[d][0] + step * np.arange(count)
            for d, count in zip(lattice_dims, counts)]

    idx = [space.index_of(d) for d in lattice_dims]
    best = -math.inf
    chunk = 1 << 17
    for start in range(0, total, chunk):
        stop = min(start + chunk, total)
        flat = np.arange(start, stop)
        multi = np.unravel_index(flat, counts)
        coords = np.zeros((stop - start, space.n))
        for k, dim_i in enumerate(idx):
            coords[:, dim_i] = axes[k][multi[k]]
        values = np.minimum(c1.membership_batch(coords),
                            c2.membership_batch(coords))
        best = max(best, float(values.max()))
    return best
