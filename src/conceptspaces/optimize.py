"""Numeric algorithms over concepts.

Exact distance from points to cores via per-dimension clamping, the height
of intersection of two fuzzy concepts (largest membership level at which
their level sets still meet), and a brute-force lattice oracle used to
cross-check it.  This module computes gaps, dimension-first as the compiled
metric of :mod:`conceptspaces.space` takes them, and that metric turns them
into distances; a point's distance to a core has the same bits whether it
is asked for alone or in a batch of any size.

The height is the best over cuboid pairs; each pair is solved through the
Lagrangian dual of the convex min-max, which separates by domain under the
combined metric, and pairs are solved best first by a certified floor, so
those that cannot beat the value already attained are skipped.  A domain's
gap too large to square is rescaled there, as the metric rescales it.  Each
solved pair gets at most ``_DUAL_CAP`` evaluations of its dual.  The result
comes with an attained value, a witness point and a certified upper bound.
The boxes that intersection grows the cores to at that height are rounded
outward, so they always hold the witness, and intersection takes their
bound rows as they are, without building cores of them.

Everything runs on a core's bound rows: :func:`distance_to_cuboid` and
:func:`alpha_cut_bbox` adapt the row routines to one cuboid, and the grid
oracle and ``cli.export_grid`` share one lattice, sized before it is built.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np

from .errors import LatticeSizeError, ValidationError
from .geometry import (_BLOCK_ENTRIES, Core, Cuboid, _inner_point,
                       nearest_point_pairs)
from .space import _SQUARE_LIMIT, Metric, Point, Space, Weights, _check_decay

if TYPE_CHECKING:  # pragma: no cover
    from .concept import Concept

DEFAULT_TOL = 1e-6
# Most cells of a lattice (the grid oracle's, or an exported grid's).
CELL_CAP = 20_000_000
# Margin of the oracle's lattice beyond the cores, in units of 1 / decay.
_ORACLE_MARGIN = 3.0


def distance_to_cuboid(x: Point, cuboid: Cuboid, weights: Weights) -> float:
    """Exact minimum combined distance from a point to a cuboid.

    Clamping each coordinate into the cuboid's bounds yields the nearest
    point because the combined metric treats dimensions independently.
    A cuboid with no domains bounds nothing and cannot form a core.
    """
    if x.space != cuboid.space:
        raise ValidationError("point and cuboid belong to different spaces")
    if not cuboid.domains <= weights.domain_set:
        missing = sorted(cuboid.domains - weights.domain_set)
        raise ValidationError(f"weights do not cover domains {missing}")
    if not cuboid.domains:
        return 0.0
    return float(core_distance_batch(x.array[None], Core((cuboid,)),
                                     weights)[0])


def core_distance_batch(coords: np.ndarray, core: Core,
                        weights: Weights) -> np.ndarray:
    """Minimum combined distance from each coordinate row to a core.

    The gaps of a block of rows to the core's ``k`` cuboids are built
    dimension-first, ``(n, k, rows)``, from the core's transposed bounds,
    and evaluated as ``(n, k * rows)``.
    """
    coords = np.asarray(coords, dtype=float)
    metric = weights.metric(core.space)
    lo, hi = core._bounds_t
    n, k = lo.shape[:2]
    rows = max(1, _BLOCK_ENTRIES // lo.size)
    reach = (np.maximum.reduce(np.abs(coords), axis=None, initial=0.0)
             + core._reach)
    cols = coords.T
    out = np.empty(len(coords))
    for start in range(0, len(coords), rows):
        block = cols[:, None, start:start + rows]
        gap = np.maximum(block, lo)
        np.minimum(gap, hi, out=gap)
        gap -= block
        dist = metric._distance(gap.reshape(n, -1), reach)
        np.minimum.reduce(dist.reshape(k, -1), axis=0,
                          out=out[start:start + rows])
    return out


def alpha_cut_bbox(cuboid: Cuboid, peak: float, decay: float,
                   weights: Weights, alpha: float) -> Cuboid:
    """Tight bounding box of one cuboid's membership level set.

    Every finite bound moves outward by ``r / (w_domain * sqrt(w_dim))``
    with ``r = ln(peak / alpha) / decay``: the cheapest way to gain combined
    distance ``r`` along a single dimension.  The box contains the true
    level set and touches it on every face, up to rounding to nearest;
    intersection grows cores by the outward-rounded :func:`_alpha_cut_core`.
    """
    if not 0 < alpha <= peak:
        raise ValidationError(
            f"level {alpha!r} must be in (0, peak]; peak is {peak!r}")
    _check_decay(decay)
    if not cuboid.domains <= weights.domain_set:
        missing = sorted(cuboid.domains - weights.domain_set)
        raise ValidationError(f"weights do not cover domains {missing}")
    lo, hi = _alpha_cut_rows(cuboid.space, np.array(cuboid.p_min),
                             np.array(cuboid.p_max), weights,
                             math.log(peak / alpha) / decay)
    return Cuboid(cuboid.space, cuboid.domains, tuple(lo), tuple(hi))


def _alpha_cut_core(concept: "Concept",
                    alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """The bound rows of the concept's core grown to boxes of its level set
    at ``alpha`` and rounded outward, so they hold every point whose
    computed membership reaches ``alpha``: the radius is ``r = (ln(peak /
    alpha) + 4 eps) * (1 + (n + 8) eps) / decay``, each grown bound steps
    one float out, and a grown bound beyond the largest finite float (at
    the smallest decays) is clamped to it, which keeps every finite point
    inside.  Returns the ``lo`` and ``hi`` rows, cuboid rows by
    construction; :func:`geometry._intersect_rows` intersects them
    without building a core of them.

    Derivation, with ``eps`` the machine epsilon, rounded operations off by
    ``eps/2`` and ``np.exp``/``math.log`` taken to be off by ``2 eps``.
    Take ``x`` with computed membership ``m >= alpha``, and ``g`` its exact
    gap to its nearest row under the computed distance ``D``.
    ``exp`` (``2 eps``) and the product with ``peak`` (``eps/2``) give
    ``decay*D <= ln(peak/alpha) + 2.5 eps``; rounding ``peak/alpha`` adds
    ``eps/2``, within the absolute ``4 eps``, which is needed where ``m``
    rounds to the peak: ``ln(peak/alpha)`` is 0 there, ``D`` is not.  The
    metric rounds the gap, its square, the weight product, at most ``n - 1``
    sums, the root and the domain weight product (and scales huge gaps);
    all terms are non-negative, so ``D >= rate_j |g_j| (1 - (n+5) eps/2)``
    on each dimension.  With ``decay*D`` (``eps/2``), the log (``2 eps``),
    the sum, product and quotient forming ``r`` (``1.5 eps``), the axis
    rate (``eps``) and the offset ``r/rate_j`` (``eps/2``) that is
    ``(n/2 + 8) eps`` relative; the spare ``n/2`` covers second-order
    terms.  So ``|g_j|`` is at most the offset, and the outward step covers
    rounding ``lo - off`` and ``hi + off``.  The height's witness thus lies
    in a grown row of each concept, and those two rows meet.
    """
    core = concept.core
    eps = sys.float_info.epsilon
    r = ((math.log(concept.peak / alpha) + 4 * eps)
         * (1 + (core.space.n + 8) * eps) / concept.decay)
    lo, hi = _alpha_cut_rows(core.space, core.lo, core.hi, concept.weights, r)
    # one float outward, but not past the largest finite float where the
    # core bounds the dimension: a grown bound that overflowed to infinity
    # steps back to it, and unbounded dimensions stay unbounded
    top = sys.float_info.max
    return (np.nextafter(lo, np.minimum(core.lo, -top)),
            np.nextafter(hi, np.maximum(core.hi, top)))


def _alpha_cut_rows(space: Space, lo: np.ndarray, hi: np.ndarray,
                    weights: Weights,
                    r: float) -> tuple[np.ndarray, np.ndarray]:
    """Bound rows (or one row) with every finite bound moved outward by
    ``r`` over its dimension's axis rate, rounded to nearest.  Infinite
    bounds stay as they are; dimensions the weights do not measure have
    no finite bound."""
    off = np.array([r / rate if rate > 0 else 0.0
                    for rate in weights.metric(space)._rate_floats])
    return lo - off, hi + off


@dataclass(frozen=True)
class HeightResult:
    """Outcome of a height-of-intersection computation.

    ``value`` is the smaller of the two memberships at ``witness``, computed
    with the library's metric, so the true height is at least ``value``;
    the core of the two concepts' intersection holds ``witness``.
    ``bound`` is an upper bound on the true height from the Lagrangian dual,
    certified up to floating-point rounding.  Every true height is
    positive, so ``bound`` is at least the smallest positive float,
    ``math.ulp(0.0)``, even where the dual's ``exp`` underflows to 0 (as
    ``value`` may: cores 199 apart at decay 10 have height e**-995).
    ``gap`` is ``bound - value``.  ``converged`` is true exactly when
    ``gap`` is at most ``DEFAULT_TOL``.  ``iterations`` counts the values
    of the dual variable evaluated over the cuboid pairs solved, at most
    ``_DUAL_CAP`` per pair; pairs skipped because their floor rules them
    out add nothing.  It is 0 exactly when the cores touch (every solved
    pair evaluates at least once), and ``value`` is then exact.
    """

    value: float
    witness: Point
    iterations: int
    bound: float

    @property
    def gap(self) -> float:
        return self.bound - self.value

    @property
    def converged(self) -> bool:
        return self.gap <= DEFAULT_TOL


# Safeguarded Newton steps per inner solve, the width of the bracket on the
# dual variable at which the outer search stops, and the most values of the
# dual variable evaluated for one cuboid pair (about twice the most any pair
# was seen to need with no cap).
_NEWTON_CAP = 100
_LAMBDA_TOL = 1e-13
_DUAL_CAP = 128
# Relative size below which the dual's slope counts as zero.
_SLOPE_TOL = 1e-13
# Search range for ln(nu) beyond the curve's bends; past it the minimiser
# sits at an end of the gap to machine precision.
_NU_MARGIN = 60.0
# Relative margin by which a pair's floor must exceed -ln of the best value
# attained before the pair is skipped, so that rounding never skips a tie.
_FLOOR_MARGIN = 1e-9


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
                 v: np.ndarray, delta: np.ndarray, reach: float = math.inf):
        # ``reach`` bounds |delta| as for ``Metric._norms``.  ``h`` is
        # 1-homogeneous in the gap, so a gap too large to square is divided
        # by its largest magnitude, which ``a`` and ``b`` carry instead.
        if reach > _SQUARE_LIMIT:
            top = float(np.abs(delta).max())
            if _SQUARE_LIMIT < top < math.inf:
                a, b, delta = a * top, b * top, delta / top
        self.span, self.a, self.b = span, a, b
        dd = delta * delta
        self.n_u = math.sqrt(float(u @ dd))
        self.n_v = math.sqrt(float(v @ dd))
        ul, vl, ddl = u.tolist(), v.tolist(), dd.tolist()
        ratio = [y / x for x, y, d in zip(ul, vl, ddl) if d > 0]
        low, high = min(ratio), max(ratio)
        edge = b * self.n_v / (a * self.n_u + b * self.n_v)
        self.lo = self.hi = edge
        if low < high:
            r0 = self.n_u / math.sqrt(float((u * u / v) @ dd))
            rinf = math.sqrt(float((v * v / u) @ dd)) / self.n_v
            lo, hi = r0 * b / (a + r0 * b), rinf * b / (a + rinf * b)
            if lo < hi:
                self.lo, self.hi = lo, hi
                self.u, self.v, self.dd = ul, vl, ddl
                bend_lo, bend_hi = math.log(low), math.log(high)
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


def _pair_dual(k1: float, k2: float,
               terms: Sequence[_Term]) -> tuple[float, list[list[float]], int]:
    """Maximise one cuboid pair's dual ``g(l)`` over ``l`` in [0, 1].

    ``g(l) = l*k1 + (1-l)*k2 + sum h(l)`` is concave, and its slope at
    ``l`` is ``k1 + A - k2 - B`` for the minimiser's two weighted distances
    ``A`` and ``B``.  The search brackets the sign change of that slope:
    first over the jumps of proportional-norm terms, then by a bracketed
    secant (Illinois) search over the continuous part.  Returns the largest
    certified ``g``, the per-term fractions of a primal point mixed from
    the bracket ends so that both sides balance, and the number of ``l``
    values evaluated, at most ``_DUAL_CAP``; a search cut there still
    returns a certified ``g``.
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
    while i < j and steps < _DUAL_CAP:
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
    while f_hi < 0 and lam_hi - lam_lo > _LAMBDA_TOL and steps < _DUAL_CAP:
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


def height_of_intersection(c1: "Concept", c2: "Concept") -> HeightResult:
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
    bracket gives the attained ``value``.

    The pairs are solved best first, in ascending order of a certified
    floor on their ``-ln`` height (:func:`_pair_floors`), and the search
    stops at the first pair whose floor exceeds ``-ln(value)`` by a small
    relative margin.  That pair and all later ones have heights of at most
    ``exp(-floor) < value``, so they cannot beat the value attained and
    the bound stays certified.  Ties go to the pair that comes first in
    row order, as in a search over all pairs.  Each solved pair evaluates
    at most ``_DUAL_CAP`` values of its dual variable; a pair cut there
    still gives a certified bound.
    """
    if c1.space != c2.space:
        raise ValidationError("concepts belong to different spaces")
    space = c1.space
    near1, near2 = nearest_point_pairs(c1.core, c2.core)
    points = near1.reshape(-1, space.n)
    deltas = near2.reshape(-1, space.n) - points
    apart = deltas.any(axis=1)
    if not apart.all():
        # the first pair of rows that meet, in row-major order
        i, j = divmod(int(apart.argmin()), len(c2.core.domains))
        shared = _inner_point(np.maximum(c1.core.lo[i], c2.core.lo[j]),
                              np.minimum(c1.core.hi[i], c2.core.hi[j]))
        witness = Point(space, tuple(shared))
        low = min(c1.peak, c2.peak)
        return HeightResult(low, witness, iterations=0, bound=low)

    m1 = c1.weights.metric(space)
    m2 = c2.weights.metric(space)
    domains = [(slice(start, stop), c1.decay * w1, c2.decay * w2)
               for (start, stop), w1, w2 in zip(m1._spans, m1.wdom.tolist(),
                                                m2.wdom.tolist())
               if w1 > 0 and w2 > 0]
    k1, k2 = -math.log(c1.peak), -math.log(c2.peak)
    floors = _pair_floors(c1, c2, m1, m2, k1, k2, deltas)
    reach = c1.core._reach + c2.core._reach
    min_dual = math.inf
    value, witness, best = -math.inf, None, -1
    limit = math.inf
    total = 0
    for row in np.argsort(floors, kind="stable").tolist():
        if floors[row] > limit:
            break
        delta = deltas[row]
        gap = delta.tolist()
        terms = [_Term(span, da, db, m1.wdim[span], m2.wdim[span],
                       delta[span], reach)
                 for span, da, db in domains if any(gap[span])]
        dual, fracs, steps = _pair_dual(k1, k2, terms)
        total += steps
        min_dual = min(min_dual, dual)
        f = [0.0] * space.n
        for term, frac in zip(terms, fracs):
            f[term.span] = frac
        x = [p + q * d for p, q, d in zip(points[row].tolist(), f, gap)]
        # the smaller membership at x, as Concept.membership computes it
        coords = np.array([x])
        attained = float(min(
            c.peak * np.exp(-c.decay * core_distance_batch(coords, c.core,
                                                           c.weights)[0])
            for c in (c1, c2)))
        if attained > value or (attained == value and row < best):
            value, witness, best = attained, x, row
            if value > 0:
                t = -math.log(value)
                limit = t + _FLOOR_MARGIN * (1.0 + t)
    bound = max(math.exp(-min_dual), value, math.ulp(0.0))
    return HeightResult(value, Point(space, tuple(witness)),
                        iterations=total, bound=bound)


def _pair_floors(c1: "Concept", c2: "Concept", m1: Metric, m2: Metric,
                 k1: float, k2: float, deltas: np.ndarray) -> np.ndarray:
    """Certified lower bound on ``-ln`` of every cuboid pair's height.

    ``deltas`` holds the gaps between the pairs' nearest points, one row
    per pair, for cores that do not touch, and ``m1``, ``m2`` and ``k1``,
    ``k2`` are the concepts' metrics and ``-ln(peak)``.  A gap is nonzero
    only on the domains that both cores own, which both weights measure.
    Write ``d1`` for the first concept's distance and ``kappa`` for the
    smallest ratio, over those domains, of the second concept's axis rates
    to the first's.  Then ``f2 >= k2 + c2 * kappa * d1(x, C_j)`` with ``c``
    the decay, and ``d1(x, C_i) + d1(x, C_j) >= d1(gap)``, so
    ``max(f1, f2)`` is at least the balance point ``(A*B*D + B*k1 + A*k2)
    / (A + B)`` with ``(A, B, D) = (c1, c2 * kappa, d1(gap))``.  The same
    holds with the roles of the metrics swapped, and the larger of the two
    is kept, as is ``max(k1, k2)``.  When the weights are the same,
    ``kappa == 1`` and the floor is the pair's exact ``-ln`` height.
    """
    rates = [(x, y) for x, y in zip(m1._rate_floats, m2._rate_floats)
             if x > 0 and y > 0]
    gaps = deltas.T
    reach = c1.core._reach + c2.core._reach
    floor = np.full(len(deltas), max(k1, k2))
    for a, b, dist in ((c1.decay, c2.decay * min(y / x for x, y in rates),
                        m1._distance(gaps, reach)),
                       (c1.decay * min(x / y for x, y in rates), c2.decay,
                        m2._distance(gaps, reach))):
        np.maximum(floor, (a * b * dist + b * k1 + a * k2) / (a + b),
                   out=floor)
    return floor


def oracle_bounds(c1: "Concept",
                  c2: "Concept") -> dict[str, tuple[float, float]]:
    """Lattice bounds enclosing both cores plus a weighted decay margin.

    Each concept's rows are grown by :func:`_alpha_cut_rows` at radius
    ``_ORACLE_MARGIN / decay``, and each dimension spans the finite grown
    bounds of both.
    """
    space = c1.space
    lows, highs = [], []
    for concept in (c1, c2):
        core = concept.core
        lo, hi = _alpha_cut_rows(space, core.lo, core.hi, concept.weights,
                                 _ORACLE_MARGIN / concept.decay)
        lows.append(np.where(np.isfinite(lo), lo, np.inf).min(axis=0))
        highs.append(np.where(np.isfinite(hi), hi, -np.inf).max(axis=0))
    lo, hi = np.minimum(*lows), np.maximum(*highs)
    return {d: (float(lo[i]), float(hi[i]))
            for i, d in enumerate(space.dim_names) if math.isfinite(lo[i])}


def _lattice_axes(ranges: Mapping[str, tuple[float, float]],
                  step: float) -> list[np.ndarray]:
    """The axes of a regular lattice, one per ``{dim: (low, high)}`` entry
    in order: ``low`` plus every multiple of ``step`` up to ``high``.

    Raises ``LatticeSizeError`` when the lattice would exceed ``CELL_CAP``
    cells, before any axis is built; a range holding more steps than the
    largest float counts infinitely many cells.  A range wider than the
    largest float is counted and built on halved bounds, which is exact.
    """
    if not 0 < step < math.inf:
        raise ValidationError("step must be positive and finite")
    counts = []
    for d, (lo, hi) in ranges.items():
        if not lo <= hi:   # NaN too
            raise ValidationError(f"empty range for dimension {d!r}")
        if math.isinf(lo) or math.isinf(hi):
            raise ValidationError(f"range for dimension {d!r} is unbounded")
        if hi - lo < math.inf:
            steps = (hi - lo) / step + 1e-9
        else:
            steps = (hi / 2 - lo / 2) / step * 2 + 1e-9
        # one axis alone past the cap puts the lattice past it (inf too)
        if not steps < CELL_CAP:
            raise LatticeSizeError(
                f"lattice exceeds the cap of {CELL_CAP} cells along "
                f"dimension {d!r}")
        counts.append(int(math.floor(steps)) + 1)
    total = math.prod(counts)
    if total > CELL_CAP:
        raise LatticeSizeError(
            f"lattice of {total} cells exceeds the cap of {CELL_CAP}")
    axes = []
    for (lo, hi), count in zip(ranges.values(), counts):
        if hi - lo < math.inf:
            axes.append(lo + step * np.arange(count))
        else:
            axes.append(2 * (lo / 2 + step / 2 * np.arange(count)))
    return axes


def grid_oracle_max_min(c1: "Concept", c2: "Concept",
                        bounds: Mapping[str, tuple[float, float]],
                        step: float) -> float:
    """Exhaustive lattice maximization of the two memberships' minimum.

    Validation oracle: evaluates the pointwise minimum on the lattice of
    :func:`_lattice_axes` over ``bounds`` and returns the best value seen.
    Improves monotonically as ``step`` shrinks.
    """
    if c1.space != c2.space:
        raise ValidationError("concepts belong to different spaces")
    space = c1.space
    union = c1.core.domain_set | c2.core.domain_set
    lattice_dims = [d for name in space.domain_names if name in union
                    for d in space.dims_of(name)]
    missing = [d for d in lattice_dims if d not in bounds]
    if missing:
        raise ValidationError(f"bounds missing for dimensions {missing}")
    axes = _lattice_axes({d: bounds[d] for d in lattice_dims}, step)
    counts = [len(axis) for axis in axes]
    total = math.prod(counts)

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
