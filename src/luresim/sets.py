"""Closed convex sets: boxes, polyhedra, translates, and their projections.

Sets are value objects over float64 arrays. Infinite box bounds are allowed;
polyhedra are given as {y : A y <= b}. Projections, membership, normal-cone
residuals and two Hausdorff-distance routes (exact coordinatewise formula for
boxes, support-direction sampling for general bounded sets) live here. One
numpy dual active-set projection serves polyhedra in ``project`` and
``support_point``; ``project_enumerate`` is its independent reference.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import (
    DimensionMismatch,
    EmptySet,
    InfiniteDistance,
    NoSolution,
    Unbounded,
)

__all__ = [
    "Box",
    "Polyhedron",
    "Translate",
    "contains",
    "distance",
    "hausdorff_box",
    "hausdorff_sampled",
    "normal_cone_residual",
    "project",
    "project_enumerate",
    "support_point",
    "whole_space",
]


@dataclass(frozen=True, eq=False)
class Box:
    """Product of intervals [lower_i, upper_i]; bounds may be infinite."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lo = np.asarray(self.lower, dtype=float).reshape(-1)
        up = np.asarray(self.upper, dtype=float).reshape(-1)
        if lo.size != up.size:
            raise DimensionMismatch("lower and upper bounds differ in length")
        if np.any(np.isnan(lo)) or np.any(np.isnan(up)):
            raise DimensionMismatch("box bounds contain NaN")
        if np.any(lo == np.inf) or np.any(up == -np.inf):
            raise EmptySet("box has an empty coordinate interval")
        if np.any(lo > up):
            raise EmptySet("box has lower bound above upper bound")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", up)


@dataclass(frozen=True, eq=False)
class Polyhedron:
    """Solution set {y : A y <= b} with finite data; may be unbounded."""

    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.a, dtype=float)
        b = np.asarray(self.b, dtype=float).reshape(-1)
        if a.ndim != 2:
            raise DimensionMismatch("constraint matrix must be 2-D")
        if a.shape[0] != b.size:
            raise DimensionMismatch("constraint matrix and offsets disagree")
        if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
            raise DimensionMismatch("polyhedron data contains non-finite entries")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)


@dataclass(frozen=True, eq=False)
class Translate:
    """Base set shifted by a fixed offset: {s + offset : s in base}."""

    base: "ConvexSet"
    offset: np.ndarray

    def __post_init__(self):
        off = np.asarray(self.offset, dtype=float).reshape(-1)
        if not np.all(np.isfinite(off)):
            raise DimensionMismatch("translate offset contains non-finite entries")
        if off.size != dim(self.base):
            raise DimensionMismatch("translate offset dimension mismatch")
        object.__setattr__(self, "offset", off)


ConvexSet = Union[Box, Polyhedron, Translate]


def whole_space(m):
    """The unconstrained box (-inf, inf)^m."""
    return Box(np.full(m, -np.inf), np.full(m, np.inf))


def dim(s):
    """Ambient dimension of the set."""
    if isinstance(s, Box):
        return s.lower.size
    if isinstance(s, Polyhedron):
        return s.a.shape[1]
    if isinstance(s, Translate):
        return s.offset.size
    raise TypeError(f"not a convex set: {type(s).__name__}")


def as_box(s):
    """Resolve a (possibly translated) box to (lower, upper); None otherwise."""
    if isinstance(s, Box):
        return s.lower.copy(), s.upper.copy()
    if isinstance(s, Translate):
        inner = as_box(s.base)
        if inner is None:
            return None
        lo, up = inner
        return lo + s.offset, up + s.offset
    return None


def project(s, p):
    """Euclidean projection of point ``p`` onto the set.

    Boxes project by coordinatewise clamping. Polyhedra are projected by a
    dual active-set quadratic program (Goldfarb and Idnani), which raises
    ``EmptySet`` exactly when a violated row admits neither a primal nor a
    dual step, and ``NoSolution`` past its iteration bound.
    """
    p = np.asarray(p, dtype=float).reshape(-1)
    if isinstance(s, Box):
        if p.size != s.lower.size:
            raise DimensionMismatch("point dimension mismatch")
        return np.clip(p, s.lower, s.upper)
    if isinstance(s, Translate):
        return project(s.base, p - s.offset) + s.offset
    if isinstance(s, Polyhedron):
        return _qp_project(s.a, s.b, p)
    raise TypeError(f"not a convex set: {type(s).__name__}")


def _qp_project(a, b, p):
    # Goldfarb & Idnani's dual active-set method (Math. Programming 27, 1983)
    # for min ||y - p||^2 / 2 s.t. a y <= b, Hessian I: start at p, add the
    # most violated row, and drop an active row whose multiplier would turn
    # negative. The active rows stay independent, and a violated row that
    # admits neither a primal nor a dual step proves the set empty.
    k, m = a.shape
    if p.size != m:
        raise DimensionMismatch("point dimension mismatch")
    tol = 1e-12 * max(1.0, float(np.linalg.norm(p)), float(np.max(np.abs(b), initial=0.0)))
    if k == 0 or np.all(a @ p <= b + tol):
        return p.copy()
    # normalize rows so the tolerances mean signed distances
    norms = np.linalg.norm(a, axis=1)
    keep = norms > 1e-12
    if np.any(~keep & (b < -tol)):
        raise EmptySet("contradictory zero-normal constraint row")
    if not keep.any():
        return p.copy()
    an, bn = a[keep] / norms[keep, None], b[keep] / norms[keep]
    y, u = p.copy(), np.zeros(bn.size)  # y = p - an^T u
    active, j = [], None  # j: the row being added
    for _ in range(10 * (bn.size + m)):
        if j is None:
            viol = an @ y - bn
            viol[active] = -np.inf
            j = int(np.argmax(viol))
            if viol[j] <= tol:
                return y
        # y + t z keeps the active rows tight as u_j grows by t and their
        # multipliers fall by t coef
        if active:
            q, r = np.linalg.qr(an[active].T)
            qn = q.T @ an[j]
            coef, z = np.linalg.solve(r, qn), q @ qn - an[j]
        else:
            coef, z = np.zeros(0), -an[j]
        zz = float(z @ z)
        t_primal = (float(an[j] @ y) - bn[j]) / zz if zz > 1e-20 else np.inf
        ratios = np.full(coef.size, np.inf)
        pos = coef > 1e-12
        ratios[pos] = np.maximum(u[active], 0.0)[pos] / coef[pos]
        t = min(t_primal, float(ratios.min(initial=np.inf)))
        if t == np.inf:
            raise EmptySet("polyhedron is empty")
        y = y + t * z
        u[active] -= t * coef
        u[j] += t
        if t == t_primal:
            active.append(j)
            j = None
        else:
            u[active.pop(int(np.argmin(ratios)))] = 0.0
    raise NoSolution("polyhedral projection did not converge")


def project_enumerate(s, p, tol=1e-9):
    """Projection onto a polyhedron by exhaustive active-set enumeration.

    Independent cross-check route for :func:`project`: tries every candidate
    active set of at most ``m`` constraints, solves the equality-constrained
    least-distance problem, and returns the first KKT-consistent point.
    Intended for small instances (cost grows combinatorially).
    """
    if isinstance(s, Translate):
        return project_enumerate(s.base, np.asarray(p, float) - s.offset, tol) + s.offset
    if not isinstance(s, Polyhedron):
        raise TypeError("enumeration oracle expects a polyhedron")
    p = np.asarray(p, dtype=float).reshape(-1)
    a, b = s.a, s.b
    k, m = a.shape
    scale = max(1.0, float(np.linalg.norm(p)), float(np.max(np.abs(b))) if k else 1.0)
    best = None
    best_dist = np.inf
    for size in range(0, min(k, m) + 1):
        for subset in itertools.combinations(range(k), size):
            idx = list(subset)
            a_s = a[idx]
            rhs = a_s @ p - b[idx]
            # the least-norm shift a_s^T nu onto the active faces, solved on
            # a_s: its Gram matrix would square the conditioning
            shift = np.linalg.lstsq(a_s, rhs, rcond=None)[0] if size else np.zeros(m)
            nu = np.linalg.lstsq(a_s.T, shift, rcond=None)[0] if size else np.zeros(0)
            # nearly parallel active rows: a far point, large nu, lost digits
            bound = tol * (scale + float(np.max(np.abs(nu), initial=0.0)))
            if size and np.max(np.abs(a_s @ shift - rhs)) > bound:
                continue  # bound not attainable with this active set
            if size and np.min(nu) < -bound:
                continue
            y = p - shift
            if np.any(a @ y > b + bound):
                continue
            d = float(np.linalg.norm(y - p))
            if d < best_dist:
                best, best_dist = y, d
    if best is None:
        raise EmptySet("no KKT-consistent active set: polyhedron empty")
    return best


def distance(s, p):
    """Euclidean distance from ``p`` to the set."""
    p = np.asarray(p, dtype=float).reshape(-1)
    return float(np.linalg.norm(p - project(s, p)))


def contains(s, p, tol=1e-9):
    """Membership within an absolute tolerance ``tol``."""
    p = np.asarray(p, dtype=float).reshape(-1)
    if p.size != dim(s):
        raise DimensionMismatch("point dimension mismatch")
    if isinstance(s, Box):
        return bool(np.all(p >= s.lower - tol) and np.all(p <= s.upper + tol))
    if isinstance(s, Translate):
        return contains(s.base, p - s.offset, tol)
    if isinstance(s, Polyhedron):
        return bool(np.max(s.a @ p - s.b, initial=-np.inf) <= tol)
    raise TypeError(f"not a convex set: {type(s).__name__}")


def normal_cone_residual(s, y, mu):
    """Residual of the inclusion ``mu in N_S(y)``.

    Returns ``||y - project(S, y + mu)||``; zero exactly when ``y`` lies in
    the set and ``mu`` belongs to the normal cone at ``y``.
    """
    y = np.asarray(y, dtype=float).reshape(-1)
    mu = np.asarray(mu, dtype=float).reshape(-1)
    if mu.size != y.size:
        raise DimensionMismatch("point and multiplier dimensions differ")
    return float(np.linalg.norm(y - project(s, y + mu)))


def _interval_deviation(l1, u1, l2, u2):
    # one-sided infinities never match up to finite distance
    if np.isinf(l1) != np.isinf(l2) or np.isinf(u1) != np.isinf(u2):
        raise InfiniteDistance("boxes differ on an unbounded face")
    d_lo = 0.0 if np.isinf(l1) else abs(l1 - l2)
    d_up = 0.0 if np.isinf(u1) else abs(u1 - u2)
    return max(d_lo, d_up)


def hausdorff_box(s1, s2):
    """Hausdorff distance between two (possibly translated) boxes.

    Computed coordinatewise: ``d_i`` is the interval Hausdorff distance on
    axis ``i`` (infinite matching faces contribute zero), combined as
    ``sqrt(sum_i d_i^2)``. Symmetric and satisfies the triangle inequality.

    Raises
    ------
    InfiniteDistance
        If one box is unbounded on a face where the other is bounded.
    """
    b1 = as_box(s1)
    b2 = as_box(s2)
    if b1 is None or b2 is None:
        raise TypeError("hausdorff_box requires box-shaped sets")
    lo1, up1 = b1
    lo2, up2 = b2
    if lo1.size != lo2.size:
        raise DimensionMismatch("boxes live in different dimensions")
    devs = [
        _interval_deviation(lo1[i], up1[i], lo2[i], up2[i]) for i in range(lo1.size)
    ]
    return float(np.sqrt(np.sum(np.square(devs))))


def support_point(s, d):
    """A point of the set attaining the support value in direction ``d``.

    Raises ``Unbounded`` when the support is infinite and ``EmptySet`` when
    the set is empty (polyhedra only; boxes are nonempty by construction).
    On a polyhedron no LP is solved: ``d`` projected onto the recession cone
    decides boundedness, and the point is a fixed point of
    ``y = project(s, y + t d)``, which may lie inside a maximizing face
    rather than at a vertex; ``NoSolution`` if that iteration does not settle.
    """
    d = np.asarray(d, dtype=float).reshape(-1)
    if d.size != dim(s):
        raise DimensionMismatch("direction dimension mismatch")
    if isinstance(s, Box):
        out = np.clip(np.zeros(d.size), s.lower, s.upper)
        pos = d > 0
        neg = d < 0
        out[pos] = s.upper[pos]
        out[neg] = s.lower[neg]
        if not np.all(np.isfinite(out)):
            raise Unbounded("box unbounded in the requested direction")
        return out
    if isinstance(s, Translate):
        return support_point(s.base, d) + s.offset
    if isinstance(s, Polyhedron):
        y = _qp_project(s.a, s.b, np.zeros(d.size))  # EmptySet for an empty set
        d_norm = float(np.linalg.norm(d))
        if d_norm == 0.0:
            return y
        # Moreau: the projection r of d onto the recession cone {A r <= 0}
        # has d.r = ||r||^2, so r != 0 is a direction of unbounded growth
        if np.linalg.norm(_qp_project(s.a, np.zeros(s.b.size), d / d_norm)) > 1e-9:
            raise Unbounded("polyhedron unbounded in the requested direction")
        # y maximizes d.y exactly when y = proj(y + t d) for a t > 0, and
        # proximal steps reach one in finitely many (Ferris, Math.
        # Programming 50, 1991); a gap of 1e-12 ||y + t d|| puts d within
        # 1e-12 ||d|| of the normal cone at any t
        t = (1.0 + float(np.max(np.abs(s.b), initial=0.0)) + float(np.linalg.norm(y))) / d_norm
        for _ in range(40):
            nxt = _qp_project(s.a, s.b, y + t * d)
            if float(np.linalg.norm(nxt - y)) <= 1e-12 * (1.0 + float(np.linalg.norm(y + t * d))):
                return nxt
            y, t = nxt, 4.0 * t
        raise NoSolution("support point did not converge")
    raise TypeError(f"not a convex set: {type(s).__name__}")


def _directions(m, count):
    # fixed seed: direction sets are nested as count grows, so estimates are
    # monotone nondecreasing in count
    rng = np.random.default_rng(20240517)
    dirs = rng.standard_normal((count, m))
    norms = np.linalg.norm(dirs, axis=1)
    norms[norms == 0.0] = 1.0
    return dirs / norms[:, None]


def hausdorff_sampled(s1, s2, count=64):
    """Sampled lower bound on the Hausdorff distance of two bounded sets.

    Boundary points are collected as support points along ``count`` fixed
    pseudo-random directions; the estimate is the larger of the two one-sided
    deviations over those samples. Never exceeds the true distance, and is
    monotone nondecreasing in ``count``.
    """
    m = dim(s1)
    if dim(s2) != m:
        raise DimensionMismatch("sets live in different dimensions")
    dirs = _directions(m, count)
    pts1 = np.array([support_point(s1, d) for d in dirs])
    pts2 = np.array([support_point(s2, d) for d in dirs])
    d12 = max(distance(s2, p) for p in pts1)
    d21 = max(distance(s1, p) for p in pts2)
    return float(max(d12, d21))
