"""Closed convex sets: boxes, polyhedra, translates, and their projections.

Sets are value objects over float64 arrays. Infinite box bounds are allowed;
polyhedra are given as {y : A y <= b}. Projections, membership, normal-cone
residuals and two Hausdorff-distance routes (exact coordinatewise formula for
boxes, support-direction sampling for general bounded sets) live here.
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
    "ConvexSet",
    "Polyhedron",
    "Translate",
    "as_box",
    "contains",
    "dim",
    "distance",
    "hausdorff_box",
    "hausdorff_sampled",
    "normal_cone_residual",
    "project",
    "project_enumerate",
    "support_point",
    "whole_space",
]


_optimize = None


def _scipy_optimize():
    """scipy.optimize, imported on first use: only polyhedra need it."""
    global _optimize
    if _optimize is None:
        import scipy.optimize

        _optimize = scipy.optimize
    return _optimize


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
        # pay the scipy.optimize import when the set is built, not when it
        # is first projected
        _scipy_optimize()
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

    Boxes project by coordinatewise clamping. Polyhedra are handled as a
    least-distance program through the classical reduction to a single
    nonnegative least-squares solve; emptiness is detected when the
    reduction degenerates or the recovered point is infeasible.
    """
    p = np.asarray(p, dtype=float).reshape(-1)
    if isinstance(s, Box):
        if p.size != s.lower.size:
            raise DimensionMismatch("point dimension mismatch")
        return np.clip(p, s.lower, s.upper)
    if isinstance(s, Translate):
        return project(s.base, p - s.offset) + s.offset
    if isinstance(s, Polyhedron):
        return _project_polyhedron(s, p)
    raise TypeError(f"not a convex set: {type(s).__name__}")


def _ldp_attempt(an, h, p, disp_scale, max_iter):
    # least-distance program min ||x|| s.t. (-an) x >= h, solved through the
    # classical reduction to nonnegative least squares on [G^T; h^T]: the
    # optimal displacement is x_j = -r_j / r_{m+1} for the residual r, and
    # r ~ 0 certifies incompatible constraints. The displacement is rescaled
    # by disp_scale first so the residual test is geometry-independent.
    m = p.size
    e = np.vstack([-an.T, (h / disp_scale)[None, :]])
    f = np.zeros(m + 1)
    f[m] = 1.0
    res = _scipy_optimize().lsq_linear(
        e, f, bounds=(0.0, np.inf), method="bvls", tol=1e-14,
        max_iter=max_iter * (e.shape[1] + 1),
    )
    r = e @ res.x - f
    if r[m] >= -1e-9:
        return None
    return p - disp_scale * (r[:m] / r[m])


def _linprog(c, a, b):
    # min c.y over the free variables y subject to a y <= b
    return _scipy_optimize().linprog(c, A_ub=a, b_ub=b,
                                     bounds=[(None, None)] * c.size, method="highs")


def _project_polyhedron(s, p, tol=1e-12):
    a, b = s.a, s.b
    k, m = a.shape
    if p.size != m:
        raise DimensionMismatch("point dimension mismatch")
    scale = max(1.0, float(np.linalg.norm(p)), float(np.max(np.abs(b))) if k else 1.0)
    if k == 0 or np.all(a @ p <= b + tol * scale):
        return p.copy()
    # normalize rows so residual tolerances mean signed distances
    norms = np.linalg.norm(a, axis=1)
    keep = norms > tol
    if np.any(~keep & (b < -tol * scale)):
        raise EmptySet("contradictory zero-normal constraint row")
    an = a[keep] / norms[keep, None]
    bn = b[keep] / norms[keep]
    if an.shape[0] == 0:
        return p.copy()
    h = an @ p - bn

    def accepted(y):
        # tolerance in signed-distance units, relative to the displacement
        if y is None:
            return False
        slack = 1e-7 * max(scale, 1.0 + float(np.linalg.norm(y - p)))
        return float(np.max(an @ y - bn)) <= slack

    y = _ldp_attempt(an, h, p, max(1.0, float(np.max(h))), max_iter=30)
    if accepted(y):
        return y
    # the reduction degenerates both when the set is empty and when the
    # projection is much farther than the worst signed distance; settle it
    # with an exact feasibility program, then retry at the right scale
    lp = _linprog(np.zeros(m), an, bn)
    if lp.status == 2:
        raise EmptySet("polyhedron is empty")
    if not lp.success:
        raise EmptySet(f"polyhedron feasibility undecidable: {lp.message}")
    reach = 1.0 + float(np.linalg.norm(np.asarray(lp.x, dtype=float) - p))
    y = _ldp_attempt(an, h, p, reach, max_iter=80)
    if accepted(y):
        return y
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
            gram = a_s @ a_s.T
            rhs = a_s @ p - b[idx]
            nu = np.linalg.lstsq(gram, rhs, rcond=None)[0] if size else np.zeros(0)
            if size and np.max(np.abs(gram @ nu - rhs)) > tol * scale:
                continue  # bound not attainable with this active set
            if size and np.min(nu) < -tol * scale:
                continue
            y = p - a_s.T @ nu if size else p.copy()
            if np.any(a @ y > b + tol * scale):
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
    if isinstance(s, Box):
        return bool(np.all(p >= s.lower - tol) and np.all(p <= s.upper + tol))
    if isinstance(s, Translate):
        return contains(s.base, p - s.offset, tol)
    if isinstance(s, Polyhedron):
        if s.a.shape[0] == 0:
            return True
        return bool(np.max(s.a @ p - s.b) <= tol)
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
    """
    d = np.asarray(d, dtype=float).reshape(-1)
    if isinstance(s, Box):
        if d.size != s.lower.size:
            raise DimensionMismatch("direction dimension mismatch")
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
        res = _linprog(-d, s.a, s.b)
        # HiGHS can label an unbounded LP infeasible (status 2), so that
        # verdict stands only if the set has no feasible point either
        if res.status == 2 and not _linprog(np.zeros(d.size), s.a, s.b).success:
            raise EmptySet("polyhedron is empty")
        if res.status in (2, 3):
            raise Unbounded("polyhedron unbounded in the requested direction")
        if not res.success:
            raise Unbounded(f"support solve failed: {res.message}")
        return np.asarray(res.x, dtype=float)
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
