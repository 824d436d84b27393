"""Time- and state-dependent constraint sets.

Two forms are supported. The general form wraps an arbitrary evaluation map
(t, x) -> ConvexSet together with declared variation constants. The
decomposed form is a time-dependent base set translated by an affine state
offset H x + g(t); it is the form under which the uniqueness-based results
apply, provided rge(H) and g(t) live inside rge(D + D^T).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import sets
from .errors import NoSolution, SolverDiverged
from .linalg import spectral_norm
from .step import solve_static_multiplier

__all__ = [
    "DecomposedMovingSet",
    "GeneralMovingSet",
    "LipschitzReport",
    "MovingSet",
    "admissible",
    "hypomonotonicity_gap",
    "lipschitz_constants",
    "verify_lipschitz",
]


@dataclass(frozen=True, eq=False)
class GeneralMovingSet:
    """Arbitrary evaluation map with declared variation constants.

    ``d_H(K(t,x), K(s,y)) <= lk1 |t-s| + lk2 ||x-y||`` is a declaration, not
    a derived fact; :func:`verify_lipschitz` probes it on sample grids.
    """

    at_fn: Callable[[float, np.ndarray], sets.ConvexSet]
    lk1: float
    lk2: float

    def at(self, t, x):
        return self.at_fn(float(t), np.asarray(x, dtype=float))


@dataclass(frozen=True, eq=False)
class DecomposedMovingSet:
    """Moving set of the form K(t, x) = K1(t) + H x + g(t).

    ``lh1`` bounds the variation of K1 in time, ``lh2`` that of g; the state
    sensitivity is ``lh = ||H||`` unless a larger declared value is supplied.
    """

    base: Callable[[float], sets.ConvexSet]
    h_matrix: np.ndarray
    g: Callable[[float], np.ndarray]
    lh1: float = 0.0
    lh2: float = 0.0
    lh: float | None = None

    def __post_init__(self):
        h = np.atleast_2d(np.asarray(self.h_matrix, dtype=float))
        object.__setattr__(self, "h_matrix", h)
        h_norm = spectral_norm(h)
        if self.lh is None:
            object.__setattr__(self, "lh", h_norm)
        elif self.lh < h_norm - 1e-12 * max(1.0, h_norm):
            raise ValueError(f"declared lh={self.lh:g} below ||H||={h_norm:g}")

    def at(self, t, x):
        x = np.asarray(x, dtype=float).reshape(-1)
        offset = self.h_matrix @ x + np.asarray(self.g(float(t)), dtype=float)
        return sets.Translate(self.base(float(t)), offset)


MovingSet = GeneralMovingSet | DecomposedMovingSet


def lipschitz_constants(ms):
    """Effective (time, state) variation constants of the moving set."""
    if isinstance(ms, DecomposedMovingSet):
        return ms.lh1 + ms.lh2, ms.lh
    return ms.lk1, ms.lk2


@dataclass(frozen=True)
class LipschitzReport:
    """Outcome of a sampled variation-bound check.

    ``violations`` holds tuples (t, s, x, y, lhs, rhs); it is empty exactly
    when ``max_observed_ratio <= 1`` up to a 1e-9 relative slack for float
    noise on tight bounds.
    """

    max_observed_ratio: float
    samples: int
    violations: list


def verify_lipschitz(ms, sample_grid, c_mat=None, c2=None):
    """Probe the declared variation bound on all pairs of a sample grid.

    Parameters
    ----------
    ms : MovingSet
    sample_grid : list of (t, x) pairs
        Points at which the set is evaluated; all pairs are compared.
    c_mat, c2 : optional
        Output matrix and smallest positive eigenvalue of C C^T. When given,
        the structural requirement ``lk2 <= c2 / ||C||`` is folded into the
        report as one additional sample, so a declared-constant breach is
        flagged even if no evaluated pair exposes it.
    """
    lk1, lk2 = lipschitz_constants(ms)
    ratios = []
    violations = []
    grid = [(float(t), np.asarray(x, dtype=float).reshape(-1)) for t, x in sample_grid]
    for i in range(len(grid)):
        for j in range(i + 1, len(grid)):
            t, x = grid[i]
            s, y = grid[j]
            s1 = ms.at(t, x)
            s2 = ms.at(s, y)
            if sets.as_box(s1) is not None and sets.as_box(s2) is not None:
                lhs = sets.hausdorff_box(s1, s2)
            else:
                lhs = sets.hausdorff_sampled(s1, s2)
            rhs = lk1 * abs(t - s) + lk2 * float(np.linalg.norm(x - y))
            ratio = lhs / rhs if rhs > 1e-300 else (0.0 if lhs <= 1e-300 else np.inf)
            ratios.append(ratio)
            # relative slack keeps float noise on tight bounds from flagging
            if ratio > 1.0 + 1e-9:
                violations.append((t, s, x, y, lhs, rhs))
    count = len(ratios)
    if c_mat is not None and c2 is not None:
        c_norm = spectral_norm(c_mat)
        if c_norm > 0.0 and c2 > 0.0:
            bound = c2 / c_norm
            ratio = lk2 / bound
            ratios.append(ratio)
            count += 1
            if ratio > 1.0 + 1e-9:
                violations.append((0.0, 0.0, None, None, lk2, bound))
    max_ratio = max(ratios) if ratios else 0.0
    return LipschitzReport(
        max_observed_ratio=float(max_ratio), samples=count, violations=violations
    )


def admissible(ms, sys, x0, opts=None):
    """Decide whether the stationary inclusion at (0, x0) has a multiplier.

    One call of the shared multiplier solve: True when it finds one, False
    when enumeration proves there is none, and None ("undetermined") when
    the iterative solver gives up.
    """
    x0 = np.asarray(x0, dtype=float).reshape(-1)
    return _stationary(ms, sys, x0, opts)[0]


def _stationary(ms, sys, x0, opts):
    """Solve the stationary inclusion at (0, x0) once.

    Returns ``(verdict, k0, mu, iterations)`` with the verdict of
    :func:`admissible` and ``k0 = K(0, x0)``; mu is zero and iterations 0
    unless the verdict is True.
    """
    k0 = ms.at(0.0, x0)
    try:
        mu, _, iterations = solve_static_multiplier(k0, sys.C, sys.D, x0, opts)
    except NoSolution:
        return False, k0, np.zeros(sys.m), 0
    except SolverDiverged:
        return None, k0, np.zeros(sys.m), 0
    return True, k0, mu, iterations


def hypomonotonicity_gap(mu1, w1, mu2, w2, dt, dx, lk1, lk2):
    """Signed slack of the two-step hypomonotonicity inequality.

    For multipliers mu1 in N_{K(t1,x1)}(w1) and mu2 in N_{K(t2,x2)}(w2) the
    moving-set variation bound implies

        <mu1 - mu2, w1 - w2> >= -(||mu1|| + ||mu2||) (lk1 |dt| + lk2 dx).

    Returns lhs - rhs of that inequality; nonnegative (up to solver noise)
    along any correctly integrated trajectory. Broadcasts over leading axes:
    the last axis of mu1, w1, mu2, w2 holds the vectors, and dt, dx, lk1,
    lk2 broadcast against the rest. One pair gives a float, stacked pairs an
    array.
    """
    mu1 = np.asarray(mu1, dtype=float)
    mu2 = np.asarray(mu2, dtype=float)
    w1 = np.asarray(w1, dtype=float)
    w2 = np.asarray(w2, dtype=float)
    inner = np.einsum("...i,...i->...", mu1 - mu2, w1 - w2)
    budget = (np.linalg.norm(mu1, axis=-1) + np.linalg.norm(mu2, axis=-1)) * (
        lk1 * np.abs(dt) + lk2 * np.abs(dx)
    )
    gap = inner + budget
    return float(gap) if gap.ndim == 0 else gap
