"""Quantitative conclusions checked on concrete runs.

Three certified-rate checks are provided: Lipschitz dependence on the initial
state (two runs, growth rate gamma), and exponential decay toward the origin
in two variants (decomposed sets with state feedback entering the rate, or
the feedback mismatch alone). Each check simulates, evaluates the claimed
envelope pointwise with a small relative margin plus an O(h) additive slack,
and reports the worst violation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import sets
from .errors import HypothesisFailed, MissingConstant
from .integrate import simulate
from .linalg import select_kappa, spectral_norm, storage_mismatch
from .moving import DecomposedMovingSet
from .system import build_system

__all__ = [
    "RateReport",
    "ScenarioTransform",
    "attractivity_check",
    "convergence_order",
    "dis_bound",
    "lipschitz_dependence_check",
    "perturb_transform",
]

ENV_TOL = 1e-6


@dataclass(frozen=True)
class RateReport:
    """Envelope verification result.

    ``envelope`` lists (t, observed, allowed) triples; ``max_violation`` is
    the largest value of observed - allowed (negative when the envelope
    holds everywhere) and ``passed`` is its sign.
    """

    claimed_rate: float
    max_violation: float
    passed: bool
    envelope: list

    def to_json_dict(self):
        """Summary dict; the full point-wise envelope stays on the object."""
        worst = max(self.envelope, key=lambda row: row[1] - row[2])
        return {
            "claimed_rate": self.claimed_rate,
            "max_violation": self.max_violation,
            "pass": self.passed,
            "n_points": len(self.envelope),
            "worst_point": {
                "t": float(worst[0]),
                "observed": float(worst[1]),
                "allowed": float(worst[2]),
            },
        }


@dataclass(frozen=True)
class ScenarioTransform:
    """Record of a perturbed-data rewrite: reference output matrix adopted,
    measured matrix folded into the moving set, and whether the decomposed
    form survived (offset range condition)."""

    c_reference: np.ndarray
    c_measured: np.ndarray
    h_matrix: np.ndarray
    decomposed: bool


def _quadratic_term(l_const, c1):
    if l_const <= 1e-14:
        return 0.0
    if c1 is None:
        raise MissingConstant(
            "smallest positive eigenvalue of D + D^T is required when the "
            "feedback constant is nonzero"
        )
    return l_const * l_const / (4.0 * c1)


def _envelope_report(times, observed, base, rate, h, slack_scale, env_tol, decay):
    additive = 5.0 * h * (1.0 + slack_scale)
    growth = np.exp(-rate * times) if decay else np.exp(rate * times)
    allowed = base * growth * (1.0 + env_tol) + additive
    # fmax skips NaN points, and an empty envelope gives -inf
    max_violation = float(np.fmax.reduce(observed - allowed, initial=-np.inf))
    return RateReport(
        claimed_rate=float(rate),
        max_violation=max_violation,
        passed=bool(max_violation <= 0.0),
        envelope=list(zip(times.tolist(), observed.tolist(), allowed.tolist())),
    )


def lipschitz_dependence_check(
    sys, x0a, x0b, t_final, n_steps, opts=None, env_tol=ENV_TOL
):
    """Verify ||x_a(t) - x_b(t)|| <= ||x0a - x0b|| exp(gamma t) on two runs.

    ``gamma = L_f + (L_h + ||B - C^T||)^2 / (4 c1)`` requires the decomposed
    moving-set form; the two trajectories share the solver options and grid.
    """
    if not isinstance(sys.K, DecomposedMovingSet):
        raise HypothesisFailed(
            "Lipschitz dependence requires the decomposed moving-set form"
        )
    x0a = np.asarray(x0a, dtype=float).reshape(-1)
    x0b = np.asarray(x0b, dtype=float).reshape(-1)
    l_const = sys.K.lh + storage_mismatch(sys.P, sys.B, sys.C)
    gamma = sys.lf + _quadratic_term(l_const, sys.cert.c1)
    traj_a = simulate(sys, x0a, t_final, n_steps, opts)
    traj_b = simulate(sys, x0b, t_final, n_steps, opts)
    observed = np.linalg.norm(traj_a.states - traj_b.states, axis=1)
    base = float(np.linalg.norm(x0a - x0b))
    h = t_final / int(n_steps)
    scale = max(float(np.linalg.norm(x0a)), float(np.linalg.norm(x0b)))
    return _envelope_report(
        traj_a.times, observed, base, gamma, h, scale, env_tol, decay=False
    )


def _check_drift_decay(sys, sigma, t_final, radius, tol=1e-7):
    # sampled check of <f(t,x), x> <= -sigma ||x||^2
    rng = np.random.default_rng(7)
    for t in np.linspace(0.0, t_final, 16):
        for _ in range(24):
            x = rng.uniform(-radius, radius, size=sys.n)
            fx = sys.drift(float(t), x)
            lhs = float(np.dot(fx, x))
            rhs = -sigma * float(np.dot(x, x))
            if lhs > rhs + tol * (1.0 + radius * radius):
                raise HypothesisFailed(
                    f"drift decay <f,x> <= -sigma||x||^2 fails at t={t:g} "
                    f"(excess {lhs - rhs:.3e})"
                )


def attractivity_check(
    sys, x0, t_final, n_steps, variant="without_uniqueness", opts=None,
    env_tol=ENV_TOL,
):
    """Verify the exponential decay envelope ||x(t)|| <= ||x0|| exp(-delta t).

    variant "with_uniqueness" requires the decomposed form, checks that the
    origin stays in K(t, 0), and claims
    ``delta = sigma - (L_h + ||B - C^T||)^2/(4 c1)``. variant
    "without_uniqueness" samples 0 in K(t, x) over the trajectory's bounding
    box and claims ``delta = sigma - ||B - C^T||^2/(4 c1)``.

    Raises
    ------
    MissingConstant
        When sigma (or a needed c1) is unavailable.
    HypothesisFailed
        When sigma is too small, the drift fails its decay bound on samples,
        or the origin leaves the sampled sets.
    """
    if variant not in ("with_uniqueness", "without_uniqueness"):
        raise ValueError(f"unknown variant: {variant!r}")
    if sys.sigma is None:
        raise MissingConstant("sigma (drift decay rate) is not declared")
    sigma = float(sys.sigma)
    x0 = np.asarray(x0, dtype=float).reshape(-1)
    mismatch = storage_mismatch(sys.P, sys.B, sys.C)
    if variant == "with_uniqueness":
        if not isinstance(sys.K, DecomposedMovingSet):
            raise HypothesisFailed(
                "uniqueness-based decay requires the decomposed moving-set form"
            )
        l_const = sys.K.lh + mismatch
        for t in np.linspace(0.0, t_final, 64):
            if not sets.contains(sys.K.at(t, np.zeros(sys.n)), np.zeros(sys.m), 1e-9):
                raise HypothesisFailed(f"origin leaves K(t, 0) at t={t:g}")
    else:
        l_const = mismatch
    term = _quadratic_term(l_const, sys.cert.c1)
    if sigma <= term:
        raise HypothesisFailed(
            f"sigma={sigma:g} does not exceed the feedback term {term:g}"
        )
    delta = sigma - term
    radius = 2.0 * max(1.0, float(np.linalg.norm(x0)))
    _check_drift_decay(sys, sigma, t_final, radius)
    traj = simulate(sys, x0, t_final, n_steps, opts)
    if variant == "without_uniqueness":
        lo = traj.states.min(axis=0)
        hi = traj.states.max(axis=0)
        rng = np.random.default_rng(11)
        zero = np.zeros(sys.m)
        for t in np.linspace(0.0, t_final, 16):
            for _ in range(8):
                x = rng.uniform(lo, hi)
                if not sets.contains(sys.K.at(t, x), zero, 1e-9):
                    raise HypothesisFailed(
                        f"origin leaves K(t, x) at t={t:g} for a sampled state"
                    )
    observed = np.linalg.norm(traj.states, axis=1)
    base = float(np.linalg.norm(x0))
    h = t_final / int(n_steps)
    return _envelope_report(
        traj.times, observed, base, delta, h, base, env_tol, decay=True
    )


def dis_bound(c_mat, c2, s1, s2):
    """Bound on the graph-distance of the feedback operators from set data.

    For two box-shaped constraint sets the variation of the induced maximal
    monotone operators is bounded by ``||C|| / c2`` times the Hausdorff
    distance of the sets.
    """
    if c2 is None or not (c2 > 0.0):
        raise MissingConstant("c2 (smallest positive eigenvalue of C C^T)")
    return spectral_norm(c_mat) / float(c2) * sets.hausdorff_box(s1, s2)


def perturb_transform(sys_measured, c_reference):
    """Fold an output-matrix perturbation into the moving set.

    Given a system whose moving set depends on time only and whose output
    matrix ``C_bar`` is a perturbation of a reference ``C``, returns the
    equivalent system with output matrix ``C`` and moving set
    ``K(t) - (C_bar - C) x``. The rewritten set keeps the decomposed form
    when ``rge(C_bar - C)`` lies in ``rge(D + D^T)``; otherwise it is
    downgraded to the general form (trajectories unaffected, uniqueness-based
    conclusions unavailable). A declared kappa carries over; one that was
    not declared is derived again for ``C``.

    Returns
    -------
    (LureSystem, ScenarioTransform)
    """
    if not isinstance(sys_measured.K, DecomposedMovingSet):
        raise HypothesisFailed(
            "perturbation rewrite requires a decomposed (time-only) moving set"
        )
    if spectral_norm(sys_measured.K.h_matrix) > 0.0:
        raise HypothesisFailed(
            "perturbation rewrite requires a time-only moving set (H = 0)"
        )
    c_ref = np.asarray(c_reference, dtype=float)
    if c_ref.shape != sys_measured.C.shape:
        raise ValueError("reference output matrix has the wrong shape")
    h_new = -(sys_measured.C - c_ref)
    k_old = sys_measured.K
    k_new = DecomposedMovingSet(
        base=k_old.base,
        h_matrix=h_new,
        g=k_old.g,
        lh1=k_old.lh1,
        lh2=k_old.lh2,
    )
    # the certificate keeps no flag for a declared kappa; an undeclared one
    # is the formula value of the measured tuple, and is derived again for C
    cert = sys_measured.cert
    formula = select_kappa(cert.P, sys_measured.B, sys_measured.C, sys_measured.D)
    new_sys = build_system(
        sys_measured.B,
        c_ref,
        sys_measured.D,
        k_new,
        drift=sys_measured.drift,
        lf=sys_measured.lf,
        p=cert.P,
        kappa=None if cert.kappa == formula else cert.kappa,
        sigma=sys_measured.sigma,
        on_range_violation="general",
    )
    return new_sys, ScenarioTransform(
        c_reference=c_ref,
        c_measured=sys_measured.C,
        h_matrix=h_new,
        decomposed=isinstance(new_sys.K, DecomposedMovingSet),
    )


def convergence_order(trajectories, exact_tol=1e-13):
    """Fitted order from successive refinement differences.

    Trajectories must come from :func:`richardson_refine` (step counts
    n0 * 2^k). Differences between consecutive levels are taken in the max
    norm over the coarsest grid; the order is the least-squares slope of
    log(difference) against log(h). When every difference is below
    ``exact_tol`` (relative to the solution scale) the scheme is exact on
    this problem and NaN is returned.

    Returns
    -------
    (order, diffs) : (float, list of float)
    """
    if len(trajectories) < 2:
        raise ValueError("need at least two refinement levels")
    n0 = trajectories[0].n_steps
    for k, traj in enumerate(trajectories):
        if traj.n_steps != n0 * (2**k):
            raise ValueError("trajectories are not successive halvings")
    scale = max(1.0, float(np.max(np.abs(trajectories[0].states))))
    diffs = []
    for k in range(len(trajectories) - 1):
        a = trajectories[k]
        b = trajectories[k + 1]
        # align on the coarsest grid
        stride_a = a.n_steps // n0
        stride_b = b.n_steps // n0
        xa = a.states[::stride_a]
        xb = b.states[::stride_b]
        diffs.append(float(np.max(np.linalg.norm(xa - xb, axis=1))))
    if max(diffs) <= exact_tol * scale:
        return float("nan"), diffs
    t_final = float(trajectories[0].times[-1])
    hs = [t_final / traj.n_steps for traj in trajectories[:-1]]
    log_h = np.log(hs)
    log_d = np.log(np.maximum(diffs, 1e-300))
    slope = float(np.polyfit(log_h, log_d, 1)[0])
    return slope, diffs
