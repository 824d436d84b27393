"""Catching-up integration of the set-valued system on a uniform grid.

simulate() advances the implicit scheme, in the caller's coordinates for
every storage matrix P,

    y_i = x_i + h f(t_i, x_i) - h kappa x_i
    x_{i+1} from solve_step at (t_{i+1}, x_i, y_i)

with kappa the system's step shift ``LureSystem.kappa``, and returns a
Trajectory holding states, system-sign multipliers, outputs and per-step
diagnostics. Row 0 carries the multiplier of the stationary inclusion at
(0, x0). The run is deterministic: same inputs, bitwise same arrays.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import sets
from .errors import NonFiniteDrift, NotAdmissible, SolverDiverged
from .moving import _stationary, hypomonotonicity_gap, lipschitz_constants
from .step import SolverOptions, _advance, _overflows, _StepPlan

__all__ = ["Trajectory", "from_csv", "richardson_refine", "simulate", "to_csv"]


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Discrete trajectory on a uniform grid.

    ``outputs[i]`` is the ``w`` of step i, the argument at which its
    normal-cone inclusion was checked, equal to ``C states[i] + D lambdas[i]``.
    Rows are aligned: entry i belongs to time ``times[i]``; row 0 (outputs,
    residuals, iterations) describes the stationary multiplier solve.
    """

    times: np.ndarray
    states: np.ndarray
    lambdas: np.ndarray
    outputs: np.ndarray
    residuals: np.ndarray
    iterations: np.ndarray
    diag: dict = field(default_factory=dict)

    @property
    def n_steps(self):
        return self.times.size - 1


def simulate(sys, x0, t_final, n_steps, opts=None):
    """Integrate the system from ``x0`` over ``[0, t_final]`` in n_steps steps.

    Parameters
    ----------
    sys : LureSystem
    x0 : array_like
        Initial state; must be admissible unless ``opts.force`` is set.
    t_final : float
        Horizon, > 0.
    n_steps : int
        Number of uniform steps, >= 1; times are ``i * t_final / n_steps``.
    opts : SolverOptions, optional

    Raises
    ------
    NotAdmissible
        If the initial state decisively fails the admissibility test.
    NonFiniteDrift
        If the drift-advanced input of a step is NaN or infinite, or its
        squared norm overflows.
    SolverDiverged
        If an inner solve fails; the exception carries the step index and
        the partial trajectory accumulated so far.
    """
    if opts is None:
        opts = SolverOptions()
    x0 = np.asarray(x0, dtype=float).reshape(-1)
    if x0.size != sys.n:
        raise ValueError(f"x0 must have length {sys.n}")
    if not np.isfinite(x0).all():
        raise ValueError("x0 must be finite")
    if not (t_final > 0.0):
        raise ValueError("t_final must be positive")
    n_steps = int(n_steps)
    if n_steps < 1:
        raise ValueError("n_steps must be at least 1")
    # one solve gives the admissibility verdict and row 0; an undetermined
    # verdict (None) does not block the run
    verdict, k0, mu0, it0 = _stationary(sys.K, sys, x0, opts)
    if not opts.force and verdict is False:
        raise NotAdmissible(
            "initial state admits no stationary multiplier; "
            "use opts.force to integrate anyway"
        )
    h = t_final / n_steps
    times = np.arange(n_steps + 1) * h

    states = np.empty((n_steps + 1, sys.n))
    mus = np.empty((n_steps + 1, sys.m))
    ws = np.empty((n_steps + 1, sys.m))
    residuals = np.empty(n_steps + 1)
    iterations = np.empty(n_steps + 1, dtype=int)
    states[0] = x0
    mus[0] = mu0
    ws[0] = sys.C @ x0 - sys.D @ mu0
    residuals[0] = sets.normal_cone_residual(k0, ws[0], mu0)
    iterations[0] = it0

    x = x0
    kappa = sys.kappa
    drift = sys.drift
    plan = _StepPlan(sys, h)
    for i in range(n_steps):
        y_in = x + h * drift(times[i], x) - (h * kappa) * x
        try:
            step = _advance(plan, times[i + 1], x, y_in, opts)
        except SolverDiverged as exc:
            if _overflows(y_in):
                what = ("is not finite" if not np.isfinite(y_in).all()
                        else "overflows the step input")
                raise NonFiniteDrift(
                    f"drift {what} at step {i} (t = {times[i]:g})",
                    step_index=i, t=float(times[i]),
                ) from exc
            exc.step_index = i
            exc.partial = _assemble(
                sys, times[: i + 1], states[: i + 1], mus[: i + 1], ws[: i + 1],
                residuals[: i + 1], iterations[: i + 1], h,
            )
            raise
        x = step.x_next
        states[i + 1] = x
        mus[i + 1] = step.mu
        ws[i + 1] = step.w
        residuals[i + 1] = step.residual
        iterations[i + 1] = step.iterations
    return _assemble(sys, times, states, mus, ws, residuals, iterations, h)


def _assemble(sys, times, states, mus, ws, residuals, iterations, h):
    diag = _diagnostics(sys, states, mus, ws, h)
    return Trajectory(
        times=times.copy(),
        states=states.copy(),
        lambdas=-mus,
        outputs=ws.copy(),
        residuals=residuals.copy(),
        iterations=iterations.copy(),
        diag=diag,
    )


def _diagnostics(sys, states, mus, ws, h):
    # dx[i] = ||x_{i+1} - x_i||
    dx = np.linalg.norm(np.diff(states, axis=0), axis=1)
    lk1, lk2 = lipschitz_constants(sys.K)
    # step i produced mus[i] in the cone of K(t_i, x_{i-1}); the pair of
    # steps i, i+1 (i >= 1) differs by dt = h and dx[i - 1]
    gap = hypomonotonicity_gap(
        mus[1:-1], ws[1:-1], mus[2:], ws[2:], h, dx[:-1], lk1, lk2
    )
    mu_norm = np.linalg.norm(mus, axis=1)
    w_norm = np.linalg.norm(ws, axis=1)
    slack = (
        1e-8
        * (1.0 + mu_norm[1:-1] + mu_norm[2:])
        * (1.0 + w_norm[1:-1] + w_norm[2:])
    )
    # fmin skips NaN gaps, and an empty run gives inf
    min_gap = np.fmin.reduce(gap, initial=np.inf)
    return {
        "max_dx_over_h": float(np.max(dx, initial=0.0) / h),
        "hypo_min_gap": float(min_gap) if np.isfinite(min_gap) else 0.0,
        "hypo_violations": int(np.count_nonzero(gap < -slack)),
    }


def richardson_refine(sys, x0, t_final, n0, levels, opts=None):
    """Trajectories at step counts n0, 2 n0, ..., n0 * 2^(levels-1).

    All grids nest in the coarsest one, so refinement differences can be
    taken at shared time points.
    """
    n0 = int(n0)
    levels = int(levels)
    if n0 < 1 or levels < 1:
        raise ValueError("n0 and levels must be positive")
    return [simulate(sys, x0, t_final, n0 * (2**k), opts) for k in range(levels)]


def _columns(n, m):
    """CSV header names and ``np.savetxt`` formats, one per column, in order."""
    names = (
        ["t"]
        + [f"x_{j + 1}" for j in range(n)]
        + [f"lambda_{j + 1}" for j in range(m)]
        + [f"y_{j + 1}" for j in range(m)]
        + ["residual", "iters"]
    )
    return names, ["%.17g"] * (len(names) - 1) + ["%d"]


def to_csv(traj, target):
    """Write the trajectory as CSV with 17 significant digits.

    ``target`` is a path or a writable text file object. Columns:
    t, x_1..x_n, lambda_1..lambda_m, y_1..y_m, residual, iters.
    """
    names, fmt = _columns(traj.states.shape[1], traj.lambdas.shape[1])
    data = np.column_stack([traj.times, traj.states, traj.lambdas, traj.outputs,
                            traj.residuals, traj.iterations])
    np.savetxt(target, data, fmt=fmt, delimiter=",", header=",".join(names), comments="")


def from_csv(source):
    """Read a trajectory written by :func:`to_csv` (diagnostics are not stored).

    ``source`` is a path or a readable text file object.
    """
    if isinstance(source, (str, bytes)) or hasattr(source, "__fspath__"):
        with open(source, encoding="utf-8") as fh:
            return from_csv(fh)
    header = source.readline().strip().split(",")
    n = sum(name.startswith("x_") for name in header)
    m = sum(name.startswith("lambda_") for name in header)
    if header != _columns(n, m)[0]:
        raise ValueError(f"not a trajectory CSV header: {','.join(header)}")
    data = np.loadtxt(source, delimiter=",", ndmin=2)
    return Trajectory(
        times=data[:, 0],
        states=data[:, 1 : 1 + n],
        lambdas=data[:, 1 + n : 1 + n + m],
        outputs=data[:, 1 + n + m : 1 + n + 2 * m],
        residuals=data[:, 1 + n + 2 * m],
        iterations=data[:, 2 + n + 2 * m].astype(int),
    )
