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

import io
from dataclasses import dataclass, field

import numpy as np

from . import sets
from .errors import NonFiniteDrift, NotAdmissible, SolverDiverged
from .moving import _stationary, hypomonotonicity_gap, lipschitz_constants
from .step import SolverOptions, _advance, _StepPlan

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
        If the drift-advanced input of a step is NaN or infinite.
    SolverDiverged
        If an inner solve fails; the exception carries the step index and
        the partial trajectory accumulated so far.
    """
    if opts is None:
        opts = SolverOptions()
    x0 = np.asarray(x0, dtype=float).reshape(-1)
    if x0.size != sys.n:
        raise ValueError(f"x0 must have length {sys.n}")
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
            if not np.all(np.isfinite(y_in)):
                raise NonFiniteDrift(
                    f"drift is not finite at step {i} (t = {times[i]:g})",
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


def to_csv(traj, target):
    """Write the trajectory as CSV with 17 significant digits.

    ``target`` is a path or a writable text file object. Columns:
    t, x_1..x_n, lambda_1..lambda_m, y_1..y_m, residual, iters.
    """
    n = traj.states.shape[1]
    m = traj.lambdas.shape[1]
    cols = (
        ["t"]
        + [f"x_{j + 1}" for j in range(n)]
        + [f"lambda_{j + 1}" for j in range(m)]
        + [f"y_{j + 1}" for j in range(m)]
        + ["residual", "iters"]
    )
    lines = [",".join(cols)]
    for i in range(traj.times.size):
        vals = (
            [traj.times[i]]
            + list(traj.states[i])
            + list(traj.lambdas[i])
            + list(traj.outputs[i])
            + [traj.residuals[i]]
        )
        row = ",".join("%.17g" % v for v in vals) + f",{int(traj.iterations[i])}"
        lines.append(row)
    text = "\n".join(lines) + "\n"
    if isinstance(target, (str, bytes)) or hasattr(target, "__fspath__"):
        with open(target, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        target.write(text)


def from_csv(source):
    """Read a trajectory written by :func:`to_csv` (diagnostics are not stored)."""
    if isinstance(source, (str, bytes)) or hasattr(source, "__fspath__"):
        with open(source, "r", encoding="utf-8") as fh:
            text = fh.read()
    elif isinstance(source, io.TextIOBase):
        text = source.read()
    else:
        text = str(source)
    lines = [ln for ln in text.strip().splitlines() if ln]
    header = lines[0].split(",")
    n = sum(1 for cname in header if cname.startswith("x_"))
    m = sum(1 for cname in header if cname.startswith("lambda_"))
    rows = [ln.split(",") for ln in lines[1:]]
    data = np.array([[float(v) for v in r] for r in rows])
    times = data[:, 0]
    states = data[:, 1 : 1 + n]
    lambdas = data[:, 1 + n : 1 + n + m]
    outputs = data[:, 1 + n + m : 1 + n + 2 * m]
    residuals = data[:, 1 + n + 2 * m]
    iterations = data[:, 2 + n + 2 * m].astype(int)
    return Trajectory(
        times=times,
        states=states,
        lambdas=lambdas,
        outputs=outputs,
        residuals=residuals,
        iterations=iterations,
        diag={},
    )
