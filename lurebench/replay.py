"""Traced-run replays of layers that are only reached inside library calls.

``simulate`` and the analysis checks call ``K.at``, ``solve_step``, the
inner box solve, the range projector and the cone residual internally, where
a span from outside cannot reach. The replays below feed the recorded step
inputs ``(t_next, x_prev, y_in, h)`` back through those public functions,
one span per call, and insist that a replayed step reproduces the
trajectory row bitwise (identity storage only, where the integrator works
in the caller's coordinates).
"""

from __future__ import annotations

import time

import numpy as np


def replay_system(lu, tracer, sys_, x0):
    """Per-system layers: build, canonicalize, certify, admissibility."""
    tracer.call("system.build_system", lu.build_system, sys_.B, sys_.C, sys_.D,
                sys_.K, drift=sys_.drift, lf=sys_.lf, p=sys_.P, sigma=sys_.sigma,
                on_range_violation="general")
    tracer.call("system.canonicalize", lu.canonicalize, sys_)
    tracer.call("linalg.certify", lu.certify, sys_.B, sys_.C, sys_.D, p=sys_.P)
    tracer.call("moving.admissible", lu.admissible, sys_.K, sys_, x0)


def replay_step(lu, tracer, sys_, t_next, x_prev, y_in, h, opts, counts):
    """Replay one step and its sub-layers; returns the StepResult."""
    step = tracer.call("step.solve_step", lu.solve_step,
                       sys_, t_next, x_prev, y_in, h, opts)
    k_set = tracer.call("moving.K_at", sys_.K.at, t_next, x_prev)
    box = lu.sets.as_box(k_set)
    if box is not None:
        denom = 1.0 - h * sys_.kappa
        q = (sys_.C @ y_in) / denom
        m_mat = (h / denom) * (sys_.C @ sys_.B) + sys_.D
        d_norm = float(np.linalg.norm(sys_.D, 2)) if sys_.D.size else 0.0
        c1 = sys_.cert.c1 if sys_.cert is not None else None
        mu_inner, _, _ = tracer.call("step.inner_solve_box", lu.inner_solve_box,
                                     m_mat, q, lu.Box(box[0], box[1]), opts, c1, d_norm)
        counts["box_steps"] += 1
        counts["polish_applied"] += int(not np.array_equal(mu_inner, step.mu))
    tracer.call("linalg.range_projector", lu.range_projector, sys_.D + sys_.D.T)
    tracer.call("sets.normal_cone_residual", lu.normal_cone_residual,
                k_set, step.w, step.mu)
    tracer.call("sets.project_box" if box is not None else "sets.project_poly",
                lu.project, k_set, step.w + step.mu)
    counts["steps"] += 1
    return step


def replay_trajectory(lu, tracer, sys_, traj, t_final, n_steps, max_steps, counts):
    """Replay up to ``max_steps`` evenly spaced steps of an identity-P run."""
    opts = lu.SolverOptions()
    h = t_final / n_steps
    kappa = sys_.kappa
    for i in np.unique(np.linspace(0, n_steps - 1, min(max_steps, n_steps)).astype(int)):
        x_i = traj.states[i]
        # the integrator's drift-advanced input, bit for bit
        y_in = x_i + h * sys_.drift(traj.times[i], x_i) - (h * kappa) * x_i
        step = replay_step(lu, tracer, sys_, traj.times[i + 1], x_i, y_in, h,
                           opts, counts)
        same = (np.array_equal(step.x_next, traj.states[i + 1])
                and np.array_equal(-step.mu, traj.lambdas[i + 1])
                and step.iterations == traj.iterations[i + 1])
        counts["bitwise_mismatch"] += int(not same)


def _diagnostics(lu, sys_, traj, h):
    # same pass as the integrator's post-run diagnostics, through the
    # public hypomonotonicity_gap
    lk1, lk2 = lu.moving.lipschitz_constants(sys_.K)
    mus = -traj.lambdas
    ws = traj.states @ sys_.C.T - mus @ sys_.D.T
    violations = 0
    for i in range(1, traj.times.size - 1):
        dxi = float(np.linalg.norm(traj.states[i - 1] - traj.states[i]))
        gap = lu.hypomonotonicity_gap(mus[i], ws[i], mus[i + 1], ws[i + 1],
                                      h, dxi, lk1, lk2)
        slack = (1e-8 * (1.0 + np.linalg.norm(mus[i]) + np.linalg.norm(mus[i + 1]))
                 * (1.0 + np.linalg.norm(ws[i]) + np.linalg.norm(ws[i + 1])))
        violations += int(gap < -slack)
    return violations


def replay_run(lu, tracer, rec, max_steps, counts, derived):
    """All replays for one recorded simulate: system, steps, diagnostics.

    Appends to ``derived`` the run's loop self time: simulate time minus
    the replayed admissibility, canonicalize, steps and diagnostics.
    """
    rep = rec["replay"]
    sys_, traj = rep["sys"], rep["traj"]
    n0 = len(tracer.spans)
    replay_system(lu, tracer, sys_, rep["x0"])
    h = rep["t_final"] / rep["n_steps"]
    t0 = time.perf_counter()
    with tracer.span("integrate.diagnostics"):
        violations = _diagnostics(lu, sys_, traj, h)
    diag_s = time.perf_counter() - t0
    if violations != traj.diag["hypo_violations"]:
        counts["diagnostics_mismatch"] += 1
    if not rep["identity"]:
        return
    m0 = len(tracer.spans)
    replay_trajectory(lu, tracer, sys_, traj, rep["t_final"], rep["n_steps"],
                      max_steps, counts)
    solve = [s[2] - s[1] for s in tracer.spans[m0:] if s[0] == "step.solve_step"]
    setup = sum(s[2] - s[1] for s in tracer.spans[n0:m0]
                if s[0] in ("moving.admissible", "system.canonicalize"))
    steps_s = float(np.median(solve)) * rep["n_steps"]
    derived.setdefault("integrate.loop_self_ms", []).append(
        1e3 * (rep["sim_s"] - setup - steps_s - diag_s))
    derived.setdefault("integrate.diagnostics_ms", []).append(1e3 * diag_s)
