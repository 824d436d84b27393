"""poly_steps: polyhedral moving sets simulated for a few hundred steps.

K(t, x) = {y : A y <= b} + H x + g(t) with k = 4..10 rows and m = 2..3,
on a fixed step size (0.005).
This is the only workload that reaches the polyhedral active-set step and
the scipy-based polyhedral projection, so a box-path gain that costs
polyhedra shows here. Two families share a fixed pool of systems:

* ``ident``: B = C = I, D = 0. Every step is then a metric projection, and
  is checked step by step against ``sets.project_enumerate``; ``sets.project``
  is checked against the same oracle on a sample of the same points.
* ``general``: n = m + 1, D positive definite, B off C^T (kappa < 0).

The pool's shapes are fixed so every run sees the same mix; the seed draws
the geometry, the drift and each op's start state.
"""

from __future__ import annotations

import time

import numpy as np

# (family, m, k, steps): the step counts even out the cost of one op
# across shapes (about 0.25 s each on the reference machine, so a 20 s run
# has 60 to 110 ops)
SHAPES = (("ident", 2, 5, 200), ("general", 2, 7, 120), ("ident", 3, 6, 100),
          ("general", 3, 8, 50), ("ident", 2, 10, 70), ("general", 3, 4, 150))
POOL = SHAPES * 3  # three seeded systems per shape average out one seed's draws
PASS_OPS = len(POOL)  # whole cycles, so every run times the same mix
TAIL_PCT = 75.0  # op_ms_tail: the highest with 10 ops beyond it at 60 ops
H = 0.005
STEP_TOL = 1e-10  # sweeping steps against project_enumerate
PROJECT_TOL = 1e-8  # sets.project against project_enumerate
PROJECT_SAMPLE = 20  # every 20th step of an ident trajectory


def _small(rng, shape, norm):
    mat = rng.normal(size=shape)
    return norm * mat / np.linalg.norm(mat, 2)


def _system(lu, rng, family, m, k, steps):
    a = rng.normal(size=(k, m))
    a /= np.linalg.norm(a, axis=1, keepdims=True)
    base = lu.Polyhedron(a, rng.uniform(0.5, 1.5, size=k))
    g0 = 0.2 * rng.normal(size=m)
    vel = 0.5 * rng.normal(size=m)
    rate = float(rng.uniform(0.5, 1.5))
    if family == "ident":
        n = m
        h_mat = _small(rng, (m, n), 0.2)
        target = 2.5 * rng.normal(size=n)
        target /= max(1.0, float(np.linalg.norm(target)) / 2.5)
        drift = (lambda t, x, _c=target, _a=rate: -_a * (x - _c))
        moving = lu.DecomposedMovingSet(
            lambda t, _p=base: _p, h_mat, lambda t, _g=g0, _v=vel: _g + _v * t,
            lh2=float(np.linalg.norm(vel)),
        )
        sys_ = lu.build_system(np.eye(m), np.eye(m), np.zeros((m, m)), moving,
                               drift=drift, lf=rate, on_range_violation="general")
    else:
        n = m + 1
        c = rng.normal(size=(m, n))
        g = 0.5 * rng.normal(size=(m, m))
        d = g @ g.T + 0.5 * np.eye(m)
        b = c.T + 0.3 * rng.normal(size=(n, m))
        h_mat = _small(rng, (m, n), 0.2)
        force = rng.normal(size=n)
        drift = (lambda t, x, _f=force, _a=rate: -_a * x + _f)
        moving = lu.DecomposedMovingSet(
            lambda t, _p=base: _p, h_mat, lambda t, _g=g0, _v=vel: _g + _v * t,
            lh2=float(np.linalg.norm(vel)),
        )
        sys_ = lu.build_system(b, c, d, moving, drift=drift, lf=rate)
    return {"family": family, "m": m, "k": k, "n": n, "sys": sys_,
            "h_mat": h_mat, "g0": g0, "steps": steps}


def build(lu, seed, tracer=None):
    """Build the seeded pool of polyhedral systems."""
    rng = np.random.default_rng([seed, 4])
    return {"lu": lu, "pool": [_system(lu, rng, *spec) for spec in POOL]}


def ops(ctx, seed):
    """Endless op stream cycling the pool, each with a fresh start state."""
    rng = np.random.default_rng([seed, 5])
    i = 0
    while True:
        entry = ctx["pool"][i % len(POOL)]
        if entry["family"] == "ident":
            # a point of K(0, x0): x0 = (I - H)^{-1} (p + g(0)), p inside the
            # base polyhedron (which holds the ball of radius 0.5)
            p = rng.normal(size=entry["m"])
            p *= 0.45 * rng.random() / np.linalg.norm(p)
            x0 = np.linalg.solve(np.eye(entry["m"]) - entry["h_mat"], p + entry["g0"])
        else:
            x0 = 0.5 * rng.normal(size=entry["n"])
        yield {"i": i, "entry": entry, "x0": x0}
        i += 1


def run(ctx, op, tracer):
    lu = ctx["lu"]
    entry = op["entry"]
    opts = lu.SolverOptions()
    t0 = time.perf_counter()
    t_final = H * entry["steps"]
    traj = tracer.call("integrate.simulate", lu.simulate,
                       entry["sys"], op["x0"], t_final, entry["steps"], opts)
    elapsed = time.perf_counter() - t0
    wrong = None
    worst = float(np.max(traj.residuals[1:]))
    if not np.all(np.isfinite(traj.states)):
        wrong = "non-finite state"
    elif worst > opts.tol:
        wrong = f"step residual {worst:.3e} above tolerance {opts.tol:g}"
    return {
        "kind": f"{entry['family']}-m{entry['m']}-k{entry['k']}",
        "op_s": elapsed, "sim_s": elapsed, "steps": traj.n_steps,
        "iterations": traj.iterations[1:].tolist(), "wrong": wrong,
        "family": entry["family"],
        "replay": {"sys": entry["sys"], "traj": traj, "x0": op["x0"],
                   "t_final": t_final, "n_steps": entry["steps"], "identity": True,
                   "sim_s": elapsed},
    }


def check(ctx, rec, tracer):
    """Sweeping steps equal the enumerated projection (ident family only)."""
    if rec["family"] != "ident":
        return None
    lu = ctx["lu"]
    rep = rec["replay"]
    sys_, traj = rep["sys"], rep["traj"]
    h = rep["t_final"] / rep["n_steps"]
    denom = 1.0 - h * sys_.kappa
    for i in range(rep["n_steps"]):
        x_i = traj.states[i]
        y_in = x_i + h * sys_.drift(traj.times[i], x_i) - (h * sys_.kappa) * x_i
        k_set = sys_.K.at(traj.times[i + 1], x_i)
        point = y_in / denom
        target = tracer.call("sets.project_enumerate", lu.project_enumerate,
                             k_set, point)
        dev = float(np.linalg.norm(traj.states[i + 1] - target))
        if dev > STEP_TOL:
            return f"step {i} off the enumerated projection by {dev:.3e}"
        if i % PROJECT_SAMPLE == 0:
            fast = tracer.call("sets.project_poly", lu.project, k_set, point)
            dev = float(np.linalg.norm(fast - target))
            if dev > PROJECT_TOL:
                return f"sets.project off project_enumerate by {dev:.3e} at step {i}"
    return None


def replay(ctx, records, tracer, counts, derived, max_steps):
    """Sub-layers of the first pass over the pool."""
    from replay import replay_run

    for rec in records[: len(POOL)]:
        replay_run(ctx["lu"], tracer, rec, max_steps, counts, derived)


def detail(ctx, records):
    iters = [it for r in records for it in r["iterations"]]
    return {"step.poly_patterns_examined_mean": float(np.mean(iters)) if iters else 0.0}
