"""oracle_sweep: single box steps from the criterion-1 family, each checked
against the exhaustive face-enumeration oracle.

Every instance is a fresh system with its own step size, so nothing computed
for one instance can be reused by the next: this workload measures the
Newton solve and the 3^m enumeration directly, and a per-run caching change
should leave it unchanged. The structural mix (m = 1, 2, 3 and the two D
subfamilies) follows a fixed cycle so every run sees the same mix; the seed
draws the numbers.

Only draws whose reduced matrix M is strongly monotone with margin
``MIN_MARGIN`` are kept. On weaker draws of the criterion-1 family
``solve_step`` raises ``SolverDiverged`` about once in a thousand (see
README.md, "Known failures"), and a benchmark op must not fail.
"""

from __future__ import annotations

import time

import numpy as np

TOL = 1e-8  # criterion-1 agreement bound
SUBFAMILY = "rrrrrrrppp"  # 7 of 10 rank-deficient D (r), 3 of 10 PD D (p)
PASS_OPS = 3 * len(SUBFAMILY)  # one full cycle of m and of the D subfamilies
# op_ms_tail: a 20 s run has 3000 to 9000 instances, enough for p99, but
# p99 of these 2 ms ops follows the host's scheduling hiccups: over seeds
# 1 to 10 it spread 10 to 13% of its median in three sets, p95 by 2%
TAIL_PCT = 95.0
REPLAY_OPS = 400
# least eigenvalue of the symmetric part of M, over max(1, its largest). In
# 200000 criterion-1 draws (seeds 2 to 11) all 209 divergences had margins
# below 0.009, and no draw above 0.015 reached the fixed-point fallback
MIN_MARGIN = 3e-2


def build(lu, seed, tracer=None):
    """Nothing to build up front: every instance brings its own system."""
    return {"lu": lu}


def _box(rng, m):
    """Random box with occasional infinite and pinned faces."""
    lower = np.empty(m)
    upper = np.empty(m)
    for i in range(m):
        lo = rng.normal()
        width = abs(rng.normal()) + 0.1
        roll = rng.random()
        if roll < 0.15:
            lower[i], upper[i] = -np.inf, lo
        elif roll < 0.30:
            lower[i], upper[i] = lo, np.inf
        elif roll < 0.35:
            lower[i] = upper[i] = lo
        else:
            lower[i], upper[i] = lo, lo + width
    return lower, upper


def _psd(rng, m, rank):
    g = rng.normal(size=(m, rank)) if rank else np.zeros((m, 1))
    d = g @ g.T
    if rng.random() < 0.4 and m > 1:
        w = rng.normal(size=(m, m))
        d = d + 0.3 * (w - w.T)
    return d


def _draw(lu, rng, i):
    m = 1 + i % 3
    n = int(rng.integers(m, 5))
    c = rng.normal(size=(m, n))
    while np.linalg.matrix_rank(c) < m:
        c = rng.normal(size=(m, n))
    if SUBFAMILY[i % len(SUBFAMILY)] == "r":
        d = _psd(rng, m, int(rng.integers(0, m + 1)))
        b = c.T + rng.normal(size=(n, m)) @ lu.range_projector(d + d.T)
    else:
        d = _psd(rng, m, m) + (0.1 + rng.random()) * np.eye(m)
        b = rng.normal(size=(n, m))
    lower, upper = _box(rng, m)
    return {"i": i, "m": m, "b": b, "c": c, "d": d, "lower": lower, "upper": upper,
            "x_prev": rng.normal(size=n), "y_in": 1.5 * rng.normal(size=n)}


def _step_size(op, kappa, min_margin):
    """Largest h = 0.05 / 2^j for which M = h' C B + D has a positive
    definite symmetric part (every face pattern then has one solution), as
    in criterion 1; None when 40 halvings do not get there or when M's
    margin at that h is below ``min_margin``."""
    h = 0.05
    for _ in range(40):
        hp = h / (1.0 - h * kappa)
        m_mat = hp * (op["c"] @ op["b"]) + op["d"]
        eigs = np.linalg.eigvalsh(0.5 * (m_mat + m_mat.T))
        scale = max(1.0, abs(eigs[-1]))
        if eigs[0] > 1e-10 * scale:
            return h if eigs[0] >= min_margin * scale else None
        h *= 0.5
    return None


def draws(lu, seed, min_margin, rejected):
    """Endless seeded stream of well-posed step problems.

    A draw with no admissible step size, or with a margin below
    ``min_margin``, is drawn again; ``rejected[0]`` counts those.
    """
    rng = np.random.default_rng([seed, 3])
    i = 0
    while True:
        op = _draw(lu, rng, i)
        kappa = lu.select_kappa(np.eye(op["b"].shape[0]), op["b"], op["c"], op["d"])
        op["h"] = _step_size(op, kappa, min_margin)
        if op["h"] is None:
            rejected[0] += 1
            continue
        yield op
        i += 1


def ops(ctx, seed):
    ctx["rejected"] = [0]
    return draws(ctx["lu"], seed, MIN_MARGIN, ctx["rejected"])


def run(ctx, op, tracer):
    lu = ctx["lu"]
    box = lu.Box(op["lower"], op["upper"])
    zero = np.zeros(op["m"])
    moving = lu.DecomposedMovingSet(
        lambda t, _box=box: _box, np.zeros((op["m"], op["x_prev"].size)),
        lambda t, _z=zero: _z,
    )
    h = op["h"]
    t0 = time.perf_counter()
    sys_ = tracer.call("system.build_system", lu.build_system,
                       op["b"], op["c"], op["d"], moving)
    t2 = time.perf_counter()
    got = tracer.call("step.solve_step", lu.solve_step,
                      sys_, 0.0, op["x_prev"], op["y_in"], h)
    t3 = time.perf_counter()
    ref = tracer.call("step.oracle", lu.brute_force_step_oracle,
                      sys_, 0.0, op["x_prev"], op["y_in"], h)
    t4 = time.perf_counter()
    scale = 1.0 + max(float(np.linalg.norm(ref.x_next)),
                      float(np.linalg.norm(ref.mu)))
    dev = max(float(np.linalg.norm(got.x_next - ref.x_next)),
              float(np.linalg.norm(got.mu - ref.mu))) / scale
    return {
        "kind": f"m{op['m']}",
        "op_s": t4 - t0,
        "sim_s": t3 - t2,
        "steps": 1,
        "iterations": [got.iterations],
        "patterns": ref.iterations,
        "wrong": None if dev <= TOL else f"oracle deviation {dev:.3e} > {TOL:g}",
        "replay": None if op["i"] >= REPLAY_OPS else {
            "sys": sys_, "t_next": 0.0, "x_prev": op["x_prev"], "y_in": op["y_in"],
            "h": h, "step": got},
    }


def replay(ctx, records, tracer, counts, derived, max_steps):
    """System and step sub-layers for the first REPLAY_OPS instances."""
    from replay import replay_step, replay_system

    lu = ctx["lu"]
    opts = lu.SolverOptions()
    for rec in records[:REPLAY_OPS]:
        rep = rec.get("replay")
        if rep is None:
            continue
        replay_system(lu, tracer, rep["sys"], rep["x_prev"])
        step = replay_step(lu, tracer, rep["sys"], rep["t_next"], rep["x_prev"],
                           rep["y_in"], rep["h"], opts, counts)
        same = (np.array_equal(step.x_next, rep["step"].x_next)
                and np.array_equal(step.mu, rep["step"].mu))
        counts["bitwise_mismatch"] += int(not same)


def detail(ctx, records):
    iters = [it for r in records for it in r["iterations"]]
    patterns = [r["patterns"] for r in records if "patterns" in r]
    return {
        "rejected_draws": ctx["rejected"][0],
        "step.newton_iters_mean": float(np.mean(iters)),
        "step.newton_iters_max": int(np.max(iters)),
        "step.patterns_examined_mean": float(np.mean(patterns)),
    }
