"""decay_long: long in-process horizons on one system and one step size.

The ops cycle through the criterion-4 Lipschitz-dependence check and
PER_FAMILY seeded scenarios from each of three box families, each simulated
for thousands of steps:

* ``tv``: piecewise-linear bound and forcing tables (time-varying box);
* ``downgrade``: a state-dependent offset H outside rge(D + D^T), which
  make_system downgrades to the general moving-set form;
* ``storage``: a non-identity storage matrix P, which sends simulate
  through canonicalize.

A run repeats the same systems and step sizes for thousands of steps, so the
per-step overhead dominates and caching per-run invariants shows here. The
criterion-3 pair (thm4 at 1000 and 16000 steps) is timed once per run, before
the loop, by ``crit3``.
"""

from __future__ import annotations

import os
import time

import numpy as np

from harness import NullTracer

N_STEPS = 2000
FAMILIES = ("tv", "downgrade", "storage")
PER_FAMILY = 8  # seeded systems per family; averages out one seed's draws
CYCLE = ("lipdep",) + FAMILIES * PER_FAMILY
PASS_OPS = len(CYCLE)  # whole cycles, so every run times the same mix
# op_ms_tail: a 20 s run is one pass (two on a fast machine), and no
# percentile above p50 has 10 of 25 ops beyond it
TAIL_PCT = 50.0
CRIT3_RATE = 0.99875
CRIT4_RATE = 1.00125
CRIT4_X0B = (0.6, -0.2)


def _thm4(lu):
    sc = lu.load_scenario(os.path.join(lu.scenario_dir(), "example_thm4.json"))
    return sc, lu.make_system(sc).system


def crit3(lu, tracer):
    """Criterion-3 pair; returns (seconds, wrong-or-None, reports)."""
    sc, sys_ = _thm4(lu)
    t0 = time.perf_counter()
    coarse = tracer.call("analysis.attractivity_check", lu.attractivity_check,
                         sys_, sc.x0, 5.0, 1000)
    fine = tracer.call("analysis.attractivity_check", lu.attractivity_check,
                       sys_, sc.x0, 5.0, 16000)
    elapsed = time.perf_counter() - t0
    wrong = None
    if not (coarse.passed and fine.passed):
        wrong = "criterion-3 envelope not passed"
    elif abs(coarse.claimed_rate - CRIT3_RATE) >= 1e-12:
        wrong = f"criterion-3 rate {coarse.claimed_rate!r} != {CRIT3_RATE}"
    return elapsed, wrong, {
        "crit3.max_violation_1000": coarse.max_violation,
        "crit3.max_violation_16000": fine.max_violation,
    }


def _table(t_final, start, end, knots):
    ts = np.linspace(0.0, t_final, knots)
    return {"t": ts.tolist(), "v": np.linspace(start, end, knots).tolist()}


# parameter ranges of the seeded scenarios
RANGES = {
    "a1": (0.8, 1.5), "a2": (0.8, 1.5), "c11": (0.05, 0.2), "c22": (0.9, 1.1),
    "d22": (0.5, 1.5), "knots": (3.0, 7.0), "force": (1.0, 2.0),
    "lo_start": (-1.2, -0.9), "lo_end": (-0.6, -0.4), "up_end": (0.2, 0.5),
    "eps": (0.05, 0.15), "p11": (0.8, 1.5), "p22": (0.8, 1.5), "p12": (-0.2, 0.2),
}


def _scenario(family, v):
    t_final = 2.0
    c11 = 0.0 if family == "downgrade" else v["c11"]
    sc = {
        "name": f"decay-{family}",
        "n": 2, "m": 2,
        "A": [[-v["a1"], 0.0], [0.0, -v["a2"]]],
        "B": [[0.0, 0.0], [0.0, 1.0]],
        "C": [[c11, 0.0], [0.0, v["c22"]]],
        "D": [[0.0, 0.0], [0.0, v["d22"]]],
        "set": {
            "lower": [_table(t_final, v["lo_start"], v["lo_end"], int(v["knots"])), -1.0],
            "upper": [1.0, _table(t_final, 1.0, v["up_end"], int(v["knots"]))],
        },
        "forcing": {"t": [0.0, t_final / 2, t_final],
                    "v": [[0.0, 0.0], [0.0, v["force"]], [0.0, v["force"]]]},
        "x0": [0.0, 0.0],
        "T": t_final,
        "n_steps": N_STEPS,
    }
    if family == "downgrade":
        sc["set"]["H"] = [[-v["eps"], 0.0], [0.0, -v["eps"]]]
    if family == "storage":
        sc["P"] = [[v["p11"], v["p12"]], [v["p12"], v["p22"]]]
        sc["set"] = {"lower": [-1.0, -1.0], "upper": [1.0, 1.0]}
    return sc


def scenarios(seed):
    """PER_FAMILY scenarios per family, Latin-hypercube sampled.

    Each parameter's range is cut into PER_FAMILY strata and every stratum
    is used once per family, in a seeded order. So each seed covers every
    range evenly, and the work per run varies little from seed to seed.
    """
    rng = np.random.default_rng([seed, 1])
    draws = {}
    for family in FAMILIES:
        for name, (lo, hi) in RANGES.items():
            u = (rng.permutation(PER_FAMILY) + rng.random(PER_FAMILY)) / PER_FAMILY
            draws[family, name] = lo + (hi - lo) * u
    return [_scenario(family, {name: float(draws[family, name][slot]) for name in RANGES})
            for slot in range(PER_FAMILY) for family in FAMILIES]


def build(lu, seed, tracer=None):
    """Load and certify the thm4 system and the seeded box scenarios."""
    tracer = tracer or NullTracer()
    thm4_sc, thm4_sys = _thm4(lu)
    systems = []
    for data in scenarios(seed):
        sc = tracer.call("scenario.load_scenario", lu.load_scenario, data)
        systems.append((sc, tracer.call("scenario.make_system", lu.make_system, sc).system))
    return {"lu": lu, "thm4": (thm4_sc, thm4_sys), "systems": systems}


def ops(ctx, seed):
    """Endless op stream: the cycle above, with a fresh start state each time."""
    rng = np.random.default_rng([seed, 2])
    i = 0
    while True:
        slot = i % len(CYCLE)
        yield {"i": i, "slot": slot, "kind": CYCLE[slot],
               "x0": rng.uniform(-0.8, 0.8, size=2)}
        i += 1


def _trajectory_error(traj, tol):
    if not np.all(np.isfinite(traj.states)):
        return "non-finite state"
    worst = float(np.max(traj.residuals[1:]))
    if worst > tol:
        return f"step residual {worst:.3e} above tolerance {tol:g}"
    if traj.diag["hypo_violations"]:
        return f"{traj.diag['hypo_violations']} hypomonotonicity violations"
    return None


def run(ctx, op, tracer):
    lu = ctx["lu"]
    opts = lu.SolverOptions()
    if op["kind"] == "lipdep":
        sc, sys_ = ctx["thm4"]
        t0 = time.perf_counter()
        rep = tracer.call("analysis.lipschitz_dependence_check",
                          lu.lipschitz_dependence_check,
                          sys_, sc.x0, np.array(CRIT4_X0B), 5.0, 1000)
        elapsed = time.perf_counter() - t0
        wrong = None
        if not rep.passed or abs(rep.claimed_rate - CRIT4_RATE) >= 1e-12:
            wrong = f"criterion-4 envelope: passed={rep.passed} rate={rep.claimed_rate!r}"
        return {"kind": "lipdep", "op_s": elapsed, "sim_s": 0.0, "steps": 0,
                "iterations": [], "wrong": wrong}
    sc, sys_ = ctx["systems"][op["slot"] - 1]
    t0 = time.perf_counter()
    traj = tracer.call("integrate.simulate", lu.simulate,
                       sys_, op["x0"], sc.t_final, sc.n_steps, opts)
    elapsed = time.perf_counter() - t0
    return {
        "kind": op["kind"], "op_s": elapsed, "sim_s": elapsed,
        "steps": traj.n_steps, "iterations": traj.iterations[1:].tolist(),
        "wrong": _trajectory_error(traj, opts.tol),
        "replay": {"sys": sys_, "traj": traj, "x0": op["x0"],
                   "t_final": sc.t_final, "n_steps": sc.n_steps,
                   "identity": sc.p_matrix is None, "sim_s": elapsed},
    }


def replay(ctx, records, tracer, counts, derived, max_steps):
    """Sub-layers of the first cycle, and the analysis checks' own time."""
    from replay import replay_run

    lu = ctx["lu"]
    for rec in records[: len(CYCLE)]:
        if "replay" in rec:
            replay_run(lu, tracer, rec, max_steps, counts, derived)
    # both checks simulate thm4 on the same 1000-step grid; what is left
    # after their simulate calls is the check's own time
    sc, sys_ = ctx["thm4"]
    t0 = time.perf_counter()
    tracer.call("analysis.replay_simulate", lu.simulate, sys_, sc.x0, 5.0, 1000)
    sim_s = time.perf_counter() - t0
    own = derived.setdefault("analysis.check_self_ms", [])
    attract = tracer.durations("analysis.attractivity_check")
    if attract:
        own.append(1e3 * (attract[0] - sim_s))
    own.extend(1e3 * (d - 2.0 * sim_s)
               for d in tracer.durations("analysis.lipschitz_dependence_check"))


def detail(ctx, records):
    iters = [it for r in records for it in r["iterations"]]
    return {
        "step.newton_iters_mean": float(np.mean(iters)) if iters else 0.0,
        "step.newton_iters_max": int(np.max(iters)) if iters else 0,
    }
