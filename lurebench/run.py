"""luresim benchmark: one workload per run, closed loop, one client.

    python3 lurebench/run.py --workload decay_long --seed 1 --seconds 15 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` prints the
per-layer metrics of a traced run and writes its spans to
``.lurebench/trace-<workload>-seed<seed>.json``. The last stdout line is
the JSON result; the lines before it are a readable report and a
``detail`` line with workload-only counters and layer figures. See
README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import shutil
import sys
import time
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import harness  # noqa: E402

DEFAULT_SEED = 1
HELD_OUT_SEED = 2029
PROBES = 3  # fresh-process set-ups per run; setup_s is their median
REPLAY_STEPS = 40  # replayed steps per recorded trajectory
CRIT3_BOUND_S = 5.0  # criterion 3's wall-clock bound in the acceptance tests

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_tail": "ms",
    "steps_per_s": "1/s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "import.luresim_ms": "ms",
    "import.scipy_optimize_ms": "ms",
    "system.build_system_ms": "ms",
    "system.canonicalize_ms": "ms",
    "linalg.certify_ms": "ms",
    "linalg.range_projector_us": "us",
    "moving.admissible_ms": "ms",
    "moving.K_at_us": "us",
    "sets.normal_cone_residual_us": "us",
    "step.solve_step_us_p50": "us",
    "step.solve_step_us_tail": "us",
    "step.self_us": "us",
    "step.iterations_mean": "count",
    "trace.overhead_s": "s",
    "trace.overhead_pct": "%",
}
# workload-only layer figures, reported on the detail line: span name -> scale
DETAIL_SPANS = {
    "cli.interpreter": ("cli.interpreter_ms", 1e3),
    "cli.check": ("cli.check_ms", 1e3),
    "cli.simulate": ("cli.simulate_ms", 1e3),
    "cli.simulate_plot": ("cli.simulate_plot_ms", 1e3),
    "cli.converge": ("cli.converge_ms", 1e3),
    "cli.attract": ("cli.attract_ms", 1e3),
    "cli.lipdep": ("cli.lipdep_ms", 1e3),
    "cli.perturb": ("cli.perturb_ms", 1e3),
    "scenario.load_scenario": ("scenario.load_ms", 1e3),
    "scenario.make_system": ("scenario.make_system_ms", 1e3),
    "scenario.perturb_scenario": ("scenario.perturb_ms", 1e3),
    "sets.project_box": ("sets.project_box_us", 1e6),
    "sets.project_poly": ("sets.project_poly_us", 1e6),
    "sets.project_enumerate": ("sets.project_enumerate_us", 1e6),
    "step.inner_solve_box": ("step.inner_solve_box_us", 1e6),
    "step.oracle": ("step.oracle_us", 1e6),
    "integrate.simulate": ("integrate.simulate_s", 1.0),
    "integrate.to_csv": ("integrate.to_csv_ms", 1e3),
    "integrate.from_csv": ("integrate.from_csv_ms", 1e3),
    "svgplot.write_svg": ("svgplot.write_svg_ms", 1e3),
    "analysis.attractivity_check": ("analysis.attractivity_check_s", 1.0),
    "analysis.lipschitz_dependence_check": ("analysis.lipschitz_dependence_check_s", 1.0),
}


def run_op(lu, wl, ctx, op, tracer, index):
    t0 = time.perf_counter()
    with tracer.span("op", op=index):
        try:
            rec = wl.run(ctx, op, tracer)
        except lu.LureError as exc:
            rec = {"kind": "failed", "op_s": time.perf_counter() - t0, "sim_s": 0.0,
                   "steps": 0, "iterations": [], "wrong": None,
                   "failed": f"{type(exc).__name__}: {exc}"}
    rec["span"] = (t0, time.perf_counter())
    return rec


def loop(lu, wl, ctx, seed, tracer, seconds, speed):
    """Closed loop: the next op starts when the previous one has returned.

    The loop runs whole passes of the workload's op cycle (``PASS_OPS``),
    so every run times the same mix, and starts another pass only while it
    would end less than half a pass past ``seconds``.
    """
    gen = wl.ops(ctx, seed)
    records = []
    whole = wl.PASS_OPS
    speed.tick(force=True)
    t_start = t_pass = time.perf_counter()
    while True:
        for _ in range(whole):
            records.append(run_op(lu, wl, ctx, next(gen), tracer, len(records)))
            speed.tick()
        now = time.perf_counter()
        if now - t_start + (now - t_pass) / 2 >= seconds:
            break
        t_pass = now
    speed.tick(force=True)
    return records


def paired_loop(lu, wl, ctx, seed, tracer, seconds, speed):
    """Each op runs untraced and traced, alternating which goes first.

    Returns the traced records and the untraced and traced wall times, so
    the tracing overhead is measured on identical work with drift and
    warm-up shared by both sides. Whole passes, as in ``loop``.
    """
    gen = wl.ops(ctx, seed)
    records = []
    walls = {False: 0.0, True: 0.0}
    null = harness.NullTracer()
    whole = wl.PASS_OPS
    t_start = t_pass = time.perf_counter()
    while True:
        for _ in range(whole):
            op = next(gen)
            order = (False, True) if len(records) % 2 == 0 else (True, False)
            for traced in order:
                t0 = time.perf_counter()
                rec = run_op(lu, wl, ctx, op, tracer if traced else null, len(records))
                walls[traced] += time.perf_counter() - t0
                if traced:
                    kept = rec
            records.append(kept)
            speed.tick()
        now = time.perf_counter()
        if now - t_start + (now - t_pass) / 2 >= seconds:
            break
        t_pass = now
    return records, walls[False], walls[True]


def verify(wl, ctx, records, tracer):
    """Post-loop checks; returns (failed, wrong, first problems)."""
    failed = wrong = 0
    problems = []
    check = getattr(wl, "check", None)
    for rec in records:
        if rec.get("failed"):
            failed += 1
            problems.append(rec["failed"])
            continue
        why = rec["wrong"] or (check(ctx, rec, tracer) if check else None)
        if why:
            wrong += 1
            problems.append(why)
    return failed, wrong, problems[:5]


def peak_rss_mb(workload):
    who = resource.RUSAGE_CHILDREN if workload == "cli_corpus" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def end_to_end(wl, workload, records, probes, speed, spawn_speed):
    """End-to-end metrics, each interval at reference speed (SpeedIndex):
    ops by ``speed``, set-up probes by ``spawn_speed``.

    Latency percentiles cover the completed ops; failed ops are counted in
    ``failed`` and their time still counts against ops_per_s.
    """
    scale = [speed.factor(*r["span"]) for r in records]
    op_s = [r["op_s"] / f for r, f in zip(records, scale)]
    done = [t for t, r in zip(op_s, records) if not r.get("failed")]
    tail_s, tail_pct, samples = harness.tail(done, wl.TAIL_PCT)
    sim_s = sum(r["sim_s"] / f for r, f in zip(records, scale) if r["steps"])
    metrics = {
        "setup_s": harness.median(
            [p["setup_s"] / spawn_speed.factor(*p["span"]) for p in probes]),
        "ops_per_s": len(done) / sum(op_s),
        "op_ms_p50": 1e3 * harness.median(done),
        "op_ms_tail": 1e3 * tail_s,
        "steps_per_s": sum(r["steps"] for r in records) / sim_s,
        "peak_rss_mb": peak_rss_mb(workload),
    }
    raw_op_s = [r["op_s"] for r in records]
    raw_done = [r["op_s"] for r in records if not r.get("failed")]
    far_s, far_pct, _ = harness.tail(done)
    facts = {
        "op_ms_tail_percentile": tail_pct,
        "op_samples": samples,
        # the highest percentile with 10 samples beyond it, where TAIL_PCT
        # stops short of it (oracle_sweep)
        "op_ms_far_tail": 1e3 * far_s,
        "op_ms_far_tail_percentile": far_pct,
        "raw": {
            "setup_s": harness.median([p["setup_s"] for p in probes]),
            "ops_per_s": len(raw_done) / sum(raw_op_s),
            "op_ms_p50": 1e3 * harness.median(raw_done),
        },
    }
    return metrics, facts


def layer_metrics(tracer, probes, records, derived, counts, wall_u, wall_t):
    def med(name, scale):
        vals = tracer.durations(name)
        return scale * harness.median(vals) if vals else None

    solve = tracer.durations("step.solve_step")
    children = ("moving.K_at", "step.inner_solve_box", "linalg.range_projector",
                "sets.normal_cone_residual")
    iters = [it for r in records for it in r["iterations"]] + derived.get("iterations", [])
    overhead = wall_t - wall_u
    metrics = {
        "import.luresim_ms": 1e3 * harness.median([p["import_luresim_s"] for p in probes]),
        "import.scipy_optimize_ms": 1e3 * harness.median(
            [p["import_scipy_optimize_s"] for p in probes]),
        "system.build_system_ms": med("system.build_system", 1e3),
        "system.canonicalize_ms": med("system.canonicalize", 1e3),
        "linalg.certify_ms": med("linalg.certify", 1e3),
        "linalg.range_projector_us": med("linalg.range_projector", 1e6),
        "moving.admissible_ms": med("moving.admissible", 1e3),
        "moving.K_at_us": med("moving.K_at", 1e6),
        "sets.normal_cone_residual_us": med("sets.normal_cone_residual", 1e6),
        "step.solve_step_us_p50": med("step.solve_step", 1e6),
        "step.solve_step_us_tail": 1e6 * harness.tail(solve)[0],
        # solve_step minus its replayed public sub-calls; on polyhedra the
        # active-set enumeration stays in here (it has no public entry)
        "step.self_us": med("step.solve_step", 1e6) - sum(
            med(name, 1e6) or 0.0 for name in children),
        "step.iterations_mean": sum(iters) / len(iters),
        "trace.overhead_s": overhead,
        "trace.overhead_pct": 100.0 * overhead / wall_u,
    }
    detail = {}
    for span, (name, scale) in DETAIL_SPANS.items():
        value = med(span, scale)
        if value is not None:
            detail[name] = value
    for name, values in derived.items():
        if name != "iterations" and values:
            detail[name] = harness.median(values)
    if iters:
        detail["step.iterations_max"] = max(iters)
    if counts["box_steps"]:
        detail["step.polish_applied_ratio"] = counts["polish_applied"] / counts["box_steps"]
    detail["step.solve_step_tail_percentile"] = harness.tail(solve)[1]
    detail["step.solve_step_samples"] = len(solve)
    detail["counts"] = dict(counts)
    self_ms = {}
    for span in tracer.spans:
        self_ms[span[0]] = self_ms.get(span[0], 0.0) + 1e3 * (span[2] - span[1] - span[5])
    detail["self_ms_total"] = self_ms
    return metrics, detail


def normalise(metrics, units, factor):
    """Timings divided by one speed factor (see harness.SpeedIndex)."""
    out = {}
    for name, value in metrics.items():
        if units[name] in ("s", "ms", "us"):
            value /= factor
        elif units[name] == "1/s":
            value *= factor
        out[name] = value
    return out


def report(workload, seed, trace, metrics, units, detail, attempted, failed, correct):
    print(f"lurebench workload={workload} seed={seed} trace={trace}")
    for name, value in metrics.items():
        print(f"  {name:30s} {value:14.6g} {units[name]}")
    print(f"  {'fail_ratio':30s} {failed / attempted:14.6g} (failed {failed} of {attempted})")
    print("detail " + json.dumps(detail, sort_keys=True, default=float))
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(harness.MODULES))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"workload seed (default {DEFAULT_SEED}; held out for "
                             f"confirming a claimed gain: {HELD_OUT_SEED})")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    harness.pin_environment()
    try:
        lu = harness.import_luresim()
    except (ImportError, RuntimeError) as exc:
        print(f"error: cannot benchmark this checkout: {exc}", file=sys.stderr)
        return 2
    wl = importlib.import_module(harness.MODULES[args.workload])

    detail = {"seed": args.seed, "workload": args.workload, "env": harness.env_facts()}
    # set-up probes and CLI calls start processes: scaled by the spawn kernel
    spawn_speed = harness.SpeedIndex(harness.spawn_kernel, harness.REF_SPAWN_S)
    speed = spawn_speed if args.workload == "cli_corpus" else harness.SpeedIndex()
    probes = harness.run_probes(args.workload, args.seed, PROBES, bool(args.trace),
                                spawn_speed)
    tracer = harness.Tracer() if args.trace else harness.NullTracer()
    ctx = wl.build(lu, args.seed, tracer)
    if args.workload == "cli_corpus":
        wl.open_tmp(ctx)
    try:
        crit3_wrong = None
        if args.workload == "decay_long":
            speed.tick(force=True)
            t0 = time.perf_counter()
            crit3_s, crit3_wrong, crit3_facts = wl.crit3(lu, tracer)
            t1 = time.perf_counter()
            speed.tick(force=True)
            detail.update(crit3_facts, crit3_s=crit3_s, crit3_bound_s=CRIT3_BOUND_S,
                          crit3_within_bound=crit3_s < CRIT3_BOUND_S,
                          crit3_s_at_ref_speed=crit3_s / speed.factor(t0, t1))
        if not args.trace:
            records = loop(lu, wl, ctx, args.seed, tracer, args.seconds, speed)
            failed, wrong, problems = verify(wl, ctx, records, tracer)
            metrics, facts = end_to_end(wl, args.workload, records, probes, speed,
                                        spawn_speed)
            units = END_TO_END
            detail.update(facts)
        else:
            records, wall_u, wall_t = paired_loop(lu, wl, ctx, args.seed, tracer,
                                                  args.seconds, speed)
            failed, wrong, problems = verify(wl, ctx, records, tracer)
            counts, derived = Counter(), {}
            wl.replay(ctx, records, tracer, counts, derived, REPLAY_STEPS)
            wrong += counts["bitwise_mismatch"] + counts["diagnostics_mismatch"] + \
                counts["csv_roundtrip_mismatch"]
            metrics, layer_detail = layer_metrics(tracer, probes, records, derived,
                                                  counts, wall_u, wall_t)
            units = PER_LAYER
            detail.update(layer_detail)
            detail["wall_untraced_s"] = wall_u
            detail["wall_traced_s"] = wall_t
            detail["import.luresim_ms_probes"] = [1e3 * p["import_luresim_s"] for p in probes]
            tracer.dump(harness.OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json",
                        {"seed": args.seed, "workload": args.workload,
                         "metrics": metrics})
        wrong += int(crit3_wrong is not None)
        detail["speed_factor"] = speed.factor()
        detail["speed_samples"] = len(speed.samples)
        detail["spawn_speed_factor"] = spawn_speed.factor()
        if args.trace:
            # per-layer spans are scaled by the run's median speed
            metrics = normalise(metrics, units, speed.factor())
        detail.update(wl.detail(ctx, records))
        detail["problems"] = problems
        detail["wrong"] = wrong
    finally:
        if ctx.get("tmp") is not None:
            shutil.rmtree(ctx["tmp"], ignore_errors=True)
    report(args.workload, args.seed, args.trace, metrics, units, detail,
           len(records), failed, wrong == 0)
    return 0


if __name__ == "__main__":
    sys.exit(main())
