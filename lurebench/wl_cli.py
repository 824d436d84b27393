"""cli_corpus: serial ``python -m luresim.cli`` calls over the bundled corpus.

Each of the 7 bundled scenarios gets ``check`` and ``simulate --out``; on
top come ``simulate --plot`` on thm4, ``converge --levels 4`` on
sweeping_drift, ``attract --variant thm4``, ``lipdep`` on thm3 and the
criterion-6 ``perturb`` -> ``check`` -> ``simulate`` pipeline. Interpreter
start-up and ``import luresim`` are most of every call, so import, scenario
and CLI changes show here while step-loop changes barely do.

A run measures whole corpus passes (``PASS_OPS`` calls each) until the
run time is spent, so every run times the same mix of calls; the seed
shuffles the order of each pass and draws the second start state of
``lipdep``. Outputs are checked against ``refs.json``, recorded from the
seed commit by ``record_refs.py``.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import time

import numpy as np

from harness import BENCH_DIR, REPO, NullTracer, child_env

SCENARIOS = ("trivial", "sweeping", "sweeping_drift", "thm3", "thm4",
             "timevarying", "sec4")
CBAR = [[0.1, 0.0], [0.0, 1.1]]  # criterion-6 measured output matrix
LIPDEP_X0B = "0.6,-0.2"
INTERPRETER_PROBES = 5
REFS = BENCH_DIR / "refs.json"

# a unit is one or more calls that run back to back
UNITS = (
    [("check", "trivial"), ("simulate", "trivial")],
    [("converge", "sweeping_drift")],
    [("check", "sweeping"), ("simulate", "sweeping")],
    [("check", "sweeping_drift"), ("attract", "thm4")],
    [("simulate", "sweeping_drift"), ("check", "thm3")],
    [("perturb", "timevarying"), ("check", "rewritten"), ("simulate", "rewritten")],
    [("simulate", "thm3"), ("lipdep", "thm3")],
    [("check", "thm4"), ("simulate", "thm4")],
    [("check", "timevarying"), ("simulate_plot", "thm4")],
    [("simulate", "timevarying"), ("check", "sec4"), ("simulate", "sec4")],
)
PASS_OPS = sum(len(unit) for unit in UNITS)
# op_ms_tail: a 20 s run is one pass, and no percentile above p50 has 10
# of its 21 calls beyond it
TAIL_PCT = 50.0


def scenario_path(lu, name):
    return os.path.join(lu.scenario_dir(), f"example_{name}.json")


def build(lu, seed, tracer=None):
    """What every CLI call does first: load and certify the bundled corpus.
    The traced run replays the CLI's layers on these systems."""
    tracer = tracer or NullTracer()
    systems = {}
    for name in SCENARIOS:
        sc = tracer.call("scenario.load_scenario", lu.load_scenario,
                         scenario_path(lu, name))
        systems[name] = (sc, tracer.call("scenario.make_system",
                                         lu.make_system, sc).system)
    return {"lu": lu, "systems": systems, "tmp": None}


def open_tmp(ctx):
    tmp = REPO / ".lurebench" / f"tmp-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    (tmp / "cbar.json").write_text(json.dumps(CBAR), encoding="utf-8")
    ctx["tmp"] = tmp
    return tmp


def argv(ctx, command, target, x0b):
    lu, tmp = ctx["lu"], ctx["tmp"]
    path = str(tmp / "rewritten.json") if target == "rewritten" else scenario_path(lu, target)
    csv_out = str(tmp / f"{target}.csv")
    if command == "check":
        return ["check", path]
    if command == "simulate":
        return ["simulate", path, "--out", csv_out]
    if command == "simulate_plot":
        return ["simulate", path, "--out", str(tmp / "plot.csv"),
                "--plot", str(tmp / "plot.svg")]
    if command == "converge":
        return ["converge", path, "--levels", "4"]
    if command == "attract":
        return ["attract", path, "--variant", "thm4"]
    if command == "lipdep":
        return ["lipdep", path, f"--x0b={x0b}"]
    if command == "perturb":
        return ["perturb", path, "--cbar", str(tmp / "cbar.json"),
                "--out", str(tmp / "rewritten.json")]
    raise ValueError(command)


def call(ctx, command, target, x0b):
    """One CLI subprocess; returns (seconds, CompletedProcess)."""
    cmd = [sys.executable, "-m", "luresim.cli", *argv(ctx, command, target, x0b)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, env=child_env(), cwd=str(REPO), capture_output=True,
                          text=True, timeout=120)
    return time.perf_counter() - t0, proc


def ops(ctx, seed):
    """Endless call stream: corpus passes, each in a seeded unit order.

    The three pipeline calls stay one unit, so ``check`` and ``simulate``
    always find the scenario that ``perturb`` has just written.
    """
    rng = np.random.default_rng([seed, 6])
    while True:
        for unit in rng.permutation(len(UNITS)):
            for command, target in UNITS[unit]:
                x0b = LIPDEP_X0B
                if command == "lipdep":
                    x0b = ",".join(repr(float(v)) for v in rng.uniform(-1.0, 1.0, size=2))
                yield {"command": command, "target": target, "x0b": x0b}


def verdict_lines(stdout):
    """Lines carrying a check verdict: [ok]/[!!]/[--] items and yes/no answers."""
    keep = []
    for line in stdout.splitlines():
        if re.search(r"\[(ok|!!|--)\]|: (yes|no|n/a|undetermined)$", line):
            keep.append(line)
    return keep


def csv_summary(text, stride_rows=25):
    lines = text.strip().splitlines()
    rows = [[float(v) for v in ln.split(",")] for ln in lines[1:]]
    picks = sorted(set(np.linspace(0, len(rows) - 1, stride_rows).astype(int).tolist()))
    return {
        "sha256": hashlib.sha256(text.encode()).hexdigest(),
        "header": lines[0],
        "rows": len(rows),
        "sample": {str(i): rows[i] for i in picks},
    }


def compare_csv(text, ref, rel=1e-9):
    """None when the CSV matches the reference within ``rel``; else why not."""
    got = csv_summary(text)
    if got["header"] != ref["header"] or got["rows"] != ref["rows"]:
        return f"CSV shape {got['header']!r} x {got['rows']} differs from the reference"
    lines = text.strip().splitlines()
    for idx, want in ref["sample"].items():
        row = [float(v) for v in lines[1 + int(idx)].split(",")]
        for a, b in zip(row, want):
            if not (abs(a - b) <= rel * (1.0 + abs(b)) or (math.isnan(a) and math.isnan(b))):
                return f"CSV row {idx} differs from the reference ({a!r} vs {b!r})"
    return None


def _numbers(text):
    return [float(tok) for tok in re.findall(r"[-+]?\d+\.?\d*(?:[eE][-+]?\d+)?", text)]


def check_call(ctx, op, proc, refs, counts):
    """Check one call's exit code and outputs; returns None or why it is wrong."""
    command, target, tmp = op["command"], op["target"], ctx["tmp"]
    if proc.returncode != 0:
        return f"exit code {proc.returncode}: {proc.stderr.strip()[-200:]}"
    if command == "check":
        want = refs["check"][target]
        if verdict_lines(proc.stdout) != want:
            return f"check verdicts for {target} differ from the reference"
        return None
    if command in ("simulate", "simulate_plot"):
        csv_path = tmp / ("plot.csv" if command == "simulate_plot" else f"{target}.csv")
        text = csv_path.read_text(encoding="utf-8")
        ref = refs["csv"][target]
        counts["integrate.csv_files"] += 1
        counts["integrate.csv_bitwise_equal"] += int(csv_summary(text)["sha256"] == ref["sha256"])
        why = compare_csv(text, ref)
        if why is None and target == "rewritten":
            # criterion 6: the rewritten tuple reproduces the sec4 states
            sec4 = refs["csv"]["sec4"]["sample"]
            lines = text.strip().splitlines()
            for idx, want in sec4.items():
                row = [float(v) for v in lines[1 + int(idx)].split(",")]
                if max(abs(row[1] - want[1]), abs(row[2] - want[2])) > 1e-12:
                    return f"rewritten run leaves the sec4 states at row {idx}"
        if why is None and command == "simulate_plot":
            svg = (tmp / "plot.svg").read_text(encoding="utf-8")
            if not svg.startswith("<svg") or svg.count("<polyline") != refs["svg_polylines"]:
                return "SVG plot is malformed"
        return why
    if command == "converge":
        got, want = _numbers(proc.stdout), _numbers(refs["converge"])
        if len(got) != len(want) or any(
            abs(a - b) > 1e-5 * (1.0 + abs(b)) for a, b in zip(got, want)
        ):
            return "converge report differs from the reference"
        return None
    if command in ("attract", "lipdep"):
        rep = json.loads(proc.stdout)
        want = refs[command]
        if not rep["pass"] or abs(rep["claimed_rate"] - want["claimed_rate"]) > 1e-12:
            return f"{command} envelope: pass={rep['pass']} rate={rep['claimed_rate']!r}"
        if command == "attract" and abs(rep["max_violation"] - want["max_violation"]) > 1e-9:
            return "attract max_violation differs from the reference"
        return None
    if command == "perturb":
        got = json.loads((tmp / "rewritten.json").read_text(encoding="utf-8"))
        if got != refs["perturb"]:
            return "perturbed scenario differs from the reference"
        return None
    raise ValueError(command)


def load_refs():
    with open(REFS, encoding="utf-8") as fh:
        return json.load(fh)


def run(ctx, op, tracer):
    elapsed, proc = tracer.call(f"cli.{op['command']}", call, ctx, op["command"],
                                op["target"], op["x0b"])
    counts = ctx.setdefault("counts", {"integrate.csv_files": 0,
                                       "integrate.csv_bitwise_equal": 0})
    wrong = check_call(ctx, op, proc, ctx.setdefault("refs", load_refs()), counts)
    steps = 0
    if op["command"] in ("simulate", "simulate_plot") and proc.returncode == 0:
        name = "plot" if op["command"] == "simulate_plot" else op["target"]
        steps = len((ctx["tmp"] / f"{name}.csv").read_text(encoding="utf-8").splitlines()) - 2
    return {"kind": op["command"], "op_s": elapsed, "sim_s": elapsed if steps else 0.0,
            "steps": steps, "iterations": [], "wrong": wrong,
            "target": op["target"]}


def replay(ctx, records, tracer, counts, derived, max_steps):
    """In-process replay of what the CLI calls do, one span per layer call."""
    from replay import replay_run

    lu = ctx["lu"]
    refs = ctx.setdefault("refs", load_refs())
    for _ in range(INTERPRETER_PROBES):
        tracer.call("cli.interpreter", subprocess.run, [sys.executable, "-c", "pass"],
                    env=child_env(), check=True)
    runs = {}
    for name, (sc, sys_) in ctx["systems"].items():
        t0 = time.perf_counter()
        traj = tracer.call("integrate.simulate", lu.simulate,
                           sys_, sc.x0, sc.t_final, sc.n_steps)
        sim_s = time.perf_counter() - t0
        buf = io.StringIO()
        tracer.call("integrate.to_csv", lu.to_csv, traj, buf)
        text = buf.getvalue()
        counts["replay_csv_bitwise_equal"] += int(
            csv_summary(text)["sha256"] == refs["csv"][name]["sha256"])
        back = tracer.call("integrate.from_csv", lu.from_csv, io.StringIO(text))
        same = all(np.array_equal(getattr(back, f), getattr(traj, f)) for f in
                   ("times", "states", "lambdas", "outputs", "residuals", "iterations"))
        counts["csv_roundtrip_mismatch"] += int(not same)
        derived.setdefault("iterations", []).extend(traj.iterations[1:].tolist())
        rec = {"replay": {"sys": sys_, "traj": traj, "x0": sc.x0, "t_final": sc.t_final,
                          "n_steps": sc.n_steps, "identity": sc.p_matrix is None,
                          "sim_s": sim_s}}
        replay_run(lu, tracer, rec, max_steps, counts, derived)
        runs[name] = (sc, sys_, traj, sim_s)
    tracer.call("scenario.perturb_scenario", lu.perturb_scenario,
                runs["timevarying"][0], np.array(CBAR))
    sc, sys_, traj, sim_s = runs["thm4"]
    tracer.call("svgplot.write_svg", lu.write_svg, traj, str(ctx["tmp"] / "replay.svg"),
                title=sc.name)
    own = derived.setdefault("analysis.check_self_ms", [])
    t0 = time.perf_counter()
    tracer.call("analysis.attractivity_check", lu.attractivity_check,
                sys_, sc.x0, sc.t_final, sc.n_steps, variant="without_uniqueness")
    own.append(1e3 * (time.perf_counter() - t0 - sim_s))
    sc, sys_, traj, sim_s = runs["thm3"]
    t0 = time.perf_counter()
    x0b = np.array([float(v) for v in LIPDEP_X0B.split(",")])
    tracer.call("analysis.lipschitz_dependence_check", lu.lipschitz_dependence_check,
                sys_, sc.x0, x0b, sc.t_final, sc.n_steps)
    own.append(1e3 * (time.perf_counter() - t0 - 2.0 * sim_s))


def detail(ctx, records):
    return dict(ctx.get("counts", {}))
