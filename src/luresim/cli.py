"""Command-line front end: certify, simulate and analyze scenario files.

Exit codes: 0 success, 2 on validation or hypothesis failure (including a
failed rate report and a non-finite drift), 3 on solver divergence. The environment variable
``LURE_STEP_TOL`` overrides the step-solver tolerance.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .analysis import (
    attractivity_check,
    convergence_order,
    lipschitz_dependence_check,
)
from .errors import LureError, SolverDiverged
from .integrate import richardson_refine, simulate, to_csv
from .moving import admissible
from .scenario import (
    load_scenario,
    make_system,
    perturb_scenario,
    raw_tuple_report,
    save_scenario,
)
from .step import SolverOptions
from .svgplot import write_svg

__all__ = ["main"]


def _fmt(value):
    if value is None:
        return "n/a"
    return f"{value:.6g}"


def _solver_options():
    raw = os.environ.get("LURE_STEP_TOL")
    if raw is None:
        return SolverOptions()
    try:
        tol = float(raw)
    except ValueError as exc:
        raise LureError(f"LURE_STEP_TOL is not a number: {raw!r}") from exc
    if not (tol > 0.0):
        raise LureError("LURE_STEP_TOL must be positive")
    return SolverOptions(tol=tol)


def _check(args):
    sc = load_scenario(args.scenario)
    report = make_system(sc)
    out = sys.stdout
    out.write(f"scenario: {sc.name}\n")
    out.write("constants:\n")
    order = [
        ("alpha", "alpha"),
        ("c1", "c1"),
        ("c2", "c2"),
        ("kappa", "kappa"),
        ("L_f", "lf"),
        ("L_K1", "lk1"),
        ("L_K2", "lk2"),
        ("mismatch |B - C^T|", "mismatch"),
        ("sigma", "sigma"),
    ]
    for label, key in order:
        out.write(f"  {label}: {_fmt(report.constants[key])}\n")
    out.write("checks:\n")
    for item in report.checks:
        mark = {True: "ok", False: "!!", None: "--"}[item.ok]
        detail = f" ({item.detail})" if item.detail else ""
        out.write(f"  [{mark}] {item.name}{detail}\n")
    ok = admissible(report.system.K, report.system, sc.x0, opts=_solver_options())
    verdict = {True: "yes", False: "no", None: "undetermined"}[ok]
    out.write(f"admissibility of x0: {verdict}\n")
    if sc.c_bar is not None:
        out.write("measured tuple (C_bar):\n")
        raw_checks, raw_kappa = raw_tuple_report(sc)
        for item in raw_checks:
            verdict_raw = {True: "yes", False: "no", None: "n/a"}[item.ok]
            out.write(f"  {item.name}: {verdict_raw}\n")
        out.write(f"  kappa (formula): {_fmt(raw_kappa)}\n")
    if report.warnings:
        out.write("warnings:\n")
        for line in report.warnings:
            out.write(f"  - {line}\n")
    if ok is False:
        raise LureError("initial state is not admissible for the moving set")
    return 0


def _simulate(args):
    sc = load_scenario(args.scenario)
    report = make_system(sc)
    traj = simulate(
        report.system, sc.x0, sc.t_final, sc.n_steps, opts=_solver_options()
    )
    for line in report.warnings:
        sys.stderr.write(f"warning: {line}\n")
    if args.out:
        to_csv(traj, args.out)
        final = traj.states[-1]
        sys.stdout.write(
            f"steps: {traj.n_steps}  final |x|: {np.linalg.norm(final):.6g}  "
            f"max residual: {float(np.max(traj.residuals)):.3g}\n"
        )
    else:
        to_csv(traj, sys.stdout)
    if args.plot:
        write_svg(traj, args.plot, title=sc.name)
    return 0


def _converge(args):
    sc = load_scenario(args.scenario)
    report = make_system(sc)
    trajs = richardson_refine(
        report.system, sc.x0, sc.t_final, sc.n_steps, args.levels,
        opts=_solver_options(),
    )
    order, diffs = convergence_order(trajs)
    for traj, diff in zip(trajs, diffs):
        h = sc.t_final / traj.n_steps
        sys.stdout.write(
            f"n={traj.n_steps:<8d} h={h:<12.6g} diff_to_next={diff:.6g}\n"
        )
    if np.isnan(order):
        sys.stdout.write("refinements agree to tolerance; order not estimable\n")
    else:
        sys.stdout.write(f"estimated order: {order:.4g}\n")
    return 0


_VARIANTS = {"thm3": "with_uniqueness", "thm4": "without_uniqueness"}


def _attract(args):
    sc = load_scenario(args.scenario)
    report = make_system(sc)
    rate = attractivity_check(
        report.system,
        sc.x0,
        sc.t_final,
        sc.n_steps,
        variant=_VARIANTS[args.variant],
        opts=_solver_options(),
    )
    sys.stdout.write(json.dumps(rate.to_json_dict(), indent=2) + "\n")
    return 0 if rate.passed else 2


def _lipdep(args):
    sc = load_scenario(args.scenario)
    report = make_system(sc)
    x0b = _parse_vector(args.x0b, sc.n)
    rate = lipschitz_dependence_check(
        report.system, sc.x0, x0b, sc.t_final, sc.n_steps, opts=_solver_options()
    )
    sys.stdout.write(json.dumps(rate.to_json_dict(), indent=2) + "\n")
    return 0 if rate.passed else 2


def _parse_vector(text, n):
    text = text.strip()
    if os.path.exists(text):
        with open(text, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    elif text.startswith("["):
        data = json.loads(text)
    else:
        data = [float(tok) for tok in text.split(",") if tok.strip()]
    vec = np.asarray(data, dtype=float).reshape(-1)
    if vec.size != n:
        raise LureError(f"expected a length-{n} vector, got {vec.size} entries")
    return vec


def _parse_matrix_file(path):
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if isinstance(data, dict):
        for key in ("C_bar", "matrix"):
            if key in data:
                data = data[key]
                break
        else:
            raise LureError(
                f"{path}: expected a matrix or an object with 'C_bar'/'matrix'"
            )
    return np.asarray(data, dtype=float)


def _perturb(args):
    sc = load_scenario(args.scenario)
    c_bar = _parse_matrix_file(args.cbar)
    new_sc, warnings = perturb_scenario(sc, c_bar)
    for line in warnings:
        sys.stderr.write(f"warning: {line}\n")
    if args.out:
        save_scenario(new_sc, args.out)
    else:
        save_scenario(new_sc, sys.stdout)
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="luresim",
        description="simulate and certify set-valued Lur'e systems",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="certification report for a scenario")
    p.add_argument("scenario")
    p.set_defaults(func=_check)

    p = sub.add_parser("simulate", help="run a scenario and serialize the trajectory")
    p.add_argument("scenario")
    p.add_argument("--out", default=None, help="CSV output path (default stdout)")
    p.add_argument("--plot", default=None, help="SVG plot output path")
    p.set_defaults(func=_simulate)

    p = sub.add_parser("converge", help="grid refinement study")
    p.add_argument("scenario")
    p.add_argument("--levels", type=int, default=4)
    p.set_defaults(func=_converge)

    p = sub.add_parser("attract", help="exponential decay envelope report")
    p.add_argument("scenario")
    p.add_argument("--variant", choices=sorted(_VARIANTS), required=True)
    p.set_defaults(func=_attract)

    p = sub.add_parser("lipdep", help="initial-data Lipschitz dependence report")
    p.add_argument("scenario")
    p.add_argument("--x0b", required=True,
                   help="second initial state: comma list, JSON array, or file")
    p.set_defaults(func=_lipdep)

    p = sub.add_parser(
        "perturb",
        help="fold a measured output matrix into the moving set",
    )
    p.add_argument("scenario")
    p.add_argument("--cbar", required=True, help="JSON file with the measured matrix")
    p.add_argument("--out", default=None, help="write transformed scenario here")
    p.set_defaults(func=_perturb)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return int(args.func(args))
    except SolverDiverged as exc:
        sys.stderr.write(f"error: solver diverged: {exc}\n")
        return 3
    except LureError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
