"""Scenario files: JSON description of a system, its constraint set and a run.

A scenario holds the matrix tuple, an affine drift (state matrix plus an
optional piecewise-linear forcing table), box bounds per constraint
coordinate (constants, "inf"/"-inf", or piecewise-linear tables of time), an
optional state-offset matrix H with offset table g, the initial state and the
grid. Loading validates structure and the standing data assumptions:

  A1 (variation bound): the state sensitivity L_K2 of the moving set must not
      exceed c2 / ||C||.
  A2 (matrix compatibility): D positive semidefinite and P symmetric positive
      definite.

Violations raise ValidationError naming the assumption. Softer certification
facts (kernel inclusion, row rank of C, range conditions) are reported, not
enforced; see ``make_system`` and the ``check`` command.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field, replace

import numpy as np

from . import linalg
from .errors import LureError, ParseError, ValidationError
from .moving import DecomposedMovingSet, GeneralMovingSet
from .sets import Box
from .system import build_system

__all__ = [
    "CheckItem",
    "Scenario",
    "SystemReport",
    "Table",
    "emit_scenario",
    "load_scenario",
    "make_system",
    "perturb_scenario",
    "raw_tuple_report",
    "save_scenario",
    "scenario_dir",
]


def scenario_dir():
    """Directory holding the bundled example scenarios."""
    return os.path.join(os.path.dirname(__file__), "scenarios")


@dataclass(frozen=True, eq=False)
class Table:
    """Piecewise-linear table of time; constant beyond the end knots."""

    t: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.t, dtype=float).reshape(-1)
        v = np.asarray(self.v, dtype=float)
        if t.size < 1:
            raise ValidationError("table needs at least one knot")
        if np.any(np.diff(t) <= 0.0):
            raise ValidationError("table times must be strictly increasing")
        if v.shape[0] != t.size:
            raise ValidationError("table values and times differ in length")
        if not (np.all(np.isfinite(t)) and np.all(np.isfinite(v))):
            raise ValidationError("table contains non-finite entries")
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "v", v)

    def value(self, time):
        time = float(time)
        if self.v.ndim == 1:
            return float(np.interp(time, self.t, self.v))
        return np.array(
            [np.interp(time, self.t, self.v[:, j]) for j in range(self.v.shape[1])]
        )

    def lipschitz(self):
        if self.t.size < 2:
            return 0.0
        dv = np.diff(self.v, axis=0)
        dt = np.diff(self.t)
        if self.v.ndim == 1:
            rates = np.abs(dv) / dt
        else:
            rates = np.linalg.norm(dv, axis=1) / dt
        return float(np.max(rates))


@dataclass(frozen=True, eq=False)
class Scenario:
    """Parsed scenario; see the package schema.json for the file format."""

    name: str
    n: int
    m: int
    a_matrix: np.ndarray
    b_matrix: np.ndarray
    c_matrix: np.ndarray
    d_matrix: np.ndarray
    x0: np.ndarray
    t_final: float
    n_steps: int
    lower: list
    upper: list
    h_matrix: np.ndarray | None = None
    g_table: Table | None = None
    forcing: Table | None = None
    p_matrix: np.ndarray | None = None
    kappa: float | None = None
    c_bar: np.ndarray | None = None
    sigma: float | None = None
    constants: dict | None = None
    # the SystemReport load_scenario built, which make_system hands back; not
    # an init field, so a dataclasses.replace copy is built afresh
    _report: object = field(default=None, init=False, repr=False)


@dataclass(frozen=True)
class CheckItem:
    """Single certification fact: name, verdict (None = not applicable), detail."""

    name: str
    ok: bool | None
    detail: str = ""


@dataclass(frozen=True, eq=False)
class SystemReport:
    """System built from a scenario plus certification facts and warnings."""

    system: object
    checks: list
    warnings: list
    constants: dict


def _require(cond, msg):
    if not cond:
        raise ValidationError(msg)


def _number(value, name):
    try:
        return float(value)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{name} must be a number, not {value!r}") from exc


def _count(value, name):
    number = _number(value, name)
    _require(number.is_integer(), f"{name} must be an integer, not {value!r}")
    return int(number)


def _parse_matrix(data, name, rows, cols):
    try:
        mat = np.asarray(data, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{name} is not a numeric matrix") from exc
    _require(mat.shape == (rows, cols), f"{name} must be {rows}x{cols}")
    _require(bool(np.all(np.isfinite(mat))), f"{name} has non-finite entries")
    return mat


def _parse_bound(entry, name, side):
    if isinstance(entry, str):
        token = entry.strip().lower()
        if token in ("inf", "+inf"):
            _require(side == "upper", f"{name}: lower bound cannot be +inf")
            return np.inf
        if token == "-inf":
            _require(side == "lower", f"{name}: upper bound cannot be -inf")
            return -np.inf
        raise ValidationError(f"{name}: unknown bound token {entry!r}")
    if isinstance(entry, dict):
        try:
            return Table(entry["t"], entry["v"])
        except KeyError as exc:
            raise ValidationError(f"{name}: table needs 't' and 'v'") from exc
    if isinstance(entry, (int, float)):
        value = float(entry)
        _require(np.isfinite(value), f"{name}: numeric bound must be finite")
        return value
    raise ValidationError(f"{name}: unsupported bound entry {entry!r}")


def _parse_table(data, name, width=None):
    if not isinstance(data, dict) or "t" not in data or "v" not in data:
        raise ValidationError(f"{name} must be a table with 't' and 'v'")
    table = Table(data["t"], data["v"])
    if width is not None:
        got = 1 if table.v.ndim == 1 else table.v.shape[1]
        _require(got == width, f"{name} values must have width {width}")
    return table


def load_scenario(source):
    """Parse and validate a scenario from a path, JSON text, or dict.

    Raises ParseError for malformed JSON (with line information) and
    ValidationError for structurally invalid or assumption-violating data.
    The system is built once to surface assumption A1/A2 failures at load
    time; :func:`make_system` returns that build.
    """
    if isinstance(source, dict):
        data = source
    else:
        text = None
        if hasattr(source, "__fspath__") or isinstance(source, str):
            path = os.fspath(source) if hasattr(source, "__fspath__") else source
            if os.path.exists(path):
                with open(path, "r", encoding="utf-8") as fh:
                    text = fh.read()
        if text is None:
            if isinstance(source, str) and source.lstrip().startswith("{"):
                text = source
            else:
                raise ParseError(f"scenario file not found: {source!r}")
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ParseError(
                f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
            ) from exc
    if not isinstance(data, dict):
        raise ValidationError("scenario root must be a JSON object")
    for key in ("name", "n", "m", "A", "B", "C", "D", "set", "x0", "T", "n_steps"):
        _require(key in data, f"missing required field {key!r}")
    name = str(data["name"])
    n = _count(data["n"], "n")
    m = _count(data["m"], "m")
    _require(n >= 1 and m >= 1, "n and m must be positive")
    a_matrix = _parse_matrix(data["A"], "A", n, n)
    b_matrix = _parse_matrix(data["B"], "B", n, m)
    c_matrix = _parse_matrix(data["C"], "C", m, n)
    d_matrix = _parse_matrix(data["D"], "D", m, m)
    c_bar = None
    if data.get("C_bar") is not None:
        c_bar = _parse_matrix(data["C_bar"], "C_bar", m, n)
    p_matrix = None
    if data.get("P") is not None:
        p_matrix = _parse_matrix(data["P"], "P", n, n)
    kappa = None if data.get("kappa") is None else _number(data["kappa"], "kappa")
    sigma = None if data.get("sigma") is None else _number(data["sigma"], "sigma")
    set_spec = data["set"]
    _require(isinstance(set_spec, dict), "'set' must be an object")
    _require("lower" in set_spec and "upper" in set_spec,
             "'set' needs 'lower' and 'upper'")
    lower_raw = set_spec["lower"]
    upper_raw = set_spec["upper"]
    _require(
        isinstance(lower_raw, list) and len(lower_raw) == m,
        f"set.lower must list {m} entries",
    )
    _require(
        isinstance(upper_raw, list) and len(upper_raw) == m,
        f"set.upper must list {m} entries",
    )
    lower = [_parse_bound(e, f"set.lower[{i}]", "lower") for i, e in enumerate(lower_raw)]
    upper = [_parse_bound(e, f"set.upper[{i}]", "upper") for i, e in enumerate(upper_raw)]
    _validate_bound_order(lower, upper)
    h_matrix = None
    if set_spec.get("H") is not None:
        h_matrix = _parse_matrix(set_spec["H"], "set.H", m, n)
    g_table = None
    if set_spec.get("g") is not None:
        g_table = _parse_table(set_spec["g"], "set.g", width=m)
    forcing = None
    if data.get("forcing") is not None:
        forcing = _parse_table(data["forcing"], "forcing", width=n)
    try:
        x0 = linalg.as_vector(data["x0"], "x0", n)
    except Exception as exc:
        raise ValidationError(f"x0 must be a length-{n} vector") from exc
    t_final = _number(data["T"], "T")
    _require(t_final > 0.0, "T must be positive")
    n_steps = _count(data["n_steps"], "n_steps")
    _require(n_steps >= 1, "n_steps must be at least 1")
    constants = data.get("constants")
    if constants is not None:
        _require(isinstance(constants, dict), "constants must be an object")
        constants = {str(k): _number(v, f"constants.{k}") for k, v in constants.items()}
    sc = Scenario(
        name=name,
        n=n,
        m=m,
        a_matrix=a_matrix,
        b_matrix=b_matrix,
        c_matrix=c_matrix,
        d_matrix=d_matrix,
        x0=x0,
        t_final=t_final,
        n_steps=n_steps,
        lower=lower,
        upper=upper,
        h_matrix=h_matrix,
        g_table=g_table,
        forcing=forcing,
        p_matrix=p_matrix,
        kappa=kappa,
        c_bar=c_bar,
        sigma=sigma,
        constants=constants,
    )
    # surface assumption violations at load time
    object.__setattr__(sc, "_report", make_system(sc))
    return sc


def _bound_sample_times(lower, upper, t_final):
    knots = {0.0, float(t_final)}
    for entry in list(lower) + list(upper):
        if isinstance(entry, Table):
            knots.update(float(t) for t in entry.t)
    return sorted(knots)


def _validate_bound_order(lower, upper):
    knots = _bound_sample_times(lower, upper, 0.0)
    for i, (lo, up) in enumerate(zip(lower, upper)):
        for t in knots:
            lo_v = lo.value(t) if isinstance(lo, Table) else lo
            up_v = up.value(t) if isinstance(up, Table) else up
            _require(
                lo_v <= up_v,
                f"set bounds cross on coordinate {i + 1} at t={t:g}",
            )


def _bounds_builder(lower, upper):
    """Closure t -> Box; constant boxes are built once."""
    time_varying = any(isinstance(e, Table) for e in list(lower) + list(upper))
    if not time_varying:
        fixed = Box(np.array([float(e) for e in lower]),
                    np.array([float(e) for e in upper]))
        return (lambda t: fixed), 0.0
    lo_funcs = [
        (e.value if isinstance(e, Table) else (lambda t, val=float(e): val))
        for e in lower
    ]
    up_funcs = [
        (e.value if isinstance(e, Table) else (lambda t, val=float(e): val))
        for e in upper
    ]

    def base(t):
        return Box(
            np.array([f(t) for f in lo_funcs]), np.array([f(t) for f in up_funcs])
        )

    rates = []
    for lo, up in zip(lower, upper):
        lo_rate = lo.lipschitz() if isinstance(lo, Table) else 0.0
        up_rate = up.lipschitz() if isinstance(up, Table) else 0.0
        rates.append(max(lo_rate, up_rate))
    return base, float(np.linalg.norm(rates))


def _declared(constants, key, computed, what):
    """Computed constant, possibly replaced by a larger declared one."""
    if constants and key in constants:
        declared = float(constants[key])
        if declared < computed - 1e-12 * max(1.0, computed):
            raise ValidationError(
                f"declared {what} {key}={declared:g} is below the value "
                f"{computed:g} computed from the data"
            )
        return declared
    return computed


def make_system(sc):
    """Build the runnable system and its certification report.

    Assumption A1/A2 violations raise ValidationError; all other
    certification facts become report items. A decomposed moving set whose
    offsets leave rge(D + D^T) is downgraded to the general form with a
    warning (trajectories are unaffected; uniqueness-based conclusions are).
    A scenario from :func:`load_scenario` returns the report built at load.
    """
    if sc._report is not None:
        return sc._report
    warnings = []
    d = sc.d_matrix
    base, lh1 = _bounds_builder(sc.lower, sc.upper)
    h_matrix = sc.h_matrix if sc.h_matrix is not None else np.zeros((sc.m, sc.n))
    if sc.g_table is not None:
        g_tab = sc.g_table

        def g_fn(t):
            val = g_tab.value(t)
            return np.atleast_1d(np.asarray(val, dtype=float))

        lh2 = g_tab.lipschitz()
    else:
        zero_g = np.zeros(sc.m)
        g_fn = lambda t: zero_g  # noqa: E731
        lh2 = 0.0
    lh1 = _declared(sc.constants, "Lh1", lh1, "base-set time rate")
    lh2 = _declared(sc.constants, "Lh2", lh2, "offset time rate")
    lh = _declared(
        sc.constants, "Lh", linalg.spectral_norm(h_matrix), "state sensitivity"
    )
    moving = DecomposedMovingSet(
        base=base, h_matrix=h_matrix, g=g_fn, lh1=lh1, lh2=lh2, lh=lh
    )
    lk1_eff = _declared(sc.constants, "LK1", lh1 + lh2, "time variation rate")
    lk2_eff = _declared(sc.constants, "LK2", lh, "state variation rate")

    dd = d + d.T
    range_h_ok = linalg.range_inclusion(h_matrix, dd)
    g_samples = None
    if sc.g_table is not None:
        g_samples = (
            sc.g_table.v.reshape(-1, 1)
            if sc.g_table.v.ndim == 1
            else sc.g_table.v.T
        )
    range_g_ok = g_samples is None or linalg.range_inclusion(g_samples, dd)
    decomposed_ok = bool(range_h_ok and range_g_ok)
    if decomposed_ok:
        moving_final = moving
        range_item = CheckItem("offset range condition", True)
    else:
        moving_final = GeneralMovingSet(at_fn=moving.at, lk1=lk1_eff, lk2=lk2_eff)
        detail = []
        if not range_h_ok:
            detail.append("rge(H) not in rge(D + D^T)")
        if not range_g_ok:
            detail.append("g(t) leaves rge(D + D^T)")
        range_item = CheckItem("offset range condition", False, "; ".join(detail))
        warnings.append(
            "offset range condition fails; moving set handled in general form "
            "(trajectories unaffected, uniqueness-based conclusions unavailable)"
        )

    a_mat = sc.a_matrix
    lf = _declared(sc.constants, "Lf", linalg.spectral_norm(a_mat), "drift rate")
    if sc.forcing is not None:
        forcing_tab = sc.forcing

        def drift(t, x):
            return a_mat @ x + np.atleast_1d(
                np.asarray(forcing_tab.value(t), dtype=float)
            )
    else:

        def drift(t, x):
            return a_mat @ x

    try:
        system = build_system(
            sc.b_matrix,
            sc.c_matrix,
            d,
            moving_final,
            drift=drift,
            lf=lf,
            p=sc.p_matrix,
            kappa=sc.kappa,
            sigma=sc.sigma,
            on_range_violation="general",
        )
    except LureError as exc:
        raise ValidationError(f"assumption A2 violated: {exc}") from exc
    cert = system.cert
    # assumption A1: state sensitivity of the set versus output conditioning
    c_norm = linalg.spectral_norm(sc.c_matrix)
    a1_detail = "L_K2 = 0"
    if lk2_eff > 0.0:
        if cert.c2 is None or c_norm == 0.0:
            raise ValidationError(
                "assumption A1 violated: state-dependent set variation "
                "requires C C^T to have a positive eigenvalue"
            )
        bound = cert.c2 / c_norm
        if lk2_eff > bound + 1e-12 * max(1.0, bound):
            raise ValidationError(
                f"assumption A1 violated: L_K2 = {lk2_eff:g} exceeds "
                f"c2/||C|| = {bound:g}"
            )
        a1_detail = f"{lk2_eff:g} <= {bound:g}"
    rank_c = int(np.linalg.matrix_rank(sc.c_matrix, tol=1e-9 * max(c_norm, 1.0)))
    passive = linalg.check_passive(
        cert.kappa * np.eye(sc.n), sc.b_matrix, sc.c_matrix, d, cert.P, tol=1e-9
    )
    checks = [
        CheckItem("D positive semidefinite", True),
        CheckItem("P symmetric positive definite", True, f"alpha={cert.alpha:g}"),
        CheckItem("state variation bound L_K2 <= c2/||C||", True, a1_detail),
        range_item,
        CheckItem("C full row rank", rank_c == sc.m, f"rank {rank_c} of {sc.m}"),
        CheckItem(
            "kernel inclusion ker(D+D^T) in ker(PB-C^T)",
            linalg.kernel_inclusion(d, cert.P, sc.b_matrix, sc.c_matrix),
        ),
        CheckItem("rge(D) in rge(C)", linalg.range_inclusion(d, sc.c_matrix)),
        CheckItem(
            "passive (kappa I, B, C, D) with storage P", passive,
            f"kappa={cert.kappa:g}",
        ),
    ]
    constants = {
        "alpha": cert.alpha,
        "c1": cert.c1,
        "c2": cert.c2,
        "kappa": cert.kappa,
        "lf": lf,
        "lk1": lk1_eff,
        "lk2": lk2_eff,
        "lh1": lh1,
        "lh2": lh2,
        "lh": lh,
        "mismatch": linalg.storage_mismatch(cert.P, sc.b_matrix, sc.c_matrix),
        "sigma": sc.sigma,
    }
    return SystemReport(
        system=system, checks=checks, warnings=warnings, constants=constants
    )


def raw_tuple_report(sc):
    """Certification facts for the measured tuple (B, C_bar, D).

    Only meaningful when the scenario records a measured output matrix;
    returns (checks, kappa_formula) with kappa computed by the shift formula
    (None when no positive eigenvalue exists to divide by).
    """
    if sc.c_bar is None:
        raise ValueError("scenario has no measured output matrix C_bar")
    p = sc.p_matrix if sc.p_matrix is not None else np.eye(sc.n)
    checks = [
        CheckItem(
            "kernel inclusion ker(D+D^T) in ker(PB-C_bar^T)",
            linalg.kernel_inclusion(sc.d_matrix, p, sc.b_matrix, sc.c_bar),
        )
    ]
    try:
        kappa = linalg.select_kappa(p, sc.b_matrix, sc.c_bar, sc.d_matrix)
    except LureError:
        kappa = None
    if kappa is not None:
        checks.append(
            CheckItem(
                "passive (kappa I, B, C_bar, D) with storage P",
                linalg.check_passive(
                    kappa * np.eye(sc.n), sc.b_matrix, sc.c_bar, sc.d_matrix, p,
                    tol=1e-9,
                ),
                f"kappa={kappa:g}",
            )
        )
    return checks, kappa


def _emit_bound(entry):
    if isinstance(entry, Table):
        return {"t": entry.t.tolist(), "v": entry.v.tolist()}
    if entry == np.inf:
        return "inf"
    if entry == -np.inf:
        return "-inf"
    return float(entry)


def emit_scenario(sc):
    """Canonical JSON-ready dict; load_scenario(emit_scenario(sc)) round-trips."""
    data = {
        "name": sc.name,
        "n": sc.n,
        "m": sc.m,
        "A": sc.a_matrix.tolist(),
        "B": sc.b_matrix.tolist(),
        "C": sc.c_matrix.tolist(),
        "D": sc.d_matrix.tolist(),
        "set": {
            "lower": [_emit_bound(e) for e in sc.lower],
            "upper": [_emit_bound(e) for e in sc.upper],
        },
        "x0": sc.x0.tolist(),
        "T": sc.t_final,
        "n_steps": sc.n_steps,
    }
    if sc.h_matrix is not None:
        data["set"]["H"] = sc.h_matrix.tolist()
    if sc.g_table is not None:
        data["set"]["g"] = {"t": sc.g_table.t.tolist(), "v": sc.g_table.v.tolist()}
    if sc.forcing is not None:
        data["forcing"] = {"t": sc.forcing.t.tolist(), "v": sc.forcing.v.tolist()}
    if sc.p_matrix is not None:
        data["P"] = sc.p_matrix.tolist()
    if sc.kappa is not None:
        data["kappa"] = sc.kappa
    if sc.c_bar is not None:
        data["C_bar"] = sc.c_bar.tolist()
    if sc.sigma is not None:
        data["sigma"] = sc.sigma
    if sc.constants is not None:
        data["constants"] = dict(sc.constants)
    return data


def save_scenario(sc, target):
    """Write the scenario as JSON to a path or text file object."""
    text = json.dumps(emit_scenario(sc), indent=2) + "\n"
    if isinstance(target, (str, bytes)) or hasattr(target, "__fspath__"):
        with open(target, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        target.write(text)


def perturb_scenario(sc, c_bar):
    """Fold a measured output matrix into the scenario's moving set.

    The scenario's C is kept as the reference tuple; the mismatch
    ``C_bar - C`` becomes the state-offset matrix ``H = -(C_bar - C)`` and
    the measured matrix is recorded for reporting. Requires a time-only
    moving set (no H yet).

    Returns
    -------
    (Scenario, list of str)
        Transformed scenario and any downgrade warnings.
    """
    c_bar = _parse_matrix(c_bar, "C_bar", sc.m, sc.n)
    if sc.h_matrix is not None and linalg.spectral_norm(sc.h_matrix) > 0.0:
        raise ValidationError(
            "perturbation rewrite requires a time-only moving set (no H)"
        )
    h_new = -(c_bar - sc.c_matrix)
    new_sc = replace(
        sc,
        name=sc.name + "-perturbed",
        h_matrix=h_new,
        c_bar=c_bar,
    )
    report = make_system(new_sc)
    return new_sc, list(report.warnings)
