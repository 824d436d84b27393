"""Scenario files: parsing, validation, certification report, rewriting."""

import json
import os

import jsonschema
import numpy as np
import pytest

from helpers import scenario_path
from luresim import (
    GeneralMovingSet,
    Table,
    emit_scenario,
    load_scenario,
    make_system,
    perturb_scenario,
    raw_tuple_report,
    save_scenario,
    scenario_dir,
    simulate,
)
from luresim.errors import ParseError, ValidationError

BUNDLED = [
    "example_trivial.json",
    "example_sweeping.json",
    "example_sweeping_drift.json",
    "example_thm3.json",
    "example_thm4.json",
    "example_timevarying.json",
    "example_sec4.json",
]


def _minimal(**over):
    data = {
        "name": "unit",
        "n": 1,
        "m": 1,
        "A": [[0.0]],
        "B": [[1.0]],
        "C": [[1.0]],
        "D": [[1.0]],
        "set": {"lower": [-1.0], "upper": [1.0]},
        "x0": [0.0],
        "T": 1.0,
        "n_steps": 10,
    }
    data.update(over)
    return data


def test_load_rejects_missing_file():
    with pytest.raises(ParseError, match="scenario file not found"):
        load_scenario("/no/such/scenario.json")


def test_load_reports_json_position():
    with pytest.raises(ParseError, match=r"invalid JSON at line 1, column"):
        load_scenario('{"name": }')


def test_load_requires_all_fields():
    data = _minimal()
    del data["T"]
    with pytest.raises(ValidationError, match="missing required field 'T'"):
        load_scenario(data)


def test_load_checks_matrix_shapes():
    with pytest.raises(ValidationError, match="B must be 1x1"):
        load_scenario(_minimal(B=[[1.0, 2.0]]))
    with pytest.raises(ValidationError, match="x0 must be a length-1 vector"):
        load_scenario(_minimal(x0=[0.0, 0.0]))
    with pytest.raises(ValidationError, match="x0 contains non-finite entries"):
        load_scenario(_minimal(x0=[float("nan")]))


def test_feedthrough_must_be_psd():
    with pytest.raises(
        ValidationError,
        match=r"assumption A2 violated: feedthrough matrix D must be "
        r"positive semidefinite",
    ):
        load_scenario(_minimal(D=[[-1.0]]))


def test_storage_matrix_must_be_spd():
    with pytest.raises(ValidationError, match="assumption A2"):
        load_scenario(_minimal(P=[[-1.0]]))


def test_state_variation_bounded_by_output_conditioning():
    spec = {"lower": [-1.0], "upper": [1.0], "H": [[2.0]]}
    with pytest.raises(
        ValidationError,
        match=r"assumption A1 violated: L_K2 = 2 exceeds c2/\|\|C\|\| = 1",
    ):
        load_scenario(_minimal(set=spec))


def test_bound_tokens():
    sc = load_scenario(_minimal(set={"lower": ["-inf"], "upper": ["+inf"]}))
    assert sc.lower == [-np.inf]
    assert sc.upper == [np.inf]
    with pytest.raises(ValidationError, match="lower bound cannot be"):
        load_scenario(_minimal(set={"lower": ["inf"], "upper": [1.0]}))
    with pytest.raises(ValidationError, match="upper bound cannot be"):
        load_scenario(_minimal(set={"lower": [0.0], "upper": ["-inf"]}))
    with pytest.raises(ValidationError, match="unknown bound token"):
        load_scenario(_minimal(set={"lower": ["oo"], "upper": [1.0]}))
    with pytest.raises(ValidationError, match="numeric bound must be finite"):
        load_scenario(_minimal(set={"lower": [float("inf")], "upper": [1.0]}))


def test_bounds_may_not_cross():
    with pytest.raises(ValidationError, match="set bounds cross on coordinate 1"):
        load_scenario(_minimal(set={"lower": [1.0], "upper": [0.0]}))
    # time-varying lower climbs above the constant upper at the last knot
    spec = {"lower": [{"t": [0.0, 1.0], "v": [0.0, 2.0]}], "upper": [1.0]}
    with pytest.raises(ValidationError, match="set bounds cross"):
        load_scenario(_minimal(set=spec))
    # the upper table dips below the lower one at a knot only it has
    spec = {
        "lower": [{"t": [0.0, 2.0], "v": [0.0, 0.0]}],
        "upper": [{"t": [0.0, 1.0, 2.0], "v": [1.0, -1.0, 1.0]}],
    }
    with pytest.raises(ValidationError, match=r"coordinate 1 at t=1$"):
        load_scenario(_minimal(set=spec))
    # coordinate 2 crosses at t = 1, coordinate 1 only at t = 3: the message
    # names the first coordinate that crosses at all
    spec = {
        "lower": [{"t": [0.0, 3.0], "v": [0.0, 2.0]}, {"t": [1.0], "v": [5.0]}],
        "upper": [1.9, {"t": [0.0, 1.0, 2.0], "v": [9.0, 4.0, 9.0]}],
    }
    two = _minimal(m=2, B=[[1.0, 0.0]], C=[[1.0], [0.0]], D=[[1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(ValidationError, match=r"coordinate 1 at t=3$"):
        load_scenario(dict(two, set=spec))


def test_table_validation_and_interpolation():
    tab = Table([0.0, 1.0], [0.0, 2.0])
    assert tab.value(0.5) == 1.0
    assert tab.value(-5.0) == 0.0
    assert tab.value(9.0) == 2.0
    assert tab.lipschitz() == 2.0
    vec = Table([0.0, 1.0], [[0.0, 0.0], [3.0, 4.0]])
    assert np.allclose(vec.value(0.5), [1.5, 2.0])
    assert vec.lipschitz() == 5.0
    with pytest.raises(ValidationError, match="strictly increasing"):
        Table([0.0, 0.0], [1.0, 2.0])
    with pytest.raises(ValidationError, match="differ in length"):
        Table([0.0, 1.0], [1.0])
    with pytest.raises(ValidationError, match="non-finite"):
        Table([0.0], [float("nan")])
    with pytest.raises(ValidationError, match="at least one knot"):
        Table([], [])


def _interp_reference(column, times):
    if isinstance(column, tuple):
        return np.array([np.interp(t, *column) for t in times])
    return np.full(len(times), column)


def _probe_times(columns):
    knots = np.unique(np.concatenate([c[0] for c in columns if isinstance(c, tuple)]))
    mids = 0.5 * (knots[1:] + knots[:-1])
    return np.concatenate(
        [knots, mids, [knots[0] - 1.0, knots[-1] + 1.0, -np.inf, np.inf, np.nan]]
    )


def _random_table(rng, width=None):
    size = int(rng.integers(1, 8))
    t = np.sort(rng.choice(np.arange(-20, 40), size=size, replace=False) * 0.125
                + rng.uniform(0.0, 0.1))
    shape = size if width is None else (size, width)
    return t, rng.normal(size=shape)


def test_tables_match_interp_bit_for_bit():
    rng = np.random.default_rng(15)
    for _ in range(60):
        # Table.value: scalar and vector tables, one to seven knots
        t, v = _random_table(rng, width=None if rng.random() < 0.5 else 3)
        columns = [(t, col) for col in v.reshape(t.size, -1).T]
        times = _probe_times(columns)
        ref = np.column_stack([_interp_reference(c, times) for c in columns])
        got = np.array([np.atleast_1d(Table(t, v).value(s)) for s in times])
        assert np.array_equal(got, ref, equal_nan=True)
    for _ in range(40):
        # a loaded scenario: bounds from tables on their own grids, one-knot
        # tables and +-inf constants; g and forcing as vector tables
        lower, upper = [], []
        for side, inf, shift in ((lower, "-inf", -3.0), (upper, "inf", 3.0)):
            for _ in range(3):
                pick = rng.random()
                if pick < 0.2:
                    side.append((inf, -np.inf if shift < 0 else np.inf))
                elif pick < 0.35:
                    side.append((shift, shift))
                else:
                    t, v = _random_table(rng)
                    v = shift + np.clip(v, -1.0, 1.0)
                    side.append(({"t": t.tolist(), "v": v.tolist()}, (t, v)))
        g = _random_table(rng, width=3)
        forcing = _random_table(rng, width=3)
        eye = np.eye(3).tolist()
        sc = load_scenario(_minimal(
            n=3, m=3, A=np.zeros((3, 3)).tolist(), B=eye, C=eye, D=eye, x0=[0.0] * 3,
            set={"lower": [e for e, _ in lower], "upper": [e for e, _ in upper],
                 "g": {"t": g[0].tolist(), "v": g[1].tolist()}},
            forcing={"t": forcing[0].tolist(), "v": forcing[1].tolist()},
        ))
        system = make_system(sc).system
        moving = system.K
        bounds = [c for _, c in lower + upper]
        g_cols = [(g[0], col) for col in g[1].T]
        f_cols = [(forcing[0], col) for col in forcing[1].T]
        tables = [c for c in bounds + g_cols + f_cols if isinstance(c, tuple)]
        times = _probe_times(tables)
        finite = times[~np.isnan(times)]  # a NaN bound is no Box
        boxes = [moving.base(s) for s in finite]
        got = np.array([np.concatenate([b.lower, b.upper]) for b in boxes])
        ref = np.column_stack([_interp_reference(c, finite) for c in bounds])
        assert np.array_equal(got, ref)
        for fn, cols in ((moving.g, g_cols),
                         (lambda s: system.drift(s, np.zeros(3)), f_cols)):
            got = np.array([fn(s) for s in times])
            ref = np.column_stack([_interp_reference(c, times) for c in cols])
            assert np.array_equal(got, ref, equal_nan=True)


def test_table_shapes_are_checked():
    with pytest.raises(ValidationError, match="numbers or rows of numbers"):
        Table([0.0], 1.0)
    with pytest.raises(ValidationError, match="numbers or rows of numbers"):
        Table([0.0], [[[1.0]]])
    # a bound table holds one number per knot; g is a column of length m
    bound = {"t": [0.0, 1.0], "v": [[-1.0, -2.0], [-1.0, -2.0]]}
    with pytest.raises(ValidationError, match=r"set.lower\[0\] values must have width 1"):
        load_scenario(_minimal(set={"lower": [bound], "upper": [1.0]}))
    spec = {"lower": [-1.0], "upper": [1.0], "g": {"t": [0.0, 1.0], "v": [0.0, 0.5]}}
    checks = make_system(load_scenario(_minimal(set=spec))).checks
    assert next(c for c in checks if c.name == "offset range condition").ok


def test_declared_constants_floor():
    with pytest.raises(ValidationError, match="below the value"):
        load_scenario(_minimal(A=[[1.0]], constants={"Lf": 0.5}))
    sc = load_scenario(_minimal(A=[[1.0]], constants={"Lf": 3.0}))
    assert make_system(sc).constants["lf"] == 3.0


@pytest.mark.parametrize("name", BUNDLED)
def test_round_trip(name, tmp_path):
    sc = load_scenario(scenario_path(name))
    emitted = emit_scenario(sc)
    again = emit_scenario(load_scenario(emitted))
    assert again == emitted
    target = tmp_path / name
    save_scenario(sc, target)
    assert emit_scenario(load_scenario(os.fspath(target))) == emitted


@pytest.mark.parametrize("name", BUNDLED)
def test_bundled_scenarios_match_schema(name):
    schema_file = os.path.join(os.path.dirname(scenario_dir()), "schema.json")
    with open(schema_file, "r", encoding="utf-8") as fh:
        schema = json.load(fh)
    with open(scenario_path(name), "r", encoding="utf-8") as fh:
        jsonschema.validate(json.load(fh), schema)


def test_report_constants_for_mismatched_tuple():
    rep = make_system(load_scenario(scenario_path("example_thm4.json")))
    assert rep.constants["kappa"] == pytest.approx(-0.00125, abs=1e-15)
    assert rep.constants["c1"] == pytest.approx(2.0)
    assert rep.constants["c2"] == pytest.approx(0.01)
    assert rep.constants["mismatch"] == pytest.approx(0.1)
    verdicts = {c.name: c.ok for c in rep.checks}
    assert verdicts["kernel inclusion ker(D+D^T) in ker(PB-C^T)"] is False
    assert verdicts["passive (kappa I, B, C, D) with storage P"] is False
    assert verdicts["D positive semidefinite"] is True
    assert rep.warnings == []


@pytest.mark.parametrize("matrices, rge_d_in_c", [
    ({"B": [[1.0, 0.0]], "C": [[1.0], [0.0]], "D": [[1.0, 0.0], [0.0, 1.0]]}, False),
    ({"B": [[1.0, 1.0]], "C": [[1.0], [1.0]], "D": [[1.0, 1.0], [1.0, 1.0]]}, True),
])
def test_scenario_with_more_outputs_than_states_loads(matrices, rge_d_in_c):
    # m > n: C cannot have full row rank, and rge(D) in rge(C) is a report
    # item decided on C's thin SVD, not a load gate
    data = _minimal(n=1, m=2, set={"lower": [-1.0, -1.0], "upper": [1.0, 1.0]},
                    x0=[0.5], **matrices)
    rep = make_system(load_scenario(data))
    verdicts = {c.name: c.ok for c in rep.checks}
    assert verdicts["rge(D) in rge(C)"] is rge_d_in_c
    assert verdicts["C full row rank"] is False
    traj = simulate(rep.system, [0.5], 1.0, 10)
    assert traj.states.shape == (11, 1) and np.all(np.isfinite(traj.states))


def test_report_downgrades_offsets_outside_feedthrough_range():
    rep = make_system(load_scenario(scenario_path("example_sec4.json")))
    assert len(rep.warnings) == 1
    assert "general form" in rep.warnings[0]
    assert isinstance(rep.system.K, GeneralMovingSet)
    assert rep.constants["lk1"] == pytest.approx(0.7280109889280517)
    assert rep.constants["lk2"] == pytest.approx(0.1)
    verdicts = {c.name: c.ok for c in rep.checks}
    assert verdicts["offset range condition"] is False
    assert verdicts["kernel inclusion ker(D+D^T) in ker(PB-C^T)"] is True


def test_raw_tuple_report_on_measured_matrix():
    sc = load_scenario(scenario_path("example_sec4.json"))
    checks, kappa = raw_tuple_report(sc)
    assert kappa == pytest.approx(-0.00125, abs=1e-15)
    verdicts = {c.name: c.ok for c in checks}
    assert verdicts["kernel inclusion ker(D+D^T) in ker(PB-C_bar^T)"] is False
    assert verdicts["passive (kappa I, B, C_bar, D) with storage P"] is False
    with pytest.raises(ValueError, match="no measured output matrix"):
        raw_tuple_report(load_scenario(scenario_path("example_thm3.json")))


def test_perturb_scenario_folds_measured_matrix():
    sc = load_scenario(scenario_path("example_timevarying.json"))
    c_bar = [[0.1, 0.0], [0.0, 1.1]]
    new_sc, warnings = perturb_scenario(sc, c_bar)
    assert new_sc.name == sc.name + "-perturbed"
    assert np.allclose(new_sc.h_matrix, -(np.asarray(c_bar) - sc.c_matrix))
    assert np.allclose(new_sc.c_bar, c_bar)
    assert np.array_equal(new_sc.c_matrix, sc.c_matrix)
    assert len(warnings) == 1 and "general form" in warnings[0]
    # already state-coupled sets cannot absorb a second output perturbation
    sec4 = load_scenario(scenario_path("example_sec4.json"))
    with pytest.raises(ValidationError, match="time-only"):
        perturb_scenario(sec4, c_bar)


def test_perturbed_scenario_matches_bundled_rewrite():
    sc = load_scenario(scenario_path("example_timevarying.json"))
    new_sc, _ = perturb_scenario(sc, [[0.1, 0.0], [0.0, 1.1]])
    ref = load_scenario(scenario_path("example_sec4.json"))
    assert np.allclose(new_sc.h_matrix, ref.h_matrix, atol=1e-15)
    assert np.array_equal(new_sc.c_matrix, ref.c_matrix)
    assert np.array_equal(new_sc.d_matrix, ref.d_matrix)
