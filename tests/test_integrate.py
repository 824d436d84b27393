"""Catching-up integration: closed forms, invariants, diagnostics, CSV."""

import collections
import hashlib
import io
import subprocess
import sys

import numpy as np
import pytest

from helpers import scenario_path
from luresim import (
    Box,
    DecomposedMovingSet,
    GeneralMovingSet,
    SolverOptions,
    analysis,
    attractivity_check,
    build_system,
    canonicalize,
    from_csv,
    hypomonotonicity_gap,
    linalg,
    lipschitz_dependence_check,
    load_scenario,
    make_system,
    richardson_refine,
    scenario,
    simulate,
    solve_step,
    system,
    to_csv,
)
from luresim.errors import NonFiniteDrift, NotAdmissible, SolverDiverged

# sha256 of to_csv for every bundled scenario, as recorded before the step
# invariants moved out of the step loop (CPython 3.11, numpy 2.4, x86-64)
CSV_SHA256 = {
    "example_sec4.json":
        "d73175a593e5c01ff5e006321548b0e70f7346a623a4950acd9891c63c540788",
    "example_sweeping.json":
        "ae4a29892370478fb4420b97dcb8855c8c3b83f75b3a333919a59844109b9fe5",
    "example_sweeping_drift.json":
        "12f3ef91b477e7e41c3490bc5a50a67edf20e22c38851eab37b1b11038110bc3",
    "example_thm3.json":
        "6914fe9b146dcba75c50caf206f1ebcc2a494b37a3097965459c6f9507be8527",
    "example_thm4.json":
        "5d911865ce1dc5d169b4db61c956d1a60166a1aea9c8dbe86f76c554cb85ccd5",
    "example_timevarying.json":
        "278b4fd3363fb72042699616d7f208fdadf8c3dc3cf46d2b7ec62e28ebcee43f",
    "example_trivial.json":
        "7d57305b2417d579970ac39e600bae4e90b46812f00d2cc68af0833be80f3ea9",
}


def _load_system(name):
    report = make_system(load_scenario(scenario_path(name)))
    return report.system, load_scenario(scenario_path(name))


def test_halfline_sweeping_closed_form():
    sys_, sc = _load_system("example_sweeping.json")
    traj = simulate(sys_, sc.x0, sc.t_final, sc.n_steps)
    expected = np.maximum(0.0, traj.times - 1.0)
    assert np.max(np.abs(traj.states[:, 0] - expected)) <= 1e-14
    assert traj.n_steps == sc.n_steps


def test_initial_row_is_stationary_multiplier():
    sys_, sc = _load_system("example_thm3.json")
    traj = simulate(sys_, sc.x0, sc.t_final, sc.n_steps)
    # x0 = (0.5, 0.9) against upper bound 1 - 0.4 * 0.9 = 0.64: the static
    # multiplier carries the overshoot through the feedthrough channel
    assert np.allclose(traj.lambdas[0], [0.0, -0.26], atol=1e-10)
    assert traj.outputs[0, 1] == pytest.approx(0.64, abs=1e-10)
    assert traj.residuals[0] <= 1e-10


def test_outputs_are_assembled_from_states_and_multipliers():
    sys_, sc = _load_system("example_timevarying.json")
    traj = simulate(sys_, sc.x0, sc.t_final, sc.n_steps)
    assert np.array_equal(traj.outputs,
                          traj.states @ sys_.C.T + traj.lambdas @ sys_.D.T)


def test_outputs_are_the_steps_cone_arguments():
    # row i + 1 of outputs is the w at which step i checked its cone
    # inclusion; row 0 is the w of the stationary solve
    sys_, sc = _load_system("example_thm3.json")
    traj = simulate(sys_, sc.x0, sc.t_final, sc.n_steps)
    h = sc.t_final / sc.n_steps
    mu0 = -traj.lambdas[0]
    assert np.array_equal(traj.outputs[0], sys_.C @ sc.x0 - sys_.D @ mu0)
    for i in range(traj.n_steps):
        x = traj.states[i]
        y_in = x + h * sys_.drift(traj.times[i], x) - (h * sys_.kappa) * x
        step = solve_step(sys_, traj.times[i + 1], x, y_in, h)
        assert np.array_equal(step.w, traj.outputs[i + 1])


def test_simulation_is_deterministic():
    sys_, sc = _load_system("example_thm4.json")
    a = simulate(sys_, sc.x0, sc.t_final, sc.n_steps)
    b = simulate(sys_, sc.x0, sc.t_final, sc.n_steps)
    assert np.array_equal(a.states, b.states)
    assert np.array_equal(a.lambdas, b.lambdas)
    assert np.array_equal(a.residuals, b.residuals)
    assert np.array_equal(a.iterations, b.iterations)


def test_diagnostics_have_no_hypomonotonicity_violations():
    for name in ("example_trivial.json", "example_sweeping.json",
                 "example_thm3.json", "example_timevarying.json"):
        sys_, sc = _load_system(name)
        traj = simulate(sys_, sc.x0, sc.t_final, sc.n_steps)
        assert traj.diag["hypo_violations"] == 0, name
        assert traj.diag["max_dx_over_h"] > 0.0


def test_diagnostics_count_violations_against_the_pairwise_formula():
    # a box that swings with sin 3t while declaring no time variation: the
    # run breaks the hypomonotonicity inequality on some pairs of steps
    ms = GeneralMovingSet(
        lambda t, x: Box([np.sin(3.0 * t) - 0.5], [np.sin(3.0 * t) + 0.5]),
        0.0, 0.0,
    )
    sys_ = build_system([[1.0]], [[1.0]], [[0.0]], ms)
    traj = simulate(sys_, np.zeros(1), 3.0, 300)
    h = 3.0 / 300
    mus, ws, xs = -traj.lambdas, traj.outputs, traj.states
    gaps, violations = [], 0
    for i in range(1, traj.times.size - 1):
        gap = hypomonotonicity_gap(mus[i], ws[i], mus[i + 1], ws[i + 1], h,
                                   float(np.linalg.norm(xs[i - 1] - xs[i])),
                                   0.0, 0.0)
        slack = (1e-8 * (1.0 + np.linalg.norm(mus[i]) + np.linalg.norm(mus[i + 1]))
                 * (1.0 + np.linalg.norm(ws[i]) + np.linalg.norm(ws[i + 1])))
        gaps.append(gap)
        violations += int(gap < -slack)
    assert violations > 0
    assert traj.diag["hypo_violations"] == violations
    assert traj.diag["hypo_min_gap"] == min(gaps)
    assert traj.diag["hypo_min_gap"] == pytest.approx(-0.0649, abs=1e-4)


def test_csv_round_trip_is_exact(tmp_path):
    sys_, sc = _load_system("example_thm3.json")
    traj = simulate(sys_, sc.x0, sc.t_final, sc.n_steps)
    target = tmp_path / "traj.csv"
    to_csv(traj, target)
    text = target.read_text()
    header = text.splitlines()[0]
    assert header == "t,x_1,x_2,lambda_1,lambda_2,y_1,y_2,residual,iters"
    back = from_csv(target)
    assert np.array_equal(back.times, traj.times)
    assert np.array_equal(back.states, traj.states)
    assert np.array_equal(back.lambdas, traj.lambdas)
    assert np.array_equal(back.outputs, traj.outputs)
    assert np.array_equal(back.residuals, traj.residuals)
    assert np.array_equal(back.iterations, traj.iterations)


def test_csv_accepts_file_objects():
    sys_, sc = _load_system("example_trivial.json")
    traj = simulate(sys_, sc.x0, sc.t_final, sc.n_steps)
    buf = io.StringIO()
    to_csv(traj, buf)
    back = from_csv(io.StringIO(buf.getvalue()))
    assert np.array_equal(back.states, traj.states)


def test_csv_with_a_foreign_header_is_refused():
    # the column names to_csv writes are the layout from_csv slices by
    with pytest.raises(ValueError, match="not a trajectory CSV header"):
        from_csv(io.StringIO("t,x_1,lambda_1,y_1,iters\n0,1,2,3,4\n"))


def _pinned_channel_system(lower_slope=0.0):
    b = np.array([[0.0, 0.0], [0.0, 1.0]])
    if lower_slope:
        def base(t):
            return Box([-1.0 + lower_slope * t, -1.0], [1.0, 1.0])
        lh1 = lower_slope
    else:
        def base(t):
            return Box([-1.0, -1.0], [1.0, 1.0])
        lh1 = 0.0
    ms = DecomposedMovingSet(base, np.zeros((2, 2)), lambda t: np.zeros(2),
                             lh1=lh1)
    return build_system(b, b + 0.1 * np.eye(2), b, ms)


def test_inadmissible_initial_state_is_rejected():
    sys_ = _pinned_channel_system()
    with pytest.raises(NotAdmissible):
        simulate(sys_, np.array([15.0, 0.5]), 1.0, 10)


def test_forced_inadmissible_start_fails_at_the_first_step():
    # force skips the gate, so row 0 carries the zero multiplier of the
    # unsolvable stationary inclusion and the first step has no multiplier
    sys_ = _pinned_channel_system()
    with pytest.raises(SolverDiverged) as info:
        simulate(sys_, np.array([15.0, 0.5]), 1.0, 10, SolverOptions(force=True))
    exc = info.value
    assert exc.step_index == 0
    assert np.array_equal(exc.partial.lambdas[0], np.zeros(2))
    assert exc.partial.iterations[0] == 0


def test_stationary_inclusion_is_solved_once_per_run():
    calls = []

    def at_fn(t, x):
        if t == 0.0:
            calls.append(t)
        return Box([-1.0, -1.0], [1.0, 1.0])

    ms = GeneralMovingSet(at_fn, 0.0, 0.0)
    sys_ = build_system(np.eye(2), np.eye(2), np.eye(2), ms)
    simulate(sys_, np.array([0.5, 2.0]), 1.0, 5)
    assert len(calls) == 1


def test_divergence_carries_partial_trajectory():
    # the pinned output channel leaves the rising lower bound at t ~ 1.05
    sys_ = _pinned_channel_system(lower_slope=0.95)
    with pytest.raises(SolverDiverged) as info:
        simulate(sys_, np.array([0.2, 0.2]), 2.0, 100)
    exc = info.value
    assert exc.step_index > 10
    partial = exc.partial
    assert partial.times.size == exc.step_index + 1
    assert partial.states.shape == (exc.step_index + 1, 2)
    # everything accumulated before the failure is a valid prefix
    clean = simulate(sys_, np.array([0.2, 0.2]), 2.0 * exc.step_index / 100,
                     exc.step_index)
    assert np.allclose(partial.states, clean.states, atol=1e-12)


def test_force_skips_admissibility_gate_only():
    sys_, sc = _load_system("example_thm4.json")
    a = simulate(sys_, sc.x0, sc.t_final, 50)
    b = simulate(sys_, sc.x0, sc.t_final, 50, SolverOptions(force=True))
    assert np.array_equal(a.states, b.states)


def test_richardson_refine_doubles_steps():
    sys_, sc = _load_system("example_trivial.json")
    trajs = richardson_refine(sys_, sc.x0, sc.t_final, 10, 3)
    assert [t.n_steps for t in trajs] == [10, 20, 40]
    # all grids nest: shared endpoint, refined estimates approach it
    finals = [t.states[-1, 0] for t in trajs]
    exact = sc.x0[0] * np.exp(-sc.t_final)
    errs = [abs(f - exact) for f in finals]
    assert errs[2] < errs[1] < errs[0]


def test_simulate_input_validation():
    sys_, sc = _load_system("example_trivial.json")
    with pytest.raises(ValueError):
        simulate(sys_, np.array([1.0, 2.0]), 1.0, 10)
    with pytest.raises(ValueError):
        simulate(sys_, sc.x0, -1.0, 10)
    with pytest.raises(ValueError):
        simulate(sys_, sc.x0, 1.0, 0)
    x0 = sc.x0.copy()
    x0[0] = np.nan
    for opts in (None, SolverOptions(force=True)):
        with pytest.raises(ValueError, match="x0 must be finite"):
            simulate(sys_, x0, 1.0, 10, opts)


@pytest.mark.parametrize("name", sorted(CSV_SHA256))
def test_bundled_csv_is_frozen(name):
    sys_, sc = _load_system(name)
    buf = io.StringIO()
    to_csv(simulate(sys_, sc.x0, sc.t_final, sc.n_steps), buf)
    digest = hashlib.sha256(buf.getvalue().encode("utf-8")).hexdigest()
    assert digest == CSV_SHA256[name]


@pytest.mark.parametrize("name", sorted(CSV_SHA256))
def test_simulate_rows_replay_bitwise_through_solve_step(name):
    # bundled scenarios use identity storage, so simulate steps in the
    # caller's coordinates and each row is one public solve_step away from
    # the previous one
    sys_, sc = _load_system(name)
    traj = simulate(sys_, sc.x0, sc.t_final, sc.n_steps)
    h = sc.t_final / sc.n_steps
    for i in range(traj.n_steps):
        x = traj.states[i]
        y_in = x + h * sys_.drift(traj.times[i], x) - (h * sys_.kappa) * x
        step = solve_step(sys_, traj.times[i + 1], x, y_in, h)
        assert np.array_equal(step.x_next, traj.states[i + 1])
        assert np.array_equal(step.lam, traj.lambdas[i + 1])
        assert step.residual == traj.residuals[i + 1]
        assert step.iterations == traj.iterations[i + 1]


def _storage_scenario(kappa=None):
    # non-identity storage and B != C^T: the step shift of identity-storage
    # coordinates differs from the P-formula kappa; x0 starts on a face
    data = {
        "name": "storage", "n": 2, "m": 2,
        "A": [[-1.0, 0.0], [0.0, -1.2]],
        "B": [[0.0, 0.0], [0.0, 1.0]],
        "C": [[0.1, 0.0], [0.0, 1.05]],
        "D": [[0.0, 0.0], [0.0, 0.8]],
        "P": [[1.3, 0.15], [0.15, 0.9]],
        "set": {"lower": [-1.0, -1.0], "upper": [1.0, 1.0]},
        "sigma": 1.0,
        "x0": [0.5, 3.0], "T": 2.0, "n_steps": 400,
    }
    if kappa is not None:
        data["kappa"] = kappa
    return load_scenario(data)


@pytest.mark.parametrize("kappa", [None, -0.05])
def test_storage_run_steps_in_caller_coordinates(kappa):
    sc = _storage_scenario(kappa)
    sys_ = make_system(sc).system
    if kappa is None:
        assert sys_.kappa != sys_.cert.kappa
    else:
        assert sys_.kappa == kappa
    traj = simulate(sys_, sc.x0, sc.t_final, sc.n_steps)
    assert np.max(np.abs(traj.lambdas)) > 0.1
    h = sc.t_final / sc.n_steps
    for i in range(traj.n_steps):
        x = traj.states[i]
        y_in = x + h * sys_.drift(traj.times[i], x) - (h * sys_.kappa) * x
        step = solve_step(sys_, traj.times[i + 1], x, y_in, h)
        assert np.array_equal(step.x_next, traj.states[i + 1])
        assert np.array_equal(step.lam, traj.lambdas[i + 1])
    # reference: the same run in identity-storage coordinates, mapped back
    canon = canonicalize(sys_)
    ref = simulate(canon.system, canon.to_canonical(sc.x0), sc.t_final,
                   sc.n_steps)
    back = np.array([canon.from_canonical(xt) for xt in ref.states])
    scale = np.max(np.abs(traj.states))
    assert np.max(np.abs(traj.states - back)) <= 1e-12 * scale
    assert np.max(np.abs(traj.lambdas - ref.lambdas)) <= 1e-12 * scale


@pytest.mark.parametrize("storage", [False, True])
def test_system_is_certified_once_and_never_rebuilt_by_a_run(monkeypatch, storage):
    calls = collections.Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(linalg, "certify", counted("certify", linalg.certify))
    build = counted("build_system", system.build_system)
    for module in (system, scenario, analysis):
        monkeypatch.setattr(module, "build_system", build)
    # load_scenario builds the system to check A1/A2, and make_system
    # returns that build
    if storage:
        sc = _storage_scenario()
    else:
        sc = load_scenario(scenario_path("example_thm4.json"))
    sys_ = make_system(sc).system
    assert calls == {"build_system": 1, "certify": 1}
    calls.clear()
    simulate(sys_, sc.x0, sc.t_final, 50)
    attractivity_check(sys_, sc.x0, sc.t_final, 50)
    lipschitz_dependence_check(sys_, sc.x0, 0.5 * sc.x0, sc.t_final, 50)
    assert calls == {}


def test_box_only_run_never_imports_scipy_optimize():
    # scipy.optimize is imported with the first polyhedron only
    code = (
        "import os, sys, luresim\n"
        "path = os.path.join(luresim.scenario_dir(), 'example_thm4.json')\n"
        "sc = luresim.load_scenario(path)\n"
        "luresim.simulate(luresim.make_system(sc).system, sc.x0, sc.t_final,"
        " sc.n_steps)\n"
        "assert 'scipy.optimize' not in sys.modules\n"
    )
    res = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True)
    assert res.returncode == 0, res.stderr


def test_polyhedral_run_needs_no_scipy():
    # scipy is made unimportable before luresim loads: simulating on a
    # polyhedral moving set and every polyhedral set routine must run without it
    code = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "import numpy as np, luresim as lu\n"
        "a = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]])\n"
        "poly = lu.Polyhedron(a, np.array([1.0, 1.0, 1.0]))\n"
        "ms = lu.DecomposedMovingSet(lambda t: poly, 0.1 * np.eye(2),"
        " lambda t: np.array([0.1 * t, 0.0]), lh2=0.1)\n"
        "sys_ = lu.build_system(np.eye(2), np.eye(2), 0.5 * np.eye(2), ms,"
        " drift=lambda t, x: -x + 2.0, lf=1.0)\n"
        "traj = lu.simulate(sys_, np.zeros(2), 1.0, 50)\n"
        "assert np.all(np.isfinite(traj.states))\n"
        "assert np.allclose(lu.project(poly, [3.0, 3.0]), [1.0, 1.0])\n"
        "assert np.allclose(lu.support_point(poly, [1.0, 1.0]), [1.0, 1.0])\n"
        "assert lu.hausdorff_sampled(poly, lu.Translate(poly, [0.5, 0.0])) > 0.0\n"
        "grid = [(0.0, np.zeros(2)), (0.5, np.ones(2))]\n"
        "assert lu.verify_lipschitz(ms, grid).samples == 1\n"
    )
    res = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True)
    assert res.returncode == 0, res.stderr


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("bad", [[np.nan, np.nan], [np.inf, 0.0], [1e308, 1e308]],
                         ids=["nan", "inf", "overflow"])
def test_nan_drift_is_named_with_step_and_time(bad):
    ms = DecomposedMovingSet(lambda t: Box([-1.0, -1.0], [1.0, 1.0]),
                             np.zeros((2, 2)), lambda t: np.zeros(2))

    def drift(t, x):
        return np.array(bad) if t > 0.055 else -x

    sys_ = build_system(np.eye(2), np.eye(2), 0.5 * np.eye(2), ms,
                        drift=drift, lf=1.0)
    with pytest.raises(NonFiniteDrift) as info:
        simulate(sys_, np.array([0.2, 0.1]), 1.0, 100)
    assert not isinstance(info.value, SolverDiverged)
    assert info.value.step_index == 6
    assert info.value.t == pytest.approx(0.06)
