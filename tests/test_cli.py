"""Command-line behavior: output formats, exit codes, env overrides."""

import csv
import io
import json

import numpy as np
import pytest

from helpers import run_cli, scenario_path
from luresim.analysis import RateReport


def _write_json(tmp_path, name, data):
    target = tmp_path / name
    target.write_text(json.dumps(data), encoding="utf-8")
    return str(target)


def _states(csv_text):
    rows = list(csv.DictReader(io.StringIO(csv_text)))
    cols = [k for k in rows[0] if k.startswith("x_")]
    return np.array([[float(r[k]) for k in cols] for r in rows])


PINNED_CHANNEL = {
    "name": "pinned",
    "n": 2,
    "m": 2,
    "A": [[0.0, 0.0], [0.0, 0.0]],
    "B": [[0.0, 0.0], [0.0, 1.0]],
    "C": [[0.1, 0.0], [0.0, 1.1]],
    "D": [[0.0, 0.0], [0.0, 1.0]],
    "set": {"lower": [-1.0, -1.0], "upper": [1.0, 1.0]},
    "x0": [0.5, 0.2],
    "T": 2.0,
    "n_steps": 100,
}


def test_check_reports_constants_and_admissibility():
    res = run_cli("check", scenario_path("example_trivial.json"))
    assert res.returncode == 0
    assert "scenario: " in res.stdout
    assert "constants:" in res.stdout
    assert "checks:" in res.stdout
    assert "[ok] D positive semidefinite" in res.stdout
    assert "admissibility of x0: yes" in res.stdout


def test_check_reports_measured_tuple_and_downgrade():
    res = run_cli("check", scenario_path("example_sec4.json"))
    assert res.returncode == 0
    assert "[!!] offset range condition" in res.stdout
    assert "measured tuple (C_bar):" in res.stdout
    assert "kernel inclusion ker(D+D^T) in ker(PB-C_bar^T): no" in res.stdout
    assert "kappa (formula): -0.00125" in res.stdout
    assert "warnings:" in res.stdout


def test_check_rejects_inadmissible_start(tmp_path):
    data = dict(PINNED_CHANNEL, x0=[15.0, 0.5])
    res = run_cli("check", _write_json(tmp_path, "bad_start.json", data))
    assert res.returncode == 2
    assert "admissibility of x0: no" in res.stdout
    assert "error: initial state is not admissible" in res.stderr


def test_simulate_deterministic_csv_stdout():
    a = run_cli("simulate", scenario_path("example_thm3.json"))
    b = run_cli("simulate", scenario_path("example_thm3.json"))
    assert a.returncode == 0
    assert a.stdout == b.stdout
    header = a.stdout.splitlines()[0]
    assert header == "t,x_1,x_2,lambda_1,lambda_2,y_1,y_2,residual,iters"


def test_simulate_out_and_plot(tmp_path):
    out = tmp_path / "traj.csv"
    plot = tmp_path / "traj.svg"
    res = run_cli("simulate", scenario_path("example_trivial.json"),
                  "--out", str(out), "--plot", str(plot))
    assert res.returncode == 0
    assert res.stdout.startswith("steps: 100  final |x|: ")
    assert "max residual: " in res.stdout
    assert out.read_text().startswith("t,x_1,")
    svg = plot.read_text()
    assert svg.lstrip().startswith("<svg") and "polyline" in svg


def test_simulate_warns_on_general_form_downgrade():
    res = run_cli("simulate", scenario_path("example_sec4.json"))
    assert res.returncode == 0
    assert "warning: offset range condition fails" in res.stderr


def test_simulate_exit_3_on_divergence(tmp_path):
    data = dict(PINNED_CHANNEL)
    data["set"] = {
        "lower": [{"t": [0.0, 2.0], "v": [-1.0, 0.9]}, -1.0],
        "upper": [1.0, 1.0],
    }
    res = run_cli("simulate", _write_json(tmp_path, "pinch.json", data))
    assert res.returncode == 3
    assert res.stderr.startswith("error: solver diverged:")


def test_converge_prints_order_or_exactness():
    res = run_cli("converge", scenario_path("example_trivial.json"),
                  "--levels", "4")
    assert res.returncode == 0
    assert res.stdout.startswith("n=100")
    assert "estimated order:" in res.stdout
    exact = run_cli("converge", scenario_path("example_sweeping.json"),
                    "--levels", "3")
    assert exact.returncode == 0
    assert "refinements agree to tolerance; order not estimable" in exact.stdout


def test_attract_both_variants():
    res = run_cli("attract", scenario_path("example_thm4.json"),
                  "--variant", "thm4")
    assert res.returncode == 0
    payload = json.loads(res.stdout)
    assert payload["pass"] is True
    assert payload["claimed_rate"] == pytest.approx(0.99875, abs=1e-12)
    res3 = run_cli("attract", scenario_path("example_thm3.json"),
                   "--variant", "thm3")
    assert res3.returncode == 0
    assert json.loads(res3.stdout)["claimed_rate"] == pytest.approx(
        1.48, abs=1e-12)


def test_attract_exit_2_without_declared_rate():
    res = run_cli("attract", scenario_path("example_timevarying.json"),
                  "--variant", "thm4")
    assert res.returncode == 2
    assert res.stderr.startswith("error: ")
    assert "sigma" in res.stderr


def test_failed_report_maps_to_exit_2(monkeypatch, capsys):
    import luresim.cli as cli

    fake = RateReport(claimed_rate=1.0, max_violation=0.25, passed=False,
                      envelope=[(0.0, 1.25, 1.0)])
    monkeypatch.setattr(cli, "attractivity_check", lambda *a, **k: fake)
    rc = cli.main(["attract", scenario_path("example_thm4.json"),
                   "--variant", "thm4"])
    assert rc == 2
    assert '"pass": false' in capsys.readouterr().out


def test_check_reports_undetermined_admissibility_and_exits_0(
        tmp_path, monkeypatch, capsys):
    import luresim.cli as cli
    from luresim import moving
    from luresim.errors import SolverDiverged

    # m = 9 is past the exact box enumeration, so the iterative solver
    # decides admissibility
    eye = np.eye(9).tolist()
    scenario = {
        "name": "nine", "n": 9, "m": 9,
        "A": np.zeros((9, 9)).tolist(), "B": eye, "C": eye, "D": eye,
        "set": {"lower": [-1.0] * 9, "upper": [1.0] * 9},
        "x0": [0.0] * 9, "T": 1.0, "n_steps": 10,
    }
    path = _write_json(tmp_path, "nine.json", scenario)

    def give_up(*args, **kwargs):
        raise SolverDiverged("stalled", residual=1.0)

    monkeypatch.setattr(moving, "solve_static_multiplier", give_up)
    assert cli.main(["check", path]) == 0
    assert "admissibility of x0: undetermined" in capsys.readouterr().out


def test_non_finite_drift_maps_to_exit_2(monkeypatch, capsys):
    import luresim.cli as cli
    from luresim.errors import NonFiniteDrift

    def nan_drift(*args, **kwargs):
        raise NonFiniteDrift("drift is not finite at step 6 (t = 0.06)",
                             step_index=6, t=0.06)

    monkeypatch.setattr(cli, "simulate", nan_drift)
    assert cli.main(["simulate", scenario_path("example_thm4.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: drift is not finite at step 6")
    assert "solver diverged" not in err


def test_lipdep_reports_rate():
    res = run_cli("lipdep", scenario_path("example_thm4.json"),
                  "--x0b", "0.6,-0.2")
    assert res.returncode == 0
    payload = json.loads(res.stdout)
    assert payload["pass"] is True
    assert payload["claimed_rate"] == pytest.approx(1.00125, abs=1e-12)


def test_lipdep_rejects_bad_vector_and_general_sets():
    res = run_cli("lipdep", scenario_path("example_thm4.json"),
                  "--x0b", "1,2,3")
    assert res.returncode == 2
    assert "expected a length-2 vector" in res.stderr
    gen = run_cli("lipdep", scenario_path("example_sec4.json"),
                  "--x0b", "0.0,0.0")
    assert gen.returncode == 2
    assert "decomposed" in gen.stderr


def test_parse_error_exit_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"name": }', encoding="utf-8")
    res = run_cli("check", str(bad))
    assert res.returncode == 2
    assert "error: invalid JSON at line 1" in res.stderr


@pytest.mark.parametrize("field, value, named", [
    ("T", "abc", "T"), ("n_steps", "ten", "n_steps"), ("kappa", "x", "kappa"),
    ("sigma", [1.0], "sigma"), ("constants", {"Lf": "big"}, "constants.Lf"),
    ("n_steps", 2.7, "n_steps"), ("n", 2.5, "n"), ("m", "2.5", "m"),
])
def test_bad_scalar_field_exit_2(tmp_path, field, value, named):
    # a non-numeric value or a non-integral count is named, not a traceback
    path = _write_json(tmp_path, "bad.json", {**PINNED_CHANNEL, field: value})
    res = run_cli("check", path)
    assert res.returncode == 2
    assert res.stderr.startswith(f"error: {named} must be "), res.stderr
    assert "Traceback" not in res.stderr


def test_step_tolerance_env_is_honored(tmp_path):
    strict = tmp_path / "strict.csv"
    loose = tmp_path / "loose.csv"
    base = run_cli("simulate", scenario_path("example_thm3.json"),
                   "--out", str(strict))
    res = run_cli("simulate", scenario_path("example_thm3.json"),
                  "--out", str(loose), env_extra={"LURE_STEP_TOL": "1e-2"})
    assert base.returncode == 0 and res.returncode == 0

    def max_residual(path):
        rows = list(csv.DictReader(open(path, encoding="utf-8")))
        return max(float(r["residual"]) for r in rows)

    assert max_residual(strict) < 1e-10
    assert max_residual(loose) > 1e-6
    bad = run_cli("simulate", scenario_path("example_trivial.json"),
                  env_extra={"LURE_STEP_TOL": "zero"})
    assert bad.returncode == 2
    assert "LURE_STEP_TOL is not a number" in bad.stderr
    neg = run_cli("simulate", scenario_path("example_trivial.json"),
                  env_extra={"LURE_STEP_TOL": "-1"})
    assert neg.returncode == 2
    assert "LURE_STEP_TOL must be positive" in neg.stderr


def test_perturb_writes_transformed_scenario(tmp_path):
    cbar = _write_json(tmp_path, "cbar.json", [[0.1, 0.0], [0.0, 1.1]])
    res = run_cli("perturb", scenario_path("example_timevarying.json"),
                  "--cbar", cbar)
    assert res.returncode == 0
    assert "warning:" in res.stderr and "general form" in res.stderr
    emitted = json.loads(res.stdout)
    assert emitted["name"].endswith("-perturbed")
    assert np.allclose(emitted["set"]["H"],
                       [[-0.1, 0.0], [0.0, -0.10000000000000009]])
    assert emitted["C_bar"] == [[0.1, 0.0], [0.0, 1.1]]


def test_perturb_then_simulate_matches_bundled_rewrite(tmp_path):
    cbar = _write_json(tmp_path, "cbar.json", [[0.1, 0.0], [0.0, 1.1]])
    out = tmp_path / "rewritten.json"
    res = run_cli("perturb", scenario_path("example_timevarying.json"),
                  "--cbar", cbar, "--out", str(out))
    assert res.returncode == 0
    sim = run_cli("simulate", str(out))
    ref = run_cli("simulate", scenario_path("example_sec4.json"))
    assert sim.returncode == 0 and ref.returncode == 0
    assert np.max(np.abs(_states(sim.stdout) - _states(ref.stdout))) <= 1e-12
