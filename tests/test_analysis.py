"""Quantitative conclusions: envelopes, rewrite equivalence, orders, bounds."""

import dataclasses
import math

import numpy as np
import pytest

from helpers import scenario_path
from luresim import (
    Box,
    DecomposedMovingSet,
    attractivity_check,
    build_system,
    convergence_order,
    dis_bound,
    lipschitz_dependence_check,
    load_scenario,
    make_system,
    perturb_transform,
    richardson_refine,
    simulate,
)
from luresim.errors import HypothesisFailed, MissingConstant


def _system(name):
    sc = load_scenario(scenario_path(name))
    return make_system(sc).system, sc


def _static_system(b, c, d, box, **kw):
    c_arr = np.atleast_2d(np.asarray(c, float))
    m, n = c_arr.shape
    ms = DecomposedMovingSet(
        lambda t, _box=box: _box, np.zeros((m, n)), lambda t, _z=np.zeros(m): _z
    )
    return build_system(b, c, d, ms, **kw)


def test_lipschitz_dependence_rate_and_envelope():
    sys_, sc = _system("example_thm4.json")
    report = lipschitz_dependence_check(
        sys_, sc.x0, np.array([0.6, -0.2]), sc.t_final, sc.n_steps
    )
    # gamma = L_f + (L_h + ||B - C^T||)^2 / (4 c1) = 1 + 0.01/8
    assert report.claimed_rate == pytest.approx(1.00125, abs=1e-12)
    assert report.passed
    assert report.max_violation < 0.0
    assert len(report.envelope) == sc.n_steps + 1


def test_lipschitz_dependence_zero_rate_without_feedback_gap():
    sys_, sc = _system("example_sweeping.json")
    report = lipschitz_dependence_check(
        sys_, np.array([0.0]), np.array([0.5]), sc.t_final, sc.n_steps
    )
    assert report.claimed_rate == 0.0
    assert report.passed


def test_lipschitz_dependence_requires_decomposed_form():
    sys_, sc = _system("example_sec4.json")
    with pytest.raises(HypothesisFailed):
        lipschitz_dependence_check(sys_, sc.x0, sc.x0 + 0.1, sc.t_final, 50)


def test_attractivity_rate_without_uniqueness():
    sys_, sc = _system("example_thm4.json")
    report = attractivity_check(
        sys_, sc.x0, sc.t_final, sc.n_steps, variant="without_uniqueness"
    )
    assert report.claimed_rate == pytest.approx(0.99875, abs=1e-12)
    assert report.passed


def test_attractivity_rate_with_uniqueness():
    sys_, sc = _system("example_thm3.json")
    report = attractivity_check(
        sys_, sc.x0, sc.t_final, sc.n_steps, variant="with_uniqueness"
    )
    # delta = sigma - (L_h + 0)^2 / (4 c1) = 1.5 - 0.16/8
    assert report.claimed_rate == pytest.approx(1.48, abs=1e-12)
    assert report.passed


def test_attractivity_requires_sigma():
    sys_, sc = _system("example_timevarying.json")
    with pytest.raises(MissingConstant):
        attractivity_check(sys_, sc.x0, sc.t_final, 50)


def test_attractivity_rejects_small_sigma():
    sys_, sc = _system("example_thm4.json")
    weak = dataclasses.replace(sys_, sigma=0.001)
    with pytest.raises(HypothesisFailed):
        attractivity_check(weak, sc.x0, sc.t_final, 50)


def test_attractivity_rejects_undecaying_drift():
    sys_ = _static_system([[1.0]], [[1.0]], [[1.0]], Box([-1.0], [1.0]),
                          drift=lambda t, x: -x, lf=1.0, sigma=2.0)
    with pytest.raises(HypothesisFailed):
        attractivity_check(sys_, np.array([0.5]), 1.0, 20)


def test_attractivity_with_uniqueness_needs_origin_in_set():
    sys_ = _static_system([[1.0]], [[1.0]], [[1.0]], Box([0.5], [1.0]),
                          drift=lambda t, x: -x, lf=1.0, sigma=1.0)
    with pytest.raises(HypothesisFailed):
        attractivity_check(sys_, np.array([0.7]), 1.0, 20,
                           variant="with_uniqueness")


def test_attractivity_variants_differ_on_state_coupled_sets():
    # K(t, x) = [-1, 1] + 0.9 x: the origin stays in K(t, 0), so the
    # uniqueness-based variant holds, but 0 leaves K(t, x) at visited states
    ms = DecomposedMovingSet(
        lambda t: Box([-1.0], [1.0]), np.array([[0.9]]), lambda t: np.zeros(1)
    )
    sys_ = build_system([[1.0]], [[1.0]], [[1.0]], ms,
                        drift=lambda t, x: -2.0 * x, lf=2.0, sigma=2.0)
    ok = attractivity_check(sys_, np.array([2.0]), 1.0, 50,
                            variant="with_uniqueness")
    assert ok.passed
    with pytest.raises(HypothesisFailed):
        attractivity_check(sys_, np.array([2.0]), 1.0, 50,
                           variant="without_uniqueness")


def test_attractivity_unknown_variant():
    sys_, sc = _system("example_thm4.json")
    with pytest.raises(ValueError):
        attractivity_check(sys_, sc.x0, 1.0, 10, variant="both")


def test_rate_report_json_summary():
    sys_, sc = _system("example_thm4.json")
    report = attractivity_check(sys_, sc.x0, sc.t_final, 100)
    d = report.to_json_dict()
    assert set(d) == {"claimed_rate", "max_violation", "pass", "n_points",
                      "worst_point"}
    assert d["pass"] is True
    assert d["n_points"] == 101
    worst = d["worst_point"]
    assert set(worst) == {"t", "observed", "allowed"}
    assert worst["observed"] - worst["allowed"] == pytest.approx(
        d["max_violation"])


def test_perturb_transform_folds_output_mismatch():
    b = np.array([[0.0, 0.0], [0.0, 1.0]])
    c_meas = b + np.diag([0.0, 0.1])
    sys_meas = _static_system(b, c_meas, b, Box([-1.0, -1.0], [1.0, 1.0]),
                              drift=lambda t, x: -x, lf=1.0)
    new_sys, tr = perturb_transform(sys_meas, b)
    assert np.array_equal(new_sys.C, b)
    assert np.allclose(tr.h_matrix, -np.diag([0.0, 0.1]))
    assert tr.decomposed is True
    assert isinstance(new_sys.K, DecomposedMovingSet)
    # trajectories agree up to discretization order
    x0 = np.array([0.4, 0.8])
    diffs = []
    for n in (200, 800):
        a = simulate(sys_meas, x0, 2.0, n)
        bb = simulate(new_sys, x0, 2.0, n)
        diffs.append(float(np.max(np.linalg.norm(a.states - bb.states,
                                                 axis=1))))
    assert diffs[0] < 5e-3
    assert diffs[0] / max(diffs[1], 1e-300) > 2.5  # about first order


def test_perturb_transform_keeps_a_declared_kappa():
    box = Box([-1.0], [1.0])
    declared = _static_system([[1.0]], [[1.2]], [[1.0]], box, kappa=-0.5)
    new_sys, _ = perturb_transform(declared, [[1.0]])
    assert new_sys.kappa == -0.5
    # an undeclared kappa is the formula's, derived again for the new C:
    # -||B - C^T||^2 / (4 c1) = -0.04 / 8 before, 0 once C^T = B
    derived = _static_system([[1.0]], [[1.2]], [[1.0]], box)
    assert derived.kappa == pytest.approx(-0.005, abs=1e-15)
    new_sys, _ = perturb_transform(derived, [[1.0]])
    assert new_sys.kappa == 0.0


def test_perturb_transform_downgrades_outside_feedthrough_range():
    b = np.array([[0.0, 0.0], [0.0, 1.0]])
    c_meas = b + 0.1 * np.eye(2)
    sys_meas = _static_system(b, c_meas, b, Box([-1.0, -1.0], [1.0, 1.0]))
    new_sys, tr = perturb_transform(sys_meas, b)
    assert tr.decomposed is False
    assert not isinstance(new_sys.K, DecomposedMovingSet)


def test_perturb_transform_requires_time_only_set():
    ms = DecomposedMovingSet(
        lambda t: Box([-1.0], [1.0]), np.array([[0.2]]), lambda t: np.zeros(1)
    )
    sys_ = build_system([[1.0]], [[1.0]], [[1.0]], ms)
    with pytest.raises(HypothesisFailed):
        perturb_transform(sys_, np.array([[1.0]]))
    gen_sys, _ = _system("example_sec4.json")
    with pytest.raises(HypothesisFailed):
        perturb_transform(gen_sys, gen_sys.C)


def test_convergence_order_first_order_and_exact():
    sys_, sc = _system("example_trivial.json")
    order, diffs = convergence_order(
        richardson_refine(sys_, sc.x0, sc.t_final, 20, 4))
    assert len(diffs) == 3
    assert order == pytest.approx(1.0, abs=0.15)
    # the pure half-line run is grid-exact: no order can be estimated
    swp, scs = _system("example_sweeping.json")
    order2, diffs2 = convergence_order(
        richardson_refine(swp, scs.x0, scs.t_final, 50, 3))
    assert math.isnan(order2)
    assert max(diffs2) <= 1e-13


def test_dis_bound_values():
    assert dis_bound(np.array([[1.0]]), 1.0, Box([-1.0], [1.0]),
                     Box([0.0], [2.0])) == pytest.approx(1.0)
    assert dis_bound(np.array([[1.0]]), 0.5, Box([-1.0], [1.0]),
                     Box([0.0], [2.0])) == pytest.approx(2.0)
    with pytest.raises(MissingConstant):
        dis_bound(np.array([[1.0]]), None, Box([-1.0], [1.0]),
                  Box([0.0], [2.0]))
