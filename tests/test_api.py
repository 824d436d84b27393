"""The public API: the package's name set and what the benchmark replay reads."""

import importlib

import numpy as np

import luresim

# the package's public names; each removal is deliberate and listed in CHANGES.md
PUBLIC = [
    "Box", "CanonicalMap", "CheckItem", "DecomposedMovingSet", "DimensionMismatch",
    "EmptySet", "GeneralMovingSet", "HypothesisFailed", "InfiniteDistance",
    "KernelInclusionViolated", "LipschitzReport", "LureError", "LureSystem",
    "MissingConstant", "NoPositiveEigenvalue", "NoSolution", "NonFiniteDrift",
    "NotAdmissible", "NotPSD", "NotSymmetric", "ParseError", "PassivityCertificate",
    "Polyhedron", "RangeConditionViolated", "RateReport", "Scenario",
    "ScenarioTransform", "SolverDiverged", "SolverOptions", "StepResult",
    "StepTooLarge", "StepTooSmall", "SystemReport", "Table", "Trajectory", "Translate",
    "Unbounded", "ValidationError", "admissible", "attractivity_check",
    "box_vi_enumerate", "brute_force_step_oracle", "build_system", "canonicalize",
    "certify", "check_passive", "contains", "convergence_order", "dis_bound",
    "distance", "emit_scenario", "from_csv", "hausdorff_box", "hausdorff_sampled",
    "hypomonotonicity_gap", "inner_solve_box", "is_positive_semidefinite",
    "kernel_basis", "kernel_inclusion", "lipschitz_dependence_check", "load_scenario",
    "make_system", "normal_cone_residual", "perturb_scenario", "perturb_transform",
    "project", "project_enumerate", "range_inclusion", "range_projector",
    "raw_tuple_report", "richardson_refine", "save_scenario", "scenario_dir",
    "select_kappa", "simulate", "smallest_positive_eigenvalue",
    "solve_static_multiplier", "solve_step", "support_point", "to_csv",
    "trajectory_svg", "verify_lipschitz", "whole_space", "write_svg",
]


def test_public_names_are_pinned():
    assert sorted(luresim.__all__) == PUBLIC
    assert len(set(luresim.__all__)) == len(luresim.__all__)


def test_each_public_name_is_its_defining_modules_object():
    for name in luresim.__all__:
        obj = getattr(luresim, name)
        module = importlib.import_module(obj.__module__)
        assert getattr(module, name) is obj, name
        assert name in module.__all__, name


def test_names_the_benchmark_replay_reads():
    # lurebench/replay.py reaches past __all__ into the modules
    box = luresim.Box([-1.0, -1.0], [1.0, 1.0])
    lower, upper = luresim.sets.as_box(box)
    assert np.array_equal(lower, box.lower) and np.array_equal(upper, box.upper)
    ms = luresim.DecomposedMovingSet(lambda t: box, np.zeros((2, 2)), lambda t: np.zeros(2))
    assert luresim.moving.lipschitz_constants(ms) == (0.0, 0.0)
    sys_ = luresim.build_system(np.eye(2), np.eye(2), 0.5 * np.eye(2), ms)
    luresim.canonicalize(sys_)
    # replay_step's positional call: M, q, box, opts, c1, d_norm
    mu, w, _ = luresim.inner_solve_box(0.5 * np.eye(2), np.array([2.0, 0.0]), box,
                                       luresim.SolverOptions(), 1.0, 0.5)
    assert np.allclose(mu, [2.0, 0.0]) and np.allclose(w, [1.0, 0.0])
