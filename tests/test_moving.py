"""Moving constraint sets: evaluation, variation bounds, admissibility."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from luresim import (
    Box,
    DecomposedMovingSet,
    GeneralMovingSet,
    Polyhedron,
    admissible,
    build_system,
    hypomonotonicity_gap,
    solve_step,
    verify_lipschitz,
)
from luresim import box_vi_enumerate, moving
from luresim.errors import NoSolution, SolverDiverged
from luresim.moving import lipschitz_constants
from luresim.sets import as_box


def test_decomposed_evaluation_folds_offsets():
    ms = DecomposedMovingSet(
        lambda t: Box([-1.0, -1.0], [1.0, 1.0]),
        np.array([[0.0, 0.0], [0.0, -0.4]]),
        lambda t: np.array([0.1 * t, 0.0]),
    )
    lo, up = as_box(ms.at(2.0, np.array([1.0, 1.0])))
    assert np.allclose(lo, [-0.8, -1.4])
    assert np.allclose(up, [1.2, 0.6])
    assert lo is not None
    same = ms.at(2.0, np.array([1.0, 1.0]))
    lo2, up2 = as_box(same)
    assert np.allclose(lo, lo2) and np.allclose(up, up2)


def test_decomposed_constants_and_declared_floor():
    ms = DecomposedMovingSet(
        lambda t: Box([-1.0], [1.0]),
        np.array([[0.3]]),
        lambda t: np.zeros(1),
        lh1=0.7,
        lh2=0.2,
    )
    assert lipschitz_constants(ms) == (pytest.approx(0.9), pytest.approx(0.3))
    # a declared state constant below ||H|| is rejected
    with pytest.raises(ValueError):
        DecomposedMovingSet(
            lambda t: Box([-1.0], [1.0]),
            np.array([[0.3]]),
            lambda t: np.zeros(1),
            lh=0.1,
        )
    # a larger declared value is kept verbatim
    ms2 = DecomposedMovingSet(
        lambda t: Box([-1.0], [1.0]),
        np.array([[0.3]]),
        lambda t: np.zeros(1),
        lh=0.5,
    )
    assert lipschitz_constants(ms2)[1] == pytest.approx(0.5)


def test_general_moving_set_passthrough():
    tri = Polyhedron(np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([1.0, 1.0]))
    ms = GeneralMovingSet(lambda t, x: tri, 0.4, 0.6)
    assert ms.at(0.0, np.zeros(2)) is tri
    assert lipschitz_constants(ms) == (0.4, 0.6)


def test_verify_lipschitz_tight_translation():
    # interval drifting at slope 0.5 with the matching declared constant
    ms = DecomposedMovingSet(
        lambda t: Box([-1.0 + 0.5 * t], [1.0 + 0.5 * t]),
        np.zeros((1, 1)),
        lambda t: np.zeros(1),
        lh1=0.5,
    )
    grid = [(0.0, [0.0]), (1.0, [0.0]), (2.0, [0.0])]
    report = verify_lipschitz(ms, grid)
    assert report.samples == 3
    assert report.max_observed_ratio == pytest.approx(1.0)
    assert report.violations == []


def test_verify_lipschitz_flags_undeclared_motion():
    # declared time constant too small by half: every pair is a violation
    ms = DecomposedMovingSet(
        lambda t: Box([-1.0 + 0.5 * t], [1.0 + 0.5 * t]),
        np.zeros((1, 1)),
        lambda t: np.zeros(1),
        lh1=0.25,
    )
    report = verify_lipschitz(ms, [(0.0, [0.0]), (1.0, [0.0]), (2.0, [0.0])])
    assert report.max_observed_ratio == pytest.approx(2.0)
    assert len(report.violations) == 3


def test_verify_lipschitz_state_dependence():
    ms = DecomposedMovingSet(
        lambda t: Box([-1.0], [1.0]),
        np.array([[0.3]]),
        lambda t: np.zeros(1),
    )
    grid = [(0.0, [0.0]), (0.0, [1.0]), (0.0, [-2.0])]
    report = verify_lipschitz(ms, grid)
    assert report.max_observed_ratio == pytest.approx(1.0)
    assert report.violations == []


def test_verify_lipschitz_folds_structural_bound():
    ms = DecomposedMovingSet(
        lambda t: Box([-1.0], [1.0]),
        np.array([[0.3]]),
        lambda t: np.zeros(1),
    )
    grid = [(0.0, [0.0]), (0.0, [1.0])]
    # bound c2/||C|| = 0.1 < lk2 = 0.3: reported as one extra failing sample
    report = verify_lipschitz(ms, grid, c_mat=np.array([[1.0]]), c2=0.1)
    assert report.samples == 2
    assert report.max_observed_ratio == pytest.approx(3.0)
    assert len(report.violations) == 1
    # generous bound: extra sample passes
    ok = verify_lipschitz(ms, grid, c_mat=np.array([[1.0]]), c2=0.9)
    assert ok.violations == []


def _mismatch_system(box):
    b = np.array([[0.0, 0.0], [0.0, 1.0]])
    c = b + 0.1 * np.eye(2)
    ms = DecomposedMovingSet(
        lambda t, _box=box: _box, np.zeros((2, 2)), lambda t: np.zeros(2)
    )
    return build_system(b, c, b, ms), ms


def test_admissible_box_decision_is_exact():
    sys_, ms = _mismatch_system(Box([-1.0, -1.0], [1.0, 1.0]))
    # the feedthrough channel absorbs a large state on coordinate 2
    assert admissible(ms, sys_, np.array([5.0, 5.0])) is True
    # coordinate 1 has no feedthrough: C x0 = 1.5 is pinned outside the box
    assert admissible(ms, sys_, np.array([15.0, 0.5])) is False


def test_admissible_polyhedral_decision():
    tri = Polyhedron(
        np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]]),
        np.array([1.0, 1.0, 1.0]),
    )
    ms = GeneralMovingSet(lambda t, x: tri, 0.0, 0.0)
    sys_ = build_system(np.eye(2), np.eye(2), np.zeros((2, 2)), ms)
    # with D = 0 the output cannot move: admissibility = membership
    assert admissible(ms, sys_, np.array([0.2, 0.3])) is True
    assert admissible(ms, sys_, np.array([2.0, 2.0])) is False


def test_hypomonotonicity_gap_values():
    # monotone pair, no variation budget
    assert hypomonotonicity_gap([1.0], [1.0], [0.0], [0.0], 0.0, 0.0, 0.0, 0.0) == (
        pytest.approx(1.0)
    )
    # adversarial pair exactly covered by the time-variation budget
    gap = hypomonotonicity_gap([1.0], [0.0], [0.0], [1.0], 0.5, 0.0, 2.0, 0.0)
    assert gap == pytest.approx(0.0)
    # state budget enters through lk2 * |dx|
    gap = hypomonotonicity_gap([1.0], [0.0], [0.0], [1.0], 0.0, 2.0, 0.0, 0.5)
    assert gap == pytest.approx(0.0)
    assert isinstance(gap, float)
    # the three cases stacked as rows give the three scalar results
    stacked = hypomonotonicity_gap(
        [[1.0], [1.0], [1.0]], [[1.0], [0.0], [0.0]],
        [[0.0], [0.0], [0.0]], [[0.0], [1.0], [1.0]],
        np.array([0.0, 0.5, 0.0]), np.array([0.0, 0.0, 2.0]),
        np.array([0.0, 2.0, 0.0]), np.array([0.0, 0.0, 0.5]),
    )
    single = [
        hypomonotonicity_gap([1.0], [1.0], [0.0], [0.0], 0.0, 0.0, 0.0, 0.0),
        hypomonotonicity_gap([1.0], [0.0], [0.0], [1.0], 0.5, 0.0, 2.0, 0.0),
        hypomonotonicity_gap([1.0], [0.0], [0.0], [1.0], 0.0, 2.0, 0.0, 0.5),
    ]
    assert stacked.shape == (3,)
    assert stacked.tolist() == single


def test_admissible_is_undetermined_when_the_solver_gives_up(monkeypatch):
    # m = 9 is past the exact box enumeration, so the iterative solver
    # decides; its failure means "undetermined", not a raised error
    m = 9
    ms = DecomposedMovingSet(lambda t: Box(-np.ones(m), np.ones(m)),
                             np.zeros((m, m)), lambda t: np.zeros(m))
    sys_ = build_system(np.eye(m), np.eye(m), np.eye(m), ms)
    assert admissible(ms, sys_, np.zeros(m)) is True

    def give_up(*args, **kwargs):
        raise SolverDiverged("stalled", residual=1.0)

    monkeypatch.setattr(moving, "solve_static_multiplier", give_up)
    assert admissible(ms, sys_, np.zeros(m)) is None


_GRID = st.integers(-4, 4).map(lambda k: 0.5 * k)


@st.composite
def _stationary_problems(draw):
    # D = G G^T with G of m x rank, so every rank 0..m is drawn; B = C^T
    # keeps the passivity certificate valid for any C
    m = draw(st.integers(1, 4))
    rank = draw(st.integers(0, m))
    g = np.array(draw(st.lists(_GRID, min_size=m * rank, max_size=m * rank)))
    c = np.array(draw(st.lists(_GRID, min_size=m * m, max_size=m * m)))
    x0 = np.array(draw(st.lists(_GRID, min_size=m, max_size=m)))
    lower, upper = [], []
    for _ in range(m):
        lo = draw(_GRID)
        up = lo + 0.5 * draw(st.integers(0, 4))
        lower.append(-np.inf if draw(st.booleans()) else lo)
        upper.append(np.inf if draw(st.booleans()) else up)
    g = g.reshape(m, rank)
    return g @ g.T, c.reshape(m, m), x0, np.array(lower), np.array(upper)


# D of exact rank 2 with q - lower = (1, -1.5, 1.5) outside rge(D): Newton
# ran off to |mu| ~ 1e15, where its small residual was rounding noise
_NOISE_LEVEL_NEWTON = (
    np.array([[0.5, 1.0, 1.75], [1.0, 2.5, 3.75], [1.75, 3.75, 6.25]]),
    np.array([[0.0, 0.0, 1.5], [0.0, 0.0, -1.5], [0.0, 0.0, 1.5]]),
    np.array([0.0, 0.0, 1.0]),
    np.array([0.5, 0.0, 0.0]),
    np.array([0.5, 0.0, 0.0]),
)


@settings(max_examples=150, deadline=None)
@given(_stationary_problems())
@example(_NOISE_LEVEL_NEWTON)
def test_admissible_agrees_with_face_enumeration(problem):
    # admissible tries Newton before enumerating; its verdict must still be
    # exactly whether some face pattern solves the stationary inclusion
    d, c, x0, lower, upper = problem
    box = Box(lower, upper)
    ms = GeneralMovingSet(lambda t, x: box, 0.0, 0.0)
    sys_ = build_system(c.T, c, d, ms)
    try:
        box_vi_enumerate(d, c @ x0, lower, upper)
        expected = True
    except NoSolution:
        expected = False
    assert admissible(ms, sys_, x0) is expected


def test_admissible_rejects_a_newton_multiplier_lost_in_rounding():
    # Newton stops at mu ~ (-1.2e15, -2.4e14, 4.8e14) with a residual below
    # tol, but eps max|D| ||mu|| m is about 5, against tol (1 + ||q||) =
    # 3.6e-10, so that residual proves nothing; the face enumeration decides,
    # and no pattern is feasible
    d, c, x0, lower, upper = _NOISE_LEVEL_NEWTON
    box = Box(lower, upper)
    ms = GeneralMovingSet(lambda t, x: box, 0.0, 0.0)
    sys_ = build_system(c.T, c, d, ms)
    with pytest.raises(NoSolution):
        box_vi_enumerate(d, c @ x0, lower, upper)
    assert admissible(ms, sys_, x0) is False
    with pytest.raises(NoSolution):
        moving.solve_static_multiplier(box, c, d, x0)


@pytest.mark.parametrize("m", [8, 9])
def test_newton_multiplier_stands_on_a_large_well_scaled_problem(m):
    # D = 100 I, q = 1e5: eps max|D| ||mu|| m is about 5e-10, above tol but
    # far below tol (1 + ||q||) = 3e-5, so Newton's multiplier is no rounding
    # noise; m = 9 has no enumeration to fall back on, m = 8 would enumerate 3^8
    d, c, x0 = 100.0 * np.eye(m), np.eye(m), np.full(m, 1e5)
    box = Box(-np.ones(m), np.ones(m))
    ms = GeneralMovingSet(lambda t, x: box, 0.0, 0.0)
    sys_ = build_system(c.T, c, d, ms)
    mu, _, iterations = moving.solve_static_multiplier(box, c, d, x0)
    assert iterations < 10
    np.testing.assert_allclose(mu, (1e5 - 1.0) / 100.0, rtol=1e-14)
    assert admissible(ms, sys_, x0) is True
    step = solve_step(sys_, 0.1, x0, x0, 0.1)
    assert step.iterations < 10
    np.testing.assert_allclose(step.mu, (1e5 - 1.0) / 100.1, rtol=1e-14)
