"""Implicit step solver: closed forms, oracle agreement, contraction bounds."""

import dataclasses
import functools
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    FACE_KINDS,
    active_set_enumerate_loop,
    count_decompositions,
    random_box,
    random_psd,
    random_step_instance,
)
from luresim import (
    Box,
    DecomposedMovingSet,
    GeneralMovingSet,
    PassivityCertificate,
    Polyhedron,
    SolverOptions,
    admissible,
    box_vi_enumerate,
    brute_force_step_oracle,
    build_system,
    inner_solve_box,
    project,
    solve_static_multiplier,
    solve_step,
    step,
    whole_space,
)
from luresim.errors import (
    EmptySet,
    NoSolution,
    SolverDiverged,
    StepTooLarge,
    StepTooSmall,
)
from luresim.sets import as_box


def _static_box_system(b, c, d, box, **kw):
    m = np.atleast_2d(np.asarray(c, float)).shape[0]
    n = np.atleast_2d(np.asarray(c, float)).shape[1]
    ms = DecomposedMovingSet(
        lambda t, _box=box: _box, np.zeros((m, n)), lambda t, _z=np.zeros(m): _z
    )
    return build_system(b, c, d, ms, **kw)


def test_one_dimensional_sweeping_step():
    # K = (-inf, 0], B = C = 1, D = 0: the step lands on the constraint
    sys_ = _static_box_system([[1.0]], [[1.0]], [[0.0]], Box([-np.inf], [0.0]))
    res = solve_step(sys_, 0.5, np.array([1.0]), np.array([1.0]), 0.5)
    assert res.x_next == pytest.approx(0.0, abs=1e-12)
    assert res.mu == pytest.approx(2.0, abs=1e-12)
    assert np.allclose(res.lam, -res.mu)
    assert res.w == pytest.approx(0.0, abs=1e-12)
    assert res.residual <= 1e-10
    assert res.iterations >= 1


def test_interior_point_step_is_unconstrained():
    sys_ = _static_box_system([[1.0]], [[1.0]], [[0.0]], Box([-np.inf], [0.0]))
    res = solve_step(sys_, 0.5, np.array([-1.0]), np.array([-1.0]), 0.5)
    assert res.x_next == pytest.approx(-1.0, abs=1e-12)
    assert res.mu == pytest.approx(0.0, abs=1e-12)


def test_whole_space_step_is_rescaled_input():
    sys_ = _static_box_system(np.eye(2), np.eye(2), np.zeros((2, 2)), whole_space(2))
    y = np.array([0.7, -2.0])
    res = solve_step(sys_, 0.1, np.zeros(2), y, 0.1)
    # kappa = 0 here, so the step is the identity on y
    assert np.allclose(res.x_next, y, atol=1e-12)
    assert np.allclose(res.mu, 0.0)


def test_identity_reduction_step_is_projection():
    # B = C = I, D = 0 turns one implicit step into the metric projection
    rng = np.random.default_rng(2)
    for _ in range(25):
        n = int(rng.integers(1, 4))
        lo = rng.normal(size=n)
        box = Box(lo, lo + abs(rng.normal(size=n)) + 0.2)
        sys_ = _static_box_system(np.eye(n), np.eye(n), np.zeros((n, n)), box)
        y = 2.0 * rng.normal(size=n)
        res = solve_step(sys_, 0.0, np.zeros(n), y, 0.05)
        assert np.allclose(res.x_next, project(box, y), atol=1e-10)


def _triangle_system():
    tri = Polyhedron(np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]]),
                     np.array([1.0, 1.0, 1.0]))
    ms = GeneralMovingSet(lambda t, x: tri, 0.0, 0.0)
    return tri, build_system(np.eye(2), np.eye(2), np.zeros((2, 2)), ms)


def test_step_on_polyhedral_set_is_projection():
    tri, sys_ = _triangle_system()
    rng = np.random.default_rng(8)
    for _ in range(10):
        y = 2.0 * rng.normal(size=2)
        res = solve_step(sys_, 0.0, np.zeros(2), y, 0.05)
        assert np.allclose(res.x_next, project(tri, y), atol=1e-9)
        assert res.residual <= 1e-10


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("y_in", [[np.nan, 0.0], [1e308, 1e308], [np.inf, 0.0]])
def test_polyhedral_step_on_non_finite_data_names_it(y_in):
    # A q - b is NaN or overflows: no active set is to blame
    _, sys_ = _triangle_system()
    with pytest.raises(SolverDiverged, match="non-finite data in a polyhedral step"):
        solve_step(sys_, 0.0, np.zeros(2), np.array(y_in), 0.05)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("y_in", [[np.nan, 0.0], [0.0, np.nan], [np.inf, 0.0], [1e308, 1e308]])
def test_box_step_on_non_finite_data_names_it(y_in):
    # Newton starts at residual nan; face enumeration must not read that as
    # "no feasible active set", nor admissibility as a proof of none
    ms = GeneralMovingSet(lambda t, x: Box([-1.0, -1.0], [1.0, 1.0]), 0.0, 0.0)
    sys_ = build_system(np.eye(2), np.eye(2), np.zeros((2, 2)), ms)
    with pytest.raises(SolverDiverged, match="non-finite data in a box step"):
        solve_step(sys_, 0.0, np.zeros(2), np.array(y_in), 0.05)
    assert admissible(ms, sys_, y_in) is None


def _outcome(enumerate_, *args):
    try:
        return enumerate_(*args)
    except NoSolution:
        return None


def _assert_same_outcome(got, ref):
    assert (got is None) == (ref is None)
    if ref is not None:
        assert got[2] == ref[2]
        for x, y in zip(got[:2], ref[:2]):
            assert np.linalg.norm(x - y) <= 1e-9 * (1.0 + np.linalg.norm(y))


def _enumeration_matrix(rng, m):
    # M = 0 (the stationary inclusion with D = 0), or a rank-deficient PSD
    # part, possibly with a skew part, over a positive definite margin
    if rng.random() < 0.2:
        return np.zeros((m, m))
    return random_psd(rng, m) + rng.choice([0.05, 1.0]) * np.eye(m)


def test_active_set_enumerate_matches_loop_reference():
    # the stacked enumerator against the one-lstsq-per-subset loop it
    # replaced: same verdict and examined count, mu and w within 1e-9
    rng = np.random.default_rng(14)
    for draw in range(400):
        m, k = int(rng.integers(1, 5)), int(rng.integers(0, 17))
        a = rng.normal(size=(k, m))
        if k > 1 and rng.random() < 0.3:
            a[1] = rng.choice([1.0, -1.0, 2.0]) * a[0]  # exactly parallel rows
        b = rng.uniform(-0.5, 1.5, size=k)
        q = 2.0 * rng.normal(size=m)
        if draw % 50 == 0:
            q[0] = np.nan
        args = (a, b, _enumeration_matrix(rng, m), q, 1e-10)
        _assert_same_outcome(_outcome(step._active_set_enumerate, *args),
                             _outcome(active_set_enumerate_loop, *args))


def test_box_face_enumeration_matches_loop_reference(monkeypatch):
    # box_vi_enumerate's row groups, with infinite and pinned faces
    rng = np.random.default_rng(15)
    for _ in range(150):
        m = int(rng.integers(1, 6))
        box = random_box(rng, m)
        args = (_enumeration_matrix(rng, m), 2.0 * rng.normal(size=m),
                box.lower, box.upper)
        got = _outcome(box_vi_enumerate, *args)
        with monkeypatch.context() as patch:
            patch.setattr(step, "_active_set_enumerate", active_set_enumerate_loop)
            ref = _outcome(box_vi_enumerate, *args)
        _assert_same_outcome(got, ref)


def test_box_face_enumeration_memory_is_bounded():
    # 3^10 patterns; solved all at once, one size of them took about 34 MB
    tracemalloc.start()
    try:
        mu, _, examined = box_vi_enumerate(np.eye(10), np.zeros(10),
                                           -np.ones(10), np.ones(10))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not mu.any()
    assert examined == 3 ** 10
    assert peak < 16 * 2**20


def _ill_conditioned_enumeration(rng, case):
    # blocks the stacked solve must not certify for LU next to blocks it must
    m, k = int(rng.integers(2, 5)), int(rng.integers(3, 9))
    a = rng.normal(size=(k, m))
    m_mat = _enumeration_matrix(rng, m)
    q = 2.0 * rng.normal(size=m)
    if case == "near_parallel":
        a[1] = a[0] + 10.0 ** -rng.integers(7, 15) * rng.normal(size=m)
    elif case == "row_scales":
        a[int(rng.integers(k))] *= 1e8
    elif case == "singular_blocks":
        m_mat = random_psd(rng, m, rank=int(rng.integers(1, m)))
    elif case == "zero_row":
        a[int(rng.integers(k))] = 0.0
    else:
        q[int(rng.integers(m))] = np.nan
    return a, rng.uniform(-0.5, 1.5, size=k), m_mat, q, 1e-10


def _assert_enumeration_matches_loop(monkeypatch, case, draws):
    # LU on the certified blocks, pinv on the rest: every stack solved as
    # the stacked pinv solves it (to 1e-6, as LU is taken only where
    # cond_2 < 1e10), both routes taken, and the same verdict and examined
    # count as one lstsq per subset, mu and w within 1e-9
    pinv, stacked_solve = np.linalg.pinv, step._stacked_solve
    routed = {"solve": 0, "pinv": 0}
    for name in routed:
        def counted(lhs, *rest, _name=name, _real=getattr(np.linalg, name)):
            routed[_name] += len(lhs)
            return _real(lhs, *rest)
        monkeypatch.setattr(np.linalg, name, counted)

    def checked(lhs, rhs):
        nu, ref = stacked_solve(lhs, rhs), pinv(lhs) @ rhs
        err = np.linalg.norm(nu - ref, axis=(1, 2))
        assert not (err > 1e-6 * (1.0 + np.linalg.norm(ref, axis=(1, 2)))).any()
        assert (np.isnan(nu).any(axis=(1, 2)) == np.isnan(ref).any(axis=(1, 2))).all()
        return nu

    monkeypatch.setattr(step, "_stacked_solve", checked)
    rng = np.random.default_rng(19)
    for _ in range(draws):
        args = _ill_conditioned_enumeration(rng, case)
        _assert_same_outcome(_outcome(step._active_set_enumerate, *args),
                             _outcome(active_set_enumerate_loop, *args))
    assert routed["solve"] > 0
    assert routed["pinv"] > 0


@pytest.mark.parametrize("case", ["near_parallel", "singular_blocks",
                                  "zero_row", "nan_q"])
def test_stacked_solve_matches_loop_reference_on_ill_conditioned_blocks(
        monkeypatch, case):
    # singular_blocks flips a verdict at the residual bound on about 1 draw
    # in 1,000, with the stacked pinv as with LU: a block of cond_2 near 1e8
    # leaves a residual within rounding of tol (1 + max|q| + max|b|)
    _assert_enumeration_matches_loop(monkeypatch, case, 40)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "the enumerator's residual, sign and slack bounds are absolute in row "
    "units: with one row scaled by 1e8 the rounding of its Gram entries "
    "exceeds them, and about 2% of verdicts flip between the stacked and "
    "the loop enumerator, with the stacked pinv as with LU"))
def test_row_scaled_by_1e8_keeps_the_loop_references_verdict(monkeypatch):
    _assert_enumeration_matches_loop(monkeypatch, "row_scales", 400)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_box_face_enumeration_of_huge_blocks_is_silent():
    # det and ||block||_F^s overflow at M = 1e160 I; pinv solves such blocks
    q = np.array([2.0, -3.0, 0.5])
    mu, _, examined = box_vi_enumerate(1e160 * np.eye(3), 1e160 * q,
                                       -np.ones(3), np.ones(3))
    assert np.allclose(mu, q)
    assert examined == 27


@functools.cache
def _loop_reference_cases():
    # the draws of test_active_set_enumerate_matches_loop_reference and
    # test_box_face_enumeration_matches_loop_reference, each with the loop
    # reference's outcome, computed once for every chunk size
    rng = np.random.default_rng(14)
    rows = []
    for draw in range(400):
        m, k = int(rng.integers(1, 5)), int(rng.integers(0, 17))
        a = rng.normal(size=(k, m))
        if k > 1 and rng.random() < 0.3:
            a[1] = rng.choice([1.0, -1.0, 2.0]) * a[0]
        b = rng.uniform(-0.5, 1.5, size=k)
        q = 2.0 * rng.normal(size=m)
        if draw % 50 == 0:
            q[0] = np.nan
        args = (a, b, _enumeration_matrix(rng, m), q, 1e-10)
        rows.append((args, _outcome(active_set_enumerate_loop, *args)))
    rng = np.random.default_rng(15)
    boxes = []
    for _ in range(150):
        m = int(rng.integers(1, 6))
        box = random_box(rng, m)
        args = (_enumeration_matrix(rng, m), 2.0 * rng.normal(size=m),
                box.lower, box.upper)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(step, "_active_set_enumerate", active_set_enumerate_loop)
            boxes.append((args, _outcome(box_vi_enumerate, *args)))
    return rows, boxes


@pytest.mark.parametrize("chunk", [1, 5, 7])
def test_enumeration_across_chunk_boundaries_matches_loop_reference(
        monkeypatch, chunk):
    # stacks of `chunk` subsets mix sizes and pad widths. Each draw runs
    # first at the default chunk and fills the plan cache; a plan holds all
    # its shape's subsets, so under `chunk` it may be served only to a shape
    # of at most `chunk` subsets, and no stack may be larger
    rows, boxes = _loop_reference_cases()
    stacked_solve = step._stacked_solve

    def bounded(lhs, rhs):
        assert len(lhs) <= chunk
        return stacked_solve(lhs, rhs)

    for enumerate_, cases in ((step._active_set_enumerate, rows),
                              (box_vi_enumerate, boxes)):
        for args, ref in cases:
            _assert_same_outcome(_outcome(enumerate_, *args), ref)
            with monkeypatch.context() as patch:
                patch.setattr(step, "ENUM_CHUNK", chunk)
                patch.setattr(step, "_stacked_solve", bounded)
                _assert_same_outcome(_outcome(enumerate_, *args), ref)


@pytest.mark.parametrize("merge", [0, 3])
def test_stack_merge_matches_loop_reference(monkeypatch, merge):
    # merge 0 solves one size per stack, 3 pads only the smallest stacks;
    # a stack's subsets narrower than its widest were all held before it
    # took in the widest size, so there are at most `merge` of them
    rows, boxes = _loop_reference_cases()
    stack = step._stack

    def checked(parts, k):
        assert sum(map(len, parts[:-1])) <= merge
        return stack(parts, k)

    monkeypatch.setattr(step, "STACK_MERGE", merge)
    monkeypatch.setattr(step, "_stack", checked)
    step._subset_plan.cache_clear()  # plans built under another merge
    try:
        for enumerate_, cases in ((step._active_set_enumerate, rows),
                                  (box_vi_enumerate, boxes)):
            for args, ref in cases:
                _assert_same_outcome(_outcome(enumerate_, *args), ref)
    finally:
        step._subset_plan.cache_clear()


def _scaled_enumeration(rng, case):
    # subsets narrower than m are padded; "small" and "large" put blocks of
    # cond_2 up to about 1e8 (two nearly parallel rows) at a scale far from
    # 1, "zero_diagonal" puts [[0, 1e-3], [1e-3, 0]] on the faces e_0, e_1
    m, k = int(rng.integers(3, 5)), int(rng.integers(4, 9))
    if case == "zero_diagonal":
        faces = np.concatenate([np.eye(m), -np.eye(m)])
        a = faces[np.concatenate([[0, 1], 2 + rng.permutation(2 * m - 2)[:k - 2]])]
        m_mat = np.zeros((m, m))
        m_mat[0, 1] = m_mat[1, 0] = 1e-3
        m_mat[2:, 2:] = random_psd(rng, m - 2, rank=m - 2) + np.eye(m - 2)
    else:
        a = rng.normal(size=(k, m))
        a[1] = a[0] + 10.0 ** -rng.integers(1, 5) * rng.normal(size=m)
        m_mat = (1e-8 if case == "small" else 1e8) * _enumeration_matrix(rng, m)
    return a, rng.uniform(-0.5, 1.5, size=len(a)), m_mat, 2.0 * rng.normal(size=m), 1e-10


@pytest.mark.parametrize("case", ["small", "large", "zero_diagonal"])
def test_padded_blocks_solve_as_their_real_blocks(monkeypatch, case):
    # the pads' diagonal follows the block's scale, so the real part of
    # every padded answer is pinv(B) r of the unpadded block B and the pad
    # part is 0
    stacked_solve, sizes, padded = step._stacked_solve, [], []

    def checked(lhs, rhs):
        nu = stacked_solve(lhs, rhs)
        stack, sizes[:] = sizes[:len(lhs)], sizes[len(lhs):]
        padded.extend(size < lhs.shape[1] for size in stack)
        for block, size in enumerate(stack):
            real = slice(0, size)
            ref = np.linalg.pinv(lhs[block, real, real]) @ rhs[block, real]
            err = np.linalg.norm(nu[block, real] - ref)
            assert not err > 1e-6 * (1.0 + np.linalg.norm(ref))
            assert not nu[block, size:].any()
        return nu

    monkeypatch.setattr(step, "_stacked_solve", checked)
    rng = np.random.default_rng(20)
    for _ in range(40):
        args = _scaled_enumeration(rng, case)
        k, m = args[0].shape
        sizes[:] = [size for size in range(1, m + 1)
                    for _ in itertools.combinations(range(k), size)]
        _assert_same_outcome(_outcome(step._active_set_enumerate, *args),
                             _outcome(active_set_enumerate_loop, *args))
        assert not sizes
    assert any(padded)


def test_subset_plan_cache_is_bounded():
    # a counter, not a timer: distinct shapes past maxsize evict, a repeat
    # shape hits, and a shape of more than ENUM_CHUNK subsets (a box at
    # m = 8, 6,561 patterns) streams without touching the cache
    plan = step._subset_plan
    plan.cache_clear()
    maxsize = plan.cache_info().maxsize
    for k in range(1, maxsize + 6):
        step._active_set_enumerate(np.ones((k, 1)), np.ones(k), np.eye(1),
                                   np.zeros(1), 1e-10)
    info = plan.cache_info()
    assert info.misses == maxsize + 5
    assert info.currsize == maxsize
    step._active_set_enumerate(np.ones((maxsize + 5, 1)), np.ones(maxsize + 5),
                               np.eye(1), np.zeros(1), 1e-10)
    assert plan.cache_info().hits == info.hits + 1
    info = plan.cache_info()
    _, _, examined = box_vi_enumerate(np.eye(8), np.zeros(8), -np.ones(8), np.ones(8))
    assert examined == 3 ** 8
    assert plan.cache_info() == info


def test_subset_plan_cache_memory_is_bounded():
    # the cache filled with the plans of most subset entries it can hold
    # (10 rows up to 10 wide, 1,023 subsets, and the like) keeps about 3.4 MB
    shapes = sorted(((k, top) for k in range(1, step.ENUM_CHUNK + 1)
                     for top in range(1, min(k, 12) + 1)
                     if step._subset_count(None, k, top) <= step.ENUM_CHUNK),
                    key=lambda shape: -sum(math.comb(shape[0], s) * s * s
                                           for s in range(1, shape[1] + 1)))
    step._subset_plan.cache_clear()
    tracemalloc.start()
    try:
        for k, top in shapes[:step.PLAN_CACHE_SIZE]:
            step._subset_plan(None, k, top)
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
        step._subset_plan.cache_clear()
    assert shapes[0] == (10, 10)
    assert kept < 8 * 2**20


def test_box_vi_enumerate_frozen_cases():
    mu, w, examined = box_vi_enumerate(np.array([[1.0]]), np.array([2.0]),
                                       np.array([-1.0]), np.array([1.0]))
    assert mu == pytest.approx(1.0)
    assert w == pytest.approx(1.0)
    assert examined <= 3
    mu, w, _ = box_vi_enumerate(np.eye(2), np.array([2.0, -3.0]),
                                np.array([-1.0, -1.0]), np.array([1.0, 1.0]))
    assert np.allclose(mu, [1.0, -2.0])
    assert np.allclose(w, [1.0, -1.0])
    # coordinate 0 has no lower face, coordinate 1 is pinned: one pattern
    # per choice of at most one finite face of each coordinate
    lower = np.array([-np.inf, 0.5, -1.0])
    upper = np.array([1.0, 0.5, 1.0])
    m_mat = np.array([[2.0, 0.5, 0.0], [-0.5, 1.0, 0.25], [0.0, -0.25, 1.5]])
    mu, w, examined = box_vi_enumerate(m_mat, np.array([0.5, 0.0, -2.5]),
                                       lower, upper)
    faces = np.isfinite(lower).astype(int) + np.isfinite(upper)
    assert examined == np.prod(1 + faces) == 18
    # coordinate 0 free, 1 on its pinned face, 2 on its lower face
    assert np.allclose(mu, [0.0, -0.24, -1.04], rtol=0.0, atol=1e-12)
    assert np.allclose(w, [0.62, 0.5, -1.0], rtol=0.0, atol=1e-12)


def test_box_vi_enumerate_infeasible_raises():
    # zero row of M pins w_1 = q_1 outside the box
    m_mat = np.array([[0.0, 0.0], [0.0, 1.0]])
    with pytest.raises(NoSolution):
        box_vi_enumerate(m_mat, np.array([0.0, 0.5]),
                         np.array([0.5, -1.0]), np.array([1.0, 1.0]))


def test_box_vi_enumerate_cap_is_not_a_verdict():
    # above m = 12 no pattern is examined; mu = 0 solves this instance, so
    # the cap must not claim that no multiplier exists
    with pytest.raises(SolverDiverged, match="capped at m = 12") as info:
        box_vi_enumerate(np.eye(13), np.zeros(13), -np.ones(13), np.ones(13))
    assert not isinstance(info.value, NoSolution)


def test_inner_solver_matches_enumeration():
    rng = np.random.default_rng(21)
    for _ in range(120):
        m = int(rng.integers(1, 4))
        g = rng.normal(size=(m, m))
        w_skew = rng.normal(size=(m, m))
        m_mat = g @ g.T + 0.2 * np.eye(m) + 0.3 * (w_skew - w_skew.T)
        q = 2.0 * rng.normal(size=m)
        lo = rng.normal(size=m)
        up = lo + abs(rng.normal(size=m)) + 0.1
        mu_fast, w_fast, _ = inner_solve_box(m_mat, q, Box(lo, up))
        mu_slow, w_slow, _ = box_vi_enumerate(m_mat, q, lo, up)
        assert np.allclose(mu_fast, mu_slow, atol=1e-8)
        assert np.allclose(w_fast, w_slow, atol=1e-8)


def test_solve_step_matches_oracle_sample():
    # small version of the acceptance sweep, same instance family
    rng = np.random.default_rng(77)
    for _ in range(60):
        sys_, t_next, x_prev, y_in, h = random_step_instance(rng)
        res = solve_step(sys_, t_next, x_prev, y_in, h)
        ora = brute_force_step_oracle(sys_, t_next, x_prev, y_in, h)
        scale = 1.0 + np.linalg.norm(ora.x_next)
        assert np.linalg.norm(res.x_next - ora.x_next) <= 1e-8 * scale
        assert np.linalg.norm(sys_.B @ (res.mu - ora.mu)) <= 1e-8 * scale


@st.composite
def _step_instances(draw):
    # the structure is drawn (and shrunk) here, the numbers by the seed
    m = draw(st.integers(1, 3))
    family = draw(st.sampled_from("rp"))
    rank = draw(st.integers(0, m))
    kinds = draw(st.lists(st.sampled_from(FACE_KINDS), min_size=m, max_size=m))
    offset = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return random_step_instance(rng, m=m, family=family, rank=rank,
                                kinds=kinds, offset=offset)


@settings(max_examples=300, deadline=None)
@given(_step_instances())
def test_solve_step_matches_oracle_property(instance):
    # the criterion-1 bounds, relative to 1 + ||x_next||
    sys_, t_next, x_prev, y_in, h = instance
    res = solve_step(sys_, t_next, x_prev, y_in, h)
    ora = brute_force_step_oracle(sys_, t_next, x_prev, y_in, h)
    scale = 1.0 + np.linalg.norm(ora.x_next)
    assert np.linalg.norm(res.x_next - ora.x_next) <= 1e-8 * scale
    assert np.linalg.norm(sys_.B @ (res.mu - ora.mu)) <= 1e-8 * scale


def test_box_and_its_polyhedron_step_alike():
    # one set two ways: as a Box (Newton) and as the Polyhedron of its
    # finite faces (active-set enumeration), under the same offset H x + g
    rng = np.random.default_rng(53)
    for _ in range(40):
        m = int(rng.integers(1, 4))
        kinds = list(rng.choice(FACE_KINDS, size=m))
        if not {"no_lower", "no_upper"} & set(kinds):
            kinds[int(rng.integers(m))] = "no_lower"
        sys_, t_next, x_prev, y_in, h = random_step_instance(
            rng, m=m, kinds=kinds, offset=True)
        box = sys_.K.base(t_next)
        eye = np.eye(m)
        up, lo = np.isfinite(box.upper), np.isfinite(box.lower)
        poly = Polyhedron(np.vstack([eye[up], -eye[lo]]),
                          np.concatenate([box.upper[up], -box.lower[lo]]))
        ms = DecomposedMovingSet(lambda t, _p=poly: _p, sys_.K.h_matrix, sys_.K.g)
        poly_sys = build_system(sys_.B, sys_.C, sys_.D, ms)
        # as_box routes a box to Newton and anything else to enumeration
        assert as_box(poly_sys.K.at(t_next, x_prev)) is None
        assert as_box(sys_.K.at(t_next, x_prev)) is not None
        got = solve_step(poly_sys, t_next, x_prev, y_in, h)
        ref = solve_step(sys_, t_next, x_prev, y_in, h)
        for a, b in ((got.x_next, ref.x_next), (got.w, ref.w)):
            assert np.linalg.norm(a - b) <= 1e-9 * (1.0 + np.linalg.norm(b))


def test_flat_polyhedron_far_from_the_point_steps_like_its_box():
    # rng key [298, 9] of the family above, as literals: two pinned
    # coordinates make two pairs of opposite rows, and the cone residual
    # projects a point about 325 away from that flat set
    box = Box([-np.inf, 1.3952080301743912, 2.2678790961707023],
              [0.4104747450379142, 1.3952080301743912, 2.2678790961707023])
    h_mat = np.array([
        [0.2515528591499832, 0.23179891392949373, -0.11908363679186096, 0.02408528239859476],
        [-0.40558237753650633, -1.1240505260504097, 0.22065549804488008, 0.7853841117238818],
        [0.44971709467784926, -0.10398629446920364, -0.19309578750386214, 0.6125032796585276]])
    g = np.array([-1.0499251767546602, -0.4762580992133779, 1.2275509541908165])
    b_mat = np.array([
        [0.5800905885173975, 0.12245099150041983, 0.21227584923391507],
        [0.08633137146853483, 0.5793983413042961, 1.0643110651057837],
        [0.7845464182613585, -0.9775970281346453, 0.18159040154450812],
        [1.3135092649357656, 2.0441127709940954, 1.2101307748517427]])
    c_mat = np.array([
        [0.9082841365874921, 0.15457166589098462, 0.6289002413460307, 1.3559155224199473],
        [-0.4535142250820309, 0.1482145252418581, 0.2980788805286836, 1.3391428575784892],
        [0.7666650564749766, 0.9644226390583612, 0.6113056037180145, 0.8461233372669109]])
    d_mat = np.array([
        [0.19980886572564896, -0.9391859192468015, -0.06909040293973102],
        [-0.9391859192468015, 4.432793056745979, 0.3373442934537947],
        [-0.06909040293973102, 0.3373442934537947, 0.03258875650463507]])
    x_prev = np.array([0.23115537459400382, 0.9915004056648788, 1.4416019005267304,
                       0.1424610388698941])
    y_in = np.array([-0.3776914359880349, -0.44624331307175147, -0.13089574776310822,
                     1.1566241899833138])
    h = 0.05
    eye = np.eye(3)
    poly = Polyhedron(np.vstack([eye, -eye[1:]]),
                      np.concatenate([box.upper, -box.lower[1:]]))
    steps = []
    for k_set in (box, poly):
        ms = DecomposedMovingSet(lambda t, _k=k_set: _k, h_mat, lambda t: g)
        steps.append(solve_step(build_system(b_mat, c_mat, d_mat, ms), 0.0, x_prev, y_in, h))
    ref, got = steps
    assert ref.residual <= 1e-12 and got.residual <= 1e-12
    for a, b in ((got.x_next, ref.x_next), (got.w, ref.w)):
        assert np.linalg.norm(a - b) <= 1e-9 * (1.0 + np.linalg.norm(b))


def test_resolvent_nonexpansive_when_output_is_transposed_input():
    # with C = B^T, P = I the step map is nonexpansive in y (kappa = 0)
    rng = np.random.default_rng(31)
    for _ in range(80):
        n = int(rng.integers(1, 5))
        m = int(rng.integers(1, 4))
        b = rng.normal(size=(n, m))
        g = rng.normal(size=(m, m))
        d = g @ g.T + 0.05 * np.eye(m)
        lo = rng.normal(size=m)
        box = Box(lo, lo + abs(rng.normal(size=m)) + 0.2)
        sys_ = _static_box_system(b, b.T, d, box)
        assert sys_.kappa == 0.0
        x_prev = rng.normal(size=n)
        y1 = 2.0 * rng.normal(size=n)
        y2 = 2.0 * rng.normal(size=n)
        h = 0.05
        r1 = solve_step(sys_, 0.0, x_prev, y1, h)
        r2 = solve_step(sys_, 0.0, x_prev, y2, h)
        lhs = np.linalg.norm(r1.x_next - r2.x_next)
        rhs = np.linalg.norm(y1 - y2)
        assert lhs <= rhs * (1.0 + 1e-9) + 1e-12


def test_multiplier_monotonicity_across_inputs():
    # mu in N_K(w) at two solutions of the same inclusion: <dmu, dw> >= 0
    rng = np.random.default_rng(41)
    for _ in range(60):
        sys_, t_next, x_prev, _, h = random_step_instance(rng)
        y1 = 1.5 * rng.normal(size=sys_.n)
        y2 = 1.5 * rng.normal(size=sys_.n)
        r1 = solve_step(sys_, t_next, x_prev, y1, h)
        r2 = solve_step(sys_, t_next, x_prev, y2, h)
        gap = float((r1.mu - r2.mu) @ (r1.w - r2.w))
        scale = (1.0 + np.linalg.norm(r1.mu) + np.linalg.norm(r2.mu)) * (
            1.0 + np.linalg.norm(r1.w) + np.linalg.norm(r2.w))
        assert gap >= -1e-8 * scale


def test_minimal_norm_multiplier_on_rank_deficient_channel():
    # column 1 of B is zero, so the returned multiplier keeps that channel 0
    b = np.array([[0.0, 0.0], [0.0, 1.0]])
    sys_ = _static_box_system(b, b, b, Box([-1.0, -1.0], [1.0, 1.0]))
    res = solve_step(sys_, 0.0, np.zeros(2), np.array([0.5, 2.0]), 0.01)
    assert res.mu[0] == pytest.approx(0.0, abs=1e-12)
    assert res.mu[1] > 0.0
    assert res.w[1] == pytest.approx(1.0, abs=1e-10)


def test_static_multiplier_solve():
    mu, w, iters = solve_static_multiplier(
        Box([-1.0], [1.0]), np.array([[1.0]]), np.array([[1.0]]), np.array([3.0])
    )
    assert mu == pytest.approx(2.0, abs=1e-12)
    assert w == pytest.approx(1.0, abs=1e-12)
    assert iters >= 1


def test_step_size_guards():
    sys_ = _static_box_system([[1.0]], [[1.0]], [[0.0]], Box([-1.0], [1.0]))
    with pytest.raises(StepTooSmall):
        solve_step(sys_, 0.0, np.array([0.0]), np.array([0.0]), 1e-15)
    # defensive guard for a hand-made certificate with positive shift
    bad_cert = PassivityCertificate(P=np.eye(1), kappa=800.0, c1=None,
                                    c2=1.0, alpha=1.0)
    bad_sys = dataclasses.replace(sys_, cert=bad_cert)
    with pytest.raises(StepTooLarge):
        solve_step(bad_sys, 0.0, np.array([0.0]), np.array([0.0]), 0.01)


def test_step_reports_divergence_on_infeasible_channel():
    # channel 1 of this tuple is passive dead weight: row 1 of C B and of D
    # vanish, pinning w_1 = 0; a box with lower bound 0.5 on that channel is
    # unreachable and the inner solver must say so
    b = np.array([[0.0, 0.0], [0.0, 1.0]])
    sys_ = _static_box_system(b, b, b, Box([0.5, -1.0], [1.0, 1.0]))
    with pytest.raises(SolverDiverged, match="no multiplier"):
        solve_step(sys_, 0.0, np.zeros(2), np.array([0.0, 0.0]), 0.01)


def test_solver_options_tolerance_is_respected():
    sys_ = _static_box_system([[1.0]], [[1.0]], [[0.0]], Box([-np.inf], [0.0]))
    loose = solve_step(sys_, 0.5, np.array([1.0]), np.array([1.0]), 0.5,
                       SolverOptions(tol=1e-6))
    tight = solve_step(sys_, 0.5, np.array([1.0]), np.array([1.0]), 0.5,
                       SolverOptions(tol=1e-12))
    assert loose.residual <= 1e-6
    assert tight.residual <= 1e-12


def test_stalled_newton_falls_back_to_exact_enumeration():
    # criterion-1 draws on which Newton stalls: M's symmetric part has margin
    # 2e-4 and one pinned face; draw 1952 of the unfiltered family (seed 1)
    # has D = 0 and two infinite lower faces. The step finishes through the
    # exact face enumeration, which is the oracle too, so it lands on the
    # oracle's state; the independent check is the recomputed residual.
    b2 = np.array([[1.388141303966885, 1.2968402206649108, -0.7049278217362794],
                   [0.28145003250401746, 0.558322213412385, 0.4967659665398838],
                   [-0.5308296902278883, 1.0924250465103884, 1.9591457402115147]])
    cases = [
        (np.array([[1.4452674548189457, -1.1678148948708298],
                   [0.5206268056678015, 2.1554453182741473]]),
         np.array([[0.2301556013528869, 0.49780463877395403],
                   [0.6821493562508779, 1.7988206650495813]]),
         np.array([[3.0812601446264427, -0.4448607877762083],
                   [-0.48614716479129605, 0.07042434862725722]]),
         Box([-2.1289093147905493, 1.4752886364561606],
             [-0.4291144242882463, 1.4752886364561606]),
         [1.372385286036983, -0.43261073608142353],
         [-2.1038332837075693, -0.3366400811574826]),
        (b2, b2.T, np.zeros((3, 3)),
         Box([-np.inf, -np.inf, -1.6792266137103515],
             [-0.6784875343474991, 0.2765176452162721, -0.7829533861742229]),
         [-0.35615690936154293, -1.6530754884542205, -1.9125401349056654],
         [0.06498081109502366, 1.295007459107402, 1.6268264376413142]),
    ]
    opts = SolverOptions()
    for b, c, d, box, x_prev, y_in in cases:
        sys_ = _static_box_system(b, c, d, box)
        res = solve_step(sys_, 0.0, x_prev, y_in, 0.05, opts)
        assert res.residual <= opts.tol
        ref = brute_force_step_oracle(sys_, 0.0, x_prev, y_in, 0.05)
        gap = np.linalg.norm(res.x_next - ref.x_next)
        assert gap <= 1e-13 * np.linalg.norm(ref.x_next)
        assert np.allclose(res.mu, ref.mu, rtol=1e-12, atol=1e-8)


def test_translation_overflowing_a_box_bound_is_reported_as_empty():
    # the step hands as_box's translated bounds to the solver without
    # re-validating them; the one way they can be invalid (a finite bound
    # overflowing to an empty interval) still surfaces as EmptySet
    ms = DecomposedMovingSet(
        lambda t: Box([1e308], [1e308]), np.zeros((1, 1)),
        lambda t: np.array([1e308]),
    )
    sys_ = build_system([[1.0]], [[1.0]], [[1.0]], ms)
    with np.errstate(over="ignore", invalid="raise"):
        with pytest.raises(EmptySet):
            solve_step(sys_, 0.1, np.zeros(1), np.zeros(1), 0.1)


def test_zero_multiplier_step_runs_no_eigendecomposition(monkeypatch):
    # the minimal-norm polish keeps a zero multiplier, so a step whose mu is
    # exactly 0 never needs the range projector of D + D^T (an eigh); a step
    # with an active face does
    d = np.array([[1.0, 1.0], [1.0, 1.0]])
    sys_ = _static_box_system(np.eye(2), np.eye(2), d, Box([-1.0, -1.0], [1.0, 1.0]))
    counts = count_decompositions(monkeypatch)
    inside = solve_step(sys_, 0.1, np.zeros(2), np.array([0.2, -0.3]), 0.1)
    assert not inside.mu.any()
    assert counts["eigh"] == 0
    outside = solve_step(sys_, 0.1, np.zeros(2), np.array([3.0, 0.0]), 0.1)
    assert outside.mu.any()
    assert counts["eigh"] == 1
