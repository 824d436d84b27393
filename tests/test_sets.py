"""Convex set primitives: projections, distances, support points."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from luresim import (
    Box,
    Polyhedron,
    Translate,
    contains,
    distance,
    hausdorff_box,
    hausdorff_sampled,
    normal_cone_residual,
    project,
    project_enumerate,
    support_point,
    whole_space,
)
from luresim.errors import DimensionMismatch, EmptySet, InfiniteDistance, Unbounded
from luresim.sets import as_box, dim

UNIT_BOX = Box([-1.0, -1.0], [1.0, 1.0])
HALFSPACE = Polyhedron([[1.0, 1.0]], [0.0])
DIAMOND = Polyhedron(
    [[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]],
    [1.0, 1.0, 1.0, 1.0],
)


def test_dim_and_whole_space():
    assert dim(UNIT_BOX) == 2
    assert dim(whole_space(3)) == 3
    assert dim(Translate(UNIT_BOX, [1.0, 1.0])) == 2
    p = np.array([3.0, -4.0, 5.0])
    assert np.array_equal(project(whole_space(3), p), p)
    assert distance(whole_space(3), p) == 0.0


def test_as_box_folds_translations():
    lo, up = as_box(Translate(UNIT_BOX, [2.0, 0.5]))
    assert np.allclose(lo, [1.0, -0.5])
    assert np.allclose(up, [3.0, 1.5])
    assert as_box(HALFSPACE) is None


def test_box_projection_is_clamp():
    assert np.allclose(project(UNIT_BOX, [2.0, -3.0]), [1.0, -1.0])
    assert np.allclose(project(UNIT_BOX, [0.3, 0.4]), [0.3, 0.4])


def test_halfspace_projection_value():
    assert np.allclose(project(HALFSPACE, [1.0, 1.0]), [0.0, 0.0], atol=1e-12)
    # interior points are fixed
    assert np.allclose(project(HALFSPACE, [-1.0, 0.0]), [-1.0, 0.0])


def test_translate_projection_shifts():
    off = np.array([1.0, 1.0])
    p = np.array([2.5, -3.0])
    expected = project(UNIT_BOX, p - off) + off
    assert np.allclose(project(Translate(UNIT_BOX, off), p), expected)


def test_projection_on_empty_polyhedron_raises():
    empty = Polyhedron([[1.0, 0.0], [-1.0, 0.0]], [-1.0, -1.0])
    with pytest.raises(EmptySet):
        project(empty, [0.0, 0.0])


def test_distance_and_contains():
    assert distance(UNIT_BOX, [2.0, 0.0]) == pytest.approx(1.0)
    assert contains(UNIT_BOX, [1.0, 1.0])
    assert not contains(UNIT_BOX, [1.0 + 1e-6, 0.0])
    assert contains(DIAMOND, [0.5, 0.5])
    assert not contains(DIAMOND, [0.75, 0.5])
    # a point of the wrong length is rejected, not broadcast
    for s in (Box([0.0, 0.0], [1.0, 1.0]), Translate(Box([0.0, 0.0], [1.0, 1.0]), [1.0, 0.0]),
              DIAMOND, Translate(DIAMOND, [1.0, 0.0])):
        with pytest.raises(DimensionMismatch):
            contains(s, [0.5])


def test_normal_cone_residual_box():
    k = Box([-1.0], [1.0])
    assert normal_cone_residual(k, [1.0], [2.0]) == pytest.approx(0.0)
    # inward multiplier at the upper face is not in the cone
    assert normal_cone_residual(k, [1.0], [-2.0]) == pytest.approx(2.0)
    assert normal_cone_residual(k, [0.0], [0.0]) == pytest.approx(0.0)
    assert normal_cone_residual(k, [0.0], [1.0]) == pytest.approx(1.0)


def test_hausdorff_box_shifted_squares():
    other = Box([0.0, 0.0], [2.0, 2.0])
    assert hausdorff_box(UNIT_BOX, other) == pytest.approx(np.sqrt(2.0))
    assert hausdorff_box(UNIT_BOX, UNIT_BOX) == 0.0


def test_hausdorff_box_halflines():
    a = Box([0.0], [np.inf])
    b = Box([1.0], [np.inf])
    assert hausdorff_box(a, b) == pytest.approx(1.0)
    with pytest.raises(InfiniteDistance):
        hausdorff_box(a, Box([0.0], [1.0]))


def test_support_point_box():
    assert np.allclose(support_point(UNIT_BOX, [1.0, -1.0]), [1.0, -1.0])
    # zero components pick the representative closest to the origin
    assert np.allclose(support_point(Box([2.0, -1.0], [3.0, 1.0]), [0.0, 1.0]),
                       [2.0, 1.0])
    with pytest.raises(Unbounded):
        support_point(Box([0.0], [np.inf]), [1.0])
    with pytest.raises(DimensionMismatch):
        support_point(Translate(UNIT_BOX, [1.0, 0.0]), [1.0])


def test_support_point_polyhedron():
    pt = support_point(DIAMOND, [1.0, 0.0])
    assert pt[0] == pytest.approx(1.0, abs=1e-9)
    with pytest.raises(Unbounded):
        support_point(Polyhedron([[1.0, 0.0]], [0.0]), [0.0, 1.0])
    with pytest.raises(EmptySet):
        support_point(Polyhedron([[1.0, 0.0], [-1.0, 0.0]], [-1.0, -1.0]),
                      [1.0, 0.0])
    # b > 0 puts the origin inside this set, which is unbounded along d;
    # HiGHS labels its support LP infeasible (status 2) all the same
    a = [[0.37230415282838086, 1.1874975825568248, -0.31722643536306594],
         [-0.9802912084453098, 0.28703714460592966, 0.029364547332811883],
         [-0.11398169207132029, 0.445605570504159, 0.044735176059035875],
         [-0.3368640534127228, 0.9647309191332266, -1.7639986742372946],
         [-1.074094774855252, -0.26381799726794425, -1.2936110807947319]]
    b = [1.5379055643386763, 2.1984231844235063, 0.7644913336083365,
         0.6333336131195396, 0.4156975752493911]
    with pytest.raises(Unbounded):
        support_point(Polyhedron(a, b), [0.39486781032706925, -0.5581148389313347,
                                         -0.7029835778586547])
    with pytest.raises(DimensionMismatch):
        support_point(DIAMOND, [1.0, 0.0, 0.0])


def test_hausdorff_sampled_translation_is_exact():
    shifted = Translate(UNIT_BOX, [1.0, 0.0])
    est = hausdorff_sampled(UNIT_BOX, shifted)
    assert est == pytest.approx(1.0, abs=1e-12)


def test_hausdorff_sampled_diamond_in_box():
    # one-sided deviation: the box corner (1,1) is sqrt(2)/2 from the diamond
    est = hausdorff_sampled(UNIT_BOX, DIAMOND, count=64)
    assert est == pytest.approx(np.sqrt(0.5), abs=1e-9)


def test_hausdorff_sampled_monotone_in_count():
    est8 = hausdorff_sampled(UNIT_BOX, DIAMOND, count=8)
    est64 = hausdorff_sampled(UNIT_BOX, DIAMOND, count=64)
    est256 = hausdorff_sampled(UNIT_BOX, DIAMOND, count=256)
    assert est8 <= est64 + 1e-15
    assert est64 <= est256 + 1e-15


def test_hausdorff_sampled_below_box_formula():
    rng = np.random.default_rng(3)
    for _ in range(25):
        m = int(rng.integers(1, 4))
        lo1 = rng.normal(size=m)
        lo2 = rng.normal(size=m)
        b1 = Box(lo1, lo1 + abs(rng.normal(size=m)) + 0.1)
        b2 = Box(lo2, lo2 + abs(rng.normal(size=m)) + 0.1)
        assert hausdorff_sampled(b1, b2) <= hausdorff_box(b1, b2) + 1e-9


def test_projection_matches_enumeration_oracle():
    rng = np.random.default_rng(11)
    for _ in range(60):
        m = int(rng.integers(1, 4))
        k = int(rng.integers(1, 5))
        a = rng.normal(size=(k, m))
        b = abs(rng.normal(size=k)) + 0.1  # feasible: contains the origin
        poly = Polyhedron(a, b)
        p = 2.0 * rng.normal(size=m)
        fast = project(poly, p)
        slow = project_enumerate(poly, p)
        assert np.allclose(fast, slow, atol=1e-8)


def _random_polyhedron(rng):
    # m <= 4, k <= 8; a third hold the origin, and about half of the rest
    # are empty
    m, k = int(rng.integers(1, 5)), int(rng.integers(1, 9))
    a = rng.normal(size=(k, m))
    if rng.random() < 1.0 / 3.0:
        return a, np.abs(rng.normal(size=k)) + 0.1
    return a, rng.normal(size=k) - 1.0


def _flat_polyhedron(rng):
    # pinned coordinate pairs (e_i.y <= c_i, -e_i.y <= -c_i) and extra rows
    # that keep the pinned point inside, rotated half of the time
    m = int(rng.integers(2, 5))
    pins = rng.choice(m, size=int(rng.integers(1, m)), replace=False)
    center = np.zeros(m)
    center[pins] = rng.normal(size=pins.size)
    eye = np.eye(m)
    extra = rng.normal(size=(int(rng.integers(0, 4)), m))
    a = np.vstack([eye[pins], -eye[pins], extra])
    b = np.concatenate([center[pins], -center[pins],
                        extra @ center + np.abs(rng.normal(size=len(extra))) + 0.1])
    if rng.random() < 0.5:
        rot = np.linalg.qr(rng.normal(size=(m, m)))[0]
        a = a @ rot.T
    return a, b


def _projection_or_empty(fn, poly, p):
    try:
        return fn(poly, p)
    except EmptySet:
        return None


def test_projection_matches_enumeration_on_random_and_flat_polyhedra():
    # the point within 1e-9 of the problem's scale, the empty verdict alike;
    # flat sets take a point 1e2 to 1e4 away
    rng = np.random.default_rng(20261020)
    empty = 0
    for i in range(600):
        if i % 2:
            a, b = _flat_polyhedron(rng)
            p = rng.normal(size=a.shape[1])
            p *= 10.0 ** rng.uniform(2.0, 4.0) / np.linalg.norm(p)
        else:
            a, b = _random_polyhedron(rng)
            p = 3.0 * rng.normal(size=a.shape[1])
        poly = Polyhedron(a, b)
        ref = _projection_or_empty(project_enumerate, poly, p)
        got = _projection_or_empty(project, poly, p)
        assert (got is None) == (ref is None), i
        if ref is None:
            empty += 1
            continue
        scale = max(1.0, np.linalg.norm(p), np.max(np.abs(b)))
        assert np.linalg.norm(got - ref) <= 1e-9 * scale, i
    assert 60 <= empty <= 150  # about a third of the random draws


def test_support_point_is_certified_by_the_enumeration_oracle():
    # empty and unbounded verdicts against the oracle's projections of the
    # origin onto K and of d onto the recession cone {r : A r <= 0}; a
    # support point y must satisfy y = proj(y + d)
    rng = np.random.default_rng(20261021)
    verdicts = {"point": 0, "empty": 0, "unbounded": 0}
    for i in range(240):
        a, b = _random_polyhedron(rng)
        m = a.shape[1]
        if i % 3 == 0:  # bounded by box rows; at most 4 others keep the oracle quick
            a = np.vstack([a[:4], np.eye(m), -np.eye(m)])
            b = np.concatenate([b[:4], 2.0 + np.abs(rng.normal(size=2 * m))])
        poly = Polyhedron(a, b)
        d = rng.normal(size=m)
        if _projection_or_empty(project_enumerate, poly, np.zeros(m)) is None:
            with pytest.raises(EmptySet):
                support_point(poly, d)
            verdicts["empty"] += 1
            continue
        cone = project_enumerate(Polyhedron(a, np.zeros(len(b))), d / np.linalg.norm(d))
        if np.linalg.norm(cone) > 1e-9:
            with pytest.raises(Unbounded):
                support_point(poly, d)
            verdicts["unbounded"] += 1
            continue
        y = support_point(poly, d)
        dev = np.linalg.norm(project_enumerate(poly, y + d) - y)
        assert dev <= 1e-9 * (1.0 + np.linalg.norm(y)), i
        verdicts["point"] += 1
    assert min(verdicts.values()) >= 40, verdicts


def test_enumeration_oracle_reaches_a_far_vertex():
    # nearly parallel rows 1, 2 and 3 meet about 4,200 from the point, with
    # multipliers near 6e6: the oracle once called this set empty
    a = [[-0.9530604827127297, -0.9603982069325808, -0.797176798367555],
         [-0.25698853573576547, -0.26471033723610216, -0.8886984412524996],
         [0.2761478293825976, 0.08251594973391754, 0.7628432556253614],
         [-1.4582697326584302, 1.3209180913167298, -2.3300490315595894],
         [0.02864254817178489, 0.48707681238872624, 0.9232083993303386]]
    b = [1.4822028392343625, -0.8111425833974624, -2.1054003609684697,
         -3.0524199684966167, -0.9874905916243817]
    p = [-1.0452464892779076, -4.565038037104851, 2.3309661517996814]
    poly = Polyhedron(a, b)
    ref = project_enumerate(poly, p)
    assert np.linalg.norm(project(poly, p) - ref) <= 1e-9 * np.linalg.norm(ref)
    assert contains(poly, ref, tol=1e-8)


def test_projection_properties():
    rng = np.random.default_rng(13)
    for _ in range(40):
        m = int(rng.integers(1, 4))
        if rng.random() < 0.5:
            lo = rng.normal(size=m)
            s = Box(lo, lo + abs(rng.normal(size=m)) + 0.2)
        else:
            a = rng.normal(size=(int(rng.integers(1, 4)), m))
            s = Polyhedron(a, abs(rng.normal(size=a.shape[0])) + 0.1)
        p = 2.0 * rng.normal(size=m)
        q = 2.0 * rng.normal(size=m)
        pp = project(s, p)
        qq = project(s, q)
        # idempotence and non-expansiveness of the metric projection
        assert np.allclose(project(s, pp), pp, atol=1e-9)
        assert np.linalg.norm(pp - qq) <= np.linalg.norm(p - q) + 1e-9
        assert contains(s, pp, tol=1e-7)


_BOUND = st.floats(allow_nan=False)
_OFFSET = st.floats(allow_nan=False, allow_infinity=False)


@given(st.lists(st.tuples(_BOUND, _BOUND, _OFFSET), min_size=1, max_size=4))
def test_translated_box_bounds_fail_validation_only_by_overflow(coords):
    # the step solver takes as_box's translated bounds without wrapping them
    # in a new Box: a valid box plus a finite offset keeps lower <= upper and
    # never yields NaN (IEEE addition is monotone), so the only way Box can
    # reject the result is a finite bound overflowing to an empty interval
    coords = [(min(a, b), max(a, b), o) for a, b, o in coords]
    coords = [(lo, up, o) for lo, up, o in coords if lo < np.inf and up > -np.inf]
    if not coords:
        return
    lo, up, off = (np.array(col) for col in zip(*coords))
    with np.errstate(over="ignore"):
        lo_t, up_t = as_box(Translate(Box(lo, up), off))
    assert not (np.isnan(lo_t).any() or np.isnan(up_t).any())
    assert np.all(lo_t <= up_t)
    if np.any(lo_t == np.inf) or np.any(up_t == -np.inf):
        with pytest.raises(EmptySet):
            Box(lo_t, up_t)
    else:
        box = Box(lo_t, up_t)
        assert np.array_equal(box.lower, lo_t) and np.array_equal(box.upper, up_t)
