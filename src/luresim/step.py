"""One implicit step of the Lur'e integrator.

Each step solves, for the unknown pair (x_next, mu),

    (1 - h*kappa) x_next + h B mu = y_in
    mu in N_K(C x_next - D mu)

with K the moving set evaluated at (t_next, x_prev). Eliminating the linear
state equation reduces the step to a variational inequality in the multiplier:

    w = q - M mu,   mu in N_K(w),
    q = C y_in / (1 - h*kappa),   M = h C B / (1 - h*kappa) + D.

The stationary inclusion at the initial state is the same problem with
M = D and q = C x0. Both go through one solve policy, _solve_multiplier: for
box-shaped K a semismooth Newton method on the residual map
mu -> w - clamp(w + mu) (the multiplier block of the full (x, mu) residual
after exact elimination of the state block), and when Newton stalls exact
face enumeration up to m = ENUM_MAX_M = 8; for polyhedral K active-set
enumeration over the constraint rows. M depends only on the system and h;
simulate computes it once per run.

There is one active-set enumerator, _active_set_enumerate. A polyhedron
hands it its rows; box_vi_enumerate hands it a box's finite faces as rows,
the faces of one coordinate forming one row group. It solves the subsets of
one size together, ENUM_CHUNK at a time, by _stacked_solve: one stacked LU
solve on the blocks a determinant test certifies as well conditioned, one
stacked pseudo-inverse on the rest.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from . import sets
from .errors import (
    DimensionMismatch,
    NoSolution,
    SolverDiverged,
    StepTooLarge,
    StepTooSmall,
)
from .linalg import range_projector

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .system import LureSystem

__all__ = [
    "SolverOptions",
    "StepResult",
    "box_vi_enumerate",
    "brute_force_step_oracle",
    "inner_solve_box",
    "solve_step",
    "solve_static_multiplier",
]

MIN_STEP = 1e-14
# iteration budget of the box Newton solve
MAX_NEWTON = 100
# largest m at which a stalled box solve falls back to the 3^m face patterns
ENUM_MAX_M = 8
# subsets per stacked solve of _active_set_enumerate, which bounds its memory
# (at box_vi_enumerate's m = 12 cap one size holds up to 126,720 subsets)
ENUM_CHUNK = 1024


@dataclass(frozen=True)
class SolverOptions:
    """Inner-solver knobs.

    tol is an absolute residual tolerance. ``force`` skips the admissibility
    gate in simulate.
    """

    tol: float = 1e-10
    force: bool = False


@dataclass(frozen=True)
class StepResult:
    """Converged step: state, multipliers, output argument and diagnostics.

    ``lam`` is the system-sign multiplier (lam = -mu); ``w = C x_next - D mu``
    is the argument at which the normal-cone inclusion holds. ``residual`` is
    the larger of the normalized state-equation residual and the cone
    residual.
    """

    x_next: np.ndarray
    mu: np.ndarray
    lam: np.ndarray
    w: np.ndarray
    residual: float = 0.0
    iterations: int = 0


def _norm(v):
    # np.linalg.norm's own formula for a 1-D float vector, minus its overhead
    return math.sqrt(v.dot(v))


def _overflows(y):
    """True when ``||y||^2`` is not finite: a NaN, an infinity or overflow.

    The test runs in Python floats, which overflow to inf silently.
    """
    y_list = y.tolist()
    return not sum(map(operator.mul, y_list, y_list)) < math.inf


def _reduced_input(c_mat, y, denom=1.0):
    """``C y / denom``, all NaN when :func:`_overflows` holds for y.

    A NaN or an infinity in y (0 * inf inside the product) or a y whose
    squares overflow (in the step's norms) would make numpy warn; a NaN q
    instead reaches the solve's own "non-finite data" error.
    """
    if _overflows(y):
        return np.full(c_mat.shape[0], np.nan)
    return (c_mat @ y) / denom


def _box_residual(m_mat, q, lower, upper, mu):
    w = q - m_mat @ mu
    return w - np.clip(w + mu, lower, upper), w


def inner_solve_box(m_mat, q, box, opts=None, c1=None, d_norm=None):
    """Solve ``mu in N_box(q - M mu)`` for a box set.

    Semismooth Newton with elementwise clamp derivatives (slope 1 strictly
    inside the interval, 0 at or beyond a face) and a halving line search on
    the residual norm. ``c1`` and ``d_norm`` are unused; they remain so that
    existing positional calls keep working.

    Returns
    -------
    (mu, w, iterations)

    Raises
    ------
    SolverDiverged
        If Newton stalls above ``opts.tol``.
    """
    if opts is None:
        opts = SolverOptions()
    q = np.asarray(q, dtype=float).reshape(-1)
    m_dim = q.size
    m_mat = np.asarray(m_mat, dtype=float)
    if m_mat.shape != (m_dim, m_dim):
        raise DimensionMismatch("M must be square and match q")
    if box.lower.size != m_dim:
        raise DimensionMismatch("box dimension mismatch")
    return _newton_box(m_mat, q, box.lower, box.upper, opts)


def _newton_box(m_mat, q, lower, upper, opts):
    """Body of :func:`inner_solve_box` on validated arrays and bounds."""
    m_dim = q.size
    # converge below the stored tolerance so residuals recomputed from
    # x_next stay under opts.tol after rounding
    tol = 0.5 * opts.tol
    mu = np.zeros(m_dim)
    f, w = _box_residual(m_mat, q, lower, upper, mu)
    nf = _norm(f)
    if not math.isfinite(nf):
        # a NaN input or an overflowed bound: no iterate can mend it
        raise SolverDiverged(f"inner box solve starts at residual {nf}", residual=nf)
    eye = np.eye(m_dim)
    for iterations in range(1, MAX_NEWTON + 1):
        if nf <= tol:
            return mu, w, iterations
        z = w + mu
        s = ((z > lower) & (z < upper)).astype(float)
        jac = (np.diag(s) - eye) @ m_mat - np.diag(s)
        try:
            delta = np.linalg.solve(jac, -f)
        except np.linalg.LinAlgError:
            delta = np.linalg.lstsq(jac, -f, rcond=None)[0]
        if not np.all(np.isfinite(delta)):
            delta = np.linalg.lstsq(jac, -f, rcond=None)[0]
        step_len = 1.0
        for _ in range(30):
            cand = mu + step_len * delta
            fc, wc = _box_residual(m_mat, q, lower, upper, cand)
            nfc = _norm(fc)
            # nf > tol here, so a step that reaches tol also lowers nf
            if nfc < nf:
                mu, f, w, nf = cand, fc, wc, nfc
                break
            step_len *= 0.5
        else:
            break
    if nf <= tol:
        return mu, w, iterations
    raise SolverDiverged(f"inner box solve stalled at residual {nf:.3e}", residual=nf)


def _stacked_solve(lhs, rhs):
    """Solve a stack of square systems ``lhs nu = rhs``, (N, s, s) by (N, s, 1).

    A block with |det(lhs)| > 1e-10 ||lhs||_F^s is certified: its smallest
    singular value then exceeds 1e-10 ||lhs||_F >= 1e-10 sigma_max (the
    others are at most ||lhs||_F), so cond_2(lhs) < 1e10, pinv's cutoff
    (1e-15 sigma_max) drops nothing and its answer is the exact inverse's, as
    LU's is. Certified blocks go to one stacked LU solve; the rest, singular
    or nearly singular, go to one stacked pinv, whose minimum-norm
    least-squares solution they need. A block whose test overflows goes to
    pinv too, which scales: |det| <= ||lhs||_F^s, so an infinite |det|
    comes with an infinite right-hand side and fails the test.
    """
    with np.errstate(over="ignore"):
        lu = np.abs(np.linalg.det(lhs)) > 1e-10 * np.linalg.norm(lhs, axis=(1, 2)) ** lhs.shape[1]
    if lu.all():
        return np.linalg.solve(lhs, rhs)
    nu = np.empty_like(rhs)
    nu[~lu] = np.linalg.pinv(lhs[~lu]) @ rhs[~lu]
    if lu.any():
        nu[lu] = np.linalg.solve(lhs[lu], rhs[lu])
    return nu


def _active_set_enumerate(a, b, m_mat, q, tol, groups=None):
    """All KKT-consistent multipliers of mu in N_{Ay<=b}(q - M mu).

    mu = A_S^T nu with nu >= 0 on an active subset S of the rows that holds
    at most one row of each group (by default every row is its own group);
    returns the feasible candidate of least multiplier norm together with
    the count of subsets examined. Raises NoSolution when no subset works;
    a candidate with a NaN fails every test.

    The subsets of one size are solved together, ENUM_CHUNK at a time:
    :func:`_stacked_solve` solves each A_S M A_S^T nu = A_S q - b_S by LU
    where |det| > 1e-10 ||A_S M A_S^T||_F^s certifies the block (cond_2 <
    1e10) and by pinv, the minimum-norm least-squares solution, elsewhere,
    and the residual, sign and feasibility tests run on whole arrays. The
    first least-norm candidate in subset order (combinations of groups,
    then one row of each) wins a tie, as it would one subset at a time.
    """
    k, m_dim = a.shape
    if groups is None:
        groups = [(i,) for i in range(k)]
    scale = 1.0 + float(np.max(np.abs(q), initial=0.0)) + float(
        np.max(np.abs(b), initial=0.0))
    bound = tol * scale
    am = a @ m_mat
    gram = am @ a.T  # a_i M a_j: every A_S M A_S^T is a block of it
    slack = a @ q - b  # a w - b at mu = 0
    # the empty subset: mu = 0 needs no solve
    best = (0.0, np.zeros(m_dim)) if slack.max(initial=-np.inf) <= bound else None
    examined = 1
    for size in range(1, min(len(groups), m_dim) + 1):
        subsets = itertools.chain.from_iterable(
            itertools.product(*chosen) for chosen in itertools.combinations(groups, size))
        while chunk := list(itertools.islice(subsets, ENUM_CHUNK)):
            examined += len(chunk)
            idx = np.array(chunk, dtype=np.intp)  # (N, s)
            lhs = gram[idx[:, :, None], idx[:, None, :]]
            rhs = slack[idx][:, :, None]
            nu = _stacked_solve(lhs, rhs)
            ok = np.abs(lhs @ nu - rhs).max(axis=(1, 2)) <= bound
            ok &= nu.min(axis=(1, 2)) >= -bound
            mu = (nu[ok].transpose(0, 2, 1) @ a[idx[ok]])[:, 0]  # rows nu^T A_S
            mu = mu[(slack - mu @ am.T).max(axis=1) <= bound]
            if mu.size:
                nrm = np.linalg.norm(mu, axis=1)
                j = int(np.argmin(nrm))
                if best is None or nrm[j] < best[0]:
                    best = (nrm[j], mu[j])
    if best is None:
        raise NoSolution("no feasible active set")
    return best[1], q - m_mat @ best[1], examined


def _solve_multiplier(k_set, box, m_mat, q, m_max, opts):
    """Solve ``mu in N_K(q - M mu)``; the one place that picks the method.

    ``box`` is ``sets.as_box(k_set)``. A box goes to Newton, then to face
    enumeration once Newton stalls, or ends in rounding noise (eps m_max
    ||mu|| m > tol (1 + ||q||), m_max = max|M|), and m <= ENUM_MAX_M; a
    (translated) polyhedron goes to active-set enumeration. Returns (mu, w, iterations).

    Raises
    ------
    NoSolution
        When enumeration proves that no multiplier exists.
    SolverDiverged
        When Newton stalls on a box with m > ENUM_MAX_M, a step meets
        non-finite data, or a polyhedron has more than 16 rows.
    """
    if box is None:
        # peel Translate layers: N_{S+o}(w) = N_S(w - o), and A(w - o) <= b
        # becomes A w <= b + A o
        offset = None
        while isinstance(k_set, sets.Translate):
            offset = k_set.offset if offset is None else offset + k_set.offset
            k_set = k_set.base
        if not isinstance(k_set, sets.Polyhedron):
            raise TypeError(f"unsupported set type: {type(k_set).__name__}")
        if k_set.a.shape[0] > 16:
            raise SolverDiverged("polyhedral step enumeration capped at 16 rows")
        b = k_set.b if offset is None else k_set.b + k_set.a @ offset
        # bounds |A q - b| in Python floats, which reach inf or nan silently
        extent = float(np.abs(k_set.a).sum(axis=1).max(initial=0.0)) * float(
            np.abs(q).max(initial=0.0)) + float(np.abs(b).max(initial=0.0))
        if not math.isfinite(extent):
            raise SolverDiverged(f"non-finite data in a polyhedral step: |A| |q| + |b| = {extent}")
        return _active_set_enumerate(k_set.a, b, m_mat, q, max(opts.tol, 1e-12))
    lower, upper = box
    try:
        mu, w, iterations = _newton_box(m_mat, q, lower, upper, opts)
        if np.finfo(float).eps * m_max * _norm(mu) * q.size > opts.tol * (1.0 + _norm(q)):
            raise SolverDiverged("inner box solve ended in rounding noise")
        return mu, w, iterations
    except SolverDiverged as exc:
        # the bounds come from as_box unvalidated; a translation that
        # overflows a bound to an empty interval can only end up here
        sets.Box(lower, upper)
        if exc.residual is not None and not math.isfinite(exc.residual):
            raise SolverDiverged(f"non-finite data in a box step: {exc}") from exc
        if q.size > ENUM_MAX_M:
            raise
        return box_vi_enumerate(m_mat, q, lower, upper)


class _StepPlan:
    """Step invariants of one ``(system, h)``: the reduced matrix and friends.

    ``simulate`` builds one per run, :func:`solve_step` and the oracle one
    per call. ``proj`` (an eigendecomposition) waits for its first read,
    since the oracle and a zero mu do not need it; a plain property, as
    ``functools.cached_property`` takes a lock on each fresh plan.
    """

    __slots__ = ("sys", "h", "denom", "m_mat", "m_max", "_proj")

    def __init__(self, sys, h):
        if h <= MIN_STEP:
            raise StepTooSmall(f"step size {h:g} at or below {MIN_STEP:g}")
        denom = 1.0 - h * sys.kappa
        if denom <= 1e-12:
            raise StepTooLarge(f"1 - h*kappa = {denom:g} not positive")
        self.sys = sys
        self.h = h
        self.denom = denom
        self.m_mat = (h / denom) * (sys.C @ sys.B) + sys.D
        self.m_max = float(np.abs(self.m_mat).max(initial=0.0))
        self._proj = None

    @property
    def proj(self):
        if self._proj is None:
            self._proj = range_projector(self.sys.D + self.sys.D.T)
        return self._proj


def solve_step(sys, t_next, x_prev, y_in, h, opts=None):
    """Advance one implicit step.

    Parameters
    ----------
    sys : LureSystem
        System data; the moving set is evaluated at ``(t_next, x_prev)``.
    t_next : float
        Time at the end of the step.
    x_prev : ndarray
        State at the start of the step (argument of the moving set).
    y_in : ndarray
        Drift-advanced input ``x + h f(t, x) - h kappa x``.
    h : float
        Step size, ``MIN_STEP < h`` and ``1 - h kappa > 0`` required.

    Returns
    -------
    StepResult

    Raises
    ------
    StepTooSmall, StepTooLarge, SolverDiverged, EmptySet
    """
    if opts is None:
        opts = SolverOptions()
    plan = _StepPlan(sys, h)
    x_prev = np.asarray(x_prev, dtype=float).reshape(-1)
    y_in = np.asarray(y_in, dtype=float).reshape(-1)
    if x_prev.size != sys.n or y_in.size != sys.n:
        raise DimensionMismatch("state dimension mismatch in step")
    return _advance(plan, t_next, x_prev, y_in, opts)


def _advance(plan, t_next, x_prev, y_in, opts):
    """One step on validated 1-D float states; see :func:`solve_step`."""
    sys = plan.sys
    k_set = sys.K.at(t_next, x_prev)
    q = _reduced_input(sys.C, y_in, plan.denom)
    box = sets.as_box(k_set)
    try:
        mu, _, iterations = _solve_multiplier(k_set, box, plan.m_mat, q, plan.m_max, opts)
    except NoSolution as exc:
        raise SolverDiverged(f"step has no multiplier: {exc}") from exc
    mu = _minimal_norm_polish(plan, k_set, box, q, mu, opts.tol)
    return _step_result(plan, k_set, y_in, mu, iterations)


def _step_result(plan, k_set, y_in, mu, iterations):
    """State, output argument and residuals of a step with multiplier mu."""
    sys = plan.sys
    h, denom = plan.h, plan.denom
    b_mu = sys.B @ mu
    x_next = (y_in - h * b_mu) / denom
    w = sys.C @ x_next - sys.D @ mu
    state_res = _norm(denom * x_next + h * b_mu - y_in) / (1.0 + _norm(y_in))
    cone_res = sets.normal_cone_residual(k_set, w, mu)
    return StepResult(
        x_next=x_next,
        mu=mu,
        lam=-mu,
        w=w,
        residual=max(state_res, cone_res),
        iterations=iterations,
    )


def _minimal_norm_polish(plan, k_set, box, q, mu, tol):
    """Project mu onto rge(D + D^T) when doing so preserves both residuals.

    When the step solution is non-unique the ambiguity lives in
    ker(D + D^T) inter ker(B); dropping the kernel component then recovers the
    least-norm multiplier, which is the one the theory works with. The
    projection is only adopted if the cone residual survives at tolerance
    (it cannot survive when the kernel component is structurally forced, e.g.
    D = 0 with an active constraint). ``box`` is ``sets.as_box(k_set)``.
    """
    mu_r = plan.proj @ mu if mu.any() else mu  # a zero mu is kept: spare plan.proj
    if (np.abs(mu_r - mu) <= 1e-30).all():
        return mu
    if _norm(plan.sys.B @ (mu - mu_r)) > 0.25 * tol:
        return mu
    if box is not None:
        f, _ = _box_residual(plan.m_mat, q, box[0], box[1], mu_r)
        if _norm(f) <= 0.5 * tol:
            return mu_r
        return mu
    w_r = q - plan.m_mat @ mu_r
    if sets.normal_cone_residual(k_set, w_r, mu_r) <= 0.5 * tol:
        return mu_r
    return mu


def solve_static_multiplier(k_set, c_mat, d_mat, x0, opts=None):
    """Solve the stationary inclusion ``mu in N_K(C x0 - D mu)``.

    The step solve with M = D and q = C x0; used by the admissibility test
    and for the multiplier attached to the initial state. Returns
    ``(mu, w, iterations)``; raises NoSolution when no multiplier exists and
    SolverDiverged when the solver gives up.
    """
    if opts is None:
        opts = SolverOptions()
    q = _reduced_input(c_mat, np.asarray(x0, dtype=float).reshape(-1))
    return _solve_multiplier(k_set, sets.as_box(k_set), d_mat, q,
                             float(np.abs(d_mat).max(initial=0.0)), opts)


def box_vi_enumerate(m_mat, q, lower, upper, tol=1e-9):
    """Least-norm solution of ``mu in N_box(q - M mu)`` by face patterns.

    The box's finite faces are handed to the one active-set enumerator as
    rows, coordinate by coordinate: ``+e_i . y <= upper_i``, then
    ``-e_i . y <= -lower_i``. The faces of one coordinate form a row group,
    so each coordinate is pinned to one face or left free, and every
    pattern of finite faces (3^m when all are finite) is examined once.
    Returns (mu, w, patterns_examined).

    Raises
    ------
    NoSolution
        When no pattern is feasible.
    SolverDiverged
        When m > 12: the patterns are not enumerated, so nothing is decided.
    """
    m_dim = q.size
    if m_dim > 12:
        raise SolverDiverged("pattern enumeration capped at m = 12")
    coords, signs, b, groups = [], [], [], []
    for i in range(m_dim):
        faces = [(s, f) for s, f in ((1.0, upper[i]), (-1.0, -lower[i]))
                 if math.isfinite(f)]
        if faces:
            groups.append(range(len(b), len(b) + len(faces)))
        for s, f in faces:
            coords.append(i)
            signs.append(s)
            b.append(f)
    a = np.zeros((len(b), m_dim))
    a[np.arange(len(b)), coords] = signs
    return _active_set_enumerate(a, np.array(b, dtype=float), m_mat, q, tol, groups)


def brute_force_step_oracle(sys, t_next, x_prev, y_in, h, tol=1e-9):
    """Reference step solution by exhaustive face-pattern enumeration.

    Independent cross-check route for :func:`solve_step` on box-shaped sets:
    it shares the step guards, M and the result algebra, and differs only in
    its inner solve, :func:`box_vi_enumerate` (the one active-set enumerator
    over the box's faces, one row group per coordinate) where solve_step
    runs Newton. The least-norm feasible candidate is returned.
    """
    plan = _StepPlan(sys, h)
    x_prev = np.asarray(x_prev, dtype=float).reshape(-1)
    y_in = np.asarray(y_in, dtype=float).reshape(-1)
    k_set = sys.K.at(t_next, x_prev)
    box = sets.as_box(k_set)
    if box is None:
        raise TypeError("oracle supports box-shaped sets only")
    q = _reduced_input(sys.C, y_in, plan.denom)
    mu, _, examined = box_vi_enumerate(plan.m_mat, q, box[0], box[1], tol)
    return _step_result(plan, k_set, y_in, mu, examined)
