"""Certification-layer tests: spectral constants, inclusions, passivity."""

import numpy as np
import pytest

import luresim
from helpers import count_decompositions, load_benchmark_workload

from luresim import (
    Box,
    DecomposedMovingSet,
    GeneralMovingSet,
    PassivityCertificate,
    build_system,
    certify,
    check_passive,
    is_positive_semidefinite,
    kernel_basis,
    kernel_inclusion,
    range_inclusion,
    range_projector,
    select_kappa,
    smallest_positive_eigenvalue,
)
from luresim.errors import (
    KernelInclusionViolated,
    LureError,
    NoPositiveEigenvalue,
    NotPSD,
    NotSymmetric,
)
from luresim.linalg import spectral_norm, sym

# the two matrix tuples used throughout: a reference tuple with C = B and a
# measured tuple whose output matrix carries a 0.1 I perturbation
B2 = np.array([[0.0, 0.0], [0.0, 1.0]])
C_REF = B2.copy()
C_MEAS = B2 + 0.1 * np.eye(2)
D2 = B2.copy()


def test_sym_is_symmetric_part():
    m = np.array([[0.0, 1.0], [0.0, 0.0]])
    assert np.allclose(sym(m), [[0.0, 0.5], [0.5, 0.0]])


def test_spectral_norm_values():
    assert spectral_norm(np.diag([3.0, -4.0])) == pytest.approx(4.0)
    assert spectral_norm(C_MEAS) == pytest.approx(1.1)
    assert spectral_norm(np.zeros((2, 3))) == 0.0


def test_smallest_positive_eigenvalue_skips_zero_block():
    assert smallest_positive_eigenvalue(np.diag([0.0, 2.0])) == pytest.approx(2.0)


def test_smallest_positive_eigenvalue_relative_threshold():
    # eigenvalues below rel_tol * max |eig| count as zero
    assert smallest_positive_eigenvalue(np.diag([1e-15, 1.0])) == pytest.approx(1.0)


def test_smallest_positive_eigenvalue_raises_when_none():
    with pytest.raises(NoPositiveEigenvalue):
        smallest_positive_eigenvalue(np.zeros((2, 2)))
    # negative eigenvalues are a different failure: the input must be PSD
    with pytest.raises(NotPSD):
        smallest_positive_eigenvalue(-np.eye(2))


def test_is_positive_semidefinite():
    assert is_positive_semidefinite(np.diag([0.0, 2.0]))
    assert not is_positive_semidefinite(np.diag([-1e-6, 1.0]))
    # only the symmetric part matters
    assert is_positive_semidefinite(np.array([[1.0, 1.0], [-1.0, 1.0]]))


def test_kernel_basis_and_range_projector():
    kb = kernel_basis(np.diag([0.0, 2.0]))
    assert kb.shape == (2, 1)
    assert np.allclose(np.diag([0.0, 2.0]) @ kb, 0.0)
    assert kernel_basis(np.eye(2)).shape == (2, 0)
    assert np.allclose(range_projector(np.diag([0.0, 2.0])), np.diag([0.0, 1.0]))


def test_range_inclusion_vectors():
    # vectors are passed as columns
    d = np.diag([0.0, 2.0])
    assert range_inclusion(np.array([[0.0], [3.0]]), d)
    assert not range_inclusion(np.array([[1.0], [0.0]]), d)
    assert range_inclusion(np.diag([0.0, 5.0]), d)


def test_kernel_inclusion_reference_vs_measured():
    p = np.eye(2)
    assert kernel_inclusion(D2, p, B2, C_REF)
    assert not kernel_inclusion(D2, p, B2, C_MEAS)


def test_select_kappa_zero_when_output_matches():
    assert select_kappa(np.eye(2), B2, C_REF, D2) == 0.0


def test_select_kappa_measured_tuple_value():
    # ||P B - C^T|| = 0.1, alpha = 1, c1 = 2 -> -0.01 / 8
    kappa = select_kappa(np.eye(2), B2, C_MEAS, D2)
    assert kappa == pytest.approx(-0.00125, abs=1e-15)


def test_select_kappa_one_dimensional_value():
    # ||B - C^T|| = 1, alpha = 1, c1 = 2 -> -1/8
    kappa = select_kappa([[1.0]], [[1.0]], [[0.0]], [[1.0]])
    assert kappa == pytest.approx(-0.125, abs=1e-15)


def test_select_kappa_scales_with_storage_floor():
    # doubling P doubles alpha and doubles ||P B - C^T||: kappa doubles
    k1 = select_kappa(np.eye(2), B2, C_MEAS, D2)
    k2 = select_kappa(2.0 * np.eye(2), B2, 2.0 * C_MEAS, D2)
    assert k2 == pytest.approx(2.0 * k1)


def test_select_kappa_requires_positive_damping():
    with pytest.raises(NoPositiveEigenvalue):
        select_kappa([[1.0]], [[1.0]], [[0.0]], [[0.0]])


def test_select_kappa_kernel_inclusion_flag():
    with pytest.raises(KernelInclusionViolated):
        select_kappa(np.eye(2), B2, C_MEAS, D2, require_kernel_inclusion=True)
    # flag is inert when the inclusion holds
    assert select_kappa(np.eye(2), B2, C_REF, D2, require_kernel_inclusion=True) == 0.0


def test_select_kappa_rejects_bad_storage():
    with pytest.raises(NotSymmetric):
        select_kappa([[1.0, 1.0], [0.0, 1.0]], B2, C_REF, D2)
    with pytest.raises(NotPSD):
        select_kappa(np.diag([1.0, -1.0]), B2, C_REF, D2)


def test_select_kappa_shift_condition_on_random_tuples():
    # 2 sqrt(-kappa alpha c1) >= ||P B - C^T|| whenever kappa < 0
    rng = np.random.default_rng(7)
    for _ in range(200):
        n = int(rng.integers(1, 5))
        m = int(rng.integers(1, 4))
        b = rng.normal(size=(n, m))
        c = rng.normal(size=(m, n))
        g = rng.normal(size=(m, m))
        d = g @ g.T
        q = rng.normal(size=(n, n))
        p = q @ q.T + 0.1 * np.eye(n)
        kappa = select_kappa(p, b, c, d)
        assert kappa <= 0.0
        if kappa < 0.0:
            alpha = np.linalg.eigvalsh(p)[0]
            c1 = smallest_positive_eigenvalue(d + d.T)
            lhs = 2.0 * np.sqrt(-kappa * alpha * c1)
            assert lhs >= spectral_norm(p @ b - c.T) - 1e-9


def test_check_passive_reference_tuple():
    assert check_passive(np.zeros((2, 2)), B2, C_REF, D2, np.eye(2))


def test_check_passive_scalar_dissipative():
    assert check_passive([[-1.0]], [[1.0]], [[1.0]], [[0.0]], [[1.0]])
    assert not check_passive([[1.0]], [[1.0]], [[1.0]], [[0.0]], [[1.0]])


def test_check_passive_measured_tuple_fails_lmi():
    # the off-diagonal coupling P B - C^T = -0.1 I cannot be absorbed by the
    # rank-deficient damping block, whatever nonzero shift is used
    kappa = select_kappa(np.eye(2), B2, C_MEAS, D2)
    assert not check_passive(kappa * np.eye(2), B2, C_MEAS, D2, np.eye(2))


def test_certify_constants_measured_tuple():
    cert = certify(B2, C_MEAS, D2)
    assert isinstance(cert, PassivityCertificate)
    assert cert.alpha == pytest.approx(1.0)
    assert cert.c1 == pytest.approx(2.0)
    assert cert.c2 == pytest.approx(0.01)
    assert cert.kappa == pytest.approx(-0.00125, abs=1e-15)


def test_certify_constants_degenerate():
    cert = certify(np.zeros((2, 1)), np.zeros((1, 2)), np.zeros((1, 1)))
    assert cert.c1 is None
    assert cert.c2 is None
    assert cert.kappa == 0.0


def test_certify_kappa_override_rules():
    # more negative than the formula: accepted verbatim
    cert = certify(B2, C_MEAS, D2, kappa=-0.01)
    assert cert.kappa == -0.01
    # less negative: the shift condition would fail
    with pytest.raises(NotPSD):
        certify(B2, C_MEAS, D2, kappa=-1e-4)
    # zero is fine when the output matrix matches exactly
    assert certify(B2, C_REF, D2, kappa=0.0).kappa == 0.0


def test_certify_rejects_indefinite_storage():
    with pytest.raises(NotPSD):
        certify(B2, C_REF, D2, p=np.diag([1.0, 0.0]))


# a tuple with n = 3, m = 2, a skew part in D and no kernel coupling, a
# rank-1 feedthrough variant, and a storage P != I. The literals below were
# recorded before certify stopped calling select_kappa and shares its formula
# instead; the comparisons are exact
PIN_B = np.array([[1.0, 0.5], [0.0, 2.0], [0.3, -0.2]])
PIN_C = np.array([[0.8, 0.1, 0.4], [0.0, 1.5, -0.3]])
PIN_D = np.array([[2.0, 0.5], [-0.5, 1.0]])
PIN_D_RANK1 = np.array([[1.0, 1.0], [1.0, 1.0]])
PIN_P = np.array([[2.0, 0.3, 0.0], [0.3, 1.0, 0.2], [0.0, 0.2, 0.5]])
PIN_C2 = 0.8094119906895095
PIN_ALPHA = 0.42305766670390305


def _constants(cert):
    return cert.kappa, cert.c1, cert.c2, cert.alpha, cert.step_kappa


def test_certify_is_pinned_bit_for_bit():
    assert _constants(certify(PIN_B, PIN_C, PIN_D)) == (
        -0.0641909872050661, 2.0, PIN_C2, 1.0, None)
    assert _constants(certify(PIN_B, PIN_C, PIN_D, p=PIN_P)) == (
        -1.3423598752772379, 2.0, PIN_C2, PIN_ALPHA, -0.2927853228830527)
    # a declared kappa is kept and is the step shift
    assert _constants(certify(PIN_B, PIN_C, PIN_D, p=PIN_P, kappa=-5.0)) == (
        -5.0, 2.0, PIN_C2, PIN_ALPHA, None)
    assert _constants(certify(PIN_B, PIN_C, PIN_D_RANK1)) == (
        -0.03209549360253305, 4.0, PIN_C2, 1.0, None)
    assert _constants(certify(PIN_B, PIN_C, PIN_D_RANK1, p=PIN_P)) == (
        -0.6711799376386189, 4.0, PIN_C2, PIN_ALPHA, -0.14639266144152635)
    assert select_kappa(PIN_P, PIN_B, PIN_C, PIN_D) == -1.3423598752772379
    assert select_kappa(np.eye(3), PIN_B, PIN_C, PIN_D_RANK1) == -0.03209549360253305


def _error(call, *args, **kwargs):
    with pytest.raises(LureError) as info:
        call(*args, **kwargs)
    return type(info.value).__name__, str(info.value)


def test_certification_errors_are_pinned():
    ms = GeneralMovingSet(lambda t, x: Box(-np.ones(2), np.ones(2)), 0.0, 0.0)
    zero = np.zeros((2, 2))
    no_c1 = ("NoPositiveEigenvalue", "no eigenvalue above the positive threshold")
    # D = 0 while P B != C^T: no damping to absorb the mismatch
    assert _error(certify, PIN_B, PIN_C, zero) == no_c1
    assert _error(select_kappa, np.eye(3), PIN_B, PIN_C, zero) == no_c1
    assert _error(build_system, PIN_B, PIN_C, zero, ms) == no_c1
    # a P whose symmetric part is positive definite but which is not symmetric
    asym = PIN_P.copy()
    asym[0, 2] = 0.1
    not_sym = ("NotSymmetric", "P must be symmetric")
    assert _error(certify, PIN_B, PIN_C, PIN_D, p=asym) == not_sym
    assert _error(select_kappa, asym, PIN_B, PIN_C, PIN_D) == not_sym
    indefinite = np.diag([1.0, -0.5, 2.0])
    not_pd = ("NotPSD", "P must be positive definite")
    assert _error(certify, PIN_B, PIN_C, PIN_D, p=indefinite) == not_pd
    assert _error(select_kappa, indefinite, PIN_B, PIN_C, PIN_D) == not_pd
    assert _error(certify, PIN_B, PIN_C, PIN_D, kappa=-1e-3) == (
        "NotPSD", "kappa=-0.001 is less negative than the certified value -0.064191")
    assert _error(build_system, PIN_B, PIN_C, np.diag([1.0, -1.0]), ms) == (
        "NotPSD", "feedthrough matrix D must be positive semidefinite")


def test_spectral_norm_is_numpys_two_norm_exactly():
    rng = np.random.default_rng(11)
    mats = [rng.normal(size=(int(rng.integers(1, 6)), int(rng.integers(1, 6))))
            * 10.0 ** int(rng.integers(-6, 7)) for _ in range(200)]
    mats += [np.zeros((2, 3)), np.zeros((0, 3)), np.zeros((3, 0)), np.zeros((0, 0)),
             np.array([[-2.5]]), np.array([[0.0]]), mats[0].T, -np.eye(3)]
    for mat in mats:
        assert spectral_norm(mat) == np.linalg.norm(mat, 2)


def test_build_system_decomposes_each_matrix_once(monkeypatch):
    # the first 300 oracle_sweep draws of seed 1: each builds a fresh system.
    # Counted are numpy's svd, eigvalsh and eigh, also where numpy itself
    # calls them (norm(m, 2) runs an SVD); before each spectral constant was
    # computed once, build_system averaged 18.4 per call (12.6 SVDs)
    wl_oracle = load_benchmark_workload("wl_oracle")
    draws = wl_oracle.draws(luresim, 1, wl_oracle.MIN_MARGIN, [0])
    ops = [next(draws) for _ in range(300)]
    # as in the workload: the box with a zero offset H x + g
    moving_sets = [DecomposedMovingSet(lambda t, _box=Box(op["lower"], op["upper"]): _box,
                                       np.zeros((op["m"], op["x_prev"].size)),
                                       lambda t, _z=np.zeros(op["m"]): _z) for op in ops]
    counts = count_decompositions(monkeypatch)
    for op, ms in zip(ops, moving_sets):
        build_system(op["b"], op["c"], op["d"], ms)
    assert sum(counts.values()) / len(ops) <= 8.0
