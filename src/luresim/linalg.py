"""Matrix-level certificates for Lur'e system data.

Dense, desk-scale linear algebra: spectral constants of the feedthrough and
output matrices, the passivity LMI test, the kappa shift selection used by
the implicit integrator, and the storage congruence to identity-storage
coordinates. Everything works on plain float64 numpy arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    KernelInclusionViolated,
    NoPositiveEigenvalue,
    NotPSD,
    NotSymmetric,
)

__all__ = [
    "PassivityCertificate",
    "check_passive",
    "certify",
    "is_positive_semidefinite",
    "kernel_basis",
    "kernel_inclusion",
    "range_inclusion",
    "range_projector",
    "select_kappa",
    "smallest_positive_eigenvalue",
]


def as_matrix(a, name="matrix", shape=None):
    """Coerce to a finite 2-D float64 array, optionally enforcing a shape."""
    m = np.asarray(a, dtype=float)
    if m.ndim != 2:
        raise DimensionMismatch(f"{name} must be 2-D, got ndim={m.ndim}")
    if not np.all(np.isfinite(m)):
        raise DimensionMismatch(f"{name} contains non-finite entries")
    if shape is not None and m.shape != tuple(shape):
        raise DimensionMismatch(f"{name} must have shape {tuple(shape)}, got {m.shape}")
    return m


def sym(m):
    """Symmetric part (M + M^T)/2."""
    m = np.asarray(m, dtype=float)
    return 0.5 * (m + m.T)


def spectral_norm(m):
    """Largest singular value (as norm(m, 2)); 0.0, with no SVD, for an all-zero m."""
    m = np.asarray(m, dtype=float)
    if not m.any():
        return 0.0
    return float(np.linalg.svd(m, compute_uv=False)[0])


def _asymmetric(m, rel_tol):
    """``||M - M^T|| > rel_tol max(||M||, 1)``, with no SVD for a symmetric M."""
    skew = spectral_norm(m - m.T)
    return skew > 0.0 and skew > rel_tol * max(spectral_norm(m), 1.0)


def smallest_positive_eigenvalue(m, rel_tol=1e-9):
    """Smallest eigenvalue strictly above the positive-part threshold.

    Parameters
    ----------
    m : array_like
        Symmetric positive semidefinite matrix.
    rel_tol : float
        Eigenvalues at or below ``rel_tol * max(eigenvalues)`` count as zero.

    Returns
    -------
    float
        Smallest eigenvalue above the threshold.

    Raises
    ------
    NotSymmetric
        If the asymmetry exceeds ``rel_tol`` relative to the norm.
    NotPSD
        If an eigenvalue is negative beyond tolerance.
    NoPositiveEigenvalue
        If every eigenvalue sits at numerical zero (e.g. the zero matrix).
    """
    m = as_matrix(m, "M")
    if m.shape[0] != m.shape[1]:
        raise DimensionMismatch(f"M must be square, got {m.shape}")
    if _asymmetric(m, rel_tol):
        raise NotSymmetric("matrix is not symmetric within tolerance")
    eigs = np.linalg.eigvalsh(sym(m))
    top = float(eigs[-1]) if eigs.size else 0.0
    if eigs.size and float(eigs[0]) < -rel_tol * max(abs(top), 1.0):
        raise NotPSD(f"matrix has negative eigenvalue {eigs[0]:.3e}")
    thr = rel_tol * max(top, 0.0)
    positive = eigs[eigs > thr]
    if positive.size == 0:
        raise NoPositiveEigenvalue("no eigenvalue above the positive threshold")
    return float(positive[0])


def is_positive_semidefinite(m, tol=1e-9):
    """True iff the symmetric part has minimum eigenvalue >= -tol."""
    m = as_matrix(m, "M")
    if m.shape[0] != m.shape[1]:
        raise DimensionMismatch(f"M must be square, got {m.shape}")
    if m.size == 0:
        return True
    eigs = np.linalg.eigvalsh(sym(m))
    return bool(eigs[0] >= -tol)


def kernel_basis(m, rel_tol=1e-9):
    """Orthonormal basis (columns) of the numerical kernel of a symmetric matrix.

    Eigenvalues with magnitude at most ``rel_tol * max|eig|`` are treated as
    zero. The zero matrix yields the identity basis.
    """
    m = as_matrix(m, "M")
    vals, vecs = np.linalg.eigh(sym(m))
    scale = float(np.max(np.abs(vals))) if vals.size else 0.0
    if scale == 0.0:
        return np.eye(m.shape[0])
    mask = np.abs(vals) <= rel_tol * scale
    return vecs[:, mask]


def range_projector(m, rel_tol=1e-9):
    """Orthogonal projector onto the range of a symmetric matrix."""
    m = as_matrix(m, "M")
    vals, vecs = np.linalg.eigh(sym(m))
    scale = float(np.max(np.abs(vals))) if vals.size else 0.0
    if scale == 0.0:
        return np.zeros_like(m)
    keep = vecs[:, np.abs(vals) > rel_tol * scale]
    return keep @ keep.T


def range_inclusion(x, y, tol=1e-9):
    """True iff every column of ``x`` lies in the range of ``y`` within tol."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    y = as_matrix(y, "Y")
    if x.shape[0] != y.shape[0]:
        raise DimensionMismatch("column spaces live in different dimensions")
    nx = spectral_norm(x)
    if nx == 0.0:
        return True
    u, s, _ = np.linalg.svd(y, full_matrices=False)
    smax = float(s[0]) if s.size else 0.0
    if smax == 0.0:
        return nx <= tol
    q = u[:, s > tol * smax]
    resid = x - q @ (q.T @ x)
    return spectral_norm(resid) <= tol * max(nx, 1.0)


def kernel_inclusion(d, p, b, c, tol=1e-9):
    """Check ker(D + D^T) subset of ker(P B - C^T).

    The kernel of ``D + D^T`` is extracted by a rank-revealing eigen
    decomposition (eigenvalues below ``tol`` times the largest magnitude count
    as zero), and each basis vector v must satisfy
    ``||(P B - C^T) v|| <= tol * max(||P B - C^T||, 1)``.

    Invariant under positive scaling of ``D`` (the kernel is unchanged).
    """
    d = as_matrix(d, "D")
    p = as_matrix(p, "P")
    b = as_matrix(b, "B")
    c = as_matrix(c, "C")
    m_dim = d.shape[0]
    n_dim = p.shape[0]
    if d.shape != (m_dim, m_dim) or b.shape != (n_dim, m_dim) or c.shape != (m_dim, n_dim):
        raise DimensionMismatch(
            f"incompatible shapes D{d.shape} P{p.shape} B{b.shape} C{c.shape}"
        )
    w = p @ b - c.T
    nw = spectral_norm(w)
    if nw == 0.0:
        return True
    basis = kernel_basis(d + d.T, tol)
    if basis.shape[1] == 0:
        return True
    resid = w @ basis
    return bool(np.max(np.linalg.norm(resid, axis=0)) <= tol * max(nw, 1.0))


def _storage_alpha(p, tol):
    """Smallest eigenvalue of the storage matrix P, which must be symmetric positive definite."""
    if _asymmetric(p, tol):
        raise NotSymmetric("P must be symmetric")
    alpha = float(np.linalg.eigvalsh(sym(p))[0])
    if alpha <= 0.0:
        raise NotPSD("P must be positive definite")
    return alpha


def _shift(alpha, w, b, c, d, c1, tol):
    """``select_kappa``'s formula for ``w = P B - C^T``; c1 None is computed on use."""
    nw = spectral_norm(w)
    if nw == 0.0 or nw <= tol * max(1.0, spectral_norm(b) + spectral_norm(c)):
        return 0.0
    c1 = smallest_positive_eigenvalue(d + d.T, tol) if c1 is None else c1
    return -nw * nw / (4.0 * alpha * c1)


def select_kappa(p, b, c, d, require_kernel_inclusion=False, tol=1e-9):
    """Shift constant making (kappa*I, B, C, D) passive with storage P.

    Returns 0 when ``P B - C^T`` vanishes; otherwise
    ``-||P B - C^T||^2 / (4 * alpha * c1)`` with ``alpha`` the smallest
    eigenvalue of P and ``c1`` the smallest positive eigenvalue of
    ``D + D^T`` (computed only then). The returned value is the least
    negative shift satisfying ``2*sqrt(-kappa*alpha*c1) >= ||P B - C^T||``.

    Parameters
    ----------
    p, b, c, d : array_like
        Storage matrix (symmetric positive definite) and system matrices.
    require_kernel_inclusion : bool
        When True, raise ``KernelInclusionViolated`` if
        ker(D+D^T) is not contained in ker(P B - C^T). The formula is
        meaningful as a diagnostic even without the inclusion, so the check
        is opt-in.

    Raises
    ------
    NotSymmetric, NotPSD
        If P is not symmetric, or symmetric but not positive definite.
    NoPositiveEigenvalue
        If ``P B != C^T`` while ``D + D^T`` has no positive eigenvalue.
    """
    p = as_matrix(p, "P")
    b = as_matrix(b, "B")
    c = as_matrix(c, "C")
    d = as_matrix(d, "D")
    alpha = _storage_alpha(p, tol)
    if require_kernel_inclusion and not kernel_inclusion(d, p, b, c, tol):
        raise KernelInclusionViolated(
            "ker(D + D^T) is not contained in ker(P B - C^T)"
        )
    return _shift(alpha, p @ b - c.T, b, c, d, None, tol)


def storage_congruence(p, b, c):
    """Identity-storage coordinates ``x~ = L^T x`` for P = L L^T (Cholesky).

    Returns ``(L^T, L^{-T}, B~, C~)`` with ``B~ = L^T B`` and ``C~ = C L^{-T}``
    (D is unchanged), or None when P is None or exactly I. Since C~ B~ = C B
    and C~ x~ = C x, each step inclusion is the same in both coordinates;
    only the passivity shift differs.
    """
    if p is None or np.array_equal(p, np.eye(p.shape[0])):
        return None
    ell_t = np.linalg.cholesky(sym(p)).T
    ell_inv_t = np.linalg.inv(ell_t)
    return ell_t, ell_inv_t, ell_t @ b, c @ ell_inv_t


def storage_mismatch(p, b, c):
    """Output mismatch ``||B~ - C~^T||_2`` in identity-storage coordinates."""
    tilde = storage_congruence(p, b, c)
    return spectral_norm(b - c.T if tilde is None else tilde[2] - tilde[3].T)


def check_passive(a, b, c, d, p, tol=1e-9):
    """Passivity LMI test for the tuple (A, B, C, D) with storage P.

    True iff the block matrix

        -[[P A + A^T P,  P B - C^T],
          [B^T P - C,   -(D + D^T)]]

    is positive semidefinite within ``tol``.
    """
    a = as_matrix(a, "A")
    b = as_matrix(b, "B")
    c = as_matrix(c, "C")
    d = as_matrix(d, "D")
    p = as_matrix(p, "P")
    n_dim = a.shape[0]
    m_dim = d.shape[0]
    if (
        a.shape != (n_dim, n_dim)
        or p.shape != (n_dim, n_dim)
        or b.shape != (n_dim, m_dim)
        or c.shape != (m_dim, n_dim)
        or d.shape != (m_dim, m_dim)
    ):
        raise DimensionMismatch("incompatible shapes in passivity test")
    top = np.hstack([p @ a + a.T @ p, p @ b - c.T])
    bot = np.hstack([b.T @ p - c, -(d + d.T)])
    block = -np.vstack([top, bot])
    return is_positive_semidefinite(block, tol)


@dataclass(frozen=True)
class PassivityCertificate:
    """Spectral constants attached to a system's matrix tuple.

    Attributes
    ----------
    P : ndarray
        Storage matrix (symmetric positive definite).
    kappa : float
        Nonpositive shift certifying passivity of (kappa I, B, C, D) with
        storage P: the declared value, or the formula of :func:`select_kappa`.
    c1 : float or None
        Smallest positive eigenvalue of D + D^T; None when D + D^T = 0.
    c2 : float or None
        Smallest positive eigenvalue of C C^T; None when C = 0.
    alpha : float
        Smallest eigenvalue of P (> 0).
    step_kappa : float or None
        Step shift for P != I with no declared kappa: the formula for the
        identity-storage tuple (B~, C~, D). None when the step uses kappa.
    """

    P: np.ndarray
    kappa: float
    c1: float | None
    c2: float | None
    alpha: float
    step_kappa: float | None = None


def certify(b, c, d, p=None, kappa=None, tol=1e-9):
    """Build the :class:`PassivityCertificate` for a matrix tuple.

    ``kappa`` defaults to :func:`select_kappa`. A caller-supplied kappa must
    be at least as negative as the formula value (the shift condition
    ``2*sqrt(-kappa*alpha*c1) >= ||P B - C^T||`` stays satisfiable) and is
    then also the step shift. alpha, c1 and c2 are each computed once.
    """
    b = as_matrix(b, "B")
    c = as_matrix(c, "C")
    d = as_matrix(d, "D")
    n_dim = b.shape[0]
    storage = None if p is None else as_matrix(p, "P", (n_dim, n_dim))
    p = np.eye(n_dim) if storage is None else storage
    alpha = _storage_alpha(p, tol)
    try:
        c1 = smallest_positive_eigenvalue(d + d.T, tol)
    except NoPositiveEigenvalue:
        c1 = None
    try:
        c2 = smallest_positive_eigenvalue(c @ c.T, tol)
    except NoPositiveEigenvalue:
        c2 = None
    formula = _shift(alpha, p @ b - c.T, b, c, d, c1, tol)  # c1 None: raises on use
    step_kappa = None
    if kappa is None:
        kappa = formula
        tilde = storage_congruence(storage, b, c)
        if tilde is not None:
            step_kappa = _shift(1.0, tilde[2] - tilde[3].T, *tilde[2:], d, c1, tol)
    else:
        kappa = float(kappa)
        if kappa > formula + tol:
            raise NotPSD(
                f"kappa={kappa:g} is less negative than the certified value {formula:g}"
            )
    return PassivityCertificate(P=p, kappa=float(kappa), c1=c1, c2=c2, alpha=alpha,
                                step_kappa=step_kappa)
