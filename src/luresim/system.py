"""System container and structural validation.

A LureSystem bundles the matrix tuple (B, C, D), the drift map, the moving
constraint set and the passivity certificate used by the integrator. The
integrator steps in the caller's coordinates for every storage matrix P: P
enters the scheme only through the step shift ``LureSystem.kappa``, which
``linalg.certify`` works out once per system. ``canonicalize`` rewrites a
system in identity-storage coordinates, as an independent reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import linalg
from .errors import DimensionMismatch, NotPSD, RangeConditionViolated
from .moving import DecomposedMovingSet, GeneralMovingSet, MovingSet, lipschitz_constants

__all__ = ["LureSystem", "build_system", "canonicalize"]


@dataclass(frozen=True, eq=False)
class LureSystem:
    """Set-valued Lur'e system dx/dt = f(t,x) + B lam, lam in -N_{K(t,x)}(Cx + D lam)."""

    n: int
    m: int
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray
    drift: Callable[[float, np.ndarray], np.ndarray]
    lf: float
    K: MovingSet
    cert: linalg.PassivityCertificate
    sigma: float | None = None

    @property
    def kappa(self):
        """Step shift of the implicit scheme. A declared kappa is used for
        every P; otherwise the shift formula for the identity-storage tuple
        (B~, C~, D), which is ``cert.kappa`` (the formula for P) when P = I.
        """
        shift = self.cert.step_kappa
        return self.cert.kappa if shift is None else shift

    @property
    def P(self):
        return self.cert.P


def _zero_drift(t, x):
    return np.zeros_like(x)


def build_system(
    b,
    c,
    d,
    moving_set,
    drift=None,
    lf=0.0,
    p=None,
    kappa=None,
    sigma=None,
    on_range_violation="raise",
):
    """Validate and assemble a :class:`LureSystem`.

    Structural requirements enforced here: consistent shapes, D positive
    semidefinite, P symmetric positive definite, and (for decomposed moving
    sets) the offset range condition rge(H) subset of rge(D + D^T).

    Parameters
    ----------
    on_range_violation : {"raise", "general"}
        What to do when a decomposed set fails the range condition: raise
        RangeConditionViolated, or downgrade the set to the general form
        (same evaluations, uniqueness-based conclusions no longer apply).
    """
    b = linalg.as_matrix(b, "B")
    n_dim, m_dim = b.shape
    c = linalg.as_matrix(c, "C", (m_dim, n_dim))
    d = linalg.as_matrix(d, "D", (m_dim, m_dim))
    psd = linalg.is_positive_semidefinite  # ||D|| (an SVD) matters only past -1e-9
    if not (psd(d, 1e-9) or psd(d, 1e-9 * max(1.0, linalg.spectral_norm(d)))):
        raise NotPSD("feedthrough matrix D must be positive semidefinite")
    cert = linalg.certify(b, c, d, p=p, kappa=kappa)
    if isinstance(moving_set, DecomposedMovingSet):
        h = moving_set.h_matrix
        if h.shape != (m_dim, n_dim):
            raise DimensionMismatch(
                f"offset matrix must be {m_dim}x{n_dim}, got {h.shape}"
            )
        if not linalg.range_inclusion(h, d + d.T):
            if on_range_violation == "raise":
                raise RangeConditionViolated(
                    "rge(H) is not contained in rge(D + D^T); "
                    "pass on_range_violation='general' to downgrade"
                )
            lk1, lk2 = lipschitz_constants(moving_set)
            moving_set = GeneralMovingSet(at_fn=moving_set.at, lk1=lk1, lk2=lk2)
    elif not isinstance(moving_set, GeneralMovingSet):
        raise TypeError("moving_set must be a GeneralMovingSet or DecomposedMovingSet")
    if drift is None:
        drift = _zero_drift
    return LureSystem(
        n=n_dim,
        m=m_dim,
        B=b,
        C=c,
        D=d,
        drift=drift,
        lf=float(lf),
        K=moving_set,
        cert=cert,
        sigma=None if sigma is None else float(sigma),
    )


@dataclass(frozen=True)
class CanonicalMap:
    """Coordinate maps between original and identity-storage coordinates."""

    system: LureSystem
    to_canonical: Callable[[np.ndarray], np.ndarray]
    from_canonical: Callable[[np.ndarray], np.ndarray]


def canonicalize(sys):
    """Rewrite the system in coordinates where the storage matrix is I.

    With P = L L^T (Cholesky) and x_tilde = L^T x the transformed tuple is
    B_tilde = L^T B, C_tilde = C L^{-T}, D unchanged; the moving set is
    evaluated at the original state. The multiplier inclusion of each step is
    invariant under this congruence, so multipliers and outputs agree between
    coordinate systems. A declared kappa carries over; otherwise kappa is
    re-selected for the transformed tuple. :func:`~luresim.simulate` does not
    use this map; it serves as the reference for stepping with P != I.
    """
    tilde = linalg.storage_congruence(sys.cert.P, sys.B, sys.C)
    if tilde is None:
        ident = lambda x: x
        return CanonicalMap(system=sys, to_canonical=ident, from_canonical=ident)
    ell_t, ell_inv_t, b_t, c_t = tilde
    drift = sys.drift

    def drift_t(t, xt):
        return ell_t @ drift(t, ell_inv_t @ xt)

    base_k = sys.K

    lk1, lk2 = lipschitz_constants(base_k)
    k_t = GeneralMovingSet(
        at_fn=lambda t, xt: base_k.at(t, ell_inv_t @ xt),
        lk1=lk1,
        lk2=lk2 * linalg.spectral_norm(ell_inv_t),
    )
    cond = linalg.spectral_norm(ell_t) * linalg.spectral_norm(ell_inv_t)
    sys_t = build_system(
        b_t,
        c_t,
        sys.D,
        k_t,
        drift=drift_t,
        lf=sys.lf * cond,
        kappa=sys.kappa if sys.cert.step_kappa is None else None,
        sigma=sys.sigma,
    )
    return CanonicalMap(
        system=sys_t,
        to_canonical=lambda x: ell_t @ x,
        from_canonical=lambda xt: ell_inv_t @ xt,
    )
