"""Five anticommuting 4x4 matrices and their four-dimensional reduction.

A gamma set is a quintuple of complex matrices with

    G_A G_B + G_B G_A = -2 eta_AB I,    eta = diag(+ - - - +),

so each matrix squares to minus its metric sign.  Contracting the first
four against the fifth,

    gamma_mu = (i/2) (G_mu G_5 - G_5 G_mu),

yields a set of spacetime Dirac matrices with the opposite sign
convention gamma_mu gamma_nu + gamma_nu gamma_mu = 2 eta_mu_nu.  Linear
maps preserving the five-metric act on the label index and carry gamma
sets to gamma sets.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import ETA5
from .errors import InvalidGammaSet, NotO32
from .numerics import DEFAULT_TOL, Tolerance, max_norm

_SIGMA = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


def dirac_gammas() -> np.ndarray:
    """Standard Dirac-representation gamma matrices, shape (4, 4, 4)."""
    out = np.zeros((4, 4, 4), dtype=complex)
    out[0] = np.diag([1, 1, -1, -1]).astype(complex)
    for k in range(3):
        out[k + 1, :2, 2:] = _SIGMA[k]
        out[k + 1, 2:, :2] = -_SIGMA[k]
    out.setflags(write=False)
    return out


def _chirality(gammas: np.ndarray) -> np.ndarray:
    return 1j * gammas[0] @ gammas[1] @ gammas[2] @ gammas[3]


@dataclass(frozen=True)
class GammaSet:
    """Five matrices indexed by the labels (0, 1, 2, 3, 5)."""

    matrices: np.ndarray

    def __post_init__(self):
        m = np.array(self.matrices, dtype=complex)
        if m.shape != (5, 4, 4):
            raise InvalidGammaSet(f"expected shape (5, 4, 4), got {m.shape}")
        if not np.all(np.isfinite(m.view(float))):
            raise InvalidGammaSet("matrices contain non-finite entries")
        m.setflags(write=False)
        object.__setattr__(self, "matrices", m)


def anticommutation_residual(gs: GammaSet) -> float:
    """Max-norm deviation from G_A G_B + G_B G_A = -2 eta_AB I."""
    g = gs.matrices
    worst = 0.0
    eye = np.eye(4, dtype=complex)
    for a in range(5):
        for b in range(a, 5):
            resid = g[a] @ g[b] + g[b] @ g[a] + 2.0 * ETA5[a, b] * eye
            worst = max(worst, float(np.max(np.abs(resid))))
    return worst


def standard_gamma_set() -> GammaSet:
    """Construct the reference gamma set out of the Dirac matrices.

    The fifth matrix is a phase times the chirality matrix and the first
    four are gamma_mu times the fifth, with the two phases found by trying
    every unit choice until both the anticommutation relations and the
    reduction back to the Dirac matrices hold exactly.  All entries land
    in {0, +-1, +-i}, so the checks below are exact in floating point.
    """
    gammas = dirac_gammas()
    chi = _chirality(gammas)
    for fifth_phase in (1j, -1j):
        g5 = fifth_phase * chi
        for phase in (1, -1, 1j, -1j):
            mats = np.zeros((5, 4, 4), dtype=complex)
            for mu in range(4):
                mats[mu] = phase * gammas[mu] @ g5
            mats[4] = g5
            candidate = GammaSet(mats)
            if anticommutation_residual(candidate) != 0.0:
                continue
            recon = dirac_from_gamma_set(candidate)
            if np.array_equal(recon, gammas):
                return candidate
    raise InvalidGammaSet("phase search failed")  # unreachable for the Dirac seed


def dirac_from_gamma_set(gs: GammaSet, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Spacetime Dirac matrices recovered from a gamma set.

    Computes gamma_mu = (i/2)(G_mu G_5 - G_5 G_mu) after checking that the
    input satisfies the five-dimensional anticommutation relations.
    """
    resid = anticommutation_residual(gs)
    if resid > tol.bound(max_norm(np.abs(gs.matrices))):
        raise InvalidGammaSet(f"anticommutation residual {resid:.3e}")
    g = gs.matrices
    out = np.zeros((4, 4, 4), dtype=complex)
    for mu in range(4):
        out[mu] = 0.5j * (g[mu] @ g[4] - g[4] @ g[mu])
    out.setflags(write=False)
    return out


def is_metric_preserving(o: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> bool:
    """True when o^T eta5 o = eta5."""
    o = np.asarray(o, dtype=float)
    if o.shape != (5, 5):
        return False
    return max_norm(o.T @ ETA5 @ o - ETA5) <= tol.bound(max_norm(o) ** 2)


def apply_metric_preserving(gs: GammaSet, o: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> GammaSet:
    """Mix a gamma set along its label index: G'_A = o^B_A G_B.

    Requires o to preserve the five-metric, which is exactly the condition
    for the mixed set to satisfy the same anticommutation relations.
    """
    o = np.asarray(o, dtype=float)
    if not is_metric_preserving(o, tol):
        raise NotO32("matrix does not preserve the five-metric")
    mixed = np.einsum("ba,bij->aij", o, gs.matrices)
    return GammaSet(mixed)
