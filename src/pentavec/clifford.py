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
from .numerics import bound, raise_where

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
    """Five matrices indexed by the labels (0, 1, 2, 3, 5), over leading axes (..., 5, 4, 4)."""

    matrices: np.ndarray

    def __post_init__(self):
        m = np.array(self.matrices, dtype=complex)
        if m.shape[-3:] != (5, 4, 4):
            raise InvalidGammaSet(f"expected shape (..., 5, 4, 4), got {m.shape}")
        if not np.all(np.isfinite(m.view(float))):
            raise InvalidGammaSet("matrices contain non-finite entries")
        m.setflags(write=False)
        object.__setattr__(self, "matrices", m)


def anticommutators(matrices: np.ndarray) -> np.ndarray:
    """All products G_A G_B + G_B G_A of a set (..., k, n, n), as (..., k, k, n, n)."""
    prod = matrices[..., :, None, :, :] @ matrices[..., None, :, :, :]
    return prod + np.swapaxes(prod, -3, -4)


def anticommutation_residual(gs: GammaSet):
    """Max-norm deviation from G_A G_B + G_B G_A = -2 eta_AB I, one per set.

    A batch gives an array over its leading axes.
    """
    resid = anticommutators(gs.matrices) + 2.0 * ETA5[:, :, None, None] * np.eye(4)
    return np.max(np.abs(resid), axis=(-4, -3, -2, -1))


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


def dirac_from_gamma_set(gs: GammaSet) -> np.ndarray:
    """Spacetime Dirac matrices (..., 4, 4, 4) recovered from a gamma set.

    Computes gamma_mu = (i/2)(G_mu G_5 - G_5 G_mu) after checking that the
    input satisfies the five-dimensional anticommutation relations; a batch
    names its first failing set.
    """
    resid = anticommutation_residual(gs)
    g = gs.matrices
    limit = bound(np.max(np.abs(g), axis=(-3, -2, -1)))
    raise_where(resid > limit, InvalidGammaSet, "anticommutation residual {:.3e}", resid)
    out = 0.5j * (g[..., :4, :, :] @ g[..., 4:, :, :] - g[..., 4:, :, :] @ g[..., :4, :, :])
    out.setflags(write=False)
    return out


def is_metric_preserving(o: np.ndarray):
    """True when o^T eta5 o = eta5; a batch (..., 5, 5) gives a boolean array."""
    o = np.asarray(o, dtype=float)
    if o.shape[-2:] != (5, 5):
        return False
    resid = np.max(np.abs(np.swapaxes(o, -1, -2) @ ETA5 @ o - ETA5), axis=(-2, -1))
    return resid <= bound(np.max(np.abs(o), axis=(-2, -1)) ** 2)


def apply_metric_preserving(gs: GammaSet, o: np.ndarray) -> GammaSet:
    """Mix a gamma set along its label index: G'_A = o^B_A G_B.

    Requires o to preserve the five-metric, which is exactly the condition
    for the mixed set to satisfy the same anticommutation relations.  The
    leading axes of ``gs`` and ``o`` (..., 5, 5) broadcast; a batch names
    its first non-preserving map.
    """
    o = np.asarray(o, dtype=float)
    message = "matrix does not preserve the five-metric"
    raise_where(np.logical_not(is_metric_preserving(o)), NotO32, message)
    g = gs.matrices
    mixed = np.swapaxes(o, -1, -2) @ g.reshape(g.shape[:-2] + (16,))
    return GammaSet(mixed.reshape(mixed.shape[:-1] + (4, 4)))
