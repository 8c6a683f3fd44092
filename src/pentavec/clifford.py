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

Gamma sets are plain complex arrays (..., 5, 4, 4) with any leading axes.
Each function checks its sets once, on entry, through ``gamma_set``.
"""

from __future__ import annotations

import numpy as np

from .algebra import ETA5, preservation_residual
from .errors import InvalidGammaSet, NotO32
from .numerics import as_array, bound, raise_where

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


def gamma_set(m) -> np.ndarray:
    """``m`` as a complex array of gamma sets (..., 5, 4, 4), five matrices
    indexed by the labels (0, 1, 2, 3, 5); a wrong shape or a non-finite
    entry raises InvalidGammaSet."""
    m = np.asarray(m, dtype=complex)
    if m.shape[-3:] != (5, 4, 4):
        raise InvalidGammaSet(f"expected shape (..., 5, 4, 4), got {m.shape}")
    if not np.all(np.isfinite(m)):
        raise InvalidGammaSet("matrices contain non-finite entries")
    return m


def anticommutators(matrices: np.ndarray) -> np.ndarray:
    """All products G_A G_B + G_B G_A of a set (..., k, n, n), as (..., k, k, n, n)."""
    prod = matrices[..., :, None, :, :] @ matrices[..., None, :, :, :]
    return prod + np.swapaxes(prod, -3, -4)


def _residual(g: np.ndarray):
    resid = anticommutators(g) + 2.0 * ETA5[:, :, None, None] * np.eye(4)
    return np.max(np.abs(resid), axis=(-4, -3, -2, -1))


def anticommutation_residual(m):
    """Max-norm deviation of gamma sets (..., 5, 4, 4) from G_A G_B + G_B G_A = -2 eta_AB I.

    One residual per set: a batch gives an array over its leading axes.
    """
    return _residual(gamma_set(m))


def standard_gamma_set() -> np.ndarray:
    """The reference gamma set (5, 4, 4), built from the Dirac matrices.

    G_5 = i chi for the chirality matrix chi = i gamma^0 gamma^1 gamma^2
    gamma^3, and G_mu = i gamma_mu G_5.  All entries land in {0, +-1, +-i},
    so the anticommutation relations and the reduction back to the Dirac
    matrices hold exactly in floating point; the clifford suite checks both.
    """
    gammas = dirac_gammas()
    g5 = 1j * _chirality(gammas)
    out = np.concatenate([1j * gammas @ g5, g5[None]])
    out.setflags(write=False)
    return out


def dirac_from_gamma_set(m) -> np.ndarray:
    """Spacetime Dirac matrices (..., 4, 4, 4) recovered from gamma sets (..., 5, 4, 4).

    Computes gamma_mu = (i/2)(G_mu G_5 - G_5 G_mu) after checking that the
    input satisfies the five-dimensional anticommutation relations; a batch
    names its first failing set.
    """
    g = gamma_set(m)
    resid = _residual(g)
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
    resid, limit = preservation_residual(o, ETA5)
    return resid <= limit


def apply_metric_preserving(m, o: np.ndarray) -> np.ndarray:
    """Mix gamma sets (..., 5, 4, 4) along their label index: G'_A = o^B_A G_B.

    Requires o to preserve the five-metric, which is exactly the condition
    for the mixed set to satisfy the same anticommutation relations.  The
    leading axes of the sets and of ``o`` (..., 5, 5) broadcast; a batch
    names its first non-preserving map.
    """
    g = gamma_set(m)
    o = as_array(o, shape=(..., 5, 5))
    message = "matrix does not preserve the five-metric"
    raise_where(np.logical_not(is_metric_preserving(o)), NotO32, message)
    mixed = np.swapaxes(o, -1, -2) @ g.reshape(g.shape[:-2] + (16,))
    return mixed.reshape(mixed.shape[:-1] + (4, 4))
