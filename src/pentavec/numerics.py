"""Dense-matrix helpers shared by every module.

Everything here works on plain float64 numpy arrays, treats inputs as
immutable values, and returns freshly allocated results.  Comparisons use
the elementwise max-abs norm throughout, and the approximate checks of the
kernels count a residual r as zero when |r| <= ``bound(scale)``.
"""

from __future__ import annotations

import numpy as np

from .errors import NotFinite, ShapeMismatch, SingularMatrix

REL_TOL = 1e-9
ABS_TOL = 1e-12
# Input checks: an antisymmetry residual of m is zero up to INPUT_TOL * max(|m|, 1)
# (``input_bound``), and a wave vector k is null when |k.k| <= NULL_TOL * max(k^T k, 1).
INPUT_TOL = 1e-12
NULL_TOL = 1e-9


def bound(scale):
    """The zero threshold for a residual of magnitude ``scale``: ABS_TOL + REL_TOL * scale."""
    return ABS_TOL + REL_TOL * scale


def input_bound(m, axis=None):
    """The input-check threshold INPUT_TOL * max(|m|, 1), the max over ``axis`` (all axes by default).

    For real ``m``, max |m| is read as max(max m, -min m), with no |m| temporary.
    """
    return INPUT_TOL * np.maximum(np.maximum(np.max(m, axis=axis), -np.min(m, axis=axis)), 1.0)


def as_array(a, shape=None) -> np.ndarray:
    """Copy ``a`` into a read-only float array, checking shape and finiteness.

    A ``shape`` that starts with ``...``, such as ``(..., 4)``, fixes the
    trailing axes and admits any leading ones.
    """
    out = np.array(a, dtype=float)
    want = out.shape if shape is None else tuple(shape)
    if want[:1] == (...,):
        want = out.shape[: max(out.ndim - len(want) + 1, 0)] + want[1:]
    if out.shape != want:
        raise ShapeMismatch(f"expected shape {want}, got {out.shape}")
    if not np.all(np.isfinite(out)):
        raise NotFinite("array contains non-finite entries")
    out.setflags(write=False)
    return out


def raise_where(bad, error, message: str, *values) -> None:
    """Raise ``error`` when any entry of the boolean array ``bad`` is set.

    Array kernels check a whole batch at once and report the first failing
    element: ``message`` is formatted with each of ``values`` taken at that
    element, and when ``bad`` has axes the element's index is appended.
    """
    bad = np.asarray(bad)
    if not bad.any():
        return
    index = tuple(int(i) for i in np.argwhere(bad)[0])
    text = message.format(*(np.asarray(v)[index] for v in values))
    if index:
        text += f" (element {index[0] if len(index) == 1 else index})"
    raise error(text)


def max_norm(a) -> float:
    a = np.asarray(a)
    if a.size == 0:
        return 0.0
    return float(np.max(np.abs(a)))


def invert(m) -> np.ndarray:
    """Inverse of each square matrix of ``m`` (..., n, n), rejecting near-singular input.

    The condition estimate is sigma_max / sigma_min; anything above
    1 / REL_TOL raises SingularMatrix, naming the first such element.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim < 2 or m.shape[-2] != m.shape[-1]:
        raise ShapeMismatch(f"expected square matrices (..., n, n), got {m.shape}")
    sigma = np.linalg.svd(m, compute_uv=False)
    bad = (sigma[..., -1] <= 0.0) | (sigma[..., 0] * REL_TOL > sigma[..., -1])
    raise_where(bad, SingularMatrix, f"condition estimate exceeds {1.0 / REL_TOL:g}")
    return np.linalg.inv(m)


# Numerator coefficients b_0 .. b_13 of the [13/13] Pade approximant of exp,
# and the 1-norm up to which it meets double precision without scaling
# (Higham, SIAM J. Matrix Anal. Appl. 26(4), 2005, Table 2.3).
_PADE13 = (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0, 1187353796428800.0,
    129060195264000.0, 10559470521600.0, 670442572800.0, 33522128640.0,
    1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0,
)
_THETA13 = 5.371920351148152


def expm(a) -> np.ndarray:
    """Matrix exponential of each square matrix of ``a`` (..., n, n).

    Pade [13/13] with scaling and squaring (Higham 2005).  Each element is
    scaled by its own power of two, chosen from its 1-norm, and squared back
    only that many times, so a stack gives the same numbers as its elements
    taken one at a time.
    """
    a = as_array(a)
    if a.ndim < 2 or a.shape[-2] != a.shape[-1]:
        raise ShapeMismatch(f"expected square matrices (..., n, n), got {a.shape}")
    norm = np.max(np.sum(np.abs(a), axis=-2), axis=-1)
    with np.errstate(divide="ignore"):
        squarings = np.maximum(np.ceil(np.log2(norm / _THETA13)), 0.0).astype(int)
    a = a / np.exp2(squarings)[..., None, None]
    b = _PADE13
    eye = np.eye(a.shape[-1])
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2) + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * eye)
    v = a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2) + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * eye
    r = np.linalg.solve(v - u, v + u)
    for k in range(int(squarings.max(initial=0))):
        more = squarings > k
        r[more] = r[more] @ r[more]
    return r


def singular_rank(sigma) -> np.ndarray:
    """Count of singular values above REL_TOL * sigma_max, over leading axes.

    ``sigma`` holds descending singular values on its last axis, as
    ``np.linalg.svd`` returns them; this is the one rank threshold shared by
    ``matrix_rank`` and the array kernels.
    """
    sigma = np.asarray(sigma, dtype=float)
    if sigma.shape[-1] == 0:
        return np.zeros(sigma.shape[:-1], dtype=int)
    return np.sum(sigma > REL_TOL * sigma[..., :1], axis=-1)


def matrix_rank(m):
    """Numerical rank, thresholded by ``singular_rank``.

    A stack of matrices ``(..., rows, cols)`` gives an array of ranks.
    """
    rank = singular_rank(np.linalg.svd(np.asarray(m, dtype=float), compute_uv=False))
    return int(rank) if rank.ndim == 0 else rank
