"""Bivector algebra over a real five-dimensional vector space.

Components run over the index labels (0, 1, 2, 3, 5): the fifth slot,
``components[4]``, is the label-5 entry.  The reference inner product has
signature (+ - - - +).

The central operation is ``directional_vector``: every maximal space of
simple bivectors in five dimensions consists of wedges ``u ^ w`` with a
shared vector w, unique up to scale, and this module recovers w from a
spanning set.  When w has positive norm the wedges behave like spacetime
four-vectors, with their inner product induced by ``bivector_inner``.

Each law is one function over plain arrays with any leading axes
(vectors ``(..., 5)``, bivectors ``(..., 5, 5)``); a single vector or
bivector is the case with no leading axes.  Non-finite input raises
NotFinite.
"""

from __future__ import annotations

import enum
import itertools

import numpy as np

from .errors import (
    DimensionTooSmall,
    NotAntisymmetric,
    NotFinite,
    NotInMaximalSpace,
    NotMaximalSpace,
    NotSimple,
    ShapeMismatch,
    ZeroVector,
)
from .numerics import (
    ABS_TOL, as_array, bound, input_bound,
    matrix_rank, max_norm, raise_where, singular_rank,
)

ETA5 = as_array(np.diag([1.0, -1.0, -1.0, -1.0, 1.0]))
ETA4 = as_array(np.diag([1.0, -1.0, -1.0, -1.0]))


def lower_array(x) -> np.ndarray:
    """Lower the last index of four-vectors ``(..., 4)``: x_a = eta_ab x^b.

    The metric is diagonal, so this is a sign flip on the spatial slots and
    exact in floating point.  It is also raising, since ETA4 is its own inverse.
    """
    return np.asarray(x, dtype=float) * np.diagonal(ETA4)


def eta_dot(u, v) -> np.ndarray:
    """The five-metric ETA5 on five-vectors ``(..., 5)``: eta(u, v) over their leading axes."""
    return np.sum((np.asarray(u, dtype=float) @ ETA5) * np.asarray(v, dtype=float), axis=-1)


def antisymmetric(m, what: str) -> np.ndarray:
    """``m`` (..., 5, 5) as a read-only float array, each matrix checked to be
    antisymmetric up to its ``input_bound``; ``what`` names it in the error."""
    m = as_array(m, shape=(..., 5, 5))
    asym = np.max(np.abs(m + np.swapaxes(m, -1, -2)), axis=(-2, -1))
    raise_where(asym > input_bound(m, axis=(-2, -1)), NotAntisymmetric, f"{what} must be antisymmetric")
    return m


def preservation_residual(m: np.ndarray, eta: np.ndarray) -> tuple:
    """max |m^T eta m - eta| of each matrix of ``m`` (..., n, n), and its zero threshold bound(max |m|^2)."""
    resid = np.max(np.abs(np.swapaxes(m, -1, -2) @ eta @ m - eta), axis=(-2, -1))
    return resid, bound(np.max(np.abs(m), axis=(-2, -1)) ** 2)


def _stack(a, trailing: tuple, what: str) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.shape[a.ndim - len(trailing):] != trailing:
        raise ShapeMismatch(f"expected {what} of trailing shape {trailing}, got {a.shape}")
    trailing_axes = tuple(range(-len(trailing), 0))
    raise_where(~np.isfinite(a).all(axis=trailing_axes), NotFinite, f"{what} contain non-finite entries")
    return a


def wedge(u, v) -> np.ndarray:
    """Antisymmetrized tensor product u ^ v of five-vectors ``(..., 5)``, giving ``(..., 5, 5)``."""
    u = _stack(u, (5,), "five-vectors")
    v = _stack(v, (5,), "five-vectors")
    return u[..., :, None] * v[..., None, :] - v[..., :, None] * u[..., None, :]


# The four indices left when index i is dropped, one row per i.
_MINORS = np.array([[k for k in range(5) if k != i] for i in range(5)])


def _wedge_square_dual(b) -> np.ndarray:
    # The antisymmetrized square of a 2-form is a 4-form; in five dimensions
    # that is captured completely by its contraction with the Levi-Civita
    # symbol, eps_(abcdi) b^ab b^cd = (-1)^i 8 Pf(b without row and column i),
    # a plain five-component vector per bivector.
    p, q, r, s = _MINORS.T
    pfaffian = b[..., p, q] * b[..., r, s] - b[..., p, r] * b[..., q, s] + b[..., p, s] * b[..., q, r]
    return pfaffian * np.array([8.0, -8.0, 8.0, -8.0, 8.0])


def is_simple(b) -> np.ndarray:
    """True for each bivector of ``(..., 5, 5)`` that is a single wedge u ^ v, detected by b ^ b = 0.

    Entries beyond about 1e154 overflow the square; that raises NotFinite.
    """
    b = _stack(b, (5, 5), "bivectors")
    with np.errstate(over="ignore", invalid="ignore"):
        scale = np.max(np.abs(b), axis=(-2, -1)) ** 2
        square = np.max(np.abs(_wedge_square_dual(b)), axis=-1)
    raise_where(~(np.isfinite(scale) & np.isfinite(square)), NotFinite, "bivector square overflows")
    return square <= bound(scale)


_PAIRS = list(itertools.combinations(range(5), 2))
_PAIR_ROWS, _PAIR_COLS = (np.array(idx) for idx in zip(*_PAIRS))


def _vec_pairs(b: np.ndarray) -> np.ndarray:
    """The 10 independent entries b^{ij}, i < j, of ``(..., 5, 5)``."""
    return b[..., _PAIR_ROWS, _PAIR_COLS]


def _wedge_with_vector_tensor() -> np.ndarray:
    """Constant (25, 50) matrix turning a bivector into the map w -> b ^ w.

    ``(b.reshape(25) @ T).reshape(10, 5)`` is the matrix of w -> b ^ w,
    with rows over the 10 independent 3-form slots ijk.
    """
    t = np.zeros((10, 5, 5, 5))
    for r, (i, j, k) in enumerate(itertools.combinations(range(5), 3)):
        # (b ^ w)^{ijk} = b^{ij} w^k + b^{jk} w^i + b^{ki} w^j
        t[r, k, i, j] += 1.0
        t[r, i, j, k] += 1.0
        t[r, j, k, i] += 1.0
    t = t.reshape(50, 25).T.copy()
    t.setflags(write=False)
    return t


_WEDGE_WITH_VECTOR = _wedge_with_vector_tensor()


def directional_vector(bivectors) -> np.ndarray:
    """Shared directions w of spanning sets ``(..., k, 5, 5)``, giving ``(..., 5)``.

    Every bivector must be simple, each set must span at least four
    dimensions, and the wedge constraints b ^ w = 0 of a set must leave a
    one-dimensional space of common directions, as in a maximal space of
    simple bivectors.  Each result is Euclidean unit length with its first
    significant component positive, making the sign deterministic.
    """
    b = _stack(bivectors, (5, 5), "bivector sets")
    if b.ndim < 3:
        raise ShapeMismatch(f"expected bivector sets (..., k, 5, 5), got {b.shape}")
    k = b.shape[-3]
    if k == 0:
        raise DimensionTooSmall("need a spanning set, got no bivectors")
    raise_where(~is_simple(b), NotSimple, "input bivector is not simple")

    span_rank = matrix_rank(_vec_pairs(b))
    raise_where(np.asarray(span_rank) < 4, DimensionTooSmall, "bivectors span fewer than four dimensions")

    sets = b.shape[:-3]
    constraints = (b.reshape(sets + (k, 25)) @ _WEDGE_WITH_VECTOR).reshape(sets + (10 * k, 5))
    _, sigma, vt = np.linalg.svd(constraints, full_matrices=False)
    kernel_dim = 5 - singular_rank(sigma)
    raise_where(
        kernel_dim != 1,
        NotMaximalSpace,
        "common-direction space has dimension {}, expected 1",
        kernel_dim,
    )
    w = vt[..., -1, :]
    significant = np.abs(w) > 1e-8 * np.max(np.abs(w), axis=-1)[..., None]
    lead = np.take_along_axis(w, np.argmax(significant, axis=-1)[..., None], axis=-1)
    return np.where(lead < 0.0, -w, w)


def bivector_inner(b1, b2, h=ETA5) -> np.ndarray:
    """Inner product induced on bivectors ``(..., 5, 5)`` by a five-metric h (5, 5).

    For simple arguments sharing a directional vector w this reduces to
    h(u, v) h(w, w) - h(u, w) h(v, w), the metric that makes a maximal
    simple-bivector space behave as a spacetime of four-vectors.  ``b1`` and
    ``b2`` broadcast against each other over their leading axes; the Gram
    matrix of a set ``w`` of shape ``(..., k, 5, 5)`` is
    ``bivector_inner(w[..., :, None, :, :], w[..., None, :, :, :])``.
    """
    b1 = _stack(b1, (5, 5), "bivectors")
    b2 = _stack(b2, (5, 5), "bivectors")
    h = as_array(h, shape=(5, 5))
    return 0.5 * np.sum((h.T @ b1 @ h) * b2, axis=(-2, -1))


class DirectionalClass(enum.Enum):
    POSITIVE = "positive"
    NULL = "null"
    NEGATIVE = "negative"


def classify_directional(w) -> DirectionalClass:
    """Sign class of eta(w, w) for components w ``(5,)``, with a tolerance band around zero.

    Positive norm gives a Lorentzian wedge space, negative norm flips two
    metric signs, and a null direction degenerates the induced metric.
    """
    w = as_array(w, shape=(5,))
    wmax = max_norm(w)
    if wmax <= ABS_TOL:
        raise ZeroVector("cannot classify the zero vector")
    norm = eta_dot(w, w)
    band = bound(wmax * wmax)
    if abs(norm) <= band:
        return DirectionalClass.NULL
    return DirectionalClass.POSITIVE if norm > 0 else DirectionalClass.NEGATIVE


# The six four-block entries b^(mu nu), mu < nu, that a wedge with e_5 leaves zero.
_FOUR_BLOCK = np.triu_indices(4, 1)


def bivector_from_four(u) -> np.ndarray:
    """Wedges sum_mu u^mu e_mu ^ e_5 of four-vectors ``(..., 4)``: the embedding
    of four-vector components into the wedge space of the reference basis."""
    u = _stack(u, (4,), "four-vectors")
    e = np.eye(5)
    return wedge(u @ e[:, :4].T, e[:, 4])


def four_from_bivector(b) -> np.ndarray:
    """Components ``(..., 4)`` of bivectors ``(..., 5, 5)`` against the reference
    wedge basis e_mu ^ e_5: the entries b^(mu 5).

    A bivector with a four-block entry b^(mu nu) beyond bound(max |b|) lies
    outside the span and raises NotInMaximalSpace.
    """
    b = _stack(b, (5, 5), "bivectors")
    residual = np.max(np.abs(b[..., _FOUR_BLOCK[0], _FOUR_BLOCK[1]]), axis=-1)
    raise_where(
        residual > bound(np.max(np.abs(b), axis=(-2, -1))),
        NotInMaximalSpace,
        "residual {:.3e} outside the wedge span",
        residual,
    )
    return b[..., :4, 4].copy()
