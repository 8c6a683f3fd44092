"""Bivector algebra over a real five-dimensional vector space.

Index labels run over (0, 1, 2, 3, 5): the fifth component slot carries
label 5, so ``components[4]`` is the label-5 entry.  The reference inner
product has signature (+ - - - +).

The central operation is ``directional_vector``: every maximal space of
simple bivectors in five dimensions consists of wedges ``u ^ w`` with a
shared vector w, unique up to scale, and this module recovers w from a
spanning set.  When w has positive norm the wedges behave like spacetime
four-vectors, with their inner product induced by ``bivector_inner``.

Each law is written once, as an ``*_array`` kernel over plain arrays with
any leading axes (vectors ``(..., 5)``, bivectors ``(..., 5, 5)``); the
object functions are one-element calls into those kernels.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass

import numpy as np

from .errors import (
    BasisMismatch,
    DimensionTooSmall,
    InvalidMetric,
    NotAntisymmetric,
    NotInMaximalSpace,
    NotMaximalSpace,
    NotSimple,
    NotStandard,
    OutOfRange,
    ShapeMismatch,
    ZeroVector,
)
from .numerics import (
    ABS_TOL, INPUT_TOL, as_array, bound, input_bound,
    matrix_rank, max_norm, raise_where, singular_rank,
)

INDEX_LABELS = (0, 1, 2, 3, 5)

ETA5 = as_array(np.diag([1.0, -1.0, -1.0, -1.0, 1.0]))
ETA4 = as_array(np.diag([1.0, -1.0, -1.0, -1.0]))


def lower_array(x) -> np.ndarray:
    """Lower the last index of four-vectors ``(..., 4)``: x_a = eta_ab x^b.

    The metric is diagonal, so this is a sign flip on the spatial slots and
    exact in floating point.  It is also raising, since ETA4 is its own inverse.
    """
    return np.asarray(x, dtype=float) * np.diagonal(ETA4)


def label_to_slot(label: int) -> int:
    if label not in INDEX_LABELS:
        raise OutOfRange(f"index label must be one of {INDEX_LABELS}, got {label}")
    return 4 if label == 5 else label


def slot_to_label(slot: int) -> int:
    if not 0 <= slot <= 4:
        raise OutOfRange(f"slot must be 0..4, got {slot}")
    return INDEX_LABELS[slot]


def _levi_civita_5() -> np.ndarray:
    eps = np.zeros((5,) * 5)
    for perm in itertools.permutations(range(5)):
        sign = 1
        for i in range(5):
            for j in range(i + 1, 5):
                if perm[i] > perm[j]:
                    sign = -sign
        eps[perm] = sign
    eps.setflags(write=False)
    return eps


EPS5 = _levi_civita_5()


@dataclass(frozen=True)
class MetricH:
    """Symmetric five-dimensional inner product with signature (+ - - - +).

    Signature is validated by eigenvalue signs (two positive, three
    negative); the ordering of the plus and minus directions is a basis
    convention, not a property of the metric itself.
    """

    matrix: np.ndarray

    def __post_init__(self):
        m = as_array(self.matrix, shape=(5, 5))
        if max_norm(m - m.T) > input_bound(m):
            raise InvalidMetric("metric matrix must be symmetric")
        eigs = np.linalg.eigvalsh(m)
        if np.min(np.abs(eigs)) <= INPUT_TOL * np.max(np.abs(eigs)):
            raise InvalidMetric("metric matrix is degenerate")
        if int(np.sum(eigs > 0)) != 2 or int(np.sum(eigs < 0)) != 3:
            raise InvalidMetric("metric signature must have two positive and three negative directions")
        object.__setattr__(self, "matrix", m)

    @classmethod
    def reference(cls) -> "MetricH":
        return cls(ETA5)

    def dot(self, u, v):
        """h(u, v); arrays ``(..., 5)`` give the values over their leading axes."""
        return np.sum((np.asarray(u, dtype=float) @ self.matrix) * np.asarray(v, dtype=float), axis=-1)


@dataclass(frozen=True)
class FiveVector:
    components: np.ndarray
    basis_id: str = "reference"

    def __post_init__(self):
        object.__setattr__(self, "components", as_array(self.components, shape=(5,)))


@dataclass(frozen=True)
class FiveForm:
    """Covariant counterpart of FiveVector; pairs with vectors by plain contraction."""

    components: np.ndarray
    basis_id: str = "reference"

    def __post_init__(self):
        object.__setattr__(self, "components", as_array(self.components, shape=(5,)))

    def pair(self, v: FiveVector) -> float:
        if self.basis_id != v.basis_id:
            raise BasisMismatch(f"form in {self.basis_id!r}, vector in {v.basis_id!r}")
        return float(self.components @ v.components)


@dataclass(frozen=True)
class FourVector:
    components: np.ndarray
    basis_id: str = "reference"

    def __post_init__(self):
        object.__setattr__(self, "components", as_array(self.components, shape=(4,)))


@dataclass(frozen=True)
class Bivector5:
    """Antisymmetric rank-2 contravariant tensor on the five-space."""

    matrix: np.ndarray
    basis_id: str = "reference"

    def __post_init__(self):
        m = as_array(self.matrix, shape=(5, 5))
        if max_norm(m + m.T) > input_bound(m):
            raise NotAntisymmetric("bivector matrix must be antisymmetric")
        object.__setattr__(self, "matrix", m)


def _stack(a, trailing: tuple, what: str) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.shape[a.ndim - len(trailing):] != trailing:
        raise ShapeMismatch(f"expected {what} of trailing shape {trailing}, got {a.shape}")
    return a


def wedge_array(u, v) -> np.ndarray:
    """u ^ v for five-vector arrays ``(..., 5)``, giving ``(..., 5, 5)``."""
    u = _stack(u, (5,), "five-vectors")
    v = _stack(v, (5,), "five-vectors")
    return u[..., :, None] * v[..., None, :] - v[..., :, None] * u[..., None, :]


def wedge(u: FiveVector, v: FiveVector) -> Bivector5:
    """Antisymmetrized tensor product of two five-vectors."""
    if u.basis_id != v.basis_id:
        raise BasisMismatch(f"operands live in {u.basis_id!r} and {v.basis_id!r}")
    return Bivector5(wedge_array(u.components, v.components), basis_id=u.basis_id)


_EPS5_FLAT = EPS5.reshape(625, 5)


def _wedge_square_dual(b) -> np.ndarray:
    # The antisymmetrized square of a 2-form is a 4-form; in five dimensions
    # that is captured completely by its contraction with the Levi-Civita
    # symbol, a plain five-component vector per bivector.
    b = _stack(b, (5, 5), "bivectors")
    square = b[..., :, :, None, None] * b[..., None, None, :, :]
    return square.reshape(b.shape[:-2] + (625,)) @ _EPS5_FLAT


def is_simple_array(b) -> np.ndarray:
    """Per-bivector simplicity test b ^ b = 0 over ``(..., 5, 5)``."""
    b = _stack(b, (5, 5), "bivectors")
    scale = np.max(np.abs(b), axis=(-2, -1)) ** 2
    return np.max(np.abs(_wedge_square_dual(b)), axis=-1) <= bound(scale)


def is_simple(b: Bivector5) -> bool:
    """True when b is a single wedge u ^ v, detected by b ^ b = 0."""
    return bool(is_simple_array(b.matrix))


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


def directional_vector_array(bivectors) -> np.ndarray:
    """Shared directions of spanning sets ``(..., k, 5, 5)``, giving ``(..., 5)``.

    Every bivector must be simple, each set must span at least four
    dimensions, and the wedge constraints b ^ w = 0 of a set must leave a
    one-dimensional space of common directions.  Each result is Euclidean
    unit length with its first significant component positive.
    """
    b = _stack(bivectors, (5, 5), "bivector sets")
    if b.ndim < 3:
        raise ShapeMismatch(f"expected bivector sets (..., k, 5, 5), got {b.shape}")
    k = b.shape[-3]
    if k == 0:
        raise DimensionTooSmall("need a spanning set, got no bivectors")
    raise_where(~is_simple_array(b), NotSimple, "input bivector is not simple")

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


def directional_vector(bivectors) -> FiveVector:
    """Shared direction w of a spanning set of a maximal simple-bivector space.

    Every input must be simple, the inputs must span at least four
    dimensions, and all of them must annihilate a single common direction
    under the wedge.  The result is unit length in the Euclidean sense with
    its first significant component positive, making the sign deterministic.
    """
    bivectors = list(bivectors)
    if not bivectors:
        raise DimensionTooSmall("need a spanning set, got no bivectors")
    basis_id = bivectors[0].basis_id
    if any(b.basis_id != basis_id for b in bivectors):
        raise BasisMismatch("bivectors expressed against different bases")
    w = directional_vector_array(np.array([b.matrix for b in bivectors]))
    return FiveVector(w, basis_id=basis_id)


def bivector_inner_array(b1, b2, h: MetricH) -> np.ndarray:
    """Induced inner product of bivector arrays under the five-metric h.

    ``b1`` and ``b2`` broadcast against each other over their leading axes;
    the Gram matrix of a set ``w`` of shape ``(..., k, 5, 5)`` is
    ``bivector_inner_array(w[..., :, None, :, :], w[..., None, :, :, :], h)``.
    """
    b1 = _stack(b1, (5, 5), "bivectors")
    b2 = _stack(b2, (5, 5), "bivectors")
    return 0.5 * np.sum((h.matrix.T @ b1 @ h.matrix) * b2, axis=(-2, -1))


def bivector_inner(b1: Bivector5, b2: Bivector5, h: MetricH) -> float:
    """Inner product induced on bivectors by the five-metric.

    For simple arguments sharing a directional vector w this reduces to
    h(u, v) h(w, w) - h(u, w) h(v, w), the metric that makes a maximal
    simple-bivector space behave as a spacetime of four-vectors.
    """
    return float(bivector_inner_array(b1.matrix, b2.matrix, h))


class DirectionalClass(enum.Enum):
    POSITIVE = "positive"
    NULL = "null"
    NEGATIVE = "negative"


def classify_directional(w: FiveVector, h: MetricH) -> DirectionalClass:
    """Sign class of h(w, w), with a tolerance band around zero.

    Positive norm gives a Lorentzian wedge space, negative norm flips two
    metric signs, and a null direction degenerates the induced metric.
    """
    wmax = max_norm(w.components)
    if wmax <= ABS_TOL:
        raise ZeroVector("cannot classify the zero vector")
    norm = h.dot(w.components, w.components)
    band = bound(max_norm(h.matrix) * wmax * wmax)
    if abs(norm) <= band:
        return DirectionalClass.NULL
    return DirectionalClass.POSITIVE if norm > 0 else DirectionalClass.NEGATIVE


def bivector_from_four_array(u, basis) -> np.ndarray:
    """Wedges sum_mu u^mu e_mu ^ e_5 of four-vector arrays ``(..., 4)`` in a basis."""
    u = _stack(u, (4,), "four-vectors")
    cols = basis.matrix
    return wedge_array(u @ cols[:, :4].T, cols[:, 4])


def bivector_from_four(u: FourVector, basis) -> Bivector5:
    """Embed a four-vector into the wedge space of a standard basis."""
    if u.basis_id != basis.id:
        raise BasisMismatch(f"four-vector in {u.basis_id!r}, basis is {basis.id!r}")
    return Bivector5(bivector_from_four_array(u.components, basis), basis_id=basis.reference_id)


def four_from_bivector_array(b, basis) -> np.ndarray:
    """Components ``(..., 4)`` of bivectors ``(..., 5, 5)`` against e_mu ^ e_5.

    One least-squares solve covers the whole batch; a bivector whose
    residual lies outside the span raises NotInMaximalSpace.
    """
    if not basis.is_standard():
        raise NotStandard("basis must be standard (fifth vector along the directional vector)")
    b = _stack(b, (5, 5), "bivectors")
    cols = basis.matrix
    span = _vec_pairs(wedge_array(cols[:, :4].T, cols[:, 4]))  # (4, 10)
    target = _vec_pairs(b)
    coeffs, *_ = np.linalg.lstsq(span.T, target.reshape(-1, 10).T, rcond=None)
    coeffs = coeffs.T.reshape(b.shape[:-2] + (4,))
    residual = np.max(np.abs(coeffs @ span - target), axis=-1)
    raise_where(
        residual > bound(np.max(np.abs(b), axis=(-2, -1))),
        NotInMaximalSpace,
        "residual {:.3e} outside the wedge span",
        residual,
    )
    return coeffs


def four_from_bivector(b: Bivector5, basis) -> FourVector:
    """Components of b against the wedge basis e_mu ^ e_5 of a standard basis.

    Raises NotInMaximalSpace when b has a residual outside that span.
    """
    if b.basis_id != basis.reference_id:
        raise BasisMismatch(f"bivector in {b.basis_id!r}, basis columns in {basis.reference_id!r}")
    return FourVector(four_from_bivector_array(b.matrix, basis), basis_id=basis.id)
