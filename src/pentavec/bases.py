"""Five-dimensional bases, basis changes, and basis construction.

A basis, or frame, is a plain array ``(..., 5, 5)`` holding its five
vectors as columns against the reference basis, the identity.  It is
standard when its fifth vector points along the designated
directional vector of the wedge space (here the reference fifth axis).
Changes between standard bases are exactly those with a vanishing
top-right column block, and they factor uniquely into a scaling of the
fifth vector (U), a shear adding multiples of the fifth vector to the
first four (P), and a pure four-space map (M).  A change is a plain
array L (..., 5, 5) with new basis vectors e'_A = e_B L^B_A; it is
inverted, with the checked ``invert``, only where an inverse is formed.

The two constructors at the bottom build five-bases out of four-vector
data given as simple bivectors: ``orthonormal_basis_for`` requires the
input wedges to be orthonormal and returns an orthonormal five-basis,
unique up to an overall sign; ``regular_basis_for`` accepts any
independent spanning set and returns a basis whose fifth vector is unit
and orthogonal to the other four.  Each builds a whole stack of frames,
as basis matrices ``(..., 5, 5)``, from wedge quadruples
``(..., 4, 5, 5)`` at once; one quadruple is the case with no leading axes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import (
    ETA4,
    ETA5,
    _vec_pairs,
    bivector_inner,
    directional_vector,
    eta_dot,
    wedge,
)
from .errors import (
    DegenerateInducedMetric,
    DimensionTooSmall,
    NoCommonDirection,
    NotFinite,
    NotMaximalSpace,
    NotOrthonormalInput,
    NotSimple,
    NotStandard,
    ShapeMismatch,
    SingularBlock,
    SingularMatrix,
)
from .numerics import REL_TOL, as_array, bound, invert, matrix_rank, raise_where


@dataclass(frozen=True)
class BasisFlags:
    standard: bool
    regular: bool
    orthonormal: bool


def _standard(cols: np.ndarray) -> np.ndarray:
    # Fifth column proportional to the reference directional axis.
    col = np.abs(cols[..., :, 4])
    return np.max(col[..., :4], axis=-1) <= bound(np.max(col, axis=-1))


@dataclass(frozen=True)
class FrameResiduals:
    """Max-norm residuals of frames, arrays over the leading axes.

    ``regular``: eta(e_5, e_5) = 1 and eta(e_mu, e_5) = 0; ``orthonormal``: Gram
    matrix = diag(+ - - - +); ``gram``: the Gram matrices themselves; ``wedge``:
    e_mu ^ e_5 = the input wedges (zero when none are given).
    """

    regular: np.ndarray
    orthonormal: np.ndarray
    gram: np.ndarray
    wedge: np.ndarray


def frame_residuals(cols, wedges=None) -> FrameResiduals:
    """Gram and wedge residuals of frames ``cols`` against wedges ``(..., 4, 5, 5)``.

    A frame whose Gram matrix overflows raises NotFinite.
    """
    cols = np.asarray(cols, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        gram = np.swapaxes(cols, -1, -2) @ ETA5 @ cols
    raise_where(~np.isfinite(gram).all(axis=(-2, -1)), NotFinite, "frame inner products overflow")
    wedge_resid = 0.0
    if wedges is not None:
        recon = wedge(np.swapaxes(cols[..., :, :4], -1, -2), cols[..., None, :, 4])
        wedge_resid = np.max(np.abs(recon - wedges), axis=(-3, -2, -1))
    return FrameResiduals(
        regular=np.maximum(np.abs(gram[..., 4, 4] - 1.0), np.max(np.abs(gram[..., :4, 4]), axis=-1)),
        orthonormal=np.max(np.abs(gram - ETA5), axis=(-2, -1)),
        gram=gram,
        wedge=wedge_resid,
    )


def classify_basis(cols) -> BasisFlags:
    """Flags of basis matrices ``(..., 5, 5)`` under the five-metric ETA5.

    The fields of the returned BasisFlags are boolean arrays over the
    leading axes.  The orthonormal residual is thresholded at bound(max |gram|).
    The regular one is judged by the Euclidean norms of the vectors it pairs,
    |g55 - 1| at bound(|e_5|^2) and |g_mu5| at bound(|e_mu| |e_5|), so large
    four-vectors do not loosen it.
    """
    cols = np.asarray(cols, dtype=float)
    r = frame_residuals(cols)
    with np.errstate(over="ignore"):  # five finite squares may sum past the float range
        norm = np.sqrt(np.sum(cols * cols, axis=-2))
    fifth = np.abs(r.gram[..., 4, 4] - 1.0) <= bound(norm[..., 4] ** 2)
    mixed = np.abs(r.gram[..., :4, 4]) <= bound(norm[..., :4] * norm[..., 4, None])
    orthonormal = r.orthonormal <= bound(np.max(np.abs(r.gram), axis=(-2, -1)))
    return BasisFlags(_standard(cols), fifth & np.all(mixed, axis=-1), orthonormal)


def is_standard_change(change):
    """True when the changes L (..., 5, 5) map standard bases to standard bases.

    The criterion is a vanishing upper-right block: the new fifth vector
    may pick up no component along the first four.  A batch gives a
    boolean array over its leading axes.
    """
    m = as_array(change, shape=(..., 5, 5))
    return np.max(np.abs(m[..., :4, 4]), axis=-1) <= bound(np.max(np.abs(m), axis=(-2, -1)))


def induced_four_map(change) -> np.ndarray:
    """Map induced on wedge four-vectors by a standard basis change.

    The wedges transform with the four-block of L scaled by the fifth
    diagonal entry: Lambda^nu_mu = L^5_5 L^nu_mu.
    """
    message = "only standard changes act on the wedge four-space"
    m = as_array(change, shape=(..., 5, 5))
    raise_where(~is_standard_change(m), NotStandard, message)
    return m[..., 4, 4, None, None] * m[..., :4, :4]


def u_transformation(a) -> np.ndarray:
    """Scale the fifth vector by a and the other four by 1/a."""
    a = as_array(a)
    raise_where(a == 0.0, SingularBlock, "scaling factor must be nonzero")
    m = np.eye(5) / a[..., None, None]
    m[..., 4, 4] = a
    return m


def p_transformation(p) -> np.ndarray:
    """Shear each of the first four vectors by a multiple of the fifth."""
    p = as_array(p, shape=(..., 4))
    m = np.broadcast_to(np.eye(5), p.shape[:-1] + (5, 5)).copy()
    m[..., 4, :4] = p
    return m


def m_transformation(t) -> np.ndarray:
    """Map the first four vectors among themselves, fifth untouched."""
    t = as_array(t, shape=(..., 4, 4))
    m = np.broadcast_to(np.eye(5), t.shape[:-2] + (5, 5)).copy()
    m[..., :4, :4] = t
    return m


def decompose_upm(change) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Unique factorization of standard changes L = U(a) P(p) M(t), as (a, p, t).

    For changes (..., 5, 5), a is (...), p (..., 4) and t (..., 4, 4).
    Reading the blocks of the product U P M gives a = L^5_5, t = a times
    the four-block, and p from the bottom row against t.
    """
    message = "only standard changes admit the U P M factorization"
    m = as_array(change, shape=(..., 5, 5))
    raise_where(~is_standard_change(m), NotStandard, message)
    a = m[..., 4, 4]
    t = a[..., None, None] * m[..., :4, :4]
    try:
        t_inv = invert(t)
    except SingularMatrix as exc:
        raise SingularBlock(f"four-block of the change is singular: {exc}") from exc
    p = (m[..., 4, None, :4] @ t_inv)[..., 0, :] / a[..., None]
    return a, p, t


def compose_upm(a, p, t) -> np.ndarray:
    """The change U(a) P(p) M(t), the inverse of ``decompose_upm``."""
    return u_transformation(a) @ p_transformation(p) @ m_transformation(t)


def orientation_sign(frame) -> int:
    """Orientation of a frame (5, 5) of columns against the labels (0, 1, 2, 3, 5): the sign of its volume.

    A frame below full numerical rank raises: round-off gives a dependent
    set of columns a tiny determinant of either sign.
    """
    frame = as_array(frame, shape=(5, 5))
    if matrix_rank(frame) < 5:
        raise SingularBlock("degenerate basis has no orientation")
    return int(np.sign(np.linalg.det(frame)))


def _wedge_quadruples(wedges, error) -> np.ndarray:
    w = np.ascontiguousarray(wedges, dtype=float)  # results must not depend on the layout
    if w.ndim < 3 or w.shape[-2:] != (5, 5):
        raise ShapeMismatch(f"expected wedge quadruples (..., 4, 5, 5), got {w.shape}")
    if w.shape[-3] != 4:
        raise error(f"need exactly four bivectors, got {w.shape[-3]}")
    raise_where(~np.isfinite(w).all(axis=(-3, -2, -1)), NotFinite, "wedges contain non-finite entries")
    return w


def _induced_gram(w: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore", invalid="ignore"):
        gram = bivector_inner(w[..., :, None, :, :], w[..., None, :, :, :])
    raise_where(~np.isfinite(gram).all(axis=(-2, -1)), NotFinite, "induced inner products overflow")
    return gram


def orthonormal_basis_for(wedges, negate_direction: bool = False) -> np.ndarray:
    """Orthonormal frames ``(..., 5, 5)`` whose wedge four-bases reproduce the
    wedge quadruples ``(..., 4, 5, 5)``.

    Each quadruple must be orthonormal under the induced inner product with
    the spacetime pattern (+ - - -), share one common direction w of
    positive norm, and consist of wedges u_mu ^ w.  The frame columns are
    e_5 = w / sqrt(eta(w, w)) and e_mu = sqrt(eta(w, w)) times u_mu made
    eta-orthogonal to w, so e_mu ^ e_5 = input_mu and the five-metric is
    diag(+ - - - +).  Since the map u -> u ^ w has Gram matrix
    |w|^2 I - w w^T, the least-squares solution of u ^ w = b is
    u = b w / |w|^2 (the kernel direction w drops out of e_mu anyway).
    A frame is unique up to negating all five vectors at once, resolved by
    the sign rule of ``directional_vector``; ``negate_direction`` selects
    the other representative.
    """
    w_in = _wedge_quadruples(wedges, NotOrthonormalInput)
    gram = _induced_gram(w_in)
    raise_where(
        np.max(np.abs(gram - ETA4), axis=(-2, -1))
        > bound(np.maximum(np.max(np.abs(gram), axis=(-2, -1)), 1.0)),
        NotOrthonormalInput,
        "induced inner products do not match diag(+ - - -)",
    )

    try:
        w = directional_vector(w_in)
    except NotSimple as exc:
        raise NotOrthonormalInput(str(exc)) from exc
    except (NotMaximalSpace, DimensionTooSmall) as exc:
        raise NoCommonDirection(str(exc)) from exc
    if negate_direction:
        w = -w

    raw = (w_in @ w[..., None, :, None])[..., 0] / np.sum(w * w, axis=-1)[..., None, None]
    residual = np.max(np.abs(_vec_pairs(wedge(raw, w[..., None, :]) - w_in)), axis=-1)
    raise_where(
        residual > bound(np.max(np.abs(w_in), axis=(-2, -1))),
        NoCommonDirection,
        "input bivector is not a wedge with the common direction",
    )

    h55 = eta_dot(w, w)
    raise_where(h55 <= 0.0, NoCommonDirection, "common direction has non-positive norm")
    root = np.sqrt(h55)[..., None]
    mixed = eta_dot(raw, w[..., None, :])
    cols = np.empty(w.shape[:-1] + (5, 5))
    cols[..., :, :4] = np.swapaxes(
        root[..., None] * (raw - (mixed / h55[..., None])[..., None] * w[..., None, :]), -1, -2
    )
    cols[..., :, 4] = w / root

    raise_where(
        ~classify_basis(cols).orthonormal,
        NotOrthonormalInput,
        "constructed basis failed the orthonormality check",
    )
    return cols


def regular_basis_for(wedges, negate_direction: bool = False) -> np.ndarray:
    """Regular frames ``(..., 5, 5)`` reproducing wedge quadruples ``(..., 4, 5, 5)``.

    The induced inner product of each quadruple may be any nondegenerate
    metric of spacetime signature (one positive, three negative
    directions).  It is diagonalized as lam^T gram lam = diag(+ - - -) with
    lam = V |D|^-1/2 (positive eigenvalue first), the rotated wedges are
    lifted with ``orthonormal_basis_for``, and the four-space part is
    mapped back with lam^-1 = |D|^1/2 V^T.  The result keeps
    e_mu ^ e_5 = input_mu with a unit fifth vector orthogonal to the first
    four.  The degeneracy check bounds the condition number of lam by
    REL_TOL^-1/2, so the inverse needs no check.  A lift that fails on the
    rotated wedges raises DegenerateInducedMetric with the lift's reason,
    such as a wedge that is not simple.  The frame scales with the wedges:
    far from unit scale they are scaled by a power of two first.  Four-vectors
    that overflow raise NotFinite.
    """
    w_in = _wedge_quadruples(wedges, DegenerateInducedMetric)
    # A quadruple whose largest entry lies outside [2^-200, 2^200) is scaled
    # into it by a power of two, which is exact.  Its Gram matrix then lies
    # well inside 2^-484..2^484, which LAPACK's eigh takes unscaled, far from
    # subnormal numbers and from overflow.  The frame's first four vectors
    # are scaled back at the end; inside that range nothing changes.
    _, exponent = np.frexp(np.max(np.abs(w_in), axis=(-3, -2, -1)))
    shift = exponent - np.clip(exponent, -199, 200)
    w_in = np.ldexp(w_in, -shift[..., None, None, None])
    gram = _induced_gram(w_in)
    eigs, vecs = np.linalg.eigh(gram)
    size = np.abs(eigs)
    raise_where(
        np.min(size, axis=-1) <= REL_TOL * np.max(size, axis=-1),
        DegenerateInducedMetric,
        "induced metric is numerically degenerate",
    )
    raise_where(
        (np.sum(eigs > 0, axis=-1) != 1) | (np.sum(eigs < 0, axis=-1) != 3),
        DegenerateInducedMetric,
        "induced metric must have signature (+ - - -)",
    )

    # Columns ordered positive first so the diagonalized gram is diag(+ - - -).
    order = np.argsort(-eigs, axis=-1)
    vecs = np.take_along_axis(vecs, order[..., None, :], axis=-1)
    root = np.sqrt(np.take_along_axis(size, order, axis=-1))
    lam = vecs / root[..., None, :]
    lam_inv = root[..., :, None] * np.swapaxes(vecs, -1, -2)

    rotated = (np.swapaxes(lam, -1, -2) @ w_in.reshape(w_in.shape[:-2] + (25,))).reshape(w_in.shape)
    try:
        cols = orthonormal_basis_for(rotated, negate_direction=negate_direction)
    except NotOrthonormalInput as exc:
        message = f"regular construction failed on the diagonalized wedges: {exc}"
        raise DegenerateInducedMetric(message) from exc
    cols[..., :, :4] = cols[..., :, :4] @ lam_inv

    raise_where(
        ~classify_basis(cols).regular,
        DegenerateInducedMetric,
        "constructed basis failed the regularity check",
    )
    with np.errstate(over="ignore"):  # reported once, as NotFinite
        cols[..., :, :4] = np.ldexp(cols[..., :, :4], shift[..., None, None])
    raise_where(~np.isfinite(cols).all(axis=(-2, -1)), NotFinite, "frame vectors overflow")
    return cols
