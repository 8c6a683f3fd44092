"""Poincare transformations acting on five-vector components.

A transformation t = (Lambda, a) relates two Lorentz charts through
x' = Lambda x + a.  A chart is itself the ``PoincareTransform`` that
reaches it from the reference chart, so charts c1 and c2 are related by
``c2.compose(c1.inverse())``.  Five-vector components respond differently
in the two distinguished frames:

  * orthonormal frame: the four-block rotates with Lambda and the fifth
    component is untouched;
  * parallel frame: the frame itself is built from the chart, so the fifth
    component mixes with the four-block through the translation.

Covariant coordinate quintuples (x_alpha, 1/kappa) transform by one 5x5
matrix per transformation (``homogeneous_rep``), which is also the
parallel-frame change matrix; this is what turns chart-dependent
coordinate data into five-tensor components.  ``build_param_tensor`` and
``build_generator_tensor`` write the parameters of a finite respectively
infinitesimal transformation as (..., 5, 5) arrays, five-tensors of that
kind.

Each component law is one function of the components and the transform,
over arrays with any leading axes: ``transform_parallel`` for five-vectors
``(..., 5)``, ``transform_parallel_form`` for five-forms and ``conjugate``
for mixed four-blocks ``(..., 4, 4)``.  The five-vector and five-form laws
take kappa; at kappa = 0 they are the orthonormal-frame laws.  A batched
transform broadcasts against the leading axes of the components.  The
tensor laws take the same leading axes, and so does ``coordinate_form(x,
kappa)``, which needs only the points: its components are the same
functions of the coordinates in every chart.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .algebra import ETA4, antisymmetric, lower_array, preservation_residual
from .bases import m_transformation, p_transformation
from .connection import normalized_kappa
from .errors import NotLorentz, ShapeMismatch
from .numerics import as_array, raise_where


def _lorentz_inverse(lam: np.ndarray) -> np.ndarray:
    """Inverse of each matrix of ``lam`` (..., 4, 4), checked to be Lorentz.

    The closed form eta lam^T eta is exact only up to the Lorentz residual,
    which the routes that invert ``homogeneous_rep`` numerically would see.
    """
    resid, limit = preservation_residual(lam, ETA4)
    message = "matrix does not preserve the four-metric (residual {:.3e} > bound {:.3e})"
    raise_where(resid > limit, NotLorentz, message, resid, limit)
    return as_array(np.linalg.inv(lam))


@dataclass(frozen=True)
class PoincareTransform:
    """Chart map x' = lam x + a with lam preserving diag(+ - - -).

    ``lam`` (..., 4, 4) and ``a`` (..., 4) may carry leading axes, a batch
    of transformations; ``lam_inv`` is worked out once, on construction.
    """

    lam: np.ndarray
    a: np.ndarray
    lam_inv: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        lam, a = as_array(self.lam), as_array(self.a)
        if lam.shape[-2:] != (4, 4) or a.shape != lam.shape[:-1]:
            raise ShapeMismatch(f"expected lam (..., 4, 4) and a (..., 4), got {lam.shape} and {a.shape}")
        object.__setattr__(self, "lam_inv", _lorentz_inverse(lam))
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "a", a)

    def apply(self, x) -> np.ndarray:
        return (self.lam @ np.asarray(x, dtype=float)[..., None])[..., 0] + self.a

    def compose(self, other: "PoincareTransform") -> "PoincareTransform":
        """self after other: (self.compose(other)).apply == self.apply(other.apply(.))."""
        return PoincareTransform(self.lam @ other.lam, self.apply(other.a))

    def inverse(self) -> "PoincareTransform":
        return PoincareTransform(self.lam_inv, -(self.lam_inv @ self.a[..., None])[..., 0])

    def shift(self, kappa: float) -> np.ndarray:
        """kappa a_alpha, the translation as the parallel-frame laws see it."""
        return kappa * lower_array(self.a)


def transform_parallel(v, t: PoincareTransform, kappa: float = 1.0) -> np.ndarray:
    """Five-vector law in the parallel frame, over components ``(..., 5)``.

    v'^alpha = Lambda^alpha_beta v^beta and v'^5 = v^5 - kappa a_alpha v'^alpha:
    the translation enters through the frame itself.  At kappa = 0, or at
    a = 0, this is the orthonormal-frame law, which leaves v^5 untouched.
    """
    v = as_array(v, shape=(..., 5))
    four = (t.lam @ v[..., :4, None])[..., 0]
    fifth = v[..., 4] - np.sum(t.shift(kappa) * four, axis=-1)
    return np.concatenate([four, fifth[..., None]], axis=-1)


def transform_parallel_form(w, t: PoincareTransform, kappa: float = 1.0) -> np.ndarray:
    """Five-form law in the parallel frame, over components ``(..., 5)``.

    w'_alpha = w_beta (Lambda^-1)^beta_alpha + kappa a_alpha w_5 and w'_5 = w_5,
    so the pairing w_A v^A is invariant under this law and ``transform_parallel``.
    """
    w = as_array(w, shape=(..., 5))
    four = (w[..., None, :4] @ t.lam_inv)[..., 0, :] + t.shift(kappa) * w[..., 4:]
    return np.concatenate([four, np.broadcast_to(w[..., 4:], four.shape[:-1] + (1,))], axis=-1)


def conjugate(x, t: PoincareTransform) -> np.ndarray:
    """Lambda X Lambda^-1 for ``(..., 4, 4)`` blocks X of mixed index type."""
    return t.lam @ as_array(x, shape=(..., 4, 4)) @ t.lam_inv


def homogeneous_rep(t: PoincareTransform, kappa: float = 1.0) -> np.ndarray:
    """5x5 matrix carrying covariant coordinate quintuples, acting on rows.

    Quintuples (x_alpha, 1/kappa) transform as x'_A = x_B L^B_A, with
    L = M(Lambda^-1) P(kappa a_alpha).  The same matrix is the parallel-frame
    change for t, so covariant five-vector components transform with it
    too.  Composition reverses order:
    rep(t1 compose t2) = rep(t2) @ rep(t1).  A batched t gives (..., 5, 5).
    """
    return m_transformation(t.lam_inv) @ p_transformation(t.shift(kappa))


def coordinate_form(x, kappa: float = 1.0) -> tuple[np.ndarray, np.ndarray]:
    """Chart-covariant completion of the coordinate functions at points x (..., 4).

    Returns the components ``(p_dual, o_dual)``, (..., 5) each: the
    parallel-frame dual components (x_alpha, 1), and o_dual = N^-T p_dual
    the orthonormal-frame ones, N the parallel-frame change in the rescaled
    frame (``connection.normalized_kappa``).  There the form is one
    geometric object in every chart and o_dual is (0, 0, 0, 0, 1) at every
    point; at kappa = 0, o_dual = p_dual.

    ``x`` is the sample point in the coordinates of whichever chart it was
    read in; the components do not depend on the chart otherwise.  For
    kappa = 0 the parallel and orthonormal frames coincide and no
    chart-invariant completion exists; the components are still returned
    but are chart-dependent in that degenerate case.
    """
    x_low = lower_array(as_array(x, shape=(..., 4)))
    p_dual = np.concatenate([x_low, np.ones(x_low.shape[:-1] + (1,))], axis=-1)
    # N^-T subtracts normalized_kappa x_alpha times the fifth component, which is 1
    o_dual = p_dual.copy()
    o_dual[..., :4] -= normalized_kappa(kappa) * x_low
    return p_dual, o_dual


def coordinate_form_derivative() -> np.ndarray:
    """Covariant derivative of the coordinate form, parallel-frame dual.

    Row mu holds (eta_mu_alpha, 0): the derivative is the four-metric seen
    as a form-valued object, with no fifth component.  It is the same in
    every chart and at every point.
    """
    out = np.zeros((4, 5))
    out[:, :4] = ETA4
    return out


def _param_tensor(matrix4: np.ndarray, shift: np.ndarray) -> np.ndarray:
    m = np.zeros(matrix4.shape[:-2] + (5, 5))
    m[..., :4, :4] = matrix4
    m[..., 4, :4] = shift
    m[..., 4, 4] = 1.0
    return m


def build_param_tensor(matrix4, shift) -> np.ndarray:
    """Finite-transformation parameters as (1,1) five-tensors (..., 5, 5).

    Blocks: the 4x4 matrix parameter, a shift row, a zero column, and a
    unit corner.  Under a chart change the matrix block conjugates and the
    shift row mixes with the chart translation.
    """
    matrix4 = as_array(matrix4, shape=(..., 4, 4))
    return _param_tensor(matrix4, as_array(shift, shape=matrix4.shape[:-2] + (4,)))


def transform_param_tensor(pt, t: PoincareTransform) -> np.ndarray:
    """Parameter-tensor law under a chart change by t.

    matrix' = Lambda matrix Lambda^-1
    shift'  = shift Lambda^-1 + a_low - a_low Lambda matrix Lambda^-1

    which is exactly conjugation of the 5x5 block matrix by the
    homogeneous representation of t.  A tensor with a nonzero fifth
    column or a corner other than 1 raises ShapeMismatch.
    """
    pt = as_array(pt, shape=(..., 5, 5))
    bad = np.any(pt[..., :4, 4] != 0.0, axis=-1) | (pt[..., 4, 4] != 1.0)
    raise_where(bad, ShapeMismatch, "parameter tensor needs a zero fifth column and unit corner")
    a_low = lower_array(t.a)
    matrix4 = conjugate(pt[..., :4, :4], t)
    shift = (pt[..., 4, None, :4] @ t.lam_inv)[..., 0, :] + a_low - (a_low[..., None, :] @ matrix4)[..., 0, :]
    return _param_tensor(matrix4, shift)


def _generator_tensor(omega: np.ndarray, b: np.ndarray) -> np.ndarray:
    m = np.zeros(omega.shape[:-2] + (5, 5))
    m[..., :4, :4] = omega
    m[..., :4, 4] = b
    m[..., 4, :4] = -b
    return m


def build_generator_tensor(omega, b) -> np.ndarray:
    """Infinitesimal-transformation parameters as antisymmetric five-tensors (..., 5, 5).

    The four-block holds the rotation generator omega^(mu nu) and the
    fifth row/column the translation generator b^mu.
    """
    omega = as_array(omega, shape=(..., 4, 4))
    return _generator_tensor(omega, as_array(b, shape=omega.shape[:-2] + (4,)))


def transform_generator_tensor(gt, t: PoincareTransform) -> np.ndarray:
    """Generator law under a chart change by t.

    omega' = Lambda omega Lambda^T
    b'^mu  = Lambda^mu_nu (b^nu - a_alpha Lambda^alpha_beta omega^(nu beta))

    A tensor that is not antisymmetric raises NotAntisymmetric.
    """
    gt = antisymmetric(gt, "generator tensor")
    lam_t = np.swapaxes(t.lam, -1, -2)
    omega = t.lam @ gt[..., :4, :4] @ lam_t
    inner = gt[..., :4, 4] - (gt[..., :4, :4] @ (lam_t @ lower_array(t.a)[..., None]))[..., 0]
    return _generator_tensor(omega, (t.lam @ inner[..., None])[..., 0])
