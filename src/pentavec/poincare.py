"""Poincare transformations acting on five-vector components.

A transformation t = (Lambda, a) relates two Lorentz charts through
x' = Lambda x + a.  Five-vector components respond differently in the two
distinguished frames:

  * orthonormal frame: the four-block rotates with Lambda and the fifth
    component is untouched;
  * parallel frame: the frame itself is built from the chart, so the fifth
    component mixes with the four-block through the translation.

Covariant coordinate quintuples (x_alpha, 1/kappa) transform by one 5x5
matrix per transformation (``homogeneous_rep``), which is also the
parallel-frame change matrix; this is what turns chart-dependent
coordinate data into five-tensor components.  ``ParamTensor`` and
``GeneratorTensor`` package the parameters of a finite respectively
infinitesimal transformation as five-tensors of that kind.

Each component law is written once over plain arrays with any leading
axes: ``transform_vector_array``, ``transform_form_array`` (both frames:
the orthonormal law is the parallel one at zero shift) and
``conjugate_array``; the object functions are one-element calls into them.
The tensor laws and ``coordinate_form`` take the same leading axes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .algebra import ETA4, FiveForm, FiveVector, lower_array
from .connection import normalized_kappa
from .errors import NotAntisymmetric, NotLorentz, ShapeMismatch
from .numerics import as_array, bound, raise_where


def _lorentz_inverse(lam: np.ndarray) -> np.ndarray:
    """Inverse of each matrix of ``lam`` (..., 4, 4), checked to be Lorentz.

    The closed form eta lam^T eta is exact only up to the Lorentz residual,
    which the routes that invert ``homogeneous_rep`` numerically would see.
    """
    resid = np.max(np.abs(np.swapaxes(lam, -1, -2) @ ETA4 @ lam - ETA4), axis=(-2, -1))
    limit = bound(np.max(np.abs(lam), axis=(-2, -1)) ** 2)
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

    @classmethod
    def identity(cls) -> "PoincareTransform":
        return cls(np.eye(4), np.zeros(4))


def transform_vector_array(v, lam, shift) -> np.ndarray:
    """Five-vector law: v'^alpha = Lambda^alpha_beta v^beta, v'^5 = v^5 - shift_alpha v'^alpha.

    ``v`` is (..., 5); ``lam`` (..., 4, 4) and ``shift`` (..., 4) broadcast
    against its leading axes.  The parallel-frame law takes shift = kappa
    a_alpha (``PoincareTransform.shift``), the orthonormal law zero shift.
    """
    v = np.asarray(v, dtype=float)
    four = (lam @ v[..., :4, None])[..., 0]
    fifth = v[..., 4] - np.sum(shift * four, axis=-1)
    return np.concatenate([four, fifth[..., None]], axis=-1)


def transform_form_array(w, lam_inv, shift) -> np.ndarray:
    """Five-form law: w'_alpha = w_beta (Lambda^-1)^beta_alpha + shift_alpha w_5, w'_5 = w_5."""
    w = np.asarray(w, dtype=float)
    four = (w[..., None, :4] @ lam_inv)[..., 0, :] + shift * w[..., 4:]
    return np.concatenate([four, np.broadcast_to(w[..., 4:], four.shape[:-1] + (1,))], axis=-1)


def conjugate_array(x, lam, lam_inv) -> np.ndarray:
    """Lambda X Lambda^-1 for ``(..., 4, 4)`` blocks X of mixed index type."""
    return lam @ np.asarray(x, dtype=float) @ lam_inv


def homogeneous_rep(t: PoincareTransform, kappa: float = 1.0) -> np.ndarray:
    """5x5 matrix carrying covariant coordinate quintuples, acting on rows.

    Quintuples (x_alpha, 1/kappa) transform as x'_A = x_B L^B_A.  The same
    matrix is the parallel-frame change for t, so covariant five-vector
    components transform with it too.  Composition reverses order:
    rep(t1 compose t2) = rep(t2) @ rep(t1).  A batched t gives (..., 5, 5).
    """
    m = np.zeros(t.a.shape[:-1] + (5, 5))
    m[..., :4, :4] = t.lam_inv
    m[..., 4, :4] = t.shift(kappa)
    m[..., 4, 4] = 1.0
    return m


def transform_orthonormal(obj, t: PoincareTransform):
    """Component law in the orthonormal frame: the parallel law at kappa = 0.

    Vectors: v'^alpha = Lambda^alpha_beta v^beta, fifth untouched.  Forms
    contract with the inverse, fifth untouched.
    """
    return transform_parallel(obj, t, 0.0)


def transform_parallel(obj, t: PoincareTransform, kappa: float = 1.0):
    """Component law in the parallel frame.

    The translation enters through the frame itself: for vectors
    v'^5 = v^5 - kappa a_alpha Lambda^alpha_beta v^beta, and for forms
    w'_alpha picks up kappa a_alpha w_5.  At a = 0 this reduces to the
    orthonormal law.
    """
    if isinstance(obj, FiveVector):
        return FiveVector(transform_vector_array(obj.components, t.lam, t.shift(kappa)), basis_id=obj.basis_id)
    if isinstance(obj, FiveForm):
        return FiveForm(transform_form_array(obj.components, t.lam_inv, t.shift(kappa)), basis_id=obj.basis_id)
    raise ShapeMismatch(f"expected FiveVector or FiveForm, got {type(obj).__name__}")


@dataclass(frozen=True)
class LorentzChart(PoincareTransform):
    """Inertial chart reached from the reference chart by x = lam x_ref + a."""

    kappa: float = 1.0

    @classmethod
    def reference(cls, kappa: float = 1.0) -> "LorentzChart":
        return cls(np.eye(4), np.zeros(4), kappa)


def chart_relation(c1: LorentzChart, c2: LorentzChart) -> PoincareTransform:
    """Transformation carrying chart-1 coordinates to chart-2 coordinates."""
    return c2.compose(c1.inverse())


@dataclass(frozen=True)
class CoordinateForm:
    """Components of the covariant coordinate form at sample points, (..., 5) each.

    ``p_dual`` are the parallel-frame dual components (x_alpha, 1), and
    ``o_dual`` = N^-T p_dual the orthonormal-frame ones, N the parallel-frame
    change in the rescaled frame (``connection.normalized_kappa``).  There
    the form is one geometric object in every chart and o_dual is
    (0, 0, 0, 0, 1) at every point; at kappa = 0, o_dual = p_dual.
    """

    p_dual: np.ndarray
    o_dual: np.ndarray


def coordinate_form(chart: LorentzChart, x) -> CoordinateForm:
    """Chart-covariant completion of the coordinate functions at points x (..., 4).

    ``x`` is the sample point in the chart's own coordinates.  For
    kappa = 0 the parallel and orthonormal frames coincide and no
    chart-invariant completion exists; the components are still returned
    but are chart-dependent in that degenerate case.
    """
    x_low = lower_array(as_array(x, shape=(..., 4)))
    p_dual = np.concatenate([x_low, np.ones(x_low.shape[:-1] + (1,))], axis=-1)
    o_dual = transform_form_array(p_dual, np.eye(4), -normalized_kappa(chart.kappa) * x_low)
    return CoordinateForm(p_dual=p_dual, o_dual=o_dual)


def coordinate_form_derivative(chart: LorentzChart, x) -> np.ndarray:
    """Covariant derivative of the coordinate form, parallel-frame dual.

    Row mu holds (eta_mu_alpha, 0): the derivative is the four-metric seen
    as a form-valued object, with no fifth component.  ``x`` never enters
    (the derivative is uniform), but is accepted for interface symmetry.
    """
    as_array(x, shape=(4,))
    out = np.zeros((4, 5))
    out[:, :4] = ETA4
    return out


@dataclass(frozen=True)
class ParamTensor:
    """Finite-transformation parameters packaged as (1,1) five-tensors (..., 5, 5).

    Blocks: the 4x4 matrix parameter, a shift row, a zero column, and a
    unit corner.  Under a chart change the matrix block conjugates and the
    shift row mixes with the chart translation.
    """

    matrix: np.ndarray

    def __post_init__(self):
        m = as_array(self.matrix, shape=(..., 5, 5))
        bad = np.any(m[..., :4, 4] != 0.0, axis=-1) | (m[..., 4, 4] != 1.0)
        raise_where(bad, ShapeMismatch, "parameter tensor needs a zero fifth column and unit corner")
        object.__setattr__(self, "matrix", m)

    @property
    def matrix_block(self) -> np.ndarray:
        return self.matrix[..., :4, :4]

    @property
    def shift(self) -> np.ndarray:
        return self.matrix[..., 4, :4]


def build_param_tensor(matrix4, shift) -> ParamTensor:
    matrix4 = as_array(matrix4, shape=(..., 4, 4))
    m = np.zeros(matrix4.shape[:-2] + (5, 5))
    m[..., :4, :4] = matrix4
    m[..., 4, :4] = as_array(shift, shape=matrix4.shape[:-2] + (4,))
    m[..., 4, 4] = 1.0
    return ParamTensor(m)


def transform_param_tensor(pt: ParamTensor, t: PoincareTransform) -> ParamTensor:
    """Parameter-tensor law under a chart change by t.

    matrix' = Lambda matrix Lambda^-1
    shift'  = shift Lambda^-1 + a_low - a_low Lambda matrix Lambda^-1

    which is exactly conjugation of the 5x5 block matrix by the
    homogeneous representation of t.
    """
    a_low = lower_array(t.a)
    matrix4 = conjugate_array(pt.matrix_block, t.lam, t.lam_inv)
    shift = (pt.shift[..., None, :] @ t.lam_inv)[..., 0, :] + a_low - (a_low[..., None, :] @ matrix4)[..., 0, :]
    return build_param_tensor(matrix4, shift)


@dataclass(frozen=True)
class GeneratorTensor:
    """Infinitesimal-transformation parameters as antisymmetric five-tensors (..., 5, 5).

    The four-block holds the rotation generator omega^(mu nu) and the
    fifth row/column the translation generator b^mu.
    """

    matrix: np.ndarray

    def __post_init__(self):
        m = as_array(self.matrix, shape=(..., 5, 5))
        asym = np.max(np.abs(m + np.swapaxes(m, -1, -2)), axis=(-2, -1))
        limit = 1e-12 * np.maximum(np.max(np.abs(m), axis=(-2, -1)), 1.0)
        raise_where(asym > limit, NotAntisymmetric, "generator tensor must be antisymmetric")
        object.__setattr__(self, "matrix", m)

    @property
    def omega(self) -> np.ndarray:
        return self.matrix[..., :4, :4]

    @property
    def translation(self) -> np.ndarray:
        return self.matrix[..., :4, 4]


def build_generator_tensor(omega, b) -> GeneratorTensor:
    omega = as_array(omega, shape=(..., 4, 4))
    b = as_array(b, shape=omega.shape[:-2] + (4,))
    m = np.zeros(omega.shape[:-2] + (5, 5))
    m[..., :4, :4] = omega
    m[..., :4, 4] = b
    m[..., 4, :4] = -b
    return GeneratorTensor(m)


def transform_generator_tensor(gt: GeneratorTensor, t: PoincareTransform) -> GeneratorTensor:
    """Generator law under a chart change by t.

    omega' = Lambda omega Lambda^T
    b'^mu  = Lambda^mu_nu (b^nu - a_alpha Lambda^alpha_beta omega^(nu beta))
    """
    lam_t = np.swapaxes(t.lam, -1, -2)
    omega = t.lam @ gt.omega @ lam_t
    inner = gt.translation - (gt.omega @ (lam_t @ lower_array(t.a)[..., None]))[..., 0]
    return build_generator_tensor(omega, (t.lam @ inner[..., None])[..., 0])
