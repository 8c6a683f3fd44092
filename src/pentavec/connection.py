"""Parallel transport of five-vectors over flat spacetime.

Transport coefficients G describe how a frame field changes from sample
to sample: moving in chart direction mu, the frame vector with label A
picks up e_B G^B_(A mu).  Arrays are indexed ``values[A, B, mu]`` with the
UPPER index first.

Two distinguished frame fields appear throughout.  The orthonormal frame
("O") copies one orthonormal basis to every point; in flat spacetime its
only nonzero coefficients are G^5_(beta mu) = -kappa eta_(beta mu), where
kappa is the transport constant coupling the four-space to the fifth
direction.  The parallel frame ("P") is the transport of the origin frame
to every point; its coefficients vanish identically and its vectors are
p_alpha = e_alpha + kappa x_alpha e_5, p_5 = e_5.

A frame change L(x) with four-coordinate map Lambda moves coefficients by

    G' = L^-1 G L Lambda + L^-1 (dL) Lambda,

with the derivative taken along the old chart directions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import ETA4, ETA5, DirectionalClass, classify_directional, eta_dot, lower_array
from .bases import p_transformation
from .errors import (
    DegenerateKappa, GridMismatch, NotDirectional, NotFinite, ShapeMismatch, SingularMatrix,
)
from .grids import FieldOnGrid, Grid, grid_gradient, scheme_width
from .numerics import as_array, max_norm, raise_where


@dataclass(frozen=True)
class ConnectionCoeffs:
    """Constant transport coefficients, shape (5, 5, 4), upper index first."""

    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", as_array(self.values, shape=(5, 5, 4)))


def _coefficients(g) -> np.ndarray:
    """The (5, 5, 4) array of constant coefficients given as ConnectionCoeffs or as an array."""
    return as_array(g.values if isinstance(g, ConnectionCoeffs) else g, shape=(5, 5, 4))


def flat_coefficients(kappa: float) -> ConnectionCoeffs:
    """Orthonormal-frame coefficients of flat spacetime.

    Only the fifth row is nonzero: transporting e_beta along direction mu
    tips it into the fifth direction by -kappa eta_(beta mu).  kappa = 0 is
    the degenerate case where the frame is globally parallel.
    """
    g = np.zeros((5, 5, 4))
    g[4, :4, :] = -kappa * ETA4
    return ConnectionCoeffs(g)


def normalized_kappa(kappa: float) -> float:
    """The transport constant in the rescaled frame: 1.0, or 0.0 at kappa = 0.

    The rescaled frame scales the fifth vector by S(kappa) = diag(1, 1, 1, 1, kappa):
    S^-1 N(x; kappa) S = N(x; 1) for the parallel-frame change N, and S carries
    ``flat_coefficients(kappa)`` to ``flat_coefficients(1)``.  The moment current and
    coordinate form live there.  At kappa = 0, S is singular and the frames coincide.
    """
    return 0.0 if kappa == 0.0 else 1.0


def transport_compatibility(g, four) -> tuple[float, float]:
    """Residuals ``(standard, relation)`` of coefficients ``g`` (5, 5, 4) against a
    four-connection ``four`` (4, 4, 4).

    ``standard`` measures G^alpha_(5 mu), which must vanish so that
    transport never tips the fifth frame vector into the four-space.
    ``relation`` measures the induced four-connection against
    Gamma^alpha_(beta mu) = G^alpha_(beta mu) + delta^alpha_beta G^5_(5 mu).
    """
    gv = _coefficients(g)
    induced = gv[:4, :4, :] + np.einsum("ab,m->abm", np.eye(4), gv[4, 4, :])
    return max_norm(gv[:4, 4, :]), max_norm(as_array(four, shape=(4, 4, 4)) - induced)


def parallel_frame_change(x, kappa: float) -> np.ndarray:
    """Change from the orthonormal frame to the parallel frame at points x (..., 4).

    The P transformation by the lowered coordinates scaled by kappa:
    p_alpha = e_alpha + kappa x_alpha e_5.
    """
    return p_transformation(kappa * lower_array(as_array(x, shape=(..., 4))))


def parallel_frame_metric(x, kappa: float) -> np.ndarray:
    """Five-metric components in the parallel frame at points x (..., 4).

    Equals N^T eta5 N for the frame change N; the four-block picks up
    kappa^2 x_alpha x_beta and the mixed entries are kappa x_alpha.
    """
    x_low = kappa * lower_array(as_array(x, shape=(..., 4)))
    h = np.broadcast_to(ETA5, x_low.shape[:-1] + (5, 5)).copy()
    h[..., :4, :4] += x_low[..., :, None] * x_low[..., None, :]
    h[..., :4, 4] = x_low
    h[..., 4, :4] = x_low
    return h


def coordinates_from_parallel_metric(h: np.ndarray, kappa: float) -> np.ndarray:
    """Recover chart coordinates from parallel-frame metric components (..., 5, 5).

    The mixed entries h_(alpha 5) equal kappa x_alpha, so for kappa != 0
    the chart point can be read off the metric samples alone.
    """
    if kappa == 0.0:
        raise DegenerateKappa("kappa = 0 carries no coordinate information")
    h = as_array(h, shape=(..., 5, 5))
    return lower_array(h[..., :4, 4]) / kappa


def transform_connection_field(
    g,
    change_field: np.ndarray,
    lam,
    grid: Grid,
    scheme: str = "central2",
) -> np.ndarray:
    """Coefficients G' = L^-1 [(G Lambda) L + (dL) Lambda] after a position-dependent frame change L(x).

    ``change_field`` holds L at every sample, shape ``grid.shape + (5, 5)``;
    a constant change is a broadcast field.  The derivative of L is taken
    with the requested difference scheme, so the result is exact only up to
    the scheme's truncation error.  A non-finite or singular sample of L
    raises NotFinite or SingularMatrix.
    """
    gv = _coefficients(g)
    lam = as_array(lam, shape=(4, 4))
    change_field = np.asarray(change_field, dtype=float)
    if change_field.shape != grid.shape + (5, 5):
        raise GridMismatch(
            f"change field shape {change_field.shape} does not match grid {grid.shape} + (5, 5)"
        )
    finite = np.isfinite(change_field).all(axis=(-2, -1))
    raise_where(~finite, NotFinite, "change field holds a non-finite sample")
    try:
        linv = np.linalg.inv(change_field)
    except np.linalg.LinAlgError:
        # inv and det factor alike, so a sample that inv finds singular has det exactly 0
        raise_where(np.linalg.det(change_field) == 0.0, SingularMatrix, "change field holds a singular sample")
        raise
    # (dL) Lambda as one matrix product over the (sample, C, B) triples, with
    # dL^C_(B nu) the gradient.  (G Lambda)^C_(D m) as a D x (C m) block: its
    # contraction with L is one matrix product over the (sample, B) pairs.
    # Then L^-1 on the left over the (B, m) columns.
    shape = grid.shape + (5, 5, 4)
    inner = (grid_gradient(change_field, grid, scheme).reshape(-1, 4) @ lam).reshape(shape)
    gl = np.moveaxis(gv @ lam, 1, 0).reshape(5, 20)
    inner += np.swapaxes((np.swapaxes(change_field, -1, -2).reshape(-1, 5) @ gl).reshape(shape), -3, -2)
    return (linv @ inner.reshape(grid.shape + (5, 20))).reshape(shape)


def transport(components, from_x, to_x, kappa: float) -> np.ndarray:
    """Parallel-transport orthonormal-frame components (..., 5) between chart points (..., 4).

    The move is N(to) N(from)^-1, which is the parallel-frame change at
    to - from, so the path between the points never enters (flat spacetime
    has no holonomy).  Parallel-frame components need no such function:
    they are transport invariants.
    """
    components = as_array(components, shape=(..., 5))
    from_x = as_array(from_x, shape=(..., 4))
    to_x = as_array(to_x, shape=(..., 4))
    step = to_x - from_x
    return (parallel_frame_change(step, kappa) @ components[..., None])[..., 0]


def covariant_derivative(field: FieldOnGrid, g, scheme: str = "central2") -> FieldOnGrid:
    """Covariant derivative of a five-vector field, transport terms included.

    Output components are ``D[..., A, mu] = d_mu u^A + G^A_(B mu) u^B``
    for constant coefficients ``g`` (5, 5, 4).  Edge samples use one-sided
    stencils; ``grid.interior(scheme_width(scheme))`` selects the samples
    away from them.
    """
    values = field.values
    if values.shape[4:] != (5,):
        raise ShapeMismatch(f"expected five-vector samples, got trailing shape {values.shape[4:]}")
    gv = _coefficients(g)
    grad = grid_gradient(values, field.grid, scheme)  # (..., A, mu)
    derivative = grad + np.tensordot(values, gv, axes=([-1], [1]))
    derivative.setflags(write=False)
    return FieldOnGrid(grid=field.grid, values=derivative, basis=field.basis)


def metric_derivative_report(
    g,
    h_field: np.ndarray,
    kappa: float,
    grid: Grid,
    scheme: str = "central2",
) -> float:
    """The worst residual of the metric transport identities on sampled data.

    In any standard frame of flat spacetime the metric components obey

        h_(55; mu) = 0
        h_(alpha 5; mu) = kappa g_(alpha mu)
        h_55 h_(alpha beta; mu) = kappa (g_(alpha mu) h_(beta 5) + g_(beta mu) h_(alpha 5))

    with g = ETA4 the four-metric of the associated wedge basis.  ``g`` are
    constant coefficients (5, 5, 4).  ``h_field`` holds five-metric
    components per sample (a constant (5, 5) matrix broadcasts).  The
    covariant derivative is
    h_(AB; mu) = d_mu h_AB - G^C_(A mu) h_CB - G^C_(B mu) h_AC, and
    residuals are measured away from grid edges.
    """
    h_field = np.asarray(h_field, dtype=float)
    if h_field.shape == (5, 5):
        h_field = np.broadcast_to(h_field, grid.shape + (5, 5))
    if h_field.shape != grid.shape + (5, 5):
        raise GridMismatch("metric samples do not match the grid")

    gv = _coefficients(g)
    dh = grid_gradient(h_field, grid, scheme)  # (..., A, B, mu)
    nabla = (
        dh
        - np.einsum("cam,...cb->...abm", gv, h_field)
        - np.einsum("cbm,...ac->...abm", gv, h_field)
    )
    sel = grid.interior(scheme_width(scheme))
    nabla = nabla[sel]
    h_in = h_field[sel]

    fifth = max_norm(nabla[..., 4, 4, :])
    mixed = max_norm(nabla[..., :4, 4, :] - kappa * ETA4)
    lhs = h_in[..., 4, 4, None, None, None] * nabla[..., :4, :4, :]
    rhs = kappa * (
        np.einsum("am,...b->...abm", ETA4, h_in[..., :4, 4])
        + np.einsum("bm,...a->...abm", ETA4, h_in[..., :4, 4])
    )
    return max(fifth, mixed, max_norm(lhs - rhs))


def metric_transport_identity_residual(u_four, v, w, e, g, kappa: float) -> float:
    """Coordinate-free form of the metric transport identities.

    For any four-direction U, five-vector fields v and w, and a vector e
    along the positive-norm directional vector,

        h(e, e) (nabla_U h)(v, w)
            = kappa g(U, v ^ e) h(w, e) + kappa g(U, w ^ e) h(v, e)

    where h is the five-metric ETA5, nabla h is its tensor covariant
    derivative and g pairs wedge four-vectors through the bivector inner
    product.  The two sides share no code: the left contracts connection
    coefficients into the metric, the right is built from wedge pairings.
    ``v`` and ``w`` are samples (..., 5) of one shape; a shape mismatch
    raises ShapeMismatch.  Returns the max deviation over all samples.
    Scales quadratically in e, so e need not be normalized.
    """
    u_four = as_array(u_four, shape=(4,))
    e = as_array(e, shape=(5,))
    if classify_directional(e) is not DirectionalClass.POSITIVE:
        raise NotDirectional("e must lie along a positive-norm directional vector")
    v = as_array(v, shape=(..., 5))
    w = as_array(w, shape=v.shape)

    gv = _coefficients(g)

    # The metric is uniform, so its covariant derivative is purely the
    # connection correction; v and w then enter pointwise, which keeps the
    # check free of finite-difference truncation for any sample fields.
    nabla_h = -(np.einsum("cam,cb->abm", gv, ETA5) + np.einsum("cbm,ac->abm", gv, ETA5))
    along_u = np.einsum("abm,m->ab", nabla_h, u_four)
    contracted = np.einsum("ab,...a,...b->...", along_u, v, w)
    lhs = eta_dot(e, e) * contracted

    # g(U, v ^ e): embed U as a wedge against the reference frame and pair.
    u_biv = np.zeros((5, 5))
    u_biv[:4, 4] = u_four
    u_biv[4, :4] = -u_four
    hh = np.einsum("ac,bd->abcd", ETA5, ETA5)

    def wedge_pairing(samples):
        wedges = np.einsum("...a,b->...ab", samples, e) - np.einsum("a,...b->...ab", e, samples)
        return 0.5 * np.einsum("abcd,ab,...cd->...", hh, u_biv, wedges)

    h_we = np.einsum("ab,...a,b->...", ETA5, w, e)
    h_ve = np.einsum("ab,...a,b->...", ETA5, v, e)
    rhs = kappa * (wedge_pairing(v) * h_we + wedge_pairing(w) * h_ve)
    return max_norm(lhs - rhs)
