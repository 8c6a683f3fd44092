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

from .algebra import ETA4, ETA5, DirectionalClass, MetricH, classify_directional, lower_array
from .bases import p_transformation
from .errors import (
    DegenerateKappa, GridMismatch, NotDirectional, NotFinite,
    OutOfRange, ShapeMismatch, SingularMatrix,
)
from .grids import FieldOnGrid, Grid, grid_gradient, scheme_width
from .numerics import as_array, bound, invert, max_norm, raise_where


@dataclass(frozen=True)
class ConnectionCoeffs:
    """Constant transport coefficients, shape (5, 5, 4), upper index first."""

    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", as_array(self.values, shape=(5, 5, 4)))


@dataclass(frozen=True)
class FourConnection:
    """Coefficients of a four-space connection, shape (4, 4, 4)."""

    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", as_array(self.values, shape=(4, 4, 4)))


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


@dataclass(frozen=True)
class CompatibilityReport:
    """Residuals of the standard-frame transport constraints.

    ``standard_residual`` measures G^alpha_(5 mu), which must vanish so
    that transport never tips the fifth frame vector into the four-space.
    ``relation_residual`` measures the induced four-connection against
    Gamma^alpha_(beta mu) = G^alpha_(beta mu) + delta^alpha_beta G^5_(5 mu).
    """

    standard_residual: float
    relation_residual: float

    def passed(self) -> bool:
        return self.standard_residual <= bound(1.0) and self.relation_residual <= bound(1.0)


def transport_compatibility(g: ConnectionCoeffs, four: FourConnection) -> CompatibilityReport:
    gv = g.values
    induced = gv[:4, :4, :] + np.einsum("ab,m->abm", np.eye(4), gv[4, 4, :])
    return CompatibilityReport(
        standard_residual=max_norm(gv[:4, 4, :]),
        relation_residual=max_norm(four.values - induced),
    )


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


def transform_connection(g: ConnectionCoeffs, change, lam) -> ConnectionCoeffs:
    """Coefficients after a position-independent frame change L (5, 5).

    With dL = 0 only the conjugation term survives.  ``lam`` is the
    Jacobian of the old chart coordinates with respect to the new ones; it
    contracts the derivative index.  A singular L raises SingularMatrix.
    """
    change = as_array(change, shape=(5, 5))
    lam = as_array(lam, shape=(4, 4))
    return ConnectionCoeffs(_transformed(g.values, change, invert(change), lam))


def _transformed(g: np.ndarray, change: np.ndarray, linv: np.ndarray, lam: np.ndarray, dl=None):
    """G' = L^-1 [(G Lambda) L + (dL) Lambda] over the leading axes of L.

    Contracted pairwise: the derivative index first, then L on the right,
    then L^-1 on the left as one matrix product over the (B, m) columns.
    """
    inner = np.einsum("cdm,...db->...cbm", g @ lam, change)
    if dl is not None:
        inner += dl @ lam
    return (linv @ inner.reshape(inner.shape[:-3] + (5, 20))).reshape(inner.shape)


def transform_connection_field(
    g: ConnectionCoeffs,
    change_field: np.ndarray,
    lam,
    grid: Grid,
    scheme: str = "central2",
) -> np.ndarray:
    """Coefficients after a position-dependent frame change L(x).

    ``change_field`` holds L at every sample, shape ``grid.shape + (5, 5)``.
    The derivative of L is taken with the requested difference scheme, so
    the result is exact only up to the scheme's truncation error.  A
    non-finite or singular sample of L raises NotFinite or SingularMatrix.
    """
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
    dl = grid_gradient(change_field, grid, scheme)  # (..., C, B, nu)
    return _transformed(g.values, change_field, linv, lam, dl)


def transport(components, from_x, to_x, frame: str, kappa: float) -> np.ndarray:
    """Parallel-transport five-vector components (..., 5) between chart points (..., 4).

    Components are read and returned in the stated frame ("O" or "P") at
    the start and end points.  Parallel-frame components are transport
    invariants, so the path between the points never enters (flat
    spacetime has no holonomy).  In the orthonormal frame the move is
    N(to) N(from)^-1, which is the parallel-frame change at to - from.
    """
    components = as_array(components, shape=(..., 5))
    if frame not in ("O", "P"):
        raise OutOfRange(f"frame must be 'O' or 'P', got {frame!r}")
    if frame == "P":
        return components.copy()
    step = as_array(to_x, shape=(..., 4)) - as_array(from_x, shape=(..., 4))
    return (parallel_frame_change(step, kappa) @ components[..., None])[..., 0]


def covariant_derivative(field: FieldOnGrid, g, scheme: str = "central2") -> FieldOnGrid:
    """Covariant derivative of a five-vector field, transport terms included.

    Output components are ``D[..., A, mu] = d_mu u^A + G^A_(B mu) u^B``.
    ``g`` may be constant coefficients or a per-sample array of them.
    Edge samples use one-sided stencils and are flagged via
    ``boundary_width`` on the result.
    """
    values = field.values
    if values.shape[4:] != (5,):
        raise ShapeMismatch(f"expected five-vector samples, got trailing shape {values.shape[4:]}")
    grad = grid_gradient(values, field.grid, scheme)  # (..., A, mu)
    gv = g.values if isinstance(g, ConnectionCoeffs) else np.asarray(g, dtype=float)
    correction = np.einsum("...abm,...b->...am", np.broadcast_to(gv, values.shape[:4] + (5, 5, 4)), values)
    derivative = grad + correction
    derivative.setflags(write=False)
    return FieldOnGrid(
        grid=field.grid,
        values=derivative,
        basis=field.basis,
        boundary_width=scheme_width(scheme),
    )


@dataclass(frozen=True)
class MetricDerivativeReport:
    """Residuals of the three covariant-derivative identities of the metric.

    In any standard frame of flat spacetime the metric components obey

        h_(55; mu) = 0
        h_(alpha 5; mu) = kappa g_(alpha mu)
        h_55 h_(alpha beta; mu) = kappa (g_(alpha mu) h_(beta 5) + g_(beta mu) h_(alpha 5))

    with g the four-metric of the associated wedge basis.
    """

    fifth_residual: float
    mixed_residual: float
    block_residual: float

    def worst(self) -> float:
        return max(self.fifth_residual, self.mixed_residual, self.block_residual)

    def passed(self) -> bool:
        return self.worst() <= bound(1.0)


def metric_derivative_report(
    g,
    h_field: np.ndarray,
    kappa: float,
    g_four: np.ndarray,
    grid: Grid,
    scheme: str = "central2",
) -> MetricDerivativeReport:
    """Check the metric transport identities on sampled data.

    ``h_field`` holds five-metric components per sample (a constant (5, 5)
    matrix broadcasts); ``g_four`` likewise for the four-metric.  The
    covariant derivative is h_(AB; mu) = d_mu h_AB - G^C_(A mu) h_CB -
    G^C_(B mu) h_AC, and residuals are measured away from grid edges.
    """
    h_field = np.asarray(h_field, dtype=float)
    if h_field.shape == (5, 5):
        h_field = np.broadcast_to(h_field, grid.shape + (5, 5))
    g_four = np.asarray(g_four, dtype=float)
    if g_four.shape == (4, 4):
        g_four = np.broadcast_to(g_four, grid.shape + (4, 4))
    if h_field.shape != grid.shape + (5, 5) or g_four.shape != grid.shape + (4, 4):
        raise GridMismatch("metric samples do not match the grid")

    gv = g.values if isinstance(g, ConnectionCoeffs) else np.asarray(g, dtype=float)
    gv = np.broadcast_to(gv, grid.shape + (5, 5, 4))
    dh = grid_gradient(h_field, grid, scheme)  # (..., A, B, mu)
    nabla = (
        dh
        - np.einsum("...cam,...cb->...abm", gv, h_field)
        - np.einsum("...cbm,...ac->...abm", gv, h_field)
    )
    sel = grid.interior(scheme_width(scheme))
    nabla = nabla[sel]
    h_in = h_field[sel]
    g_in = g_four[sel]

    fifth = max_norm(nabla[..., 4, 4, :])
    mixed = max_norm(nabla[..., :4, 4, :] - kappa * g_in)
    lhs = h_in[..., 4, 4, None, None, None] * nabla[..., :4, :4, :]
    rhs = kappa * (
        np.einsum("...am,...b->...abm", g_in, h_in[..., :4, 4])
        + np.einsum("...bm,...a->...abm", g_in, h_in[..., :4, 4])
    )
    return MetricDerivativeReport(
        fifth_residual=fifth,
        mixed_residual=mixed,
        block_residual=max_norm(lhs - rhs),
    )


def metric_transport_identity_residual(
    u_four,
    v_field: FieldOnGrid,
    w_field: FieldOnGrid,
    e,
    h: MetricH,
    g,
    kappa: float,
) -> float:
    """Coordinate-free form of the metric transport identities.

    For any four-direction U, five-vector fields v and w, and a vector e
    along the positive-norm directional vector,

        h(e, e) (nabla_U h)(v, w)
            = kappa g(U, v ^ e) h(w, e) + kappa g(U, w ^ e) h(v, e)

    where nabla h is the tensor covariant derivative of the (uniform)
    metric and g pairs wedge four-vectors through the bivector inner
    product.  The two sides share no code: the left contracts connection
    coefficients into the metric, the right is built from wedge pairings.
    Returns the max deviation over all samples.  Scales quadratically in
    e, so e need not be normalized.
    """
    u_four = as_array(u_four, shape=(4,))
    e = as_array(e, shape=(5,))
    if classify_directional(e, h) is not DirectionalClass.POSITIVE:
        raise NotDirectional("e must lie along a positive-norm directional vector")
    if v_field.grid != w_field.grid:
        raise GridMismatch("v and w live on different grids")
    grid = v_field.grid

    hv = h.matrix
    gv = g.values if isinstance(g, ConnectionCoeffs) else np.asarray(g, dtype=float)
    gv = np.broadcast_to(gv, grid.shape + (5, 5, 4))

    # The metric is uniform, so its covariant derivative is purely the
    # connection correction; v and w then enter pointwise, which keeps the
    # check free of finite-difference truncation for any sample fields.
    nabla_h = -(
        np.einsum("...cam,cb->...abm", gv, hv) + np.einsum("...cbm,ac->...abm", gv, hv)
    )
    along_u = np.einsum("...abm,m->...ab", nabla_h, u_four)
    contracted = np.einsum("...ab,...a,...b->...", along_u, v_field.values, w_field.values)
    lhs = h.dot(e, e) * contracted

    # g(U, v ^ e): embed U as a wedge against the reference frame and pair.
    u_biv = np.zeros((5, 5))
    u_biv[:4, 4] = u_four
    u_biv[4, :4] = -u_four
    hh = np.einsum("ac,bd->abcd", hv, hv)

    def wedge_pairing(field):
        wedges = np.einsum("...a,b->...ab", field.values, e) - np.einsum("a,...b->...ab", e, field.values)
        return 0.5 * np.einsum("abcd,ab,...cd->...", hh, u_biv, wedges)

    h_we = np.einsum("ab,...a,b->...", hv, w_field.values, e)
    h_ve = np.einsum("ab,...a,b->...", hv, v_field.values, e)
    rhs = kappa * (wedge_pairing(v_field) * h_we + wedge_pairing(w_field) * h_ve)
    return max_norm(lhs - rhs)
