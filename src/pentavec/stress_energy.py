"""Energy-momentum and angular-momentum currents as one five-tensor field.

The inputs are a stress-energy field Theta^mu_alpha and a spin current
Sigma^mu_(alpha beta) sampled over a Lorentz chart.  Together with the
orbital moment x_alpha Theta^mu_beta - x_beta Theta^mu_alpha they fill a
single five-indexed current

    M^mu_(alpha beta) = orbital + spin        (four-block)
    M^mu_(5 alpha)    = Theta^mu_alpha        (fifth row, minus on the column)
    M^mu_(5 5)        = 0

whose components above are taken in the parallel-frame dual basis.  In
the orthonormal dual basis the four-block reduces to the spin current
alone.  Conservation of the whole object in either frame is equivalent to
the two familiar statements: Theta is divergence-free and the divergence
of the spin current balances the antisymmetric part of Theta.

Samples carry grid axes first: Theta is ``(..., 4, 4)`` indexed [mu][alpha]
(upper index first), Sigma ``(..., 4, 4, 4)`` indexed [mu][alpha][beta], and
the current ``(..., 4, 5, 5)``.  The kernels turn one slab of the first grid
axis at a time components first, so that each update is a plane of samples.

The transport constant enters only through the rescaled frame: every kappa
becomes ``connection.normalized_kappa(kappa)``, 1 for any nonzero kappa.
At kappa = 0 the two frames coincide and the five-tensor packaging loses
its invariance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import lower_array
from .connection import flat_coefficients, normalized_kappa
from .errors import BasisMismatch, GridMismatch, NotAntisymmetric, NotNull
from .grids import FieldOnGrid, Grid, _central_difference, _differentiated, scheme_width
from .numerics import NULL_TOL, input_bound, max_norm
from .poincare import PoincareTransform, homogeneous_rep


def assemble_moment_field(theta: np.ndarray, sigma: np.ndarray, grid: Grid) -> FieldOnGrid:
    """Pack stress-energy and spin samples into the five-tensor current.

    Components come out in the parallel-frame dual basis, where the
    four-block is the full moment x_alpha Theta^mu_beta - x_beta
    Theta^mu_alpha + Sigma^mu_(alpha beta).
    """
    theta = np.asarray(theta, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    if theta.shape != grid.shape + (4, 4):
        raise GridMismatch(f"theta shape {theta.shape} does not match grid {grid.shape} + (4, 4)")
    if sigma.shape != grid.shape + (4, 4, 4):
        raise GridMismatch(f"sigma shape {sigma.shape} does not match grid {grid.shape} + (4, 4, 4)")
    limit = input_bound(sigma)  # one bound for the whole field, checked slab by slab

    x = np.ascontiguousarray(np.moveaxis(lower_array(grid.coords()), -1, 0))
    values = np.empty(grid.shape + (4, 5, 5))
    v = np.zeros((4, 5, 5) + grid.shape[1:])  # one slab, components first; M^mu_(5 5) stays 0
    for i in range(grid.shape[0]):
        anti = sigma[i] + np.swapaxes(sigma[i], -1, -2)
        if np.abs(anti, out=anti).max() > limit:
            raise NotAntisymmetric("spin current must be antisymmetric in its lower indices")
        th = np.ascontiguousarray(np.moveaxis(theta[i], (-2, -1), (0, 1)))
        for b in range(4):  # orbital x_alpha Theta^mu_beta - x_beta Theta^mu_alpha, column beta
            np.multiply(x[:, i], th[:, b, None], out=v[:, :4, b])
            v[:, :4, b] -= x[b, i] * th
        v[:, :4, :4] += np.moveaxis(sigma[i], (-3, -2, -1), (0, 1, 2))
        v[:, 4, :4] = th
        np.negative(th, out=v[:, :4, 4])
        values[i] = np.moveaxis(v, (0, 1, 2), (-3, -2, -1))
    values.setflags(write=False)
    return FieldOnGrid(grid=grid, values=values, basis="P")


def moment_to_orthonormal(m: FieldOnGrid, kappa: float = 1.0) -> FieldOnGrid:
    """Re-express the current in the orthonormal dual basis.

    The fifth dual form changes by -normalized_kappa(kappa) x_alpha times the
    four-forms: the mixed blocks survive, and the four-block drops its orbital
    part to leave the spin current alone (at kappa = 0 nothing changes).
    """
    return _convert(m, kappa, "P", "O")


def moment_to_parallel(m: FieldOnGrid, kappa: float = 1.0) -> FieldOnGrid:
    return _convert(m, kappa, "O", "P")


def _convert(m: FieldOnGrid, kappa: float, src: str, dst: str) -> FieldOnGrid:
    if m.basis != src:
        raise BasisMismatch(f"expected a {src}-frame current, got {m.basis!r}")
    if m.values.shape[4:] != (4, 5, 5):
        raise GridMismatch(f"expected current samples (4, 5, 5), got {m.values.shape[4:]}")
    # The change C is the identity plus the bottom row s x_alpha, so C^T M C
    # is M with s x_f M^mu_(C 5) added to each four-space column f, then
    # s x_e times the updated fifth row added to each four-space row e.
    x = np.ascontiguousarray(np.moveaxis(lower_array(m.grid.coords()), -1, 0))
    shift = (-1.0 if dst == "O" else 1.0) * normalized_kappa(kappa) * x
    out = np.empty(m.values.shape)
    for i, s in enumerate(np.moveaxis(shift, 1, 0)):  # slab by slab, components first
        v = np.moveaxis(m.values[i], (-3, -2, -1), (0, 1, 2)).copy()
        v[:, :, :4] += s * v[:, :, 4, None]
        v[:, :4] += s[:, None] * v[:, None, 4]
        out[i] = np.moveaxis(v, (0, 1, 2), (-3, -2, -1))
    out.setflags(write=False)
    return FieldOnGrid(grid=m.grid, values=out, basis=dst)


def transform_moment_field(m: FieldOnGrid, t: PoincareTransform, kappa: float = 1.0) -> FieldOnGrid:
    """Chart-change law for a parallel-frame current field: Lambda^mu_nu rep^T M^nu rep.

    ``rep`` is ``homogeneous_rep`` in the rescaled frame.  The mixed blocks
    become Theta' = Lambda Theta Lambda^-1, and the four-block picks up
    a_alpha Theta'_beta - a_beta Theta'_alpha on top of its Lambda
    conjugation.  Samples stay at the same physical points; their
    coordinates in the new chart are t applied to the old grid coordinates.
    """
    if m.basis != "P":
        raise BasisMismatch(f"expected a P-frame current, got {m.basis!r}")
    rep = homogeneous_rep(t, normalized_kappa(kappa))
    values = np.einsum("mn,...nab->...mab", t.lam, np.swapaxes(rep, -1, -2) @ m.values @ rep)
    values.setflags(write=False)
    return FieldOnGrid(grid=m.grid, values=values, basis="P")


@dataclass(frozen=True)
class ConservationReport:
    """Interior residuals of the five-tensor conservation law.

    ``momentum_residual`` covers the mixed (fifth-index) block, whose
    vanishing is stress-energy conservation; ``angular_residual`` covers
    the four-block, whose vanishing is angular-momentum conservation.
    """

    momentum_residual: float
    angular_residual: float

    def worst(self) -> float:
        return max(self.momentum_residual, self.angular_residual)


def conservation_report(m: FieldOnGrid, kappa: float = 1.0, scheme: str = "central2") -> ConservationReport:
    """Covariant divergence residuals of a current field.

    In the parallel frame the transport coefficients vanish and the
    divergence is the plain derivative sum.  In the orthonormal frame the
    flat coefficients at ``normalized_kappa(kappa)`` contribute the terms
    that trade the orbital moment for the stress-energy blocks; at kappa = 0
    they vanish and both frames reduce to the plain divergence.
    """
    if m.basis not in ("O", "P"):
        raise BasisMismatch(f"current must be in the 'O' or 'P' frame, got {m.basis!r}")
    if m.values.shape[4:] != (4, 5, 5):
        raise GridMismatch(f"expected current samples (4, 5, 5), got {m.values.shape[4:]}")

    # Each partial is taken with the central row alone, on the interior
    # samples the residuals read; singleton axes contribute nothing.
    grid = m.grid
    axes = [mu for mu in range(4) if _differentiated(grid, mu, scheme)]
    sel = grid.interior(scheme_width(scheme))
    div = np.zeros((5, 5) + m.values[sel].shape[:4])
    derivative = np.empty_like(div)
    g = flat_coefficients(normalized_kappa(kappa)).values
    for mu in (range(4) if m.basis == "O" else axes):
        along = sel[:mu] + (slice(None),) + sel[mu + 1 :] if mu in axes else sel
        block = m.values[along + (mu,)]
        inner = np.empty((5, 5) + block.shape[:4])  # M^mu components first, slab by slab
        for i, slab in enumerate(block):
            inner[:, :, i] = np.moveaxis(slab, (-2, -1), (0, 1))
        if mu in axes:
            _central_difference(
                np.moveaxis(inner, 2 + mu, 0), grid.spacing[mu], scheme, np.moveaxis(derivative, 2 + mu, 0)
            )
            div += derivative
            inner = inner[(slice(None),) * (2 + mu) + (sel[mu],)]
        if m.basis == "O":
            # - G^C_(A mu) M^mu_(C B) - G^C_(B mu) M^mu_(A C), whose one
            # nonzero coefficient is G^5_(mu mu) = -normalized_kappa(kappa) eta_(mu mu)
            c = -g[4, mu, mu]
            div[mu] += c * inner[4]
            div[:, mu] += c * inner[:, 4]
        del inner  # freed before the next mu's buffer is made

    return ConservationReport(
        momentum_residual=max_norm(div[4, :4]),
        angular_residual=max_norm(div[:4, :4]),
    )


def constant_stress_samples(theta0, grid: Grid) -> tuple[np.ndarray, np.ndarray]:
    """Uniform stress-energy with zero spin current, for exactness checks."""
    theta0 = np.asarray(theta0, dtype=float)
    if theta0.shape != (4, 4):
        raise GridMismatch(f"expected a (4, 4) matrix, got {theta0.shape}")
    theta = np.broadcast_to(theta0, grid.shape + (4, 4)).copy()
    sigma = np.zeros(grid.shape + (4, 4, 4))
    return theta, sigma


def plane_wave_stress_samples(k, grid: Grid) -> tuple[np.ndarray, np.ndarray]:
    """Stress-energy of a free massless scalar plane wave, zero spin current.

    For phi = cos(k.x) with a null wave vector the gradient is null, the
    Lagrangian term drops out, and Theta^mu_alpha = k^mu k_alpha sin(k.x)^2,
    which is divergence-free exactly.
    """
    k = np.asarray(k, dtype=float)
    if k.shape != (4,):
        raise GridMismatch(f"expected a four-component wave vector, got {k.shape}")
    k_low = lower_array(k)
    null_resid = abs(float(k @ k_low))
    if null_resid > NULL_TOL * max(float(k @ k), 1.0):
        raise NotNull(f"wave vector must be null, k.k = {float(k @ k_low):.3e}")
    phase = np.einsum("...a,a->...", grid.coords(), k_low)
    envelope = np.sin(phase) ** 2
    theta = np.einsum("...,m,a->...ma", envelope, k, k_low)
    sigma = np.zeros(grid.shape + (4, 4, 4))
    return theta, sigma
