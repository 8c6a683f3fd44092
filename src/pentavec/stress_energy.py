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
Each slab writes rows of its own, so ``forking.split_rows`` may run the upper
half of them in a worker thread, with the one-thread results to the bit.

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
from .forking import split_rows
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

    def rows(lo, hi):
        v = np.zeros((4, 5, 5) + grid.shape[1:])  # one slab, components first; M^mu_(5 5) stays 0
        four, th = v[:, :4, :4], v[:, 4, :4]
        outer, part = np.empty((2, 4, 4, 4) + grid.shape[1:])
        for i in range(lo, hi):
            four[...] = np.moveaxis(sigma[i], (-3, -2, -1), (0, 1, 2))
            np.add(four, np.swapaxes(four, 1, 2), out=part)
            if np.abs(part, out=part).max() > limit:
                raise NotAntisymmetric("spin current must be antisymmetric in its lower indices")
            th[...] = np.moveaxis(theta[i], (-2, -1), (0, 1))
            np.negative(th, out=v[:, :4, 4])
            # orbital x_alpha Theta^mu_beta - x_beta Theta^mu_alpha: one outer product less its transpose
            np.multiply(x[None, :, None, i], th[:, None], out=outer)
            np.subtract(outer, np.swapaxes(outer, 1, 2), out=part)
            four += part
            values[i] = np.moveaxis(v, (0, 1, 2), (-3, -2, -1))

    split_rows(grid.shape[0], rows)
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

    def rows(lo, hi):
        for i, s in enumerate(np.moveaxis(shift, 1, 0)[lo:hi], lo):  # slab by slab, components first
            v = np.moveaxis(m.values[i], (-3, -2, -1), (0, 1, 2)).copy()
            v[:, :, :4] += s * v[:, :, 4, None]
            v[:, :4] += s[:, None] * v[:, None, 4]
            out[i] = np.moveaxis(v, (0, 1, 2), (-3, -2, -1))

    split_rows(m.grid.shape[0], rows)
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


def conservation_divergence(m: FieldOnGrid, kappa: float = 1.0, scheme: str = "central2") -> np.ndarray:
    """Covariant divergence of a current field at the interior samples, components first:
    ``(5, 5) + m.values[m.grid.interior(scheme_width(scheme))].shape[:4]``.

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
    # samples the residuals read; singleton axes contribute nothing.  Each
    # range of interior rows of axis 0 writes its own rows of div.
    grid = m.grid
    axes = [mu for mu in range(4) if _differentiated(grid, mu, scheme)]
    width = scheme_width(scheme)
    sel = grid.interior(width)
    div = np.zeros((5, 5) + m.values[sel].shape[:4])
    g = flat_coefficients(normalized_kappa(kappa)).values
    first = sel[0].start or 0  # the grid row of interior row 0, at a singleton axis 0 too

    def rows(lo, hi):
        part = div[:, :, lo:hi]
        derivative = np.empty_like(part)
        for mu in (range(4) if m.basis == "O" else axes):
            along = [slice(first + lo, first + hi), *sel[1:]]
            if mu in axes:  # the whole axis, or along axis 0 the rows and their halo
                along[mu] = slice(lo, hi + 2 * width) if mu == 0 else slice(None)
            block = m.values[tuple(along) + (mu,)]
            inner = np.empty((5, 5) + block.shape[:4])  # M^mu components first, slab by slab
            for i, slab in enumerate(block):
                inner[:, :, i] = np.moveaxis(slab, (-2, -1), (0, 1))
            if mu in axes:
                _central_difference(
                    np.moveaxis(inner, 2 + mu, 0), grid.spacing[mu], scheme, np.moveaxis(derivative, 2 + mu, 0)
                )
                part += derivative
                inner = inner[(slice(None),) * (2 + mu) + (slice(width, inner.shape[2 + mu] - width),)]
            if m.basis == "O":
                # - G^C_(A mu) M^mu_(C B) - G^C_(B mu) M^mu_(A C), whose one
                # nonzero coefficient is G^5_(mu mu) = -normalized_kappa(kappa) eta_(mu mu)
                c = -g[4, mu, mu]
                part[mu] += c * inner[4]
                part[:, mu] += c * inner[:, 4]
            del inner  # freed before the next mu's buffer is made

    split_rows(div.shape[2], rows)
    return div


def conservation_report(m: FieldOnGrid, kappa: float = 1.0, scheme: str = "central2") -> ConservationReport:
    """The maxima of ``conservation_divergence`` over the momentum row and the four-block."""
    div = conservation_divergence(m, kappa, scheme)
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


def plane_wave_divergence(k, grid: Grid, kappa: float = 1.0, scheme: str = "central2", basis: str = "P") -> np.ndarray:
    """The exact value of ``conservation_divergence`` for the current of
    ``plane_wave_stress_samples(k, grid)`` in frame ``basis``, from closed forms.

    Along axis mu the phase phi steps by d = k_mu h.  A central difference of
    sin(phi)^2 there is sin 2phi times the stencil's modified wavenumber
    sigma_mu (Lele, J. Comput. Phys. 103, 16, 1992): sin(2d) / 2h under
    central2, [8 sin(2d) - sin(4d)] / 12h under central4.  So the fifth row
    reads k_alpha sin 2phi sum_mu k^mu sigma_mu in both frames, and the fifth
    column its negative.  The P-frame orbital part x_alpha Theta^mu_beta
    follows from the discrete product rule D_mu(x_mu f) = x_mu D_mu f +
    eta_(mu mu) E_mu f, with E_mu the stencil's average, (f+ + f-)/2 or
    [8(f+ + f-) - 2(f++ + f--)]/12, and sin(phi + d)^2 + sin(phi - d)^2 =
    1 - cos 2phi cos 2d.  The O-frame four-block has no orbital part and is
    zero, except at kappa = 0, where the frames coincide.  A wave that varies
    along a singleton axis, which carries no derivative, raises GridMismatch.
    """
    sel = grid.interior(scheme_width(scheme))
    k_low = lower_array(k)
    if any(n == 1 and km != 0.0 for n, km in zip(grid.shape, k_low)):
        raise GridMismatch("the wave varies along a singleton axis, which carries no derivative")
    h = np.asarray(grid.spacing)
    d = k_low * h
    if scheme == "central2":
        sigma, cos_avg = np.sin(2 * d) / (2 * h), np.cos(2 * d)
    else:
        sigma, cos_avg = (8 * np.sin(2 * d) - np.sin(4 * d)) / (12 * h), (8 * np.cos(2 * d) - 2 * np.cos(4 * d)) / 6
    x_low = np.moveaxis(lower_array(grid.coords()[sel]), -1, 0)
    phase = 2 * np.tensordot(k, x_low, 1)  # 2 phi at the interior samples
    rate = np.sin(phase) * (k @ sigma)
    column = (4,) + (1,) * rate.ndim  # a four-index over the grid axes
    div = np.zeros((5, 5) + rate.shape)
    div[4, :4] = k_low.reshape(column) * rate
    div[:4, 4] = -div[4, :4]
    if basis == "P" or normalized_kappa(kappa) == 0.0:
        # [a, b] = x_a k_b rate + k_a k_b E_a sin^2, less its transpose
        lever = x_low * rate + k_low.reshape(column) * (1 - cos_avg.reshape(column) * np.cos(phase)) / 2
        moment = lever[:, None] * k_low.reshape(column)
        div[:4, :4] = moment - np.swapaxes(moment, 0, 1)
    return div
