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
the current ``(..., 4, 5, 5)``.  The kernels read a current only on its 10
pairs A < B and write each one they hand out from them, the lower triangle
the exact negative and the diagonal +0; any other current is checked once
against ``numerics.input_bound`` (NotAntisymmetric).  They turn one slab of
the first grid axis at a time components first, so that each update is a
plane of samples.  Each slab writes rows of its own, so ``forking.split_rows``
may run the upper half of them in a worker thread, to the bit.  Finiteness
is checked where a current is written (NotFinite): the assembly and the frame
changes check each slab before they write it, the law its pairs, and the
field they hand over skips ``FieldOnGrid``'s whole-array scan.

The transport constant enters only through the rescaled frame: every kappa
becomes ``connection.normalized_kappa(kappa)``, 1 for any nonzero kappa.
At kappa = 0 the two frames coincide and the five-tensor packaging loses
its invariance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import _PAIR_COLS, _PAIR_ROWS, _PAIRS, lower_array
from .connection import flat_coefficients, normalized_kappa
from .errors import BasisMismatch, GridMismatch, NotAntisymmetric, NotFinite, NotNull
from .forking import split_rows
from .grids import FieldOnGrid, Grid, _central_difference, _differentiated, scheme_width
from .numerics import NULL_TOL, input_bound, max_norm
from .poincare import PoincareTransform, homogeneous_rep


# Each M^mu is antisymmetric in (A, B), so its 10 pairs A < B (algebra's order) hold all of it.
MOMENTUM_PAIRS = [k for k, (_, b) in enumerate(_PAIRS) if b == 4]
ANGULAR_PAIRS = [k for k, (_, b) in enumerate(_PAIRS) if b < 4]


class _Current(FieldOnGrid):
    """A current written here from its pairs, exactly antisymmetric and finite, so never checked again."""

    _scan_finite = False


def _check_finite(top) -> None:
    """Raise NotFinite unless ``top`` is finite: the max |value| of an array, or the max of an exactly
    antisymmetric slab with a +0 diagonal, which a NaN or an infinity of either sign makes NaN or +inf."""
    if not top < np.inf:
        raise NotFinite("field contains non-finite samples")


def _row_coords(grid: Grid, lo: int, hi: int, scale: float = 1.0):
    """``(i, x)`` for the rows i = lo .. hi - 1 of grid axis 0: x is scale times the bits of the lowered
    x_alpha of row i in ``lower_array(grid.coords())``, ``(4,) + grid.shape[1:]``; one buffer, as only x_0 varies."""
    eta = lower_array(np.ones(4))  # lowering's +-1 factors
    x = np.empty((4,) + grid.shape[1:])
    for a in range(1, 4):
        x[a] = scale * (grid.axis_coords(a) * eta[a]).reshape([-1 if b == a else 1 for b in range(1, 4)])
    time = grid.axis_coords(0) * eta[0]
    for i in range(lo, hi):
        x[0] = scale * time[i]
        yield i, x


def _check_current(m: FieldOnGrid, frames) -> None:
    """Raise unless ``m`` is a current in one of ``frames``, antisymmetric within ``input_bound``."""
    if m.basis not in frames:
        raise BasisMismatch(f"expected a {' or '.join(frames)}-frame current, got {m.basis!r}")
    if m.values.shape[4:] != (4, 5, 5):
        raise GridMismatch(f"expected current samples (4, 5, 5), got {m.values.shape[4:]}")
    if not isinstance(m, _Current):
        limit = input_bound(m.values)
        worst = max(max_norm(row + np.swapaxes(row, -1, -2)) for row in m.values)  # no whole-field temporary
        if worst > limit:
            raise NotAntisymmetric(f"moment current must be antisymmetric in its lower index pair: residual {worst:.3g}"
                                   f" exceeds {limit:.3g}")


def _mirror(v: np.ndarray) -> None:
    """v[:, B, A] = 0 - v[:, A, B] for A < B, over the axes 1 and 2 of v: +0 where v[:, A, B] is 0."""
    for a in range(v.shape[1] - 1):
        np.subtract(0.0, v[:, a, a + 1 :], out=v[:, a + 1 :, a])


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
    values = np.empty(grid.shape + (4, 5, 5))
    # Per row of axis 0: max Sigma, min Sigma, max |Sigma + Sigma^T| and the max of its slab of M,
    # so that the spin check meets the bound of the whole field and runs before the finiteness check.
    seen = np.empty((4, grid.shape[0]))

    def rows(lo, hi):
        v = np.zeros((4, 5, 5) + grid.shape[1:])  # one slab, components first; M^mu_(5 5) stays 0
        four, th = v[:, :4, :4], v[:, 4, :4]
        part, term = np.empty((4, 4, 4) + grid.shape[1:]), np.empty((2, 4, 3) + grid.shape[1:])
        for i, x in _row_coords(grid, lo, hi):
            four[...] = np.moveaxis(sigma[i], (-3, -2, -1), (0, 1, 2))
            np.add(four, np.swapaxes(four, 1, 2), out=part)
            seen[:3, i] = four.max(), four.min(), np.abs(part, out=part).max()
            th[...] = np.moveaxis(theta[i], (-2, -1), (0, 1))
            np.negative(th, out=v[:, :4, 4])
            for a in range(3):  # the pairs (a, b > a): (x_a Theta^mu_b - x_b Theta^mu_a) + Sigma^mu_(ab)
                t, u = term[:, :, : 3 - a]
                np.multiply(x[a], th[:, a + 1 :], out=t)
                t -= np.multiply(x[a + 1 :], th[:, a, None], out=u)
                four[:, a, a + 1 :] += t
            _mirror(four)
            v.reshape((4, 25) + grid.shape[1:])[:, ::6] = 0.0  # the diagonal
            seen[3, i] = v.max()
            values[i] = np.moveaxis(v, (0, 1, 2), (-3, -2, -1))

    split_rows(grid.shape[0], rows)
    if seen[2].max() > input_bound(seen[:2]):  # input_bound(sigma), from each slab's max and min
        raise NotAntisymmetric("spin current must be antisymmetric in its lower indices")
    _check_finite(seen[3].max())
    values.setflags(write=False)
    return _Current(grid=grid, values=values, basis="P")


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
    _check_current(m, (src,))
    # The change C is the identity plus the bottom row s x_alpha.  On the pairs,
    # C^T M C takes each m_a = M^mu_(a 5) to m_a + s_a M^mu_(5 5), a change of at
    # most a zero's sign, and each four-block pair p_ab to (p_ab + s_b m_a) - s_a m_b.
    c = (-1.0 if dst == "O" else 1.0) * normalized_kappa(kappa)
    out = np.empty(m.values.shape)

    def rows(lo, hi):
        v = np.zeros((4, 5, 5) + m.grid.shape[1:])  # one slab, components first; the diagonal stays +0
        mixed, term = v[:, :4, 4], np.empty((4, 3) + m.grid.shape[1:])
        for i, s in _row_coords(m.grid, lo, hi, c):  # the shift s_alpha = c x_alpha
            slab = np.moveaxis(m.values[i], (-3, -2, -1), (0, 1, 2))
            mixed[...] = slab[:, :4, 4]
            for a in range(3):  # the pairs (a, b > a) of the four-block, one row at a time
                pair, t = v[:, a, a + 1 : 4], term[:, : 3 - a]
                np.multiply(s[a + 1 :], mixed[:, a, None], out=pair)
                pair += slab[:, a, a + 1 : 4]
                pair -= np.multiply(s[a], mixed[:, a + 1 :], out=t)
            mixed += 0.0 * s  # + s_a M^mu_(5 5), once the pairs have read m_a
            _mirror(v)
            _check_finite(v.max())
            out[i] = np.moveaxis(v, (0, 1, 2), (-3, -2, -1))

    split_rows(m.grid.shape[0], rows)
    out.setflags(write=False)
    return _Current(grid=m.grid, values=out, basis=dst)


def transform_moment_field(m: FieldOnGrid, t: PoincareTransform, kappa: float = 1.0) -> FieldOnGrid:
    """Chart-change law for a parallel-frame current field: Lambda^mu_nu rep^T M^nu rep.

    ``rep`` is ``homogeneous_rep`` in the rescaled frame.  The mixed blocks
    become Theta' = Lambda Theta Lambda^-1, and the four-block picks up
    a_alpha Theta'_beta - a_beta Theta'_alpha on top of its Lambda
    conjugation.  Samples stay at the same physical points; their
    coordinates in the new chart are t applied to the old grid coordinates.
    On the pairs the law is Lambda times the 10 x 10 matrix rep ^ rep,
    (rep ^ rep)_((AB), (CD)) = rep_CA rep_DB - rep_DA rep_CB.
    """
    _check_current(m, ("P",))
    rep = homogeneous_rep(t, normalized_kappa(kappa))
    a, b, c, d = _PAIR_ROWS[:, None], _PAIR_COLS[:, None], _PAIR_ROWS, _PAIR_COLS
    law = np.kron(t.lam, rep[c, a] * rep[d, b] - rep[d, a] * rep[c, b])  # [(mu, AB), (nu, CD)]
    pairs = m.values[..., _PAIR_ROWS, _PAIR_COLS].reshape(-1, 40) @ law.T
    _check_finite(max(pairs.max(), -pairs.min()))
    values = np.zeros(m.values.shape)  # the diagonal stays +0
    values[..., _PAIR_ROWS, _PAIR_COLS] = pairs.reshape(m.values.shape[:-2] + (10,))
    _mirror(np.moveaxis(values, (-2, -1), (1, 2)))
    values.setflags(write=False)
    return _Current(grid=m.grid, values=values, basis="P")


@dataclass(frozen=True)
class ConservationReport:
    """Interior residuals of the five-tensor conservation law.

    ``momentum_residual`` covers the mixed pairs (a, 5), whose vanishing
    is stress-energy conservation; ``angular_residual`` covers the
    four-block pairs, whose vanishing is angular-momentum conservation.
    """

    momentum_residual: float
    angular_residual: float

    def worst(self) -> float:
        return max(self.momentum_residual, self.angular_residual)

    @classmethod
    def from_divergence(cls, div: np.ndarray) -> ConservationReport:
        """``max_norm`` of ``div[MOMENTUM_PAIRS]`` and of ``div[ANGULAR_PAIRS]``, read pair by pair as
        max(max, -min) with no copy; the + 0.0 makes an all-zero residual +0, as max |div| is."""
        return cls(*(float(np.max([np.maximum(div[k].max(), -div[k].min()) for k in pairs])) + 0.0
                     for pairs in (MOMENTUM_PAIRS, ANGULAR_PAIRS)))


def conservation_divergence(m: FieldOnGrid, kappa: float = 1.0, scheme: str = "central2") -> np.ndarray:
    """Covariant divergence of a current field at the interior samples, on the pairs A < B:
    ``(10,) + m.values[m.grid.interior(scheme_width(scheme))].shape[:4]``.

    In the parallel frame the transport coefficients vanish and the
    divergence is the plain derivative sum.  In the orthonormal frame the
    flat coefficients at ``normalized_kappa(kappa)`` contribute the terms
    that trade the orbital moment for the stress-energy blocks; at kappa = 0
    they vanish and both frames reduce to the plain divergence.
    """
    _check_current(m, ("O", "P"))

    # Each partial is taken with the central row alone, on the interior
    # samples the residuals read; singleton axes contribute nothing.  Each
    # range of interior rows of axis 0 writes its own rows of div.
    grid = m.grid
    axes = [mu for mu in range(4) if _differentiated(grid, mu, scheme)]
    width = scheme_width(scheme)
    sel = grid.interior(width)
    div = np.zeros((10,) + m.values[sel].shape[:4])
    g = flat_coefficients(normalized_kappa(kappa)).values
    first = sel[0].start or 0  # the grid row of interior row 0, at a singleton axis 0 too

    def rows(lo, hi):
        part = div[:, lo:hi]
        derivative, term = np.empty_like(part), np.empty_like(part[0])
        for mu in (range(4) if m.basis == "O" else axes):
            along = [slice(first + lo, first + hi), *sel[1:]]
            if mu in axes:  # the whole axis, or along axis 0 the rows and their halo
                along[mu] = slice(lo, hi + 2 * width) if mu == 0 else slice(None)
            block = m.values[tuple(along) + (mu,)]
            inner = np.empty((10,) + block.shape[:4])  # the pairs of M^mu first, each over the whole run
            for k, (a, b) in enumerate(_PAIRS):
                inner[k] = block[..., a, b]
            if mu in axes:
                _central_difference(
                    np.moveaxis(inner, 1 + mu, 0), grid.spacing[mu], scheme, np.moveaxis(derivative, 1 + mu, 0)
                )
                part += derivative
                inner = inner[(slice(None),) * (1 + mu) + (slice(width, inner.shape[1 + mu] - width),)]
            if m.basis == "O":
                # - G^C_(A mu) M^mu_(C B) - G^C_(B mu) M^mu_(A C), whose one nonzero coefficient
                # is G^5_(mu mu) = -normalized_kappa(kappa) eta_(mu mu): with m_a = M^mu_(a 5), the
                # row term c M^mu_(5 b) = -c m_b on each pair (mu, b) and the column term c m_a on (a, mu)
                c = -g[4, mu, mu]
                for k, (a, b) in enumerate(_PAIRS):
                    if a == mu and b < 4:
                        part[k] -= np.multiply(inner[MOMENTUM_PAIRS[b]], c, out=term)
                    elif b == mu:
                        part[k] += np.multiply(inner[MOMENTUM_PAIRS[a]], c, out=term)
            del inner  # freed before the next mu's buffer is made

    split_rows(div.shape[1], rows)
    return div


def conservation_report(m: FieldOnGrid, kappa: float = 1.0, scheme: str = "central2") -> ConservationReport:
    """The maxima of ``conservation_divergence`` over the momentum and the angular pairs."""
    return ConservationReport.from_divergence(conservation_divergence(m, kappa, scheme))


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
    reads k_alpha sin 2phi sum_mu k^mu sigma_mu in both frames, and the
    momentum pairs (alpha, 5) its negative.  The P-frame orbital part x_alpha Theta^mu_beta
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
    div = np.zeros((10,) + rate.shape)
    div[MOMENTUM_PAIRS] = -(k_low.reshape(column) * rate)
    if basis == "P" or normalized_kappa(kappa) == 0.0:
        # [a, b] = x_a k_b rate + k_a k_b E_a sin^2, less its transpose
        lever = x_low * rate + k_low.reshape(column) * (1 - cos_avg.reshape(column) * np.cos(phase)) / 2
        moment = lever[:, None] * k_low.reshape(column)
        rows, cols = _PAIR_ROWS[ANGULAR_PAIRS], _PAIR_COLS[ANGULAR_PAIRS]
        div[ANGULAR_PAIRS] = moment[rows, cols] - moment[cols, rows]
    return div
