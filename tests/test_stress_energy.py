import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from pentavec.algebra import ETA4, lower_array
from pentavec.connection import flat_coefficients, normalized_kappa
from pentavec.errors import BasisMismatch, GridMismatch, GridTooCoarse, NotAntisymmetric
from pentavec.grids import FieldOnGrid, Grid, partial_derivative, scheme_width
from pentavec.numerics import INPUT_TOL, input_bound, max_norm
from pentavec.poincare import PoincareTransform
from pentavec.stress_energy import (
    assemble_moment_field,
    conservation_report,
    constant_stress_samples,
    moment_to_orthonormal,
    moment_to_parallel,
    plane_wave_stress_samples,
    transform_moment_field,
)

NULL_K = np.array([np.sqrt(8.0), 2.0, 2.0, 0.0])


def wave_grid(n):
    h = 1.0 / (n - 1)
    return Grid(origin=(0.0,) * 4, spacing=(h, h, h, 1.0), shape=(n, n, n, 1))


def centered_grid(n=5, h=0.25):
    half = 0.5 * h * (n - 1)
    return Grid(origin=(-half, -half, -half, 0.0), spacing=(h, h, h, 1.0), shape=(n, n, n, 1))


def smooth_samples(grid, seed):
    rng = np.random.default_rng(seed)
    coords = grid.coords()
    lin = np.einsum("...m,abm->...ab", coords, rng.normal(size=(4, 4, 4)))
    theta = rng.normal(size=(4, 4)) + lin
    s = rng.normal(size=(4, 4, 4)) + np.einsum("...m,abcm->...abc", coords, rng.normal(size=(4, 4, 4, 4)))
    sigma = s - np.swapaxes(s, -1, -2)
    return theta, sigma


def test_assemble_validation():
    grid = centered_grid()
    theta, sigma = smooth_samples(grid, 60)
    with pytest.raises(GridMismatch):
        assemble_moment_field(theta[..., 0], sigma, grid)
    with pytest.raises(GridMismatch):
        assemble_moment_field(theta, sigma[..., 0], grid)
    with pytest.raises(NotAntisymmetric):
        assemble_moment_field(theta, np.abs(sigma) + 1.0, grid)


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_assemble_spin_antisymmetry_threshold(sign):
    # the largest |sigma| is 4, so the check admits a symmetric part up to
    # INPUT_TOL * 4 and rejects the next float above it
    grid = centered_grid(n=3)
    theta = np.zeros(grid.shape + (4, 4))
    sigma = np.zeros(grid.shape + (4, 4, 4))
    sigma[..., 0, 0, 1], sigma[..., 0, 1, 0] = 4.0, -4.0
    limit = input_bound(sigma)
    assert limit == INPUT_TOL * 4.0
    sigma[1, 2, 0, 0, 3, 2, 3] = sign * limit
    assemble_moment_field(theta, sigma, grid)
    sigma[1, 2, 0, 0, 3, 2, 3] = sign * np.nextafter(limit, 1.0)
    with pytest.raises(NotAntisymmetric, match="spin current must be antisymmetric"):
        assemble_moment_field(theta, sigma, grid)
    # the check runs slab by slab along axis 0, against the one bound of the
    # whole field: with the largest |sigma| in slab 0 alone, a fault in the
    # last slab meets INPUT_TOL * 4, not that slab's own INPUT_TOL
    sigma = np.zeros(grid.shape + (4, 4, 4))
    sigma[0, ..., 0, 0, 1], sigma[0, ..., 0, 1, 0] = 4.0, -4.0
    assert input_bound(sigma) == limit and input_bound(sigma[-1]) == INPUT_TOL
    sigma[-1, 2, 0, 0, 3, 2, 3] = sign * limit
    assemble_moment_field(theta, sigma, grid)
    sigma[-1, 2, 0, 0, 3, 2, 3] = sign * np.nextafter(limit, 1.0)
    with pytest.raises(NotAntisymmetric, match="spin current must be antisymmetric"):
        assemble_moment_field(theta, sigma, grid)


def test_assemble_structure():
    grid = centered_grid()
    theta, sigma = smooth_samples(grid, 61)
    m = assemble_moment_field(theta, sigma, grid)
    assert m.basis == "P"
    assert m.values.shape == grid.shape + (4, 5, 5)
    assert np.array_equal(m.values[..., 4, :4], theta)
    assert np.array_equal(m.values[..., :4, 4], -theta)
    assert np.array_equal(m.values[..., 4, 4], np.zeros(grid.shape + (4,)))
    # at the origin sample the orbital part vanishes
    i = tuple(s // 2 for s in grid.shape)
    assert np.allclose(m.values[i][..., :4, :4], sigma[i], atol=1e-15)
    # away from it the four-block carries the full moment
    x_low = ETA4 @ grid.coords()[0, 0, 0, 0]
    expected = (
        np.einsum("a,mb->mab", x_low, theta[0, 0, 0, 0])
        - np.einsum("b,ma->mab", x_low, theta[0, 0, 0, 0])
        + sigma[0, 0, 0, 0]
    )
    assert np.allclose(m.values[0, 0, 0, 0][:, :4, :4], expected, atol=1e-14)


def test_orthonormal_four_block_is_spin_current():
    # changing to the orthonormal dual basis cancels the orbital moment
    # pointwise, leaving the spin current in the four-block
    grid = centered_grid()
    theta, sigma = smooth_samples(grid, 62)
    o = moment_to_orthonormal(assemble_moment_field(theta, sigma, grid), kappa=0.7)
    assert o.basis == "O"
    assert np.allclose(o.values[..., :4, :4], sigma, atol=1e-12)
    assert np.allclose(o.values[..., 4, :4], theta, atol=1e-15)
    assert np.allclose(o.values[..., :4, 4], -theta, atol=1e-15)


def test_frame_conversion_round_trip():
    grid = centered_grid()
    theta, sigma = smooth_samples(grid, 63)
    m = assemble_moment_field(theta, sigma, grid)
    o = moment_to_orthonormal(m, 0.7)
    back = moment_to_parallel(o, 0.7)
    assert np.max(np.abs(back.values - m.values)) <= 1e-12
    assert back.basis == "P"
    with pytest.raises(BasisMismatch):
        moment_to_orthonormal(o, 0.7)  # already in the orthonormal dual basis
    with pytest.raises(BasisMismatch):
        moment_to_parallel(m, 0.7)


def test_conversion_at_zero_kappa_is_identity():
    grid = centered_grid()
    theta, sigma = smooth_samples(grid, 64)
    m = assemble_moment_field(theta, sigma, grid)
    o = moment_to_orthonormal(m, kappa=0.0)
    assert np.array_equal(o.values, m.values)


def random_boost(rng):
    a = rng.normal(size=(4, 4)) * 0.3
    return PoincareTransform(expm(ETA4 @ (a - a.T)), rng.normal(size=4))


def test_transform_round_trip():
    grid = centered_grid()
    theta, sigma = smooth_samples(grid, 65)
    m = assemble_moment_field(theta, sigma, grid)
    rng = np.random.default_rng(66)
    t = random_boost(rng)
    back = transform_moment_field(transform_moment_field(m, t, 1.0), t.inverse(), 1.0)
    assert np.max(np.abs(back.values - m.values)) <= 1e-9


def test_transform_blocks():
    grid = centered_grid()
    theta, sigma = smooth_samples(grid, 67)
    m = assemble_moment_field(theta, sigma, grid)
    rng = np.random.default_rng(68)
    t = random_boost(rng)
    out = transform_moment_field(m, t, 1.0)
    lam_inv = np.linalg.inv(t.lam)
    theta_new = np.einsum("mn,...nb,bt->...mt", t.lam, theta, lam_inv)
    assert np.allclose(out.values[..., 4, :4], theta_new, atol=1e-12)
    assert np.allclose(out.values[..., :4, 4], -theta_new, atol=1e-12)
    with pytest.raises(BasisMismatch):
        transform_moment_field(moment_to_orthonormal(m, 1.0), t, 1.0)


def test_transform_matches_reassembly_at_new_coordinates():
    # independent route: transform theta and sigma alone, move the sample
    # coordinates with the chart map, and rebuild the four-block by hand
    grid = centered_grid()
    theta, sigma = smooth_samples(grid, 69)
    m = assemble_moment_field(theta, sigma, grid)
    rng = np.random.default_rng(70)
    for _ in range(5):
        t = random_boost(rng)
        out = transform_moment_field(m, t, 1.0)
        lam_inv = np.linalg.inv(t.lam)
        theta_new = np.einsum("mn,...nb,bt->...mt", t.lam, theta, lam_inv)
        sigma_new = np.einsum("mn,...nst,sa,tb->...mab", t.lam, sigma, lam_inv, lam_inv)
        x_new_low = np.einsum("ab,...b->...a", ETA4, grid.coords() @ t.lam.T + t.a)
        expected = (
            np.einsum("...a,...mb->...mab", x_new_low, theta_new)
            - np.einsum("...b,...ma->...mab", x_new_low, theta_new)
            + sigma_new
        )
        assert np.max(np.abs(out.values[..., :4, :4] - expected)) <= 1e-10


def test_pure_translation_adds_orbital_shift():
    grid = centered_grid()
    theta, sigma = smooth_samples(grid, 71)
    m = assemble_moment_field(theta, sigma, grid)
    a = np.array([0.5, -1.0, 2.0, 0.25])
    out = transform_moment_field(m, PoincareTransform(np.eye(4), a), 1.0)
    a_low = ETA4 @ a
    shift = np.einsum("a,...mb->...mab", a_low, theta) - np.einsum("b,...ma->...mab", a_low, theta)
    assert np.allclose(out.values[..., :4, :4], m.values[..., :4, :4] + shift, atol=1e-13)
    assert np.array_equal(out.values[..., 4, :4], theta)


def test_constant_stress_is_conserved_exactly():
    grid = wave_grid(9)
    theta, sigma = constant_stress_samples(np.diag([1.0, 0.3, 0.3, 0.3]), grid)
    current = assemble_moment_field(theta, sigma, grid)
    assert conservation_report(current, 1.0, "central2").worst() == 0.0
    o = moment_to_orthonormal(current, 1.0)
    assert conservation_report(o, 1.0, "central2").worst() == 0.0
    assert conservation_report(current, 1.0, "central4").worst() <= 1e-14
    with pytest.raises(GridMismatch):
        constant_stress_samples(np.zeros(4), grid)


def test_plane_wave_conservation_converges():
    residuals = []
    for n in (9, 17):
        grid = wave_grid(n)
        theta, sigma = plane_wave_stress_samples(NULL_K, grid)
        current = assemble_moment_field(theta, sigma, grid)
        residuals.append(conservation_report(current, 1.0, "central2").worst())
    order = np.log2(residuals[0] / residuals[1])
    assert order >= 1.9


def test_plane_wave_frames_agree():
    grid = wave_grid(9)
    theta, sigma = plane_wave_stress_samples(NULL_K, grid)
    current = assemble_moment_field(theta, sigma, grid)
    p_resid = conservation_report(current, 1.0, "central2").worst()
    o_resid = conservation_report(moment_to_orthonormal(current, 1.0), 1.0, "central2").worst()
    assert p_resid > 0.0 and o_resid > 0.0
    ratio = max(p_resid, o_resid) / min(p_resid, o_resid)
    assert ratio <= 2.0


def test_non_null_wave_vector_rejected():
    with pytest.raises(ValueError):
        plane_wave_stress_samples([1.0, 0.0, 0.0, 0.0], wave_grid(5))


def test_conservation_report_guards():
    grid = wave_grid(5)
    theta, sigma = constant_stress_samples(np.eye(4), grid)
    current = assemble_moment_field(theta, sigma, grid)
    bare = FieldOnGrid(grid, current.values, basis=None)
    with pytest.raises(BasisMismatch):
        conservation_report(bare, 1.0)
    assert conservation_report(current, 1.0).worst() == 0.0  # a P-frame current passes the guard


# The kernels below were rewritten without copies and full-grid temporaries.
# Their former loops stay here as references: the rewrite performs the same
# floating-point operations in the same order, so results must agree bit
# for bit, signed zeros included.

def reference_assemble(theta, sigma, grid):
    """Outer product minus its transpose, written straight into the four-block."""
    x_low = lower_array(grid.coords())
    values = np.zeros(grid.shape + (4, 5, 5))
    four = values[..., :4, :4]
    outer = x_low[..., None, :, None] * theta[..., :, None, :]
    np.subtract(outer, np.swapaxes(outer, -1, -2), out=four)
    four += sigma
    values[..., 4, :4] = theta
    values[..., :4, 4] = -theta
    return values


def reference_convert(m, kappa, dst):
    """Four column updates, then four row updates, one strided slice each."""
    shift = (-1.0 if dst == "O" else 1.0) * normalized_kappa(kappa) * lower_array(m.grid.coords())
    out = m.values.copy()
    for f in range(4):
        out[..., f] += shift[..., None, None, f] * out[..., 4]
    for e in range(4):
        out[..., e, :] += shift[..., None, None, e] * out[..., 4, :]
    return out


def reference_report(m, kappa, scheme):
    """Full-grid partials plus two 5x5 matmuls per mu, cut to the interior at the end."""
    g = flat_coefficients(normalized_kappa(kappa)).values
    div = np.zeros(m.grid.shape + (5, 5))
    for mu in range(4):
        block = m.values[..., mu, :, :]
        div += partial_derivative(block, m.grid, mu, scheme)
        if m.basis == "O":
            div -= g[:, :, mu].T @ block
            div -= block @ g[:, :, mu]
    interior = div[m.grid.interior(scheme_width(scheme))]
    return max_norm(interior[..., 4, :4]), max_norm(interior[..., :4, :4])


def assert_same_bits(got, want):
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


KAPPAS = (0.0, 0.5, 1.0, 1e4)
ODD_GRIDS = ((5, 7, 9, 1), (9, 1, 6, 5))


def odd_grid(shape):
    return Grid(origin=(-0.7, 0.3, -1.1, 0.2), spacing=(0.3, 0.25, 0.2, 0.35), shape=shape)


def mixed_magnitudes(rng, shape):
    """Normal draws scaled over six decades, with some exact zeros."""
    v = rng.normal(size=shape) * 10.0 ** rng.integers(-3, 4, size=shape)
    v[rng.random(shape) < 0.1] = 0.0
    return v


@pytest.mark.parametrize("shape", ODD_GRIDS)
def test_assemble_matches_reference_bits(shape):
    grid = odd_grid(shape)
    rng = np.random.default_rng(sum(shape))
    theta = mixed_magnitudes(rng, shape + (4, 4))
    s = mixed_magnitudes(rng, shape + (4, 4, 4))
    sigma = s - np.swapaxes(s, -1, -2)
    assert_same_bits(assemble_moment_field(theta, sigma, grid).values, reference_assemble(theta, sigma, grid))


@pytest.mark.parametrize("shape", ODD_GRIDS)
@pytest.mark.parametrize("kappa", KAPPAS)
def test_frame_changes_match_reference_bits(shape, kappa):
    # arbitrary currents, not antisymmetric in their five-indices
    grid = odd_grid(shape)
    values = mixed_magnitudes(np.random.default_rng(sum(shape) + KAPPAS.index(kappa)), shape + (4, 5, 5))
    for src, dst, convert in (("P", "O", moment_to_orthonormal), ("O", "P", moment_to_parallel)):
        m = FieldOnGrid(grid, values, basis=src)
        assert_same_bits(convert(m, kappa).values, reference_convert(m, kappa, dst))


@pytest.mark.parametrize("shape", ODD_GRIDS)
@pytest.mark.parametrize("scheme", ("central2", "central4"))
@pytest.mark.parametrize("kappa", KAPPAS)
def test_conservation_report_matches_reference_bits(shape, scheme, kappa):
    grid = odd_grid(shape)
    rng = np.random.default_rng(7 * sum(shape) + len(scheme))
    for basis in ("P", "O"):
        m = FieldOnGrid(grid, mixed_magnitudes(rng, shape + (4, 5, 5)), basis=basis)
        report = conservation_report(m, kappa, scheme)
        assert (report.momentum_residual, report.angular_residual) == reference_report(m, kappa, scheme)
    # and on a smooth current, where the residuals are small differences
    theta, sigma = smooth_samples(grid, 72)
    m = assemble_moment_field(theta, sigma, grid)
    for field in (m, moment_to_orthonormal(m, kappa)):
        report = conservation_report(field, kappa, scheme)
        assert (report.momentum_residual, report.angular_residual) == reference_report(field, kappa, scheme)


@pytest.mark.parametrize("scheme", ("central2", "central4"))
@pytest.mark.parametrize("kappa", (0.5, 1e4))
def test_conservation_report_keeps_the_order_of_additions(scheme, kappa):
    # A current whose four-block divergence sits on the diagonal alone, where
    # the derivative, the row term and the column term of each mu meet; the
    # residual is the largest of these three-term sums, so a change in their
    # order shows in its last bits.
    grid = odd_grid((9, 7, 6, 5))
    rng = np.random.default_rng(75)
    for _ in range(10):
        values = np.zeros(grid.shape + (4, 5, 5))
        for mu in range(4):
            values[..., mu, mu, mu] = rng.normal(size=grid.shape)
            values[..., mu, 4, mu] = rng.normal(size=grid.shape) * 1e3
            values[..., mu, mu, 4] = rng.normal(size=grid.shape) * 1e3
        m = FieldOnGrid(grid, values, basis="O")
        report = conservation_report(m, kappa, scheme)
        assert (report.momentum_residual, report.angular_residual) == reference_report(m, kappa, scheme)


@pytest.mark.parametrize(
    "shape, scheme, message",
    [
        ((2, 5, 5, 1), "central2", "axis 0 has 2 samples, scheme central2 needs 3"),
        ((5, 3, 5, 1), "central4", "axis 1 has 3 samples, scheme central4 needs 5"),
        ((5, 5, 1, 4), "central4", "axis 3 has 4 samples, scheme central4 needs 5"),
    ],
)
def test_conservation_report_rejects_coarse_axes(shape, scheme, message):
    grid = odd_grid(shape)
    m = FieldOnGrid(grid, np.zeros(shape + (4, 5, 5)), basis="P")
    with pytest.raises(GridTooCoarse) as err:
        conservation_report(m, 1.0, scheme)
    assert str(err.value) == message


def test_kernels_hand_over_frozen_arrays():
    grid = centered_grid()
    theta, sigma = smooth_samples(grid, 73)
    m = assemble_moment_field(theta, sigma, grid)
    o = moment_to_orthonormal(m, 1.0)
    moved = transform_moment_field(m, random_boost(np.random.default_rng(74)), 1.0)
    for field in (m, o, moment_to_parallel(o, 1.0), moved):
        assert not field.values.flags.writeable
        assert field.values.flags.owndata  # handed over, not a view of a copy
        assert field.values.flags.c_contiguous  # grid first in memory too
        with pytest.raises(ValueError):
            field.values[0, 0, 0, 0, 0, 0, 0] = 1.0


# The kernels turn a current components first one slab at a time, whatever
# the memory order of the array they are given.  The layout must not reach
# the numbers.
LAYOUT = settings(max_examples=30, deadline=None, phases=[p for p in Phase if p is not Phase.explain])
AXIS = st.sampled_from([1, 5, 6, 7])
SPACING = st.floats(0.05, 1.5, allow_nan=False, allow_infinity=False)


def caller_copy(field):
    """The same samples in a caller's frozen Fortran-ordered array, which the field adopts."""
    samples = np.asfortranarray(field.values)
    samples.setflags(write=False)
    copied = FieldOnGrid(field.grid, samples, basis=field.basis)
    assert copied.values is samples and not samples.flags.c_contiguous
    return copied


def frame_change_einsum(m, kappa, sign):
    """C^T M^mu C with C the identity plus the bottom row sign * normalized_kappa * x_alpha."""
    c = np.broadcast_to(np.eye(5), m.grid.shape + (5, 5)).copy()
    c[..., 4, :4] = sign * normalized_kappa(kappa) * lower_array(m.grid.coords())
    return np.einsum("...ca,...mcd,...db->...mab", c, m.values, c)


@LAYOUT
@given(
    st.integers(0, 2**32 - 1),
    st.tuples(AXIS, AXIS, AXIS, AXIS),
    st.tuples(SPACING, SPACING, SPACING, SPACING),
    st.sampled_from(["central2", "central4"]),
    st.sampled_from([0.0, 0.5, 1.0, -1.0]),
)
def test_layout_does_not_change_results(seed, shape, spacing, scheme, kappa):
    grid = Grid(origin=(-0.4, 0.3, -0.2, 0.1), spacing=spacing, shape=shape)
    theta, sigma = smooth_samples(grid, seed)
    m = assemble_moment_field(theta, sigma, grid)
    o = moment_to_orthonormal(m, kappa)
    p = moment_to_parallel(o, kappa)
    fortran = assemble_moment_field(np.asfortranarray(theta), np.asfortranarray(sigma), grid)
    assert_same_bits(m.values, fortran.values)
    assert_same_bits(o.values, moment_to_orthonormal(caller_copy(m), kappa).values)
    assert_same_bits(p.values, moment_to_parallel(caller_copy(o), kappa).values)
    for field in (m, o):
        report = conservation_report(field, kappa, scheme)
        again = conservation_report(caller_copy(field), kappa, scheme)
        assert report.momentum_residual == again.momentum_residual
        assert report.angular_residual == again.angular_residual
    for field, converted, sign in ((m, o, -1.0), (o, p, 1.0)):
        reference = frame_change_einsum(field, kappa, sign)
        scale = max_norm(field.values) * (1.0 + normalized_kappa(kappa) * max_norm(grid.coords())) ** 2
        np.testing.assert_allclose(converted.values, reference, rtol=0.0, atol=1e-14 * scale)
