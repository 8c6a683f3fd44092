import threading

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from pentavec import forking, stress_energy, suites
from pentavec.algebra import _PAIR_COLS, _PAIR_ROWS, ETA4, lower_array
from pentavec.connection import flat_coefficients, normalized_kappa
from pentavec.errors import BasisMismatch, GridMismatch, GridTooCoarse, NotAntisymmetric, NotFinite, PentavecError
from pentavec.grids import FieldOnGrid, Grid, partial_derivative, scheme_width
from pentavec.numerics import INPUT_TOL, input_bound, max_norm
from pentavec.poincare import PoincareTransform
from pentavec.stress_energy import (
    ANGULAR_PAIRS,
    MOMENTUM_PAIRS,
    ConservationReport,
    assemble_moment_field,
    conservation_divergence,
    conservation_report,
    constant_stress_samples,
    moment_to_orthonormal,
    moment_to_parallel,
    plane_wave_divergence,
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


@pytest.mark.parametrize("residuals", [(0.0, np.nan), (np.nan, 0.0)])
def test_worst_keeps_a_nan_in_either_place(residuals):
    assert np.isnan(ConservationReport(*residuals).worst())


def test_a_nan_angular_residual_fails_the_exact_constant_stress_check(monkeypatch):
    monkeypatch.setattr(stress_energy, "conservation_report", lambda *args: ConservationReport(0.0, np.nan))
    checks = {c.name: c for c in suites.run_suite("conservation", suites.SuiteOptions()).checks}
    assert not checks["constant-stress-exact-P"].passed


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


def reference_report(m, kappa, scheme, terms_last=False):
    """Full-grid partials plus two 5x5 matmuls per mu, cut to the interior at the end;
    ``terms_last`` adds every partial before the first connection term instead."""
    g = flat_coefficients(normalized_kappa(kappa)).values

    def connection_terms(div, mu):
        if m.basis == "O":
            div -= g[:, :, mu].T @ m.values[..., mu, :, :]
            div -= m.values[..., mu, :, :] @ g[:, :, mu]

    div = np.zeros(m.grid.shape + (5, 5))
    for mu in range(4):
        div += partial_derivative(m.values[..., mu, :, :], m.grid, mu, scheme)
        if not terms_last:
            connection_terms(div, mu)
    for mu in range(4) if terms_last else ():
        connection_terms(div, mu)
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


def antisymmetric_current(rng, shape):
    """A current (..., 4, 5, 5) of mixed magnitudes, exactly antisymmetric in its lower pair;
    as in an assembled current, some zeros M^mu_(a 5) are -0 against a +0 M^mu_(5 a)."""
    s = mixed_magnitudes(rng, shape + (4, 5, 5))
    v = s - np.swapaxes(s, -1, -2)
    mixed = v[..., :4, 4]
    mixed[(mixed == 0.0) & (rng.random(mixed.shape) < 0.5)] = -0.0
    return v


def assert_pairs_mirrored(values):
    """Each lower triangle is 0 minus the upper one, bit for bit, and the diagonal +0."""
    upper = values[..., _PAIR_ROWS, _PAIR_COLS]
    assert_same_bits(values[..., _PAIR_COLS, _PAIR_ROWS], 0.0 - upper)
    assert_same_bits(values[..., range(5), range(5)], np.zeros(values.shape[:-1]))


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
    # the upper pairs keep the full change's bits, and the lower triangle mirrors them
    grid = odd_grid(shape)
    values = antisymmetric_current(np.random.default_rng(sum(shape) + KAPPAS.index(kappa)), shape)
    for src, dst, convert in (("P", "O", moment_to_orthonormal), ("O", "P", moment_to_parallel)):
        m = FieldOnGrid(grid, values, basis=src)
        got = convert(m, kappa).values
        want = reference_convert(m, kappa, dst)
        assert_same_bits(got[..., _PAIR_ROWS, _PAIR_COLS], want[..., _PAIR_ROWS, _PAIR_COLS])
        assert_pairs_mirrored(got)


@pytest.mark.parametrize("shape", ODD_GRIDS)
@pytest.mark.parametrize("scheme", ("central2", "central4"))
@pytest.mark.parametrize("kappa", KAPPAS)
def test_conservation_report_matches_reference_bits(shape, scheme, kappa):
    grid = odd_grid(shape)
    rng = np.random.default_rng(7 * sum(shape) + len(scheme))
    for basis in ("P", "O"):
        m = FieldOnGrid(grid, antisymmetric_current(rng, shape), basis=basis)
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
    # A current whose four-block divergence sits on the pair (1, 3) alone. Its
    # sum takes each mu's derivative in turn, the row term at mu = 1 and the
    # column term at mu = 3, all of one size, so a change in their order shows
    # in the last bits of the residual, the largest of these sums.
    grid = odd_grid((9, 7, 6, 5))
    rng = np.random.default_rng(75)
    moved = 0
    for _ in range(10):
        values = np.zeros(grid.shape + (4, 5, 5))
        values[..., 1, 3] = rng.normal(size=grid.shape + (4,))  # M^mu_(13) for every mu
        values[..., 1, 3, 4] = rng.normal(size=grid.shape) * 4.0  # the row term's M^1_(35)
        values[..., 3, 1, 4] = rng.normal(size=grid.shape) * 4.0  # the column term's M^3_(15)
        values -= np.swapaxes(values, -1, -2)
        m = FieldOnGrid(grid, values, basis="O")
        report = conservation_report(m, kappa, scheme)
        got = (report.momentum_residual, report.angular_residual)
        assert got == reference_report(m, kappa, scheme)
        moved += got != reference_report(m, kappa, scheme, terms_last=True)
    assert moved  # the test sees the order


# The report reads each pair's max and min in place of max |div| over a copy
# of the momentum or the angular pairs; the two must agree bit for bit, and
# an all-zero residual must read +0 even where the pairs hold -0.
SPECIAL = st.sampled_from([0.0, -0.0, 0.0, -0.0, 1.5, -1.5, 2.5, -7.0, 5e-324, -5e-324, np.inf, -np.inf, np.nan])
ZERO_PAIRS = {"+0": (0.0, 0.0), "-0": (-0.0, -0.0), "both": (0.0, -0.0)}


def same_float(got, want):
    return type(got) is float and (np.isnan(got) and np.isnan(want) or got == want and np.signbit(got) == np.signbit(want))


@settings(max_examples=200, deadline=None, phases=[p for p in Phase if p is not Phase.explain])
@given(
    st.tuples(st.integers(1, 3), st.integers(1, 3), st.integers(1, 2), st.integers(1, 2)).flatmap(
        lambda shape: st.lists(SPECIAL, min_size=10 * int(np.prod(shape)), max_size=10 * int(np.prod(shape))).map(
            lambda v: np.reshape(v, (10,) + shape)
        )
    ),
    st.lists(st.sampled_from([None, *ZERO_PAIRS]), min_size=10, max_size=10),
)
def test_report_maxima_are_the_max_norm_of_the_pairs(div, zeroed):
    for k, zeros in enumerate(zeroed):  # some pairs all zero, of one sign or of both
        if zeros is not None:
            div[k] = np.where(np.arange(div[k].size).reshape(div[k].shape) % 2, *ZERO_PAIRS[zeros])
    report = ConservationReport.from_divergence(div)
    assert same_float(report.momentum_residual, max_norm(div[MOMENTUM_PAIRS]))
    assert same_float(report.angular_residual, max_norm(div[ANGULAR_PAIRS]))


CURRENT_KERNELS = {
    "moment_to_orthonormal": ("P", lambda m: moment_to_orthonormal(m, 1.0).values),
    "moment_to_parallel": ("O", lambda m: moment_to_parallel(m, 1.0).values),
    "conservation_divergence": ("O", lambda m: conservation_divergence(m, 1.0)),
    "conservation_report": ("P", lambda m: conservation_report(m, 1.0, "central4")),
    "transform_moment_field": ("P", lambda m: transform_moment_field(m, random_boost(np.random.default_rng(77)), 1.0).values),
}


@pytest.mark.parametrize("name", CURRENT_KERNELS)
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_a_current_that_is_not_antisymmetric_is_refused(name, sign):
    # A caller's current is checked once, against input_bound of the whole field:
    # a diagonal entry of half the bound passes, and since the kernels read only
    # the pairs A < B, it changes no bit; the next float above it raises.
    basis, kernel = CURRENT_KERNELS[name]
    grid = odd_grid((5, 5, 5, 1))
    values = antisymmetric_current(np.random.default_rng(76), grid.shape)
    limit = input_bound(values)
    exact = kernel(FieldOnGrid(grid, values, basis=basis))
    near = values.copy()
    near[-1, 2, 0, 0, 3, 2, 2] = sign * limit / 2
    got = kernel(FieldOnGrid(grid, near, basis=basis))
    if isinstance(exact, np.ndarray):
        assert_same_bits(got, exact)
    else:
        assert got == exact
    near[-1, 2, 0, 0, 3, 2, 2] = sign * np.nextafter(limit / 2, 1.0)
    with pytest.raises(NotAntisymmetric, match="must be antisymmetric in its lower index pair: residual"):
        kernel(FieldOnGrid(grid, near, basis=basis))
    off = values.copy()
    off[0, 1, 2, 0, 1, 0, 4] += sign  # M^1_(05) no longer the negative of M^1_(50)
    with pytest.raises(NotAntisymmetric):
        kernel(FieldOnGrid(grid, off, basis=basis))


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


# The three grid kernels hand the upper half of the rows of axis 0 to a worker
# thread when ``forking.can_fork`` allows.  The one-thread run is the
# reference: arrays, residuals and errors must agree bit for bit, and no
# thread may outlive a call, one that raised included.
SPLIT_LENGTHS = (1, 2, 3, 5, 8, 9)


def one_and_two_threads(monkeypatch, call):
    """The outcomes of ``call()`` with the split off and on: its result, or the
    type and text of the error it raised."""
    outcomes = []
    for allowed in (False, True):
        monkeypatch.setattr(forking, "can_fork", lambda allowed=allowed: allowed)
        try:
            outcomes.append(call())
        except (PentavecError, FloatingPointError) as exc:
            outcomes.append((type(exc), str(exc)))
        assert threading.active_count() == 1
    return outcomes


@pytest.mark.parametrize("n0", SPLIT_LENGTHS)
def test_split_rows_give_the_one_thread_bits(monkeypatch, n0):
    grid = odd_grid((n0, 5, 6, 1))
    theta, sigma = smooth_samples(grid, 80 + n0)

    def kernels():
        m = assemble_moment_field(theta, sigma, grid)
        out = [m.values]
        for kappa in (0.0, 0.5, 1.0, -1.0):
            o = moment_to_orthonormal(m, kappa)
            out += [o.values, moment_to_parallel(o, kappa).values]
            for scheme in ("central2", "central4"):
                for field in (m, o):
                    try:
                        report = conservation_report(field, kappa, scheme)
                    except GridTooCoarse as exc:  # axis 0 of 2, 3 or 8 samples is too short for some scheme
                        out.append(str(exc))
                    else:
                        out.append((report.momentum_residual, report.angular_residual))
        return out

    one, two = one_and_two_threads(monkeypatch, kernels)
    assert len(one) == len(two)
    for a, b in zip(one, two):
        if isinstance(a, str):
            assert a == b
        else:
            assert_same_bits(np.asarray(b), np.asarray(a))


@pytest.mark.parametrize("n0", (2, 9))
@pytest.mark.parametrize("bad_rows", ([-1], [0, -1]))
def test_split_rows_raise_the_one_thread_error(monkeypatch, n0, bad_rows):
    grid = odd_grid((n0, 5, 6, 1))
    theta, sigma = smooth_samples(grid, 90)
    sigma[bad_rows, 1, 2, 0, 3, 1, 2] += 1.0  # a symmetric part in the upper half, or in both
    one, two = one_and_two_threads(monkeypatch, lambda: assemble_moment_field(theta, sigma, grid))
    assert one == two == (NotAntisymmetric, "spin current must be antisymmetric in its lower indices")


def test_split_rows_keep_the_callers_errstate(monkeypatch):
    # A plain thread starts outside the caller's errstate; the worker runs in
    # a copy of the caller's context, so an overflow of the upper half raises.
    grid = odd_grid((9, 5, 6, 1))
    theta, sigma = smooth_samples(grid, 91)
    theta[-1] = np.finfo(float).max  # x_alpha Theta^mu_beta overflows at x^0 = 1.7

    def assemble():
        with np.errstate(over="raise"):
            return assemble_moment_field(theta, sigma, grid)

    one, two = one_and_two_threads(monkeypatch, assemble)
    assert one[0] is two[0] is FloatingPointError


# Finiteness is checked where a current is written: the assembly and both
# frame changes check each slab before they write it, the law checks its
# pairs product, and the field they hand over is not scanned again.  Finite
# inputs whose output overflows, and a NaN, raise NotFinite in either half of
# the rows, with and without the worker thread; a spin current that is not
# antisymmetric is still reported first.
HUGE = 1.7e308  # finite, and past the float range once scaled by 1.1
NOT_FINITE = (NotFinite, "field contains non-finite samples")
PRODUCERS = ("assemble_moment_field", "moment_to_orthonormal", "moment_to_parallel", "transform_moment_field")


def producer_call(name, row, fill):
    """A call of producer ``name`` with ``fill`` at a sample of ``row``: HUGE, a finite input
    that overflows there (the law's HUGE is its translation, which overflows at every sample),
    NaN, or a finite value that does not overflow.  On odd_grid((9, 5, 6, 1)) the samples
    [:, :, 0] have x_2 = 1.1."""
    grid = odd_grid((9, 5, 6, 1))
    if name == "assemble_moment_field":
        theta, sigma = smooth_samples(grid, 92)
        theta[row, 2, 0, 0, 0, 0] = fill  # Theta^0_0 meets x_2 in the pair (0, 2)
        return lambda: assemble_moment_field(theta, sigma, grid)
    values = antisymmetric_current(np.random.default_rng(93), grid.shape)
    t = random_boost(np.random.default_rng(94))
    if name == "transform_moment_field" and fill == HUGE:
        t = PoincareTransform(t.lam, [HUGE, 0.0, 0.0, 0.0])  # a_0 meets the mixed pairs in the four-block
    else:  # M^1_(15) meets s_2 = -/+ x_2 in the pair (1, 2)
        values[row, 2, 0, 0, 1, 1, 4], values[row, 2, 0, 0, 1, 4, 1] = fill, -fill
    # A NaN current cannot pass FieldOnGrid's scan; it reaches a kernel only as a current whose scan was skipped.
    current = (FieldOnGrid if np.isfinite(fill) else stress_energy._Current)(grid, values, basis="O" if name == "moment_to_parallel" else "P")
    kernels = {"moment_to_orthonormal": moment_to_orthonormal, "moment_to_parallel": moment_to_parallel,
               "transform_moment_field": lambda m, kappa: transform_moment_field(m, t, kappa)}
    return lambda: kernels[name](current, 1.0)


@pytest.mark.parametrize("name", PRODUCERS)
@pytest.mark.parametrize("row", [0, -1])
@pytest.mark.parametrize("fill", [HUGE, np.nan])
def test_a_producer_raises_not_finite_where_it_writes(monkeypatch, name, row, fill):
    call = producer_call(name, row, fill)
    with np.errstate(over="ignore", invalid="ignore"):
        one, two = one_and_two_threads(monkeypatch, call)
    assert one == two == NOT_FINITE
    fine = producer_call(name, row, 1.0)()  # the same call with a finite sample: no check fires
    assert np.isfinite(fine.values).all() and not fine.values.flags.writeable


@pytest.mark.parametrize("bad_row, huge_row", [(-1, 0), (0, -1)])
def test_a_spin_current_that_is_not_antisymmetric_is_reported_before_an_overflow(monkeypatch, bad_row, huge_row):
    grid = odd_grid((9, 5, 6, 1))
    theta, sigma = smooth_samples(grid, 95)
    sigma[bad_row, 1, 2, 0, 3, 1, 2] = sigma[bad_row, 1, 2, 0, 3, 2, 1] = HUGE  # |Sigma + Sigma^T| overflows
    theta[huge_row, 2, 0, 0, 0, 0] = HUGE  # and so does the orbital moment, in the other half of the rows
    with np.errstate(over="ignore", invalid="ignore"):
        one, two = one_and_two_threads(monkeypatch, lambda: assemble_moment_field(theta, sigma, grid))
    assert one == two == (NotAntisymmetric, "spin current must be antisymmetric in its lower indices")
    sigma[..., 0, 1], sigma[..., 1, 0] = np.nan, -np.nan  # a NaN makes input_bound NaN, which no residual exceeds
    with np.errstate(over="ignore", invalid="ignore"):
        one, two = one_and_two_threads(monkeypatch, lambda: assemble_moment_field(theta, sigma, grid))
    assert one == two == NOT_FINITE


# The conservation suite compares the plane wave's measured divergence with
# its closed form.  The closed form matches the kernels to round-off at every
# grid, scheme and frame, and a fault in the derivative sum shows.
@pytest.mark.parametrize("scheme, n", [("central2", 3), ("central2", 10), ("central4", 5), ("central4", 17)])
@pytest.mark.parametrize("kappa", [0.0, 1.0, -0.5])
def test_plane_wave_divergence_is_the_kernels_to_round_off(scheme, n, kappa):
    grid = wave_grid(n)
    m = assemble_moment_field(*plane_wave_stress_samples(NULL_K, grid), grid)
    for field in (m, moment_to_orthonormal(m, kappa)):
        measured = conservation_divergence(field, kappa, scheme)
        exact = plane_wave_divergence(NULL_K, grid, kappa, scheme, field.basis)
        assert exact.shape == measured.shape
        assert max_norm(measured - exact) <= 1e-15 * (NULL_K @ NULL_K) / grid.spacing[0]
    report = conservation_report(m, kappa, scheme)  # the report's maxima are the field's
    measured = conservation_divergence(m, kappa, scheme)
    assert (report.momentum_residual, report.angular_residual) == (
        max_norm(measured[MOMENTUM_PAIRS]), max_norm(measured[ANGULAR_PAIRS])
    )


def test_plane_wave_divergence_rejects_a_wave_along_a_singleton_axis():
    grid = wave_grid(5)
    with pytest.raises(GridMismatch, match="singleton axis"):
        plane_wave_divergence([np.sqrt(2.0), 1.0, 0.0, 1.0], grid)


@pytest.mark.parametrize("scheme", ["central2", "central4"])
def test_a_scaled_derivative_sum_fails_a_wave_check(monkeypatch, scheme):
    # A uniform scale keeps every residual's order of convergence, so only
    # the exact discrete value can see it.
    options = suites.SuiteOptions(scheme=scheme)
    assert suites.run_suite("conservation", options).passed
    central = stress_energy._central_difference

    def scaled(v, h, name, out):
        central(v, h, name, out)
        out *= 1.01

    monkeypatch.setattr(stress_energy, "_central_difference", scaled)
    failed = [c.name for c in suites.run_suite("conservation", options).checks if not c.passed]
    assert "wave-momentum-exact-P" in failed and "wave-angular-exact-P" in failed


@pytest.mark.parametrize("seed", [1, 42, 1234])
@pytest.mark.parametrize("scheme", ["central2", "central4"])
@pytest.mark.parametrize("grid_n", [2, 3, 4, 5, 6, 9, 17, 33])
def test_the_conservation_suite_passes_or_says_why_at_every_grid(scheme, grid_n, seed):
    options = suites.SuiteOptions(seed=seed, grid_n=grid_n, scheme=scheme)
    try:
        report = suites.run_suite("conservation", options)
    except PentavecError:
        assert grid_n < 2 * scheme_width(scheme) + 1  # an axis too short for the stencil
    else:
        assert report.passed, [c for c in report.checks if not c.passed]
