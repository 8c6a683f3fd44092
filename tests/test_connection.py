import re

import numpy as np
import pytest

from pentavec.algebra import ETA4, ETA5, lower_array
from pentavec.bases import classify_basis
from pentavec.connection import (
    ConnectionCoeffs,
    covariant_derivative,
    coordinates_from_parallel_metric,
    flat_coefficients,
    metric_derivative_report,
    metric_transport_identity_residual,
    parallel_frame_change,
    parallel_frame_metric,
    transform_connection_field,
    transport,
    transport_compatibility,
)
from pentavec.errors import GridMismatch, NotDirectional, NotFinite, ShapeMismatch, SingularMatrix
from pentavec.grids import FieldOnGrid, Grid
from pentavec.numerics import bound

KAPPA = 0.7


def cube_grid(n=5, h=0.25):
    half = 0.5 * h * (n - 1)
    return Grid(origin=(-half,) * 4, spacing=(h,) * 4, shape=(n,) * 4)


def test_flat_coefficients_structure():
    g = flat_coefficients(KAPPA).values
    for beta in range(4):
        for mu in range(4):
            assert g[4, beta, mu] == -KAPPA * ETA4[beta, mu]
    mask = np.ones((5, 5, 4), dtype=bool)
    mask[4, :4, :] = False
    assert np.array_equal(g[mask], np.zeros(mask.sum()))
    assert np.array_equal(flat_coefficients(0.0).values, np.zeros((5, 5, 4)))


def test_flat_coefficients_are_standard_compatible():
    assert transport_compatibility(flat_coefficients(KAPPA), np.zeros((4, 4, 4))) == (0.0, 0.0)
    bad = np.zeros((5, 5, 4))
    bad[0, 4, 0] = 1.0  # transport tips the fifth vector into the four-space
    standard, _ = transport_compatibility(ConnectionCoeffs(bad), np.zeros((4, 4, 4)))
    assert standard == 1.0
    assert standard > bound(1.0)  # fails the standard-frame constraint


def test_parallel_frame_change_matrix():
    assert np.array_equal(parallel_frame_change(np.zeros(4), KAPPA), np.eye(5))
    x = np.array([2.0, 1.0, -1.0, 3.0])
    assert np.array_equal(parallel_frame_change(x, 0.0), np.eye(5))
    n = parallel_frame_change(x, KAPPA)
    assert np.array_equal(n[4, :4], KAPPA * lower_array(x))
    assert np.array_equal(n[:4, :], np.eye(5)[:4, :])


def test_parallel_frame_metric_two_routes():
    rng = np.random.default_rng(30)
    for _ in range(20):
        x = rng.normal(size=4)
        n = parallel_frame_change(x, KAPPA)
        assert np.allclose(n.T @ ETA5 @ n, parallel_frame_metric(x, KAPPA), atol=1e-14)


def test_parallel_frame_is_standard_but_not_regular():
    x = np.array([1.0, 0.5, 0.0, -2.0])
    flags = classify_basis(parallel_frame_change(x, KAPPA))
    assert flags.standard and not flags.regular
    flags0 = classify_basis(parallel_frame_change(np.zeros(4), KAPPA))
    assert flags0.orthonormal and flags0.regular


def test_coordinate_recovery_from_metric():
    x = np.array([0.3, -1.2, 2.0, 0.7])
    h = parallel_frame_metric(x, KAPPA)
    assert np.allclose(coordinates_from_parallel_metric(h, KAPPA), x, atol=1e-13)
    with pytest.raises(ZeroDivisionError):
        coordinates_from_parallel_metric(h, 0.0)


# A constant change field with integer entries: both stencils give an exactly
# zero derivative, so only the conjugation term L^-1 G L Lambda survives.

def test_transform_connection_single_entry():
    grid = cube_grid(5)
    g = np.zeros((5, 5, 4))
    g[0, 1, 0] = 1.0
    change = np.broadcast_to(np.diag([2.0, 3.0, 1.0, 1.0, 1.0]), grid.shape + (5, 5))
    expected = np.zeros((5, 5, 4))
    expected[0, 1, 0] = 1.5  # (1/2) * 1 * 3 * 1
    for scheme in ("central2", "central4"):
        out = transform_connection_field(ConnectionCoeffs(g), change, np.diag([1.0, 2.0, 1.0, 1.0]), grid, scheme)
        assert np.array_equal(out, np.broadcast_to(expected, out.shape))


def test_transform_connection_identity():
    grid = cube_grid(5)
    g = flat_coefficients(KAPPA)
    change = np.broadcast_to(np.eye(5), grid.shape + (5, 5))
    for scheme in ("central2", "central4"):
        out = transform_connection_field(g, change, np.eye(4), grid, scheme)
        assert np.allclose(out, np.broadcast_to(g.values, out.shape), atol=1e-15)


def o_to_p_field(grid, kappa):
    coords = grid.coords()
    field = np.zeros(grid.shape + (5, 5))
    field[...] = np.eye(5)
    field[..., 4, :4] = kappa * np.einsum("ab,...b->...a", ETA4, coords)
    return field


def test_parallel_frame_coefficients_vanish():
    grid = cube_grid(5)
    field = o_to_p_field(grid, KAPPA)
    out = transform_connection_field(flat_coefficients(KAPPA), field, np.eye(4), grid)
    assert np.max(np.abs(out)) <= 1e-12


def test_inverse_change_recovers_flat_coefficients():
    # starting from the vanishing parallel coefficients, changing back with
    # the inverse frame field must reproduce the orthonormal coefficients
    grid = cube_grid(5)
    field = np.linalg.inv(o_to_p_field(grid, KAPPA))
    out = transform_connection_field(ConnectionCoeffs(np.zeros((5, 5, 4))), field, np.eye(4), grid)
    expected = np.broadcast_to(flat_coefficients(KAPPA).values, grid.shape + (5, 5, 4))
    assert np.max(np.abs(out - expected)) <= 1e-12


def test_transform_connection_field_guards():
    grid = cube_grid(5)
    with pytest.raises(GridMismatch):
        transform_connection_field(
            flat_coefficients(KAPPA), np.zeros(grid.shape + (4, 4)), np.eye(4), grid
        )


def test_transform_connection_field_takes_bare_coefficients():
    grid = cube_grid(5)
    field = np.linalg.inv(o_to_p_field(grid, KAPPA))
    wrapped = transform_connection_field(flat_coefficients(KAPPA), field, np.eye(4), grid)
    bare = transform_connection_field(flat_coefficients(KAPPA).values, field, np.eye(4), grid)
    assert bare.tobytes() == wrapped.tobytes()
    with pytest.raises(ShapeMismatch):
        transform_connection_field(np.zeros((5, 5, 3)), field, np.eye(4), grid)


@pytest.mark.parametrize(
    "entry, error, fragment",
    [
        pytest.param(0.0, SingularMatrix, "singular sample (element (1, 0, 0, 0))", id="zero-diagonal"),
        pytest.param(np.nan, NotFinite, "non-finite sample (element (1, 0, 0, 0))", id="nan-entry"),
    ],
)
def test_transform_connection_field_rejects_bad_samples(entry, error, fragment):
    # one bad diagonal entry at the middle sample of a three-sample line
    grid = Grid(origin=(0.0,) * 4, spacing=(0.5, 1.0, 1.0, 1.0), shape=(3, 1, 1, 1))
    field = np.tile(np.eye(5), grid.shape + (1, 1))
    field[1, 0, 0, 0, 2, 2] = entry
    with pytest.raises(error, match=re.escape(fragment)):
        transform_connection_field(flat_coefficients(KAPPA), field, np.eye(4), grid)


def rk4_transport(components, from_x, to_x, kappa, steps=256):
    """Independent route: integrate the transport equation along the line."""
    g = flat_coefficients(kappa).values
    dx = (np.asarray(to_x, dtype=float) - np.asarray(from_x, dtype=float)) / steps

    def rate(u):
        return -np.einsum("abm,b,m->a", g, u, dx)

    u = np.array(components, dtype=float)
    for _ in range(steps):
        k1 = rate(u)
        k2 = rate(u + 0.5 * k1)
        k3 = rate(u + 0.5 * k2)
        k4 = rate(u + k3)
        u = u + (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0
    return u


def test_transport_matches_integrated_equation():
    rng = np.random.default_rng(31)
    for _ in range(10):
        u = rng.normal(size=5)
        a, b = rng.normal(size=(2, 4))
        got = transport(u, a, b, KAPPA)
        assert np.allclose(got, rk4_transport(u, a, b, KAPPA), atol=1e-9)


def test_transport_time_axis_tips_into_fifth():
    got = transport([1.0, 0.0, 0.0, 0.0, 0.0], np.zeros(4), [2.0, 0.0, 0.0, 0.0], 0.5)
    assert np.array_equal(got, [1.0, 0.0, 0.0, 0.0, 1.0])


def test_transport_path_independence_and_inverse():
    rng = np.random.default_rng(32)
    u = rng.normal(size=5)
    a, b, c = rng.normal(size=(3, 4))
    direct = transport(u, a, b, KAPPA)
    via_c = transport(transport(u, a, c, KAPPA), c, b, KAPPA)
    assert np.allclose(direct, via_c, atol=1e-12)
    back = transport(direct, b, a, KAPPA)
    assert np.allclose(back, u, atol=1e-12)


def test_transport_shifts_only_the_fifth_component():
    # the four-block of the frame change is the identity, so transport
    # leaves the first four components alone and adds the lowered
    # displacement (times kappa) contracted into them
    rng = np.random.default_rng(33)
    u, v = rng.normal(size=(2, 5))
    a, b = rng.normal(size=(2, 4))
    ut = transport(u, a, b, KAPPA)
    assert np.allclose(ut[:4], u[:4], atol=1e-14)
    shift = KAPPA * lower_array(b - a) @ u[:4]
    assert ut[4] == pytest.approx(u[4] + shift, abs=1e-12)
    # the five-metric pairing is deliberately not preserved: its covariant
    # derivative has the nonzero mixed row checked elsewhere
    vt = transport(v, a, b, KAPPA)
    assert abs(ut @ ETA5 @ vt - u @ ETA5 @ v) > 1e-3


def test_covariant_derivative_constant_field():
    grid = cube_grid(5)
    values = np.zeros(grid.shape + (5,))
    values[..., 0] = 1.0
    out = covariant_derivative(FieldOnGrid(grid, values, basis="O"), flat_coefficients(KAPPA))
    expected = np.zeros(grid.shape + (5, 4))
    expected[..., 4, 0] = -KAPPA  # G^5_(0 0) = -kappa eta_00
    assert np.array_equal(out.values, expected)
    assert out.basis == "O"


def test_covariant_derivative_p_frame_constants():
    grid = cube_grid(5)
    values = np.broadcast_to(np.arange(1.0, 6.0), grid.shape + (5,))
    out = covariant_derivative(
        FieldOnGrid(grid, values, basis="P"), ConnectionCoeffs(np.zeros((5, 5, 4)))
    )
    assert np.array_equal(out.values, np.zeros(grid.shape + (5, 4)))


def test_covariant_derivative_linear_field():
    grid = cube_grid(5)
    coords = grid.coords()
    c = np.array([1.0, -2.0, 0.5, 3.0, 1.5])
    f = coords[..., 0] + 2.0 * coords[..., 1]
    values = f[..., None] * c
    out = covariant_derivative(FieldOnGrid(grid, values), flat_coefficients(KAPPA))
    gc = np.einsum("abm,b->am", flat_coefficients(KAPPA).values, c)
    df = np.zeros(grid.shape + (4,))
    df[..., 0] = 1.0
    df[..., 1] = 2.0
    expected = np.einsum("a,...m->...am", c, df) + np.einsum("am,...->...am", gc, f)
    assert np.allclose(out.values, expected, atol=1e-12)
    with pytest.raises(ShapeMismatch):
        covariant_derivative(FieldOnGrid(grid, np.zeros(grid.shape + (4,))), flat_coefficients(KAPPA))


def test_metric_derivative_report_orthonormal():
    grid = cube_grid(5)
    assert metric_derivative_report(flat_coefficients(KAPPA), ETA5, KAPPA, grid) == 0.0


def test_metric_derivative_report_parallel():
    grid = cube_grid(5)
    coords = grid.coords()
    h_field = np.array([parallel_frame_metric(x, KAPPA) for x in coords.reshape(-1, 4)])
    h_field = h_field.reshape(grid.shape + (5, 5))
    assert metric_derivative_report(np.zeros((5, 5, 4)), h_field, KAPPA, grid) <= 1e-10


def test_metric_derivative_report_kappa_zero():
    grid = cube_grid(5)
    assert metric_derivative_report(flat_coefficients(0.0), ETA5, 0.0, grid) == 0.0
    with pytest.raises(GridMismatch):
        metric_derivative_report(flat_coefficients(0.0), np.eye(4), 0.0, grid)


def poly_fields(grid, seed):
    rng = np.random.default_rng(seed)
    coords = grid.coords()
    out = []
    for _ in range(2):
        lin = np.einsum("...m,am->...a", coords, rng.normal(size=(5, 4)))
        quad = np.einsum("...m,...n,amn->...a", coords, coords, rng.normal(size=(5, 4, 4)))
        out.append(rng.normal(size=5) + lin + 0.5 * quad)
    return out


def test_metric_identity_holds_in_flat_frame():
    grid = cube_grid(3)
    v, w = poly_fields(grid, 34)
    resid = metric_transport_identity_residual(
        [0.3, -1.0, 0.4, 2.0], v, w, 1.4 * np.eye(5)[:, 4], flat_coefficients(KAPPA), KAPPA
    )
    assert resid <= 1e-9
    resid0 = metric_transport_identity_residual(
        [0.3, -1.0, 0.4, 2.0], v, w, np.eye(5)[:, 4], flat_coefficients(0.0), 0.0
    )
    assert resid0 == 0.0


def test_metric_identity_scales_quadratically_in_e():
    # a deliberately wrong connection gives a nonzero residual, which must
    # scale with |e|^2 since both sides are quadratic in e
    grid = cube_grid(3)
    v, w = poly_fields(grid, 35)
    broken = flat_coefficients(KAPPA).values.copy()
    broken[4, 0, 1] += 0.25
    u = [1.0, 0.2, -0.4, 0.9]
    e = np.eye(5)[:, 4]
    r1 = metric_transport_identity_residual(u, v, w, e, ConnectionCoeffs(broken), KAPPA)
    r3 = metric_transport_identity_residual(u, v, w, 3.0 * e, ConnectionCoeffs(broken), KAPPA)
    assert r1 > 1e-3
    assert r3 == pytest.approx(9.0 * r1, rel=1e-9)


def test_metric_identity_input_guards():
    grid = cube_grid(3)
    v, w = poly_fields(grid, 36)
    with pytest.raises(NotDirectional):
        metric_transport_identity_residual(
            [1.0, 0.0, 0.0, 0.0], v, w, np.eye(5)[:, 1], flat_coefficients(KAPPA), KAPPA
        )
    other = np.zeros((4, 4, 4, 4, 5))
    with pytest.raises(ShapeMismatch):
        metric_transport_identity_residual(
            [1.0, 0.0, 0.0, 0.0], v, other, np.eye(5)[:, 4], flat_coefficients(KAPPA), KAPPA
        )
