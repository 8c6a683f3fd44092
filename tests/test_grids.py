import numpy as np
import pytest

from pentavec.errors import GridMismatch, GridTooCoarse, NotFinite
from pentavec.grids import (
    FieldOnGrid,
    Grid,
    _central_difference,
    grid_gradient,
    partial_derivative,
    scheme_width,
)


def line_grid(n, h=0.25, origin=-1.0):
    return Grid(origin=(origin, 0.0, 0.0, 0.0), spacing=(h, 1.0, 1.0, 1.0), shape=(n, 1, 1, 1))


def test_grid_validation():
    with pytest.raises(GridMismatch):
        Grid(origin=(0.0,), spacing=(1.0,), shape=(3,))
    with pytest.raises(GridMismatch):
        Grid(origin=(0.0,) * 4, spacing=(1.0, 0.0, 1.0, 1.0), shape=(3,) * 4)
    with pytest.raises(GridMismatch):
        Grid(origin=(0.0,) * 4, spacing=(1.0,) * 4, shape=(3, 0, 3, 3))


def test_grid_coordinates():
    g = Grid(origin=(1.0, 0.0, -1.0, 0.0), spacing=(0.5, 1.0, 2.0, 1.0), shape=(3, 1, 2, 1))
    assert np.array_equal(g.axis_coords(0), [1.0, 1.5, 2.0])
    c = g.coords()
    assert c.shape == (3, 1, 2, 1, 4)
    assert np.array_equal(c[2, 0, 1, 0], [2.0, 0.0, 1.0, 0.0])


def test_interior_slices():
    g = Grid(origin=(0.0,) * 4, spacing=(1.0,) * 4, shape=(7, 1, 5, 1))
    sl = g.interior(2)
    assert sl == (slice(2, 5), slice(None), slice(2, 3), slice(None))
    with pytest.raises(GridTooCoarse):
        g.interior(3)  # the 5-sample axis has no interior at width 3


def test_field_on_grid_validation():
    g = line_grid(4)
    with pytest.raises(GridMismatch):
        FieldOnGrid(g, np.zeros((3, 1, 1, 1)))
    with pytest.raises(ValueError):
        FieldOnGrid(g, np.full((4, 1, 1, 1), np.nan))
    f = FieldOnGrid(g, np.arange(4.0).reshape(4, 1, 1, 1))
    assert f.values[g.interior(1)].shape == (2, 1, 1, 1)
    with pytest.raises(ValueError):
        f.values[0] = 9.0  # stored samples are read-only


def test_field_on_grid_copies_only_what_it_does_not_own():
    g = line_grid(4)
    writable = np.arange(4.0).reshape(4, 1, 1, 1).copy()  # owns its data
    f = FieldOnGrid(g, writable)
    writable[0] = 9.0
    assert f.values[0, 0, 0, 0] == 0.0  # the caller's later write does not reach the field

    base = np.arange(8.0).reshape(8, 1, 1, 1)
    view = base[::2]
    view.setflags(write=False)
    f = FieldOnGrid(g, view)
    assert f.values is not view
    base[0] = 9.0
    assert f.values[0, 0, 0, 0] == 0.0  # a read-only view can still change through its base

    frozen = np.arange(4.0).reshape(4, 1, 1, 1).copy()
    frozen.setflags(write=False)
    assert FieldOnGrid(g, frozen).values is frozen  # an owned, frozen array is adopted

    bad = np.array([0.0, np.nan, 1.0, 2.0]).reshape(4, 1, 1, 1).copy()
    bad.setflags(write=False)
    with pytest.raises(NotFinite):
        FieldOnGrid(g, bad)  # adopted arrays are still checked


def test_scheme_width():
    assert scheme_width("central2") == 1
    assert scheme_width("central4") == 2
    with pytest.raises(ValueError):
        scheme_width("upwind")


def reference_derivative(v, h, scheme):
    """The hand-written central2 and central4 formulas that the stencil table replaced."""
    out = np.empty_like(v)
    if scheme == "central2":
        out[1:-1] = (v[2:] - v[:-2]) / (2.0 * h)
        out[0] = (-3.0 * v[0] + 4.0 * v[1] - v[2]) / (2.0 * h)
        out[-1] = (3.0 * v[-1] - 4.0 * v[-2] + v[-3]) / (2.0 * h)
    else:
        out[2:-2] = (v[:-4] - 8.0 * v[1:-3] + 8.0 * v[3:-1] - v[4:]) / (12.0 * h)
        out[0] = (-25.0 * v[0] + 48.0 * v[1] - 36.0 * v[2] + 16.0 * v[3] - 3.0 * v[4]) / (12.0 * h)
        out[1] = (-3.0 * v[0] - 10.0 * v[1] + 18.0 * v[2] - 6.0 * v[3] + v[4]) / (12.0 * h)
        out[-1] = (25.0 * v[-1] - 48.0 * v[-2] + 36.0 * v[-3] - 16.0 * v[-4] + 3.0 * v[-5]) / (12.0 * h)
        out[-2] = (3.0 * v[-1] + 10.0 * v[-2] - 18.0 * v[-3] + 6.0 * v[-4] - v[-5]) / (12.0 * h)
    return out


@pytest.mark.parametrize("scheme, n", [("central2", 3), ("central2", 17), ("central4", 5), ("central4", 17)])
def test_stencil_table_matches_reference_formulas(scheme, n):
    rng = np.random.default_rng(n)
    shape = (n, 3, 1, 2, 5)
    v = rng.normal(size=shape) * 10.0 ** rng.integers(-12, 12, size=shape)  # mixed magnitudes
    v[rng.random(shape) < 0.2] = 0.0
    g = Grid(origin=(0.0,) * 4, spacing=(0.3, 1.0, 1.0, 1.0), shape=shape[:4])
    got, want = partial_derivative(v, g, 0, scheme), reference_derivative(v, 0.3, scheme)
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))  # signed zeros too


@pytest.mark.parametrize("scheme", ["central2", "central4"])
@pytest.mark.parametrize("shape", [(5, 7, 9, 1), (9, 1, 6, 5)])
def test_central_difference_is_the_interior_of_partial_derivative(scheme, shape):
    # the interior-only derivative behind conservation_report shares the
    # central row with partial_derivative and gives its interior bit for bit
    rng = np.random.default_rng(sum(shape))
    v = rng.normal(size=shape + (3,)) * 10.0 ** rng.integers(-6, 6, size=shape + (3,))
    g = Grid(origin=(0.0,) * 4, spacing=(0.3, 0.25, 0.2, 0.35), shape=shape)
    width = scheme_width(scheme)
    for axis in range(4):
        if shape[axis] == 1:
            continue
        want = np.moveaxis(partial_derivative(v, g, axis, scheme), axis, 0)[width:-width]
        got = np.empty_like(want)
        _central_difference(np.moveaxis(v, axis, 0), g.spacing[axis], scheme, got)
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))


def test_central2_exact_on_quadratics():
    g = line_grid(9)
    x = g.axis_coords(0).reshape(9, 1, 1, 1)
    f = 2.0 * x**2 - 3.0 * x + 1.0
    d = partial_derivative(f, g, 0, "central2")
    assert np.allclose(d, 4.0 * x - 3.0, atol=1e-13)


def test_central4_exact_on_quartics():
    g = line_grid(9)
    x = g.axis_coords(0).reshape(9, 1, 1, 1)
    f = x**4 - 2.0 * x**3 + x
    d = partial_derivative(f, g, 0, "central4")
    assert np.allclose(d, 4.0 * x**3 - 6.0 * x**2 + 1.0, atol=1e-12)


def test_singleton_axes_differentiate_to_zero():
    g = line_grid(5)
    f = np.ones((5, 1, 1, 1))
    for axis in (1, 2, 3):
        assert np.array_equal(partial_derivative(f, g, axis), np.zeros_like(f))


def test_too_coarse_axes_raise():
    with pytest.raises(GridTooCoarse):
        partial_derivative(np.zeros((2, 1, 1, 1)), line_grid(2), 0, "central2")
    with pytest.raises(GridTooCoarse):
        partial_derivative(np.zeros((4, 1, 1, 1)), line_grid(4), 0, "central4")


def test_shape_mismatch_raises():
    with pytest.raises(GridMismatch):
        partial_derivative(np.zeros((6, 1, 1, 1)), line_grid(5), 0)


def measured_order(scheme):
    errors = []
    for n in (17, 33):
        h = 1.6 / (n - 1)
        g = line_grid(n, h=h, origin=0.0)
        x = g.axis_coords(0).reshape(n, 1, 1, 1)
        d = partial_derivative(np.sin(x), g, 0, scheme)
        errors.append(np.max(np.abs(d - np.cos(x))))
    return np.log2(errors[0] / errors[1])


def test_scheme_convergence_orders():
    assert measured_order("central2") == pytest.approx(2.0, abs=0.2)
    assert measured_order("central4") == pytest.approx(4.0, abs=0.4)


def test_grid_gradient_stacks_partials():
    g = Grid(origin=(0.0,) * 4, spacing=(0.5, 0.5, 1.0, 1.0), shape=(5, 5, 1, 1))
    c = g.coords()
    f = c[..., 0] * c[..., 1]
    grad = grid_gradient(f, g)
    assert grad.shape == f.shape + (4,)
    for axis in range(4):
        assert np.array_equal(grad[..., axis], partial_derivative(f, g, axis))
    assert np.allclose(grad[..., 0], c[..., 1], atol=1e-13)
    assert np.array_equal(grad[..., 2], np.zeros_like(f))
