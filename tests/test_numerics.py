import numpy as np
import pytest

from pentavec.errors import ShapeMismatch, SingularMatrix
from pentavec.numerics import (
    DEFAULT_TOL,
    Tolerance,
    approx_eq,
    as_array,
    invert,
    matrix_rank,
    max_norm,
)


def test_tolerance_bound_combines_abs_and_rel():
    tol = Tolerance(rel=1e-6, abs=1e-9)
    assert tol.bound(0.0) == 1e-9
    assert tol.bound(2.0) == pytest.approx(1e-9 + 2e-6)


@pytest.mark.parametrize("rel,abs_", [(0.0, 1e-12), (1e-9, 0.0), (-1.0, 1.0)])
def test_tolerance_rejects_nonpositive_parts(rel, abs_):
    with pytest.raises(ValueError):
        Tolerance(rel=rel, abs=abs_)


def test_as_array_checks_shape_and_finiteness():
    out = as_array([1.0, 2.0], shape=(2,))
    assert not out.flags.writeable
    with pytest.raises(ShapeMismatch):
        as_array([1.0, 2.0, 3.0], shape=(2,))
    with pytest.raises(ValueError):
        as_array([1.0, np.nan], shape=(2,))


def test_as_array_copies_input():
    src = np.array([1.0, 2.0])
    out = as_array(src, shape=(2,))
    src[0] = 99.0
    assert out[0] == 1.0


def test_max_norm_empty_is_zero():
    assert max_norm(np.zeros((0, 3))) == 0.0


def test_approx_eq_uses_max_norm():
    assert approx_eq([1.0, 2.0], [1.0, 2.0 + 1e-13])
    assert not approx_eq([1.0, 2.0], [1.0, 2.1])
    with pytest.raises(ShapeMismatch):
        approx_eq([1.0], [1.0, 2.0])


def test_invert_round_trip_identity():
    assert np.array_equal(invert(np.eye(5)), np.eye(5))


def test_invert_random_well_conditioned():
    rng = np.random.default_rng(3)
    for _ in range(20):
        m = rng.normal(size=(5, 5))
        if np.linalg.cond(m) > 50:
            continue
        resid = max_norm(m @ invert(m) - np.eye(5))
        assert resid < 1e-12


def test_invert_rejects_singular():
    m = np.ones((3, 3))
    with pytest.raises(SingularMatrix):
        invert(m)
    with pytest.raises(ShapeMismatch):
        invert(np.ones((2, 3)))


def test_matrix_rank_thresholded():
    assert matrix_rank(np.eye(4)) == 4
    assert matrix_rank(np.zeros((3, 3))) == 0
    m = np.diag([1.0, 1e-3, 1e-15])
    assert matrix_rank(m) == 2
    assert matrix_rank(m, Tolerance(rel=1e-18, abs=1e-30)) == 3
    assert DEFAULT_TOL.rel == 1e-9
