import numpy as np
import pytest

from pentavec.algebra import is_simple_array, wedge_array
from pentavec.errors import ShapeMismatch, SingularMatrix
from pentavec.numerics import (
    ABS_TOL,
    INPUT_TOL,
    REL_TOL,
    as_array,
    bound,
    input_bound,
    invert,
    matrix_rank,
    max_norm,
)


def test_input_bound_reads_the_largest_magnitude_of_either_sign():
    m = np.array([[[-3.0, 2.0], [0.5, 1.0]], [[0.2, -0.1], [0.3, 0.0]]])
    assert input_bound(m) == INPUT_TOL * 3.0
    assert np.array_equal(input_bound(m, axis=(-2, -1)), INPUT_TOL * np.array([3.0, 1.0]))
    a = np.random.default_rng(5).normal(size=(6, 5, 5)) * np.logspace(-3, 3, 6)[:, None, None]
    expected = INPUT_TOL * np.maximum(np.max(np.abs(a), axis=(-2, -1)), 1.0)
    assert np.array_equal(input_bound(a, axis=(-2, -1)), expected)


def test_tolerance_bound_combines_abs_and_rel():
    assert (REL_TOL, ABS_TOL) == (1e-9, 1e-12)
    assert bound(0.0) == 1e-12
    assert bound(2.0) == pytest.approx(1e-12 + 2e-9)
    assert np.array_equal(bound(np.array([0.0, 2.0])), [bound(0.0), bound(2.0)])


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


# The thresholds sit at REL_TOL: each pair straddles it by one percent or more.
def test_invert_condition_cap_is_one_over_rel_tol():
    invert(np.diag([1.0, 1.0 / 0.99e9]))
    with pytest.raises(SingularMatrix, match="exceeds 1e[+]09"):
        invert(np.diag([1.0, 1.0 / 1.01e9]))


def test_matrix_rank_threshold_is_rel_tol():
    assert matrix_rank(np.diag([1.0, 2e-9])) == 2
    assert matrix_rank(np.diag([1.0, 5e-10])) == 1


def test_simplicity_threshold_is_rel_tol():
    e = np.eye(5)
    e01 = wedge_array(e[0], e[1])
    e23 = wedge_array(e[2], e[3])
    assert is_simple_array(e01 + 1e-10 * e23)
    assert not is_simple_array(e01 + 1e-4 * e23)
