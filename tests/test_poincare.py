import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from pentavec.algebra import ETA4
from pentavec.connection import flat_coefficients
from pentavec.errors import NotAntisymmetric, ShapeMismatch
from pentavec.poincare import (
    PoincareTransform,
    build_generator_tensor,
    build_param_tensor,
    coordinate_form,
    coordinate_form_derivative,
    homogeneous_rep,
    transform_generator_tensor,
    transform_param_tensor,
    transform_parallel,
    transform_parallel_form,
)
from pentavec.suites import random_poincare

KAPPA = 0.8


def random_lorentz(rng, scale=0.35):
    a = rng.normal(size=(4, 4)) * scale
    return expm(ETA4 @ (a - a.T))


def random_transform(rng):
    return PoincareTransform(random_lorentz(rng), rng.normal(size=4))


def test_lorentz_validation():
    with pytest.raises(ValueError):
        PoincareTransform(np.eye(4) * 2.0, np.zeros(4))
    with pytest.raises(ShapeMismatch):
        PoincareTransform(np.eye(3), np.zeros(4))


def test_group_operations():
    rng = np.random.default_rng(40)
    x = rng.normal(size=4)
    for _ in range(20):
        t1, t2 = random_transform(rng), random_transform(rng)
        assert np.allclose(t1.compose(t2).apply(x), t1.apply(t2.apply(x)), atol=1e-12)
        round_trip = t1.compose(t1.inverse())
        assert np.allclose(round_trip.lam, np.eye(4), atol=1e-12)
        assert np.allclose(round_trip.a, np.zeros(4), atol=1e-12)
    ident = PoincareTransform(np.eye(4), np.zeros(4))
    assert np.array_equal(ident.apply(x), x)


def test_homogeneous_rep_structure_and_invariants():
    rng = np.random.default_rng(41)
    for _ in range(20):
        t = random_transform(rng)
        rep = homogeneous_rep(t, KAPPA)
        assert np.allclose(rep[:4, :4] @ t.lam, np.eye(4), atol=1e-12)
        assert np.array_equal(rep[:4, 4], np.zeros(4))  # five-row never leaks
        assert rep[4, 4] == 1.0
        assert np.allclose(rep[4, :4], KAPPA * ETA4 @ t.a, atol=1e-15)


def test_homogeneous_rep_reverses_composition():
    rng = np.random.default_rng(42)
    for _ in range(20):
        t1, t2 = random_transform(rng), random_transform(rng)
        lhs = homogeneous_rep(t1.compose(t2), KAPPA)
        rhs = homogeneous_rep(t2, KAPPA) @ homogeneous_rep(t1, KAPPA)
        assert np.allclose(lhs, rhs, atol=1e-12)


def test_homogeneous_rep_carries_coordinate_quintuples():
    rng = np.random.default_rng(43)
    for _ in range(50):
        t = random_transform(rng)
        x = rng.normal(size=4)
        quintuple = np.append(ETA4 @ x, 1.0 / KAPPA)
        moved = quintuple @ homogeneous_rep(t, KAPPA)
        expected = np.append(ETA4 @ t.apply(x), 1.0 / KAPPA)
        assert np.allclose(moved, expected, atol=1e-12)


def test_orthonormal_law():
    # the parallel laws at kappa = 0: the four-block rotates, the fifth component stays
    rng = np.random.default_rng(44)
    t = random_transform(rng)
    v = rng.normal(size=5)
    w = rng.normal(size=5)
    vt = transform_parallel(v, t, 0.0)
    wt = transform_parallel_form(w, t, 0.0)
    assert np.allclose(vt[:4], t.lam @ v[:4], atol=1e-14)
    assert np.allclose(wt[:4], w[:4] @ np.linalg.inv(t.lam), atol=1e-14)
    assert vt[4] == v[4]
    assert wt[4] == w[4]
    assert wt @ vt == pytest.approx(w @ v, abs=1e-12)
    for law in (transform_parallel, transform_parallel_form):
        with pytest.raises(ShapeMismatch):
            law(np.zeros(4), t, 0.0)


def test_parallel_law_reduces_at_zero_translation():
    rng = np.random.default_rng(45)
    t = PoincareTransform(random_lorentz(rng), np.zeros(4))
    v = rng.normal(size=5)
    w = rng.normal(size=5)
    assert np.array_equal(transform_parallel(v, t, KAPPA), transform_parallel(v, t, 0.0))
    assert np.array_equal(transform_parallel_form(w, t, KAPPA), transform_parallel_form(w, t, 0.0))


def test_parallel_law_matches_homogeneous_rep():
    # dual route: covariant components ride along rows of the 5x5
    # representation, contravariant ones with its inverse
    rng = np.random.default_rng(46)
    for _ in range(50):
        t = random_transform(rng)
        v = rng.normal(size=5)
        w = rng.normal(size=5)
        rep = homogeneous_rep(t, KAPPA)
        assert np.allclose(transform_parallel_form(w, t, KAPPA), w @ rep, atol=1e-12)
        assert np.allclose(transform_parallel(v, t, KAPPA), np.linalg.solve(rep, v), atol=1e-12)


@settings(max_examples=25, deadline=None, phases=[p for p in Phase if p is not Phase.explain])
@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from([(), (3,), (2, 3)]),
    st.one_of(st.just(0.0), st.floats(-1e3, 1e3)),
)
def test_parallel_law_preserves_pairing(seed, shape, kappa):
    # w_A v^A is a scalar: the form and vector laws move it by round-off only, at every kappa
    rng = np.random.default_rng(seed)
    t = random_poincare(rng, shape)
    v, w = rng.normal(size=(2,) + shape + (5,))
    vt = transform_parallel(v, t, kappa)
    wt = transform_parallel_form(w, t, kappa)
    scale = np.maximum(np.sum(np.abs(wt * vt), axis=-1), np.sum(np.abs(w * v), axis=-1))
    assert np.all(np.abs(np.sum(wt * vt, axis=-1) - np.sum(w * v, axis=-1)) <= 1e-14 * np.maximum(scale, 1.0))


def test_chart_relation_connects_coordinates():
    # a chart is the transform that reaches it from the reference chart
    rng = np.random.default_rng(48)
    for _ in range(20):
        c1, c2 = random_transform(rng), random_transform(rng)
        t = c2.compose(c1.inverse())
        r = rng.normal(size=4)  # reference coordinates of a physical point
        assert np.allclose(t.apply(c1.apply(r)), c2.apply(r), atol=1e-12)
    ref = PoincareTransform(np.eye(4), np.zeros(4))
    t = ref.compose(ref.inverse())
    assert np.allclose(t.lam, np.eye(4), atol=1e-15)
    assert np.array_equal(t.a, np.zeros(4))


def test_coordinate_form_components():
    x = np.array([1.0, -2.0, 0.5, 3.0])
    p_dual, o_dual = coordinate_form(x, KAPPA)
    assert np.array_equal(p_dual, np.append(ETA4 @ x, 1.0))
    assert np.array_equal(o_dual, np.array([0.0, 0.0, 0.0, 0.0, 1.0]))
    # degenerate transport constant: no chart-invariant completion exists
    p_dual, o_dual = coordinate_form(x, 0.0)
    assert np.array_equal(o_dual, p_dual)


def test_coordinate_form_is_chart_covariant():
    rng = np.random.default_rng(49)
    for _ in range(30):
        c1, c2 = random_transform(rng), random_transform(rng)  # charts, reached from the reference
        t = c2.compose(c1.inverse())
        x1 = rng.normal(size=4)
        moved = transform_parallel_form(coordinate_form(x1, KAPPA)[0], t, 1.0)
        expected = coordinate_form(t.apply(x1), KAPPA)[0]
        assert np.allclose(moved, expected, atol=1e-10)


def test_coordinate_form_derivative_two_routes():
    d = coordinate_form_derivative()
    assert np.array_equal(d[:, :4], ETA4)
    assert np.array_equal(d[:, 4], np.zeros(4))
    # orthonormal-frame route: the covariant derivative of the constant
    # fifth dual form picks up -G^5_(A mu) from the transport coefficients
    flat = flat_coefficients(1.0).values
    for mu in range(4):
        assert np.array_equal(d[mu], -flat[4, :, mu])


def test_param_tensor_structure():
    pt = build_param_tensor(np.diag([1.0, 2.0, 3.0, 4.0]), [5.0, 6.0, 7.0, 8.0])
    assert np.array_equal(pt[:4, :4], np.diag([1.0, 2.0, 3.0, 4.0]))
    assert np.array_equal(pt[4, :4], [5.0, 6.0, 7.0, 8.0])
    assert np.array_equal(pt[:4, 4], np.zeros(4))
    assert pt[4, 4] == 1.0
    # the law checks its input: a zero fifth column and a unit corner
    for entry, value in (((0, 4), 1.0), ((4, 4), 2.0)):
        bad = np.eye(5)
        bad[entry] = value
        with pytest.raises(ShapeMismatch, match="zero fifth column and unit corner"):
            transform_param_tensor(bad, PoincareTransform(np.eye(4), np.zeros(4)))


def test_param_tensor_law_is_conjugation():
    rng = np.random.default_rng(50)
    for _ in range(30):
        t = random_transform(rng)
        pt = build_param_tensor(rng.normal(size=(4, 4)), rng.normal(size=4))
        blockwise = transform_param_tensor(pt, t)
        rep = homogeneous_rep(t, 1.0)
        route = np.linalg.solve(rep, pt @ rep)
        assert np.allclose(blockwise, route, atol=1e-11)


def test_identity_params_are_chart_independent():
    rng = np.random.default_rng(51)
    pt = build_param_tensor(np.eye(4), np.zeros(4))
    for _ in range(10):
        t = random_transform(rng)
        moved = transform_param_tensor(pt, t)
        assert np.allclose(moved, pt, atol=1e-12)


def test_generator_tensor_structure():
    omega = np.array([[0.0, 1.0, 0.0, 0.0], [-1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 2.0], [0.0, 0.0, -2.0, 0.0]])
    b = np.array([1.0, 2.0, 3.0, 4.0])
    gt = build_generator_tensor(omega, b)
    assert np.array_equal(gt[:4, :4], omega)
    assert np.array_equal(gt[:4, 4], b)
    assert np.array_equal(gt, -gt.T)
    with pytest.raises(NotAntisymmetric, match="generator tensor must be antisymmetric"):
        transform_generator_tensor(np.eye(5), PoincareTransform(np.eye(4), np.zeros(4)))


def test_generator_tensor_law_is_conjugation():
    rng = np.random.default_rng(52)
    for _ in range(30):
        t = random_transform(rng)
        omega = rng.normal(size=(4, 4))
        gt = build_generator_tensor(omega - omega.T, rng.normal(size=4))
        blockwise = transform_generator_tensor(gt, t)
        rep_inv = np.linalg.inv(homogeneous_rep(t, 1.0))
        route = rep_inv @ gt @ rep_inv.T
        assert np.allclose(blockwise, route, atol=1e-11)


def test_generator_translation_rotates_without_omega():
    rng = np.random.default_rng(53)
    b = rng.normal(size=4)
    gt = build_generator_tensor(np.zeros((4, 4)), b)
    t = random_transform(rng)
    moved = transform_generator_tensor(gt, t)
    assert np.allclose(moved[:4, 4], t.lam @ b, atol=1e-13)
    assert np.allclose(moved[:4, :4], np.zeros((4, 4)), atol=1e-15)
