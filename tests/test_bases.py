import numpy as np
import pytest

from pentavec.algebra import (
    ETA4,
    ETA5,
    four_from_bivector,
    wedge,
)
from pentavec.bases import (
    classify_basis,
    compose_upm,
    decompose_upm,
    induced_four_map,
    is_standard_change,
    m_transformation,
    orientation_sign,
    orthonormal_basis_for,
    p_transformation,
    regular_basis_for,
    u_transformation,
)
from pentavec.errors import (
    DegenerateInducedMetric,
    NoCommonDirection,
    NotFinite,
    NotOrthonormalInput,
    NotStandard,
    SingularBlock,
)

E = np.eye(5)


def reference_wedges():
    return wedge(E[:4], E[4])


def random_lorentz(rng, scale=0.35):
    a = rng.normal(size=(4, 4)) * scale
    gen = ETA4 @ (a - a.T)
    from scipy.linalg import expm

    return expm(gen)


def test_reference_basis_flags():
    flags = classify_basis(E)
    assert flags.standard and flags.regular and flags.orthonormal


def test_standard_change_criterion():
    assert is_standard_change(u_transformation(2.0))
    assert is_standard_change(p_transformation([1.0, 2.0, 3.0, 4.0]))
    assert is_standard_change(m_transformation(np.diag([1.0, 2.0, 3.0, 4.0])))
    bad = np.eye(5)
    bad[0, 4] = 0.5  # new fifth vector leaks into the four-space
    assert not is_standard_change(bad)


def test_block_changes_act_as_documented():
    # new basis vectors e'_A = e_B L^B_A: the columns of E @ L
    basis = E @ u_transformation(2.0)
    assert np.array_equal(basis, np.diag([0.5, 0.5, 0.5, 0.5, 2.0]))
    p = np.array([1.0, -2.0, 0.5, 3.0])
    basis = E @ p_transformation(p)
    for mu in range(4):
        assert np.array_equal(basis[:, mu], E[:, mu] + p[mu] * E[:, 4])
    assert np.array_equal(basis[:, 4], E[:, 4])
    t = np.arange(16.0).reshape(4, 4) + np.eye(4) * 20.0
    basis = E @ m_transformation(t)
    assert np.array_equal(basis[:4, :4], t)
    assert np.array_equal(basis[:, 4], E[:, 4])


def test_induced_four_map_on_blocks():
    assert np.array_equal(induced_four_map(u_transformation(3.0)), np.eye(4))
    assert np.array_equal(induced_four_map(p_transformation([1.0, 1.0, 1.0, 1.0])), np.eye(4))
    t = np.diag([2.0, 3.0, 4.0, 5.0])
    assert np.array_equal(induced_four_map(m_transformation(t)), t)
    bad = np.eye(5)
    bad[2, 4] = 1.0
    with pytest.raises(NotStandard):
        induced_four_map(bad)


def test_induced_four_map_matches_wedge_route():
    # independent route: transform the basis, wedge its columns, and read
    # the coefficients back against the reference wedges
    rng = np.random.default_rng(10)
    for _ in range(25):
        change = compose_upm(
            float(rng.uniform(0.5, 2.0)),
            rng.normal(size=4),
            random_lorentz(rng) + rng.normal(size=(4, 4)) * 0.05,
        )
        lam = induced_four_map(change)
        basis = E @ change
        for mu in range(4):
            b = wedge(basis[:, mu], basis[:, 4])
            coeffs = four_from_bivector(b)
            assert np.allclose(coeffs, lam[:, mu], atol=1e-9 * max(1.0, np.abs(lam).max()))


def test_upm_round_trip():
    rng = np.random.default_rng(11)
    for _ in range(50):
        a = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.3, 3.0))
        p = rng.normal(size=4)
        t = rng.normal(size=(4, 4)) + np.eye(4) * 3.0
        change = compose_upm(a, p, t)
        back = decompose_upm(change)
        assert back[0] == pytest.approx(a, abs=1e-12)
        assert np.allclose(back[1], p, atol=1e-10)
        assert np.allclose(back[2], t, atol=1e-10)
        assert np.allclose(compose_upm(*back), change, atol=1e-10)


def test_upm_pure_scaling_case():
    a, p, t = decompose_upm(u_transformation(2.0))
    assert a == 2.0
    assert np.array_equal(t, np.eye(4))
    assert np.array_equal(p, np.zeros(4))


def test_upm_rejects_bad_inputs():
    with pytest.raises(SingularBlock):
        u_transformation(0.0)
    bad = np.eye(5)
    bad[1, 4] = 1.0
    with pytest.raises(NotStandard):
        decompose_upm(bad)


def test_orientation_sign():
    assert orientation_sign(E) == 1
    swapped = np.eye(5)[:, [1, 0, 2, 3, 4]]
    assert orientation_sign(swapped) == -1


def test_orthonormal_construction_fixes_reference():
    basis = orthonormal_basis_for(reference_wedges())
    assert np.allclose(basis, np.eye(5), atol=1e-12)
    flags = classify_basis(basis)
    assert flags.orthonormal and flags.standard


def test_orthonormal_construction_lorentz_mixed():
    # mixing the reference wedges with a Lorentz map keeps them orthonormal;
    # the lifted basis must reproduce them and stay standard
    rng = np.random.default_rng(12)
    for _ in range(20):
        lam = random_lorentz(rng)
        mixed = [sum(lam[nu, mu] * reference_wedges()[nu] for nu in range(4)) for mu in range(4)]
        basis = orthonormal_basis_for(mixed)
        flags = classify_basis(basis)
        assert flags.standard and flags.orthonormal
        gram = basis.T @ ETA5 @ basis
        assert np.allclose(gram, ETA5, atol=1e-10)
        for mu in range(4):
            got = wedge(basis[:, mu], basis[:, 4])
            assert np.allclose(got, mixed[mu], atol=1e-9)


def test_orthonormal_construction_conjugated_system():
    # wedges of a genuinely tilted orthonormal five-frame: postconditions
    # hold even though the result is no longer standard
    from pentavec.suites import random_metric_preserving5

    rng = np.random.default_rng(13)
    for _ in range(10):
        a = random_metric_preserving5(rng)
        wedges = wedge(a[:, :4].T, a[:, 4])
        basis = orthonormal_basis_for(wedges)
        gram = basis.T @ ETA5 @ basis
        assert np.allclose(gram, ETA5, atol=1e-9)
        for mu in range(4):
            got = wedge(basis[:, mu], basis[:, 4])
            assert np.allclose(got, wedges[mu], atol=1e-9)


def test_orthonormal_construction_sign_pair():
    basis = orthonormal_basis_for(reference_wedges())
    other = orthonormal_basis_for(reference_wedges(), negate_direction=True)
    assert np.allclose(other, -basis, atol=1e-12)


def test_orthonormal_construction_rejections():
    with pytest.raises(NotOrthonormalInput):
        orthonormal_basis_for(reference_wedges()[:3])
    scaled = reference_wedges()
    scaled[0] = 2.0 * scaled[0]
    with pytest.raises(NotOrthonormalInput):
        orthonormal_basis_for(scaled)
    # orthonormal gram but no direction shared by all four planes
    crossed = wedge(E[:4], E[[4, 4, 4, 0]])
    with pytest.raises(NoCommonDirection):
        orthonormal_basis_for(crossed)


def test_regular_construction_matches_orthonormal_case():
    rng = np.random.default_rng(14)
    lam = random_lorentz(rng)
    mixed = [sum(lam[nu, mu] * reference_wedges()[nu] for nu in range(4)) for mu in range(4)]
    a = orthonormal_basis_for(mixed)
    b = regular_basis_for(mixed)
    assert np.allclose(a, b, atol=1e-9)


def test_regular_construction_scaled_wedges():
    # doubling every wedge doubles the four basis vectors and leaves the
    # fifth one untouched
    basis = regular_basis_for(2.0 * reference_wedges())
    assert np.allclose(basis, np.diag([2.0, 2.0, 2.0, 2.0, 1.0]), atol=1e-10)
    flags = classify_basis(basis)
    assert flags.regular and not flags.orthonormal


@pytest.mark.parametrize("power", [-1000, -600, -525, -257, -100, 1, 100, 257, 515, 900])
def test_regular_construction_scales_exactly_with_a_power_of_two(power):
    # Far outside unit scale the induced Gram matrix would underflow to
    # subnormals (wedges near 1e-158) or overflow (near 1e155); the frame
    # scales with the wedges all the same, its fifth vector untouched.
    rng = np.random.default_rng(16)
    t = rng.normal(size=(3, 4, 4)) + np.eye(4) * 3.0
    wedges = np.einsum("knm,nij->kmij", t, reference_wedges())
    base = regular_basis_for(wedges)
    scaled = regular_basis_for(np.ldexp(wedges, power))
    assert np.array_equal(scaled[..., 4], base[..., 4])
    assert np.array_equal(scaled[..., :4], np.ldexp(base[..., :4], power))


@pytest.mark.parametrize("diagonal", [[1e3] * 4 + [1.0 + 1e-4], [1e100] * 4 + [2.0]])
def test_large_four_vectors_do_not_make_a_fifth_vector_regular(diagonal):
    flags = classify_basis(np.diag(diagonal))
    assert flags.standard and not flags.regular


def test_regularity_bounds_each_mixed_product_by_its_own_vectors():
    # e_5 = (eps, 0, 0, 0, sqrt(1 - eps^2)) is unit; eta(e_0, e_5) = 1e3 eps is
    # small next to the largest Gram entry 1e6, but not next to |e_0| |e_5| = 1e3.
    basis = np.diag([1e3, 1.0, 1.0, 1.0, np.sqrt(1.0 - 1e-12)])
    basis[0, 4] = 1e-6
    assert not classify_basis(basis).regular
    basis[0, 4] = 1e-16  # round-off beside |e_0| |e_5|
    assert classify_basis(basis).regular


@pytest.mark.parametrize("scale", [1e-160, 1e300])
def test_regular_construction_far_from_unit_scale_passes_its_regularity_check(scale):
    t = np.random.default_rng(3).normal(size=(4, 4)) + np.eye(4) * 3.0
    wedges = np.einsum("nm,nij->mij", t, reference_wedges())
    cols = regular_basis_for(scale * wedges)  # ends on classify_basis, at the frame scaled into 2^+-200
    assert np.isfinite(cols).all()
    if scale < 1.0:  # at 1e300 the four-vectors' Gram entries overflow, and NotFinite says so
        assert classify_basis(cols).regular


def test_regular_construction_rejects_frame_vectors_past_the_float_range():
    t = np.random.default_rng(3).normal(size=(4, 4)) + np.eye(4) * 3.0
    wedges = np.einsum("nm,nij->mij", t, reference_wedges())
    with pytest.raises(NotFinite, match="frame vectors overflow"):
        regular_basis_for(np.finfo(float).max / np.max(np.abs(wedges)) * wedges)


def test_regular_construction_general_inputs():
    rng = np.random.default_rng(15)
    for _ in range(20):
        t = rng.normal(size=(4, 4)) + np.eye(4) * 3.0
        wedges = [sum(t[nu, mu] * reference_wedges()[nu] for nu in range(4)) for mu in range(4)]
        basis = regular_basis_for(wedges)
        assert classify_basis(basis).regular
        gram = basis.T @ ETA5 @ basis
        assert abs(gram[4, 4] - 1.0) <= 1e-10
        assert np.abs(gram[:4, 4]).max() <= 1e-10
        for mu in range(4):
            got = wedge(basis[:, mu], basis[:, 4])
            assert np.allclose(got, wedges[mu], atol=1e-9 * max(1.0, np.abs(t).max()))


def test_regular_construction_rejections():
    with pytest.raises(DegenerateInducedMetric):
        regular_basis_for(reference_wedges()[:2])
    repeated = reference_wedges()
    repeated[3] = repeated[2]
    with pytest.raises(DegenerateInducedMetric):
        regular_basis_for(repeated)
    # induced metric with four positive directions instead of (+ - - -)
    wrong = wedge(E[[0, 1, 1, 2]], E[[4, 2, 3, 3]])
    with pytest.raises(DegenerateInducedMetric):
        regular_basis_for(wrong)
