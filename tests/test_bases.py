import numpy as np
import pytest

from pentavec.algebra import (
    ETA4,
    ETA5,
    MetricH,
    four_from_bivector,
    wedge,
)
from pentavec.bases import (
    REFERENCE_BASIS,
    Basis5,
    OrientationTensor,
    UPMDecomposition,
    apply_change,
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
    NotOrthonormalInput,
    NotStandard,
    SingularBlock,
)

E = np.eye(5)
H = MetricH.reference()


def reference_wedges():
    return wedge(E[:4], E[4])


def random_lorentz(rng, scale=0.35):
    a = rng.normal(size=(4, 4)) * scale
    gen = ETA4 @ (a - a.T)
    from scipy.linalg import expm

    return expm(gen)


def test_reference_basis_flags():
    flags = classify_basis(REFERENCE_BASIS.matrix, H)
    assert flags.standard and flags.regular and flags.orthonormal
    assert REFERENCE_BASIS.vector(5) @ E[:, 4] == 1.0


def test_standard_change_criterion():
    assert is_standard_change(u_transformation(2.0))
    assert is_standard_change(p_transformation([1.0, 2.0, 3.0, 4.0]))
    assert is_standard_change(m_transformation(np.diag([1.0, 2.0, 3.0, 4.0])))
    bad = np.eye(5)
    bad[0, 4] = 0.5  # new fifth vector leaks into the four-space
    assert not is_standard_change(bad)


def test_block_changes_act_as_documented():
    basis = apply_change(REFERENCE_BASIS, u_transformation(2.0))
    assert np.array_equal(basis.matrix, np.diag([0.5, 0.5, 0.5, 0.5, 2.0]))
    p = np.array([1.0, -2.0, 0.5, 3.0])
    basis = apply_change(REFERENCE_BASIS, p_transformation(p))
    for mu in range(4):
        assert np.array_equal(basis.matrix[:, mu], E[:, mu] + p[mu] * E[:, 4])
    assert np.array_equal(basis.matrix[:, 4], E[:, 4])
    t = np.arange(16.0).reshape(4, 4) + np.eye(4) * 20.0
    basis = apply_change(REFERENCE_BASIS, m_transformation(t))
    assert np.array_equal(basis.matrix[:4, :4], t)
    assert np.array_equal(basis.matrix[:, 4], E[:, 4])


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
        d = UPMDecomposition(
            a=float(rng.uniform(0.5, 2.0)),
            p=rng.normal(size=4),
            t=random_lorentz(rng) + rng.normal(size=(4, 4)) * 0.05,
        )
        change = compose_upm(d)
        lam = induced_four_map(change)
        basis = apply_change(REFERENCE_BASIS, change)
        for mu in range(4):
            b = wedge(basis.matrix[:, mu], basis.matrix[:, 4])
            coeffs = four_from_bivector(b, REFERENCE_BASIS)
            assert np.allclose(coeffs, lam[:, mu], atol=1e-9 * max(1.0, np.abs(lam).max()))


def test_upm_round_trip():
    rng = np.random.default_rng(11)
    for _ in range(50):
        d = UPMDecomposition(
            a=float(rng.choice([-1.0, 1.0]) * rng.uniform(0.3, 3.0)),
            p=rng.normal(size=4),
            t=rng.normal(size=(4, 4)) + np.eye(4) * 3.0,
        )
        change = compose_upm(d)
        back = decompose_upm(change)
        assert back.a == pytest.approx(d.a, abs=1e-12)
        assert np.allclose(back.p, d.p, atol=1e-10)
        assert np.allclose(back.t, d.t, atol=1e-10)
        assert np.allclose(compose_upm(back), change, atol=1e-10)


def test_upm_pure_scaling_case():
    d = decompose_upm(u_transformation(2.0))
    assert d.a == 2.0
    assert np.array_equal(d.t, np.eye(4))
    assert np.array_equal(d.p, np.zeros(4))


def test_upm_rejects_bad_inputs():
    with pytest.raises(SingularBlock):
        u_transformation(0.0)
    bad = np.eye(5)
    bad[1, 4] = 1.0
    with pytest.raises(NotStandard):
        decompose_upm(bad)


def test_orientation_sign():
    assert orientation_sign(REFERENCE_BASIS) == 1
    swapped = np.eye(5)[:, [1, 0, 2, 3, 4]]
    assert orientation_sign(Basis5(swapped)) == -1
    assert orientation_sign(REFERENCE_BASIS, OrientationTensor(sign=-1)) == -1
    with pytest.raises(ValueError):
        OrientationTensor(sign=0)


def test_orthonormal_construction_fixes_reference():
    basis = orthonormal_basis_for(reference_wedges(), H)
    assert np.allclose(basis, np.eye(5), atol=1e-12)
    flags = classify_basis(basis, H)
    assert flags.orthonormal and flags.standard


def test_orthonormal_construction_lorentz_mixed():
    # mixing the reference wedges with a Lorentz map keeps them orthonormal;
    # the lifted basis must reproduce them and stay standard
    rng = np.random.default_rng(12)
    for _ in range(20):
        lam = random_lorentz(rng)
        mixed = [sum(lam[nu, mu] * reference_wedges()[nu] for nu in range(4)) for mu in range(4)]
        basis = orthonormal_basis_for(mixed, H)
        flags = classify_basis(basis, H)
        assert flags.standard and flags.orthonormal
        gram = basis.T @ H.matrix @ basis
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
        basis = orthonormal_basis_for(wedges, H)
        gram = basis.T @ H.matrix @ basis
        assert np.allclose(gram, ETA5, atol=1e-9)
        for mu in range(4):
            got = wedge(basis[:, mu], basis[:, 4])
            assert np.allclose(got, wedges[mu], atol=1e-9)


def test_orthonormal_construction_sign_pair():
    basis = orthonormal_basis_for(reference_wedges(), H)
    other = orthonormal_basis_for(reference_wedges(), H, negate_direction=True)
    assert np.allclose(other, -basis, atol=1e-12)


def test_orthonormal_construction_rejections():
    with pytest.raises(NotOrthonormalInput):
        orthonormal_basis_for(reference_wedges()[:3], H)
    scaled = reference_wedges()
    scaled[0] = 2.0 * scaled[0]
    with pytest.raises(NotOrthonormalInput):
        orthonormal_basis_for(scaled, H)
    # orthonormal gram but no direction shared by all four planes
    crossed = wedge(E[:4], E[[4, 4, 4, 0]])
    with pytest.raises(NoCommonDirection):
        orthonormal_basis_for(crossed, H)


def test_regular_construction_matches_orthonormal_case():
    rng = np.random.default_rng(14)
    lam = random_lorentz(rng)
    mixed = [sum(lam[nu, mu] * reference_wedges()[nu] for nu in range(4)) for mu in range(4)]
    a = orthonormal_basis_for(mixed, H)
    b = regular_basis_for(mixed, H)
    assert np.allclose(a, b, atol=1e-9)


def test_regular_construction_scaled_wedges():
    # doubling every wedge doubles the four basis vectors and leaves the
    # fifth one untouched
    basis = regular_basis_for(2.0 * reference_wedges(), H)
    assert np.allclose(basis, np.diag([2.0, 2.0, 2.0, 2.0, 1.0]), atol=1e-10)
    flags = classify_basis(basis, H)
    assert flags.regular and not flags.orthonormal


def test_regular_construction_general_inputs():
    rng = np.random.default_rng(15)
    for _ in range(20):
        t = rng.normal(size=(4, 4)) + np.eye(4) * 3.0
        wedges = [sum(t[nu, mu] * reference_wedges()[nu] for nu in range(4)) for mu in range(4)]
        basis = regular_basis_for(wedges, H)
        assert classify_basis(basis, H).regular
        gram = basis.T @ H.matrix @ basis
        assert abs(gram[4, 4] - 1.0) <= 1e-10
        assert np.abs(gram[:4, 4]).max() <= 1e-10
        for mu in range(4):
            got = wedge(basis[:, mu], basis[:, 4])
            assert np.allclose(got, wedges[mu], atol=1e-9 * max(1.0, np.abs(t).max()))


def test_regular_construction_rejections():
    with pytest.raises(DegenerateInducedMetric):
        regular_basis_for(reference_wedges()[:2], H)
    repeated = reference_wedges()
    repeated[3] = repeated[2]
    with pytest.raises(DegenerateInducedMetric):
        regular_basis_for(repeated, H)
    # induced metric with four positive directions instead of (+ - - -)
    wrong = wedge(E[[0, 1, 1, 2]], E[[4, 2, 3, 3]])
    with pytest.raises(DegenerateInducedMetric):
        regular_basis_for(wrong, H)
