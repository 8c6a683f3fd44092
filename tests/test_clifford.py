import numpy as np
import pytest

from pentavec.algebra import ETA4, ETA5
from pentavec.clifford import (
    GammaSet,
    anticommutation_residual,
    anticommutators,
    apply_metric_preserving,
    dirac_from_gamma_set,
    dirac_gammas,
    is_metric_preserving,
    standard_gamma_set,
)
from pentavec.errors import InvalidGammaSet, NotO32
from pentavec.suites import random_metric_preserving5


def test_standard_set_anticommutes_exactly():
    gs = standard_gamma_set()
    assert anticommutation_residual(gs) == 0.0


def test_standard_set_entries_are_units():
    allowed = np.array([0.0, 1.0, -1.0, 1j, -1j])
    entries = standard_gamma_set().matrices.ravel()
    dist = np.abs(entries[:, None] - allowed[None, :]).min(axis=1)
    assert dist.max() == 0.0


def test_standard_set_squares():
    g = standard_gamma_set().matrices
    eye = np.eye(4, dtype=complex)
    for a in range(5):
        assert np.array_equal(g[a] @ g[a], -ETA5[a, a] * eye)


def test_reduction_recovers_dirac_matrices():
    recon = dirac_from_gamma_set(standard_gamma_set())
    assert np.array_equal(recon, dirac_gammas())


def test_dirac_anticommutation_and_traces():
    g = dirac_gammas()
    eye = np.eye(4, dtype=complex)
    for mu in range(4):
        for nu in range(4):
            anti = g[mu] @ g[nu] + g[nu] @ g[mu]
            assert np.array_equal(anti, 2.0 * ETA4[mu, nu] * eye)
            assert np.trace(g[mu] @ g[nu]) == 4.0 * ETA4[mu, nu]
            assert np.trace(anti) == 8.0 * ETA4[mu, nu]


def test_gamma_set_validation():
    with pytest.raises(InvalidGammaSet):
        GammaSet(np.zeros((4, 4, 4)))
    bad = np.zeros((5, 4, 4), dtype=complex)
    bad[0, 0, 0] = np.nan
    with pytest.raises(InvalidGammaSet):
        GammaSet(bad)


def test_reduction_rejects_non_anticommuting_input():
    broken = GammaSet(np.stack([np.eye(4, dtype=complex)] * 5))
    with pytest.raises(InvalidGammaSet):
        dirac_from_gamma_set(broken)


def test_metric_preserving_predicate():
    assert is_metric_preserving(np.eye(5))
    assert not is_metric_preserving(2.0 * np.eye(5))
    assert not is_metric_preserving(np.eye(4))
    rng = np.random.default_rng(20)
    for _ in range(20):
        assert is_metric_preserving(random_metric_preserving5(rng))


def test_metric_preserving_maps_carry_gamma_sets():
    gs = standard_gamma_set()
    rng = np.random.default_rng(21)
    for _ in range(20):
        o = random_metric_preserving5(rng)
        mixed = apply_metric_preserving(gs, o)
        assert anticommutation_residual(mixed) <= 1e-11


def test_identity_map_leaves_set_unchanged():
    gs = standard_gamma_set()
    mixed = apply_metric_preserving(gs, np.eye(5))
    assert np.array_equal(mixed.matrices, gs.matrices)


def test_non_preserving_map_rejected():
    gs = standard_gamma_set()
    with pytest.raises(NotO32):
        apply_metric_preserving(gs, 2.0 * np.eye(5))


def test_reduction_transforms_as_four_vector():
    # mixing only the first four labels with a Lorentz map commutes with
    # the reduction: new Dirac matrices are the Lorentz mix of the old ones
    from scipy.linalg import expm

    gs = standard_gamma_set()
    base = dirac_from_gamma_set(gs)
    rng = np.random.default_rng(22)
    for _ in range(10):
        a = rng.normal(size=(4, 4)) * 0.35
        lam = expm(ETA4 @ (a - a.T))
        o = np.eye(5)
        o[:4, :4] = lam
        mixed = apply_metric_preserving(gs, o)
        got = dirac_from_gamma_set(mixed)
        expected = np.einsum("nm,nij->mij", lam, base)
        assert np.allclose(got, expected, atol=1e-11)


def test_batched_calls_match_single_calls():
    gs = standard_gamma_set()
    o = random_metric_preserving5(np.random.default_rng(23), (2, 3))
    mixed = apply_metric_preserving(gs, o)
    assert mixed.matrices.shape == (2, 3, 5, 4, 4)
    assert is_metric_preserving(o).shape == (2, 3) and np.all(is_metric_preserving(o))
    residuals = anticommutation_residual(mixed)
    reduced = dirac_from_gamma_set(mixed)
    for idx in np.ndindex(2, 3):
        one = apply_metric_preserving(gs, o[idx])
        assert np.array_equal(mixed.matrices[idx], one.matrices)
        assert residuals[idx] == anticommutation_residual(one)
        assert np.array_equal(reduced[idx], dirac_from_gamma_set(one))
    # a batch of sets mixed again by a batch of maps of the same shape
    again = apply_metric_preserving(mixed, o)
    one = apply_metric_preserving(GammaSet(mixed.matrices[1, 2]), o[1, 2])
    assert np.array_equal(again.matrices[1, 2], one.matrices)


def test_anticommutators_give_the_dirac_relations():
    anti = anticommutators(dirac_gammas())
    assert np.array_equal(anti, 2.0 * ETA4[:, :, None, None] * np.eye(4))


def test_one_bad_map_or_set_is_named():
    gs = standard_gamma_set()
    o = random_metric_preserving5(np.random.default_rng(24), (2, 3))
    o[1, 2] = np.diag([2.0, 1.0, 1.0, 1.0, 1.0])
    with pytest.raises(NotO32) as batch_error:
        apply_metric_preserving(gs, o)
    assert str(batch_error.value).endswith("(element (1, 2))")
    assert not is_metric_preserving(o)[1, 2]

    sets = np.broadcast_to(gs.matrices, (2, 3, 5, 4, 4)).copy()
    sets[1, 2] = np.eye(4)
    with pytest.raises(InvalidGammaSet) as batch_error:
        dirac_from_gamma_set(GammaSet(sets))
    with pytest.raises(InvalidGammaSet):
        dirac_from_gamma_set(GammaSet(sets[1, 2]))
    dirac_from_gamma_set(GammaSet(sets[0]))  # the untouched row passes
    assert str(batch_error.value).endswith("(element (1, 2))")
