import numpy as np
import pytest

from pentavec import algebra
from pentavec.algebra import (
    EPS5,
    ETA4,
    Bivector5,
    DirectionalClass,
    FiveForm,
    FiveVector,
    MetricH,
    bivector_from_four,
    bivector_inner,
    classify_directional,
    directional_vector,
    four_from_bivector,
    is_simple,
    label_to_slot,
    slot_to_label,
    wedge,
)
from pentavec.bases import REFERENCE_BASIS
from pentavec.errors import (
    DimensionTooSmall,
    NotAntisymmetric,
    NotFinite,
    NotInMaximalSpace,
    NotMaximalSpace,
    NotSimple,
    ZeroVector,
)

E = np.eye(5)


def ev(i):
    return E[:, i]


def shuffle_wedge_square(b: np.ndarray) -> np.ndarray:
    """Independent route: the four-index wedge square via the 6-term shuffle.

    (B ^ B)^{abcd} = 2 (B^{ab}B^{cd} - B^{ac}B^{bd} + B^{ad}B^{bc})
    """
    return 2.0 * (
        np.einsum("ab,cd->abcd", b, b)
        - np.einsum("ac,bd->abcd", b, b)
        + np.einsum("ad,bc->abcd", b, b)
    )


def test_index_labels_round_trip():
    assert label_to_slot(5) == 4
    assert label_to_slot(0) == 0
    assert slot_to_label(4) == 5
    with pytest.raises(ValueError):
        label_to_slot(4)
    with pytest.raises(ValueError):
        slot_to_label(5)


def test_metric_h_signature_enforced():
    MetricH.reference()
    MetricH(np.diag([1.0, 1.0, -1.0, -1.0, -1.0]))
    with pytest.raises(ValueError):
        MetricH(np.diag([1.0, -1.0, -1.0, -1.0, -1.0]))  # one positive direction only
    with pytest.raises(ValueError):
        MetricH(np.diag([1.0, 1.0, 1.0, -1.0, -1.0]))
    with pytest.raises(ValueError):
        MetricH(np.zeros((5, 5)))


def test_bivector_requires_antisymmetry():
    with pytest.raises(NotAntisymmetric):
        Bivector5(np.eye(5))


def test_wedge_is_antisymmetric_and_bilinear():
    rng = np.random.default_rng(0)
    u, v, w = rng.normal(size=(3, 5))
    assert np.array_equal(wedge(u, v), -wedge(v, u))
    left = wedge(2.0 * u + w, v)
    right = 2.0 * wedge(u, v) + wedge(w, v)
    assert np.allclose(left, right, atol=1e-12)
    assert np.array_equal(wedge(u, u), np.zeros((5, 5)))


def test_wedge_square_shuffle_vs_epsilon_route():
    # the library's simplicity test contracts with the five-index epsilon;
    # the 6-term shuffle four-form is an independent encoding of the same
    # object, fixed by eps_{abcde} F^{abcd} = 6 pf_e
    rng = np.random.default_rng(1)
    for _ in range(50):
        b = wedge(rng.normal(size=5), rng.normal(size=5))
        b = b + wedge(rng.normal(size=5), rng.normal(size=5))
        f = shuffle_wedge_square(b)
        pf = algebra._wedge_square_dual(b)
        contracted = np.einsum("abcde,abcd->e", EPS5, f)
        assert np.allclose(contracted, 6.0 * pf, atol=1e-12 * max(1.0, np.abs(pf).max()))


def test_wedge_square_frozen_crossed_pair():
    # B = e0^e1 + e2^e3: shuffle four-form component (0,1,2,3) is 2,
    # epsilon-contraction dual is 8 at the fifth slot, zero elsewhere
    b = wedge(ev(0), ev(1)) + wedge(ev(2), ev(3))
    f = shuffle_wedge_square(b)
    assert f[0, 1, 2, 3] == 2.0
    pf = algebra._wedge_square_dual(b)
    assert np.array_equal(pf, np.array([0.0, 0.0, 0.0, 0.0, 8.0]))


def test_is_simple_on_wedges_and_crossed_sum():
    rng = np.random.default_rng(2)
    for _ in range(100):
        b = wedge(rng.normal(size=5), rng.normal(size=5))
        assert is_simple(b)
    crossed = wedge(ev(0), ev(1)) + wedge(ev(2), ev(3))
    assert not is_simple(crossed)


def test_simplicity_matches_span_rank():
    rng = np.random.default_rng(3)
    for i in range(100):
        vecs = rng.normal(size=(4, 5))
        if i % 2 == 0:
            # force the four factors into a 3-dimensional span: the sum of
            # two wedges of dependent vectors is again simple
            vecs[3] = 0.7 * vecs[0] - 1.3 * vecs[1] + 0.2 * vecs[2]
        b = wedge(vecs[0], vecs[1]) + wedge(vecs[2], vecs[3])
        assert is_simple(b) == (np.linalg.matrix_rank(vecs) < 4)


def test_directional_vector_recovers_mapped_fifth_axis():
    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(200):
        a = rng.normal(size=(5, 5))
        if np.linalg.cond(a) > 50:
            continue
        wedges = wedge(a[:, :4].T, a[:, 4])
        found = directional_vector(wedges)
        cos = abs(found @ a[:, 4]) / (np.linalg.norm(found) * np.linalg.norm(a[:, 4]))
        worst = max(worst, 1.0 - cos)
    assert worst <= 1e-9


def test_directional_vector_sign_rule():
    # first significant component is made positive, so the output is
    # deterministic regardless of the internal SVD sign
    a = np.eye(5)
    a[:, 4] = [0.0, -2.0, 0.0, 0.0, 1.0]
    wedges = wedge(a[:, :4].T, a[:, 4])
    found = directional_vector(wedges)
    assert found[1] > 0.0
    again = directional_vector(wedges)
    assert np.array_equal(found, again)


def test_directional_vector_error_cases():
    with pytest.raises(DimensionTooSmall):
        directional_vector(np.zeros((0, 5, 5)))
    with pytest.raises(NotSimple):
        directional_vector([wedge(ev(0), ev(1)) + wedge(ev(2), ev(3))])
    # span too small: all inputs live in a single 2-plane
    b01 = wedge(ev(0), ev(1))
    with pytest.raises(DimensionTooSmall):
        directional_vector([b01, 2.0 * b01, b01, b01])
    # four independent planes with no common direction
    crossed = wedge(E[[0, 2, 0, 1]], E[[1, 3, 2, 3]])
    with pytest.raises(NotMaximalSpace):
        directional_vector(crossed)


def test_bivector_inner_reference_gram_is_minkowski():
    h = MetricH.reference()
    wedges = [wedge(ev(mu), ev(4)) for mu in range(4)]
    gram = np.array([[bivector_inner(a, b, h) for b in wedges] for a in wedges])
    assert np.array_equal(gram, ETA4)


def test_bivector_inner_flipped_fifth_norm():
    # h55 = -1 with signature kept (2 plus, 3 minus): induced metric flips
    # to diag(-1,-1,+1,+1) on the same coordinate wedges
    h = MetricH(np.diag([1.0, 1.0, -1.0, -1.0, -1.0]))
    wedges = [wedge(ev(mu), ev(4)) for mu in range(4)]
    gram = np.array([[bivector_inner(a, b, h) for b in wedges] for a in wedges])
    assert np.array_equal(gram, np.diag([-1.0, -1.0, 1.0, 1.0]))


def test_bivector_inner_closed_form_on_shared_direction():
    rng = np.random.default_rng(5)
    h = MetricH.reference()
    for _ in range(100):
        u, v, w = rng.normal(size=(3, 5))
        lhs = bivector_inner(wedge(u, w), wedge(v, w), h)
        rhs = h.dot(u, v) * h.dot(w, w) - h.dot(u, w) * h.dot(v, w)
        assert lhs == pytest.approx(rhs, abs=1e-10)


def test_classify_directional():
    h = MetricH.reference()
    assert classify_directional(ev(4), h) is DirectionalClass.POSITIVE
    assert classify_directional(ev(2), h) is DirectionalClass.NEGATIVE
    assert classify_directional(E[:, 1] + E[:, 4], h) is DirectionalClass.NULL
    with pytest.raises(ZeroVector):
        classify_directional(np.zeros(5), h)
    with pytest.raises(NotFinite):
        classify_directional([1.0, 0.0, 0.0, 0.0, np.nan], h)


def test_four_embedding_round_trip():
    rng = np.random.default_rng(6)
    for _ in range(50):
        u = rng.normal(size=4)
        b = bivector_from_four(u, REFERENCE_BASIS)
        back = four_from_bivector(b, REFERENCE_BASIS)
        assert np.allclose(back, u, atol=1e-12)


def test_four_from_bivector_rejects_outside_span():
    b = wedge(ev(0), ev(1))  # no fifth-direction factor
    with pytest.raises(NotInMaximalSpace):
        four_from_bivector(b, REFERENCE_BASIS)



def test_five_form_pairing():
    w = FiveForm(np.array([1.0, 0.0, 0.0, 0.0, 2.0]))
    v = FiveVector(np.array([3.0, 1.0, 1.0, 1.0, -1.0]))
    assert w.pair(v) == 1.0
