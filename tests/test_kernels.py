"""Array kernels against one-element calls, over generated inputs.

Every kernel takes any leading axes; calling it on each element alone
must give the same numbers, and a batch holding one bad element must
raise the error class of the single call and name that element's index.
"""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal
from hypothesis import Phase, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm as scipy_expm

from pentavec import suites
from pentavec.algebra import (
    ETA4,
    ETA5,
    bivector_from_four,
    bivector_inner,
    directional_vector,
    four_from_bivector,
    is_simple,
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
from pentavec.cli import main
from pentavec.clifford import apply_metric_preserving, standard_gamma_set
from pentavec.connection import (
    ConnectionCoeffs,
    coordinates_from_parallel_metric,
    flat_coefficients,
    parallel_frame_change,
    parallel_frame_metric,
    transform_connection_field,
    transport,
)
from pentavec.errors import (
    DegenerateInducedMetric,
    NotAntisymmetric,
    NotFinite,
    NotInMaximalSpace,
    NotLorentz,
    NotOrthonormalInput,
    NotSimple,
    NotStandard,
    ShapeMismatch,
    SingularBlock,
    SingularMatrix,
)
from pentavec.fileio import Record, read_record, transform_to_payload, write_record
from pentavec.grids import FieldOnGrid, Grid, grid_gradient
from pentavec.numerics import bound, expm, invert
from pentavec.poincare import (
    PoincareTransform,
    build_generator_tensor,
    build_param_tensor,
    conjugate,
    coordinate_form,
    homogeneous_rep,
    transform_generator_tensor,
    transform_param_tensor,
    transform_parallel,
    transform_parallel_form,
)
from pentavec.stress_energy import (
    assemble_moment_field,
    moment_to_orthonormal,
    moment_to_parallel,
    transform_moment_field,
)

LEADING = st.sampled_from([(), (3,), (2, 3)])
SEEDS = st.integers(0, 2**32 - 1)
CLOSE = dict(rtol=1e-12, atol=1e-12)
# The explain phase traces every line of a failing example, which makes a
# failure in these numpy-heavy tests take minutes to report.
PROPERTY = settings(max_examples=25, deadline=None, phases=[p for p in Phase if p is not Phase.explain])


def each(shape):
    return list(np.ndindex(*shape))


def lorentz_wedges(rng, shape, regular=False):
    """Wedge quadruples of random felt frames, orthonormal or mixed by a random matrix."""
    mix = suites.random_invertible(rng, 4, cond_cap=20.0, size=shape) if regular else suites.random_lorentz(rng, shape)
    cols = suites.random_metric_preserving5(rng, shape)
    return wedge(np.swapaxes(cols[..., :4] @ mix, -1, -2), cols[..., None, :, 4])


@PROPERTY
@given(SEEDS, LEADING)
def test_wedge_and_simplicity_match_single_calls(seed, shape):
    rng = np.random.default_rng(seed)
    u, v, x, y = rng.normal(size=(4,) + shape + (5,))
    simple = wedge(u, v)
    crossed = simple + wedge(x, y)
    mask = is_simple(crossed)
    assert simple.shape == shape + (5, 5)
    for idx in each(shape):
        assert_array_equal(simple[idx], wedge(u[idx], v[idx]))
        assert mask[idx] == is_simple(crossed[idx])
    assert np.all(is_simple(simple))


@PROPERTY
@given(SEEDS, LEADING)
def test_inner_and_four_embedding_match_single_calls(seed, shape):
    rng = np.random.default_rng(seed)
    u, v, w = rng.normal(size=(3,) + shape + (5,))
    b1, b2 = wedge(u, w), wedge(v, w)
    inner = bivector_inner(b1, b2)
    four = rng.normal(size=shape + (4,))
    embedded = bivector_from_four(four)
    back = four_from_bivector(embedded)
    for idx in each(shape):
        assert_allclose(inner[idx], bivector_inner(b1[idx], b2[idx]), **CLOSE)
        single = bivector_from_four(four[idx])
        assert_allclose(embedded[idx], single, **CLOSE)
        assert_allclose(back[idx], four_from_bivector(single), **CLOSE)


@PROPERTY
@given(SEEDS, LEADING, st.integers(0, 5), st.sampled_from([1.0, -1.0]))
def test_four_embedding_is_exact_and_rejects_a_four_block(seed, shape, entry, sign):
    rng = np.random.default_rng(seed)
    four = rng.normal(size=shape + (4,))
    embedded = bivector_from_four(four)
    assert_array_equal(four_from_bivector(embedded), four)
    # one four-block entry b^(mu nu), mu < nu, of the last element: at the
    # bound it is read as zero, at the next float it names the element
    last = tuple(s - 1 for s in shape)
    mu, nu = (a[entry] for a in np.triu_indices(4, 1))
    limit = bound(np.max(np.abs(embedded[last])))
    leaky = embedded.copy()
    leaky[last + (mu, nu)], leaky[last + (nu, mu)] = sign * limit, -sign * limit
    assert_array_equal(four_from_bivector(leaky), four)
    above = sign * np.nextafter(limit, 1.0)
    leaky[last + (mu, nu)], leaky[last + (nu, mu)] = above, -above
    with pytest.raises(NotInMaximalSpace, match="outside the wedge span") as error:
        four_from_bivector(leaky)
    if shape:
        assert str(error.value).endswith(f"(element {last[0] if len(last) == 1 else last})")


@PROPERTY
@given(SEEDS, st.integers(0, 4), st.integers(1, 4))
def test_orientation_sign_flips_under_a_column_swap(seed, i, step):
    assert orientation_sign(np.eye(5)) == 1
    frame = suites.random_invertible(np.random.default_rng(seed), 5)
    j = (i + step) % 5
    swapped = frame.copy()
    swapped[:, [i, j]] = frame[:, [j, i]]
    assert orientation_sign(swapped) == -orientation_sign(frame)
    frame[:, j] = frame[:, i]  # its determinant is round-off, often not 0.0
    with pytest.raises(SingularBlock, match="degenerate basis has no orientation"):
        orientation_sign(frame)


@PROPERTY
@given(SEEDS, LEADING)
def test_directional_vector_matches_single_calls(seed, shape):
    rng = np.random.default_rng(seed)
    wedges = lorentz_wedges(rng, shape)
    found = directional_vector(wedges)
    for idx in each(shape):
        assert_allclose(found[idx], directional_vector(wedges[idx]), **CLOSE)


@PROPERTY
@given(SEEDS, LEADING, st.booleans())
def test_frame_constructions_match_single_calls(seed, shape, negate):
    rng = np.random.default_rng(seed)
    ortho_in = lorentz_wedges(rng, shape)
    regular_in = lorentz_wedges(rng, shape, regular=True)
    ortho = orthonormal_basis_for(ortho_in, negate_direction=negate)
    regular = regular_basis_for(regular_in, negate_direction=negate)
    flags = classify_basis(regular)
    for idx in each(shape):
        single = orthonormal_basis_for(ortho_in[idx], negate_direction=negate)
        assert_allclose(ortho[idx], single, **CLOSE)
        single = regular_basis_for(regular_in[idx], negate_direction=negate)
        assert_allclose(regular[idx], single, **CLOSE)
        one = classify_basis(regular[idx])
        assert (flags.standard[idx], flags.regular[idx], flags.orthonormal[idx]) == (
            one.standard,
            one.regular,
            one.orthonormal,
        )


def corrupt_one(stack, index, how):
    out = stack.copy()
    if how == "crossed":
        e = np.eye(5)
        out[index][0] = wedge(e[0], e[1]) + wedge(e[2], e[3])
    elif how == "scaled":
        out[index][1] = 2.0 * out[index][1]
    elif how == "repeated":
        out[index][2] = out[index][1]
    elif how == "nan":
        out[index][3, 0, 4] = np.nan
    return out


@pytest.mark.parametrize(
    "kernel, single, how, error",
    [
        (directional_vector, directional_vector, "crossed", NotSimple),
        (
            lambda w: orthonormal_basis_for(w),
            lambda w: orthonormal_basis_for(w),
            "scaled",
            NotOrthonormalInput,
        ),
        (
            lambda w: orthonormal_basis_for(w),
            lambda w: orthonormal_basis_for(w),
            "crossed",
            NotOrthonormalInput,
        ),
        (
            lambda w: regular_basis_for(w),
            lambda w: regular_basis_for(w),
            "repeated",
            DegenerateInducedMetric,
        ),
        (
            lambda w: regular_basis_for(w),
            lambda w: regular_basis_for(w),
            "nan",
            NotFinite,
        ),
    ],
)
def test_one_bad_element_raises_the_single_call_error(kernel, single, how, error):
    rng = np.random.default_rng(11)
    stack = corrupt_one(lorentz_wedges(rng, (2, 3)), (1, 2), how)
    with pytest.raises(error) as batch_error:
        kernel(stack)
    with pytest.raises(error):
        single(stack[1, 2])
    kernel(stack[0])  # the untouched row passes
    # a non-simple wedge is reported down to its position in the set
    where = "(1, 2, 0)" if error is NotSimple else "(1, 2)"
    assert str(batch_error.value).endswith(f"(element {where})")


def wave_current(seed, n=5):
    h = 1.0 / (n - 1)
    grid = Grid(origin=(-0.5, -0.5, -0.5, 0.0), spacing=(h, h, h, 1.0), shape=(n, n, n, 1))
    rng = np.random.default_rng(seed)
    theta = rng.normal(size=grid.shape + (4, 4))
    s = rng.normal(size=grid.shape + (4, 4, 4))
    return assemble_moment_field(theta, s - np.swapaxes(s, -1, -2), grid)


def conversion_reference(m: FieldOnGrid, kappa: float, sign: float) -> np.ndarray:
    # C^T M C with C the identity plus the bottom row sign * x_alpha; the
    # moment module absorbs kappa into the frame normalization, so any
    # nonzero kappa gives a unit factor and kappa = 0 the identity.
    factor = 0.0 if kappa == 0.0 else 1.0
    change = np.broadcast_to(np.eye(5), m.grid.shape + (5, 5)).copy()
    change[..., 4, :4] = sign * factor * (m.grid.coords() * np.array([1.0, -1.0, -1.0, -1.0]))
    return np.einsum("...mcd,...ce,...df->...mef", m.values, change, change)


@PROPERTY
@given(SEEDS, st.sampled_from([0.0, 0.5, 1.0, 2.0, -1.0]))
def test_closed_form_moment_conversion_matches_reference(seed, kappa):
    m = wave_current(seed)
    o = moment_to_orthonormal(m, kappa)
    assert_allclose(o.values, conversion_reference(m, kappa, -1.0), **CLOSE)
    p = moment_to_parallel(o, kappa)
    assert_allclose(p.values, conversion_reference(o, kappa, 1.0), **CLOSE)
    assert_allclose(p.values, m.values, **CLOSE)


@PROPERTY
@given(SEEDS, st.sampled_from(["central2", "central4"]))
def test_factored_connection_transform_matches_einsum(seed, scheme):
    rng = np.random.default_rng(seed)
    grid = Grid(origin=(0.0,) * 4, spacing=(0.2,) * 4, shape=(5, 5, 5, 1))
    change = np.eye(5) + 0.2 * rng.normal(size=grid.shape + (5, 5))
    lam = rng.normal(size=(4, 4))
    g = ConnectionCoeffs(rng.normal(size=(5, 5, 4)))
    got = transform_connection_field(g, change, lam, grid, scheme)
    linv = np.linalg.inv(change)
    dl = grid_gradient(change, grid, scheme)
    reference = np.einsum("...ac,cdn,...db,nm->...abm", linv, g.values, change, lam)
    reference += np.einsum("...ac,...cbn,nm->...abm", linv, dl, lam)
    # worst 1.3e-15 over 4,000 draws: the two sides sum in different orders
    assert np.max(np.abs(got - reference)) <= 4e-15 * np.max(np.abs(reference))


def test_flat_transform_to_parallel_frame_vanishes():
    grid = Grid(origin=(-0.5,) * 4, spacing=(0.25,) * 4, shape=(5, 5, 5, 5))
    n_field = np.broadcast_to(np.eye(5), grid.shape + (5, 5)).copy()
    n_field[..., 4, :4] = grid.coords() * np.array([1.0, -1.0, -1.0, -1.0])
    got = transform_connection_field(flat_coefficients(1.0), n_field, np.eye(4), grid)
    assert np.max(np.abs(got[grid.interior(1)])) <= 1e-12


def poincare_batch(rng, shape):
    """Random transforms on the leading axes ``shape``, batched and one by one."""
    singles = {idx: suites.random_poincare(rng) for idx in each(shape)}
    lam = np.empty(shape + (4, 4))
    a = np.empty(shape + (4,))
    for idx, t in singles.items():
        lam[idx], a[idx] = t.lam, t.a
    return PoincareTransform(lam, a), singles


@PROPERTY
@given(SEEDS, LEADING, st.sampled_from([0.0, 0.5, 1.0, -1.0]))
def test_poincare_kernels_match_single_calls(seed, shape, kappa):
    rng = np.random.default_rng(seed)
    t, singles = poincare_batch(rng, shape)
    v, w, x = rng.normal(size=(3,) + shape + (5,))
    theta = rng.normal(size=shape + (4, 4))
    laws = [
        (law, components, k)
        for law, components in ((transform_parallel, v), (transform_parallel_form, w))
        for k in (0.0, kappa)  # the orthonormal laws are the parallel ones at kappa = 0
    ]
    got = [law(components, t, k) for law, components, k in laws]
    conjugated = conjugate(theta, t)
    rep = homogeneous_rep(t, kappa)
    applied = t.apply(x[..., :4])
    inverse = t.inverse()
    for idx, one in singles.items():
        for (law, components, k), out in zip(laws, got):
            assert_allclose(out[idx], law(components[idx], one, k), **CLOSE)
        assert_allclose(conjugated[idx], one.lam @ theta[idx] @ np.linalg.inv(one.lam), **CLOSE)
        assert_allclose(rep[idx], homogeneous_rep(one, kappa), **CLOSE)
        assert_allclose(applied[idx], one.apply(x[idx][:4]), **CLOSE)
        assert_allclose(inverse.lam[idx], one.inverse().lam, **CLOSE)
        assert_allclose(inverse.a[idx], one.inverse().a, **CLOSE)


def test_one_non_lorentz_element_is_named():
    t, _ = poincare_batch(np.random.default_rng(3), (2, 3))
    lam = t.lam.copy()
    lam[1, 2] *= 2.0
    with pytest.raises(NotLorentz) as error:
        PoincareTransform(lam, t.a)
    assert str(error.value).endswith("(element (1, 2))")
    assert "residual" in str(error.value) and "bound" in str(error.value)


def run_transform(tmp: Path, record: Record, t: PoincareTransform) -> Record:
    write_record(tmp / "in.pvec", record)
    write_record(tmp / "t.pvec", Record("poincare_transform", transform_to_payload(t)))
    assert main(["transform", str(tmp / "in.pvec"), str(tmp / "t.pvec"), "-o", str(tmp / "out.pvec")]) == 0
    return read_record(tmp / "out.pvec")


@PROPERTY
@given(SEEDS, st.sampled_from(["O", "P"]), st.sampled_from([0.5, 1.0, 2.0]))
def test_cli_field_laws_match_per_sample_calls(seed, frame, kappa):
    rng = np.random.default_rng(seed)
    grid = Grid(origin=(0.0,) * 4, spacing=(0.5,) * 4, shape=(2, 3, 1, 2))
    t = suites.random_poincare(rng)
    vectors = rng.normal(size=grid.shape + (5,))
    theta = rng.normal(size=grid.shape + (4, 4))
    with tempfile.TemporaryDirectory() as tmp:
        moved_v = run_transform(Path(tmp), Record("five_vector_field", vectors, basis=frame, kappa=kappa, grid=grid), t)
        moved_theta = run_transform(Path(tmp), Record("theta_field", theta, grid=grid), t)
    assert (moved_v.basis, moved_v.kappa, moved_v.grid) == (frame, kappa, grid)
    lam_inv = np.linalg.inv(t.lam)
    for idx in each(grid.shape):
        single = transform_parallel(vectors[idx], t, kappa if frame == "P" else 0.0)
        assert_allclose(moved_v.payload[idx], single, **CLOSE)
        assert_allclose(moved_theta.payload[idx], t.lam @ theta[idx] @ lam_inv, **CLOSE)


@PROPERTY
@given(SEEDS, st.sampled_from([0.0, 0.5, 1.0, -1.0]))
def test_moment_field_law_matches_einsum(seed, kappa):
    m = wave_current(seed)
    t = suites.random_poincare(np.random.default_rng(seed))
    got = transform_moment_field(m, t, kappa).values
    # the law as one 4-operand contraction, plus the translation terms
    lam, lam_inv = t.lam, np.linalg.inv(t.lam)
    a_low = t.a * np.array([1.0, -1.0, -1.0, -1.0])
    theta = np.einsum("mn,...nb,bt->...mt", lam, m.values[..., 4, :4], lam_inv)
    four = np.einsum("mn,...nst,sa,tb->...mab", lam, m.values[..., :4, :4], lam_inv, lam_inv)
    if kappa != 0.0:
        four += np.einsum("a,...mb->...mab", a_low, theta) - np.einsum("b,...ma->...mab", a_low, theta)
    assert_allclose(got[..., :4, :4], four, **CLOSE)
    assert_allclose(got[..., 4, :4], theta, **CLOSE)
    assert_allclose(got[..., :4, 4], -theta, **CLOSE)
    assert np.all(got[..., 4, 4] == 0.0)


@PROPERTY
@given(SEEDS, st.sampled_from([0.0, 0.3, 0.5, 1.0, 2.0, -1.0]))
def test_moment_field_law_is_a_group_action(seed, kappa):
    m = wave_current(seed)
    rng = np.random.default_rng(seed)
    t1, t2 = suites.random_poincare(rng), suites.random_poincare(rng)
    once = transform_moment_field(m, t1.compose(t2), kappa).values
    twice = transform_moment_field(transform_moment_field(m, t2, kappa), t1, kappa).values
    assert relative(once, twice) <= 1e-12


@PROPERTY
@given(SEEDS, st.sampled_from([0.0, 0.5, 1.0, -1.0]))
def test_moment_kernels_hand_out_exactly_antisymmetric_currents(seed, kappa):
    # Each kernel writes the pairs A < B and mirrors them, so every current it
    # hands out has M == -M^T exactly and a +0 diagonal; the pair law is the
    # full congruence Lambda rep^T M rep to round-off.
    assembled = wave_current(seed)
    rng = np.random.default_rng(seed)
    s = rng.normal(size=assembled.values.shape) * 10.0 ** rng.integers(-3, 4, size=assembled.values.shape)
    given_current = FieldOnGrid(assembled.grid, s - np.swapaxes(s, -1, -2), basis="P")
    t = suites.random_poincare(rng)
    for m in (assembled, given_current):
        o = moment_to_orthonormal(m, kappa)
        moved = transform_moment_field(m, t, kappa)
        for out in (m, o, moment_to_parallel(o, kappa), moved):
            assert_array_equal(out.values, -np.swapaxes(out.values, -1, -2))
            diagonal = out.values[..., range(5), range(5)]
            assert np.all(diagonal == 0.0) and not np.any(np.signbit(diagonal))
        rep = homogeneous_rep(t, 0.0 if kappa == 0.0 else 1.0)
        full = np.einsum("mn,...nab->...mab", t.lam, rep.T @ m.values @ rep)
        assert np.max(np.abs(moved.values - full)) <= 1e-13 * np.max(np.abs(full))


@pytest.mark.parametrize("seed", [19, 248019633, 257])
def test_poincare_suite_passes_at_former_round_off_seeds(seed):
    # these seeds crossed former absolute 1e-12 gates: the group laws, then the tensor routes
    report = suites.run_suite("poincare", suites.SuiteOptions(seed=seed))
    assert report.passed, [(c.name, c.value) for c in report.checks if not c.passed]


# ------------------------------------------------ frame changes and tensors


def standard_changes(rng, shape):
    """Random standard changes (..., 5, 5): a well-conditioned four-block and 0.3 <= |L^5_5| <= 3."""
    m = np.zeros(shape + (5, 5))
    m[..., :4, :4] = suites.random_invertible(rng, 4, size=shape)
    m[..., 4, :4] = rng.normal(size=shape + (4,))
    m[..., 4, 4] = rng.choice([-1.0, 1.0], size=shape) * rng.uniform(0.3, 3.0, size=shape)
    return m


def relative(a, b):
    """Worst per-element max-norm distance relative to max(||a||, ||b||, 1)."""
    scale = np.maximum(np.maximum(np.max(np.abs(a), axis=(-2, -1)), np.max(np.abs(b), axis=(-2, -1))), 1.0)
    return float(np.max(np.max(np.abs(a - b), axis=(-2, -1)) / scale))


@PROPERTY
@given(SEEDS, LEADING)
def test_frame_changes_match_single_calls(seed, shape):
    rng = np.random.default_rng(seed)
    m = standard_changes(rng, shape)
    a, p, t = decompose_upm(m)
    got = {
        "inverse": invert(m),
        "induced": induced_four_map(m),
        "u": u_transformation(a),
        "p": p_transformation(p),
        "m": m_transformation(t),
        "composed": compose_upm(a, p, t),
    }
    assert np.all(is_standard_change(m))
    for idx in each(shape):
        one = m[idx]
        a1, p1, t1 = decompose_upm(one)
        assert is_standard_change(one)
        assert_allclose(got["inverse"][idx], invert(one), **CLOSE)
        assert_allclose(got["induced"][idx], induced_four_map(one), **CLOSE)
        assert_allclose((a[idx], *p[idx]), (a1, *p1), **CLOSE)
        assert_allclose(t[idx], t1, **CLOSE)
        assert_allclose(got["u"][idx], u_transformation(a1), **CLOSE)
        assert_allclose(got["p"][idx], p_transformation(p1), **CLOSE)
        assert_allclose(got["m"][idx], m_transformation(t1), **CLOSE)
        assert_allclose(got["composed"][idx], compose_upm(a1, p1, t1), **CLOSE)


@PROPERTY
@given(SEEDS, LEADING)
def test_upm_factors_compose_back_to_the_change(seed, shape):
    m = standard_changes(np.random.default_rng(seed), shape)
    a, p, t = decompose_upm(m)
    factors = (u_transformation(a), p_transformation(p), m_transformation(t))
    assert all(np.all(is_standard_change(f)) for f in factors)
    assert relative(factors[0] @ factors[1] @ factors[2], m) <= 1e-12
    assert relative(compose_upm(a, p, t), m) <= 1e-12
    assert relative(t, induced_four_map(m)) <= 1e-12


@PROPERTY
@given(SEEDS, LEADING, st.sampled_from([0.0, 0.5, 1.0, 2.0, -1.0]))
def test_parallel_frame_and_transport_match_single_calls(seed, shape, kappa):
    rng = np.random.default_rng(seed)
    x, y = rng.normal(size=(2,) + shape + (4,))
    v = rng.normal(size=shape + (5,))
    n = parallel_frame_change(x, kappa)
    metric = parallel_frame_metric(x, kappa)
    moved = transport(v, x, y, kappa)
    for idx in each(shape):
        n_x, n_y = parallel_frame_change(x[idx], kappa), parallel_frame_change(y[idx], kappa)
        assert_allclose(n[idx], n_x, **CLOSE)
        assert_allclose(metric[idx], parallel_frame_metric(x[idx], kappa), **CLOSE)
        assert_allclose(metric[idx], n_x.T @ ETA5 @ n_x, rtol=1e-12, atol=1e-12 * np.max(np.abs(metric[idx])))
        assert_allclose(moved[idx], transport(v[idx], x[idx], y[idx], kappa), **CLOSE)
        # the closed form N(y - x) against N(y) N(x)^-1
        route = n_y @ np.linalg.solve(n_x, v[idx])
        assert_allclose(moved[idx], route, rtol=1e-12, atol=1e-12 * np.max(np.abs(route)))
        if kappa != 0.0:
            back = coordinates_from_parallel_metric(metric[idx], kappa)
            assert_allclose(coordinates_from_parallel_metric(metric, kappa)[idx], back, **CLOSE)
            assert_allclose(back, x[idx], **CLOSE)


@PROPERTY
@given(SEEDS, LEADING, st.sampled_from([0.0, 0.5, 1.0, -1.0]))
def test_tensor_laws_and_coordinate_form_match_single_calls(seed, shape, kappa):
    rng = np.random.default_rng(seed)
    t, singles = poincare_batch(rng, shape)
    pt = build_param_tensor(rng.normal(size=shape + (4, 4)), rng.normal(size=shape + (4,)))
    omega = rng.normal(size=shape + (4, 4))
    gt = build_generator_tensor(omega - np.swapaxes(omega, -1, -2), rng.normal(size=shape + (4,)))
    x = rng.normal(size=shape + (4,))
    moved_pt = transform_param_tensor(pt, t)
    moved_gt = transform_generator_tensor(gt, t)
    p_dual, o_dual = coordinate_form(x, kappa)
    for idx, one in singles.items():
        assert_allclose(moved_pt[idx], transform_param_tensor(pt[idx], one), **CLOSE)
        assert_allclose(moved_gt[idx], transform_generator_tensor(gt[idx], one), **CLOSE)
        p1, o1 = coordinate_form(x[idx], kappa)
        assert_allclose(p_dual[idx], p1, **CLOSE)
        assert_allclose(o_dual[idx], o1, **CLOSE)


@PROPERTY
@given(SEEDS, LEADING, st.sampled_from([0.5, 1.0, 2.0, -1.0]))
def test_group_laws_of_rep_and_tensors(seed, shape, kappa):
    rng = np.random.default_rng(seed)
    (t1, _), (t2, _) = poincare_batch(rng, shape), poincare_batch(rng, shape)
    t12 = t1.compose(t2)
    pt = build_param_tensor(rng.normal(size=shape + (4, 4)), rng.normal(size=shape + (4,)))
    omega = rng.normal(size=shape + (4, 4))
    gt = build_generator_tensor(omega - np.swapaxes(omega, -1, -2), rng.normal(size=shape + (4,)))
    rep = homogeneous_rep(t12, kappa)
    assert relative(rep, homogeneous_rep(t2, kappa) @ homogeneous_rep(t1, kappa)) <= 1e-12
    twice = transform_param_tensor(transform_param_tensor(pt, t2), t1)
    assert relative(twice, transform_param_tensor(pt, t12)) <= 1e-12
    twice = transform_generator_tensor(transform_generator_tensor(gt, t2), t1)
    assert relative(twice, transform_generator_tensor(gt, t12)) <= 1e-12
    # the tensor laws are conjugations by the homogeneous representation
    rep1 = homogeneous_rep(t1, 1.0)
    assert relative(transform_param_tensor(pt, t1), np.linalg.solve(rep1, pt @ rep1)) <= 1e-12


def bad_stack(kind):
    """A (2, 3) batch whose element (1, 2) is broken in the named way."""
    rng = np.random.default_rng(5)
    if kind == "generator":
        omega = rng.normal(size=(2, 3, 4, 4))
        m = build_generator_tensor(omega - np.swapaxes(omega, -1, -2), rng.normal(size=(2, 3, 4)))
        m[1, 2, 0, 1] += 1.0
        return m
    m = standard_changes(rng, (2, 3))
    if kind == "singular":
        m[1, 2, :, 0] = m[1, 2, :, 1]
    else:  # the new fifth vector leaks into the four-space
        m[1, 2, 0, 4] = 0.5
    return m


@pytest.mark.parametrize(
    "build, kind, error",
    [
        (invert, "singular", SingularMatrix),
        (lambda m: induced_four_map(m), "leaky", NotStandard),
        (lambda m: decompose_upm(m), "leaky", NotStandard),
        pytest.param(
            lambda m: transform_generator_tensor(m, PoincareTransform(np.eye(4), np.zeros(4))),
            "generator",
            NotAntisymmetric,
            id="generator-NotAntisymmetric",
        ),
    ],
)
def test_one_bad_change_or_generator_is_named(build, kind, error):
    stack = bad_stack(kind)
    with pytest.raises(error) as batch_error:
        build(stack)
    with pytest.raises(error):
        build(stack[1, 2])
    build(stack[0])  # the untouched row passes
    assert str(batch_error.value).endswith("(element (1, 2))")


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda: is_standard_change(np.eye(4)), ShapeMismatch),
        (lambda: induced_four_map(np.eye(4)), ShapeMismatch),
        (lambda: is_standard_change(np.full((3, 5, 5), np.nan)), NotFinite),
        (lambda: induced_four_map(np.full((3, 5, 5), np.nan)), NotFinite),
        (
            lambda: transform_connection_field(
                flat_coefficients(1.0), bad_stack("singular")[:, :, None, None], np.eye(4), Grid((0.0,) * 4, (1.0,) * 4, (2, 3, 1, 1))
            ),
            SingularMatrix,
        ),
        (lambda: parallel_frame_change(np.zeros((3, 5)), 1.0), ShapeMismatch),
        (lambda: parallel_frame_metric([0.0, np.inf, 0.0, 0.0], 1.0), NotFinite),
        (lambda: transport(np.zeros((3, 4)), np.zeros(4), np.zeros(4), 1.0), ShapeMismatch),
        (lambda: transport(np.zeros(5), np.zeros(4), np.zeros(3), 1.0), ShapeMismatch),
        (lambda: transport(np.zeros(5), [np.nan] * 4, [1.0, 2.0], 1.0), NotFinite),
        (lambda: transport(np.zeros(5), np.zeros(4), [1.0, 2.0], 1.0), ShapeMismatch),
        (lambda: apply_metric_preserving(standard_gamma_set(), np.eye(4)), ShapeMismatch),
        (lambda: p_transformation(np.zeros((2, 5))), ShapeMismatch),
        (lambda: build_param_tensor(np.eye(4), np.zeros((2, 4))), ShapeMismatch),
        (lambda: build_generator_tensor(np.zeros((2, 4, 4)), np.zeros(4)), ShapeMismatch),
        (lambda: coordinate_form(np.zeros((2, 3))), ShapeMismatch),
        (lambda: wedge(np.ones((3, 5)), [0.0, 0.0, np.inf, 0.0, 0.0]), NotFinite),
        (lambda: is_simple(np.full((3, 5, 5), np.nan)), NotFinite),
        (lambda: directional_vector(np.full((2, 4, 5, 5), np.inf)), NotFinite),
        (lambda: bivector_inner(np.zeros((5, 5)), np.full((3, 5, 5), np.nan)), NotFinite),
        (lambda: bivector_from_four([np.nan, 0.0, 0.0, 0.0]), NotFinite),
        (lambda: four_from_bivector(np.full((5, 5), np.inf)), NotFinite),
        (lambda: orthonormal_basis_for(np.full((2, 4, 5, 5), np.nan)), NotFinite),
        (lambda: regular_basis_for(np.full((4, 5, 5), -np.inf)), NotFinite),
        pytest.param(
            lambda: transform_connection_field(
                flat_coefficients(1.0), bad_stack("singular")[:, :, None, None], np.eye(4), Grid((0.0,) * 4, (1.0,) * 4, (2, 3, 1, 1)), "upwind"
            ),
            SingularMatrix,
            id="singular-before-unknown-scheme",
        ),
    ],
)
def test_malformed_batched_input_raises_the_input_errors(call, error):
    with pytest.raises(error):
        call()


@pytest.mark.filterwarnings("error")
def test_simplicity_overflow_raises_not_finite_naming_the_element():
    wedges = lorentz_wedges(np.random.default_rng(4), (3,))
    # squares of entries near 1e150 stay finite, and the results match the unscaled ones
    assert np.all(is_simple(1e150 * wedges))
    assert_allclose(directional_vector(1e150 * wedges), directional_vector(wedges), **CLOSE)
    wedges[2] *= 1e300
    for call in (is_simple, directional_vector):
        with pytest.raises(NotFinite) as error:
            call(wedges)
        assert str(error.value) == "bivector square overflows (element (2, 0))"


def test_parallel_frame_transport_round_trips_at_large_kappa_x():
    rng = np.random.default_rng(8)
    x = rng.uniform(-1.0, 1.0, size=(50, 4)) * np.logspace(0, 6, 50)[:, None]
    x[-1] = 1e6  # N(x) is unit triangular, with condition number 4e12 here
    n, n_back = parallel_frame_change(x, 1.0), parallel_frame_change(-x, 1.0)
    assert_array_equal(n @ n_back, np.broadcast_to(np.eye(5), n.shape))
    v = rng.normal(size=(50, 5))
    back = transport(transport(v, np.zeros(4), x, 1.0), x, np.zeros(4), 1.0)
    assert_allclose(back, v, rtol=1e-9, atol=1e-9 * np.max(np.abs(v)))


# ------------------------------------------------ exponential and random draws


def generators(rng, eta, norms):
    """eta (a - a^T) for normal draws a, scaled to the given 1-norms (...)."""
    a = rng.normal(size=np.shape(norms) + eta.shape)
    g = eta @ (a - np.swapaxes(a, -1, -2))
    return g * (norms / np.max(np.sum(np.abs(g), axis=-2), axis=-1))[..., None, None]


@PROPERTY
@given(SEEDS, LEADING, st.sampled_from(["eta4", "eta5"]))
def test_expm_matches_scipy_and_preserves_eta(seed, shape, which):
    rng = np.random.default_rng(seed)
    eta = ETA4 if which == "eta4" else ETA5
    # 1-norms from 1e-3 to 12: no squaring up to theta_13 = 5.37, two at 12
    g = generators(rng, eta, 10.0 ** rng.uniform(-3.0, np.log10(12.0), shape))
    got = expm(g)
    want = scipy_expm(g)
    size = np.max(np.abs(want), axis=(-2, -1))
    assert np.all(np.max(np.abs(got - want), axis=(-2, -1)) <= 1e-11 * size)
    drift = np.max(np.abs(np.swapaxes(got, -1, -2) @ eta @ got - eta), axis=(-2, -1))
    assert np.all(drift <= 1e-13 * np.max(np.abs(got), axis=(-2, -1)) ** 2)


@PROPERTY
@given(SEEDS)
def test_expm_scales_each_element_on_its_own(seed):
    rng = np.random.default_rng(seed)
    # 0, 3, 0, 1, 2 and 0 squarings, side by side in a random order
    norms = rng.permutation([1e-3, 40.0, 0.5, 6.0, 11.9, 1e-8])
    g = generators(rng, ETA5, norms)
    stacked = expm(g)
    for i in range(len(norms)):
        assert_array_equal(stacked[i], expm(g[i]))


SIZES = [(), (7,), (2, 3), (300,)]


@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("n, cond_cap", [(5, 50.0), (5, 20.0), (4, 20.0)])
def test_invertible_draws_are_conditioned_stacks(size, n, cond_cap):
    got = suites.random_invertible(np.random.default_rng(7), n, cond_cap, size)
    assert got.shape == size + (n, n)
    assert np.all(np.linalg.cond(got) < cond_cap)
    assert_array_equal(suites.random_invertible(np.random.default_rng(7), n, cond_cap, size), got)
    # each round draws only the shortfall, so a stack holds what single calls draw
    rng = np.random.default_rng(7)
    singles = [suites.random_invertible(rng, n, cond_cap) for _ in range(int(np.prod(size)))]
    assert_array_equal(np.reshape(singles, got.shape), got)


@pytest.mark.parametrize("size", SIZES)
def test_metric_preserving_draws_are_stacks(size):
    for draw, eta in ((suites.random_lorentz, ETA4), (suites.random_metric_preserving5, ETA5)):
        got = draw(np.random.default_rng(7), size)
        assert got.shape == size + eta.shape
        assert_array_equal(draw(np.random.default_rng(7), size), got)
        drift = np.max(np.abs(np.swapaxes(got, -1, -2) @ eta @ got - eta), axis=(-2, -1))
        assert np.all(drift <= 1e-13 * np.max(np.abs(got), axis=(-2, -1)) ** 2)
    t = suites.random_poincare(np.random.default_rng(7), size)
    assert (t.lam.shape, t.a.shape) == (size + (4, 4), size + (4,))


# ------------------------------------------------------- property tests


@PROPERTY
@given(SEEDS)
def test_negate_direction_gives_the_negated_frame(seed):
    rng = np.random.default_rng(seed)
    for regular, build in ((False, orthonormal_basis_for), (True, regular_basis_for)):
        for quadruple in lorentz_wedges(rng, (4,), regular):
            assert_array_equal(build(quadruple, negate_direction=True), -build(quadruple))


@PROPERTY
@given(SEEDS, st.one_of(st.just(0.0), st.floats(-4.0, 4.0)))
def test_parallel_law_is_a_group_action_on_objects(seed, kappa):
    rng = np.random.default_rng(seed)
    pairs = suites.random_poincare(rng, (4, 2))
    vectors, forms = rng.normal(size=(2, 4, 5))
    for i in range(4):
        t1, t2 = (PoincareTransform(pairs.lam[i, j], pairs.a[i, j]) for j in (0, 1))
        for law, components in ((transform_parallel, vectors[i]), (transform_parallel_form, forms[i])):
            chained = law(law(components, t2, kappa), t1, kappa)
            direct = law(components, t1.compose(t2), kappa)
            scale = max(np.max(np.abs(direct)), 1.0)
            assert np.max(np.abs(chained - direct)) <= 1e-12 * scale
