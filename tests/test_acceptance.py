"""End-to-end acceptance checks.

Each test states one acceptance property and verifies it at its stated
tolerance, building its own random inputs and oracles from scratch.
"""

import math
import subprocess
import sys
import time

import numpy as np
import pytest
from scipy.linalg import expm

from pentavec.algebra import (
    ETA4,
    ETA5,
    bivector_inner,
    directional_vector,
    four_from_bivector,
    wedge,
)
from pentavec.bases import (
    compose_upm,
    decompose_upm,
    induced_four_map,
    orthonormal_basis_for,
    regular_basis_for,
)
from pentavec.clifford import (
    anticommutation_residual,
    apply_metric_preserving,
    dirac_from_gamma_set,
    standard_gamma_set,
)
from pentavec.connection import (
    ConnectionCoeffs,
    flat_coefficients,
    metric_derivative_report,
    metric_transport_identity_residual,
    parallel_frame_change,
    parallel_frame_metric,
    transform_connection_field,
    transport_compatibility,
)
from pentavec.errors import NotMaximalSpace
from pentavec.fileio import Record, emit_record, parse_record
from pentavec.grids import Grid
from pentavec.poincare import (
    PoincareTransform,
    build_generator_tensor,
    build_param_tensor,
    coordinate_form,
    homogeneous_rep,
    transform_generator_tensor,
    transform_param_tensor,
    transform_parallel,
    transform_parallel_form,
)
from pentavec.stress_energy import (
    assemble_moment_field,
    conservation_report,
    constant_stress_samples,
    moment_to_orthonormal,
    plane_wave_stress_samples,
)
from pentavec.suites import _nonlinear_change_field

E5 = np.eye(5)


def rand_lorentz(rng, scale=0.35):
    a = rng.normal(size=(4, 4)) * scale
    return expm(ETA4 @ (a - a.T))


def rand_o32(rng, scale=0.3):
    a = rng.normal(size=(5, 5)) * scale
    return expm(ETA5 @ (a - a.T))


def rand_poincare(rng):
    return PoincareTransform(rand_lorentz(rng), rng.normal(size=4))


def reference_wedges():
    return wedge(E5[:4], E5[4])


def mixed_wedges(four_map):
    base = reference_wedges()
    return np.array([sum(four_map[nu, mu] * base[nu] for nu in range(4)) for mu in range(4)])


def test_criterion_1_clifford_suite():
    gs = standard_gamma_set()
    assert anticommutation_residual(gs) == 0.0

    dirac = dirac_from_gamma_set(gs)
    eye = np.eye(4, dtype=complex)
    worst = 0.0
    for mu in range(4):
        for nu in range(4):
            anti = dirac[mu] @ dirac[nu] + dirac[nu] @ dirac[mu]
            worst = max(worst, float(np.max(np.abs(anti - 2.0 * ETA4[mu, nu] * eye))))
    assert worst <= 1e-12

    rng = np.random.default_rng(101)
    closure = 0.0
    for _ in range(200):
        mixed = apply_metric_preserving(gs, rand_o32(rng))
        closure = max(closure, anticommutation_residual(mixed))
    assert closure < 1e-11
    print("criterion 1: PASS (anticommutation exact, reduction 1e-12, closure under 200 maps)")


def test_criterion_2_directional_recovery():
    rng = np.random.default_rng(102)
    done = 0
    worst = 0.0
    while done < 1000:
        a = rng.normal(size=(5, 5))
        if np.linalg.cond(a) > 100.0:
            continue
        wedges = [wedge(a[:, mu], a[:, 4]) for mu in range(4)]
        found = directional_vector(wedges)
        cos = abs(found @ a[:, 4]) / (np.linalg.norm(found) * np.linalg.norm(a[:, 4]))
        worst = max(worst, 1.0 - cos)
        done += 1
    assert worst <= 1e-9

    crossed = [
        wedge(E5[:, 0], E5[:, 1]),
        wedge(E5[:, 2], E5[:, 3]),
        wedge(E5[:, 0], E5[:, 2]),
        wedge(E5[:, 1], E5[:, 3]),
    ]
    with pytest.raises(NotMaximalSpace):
        directional_vector(crossed)
    print(f"criterion 2: PASS (1000 recoveries, worst 1-cos {worst:.2e}; counterexample rejected)")


def test_criterion_3_induced_metric():
    rng = np.random.default_rng(103)
    worst = 0.0
    for _ in range(100):
        cols = rand_o32(rng)
        wedges = [wedge(cols[:, mu], cols[:, 4]) for mu in range(4)]
        gram = np.array([[bivector_inner(x, y) for y in wedges] for x in wedges])
        worst = max(worst, float(np.max(np.abs(gram - ETA4))))
    assert worst <= 1e-12

    flipped = np.diag([1.0, 1.0, -1.0, -1.0, -1.0])
    base = reference_wedges()
    gram = np.array([[bivector_inner(x, y, flipped) for y in base] for x in base])
    assert np.array_equal(gram, np.diag([-1.0, -1.0, 1.0, 1.0]))
    print(f"criterion 3: PASS (orthonormal gram worst {worst:.2e}; flipped-norm pattern exact)")


def test_criterion_4_basis_suite():
    rng = np.random.default_rng(104)

    worst = 0.0
    for _ in range(250):
        basis = orthonormal_basis_for(mixed_wedges(rand_lorentz(rng)))
        gram = basis.T @ ETA5 @ basis
        worst = max(worst, float(np.max(np.abs(gram - ETA5))))
        inputs = mixed_wedges(rand_lorentz(rng))  # fresh pair for reproduction check
        basis = orthonormal_basis_for(inputs)
        for mu in range(4):
            got = wedge(basis[:, mu], basis[:, 4])
            worst = max(worst, float(np.max(np.abs(got - inputs[mu]))))
    for _ in range(250):
        t = rng.normal(size=(4, 4)) + np.eye(4) * 3.0
        inputs = mixed_wedges(t)
        basis = regular_basis_for(inputs)
        gram = basis.T @ ETA5 @ basis
        worst = max(worst, abs(gram[4, 4] - 1.0), float(np.max(np.abs(gram[:4, 4]))))
        scale = max(1.0, float(np.max(np.abs(t))))
        for mu in range(4):
            got = wedge(basis[:, mu], basis[:, 4])
            worst = max(worst, float(np.max(np.abs(got - inputs[mu]))) / scale)
    assert worst <= 1e-9

    # uniqueness up to one overall sign
    inputs = mixed_wedges(rand_lorentz(rng))
    plus = orthonormal_basis_for(inputs)
    again = orthonormal_basis_for(inputs)
    minus = orthonormal_basis_for(inputs, negate_direction=True)
    assert np.array_equal(plus, again)
    assert np.max(np.abs(plus + minus)) <= 1e-12

    upm_worst = 0.0
    for _ in range(500):
        change = compose_upm(
            float(rng.choice([-1.0, 1.0]) * rng.uniform(0.3, 3.0)),
            rng.normal(size=4),
            rng.normal(size=(4, 4)) + np.eye(4) * 3.0,
        )
        upm_worst = max(
            upm_worst, float(np.max(np.abs(compose_upm(*decompose_upm(change)) - change)))
        )
    assert upm_worst < 1e-12

    map_worst = 0.0
    for _ in range(100):
        change = compose_upm(float(rng.uniform(0.5, 2.0)), rng.normal(size=4), rand_lorentz(rng))
        lam = induced_four_map(change)
        # the reference frame is the identity, so the moved frame's columns are the change's
        for mu in range(4):
            b = wedge(change[:, mu], change[:, 4])
            coeffs = four_from_bivector(b)
            map_worst = max(map_worst, float(np.max(np.abs(coeffs - lam[:, mu]))))
    assert map_worst <= 1e-9
    print(
        "criterion 4: PASS (500 constructions worst "
        f"{worst:.2e}; sign pair exact; UPM {upm_worst:.2e}; induced map {map_worst:.2e})"
    )


def test_criterion_5_connection_suite():
    kappa = 1.0
    flat = flat_coefficients(kappa)

    assert transport_compatibility(flat, np.zeros((4, 4, 4))) == (0.0, 0.0)

    grid = Grid(origin=(-0.5,) * 4, spacing=(1.0 / 6.0,) * 4, shape=(7, 7, 7, 7))
    coords = grid.coords()
    change = np.zeros(grid.shape + (5, 5))
    change[...] = np.eye(5)
    change[..., 4, :4] = kappa * np.einsum("ab,...b->...a", ETA4, coords)
    transformed = transform_connection_field(flat, change, np.eye(4), grid)
    vanish = float(np.max(np.abs(transformed[grid.interior(1)])))
    assert vanish <= 1e-12

    resid = []
    for n in (17, 33):
        g = Grid(
            origin=(0.0,) * 4,
            spacing=(1.0 / (n - 1),) * 2 + (1.0, 1.0),
            shape=(n, n, 1, 1),
        )
        change, d_change = _nonlinear_change_field(g, kappa)
        fd = transform_connection_field(flat, change, np.eye(4), g, "central2")
        linv = np.linalg.inv(change)
        exact = np.einsum("...ac,cdn,...db->...abn", linv, flat.values, change)
        exact = exact + np.einsum("...ac,...cbn->...abn", linv, d_change)
        resid.append(float(np.max(np.abs((fd - exact)[g.interior(1)]))))
    order = math.log2(resid[0] / resid[1])
    assert order >= 1.9

    rng = np.random.default_rng(105)
    metric_worst = 0.0
    for _ in range(20):
        x = rng.normal(size=4)
        n = parallel_frame_change(x, kappa)
        metric_worst = max(
            metric_worst, float(np.max(np.abs(n.T @ ETA5 @ n - parallel_frame_metric(x, kappa))))
        )
    assert metric_worst <= 1e-12

    small = Grid(origin=(-0.5,) * 4, spacing=(0.25,) * 4, shape=(5, 5, 5, 5))
    o_worst = metric_derivative_report(flat, ETA5, kappa, ETA4, small)
    assert o_worst < 1e-12

    sample_grid = Grid(origin=(-0.5,) * 4, spacing=(0.5,) * 4, shape=(3, 3, 3, 3))
    sample_coords = sample_grid.coords()
    abstract_worst = 0.0
    for trial in range(20):
        fields = []
        for _ in range(2):
            lin = np.einsum("...m,am->...a", sample_coords, rng.normal(size=(5, 4)))
            quad = np.einsum(
                "...m,...n,amn->...a", sample_coords, sample_coords, rng.normal(size=(5, 4, 4))
            )
            fields.append(rng.normal(size=5) + lin + 0.5 * quad)
        abstract_worst = max(
            abstract_worst,
            metric_transport_identity_residual(
                rng.normal(size=4), fields[0], fields[1], 1.4 * E5[:, 4], flat, kappa
            ),
        )
    assert abstract_worst < 1e-9
    print(
        "criterion 5: PASS (flat constraints exact; vanish "
        f"{vanish:.2e}; order {order:.2f}; frame metric {metric_worst:.2e}; "
        f"identities {o_worst:.2e} / {abstract_worst:.2e})"
    )


def test_criterion_6_poincare_suite():
    rng = np.random.default_rng(106)
    kappa = 1.0

    comp_worst = 0.0
    for _ in range(500):
        t1, t2 = rand_poincare(rng), rand_poincare(rng)
        v = rng.normal(size=5)
        w = rng.normal(size=5)
        chained = transform_parallel(transform_parallel(v, t2, kappa), t1, kappa)
        direct = transform_parallel(v, t1.compose(t2), kappa)
        comp_worst = max(comp_worst, float(np.max(np.abs(chained - direct))))
        chained_w = transform_parallel_form(transform_parallel_form(w, t2, kappa), t1, kappa)
        direct_w = transform_parallel_form(w, t1.compose(t2), kappa)
        comp_worst = max(comp_worst, float(np.max(np.abs(chained_w - direct_w))))
    assert comp_worst <= 1e-12

    for _ in range(100):
        _, o_dual = coordinate_form(rng.normal(size=4), kappa)
        assert np.array_equal(o_dual, np.array([0.0, 0.0, 0.0, 0.0, 1.0]))

    tensor_worst = 0.0
    for _ in range(300):
        t = rand_poincare(rng)
        rep = homogeneous_rep(t, 1.0)
        pt = build_param_tensor(rng.normal(size=(4, 4)) + np.eye(4), rng.normal(size=4))
        blockwise = transform_param_tensor(pt, t)
        route = np.linalg.solve(rep, pt @ rep)
        tensor_worst = max(tensor_worst, float(np.max(np.abs(blockwise - route))))

        omega = rng.normal(size=(4, 4))
        gt = build_generator_tensor(omega - omega.T, rng.normal(size=4))
        rep_inv = np.linalg.inv(rep)
        route = rep_inv @ gt @ rep_inv.T
        moved = transform_generator_tensor(gt, t)
        tensor_worst = max(tensor_worst, float(np.max(np.abs(moved - route))))
    assert tensor_worst <= 1e-12
    print(
        "criterion 6: PASS (composition "
        f"{comp_worst:.2e} over 500 pairs; O-dual exact over 100 charts; tensor laws {tensor_worst:.2e})"
    )


def wave_grid(n):
    h = 1.0 / (n - 1)
    return Grid(origin=(0.0,) * 4, spacing=(h, h, h, 1.0), shape=(n, n, n, 1))


def test_criterion_7_conservation_suite():
    kappa = 1.0
    k = np.array([np.sqrt(8.0), 2.0, 2.0, 0.0])

    residuals = {"P": [], "O": []}
    for n in (17, 33):
        grid = wave_grid(n)
        theta, sigma = plane_wave_stress_samples(k, grid)
        current = assemble_moment_field(theta, sigma, grid)
        residuals["P"].append(conservation_report(current, kappa, "central2").worst())
        o_current = moment_to_orthonormal(current, kappa)
        residuals["O"].append(conservation_report(o_current, kappa, "central2").worst())

    orders = {frame: math.log2(pair[0] / pair[1]) for frame, pair in residuals.items()}
    assert orders["P"] >= 1.9
    assert orders["O"] >= 1.9
    ratio = max(residuals["P"][1], residuals["O"][1]) / min(residuals["P"][1], residuals["O"][1])
    assert ratio <= 2.0

    grid = wave_grid(9)
    theta, sigma = constant_stress_samples(np.diag([1.0, 0.3, 0.3, 0.3]), grid)
    current = assemble_moment_field(theta, sigma, grid)
    # 0.3 is no power of two, so a normalized row formed as (kappa x) / kappa
    # would round; the orbital part must still drop out exactly.
    for kappa in (1.0, 0.3):
        o_current = moment_to_orthonormal(current, kappa)
        assert np.array_equal(o_current.values[..., :4, :4], sigma)
        assert conservation_report(current, kappa, "central2").worst() == 0.0
        assert conservation_report(o_current, kappa, "central2").worst() == 0.0
    print(
        "criterion 7: PASS (orders P "
        f"{orders['P']:.2f} / O {orders['O']:.2f}; frame ratio {ratio:.2f}; constant case exact)"
    )


def test_criterion_8_cli_and_round_trip():
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-m", "pentavec", "verify", "all", "--seed", "42"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    elapsed = time.monotonic() - start
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "overall: PASS" in proc.stdout
    assert elapsed < 60.0

    rng = np.random.default_rng(108)
    vec = Record("five_vector", rng.normal(size=5) * 1e3, basis="O", kappa=0.3)
    text = emit_record(vec)
    assert emit_record(parse_record(text)) == text
    grid = Grid(origin=(0.1, 0.0, -0.5, 1.0 / 3.0), spacing=(0.25, 1.0, 0.7, 1.0), shape=(2, 1, 2, 1))
    field = Record(
        "moment_field", rng.normal(size=grid.shape + (4, 5, 5)), basis="P", kappa=1.0, grid=grid
    )
    text = emit_record(field)
    assert emit_record(parse_record(text)) == text
    print(f"criterion 8: PASS (verify all --seed 42 exited 0 in {elapsed:.1f}s; round trips bit-exact)")
