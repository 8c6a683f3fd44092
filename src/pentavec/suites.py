"""Self-checking suites behind ``pentavec verify``.

Each suite ``*_suite(options, rng)`` re-derives a family of guarantees from
random draws of ``rng`` and yields one gated ``CheckResult`` per check.
``run_suite`` seeds ``rng`` at ``options.seed`` plus the suite's place in
``SUITE_NAMES`` and collects the checks into a ``SuiteReport``.  Most checks
pass when a max residual is at most the gate (mode "at-most").  Gates that
follow a rule are named once: ``EXACT`` for indicator and exact checks, and
``ORDER_SHARE`` of the scheme's nominal order for the convergence orders of
``_order`` (mode "at-least").
Every other gate is a literal on the line that names its check.

The conservation suite compares a plane wave's divergence on one N-point grid
with its exact discrete value, ``stress_energy.plane_wave_divergence``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import algebra, bases, clifford, connection, poincare, stress_energy
from .algebra import ETA4, ETA5, DirectionalClass, eta_dot
from .errors import NotMaximalSpace, NotO32, PentavecError
from .grids import FieldOnGrid, Grid, scheme_width
from .numerics import check_kappa, expm, invert, max_norm


@dataclass(frozen=True)
class CheckResult:
    name: str
    value: float
    gate: float
    mode: str = "at-most"

    @property
    def passed(self) -> bool:
        if self.mode == "at-least":
            return self.value >= self.gate
        return self.value <= self.gate


@dataclass(frozen=True)
class SuiteReport:
    name: str
    checks: tuple

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


# The wave grid holds N^3 samples; its P current and O change (29 MB each at
# N = 33) are alive together.  `verify conservation --grid 33` peaks at 119 MB
# RSS in 0.35 s under central2 and 118 MB in 0.31 s under central4, and `verify
# all` at 51 MB.  Medians of 5 runs, 2-vCPU x86_64, Python 3.11, numpy 2.4.
MAX_GRID = 33


@dataclass(frozen=True)
class SuiteOptions:
    seed: int = 42
    kappa: float = 1.0
    grid_n: int = 17
    scheme: str = "central2"

    def __post_init__(self):
        if self.seed < 0:
            raise PentavecError(f"seed must be non-negative, got {self.seed}")
        check_kappa(self.kappa)
        if not 2 <= self.grid_n <= MAX_GRID:
            raise PentavecError(f"grid resolution must be between 2 and {MAX_GRID}, got {self.grid_n}")


def _generator(rng, eta: np.ndarray, scale: float, size: tuple) -> np.ndarray:
    """eta (a - a^T) for normal draws a, stacked size + eta.shape; its exponential preserves eta."""
    a = rng.normal(0.0, scale, size + eta.shape)
    return eta @ (a - np.swapaxes(a, -1, -2))


def random_lorentz(rng, size: tuple = ()) -> np.ndarray:
    """Random proper Lorentz matrices (size + (4, 4)) from antisymmetric generators."""
    return expm(_generator(rng, ETA4, 0.35, size))


def random_metric_preserving5(rng, size: tuple = ()) -> np.ndarray:
    """Random five-metric-preserving matrices (size + (5, 5)), same construction one size up."""
    return expm(_generator(rng, ETA5, 0.3, size))


def random_invertible(rng, n: int, cond_cap: float = 50.0, size: tuple = ()) -> np.ndarray:
    """Normal (n, n) draws whose condition number is below ``cond_cap``, stacked size + (n, n).

    Rejection sampling: each round draws as many candidates as are still
    missing and keeps those whose singular-value ratio is below the cap.
    The last candidate drawn is therefore always kept, so a stack holds the
    matrices that as many single calls would draw.
    """
    count = math.prod(size)
    accepted = np.empty((0, n, n))
    while len(accepted) < count:
        m = rng.normal(0.0, 1.0, (count - len(accepted), n, n))
        sigma = np.linalg.svd(m, compute_uv=False)
        accepted = np.concatenate([accepted, m[sigma[:, 0] / sigma[:, -1] < cond_cap]])
    return accepted.reshape(size + (n, n))


def random_poincare(rng, size: tuple = ()) -> poincare.PoincareTransform:
    """Random Poincare transforms on the leading axes ``size``: a Lorentz part and a normal translation."""
    return poincare.PoincareTransform(random_lorentz(rng, size), rng.normal(0.0, 1.0, size + (4,)))


EXACT = 0.0
# An observed order passes at this share of the scheme's nominal order
# 2 * scheme_width(scheme): 1.9 under central2 and 3.8 under central4.
ORDER_SHARE = 0.95


def _indicator(ok: bool) -> float:
    return 0.0 if ok else 1.0


def _rejects(error, call, *args) -> float:
    """0.0 when ``call(*args)`` raises ``error``, 1.0 when it returns."""
    try:
        call(*args)
    except error:
        return 0.0
    return 1.0


def _order(name: str, residuals, scheme: str) -> CheckResult:
    """Observed order log2(r_N / r_2N-1) from the residuals at resolutions N and 2N - 1."""
    gate = ORDER_SHARE * 2 * scheme_width(scheme)
    return CheckResult(name, math.log2(residuals[0] / residuals[1]), gate, mode="at-least")


def _relative(a, b, ndim: int) -> float:
    """Worst max-norm distance of a and b relative to max(||a||, ||b||, 1).

    Each sample, the block of the last ``ndim`` axes, is measured on its own.
    """
    axes = tuple(range(-ndim, 0))
    scale = np.maximum(np.maximum(np.max(np.abs(a), axis=axes), np.max(np.abs(b), axis=axes)), 1.0)
    return float(np.max(np.max(np.abs(a - b), axis=axes) / scale))


# ---------------------------------------------------------------- algebra

def algebra_suite(options: SuiteOptions, rng):
    pairs = rng.normal(size=(200, 2, 5))
    b = algebra.wedge(pairs[:, 0], pairs[:, 1])
    yield CheckResult("wedge-antisymmetry", max_norm(b + np.swapaxes(b, -1, -2)), EXACT)

    pairs = rng.normal(size=(500, 2, 5))
    b = algebra.wedge(pairs[:, 0], pairs[:, 1])
    scale = np.maximum(np.max(np.abs(b), axis=(-2, -1)) ** 2, 1e-300)
    worst = float(np.max(np.max(np.abs(algebra._wedge_square_dual(b)), axis=-1) / scale))
    yield CheckResult("wedge-square-vanishes", worst, 1e-12)

    vecs = rng.normal(size=(200, 4, 5))
    b = algebra.wedge(vecs[:, 0], vecs[:, 1]) + algebra.wedge(vecs[:, 2], vecs[:, 3])
    dependent = np.linalg.matrix_rank(vecs) < 4
    bad = _indicator(np.array_equal(algebra.is_simple(b), dependent))
    yield CheckResult("simplicity-matches-rank", bad, EXACT)

    a = random_invertible(rng, 5, size=(1000,))
    wedges = algebra.wedge(np.swapaxes(a[:, :, :4], 1, 2), a[:, None, :, 4])
    found = algebra.directional_vector(wedges)
    target = a[:, :, 4]
    cos = np.abs(np.sum(found * target, axis=-1)) / (
        np.linalg.norm(found, axis=-1) * np.linalg.norm(target, axis=-1)
    )
    yield CheckResult("direction-recovery", float(np.max(1.0 - cos)), 1e-9)

    e = np.eye(5)
    crossed = algebra.wedge(e[[0, 2, 0, 1]], e[[1, 3, 2, 3]])
    yield CheckResult("non-maximal-rejected", _rejects(NotMaximalSpace, algebra.directional_vector, crossed), EXACT)

    ref_wedges = algebra.wedge(e[:4], e[4])
    gram = algebra.bivector_inner(ref_wedges[:, None], ref_wedges[None, :])
    yield CheckResult("induced-metric-orthonormal", max_norm(gram - ETA4), 1e-12)

    h_flip = np.diag([1.0, 1.0, -1.0, -1.0, -1.0])
    gram_flip = algebra.bivector_inner(ref_wedges[:, None], ref_wedges[None, :], h_flip)
    expected = np.diag([-1.0, -1.0, 1.0, 1.0])
    yield CheckResult("induced-metric-flipped-fifth", max_norm(gram_flip - expected), 1e-12)

    u, v, w = np.moveaxis(rng.normal(size=(200, 3, 5)), 1, 0)
    lhs = algebra.bivector_inner(algebra.wedge(u, w), algebra.wedge(v, w))
    rhs = eta_dot(u, v) * eta_dot(w, w) - eta_dot(u, w) * eta_dot(v, w)
    yield CheckResult("induced-metric-closed-form", max_norm(lhs - rhs), 1e-9)

    ok = (
        algebra.classify_directional(e[:, 4]) is DirectionalClass.POSITIVE
        and algebra.classify_directional(e[:, 1]) is DirectionalClass.NEGATIVE
        and algebra.classify_directional(e[:, 1] + e[:, 4]) is DirectionalClass.NULL
    )
    yield CheckResult("direction-classification", _indicator(ok), EXACT)

    u4 = rng.normal(size=(200, 4))
    b = algebra.bivector_from_four(u4)
    back = algebra.four_from_bivector(b)
    yield CheckResult("four-embedding-roundtrip", max_norm(back - u4), EXACT)


# ------------------------------------------------------------------ bases

def _standard_changes(rng, n: int) -> np.ndarray:
    """n random standard changes (n, 5, 5): a conditioned four-block, a normal
    bottom row, and L^5_5 redrawn until |L^5_5| >= 0.1."""
    m = np.zeros((n, 5, 5))
    m[:, :4, :4] = random_invertible(rng, 4, size=(n,))
    m[:, 4] = rng.normal(size=(n, 5))
    while np.any(small := np.abs(m[:, 4, 4]) < 0.1):
        m[small, 4, 4] = rng.normal(size=np.count_nonzero(small))
    return m


def _conjugated_wedges(rng, n: int, regular: bool = False) -> np.ndarray:
    """Wedges (n, 4, 5, 5) of transformed felt bases: columns mixed by a random
    Lorentz matrix (an invertible one if ``regular``), then mapped through a
    random five-metric-preserving matrix."""
    mix = random_invertible(rng, 4, cond_cap=20.0, size=(n,)) if regular else random_lorentz(rng, (n,))
    cols = random_metric_preserving5(rng, (n,))
    mixed = cols[..., :4] @ mix
    return algebra.wedge(np.swapaxes(mixed, -1, -2), cols[..., None, :, 4])


def bases_suite(options: SuiteOptions, rng):
    l = _standard_changes(rng, 100)
    leaky = l.copy()
    leaky[:, 1, 4] = 0.5
    ok = np.all(bases.is_standard_change(l)) and not np.any(bases.is_standard_change(leaky))
    yield CheckResult("standard-criterion", _indicator(ok), EXACT)

    l = _standard_changes(rng, 500)
    lam = bases.induced_four_map(l)
    # the reference basis is the identity, so the changed frame's columns are L's
    b = algebra.wedge(np.swapaxes(l[:, :, :4], 1, 2), l[:, None, :, 4])
    coeffs = algebra.four_from_bivector(b)
    yield CheckResult("induced-map-vs-wedges", max_norm(coeffs - np.swapaxes(lam, 1, 2)), EXACT)

    l = _standard_changes(rng, 500)
    linv = invert(l)
    worst = max(max_norm(linv[:, :4, 4]), max_norm(l[:, 4, 4] * linv[:, 4, 4] - 1.0))
    yield CheckResult("standard-inverse-identities", worst, 1e-10)

    l = _standard_changes(rng, 500)
    a, p, t = bases.decompose_upm(l)
    worst = max(max_norm(bases.compose_upm(a, p, t) - l), max_norm(t - bases.induced_four_map(l)))
    yield CheckResult("upm-roundtrip", worst, 1e-12)

    t = random_invertible(rng, 4)
    resid = max(
        max_norm(bases.induced_four_map(bases.u_transformation(1.7)) - np.eye(4)),
        max_norm(bases.induced_four_map(bases.p_transformation([0.2, -1.0, 0.4, 2.0])) - np.eye(4)),
        max_norm(bases.induced_four_map(bases.m_transformation(t)) - t),
    )
    yield CheckResult("upm-block-actions", resid, 1e-13)

    wedges = _conjugated_wedges(rng, 500)
    r = bases.frame_residuals(bases.orthonormal_basis_for(wedges), wedges)
    yield CheckResult("orthonormal-construction", max_norm(np.maximum(r.orthonormal, r.wedge)), 1e-9)

    wedges = _conjugated_wedges(rng, 500, regular=True)
    r = bases.frame_residuals(bases.regular_basis_for(wedges), wedges)
    yield CheckResult("regular-construction", max_norm(np.maximum(r.regular, r.wedge)), 1e-9)

    wedges = _conjugated_wedges(rng, 50)
    plus = bases.orthonormal_basis_for(wedges)
    minus = bases.orthonormal_basis_for(wedges, negate_direction=True)
    yield CheckResult("construction-sign-pair", max_norm(plus + minus), EXACT)

    wedges = _conjugated_wedges(rng, 50)
    via_regular = bases.regular_basis_for(wedges)
    direct = bases.orthonormal_basis_for(wedges)
    yield CheckResult("regular-reduces-to-orthonormal", max_norm(via_regular - direct), 1e-9)

    flipped = np.eye(5)
    flipped[:, [0, 1]] = flipped[:, [1, 0]]
    ok = (
        bases.orientation_sign(np.eye(5)) == 1
        and bases.orientation_sign(-np.eye(5)) == -1
        and bases.orientation_sign(flipped) == -1
    )
    yield CheckResult("orientation-signs", _indicator(ok), EXACT)


# --------------------------------------------------------------- clifford

def clifford_suite(options: SuiteOptions, rng):
    gs = clifford.standard_gamma_set()

    yield CheckResult("anticommutation-exact", clifford.anticommutation_residual(gs), EXACT)

    gammas = clifford.dirac_from_gamma_set(gs)
    yield CheckResult("dirac-reduction", max_norm(np.abs(gammas - clifford.dirac_gammas())), EXACT)

    resid = clifford.anticommutators(gammas) - 2.0 * ETA4[:, :, None, None] * np.eye(4)
    yield CheckResult("dirac-anticommutation", max_norm(resid), EXACT)

    o = random_metric_preserving5(rng, (200,))
    closure = clifford.anticommutation_residual(clifford.apply_metric_preserving(gs, o))
    yield CheckResult("metric-preserving-closure", max_norm(closure), 1e-11)

    rejected = _rejects(NotO32, clifford.apply_metric_preserving, gs, np.diag([2.0, 1.0, 1.0, 1.0, 1.0]))
    yield CheckResult("non-preserving-rejected", rejected, EXACT)

    lam = random_lorentz(rng, (100,))
    o = np.tile(np.eye(5), (100, 1, 1))
    o[:, :4, :4] = lam
    reduced = clifford.dirac_from_gamma_set(clifford.apply_metric_preserving(gs, o))
    expected = np.einsum("snm,nij->smij", lam, gammas)
    yield CheckResult("reduction-transforms-as-vector", max_norm(reduced - expected), 1e-11)


# ------------------------------------------------------------- connection

def _nonlinear_change_field(grid: Grid, kappa: float):
    """Nonlinear standard-change field with its analytic derivative.

    The four-block is exp(s(x) K) for a constant generator K (a boost
    plane, a rotation plane and a dilation), so its derivative is
    exp(sK) K s'.  Varies only along the first two axes so coarse grids
    with singleton trailing axes still resolve every derivative the field
    actually has.
    """
    a, b, p, q = 0.9, 0.4, 0.15, -0.1
    k_gen = np.array(
        [
            [p, 0.0, 0.0, b],
            [0.0, q, a, 0.0],
            [0.0, -a, q, 0.0],
            [b, 0.0, 0.0, p],
        ]
    )
    coords = grid.coords()
    phase = 0.7 * coords[..., 0] + 1.3 * coords[..., 1]
    s = 0.4 * np.sin(phase)
    ds = np.zeros(grid.shape + (4,))
    ds[..., 0] = 0.4 * 0.7 * np.cos(phase)
    ds[..., 1] = 0.4 * 1.3 * np.cos(phase)

    exp_sk = expm(s[..., None, None] * k_gen)

    eta_proj = ETA4 @ np.diag([1.0, 1.0, 0.0, 0.0])
    y_low = np.einsum("ab,...b->...a", eta_proj, coords)
    # L = N(y) M(exp(sK)), N the parallel-frame change at y = (x0, x1, 0, 0)
    n_y = connection.parallel_frame_change(coords * [1.0, 1.0, 0.0, 0.0], kappa)
    change = n_y @ bases.m_transformation(exp_sk)

    d_exp = np.einsum("...ik,kj,...m->...ijm", exp_sk, k_gen, ds, optimize=True)
    d_change = np.zeros(grid.shape + (5, 5, 4))
    d_change[..., :4, :4, :] = d_exp
    d_change[..., 4, :4, :] = kappa * (
        np.einsum("am,...ab->...bm", eta_proj, exp_sk)
        + np.einsum("...a,...abm->...bm", y_low, d_exp)
    )
    return change, d_change


def connection_suite(options: SuiteOptions, rng):
    kappa = options.kappa
    scheme = options.scheme

    flat = connection.flat_coefficients(kappa)
    worst = max(connection.transport_compatibility(flat, np.zeros((4, 4, 4))))
    yield CheckResult("flat-standard-compatibility", worst, 1e-15)

    x = rng.normal(size=(200, 4))
    n = connection.parallel_frame_change(x, kappa)
    metric = connection.parallel_frame_metric(x, kappa)
    worst = max_norm(np.swapaxes(n, 1, 2) @ ETA5 @ n - metric)
    if kappa != 0.0:
        worst = max(worst, max_norm(connection.coordinates_from_parallel_metric(metric, kappa) - x))
    yield CheckResult("parallel-frame-metric", worst, 1e-12)

    if kappa != 0.0:
        s, s_inv = np.diag([1.0, 1.0, 1.0, 1.0, kappa]), np.diag([1.0, 1.0, 1.0, 1.0, 1.0 / kappa])
        unit = connection.normalized_kappa(kappa)
        frames = _relative(s_inv @ n @ s, connection.parallel_frame_change(x, unit), 2)
        rescaled = np.einsum("ac,cbm,bd->adm", s_inv, flat.values, s)
        worst = max(frames, max_norm(rescaled - connection.flat_coefficients(unit).values))
        yield CheckResult("kappa-normalization", worst, 1e-14)

    grid = Grid(origin=(-0.5,) * 4, spacing=(1.0 / 6.0,) * 4, shape=(7, 7, 7, 7))
    n_field = connection.parallel_frame_change(grid.coords(), kappa)
    transformed = connection.transform_connection_field(flat, n_field, np.eye(4), grid, scheme)
    sel = grid.interior(scheme_width(scheme))
    yield CheckResult("parallel-coefficients-vanish", max_norm(transformed[sel]), 1e-12)

    # The order is read between two fixed grids, not --grid, which sets the
    # conservation suite's wave grid: a coarser pair is not yet in the
    # scheme's asymptotic range.
    orders = []
    for resolution in (17, 33):
        g = Grid(
            origin=(0.0, 0.0, 0.0, 0.0),
            spacing=(1.0 / (resolution - 1),) * 2 + (1.0, 1.0),
            shape=(resolution, resolution, 1, 1),
        )
        change, d_change = _nonlinear_change_field(g, kappa)
        fd = connection.transform_connection_field(flat, change, np.eye(4), g, scheme)
        linv = np.linalg.inv(change)
        exact = np.einsum("...ac,cdn,...db->...abn", linv, flat.values, change, optimize=True)
        exact = exact + np.einsum("...ac,...cbn->...abn", linv, d_change)
        sel = g.interior(scheme_width(scheme))
        orders.append(max_norm((fd - exact)[sel]))
    yield _order("transform-convergence-order", orders, scheme)

    # Reference: RK4 of du/dt = -G(u, dx) along each straight path, all
    # samples advanced together as one (100, 5) state.
    x0, x1 = rng.normal(size=(2, 100, 4))
    v = rng.normal(size=(100, 5))
    moved = connection.transport(v, x0, x1, kappa)
    steps = 256
    rate_matrix = -(flat.values @ ((x1 - x0) / steps)[:, None, :, None])[..., 0]  # (100, A, B)

    def rate(state):
        return (rate_matrix @ state[..., None])[..., 0]

    u = v
    for _ in range(steps):
        k1 = rate(u)
        k2 = rate(u + 0.5 * k1)
        k3 = rate(u + 0.5 * k2)
        k4 = rate(u + k3)
        u = u + (k1 + 2 * k2 + 2 * k3 + k4) / 6.0
    worst = max_norm(moved - u)
    yield CheckResult("transport-matches-integration", worst, 1e-9)

    t_span = 2.5
    moved = connection.transport(np.array([1.0, 0, 0, 0, 0]), np.zeros(4), np.array([t_span, 0, 0, 0]), kappa)
    expected = np.array([1.0, 0, 0, 0, kappa * t_span])
    yield CheckResult("transport-time-axis", max_norm(moved - expected), 1e-12)

    grid_small = Grid(origin=(-0.5,) * 4, spacing=(0.25,) * 4, shape=(5, 5, 5, 5))
    worst = connection.metric_derivative_report(flat, ETA5, kappa, grid_small, scheme)
    yield CheckResult("metric-identities-orthonormal", worst, 1e-12)

    coords_small = grid_small.coords()
    h_samples = connection.parallel_frame_metric(coords_small, kappa)
    zero = connection.ConnectionCoeffs(np.zeros((5, 5, 4)))
    worst = connection.metric_derivative_report(zero, h_samples, kappa, grid_small, scheme)
    yield CheckResult("metric-identities-parallel", worst, 1e-10)

    worst = 0.0
    for _ in range(5):
        coeffs = rng.normal(size=(2, 5, 4)) * 0.5  # constant + linear parts per component
        quad = rng.normal(size=(5, 4, 4)) * 0.2
        coeffs2 = rng.normal(size=(2, 5, 4)) * 0.5
        quad2 = rng.normal(size=(5, 4, 4)) * 0.2

        def poly_field(c, q):
            lin = np.einsum("am,...m->...a", c[1], coords_small)
            sq = np.einsum("amn,...m,...n->...a", q, coords_small, coords_small)
            return c[0][:, 0] + lin + sq

        resid = connection.metric_transport_identity_residual(
            rng.normal(size=4),
            poly_field(coeffs, quad),
            poly_field(coeffs2, quad2),
            np.array([0.0, 0, 0, 0, 1.4]),
            flat,
            kappa,
        )
        worst = max(worst, resid)
    yield CheckResult("abstract-metric-identity", worst, 1e-9)

    const = rng.normal(size=5)
    u_vals = np.einsum("...ab,b->...a", n_field, const)
    u_field = FieldOnGrid(grid=grid, values=u_vals, basis="O")
    deriv = connection.covariant_derivative(u_field, flat, scheme)
    worst = max_norm(deriv.values[grid.interior(scheme_width(scheme))])
    yield CheckResult("parallel-constant-derivative", worst, 1e-12)


# --------------------------------------------------------------- poincare

def poincare_suite(options: SuiteOptions, rng):
    kappa = options.kappa

    t1, t2 = random_poincare(rng, (500,)), random_poincare(rng, (500,))
    x = rng.normal(size=(500, 4))
    combined = t1.compose(t2)
    rep = poincare.homogeneous_rep(combined, kappa)
    worst = max(
        _relative(combined.apply(x), t1.apply(t2.apply(x)), 1),
        _relative(rep, poincare.homogeneous_rep(t2, kappa) @ poincare.homogeneous_rep(t1, kappa), 2),
    )
    # Relative measures: the compared values reach O(10-100), so an absolute
    # 1e-12 gate would be crossed by round-off on a few percent of seeds.
    yield CheckResult("composition-group", worst, 1e-12)

    t1, t2 = random_poincare(rng, (500,)), random_poincare(rng, (500,))
    v, w = rng.normal(size=(2, 500, 5))
    t12 = t1.compose(t2)
    vector, form = poincare.transform_parallel, poincare.transform_parallel_form
    worst = max(
        _relative(vector(vector(v, t2, kappa), t1, kappa), vector(v, t12, kappa), 1),
        _relative(form(form(w, t2, kappa), t1, kappa), form(w, t12, kappa), 1),
    )
    yield CheckResult("parallel-law-group", worst, 1e-12)

    t = random_poincare(rng, (200,))
    x, v = rng.normal(size=(200, 4)), rng.normal(size=(200, 5))
    n_from = connection.parallel_frame_change(x, kappa)
    n_to = connection.parallel_frame_change(t.apply(x), kappa)
    v_o = (n_from @ v[:, :, None])[..., 0]
    v_o_new = np.concatenate([(t.lam @ v_o[:, :4, None])[..., 0], v_o[:, 4:]], axis=-1)
    via_frames = np.linalg.solve(n_to, v_o_new[..., None])[..., 0]
    direct = poincare.transform_parallel(v, t, kappa)
    yield CheckResult("parallel-law-vs-frames", max_norm(via_frames - direct), 1e-11)

    t = random_poincare(rng, (100,))  # chart-1 coordinates to chart-2 coordinates
    x1 = rng.normal(size=(100, 4))
    p1, o1 = poincare.coordinate_form(x1, kappa)
    p2, _ = poincare.coordinate_form(t.apply(x1), kappa)
    moved = poincare.transform_parallel_form(p1, t, 1.0)
    yield CheckResult("coordinate-form-invariance", max_norm(moved - p2), 1e-9)
    # o = N^-T p, and N is unit triangular, so the solve is exact
    unit = connection.normalized_kappa(kappa)
    n_t = np.swapaxes(connection.parallel_frame_change(x1, unit), -1, -2)
    exact = max_norm(o1 - np.linalg.solve(n_t, p1[..., None])[..., 0])
    yield CheckResult("coordinate-form-orthonormal-components", exact, EXACT)

    # rows mu: w_(A;mu) = d_mu o_A - G^C_(A mu) o_C at the origin; o is affine, so
    # d_mu o = o(e_mu) - o(0) exactly, and eye(5, 4) lists e_0 .. e_3, then the origin
    _, o = poincare.coordinate_form(np.eye(5, 4), kappa)
    o_route = o[:4] - o[4] - np.einsum("cam,c->ma", connection.flat_coefficients(unit).values, o[4])
    p_route = poincare.coordinate_form_derivative()
    yield CheckResult("coordinate-form-derivative-routes", max_norm(o_route - p_route), 1e-15)

    # The tensor routes and the coordinates below are measured relative to
    # their magnitudes, which reach O(100): round-off alone crosses an
    # absolute 1e-12 gate on some seeds.
    t = random_poincare(rng, (300,))
    pt = poincare.build_param_tensor(random_invertible(rng, 4, size=(300,)), rng.normal(size=(300, 4)))
    rep = poincare.homogeneous_rep(t, 1.0)
    route = np.linalg.solve(rep, pt @ rep)
    worst = _relative(poincare.transform_param_tensor(pt, t), route, 2)
    yield CheckResult("param-tensor-two-routes", worst, 1e-12)

    t = random_poincare(rng, (300,))
    omega = rng.normal(size=(300, 4, 4))
    gt = poincare.build_generator_tensor(omega - np.swapaxes(omega, 1, 2), rng.normal(size=(300, 4)))
    rep_inv = np.linalg.inv(poincare.homogeneous_rep(t, 1.0))
    route = rep_inv @ gt @ np.swapaxes(rep_inv, 1, 2)
    worst = _relative(poincare.transform_generator_tensor(gt, t), route, 2)
    yield CheckResult("generator-tensor-two-routes", worst, 1e-12)

    t = random_poincare(rng, (300,))
    x = rng.normal(size=(300, 4))
    k = kappa if kappa != 0.0 else 1.0
    quintuple = np.concatenate([algebra.lower_array(x), np.full((300, 1), 1.0 / k)], axis=-1)
    moved = (quintuple[:, None, :] @ poincare.homogeneous_rep(t, k))[:, 0]
    expected = np.concatenate([algebra.lower_array(t.apply(x)), quintuple[:, 4:]], axis=-1)
    yield CheckResult("homogeneous-rep-coordinates", _relative(moved, expected, 1), 1e-12)


# ----------------------------------------------------------- conservation

def _in_frame(current: FieldOnGrid, frame: str, kappa: float) -> FieldOnGrid:
    return stress_energy.moment_to_orthonormal(current, kappa) if frame == "O" else current


def _wave_grid(n: int) -> Grid:
    h = 1.0 / (n - 1)
    return Grid(origin=(0.0, 0.0, 0.0, 0.0), spacing=(h, h, h, 1.0), shape=(n, n, n, 1))


def conservation_suite(options: SuiteOptions, rng):
    """The moment current's conservation in both frames: exact for a constant stress, and
    for a plane wave on the N-point grid the exact discrete divergence of the stencils."""
    kappa = options.kappa
    scheme = options.scheme
    frames = ("P", "O")

    grid = _wave_grid(9)
    theta0 = np.diag([1.0, 0.3, 0.3, 0.3])  # eta-symmetric when lowered
    theta, sigma = stress_energy.constant_stress_samples(theta0, grid)
    current = stress_energy.assemble_moment_field(theta, sigma, grid)
    # central2 on this dyadic grid divides exact integer-like numerators, so
    # the residual is exactly zero; wider stencils leave bare rounding.
    exact_gate = EXACT if scheme == "central2" else 1e-14
    for frame in frames:
        framed = _in_frame(current, frame, kappa)
        report = stress_energy.conservation_report(framed, kappa, scheme)
        yield CheckResult(f"constant-stress-exact-{frame}", report.worst(), exact_gate)
        if frame == "O" and kappa != 0.0:
            # the O frame drops the orbital part exactly, leaving the spin current
            spin = max_norm(framed.values[..., :4, :4] - sigma)
            yield CheckResult("constant-stress-spin-block-O", spin, EXACT)

    # The wave's measured divergence against its closed form, in units of
    # |k|^2 / h, the scale of one difference quotient of Theta: round-off
    # alone reads at most 6e-16 at every grid, scheme and kappa.
    k = np.array([np.sqrt(8.0), 2.0, 2.0, 0.0])  # null, and constant along the singleton axis
    grid = _wave_grid(options.grid_n)
    current = stress_energy.assemble_moment_field(*stress_energy.plane_wave_stress_samples(k, grid), grid)
    scale = (k @ k) / grid.spacing[0]
    for frame in frames:  # P, then O, which frees the P current
        current = _in_frame(current, frame, kappa)
        measured = stress_energy.conservation_divergence(current, kappa, scheme)
        miss = np.abs(measured - stress_energy.plane_wave_divergence(k, grid, kappa, scheme, frame)) / scale
        yield CheckResult(f"wave-momentum-exact-{frame}", max_norm(miss[stress_energy.MOMENTUM_PAIRS]), 1e-14)
        yield CheckResult(f"wave-angular-exact-{frame}", max_norm(miss[stress_energy.ANGULAR_PAIRS]), 1e-14)


_SUITES = {
    "algebra": algebra_suite,
    "bases": bases_suite,
    "clifford": clifford_suite,
    "connection": connection_suite,
    "poincare": poincare_suite,
    "conservation": conservation_suite,
}
SUITE_NAMES = tuple(_SUITES)


def run_suite(name: str, options: SuiteOptions) -> SuiteReport:
    """Run one suite with its own generator, seeded at options.seed + its place in SUITE_NAMES."""
    if name not in _SUITES:
        raise PentavecError(f"unknown suite {name!r}, expected one of {sorted(_SUITES)}")
    rng = np.random.default_rng(options.seed + SUITE_NAMES.index(name))
    return SuiteReport(name, tuple(_SUITES[name](options, rng)))
