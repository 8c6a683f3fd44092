"""Output checks that do not trust the code under test.

Every check returns None when the output is right and a one-line reason
when it is not.  References are computed here with numpy from the stored
inputs and the documented laws, never by calling pentavec.
"""

from __future__ import annotations

import numpy as np

from inputs import ETA4, ETA5, lorentz_inverse, parse_record_text

# Outputs must match their reference to this share of the reference's
# largest entry (or of 1, when that is smaller).  The laws are a few
# products of O(1) matrices, so rounding stays near 1e-14.
RTOL = 1e-9
# The basis command must print gram and wedge residuals at most this large.
BASIS_RESIDUAL_GATE = 1e-9


def close(actual, expected):
    actual = np.asarray(actual, dtype=float)
    expected = np.asarray(expected, dtype=float)
    if actual.shape != expected.shape:
        return f"shape {actual.shape}, expected {expected.shape}"
    if not np.all(np.isfinite(actual)):
        return "non-finite values"
    scale = max(1.0, float(np.max(np.abs(expected))) if expected.size else 0.0)
    err = float(np.max(np.abs(actual - expected))) if actual.size else 0.0
    if err > RTOL * scale:
        return f"max deviation {err:.3g} exceeds {RTOL:g} x {scale:.3g}"
    return None


# ----------------------------------------------------------- reference laws

def moment_law(values: np.ndarray, lam: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Parallel-frame current after x' = lam x + a (nonzero kappa).

    Theta' = lam Theta lam^-1 on the mixed blocks; the four-block is
    conjugated and gains a_alpha Theta'^mu_beta - a_beta Theta'^mu_alpha.
    """
    lam_inv = lorentz_inverse(lam)
    a_low = ETA4 @ a
    theta = lam @ values[..., 4, :4] @ lam_inv
    four = np.einsum("mn,...nst->...mst", lam, values[..., :4, :4])
    four = lam_inv.T @ four @ lam_inv
    shift = a_low[None, :, None] * theta[..., :, None, :]
    four += shift - np.swapaxes(shift, -1, -2)
    out = np.zeros_like(values)
    out[..., :4, :4] = four
    out[..., 4, :4] = theta
    out[..., :4, 4] = -theta
    return out


def five_vector_law(values: np.ndarray, lam: np.ndarray, a: np.ndarray, kappa: float) -> np.ndarray:
    """Parallel-frame law: v'^5 = v^5 - kappa a_alpha v'^alpha."""
    out = np.empty_like(values)
    out[..., :4] = values[..., :4] @ lam.T
    out[..., 4] = values[..., 4] - kappa * (out[..., :4] @ (ETA4 @ a))
    return out


def theta_law(values: np.ndarray, lam: np.ndarray) -> np.ndarray:
    return lam @ values @ lorentz_inverse(lam)


def _interior_derivative(v: np.ndarray, axis: int, h: float, width: int) -> np.ndarray:
    """Central difference along a grid axis, on the interior box only."""
    def shifted(k):
        sel = [slice(width, n - width) for n in v.shape[:3]] + [slice(None)]
        sel[axis] = slice(width + k, v.shape[axis] - width + k)
        return v[tuple(sel)]

    if width == 1:
        return (shifted(1) - shifted(-1)) / (2.0 * h)
    return (shifted(-2) - 8.0 * shifted(-1) + 8.0 * shifted(1) - shifted(2)) / (12.0 * h)


def divergence_residuals(values: np.ndarray, h: float, width: int, g=None) -> tuple[float, float]:
    """(momentum, angular) interior residuals of a current's divergence.

    ``values`` holds (n, n, n, 1, 4, 5, 5) samples on the unit-cube grid,
    whose axis 3 is suppressed.  ``g`` adds the orthonormal-frame transport
    corrections.
    """
    div = 0.0
    for mu in range(3):
        div = div + _interior_derivative(values[..., mu, :, :], mu, h, width)
    if g is not None:
        inner = values[width:-width, width:-width, width:-width]
        div = div - np.einsum("cam,...mcb->...ab", g, inner) - np.einsum("cbm,...mac->...ab", g, inner)
    return float(np.max(np.abs(div[..., 4, :4]))), float(np.max(np.abs(div[..., :4, :4])))


def connection_closed_form(c: np.ndarray, lam: np.ndarray, kappa: float) -> np.ndarray:
    """G' for the change field L(x) = N(x) C from the orthonormal frame.

    N(x) takes the orthonormal frame to the parallel one, whose
    coefficients vanish, so G' = C^-1 E C lam with E the part the grid
    cannot see: axis 3 is suppressed, so dN along it is zero and only
    E^5_(3 3) = kappa survives.  N is linear in x, so differences are exact.
    """
    c_inv = np.linalg.inv(c)
    return kappa * np.einsum("a,b,m->abm", c_inv[:, 4], c[3, :], lam[3, :])


def covariant_closed_form(u_parallel: np.ndarray, kappa: float) -> np.ndarray:
    """D[A, mu] of the parallel field u(x) = N(x) u_P in the orthonormal frame.

    Zero except along the suppressed axis 3, where the missing derivative
    leaves D[5, 3] = kappa u_P^3.
    """
    out = np.zeros((5, 4))
    out[4, 3] = kappa * u_parallel[3]
    return out


# ------------------------------------------------------------ command checks

def check_verify(returncode: int, stdout: str, suites) -> str | None:
    lines = [line for line in stdout.splitlines() if line.strip()]
    for line in lines:
        fields = line.split()
        if len(fields) != 4 or fields[3] != "pass":
            return f"verify line does not read pass: {line.strip()!r}"
    if returncode != 0:
        return f"verify exited {returncode}"
    seen = {line.split(".", 1)[0] for line in lines}
    missing = sorted(set(suites) - seen)
    if missing:
        return f"verify reported no checks for {missing}"
    return None


def check_record(text: str, kind: str, expected: np.ndarray) -> str | None:
    try:
        header, flat = parse_record_text(text)
    except ValueError as exc:
        return f"unreadable {kind} output: {exc}"
    if header.get("kind") != kind:
        return f"output kind {header.get('kind')!r}, expected {kind!r}"
    if flat.size != expected.size:
        return f"{kind} output holds {flat.size} values, expected {expected.size}"
    problem = close(flat.reshape(expected.shape), expected)
    return None if problem is None else f"{kind} output: {problem}"


def _printed_residual(stdout: str, label: str):
    for line in stdout.splitlines():
        if line.startswith(label + ":"):
            try:
                return float(line.split(":", 1)[1])
            except ValueError:
                return None
    return None


def check_basis(stdout: str, text: str, wedges: np.ndarray, mode: str) -> str | None:
    """Output of a ``basis`` command that exited 0."""
    for label in ("gram residual", "wedge residual"):
        value = _printed_residual(stdout, label)
        if value is None or not value <= BASIS_RESIDUAL_GATE:
            return f"basis --mode {mode} printed {label} {value}, gate {BASIS_RESIDUAL_GATE:g}"
    try:
        header, flat = parse_record_text(text)
    except ValueError as exc:
        return f"unreadable basis output: {exc}"
    if header.get("kind") != "basis" or flat.size != 25:
        return "basis output is not a 5x5 basis record"
    frame = flat.reshape(5, 5)
    rebuilt = np.stack(
        [np.outer(frame[:, mu], frame[:, 4]) - np.outer(frame[:, 4], frame[:, mu]) for mu in range(4)]
    )
    problem = close(rebuilt, wedges)
    if problem is not None:
        return f"basis --mode {mode}: e_mu ^ e_5 differs from the input wedges: {problem}"
    gram = frame.T @ ETA5 @ frame
    if mode == "orthonormal":
        problem = close(gram, ETA5)
    else:
        problem = close(np.append(gram[:4, 4], gram[4, 4]), np.append(np.zeros(4), 1.0))
    if problem is not None:
        return f"basis --mode {mode}: five-metric of the frame: {problem}"
    return None
