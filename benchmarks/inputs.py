"""Seeded benchmark inputs, built with numpy alone.

Nothing here calls pentavec.  The program under test receives only the
records and arrays made here, so a change to the package's own random
helpers (``suites.random_lorentz`` and the like) cannot change the inputs.
Lorentz and five-metric-preserving matrices come from the Cayley map
(I - X)^-1 (I + X) of a generator X = eta A with A antisymmetric; spin
currents antisymmetrise a seeded normal draw.
"""

from __future__ import annotations

import warnings

import numpy as np

ETA4 = np.diag([1.0, -1.0, -1.0, -1.0])
ETA5 = np.diag([1.0, -1.0, -1.0, -1.0, 1.0])
MAGIC = "pentavec 1"
LABELS = {"five": "0 1 2 3 5", "four": "0 1 2 3"}


def cayley(eta: np.ndarray, rng, scale: float) -> np.ndarray:
    """Element of the group preserving ``eta``, near the identity.

    The generator is shrunk to spectral radius 1/2 when it is larger, which
    keeps I - X far from singular and the entries of the result O(1).
    """
    n = eta.shape[0]
    a = rng.normal(0.0, scale, (n, n))
    x = eta @ (a - a.T)
    radius = float(np.max(np.abs(np.linalg.eigvals(x))))
    if radius > 0.5:
        x *= 0.5 / radius
    eye = np.eye(n)
    return np.linalg.solve(eye - x, eye + x)


def lorentz_inverse(lam: np.ndarray) -> np.ndarray:
    """Inverse of a Lorentz matrix from the metric alone: eta lam^T eta."""
    return ETA4 @ lam.T @ ETA4


def grid_geometry(n: int) -> tuple:
    """(origin, spacing, shape) of the n x n x n x 1 grid on the unit cube.

    The spacing 1/(n-1) is dyadic for n = 2^k + 1, so central differences of
    data built from small dyadic numbers are exact.
    """
    h = 1.0 / (n - 1)
    return (0.0, 0.0, 0.0, 0.0), (h, h, h, 1.0), (n, n, n, 1)


def grid_coords(n: int) -> np.ndarray:
    """Sample coordinates, shape (n, n, n, 1, 4)."""
    origin, spacing, shape = grid_geometry(n)
    axes = [o + s * np.arange(k) for o, s, k in zip(origin, spacing, shape)]
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)


def null_wave_vector(rng) -> np.ndarray:
    k3 = rng.normal(0.0, 1.0, 3)
    return np.concatenate([[np.linalg.norm(k3)], k3])


def wave_stress(coords: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Theta^mu_alpha = k^mu k_alpha sin^2(k.x) of a null scalar plane wave."""
    k_low = ETA4 @ k
    envelope = np.sin(coords @ k_low) ** 2
    return envelope[..., None, None] * (k[:, None] * k_low[None, :])


def spin_current(rng, shape: tuple) -> np.ndarray:
    s = rng.normal(0.0, 1.0, shape + (4, 4, 4))
    return s - np.swapaxes(s, -1, -2)


def constant_stress(rng) -> np.ndarray:
    """Constant Theta with symmetric lowered form and no flux along axis 3.

    Entries are multiples of 1/8, so on a dyadic grid the divergence of the
    assembled current is exactly zero under central differences.  The grids
    suppress axis 3, so Theta^3_beta (beta != 3) must vanish for the
    current to be conserved there.
    """
    s = rng.integers(-8, 9, (4, 4)) / 8.0
    s = np.triu(s) + np.triu(s, 1).T
    s[3, :3] = 0.0
    s[:3, 3] = 0.0
    return ETA4 @ s


def moment_current(coords: np.ndarray, theta: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """Parallel-frame current: orbital + spin four-block, +-Theta mixed blocks."""
    x_low = coords @ ETA4
    orbital = np.einsum("...a,...mb->...mab", x_low, theta)
    orbital -= np.swapaxes(orbital, -1, -2)
    out = np.zeros(theta.shape[:-2] + (4, 5, 5))
    out[..., :4, :4] = orbital + sigma
    out[..., 4, :4] = theta
    out[..., :4, 4] = -theta
    return out


def parallel_change(coords: np.ndarray, kappa: float) -> np.ndarray:
    """Per-sample change N(x) from the orthonormal to the parallel frame."""
    n = np.broadcast_to(np.eye(5), coords.shape[:-1] + (5, 5)).copy()
    n[..., 4, :4] = kappa * (coords @ ETA4)
    return n


def flat_coefficients(kappa: float) -> np.ndarray:
    """Orthonormal-frame transport coefficients G[A, B, mu]."""
    g = np.zeros((5, 5, 4))
    g[4, :4, :] = -kappa * ETA4
    return g


def wedge_sets(rng) -> tuple[np.ndarray, np.ndarray]:
    """Four wedges e_mu ^ e_5 of a seeded orthonormal five-frame, and a mix.

    The first set is orthonormal under the induced metric; the second mixes
    it with a well-conditioned matrix, so its induced metric keeps the
    spacetime signature but is no longer diagonal.
    """
    frame = cayley(ETA5, rng, 0.3)
    e5 = frame[:, 4]
    ortho = np.stack([np.outer(frame[:, mu], e5) - np.outer(e5, frame[:, mu]) for mu in range(4)])
    mix = np.eye(4) + 0.2 * rng.normal(0.0, 1.0, (4, 4))
    regular = np.einsum("ba,bij->aij", mix, ortho)
    return ortho, regular


def record_text(kind: str, labels: str, payload: np.ndarray, basis=None, kappa=None, n=None) -> str:
    """A record in the package's text format, numbers printed with %.17g."""
    lines = [MAGIC, f"kind {kind}", "labels " + LABELS[labels]]
    if basis is not None:
        lines.append(f"basis {basis}")
    if kappa is not None:
        lines.append("kappa %.17g" % kappa)
    if n is not None:
        origin, spacing, shape = grid_geometry(n)
        lines.append("origin " + " ".join("%.17g" % v for v in origin))
        lines.append("spacing " + " ".join("%.17g" % v for v in spacing))
        lines.append("shape " + " ".join(str(v) for v in shape))
    lines.append("data")
    flat = np.asarray(payload, dtype=float).ravel()
    full = flat.size // 8 * 8
    row = " ".join(["%.17g"] * 8)
    # A block of rows at a time, so that the values are never all held as
    # Python floats at once: this process's peak RSS sets a floor under
    # that of the commands it spawns.
    block = 8 * 4096
    for start in range(0, full, block):
        rows = flat[start : min(start + block, full)].reshape(-1, 8).tolist()
        lines.append("\n".join(row % tuple(r) for r in rows))
    if full < flat.size:
        lines.append(" ".join("%.17g" % v for v in flat[full:].tolist()))
    return "\n".join(lines) + "\n"


def parse_record_text(text: str) -> tuple[dict, np.ndarray]:
    """Header fields and flat payload of a record, read without pentavec."""
    head, sep, body = text.partition("\ndata\n")
    if not sep:
        raise ValueError("record has no data line")
    lines = head.splitlines()
    if not lines or lines[0].strip() != MAGIC:
        raise ValueError("record has no magic line")
    header = {}
    for line in lines[1:]:
        key, _, value = line.strip().partition(" ")
        header[key] = value
    # np.fromstring, not str.split: a list of every token as a Python str
    # would raise this process's peak RSS, which sets a floor under that of
    # the commands it spawns.  Malformed text raises instead of stopping early.
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        try:
            flat = np.fromstring(body, sep=" ")
        except DeprecationWarning as exc:
            raise ValueError(str(exc)) from None
    return header, flat
