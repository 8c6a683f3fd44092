"""Rectangular sample grids over four chart coordinates, plus finite
differences.

Grids always have four axes (the chart coordinates); an axis of length 1
is a suppressed direction along which every derivative is zero.  Field
values carry the grid axes first and any component axes after them.

Two difference schemes are provided.  Interior samples use central
stencils (second or fourth order); samples within the stencil width of an
edge fall back to one-sided stencils of the same order.  A measurement
that should see the central stencils alone reads the samples
``grid.interior(scheme_width(scheme))``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GridMismatch, GridTooCoarse, NotFinite, OutOfRange

# Each scheme is (denominator, central row, one-sided rows) of integer weights
# over denominator * spacing (Fornberg, Math. Comp. 51, 1988).  The central row
# spans samples -w .. w; one-sided row i gives sample i from samples 0, 1, ...
# and, reversed and negated, sample -1 - i from samples -1, -2, ...
SCHEMES = {
    "central2": (2.0, (-1, 0, 1), ((-3, 4, -1),)),
    "central4": (12.0, (1, -8, 0, 8, -1), ((-25, 48, -36, 16, -3), (-3, -10, 18, -6, 1))),
}


def scheme_width(scheme: str) -> int:
    if scheme not in SCHEMES:
        raise OutOfRange(f"unknown scheme {scheme!r}, expected one of {sorted(SCHEMES)}")
    return len(SCHEMES[scheme][2])


def grid_field(name: str, values) -> tuple:
    """``values`` checked as the ``origin``, ``spacing`` or ``shape`` of a Grid.

    A value that does not convert raises ValueError; a wrong count or an
    inadmissible value raises GridMismatch or NotFinite.
    """
    values = tuple(int(v) if name == "shape" else float(v) for v in values)
    if len(values) != 4:
        raise GridMismatch(f"{name!r} needs four values, got {len(values)}")
    if name != "shape" and not all(np.isfinite(values)):
        raise NotFinite(f"grid {name} must be finite")
    if name == "spacing" and any(s <= 0.0 for s in values):
        raise GridMismatch("spacings must be positive")
    if name == "shape" and any(n < 1 for n in values):
        raise GridMismatch("each axis needs at least one sample")
    return values


@dataclass(frozen=True)
class Grid:
    """Uniform rectangular grid: origin, spacing, and sample counts per axis."""

    origin: tuple
    spacing: tuple
    shape: tuple

    def __post_init__(self):
        for name in ("origin", "spacing", "shape"):
            object.__setattr__(self, name, grid_field(name, getattr(self, name)))

    def axis_coords(self, axis: int) -> np.ndarray:
        return self.origin[axis] + self.spacing[axis] * np.arange(self.shape[axis])

    def coords(self) -> np.ndarray:
        """Sample coordinates, shape ``shape + (4,)``."""
        axes = [self.axis_coords(i) for i in range(4)]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack(mesh, axis=-1)

    def interior(self, width: int) -> tuple:
        """Slices selecting samples at least ``width`` away from every edge.

        Singleton axes are kept whole; a derivative along them is zero
        rather than one-sided.
        """
        out = []
        for n in self.shape:
            if n == 1:
                out.append(slice(None))
            else:
                if n <= 2 * width:
                    raise GridTooCoarse(f"axis with {n} samples has no interior at width {width}")
                out.append(slice(width, n - width))
        return tuple(out)


@dataclass(frozen=True)
class FieldOnGrid:
    """Sampled field: grid axes first, component axes after.

    ``basis`` records which frame the components refer to ("O" for the
    orthonormal frame field, "P" for the parallel one) when that matters.

    ``values`` is stored read-only.  An array that owns its data and is
    already read-only is adopted as it is: that is how a kernel hands over
    an array it has just made.  Any other input, a writable array or a view
    included, is copied, so a later write by the caller cannot reach the
    field.  Every field is checked for non-finite samples either way, except
    the moment currents of ``stress_energy``: its kernels check each slab as
    they write it, and hand over a subclass that skips the whole-array scan.
    """

    grid: Grid
    values: np.ndarray
    basis: str | None = None

    _scan_finite = True  # a class attribute, not a field

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape[:4] != self.grid.shape:
            raise GridMismatch(
                f"value axes {v.shape[:4]} do not match grid shape {self.grid.shape}"
            )
        if self._scan_finite and not np.all(np.isfinite(v)):
            raise NotFinite("field contains non-finite samples")
        if v.flags.writeable or not v.flags.owndata:
            v = v.copy()
            v.setflags(write=False)
        object.__setattr__(self, "values", v)


def _weighted_sum(out: np.ndarray, row, samples) -> None:
    """out = sum of weight * sample over the nonzero weights of ``row``, in row order.

    A weight of 1 or -1 adds or subtracts the sample itself, and other
    weights multiply into one scratch buffer: the sums of ``out += w * s``
    to the bit, without a temporary per term.
    """
    terms = [(w, s) for w, s in zip(row, samples) if w]
    np.multiply(terms[0][1], terms[0][0], out=out)
    scratch = None
    for w, s in terms[1:]:
        if w == 1:
            out += s
        elif w == -1:
            out -= s
        else:
            if scratch is None:
                scratch = np.empty_like(out)
            np.multiply(s, w, out=scratch)
            out += scratch


def _central_difference(v: np.ndarray, h: float, scheme: str, out: np.ndarray) -> None:
    """Central-row derivative along the first axis of ``v`` into ``out``.

    ``out`` holds the samples ``width .. len(v) - 1 - width``, the ones the
    central row reaches from both sides.
    """
    denominator, central, sided = SCHEMES[scheme]
    n, width = len(v), len(sided)
    _weighted_sum(out, central, [v[k : n - 2 * width + k] for k in range(2 * width + 1)])
    out /= denominator * h


def _derive_along_first(v: np.ndarray, h: float, scheme: str) -> np.ndarray:
    denominator, _, sided = SCHEMES[scheme]
    n, width = len(v), len(sided)
    out = np.empty_like(v)
    _central_difference(v, h, scheme, out[width : n - width])
    for i, row in enumerate(sided):
        _weighted_sum(out[i, ...], row, v)
        _weighted_sum(out[n - 1 - i, ...], [-w for w in row], v[::-1])
    for edge in (out[:width], out[n - width :]):
        edge /= denominator * h
    return out


def _differentiated(grid: Grid, axis: int, scheme: str) -> bool:
    """Whether ``axis`` carries a derivative: a singleton axis does not, and
    an axis shorter than the stencil raises GridTooCoarse."""
    n, width = grid.shape[axis], scheme_width(scheme)
    if n == 1:
        return False
    if n < 2 * width + 1:
        raise GridTooCoarse(f"axis {axis} has {n} samples, scheme {scheme} needs {2 * width + 1}")
    return True


def partial_derivative(values: np.ndarray, grid: Grid, axis: int, scheme: str = "central2") -> np.ndarray:
    """Derivative of sampled values along one grid axis.

    Singleton axes return zeros.  Axes shorter than the stencil raise
    GridTooCoarse.
    """
    scheme_width(scheme)  # an unknown scheme is rejected before anything else
    values = np.asarray(values, dtype=float)
    if values.shape[:4] != grid.shape:
        raise GridMismatch(f"value axes {values.shape[:4]} do not match grid {grid.shape}")
    if not _differentiated(grid, axis, scheme):
        return np.zeros_like(values)
    moved = np.moveaxis(values, axis, 0)
    derived = _derive_along_first(moved, grid.spacing[axis], scheme)
    return np.moveaxis(derived, 0, axis)


def grid_gradient(values: np.ndarray, grid: Grid, scheme: str = "central2") -> np.ndarray:
    """All four partials, stacked on a trailing axis."""
    parts = [partial_derivative(values, grid, axis, scheme) for axis in range(4)]
    return np.stack(parts, axis=-1)
