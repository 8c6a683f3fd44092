"""Rectangular sample grids over four chart coordinates, plus finite
differences.

Grids always have four axes (the chart coordinates); an axis of length 1
is a suppressed direction along which every derivative is zero.  Field
values carry the grid axes first and any component axes after them.

Two difference schemes are provided.  Interior samples use central
stencils (second or fourth order); samples within the stencil width of an
edge fall back to one-sided stencils of the same order and are flagged by
``FieldOnGrid.boundary_width`` so callers can restrict measurements to the
interior.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GridMismatch, GridTooCoarse, NotFinite, OutOfRange

SCHEMES = {"central2": 1, "central4": 2}


def scheme_width(scheme: str) -> int:
    if scheme not in SCHEMES:
        raise OutOfRange(f"unknown scheme {scheme!r}, expected one of {sorted(SCHEMES)}")
    return SCHEMES[scheme]


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
    ``boundary_width`` is nonzero on derived fields whose edge samples came
    from one-sided differences.
    """

    grid: Grid
    values: np.ndarray
    basis: str | None = None
    boundary_width: int = 0

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape[:4] != self.grid.shape:
            raise GridMismatch(
                f"value axes {v.shape[:4]} do not match grid shape {self.grid.shape}"
            )
        if not np.all(np.isfinite(v)):
            raise NotFinite("field contains non-finite samples")
        v = v.copy()
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    def interior_values(self) -> np.ndarray:
        return self.values[self.grid.interior(self.boundary_width)] if self.boundary_width else self.values


def _derive_along_first(v: np.ndarray, h: float, scheme: str) -> np.ndarray:
    out = np.empty_like(v)
    if scheme == "central2":
        out[1:-1] = (v[2:] - v[:-2]) / (2.0 * h)
        out[0] = (-3.0 * v[0] + 4.0 * v[1] - v[2]) / (2.0 * h)
        out[-1] = (3.0 * v[-1] - 4.0 * v[-2] + v[-3]) / (2.0 * h)
    else:
        out[2:-2] = (v[:-4] - 8.0 * v[1:-3] + 8.0 * v[3:-1] - v[4:]) / (12.0 * h)
        out[0] = (-25.0 * v[0] + 48.0 * v[1] - 36.0 * v[2] + 16.0 * v[3] - 3.0 * v[4]) / (12.0 * h)
        out[1] = (-3.0 * v[0] - 10.0 * v[1] + 18.0 * v[2] - 6.0 * v[3] + v[4]) / (12.0 * h)
        out[-1] = (25.0 * v[-1] - 48.0 * v[-2] + 36.0 * v[-3] - 16.0 * v[-4] + 3.0 * v[-5]) / (12.0 * h)
        out[-2] = (3.0 * v[-1] + 10.0 * v[-2] - 18.0 * v[-3] + 6.0 * v[-4] - v[-5]) / (12.0 * h)
    return out


def partial_derivative(values: np.ndarray, grid: Grid, axis: int, scheme: str = "central2") -> np.ndarray:
    """Derivative of sampled values along one grid axis.

    Singleton axes return zeros.  Axes shorter than the stencil raise
    GridTooCoarse.
    """
    width = scheme_width(scheme)
    values = np.asarray(values, dtype=float)
    if values.shape[:4] != grid.shape:
        raise GridMismatch(f"value axes {values.shape[:4]} do not match grid {grid.shape}")
    n = grid.shape[axis]
    if n == 1:
        return np.zeros_like(values)
    if n < 2 * width + 1:
        raise GridTooCoarse(f"axis {axis} has {n} samples, scheme {scheme} needs {2 * width + 1}")
    moved = np.moveaxis(values, axis, 0)
    derived = _derive_along_first(moved, grid.spacing[axis], scheme)
    return np.moveaxis(derived, 0, axis)


def grid_gradient(values: np.ndarray, grid: Grid, scheme: str = "central2") -> np.ndarray:
    """All four partials, stacked on a trailing axis."""
    parts = [partial_derivative(values, grid, axis, scheme) for axis in range(4)]
    return np.stack(parts, axis=-1)


def truncation_estimate(values: np.ndarray, grid: Grid, scheme: str = "central2") -> float:
    """Rough finite-difference truncation bound for these samples.

    Compares the second- and fourth-order derivatives where the grid is
    fine enough; the difference is dominated by the second-order stencil's
    truncation term.  Returns 0.0 when no axis can support the comparison.
    """
    worst = 0.0
    for axis in range(4):
        if grid.shape[axis] < 5:
            continue
        d2 = partial_derivative(values, grid, axis, "central2")
        d4 = partial_derivative(values, grid, axis, "central4")
        worst = max(worst, float(np.max(np.abs(d2 - d4))))
    return worst
