"""Periodic grids on the base manifold and discrete calculus for tensor fields.

The base is a flat periodic box (circle or 2-torus) with global coordinates.
All fields are dense arrays with the grid axes first, followed by one axis per
tensor slot: a fiber slot has range k, a base slot range d.
Derivatives are 4th-order central differences with periodic wraparound;
integrals use the periodic rectangle rule, which is spectrally accurate for
smooth periodic data.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class GridError(ValueError):
    """Structural misuse of meshes."""


class DomainError(ValueError):
    """A numerical precondition (positivity, SPD) is violated."""


@dataclass(frozen=True)
class Mesh:
    """Periodic structured grid: d axes, sizes[a] points, box lengths lengths[a]."""

    sizes: tuple
    lengths: tuple

    def __post_init__(self):
        sizes = tuple(int(n) for n in self.sizes)
        lengths = tuple(float(L) for L in self.lengths)
        if len(sizes) not in (1, 2):
            raise GridError(f"base dimension must be 1 or 2, got {len(sizes)}")
        if len(lengths) != len(sizes):
            raise GridError("sizes and lengths must have equal length")
        if any(n < 8 for n in sizes):
            raise GridError("need at least 8 points per axis for the stencil")
        if any(L <= 0 for L in lengths):
            raise GridError("box lengths must be positive")
        object.__setattr__(self, "sizes", sizes)
        object.__setattr__(self, "lengths", lengths)

    @property
    def d(self) -> int:
        return len(self.sizes)

    @property
    def spacings(self) -> tuple:
        return tuple(L / n for L, n in zip(self.lengths, self.sizes))

    @property
    def shape(self) -> tuple:
        return self.sizes

    @property
    def cell_volume(self) -> float:
        return float(np.prod(self.spacings))

    def coords(self) -> list:
        """Coordinate arrays broadcast over the grid shape."""
        axes = [
            np.arange(n) * h for n, h in zip(self.sizes, self.spacings)
        ]
        return list(np.meshgrid(*axes, indexing="ij"))


# --- discrete calculus -------------------------------------------------------

_D1_W = np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / 12.0  # offsets -2..2


def deriv_array(values: np.ndarray, axis: int, h: float) -> np.ndarray:
    """4th-order periodic central difference along a grid axis of a raw array."""
    n = values.shape[axis]
    # two periodic ghost layers on each side; shifted reads are slices of it
    ext = np.concatenate([values.take(range(n - 2, n), axis), values,
                          values.take(range(2), axis)], axis=axis)
    before = (slice(None),) * axis
    out = np.zeros_like(values)
    for off, w in zip(range(-2, 3), _D1_W):
        if w:
            out += w * ext[before + (slice(2 + off, 2 + off + n),)]
    return out / h


def metric_det(g: np.ndarray, d: int) -> np.ndarray:
    if d == 1:
        return g[..., 0, 0]
    return g[..., 0, 0] * g[..., 1, 1] - g[..., 0, 1] * g[..., 1, 0]


def integrate_values(values: np.ndarray, g_values: np.ndarray, mesh: Mesh) -> float:
    det = metric_det(g_values, mesh.d)
    if np.any(det <= 0):
        raise DomainError("base metric has nonpositive determinant")
    return float(np.sum(values * np.sqrt(det)) * mesh.cell_volume)
