"""Periodic grids on the base manifold and discrete calculus for tensor fields.

The base is a flat periodic box (circle or 2-torus) with global coordinates.
All fields are dense arrays with the grid axes first, followed by one axis per
tensor slot: a fiber slot has range k, a base slot range d.
Derivatives are 4th-order central differences with periodic wraparound,
taken only here: deriv_array along one axis and derivs along each, reading
the axis's spacing from the Mesh.  Integrals use the periodic rectangle
rule, which is spectrally accurate for smooth periodic data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


# the fewest points per axis a Mesh accepts for the stencil of deriv_array,
# and the grid a homogeneous run lives on: flow.run_flow restricts such a
# state to it, and its walk, report rows and their closedness checks run there
MIN_POINTS = 8


class GridError(ValueError):
    """Structural misuse of meshes."""


class DomainError(ValueError):
    """A numerical precondition (positivity, SPD) is violated."""


@dataclass(frozen=True)
class Mesh:
    """Periodic structured grid: d axes, sizes[a] points, box lengths lengths[a]."""

    sizes: tuple
    lengths: tuple
    # set once from sizes and lengths; left out of equality and hashing
    spacings: tuple = field(init=False, repr=False, compare=False)
    cell_volume: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        sizes = tuple(int(n) for n in self.sizes)
        lengths = tuple(float(L) for L in self.lengths)
        if len(sizes) not in (1, 2):
            raise GridError(f"base dimension must be 1 or 2, got {len(sizes)}")
        if len(lengths) != len(sizes):
            raise GridError("sizes and lengths must have equal length")
        if any(n < MIN_POINTS for n in sizes):
            raise GridError(f"need at least {MIN_POINTS} points per axis for the stencil")
        if any(L <= 0 for L in lengths):
            raise GridError("box lengths must be positive")
        object.__setattr__(self, "sizes", sizes)
        object.__setattr__(self, "lengths", lengths)
        spacings = tuple(L / n for L, n in zip(lengths, sizes))
        object.__setattr__(self, "spacings", spacings)
        object.__setattr__(self, "cell_volume", float(np.prod(spacings)))

    @property
    def d(self) -> int:
        return len(self.sizes)

    @property
    def shape(self) -> tuple:
        return self.sizes

    def coords(self) -> list:
        """Coordinate arrays broadcast over the grid shape."""
        axes = [
            np.arange(n) * h for n, h in zip(self.sizes, self.spacings)
        ]
        return list(np.meshgrid(*axes, indexing="ij"))


# --- discrete calculus -------------------------------------------------------

def deriv_array(values: np.ndarray, axis: int, mesh: Mesh) -> np.ndarray:
    """4th-order periodic central difference along a grid axis of mesh.

    The antisymmetric form (8 (f[i+1] - f[i-1]) - (f[i+2] - f[i-2])) / (12 h)
    of the weights (1, -8, 0, 8, -1) / 12 at offsets -2..2, with h the
    axis's spacing, so a constant differentiates to exactly +0.0.
    """
    n = values.shape[axis]
    before = (slice(None),) * axis
    # two periodic ghost layers on each side: ext[j] = f[j - 2]
    ext = np.concatenate([values[before + (slice(n - 2, n),)], values,
                          values[before + (slice(0, 2),)]], axis=axis)

    def shifted(off):
        return ext[before + (slice(2 + off, 2 + off + n),)]

    out = np.subtract(shifted(1), shifted(-1))
    out *= 8.0
    out -= shifted(2)
    out += shifted(-2)
    out *= 1.0 / (12.0 * mesh.spacings[axis])
    return out


def derivs(values: np.ndarray, mesh: Mesh) -> np.ndarray:
    """Stack of coordinate derivatives; the new axis sits first among the slots."""
    d = mesh.d
    out = np.empty(values.shape[:d] + (d,) + values.shape[d:])
    for a in range(d):
        out[(slice(None),) * d + (a,)] = deriv_array(values, a, mesh)
    return out


# points per block of row_blocks: a block's K^4 temporary is then 0.64 MB at
# K = 5, while each block still holds enough points that the per-block numpy
# calls cost little against its arithmetic
ROW_BLOCK_POINTS = 128


def row_blocks(mesh: Mesh) -> list:
    """Slices of the first grid axis that cover it in order, each a block of
    whole grid rows of about ROW_BLOCK_POINTS points (at least one row).

    A pointwise stage run block by block over these slices does the same
    arithmetic at each point as one call over the whole grid, so it gives the
    same bits while its temporaries are only a block large.
    """
    n = mesh.sizes[0]
    step = max(1, ROW_BLOCK_POINTS // math.prod(mesh.sizes[1:]))
    return [slice(i, min(i + step, n)) for i in range(0, n, step)]


def metric_det(g: np.ndarray, d: int) -> np.ndarray:
    if d == 1:
        return g[..., 0, 0]
    return g[..., 0, 0] * g[..., 1, 1] - g[..., 0, 1] * g[..., 1, 0]


def integrate_values(values: np.ndarray, g_values: np.ndarray, mesh: Mesh) -> float:
    det = metric_det(g_values, mesh.d)
    if np.any(det <= 0):
        raise DomainError("base metric has nonpositive determinant")
    return float(np.sum(values * np.sqrt(det)) * mesh.cell_volume)
