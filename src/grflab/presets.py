"""Scenario presets: one declaration each in PRESETS, and build, the one
builder of a preset's state."""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np

from . import torsion
from .algebra import LieAlgebra, algebra_from_spec
from .fields import Mesh
from .geometry import GeometryState


def constant_state(alg: LieAlgebra, mesh: Mesh, G0=None, g0=None) -> GeometryState:
    """G0 and g0 (identity by default) at every point, zero A and H."""
    k, d, shape = alg.k, mesh.d, mesh.shape
    G = np.broadcast_to(np.eye(k) if G0 is None else G0, shape + (k, k)).astype(float)
    g = np.broadcast_to(np.eye(d) if g0 is None else g0, shape + (d, d)).astype(float)
    A, H = np.zeros(shape + (d, k)), np.zeros(shape + (k + d,) * 3)
    return GeometryState(0.0, mesh, alg, G, g, A, H)


def _curving_connection(st: GeometryState) -> None:
    X, Y = st.mesh.coords()
    st.A[..., 0, 0] = 0.3 * np.sin(Y)
    st.A[..., 1, 1] = 0.3 * np.sin(X)


def _fiber_torsion(st: GeometryState) -> None:
    """Constant fiber 3-form torsion, so the vertical component is active."""
    st.H[..., 0, 1, 2] = 0.5
    st.H = torsion.pack_full(st.H)


class Preset(NamedTuple):
    """A default algebra spec, whose k the preset fixes; the box, one side per
    base axis; the default points per axis; shape writes the other fields."""

    algebra: str
    lengths: tuple
    mesh_n: int
    shape: Callable[[GeometryState], None] = lambda st: None


PRESETS = {
    "flat-abelian": Preset("abelian:2", (1.0,), 64),
    "heisenberg-s1": Preset("heisenberg3", (1.0,), 64),
    "torus-bundle-t2": Preset("abelian:2", (2.0 * np.pi,) * 2, 32, _curving_connection),
    "inoue-like": Preset("abelian:3", (1.0,), 64, _fiber_torsion),
}


def build(name: str, mesh_n: int | None = None, spec=None) -> GeometryState:
    """Preset name on mesh_n points per axis over the algebra of spec (default:
    the preset's): the mesh checked first, and spec's k before its constants."""
    preset = PRESETS[name]
    n = preset.mesh_n if mesh_n is None else mesh_n
    mesh = Mesh((n,) * len(preset.lengths), preset.lengths)
    default = algebra_from_spec(preset.algebra)
    alg = default if spec is None else algebra_from_spec(spec, default.k)
    st = constant_state(alg, mesh)
    preset.shape(st)
    return st
