"""Shared builders for test states."""

import numpy as np

from grflab import algebra
from grflab.fields import Mesh
from grflab.geometry import GeometryState


def constant_state(alg, N=16, d=1, lengths=None, G0=None, g0=None):
    lengths = lengths or (1.0,) * d
    mesh = Mesh((N,) * d, lengths)
    k = alg.k
    G0 = np.eye(k) if G0 is None else np.asarray(G0, dtype=float)
    g0 = np.eye(d) if g0 is None else np.asarray(g0, dtype=float)
    G = np.broadcast_to(G0, mesh.shape + (k, k)).copy()
    g = np.broadcast_to(g0, mesh.shape + (d, d)).copy()
    A = np.zeros(mesh.shape + (d, k))
    H = np.zeros(mesh.shape + (k + d,) * 3)
    return GeometryState(0.0, mesh, alg, G, g, A, H)


def heisenberg_state(N=16, **kw):
    return constant_state(algebra.heisenberg3(), N=N, **kw)


def flat_abelian_state(N=16, k=2, d=1, **kw):
    return constant_state(algebra.abelian(k), N=N, d=d, **kw)
