"""Backward-in-time density solve along a stored forward flow.

A positive density u on the base is evolved by the equation conjugate to the
flow, so that its mass with respect to the moving volume form stays constant.
Solving from a uniform terminal profile produces the scalar potential f used
by the energy and entropy functionals.

In the canonical gauge the conjugate equation has no transport term.  The
ungauged system differs from it by the flow of the divergence vector q, so
there the density is also carried along q: the term -<q, grad u>, the one
choice that keeps the mass exactly constant in the continuum.  run_flow
records the gauge on its FlowHistory, and solve_backward reads it there; a
mode not in flow.GAUGES raises ValueError.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import DomainError, integrate_values
from .flow import check_gauge, march
from .geometry import (
    DerivedGeometry,
    GeometryState,
    _derivs,
    laplacian,
    norm_sq_DG,
    norm_sq_F,
)
from . import torsion


@dataclass
class ConjugateState:
    """Positive density u at one stored time, with its mass."""

    u: np.ndarray
    mass: float


def potential(u: np.ndarray) -> np.ndarray:
    """The potential f = -log u of a density u = e^-f."""
    if np.any(u <= 0):
        raise DomainError("density must be strictly positive")
    return -np.log(u)


def dilaton_potential(state: GeometryState, der: DerivedGeometry) -> np.ndarray:
    """Zeroth-order coefficient: R_g - |DG|^2/4 - |F|^2/2 - tr_g calH / 4.

    Computed on the first call for a der; later calls return the same array.
    """
    if der.V is None:
        k = state.k
        calH, _ = torsion.h_contractions(state, der)
        trH_bb = np.einsum("...ab,...ab->...", der.gi, calH[..., k:, k:])
        der.V = (der.R_g - 0.25 * norm_sq_DG(state, der)
                 - 0.5 * norm_sq_F(state, der) - 0.25 * trH_bb)
    return der.V


def _transport(phi: np.ndarray, state: GeometryState,
               der: DerivedGeometry) -> np.ndarray:
    """<q, grad phi>, the rate of phi's transport along q."""
    return np.einsum("...a,...a->...", der.q, _derivs(phi, state.mesh))


def conj_rhs(u: np.ndarray, state: GeometryState, der: DerivedGeometry,
             mode: str = "ungauged") -> np.ndarray:
    """Forward-time rate of the density in the flow's gauge mode:

        du/dt = -Lap u + V u - <q, grad u>,

    with V the dilaton potential (der: the state's derive()); the transport
    term is only in the ungauged gauge.  The equation is backward-parabolic,
    integrated in reversed time by solve_backward.
    """
    check_gauge(mode)
    if np.any(u <= 0):
        raise DomainError("density must be strictly positive")
    lap = laplacian(u, der.gi, der.Gamma, state.mesh)
    rate = -lap + dilaton_potential(state, der) * u
    return rate - _transport(u, state, der) if mode == "ungauged" else rate


def forward_heat_rhs(phi: np.ndarray, state: GeometryState,
                     der: DerivedGeometry, mode: str = "ungauged") -> np.ndarray:
    """Forward drift-diffusion paired with the density: d(phi)/dt = Lap phi
    - <q, grad phi>, the transport term again only in the ungauged gauge
    (der: the state's derive()).  The pairing integral of phi against u with
    the moving volume form is constant."""
    check_gauge(mode)
    lap = laplacian(phi, der.gi, der.Gamma, state.mesh)
    return lap - _transport(phi, state, der) if mode == "ungauged" else lap


def mass_of(u: np.ndarray, state: GeometryState) -> float:
    return integrate_values(u, state.g, state.mesh)


def solve_backward(hist, u_T: np.ndarray | None = None,
                   visit=None) -> list[ConjugateState]:
    """Integrate the density from the last stored time T down to the start of
    the history, in the gauge the history was run in.

    The terminal profile defaults to the constant 1/Vol(g(T)).  Reversed time
    s = T - t makes the equation forward-parabolic; flow.march takes one
    rk4 step per stored interval.  visit(i, c, der), when given, is called
    at every stored index i from T down, with the density state c there and
    the stored state's derivation der, which it must not keep.  Returns
    states at every stored time from T down to the start, in decreasing t
    order.
    """
    iT = len(hist.times) - 1
    if u_T is None:
        sT = hist.states[iT]
        vol = mass_of(np.ones(sT.mesh.shape), sT)
        u_T = np.full(sT.mesh.shape, 1.0 / vol)
    out = []

    def rate(y, state, der):  # d u / d s = -(d u / d t)
        return (-conj_rhs(y[0], state, der, hist.mode),)

    for i, (u,), der in march(hist, range(iT, -1, -1),
                              (np.array(u_T, dtype=float),), rate):
        if i != iT and (np.any(u <= 0) or not np.all(np.isfinite(u))):
            raise DomainError(
                "density positivity lost in the backward solve; "
                "the forward step size is too large")
        out.append(ConjugateState(u, mass_of(u, hist.states[i])))
        if visit is not None:
            visit(i, out[-1], der)
    return out
