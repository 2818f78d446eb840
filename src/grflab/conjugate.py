"""Backward-in-time density solve along a stored forward flow.

A positive density u on the base is evolved by the equation conjugate to the
flow, so that its mass with respect to the moving volume form stays constant.
Solving from a uniform terminal profile produces the scalar potential f used
by the energy and entropy functionals.

The transport coefficient Q_COEFF multiplies the <q, grad log u> term.  In the
canonical gauge the conjugate equation has no transport term at all; carrying
it back to the ungauged system along the particle flow of q contributes a full
-<q, grad u>.  That value (-1) is the only choice that keeps the mass exactly
constant in the continuum, which is the defining property of the density, so
it is the value used here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import DomainError, integrate_values
from .flow import rk4
from .geometry import (
    DerivedGeometry,
    GeometryState,
    _derivs,
    derive,
    laplacian,
    norm_sq_DG,
    norm_sq_F,
)
from . import torsion

Q_COEFF = -1.0


@dataclass
class ConjugateState:
    """Positive density u at one time, with its mass."""

    u: np.ndarray
    t: float
    mass: float


def potential(u: np.ndarray, t: float, mode: str, n: int) -> np.ndarray:
    """Recover f from u: steady u = e^-f, expander u = e^-f / (4 pi t)^(n/2)."""
    if np.any(u <= 0):
        raise DomainError("density must be strictly positive")
    if mode == "steady":
        return -np.log(u)
    if mode == "expander":
        if t <= 0:
            raise DomainError("expander potential needs t > 0")
        return -np.log(u) - 0.5 * n * np.log(4.0 * np.pi * t)
    raise ValueError(f"unknown mode {mode!r}")


def dilaton_potential(state: GeometryState, der: DerivedGeometry) -> np.ndarray:
    """Zeroth-order coefficient: R_g - |DG|^2/4 - |F|^2/2 - tr_g calH / 4."""
    k = state.k
    calH, _ = torsion.h_contractions(state, der)
    trH_bb = np.einsum("...ab,...ab->...", der.gi, calH[..., k:, k:])
    return (der.R_g - 0.25 * norm_sq_DG(state, der)
            - 0.5 * norm_sq_F(state, der) - 0.25 * trH_bb)


def conj_rhs(u: np.ndarray, state: GeometryState,
             der: DerivedGeometry) -> np.ndarray:
    """Forward-time rate of the density:

        du/dt = -Lap u + V u + Q_COEFF * <q, grad u>,

    with V the dilaton potential (der: the state's derive()).  The equation
    is backward-parabolic, integrated in reversed time by solve_backward.
    """
    if np.any(u <= 0):
        raise DomainError("density must be strictly positive")
    mesh = state.mesh
    lap = laplacian(u, der.gi, der.Gamma, mesh)
    V = dilaton_potential(state, der)
    drift = np.einsum("...a,...a->...", der.q, _derivs(u, mesh))
    return -lap + V * u + Q_COEFF * drift


def forward_heat_rhs(phi: np.ndarray, state: GeometryState,
                     der: DerivedGeometry) -> np.ndarray:
    """Forward drift-diffusion paired with the density: d(phi)/dt = Lap phi
    + Q_COEFF * <q, grad phi> (der: the state's derive()).  The pairing
    integral of phi against u with the moving volume form is constant."""
    lap = laplacian(phi, der.gi, der.Gamma, state.mesh)
    drift = np.einsum("...a,...a->...", der.q, _derivs(phi, state.mesh))
    return lap + Q_COEFF * drift


def mass_of(u: np.ndarray, state: GeometryState) -> float:
    return integrate_values(u, state.g, state.mesh)


def solve_backward(hist, u_T: np.ndarray | None = None) -> list[ConjugateState]:
    """Integrate the density from the last stored time T down to the start of
    the history.

    The terminal profile defaults to the constant 1/Vol(g(T)).  Reversed time
    s = T - t makes the equation forward-parabolic; each stored interval is
    one flow.rk4 step whose stages read the background at the interval's
    ends and at its midpoint, interpolated by FlowHistory.state_at.  Returns
    states at every stored time from T down to the start, in decreasing t
    order.
    """
    times = np.asarray(hist.times)
    iT = len(times) - 1
    sT = hist.states[iT]
    if u_T is None:
        vol = mass_of(np.ones(sT.mesh.shape), sT)
        u_T = np.full(sT.mesh.shape, 1.0 / vol)
    u = np.asarray(u_T, dtype=float).copy()
    out = [ConjugateState(u.copy(), float(times[iT]), mass_of(u, sT))]
    # reversed-time rates d u / d s = -(d u / d t); each interval derives its
    # midpoint and its t0 end, which is the next interval's t1 end
    st1, der1 = sT, derive(sT, validated=True)
    for i in range(iT, 0, -1):
        t1, t0 = float(times[i]), float(times[i - 1])
        ds = t1 - t0
        stm = hist.state_at(0.5 * (t0 + t1))
        derm = derive(stm, validated=True)
        st0 = hist.states[i - 1]
        der0 = derive(st0, validated=True)
        background = {0.0: (st1, der1), 0.5: (stm, derm), 1.0: (st0, der0)}

        def rate(y, c):
            return (-conj_rhs(y[0], *background[c]),)

        (u,) = rk4((u,), ds, rate)
        if np.any(u <= 0) or not np.all(np.isfinite(u)):
            raise DomainError(
                "density positivity lost in the backward solve; "
                "the forward step size is too large")
        out.append(ConjugateState(u.copy(), t0, mass_of(u, st0)))
        st1, der1 = st0, der0
    return out
