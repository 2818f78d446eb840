"""Backward-in-time density solve along a stored forward flow.

A positive density u on the base is evolved by the equation conjugate to the
flow, so that its mass with respect to the moving volume form stays constant.
Solving from a uniform terminal profile produces the scalar potential f used
by the energy and entropy functionals.

The equation reads four coefficients of the flow, a Background record: the
inverse base metric, its Christoffel symbols, the divergence vector q and
the dilaton potential V.  run_flow stores one record per state, made by
background from the derivation its forward step already holds, and the walk
reads the stored records and FlowHistory.background_at, their interpolant in
time; it derives nothing, and returns its densities by stored index, as the
history holds its states and records.

The flow and this equation come in the gauge modes of GAUGES, kept here
because flow imports this module for its records.  In the canonical gauge
the conjugate equation has no transport term.  The ungauged system differs
from it by the flow of the divergence vector q, so there the density is
also carried along q: the term -<q, grad u>, the one choice that keeps the
mass exactly constant in the continuum.  run_flow records the gauge on its
FlowHistory, and solve_backward reads it there; a mode not in GAUGES raises
ValueError.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .fields import DomainError, Mesh, derivs, integrate_values
from .geometry import (
    DerivedGeometry,
    GeometryState,
    laplacian,
    norm_sq_DG,
    norm_sq_F,
)
from . import torsion

GAUGES = ("ungauged", "canonical")  # the gauge modes of a run


def check_gauge(mode: str) -> None:
    """Raise ValueError unless mode is one of GAUGES."""
    if mode not in GAUGES:
        raise ValueError(f"unknown gauge mode {mode!r}")


class Background(NamedTuple):
    """The coefficients of the conjugate equation at one time: the inverse
    base metric gi, its Christoffel symbols Gamma, the divergence vector q
    and the dilaton potential V."""

    gi: np.ndarray
    Gamma: np.ndarray
    q: np.ndarray
    V: np.ndarray


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
    """Zeroth-order coefficient: R_g - |DG|^2/4 - |F|^2/2 - tr_g calH / 4
    (der: the state's derive())."""
    k = state.k
    calH, _ = torsion.h_contractions(state, der)
    trH_bb = np.einsum("...ab,...ab->...", der.gi, calH[..., k:, k:])
    return (der.R_g - 0.25 * norm_sq_DG(state, der)
            - 0.5 * norm_sq_F(state, der) - 0.25 * trH_bb)


def background(state: GeometryState, der: DerivedGeometry) -> Background:
    """The state's Background record (der: the state's derive())."""
    return Background(der.gi, der.Gamma, der.q, dilaton_potential(state, der))


def _transport(phi: np.ndarray, bg: Background, mesh: Mesh) -> np.ndarray:
    """<q, grad phi>, the rate of phi's transport along q."""
    return np.einsum("...a,...a->...", bg.q, derivs(phi, mesh))


def conj_rhs(u: np.ndarray, bg: Background, mesh: Mesh,
             mode: str = "ungauged") -> np.ndarray:
    """Forward-time rate of the density in the flow's gauge mode:

        du/dt = -Lap u + V u - <q, grad u>,

    with the coefficients of the background bg; the transport term is only
    in the ungauged gauge.  The equation is backward-parabolic, integrated
    in reversed time by solve_backward.
    """
    check_gauge(mode)
    if np.any(u <= 0):
        raise DomainError("density must be strictly positive")
    rate = -laplacian(u, bg.gi, bg.Gamma, mesh) + bg.V * u
    return rate - _transport(u, bg, mesh) if mode == "ungauged" else rate


def forward_heat_rhs(phi: np.ndarray, bg: Background, mesh: Mesh,
                     mode: str = "ungauged") -> np.ndarray:
    """Forward drift-diffusion paired with the density: d(phi)/dt = Lap phi
    - <q, grad phi> on the background bg, the transport term again only in
    the ungauged gauge.  The pairing integral of phi against u with the
    moving volume form is constant."""
    check_gauge(mode)
    lap = laplacian(phi, bg.gi, bg.Gamma, mesh)
    return lap - _transport(phi, bg, mesh) if mode == "ungauged" else lap


def mass_of(u: np.ndarray, state: GeometryState) -> float:
    return integrate_values(u, state.g, state.mesh)


def solve_backward(hist,
                   u_T: np.ndarray | None = None) -> list[ConjugateState]:
    """Integrate the density from the last stored time T down to the start of
    the history, in the gauge the history was run in.

    The terminal profile defaults to the constant 1/Vol(g(T)).  Reversed time
    s = T - t makes the equation forward-parabolic; FlowHistory.march takes
    one rk4 step per stored interval on the stored background records, and
    derives nothing.  Returns one state per stored index, in the history's
    order: the i-th is the density at hist.times[i], the last u_T.
    u lives on the history's mesh, MIN_POINTS points per axis for a
    homogeneous run (flow.run_flow); a u_T off it raises ValueError.
    Raises DomainError naming the stored time when a step leaves a density
    that is not positive and finite, with its first such grid point, or when
    a stage of the step down from that time meets one.
    """
    iT = len(hist.times) - 1
    mesh = hist.states[iT].mesh
    if u_T is None:
        u_T = np.full(mesh.shape, 1.0 / mass_of(np.ones(mesh.shape), hist.states[iT]))
    elif np.shape(u_T) != mesh.shape:
        raise ValueError(f"u_T has shape {np.shape(u_T)}, the history's "
                         f"mesh {mesh.shape}")
    out = [None] * (iT + 1)

    def rate(y, bg):  # d u / d s = -(d u / d t), on the step down from times[i]
        try:
            return (-conj_rhs(y[0], bg, mesh, hist.mode),)
        except DomainError as exc:
            raise DomainError(
                f"{exc} in the step down from t = {hist.times[i]!r}") from exc

    for i, (u,) in hist.march(range(iT, -1, -1),
                              (np.array(u_T, dtype=float),), rate):
        bad = np.flatnonzero(~(np.isfinite(u) & (u > 0)))
        if i != iT and bad.size:
            point = tuple(map(int, np.unravel_index(bad[0], u.shape)))
            raise DomainError(
                f"density {u.flat[bad[0]]:.3e} at grid point {point} at "
                f"t = {hist.times[i]!r} is not positive and finite; the "
                "forward step size is too large")
        out[i] = ConjugateState(u, mass_of(u, hist.states[i]))
    return out
