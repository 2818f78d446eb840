"""Backward density solve and the potential extraction."""

import numpy as np
import pytest

from conftest import flat_abelian_state
from grflab import conjugate
from grflab.cli import preset_flat_abelian, preset_heisenberg_s1
from grflab.conjugate import (conj_rhs, forward_heat_rhs, mass_of, potential,
                              solve_backward)
from grflab.fields import DomainError
from grflab.flow import FlowHistory, IntegratorConfig, run_flow
from grflab.geometry import derive


def static_history(st, t_end=0.05, n_snaps=11):
    hist = FlowHistory()
    for t in np.linspace(0.0, t_end, n_snaps):
        snap = st.copy()
        snap.t = float(t)
        hist.append(snap)
    return hist


def test_static_flat_density_constant():
    st = preset_flat_abelian(16)
    hist = static_history(st)
    traj = solve_backward(hist)
    for c in traj:
        assert np.max(np.abs(c.u - 1.0)) < 1e-12
        assert c.mass == pytest.approx(1.0, abs=1e-12)


def test_potential_trivial_and_roundtrip():
    u = np.ones((8,))
    assert np.max(np.abs(potential(u, 0.3, "steady", 1))) == 0.0
    rng = np.random.default_rng(0)
    u = 0.5 + rng.random(8)
    back = np.exp(-potential(u, 0.1, "steady", 2))
    assert np.max(np.abs(back - u)) < 1e-13
    t = 0.7
    back = np.exp(-potential(u, t, "expander", 2)) / (4.0 * np.pi * t)
    assert np.max(np.abs(back - u)) < 1e-13


def test_potential_domain_errors():
    with pytest.raises(DomainError):
        potential(np.array([1.0, -1.0]), 0.1, "steady", 1)
    with pytest.raises(DomainError):
        potential(np.ones(4), 0.0, "expander", 1)
    with pytest.raises(ValueError):
        potential(np.ones(4), 0.1, "sideways", 1)


def test_conj_rhs_positivity_guard():
    st = preset_flat_abelian(16)
    with pytest.raises(DomainError):
        conj_rhs(np.zeros(st.mesh.shape), st, derive(st))


def test_forward_heat_rate_flat():
    # with flat static background the pairing operator is the plain laplacian
    st = preset_flat_abelian(64)
    (x,) = st.mesh.coords()
    phi = np.sin(2 * np.pi * x)
    rate = forward_heat_rhs(phi, st, derive(st))
    assert np.max(np.abs(rate + (2 * np.pi) ** 2 * phi)) < 2e-2


def test_conj_rhs_flat_is_minus_laplacian():
    st = preset_flat_abelian(64)
    (x,) = st.mesh.coords()
    u = 2.0 + np.sin(2 * np.pi * x)
    der = derive(st)
    rate = conj_rhs(u, st, der)
    lap = -forward_heat_rhs(u, st, der)
    assert np.max(np.abs(rate - lap)) < 1e-10


def test_mass_conserved_on_heisenberg_run():
    st = preset_heisenberg_s1(32)
    hist = run_flow(st, IntegratorConfig(t_end=0.02))
    traj = solve_backward(hist)
    masses = np.array([c.mass for c in traj])
    assert np.max(np.abs(masses - masses[0])) / masses[0] < 1e-8


def test_adjoint_pairing_constant():
    # integral of phi * u dV stays fixed when phi runs forward and u backward
    st = preset_heisenberg_s1(32)
    hist = run_flow(st, IntegratorConfig(t_end=0.02))
    traj = solve_backward(hist)
    by_t = {round(c.t, 12): c for c in traj}
    (x,) = st.mesh.coords()
    phi = 1.0 + 0.3 * np.sin(2 * np.pi * x)
    pairings = []
    cur = phi.copy()
    for i in range(len(hist.times)):
        s = hist.states[i]
        c = by_t[round(hist.times[i], 12)]
        pairings.append(mass_of(cur * c.u, s))
        if i + 1 < len(hist.times):
            dt = hist.times[i + 1] - hist.times[i]
            der = derive(s, validated=True)
            k1 = forward_heat_rhs(cur, s, der)
            k2 = forward_heat_rhs(cur + 0.5 * dt * k1, s, der)
            k3 = forward_heat_rhs(cur + 0.5 * dt * k2, s, der)
            k4 = forward_heat_rhs(cur + dt * k3, s, der)
            cur = cur + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    drift = max(abs(p - pairings[0]) for p in pairings) / abs(pairings[0])
    assert drift < 1e-5


def test_backward_maximum_principle_static():
    # pure diffusion in reversed time keeps the density inside its terminal range
    st = preset_flat_abelian(32)
    hist = static_history(st, t_end=0.02, n_snaps=41)
    (x,) = st.mesh.coords()
    u_T = 1.0 + 0.5 * np.sin(2 * np.pi * x)
    traj = solve_backward(hist, u_T=u_T)
    for c in traj:
        assert np.min(c.u) > 0.49
        assert np.max(c.u) < 1.51
        assert c.mass == pytest.approx(traj[0].mass, abs=1e-12)
