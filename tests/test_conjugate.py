"""Backward density solve and the potential extraction."""

import sys

import numpy as np
import pytest

from grflab import conjugate, presets
from grflab.conjugate import (GAUGES, background, conj_rhs, forward_heat_rhs,
                              mass_of, potential, solve_backward)
from grflab.fields import DomainError
from grflab.flow import FlowHistory, IntegratorConfig, evaluate_rhs, run_flow
from grflab.geometry import derive


def static_history(st, t_end=0.05, n_snaps=11):
    hist = FlowHistory()
    for t in np.linspace(0.0, t_end, n_snaps):
        snap = st.copy()
        snap.t = float(t)
        hist.append(snap, background(snap, derive(snap)), snap.validate())
    return hist


def test_static_flat_density_constant():
    st = presets.build("flat-abelian", 16)
    hist = static_history(st)
    traj = solve_backward(hist)
    for c in traj:
        assert np.max(np.abs(c.u - 1.0)) < 1e-12
        assert c.mass == pytest.approx(1.0, abs=1e-12)


def test_potential_trivial_and_roundtrip():
    u = np.ones((8,))
    assert np.max(np.abs(potential(u))) == 0.0
    rng = np.random.default_rng(0)
    u = 0.5 + rng.random(8)
    back = np.exp(-potential(u))
    assert np.max(np.abs(back - u)) < 1e-13


def test_potential_domain_errors():
    with pytest.raises(DomainError):
        potential(np.array([1.0, -1.0]))
    with pytest.raises(DomainError):
        potential(np.zeros(4))


def test_conj_rhs_positivity_guard():
    st = presets.build("flat-abelian", 16)
    with pytest.raises(DomainError):
        conj_rhs(np.zeros(st.mesh.shape), background(st, derive(st)), st.mesh)


def test_forward_heat_rate_flat():
    # with flat static background the pairing operator is the plain laplacian
    st = presets.build("flat-abelian", 64)
    (x,) = st.mesh.coords()
    phi = np.sin(2 * np.pi * x)
    rate = forward_heat_rhs(phi, background(st, derive(st)), st.mesh)
    assert np.max(np.abs(rate + (2 * np.pi) ** 2 * phi)) < 2e-2


def test_conj_rhs_flat_is_minus_laplacian():
    st = presets.build("flat-abelian", 64)
    (x,) = st.mesh.coords()
    u = 2.0 + np.sin(2 * np.pi * x)
    bg = background(st, derive(st))
    rate = conj_rhs(u, bg, st.mesh)
    lap = -forward_heat_rhs(u, bg, st.mesh)
    assert np.max(np.abs(rate - lap)) < 1e-10


def test_mass_conserved_on_heisenberg_run():
    st = presets.build("heisenberg-s1", 32)
    hist = run_flow(st, IntegratorConfig(t_end=0.02))
    traj = solve_backward(hist)
    masses = np.array([c.mass for c in traj])
    assert np.max(np.abs(masses - masses[-1])) / masses[-1] < 1e-8


def test_adjoint_pairing_constant():
    # integral of phi * u dV stays fixed when phi runs forward and u backward
    # along the same stored flow.  On the modulated state u is not uniform,
    # and the drift falls at the 4th order of FlowHistory.march (about 15x per
    # doubling); a background frozen over each interval leaves 5.6e-8
    # (ungauged) at N=32, falling only 3-4x per doubling
    for mode in ("ungauged", "canonical"):
        drifts = []
        for N in (16, 32):
            st = modulated_heisenberg_s1(N)
            (x,) = st.mesh.coords()
            hist = run_flow(st, IntegratorConfig(t_end=0.01, mode=mode))
            u_T = np.exp(0.1 * np.cos(2 * np.pi * x))
            traj = solve_backward(hist, u_T=u_T)
            phi = 1.0 + 0.3 * np.sin(2 * np.pi * x)

            def rate(y, bg):
                return (forward_heat_rhs(y[0], bg, st.mesh, mode),)

            pairings = [mass_of(phi * traj[i].u, hist.states[i]) for i, (phi,)
                        in hist.march(range(len(hist.times)), (phi,), rate)]
            drifts.append(max(abs(p - pairings[0]) for p in pairings)
                          / abs(pairings[0]))
        assert drifts[1] < 1e-7, (mode, drifts)
        assert drifts[0] / drifts[1] >= 12, (mode, drifts)


def test_walks_are_fourth_order_in_time():
    # at a fixed mesh the pairing's drift is a spatial floor (6.6e-9
    # ungauged, 5.4e-9 canonical at N=32) that does not move with the step,
    # so the time order shows in the walked solutions: their change per
    # halving of fixed_dt falls about 17x; a midpoint background averaged
    # from the interval's ends falls only 4x
    for mode in ("ungauged", "canonical"):
        ends = []
        for dt in (1e-3, 5e-4, 2.5e-4):
            st = modulated_heisenberg_s1(32)
            (x,) = st.mesh.coords()
            hist = run_flow(st, IntegratorConfig(t_end=0.01, mode=mode, fixed_dt=dt))
            u_0 = solve_backward(hist, u_T=np.exp(0.1 * np.cos(2 * np.pi * x)))[0].u

            def rate(y, bg):
                return (forward_heat_rhs(y[0], bg, st.mesh, mode),)

            phi = 1.0 + 0.3 * np.sin(2 * np.pi * x)
            for _, (phi,) in hist.march(range(len(hist.times)), (phi,), rate):
                pass
            ends.append((u_0, phi))
        for j in range(2):  # the backward density, the forward solution
            coarse, fine = (np.max(np.abs(a[j] - b[j]))
                            for a, b in zip(ends, ends[1:]))
            assert coarse >= 12 * fine > 0, (mode, j, coarse, fine)


def modulated_heisenberg_s1(N):
    """heisenberg-s1 with G_11 and g_11 modulated, so that q does not vanish."""
    st = presets.build("heisenberg-s1", N)
    (x,) = st.mesh.coords()
    st.G[..., 0, 0] *= 1.0 + 0.2 * np.cos(2 * np.pi * x)
    st.g[..., 0, 0] *= 1.0 + 0.1 * np.sin(2 * np.pi * x)
    return st


def test_stored_walks_derive_each_state_once(monkeypatch):
    # over n steps run_flow derives each stored state once, and the three
    # later stages of each step; the backward walk reads the stored records
    # and their interpolants, and derives nothing
    st = modulated_heisenberg_s1(16)
    calls = []

    def counting(state, *args, **kwargs):
        calls.append(state.t)
        return derive(state, *args, **kwargs)

    for module in list(sys.modules.values()):
        if (module.__name__.startswith("grflab")
                and getattr(module, "derive", None) is derive):
            monkeypatch.setattr(module, "derive", counting)
    hist = run_flow(st, IntegratorConfig(t_end=0.01, fixed_dt=1e-3))
    n = len(hist.times) - 1
    assert n == 10 and len(calls) == 4 * n + 1
    calls.clear()
    assert len(solve_backward(hist)) == n + 1
    assert not calls


@pytest.mark.parametrize("mode", ["ungauged", "canonical"])
def test_mass_rate_vanishes_in_either_gauge(mode):
    # d/dt int u dV = int (du/dt + tr_g(dg/dt) u / 2) dV along the flow of
    # the same gauge; the other gauge's equation leaves 0.2
    st = modulated_heisenberg_s1(32)
    (x,) = st.mesh.coords()
    u = np.exp(0.1 * np.cos(2 * np.pi * x))
    der = derive(st)
    assert np.max(np.abs(der.q)) > 0.1
    dg = evaluate_rhs(st, mode).dg
    trdg = np.einsum("...ab,...ab->...", der.gi, dg)
    bg = background(st, der)
    density_rate = conj_rhs(u, bg, st.mesh, mode) + 0.5 * trdg * u
    assert abs(mass_of(density_rate, st)) < 1e-5
    # so does the rate of its pairing with a forward solution phi, which
    # the other gauge's forward equation leaves at 7.6e-4
    phi = 1.0 + 0.3 * np.sin(2 * np.pi * x)
    rate = mass_of(forward_heat_rhs(phi, bg, st.mesh, mode) * u
                   + phi * density_rate, st)
    assert abs(rate) < 1e-5


@pytest.mark.parametrize("mode", ["ungauged", "canonical"])
def test_backward_solve_runs_in_the_flow_gauge(mode):
    # solved in the other gauge, this density's mass drifts by 3.7e-4
    st = modulated_heisenberg_s1(16)
    (x,) = st.mesh.coords()
    hist = run_flow(st, IntegratorConfig(t_end=2e-3, mode=mode))
    assert hist.mode == mode
    traj = solve_backward(hist, u_T=np.exp(0.1 * np.cos(2 * np.pi * x)))
    masses = np.array([c.mass for c in traj])
    assert np.max(np.abs(masses - masses[-1])) / masses[-1] < 1e-6


@pytest.mark.parametrize("mode", GAUGES)
def test_the_walk_returns_its_densities_by_stored_index(mode):
    # the walk runs down the history, and its i-th density is the one at
    # hist.times[i]: the last is u_T, and each mass is taken on its own
    # state; a homogeneous history lives on 8 points, an inhomogeneous one
    # on its own mesh
    for st in (presets.build("heisenberg-s1", 16), modulated_heisenberg_s1(16)):
        hist = run_flow(st, IntegratorConfig(t_end=3e-3, fixed_dt=1e-3, mode=mode))
        (x,) = hist.states[-1].mesh.coords()
        u_T = np.exp(0.1 * np.cos(2 * np.pi * x))
        traj = solve_backward(hist, u_T=u_T)
        assert len(traj) == len(hist.times) == 4
        assert np.array_equal(traj[-1].u, u_T)
        assert not np.array_equal(traj[0].u, u_T)
        for c, state in zip(traj, hist.states, strict=True):
            assert c.mass == mass_of(c.u, state)


def test_a_backward_stage_failure_names_the_step(monkeypatch):
    # a potential this large drives the density negative within the second
    # stage of the first step, from the last stored time down
    monkeypatch.setattr(conjugate, "dilaton_potential",
                        lambda state, der: np.full(state.mesh.shape, 1e6))
    hist = static_history(presets.build("flat-abelian", 16))
    with pytest.raises(DomainError, match=r"^density must be strictly positive "
                                          r"in the step down from t = 0\.05$"):
        solve_backward(hist)


def test_unknown_gauge_rejected():
    # every mode but "ungauged" used to run as canonical here
    st = modulated_heisenberg_s1(16)
    bg = background(st, derive(st))
    u = np.ones(st.mesh.shape)
    for rhs in (conj_rhs, forward_heat_rhs):
        with pytest.raises(ValueError, match="'sideways'"):
            rhs(u, bg, st.mesh, "sideways")
    hist = static_history(st, t_end=1e-3, n_snaps=3)
    hist.mode = "Ungauged"
    with pytest.raises(ValueError, match="'Ungauged'"):
        solve_backward(hist)
    with pytest.raises(ValueError, match="'Ungauged'"):
        evaluate_rhs(st, "Ungauged")


def test_backward_maximum_principle_static():
    # pure diffusion in reversed time keeps the density inside its terminal range
    st = presets.build("flat-abelian", 32)
    hist = static_history(st, t_end=0.02, n_snaps=41)
    (x,) = st.mesh.coords()
    u_T = 1.0 + 0.5 * np.sin(2 * np.pi * x)
    traj = solve_backward(hist, u_T=u_T)
    for c in traj:
        assert np.min(c.u) > 0.49
        assert np.max(c.u) < 1.51
        assert c.mass == pytest.approx(traj[-1].mass, abs=1e-12)


def test_a_terminal_density_off_the_history_mesh_is_refused():
    # a homogeneous run's history lives on 8 points per axis, so a density
    # on the input mesh names both shapes in one line
    st = presets.build("heisenberg-s1", 16)
    hist = run_flow(st, IntegratorConfig(t_end=3e-3, fixed_dt=1e-3))
    with pytest.raises(ValueError, match=r"^u_T has shape \(16,\), the history's "
                                         r"mesh \(8,\)$"):
        solve_backward(hist, u_T=np.ones(st.mesh.shape))
    assert len(solve_backward(hist, u_T=np.ones(hist.states[-1].mesh.shape))) == 4
