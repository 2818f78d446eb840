"""Coupled evolution: right-hand sides, stepping, rescaling, gauge transport."""

import csv
import dataclasses
import itertools
import json

import numpy as np
import pytest

from conftest import flat_abelian_state, heisenberg_state
from grflab import algebra, conjugate, flow, geometry, presets, torsion
from grflab.cli import ScenarioConfig, random_state, run_pipeline
from grflab.conjugate import GAUGES, Background, background, dilaton_potential
from grflab.fields import MIN_POINTS, DomainError, Mesh
from grflab.flow import (FlowHistory, IntegratorConfig, blowdown_rescale,
                         cfl_dt, evaluate_rhs, gauge_equivalence_report,
                         pullback_state_1d, rk4_step, run_flow,
                         transport_map_1d)
from grflab.geometry import GeometryState, derive


def min_eig(field) -> float:
    """The smallest eigenvalue of a symmetric matrix field over its grid."""
    return float(np.linalg.eigvalsh(field)[..., 0].min())


def test_flat_abelian_rhs_zero_all_gauges():
    st = flat_abelian_state()
    for rhs in (evaluate_rhs(st, "ungauged"), evaluate_rhs(st, "canonical")):
        assert np.max(np.abs(rhs.dG)) < 1e-13
        assert np.max(np.abs(rhs.dg)) < 1e-13
        assert np.max(np.abs(rhs.dA)) < 1e-13
        assert np.max(np.abs(rhs.dH)) < 1e-13
    with pytest.raises(ValueError):
        evaluate_rhs(st, "sideways")


def test_heisenberg_initial_rate():
    st = heisenberg_state()
    rhs = evaluate_rhs(st, "ungauged")
    assert np.max(np.abs(rhs.dG - np.diag([1.0, 1.0, -1.0]))) < 1e-10
    assert np.max(np.abs(rhs.dg)) < 1e-10
    assert np.max(np.abs(rhs.dA)) < 1e-10


def test_heisenberg_run_matches_closed_form():
    # constant Heisenberg fibers evolve as G = diag(a, a, 1/a) with
    # a(t) = (1 + 3 t)^(1/3); the base metric stays fixed
    st = presets.build("heisenberg-s1", 16)
    hist = run_flow(st, IntegratorConfig(t_end=0.3, fixed_dt=1e-3))
    assert not hist.abort_reason
    for i in (len(hist.times) // 2, len(hist.times) - 1):
        t = hist.times[i]
        a = (1.0 + 3.0 * t) ** (1.0 / 3.0)
        expected = np.diag([a, a, 1.0 / a])
        assert np.max(np.abs(hist.states[i].G - expected)) < 1e-9
        assert np.max(np.abs(hist.states[i].g - 1.0)) < 1e-9
        assert np.max(np.abs(hist.states[i].A)) < 1e-12


def test_canonical_equals_ungauged_when_q_vanishes():
    st = presets.build("heisenberg-s1", 16)
    cfg_u = IntegratorConfig(t_end=0.02, mode="ungauged")
    cfg_c = IntegratorConfig(t_end=0.02, mode="canonical")
    hu = run_flow(st, cfg_u)
    hc = run_flow(st, cfg_c)
    assert np.max(np.abs(hu.states[-1].G - hc.states[-1].G)) < 1e-13
    assert np.max(np.abs(hu.states[-1].g - hc.states[-1].g)) < 1e-13


def test_rk4_zero_rhs_fixed_point():
    st = flat_abelian_state()
    out = rk4_step(st, 0.01, "ungauged")
    assert np.max(np.abs(out.G - st.G)) < 1e-14
    assert np.max(np.abs(out.g - st.g)) < 1e-14
    assert np.max(np.abs(out.A)) < 1e-14


def test_rk4_tableau():
    # y' = lam y: one step is the degree-4 Taylor polynomial of exp(lam h)
    lam, h = -1.3, 0.2
    y0 = (np.array([1.0, -2.0]), np.array([[0.5]]))
    got = flow.rk4(y0, h, lambda y, c: tuple(lam * a for a in y))
    growth = sum((lam * h) ** j / np.prod(np.arange(1, j + 1)) for j in range(5))
    for a, b in zip(got, y0):
        np.testing.assert_allclose(a, growth * b, rtol=1e-15, atol=0)
    # y' = (t0 + c h)^3: the stage fractions and weights integrate a cubic exactly
    t0, h = 0.7, 0.3
    (got,) = flow.rk4((np.array(2.0),), h, lambda y, c: ((t0 + c * h) ** 3,))
    assert got == pytest.approx(2.0 + ((t0 + h) ** 4 - t0 ** 4) / 4.0,
                                rel=1e-15, abs=0)


def test_cfl_scaling():
    def dt(st):
        return cfl_dt(st.mesh, st.validate()[1], 0.1)

    st16 = flat_abelian_state(N=16)
    st32 = flat_abelian_state(N=32)
    assert dt(st16) == pytest.approx(4.0 * dt(st32))
    st_big = flat_abelian_state(N=16, g0=[[4.0]])
    # larger g means smaller g^{-1}, so a larger stable step
    assert dt(st_big) == pytest.approx(4.0 * dt(st16))


@pytest.mark.parametrize("mode", ["ungauged", "canonical"])
def test_rk4_step_keeps_2d_metrics_symmetric(mode):
    # the discrete mixed derivatives in the Ricci blocks are not symmetric
    st = random_state(np.random.default_rng(3), algebra.heisenberg3(), 16, 2)
    out = rk4_step(st, 1e-3, mode)
    assert np.array_equal(out.G, np.swapaxes(out.G, -1, -2))
    assert np.array_equal(out.g, np.swapaxes(out.g, -1, -2))


def test_run_flow_rejects_non_spd_initial_state():
    st = flat_abelian_state(g0=[[-1.0]])
    with pytest.raises(DomainError):
        run_flow(st, IntegratorConfig(t_end=0.2, max_steps=5))


def test_abort_on_blowup():
    st = presets.build("heisenberg-s1", 16)
    hist = run_flow(st, IntegratorConfig(t_end=100.0, fixed_dt=10.0,
                                         max_steps=50))
    # where, as plain integers, and when: the time of the rejected state
    assert "at grid point (0,):" in hist.abort_reason
    assert hist.abort_reason.endswith(" at t = 10.0")


def test_abort_names_the_nonfinite_field(monkeypatch):
    # eigvalsh of a metric holding NaN can return finite eigenvalues, so a
    # non-finite field must be caught before the SPD check and never stored
    calls = []

    def nan_last_stage(state, mode="ungauged", der=None):
        rhs = evaluate_rhs(state, mode, der)
        calls.append(mode)
        if len(calls) % 4 == 0:
            rhs.dH[0, 0, 0, 0] = np.nan
        return rhs

    monkeypatch.setattr(flow, "evaluate_rhs", nan_last_stage)
    hist = run_flow(flat_abelian_state(), IntegratorConfig(
        t_end=0.2, fixed_dt=0.01, max_steps=5))
    assert len(hist.states) == 1
    assert hist.abort_reason == "H is no longer finite at t = 0.01"


def test_run_flow_rejects_nonpositive_step():
    # a non-positive step would march backward in time until max_steps
    st = flat_abelian_state()
    for kw in ({"fixed_dt": -0.001}, {"fixed_dt": 0.0},
               {"cfl_sigma": 0.0}, {"cfl_sigma": -1.0}):
        with pytest.raises(ValueError):
            run_flow(st, IntegratorConfig(t_end=0.2, max_steps=5, **kw))


def test_blowdown_identity_and_flatness():
    st = heisenberg_state()
    same = blowdown_rescale(st, 1.0)
    assert np.max(np.abs(same.G - st.G)) == 0.0
    flat = flat_abelian_state()
    resc = blowdown_rescale(flat, 4.0)
    rhs = evaluate_rhs(resc, "ungauged")
    assert np.max(np.abs(rhs.dG)) < 1e-13
    assert np.max(np.abs(rhs.dg)) < 1e-13
    with pytest.raises(ValueError):
        blowdown_rescale(st, -1.0)


def test_blowdown_scales_fields():
    st = heisenberg_state()
    st.t = 0.5
    resc = blowdown_rescale(st, 2.0)
    assert resc.t == pytest.approx(0.25)
    assert np.max(np.abs(resc.G - 0.5 * st.G)) < 1e-14
    assert np.max(np.abs(resc.g - 0.5 * st.g)) < 1e-14


def test_pullback_identity_map():
    rng = np.random.default_rng(2)
    st = random_state(rng, algebra.heisenberg3(), 32, 1)
    x = np.arange(32) * st.mesh.spacings[0]
    back = pullback_state_1d(st, x)
    assert np.max(np.abs(back.G - st.G)) < 1e-10
    assert np.max(np.abs(back.g - st.g)) < 1e-10
    assert np.max(np.abs(back.A - st.A)) < 1e-10


def test_transport_map_zero_q():
    st = presets.build("heisenberg-s1", 16)
    hist = run_flow(st, IntegratorConfig(t_end=0.01))
    phi = transport_map_1d(hist, 0.01)
    mesh = hist.states[0].mesh
    x = np.arange(mesh.sizes[0]) * mesh.spacings[0]
    L = mesh.lengths[0]
    circle_gap = np.minimum(np.abs(phi - x), L - np.abs(phi - x))
    assert np.max(circle_gap) < 1e-12


def test_gauge_check_trivial_on_homogeneous_data():
    st = presets.build("heisenberg-s1", 16)
    hu = run_flow(st, IntegratorConfig(t_end=0.01, mode="ungauged"))
    hc = run_flow(st, IntegratorConfig(t_end=0.01, mode="canonical"))
    gaps = gauge_equivalence_report(hu, hc, 0.01)
    assert max(gaps.values()) < 1e-10


# uneven stored times, as a CFL-limited run stores
LOOKUP_TIMES = [0.0, 0.11, 0.19, 0.32, 0.4, 0.53, 0.61, 0.72, 0.86, 0.93, 1.05, 1.2]


def history_of(arrays_at):
    """A FlowHistory at LOOKUP_TIMES on flat_abelian_state's mesh whose state
    at time t holds the first four arrays of arrays_at(t) as its fields and
    whose record holds the last four."""
    st = flat_abelian_state()
    hist = FlowHistory()
    for t in LOOKUP_TIMES:
        arrays = arrays_at(t)
        hist.append(st.with_fields(t, arrays[:4]), Background(*arrays[4:]),
                    (1.0, 1.0))
    return hist


def test_history_state_at():
    # state_at and background_at are the centred cubic Lagrange interpolant
    st = flat_abelian_state()
    shapes = [f.shape for f in (*st.fields, *background(st, derive(st)))]
    times = np.array(LOOKUP_TIMES)
    # 5e-15 off a stored time a lookup snaps to it, 1e-12 off it interpolates
    snaps = [t + off for t in times for off in (-5e-15, 5e-15)]
    off_node = np.hstack([times[1:-1] - 1e-12, times[1:-1] + 1e-12,
                          *(times[:-1] + c * np.diff(times) for c in (0.1, 0.5, 0.8))])

    # a cubic in t on every field and record entry is reproduced to round-off
    coeffs = [np.random.default_rng(n).normal(size=(4,) + s)
              for n, s in enumerate(shapes)]

    def cubic_at(t):
        return [c[0] + t * (c[1] + t * (c[2] + t * c[3])) for c in coeffs]

    cubic = history_of(cubic_at)
    for t in off_node:
        state = cubic.state_at(t)
        assert state.t == t
        for a, want in zip([*state.fields, *cubic.background_at(t)], cubic_at(t)):
            assert np.max(np.abs(a - want)) <= 1e-14 * np.max(np.abs(want)), t

    # a unit impulse at interior index m enters the four intervals nearest
    # it, two on each side; a snapped lookup returns the stored objects
    for m in range(4, len(times) - 4):
        hist = history_of(lambda t: [np.full(s, float(t == times[m]))
                                     for s in shapes])
        for t in (*times, *snaps, *off_node):
            i = int(np.argmin(np.abs(times - t)))
            state, bg = hist.state_at(t), hist.background_at(t)
            snapped = abs(times[i] - t) < 1e-14
            assert (state is hist.states[i] and bg is hist.records[i]) == snapped, t
            assert state.t == (times[i] if snapped else t)
            seen = i == m if snapped else times[m - 2] < t < times[m + 2]
            assert all(a.any() == seen for a in (*state.fields, *bg)), (m, t)
    # the cubic is not extrapolated past either end
    for t in (-1e-3, -1e-12, times[-1] + 1e-12, times[-1] + 0.1):
        for lookup in (hist.state_at, hist.background_at):
            with pytest.raises(ValueError, match="outside the stored span"):
                lookup(t)


def test_two_state_history_interpolates_linearly():
    # one step stores two states, so a midpoint reads a 2-node interpolant:
    # the mean of the two records
    st = random_state(np.random.default_rng(3), algebra.heisenberg3(), 8, 2)
    hist = run_flow(st, IntegratorConfig(t_end=1e-3, fixed_dt=1e-3))
    assert len(hist.records) == 2
    mid = hist.background_at(0.5 * hist.times[1])
    for a, r0, r1 in zip(mid, *hist.records):
        assert np.allclose(a, 0.5 * (r0 + r1), rtol=1e-14, atol=1e-15)


@pytest.mark.parametrize("mode", GAUGES)
def test_stored_records_are_the_states_coefficients(mode):
    # each record, made from the derivation of the forward step, equals
    # the coefficients of a fresh derivation of its stored state, bit for bit
    for st in (presets.build("inoue-like", 16),
               random_state(np.random.default_rng(3), algebra.heisenberg3(), 8, 2)):
        hist = run_flow(st, IntegratorConfig(t_end=3e-3, fixed_dt=1e-3, mode=mode))
        assert len(hist.records) == len(hist.states) == 4
        for state, record in zip(hist.states, hist.records):
            der = derive(state)
            fresh = (der.gi, der.Gamma, der.q, dilaton_potential(state, der))
            for a, b in zip(record, fresh, strict=True):
                assert np.array_equal(a, b), (st.d, mode, state.t)


@pytest.mark.parametrize("mode", GAUGES)
def test_run_flow_matches_steps_that_derive_afresh(mode):
    # handing each state's derivation to its step's first stage changes no bit
    for st in (presets.build("inoue-like", 16),
               random_state(np.random.default_rng(3), algebra.heisenberg3(), 8, 2)):
        config = IntegratorConfig(t_end=3e-3, fixed_dt=1e-3, mode=mode)
        hist = run_flow(st, config)
        cur = restricted(st, hist.states[0].mesh)
        for state in hist.states[1:]:
            cur = rk4_step(cur, min(config.fixed_dt, config.t_end - cur.t), mode)
            assert cur.t == state.t
            for a, b in zip(cur.fields, state.fields):
                assert np.array_equal(a, b), (st.d, mode, state.t)


@pytest.mark.parametrize("mode", GAUGES)
def test_kept_report_inputs_equal_fresh_ones(mode):
    # a report reads the forward pass's derivations, first-stage velocities
    # and eigenvalues; each equals a fresh one bit for bit, and derivations
    # are kept for the reported indices only
    for st in (presets.build("inoue-like", 16),
               random_state(np.random.default_rng(3), algebra.heisenberg3(), 8, 2)):
        config = IntegratorConfig(t_end=5e-3, fixed_dt=1e-3, mode=mode)
        assert not run_flow(st, config).derived
        hist = run_flow(st, config, report_stride=2)
        assert not hist.abort_reason and len(hist.states) == 6
        assert sorted(hist.derived) == [0, 2, 4, 5]
        assert len({id(der) for der in hist.derived.values()}) == 4
        for state, min_eigs in zip(hist.states, hist.min_eigs, strict=True):
            assert min_eigs == (min_eig(state.G), min_eig(state.g))
        for i, kept in hist.derived.items():
            state = hist.states[i]
            # the first stage of a step from the state formed its velocity
            assert (kept.velocity is None) == (i == 5), (st.d, i)
            fresh = derive(state)
            pairs = zip(flow.ungauged_rates(state, kept),
                        flow.ungauged_rates(state, fresh), strict=True)
            for a, b in pairs:
                assert np.array_equal(a, b) and not a.flags.writeable, (st.d, i)
                with pytest.raises(ValueError, match="read-only"):
                    a *= 1.0
            assert flow.ungauged_rates(state, kept) is kept.velocity
            for name in (f.name for f in dataclasses.fields(fresh)):
                if name != "velocity":
                    assert np.array_equal(getattr(kept, name), getattr(fresh, name)), \
                        (st.d, i, name)


def test_rhs_skips_the_full_array_torsion_round_trip(monkeypatch):
    # the torsion rate and source are built at their increasing index tuples
    # and spread once; none of the full-array kernels runs on the way
    st = random_state(np.random.default_rng(4), algebra.heisenberg3(), 8, 2)
    calls = {}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args, **kwargs)
        return wrapper

    for name in ("pack_full", "algebroid_d", "moving_frame_correction",
                 "structure_functions", "b_dot", "torsion_rate"):
        monkeypatch.setattr(torsion, name,
                            counted(name, getattr(torsion, name, None)),
                            raising=False)
    for mode in GAUGES:
        calls.clear()
        evaluate_rhs(st, mode)
        assert calls == {"b_dot": 1, "torsion_rate": 1}, mode


def test_torsion_free_runs_skip_the_codifferential(monkeypatch):
    # H = 0 is kept exactly by the flow, and its torsion source is never
    # formed; a run with torsion forms it at every evaluation
    calls = []
    dstar = torsion.minus_dstar_terms

    def counted(*args):
        calls.append(1)
        return dstar(*args)

    monkeypatch.setattr(torsion, "minus_dstar_terms", counted)
    free = (presets.build("heisenberg-s1", 16),
            random_state(np.random.default_rng(8), algebra.heisenberg3(), 8, 2,
                         with_H=False))
    for st in free:
        for mode in GAUGES:
            hist = run_flow(st, IntegratorConfig(t_end=0.005, fixed_dt=1e-3,
                                                 mode=mode))
            assert not hist.abort_reason and len(hist.states) == 6
            assert not any(s.H.any() for s in hist.states)
            assert not calls, (st.d, mode)
    run_flow(presets.build("inoue-like", 16),
             IntegratorConfig(t_end=0.005, fixed_dt=1e-3))
    assert calls


def test_circle_runs_never_form_the_curvature_2_form(monkeypatch):
    # a 1-D base carries no 2-forms, so no stage of a run on a circle forms
    # F or DF; a run on a torus forms both at every derivation
    calls = []
    for name in ("compute_F", "compute_DF"):
        def counted(*args, _name=name, _kernel=getattr(geometry, name)):
            calls.append(_name)
            return _kernel(*args)
        monkeypatch.setattr(geometry, name, counted)
    for st in (presets.build("heisenberg-s1", 16), presets.build("inoue-like", 16)):
        for mode in GAUGES:
            hist = run_flow(st, IntegratorConfig(t_end=0.005, fixed_dt=1e-3,
                                                 mode=mode))
            assert not hist.abort_reason and len(hist.states) == 6
            assert not calls, mode
    run_flow(random_state(np.random.default_rng(8), algebra.heisenberg3(), 8, 2),
             IntegratorConfig(t_end=0.002, fixed_dt=1e-3))
    assert {"compute_F", "compute_DF"} <= set(calls)


def test_transport_needs_a_stored_time():
    st = presets.build("heisenberg-s1", 16)
    hu = run_flow(st, IntegratorConfig(t_end=0.01, fixed_dt=1e-3))
    hc = run_flow(st, IntegratorConfig(t_end=0.01, fixed_dt=1e-3,
                                       mode="canonical"))
    for t in (0.0055, 0.02, -1e-3):
        with pytest.raises(ValueError, match="not a stored time"):
            transport_map_1d(hu, t)
    with pytest.raises(ValueError, match="not a stored time"):
        gauge_equivalence_report(hu, hc, 0.0055)
    # and a history on a 2-torus has no transport map, at any time
    st2 = random_state(np.random.default_rng(8), algebra.heisenberg3(), 8, 2)
    with pytest.raises(ValueError, match="1-D bases only"):
        transport_map_1d(FlowHistory(times=[0.0], states=[st2]), 0.0)


# --- homogeneous runs ---------------------------------------------------------

def same_bits(a, b) -> bool:
    """Equal bit for bit: == reads 0.0 and -0.0 as equal."""
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


def restricted(st, mesh):
    """st at the first points of its grid that mesh covers, on mesh."""
    first = tuple(slice(n) for n in mesh.sizes)
    return GeometryState(st.t, mesh, st.alg, *(f[first].copy() for f in st.fields))


def random_constant_state(rng, alg, N, d):
    """Seeded random fields that are the same at every grid point, with a
    nonzero connection form and torsion."""
    k, K = alg.k, alg.k + d
    M, m = 0.2 * rng.normal(size=(k, k)), 0.2 * rng.normal(size=(d, d))
    point = (np.eye(k) + M @ M.T, np.eye(d) + m @ m.T, 0.3 * rng.normal(size=(d, k)),
             torsion.alternating_sum(0.2 * rng.normal(size=(K, K, K))))
    mesh = Mesh((N,) * d, (2.0 * np.pi,) * d)
    return GeometryState(0.0, mesh, alg, *(np.broadcast_to(f, mesh.shape + f.shape).copy()
                                           for f in point))


@pytest.mark.parametrize("mode", GAUGES)
def test_constant_states_have_the_same_rates_on_every_grid(mode):
    # the premise of the homogeneous path: on a constant state every grid
    # point of the right-hand side holds the same bits, on any grid size
    algebras = {"heisenberg3": algebra.heisenberg3(), "abelian3": algebra.abelian(3)}
    for d, (name, alg) in itertools.product((1, 2), algebras.items()):
        first = None
        for N in (8, 13, 64):
            st = random_constant_state(np.random.default_rng(10 * d + len(name)), alg, N, d)
            assert st.homogeneous()
            if d == 2 and name == "heisenberg3":  # c A A: F != 0 on the torus
                assert derive(st).F.any()
            rates = [r.reshape((-1,) + r.shape[d:]) for r in evaluate_rhs(st, mode)]
            assert all(r.any() and same_bits(r, np.broadcast_to(r[0], r.shape))
                       for r in rates), (d, name, N)
            first = first or [r[0] for r in rates]
            assert all(same_bits(a, r[0]) for a, r in zip(first, rates)), (d, name, N)


def full_mesh_loop(st, config):
    """run_flow's march written out on st's own mesh: rk4_step, derive and
    background per state.  Returns (states, records, derivations, min_eigs,
    abort_reason)."""
    cur = st.copy()
    min_eigs = [cur.validate()]
    ders = [derive(cur)]
    records = [background(cur, ders[0])]
    states = [cur]
    while cur.t < config.t_end - 1e-14:
        dt = config.fixed_dt or cfl_dt(cur.mesh, min_eig(cur.g), config.cfl_sigma)
        dt = min(dt, config.t_end - cur.t)
        nxt = rk4_step(cur, dt, config.mode, ders[-1])
        try:
            eigs = nxt.validate()
        except DomainError as exc:
            return states, records, ders, min_eigs, f"{exc} at t = {cur.t + dt!r}"
        cur = nxt
        ders.append(derive(cur))
        records.append(background(cur, ders[-1]))
        states.append(cur)
        min_eigs.append(eigs)
    return states, records, ders, min_eigs, ""


def homogeneous_runs():
    for name in ("heisenberg-s1", "inoue-like", "flat-abelian"):
        for step in ({"fixed_dt": 1e-3, "t_end": 5e-3}, {"t_end": 2e-3}):
            yield presets.build(name, 16), step


@pytest.mark.parametrize("mode", GAUGES)
def test_homogeneous_runs_equal_the_full_mesh_loop(mode, monkeypatch):
    # a homogeneous run steps and stores on the 8-point grid of the same
    # box; every stored value equals the full-mesh march there bit for bit
    meshes = []

    def step(state, *args):
        meshes.append(state.mesh.sizes)
        return rk4_step(state, *args)

    for st, step_keys in homogeneous_runs():
        config = IntegratorConfig(mode=mode, **step_keys)
        meshes.clear()
        monkeypatch.setattr(flow, "rk4_step", step)
        hist = run_flow(st, config, report_stride=2)
        monkeypatch.undo()
        states, records, ders, min_eigs, reason = full_mesh_loop(st, config)
        assert not hist.abort_reason and not reason
        assert meshes and set(meshes) == {(MIN_POINTS,)}
        small = Mesh((MIN_POINTS,) * st.d, st.mesh.lengths)
        first = (slice(MIN_POINTS),) * st.d

        def same_at_first(a, b):
            return same_bits(a, b[first])

        assert len(hist.states) == len(states) >= 4 and hist.min_eigs == min_eigs
        assert hist.times == [s.t for s in states]
        for a, b in zip(hist.states, states, strict=True):
            assert a.mesh == small
            assert all(same_at_first(x, y) for x, y in zip(a.fields, b.fields, strict=True))
        for a, b in zip(hist.records, records, strict=True):
            assert all(same_at_first(x, y) for x, y in zip(a, b, strict=True))
        assert sorted(hist.derived) == sorted({*range(0, len(states), 2), len(states) - 1})
        for i, kept in hist.derived.items():
            fresh = ders[i]
            assert kept.H_zero == fresh.H_zero and (kept.velocity is None) == (
                fresh.velocity is None) == (i == len(states) - 1)
            for name in [f.name for f in dataclasses.fields(fresh)
                         if f.name not in ("H_zero", "velocity")]:
                assert same_at_first(getattr(kept, name), getattr(fresh, name)), (i, name)
            if kept.velocity is not None:
                assert all(same_at_first(x, y) for x, y in
                           zip(kept.velocity, fresh.velocity, strict=True))


def pipeline_outputs(cfg, out):
    """{"rc", "manifest", "rows"}: the exit code, manifest and report rows
    of run_pipeline(cfg) into out."""
    rc = run_pipeline(dataclasses.replace(cfg, output_dir=str(out)))
    with open(out / "report.csv") as fh:
        rows = [{key: float(v) for key, v in row.items()} for row in csv.DictReader(fh)]
    return {"rc": rc, "manifest": json.loads((out / "manifest.json").read_text()),
            "rows": rows}


def leaves(value, path=()):
    """{path: leaf} of a value nested in dicts and lists."""
    if isinstance(value, (dict, list)):
        items = value.items() if isinstance(value, dict) else enumerate(value)
        return {p: leaf for key, item in items for p, leaf in leaves(item, path + (key,)).items()}
    return {path: value}


@pytest.mark.parametrize("mode", GAUGES)
def test_a_homogeneous_pipeline_runs_on_8_points_as_on_the_full_mesh(
        mode, tmp_path, monkeypatch):
    # the walk and the report of a homogeneous run read its 8-point history;
    # steps, times, status and eigenvalues are those of the full mesh, and
    # the sums over the grid, fewer equal terms, agree to round-off
    # constant-2d's torsion is d of a constant 2-form: closed, since a run
    # refuses a start that is not, and with legs on the base
    rng = np.random.default_rng(21)
    st2 = random_constant_state(rng, algebra.heisenberg3(), 16, 2)
    k, K = st2.k, st2.k + st2.d
    beta = np.broadcast_to(0.3 * rng.normal(size=(K, K)), st2.mesh.shape + (K, K))
    st2.H = torsion.algebroid_d(torsion.pack_full(beta, k, 2), 2,
                                torsion.bracket_pairs(st2, derive(st2).F), st2.mesh, k)
    assert st2.homogeneous() and st2.A.any() and st2.H[..., k:].any()

    def copy_st2(st):
        for name in GeometryState.FIELDS:
            getattr(st, name)[...] = getattr(st2, name)

    monkeypatch.setitem(presets.PRESETS, "constant-2d",
                        presets.Preset("heisenberg3", st2.mesh.lengths, 16, copy_st2))
    grids = []

    def rhs(u, *args):
        grids.append(u.shape)
        return conj_rhs(u, *args)

    conj_rhs = conjugate.conj_rhs
    for preset, step_keys in itertools.product(
            ("heisenberg-s1", "inoue-like", "constant-2d"),
            ({"fixed_dt": 1e-3, "t_end": 5e-3}, {"t_end": 0.02})):
        cfg = ScenarioConfig(preset=preset, mesh_n=16, mode=mode, report_stride=1,
                             **step_keys)
        grids.clear()
        monkeypatch.setattr(conjugate, "conj_rhs", rhs)
        small = leaves(pipeline_outputs(cfg, tmp_path / "small"))
        assert grids and set(grids) == {(MIN_POINTS,) * cfg.build_state().d}, preset
        monkeypatch.setattr(conjugate, "conj_rhs", conj_rhs)
        with monkeypatch.context() as patch:
            patch.setattr(GeometryState, "homogeneous", lambda self: False)
            full = leaves(pipeline_outputs(cfg, tmp_path / "full"))
        assert small.keys() == full.keys() and ("rows", 2, "mass_u") in small, preset
        for path, x in small.items():
            y, where = full[path], (preset, step_keys, path)
            if not isinstance(y, float) or path[-1] in ("t", "min_eig_G", "min_eig_g"):
                assert x == y, where  # rc, steps, status, flags and these columns
            elif not (np.isnan(x) and np.isnan(y)):
                assert abs(x - y) <= 1e-12 * max(1.0, abs(x)), (where, x, y)


def test_an_inhomogeneous_state_runs_on_its_own_mesh(monkeypatch):
    # one entry of G moved by one ulp, or one zero of A turned to -0.0,
    # makes the state inhomogeneous: it steps and stores its own mesh
    bumped = presets.build("heisenberg-s1", 16)
    bumped.G[5, 1, 1] = np.nextafter(bumped.G[5, 1, 1], 2.0)
    signed = presets.build("heisenberg-s1", 16)
    signed.A[3, 0, 2] = -0.0
    meshes = []

    def step(state, *args):
        meshes.append(state.mesh.sizes)
        return rk4_step(state, *args)

    monkeypatch.setattr(flow, "rk4_step", step)
    for st in (bumped, signed):
        assert not st.homogeneous() and presets.build("heisenberg-s1", 16).homogeneous()
        meshes.clear()
        hist = run_flow(st, IntegratorConfig(t_end=3e-3, fixed_dt=1e-3), report_stride=1)
        assert set(meshes) == {(16,)} and len(hist.states) == 4
        assert all(s.mesh == st.mesh for s in hist.states)


@pytest.mark.parametrize("mode", GAUGES)
def test_homogeneous_blowup_aborts_as_the_full_mesh_loop(mode):
    st = presets.build("heisenberg-s1", 16)
    config = IntegratorConfig(t_end=100.0, fixed_dt=10.0, mode=mode)
    hist = run_flow(st, config)
    reason = full_mesh_loop(st, config)[-1]
    assert hist.abort_reason == reason and "at grid point (0,):" in reason
    assert len(hist.states) == 1


def test_cfl_steps_read_the_eigenvalues_the_spd_check_found(tmp_path, monkeypatch):
    # the step size reads the base metric's smallest eigenvalue from the
    # state's validate; a 2-D run calls eigvalsh twice per stored state,
    # once for G and once for g, and nowhere else
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counted(a, *args, **kwargs):
        calls.append(a.shape)
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    out = tmp_path / "out"
    run_pipeline(ScenarioConfig(preset="torus-bundle-t2", mesh_n=8, t_end=0.2,
                                report_stride=2, output_dir=str(out)))
    steps = json.loads((out / "manifest.json").read_text())["steps"]
    assert steps >= 3
    assert len(calls) == 2 * (steps + 1)
