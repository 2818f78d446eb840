"""End-to-end acceptance gate: oracle equivalences, identity closure along
coupled runs, conservation, gauge equivalence of the invariant series, and
fixed-point behavior, each at its stated tolerance."""

import csv
import json
import time

import numpy as np
import pytest

from conftest import curvature_gaps, flat_abelian_state
from grflab import algebra, cli, torsion
from grflab.cli import ScenarioConfig, random_state, run_pipeline
from grflab.fields import Mesh
from grflab.conjugate import GAUGES, solve_backward
from grflab.flow import IntegratorConfig, run_flow
from grflab.geometry import GeometryState, derive
from test_algebra import ad_traces


def run_scenario(tmp_factory, name, **kw):
    out = tmp_factory.mktemp(name)
    cfg = ScenarioConfig(output_dir=str(out), **kw)
    t0 = time.monotonic()
    rc = run_pipeline(cfg)
    elapsed = time.monotonic() - t0
    manifest = json.loads((out / "manifest.json").read_text())
    with open(out / "report.csv") as fh:
        rows = [{kk: float(v) for kk, v in row.items()}
                for row in csv.DictReader(fh)]
    return {"rc": rc, "manifest": manifest, "rows": rows, "elapsed": elapsed}


@pytest.fixture(scope="module")
def heis_run(tmp_path_factory):
    return run_scenario(tmp_path_factory, "heis", preset="heisenberg-s1",
                        t_end=0.2, cfl_sigma=0.3, report_stride=10)


@pytest.fixture(scope="module")
def flat_run(tmp_path_factory):
    return run_scenario(tmp_path_factory, "flat", preset="flat-abelian",
                        mesh_n=16, t_end=0.2, report_stride=10)


@pytest.fixture(scope="module")
def torus_run(tmp_path_factory):
    return run_scenario(tmp_path_factory, "torus", preset="torus-bundle-t2",
                        t_end=0.05, report_stride=2)


@pytest.fixture(scope="module")
def inoue_run(tmp_path_factory):
    return run_scenario(tmp_path_factory, "inoue", preset="inoue-like",
                        mesh_n=32, t_end=0.05, report_stride=20)


# -- the two curvature paths agree at 4th order ------------------

def test_curvature_paths_agree_at_stencil_order():
    t0 = time.monotonic()
    e32 = curvature_gaps(32, 2, 101, amp=0.08)
    e64 = curvature_gaps(64, 2, 101, amp=0.08)
    elapsed = time.monotonic() - t0
    assert max(e64.values()) < 1e-5, e64
    # blocks at round-off on both meshes carry no convergence information
    ratio_floor = min(e32[kk] / e64[kk] for kk in e64 if e64[kk] > 1e-12)
    assert ratio_floor >= 12.0
    assert elapsed < 60.0


# -- codifferential against the connection-trace oracle ----------

def test_codifferential_matches_oracle():
    for d in (1, 2):
        st = random_state(np.random.default_rng(202 + d), algebra.heisenberg3(), 64, d)
        assert cli.codifferential_gap(st, derive(st)) < 1e-5


# -- algebraic identities on 1000 random samples -----------------

def test_trace_identities_random_samples():
    rng = np.random.default_rng(303)
    c_fil = np.zeros((4, 4, 4))
    c_fil[2, 0, 1], c_fil[2, 1, 0] = 1.0, -1.0
    c_fil[3, 0, 2], c_fil[3, 2, 0] = 1.0, -1.0
    algebras = [algebra.heisenberg3(), algebra.abelian(3),
                algebra.LieAlgebra(4, c_fil)]
    for i in range(1000):
        alg = algebras[i % len(algebras)]
        M = rng.normal(size=(alg.k, alg.k))
        G = M @ M.T + alg.k * np.eye(alg.k)
        t1, t2 = ad_traces(alg, G)
        scale = max(1.0, float(np.max(np.abs(G))))
        assert np.max(np.abs(t1)) / scale < 1e-12
        assert np.max(np.abs(t2)) / scale < 1e-12


def test_splitting_identity_random_samples():
    # > 1000 pointwise samples across random states in both base dimensions
    count = 0
    for i in range(8):
        d = 1 + i % 2
        rng = np.random.default_rng(330 + i)
        st = random_state(rng, algebra.heisenberg3(), 16 if d == 2 else 64, d)
        der = derive(st)
        _, Hsq = torsion.h_contractions(st, der)
        scale = max(1.0, float(np.max(np.abs(Hsq))))
        assert torsion.splitting_identity(st, der) / scale < 1e-12
        count += int(np.prod(st.mesh.shape))
    assert count >= 1000


# -- energy dissipation identity along the coupled run -----------

def test_energy_identity_along_run(heis_run):
    assert heis_run["rc"] == 0
    assert heis_run["elapsed"] < 300.0
    assert heis_run["manifest"]["F_nondecreasing"]
    interior = [r for r in heis_run["rows"] if np.isfinite(r["identity_gap_F"])]
    assert len(interior) > 10
    for row in interior:
        rhs = row["R1"] + row["R2"] + row["R3"] + row["R4"]
        scale = max(abs(row["dF_dt_fd"]), abs(rhs), 1e-12)
        assert row["identity_gap_F"] / scale < 0.01, row["t"]


def test_energy_matches_closed_form(heis_run):
    # homogeneous data admits the exact solution F(t) = -1 / (2 (1 + 3 t))
    for row in heis_run["rows"]:
        assert row["F"] == pytest.approx(-0.5 / (1.0 + 3.0 * row["t"]),
                                         abs=1e-6)


# -- entropy monotonicity under and outside its hypotheses -------

def test_entropy_monotone_on_abelian_presets(flat_run, torus_run):
    for run in (flat_run, torus_run):
        assert run["rc"] == 0
        pos = [r for r in run["rows"] if r["t"] > 0]
        Ws = [r["W"] for r in pos]
        assert all(b - a > -1e-10 for a, b in zip(Ws, Ws[1:]))
        assert all(r["W_extra"] >= -1e-10 for r in pos)


def test_entropy_extra_negative_heisenberg(heis_run):
    pos = [r for r in heis_run["rows"] if r["t"] > 0]
    assert all(r["W_extra"] < 0 for r in pos)


# -- density mass conservation on every preset -------------------

def test_mass_conservation_all_presets(heis_run, flat_run, torus_run,
                                       inoue_run):
    for run in (heis_run, flat_run, torus_run, inoue_run):
        assert run["manifest"]["mass_drift"] < 1e-6
        for row in run["rows"]:
            assert row["mass_u"] == pytest.approx(run["rows"][0]["mass_u"],
                                                  rel=1e-6)


# -- the invariant series of the two gauges under refinement -----

def gauge_initial_state(N):
    # a modulated start whose q does not vanish, with an exact torsion that
    # has base legs: the constant fiber volume form, closed for a nilpotent
    # algebra, plus the algebroid differential of a 2-form beta
    mesh = Mesh((N,), (2.0 * np.pi,))
    (x,) = mesh.coords()
    alg = algebra.abelian(3)
    k = alg.k
    G = np.zeros(mesh.shape + (k, k))
    G[..., 0, 0] = 1.0 + 0.25 * np.sin(x)
    G[..., 1, 1] = 1.0 + 0.20 * np.cos(x)
    G[..., 2, 2] = 1.0 + 0.15 * np.sin(2.0 * x)
    G[..., 0, 1] = G[..., 1, 0] = 0.10 * np.cos(2.0 * x)
    g = (1.0 + 0.2 * np.sin(x))[..., None, None] * np.ones(mesh.shape + (1, 1))
    A = np.zeros(mesh.shape + (1, k))
    A[..., 0, 0] = 0.2 * np.sin(x)
    A[..., 0, 2] = 0.15 * np.cos(x)
    H = np.zeros(mesh.shape + (k + 1,) * 3)
    unit = np.zeros((k, k, k))
    unit[0, 1, 2] = 0.4
    H[..., :k, :k, :k] = torsion.alternating_sum(unit)
    st = GeometryState(0.0, mesh, alg, G, g, A, H)
    beta = np.zeros(mesh.shape + (k + 1, k + 1))
    beta[..., 0, 1] = 0.3 * np.sin(x)
    beta[..., 0, 2] = 0.2 * np.cos(2.0 * x)
    beta[..., 1, 2] = 0.25 * np.sin(x + 0.5)
    st.H = st.H + torsion.algebroid_d(
        torsion.pack_full(beta, 2), 2,
        torsion.bracket_pairs(st, derive(st).F), mesh, k)
    return st


def gauge_gaps(st, t_end, dt, stride):
    """max |F_can - F_ung| over the report rows, max |W_can - W_ung| over
    the rows with t > 0, and the larger mass drift max |m - m[-1]| / |m[-1]|
    of the two runs of st, each a fixed-dt run_flow, solve_backward and
    build_report whose rows all keep a closed torsion."""
    series = []
    for mode in GAUGES:
        hist = run_flow(st, IntegratorConfig(t_end=t_end, fixed_dt=dt, mode=mode),
                        stride)
        assert not hist.abort_reason, mode
        rows = cli.build_report(hist, solve_backward(hist))
        assert max(row["dH_inf"] for row in rows) < 1e-6, mode
        series.append({name: np.array([row[name] for row in rows])
                       for name in ("t", "F", "W", "mass_u")})
    a, b = series
    pos = a["t"] > 0
    drift = max(np.max(np.abs(s["mass_u"] - s["mass_u"][-1])) / abs(s["mass_u"][-1])
                for s in series)
    return (np.max(np.abs(a["F"] - b["F"])),
            np.max(np.abs(a["W"][pos] - b["W"][pos])), drift)


GAUGE_CASES = {
    # base: (state on N points per axis, coarse N, fixed_dt, t_end, stride);
    # halving either dt leaves the gaps unchanged to three digits, so they
    # measure the spatial discretisation alone
    "1-D": (gauge_initial_state, 32, 4e-4, 0.05, 25),
    "2-D": (lambda N: random_state(np.random.default_rng(3), algebra.heisenberg3(),
                                   N, 2, with_H=False), 16, 1e-3, 0.02, 20),
}


def test_gauge_equivalence_under_refinement():
    # F, W and the mass are diffeomorphism invariants, so the report series
    # of a canonical and an ungauged run of one start differ only through
    # the spatial discretisation at fixed dt: the gaps fall at 4th order
    for base, (build, N, dt, t_end, stride) in GAUGE_CASES.items():
        (F1, W1, m1), (F2, W2, m2) = (gauge_gaps(build(n), t_end, dt, stride)
                                      for n in (N, 2 * N))
        assert F2 < F1 / 4.0, (base, F1, F2)
        assert W2 < W1 / 4.0, (base, W1, W2)
        assert max(m1, m2) < 1e-6, (base, m1, m2)


# -- first-variation formula on 20 seeded directions -------------

def test_variation_formula_random_directions():
    rows = cli.verify_variation(909, 64, count=20)
    assert len(rows) == 20
    for name, gap, passed in rows:
        assert gap < 1e-4, (name, gap)
        assert passed


# -- exact fixed point and torsion closedness -------------------

def test_flat_fixed_point_and_torsion_closedness(heis_run, flat_run, torus_run,
                                       inoue_run):
    st = flat_abelian_state(N=8)
    hist = run_flow(st, IntegratorConfig(t_end=100.0, max_steps=1000))
    # the steps run out short of t_end; no field failed on the way
    assert "after max_steps = 1000 steps" in hist.abort_reason
    final = hist.states[-1]
    assert np.max(np.abs(final.G - st.G)) < 1e-12
    assert np.max(np.abs(final.g - st.g)) < 1e-12
    assert np.max(np.abs(final.A)) < 1e-12
    assert np.max(np.abs(final.H)) < 1e-12
    for run in (heis_run, flat_run, torus_run, inoue_run):
        assert run["manifest"]["max_dH_inf"] < 1e-6
