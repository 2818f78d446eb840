"""Derived geometric quantities and the two independent curvature paths."""

import types

import numpy as np
import pytest

from conftest import (constant_state, curvature_gaps, flat_abelian_state,
                      heisenberg_state)
from test_kernels import _ref_levi_civita, case_states
from grflab import algebra, oracle, presets
from grflab.fields import DomainError, Mesh
from grflab.flow import blowdown_rescale
from grflab.geometry import (check_spd_field, compute_DDG, compute_DF,
                             compute_DG, compute_F, compute_q,
                             curvature_closed_form,
                             derive, gradient, hessian, laplacian,
                             norm_sq_bracket, norm_sq_DG,
                             norm_sq_F, ricci_blocks)
from grflab.cli import random_state, relative_gap, slot_block


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("alg", [algebra.heisenberg3, lambda: algebra.abelian(3)],
                         ids=["heisenberg3", "abelian3"])
def test_constant_state_derives_exactly_zero_derivatives(d, alg):
    # the stencil cancels constants exactly, so no round-off residue is left
    G0 = [[2.0, 0.3, 0.1], [0.3, 1.5, -0.2], [0.1, -0.2, 1.2]]
    g0 = [[1.7]] if d == 1 else [[1.3, 0.4], [0.4, 0.9]]
    st = constant_state(alg(), N=16, d=d, lengths=(1.0, 2.5)[:d], G0=G0, g0=g0)
    der = derive(st)
    for name in ("Gamma", "Ric_g", "R_g", "DG", "DDG", "q", "F", "DF"):
        assert np.all(getattr(der, name) == 0.0), name


def test_a_circle_carries_no_2_forms():
    # F, DF and the base Ricci tensor vanish identically on a 1-D base, for
    # any connection; derive stores them as exact zeros without forming them
    circle = [st for _, _, st in case_states() if st.d == 1]
    assert len(circle) == 10 and all(st.A.any() and st.H.any() for st in circle)
    circle += [st for st in map(presets.build, presets.PRESETS) if st.d == 1]
    assert len(circle) == 13
    for st in circle:
        F = compute_F(st.A, st.alg, st.mesh)
        Gamma, Ric = _ref_levi_civita(st)
        assert not F.any() and not Ric.any()
        assert not compute_DF(F, st.A, Gamma, st.alg, st.mesh).any()
        der = derive(st)
        N, k = st.mesh.shape[0], st.k
        shapes = {"F": (N, 1, 1, k), "DF": (N, 1, 1, 1, k), "GF": (N, k, 1, 1),
                  "GF_up": (N, k, 1, 1), "Ric_g": (N, 1, 1), "R_g": (N,)}
        for name, shape in shapes.items():
            value = getattr(der, name)
            assert value.shape == shape and not value.any(), name
        assert der.gi.tobytes() == np.linalg.inv(st.g).tobytes()


def test_flat_abelian_curvature_zero():
    st = flat_abelian_state(d=2)
    cb = curvature_closed_form(st, derive(st))
    for name, block in vars(cb).items():
        assert np.max(np.abs(block)) < 1e-13, name


def test_heisenberg_point_values():
    st = heisenberg_state()
    der = derive(st)
    Ric_ff, Ric_fb, Ric_bb = ricci_blocks(st, der)
    scalar = curvature_closed_form(st, der).scalar
    expected = np.diag([-0.5, -0.5, 0.5])
    assert np.max(np.abs(Ric_ff - expected)) < 1e-10
    assert np.max(np.abs(Ric_fb)) < 1e-10
    assert np.max(np.abs(Ric_bb)) < 1e-10
    assert np.max(np.abs(scalar + 0.5)) < 1e-10


def test_norm_sq_densities():
    # constant Heisenberg fibers, flat connection: only the bracket survives,
    # |[,]|^2 = 2 from c^2_01 = -c^2_10 = 1 at G = I
    st = heisenberg_state()
    der = derive(st)
    assert np.max(np.abs(norm_sq_DG(st, der))) < 1e-13
    assert np.max(np.abs(norm_sq_F(st, der))) == 0.0
    assert np.max(np.abs(norm_sq_bracket(st, der) - 2.0)) < 1e-13


def test_heisenberg_oracle_agrees_at_a_point():
    st = heisenberg_state()
    R, Ric, scal = oracle.curvature_oracle(st)
    Ric_ff = slot_block(Ric, "ff", st.k)
    assert np.max(np.abs(Ric_ff - np.diag([-0.5, -0.5, 0.5]))) < 1e-10
    assert np.max(np.abs(scal + 0.5)) < 1e-10


def test_closed_form_matches_oracle_1d():
    g32 = max(curvature_gaps(32, 1, 5).values())
    g64 = max(curvature_gaps(64, 1, 5).values())
    assert g64 < 2e-5
    assert g64 < g32 / 12.0


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("alg", [algebra.heisenberg3, lambda: algebra.abelian(3)],
                         ids=["heisenberg3", "abelian3"])
def test_curvature_under_blowdown_rescale(d, alg):
    # metrics scale by 1/s: lowered curvature by 1/s, Ricci not at all, the
    # scalar by s; a dropped or extra metric factor in any term breaks this
    s = 2.7
    for seed in range(3):
        st = random_state(np.random.default_rng(seed), alg(), 16, d)
        cb = curvature_closed_form(st, derive(st))
        resc = blowdown_rescale(st, s)
        cr = curvature_closed_form(resc, derive(resc))
        for name, factor in [("ffff", 1 / s), ("ffbf", 1 / s), ("fbbf", 1 / s),
                             ("fbbb", 1 / s), ("bbbb", 1 / s), ("Ric_ff", 1.0),
                             ("Ric_fb", 1.0), ("Ric_bb", 1.0), ("scalar", s)]:
            ref = factor * getattr(cb, name)
            assert relative_gap((getattr(cr, name), ref)) < 1e-12, (seed, name)


def test_gradient_hessian_laplacian_flat():
    mesh = Mesh((64,), (1.0,))
    st = flat_abelian_state(N=64)
    der = derive(st)
    (x,) = mesh.coords()
    f = np.sin(2 * np.pi * x)
    grad = gradient(f, der.gi, mesh)
    assert np.max(np.abs(grad[..., 0] - 2 * np.pi * np.cos(2 * np.pi * x))) < 1e-4
    lap = laplacian(f, der.gi, der.Gamma, mesh)
    assert np.max(np.abs(lap + (2 * np.pi) ** 2 * f)) < 2e-2
    hess = hessian(f, der.Gamma, mesh)
    assert np.max(np.abs(hess[..., 0, 0] - lap)) < 1e-10


def test_laplacian_respects_metric_scale():
    # constant g = 4 divides the flat laplacian by 4
    st = flat_abelian_state(N=64, g0=[[4.0]])
    mesh = st.mesh
    der = derive(st)
    (x,) = mesh.coords()
    f = np.sin(2 * np.pi * x)
    lap = laplacian(f, der.gi, der.Gamma, mesh)
    assert np.max(np.abs(lap + 0.25 * (2 * np.pi) ** 2 * f)) < 1e-2


def test_compute_helpers_consistent_with_derive():
    rng = np.random.default_rng(11)
    st = random_state(rng, algebra.heisenberg3(), 32, 1)
    der = derive(st)
    F = compute_F(st.A, st.alg, st.mesh)
    assert np.allclose(F, der.F)
    DG = compute_DG(st.G, st.A, st.alg, st.mesh)
    assert np.allclose(DG, der.DG)
    DDG = compute_DDG(DG, st.A, der.Gamma, st.alg, st.mesh)
    assert np.allclose(DDG, der.DDG)
    q = compute_q(DG, der.Gi, der.gi)
    assert np.allclose(q, der.q)


def test_F_antisymmetry_and_1d_vanishing():
    rng = np.random.default_rng(12)
    st1 = random_state(rng, algebra.heisenberg3(), 32, 1)
    assert np.max(np.abs(derive(st1).F)) == 0.0
    st2 = random_state(rng, algebra.heisenberg3(), 16, 2)
    F = derive(st2).F
    assert np.allclose(F, -np.swapaxes(F, -3, -2))


def test_spd_guard():
    st = heisenberg_state()
    st.G[..., 0, 0] = -1.0
    with pytest.raises(DomainError):
        st.validate()
    field = np.array([np.diag([2.0, 0.5]), [[1.0, 0.3], [0.3, 1.0]]])
    assert check_spd_field(field, "test") == np.linalg.eigvalsh(field)[..., 0].min()
    with pytest.raises(DomainError):
        check_spd_field(-np.broadcast_to(np.eye(2), (4, 2, 2)), "test")
    # derive refuses a base metric with a non-positive determinant
    st = heisenberg_state()
    st.g[3, 0, 0] = 0.0
    with pytest.raises(DomainError, match="^base metric not positive definite$"):
        derive(st)


def test_state_copy_is_deep():
    st = heisenberg_state()
    cp = st.copy()
    cp.G[..., 0, 0] = 7.0
    cp.H[...] = 1.0
    assert np.max(np.abs(st.G[..., 0, 0] - 1.0)) == 0.0
    assert np.max(np.abs(st.H)) == 0.0


def test_oracle_shares_no_kernel_with_the_closed_form():
    # agreement with the oracle proves less for every kernel the two paths
    # share; from the closed form it takes only the state type and F
    closed_form = ("grflab.geometry", "grflab.torsion", "grflab.functionals")
    shared = {("grflab.geometry", "compute_F"), ("grflab.geometry", "GeometryState")}
    for name, value in vars(oracle).items():
        if isinstance(value, types.ModuleType):
            assert value.__name__ not in closed_form, name
        elif callable(value) and getattr(value, "__module__", None) in closed_form:
            assert (value.__module__, name) in shared, name
