"""Energy and entropy functionals, dissipation residuals, variation checks."""

import numpy as np
import pytest

from conftest import flat_abelian_state, heisenberg_state
from grflab import algebra
from grflab.cli import random_direction, random_state
from grflab.fields import DomainError, integrate_values
from grflab.flow import Velocity, blowdown_rescale
from grflab.functionals import (eval_F, eval_Wplus, residual_tensors, residuals_F, residuals_W,
                                soliton_detect, variation_check_F)
from grflab.geometry import derive, hessian


def zeros_f(st):
    return np.zeros(st.mesh.shape)


def res_F(st, f):
    der = derive(st)
    return residuals_F(st, f, der, residual_tensors(st, f, der))


def res_W(st, f, t):
    der = derive(st)
    return residuals_W(st, f, t, der, residual_tensors(st, f, der))


def expander_zero(st, t, n):
    """The steady potential whose expander potential f - (n/2) log(4 pi t)
    is zero."""
    return np.full(st.mesh.shape, 0.5 * n * np.log(4.0 * np.pi * t))


def test_eval_F_flat_zero():
    st = flat_abelian_state()
    assert abs(eval_F(st, zeros_f(st), derive(st))) < 1e-13


def test_eval_F_heisenberg():
    st = heisenberg_state()
    assert eval_F(st, zeros_f(st), derive(st)) == pytest.approx(-0.5, abs=1e-10)


def test_eval_F_constant_shift():
    st = heisenberg_state()
    base = eval_F(st, zeros_f(st), derive(st))
    shifted = eval_F(st, zeros_f(st) + 0.7, derive(st))
    assert shifted == pytest.approx(np.exp(-0.7) * base, rel=1e-12)


def Wplus(st, f, t):
    """eval_Wplus with the steady energy it takes evaluated here."""
    der = derive(st)
    return eval_Wplus(st, f, t, eval_F(st, f, der))


def test_eval_Wplus_flat_reference_point():
    st = flat_abelian_state()
    t = 1.0 / (4.0 * np.pi)
    assert Wplus(st, zeros_f(st), t) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(DomainError):
        eval_Wplus(st, zeros_f(st), 0.0, 0.0)


def test_eval_Wplus_linear_in_n_shift():
    # n is the base dimension: the flat product on the unit circle and on the
    # unit 2-torus, where the two potentials agree at this t for every n
    t = 1.0 / (4.0 * np.pi)
    circle, torus = flat_abelian_state(d=1), flat_abelian_state(d=2)
    assert Wplus(circle, zeros_f(circle), t) == pytest.approx(1.0, abs=1e-12)
    assert Wplus(torus, zeros_f(torus), t) == pytest.approx(2.0, abs=1e-12)


def test_eval_Wplus_from_steady_energy():
    # the expander potential is the steady one shifted by a constant; the
    # reference is the textbook W, with the energy and the weight taken at
    # the expander potential itself and the (4 pi t)^(-n/2) prefactor
    st = random_state(np.random.default_rng(5), algebra.heisenberg3(), 16, 2)
    der = derive(st)
    X, Y = st.mesh.coords()
    f_steady = 0.2 * np.cos(X) + 0.1 * np.sin(Y)
    t, n = 0.03, 2
    f_exp = f_steady - 0.5 * n * np.log(4.0 * np.pi * t)
    extra = integrate_values((n - f_exp) * np.exp(-f_exp), st.g, st.mesh)
    ref = (t * eval_F(st, f_exp, der) + extra) / (4.0 * np.pi * t) ** (0.5 * n)
    W = eval_Wplus(st, f_steady, t, eval_F(st, f_steady, der))
    assert W == pytest.approx(ref, rel=1e-12)


def test_residuals_F_flat_zero():
    st = flat_abelian_state()
    assert max(abs(r) for r in res_F(st, zeros_f(st))) < 1e-13


def test_residuals_F_heisenberg():
    st = heisenberg_state()
    R1, R2, R3, R4 = res_F(st, zeros_f(st))
    assert R1 == pytest.approx(1.5, abs=1e-10)
    assert abs(R2) < 1e-12
    assert abs(R3) < 1e-12
    assert abs(R4) < 1e-12


def test_residuals_F_gradient_only():
    st = flat_abelian_state(N=64)
    (x,) = st.mesh.coords()
    f = 0.05 * np.sin(2 * np.pi * x)
    der = derive(st)
    R1, R2, R3, R4 = res_F(st, f)
    hess = hessian(f, der.Gamma, st.mesh)
    direct = 0.5 * integrate_values(
        (2.0 * hess[..., 0, 0]) ** 2 * np.exp(-f), st.g, st.mesh)
    assert R3 == pytest.approx(direct, rel=1e-12)
    assert abs(R1) < 1e-12
    assert abs(R2) < 1e-12
    assert abs(R4) < 1e-12


def test_residuals_W_flat_reference():
    st = flat_abelian_state()
    t, n = 0.2, 1
    R1, R2, R3, R4, W_extra = res_W(st, expander_zero(st, t, n), t)
    expected_R3 = 1.0 / (2.0 * t) * (4.0 * np.pi * t) ** (-0.5 * n)
    assert R3 == pytest.approx(expected_R3, rel=1e-12)
    assert abs(R1) + abs(R2) + abs(R4) < 1e-12
    assert abs(W_extra) < 1e-13
    with pytest.raises(DomainError):
        res_W(st, zeros_f(st), 0.0)


def test_W_extra_signs():
    # abelian fibers with vanishing pure-fiber torsion: nonnegative extra term
    rng = np.random.default_rng(6)
    st = random_state(rng, algebra.abelian(3), 32, 1)
    st.H[..., :st.k, :st.k, :st.k] = 0.0
    _, _, _, _, W_extra = res_W(st, zeros_f(st), 0.3)
    assert W_extra >= -1e-12
    # the Heisenberg bracket pushes the extra term negative
    sth = heisenberg_state()
    t = 0.3
    _, _, _, _, W_extra_h = res_W(sth, expander_zero(sth, t, 1), t)
    assert W_extra_h == pytest.approx(-0.5 * (4 * np.pi * t) ** -0.5, rel=1e-10)


def test_variation_zero_direction():
    st = heisenberg_state(N=32)
    zero = Velocity(
        np.zeros(st.mesh.shape + (3, 3)), np.zeros(st.mesh.shape + (1, 1)),
        np.zeros(st.mesh.shape + (1, 3)), np.zeros(st.mesh.shape + (4, 4)))
    f, der = zeros_f(st), derive(st)
    res = variation_check_F(st, f, zero, zeros_f(st), der,
                            residual_tensors(st, f, der))
    assert abs(res["fd"]) < 1e-10
    assert abs(res["formula"]) < 1e-10


def test_variation_pure_potential_direction():
    st = flat_abelian_state(N=64)
    (x,) = st.mesh.coords()
    df = 0.2 * np.sin(2 * np.pi * x)
    zero = lambda *shape: np.zeros(st.mesh.shape + shape)
    v = Velocity(zero(2, 2), zero(1, 1), zero(1, 2), zero(3, 3))
    f = 0.1 * np.sin(2 * np.pi * x) + 0.05 * np.cos(4 * np.pi * x)
    der = derive(st)
    res = variation_check_F(st, f, v, df, der, residual_tensors(st, f, der))
    assert abs(res["fd"]) > 1e-3  # the direction actually moves the energy
    assert res["rel_gap"] < 1e-5


def test_variation_random_directions():
    rng = np.random.default_rng(17)
    st = random_state(rng, algebra.heisenberg3(), 64, 1)
    (x,) = st.mesh.coords()
    f = 0.1 * np.sin(x) + 0.05 * np.cos(2 * x)
    der = derive(st)
    rt = residual_tensors(st, f, der)
    for _ in range(3):
        v, df = random_direction(rng, st, amp=0.1)
        res = variation_check_F(st, f, v, df, der, rt)
        assert res["rel_gap"] < 1e-4


def test_scaling_of_energy_under_rescale():
    # eval_F picks up the factor s^(1 - d/2) when metrics and torsion divide by s
    sth = heisenberg_state()
    base = eval_F(sth, zeros_f(sth), derive(sth))
    resc_st = blowdown_rescale(sth, 2.0)
    resc = eval_F(resc_st, zeros_f(sth), derive(resc_st))
    assert resc == pytest.approx(2.0 ** 0.5 * base, rel=1e-10)
    rng = np.random.default_rng(23)
    st2 = random_state(rng, algebra.heisenberg3(), 16, 2)
    base2 = eval_F(st2, np.zeros(st2.mesh.shape), derive(st2))
    resc_st2 = blowdown_rescale(st2, 3.0)
    resc2 = eval_F(resc_st2, np.zeros(st2.mesh.shape), derive(resc_st2))
    assert resc2 == pytest.approx(base2, rel=1e-10)


def test_soliton_detect():
    assert soliton_detect((0.0, 0.0, 0.0, 0.0))["steady_rigidity"]
    assert not soliton_detect((1.5, 0.0, 0.0, 0.0))["steady_rigidity"]
    assert soliton_detect((0.0, 0.0, 0.0, -1e-7))["final_residuals"] == [
        0.0, 0.0, 0.0, -1e-7]
    for residuals in ((), (0.0, 0.0, 0.0)):
        with pytest.raises(ValueError):
            soliton_detect(residuals)
