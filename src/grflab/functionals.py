"""Energy and entropy functionals, their dissipation residuals, variation
checks, and soliton detection.

The residual tensors are the flow's own velocity read in the gauge of
X = q - grad f: flow.ungauged_rates moved by flow.along_lift along X, a
flow.Velocity.  dF/dt is their e^-f-weighted squared norm.  A variation
direction is a flow.Velocity and the potential's rate, so the flow's own
velocity is one.

All squared norms are full contractions with the appropriate metrics, one
inverse metric factor per slot pair and no combinatorial weights, matching
the convention used for |H|^2 elsewhere in the package.
"""

from __future__ import annotations

import numpy as np

from .fields import DomainError, derivs, integrate_values
from .geometry import (
    DerivedGeometry,
    GeometryState,
    derive,
    fiber_pairing,
    fiber_trace,
    gradient,
    hessian,
    laplacian,
    norm_sq_bracket,
    norm_sq_DG,
    norm_sq_F,
)
from . import flow, torsion


# --- pointwise scalar densities ----------------------------------------------

def grad_norm_sq(f: np.ndarray, state: GeometryState,
                 der: DerivedGeometry) -> np.ndarray:
    df = derivs(f, state.mesh)
    return np.einsum("...ab,...a,...b->...", der.gi, df, df)


def _weighted_integral(values: np.ndarray, f: np.ndarray,
                       state: GeometryState) -> float:
    return integrate_values(values * np.exp(-f), state.g, state.mesh)


# --- functionals -------------------------------------------------------------

def _energy_density(state: GeometryState, f: np.ndarray,
                    der: DerivedGeometry) -> np.ndarray:
    """The integrand of eval_F before the e^-f weight."""
    _, Hsq = torsion.h_contractions(state, der)
    return (grad_norm_sq(f, state, der) + der.R_g
            - 0.25 * norm_sq_DG(state, der)
            - 0.25 * norm_sq_F(state, der)
            - Hsq / 12.0
            - 0.25 * norm_sq_bracket(state, der))


def eval_F(state: GeometryState, f: np.ndarray, der: DerivedGeometry) -> float:
    """Energy integral: |grad f|^2 + R_g - |DG|^2/4 - |F|^2/4 - |H|^2/12
    - |[,]|^2/4, weighted by e^-f dV_g (der: the state's derive())."""
    return _weighted_integral(_energy_density(state, f, der), f, state)


def eval_Wplus(state: GeometryState, f: np.ndarray, t: float,
               F_steady: float) -> float:
    """Expander entropy at the steady potential f (F_steady: eval_F at f):
    W = t F_steady + int (n - f_+) e^-f dV with f_+ = f - (n/2) log(4 pi t)
    and n the base dimension, the textbook entropy at the expander potential
    f_+ rewritten at the steady weight, which differs from e^-f_+ by a
    constant factor."""
    if t <= 0:
        raise DomainError("expander entropy needs t > 0")
    n = state.d
    f_plus = f - 0.5 * n * np.log(4.0 * np.pi * t)
    return t * F_steady + _weighted_integral(n - f_plus, f, state)


# --- residual tensors --------------------------------------------------------

def residual_tensors(state: GeometryState, f: np.ndarray,
                     der: DerivedGeometry) -> flow.Velocity:
    """The ungauged flow velocity moved along the horizontal lift of
    X = q - grad f, at the given potential f (der: the state's derive())."""
    X = der.q - gradient(f, der.gi, state.mesh)
    # L_q g through DG and DDG cancels Ric_bb's DDG term to round-off;
    # flow.lie_derivative_base would move R3 at truncation level
    Lg = flow.symmetric_part(
        fiber_pairing(der.DG, der.Gi)
        - fiber_trace(der.DDG, der.Gi)
        - 2.0 * hessian(f, der.Gamma, state.mesh))
    return flow.along_lift(flow.ungauged_rates(state, der), X, Lg, state, der)


def _weighted_pairings(state: GeometryState, f: np.ndarray,
                       der: DerivedGeometry, x: flow.Velocity,
                       y: flow.Velocity):
    """Integrals R1..R4 of the slot-by-slot pairings of two velocities, in
    the slot order (G, A, g, B), with the G-metric, the connection metric
    g^{ab} G_mn, the g-metric and the frame metric, weighted 1/2, 1, 1/2
    and 1/2."""
    Gi, gi = der.Gi, der.gi
    gEi = torsion.inverse_frame_metric(der)
    metrics = ((Gi, Gi), (gi, state.G), (gi, gi), (gEi, gEi))
    slots = (x.dG, x.dA, x.dg, x.B), (y.dG, y.dA, y.dg, y.B)
    # m1^{ac} m2^{bd} x_ab y_cd = sum_cd (m1 x m2)_cd y_cd
    dens = tuple(np.einsum("...cd,...cd->...", m1 @ xs @ m2, ys)
                 for (m1, m2), xs, ys in zip(metrics, *slots))
    return tuple(c * _weighted_integral(p, f, state)
                 for c, p in zip((0.5, 1.0, 0.5, 0.5), dens))


def residuals_F(state: GeometryState, f: np.ndarray, der: DerivedGeometry,
                rt: flow.Velocity):
    """The four nonnegative dissipation integrals of the energy identity:

        dF/dt = R1 + R2 + R3 + R4

    along the ungauged flow coupled to the conjugate density u = e^-f
    (der: the state's derive(); rt: residual_tensors(state, f, der)).
    """
    return _weighted_pairings(state, f, der, rt, rt)


def residuals_W(state: GeometryState, f: np.ndarray, t: float,
                der: DerivedGeometry, rt: flow.Velocity):
    """t-weighted residuals and the mixed-sign extra integral of the entropy
    identity dW/dt = R1 + R2 + R3 + R4 + W_extra, at the steady potential f
    (der: the state's derive(); rt: residual_tensors(state, f, der)).  The
    base residual carries the expander shift -g/t."""
    if t <= 0:
        raise DomainError("entropy residuals need t > 0")
    k = state.k
    x = rt._replace(dg=rt.dg - state.g / t)
    # t (c I) rounds as (c t) I does: each weight c is 1/2 or 1
    R1, R2, R3, R4 = (t * r for r in _weighted_pairings(state, f, der, x, x))
    calH, Hsq = torsion.h_contractions(state, der)
    trG_ff = np.einsum("...ij,...ij->...", der.Gi, calH[..., :k, :k])
    extra_dens = (0.25 * norm_sq_F(state, der)
                  - 0.25 * norm_sq_bracket(state, der)
                  + Hsq / 6.0 - 0.25 * trG_ff)
    W_extra = _weighted_integral(extra_dens, f, state)
    return R1, R2, R3, R4, W_extra


# --- variation check ---------------------------------------------------------

def variation_formula_F(state: GeometryState, f: np.ndarray, v: flow.Velocity,
                        df: np.ndarray, der: DerivedGeometry,
                        rt: flow.Velocity) -> tuple:
    """The five integrals that sum to the closed-form first variation of the
    energy along the velocity v with the potential moving at rate df: four
    pairings with the residual tensors, and I5 (der: the state's derive();
    rt: residual_tensors(state, f, der))."""
    ints = _weighted_pairings(state, f, der, v, rt)
    lam = (2.0 * (laplacian(f, der.gi, der.Gamma, state.mesh)
                  - grad_norm_sq(f, state, der))
           + _energy_density(state, f, der))
    trdg = 0.5 * np.einsum("...ab,...ab->...", der.gi, v.dg)
    I5 = _weighted_integral((trdg - df) * lam, f, state)
    return ints + (I5,)


def perturbed_state(state: GeometryState, der: DerivedGeometry,
                    v: flow.Velocity, eps: float) -> GeometryState:
    """First-order deformation of the stored fields along the stored-field
    rates of the velocity v (der: the state's derive())."""
    rates = flow.stored_rates(state, der, v)
    return state.with_fields(
        state.t, [f + eps * r for f, r in zip(state.fields, rates)])


VARIATION_EPS = 1e-4  # the centred difference step of variation_check_F


def variation_check_F(state: GeometryState, f: np.ndarray, v: flow.Velocity,
                      df: np.ndarray, der: DerivedGeometry,
                      rt: flow.Velocity) -> dict:
    """Compare the closed-form first variation along (v, df) with a centred
    finite difference of the energy along the deformation path, step
    VARIATION_EPS (der: the state's derive(); rt: residual_tensors(state,
    f, der), shared by every direction at the same state and potential).
    rel_gap is the gap over the sum of the five integrals' absolute values,
    not small when they cancel."""
    eps = VARIATION_EPS
    terms = variation_formula_F(state, f, v, df, der, rt)
    formula = sum(terms)
    plus = perturbed_state(state, der, v, eps)
    minus = perturbed_state(state, der, v, -eps)
    Fp = eval_F(plus, f + eps * df, derive(plus))
    Fm = eval_F(minus, f - eps * df, derive(minus))
    fd = (Fp - Fm) / (2.0 * eps)
    scale = max(sum(abs(x) for x in terms), 1e-14)
    return {"fd": fd, "formula": formula,
            "gap": abs(fd - formula), "rel_gap": abs(fd - formula) / scale}


# --- soliton detection -------------------------------------------------------

SOLITON_THRESHOLD = 1e-6


def soliton_detect(residuals) -> dict:
    """Steady rigidity of one state: its four dissipation residuals R1..R4
    all below SOLITON_THRESHOLD."""
    res = list(residuals)
    if len(res) != 4:
        raise ValueError(f"expected the four residuals R1..R4, got {len(res)}")
    return {
        "steady_rigidity": all(abs(r) < SOLITON_THRESHOLD for r in res),
        "final_residuals": res,
        "threshold": SOLITON_THRESHOLD,
    }
