"""Independent reference implementations built from first principles.

Everything here works in the combined frame of the extension bundle: indices
0..k-1 are the fiber directions, k..k+d-1 the base coordinate directions.  The
connection coefficients come from a pointwise Koszul solve against the frame
structure functions, and curvature is assembled directly from the commutator
definition with finite differences of the coefficients.  Nothing is shared
with the closed-form engine beyond the raw field arrays, so agreement between
the two paths is a meaningful cross-check.
"""

from __future__ import annotations

import numpy as np

from .fields import Mesh, deriv_array
from .geometry import GeometryState, compute_F

__all__ = [
    "frame_metric",
    "structure_functions",
    "koszul_connection",
    "curvature_oracle",
    "codifferential_oracle",
]


def frame_metric(state: GeometryState) -> np.ndarray:
    """Block-diagonal combined metric in the frame, shape (..., K, K)."""
    k, d = state.k, state.d
    K = k + d
    gE = np.zeros(state.mesh.shape + (K, K))
    gE[..., :k, :k] = state.G
    gE[..., k:, k:] = state.g
    return gE


def structure_functions(state: GeometryState) -> np.ndarray:
    """Frame brackets C[..., gamma, alpha, beta]: [e_alpha, e_beta] = C^gamma e_gamma.

    Fiber-fiber entries are the fiberwise bracket (beta = -c in this frame),
    base-fiber entries come from the connection form, and base-base entries
    are -F since the coordinate fields commute on the base.
    """
    k, d = state.k, state.d
    K = k + d
    C = np.zeros(state.mesh.shape + (K, K, K))
    if k:
        C[..., :k, :k, :k] = state.alg.beta
        mixed = np.einsum("mli,...al->...mai", state.alg.c, state.A)
        C[..., :k, k:, :k] = mixed
        C[..., :k, :k, k:] = -np.swapaxes(mixed, -1, -2)
        F = compute_F(state.A, state.alg, state.mesh)
        C[..., :k, k:, k:] = -np.einsum("...abm->...mab", F)
    return C


def _anchor_derivs(values: np.ndarray, mesh: Mesh, k: int) -> np.ndarray:
    """Derivative along each frame direction; zero for the fiber directions.

    The new axis (length k + d) sits first among the slot axes.
    """
    d = mesh.d
    shape = values.shape[:d] + (k + d,) + values.shape[d:]
    out = np.zeros(shape)
    for a in range(d):
        out[(slice(None),) * d + (k + a,)] = deriv_array(values, a, mesh.spacings[a])
    return out


def koszul_connection(state: GeometryState) -> np.ndarray:
    """Connection coefficients Gam[..., delta, alpha, beta] from the Koszul formula.

    2 gE(nabla_alpha e_beta, e_gamma) = tau_alpha[gE_bg] + tau_beta[gE_ag]
        - tau_gamma[gE_ab] + gE(C_ab, e_gamma) + gE(C_ga, e_beta)
        + gE(C_gb, e_alpha).
    """
    k = state.k
    gE = frame_metric(state)
    C = structure_functions(state)
    dgE = _anchor_derivs(gE, state.mesh, k)  # [..., alpha, beta, gamma]
    Kosz = (
        dgE
        + np.swapaxes(dgE, -3, -2)
        - np.einsum("...gab->...abg", dgE)
        + np.einsum("...dab,...dg->...abg", C, gE)
        + np.einsum("...dga,...db->...abg", C, gE)
        + np.einsum("...dgb,...da->...abg", C, gE)
    )
    gEi = np.linalg.inv(gE)
    return 0.5 * np.einsum("...dg,...abg->...dab", gEi, Kosz)


def curvature_oracle(state: GeometryState):
    """Lowered curvature, Ricci, and scalar from the commutator definition.

    Returns (R, Ric, scal) with R[..., alpha, beta, gamma, eps] the fully
    lowered tensor R(e_a, e_b, e_c, e_e) and Ric the trace over slots 1, 4.
    """
    k = state.k
    gE = frame_metric(state)
    gEi = np.linalg.inv(gE)
    C = structure_functions(state)
    Gam = koszul_connection(state)
    dGam = _anchor_derivs(Gam, state.mesh, k)  # [..., alpha, eps, beta, gamma]
    Rup = (
        np.einsum("...aebc->...abce", dGam)
        - np.einsum("...beac->...abce", dGam)
        + np.einsum("...ead,...dbc->...abce", Gam, Gam)
        - np.einsum("...ebd,...dac->...abce", Gam, Gam)
        - np.einsum("...dab,...edc->...abce", C, Gam)
    )
    R = np.einsum("...abce,...ef->...abcf", Rup, gE)
    Ric = np.einsum("...ae,...abce->...bc", gEi, R)
    scal = np.einsum("...bc,...bc->...", gEi, Ric)
    return R, Ric, scal


def cov_deriv_3form(full3: np.ndarray, state: GeometryState, Gam: np.ndarray) -> np.ndarray:
    """(nabla_alpha H)(e_beta, e_gamma, e_delta) with the oracle connection."""
    k = state.k
    dH = _anchor_derivs(full3, state.mesh, k)  # [..., alpha, b, c, e]
    corr = (
        np.einsum("...fab,...fce->...abce", Gam, full3)
        + np.einsum("...fac,...bfe->...abce", Gam, full3)
        + np.einsum("...fae,...bcf->...abce", Gam, full3)
    )
    return dH - corr


def codifferential_oracle(state: GeometryState) -> np.ndarray:
    """-d*H as a full (..., K, K) antisymmetric array, from -d*H = tr nabla H."""
    gE = frame_metric(state)
    gEi = np.linalg.inv(gE)
    Gam = koszul_connection(state)
    covH = cov_deriv_3form(state.H, state, Gam)
    return np.einsum("...ab,...abce->...ce", gEi, covH)
