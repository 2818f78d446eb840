"""Independent reference implementations built from first principles.

Everything here works in the combined frame of the extension bundle: indices
0..k-1 are the fiber directions, k..k+d-1 the base coordinate directions.  The
connection coefficients come from a pointwise Koszul solve against the frame
structure functions, and curvature is assembled directly from the commutator
definition with grid derivatives (fields.deriv_array) of the coefficients.
Nothing is shared with the closed-form engine beyond the raw field arrays,
the curvature F of the connection, that derivative and fields.row_blocks,
so agreement between the two paths is a meaningful cross-check.  row_blocks is
no mathematics: it only cuts the grid into blocks of whole rows, over which
both curvature paths run their pointwise K^4 stage to bound its memory.

Every contraction is one stacked matmul over the grid axes: the summed slots
are flattened into one matrix axis of length K or K^2 (K = k + d), with the
oracle's own reshapes rather than the closed form's product helpers.
"""

from __future__ import annotations

import numpy as np

from .fields import deriv_array, row_blocks
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
    C[..., :k, :k, :k] = state.alg.beta
    # mixed[..., m, a, i] = A^l_a c^m_li, each c^m an (l, i) matrix
    mixed = state.A[..., None, :, :] @ state.alg.c
    C[..., :k, k:, :k] = mixed
    C[..., :k, :k, k:] = -np.swapaxes(mixed, -1, -2)
    F = compute_F(state.A, state.alg, state.mesh)
    C[..., :k, k:, k:] = -np.moveaxis(F, -1, -3)
    return C


def _slots(T: np.ndarray, d: int, *sizes: int) -> np.ndarray:
    """T with its slot axes regrouped into the given sizes after its d grid axes."""
    return T.reshape(T.shape[:d] + sizes)


def _frame(state: GeometryState):
    """(gE, gE^-1, C): the frame data every oracle call starts from."""
    gE = frame_metric(state)
    return gE, np.linalg.inv(gE), structure_functions(state)


def _koszul(state: GeometryState, gE, gEi, C) -> np.ndarray:
    mesh, k, d = state.mesh, state.k, state.d
    K = gE.shape[-1]
    # L[..., a, b, g] = gE(C_ab, e_g); the three bracket terms of the Koszul
    # formula are L read in the slot orders (a, b, g), (g, a, b), (g, b, a)
    L = _slots(np.swapaxes(_slots(C, d, K, K * K), -1, -2) @ gE, d, K, K, K)
    Kosz = L + np.moveaxis(L, -3, -1) + np.swapaxes(L, -3, -1)
    # the anchor of a fiber direction is zero, so only tau_{k+a} = d_a acts
    for a in range(d):
        dgE = deriv_array(gE, a, mesh)
        Kosz[..., k + a, :, :] += dgE
        Kosz[..., :, k + a, :] += dgE
        Kosz[..., :, :, k + a] -= dgE
    up = gEi @ np.swapaxes(_slots(Kosz, d, K * K, K), -1, -2)
    return 0.5 * _slots(up, d, K, K, K)


def koszul_connection(state: GeometryState) -> np.ndarray:
    """Connection coefficients Gam[..., delta, alpha, beta] from the Koszul formula.

    2 gE(nabla_alpha e_beta, e_gamma) = tau_alpha[gE_bg] + tau_beta[gE_ag]
        - tau_gamma[gE_ab] + gE(C_ab, e_gamma) + gE(C_ga, e_beta)
        + gE(C_gb, e_alpha).
    """
    return _koszul(state, *_frame(state))


def curvature_oracle(state: GeometryState):
    """Lowered curvature, Ricci, and scalar from the commutator definition.

    Returns (R, Ric, scal) with R[..., alpha, beta, gamma, eps] the fully
    lowered tensor R(e_a, e_b, e_c, e_e) and Ric the trace over slots 1, 4.

    R^e_abc = tau_a Gam^e_bc - tau_b Gam^e_ac + Gam^e_ad Gam^d_bc
        - Gam^e_bd Gam^d_ac - C^d_ab Gam^e_dc.

    Gam and its grid derivatives are formed once over the whole grid; the
    pointwise K^4 stage then runs over fields.row_blocks and writes each
    block straight into R, so R is the only K^4 array of the full grid.
    """
    mesh, k, d = state.mesh, state.k, state.d
    gE, gEi, C = _frame(state)
    K = gE.shape[-1]
    Gam = _koszul(state, gE, gEi, C)
    Gam_m = np.ascontiguousarray(np.moveaxis(Gam, -3, -1))  # [..., x, y, e] = Gam^e_xy
    del Gam
    dGam_m = [deriv_array(Gam_m, a, mesh) for a in range(d)]
    R = np.empty(mesh.shape + (K, K * K, K))
    Ric = np.zeros_like(gE)
    for rows in row_blocks(mesh):
        Gm, Cr, gEr, Ricr, Rr = (T[rows] for T in (Gam_m, C, gE, Ric, R))
        # Q[..., x, (y, z), e] = tau_x Gam^e_yz + Gam^e_xd Gam^d_yz, with the
        # left Gm read as [..., (y, z), d]: both Gam.Gam terms are Q's product
        # part read with (x, y) = (a, b) and (b, a)
        Q = _slots(Gm, d, K * K, K)[..., None, :, :] @ Gm
        for a, dG in enumerate(dGam_m):
            Q[..., k + a, :, :] += _slots(dG[rows], d, K * K, K)
        Q = _slots(Q, d, K, K, K, K)
        # one first slot at a time, so that Q is a block's only K^4 temporary
        Rup = np.empty(Q.shape[:d] + (K, K, K))  # [..., b, c, e] = R^e_abc
        for a in range(K):
            np.subtract(Q[..., a, :, :, :], Q[..., :, a, :, :], out=Rup)
            Rup -= _slots(np.swapaxes(Cr[..., :, a, :], -1, -2) @ _slots(Gm, d, K, K * K),
                          d, K, K, K)  # C^d_ab Gam^e_dc
            Ricr += Rup[..., a]  # Ric_bc = R^a_abc, slots 1 and 4 of R traced
            np.matmul(_slots(Rup, d, K * K, K), gEr, out=Rr[..., a, :, :])
    R = _slots(R, d, K, K, K, K)
    scal = np.sum(gEi * Ric, axis=(-2, -1))
    return R, Ric, scal


def codifferential_oracle(state: GeometryState) -> np.ndarray:
    """-d*H as a full (..., K, K) antisymmetric array, from -d*H = tr nabla H.

    The trace is taken before any product, so every array is K^3:
    -d*H_ce = g^ab (tau_a H_bce - Gam^f_ab H_fce - Gam^f_ac H_bfe - Gam^f_ae H_bcf).
    """
    mesh, k, d = state.mesh, state.k, state.d
    gE, gEi, C = _frame(state)
    K = gE.shape[-1]
    Gam = _koszul(state, gE, gEi, C)
    H = state.H
    v = _slots(Gam, d, K, K * K) @ _slots(gEi, d, K * K, 1)  # g^ab Gam^f_ab
    out = -(np.swapaxes(v, -1, -2) @ _slots(H, d, K, K * K))
    for a in range(d):
        out += gEi[..., k + a, None, :] @ _slots(deriv_array(H, a, mesh), d, K, K * K)
    out = _slots(out, d, K, K)
    # M[..., (b, f), c] = g^ba Gam^f_ac
    M = _slots(gEi @ _slots(np.swapaxes(Gam, -3, -2), d, K, K * K), d, K * K, K)
    out -= np.swapaxes(M, -1, -2) @ _slots(H, d, K * K, K)
    out -= _slots(np.swapaxes(H, -3, -2), d, K, K * K) @ M
    return out
