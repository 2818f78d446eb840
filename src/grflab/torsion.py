"""Torsion 3-form machinery on the extension bundle.

The torsion is one antisymmetric (..., K, K, K) array over the combined frame
(K = k + d indices, fiber first), held in GeometryState.H; pack_full is the
one place that knows its canonical fiber-first entries.  Includes the frame
structure functions, the generic exterior derivative of the bracket
geometry, the quadratic contractions of H, and the closed-form
codifferential that drives the torsion evolution.
"""

from __future__ import annotations

import math

import numpy as np

from .fields import Mesh, deriv_array
from .geometry import DerivedGeometry, GeometryState, _derivs


# --- full-frame packing ------------------------------------------------------

# (permutation, parity) pairs for 3 slots; result axis i takes input axis perm[i]
_PERMS3 = [
    ((0, 1, 2), 1.0), ((1, 0, 2), -1.0), ((0, 2, 1), -1.0),
    ((2, 1, 0), -1.0), ((1, 2, 0), 1.0), ((2, 0, 1), 1.0),
]


def _perm_weight(kinds) -> float:
    # Several permutations land on each entry of a mixed block; averaging them
    # antisymmetrizes the canonical block within its equal-kind slots, which
    # leaves an already antisymmetric block unchanged.
    nf = sum(1 for t in kinds if t == 0)
    return 1.0 / (math.factorial(nf) * math.factorial(3 - nf))


def pack_full(full3: np.ndarray, k: int) -> np.ndarray:
    """Rebuild every slot ordering of a (..., K, K, K) torsion array from its
    canonical fiber-first entries.

    The canonical blocks are [:k, :k, :k], [:k, :k, k:], [:k, k:, k:] and
    [k:, k:, k:].  The all-fiber block is copied; each other block is spread
    over the orderings of its slot kinds with signs and averaged over the
    permutations that land on the same entry, so the mixed entries come out
    exact negatives under every slot swap.
    """
    lead = tuple(range(full3.ndim - 3))
    full = np.zeros_like(full3)
    full[..., :k, :k, :k] = full3[..., :k, :k, :k]
    for kinds in ((0, 0, 1), (0, 1, 1), (1, 1, 1)):
        canon = tuple(slice(None, k) if t == 0 else slice(k, None) for t in kinds)
        arr = full3[(Ellipsis,) + canon]
        w = _perm_weight(kinds)
        for perm, sign in _PERMS3:
            src = np.transpose(arr, lead + tuple(len(lead) + p for p in perm))
            sl = tuple(canon[p] for p in perm)
            full[(Ellipsis,) + sl] += sign * w * src
    return full


def inverse_frame_metric(der: DerivedGeometry) -> np.ndarray:
    """Block-diagonal inverse of the combined metric (..., K, K), fiber block first."""
    k, d = der.Gi.shape[-1], der.gi.shape[-1]
    gEi = np.zeros(der.Gi.shape[:-2] + (k + d, k + d))
    gEi[..., :k, :k] = der.Gi
    gEi[..., k:, k:] = der.gi
    return gEi


def structure_functions(state: GeometryState, F: np.ndarray) -> np.ndarray:
    """Frame brackets C[..., gamma, alpha, beta]: [e_alpha, e_beta] = C^gamma e_gamma.

    Fiber-fiber entries carry the fiberwise bracket (beta = -c in this frame),
    base-fiber entries come from the connection form, and base-base entries
    equal -F (DerivedGeometry.F) since coordinate fields commute on the base.
    """
    k, d = state.k, state.d
    K = k + d
    C = np.zeros(state.mesh.shape + (K, K, K))
    if k:
        C[..., :k, :k, :k] = state.alg.beta
        mixed = np.einsum("mli,...al->...mai", state.alg.c, state.A)
        C[..., :k, k:, :k] = mixed
        C[..., :k, :k, k:] = -np.swapaxes(mixed, -1, -2)
        C[..., :k, k:, k:] = -np.einsum("...abm->...mab", F)
    return C


def anchor_derivs(values: np.ndarray, mesh: Mesh, k: int) -> np.ndarray:
    """Derivative along each frame direction; zero along the fiber directions.

    The new axis (length k + d) sits first among the slot axes.
    """
    d = mesh.d
    out = np.zeros(values.shape[:d] + (k + d,) + values.shape[d:])
    for a in range(d):
        out[(slice(None),) * d + (k + a,)] = deriv_array(values, a, mesh.spacings[a])
    return out


# --- exterior derivative -----------------------------------------------------

def algebroid_d(sigma: np.ndarray, p: int, C: np.ndarray, mesh: Mesh, k: int) -> np.ndarray:
    """Exterior derivative of a full antisymmetric p-form array, p in 0..3.

    d sigma(e_0, ..., e_p) = sum_i (-1)^i tau(e_i)[sigma(..., skip i, ...)]
        + sum_{i<j} (-1)^{i+j} sigma([e_i, e_j], ..., skip i and j, ...),
    with tau the anchor (zero on fiber directions) and the frame brackets C.
    """
    T = anchor_derivs(sigma, mesh, k)  # derivative slot first
    if p == 0:
        return T
    if p == 1:
        return (
            T - np.swapaxes(T, -2, -1)
            - np.einsum("...gab,...g->...ab", C, sigma)
        )
    if p == 2:
        out = (
            T
            - np.einsum("...bag->...abg", T)
            + np.einsum("...gab->...abg", T)
            - np.einsum("...dab,...dg->...abg", C, sigma)
            + np.einsum("...dag,...db->...abg", C, sigma)
            - np.einsum("...dbg,...da->...abg", C, sigma)
        )
        return out
    if p == 3:
        out = (
            T
            - np.einsum("...bagE->...abgE", T)
            + np.einsum("...gabE->...abgE", T)
            - np.einsum("...Eabg->...abgE", T)
            - np.einsum("...dab,...dgE->...abgE", C, sigma)
            + np.einsum("...dag,...dbE->...abgE", C, sigma)
            - np.einsum("...daE,...dbg->...abgE", C, sigma)
            - np.einsum("...dbg,...daE->...abgE", C, sigma)
            + np.einsum("...dbE,...dag->...abgE", C, sigma)
            - np.einsum("...dgE,...dab->...abgE", C, sigma)
        )
        return out
    raise ValueError(f"p must be 0..3, got {p}")


def closedness_residual(state: GeometryState, der: DerivedGeometry) -> float:
    """Max norm of dH (der: the state's derive()); vanishes for torsion
    fields coming from closed 3-forms."""
    C = structure_functions(state, der.F)
    dH = algebroid_d(state.H, 3, C, state.mesh, state.k)
    return float(np.max(np.abs(dH)))


# --- quadratic contractions --------------------------------------------------

def h_contractions(state: GeometryState, der: DerivedGeometry):
    """The square contraction calH(e1, e2) = tr H(e1, ., .) H(e2, ., .) and
    the full-contraction norm |H|^2.

    Returns (calH, Hsq) with calH a (..., K, K) symmetric array.  Computed on
    the first call for a der; later calls return the same arrays.
    """
    if der.calH is None:
        gEi = inverse_frame_metric(der)
        up = np.einsum("...ce,...bef->...bcf", gEi, state.H)
        up = np.einsum("...df,...bcf->...bcd", gEi, up)
        der.calH = np.einsum("...acd,...bcd->...ab", state.H, up)
        der.Hsq = np.einsum("...ab,...ab->...", gEi, der.calH)
    return der.calH, der.Hsq


def splitting_contractions(state: GeometryState, der: DerivedGeometry):
    """Block sums entering the positivity splitting of |H|^2/6 - tr_G calH/4.

    Returns (t_fiber, t_mixed, t_base): the all-fiber-traced square, the
    one-fiber-two-base-traced square, and the all-base-traced square of H.
    The identity reads
        |H|^2/6 - tr_G calH/4 = -t_fiber/12 + t_mixed/4 + t_base/6.
    """
    H, k = state.H, state.k
    Gi, gi = der.Gi, der.gi
    Hf = H[..., :k, :k, :k]
    Hm = H[..., :k, k:, k:]
    Hb = H[..., k:, k:, k:]
    t_fiber = np.einsum("...ijk,...lmn,...il,...jm,...kn->...", Hf, Hf, Gi, Gi, Gi)
    t_mixed = np.einsum("...iab,...jcd,...ij,...ac,...bd->...", Hm, Hm, Gi, gi, gi)
    t_base = np.einsum("...abc,...def,...ad,...be,...cf->...", Hb, Hb, gi, gi, gi)
    return t_fiber, t_mixed, t_base


def interior_product(vec: np.ndarray, full3: np.ndarray, k: int) -> np.ndarray:
    """i_v H for a base vector field vec[..., a] (upper index)."""
    return np.einsum("...a,...agd->...gd", vec, full3[..., k:, :, :])


# --- codifferential ----------------------------------------------------------

def extended_coeffs(state: GeometryState, Gamma: np.ndarray) -> np.ndarray:
    """Coefficients M[..., a, gamma, beta] of the direct-sum connection acting
    on lower frame indices: (D_a T)_beta = d_a T_beta - M^gamma_{a beta} T_gamma."""
    k, d = state.k, state.d
    K = k + d
    M = np.zeros(state.mesh.shape + (d, K, K))
    if k:
        M[..., :, :k, :k] = np.einsum("mli,...al->...ami", state.alg.c, state.A)
    M[..., :, k:, k:] = np.einsum("...cab->...acb", Gamma)
    return M


def cov_deriv_3form(T: np.ndarray, M: np.ndarray, mesh: Mesh) -> np.ndarray:
    """(D_a T)_{bcd} for a full-frame 3-tensor, derivative axis first."""
    dT = _derivs(T, mesh)
    corr = (
        np.einsum("...aeb,...ecd->...abcd", M, T)
        + np.einsum("...aec,...bed->...abcd", M, T)
        + np.einsum("...aed,...bce->...abcd", M, T)
    )
    return dT - corr


def minus_dstar_terms(state: GeometryState, der: DerivedGeometry):
    """The five pieces of -d*H in the nilpotent decomposition, as full
    (..., K, K) antisymmetric arrays.

    Term 2 equals -i_q H.
    """
    mesh, k, H = state.mesh, state.k, state.H
    Gi, gi, DG, Gamma, q = der.Gi, der.gi, der.DG, der.Gamma, der.q

    M = extended_coeffs(state, Gamma)
    covH = cov_deriv_3form(H, M, mesh)  # [..., a, beta, gamma, delta]
    # (D_. H)(., *, *) with both dots base slots traced by g:
    term1 = np.einsum("...ab,...abcd->...cd", gi, covH[..., :, k:, :, :])

    term2 = -interior_product(q, H, k)

    W = np.zeros_like(term2)
    V = np.zeros_like(term2)
    U = np.zeros_like(term2)
    if k:
        Hbf = H[..., k:, :k, :]   # [..., b, l, eps]
        Hbb = H[..., k:, k:, :]   # [..., c, d, eps]
        Hff = H[..., :k, :k, :]   # [..., p, q, eps]
        W[..., :k, :] = np.einsum("...ab,...jl,...aji,...ble->...ie", gi, Gi, DG, Hbf)
        V[..., :k, :] = 0.5 * np.einsum("...icd,...cde->...ie", der.GF_up, Hbb)
        U[..., :k, :] = 0.5 * np.einsum("...bpq,...pqe->...be", der.Gb_up, Hff)
    term3 = -(W - np.swapaxes(W, -2, -1))
    term4 = -(V - np.swapaxes(V, -2, -1))
    term5 = U - np.swapaxes(U, -2, -1)
    return term1, term2, term3, term4, term5


def splitting_identity(state: GeometryState, der: DerivedGeometry) -> float:
    """Max-norm residual of the block decomposition of |H|^2/6 - tr_G calH/4.

    Zero up to round-off for every field configuration; the decomposition
    makes the signs of the three blocks explicit.
    """
    k = state.k
    calH, Hsq = h_contractions(state, der)
    trG = np.einsum("...ij,...ij->...", der.Gi, calH[..., :k, :k])
    tf, tm, tb = splitting_contractions(state, der)
    lhs = Hsq / 6.0 - trG / 4.0
    rhs = -tf / 12.0 + tm / 4.0 + tb / 6.0
    return float(np.max(np.abs(lhs - rhs)))


def b_dot(state: GeometryState, der: DerivedGeometry) -> np.ndarray:
    """Source 2-form B = -d*H of the ungauged flow, dH/dt = dB, as a full
    antisymmetric (..., K, K) array (der: the state's derive())."""
    t1, t2, t3, t4, t5 = minus_dstar_terms(state, der)
    return t1 + t2 + t3 + t4 + t5


def moving_frame_correction(full3: np.ndarray, Adot: np.ndarray, k: int) -> np.ndarray:
    """Transport term for stored 3-form components under a changing splitting.

    The stored base-slot components are evaluated on horizontal lifts that
    rotate as A evolves: d/dt of a stored component equals the covariant rate
    minus H with each base slot fed the fiber vector (dA/dt) v.  Returns the
    array to subtract from the covariant rate, given Adot[..., a, m].
    """
    K = full3.shape[-1]
    corr = np.zeros_like(full3)
    for s in range(3):
        Hm = np.moveaxis(full3, -3 + s, -1)  # slot s last
        contracted = np.einsum("...am,...uvm->...uva", Adot, Hm[..., :k])
        grown = np.zeros(Hm.shape[:-1] + (K,))
        grown[..., k:] = contracted
        corr += np.moveaxis(grown, -1, -3 + s)
    return corr


def torsion_rate(state: GeometryState, der: DerivedGeometry, B: np.ndarray,
                 dA: np.ndarray) -> np.ndarray:
    """Rate of the stored torsion when H moves by dB while the connection
    form moves at rate dA[..., a, m]: the exterior derivative of the source
    2-form minus the moving-frame correction, repacked from its canonical
    entries."""
    k = state.k
    dH = algebroid_d(B, 2, structure_functions(state, der.F), state.mesh, k)
    dH = dH - moving_frame_correction(state.H, dA, k)
    return pack_full(dH, k)
