"""Contraction kernels against their definitions.

Every reference below is a definition, not a copy of an earlier
implementation: a formula written term by term as one-call einsums, a
full-array composition of such terms, antisymmetrization as a sum over slot
permutations, or the derivative stencil as a ghost-layer sum.  The kernels
are chains of stacked matmuls and signed tables over the shared
DerivedGeometry tensors that sum in a different order, so the two agree to a
few ulps of the largest entry, not bit for bit.
"""

import math
import tracemalloc

import numpy as np
import pytest

from conftest import ALGEBRAS
from grflab import (algebra, cli, fields, flow, functionals, geometry, oracle,
                    torsion)
from grflab.cli import random_state

# K^4 eps ~ 1.4e-13 for the widest sum (K = 5), plus margin
REL_TOL = 1e-12

# (seed, base dimension, algebra): fixed, so every commit tests the same states
CASES = [
    (0, 1, "heisenberg3"), (1, 2, "heisenberg3"), (2, 1, "abelian3"),
    (3, 2, "abelian3"), (7, 1, "heisenberg3"), (11, 2, "heisenberg3"),
    (42, 1, "abelian3"), (101, 2, "abelian3"), (255, 1, "heisenberg3"),
    (1000, 2, "heisenberg3"), (4096, 1, "abelian3"), (31337, 2, "abelian3"),
    (65535, 1, "heisenberg3"), (271828, 2, "heisenberg3"),
    (314159, 1, "abelian3"), (999983, 2, "abelian3"),
    (8675309, 1, "heisenberg3"), (123456789, 2, "heisenberg3"),
    (2**31 - 1, 1, "abelian3"), (2**32 - 1, 2, "abelian3"),
]


def case_states():
    """(case, generator after the state's draws, state on 8 points) per case."""
    for case in CASES:
        seed, d, alg = case
        rng = np.random.default_rng(seed)
        yield case, rng, random_state(rng, ALGEBRAS[alg](), 8, d)


def ref_Ric_ff(state, der):
    b = state.alg.beta
    G = state.G
    Gi, gi = der.Gi, der.gi
    DG, DDG, F = der.DG, der.DDG, der.F
    trDG = np.einsum("...kl,...akl->...a", Gi, DG)
    return (
        -0.5 * np.einsum("...ab,...abij->...ij", gi, DDG)
        - 0.25 * np.einsum("...ab,...a,...bij->...ij", gi, trDG, DG)
        + 0.5 * np.einsum("...ab,...kl,...aik,...blj->...ij", gi, Gi, DG, DG)
        + 0.25 * np.einsum("...ac,...bd,...mi,...abm,...nj,...cdn->...ij", gi, gi, G, F, G, F)
        - 0.5 * np.einsum("...kl,...mn,mki,nlj->...ij", Gi, G, b, b)
        + 0.25 * np.einsum("...kp,...lq,...mi,mkl,...nj,npq->...ij", Gi, Gi, G, b, G, b)
    )


def ref_Ric_fb(state, der):
    b = state.alg.beta
    G = state.G
    Gi, gi = der.Gi, der.gi
    DG, F, DF = der.DG, der.F, der.DF
    trDG = np.einsum("...kl,...akl->...a", Gi, DG)
    return (
        0.5 * np.einsum("...bc,...mi,...bacm->...ia", gi, G, DF)
        + 0.5 * np.einsum("...bc,...bim,...acm->...ia", gi, DG, F)
        + 0.25 * np.einsum("...bc,...mi,...abm,...c->...ia", gi, G, F, trDG)
        - 0.5 * np.einsum("...kl,...aml,mki->...ia", Gi, DG, b)
    )


def ref_Ric_bb(state, der):
    G = state.G
    Gi, gi = der.Gi, der.gi
    DG, DDG, F = der.DG, der.DDG, der.F
    return (
        der.Ric_g
        - 0.5 * np.einsum("...ij,...abij->...ab", Gi, DDG)
        + 0.25 * np.einsum("...ik,...jl,...aij,...bkl->...ab", Gi, Gi, DG, DG)
        - 0.5 * np.einsum("...cd,...mn,...acm,...bdn->...ab", gi, G, F, F)
    )


def ref_F(state, der):
    A, alg, mesh = state.A, state.alg, state.mesh
    dA = fields.derivs(A, mesh)
    curl = dA - np.swapaxes(dA, mesh.d, mesh.d + 1)
    quad = np.einsum("mjk,...aj,...bk->...abm", alg.c, A, A)
    return curl + quad


def _ref_levi_civita(state):
    g, mesh = state.g, state.mesh
    gi = np.linalg.inv(g)
    dg = fields.derivs(g, mesh)
    sym = dg + np.swapaxes(dg, mesh.d, mesh.d + 1) - np.einsum("...dab->...abd", dg)
    Gamma = 0.5 * np.einsum("...cd,...abd->...cab", gi, sym)
    dGamma = fields.derivs(Gamma, mesh)
    ric = (
        np.einsum("...ccab->...ab", dGamma)
        - np.einsum("...accb->...ab", dGamma)
        + np.einsum("...ccf,...fab->...ab", Gamma, Gamma)
        - np.einsum("...caf,...fcb->...ab", Gamma, Gamma)
    )
    return Gamma, ric


def ref_norm_sq_DG(state, der):
    return np.einsum("...ab,...ij,...lm,...ail,...bjm->...",
                     der.gi, der.Gi, der.Gi, der.DG, der.DG)


def _zero_f_residuals(state, der):
    f = np.zeros(state.mesh.shape)
    return f, functionals.residual_tensors(state, f, der)


def _residuals_F(state, der):
    f, rt = _zero_f_residuals(state, der)
    return np.array(functionals.residuals_F(state, f, der, rt))


def ref_residuals_F(state, der):
    f, rt = _zero_f_residuals(state, der)
    Gi, gi = der.Gi, der.gi
    gEi = torsion.inverse_frame_metric(der)
    x = (rt.dG, rt.dA, rt.dg, rt.B)
    dens = (np.einsum("...ip,...jq,...ij,...pq->...", Gi, Gi, x[0], x[0]),
            np.einsum("...ab,...mn,...am,...bn->...", gi, state.G, x[1], x[1]),
            np.einsum("...ac,...bd,...ab,...cd->...", gi, gi, x[2], x[2]),
            np.einsum("...ac,...bd,...ab,...cd->...", gEi, gEi, x[3], x[3]))
    return np.array([c * functionals._weighted_integral(p, f, state)
                     for c, p in zip((0.5, 1.0, 0.5, 0.5), dens)])


def ref_DG(state, der):
    dG = fields.derivs(state.G, state.mesh)
    conn = np.einsum("mli,...al,...mj->...aij", state.alg.c, state.A, state.G)
    return dG - conn - np.swapaxes(conn, state.d + 1, state.d + 2)


def ref_DDG(state, der):
    DG, A, Gamma, alg = der.DG, state.A, der.Gamma, state.alg
    dDG = fields.derivs(DG, state.mesh)  # [..., a, b, i, j]
    base = np.einsum("...cab,...cij->...abij", Gamma, DG)
    f1 = np.einsum("mli,...al,...bmj->...abij", alg.c, A, DG)
    f2 = np.einsum("mlj,...al,...bim->...abij", alg.c, A, DG)
    return dDG - base - f1 - f2


def ref_DF(state, der):
    F, A, Gamma, alg = der.F, state.A, der.Gamma, state.alg
    dF = fields.derivs(F, state.mesh)  # [..., e, a, b, m]
    fib = np.einsum("mln,...el,...abn->...eabm", alg.c, A, F)
    b1 = np.einsum("...cea,...cbm->...eabm", Gamma, F)
    b2 = np.einsum("...ceb,...acm->...eabm", Gamma, F)
    return dF + fib - b1 - b2


def ref_extended_coeffs(state, der):
    k, d = state.k, state.d
    K = k + d
    M = np.zeros(state.mesh.shape + (d, K, K))
    if k:
        M[..., :, :k, :k] = np.einsum("mli,...al->...ami", state.alg.c, state.A)
    M[..., :, k:, k:] = np.einsum("...cab->...acb", der.Gamma)
    return M


def ref_cov_deriv_3form(state, der):
    T, M = state.H, ref_extended_coeffs(state, der)
    dT = fields.derivs(T, state.mesh)
    corr = (
        np.einsum("...aeb,...ecd->...abcd", M, T)
        + np.einsum("...aec,...bed->...abcd", M, T)
        + np.einsum("...aed,...bce->...abcd", M, T)
    )
    return dT - corr


def ref_dstar_term1(state, der):
    # the full covariant derivative of H, traced over its base rows by g
    k = state.k
    return np.einsum("...ab,...abcd->...cd", der.gi,
                     ref_cov_deriv_3form(state, der)[..., :, k:, :, :])


def ref_moving_frame_correction(state, der):
    full3, Adot, k = state.H, state.A, state.k
    K = full3.shape[-1]
    corr = np.zeros_like(full3)
    for s in range(3):
        Hm = np.moveaxis(full3, -3 + s, -1)  # slot s last
        contracted = np.einsum("...am,...uvm->...uva", Adot, Hm[..., :k])
        grown = np.zeros(Hm.shape[:-1] + (K,))
        grown[..., k:] = contracted
        corr += np.moveaxis(grown, -1, -3 + s)
    return corr


def anchor_derivs(values, mesh, k):
    """Derivative along each frame direction, zero along the fiber
    directions; the new axis (length k + d) sits first among the slot axes."""
    d = mesh.d
    out = np.zeros(values.shape[:d] + (k + d,) + values.shape[d:])
    for a in range(d):
        out[(slice(None),) * d + (k + a,)] = fields.deriv_array(values, a, mesh)
    return out


def _ref_algebroid_d(sigma, p, C, mesh, k):
    T = anchor_derivs(sigma, mesh, k)  # derivative slot first
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


def ref_structure_functions(state, der):
    k, d = state.k, state.d
    K = k + d
    C = np.zeros(state.mesh.shape + (K, K, K))
    C[..., :k, :k, :k] = state.alg.beta
    mixed = np.einsum("mli,...al->...mai", state.alg.c, state.A)
    C[..., :k, k:, :k] = mixed
    C[..., :k, :k, k:] = -np.swapaxes(mixed, -1, -2)
    C[..., :k, k:, k:] = -np.einsum("...abm->...mab", der.F)
    return C


def ref_algebroid_d2(state, der):
    return _ref_algebroid_d(torsion.b_dot(state, der), 2,
                            ref_structure_functions(state, der), state.mesh, state.k)


def ref_algebroid_d3(state, der):
    return _ref_algebroid_d(state.H, 3, ref_structure_functions(state, der),
                            state.mesh, state.k)


def _algebroid_d(sigma, p, state, der):
    Cp = torsion.bracket_pairs(state, der.F)
    return torsion.algebroid_d(sigma, p, Cp, state.mesh, state.k)


def _increasing_pairs(state):
    """Flat indices over two frame slots of the pairs i < j."""
    K = state.k + state.d
    return [i * K + j for i in range(K) for j in range(i + 1, K)]


def ref_bracket_pairs(state, der):
    # the full brackets' fiber rows at the increasing pairs
    k, K = state.k, state.k + state.d
    C = ref_structure_functions(state, der)
    return C.reshape(C.shape[:-2] + (K * K,))[..., :k, _increasing_pairs(state)]


# -- the torsion packing as permuted sums -------------------------------------
# Antisymmetrization by definition: each canonical fiber-first block weighted,
# summed over the six slot permutations and so averaged over the permutations
# that land on one entry, with the fiber block copied; the alternating sum as
# six permuted views.

def _ref_perm_weight(kinds):
    nf = sum(1 for t in kinds if t == 0)
    return 1.0 / (math.factorial(nf) * math.factorial(3 - nf))


def ref_pack_full(full3, k):
    canonical = np.zeros_like(full3)
    for kinds in ((0, 0, 1), (0, 1, 1), (1, 1, 1)):
        canon = (Ellipsis,) + tuple(
            slice(None, k) if t == 0 else slice(k, None) for t in kinds)
        canonical[canon] = _ref_perm_weight(kinds) * full3[canon]
    full = geometry._permuted_sum("abc", [(sign, slots, canonical) for sign, slots in (
        (1, "abc"), (-1, "bac"), (-1, "acb"), (-1, "cba"), (1, "cab"), (1, "bca"))])
    full[..., :k, :k, :k] = full3[..., :k, :k, :k]
    return full


def ref_alternating_sum3(core):
    return geometry._permuted_sum("abc", [(sign, slots, core) for sign, slots in (
        (1, "abc"), (1, "bca"), (1, "cab"), (-1, "acb"), (-1, "cba"), (-1, "bac"))])


# -- the torsion evolution as full (..., K, ..., K) arrays --------------------
# The torsion source as five full antisymmetric pieces of -d*H, and the rate
# as ref_pack_full of the reference differential of B less a K^3 moving-frame
# correction: the definitions that torsion_rate and b_dot evaluate as sums at
# the increasing index tuples.

def full_minus_dstar_terms(state, der):
    mesh, k, H = state.mesh, state.k, state.H
    Gi, gi, DG, Gamma, q = der.Gi, der.gi, der.DG, der.Gamma, der.q
    Hb = H[..., k:, :, :]
    M = torsion.extended_coeffs(state, Gamma)
    Y = (np.swapaxes(geometry.as_matrices(M, 2, 1), -1, -2)
         @ geometry.as_matrices(geometry.raise_first(Hb, gi), 2, 1))
    term1 = (geometry.metric_trace(gi, fields.derivs(Hb, mesh))
             - torsion.interior_product(
                 geometry.metric_trace(gi, np.moveaxis(Gamma, -3, -1)), H, k)
             - (Y - np.swapaxes(Y, -1, -2)))
    term2 = -torsion.interior_product(q, H, k)
    W = np.zeros_like(term2)
    V = np.zeros_like(term2)
    U = np.zeros_like(term2)
    DG_up = geometry.raise_first(np.swapaxes(DG, -1, -2) @ Gi[..., None, :, :], gi)
    W[..., :k, :] = (geometry.as_matrices(np.swapaxes(DG_up, -3, -2), 1, 2)
                     @ geometry.as_matrices(H[..., k:, :k, :], 2, 1))
    V[..., :k, :] = 0.5 * (geometry.as_matrices(der.GF_up, 1, 2)
                           @ geometry.as_matrices(H[..., k:, k:, :], 2, 1))
    U[..., :k, :] = 0.5 * (geometry.as_matrices(der.Gb_up, 1, 2)
                           @ geometry.as_matrices(H[..., :k, :k, :], 2, 1))
    return (term1, term2, -(W - np.swapaxes(W, -2, -1)),
            -(V - np.swapaxes(V, -2, -1)), U - np.swapaxes(U, -2, -1))


def full_b_dot(state, der):
    t1, t2, t3, t4, t5 = full_minus_dstar_terms(state, der)
    return t1 + t2 + t3 + t4 + t5


def full_moving_frame_correction(full3, Adot, k):
    K, d = full3.shape[-1], Adot.shape[-2]
    P = (Adot @ geometry.as_matrices(full3[..., :k, :, :], 1, 2)).reshape(
        full3.shape[:-3] + (d, K, K))
    corr = np.zeros_like(full3)
    corr[..., k:, :, :] += P
    corr[..., :, k:, :] -= np.swapaxes(P, -3, -2)
    corr[..., :, :, k:] += np.moveaxis(P, -3, -1)
    return corr


def full_torsion_rate(state, der, B, dA):
    k = state.k
    dB = _ref_algebroid_d(B, 2, ref_structure_functions(state, der), state.mesh, k)
    return ref_pack_full(dB - full_moving_frame_correction(state.H, dA, k), k)


def with_reference_piece(n, ref_piece):
    """-d*H with piece n from its multi-operand reference and the other
    four from full_minus_dstar_terms."""
    def reference(state, der):
        pieces = list(full_minus_dstar_terms(state, der))
        pieces[n] = ref_piece(state, der)
        return sum(pieces)
    return reference


def moving_frame_correction(state, der):
    """The correction torsion_rate subtracts, with dA = A: minus its rate for
    a vanishing source."""
    B = np.zeros(state.mesh.shape + (state.k + state.d,) * 2)
    return -torsion.torsion_rate(state, der, B, state.A)


def ref_ffff(state, der):
    b = state.alg.beta
    G = state.G
    Gi, gi, DG = der.Gi, der.gi, der.DG
    t1 = -0.25 * np.einsum("...ab,...aps,...bqr->...pqrs", gi, DG, DG)
    t2 = -0.25 * np.einsum("...ms,mpn,nqr->...pqrs", G, b, b)
    t3 = -0.25 * np.einsum("...mq,mpn,nsr->...pqrs", G, b, b)
    t4 = -0.25 * np.einsum("...mn,mpr,nsq->...pqrs", G, b, b)
    t5 = -0.25 * np.einsum("...kl,...ms,mpk,...nr,nql->...pqrs", Gi, G, b, G, b)
    t6 = -0.25 * np.einsum("...kl,...mp,msk,...nr,nql->...pqrs", Gi, G, b, G, b)
    tail = t3 + t4 + t5 + t6
    S = t1 + t2 + tail + np.swapaxes(tail, -3, -2)
    return S - np.swapaxes(S, -4, -3)


def ref_ffbf(state, der):
    b = state.alg.beta
    G = state.G
    Gi, gi, DG, F = der.Gi, der.gi, der.DG, der.F
    u1 = 0.25 * np.einsum("...ab,...aps,...mq,...cbm->...pqcs", gi, DG, G, F)
    u2 = 0.25 * np.einsum("...kl,...cqk,...ms,mpl->...pqcs", Gi, DG, G, b)
    u3 = 0.25 * np.einsum("...kl,...cqk,...mp,msl->...pqcs", Gi, DG, G, b)
    u4 = -0.25 * np.einsum("mpq,...cms->...pqcs", b, DG)
    u5 = -0.25 * np.einsum("mps,...cmq->...pqcs", b, DG)
    U = u1 + u2 + u3 + u4 + u5
    return U - np.swapaxes(U, -4, -3)


def ref_fbbf(state, der):
    b = state.alg.beta
    G = state.G
    Gi, gi, DG, DDG, F = der.Gi, der.gi, der.DG, der.DDG, der.F
    w1 = -0.5 * np.einsum("...bcps->...pbcs", DDG)
    w2 = 0.25 * np.einsum("...kl,...cpk,...bsl->...pbcs", Gi, DG, DG)
    w3 = 0.25 * np.einsum("...ae,...mp,...cam,...ns,...ben->...pbcs", gi, G, F, G, F)
    w4 = -0.25 * np.einsum("...ms,mpn,...bcn->...pbcs", G, b, F)
    w5 = -0.25 * np.einsum("...mp,msn,...bcn->...pbcs", G, b, F)
    w6 = 0.25 * np.einsum("...mn,mps,...bcn->...pbcs", G, b, F)
    return w1 + w2 + w3 + w4 + w5 + w6


def ref_fbbb(state, der):
    G, DG, F, DF = state.G, der.DG, der.F, der.DF
    x1 = 0.25 * np.einsum("...epm,...bcm->...pbce", DG, F)
    x2 = -0.25 * np.einsum("...cpm,...bem->...pbce", DG, F)
    x3 = -0.5 * np.einsum("...bpm,...cem->...pbce", DG, F)
    x4 = -0.5 * np.einsum("...mp,...bcem->...pbce", G, DF)
    return x1 + x2 + x3 + x4


def ref_riemann_base(g, Gamma, mesh):
    dGamma = fields.derivs(Gamma, mesh)  # [..., e, f, a, b] = d_e Gamma^f_ab
    Rup = (
        np.einsum("...afbc->...abcf", dGamma)
        - np.einsum("...bfac->...abcf", dGamma)
        + np.einsum("...fam,...mbc->...abcf", Gamma, Gamma)
        - np.einsum("...fbm,...mac->...abcf", Gamma, Gamma)
    )
    return np.einsum("...abcf,...fe->...abce", Rup, g)


def ref_bbbb(state, der):
    G, F = state.G, der.F
    RL = ref_riemann_base(state.g, der.Gamma, state.mesh)
    y1 = 0.5 * np.einsum("...mn,...abm,...cen->...abce", G, F, F)
    y2 = -0.25 * np.einsum("...mn,...aem,...bcn->...abce", G, F, F)
    y3 = 0.25 * np.einsum("...mn,...acm,...ben->...abce", G, F, F)
    return RL + y1 + y2 + y3


def ref_calH(state, der):
    full = state.H
    gEi = torsion.inverse_frame_metric(der)
    return np.einsum("...acd,...bef,...ce,...df->...ab", full, full, gEi, gEi)


def _ref_dstar_VU(state, der):
    k = state.k
    full = state.H
    Gi, gi, F, G, b = der.Gi, der.gi, der.F, state.G, state.alg.beta
    V = np.zeros(full.shape[:-1])
    U = np.zeros(full.shape[:-1])
    Hbb = full[..., k:, k:, :]
    Hff = full[..., :k, :k, :]
    V[..., :k, :] = 0.5 * np.einsum(
        "...ac,...bd,...mi,...abm,...cde->...ie", gi, gi, G, F, Hbb)
    U[..., :k, :] = 0.5 * np.einsum(
        "...ip,...jq,...mb,mij,...pqe->...be", Gi, Gi, G, b, Hff)
    return V, U


def ref_dstar_term3(state, der):
    k = state.k
    full = state.H
    Gi, gi, DG = der.Gi, der.gi, der.DG
    W = np.zeros(full.shape[:-1])
    Hbf = full[..., k:, :k, :]
    W[..., :k, :] = np.einsum("...ab,...jl,...aji,...ble->...ie", gi, Gi, DG, Hbf)
    return -(W - np.swapaxes(W, -2, -1))


def ref_dstar_term4(state, der):
    V, _ = _ref_dstar_VU(state, der)
    return -(V - np.swapaxes(V, -2, -1))


def ref_dstar_term5(state, der):
    _, U = _ref_dstar_VU(state, der)
    return U - np.swapaxes(U, -2, -1)


def ref_norm_sq_bracket(state, der):
    b = state.alg.beta
    return np.einsum("...ip,...jq,...mn,mij,npq->...",
                     der.Gi, der.Gi, state.G, b, b)


def ref_norm_sq_F(state, der):
    return np.einsum("...ac,...bd,...mn,...abm,...cdn->...",
                     der.gi, der.gi, state.G, der.F, der.F)


def ref_co_differential_F(state, der):
    return -np.einsum("...ac,...acbm->...bm", der.gi, der.DF)


def ref_b_dot_general(state, der, grad_f):
    t1, t2, t3, t4, t5 = full_minus_dstar_terms(state, der)
    B = t1 + t3 + t4 + t5
    return B - torsion.interior_product(grad_f, state.H, state.k)


def ref_residual_tensors(state, f, der):
    """The stationarity tensors with every curvature contraction written out
    term by term instead of read from the flow rates."""
    mesh, k = state.mesh, state.k
    b = state.alg.beta
    G = state.G
    Gi, gi, DG, DDG, F = der.Gi, der.gi, der.DG, der.DDG, der.F
    calH, _ = torsion.h_contractions(state, der)
    grad_f = geometry.gradient(f, gi, mesh)

    DDGtr = np.einsum("...ab,...abij->...ij", gi, DDG)
    DG2 = np.einsum("...ab,...lm,...ail,...bjm->...ij", gi, Gi, DG, DG)
    GFGF = np.einsum("...icd,...jcd->...ij", der.GF_up, der.GF)
    brkt1 = geometry.bracket_trace(state, der)
    brkt2 = np.einsum("...ipq,...jpq->...ij", der.Gb_up, der.Gb)
    DfG = np.einsum("...a,...aij->...ij", grad_f, DG)
    TG = (DDGtr - DG2 - 0.5 * GFGF + brkt1 - 0.5 * brkt2
          + 0.5 * calH[..., :k, :k] - DfG)

    TA = -ref_co_differential_F(state, der)  # [..., a, m]
    TA = TA + np.einsum("...mi,...bc,...bin,...can->...am", Gi, gi, DG, F)
    TA = TA + np.einsum("...mi,...pq,npi,...anq->...am", Gi, Gi, b, DG)
    TA = TA + 0.5 * np.einsum("...mi,...ie->...em", Gi, calH[..., :k, k:])
    TA = TA - np.einsum("...b,...bam->...am", grad_f, F)

    DGg = np.einsum("...ip,...jq,...aij,...bpq->...ab", Gi, Gi, DG, DG)
    FFg = np.einsum("...cd,...mn,...acm,...bdn->...ab", gi, G, F, F)
    Tg = (-2.0 * der.Ric_g + 0.5 * DGg + FFg
          + 0.5 * calH[..., k:, k:] - 2.0 * geometry.hessian(f, der.Gamma, mesh))

    TH = ref_b_dot_general(state, der, grad_f)
    return {"dG": TG, "dA": TA, "dg": Tg, "B": TH}


# -- the oracle as multi-operand einsums ------------------------------------
# The oracle's stacked products against the Koszul formula, the curvature and
# the codifferential written as einsums over the full K^4 tensors.

# the oracle's widest sum has K^2 = 25 terms (25 eps ~ 5.6e-15)
ORACLE_REL_TOL = 1e-13


def _ref_oracle_frame(state, der):
    gE = oracle.frame_metric(state)
    return gE, np.linalg.inv(gE), ref_structure_functions(state, der)


def ref_koszul_connection(state, der):
    k = state.k
    gE, gEi, C = _ref_oracle_frame(state, der)
    dgE = anchor_derivs(gE, state.mesh, k)  # [..., alpha, beta, gamma]
    Kosz = (
        dgE
        + np.swapaxes(dgE, -3, -2)
        - np.einsum("...gab->...abg", dgE)
        + np.einsum("...dab,...dg->...abg", C, gE)
        + np.einsum("...dga,...db->...abg", C, gE)
        + np.einsum("...dgb,...da->...abg", C, gE)
    )
    return 0.5 * np.einsum("...dg,...abg->...dab", gEi, Kosz)


def ref_curvature_oracle(state, der):
    k = state.k
    gE, gEi, C = _ref_oracle_frame(state, der)
    Gam = ref_koszul_connection(state, der)
    dGam = anchor_derivs(Gam, state.mesh, k)  # [..., alpha, eps, beta, gamma]
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


def ref_codifferential_oracle(state, der):
    k, full3 = state.k, state.H
    _, gEi, _ = _ref_oracle_frame(state, der)
    Gam = ref_koszul_connection(state, der)
    dH = anchor_derivs(full3, state.mesh, k)  # [..., alpha, b, c, e]
    covH = dH - (
        np.einsum("...fab,...fce->...abce", Gam, full3)
        + np.einsum("...fac,...bfe->...abce", Gam, full3)
        + np.einsum("...fae,...bcf->...abce", Gam, full3)
    )
    return np.einsum("...ab,...abce->...ce", gEi, covH)


def _oracle_outputs(state):
    R, Ric, scal = oracle.curvature_oracle(state)
    return {"koszul_connection": oracle.koszul_connection(state), "R": R,
            "Ric": Ric, "scal": scal,
            "codifferential": oracle.codifferential_oracle(state)}


def _ref_oracle_outputs(state, der):
    R, Ric, scal = ref_curvature_oracle(state, der)
    return {"koszul_connection": ref_koszul_connection(state, der), "R": R,
            "Ric": Ric, "scal": scal,
            "codifferential": ref_codifferential_oracle(state, der)}


KERNELS = {
    "Ric_ff": (lambda s, d: geometry.ricci_blocks(s, d)[0], ref_Ric_ff),
    "Ric_fb": (lambda s, d: geometry.ricci_blocks(s, d)[1], ref_Ric_fb),
    "Ric_bb": (lambda s, d: geometry.ricci_blocks(s, d)[2], ref_Ric_bb),
    "F": (lambda s, d: d.F, ref_F),
    "Gamma": (lambda s, d: d.Gamma, lambda s, d: _ref_levi_civita(s)[0]),
    "Ric_g": (lambda s, d: d.Ric_g, lambda s, d: _ref_levi_civita(s)[1]),
    "norm_sq_DG": (geometry.norm_sq_DG, ref_norm_sq_DG),
    "residuals_F": (_residuals_F, ref_residuals_F),
    "DG": (lambda s, d: d.DG, ref_DG),
    "DDG": (lambda s, d: d.DDG, ref_DDG),
    "DF": (lambda s, d: d.DF, ref_DF),
    "extended_coeffs": (lambda s, d: torsion.extended_coeffs(s, d.Gamma),
                        ref_extended_coeffs),
    "dstar_term1": (torsion.b_dot, with_reference_piece(0, ref_dstar_term1)),
    "moving_frame_correction": (moving_frame_correction,
                                ref_moving_frame_correction),
    "structure_functions": (lambda s, d: torsion.bracket_pairs(s, d.F),
                            ref_bracket_pairs),
    "algebroid_d2": (lambda s, d: _algebroid_d(torsion.b_dot(s, d), 2, s, d),
                     ref_algebroid_d2),
    "algebroid_d3": (lambda s, d: _algebroid_d(s.H, 3, s, d), ref_algebroid_d3),
    "dstar_term3": (torsion.b_dot, with_reference_piece(2, ref_dstar_term3)),
    "ffff": (lambda s, d: geometry.curvature_closed_form(s, d).ffff, ref_ffff),
    "ffbf": (lambda s, d: geometry.curvature_closed_form(s, d).ffbf, ref_ffbf),
    "fbbf": (lambda s, d: geometry.curvature_closed_form(s, d).fbbf, ref_fbbf),
    "fbbb": (lambda s, d: geometry.curvature_closed_form(s, d).fbbb, ref_fbbb),
    "bbbb": (lambda s, d: geometry.curvature_closed_form(s, d).bbbb, ref_bbbb),
    "calH": (lambda s, d: torsion.h_contractions(s, d)[0], ref_calH),
    "dstar_term4": (torsion.b_dot, with_reference_piece(3, ref_dstar_term4)),
    "dstar_term5": (torsion.b_dot, with_reference_piece(4, ref_dstar_term5)),
    "norm_sq_bracket": (geometry.norm_sq_bracket, ref_norm_sq_bracket),
    "norm_sq_F": (geometry.norm_sq_F, ref_norm_sq_F),
}


@pytest.mark.parametrize("name", sorted(KERNELS))
def test_kernel_matches_multi_operand_reference(name):
    kernel, reference = KERNELS[name]
    for case, _, state in case_states():
        der = geometry.derive(state)
        got, ref = kernel(state, der), reference(state, der)
        assert got.shape == ref.shape
        assert np.max(np.abs(got - ref)) <= REL_TOL * np.max(np.abs(ref)), case


def test_closedness_residual_is_the_largest_reference_component():
    # taken over the independent components only, without the K^4 array
    for case, _, state in case_states():
        der = geometry.derive(state)
        ref = np.max(np.abs(ref_algebroid_d3(state, der)))
        assert abs(torsion.closedness_residual(state, der) - ref) <= 1e-13 * ref, case


def test_torsion_source_differential_is_its_own_pack():
    # spread by antisymmetry from its increasing index tuples
    for case, _, state in case_states():
        der = geometry.derive(state)
        dB = _algebroid_d(torsion.b_dot(state, der), 2, state, der)
        assert np.array_equal(torsion.pack_full(dB, state.k), dB), case


# sums of up to ~30 products, taken in two orders, agree to a few eps
FULL_REL_TOL = 1e-14


def test_torsion_rate_and_source_match_the_full_array_composition():
    for case, _, state in case_states():
        der = geometry.derive(state)
        v = flow.ungauged_rates(state, der)
        ref_B = full_b_dot(state, der)
        assert np.max(np.abs(v.B - ref_B)) <= FULL_REL_TOL * np.max(np.abs(ref_B)), case
        rate = torsion.torsion_rate(state, der, v.B, v.dA)
        ref = full_torsion_rate(state, der, v.B, v.dA)
        assert np.max(np.abs(rate - ref)) <= FULL_REL_TOL * np.max(np.abs(ref)), case
        assert np.array_equal(torsion.pack_full(rate, state.k), rate), case


def test_packing_matches_the_permuted_sum_reference():
    for case, rng, state in case_states():
        k, K = state.k, state.k + state.d
        core = rng.normal(size=state.mesh.shape + (K, K, K))
        got, ref = torsion.alternating_sum(core), ref_alternating_sum3(core)
        assert np.max(np.abs(got - ref)) <= 1e-15 * np.max(np.abs(ref)), case
        # neither reads an ordering with a base slot before a fiber slot
        X = state.H.copy()
        X[..., k:, :k, :] = core[..., k:, :k, :]
        X[..., :, k:, :k] = core[..., :, k:, :k]
        base = np.arange(K) >= k
        n_base = base[:, None, None].astype(int) + base[:, None] + base
        mixed = (n_base > 0) & (n_base < 3)
        assert np.array_equal(torsion.pack_full(X, k)[..., mixed],
                              ref_pack_full(X, k)[..., mixed]), case


def test_two_dimensional_torsion_run_matches_the_full_array_rates(monkeypatch):
    # random torsion over a 2-torus, which the preset runs never carry
    state = random_state(np.random.default_rng(5), algebra.heisenberg3(), 16, 2)
    config = flow.IntegratorConfig(t_end=2e-3, fixed_dt=1e-3)
    got = flow.run_flow(state, config)
    monkeypatch.setattr(torsion, "b_dot", full_b_dot)
    monkeypatch.setattr(torsion, "torsion_rate", full_torsion_rate)
    ref = flow.run_flow(state, config)
    assert len(got.states) == len(ref.states) == 3 and not got.abort_reason
    assert np.max(np.abs(got.states[-1].H - state.H)) > 1e-4  # H moves
    for name, a, b in zip(state.FIELDS, got.states[-1].fields, ref.states[-1].fields):
        assert np.max(np.abs(a - b)) <= 1e-13 * np.max(np.abs(b)), name


def test_residual_tensors_match_term_by_term_reference():
    for case, rng, state in case_states():
        phases = [2.0 * np.pi * X / L
                  for X, L in zip(state.mesh.coords(), state.mesh.lengths)]
        f = sum(a * np.cos(p) + b * np.sin(p)
                for p, (a, b) in zip(phases, rng.uniform(-0.3, 0.3, (state.d, 2))))
        der = geometry.derive(state)
        rt = functionals.residual_tensors(state, f, der)
        refs = ref_residual_tensors(state, f, der)
        # the metric blocks are now symmetrized; on a 2-D base the reference's
        # dg carries the antisymmetric truncation error of Ric_g's mixed
        # derivatives (of order 1e-3 at N = 8)
        for name in ("dG", "dg"):
            refs[name] = 0.5 * (refs[name] + np.swapaxes(refs[name], -1, -2))
        for name, ref in refs.items():
            got = getattr(rt, name)
            assert got.shape == ref.shape
            assert np.max(np.abs(got - ref)) <= REL_TOL * np.max(np.abs(ref)), (
                name, case)


def test_oracle_matches_einsum_reference():
    for case, _, state in case_states():
        der = geometry.derive(state)
        got, refs = _oracle_outputs(state), _ref_oracle_outputs(state, der)
        for name, ref in refs.items():
            assert got[name].shape == ref.shape
            assert np.max(np.abs(got[name] - ref)) <= (
                ORACLE_REL_TOL * np.max(np.abs(ref))), (name, case)


# -- row blocks ----------------------------------------------------------------
# (mesh, base dimension, block lengths): grids that split into several row
# blocks with a short last one, 128 + 72 points and rows 6 + 6 + 6 + 2
ROW_BLOCK_CASES = [(200, 1, [128, 72]), (20, 2, [6, 6, 6, 2])]


def test_row_blocked_curvature_matches_its_references_across_block_boundaries():
    for N, d, lengths in ROW_BLOCK_CASES:
        state = random_state(np.random.default_rng(N), algebra.heisenberg3(), N, d)
        assert [b.stop - b.start for b in fields.row_blocks(state.mesh)] == lengths
        assert np.any(state.H)  # with torsion
        der = geometry.derive(state)
        R, Ric, scal = oracle.curvature_oracle(state)
        for name, got, ref in zip(("R", "Ric", "scal"), (R, Ric, scal),
                                  ref_curvature_oracle(state, der)):
            assert got.shape == ref.shape
            assert np.max(np.abs(got - ref)) <= (
                ORACLE_REL_TOL * np.max(np.abs(ref))), (name, N, d)
        blocks = geometry.curvature_closed_form(state, der)
        for name in ("ffff", "ffbf", "fbbf", "fbbb", "bbbb"):
            got, ref = getattr(blocks, name), KERNELS[name][1](state, der)
            assert got.shape == ref.shape
            assert np.max(np.abs(got - ref)) <= REL_TOL * np.max(np.abs(ref)), (
                name, N, d)


def _traced_peak(fn):
    """(fn(), the peak of the memory tracemalloc sees allocated during it)."""
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        out = fn()
        return out, tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()


def test_row_blocked_curvature_peaks_near_the_size_of_its_result():
    # a K^4 temporary over the whole grid, besides R, would break the bounds
    state = random_state(np.random.default_rng(32), algebra.heisenberg3(), 32, 2)
    der = geometry.derive(state)
    (R, _, _), peak = _traced_peak(lambda: oracle.curvature_oracle(state))
    assert peak <= 2.5 * R.nbytes, peak / R.nbytes
    blocks, peak = _traced_peak(lambda: geometry.curvature_closed_form(state, der))
    size = sum(value.nbytes for value in vars(blocks).values())
    assert peak <= 2.0 * size, peak / size


_REF_D1_W = np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / 12.0  # offsets -2..2


def ref_deriv_array(values, axis, h):
    """The 4th-order central difference as a ghost-layer stencil sum."""
    n = values.shape[axis]
    ext = np.concatenate([values.take(range(n - 2, n), axis), values,
                          values.take(range(2), axis)], axis=axis)
    before = (slice(None),) * axis
    out = np.zeros_like(values)
    for off, w in zip(range(-2, 3), _REF_D1_W):
        if w:
            out += w * ext[before + (slice(2 + off, 2 + off + n),)]
    return out / h


# the two forms round each entry differently, by a few eps of the largest
DERIV_REL_TOL = 1e-14


def _check_derivatives(values, mesh, label):
    stacked = []
    for a, h in enumerate(mesh.spacings):
        got, ref = fields.deriv_array(values, a, mesh), ref_deriv_array(values, a, h)
        assert got.shape == ref.shape
        assert np.max(np.abs(got - ref)) <= DERIV_REL_TOL * np.max(np.abs(ref)), (
            label, a)
        stacked.append(got)
    assert np.array_equal(fields.derivs(values, mesh),
                          np.stack(stacked, axis=mesh.d)), label


@pytest.mark.parametrize("slots", [(), (3, 3), (2, 3, 3), (5, 5, 5)],
                         ids=["scalar", "3x3", "2x3x3", "5x5x5"])
@pytest.mark.parametrize("N, d", [(64, 1), (32, 2)])
def test_deriv_array_matches_ghost_layer_reference(N, d, slots):
    mesh = fields.Mesh((N,) * d, (1.0, 2.5)[:d])
    values = np.random.default_rng(N + len(slots)).standard_normal(
        mesh.shape + slots)
    _check_derivatives(values, mesh, (N, d, slots))


def test_deriv_array_matches_ghost_layer_reference_on_states():
    for case, _, state in case_states():
        for name in ("G", "g", "A", "H"):
            _check_derivatives(getattr(state, name), state.mesh, (name, case))


def test_slot_patterns_read_the_hand_written_oracle_slices():
    state = random_state(np.random.default_rng(8), algebra.heisenberg3(), 8, 2)
    R, Ric, scal = oracle.curvature_oracle(state)
    k = state.k
    expected = {"ffff": R[..., :k, :k, :k, :k], "ffbf": R[..., :k, :k, k:, :k],
                "fbbf": R[..., :k, k:, k:, :k], "fbbb": R[..., :k, k:, k:, k:],
                "bbbb": R[..., k:, k:, k:, k:], "Ric_ff": Ric[..., :k, :k],
                "Ric_fb": Ric[..., :k, k:], "Ric_bb": Ric[..., k:, k:], "scalar": scal}
    pairs = cli.curvature_pairs(state)
    assert list(pairs) == list(expected)
    for name, (closed_form, block) in pairs.items():
        assert closed_form.shape == block.shape, name
        assert np.array_equal(block, expected[name]), name
