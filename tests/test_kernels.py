"""Pairwise contraction kernels against the one-call einsums they replace.

Each reference below is the multi-operand einsum the kernel was written as
before it became a chain of two-operand contractions over the shared
DerivedGeometry tensors.  The chains sum in a different order, so the two
agree to a few ulps of the largest entry, not bit for bit.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grflab import algebra, geometry, torsion
from grflab.cli import random_state

ALGEBRAS = {"heisenberg3": algebra.heisenberg3,
            "abelian3": lambda: algebra.abelian(3)}

# K^4 eps ~ 1.4e-13 for the widest sum (K = 5), plus margin
REL_TOL = 1e-12


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


KERNELS = {
    "Ric_ff": (lambda s, d: geometry.ricci_blocks(s, d)[0], ref_Ric_ff),
    "ffff": (lambda s, d: geometry.curvature_closed_form(s, d).ffff, ref_ffff),
    "ffbf": (lambda s, d: geometry.curvature_closed_form(s, d).ffbf, ref_ffbf),
    "fbbf": (lambda s, d: geometry.curvature_closed_form(s, d).fbbf, ref_fbbf),
    "calH": (lambda s, d: torsion.h_contractions(s, d)[0], ref_calH),
    "dstar_term4": (lambda s, d: torsion.minus_dstar_terms(s, d)[3], ref_dstar_term4),
    "dstar_term5": (lambda s, d: torsion.minus_dstar_terms(s, d)[4], ref_dstar_term5),
    "norm_sq_bracket": (geometry.norm_sq_bracket, ref_norm_sq_bracket),
    "norm_sq_F": (geometry.norm_sq_F, ref_norm_sq_F),
}


@pytest.mark.parametrize("name", sorted(KERNELS))
@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), d=st.sampled_from([1, 2]),
       alg=st.sampled_from(sorted(ALGEBRAS)))
def test_kernel_matches_multi_operand_reference(name, seed, d, alg):
    state = random_state(np.random.default_rng(seed), ALGEBRAS[alg](), 8, d)
    der = geometry.derive(state)
    kernel, reference = KERNELS[name]
    got, ref = kernel(state, der), reference(state, der)
    assert got.shape == ref.shape
    assert np.max(np.abs(got - ref)) <= REL_TOL * np.max(np.abs(ref))
