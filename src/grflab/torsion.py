"""Torsion 3-form machinery on the extension bundle.

The torsion is one antisymmetric (..., K, K, K) array over the combined frame
(K = k + d indices, fiber first), held in GeometryState.H; pack_full is the
one place that knows its canonical fiber-first entries.  Includes the frame
structure functions, the generic exterior derivative of the bracket
geometry, the quadratic contractions of H, and the closed-form
codifferential that drives the torsion evolution.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import NamedTuple

import numpy as np

from .fields import Mesh, deriv_array
from .geometry import (DerivedGeometry, GeometryState, _derivs,
                       _permuted_sum, _raise_last_two, as_matrices,
                       connection_action, metric_trace, pair_trace,
                       raise_first)


# --- full-frame packing ------------------------------------------------------

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
    # the weighted canonical mixed blocks; each permutation of the whole array
    # moves every block onto one ordering of its slot kinds, and the blocks
    # of different kinds never land on the same entry
    canonical = np.zeros_like(full3)
    for kinds in ((0, 0, 1), (0, 1, 1), (1, 1, 1)):
        canon = (Ellipsis,) + tuple(
            slice(None, k) if t == 0 else slice(k, None) for t in kinds)
        canonical[canon] = _perm_weight(kinds) * full3[canon]
    full = _permuted_sum("abc", [(sign, slots, canonical) for sign, slots in (
        (1, "abc"), (-1, "bac"), (-1, "acb"), (-1, "cba"), (1, "cab"), (1, "bca"))])
    full[..., :k, :k, :k] = full3[..., :k, :k, :k]
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
    C[..., :k, :k, :k] = state.alg.beta
    mixed = np.swapaxes(connection_action(state.A, state.alg), -3, -2)
    C[..., :k, k:, :k] = mixed
    C[..., :k, :k, k:] = -np.swapaxes(mixed, -1, -2)
    C[..., :k, k:, k:] = -np.einsum("...abm->...mab", F)
    return C


# --- exterior derivative -----------------------------------------------------

class _DTables(NamedTuple):
    """Index tables of the differential of a p-form (see _d_tables)."""

    dsubs: tuple         # per base direction, the sigma entries it differentiates
    pairs: list          # C's entries at increasing bracket pairs
    rests: list          # sigma's increasing (p - 1)-tuples of trailing slots
    terms: np.ndarray    # terms[m, n]: source entry of term m of tuple n
    signs: tuple         # the sign of each term
    spread: tuple        # (entry, tuple, sign) over every ordering of every tuple


@functools.lru_cache(maxsize=None)
def _d_tables(K: int, k: int, p: int) -> _DTables:
    """Index tables of the differential of a p-form over K frame slots, the
    first k of them fiber; indices are flat over the slot axes.

    The independent components of d sigma are its strictly increasing index
    tuples.  Each term is read from one source row per grid point: the
    derivatives along each base direction of the increasing p-tuples of
    sigma without that direction, a zero (the anchor vanishes on fiber
    directions), and Q[pair, rest] = C^d_{pair} sigma_{d, rest} over
    increasing pairs and (p - 1)-tuples.  A term position that reads only
    the zero is left out.
    """
    def flat(idx):
        return sum(a * K ** (len(idx) - 1 - s) for s, a in enumerate(idx))

    def skip(t, *slots):
        return tuple(a for s, a in enumerate(t) if s not in slots)

    outs = list(itertools.combinations(range(K), p + 1))
    subs = list(itertools.combinations(range(K), p))
    pairs = list(itertools.combinations(range(K), 2))
    rests = list(itertools.combinations(range(K), p - 1)) if p else []
    dsubs = tuple([s for s in subs if b not in s] for b in range(k, K))
    keys = [("D", b, s) for b, ss in zip(range(k, K), dsubs) for s in ss]
    zero = len(keys)
    keys += ["zero"] + [("Q", pr, r) for pr in pairs for r in rests]
    source = {key: n for n, key in enumerate(keys)}  # position in the row

    terms, signs = [], []
    for i in range(p + 1):  # anchor terms (-1)^i tau(e_i)[sigma(skip i)]
        row = [source[("D", t[i], skip(t, i))] if t[i] >= k else zero
               for t in outs]
        if any(r != zero for r in row):
            terms.append(row)
            signs.append((-1) ** i)
    for i, j in itertools.combinations(range(p + 1), 2):  # brackets, (-1)^(i+j)
        terms.append([source[("Q", (t[i], t[j]), skip(t, i, j))] for t in outs])
        signs.append((-1) ** (i + j))
    spread = [(flat([t[s] for s in perm]), n,
               (-1) ** sum(a > b for a, b in itertools.combinations(perm, 2)))
              for n, t in enumerate(outs)
              for perm in itertools.permutations(range(p + 1))]
    return _DTables(tuple([flat(s) for s in ss] for ss in dsubs),
                    [flat(pr) for pr in pairs], [flat(r) for r in rests],
                    np.array(terms, dtype=int).reshape(len(signs), len(outs)),
                    tuple(signs), tuple(np.array(spread, dtype=int).reshape(-1, 3).T))


def _d_components(sigma: np.ndarray, p: int, C: np.ndarray, mesh: Mesh,
                  tables: _DTables) -> np.ndarray:
    """d sigma at its strictly increasing index tuples, (..., C(K, p + 1)),
    each a sum of its terms in algebroid_d's order."""
    K, grid = C.shape[-1], mesh.shape
    flat = sigma.reshape(grid + (K ** p,))
    sources = [deriv_array(flat[..., subs], a, h)
               for a, (subs, h) in enumerate(zip(tables.dsubs, mesh.spacings))]
    sources.append(np.zeros(grid + (1,)))
    if p > 0:
        Cp = C.reshape(grid + (K, K * K))[..., tables.pairs]
        rows = sigma.reshape(grid + (K, K ** (p - 1)))[..., tables.rests]
        sources.append((np.swapaxes(Cp, -1, -2) @ rows).reshape(grid + (-1,)))
    terms = np.concatenate(sources, axis=-1)[..., tables.terms]
    acc = terms[..., 0, :] if tables.signs[0] == 1 else -terms[..., 0, :]
    for m, sign in enumerate(tables.signs[1:], 1):
        if sign == 1:
            acc += terms[..., m, :]
        else:
            acc -= terms[..., m, :]
    return acc


def algebroid_d(sigma: np.ndarray, p: int, C: np.ndarray, mesh: Mesh, k: int) -> np.ndarray:
    """Exterior derivative of a full antisymmetric p-form array.

    d sigma(e_0, ..., e_p) = sum_i (-1)^i tau(e_i)[sigma(..., skip i, ...)]
        + sum_{i<j} (-1)^{i+j} sigma([e_i, e_j], ..., skip i and j, ...),
    with tau the anchor (zero on fiber directions) and the frame brackets C.
    The terms are summed in this order at the strictly increasing index
    tuples only, reading sigma there, and spread by antisymmetry over the
    full (..., K, ..., K) result.
    """
    K = C.shape[-1]
    tables = _d_tables(K, k, p)
    comps = _d_components(sigma, p, C, mesh, tables)
    entry, tuple_of, sign = tables.spread
    out = np.zeros(mesh.shape + (K ** (p + 1),))
    out[..., entry] = comps[..., tuple_of] * sign
    return out.reshape(mesh.shape + (K,) * (p + 1))


def closedness_residual(state: GeometryState, der: DerivedGeometry) -> float:
    """Max norm of dH (der: the state's derive()) over its independent
    components; vanishes for torsion fields coming from closed 3-forms."""
    C = structure_functions(state, der.F)
    K = C.shape[-1]
    dH = _d_components(state.H, 3, C, state.mesh, _d_tables(K, state.k, 3))
    return float(np.max(np.abs(dH), initial=0.0))  # no components when K < 4


# --- quadratic contractions --------------------------------------------------

def h_contractions(state: GeometryState, der: DerivedGeometry):
    """The square contraction calH(e1, e2) = tr H(e1, ., .) H(e2, ., .) and
    the full-contraction norm |H|^2.

    Returns (calH, Hsq) with calH a (..., K, K) symmetric array.  Computed on
    the first call for a der; later calls return the same arrays.
    """
    if der.calH is None:
        gEi = inverse_frame_metric(der)
        der.calH = pair_trace(state.H, _raise_last_two(state.H, gEi), 2)
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
    M[..., :, :k, :k] = connection_action(state.A, state.alg)
    M[..., :, k:, k:] = np.einsum("...cab->...acb", Gamma)
    return M


def minus_dstar_terms(state: GeometryState, der: DerivedGeometry):
    """The five pieces of -d*H in the nilpotent decomposition, as full
    (..., K, K) antisymmetric arrays.

    Term 2 equals -i_q H.
    """
    mesh, k, H = state.mesh, state.k, state.H
    Gi, gi, DG, Gamma, q = der.Gi, der.gi, der.DG, der.Gamma, der.q

    # g^{ab} (D_a H)_{b..}, a divergence over H's base rows Hb: the
    # connection acting on the traced slot gives the interior product with
    # g^{ab} Gamma^e_ab, and on the two free slots Y - Y^t with
    # Y[g, d] = g^{ab} M^e_{ag} H_{bed}, valid for an antisymmetric H
    Hb = H[..., k:, :, :]
    M = extended_coeffs(state, Gamma)
    Y = (np.swapaxes(as_matrices(M, 2, 1), -1, -2)
         @ as_matrices(raise_first(Hb, gi), 2, 1))
    term1 = (metric_trace(gi, _derivs(Hb, mesh))
             - interior_product(metric_trace(gi, np.moveaxis(Gamma, -3, -1)), H, k)
             - (Y - np.swapaxes(Y, -1, -2)))

    term2 = -interior_product(q, H, k)

    W = np.zeros_like(term2)
    V = np.zeros_like(term2)
    U = np.zeros_like(term2)
    Hbf = H[..., k:, :k, :]   # [..., b, l, eps]
    Hbb = H[..., k:, k:, :]   # [..., c, d, eps]
    Hff = H[..., :k, :k, :]   # [..., p, q, eps]
    # g^{ab} G^{jl} DG_{a, ji}: both slots raised, then one (d*k) sum
    DG_up = raise_first(np.swapaxes(DG, -1, -2) @ Gi[..., None, :, :], gi)
    W[..., :k, :] = (as_matrices(np.swapaxes(DG_up, -3, -2), 1, 2)
                     @ as_matrices(Hbf, 2, 1))
    V[..., :k, :] = 0.5 * (as_matrices(der.GF_up, 1, 2) @ as_matrices(Hbb, 2, 1))
    U[..., :k, :] = 0.5 * (as_matrices(der.Gb_up, 1, 2) @ as_matrices(Hff, 2, 1))
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
    array to subtract from the covariant rate, given Adot[..., a, m].  full3
    must be an antisymmetric 3-form: the three slot terms are one product
    placed in each slot, which holds only under that symmetry.
    """
    K = full3.shape[-1]
    d = Adot.shape[-2]
    # P[a, beta, gamma] = (dA/dt)^m_a H_{m beta gamma}; with H antisymmetric
    # the middle and last slots see -P and P moved into place
    P = (Adot @ as_matrices(full3[..., :k, :, :], 1, 2)).reshape(
        full3.shape[:-3] + (d, K, K))
    corr = np.zeros_like(full3)
    corr[..., k:, :, :] += P
    corr[..., :, k:, :] -= np.swapaxes(P, -3, -2)
    corr[..., :, :, k:] += np.moveaxis(P, -3, -1)
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
