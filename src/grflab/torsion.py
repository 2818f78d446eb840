"""Torsion 3-form machinery on the extension bundle.

The torsion is one antisymmetric (..., K, K, K) array over the combined frame
(K = k + d indices, fiber first), held in GeometryState.H.  Every full
antisymmetric array in this module is spread once from its components at the
strictly increasing index tuples, the independent components of a form, by
the spread table of _d_tables: pack_full for a form of any degree and
alternating_sum for the torsion, the differential, the codifferential and
the torsion rate, which are also evaluated there only.  Every component is a
gather followed by products with constant signed tables: the differential
with the table d, the moving-frame correction with the table correction, and
the antisymmetric part of the codifferential with the transposed spread
table.  The increasing pairs are declared once, as the tuples of the
degree-1 table; the frame brackets and the codifferential are read at them.
Includes the generic exterior derivative of the bracket geometry, the
quadratic contractions of H, and the closed-form codifferential that drives
the torsion evolution; their grid derivatives are fields.deriv_array and
fields.derivs on the state's mesh, so no spacing is read here.

An exactly zero H is the Ricci flow with symmetry on the principal bundle,
and the flow keeps it exactly zero: the source B = -d*H and the torsion rate
at B = 0 are linear in H.  geometry.derive scans H once per derived state,
into DerivedGeometry.H_zero, and on such a state h_contractions, b_dot,
closedness_residual and (when B is exactly zero too) torsion_rate return
exact zeros without their products.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import NamedTuple

import numpy as np

from .fields import Mesh, deriv_array, derivs
from .geometry import (DerivedGeometry, GeometryState, as_matrices,
                       connection_action, metric_trace, pair_trace,
                       raise_first, raise_last_two)


# --- full-frame packing ------------------------------------------------------

def pack_full(full: np.ndarray, k: int, degree: int = 3) -> np.ndarray:
    """The antisymmetric (..., K, ..., K) array of a degree-form with full's
    entries at the strictly increasing index tuples, spread by antisymmetry
    over every slot ordering; the identity on an exactly antisymmetric
    array."""
    K = full.shape[-1]
    tables = _d_tables(K, k, degree - 1)
    comps = full.reshape(full.shape[:-degree] + (K ** degree,))[..., tables.tuples]
    return _spread(comps, tables, K, degree)


def alternating_sum(core: np.ndarray) -> np.ndarray:
    """Sum over the six orderings of core's last three slots, each with the
    sign of its permutation: the sums at the increasing triples, one
    contraction with the spread matrix, spread once."""
    K = core.shape[-1]
    tables = _d_tables(K, K, 2)
    comps = core.reshape(core.shape[:-3] + (K ** 3,)) @ tables.spread.T
    return _spread(comps, tables, K, 3)


def inverse_frame_metric(der: DerivedGeometry) -> np.ndarray:
    """Block-diagonal inverse of the combined metric (..., K, K), fiber block first."""
    k, d = der.Gi.shape[-1], der.gi.shape[-1]
    gEi = np.zeros(der.Gi.shape[:-2] + (k + d, k + d))
    gEi[..., :k, :k] = der.Gi
    gEi[..., k:, k:] = der.gi
    return gEi


def bracket_pairs(state: GeometryState, F: np.ndarray) -> np.ndarray:
    """Frame brackets at the increasing index pairs: Cp[..., m, n] =
    C^m_{alpha beta} for the n-th pair alpha < beta, [e_alpha, e_beta] =
    C^gamma e_gamma.

    Every bracket is vertical, so only the k fiber rows m are kept.
    Fiber-fiber pairs carry the fiberwise bracket (beta = -c in this frame),
    fiber-base pairs come from the connection form, and base-base pairs
    equal -F (DerivedGeometry.F) since coordinate fields commute on the base.
    The brackets are laid out as (..., k, K, K) rows and read at the pairs of
    _d_tables(K, k, 1); the base-fiber block, below them, is never read.
    """
    k = state.k
    K = k + state.d
    C = np.empty(state.mesh.shape + (k, K, K))
    C[..., :k, :k] = state.alg.beta
    C[..., :k, k:] = -np.moveaxis(connection_action(state.A, state.alg), -3, -1)
    C[..., k:, k:] = -np.moveaxis(F, -1, -3)
    return C.reshape(C.shape[:-2] + (K * K,))[..., _d_tables(K, k, 1).tuples]


# --- exterior derivative -----------------------------------------------------

class _DTables(NamedTuple):
    """Index and sign tables of the differential of a p-form (see _d_tables)."""

    dsubs: tuple            # per base direction, the sigma entries it differentiates
    rests: list             # sigma's increasing (p - 1)-tuples of trailing slots
    d: np.ndarray           # d[source, n]: the sign that source column enters
                            # tuple n of d sigma with (_d_components)
    correction: np.ndarray  # correction[entry of P, n]: (-1)^s for the base
                            # slot s of tuple n reading it (torsion_rate)
    spread: np.ndarray      # spread[n, entry]: the sign tuple n lands with there;
                            # spreads any (p + 1)-form (pack_full, _spread)
    tuples: np.ndarray      # the flat index of each increasing (p + 1)-tuple; at
                            # p = 1 the pairs bracket_pairs and
                            # minus_dstar_terms are read at, in the order of Q


@functools.lru_cache(maxsize=None)
def _d_tables(K: int, k: int, p: int) -> _DTables:
    """Index tables of the differential of a p-form over K frame slots, the
    first k of them fiber; indices are flat over the slot axes.

    The independent components of d sigma are its strictly increasing index
    tuples.  Each is a signed sum of the columns of one source row per grid
    point: the derivatives along each base direction of the increasing
    p-tuples of sigma without that direction (the anchor vanishes on fiber
    directions), and Q[pair, rest] = C^m_{pair} sigma_{m, rest} over
    increasing pairs, fiber m and increasing (p - 1)-tuples; the matrix d
    holds the signs, so d sigma is one product with it.

    The moving-frame correction of a stored (p + 1)-form tau is one product
    of P[a, rest] = (dA/dt)^m_a tau_{m, rest} with the matrix correction:
    slot s of a tuple at a base index adds (-1)^s P at that index and the
    other slots, and a fiber slot adds nothing.  The spread matrix carries each tuple onto
    every ordering of it, a product with it copies entries exactly.
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
    keys += [("Q", pr, r) for pr in pairs for r in rests]
    source = {key: n for n, key in enumerate(keys)}  # column of the source row

    d = np.zeros((len(keys), len(outs)))
    correction = np.zeros(((K - k) * K ** p, len(outs)))
    spread = np.zeros((len(outs), K ** (p + 1)))
    for n, t in enumerate(outs):
        for i in range(p + 1):  # anchor terms (-1)^i tau(e_i)[sigma(skip i)]
            if t[i] >= k:
                d[source[("D", t[i], skip(t, i))], n] += (-1) ** i
                correction[(t[i] - k) * K ** p + flat(skip(t, i)), n] += (-1) ** i
        for i, j in itertools.combinations(range(p + 1), 2):  # brackets
            d[source[("Q", (t[i], t[j]), skip(t, i, j))], n] += (-1) ** (i + j)
        for perm in itertools.permutations(range(p + 1)):
            spread[n, flat([t[s] for s in perm])] = (-1) ** sum(
                a > b for a, b in itertools.combinations(perm, 2))
    return _DTables(tuple([flat(s) for s in ss] for ss in dsubs),
                    [flat(r) for r in rests], d, correction, spread,
                    np.array([flat(t) for t in outs], dtype=int))


def _spread(comps: np.ndarray, tables: _DTables, K: int, degree: int) -> np.ndarray:
    """The full antisymmetric (..., K, ..., K) array of a degree-form from its
    components at the increasing index tuples (tables: _d_tables(K, k,
    degree - 1), whose outputs are those tuples), as one matrix product."""
    lead = comps.shape[:-1]
    flat = comps.reshape(math.prod(lead), comps.shape[-1]) @ tables.spread
    return flat.reshape(lead + (K,) * degree)


def _d_components(sigma: np.ndarray, p: int, Cp: np.ndarray, mesh: Mesh,
                  tables: _DTables) -> np.ndarray:
    """d sigma at its strictly increasing index tuples, (..., C(K, p + 1)):
    its source row times the signed matrix tables.d (Cp: bracket_pairs)."""
    k, grid = Cp.shape[-2], mesh.shape
    K = k + mesh.d
    flat = sigma.reshape(grid + (K ** p,))
    sources = [deriv_array(flat[..., subs], a, mesh)
               for a, subs in enumerate(tables.dsubs)]
    if p > 0:
        rows = sigma.reshape(grid + (K, K ** (p - 1)))[..., :k, tables.rests]
        sources.append((np.swapaxes(Cp, -1, -2) @ rows).reshape(grid + (-1,)))
    return np.concatenate(sources, axis=-1) @ tables.d


def algebroid_d(sigma: np.ndarray, p: int, Cp: np.ndarray, mesh: Mesh, k: int) -> np.ndarray:
    """Exterior derivative of a full antisymmetric p-form array, given the
    frame brackets at the increasing pairs (bracket_pairs).

    d sigma(e_0, ..., e_p) = sum_i (-1)^i tau(e_i)[sigma(..., skip i, ...)]
        + sum_{i<j} (-1)^{i+j} sigma([e_i, e_j], ..., skip i and j, ...),
    with tau the anchor (zero on fiber directions) and the frame brackets C.
    The terms are evaluated at the strictly increasing index tuples only,
    reading sigma there, summed as one product with a signed table, and
    spread by antisymmetry over the full (..., K, ..., K) result.
    """
    K = k + mesh.d
    tables = _d_tables(K, k, p)
    return _spread(_d_components(sigma, p, Cp, mesh, tables), tables, K, p + 1)


def closedness_residual(state: GeometryState, der: DerivedGeometry) -> float:
    """Max norm of dH (der: the state's derive()) over its independent
    components; vanishes for torsion fields coming from closed 3-forms."""
    if der.H_zero:
        return 0.0
    k = state.k
    dH = _d_components(state.H, 3, bracket_pairs(state, der.F), state.mesh,
                       _d_tables(k + state.d, k, 3))
    return float(np.max(np.abs(dH), initial=0.0))  # no components when K < 4


# --- quadratic contractions --------------------------------------------------

def h_contractions(state: GeometryState, der: DerivedGeometry):
    """The square contraction calH(e1, e2) = tr H(e1, ., .) H(e2, ., .) and
    the full-contraction norm |H|^2.

    Returns (calH, Hsq) with calH a (..., K, K) symmetric array, zeros on a
    torsion-free state.  Computed on the first call for a der; later calls
    return the same arrays.
    """
    if der.calH is None and der.H_zero:
        der.calH, der.Hsq = np.zeros(state.H.shape[:-1]), np.zeros(state.mesh.shape)
    elif der.calH is None:
        gEi = inverse_frame_metric(der)
        der.calH = pair_trace(state.H, raise_last_two(state.H, gEi), 2)
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
    return (_raised_square(H[..., :k, :k, :k], Gi, Gi),
            _raised_square(H[..., :k, k:, k:], Gi, gi),
            _raised_square(H[..., k:, k:, k:], gi, gi))


def _raised_square(T: np.ndarray, first: np.ndarray, rest: np.ndarray) -> np.ndarray:
    """sum T_abc T_def first^{ad} rest^{be} rest^{cf} for a three-slot T and
    symmetric inverse metrics: T's slots raised one stacked product each,
    the last, the middle and the first, then one pointwise dot with T."""
    X = (as_matrices(T, 2, 1) @ rest).reshape(T.shape)
    X = np.swapaxes(X, -1, -2)
    X = np.swapaxes((as_matrices(X, 2, 1) @ rest).reshape(X.shape), -1, -2)
    return np.einsum("...abc,...abc->...", T, raise_first(X, first))


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


def minus_dstar_terms(state: GeometryState, der: DerivedGeometry) -> np.ndarray:
    """-d*H in the nilpotent decomposition at its increasing index pairs,
    (..., C(K, 2)); b_dot spreads it.

    The divergence g^{ab} (D_a H)_{b..} over H's base rows differentiates
    them at the pairs only.  The connection acting on the traced slot gives
    the interior product with g^{ab} Gamma^e_ab, taken together with the
    -i_q H term.  On the two free slots it gives -(Z - Z^t), one product
    with the transposed spread table, and the DG, F and bracket terms fold
    into the same Z (valid for an antisymmetric H):
        Z[g, d] = N[b, e, g] H_{b e d} - 1/2 (G b)^{pq}_g H_{p q d},
    summed over base rows b and every e, with N the coefficients M of
    extended_coeffs with their base slot raised by g, plus
    g^{ab} G^{el} DG_{a, lg} on the fiber block and 1/2 (G F)_g^{b e} on
    the base-fiber block (e base, g fiber).
    """
    mesh, k, H = state.mesh, state.k, state.H
    gi, Gamma = der.gi, der.Gamma
    K = k + state.d
    grid = mesh.shape
    pairs = _d_tables(K, k, 1)

    Hb_pairs = H.reshape(grid + (K, K * K))[..., k:, pairs.tuples]  # [..., b, n]
    v = metric_trace(gi, np.moveaxis(Gamma, -3, -1)) + der.q
    out = (metric_trace(gi, derivs(Hb_pairs, mesh))
           - (v[..., None, :] @ Hb_pairs)[..., 0, :])

    # g^{ab} G^{jl} DG_{a, ji}: both slots raised, [..., b, i, l]
    DGt = np.swapaxes(der.DG, -1, -2)
    DG_up = raise_first((as_matrices(DGt, 2, 1) @ der.Gi).reshape(DGt.shape), gi)
    N = raise_first(extended_coeffs(state, Gamma), gi)  # [..., b, e, g]
    N[..., :k, :k] += np.swapaxes(DG_up, -1, -2)
    N[..., k:, :k] = 0.5 * np.moveaxis(der.GF_up, -3, -1)
    Z = (np.swapaxes(as_matrices(N, 2, 1), -1, -2)
         @ as_matrices(H[..., k:, :, :], 2, 1))
    Z[..., :k, :] -= 0.5 * (as_matrices(der.Gb_up, 1, 2)
                            @ as_matrices(H[..., :k, :k, :], 2, 1))
    out -= Z.reshape(grid + (K * K,)) @ pairs.spread.T  # Z - Z^t at the pairs
    return out


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
    antisymmetric (..., K, K) array (der: the state's derive()), spread once
    from minus_dstar_terms; zeros on a torsion-free state."""
    if der.H_zero:
        return np.zeros(state.H.shape[:-1])
    k = state.k
    K = k + state.d
    return _spread(minus_dstar_terms(state, der), _d_tables(K, k, 1), K, 2)


def torsion_rate(state: GeometryState, der: DerivedGeometry, B: np.ndarray,
                 dA: np.ndarray) -> np.ndarray:
    """Rate of the stored torsion when H moves by dB while the connection
    form moves at rate dA[..., a, m]: the exterior derivative of the source
    2-form minus the moving-frame correction, both at the increasing index
    triples, spread once by antisymmetry.

    The stored base-slot components are evaluated on horizontal lifts that
    rotate as A evolves: d/dt of a stored component equals the covariant
    rate minus H with each base slot fed the fiber vector (dA/dt) v.  For an
    antisymmetric H the correction at the triples is one product of
    P[a, beta, gamma] = (dA/dt)^m_a H_{m beta gamma} with the signed table
    correction, one term per base slot.  Both vanish when H and B are
    exactly zero, and the rate is then zeros.
    """
    if der.H_zero and not B.any():
        return np.zeros(state.H.shape)
    k, mesh = state.k, state.mesh
    K = k + state.d
    tables = _d_tables(K, k, 2)
    rate = _d_components(B, 2, bracket_pairs(state, der.F), mesh, tables)
    P = (dA @ as_matrices(state.H[..., :k, :, :], 1, 2)).reshape(mesh.shape + (-1,))
    rate -= P @ tables.correction
    return _spread(rate, tables, K, 3)
