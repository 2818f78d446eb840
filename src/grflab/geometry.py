"""Connection and curvature engine for the reduced bundle geometry.

Index conventions (grid axes first, then slots):
    G[..., i, j]         fiber metric
    g[..., a, b]         base metric
    A[..., a, i]         connection form, A^i_a
    F[..., a, b, m]      curvature 2-form, F^m_ab
    DG[..., a, i, j]     covariant derivative of G along the base
    DDG[..., a, b, i, j] second covariant derivative, (D_a DG)_{b, ij}
    Gamma[..., c, a, b]  Christoffel symbols of g, Gamma^c_ab
    q[..., a]            divergence-type vector field, upper index

Fiber brackets in curvature formulas use beta = -c; covariant derivatives of
fiber tensors pair +c with the connection form A for lower fiber indices (and
the opposite sign for upper ones).  Curvature components are stored lowered,
with the convention R(e1, e2, e3, e4) and Ricci the trace over slots 1 and 4.

derive computes a state's derived geometry once, and with it the one scan of
the state's torsion, DerivedGeometry.H_zero, that the torsion layer reads.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .algebra import LieAlgebra, require_valid
from .fields import DomainError, Mesh, derivs, metric_det, row_blocks

if TYPE_CHECKING:
    from .flow import Velocity

EIG_FLOOR = 1e-10


def _pointwise_min_eig(vals: np.ndarray) -> np.ndarray:
    """Smallest eigenvalue of a symmetric matrix field at each grid point."""
    n = vals.shape[-1]
    if n == 1:
        return vals[..., 0, 0]
    return np.linalg.eigvalsh(vals)[..., 0]


def check_spd_field(vals: np.ndarray, name: str) -> float:
    """The field's smallest eigenvalue over the grid; aborts with the
    offending grid point if a metric field degenerates."""
    mineig = _pointwise_min_eig(vals)
    worst = float(np.min(mineig))
    if worst <= EIG_FLOOR:
        idx = tuple(map(int, np.unravel_index(int(np.argmin(mineig)), mineig.shape)))
        raise DomainError(f"{name} loses positivity at grid point {idx}: "
                          f"min eigenvalue {worst:.3e}")
    return worst


@dataclass
class GeometryState:
    """A full field configuration at one instant: (G, g, A, H) on the mesh.

    H[..., alpha, beta, gamma] is the torsion 3-form on the combined frame,
    K = k + d slots with the fiber directions first, stored exactly
    antisymmetric with every slot ordering filled (torsion.pack_full spreads
    them from the entries at the strictly increasing index triples).
    """

    t: float
    mesh: Mesh
    alg: LieAlgebra
    G: np.ndarray
    g: np.ndarray
    A: np.ndarray
    H: np.ndarray

    @property
    def k(self) -> int:
        return self.alg.k

    @property
    def d(self) -> int:
        return self.mesh.d

    # the stored fields in the order of fields, with_fields and flow.FlowRHS
    FIELDS = ("G", "g", "A", "H")

    @property
    def fields(self) -> tuple:
        """The stored fields (G, g, A, H)."""
        return tuple(getattr(self, name) for name in self.FIELDS)

    def with_fields(self, t: float, fields) -> "GeometryState":
        """A state at time t on the same mesh and algebra holding fields,
        given in the order of GeometryState.fields."""
        return GeometryState(t, self.mesh, self.alg, *fields)

    def copy(self) -> "GeometryState":
        return self.with_fields(self.t, [f.copy() for f in self.fields])

    def homogeneous(self) -> bool:
        """Whether every stored field holds at each grid point exactly, bit
        for bit, its value at the first point."""
        lead = (0,) * self.d
        # == alone reads 0.0 and -0.0 as equal and a NaN as unequal
        return all(np.all(f == f[lead])
                   and np.all(np.signbit(f) == np.signbit(f[lead]))
                   for f in self.fields)

    def validate(self) -> tuple[float, float]:
        """The smallest eigenvalues of G and g over the grid; raises
        DomainError where either metric leaves the SPD cone."""
        return (check_spd_field(self.G, "fiber metric G"),
                check_spd_field(self.g, "base metric g"))


# --- stacked products --------------------------------------------------------
# A two-operand einsum whose operands both carry the grid axes runs several
# times slower than the same contraction as a stacked matmul at these slot
# sizes, so the hot contractions flatten their summed slots into one matrix
# axis and multiply.

def as_matrices(T: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """T[..., r_1..r_rows, c_1..c_cols] as a stack of matrices whose row
    index runs over the r slots and column index over the c slots."""
    lead = T.shape[:T.ndim - rows - cols]
    slots = T.shape[T.ndim - rows - cols:]
    return T.reshape(lead + (math.prod(slots[:rows]), math.prod(slots[rows:])))


def pair_trace(X: np.ndarray, Y: np.ndarray, n: int) -> np.ndarray:
    """out[..., p, q] = sum over the trailing n slots of X[..., p, *] Y[..., q, *]."""
    return as_matrices(X, 1, n) @ np.swapaxes(as_matrices(Y, 1, n), -1, -2)


def metric_trace(m: np.ndarray, T: np.ndarray) -> np.ndarray:
    """sum_ab m[..., a, b] T[..., a, b, *], keeping T's trailing slots."""
    rest = T.ndim - m.ndim
    out = as_matrices(m, 0, 2) @ as_matrices(T, 2, rest)
    return out.reshape(T.shape[:m.ndim - 2] + T.shape[m.ndim:])


def raise_first(T: np.ndarray, inv: np.ndarray) -> np.ndarray:
    """T[..., a, *] with its first slot raised by the symmetric inverse
    metric inv[..., a, b]."""
    rest = T.ndim - inv.ndim + 1
    return (inv @ as_matrices(T, 1, rest)).reshape(T.shape)


# --- Levi-Civita data of the base metric ------------------------------------

def levi_civita(g: np.ndarray, mesh: Mesh):
    """Christoffels, Ricci tensor and scalar curvature of the base metric.

    Returns (gi, Gamma, Ric_g, R_g) with gi the inverse metric and
    Gamma[..., c, a, b] = Gamma^c_ab.  A curve is flat: on a 1-D base Ric_g
    and R_g are exact zeros, no derivative of Gamma is formed, and gi is
    1 / g, which is what np.linalg.inv returns for a 1x1 matrix, bit for bit.
    """
    if np.any(metric_det(g, mesh.d) <= 0):
        raise DomainError("base metric not positive definite")
    gi = 1.0 / g if mesh.d == 1 else np.linalg.inv(g)
    dg = derivs(g, mesh)  # [..., e, a, b] = d_e g_ab
    # [..., a, b, d] = d_a g_bd + d_b g_ad - d_d g_ab
    sym = _permuted_sum("abd", [(1, "abd", dg), (1, "bad", dg), (-1, "dab", dg)])
    Gamma = 0.5 * (gi @ np.swapaxes(as_matrices(sym, 2, 1), -1, -2))
    Gamma = Gamma.reshape(sym.shape)
    if mesh.d == 1:
        return gi, Gamma, np.zeros_like(gi), np.zeros(g.shape[:-2])

    dGamma = derivs(Gamma, mesh)  # [..., e, c, a, b] = d_e Gamma^c_ab
    trGamma = np.einsum("...ccf->...f", Gamma)
    Gamma_s = np.swapaxes(Gamma, -3, -2)  # [..., a, c, f] = Gamma^c_af
    ric = (
        np.einsum("...ccab->...ab", dGamma)
        - np.einsum("...accb->...ab", dGamma)
        + (trGamma[..., None, :] @ as_matrices(Gamma, 1, 2)).reshape(gi.shape)
        - as_matrices(Gamma_s, 1, 2) @ as_matrices(Gamma_s, 2, 1)
    )
    R = np.einsum("...ab,...ab->...", gi, ric)
    return gi, Gamma, ric, R


# --- connection data ---------------------------------------------------------

def connection_action(A: np.ndarray, alg: LieAlgebra) -> np.ndarray:
    """cA[..., a, m, i] = c^m_li A^l_a, the connection form's action on a
    lower fiber index, as one (d, k) x (k, k*k) product per grid point."""
    k = alg.k
    c_lmi = np.swapaxes(alg.c, 0, 1).reshape(k, k * k)
    return (A @ c_lmi).reshape(A.shape + (k,))


def compute_F(A: np.ndarray, alg: LieAlgebra, mesh: Mesh) -> np.ndarray:
    """F^m_ab = d_a A^m_b - d_b A^m_a + c^m_jk A^j_a A^k_b."""
    dA = derivs(A, mesh)  # [..., e, a, m] = d_e A^m_a; read as d_a A^m_b below
    curl = dA - np.swapaxes(dA, mesh.d, mesh.d + 1)
    # c^m_jk A^j_a A^k_b = sum_k cA[a, m, k] A^k_b, antisymmetrized in (a, b)
    # so that it is exactly antisymmetric (and exactly zero on a 1-D base)
    quad = np.swapaxes(
        connection_action(A, alg) @ np.swapaxes(A, -1, -2)[..., None, :, :], -1, -2)
    return curl + 0.5 * (quad - np.swapaxes(quad, -3, -2))


def compute_DG(G: np.ndarray, A: np.ndarray, alg: LieAlgebra, mesh: Mesh) -> np.ndarray:
    """DG[..., a, i, j] = d_a G_ij - c^m_li A^l_a G_mj - c^m_lj A^l_a G_im."""
    dG = derivs(G, mesh)
    conn = np.swapaxes(connection_action(A, alg), -1, -2) @ G[..., None, :, :]
    return dG - conn - np.swapaxes(conn, mesh.d + 1, mesh.d + 2)


def compute_DDG(DG: np.ndarray, A: np.ndarray, Gamma: np.ndarray,
                alg: LieAlgebra, mesh: Mesh) -> np.ndarray:
    """(D_a DG)_{b, ij}: the extended derivative acts on all three slots of DG."""
    dDG = derivs(DG, mesh)  # [..., a, b, i, j]
    base = np.swapaxes(as_matrices(Gamma, 1, 2), -1, -2) @ as_matrices(DG, 1, 2)
    cA = connection_action(A, alg)[..., :, None, :, :]  # [..., a, ., m, i]
    f1 = np.swapaxes(cA, -1, -2) @ DG[..., None, :, :, :]  # c^m_li A^l_a DG_{b,mj}
    f2 = DG[..., None, :, :, :] @ cA                       # DG_{b,im} c^m_lj A^l_a
    return dDG - base.reshape(dDG.shape) - f1 - f2


def compute_DF(F: np.ndarray, A: np.ndarray, Gamma: np.ndarray,
               alg: LieAlgebra, mesh: Mesh) -> np.ndarray:
    """(D_e F)^m_ab, derivative slot first.  The upper fiber index pairs with
    the opposite structure-constant sign from lower ones."""
    dF = derivs(F, mesh)  # [..., e, a, b, m]
    # c^m_ln A^l_e F^n_ab, one (d*d, k) x (k, k) product per derivative slot e
    fib = as_matrices(F, 2, 1)[..., None, :, :] @ np.swapaxes(
        connection_action(A, alg), -1, -2)
    fib = fib.reshape(dF.shape)
    Gamma_t = np.swapaxes(as_matrices(Gamma, 1, 2), -1, -2)  # [..., ea, c]
    b1 = (Gamma_t @ as_matrices(F, 1, 2)).reshape(dF.shape)  # Gamma^c_ea F^m_cb
    b2 = (Gamma_t @ as_matrices(np.swapaxes(F, -3, -2), 1, 2)).reshape(dF.shape)
    return dF + fib - b1 - np.swapaxes(b2, -3, -2)  # Gamma^c_eb F^m_ac


def raise_last_two(T: np.ndarray, inv: np.ndarray) -> np.ndarray:
    """T[..., i, p, q] with both trailing slots raised by the symmetric
    inverse metric inv."""
    inv = inv[..., None, :, :]
    return inv @ T @ inv


def fiber_trace(T: np.ndarray, Gi: np.ndarray) -> np.ndarray:
    """G^{ij} T[..., *, i, j], keeping T's leading slots."""
    out = as_matrices(T, T.ndim - Gi.ndim, 2) @ as_matrices(Gi, 2, 0)
    return out.reshape(T.shape[:-2])


def fiber_pairing(DG: np.ndarray, Gi: np.ndarray) -> np.ndarray:
    """G^{ik} G^{jl} DG_{a, ij} DG_{b, kl}, a base 2-tensor."""
    return pair_trace(raise_last_two(DG, Gi), DG, 2)


def compute_q(DG: np.ndarray, Gi: np.ndarray, gi: np.ndarray) -> np.ndarray:
    """q^a = -1/2 g^{ab} G^{ij} DG_{b, ij}."""
    return -0.5 * (gi @ fiber_trace(DG, Gi)[..., None])[..., 0]


# --- derived-geometry cache --------------------------------------------------

@dataclass
class DerivedGeometry:
    """Derived quantities of one state, computed once; pass it only with that
    state.  The torsion contractions `calH` and `Hsq` are filled on first
    use by torsion.h_contractions.  `H_zero` records whether the state's H
    is exactly zero, scanned once by derive; on such a state the torsion
    layer returns exact zeros without forming its products.
    `velocity`, the state's flow.ungauged_rates, is filled on its first
    call, with read-only arrays: the first RK4 stage of a step from the
    state forms it, and a report row at the state reads it again.  On a 1-D
    base F, DF, GF, GF_up, Ric_g and R_g are exact zeros of the full shapes,
    which derive stores without forming them.

    The lowered bracket and curvature tensors shared by the quadratic
    contractions:
        Gb[..., i, k, l]    = G_mi beta^m_kl
        Gb_up[..., i, p, q] = G^{pk} G^{ql} Gb[..., i, k, l]
        GF[..., i, a, b]    = G_mi F^m_ab
        GF_up[..., i, c, d] = g^{ca} g^{db} GF[..., i, a, b]
    """

    Gi: np.ndarray
    gi: np.ndarray
    Gamma: np.ndarray
    Ric_g: np.ndarray
    R_g: np.ndarray
    F: np.ndarray
    DF: np.ndarray
    DG: np.ndarray
    DDG: np.ndarray
    q: np.ndarray
    Gb: np.ndarray
    Gb_up: np.ndarray
    GF: np.ndarray
    GF_up: np.ndarray
    calH: np.ndarray | None = field(default=None, init=False)
    Hsq: np.ndarray | None = field(default=None, init=False)
    H_zero: bool = field(default=False, init=False)
    velocity: Velocity | None = field(default=None, init=False)


def derive(state: GeometryState, validated: bool = True) -> DerivedGeometry:
    """The DerivedGeometry of state (validated=False: check its algebra
    first, which load_config and run_flow do on entry).

    A curve carries no 2-forms and is flat, so on a 1-D base F, DF and the
    base Ricci tensor vanish for any connection and metric: derive stores
    them, and GF and GF_up, as exact zeros without calling compute_F or
    compute_DF, and levi_civita forms no derivative of Gamma.
    """
    if not validated:
        require_valid(state.alg)
    mesh, alg = state.mesh, state.alg
    Gi = np.linalg.inv(state.G)
    gi, Gamma, Ric_g, R_g = levi_civita(state.g, mesh)
    k = alg.k
    if mesh.d == 1:
        F = np.zeros(mesh.shape + (1, 1, k))
        DF = np.zeros(mesh.shape + (1, 1, 1, k))
        GF = np.zeros(mesh.shape + (k, 1, 1))
        GF_up = np.zeros(GF.shape)
    else:
        F = compute_F(state.A, alg, mesh)
        DF = compute_DF(F, state.A, Gamma, alg, mesh)
        GF = (state.G @ np.swapaxes(as_matrices(F, 2, 1), -1, -2)).reshape(
            state.G.shape[:-1] + F.shape[-3:-1])
        GF_up = raise_last_two(GF, gi)
    DG = compute_DG(state.G, state.A, alg, mesh)
    DDG = compute_DDG(DG, state.A, Gamma, alg, mesh)
    q = compute_q(DG, Gi, gi)
    Gb = (state.G @ as_matrices(alg.beta, 1, 2)).reshape(state.G.shape + (k,))
    # raise beta, then lower: each term is G (G^-1 G^-1 beta), the product
    # order of the one-call references in tests/test_kernels.py, so states
    # with diagonal metrics give the same bits as those references
    beta_up = raise_last_two(alg.beta, Gi)
    Gb_up = (state.G @ as_matrices(beta_up, 1, 2)).reshape(Gb.shape)
    der = DerivedGeometry(Gi, gi, Gamma, Ric_g, R_g, F, DF, DG, DDG, q,
                          Gb, Gb_up, GF, GF_up)
    der.H_zero = not state.H.any()
    return der


# --- closed-form curvature ---------------------------------------------------

@dataclass
class CurvatureBlocks:
    """Lowered curvature components by slot pattern, plus Ricci blocks.

    Block names list the slot types of (e1, e2, e3, e4): 'f' fiber, 'b' base.
    Mixed patterns not stored follow from the symmetries of the curvature
    operator.  Ric_fb[..., i, a] pairs a fiber slot with a base slot.
    """

    ffff: np.ndarray
    ffbf: np.ndarray  # [..., p, q, c, s] = R(eta_p, eta_q, v_c, eta_s)
    fbbf: np.ndarray  # [..., p, b, c, s]
    fbbb: np.ndarray  # [..., p, b, c, e]
    bbbb: np.ndarray
    Ric_ff: np.ndarray
    Ric_fb: np.ndarray
    Ric_bb: np.ndarray
    scalar: np.ndarray


def gradient(f: np.ndarray, gi: np.ndarray, mesh: Mesh) -> np.ndarray:
    """Upper-index gradient of a scalar field: (grad f)^a = g^{ab} d_b f."""
    df = derivs(f, mesh)
    return np.einsum("...ab,...b->...a", gi, df)


def hessian(f: np.ndarray, Gamma: np.ndarray, mesh: Mesh) -> np.ndarray:
    """Covariant Hessian of a scalar: H_ab = d_a d_b f - Gamma^c_ab d_c f."""
    df = derivs(f, mesh)
    ddf = derivs(df, mesh)
    ddf = 0.5 * (ddf + np.swapaxes(ddf, mesh.d, mesh.d + 1))
    return ddf - np.einsum("...cab,...c->...ab", Gamma, df)


def laplacian(f: np.ndarray, gi: np.ndarray, Gamma: np.ndarray, mesh: Mesh) -> np.ndarray:
    """Laplace-Beltrami operator, the g-trace of the covariant Hessian."""
    return np.einsum("...ab,...ab->...", gi, hessian(f, Gamma, mesh))


# --- pointwise squared norms -------------------------------------------------

def norm_sq_DG(state: GeometryState, der: DerivedGeometry) -> np.ndarray:
    """|DG|^2 = g^{ab} G^{ij} G^{lm} DG_{a, il} DG_{b, jm}."""
    return np.einsum("...ab,...ab->...", der.gi, fiber_pairing(der.DG, der.Gi))


def norm_sq_F(state: GeometryState, der: DerivedGeometry) -> np.ndarray:
    """|F|^2 = g^{ac} g^{bd} G_mn F^m_ab F^n_cd."""
    return np.einsum("...abm,...mab->...", der.F, der.GF_up)


def norm_sq_bracket(state: GeometryState, der: DerivedGeometry) -> np.ndarray:
    """|[,]|^2 = G^{ip} G^{jq} G_mn beta^m_ij beta^n_pq."""
    return np.einsum("mij,...mij->...", state.alg.beta, der.Gb_up)


def bracket_trace(state: GeometryState, der: DerivedGeometry) -> np.ndarray:
    """G^{pq} G_mn beta^m_ip beta^n_jq, a symmetric fiber 2-tensor."""
    Gb_l = der.Gb @ der.Gi[..., None, :, :]  # [..., n, i, q], last slot raised
    b_jnq = np.swapaxes(state.alg.beta, 0, 1)
    return pair_trace(np.swapaxes(Gb_l, -3, -2), b_jnq, 2)


def ricci_blocks(state: GeometryState, der: DerivedGeometry):
    """Ricci blocks of the algebroid connection.

    Closed forms valid for a nilpotent structure algebra.  Returns
    (Ric_ff, Ric_fb, Ric_bb) with Ric_fb[..., i, a].  On a 1-D base, where F
    and DF vanish, each F/DF term is the scalar 0.0 and is not formed; the
    sums keep their order, so each block has the bits that adding the zero
    arrays gives.
    """
    b = state.alg.beta
    G = state.G
    Gi, gi = der.Gi, der.gi
    DG, DDG, F, DF = der.DG, der.DDG, der.F, der.DF
    flat = state.d == 1

    trDG = fiber_trace(DG, Gi)         # G^{kl} DG_{a, kl}
    DG_up = raise_first(DG, gi)        # [..., a, i, j] = g^{ab} DG_{b, ij}
    DGGi = DG @ Gi[..., None, :, :]    # [..., a, i, l] = DG_{a, ik} G^{kl}
    Ric_ff = (
        -0.5 * metric_trace(gi, DDG)
        # g^{ab} trDG_a DG_{b, ij}
        - 0.25 * (trDG[..., None, :] @ as_matrices(DG_up, 1, 2)).reshape(Gi.shape)
        # g^{ab} G^{kl} DG_{a, ik} DG_{b, lj}, summed over (a, l) at once
        + 0.5 * (as_matrices(np.swapaxes(DGGi, -3, -2), 1, 2)
                 @ as_matrices(DG_up, 2, 1))
        + (0.0 if flat else 0.25 * pair_trace(der.GF_up, der.GF, 2))
        - 0.5 * bracket_trace(state, der)
        + 0.25 * pair_trace(der.Gb_up, der.Gb, 2)
    )
    Ric_fb = (
        (0.0 if flat else (
            # G_mi g^{bc} DF_{b, ac}^m
            0.5 * (G @ np.swapaxes(metric_trace(gi, np.moveaxis(DF, -3, -2)), -1, -2))
            # g^{bc} DG_{b, im} F^m_ac
            + 0.5 * pair_trace(np.swapaxes(DG_up, -3, -2), F, 2)
            # G_mi F^m_ab g^{bc} trDG_c, with g^{bc} trDG_c = [..., c, 1]
            + 0.25 * (der.GF @ (gi @ trDG[..., None])[..., None, :, :])[..., 0]))
        # G^{kl} DG_{a, ml} beta^m_ki
        - 0.5 * np.swapaxes(as_matrices(DGGi, 1, 2) @ as_matrices(b, 2, 1), -1, -2)
    )
    Ric_bb = (
        der.Ric_g
        - 0.5 * fiber_trace(DDG, Gi)
        + 0.25 * fiber_pairing(DG, Gi)
        # g^{cd} G_mn F^m_ac F^n_bd, with GF g^-1 = [..., n, a, d] moved to (a, d, n)
        - (0.0 if flat else
           0.5 * pair_trace(np.moveaxis(der.GF @ gi[..., None, :, :], -3, -1), F, 2))
    )
    return Ric_ff, Ric_fb, Ric_bb


def _product(X: np.ndarray, xs: int, Y: np.ndarray, ys: int) -> np.ndarray:
    """sum_m X[..., *, m] Y[..., m, *] for X with xs slots and Y with ys slots,
    as one stacked matmul; a constant operand such as beta broadcasts."""
    out = as_matrices(X, xs - 1, 1) @ as_matrices(Y, 1, ys - 1)
    return out.reshape(out.shape[:-2] + X.shape[X.ndim - xs:-1]
                       + Y.shape[Y.ndim - ys + 1:])


def _permuted_sum(out: str, terms) -> np.ndarray:
    """sum of c * T[..., slots] with its slots put in the order out, over the
    (c, slots, T) in terms, accumulated in place in their order into a copy
    of the first term (which must have the result's shape); a +-1
    coefficient adds or subtracts the permuted view without a temporary."""
    views = [(c, np.einsum(f"...{slots}->...{out}", T)) for c, slots, T in terms]
    c, acc = views[0]
    acc = acc.copy() if c == 1 else c * acc
    for c, X in views[1:]:
        if c == 1:
            acc += X
        elif c == -1:
            acc -= X
        else:
            acc += c * X
    return acc


def _ffff(G: np.ndarray, b: np.ndarray, der: DerivedGeometry, DG_up, Gb_l) -> np.ndarray:
    """All-fiber component, slots (p, q, r, s)."""
    Y = _product(G, 2, _product(b, 3, b, 3), 4)              # G_sm b^m_pn b^n_qr
    t1 = _product(np.moveaxis(DG_up, -3, -1), 3, der.DG, 3)  # [..., p, s, q, r]
    t4 = _product(np.moveaxis(b, 0, -1), 3, der.Gb, 3)       # [..., p, r, s, q]
    P = _product(Gb_l, 3, np.moveaxis(der.Gb, -1, -3), 3)    # Gb_l[s,p,l] Gb[r,q,l]
    tail = _permuted_sum("pqrs", [(-0.25, "qpsr", Y), (-0.25, "prsq", t4),
                                  (-0.25, "sprq", P), (-0.25, "psrq", P)])
    S = (_permuted_sum("pqrs", [(-0.25, "psqr", t1), (-0.25, "spqr", Y)])
         + tail + np.swapaxes(tail, -3, -2))  # add the (2, 3) swap of the tail
    return S - np.swapaxes(S, -4, -3)           # antisymmetrize in (1, 2)


def _ffbf(b: np.ndarray, der: DerivedGeometry, DG_up, Gb_l) -> np.ndarray:
    """Fiber-fiber-base-fiber component, slots (p, q, c, s)."""
    u1 = _product(der.GF, 3, DG_up, 3)                       # [..., q, c, p, s]
    u23 = _product(der.DG, 3, np.moveaxis(Gb_l, -1, -3), 3)  # DG[c,q,k] Gb_l[.,.,k]
    u45 = _product(np.swapaxes(der.DG, -1, -2), 3, b, 3)     # DG[c,m,.] b^m
    U = _permuted_sum("pqcs", [(0.25, "qcps", u1), (0.25, "cqsp", u23),
                               (0.25, "cqps", u23), (-0.25, "cspq", u45),
                               (-0.25, "cqps", u45)])
    return U - np.swapaxes(U, -4, -3)


def _fbbf(b: np.ndarray, der: DerivedGeometry) -> np.ndarray:
    """Fiber-base-base-fiber component, slots (p, b, c, s)."""
    w2 = _product(der.DG @ der.Gi[..., None, :, :], 3, np.moveaxis(der.DG, -1, -3), 3)
    w3 = _product(der.GF @ der.gi[..., None, :, :], 3, np.moveaxis(der.GF, -1, -3), 3)
    w45 = _product(der.Gb, 3, np.moveaxis(der.F, -1, -3), 3)          # Gb[.,.,n] F^n_bc
    w6 = _product(np.moveaxis(b, 0, -1), 3, der.GF, 3)               # [..., p, s, b, c]
    return _permuted_sum("pbcs", [(-0.5, "bcps", der.DDG), (0.25, "cpbs", w2),
                                  (0.25, "pcsb", w3), (-0.25, "spbc", w45),
                                  (-0.25, "psbc", w45), (0.25, "psbc", w6)])


def _fbbb(G: np.ndarray, der: DerivedGeometry) -> np.ndarray:
    """Fiber-base-base-base component, slots (p, b, c, e)."""
    x13 = _product(der.DG, 3, np.moveaxis(der.F, -1, -3), 3)  # DG[.,p,m] F^m_..
    x4 = _product(der.DF, 4, G, 2)                             # [..., b, c, e, p]
    return _permuted_sum("pbce", [(0.25, "epbc", x13), (-0.25, "cpbe", x13),
                                  (-0.5, "bpce", x13), (-0.5, "bcep", x4)])


def _bbbb(state: GeometryState, der: DerivedGeometry) -> np.ndarray:
    """All-base component: the lowered Riemann tensor of g plus F terms."""
    dGamma = derivs(der.Gamma, state.mesh)  # [..., e, f, a, b] = d_e Gamma^f_ab
    GG = _product(der.Gamma, 3, der.Gamma, 3)  # Gamma^f_am Gamma^m_bc, slots fabc
    Rup = _permuted_sum("abcf", [(1, "afbc", dGamma), (-1, "bfac", dGamma),
                                 (1, "fabc", GG), (-1, "fbac", GG)])
    y = _product(der.F, 3, der.GF, 3)  # [..., a, b, c, e] = G_mn F^m_ab F^n_ce
    return _product(Rup, 4, state.g, 2) + _permuted_sum(
        "abce", [(0.5, "abce", y), (-0.25, "aebc", y), (0.25, "acbe", y)])


def _row_view(der: DerivedGeometry, rows: slice) -> DerivedGeometry:
    """der's arrays at a block of grid rows, as views; calH, Hsq, H_zero
    and velocity are left at their defaults."""
    return dataclasses.replace(der, **{f.name: getattr(der, f.name)[rows]
                                       for f in dataclasses.fields(der) if f.init})


def curvature_closed_form(state: GeometryState, der: DerivedGeometry) -> CurvatureBlocks:
    """All five curvature components plus Ricci blocks and scalar curvature.

    Uses the closed-form expressions valid for a nilpotent structure algebra;
    the Ricci blocks drop trace terms that vanish in that case, and the
    scalar is their trace, tr_G Ric_ff + tr_g Ric_bb.  Each of ffff, ffbf,
    fbbf and fbbb permutes the slots of a few shared products in its own
    function; these four run over fields.row_blocks, on views of the state
    and of der, and write each block into the returned array, so their
    temporaries are only a block large.  ricci_blocks and bbbb are one call
    each over the whole grid.
    """
    k, d, b = state.k, state.d, state.alg.beta
    # a block's slot pattern gives its shape: 'f' has range k, 'b' range d
    out = {name: np.empty(state.mesh.shape + tuple(k if s == "f" else d for s in name))
           for name in ("ffff", "ffbf", "fbbf", "fbbb")}
    for rows in row_blocks(state.mesh):
        G, rd = state.G[rows], _row_view(der, rows)
        DG_up = raise_first(rd.DG, rd.gi)      # base slot raised
        Gb_l = rd.Gb @ rd.Gi[..., None, :, :]  # last bracket slot raised
        out["ffff"][rows] = _ffff(G, b, rd, DG_up, Gb_l)
        out["ffbf"][rows] = _ffbf(b, rd, DG_up, Gb_l)
        out["fbbf"][rows] = _fbbf(b, rd)
        out["fbbb"][rows] = _fbbb(G, rd)
    Ric_ff, Ric_fb, Ric_bb = ricci_blocks(state, der)
    scalar = (np.einsum("...ij,...ij->...", der.Gi, Ric_ff)
              + np.einsum("...ab,...ab->...", der.gi, Ric_bb))
    return CurvatureBlocks(**out, bbbb=_bbbb(state, der), Ric_ff=Ric_ff,
                           Ric_fb=Ric_fb, Ric_bb=Ric_bb, scalar=scalar)
