"""Structure-constant validation and the nilpotent trace identities."""

import numpy as np
import pytest

from conftest import constant_state
from grflab.algebra import (AlgebraValidationError, LieAlgebra, abelian,
                            algebra_from_spec, heisenberg3, require_valid,
                            validate_algebra)
from grflab.geometry import derive, norm_sq_bracket


def so3():
    c = np.zeros((3, 3, 3))
    for m, i, j in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        c[m, i, j] = 1.0
        c[m, j, i] = -1.0
    return LieAlgebra(k=3, c=c)


def filiform4():
    """k = 4 with [x0, x1] = x2 and [x0, x2] = x3 (3-step nilpotent)."""
    c = np.zeros((4, 4, 4))
    c[2, 0, 1], c[2, 1, 0] = 1.0, -1.0
    c[3, 0, 2], c[3, 2, 0] = 1.0, -1.0
    return LieAlgebra(k=4, c=c)


def random_spd(rng, k):
    M = rng.normal(size=(k, k))
    return M @ M.T + k * np.eye(k)


def _check_spd(G, k):
    G = np.asarray(G, dtype=float)
    if G.shape != (k, k):
        raise ValueError(f"fiber metric must be {k}x{k}, got {G.shape}")
    if np.max(np.abs(G - G.T)) > 1e-12 * max(1.0, np.max(np.abs(G))):
        raise ValueError("fiber metric must be symmetric")
    if k and np.min(np.linalg.eigvalsh(G)) <= 0:
        raise ValueError("fiber metric must be positive definite")
    return G


def ad_traces(alg, G):
    """The two trace tensors that vanish for nilpotent algebras.

    Returns (t1, t2) with t1[l] = tr_G G([x_l, .], .) and
    t2[a, b] = tr_G G([x_a, [x_b, .]], .).  Both are identically zero (up to
    round-off) whenever the algebra is nilpotent, for any SPD G.
    """
    G = _check_spd(G, alg.k)
    Gi = np.linalg.inv(G) if alg.k else G
    b = alg.beta
    t1 = np.einsum("ij,mj,mli->l", Gi, G, b)
    t2 = np.einsum("ij,mj,man,nbi->ab", Gi, G, b, b)
    return t1, t2


def test_heisenberg_valid():
    assert validate_algebra(heisenberg3()) == ()


def test_abelian_valid_and_flagged():
    assert not validate_algebra(abelian(3))


def test_filiform_valid():
    assert not validate_algebra(filiform4())


def test_antisymmetry_defect_detected():
    c = np.zeros((2, 2, 2))
    c[0, 0, 1] = 1.0  # no matching -1 in the swapped slot
    # the one-sided bracket fails the Jacobi sum as well
    assert validate_algebra(LieAlgebra(k=2, c=c)) == ("antisymmetry", "jacobi")


def test_jacobi_defect_detected():
    # antisymmetric in (i, j), but [x0, [x1, x2]] + [x1, [x2, x0]]
    # + [x2, [x0, x1]] = -x0 from [x0, x1] = x1 and [x1, x2] = x0
    c = np.zeros((3, 3, 3))
    c[1, 0, 1], c[1, 1, 0] = 1.0, -1.0
    c[0, 1, 2], c[0, 2, 1] = 1.0, -1.0
    assert validate_algebra(LieAlgebra(k=3, c=c)) == ("jacobi", "nilpotency")
    with pytest.raises(AlgebraValidationError,
                       match="^structure constants fail: jacobi, nilpotency$"):
        require_valid(LieAlgebra(k=3, c=c))


def test_so3_rejected_for_nilpotency():
    assert validate_algebra(so3()) == ("nilpotency",)


def test_bad_shape_rejected():
    with pytest.raises(AlgebraValidationError):
        LieAlgebra(k=3, c=np.zeros((2, 2, 2)))
    # the fiber is never empty
    with pytest.raises(AlgebraValidationError, match=">= 1"):
        LieAlgebra(k=0, c=np.zeros((0, 0, 0)))


def test_ad_traces_vanish_for_nilpotent():
    rng = np.random.default_rng(7)
    for alg in (heisenberg3(), abelian(3), filiform4()):
        for _ in range(50):
            G = random_spd(rng, alg.k)
            t1, t2 = ad_traces(alg, G)
            assert np.max(np.abs(t1)) < 1e-12
            assert np.max(np.abs(t2)) < 1e-12


def test_ad_traces_nonzero_for_non_nilpotent():
    # the solvable 2-d algebra [x0, x1] = x1 has tr ad_{x0} = 1
    c = np.zeros((2, 2, 2))
    c[1, 0, 1], c[1, 1, 0] = 1.0, -1.0
    t1, _ = ad_traces(LieAlgebra(k=2, c=c), np.eye(2))
    assert np.max(np.abs(t1)) > 0.5


def bracket_norm_sq(alg, G):
    """|[,]|^2 of the algebra in the constant fiber metric G."""
    st = constant_state(alg, N=8, G0=G)
    return float(norm_sq_bracket(st, derive(st)).flat[0])


def test_bracket_norm_abelian_zero():
    assert bracket_norm_sq(abelian(4), np.eye(4)) == 0.0


def test_bracket_norm_heisenberg_identity():
    assert bracket_norm_sq(heisenberg3(), np.eye(3)) == pytest.approx(2.0, abs=1e-14)


def test_bracket_norm_scaling():
    # G -> s G multiplies the full contraction by 1/s
    rng = np.random.default_rng(3)
    G = random_spd(rng, 3)
    base = bracket_norm_sq(heisenberg3(), G)
    assert bracket_norm_sq(heisenberg3(), 2.0 * G) == pytest.approx(base / 2.0)


def test_algebra_from_spec():
    assert algebra_from_spec("heisenberg3").k == 3
    assert algebra_from_spec("abelian:5").k == 5
    alg = algebra_from_spec({"k": 3, "c": heisenberg3().c.tolist()})
    assert np.array_equal(alg.c, heisenberg3().c)
    for bad in ("simple:su2", "abelian:x", "abelian:2 ", {"k": 2},
                {"k": 2, "c": [1, 2]}, {"k": "2", "c": [0] * 8},
                {"k": 1, "c": [float("inf")]}, {"k": 1, "c": "x"},
                {"k": 1, "c": [[0], [0, 1]]}, ["heisenberg3"], 3,
                "abelian:0", {"k": 0, "c": []}, {"k": -1, "c": []}):
        with pytest.raises(AlgebraValidationError):
            algebra_from_spec(bad)


def test_algebra_from_spec_checks_the_fiber_dimension_first():
    assert algebra_from_spec("abelian:003", 3).k == 3
    assert algebra_from_spec({"k": 3, "c": [0] * 27}, 3).k == 3
    # refused before the k^3 constants are built, for a digit string of any
    # length
    for bad in ("abelian:99999", "abelian:" + "9" * 5000, "heisenberg3",
                {"k": 99999, "c": []}):
        with pytest.raises(AlgebraValidationError, match="fiber dimension"):
            algebra_from_spec(bad, 2)


def test_beta_is_minus_c():
    alg = heisenberg3()
    assert np.array_equal(alg.beta, -alg.c)
