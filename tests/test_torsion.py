"""The torsion 3-form array, the algebroid differential, and the codifferential."""

import numpy as np

from conftest import (GENERATOR_CASES, flat_abelian_state, generated_state,
                      heisenberg_state)
from grflab import algebra, flow, functionals, presets, torsion
from grflab.cli import (codifferential_gap, random_direction, random_state,
                        random_waves)
from grflab.conjugate import background
from grflab.geometry import derive, pair_trace, raise_last_two


def random_full_state(seed=0, N=16, d=1):
    rng = np.random.default_rng(seed)
    return random_state(rng, algebra.heisenberg3(), N, d)


def _exactly_antisymmetric(H):
    """Every entry, the fiber block included, is the exact negative of its
    image under each of the three slot swaps."""
    return all(np.array_equal(H, -np.swapaxes(H, *axes))
               for axes in ((-3, -2), (-2, -1), (-3, -1)))


# (seed, base dimension, gauge mode): fixed, so every commit tests the same
# states
PACK_CASES = [
    (0, 1, "ungauged"), (1, 2, "ungauged"), (2, 1, "canonical"),
    (3, 2, "canonical"), (7, 1, "ungauged"), (11, 2, "ungauged"),
    (42, 1, "canonical"), (101, 2, "canonical"), (255, 1, "ungauged"),
    (1000, 2, "ungauged"), (4096, 1, "canonical"), (31337, 2, "canonical"),
    (65535, 1, "ungauged"), (271828, 2, "ungauged"),
    (314159, 1, "canonical"), (999983, 2, "canonical"),
    (8675309, 1, "ungauged"), (123456789, 2, "ungauged"),
    (2**31 - 1, 1, "canonical"), (2**32 - 1, 2, "canonical"),
]


def test_torsion_of_new_states_is_its_own_pack():
    # states built from packed states by linear combination stay packed
    new_states = [(name, presets.build(name, 8)) for name in presets.PRESETS]
    new_states += [(case, generated_state(*case)) for case in GENERATOR_CASES]
    for label, st in new_states:
        assert _exactly_antisymmetric(st.H), label
        assert np.array_equal(st.H, torsion.pack_full(st.H, st.k)), label
    for case in PACK_CASES:
        seed, d, mode = case
        rng = np.random.default_rng(seed)
        state = random_state(rng, algebra.heisenberg3(), 8, d)
        k, K = state.k, state.k + d
        states = [state]
        for _ in range(3):
            states.append(flow.rk4_step(states[-1], 1e-3, mode))
        hist = flow.FlowHistory()
        for st in states:
            hist.append(st, background(st, derive(st)), st.validate())
        mid = hist.state_at(0.5 * (hist.times[1] + hist.times[2]))
        B = rng.normal(size=state.mesh.shape + (K, K)) * 0.1
        direction = functionals.VariationDirection(
            np.zeros_like(state.G), np.zeros_like(state.g),
            rng.normal(size=state.A.shape) * 0.1, B - np.swapaxes(B, -1, -2),
            np.zeros(state.mesh.shape))
        perturbed = functionals.perturbed_state(state, derive(state),
                                                direction, 1e-2)
        for H in (state.H, *(s.H for s in hist.states[1:]), mid.H, perturbed.H):
            assert np.array_equal(H, torsion.pack_full(H, k)), case
            assert _exactly_antisymmetric(H), case


def test_pack_full_antisymmetric():
    st = random_full_state(d=2)
    full = torsion.pack_full(st.H, st.k)
    assert _exactly_antisymmetric(full)
    # the identity on an exactly antisymmetric array
    assert np.array_equal(torsion.pack_full(full, st.k), full)


def test_variation_direction_2form_is_its_own_pack():
    # the 2-form twin of the test above: the directions the variation suite
    # draws on a circle (seeds 0-9), and directions over a 2-torus
    for seed in range(10):
        rng = np.random.default_rng(seed + 100)
        circle = random_state(rng, algebra.heisenberg3(), 8, 1)
        random_waves(rng, circle.mesh, 1, 0.12, 2)  # the suite's potential
        torus = random_state(rng, algebra.abelian(3), 8, 2)
        for st in (circle,) * 5 + (torus,) * 2:
            B = random_direction(rng, st).B
            assert B.shape[-1] == st.k + st.d
            assert np.array_equal(B, -np.swapaxes(B, -1, -2)), seed
            assert np.array_equal(torsion.pack_full(B, st.k, 2), B), seed


def test_inverse_frame_metric():
    st = random_full_state(d=2)
    der = derive(st)
    k = st.k
    gEi = torsion.inverse_frame_metric(der)
    assert gEi.shape == st.mesh.shape + (k + 2, k + 2)
    assert np.max(np.abs(gEi[..., :k, k:])) == 0.0
    assert np.max(np.abs(gEi[..., k:, :k])) == 0.0
    assert np.allclose(gEi[..., :k, :k] @ st.G, np.eye(k))
    assert np.allclose(gEi[..., k:, k:] @ st.g, np.eye(2))


def test_h_contractions_zero_torsion():
    st = heisenberg_state()
    der = derive(st)
    calH, Hsq = torsion.h_contractions(st, der)
    assert der.H_zero
    assert calH.shape == st.H.shape[:-1] and Hsq.shape == st.mesh.shape
    assert np.max(np.abs(calH)) == 0.0
    assert np.max(np.abs(Hsq)) == 0.0
    # the shortcut's premise: the general contraction is exactly zero there
    gEi = torsion.inverse_frame_metric(der)
    assert not pair_trace(st.H, raise_last_two(st.H, gEi), 2).any()


def test_h_contractions_kept_per_derived_geometry():
    st = random_full_state(seed=50, d=2)
    der = derive(st)
    calH, Hsq = torsion.h_contractions(st, der)
    again = torsion.h_contractions(st, der)
    assert again[0] is calH and again[1] is Hsq
    assert der.H_zero is False  # H scanned once, by derive
    assert np.max(np.abs(calH)) > 0.1
    fresh = derive(st)
    full = st.H
    gEi = torsion.inverse_frame_metric(fresh)
    expected = np.einsum("...acd,...bef,...ce,...df->...ab", full, full, gEi, gEi)
    assert np.max(np.abs(calH - expected)) <= 1e-12 * np.max(np.abs(expected))
    assert np.array_equal(calH, torsion.h_contractions(st, fresh)[0])
    assert np.array_equal(Hsq, torsion.h_contractions(st, fresh)[1])


def test_dstar_constant_data_abelian():
    # every codifferential term carries a derivative, a DG, an F, or a bracket
    st = presets.build("inoue-like", 16)
    der = derive(st)
    assert np.max(np.abs(torsion.b_dot(st, der))) < 1e-13


def test_dstar_matches_oracle():
    for d, seed in ((1, 3), (2, 4)):
        st = random_full_state(seed=seed, N=24, d=d)
        assert codifferential_gap(st, derive(st)) < 1e-10


def test_algebroid_d_constant_scalar():
    st = random_full_state(d=2)
    Cp = torsion.bracket_pairs(st, derive(st).F)
    sigma = np.full(st.mesh.shape, 2.0)
    out = torsion.algebroid_d(sigma, 0, Cp, st.mesh, st.k)
    assert np.max(np.abs(out)) < 1e-13


def dd_residuals(st):
    """max |d(d sigma)| for a smooth form sigma of each degree 0, 1, 2; the
    degree-2 form runs the degree-3 differential."""
    Cp = torsion.bracket_pairs(st, derive(st).F)
    x = st.mesh.coords()[0]
    wave = np.sin(2 * np.pi * x / st.mesh.lengths[0])
    ramp = 1.0 + np.arange(st.k + st.d)
    forms = (wave, wave[..., None] * ramp,
             wave[..., None, None] * np.subtract.outer(ramp, ramp))
    return [float(np.max(np.abs(torsion.algebroid_d(
        torsion.algebroid_d(sigma, p, Cp, st.mesh, st.k), p + 1, Cp, st.mesh,
        st.k)))) for p, sigma in enumerate(forms)]


def test_algebroid_d_squares_to_zero():
    # exact in the continuum; discretely limited by the product rule
    # failing at stencil order
    for d in (1, 2):
        assert max(dd_residuals(random_full_state(seed=9 + d, N=24, d=d))) < 5e-3

    def residuals(N, d):
        return dd_residuals(random_state(np.random.default_rng(5),
                                         algebra.heisenberg3(), N, d,
                                         with_H=False))

    # on a 1-D base, and for functions, the discrete d commutes with itself
    # up to round-off
    for N in (32, 64):
        assert max(residuals(N, 1)) < 1e-12
    coarse, fine = residuals(16, 2), residuals(32, 2)
    assert max(coarse[0], fine[0]) < 1e-12
    # on a 2-D base d∘d of a 1- or 2-form is a 4th-order stencil error
    for p in (1, 2):
        assert coarse[p] >= 12.0 * fine[p], (p, coarse[p], fine[p])


def test_closedness_residual_presets():
    st = presets.build("inoue-like", 16)
    assert torsion.closedness_residual(st, derive(st)) < 1e-13
    # an x-dependent pure-fiber component is no longer closed
    (x,) = st.mesh.coords()
    st.H = st.H * (1.0 + 0.5 * np.sin(2 * np.pi * x))[..., None, None, None]
    assert torsion.closedness_residual(st, derive(st)) > 1e-2


def test_splitting_identity_random():
    for d in (1, 2):
        st = random_full_state(seed=20 + d, N=16, d=d)
        der = derive(st)
        assert torsion.splitting_identity(st, der) < 1e-12


def test_splitting_blocks_nonnegative():
    st = random_full_state(seed=30)
    der = derive(st)
    tf, tm, tb = torsion.splitting_contractions(st, der)
    assert np.min(tf) >= -1e-14
    assert np.min(tm) >= -1e-14
    assert np.min(tb) >= -1e-14


def canonical_source(st, der):
    # the torsion source of the canonical gauge; only B is read, so L_q g is 0
    v = flow.along_lift(flow.ungauged_rates(st, der), der.q, 0.0, st, der)
    return v.B


def test_b_dot_zero_torsion():
    st = heisenberg_state()
    der = derive(st)
    B = torsion.b_dot(st, der)
    assert B.shape == st.H.shape[:-1] and np.max(np.abs(B)) == 0.0
    assert np.max(np.abs(canonical_source(st, der))) == 0.0
    # the shortcut's premise: the general codifferential is exactly zero there
    assert not torsion.minus_dstar_terms(st, der).any()


def test_torsion_rate_on_zero_torsion_is_dB():
    # a direction can carry a nonzero B on a torsion-free state; the rate is
    # then dB alone, the moving-frame correction vanishing with H
    for d in (1, 2):
        rng = np.random.default_rng(60 + d)
        st = random_state(rng, algebra.heisenberg3(), 12, d, with_H=False)
        der = derive(st)
        v = random_direction(rng, st)
        assert v.B.any()
        rate = torsion.torsion_rate(st, der, v.B, v.dA)
        dB = torsion.algebroid_d(v.B, 2, torsion.bracket_pairs(st, der.F),
                                 st.mesh, st.k)
        assert rate.any() and np.array_equal(rate, dB), d


def test_b_dot_canonical_flat_abelian():
    st = flat_abelian_state()
    der = derive(st)
    assert np.max(np.abs(canonical_source(st, der))) == 0.0


def test_interior_product():
    st = random_full_state(seed=40)
    full = st.H
    vec = np.ones(st.mesh.shape + (1,))
    iv = torsion.interior_product(vec, full, st.k)
    assert np.allclose(iv, full[..., st.k, :, :])


def test_moving_frame_correction_zero_rate():
    # a splitting at rest adds no correction to a vanishing source
    st = random_full_state(seed=41)
    B = np.zeros(st.mesh.shape + (st.k + st.d,) * 2)
    Adot = np.zeros(st.mesh.shape + (1, st.k))
    rate = torsion.torsion_rate(st, derive(st), B, Adot)
    assert np.max(np.abs(rate)) == 0.0
