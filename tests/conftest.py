"""Shared builders for test states."""

import numpy as np

from grflab import algebra, cli, presets
from grflab.fields import Mesh


def constant_state(alg, N=16, d=1, lengths=None, G0=None, g0=None):
    return presets.constant_state(alg, Mesh((N,) * d, lengths or (1.0,) * d), G0, g0)


def heisenberg_state(N=16, **kw):
    return constant_state(algebra.heisenberg3(), N=N, **kw)


def flat_abelian_state(N=16, k=2, d=1, **kw):
    return constant_state(algebra.abelian(k), N=N, d=d, **kw)


def curvature_gaps(N, d, seed, amp=0.12):
    """Each curvature quantity's gap to the oracle on a torsion-free state."""
    st = cli.random_state(np.random.default_rng(seed), algebra.heisenberg3(), N, d,
                          amp=amp, with_H=False, max_freq=1)
    return {name: cli.relative_gap(p) for name, p in cli.curvature_pairs(st).items()}


ALGEBRAS = {"heisenberg3": algebra.heisenberg3, "abelian3": lambda: algebra.abelian(3),
            "abelian2": lambda: algebra.abelian(2)}

# (seed, base dimension, algebra, keyword arguments of cli.random_state): seeds
# 0-9 on both bases, with the default arguments and the curvature suite's
GENERATOR_CASES = [
    (seed, d, alg, opts)
    for seed in range(10) for d in (1, 2) for alg in ALGEBRAS
    for opts in ({}, {"amp": 0.08, "with_H": False, "max_freq": 1})]


def generated_state(seed, d, alg, opts):
    """cli.random_state on 8 points per axis for a GENERATOR_CASES entry."""
    return cli.random_state(np.random.default_rng(seed), ALGEBRAS[alg](), 8, d,
                            **opts)
