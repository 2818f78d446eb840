"""Nilpotent Lie algebra data used by the reduced flow.

Conventions: structure constants c[m, i, j] give [x_i, x_j] = c[m, i, j] x_m in
the chosen basis.  The fiberwise bracket on the adjoint bundle, expressed in the
trivialized frame, carries the opposite sign: beta = -c.  Every formula written
with the fiber bracket is evaluated with beta; the covariant derivative of fiber
tensors uses +c together with the connection form.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

RANK_TOL = 1e-10


class AlgebraValidationError(ValueError):
    """A supplied structure-constant array fails a required identity."""


@dataclass(frozen=True)
class LieAlgebra:
    """Fiber dimension k and structure constants c[m, i, j]."""

    k: int
    c: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.c, dtype=float)
        if self.k < 1:
            raise AlgebraValidationError(f"fiber dimension must be >= 1, got {self.k}")
        if c.shape != (self.k, self.k, self.k):
            raise AlgebraValidationError(
                f"structure constants must have shape {(self.k,) * 3}, got {c.shape}"
            )
        object.__setattr__(self, "c", c)

    @property
    def beta(self) -> np.ndarray:
        """Fiberwise bracket components in the trivialized frame (= -c)."""
        return -self.c


def _lower_central_series_vanishes(alg: LieAlgebra) -> bool:
    """Iterate spans of [g, g_i] until the dimension stops dropping, and
    return whether it reaches zero.

    Span dimensions are measured by matrix rank with tolerance RANK_TOL so
    that float noise in user-supplied constants does not create phantom
    directions.
    """
    k, c = alg.k, alg.c
    # g_1 = [g, g]; columns span the current term of the series.
    basis = np.eye(k)
    for _ in range(k + 1):
        # images [x_i, v] for all basis x_i and current spanning vectors v
        imgs = np.einsum("mij,jv->miv", c, basis).reshape(k, -1)
        if np.linalg.matrix_rank(imgs, tol=RANK_TOL) == 0:
            return True
        prev = basis.shape[1]
        basis = _column_span(imgs)
        if basis.shape[1] >= prev:
            return False
    return False


def _column_span(mat: np.ndarray) -> np.ndarray:
    u, s, _ = np.linalg.svd(mat, full_matrices=False)
    r = int(np.sum(s > RANK_TOL * max(1.0, s[0])))
    return u[:, :r]


def validate_algebra(alg: LieAlgebra) -> tuple[str, ...]:
    """Check antisymmetry, Jacobi, and nilpotency of the structure constants;
    returns the identities they fail, in that order, empty when none."""
    c = alg.c
    anti_defect = float(np.max(np.abs(c + np.swapaxes(c, 1, 2))))
    jac = (
        np.einsum("mij,nmk->nijk", c, c)
        + np.einsum("mjk,nmi->nijk", c, c)
        + np.einsum("mki,nmj->nijk", c, c)
    )
    jac_defect = float(np.max(np.abs(jac)))
    scale = max(1.0, float(np.max(np.abs(c))))
    holds = {"antisymmetry": anti_defect <= 1e-12 * scale,
             "jacobi": jac_defect <= 1e-10 * scale * scale,
             "nilpotency": _lower_central_series_vanishes(alg)}
    return tuple(name for name, ok in holds.items() if not ok)


def require_valid(alg: LieAlgebra) -> LieAlgebra:
    failures = validate_algebra(alg)
    if failures:
        raise AlgebraValidationError(
            f"structure constants fail: {', '.join(failures)}"
        )
    return alg


# --- presets -----------------------------------------------------------------

def abelian(k: int) -> LieAlgebra:
    return LieAlgebra(k=k, c=np.zeros((k, k, k)))


def heisenberg3() -> LieAlgebra:
    c = np.zeros((3, 3, 3))
    c[2, 0, 1] = 1.0
    c[2, 1, 0] = -1.0
    return LieAlgebra(k=3, c=c)


def algebra_from_spec(spec, k: int | None = None) -> LieAlgebra:
    """Build an algebra from a preset name or a dense constants array.

    Accepted: "abelian:<k>", "heisenberg3", or {"k": k, "c": nested list,
    row-major c[m][i][j]}.  Anything else raises AlgebraValidationError, and
    so does a spec of another fiber dimension than k, when k is given,
    before anything of its size is built.
    """
    def require_dimension(dim) -> None:
        # compared as decimal digits, which works for a digit string of any
        # length
        if k is not None and str(dim) != str(k):
            raise AlgebraValidationError(
                f"fiber dimension {dim} where {k} is required")

    if isinstance(spec, str):
        m = re.fullmatch(r"abelian:0*([0-9]+)", spec)
        if m:
            require_dimension(m.group(1))
            return abelian(int(m.group(1)))
        if spec == "heisenberg3":
            require_dimension(3)
            return heisenberg3()
        raise AlgebraValidationError(f"unknown algebra preset {spec!r}")
    if isinstance(spec, dict) and set(spec) == {"k", "c"}:
        dim = spec["k"]
        if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
            raise AlgebraValidationError(
                f"k must be a positive integer, got {dim!r}")
        require_dimension(dim)
        try:
            c = np.asarray(spec["c"], dtype=float)
        except (TypeError, ValueError) as exc:
            raise AlgebraValidationError(
                f"c must be a numeric array: {exc}") from exc
        if c.size != dim ** 3 or not np.all(np.isfinite(c)):
            raise AlgebraValidationError(
                f"c must hold {dim ** 3} finite numbers for k = {dim}")
        return LieAlgebra(k=dim, c=c.reshape(dim, dim, dim))
    raise AlgebraValidationError(
        f"expected a preset name or an object with keys k and c, got {spec!r}")
