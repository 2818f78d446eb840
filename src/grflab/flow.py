"""Time integration of the reduced flow system for (G, g, A, H).

ungauged_rates is the flow Velocity: the Ricci blocks plus the torsion
contractions give (dG, dg, dA) and the torsion source B = -d*H, and H moves by
dB.  along_lift moves a velocity along the horizontal lift of a base field:
the canonical gauge along the divergence-type vector q, removing the leading
transport of the fields, functionals.residual_tensors along q - grad f.
stored_rates turns a velocity into the rates of the stored fields.

Integration is classical RK4 with a parabolic CFL step size.  rk4 is the
one RK4 step for every time march: the forward flow here, and
FlowHistory.march, the one walk along a stored flow, which the backward
density solve in conjugate and the particle transport of the gauge check
take.  run_flow derives each state once: the derivation serves the first
stage of the state's next step and the state's stored conjugate.Background
record, which is all the walk reads.  Given a report stride, run_flow keeps
the derivations of the states a report reads, with the velocity of the
first stage of their steps, and every stored state keeps the smallest
metric eigenvalues its SPD check found.
A homogeneous state, each field equal at every grid point to its value at
the first, stays homogeneous bit for bit: its grid derivatives are exact
zeros and the rest of a step is pointwise.  So run_flow runs such a state
on the stencil's smallest grid, fields.MIN_POINTS points per axis, and its
history lives there: the walk along it and every report of it cost 8 points
per axis whatever the mesh.
The stored components of H live in the moving splitting, so their clock rate
carries a correction whenever dA/dt is nonzero; torsion.torsion_rate takes
dB and that correction at the increasing index triples and spreads the rate
once, so a new state's torsion is exactly antisymmetric.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .algebra import require_valid
from .conjugate import Background, background, check_gauge
from .fields import MIN_POINTS, DomainError, Mesh, deriv_array, derivs
from .geometry import DerivedGeometry, GeometryState, derive, ricci_blocks
from . import torsion

# flow times closer than this are one stored time (run end, lookup, transport)
TIME_TOL = 1e-14


class FlowRHS(NamedTuple):
    """Time derivatives of the stored fields, in GeometryState.fields order."""

    dG: np.ndarray
    dg: np.ndarray
    dA: np.ndarray
    dH: np.ndarray


def lie_derivative_base(q: np.ndarray, g: np.ndarray, Gamma: np.ndarray,
                        mesh: Mesh) -> np.ndarray:
    """(L_q g)_ab for an upper-index base vector field q."""
    dq = derivs(q, mesh)  # [..., a, c] = d_a q^c
    covq = dq + np.einsum("...cab,...b->...ac", Gamma, q)
    low = np.einsum("...ac,...cb->...ab", covq, g)
    return low + np.swapaxes(low, -1, -2)


def symmetric_part(T: np.ndarray) -> np.ndarray:
    """(T + T^t) / 2 over the last two slots."""
    return 0.5 * (T + np.swapaxes(T, -1, -2))


class Velocity(NamedTuple):
    """The rates of (G, g, A), dA[..., a, m] with upper fiber index m, and
    the torsion source 2-form B (lower frame indices), with H moving by dB."""

    dG: np.ndarray
    dg: np.ndarray
    dA: np.ndarray
    B: np.ndarray


def along_lift(v: Velocity, X: np.ndarray, Lg: np.ndarray,
               state: GeometryState, der: DerivedGeometry) -> Velocity:
    """v moved by the Lie derivative along the horizontal lift of an
    upper-index base field X: G by X.DG, A by the X-contracted F, the
    torsion source by i_X H (closed H moves by d i_X H) and g by Lg, the
    caller's form of L_X g."""
    return Velocity(v.dG + np.einsum("...a,...aij->...ij", X, der.DG),
                    v.dg + Lg,
                    v.dA + np.einsum("...b,...bam->...am", X, der.F),
                    v.B + torsion.interior_product(X, state.H, state.k))


def stored_rates(state: GeometryState, der: DerivedGeometry,
                 v: Velocity) -> FlowRHS:
    """The rates of the stored fields for a velocity: the stored torsion
    moves by dB corrected for the splitting rotating at rate dA."""
    return FlowRHS(v.dG, v.dg, v.dA, torsion.torsion_rate(state, der, v.B, v.dA))


def ungauged_rates(state: GeometryState, der: DerivedGeometry) -> Velocity:
    """The ungauged flow velocity, B = -d*H the torsion source (der: the
    state's derive()).  dG and dg are symmetrized: on a 2-D base the
    discrete mixed derivatives in the Ricci blocks are not.  Computed on
    the first call for a der and kept there as der.velocity, its arrays
    read-only; later calls return the same Velocity."""
    if der.velocity is not None:
        return der.velocity
    k = state.k
    Ric_ff, Ric_fb, Ric_bb = ricci_blocks(state, der)
    calH, _ = torsion.h_contractions(state, der)

    dG = symmetric_part(-2.0 * Ric_ff + 0.5 * calH[..., :k, :k])
    dg = symmetric_part(-2.0 * Ric_bb + 0.5 * calH[..., k:, k:])
    # G(dA/dt v, eta) block, converted to the connection-form rate
    mixed = -2.0 * Ric_fb + 0.5 * calH[..., :k, k:]
    dA = np.swapaxes(der.Gi @ mixed, -1, -2)
    der.velocity = Velocity(dG, dg, dA, torsion.b_dot(state, der))
    for rate in der.velocity:
        rate.flags.writeable = False
    return der.velocity


def evaluate_rhs(state: GeometryState, mode: str = "ungauged",
                 der: DerivedGeometry | None = None) -> FlowRHS:
    """Assemble the full system right-hand side in the requested gauge, one
    of conjugate.GAUGES (der: the state's derive(), formed here when not
    given)."""
    check_gauge(mode)
    if der is None:
        der = derive(state)
    v = ungauged_rates(state, der)
    if mode == "canonical":
        # differentiating q itself keeps the gauge gap ~5x smaller than the
        # DG/DDG form of L_q g that residual_tensors uses
        Lg = lie_derivative_base(der.q, state.g, der.Gamma, state.mesh)
        v = along_lift(v, der.q, Lg, state, der)
    return stored_rates(state, der, v)


# --- time stepping -----------------------------------------------------------

@dataclass(kw_only=True)
class IntegratorConfig:
    """Time-stepping settings; a fixed_dt bypasses the CFL rule."""

    t_end: float = 0.2
    cfl_sigma: float = 0.1
    max_steps: int = 200000
    mode: str = "ungauged"
    fixed_dt: float | None = None


def cfl_dt(mesh: Mesh, min_eig_g: float, sigma: float) -> float:
    """Parabolic step bound on mesh for a base metric whose smallest
    eigenvalue over the grid is min_eig_g (GeometryState.validate finds it):
    sigma * min h^2 / max eigenvalue of g^{-1}, which is
    sigma * min h^2 * min_eig_g."""
    h2 = min(h * h for h in mesh.spacings)
    return sigma * h2 * min_eig_g


def rk4(y: tuple, h: float, rate) -> tuple:
    """One classical RK4 step of size h for a tuple of arrays y.

    rate(y, c) returns the rates of y, a tuple in the same order, at the
    stage a fraction c in {0, 1/2, 1} of the way through the step.
    """
    def stage(k, c):
        return tuple(a + (c * h) * r for a, r in zip(y, k))

    k1 = rate(y, 0.0)
    k2 = rate(stage(k1, 0.5), 0.5)
    k3 = rate(stage(k2, 0.5), 0.5)
    k4 = rate(stage(k3, 1.0), 1.0)
    return tuple(a + (h / 6.0) * (r1 + 2 * r2 + 2 * r3 + r4)
                 for a, r1, r2, r3, r4 in zip(y, k1, k2, k3, k4))


def rk4_step(state: GeometryState, dt: float, mode: str,
             der: DerivedGeometry | None = None) -> GeometryState:
    """One RK4 step of the flow from state; der, the state's derive() when
    the caller holds it, serves the first stage."""
    def rate(fields, c):
        return evaluate_rhs(state.with_fields(state.t + c * dt, fields), mode,
                            der if c == 0.0 else None)

    return state.with_fields(state.t + dt, rk4(state.fields, dt, rate))


def _weighted_sum(ws: np.ndarray, nodes: list) -> list:
    """sum_i ws[i] * nodes[i][m] for each slot m of the array tuples nodes."""
    return [sum(w * f for w, f in zip(ws, node)) for node in zip(*nodes)]


@dataclass
class FlowHistory:
    """Dense in-memory record of a flow run in one gauge mode: every stored
    state, its Background record, the coefficients the walk reads, and its
    smallest metric eigenvalues (min_eig_G, min_eig_g).  `derived` maps a
    stored index to the state's derivation for the few states whose
    derivation the run kept (run_flow's report_stride).  Every stored state
    is on one mesh: the input state's, or for a homogeneous run
    fields.MIN_POINTS points per axis of the same box (run_flow)."""

    times: list = field(default_factory=list)
    states: list = field(default_factory=list)
    records: list = field(default_factory=list)
    min_eigs: list = field(default_factory=list)
    derived: dict = field(default_factory=dict)
    mode: str = "ungauged"
    abort_reason: str = ""  # why the run stopped short of t_end, if it did

    def append(self, state: GeometryState, record: Background,
               min_eigs: tuple[float, float]):
        """Store a state, its Background record and its validate(), min_eigs."""
        self.times.append(state.t)
        self.states.append(state)
        self.records.append(record)
        self.min_eigs.append(min_eigs)

    def _weights(self, t: float) -> tuple[list, np.ndarray | None]:
        """The stored indices and weights of the cubic Lagrange interpolant
        at time t, on fewer nodes when the history holds fewer than four
        snapshots; at a stored time, its one index and weights None.

        Raises ValueError for a t outside the stored span.
        """
        times = self.times
        if not times[0] - TIME_TOL <= t <= times[-1] + TIME_TOL:
            raise ValueError(f"t = {t!r} is outside the stored span "
                             f"[{times[0]!r}, {times[-1]!r}]")
        n = len(times)
        j = min(max(bisect.bisect_left(times, t), 1), n - 1)
        if abs(times[j] - t) < TIME_TOL:
            return [j], None
        if abs(times[j - 1] - t) < TIME_TOL:
            return [j - 1], None
        lo = max(0, min(j - 2, n - 4))
        idx = list(range(lo, min(lo + 4, n)))
        ws = np.ones(len(idx))
        for a, ia in enumerate(idx):
            for ib in idx:
                if ib != ia:
                    ws[a] *= (t - times[ib]) / (times[ia] - times[ib])
        return idx, ws

    def state_at(self, t: float) -> GeometryState:
        """The fields at time t by cubic Lagrange interpolation, the stored
        state itself at a stored time."""
        idx, ws = self._weights(t)
        if ws is None:
            return self.states[idx[0]]
        return self.states[idx[0]].with_fields(
            t, _weighted_sum(ws, [self.states[i].fields for i in idx]))

    def background_at(self, t: float) -> Background:
        """The Background record at time t by cubic Lagrange interpolation
        of the stored records, the stored record itself at a stored time."""
        idx, ws = self._weights(t)
        if ws is None:
            return self.records[idx[0]]
        return Background(*_weighted_sum(ws, [self.records[i] for i in idx]))

    def march(self, indices, y: tuple, rate):
        """Walk the tuple y along the stored flow: one rk4 step over each
        stored interval between consecutive indices, which may run up or
        down the history.  Yields (index, y) at the first index and after
        every step.

        rate(y, bg) gives y's rates per unit of the walk's own time, which
        runs backward on a walk down the history, on a Background record
        bg: the stored records at the interval's two ends and background_at
        its midpoint.  The walk derives nothing.
        """
        indices = iter(indices)
        i = next(indices)
        yield i, y
        for j in indices:
            t0, t1 = self.times[i], self.times[j]
            bgs = {0.0: self.records[i], 0.5: self.background_at(0.5 * (t0 + t1)),
                   1.0: self.records[j]}
            y = rk4(y, abs(t1 - t0), lambda z, c: rate(z, bgs[c]))
            i = j
            yield j, y


def run_flow(state: GeometryState, config: IntegratorConfig,
             report_stride: int | None = None) -> FlowHistory:
    """March the system to t_end, recording every state.

    Each accepted state is derived once; the derivation makes its stored
    record and serves the first stage of its next step.  With a
    report_stride, history.derived keeps the derivation of every
    report_stride-th stored state and, unless a field or metric aborts the
    run, of the last one, so the kept derivations grow with the report
    rows, not with the steps; without one it keeps none.
    Aborts (history.abort_reason) when a field stops being finite, naming
    the field and the time, when a metric leaves the SPD cone, or when
    max_steps steps end short of t_end.
    Raises ValueError for a non-positive fixed_dt or cfl_sigma, and
    DomainError for an initial state whose metrics are not SPD.

    A homogeneous initial state (GeometryState.homogeneous) is restricted
    to its first fields.MIN_POINTS points per axis over the same box, the
    smallest grid the stencil accepts, and its history lives on that grid.
    Every grid derivative of a homogeneous field is an exact +0.0 and every
    other operation of a step is pointwise, so each grid point does the same
    arithmetic on any grid: the flow keeps the state homogeneous, and each
    point of the small grid holds the bits the full mesh holds at every
    point.  The step size reads the input mesh's spacing, and the SPD check
    of a homogeneous state names grid point (0, ...) on either grid, so the
    steps, times and aborts are those of the full mesh, bit for bit; only
    sums over the grid, such as a mass, add fewer equal terms.
    """
    require_valid(state.alg)
    min_eigs = state.validate()
    if config.fixed_dt is not None and not config.fixed_dt > 0:
        raise ValueError(f"fixed_dt must be positive, got {config.fixed_dt!r}")
    if config.fixed_dt is None and not config.cfl_sigma > 0:
        raise ValueError(f"cfl_sigma must be positive, got {config.cfl_sigma!r}")
    if state.homogeneous():
        first = (slice(MIN_POINTS),) * state.d
        cur = GeometryState(state.t, Mesh((MIN_POINTS,) * state.d, state.mesh.lengths),
                            state.alg, *(f[first].copy() for f in state.fields))
    else:
        cur = state.copy()
    hist = FlowHistory(mode=config.mode)
    der = derive(cur)
    hist.append(cur, background(cur, der), min_eigs)
    steps = 0
    while cur.t < config.t_end - TIME_TOL and steps < config.max_steps:
        if report_stride and steps % report_stride == 0:
            hist.derived[steps] = der
        dt = (config.fixed_dt if config.fixed_dt
              else cfl_dt(state.mesh, min_eigs[1], config.cfl_sigma))
        dt = min(dt, config.t_end - cur.t)
        try:
            nxt = rk4_step(cur, dt, config.mode, der)
            # before validate: eigvalsh can return finite eigenvalues for a
            # matrix holding NaN, so the SPD check does not catch it
            for name, values in zip(GeometryState.FIELDS, nxt.fields):
                if not np.all(np.isfinite(values)):
                    raise DomainError(f"{name} is no longer finite")
            min_eigs = nxt.validate()
            der = derive(nxt)
        except DomainError as exc:
            hist.abort_reason = f"{exc} at t = {cur.t + dt!r}"  # the rejected state's t
            break
        cur = nxt
        steps += 1
        hist.append(cur, background(cur, der), min_eigs)
    else:  # no field or metric aborted the run
        if cur.t < config.t_end - TIME_TOL:
            hist.abort_reason = (f"stopped at t = {cur.t:.6g} short of t_end = "
                                 f"{config.t_end:.6g} after max_steps = "
                                 f"{config.max_steps} steps")
        if report_stride:
            hist.derived[steps] = der
    return hist


# --- rescaling and gauge checks ----------------------------------------------

def blowdown_rescale(state: GeometryState, s: float) -> GeometryState:
    """Parabolic rescaling: metrics and torsion scale by 1/s, the connection
    form is untouched, and the clock reads t/s."""
    if s <= 0:
        raise ValueError("rescale factor must be positive")
    return state.with_fields(state.t / s,
                             (state.G / s, state.g / s, state.A.copy(), state.H / s))


def _fourier_interp_1d(values: np.ndarray, x: np.ndarray, L: float) -> np.ndarray:
    """Trigonometric interpolation of periodic samples at arbitrary points.

    values has the grid axis first; x holds evaluation points in [0, L).
    """
    N = values.shape[0]
    coef = np.fft.rfft(values, axis=0)
    ks = 2.0 * np.pi * np.arange(coef.shape[0]) / L
    phases = np.exp(1j * np.outer(x, ks))  # (npts, nmodes)
    weights = np.ones(coef.shape[0])
    weights[1:] = 2.0
    if N % 2 == 0:
        weights[-1] = 1.0
    flat = coef.reshape(coef.shape[0], -1)
    out = (phases * weights) @ flat
    return (out.real / N).reshape((x.shape[0],) + values.shape[1:])


def transport_map_1d(hist: FlowHistory, t_end: float) -> np.ndarray:
    """Integrate particle positions along q from the run's start to t_end,
    which must be a stored time of the run.

    Only for 1-D bases.  Returns the final positions of the grid points of
    the history's mesh, fields.MIN_POINTS of them for a homogeneous run,
    giving the diffeomorphism that relates the ungauged and canonical runs.
    """
    mesh = hist.states[0].mesh
    if mesh.d != 1:
        raise ValueError("transport map implemented for 1-D bases only")
    (stored,) = np.nonzero(np.abs(np.asarray(hist.times) - t_end) < TIME_TOL)
    if not stored.size:
        raise ValueError(f"t_end = {t_end!r} is not a stored time of the run")
    L = mesh.lengths[0]
    x = np.arange(mesh.sizes[0]) * mesh.spacings[0]

    def velocity(y, bg):
        return (_fourier_interp_1d(bg.q[:, 0], y[0] % L, L),)

    for _, (x,) in hist.march(range(stored[0] + 1), (x,), velocity):
        pass
    return x % L


def pullback_state_1d(state: GeometryState, phi: np.ndarray) -> GeometryState:
    """Pull a 1-D state back along the diffeomorphism x -> phi(x).

    Fields are evaluated spectrally at phi; base slots pick up phi' factors
    (one per lower base index).
    """
    mesh = state.mesh
    L = mesh.lengths[0]
    x = np.arange(mesh.sizes[0]) * mesh.spacings[0]
    disp = np.unwrap((phi - x) * (2 * np.pi / L)) * (L / (2 * np.pi))
    dphi = 1.0 + deriv_array(disp, 0, mesh)

    def ev(arr):
        return _fourier_interp_1d(arr, phi % L, L)

    base = (np.arange(state.H.shape[-1]) >= state.k).astype(int)
    n_base = base[:, None, None] + base[:, None] + base
    return state.with_fields(state.t, (
        ev(state.G), ev(state.g) * (dphi ** 2)[:, None, None],
        ev(state.A) * dphi[:, None, None],
        ev(state.H) * dphi[:, None, None, None] ** n_base))


def gauge_equivalence_report(hist_ungauged: FlowHistory,
                             hist_canonical: FlowHistory,
                             t: float) -> dict:
    """Max-norm gaps between the canonical run and the transported ungauged run.

    The ungauged final state is pulled back along the particle map of its own
    divergence vector and compared with the canonical state at the same time.
    The connection form is compared through its circle integrals only: the two
    gauges also differ by a fiber gauge transformation, which shifts A by an
    exact form without touching its holonomy.
    """
    fu = hist_ungauged.state_at(t)
    fc = hist_canonical.state_at(t)
    phi = transport_map_1d(hist_ungauged, t)
    pulled = pullback_state_1d(fu, phi)
    h = fu.mesh.spacings[0]
    gaps = {
        "G": float(np.max(np.abs(pulled.G - fc.G))),
        "g": float(np.max(np.abs(pulled.g - fc.g))),
        "A_holonomy": float(np.max(np.abs(np.sum(pulled.A - fc.A, axis=0) * h))),
        "H": float(np.max(np.abs(pulled.H - fc.H))),
    }
    return gaps
