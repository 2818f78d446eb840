"""Command line interface: scenario runs, randomized verification, reports.

Subcommands:

    grflab run <config.json>     forward flow + backward density solve +
                                 functional report CSV + detection flags
    grflab verify --seed S --mesh N [--suite ...]
                                 seeded randomized cross-checks of the core
                                 operator implementations
    grflab report <run-dir>      human-readable summary of a stored run

A report row reads the time, state, kept derivation, eigenvalues and backward
density of a run at one stored index of its forward flow.

Exit codes: 0 clean; 1 configuration error, a start whose torsion is not
closed, blow-up, solver abort or a run that stopped short of t_end; 2
energy-identity gap beyond tolerance, or a report with no interior row, so
the energy identity was never evaluated.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import re
import sys
from dataclasses import dataclass

import numpy as np

from . import algebra, conjugate, flow, functionals, geometry, oracle, presets, torsion
from .algebra import LieAlgebra
from .fields import DomainError, GridError, Mesh
from .geometry import GeometryState, derive


# --- configuration -----------------------------------------------------------

@dataclass(kw_only=True)
class ScenarioConfig(flow.IntegratorConfig):
    """One scenario run: the integrator settings plus what the pipeline
    around the flow needs."""

    preset: str
    mesh_n: int | None = None
    algebra: object = None
    report_stride: int = 50
    identity_rel_tol: float = 0.01
    output_dir: str = "run-out"

    def build_state(self) -> GeometryState:
        return presets.build(self.preset, self.mesh_n, self.algebra)


class ConfigError(ValueError):
    pass


def _too_large(exc: Exception) -> bool:
    """Whether numpy refused an array for its size: a MemoryError, or its
    ValueError about the size of an array or an iterator."""
    return isinstance(exc, MemoryError) or (
        isinstance(exc, ValueError)
        and re.search(r"too (big|large)|Maximum allowed", str(exc)) is not None)


def _positive_number(value) -> bool:
    """A finite positive JSON number; JSON booleans do not count."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and 0 < value <= sys.float_info.max)


def _positive_integer(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value > 0


def _one_of(*choices):
    return (lambda value: isinstance(value, str) and value in choices,
            f"one of {', '.join(choices)}")


_NUMBER = (_positive_number, "a finite positive number")
_INTEGER = (_positive_integer, "a positive integer")

# key -> (check of a non-null value, what the error message says it must be)
CONFIG_KEYS = {
    "preset": _one_of(*presets.PRESETS),
    "mesh_n": _INTEGER,
    "algebra": (lambda value: isinstance(value, (str, dict)),
                "an algebra name or an object with keys k and c"),
    "mode": _one_of(*conjugate.GAUGES),
    "t_end": _NUMBER,
    "cfl_sigma": _NUMBER,
    "fixed_dt": _NUMBER,
    "max_steps": _INTEGER,
    "report_stride": _INTEGER,
    "identity_rel_tol": _NUMBER,
    "output_dir": (lambda value: isinstance(value, str) and value != "",
                   "a non-empty string"),
}


def load_config(path: str) -> ScenarioConfig:
    """Parse and validate a scenario file, reporting all problems at once.
    A null value takes the key's default; preset has none.  The run, not
    the loader, checks that the initial torsion is closed."""
    with open(path, encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except ValueError as exc:  # not UTF-8, or not JSON
            raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be an object")
    problems = []
    for key, value in list(raw.items()):
        if key not in CONFIG_KEYS:
            # escaped, so a key holding a newline keeps the message on one line
            problems.append(f"/{repr(key)[1:-1]}: unknown key")
        elif value is None:
            del raw[key]
        elif not CONFIG_KEYS[key][0](value):
            problems.append(
                f"/{key}: must be {CONFIG_KEYS[key][1]}, got {value!r}")
    if "preset" not in raw:
        problems.append("/preset: required")
    if problems:
        raise ConfigError(f"{path}: " + "; ".join(problems))
    cfg = ScenarioConfig(**raw)
    try:
        state = cfg.build_state()
        algebra.require_valid(state.alg)
        state.validate()
    except GridError as exc:
        raise ConfigError(f"{path}: invalid mesh: {exc}") from exc
    except algebra.AlgebraValidationError as exc:
        raise ConfigError(f"{path}: /algebra: {exc}") from exc
    except DomainError as exc:
        raise ConfigError(f"{path}: initial state invalid: {exc}") from exc
    except (MemoryError, ValueError) as exc:
        if not _too_large(exc):
            raise
        raise ConfigError(f"{path}: /mesh_n: a mesh of {cfg.mesh_n} points "
                          f"per axis is too large to allocate") from exc
    return cfg


# --- pipeline ----------------------------------------------------------------

CSV_COLUMNS = ["t", "F", "W", "R1", "R2", "R3", "R4", "W_extra",
               "dF_dt_fd", "identity_gap_F", "identity_gap_W",
               "min_eig_G", "min_eig_g", "mass_u"]


def report_row(hist: flow.FlowHistory, i: int,
               density: conjugate.ConjugateState) -> dict:
    """The functional evaluations of the report row at stored index i of
    the forward flow hist: its time, state, kept derivation and validate()
    eigenvalues, all read from hist at i, and the backward density there.
    Beside the CSV columns the row holds the right-hand sides of the two
    identities, sum_R of dF/dt and sum_RW of dW/dt, and the closedness
    residual dH_inf of the state; W, W_extra and sum_RW are nan at t = 0,
    and dF_dt_fd and the identity gaps are nan until build_report fills
    them on an interior row."""
    t, st, der = hist.times[i], hist.states[i], hist.derived[i]
    f = conjugate.potential(density.u)
    Fval = functionals.eval_F(st, f, der)
    rt = functionals.residual_tensors(st, f, der)
    R = functionals.residuals_F(st, f, der, rt)
    W, RW = np.nan, (np.nan,) * 5
    if t > 0:
        W = functionals.eval_Wplus(st, f, t, Fval)
        RW = functionals.residuals_W(st, f, t, der, rt)
    return {
        "t": t, "F": Fval, "W": W,
        "R1": R[0], "R2": R[1], "R3": R[2], "R4": R[3], "W_extra": RW[4],
        "dF_dt_fd": np.nan, "identity_gap_F": np.nan, "identity_gap_W": np.nan,
        "min_eig_G": hist.min_eigs[i][0], "min_eig_g": hist.min_eigs[i][1],
        "mass_u": density.mass,
        "sum_R": R[0] + R[1] + R[2] + R[3], "sum_RW": sum(RW),
        "dH_inf": torsion.closedness_residual(st, der),
    }


def build_report(hist: flow.FlowHistory,
                 densities: list[conjugate.ConjugateState]) -> list[dict]:
    """The report of a forward flow hist and its backward densities, one per
    stored index: a report_row for each stored state whose derivation the
    flow kept, in increasing t.  Each interior row gains the centred
    differences of F and W and the identity gaps, which stay nan wherever a
    W they read is nan."""
    rows = [report_row(hist, i, densities[i]) for i in hist.derived]
    for prev, row, nxt in zip(rows, rows[1:], rows[2:]):
        dt = nxt["t"] - prev["t"]
        row["dF_dt_fd"] = (nxt["F"] - prev["F"]) / dt
        row["identity_gap_F"] = abs(row["dF_dt_fd"] - row["sum_R"])
        row["identity_gap_W"] = abs((nxt["W"] - prev["W"]) / dt - row["sum_RW"])
    return rows


def _identity_verdict(rows: list[dict], rel_tol: float) -> dict:
    """Worst relative identity gaps and the run status.  A gap no row
    evaluated is None; without an interior row the F identity is never
    evaluated and the run is not clean."""
    worst_F = max((row["identity_gap_F"]
                   / max(abs(row["dF_dt_fd"]), abs(row["sum_R"]), 1e-12)
                   for row in rows if np.isfinite(row["identity_gap_F"])),
                  default=None)
    worst_W = max((row["identity_gap_W"] / max(abs(row["W"]), 1.0)
                   for row in rows if np.isfinite(row["identity_gap_W"])),
                  default=None)
    status = ("identity-unchecked" if worst_F is None
              else "clean" if worst_F <= rel_tol else "identity-failure")
    return {
        "identity_rel_gap_F": worst_F,
        "identity_rel_gap_W": worst_W,
        "identity_ok": status == "clean",
        "status": status,
    }


def resolve_output_dir(out_dir: str) -> str:
    """Relative output paths live under $GRFLAB_OUTPUT_ROOT when it is set."""
    root = os.environ.get("GRFLAB_OUTPUT_ROOT")
    if root and not os.path.isabs(out_dir):
        return os.path.join(root, out_dir)
    return out_dir


def emit_outputs(out_dir: str, rows: list[dict], manifest: dict) -> None:
    """Write report.csv, manifest.json and summary.txt into the existing,
    resolved directory out_dir."""
    with open(os.path.join(out_dir, "report.csv"), "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS,
                                extrasaction="ignore")
        writer.writeheader()
        writer.writerows(rows)
    with open(os.path.join(out_dir, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
    lines = [f"preset: {manifest['preset']}", f"status: {manifest['status']}"]
    if "abort_reason" in manifest:
        lines.append(f"abort reason: {manifest['abort_reason']}")
    if rows:
        lines += [f"final t: {rows[-1]['t']:.6g}", f"final F: {rows[-1]['F']:.8g}",
                  f"final W: {rows[-1]['W']:.8g}",
                  f"F nondecreasing: {manifest['F_nondecreasing']}"]
        for name in ("F", "W"):
            gap = manifest[f"identity_rel_gap_{name}"]
            lines.append(f"identity rel gap {name}: "
                         + ("unchecked" if gap is None else f"{gap:.3e}"))
        lines += [f"mass drift: {manifest['mass_drift']:.3e}",
                  f"steady rigidity flag: {manifest['soliton']['steady_rigidity']}"]
    with open(os.path.join(out_dir, "summary.txt"), "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _abort(out_dir: str, manifest: dict, reason: str) -> int:
    """Record an aborted run in its outputs (out_dir: the resolved output
    directory) and on stderr; exit code 1."""
    manifest["status"] = "aborted"
    manifest["abort_reason"] = reason
    emit_outputs(out_dir, [], manifest)
    print(f"aborted: {reason}", file=sys.stderr)
    return 1


def run_pipeline(cfg: ScenarioConfig) -> int:
    """Check the start, run the forward flow, walk the density backward and
    write the report to the output directory.  Raises ConfigError when that
    directory cannot be created.  A start whose torsion is not closed is
    refused before the forward stage; it and every other aborted run print
    the reason to stderr."""
    out_dir = resolve_output_dir(cfg.output_dir)
    try:
        os.makedirs(out_dir, exist_ok=True)
    except (OSError, ValueError) as exc:  # ValueError: an embedded null byte
        raise ConfigError(f"/output_dir: cannot create {out_dir!r}: "
                          f"{getattr(exc, 'strerror', None) or exc}") from exc
    state = cfg.build_state()
    manifest = {"preset": cfg.preset, "mode": cfg.mode,
                "t_end": float(cfg.t_end), "stages": [], "status": "started"}
    if state.H.any():  # a torsion-free start is closed and needs no derivation
        closed = torsion.closedness_residual(state, derive(state))
        if closed > 1e-6:
            return _abort(out_dir, manifest, "initial torsion is not closed, "
                          f"||dH||_inf = {closed:.3e}")
    hist = flow.run_flow(state, cfg, cfg.report_stride)
    manifest["stages"].append("forward")
    manifest["steps"] = len(hist.times) - 1
    if hist.abort_reason:
        return _abort(out_dir, manifest, hist.abort_reason)
    try:
        densities = conjugate.solve_backward(hist)
    except DomainError as exc:
        return _abort(out_dir, manifest, f"backward solve: {exc}")
    manifest["stages"].append("backward")
    masses = np.array([c.mass for c in densities])
    manifest["mass_drift"] = float(
        np.max(np.abs(masses - masses[-1])) / abs(masses[-1]))
    rows = build_report(hist, densities)
    manifest["stages"].append("report")
    Fs = [row["F"] for row in rows]
    manifest["F_nondecreasing"] = bool(np.all(np.diff(Fs) > -1e-8))
    manifest.update(_identity_verdict(rows, cfg.identity_rel_tol))
    manifest["soliton"] = functionals.soliton_detect(
        [rows[-1][name] for name in ("R1", "R2", "R3", "R4")])
    manifest["max_dH_inf"] = max(row["dH_inf"] for row in rows)
    emit_outputs(out_dir, rows, manifest)
    return 0 if manifest["status"] == "clean" else 2


# --- randomized verification -------------------------------------------------

def random_waves(rng: np.random.Generator, mesh: Mesh, n: int, amp: float,
                 max_freq: int) -> np.ndarray:
    """n seeded smooth random fields (..., n) on mesh, each a sum of a few
    low harmonics whose cosine and sine coefficients are drawn uniformly in
    [-amp, amp], wave after wave.

    max_freq reads differently on the two bases: a circle draws the first
    max_freq harmonics (max_freq = 0 gives a zero field), a torus the first
    max_freq + 1 of the modes (1,0), (0,1), (1,1) (so max_freq = 0 still
    draws (1,0), and every value from 2 up draws all three)."""
    if mesh.d == 1:
        freqs = [(m,) for m in range(1, max_freq + 1)]
    else:
        freqs = [(1, 0), (0, 1), (1, 1)][:max_freq + 1]
    coeffs = rng.uniform(-amp, amp, (n, len(freqs), 2))
    Xs = mesh.coords()
    out = np.zeros(mesh.shape + (n,))
    for fr, (a, b) in zip(freqs, np.moveaxis(coeffs, (1, 2), (0, 1))):
        phase = sum(2.0 * np.pi * fi * X / L
                    for fi, X, L in zip(fr, Xs, mesh.lengths))
        out += a * np.cos(phase)[..., None] + b * np.sin(phase)[..., None]
    return out


def _mirrored(values: np.ndarray, rows, cols, n: int) -> np.ndarray:
    """The symmetric (..., n, n) field with values[..., m] at (rows[m],
    cols[m]) and at its transpose."""
    out = np.zeros(values.shape[:-1] + (n, n))
    out[..., rows, cols] = values
    out[..., cols, rows] = values
    return out


def _random_metric(rng, mesh: Mesh, n: int, amp: float, max_freq: int):
    """A symmetric field near the identity: its diagonal, then its entries
    below the diagonal row by row at a third of that size."""
    w = random_waves(rng, mesh, n * (n + 1) // 2, amp, max_freq)
    rows, cols = np.tril_indices(n, -1)
    diag = np.arange(n)
    return _mirrored(np.concatenate([1.0 + w[..., :n], 0.3 * w[..., n:]], axis=-1),
                     np.concatenate([diag, rows]), np.concatenate([diag, cols]), n)


def random_state(rng: np.random.Generator, alg: LieAlgebra, N: int, d: int,
                 amp: float = 0.12,
                 with_H: bool = True, max_freq: int = 2) -> GeometryState:
    """Seeded smooth random fields on a (2 pi)^d box, a few low harmonics each."""
    mesh = Mesh((N,) * d, (2.0 * np.pi,) * d)
    k = alg.k
    G = _random_metric(rng, mesh, k, amp, max_freq)
    g = _random_metric(rng, mesh, d, amp, max_freq)
    A = random_waves(rng, mesh, d * k, amp, max_freq).reshape(mesh.shape + (d, k))
    H = np.zeros(mesh.shape + (k + d,) * 3)
    if with_H:
        alt = torsion.alternating_sum(rng.normal(size=(k, k, k)) * 0.3 / 6.0)
        w = random_waves(rng, mesh, 1 + k * (k - 1) // 2 + (k if d == 2 else 0),
                         amp, max_freq)
        # pack_full reads each block at its increasing triples and spreads
        # them over every other ordering
        H[..., :k, :k, :k] = (1.0 + w[..., 0])[..., None, None, None] * alt
        rows, cols = np.tril_indices(k, -1)  # pairs j < i, ordered by i
        H[..., cols, rows, k:] = w[..., 1:1 + rows.size, None]
        if d == 2:
            H[..., :k, k, k + 1] = w[..., 1 + rows.size:]
        H = torsion.pack_full(H, k)
    return GeometryState(0.0, mesh, alg, G, g, A, H)


def random_direction(rng: np.random.Generator, state: GeometryState,
                     amp: float = 0.12) -> functionals.VariationDirection:
    """A seeded smooth random variation of state: symmetric dG and dg filled
    row by row below and on the diagonal, dA, a 2-form B written at its
    increasing pairs column by column and spread, and the potential's rate."""
    mesh, k, d = state.mesh, state.k, state.d
    K = k + d
    sizes = (k * (k + 1) // 2, d * (d + 1) // 2, d * k, K * (K - 1) // 2, 1)
    wG, wg, wA, wB, wf = np.split(random_waves(rng, mesh, sum(sizes), amp, 2),
                                  np.cumsum(sizes)[:-1], axis=-1)
    rows, cols = np.tril_indices(K, -1)
    B = np.zeros(mesh.shape + (K, K))
    B[..., cols, rows] = wB
    return functionals.VariationDirection(
        _mirrored(wG, *np.tril_indices(k), k), _mirrored(wg, *np.tril_indices(d), d),
        wA.reshape(mesh.shape + (d, k)), torsion.pack_full(B, k, 2), wf[..., 0])


def _gap_and_scale(a, b) -> tuple[float, float]:
    """(max |a - b|, max |b|), both formed in one buffer."""
    diff = np.subtract(a, b)
    gap = float(np.max(np.abs(diff, out=diff)))
    return gap, float(np.max(np.abs(b, out=diff)))


def relative_gap(*pairs) -> float:
    """max |a - b| / max(max |b|, 1e-12), each max over every (a, b) pair."""
    gaps, scales = zip(*(_gap_and_scale(a, b) for a, b in pairs))
    return max(gaps) / max(max(scales), 1e-12)


def slot_block(T: np.ndarray, pattern: str, k: int) -> np.ndarray:
    """T at a pattern of its last frame slots: 'f' reads :k, 'b' reads k:."""
    return T[(...,) + tuple(slice(None, k) if s == "f" else slice(k, None)
                            for s in pattern)]


def curvature_pairs(state: GeometryState) -> dict:
    """(closed form, oracle) for each geometry.CurvatureBlocks name: a block
    reads the oracle's R at its slot pattern, Ric_xy its Ric at xy."""
    # oracle first: verify --suite all at mesh 128 then peaks at 218 MB of
    # resident memory, against 268 MB with the closed form first, whose
    # blocks would be held while the oracle runs
    R, Ric, scal = oracle.curvature_oracle(state)
    cb = geometry.curvature_closed_form(state, derive(state))
    pairs = {}
    for name, value in vars(cb).items():
        pattern = "" if name == "scalar" else name.removeprefix("Ric_")
        ref = {4: R, 2: Ric, 0: scal}[len(pattern)]
        pairs[name] = (value, slot_block(ref, pattern, state.k))
    return pairs


def codifferential_gap(state: GeometryState, der: geometry.DerivedGeometry) -> float:
    """relative_gap of torsion.b_dot against oracle.codifferential_oracle."""
    return relative_gap((torsion.b_dot(state, der),
                         oracle.codifferential_oracle(state)))


def _mesh_tolerance(base: float, N: int) -> float:
    """base, grown below mesh 64 as the 4th-order stencil error."""
    return base * max(1.0, (64.0 / N) ** 4)


def verify_curvature(seed: int, N: int) -> list[tuple[str, float, bool]]:
    tol = _mesh_tolerance(1e-5, N)
    rows = []
    for d in (1, 2):
        rng = np.random.default_rng(seed + d)
        st = random_state(rng, algebra.heisenberg3(), N, d, amp=0.08,
                          with_H=False, max_freq=1)
        pairs = curvature_pairs(st)
        for row in ("ffff", "fbbf", "bbbb", "Ric", "scalar"):
            # the Ric row is one gap over Ric_ff, Ric_fb and Ric_bb
            err = relative_gap(*(pair for name, pair in pairs.items()
                                 if name.split("_")[0] == row))
            rows.append((f"curvature d={d} {row}", err, err < tol))
    return rows


def verify_torsion(seed: int, N: int) -> list[tuple[str, float, bool]]:
    rows = []
    for d in (1, 2):
        rng = np.random.default_rng(seed + 10 + d)
        n = N if d == 1 else max(16, N // 2)
        st = random_state(rng, algebra.heisenberg3(), n, d)
        der = derive(st)
        err = codifferential_gap(st, der)
        rows.append((f"codifferential d={d}", err, err < 1e-5))
        err = torsion.splitting_identity(st, der)
        rows.append((f"splitting identity d={d}", err, err < 1e-10))
    return rows


def verify_variation(seed: int, N: int, count: int = 5) -> list:
    tol = _mesh_tolerance(1e-4, N)
    rows = []
    rng = np.random.default_rng(seed + 100)
    st = random_state(rng, algebra.heisenberg3(), N, 1)
    f = random_waves(rng, st.mesh, 1, 0.12, 2)[..., 0]
    der = derive(st)
    rt = functionals.residual_tensors(st, f, der)
    for trial in range(count):
        res = functionals.variation_check_F(st, f, random_direction(rng, st), der, rt)
        rows.append((f"variation trial {trial}", res["rel_gap"], res["rel_gap"] < tol))
    return rows


def run_verify(seed: int, N: int, suite: str) -> int:
    suites = {"curvature": verify_curvature, "torsion": verify_torsion,
              "variation": verify_variation}
    rows = [row for name, run in suites.items() if suite in (name, "all")
            for row in run(seed, N)]
    width = max(len(r[0]) for r in rows)
    ok = True
    for name, err, passed in rows:
        ok = ok and passed
        print(f"{name:<{width}}  {err:10.3e}  {'PASS' if passed else 'FAIL'}")
    print(f"{'overall':<{width}}  {'':10}  {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 2


def run_report(run_dir: str) -> int:
    summary = os.path.join(run_dir, "summary.txt")
    manifest = os.path.join(run_dir, "manifest.json")
    if not os.path.exists(manifest):
        print(f"no manifest found in {run_dir}", file=sys.stderr)
        return 1
    # without a summary the report prints the manifest, which must parse
    path = summary if os.path.exists(summary) else manifest
    try:
        with open(path, encoding="utf-8") as fh:
            text = (fh.read() if path == summary
                    else json.dumps(json.load(fh), indent=2) + "\n")
    except (OSError, ValueError) as exc:  # a directory, not UTF-8, not JSON
        print(f"{path}: unreadable: {exc}", file=sys.stderr)
        return 1
    sys.stdout.write(text)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="grflab")
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="execute a scenario")
    p_run.add_argument("config")
    p_ver = sub.add_parser("verify", help="randomized operator cross-checks")
    p_ver.add_argument("--seed", type=int, default=0)
    p_ver.add_argument("--mesh", type=int, default=48)
    p_ver.add_argument("--suite", default="all",
                       choices=["curvature", "torsion", "variation", "all"])
    p_rep = sub.add_parser("report", help="summarize a stored run")
    p_rep.add_argument("run_dir")
    args = parser.parse_args(argv)
    if args.command == "run":
        try:
            return run_pipeline(load_config(args.config))
        except (ConfigError, OSError) as exc:
            print(str(exc), file=sys.stderr)
            return 1
    if args.command == "verify":
        if args.seed < 0:  # the suites seed numpy generators from it
            print(f"--seed {args.seed}: must be non-negative", file=sys.stderr)
            return 1
        try:
            Mesh((args.mesh,), (1.0,))  # a mesh size the stencil can use
        except GridError as exc:
            print(f"--mesh {args.mesh}: {exc}", file=sys.stderr)
            return 1
        try:
            return run_verify(args.seed, args.mesh, args.suite)
        except (MemoryError, ValueError) as exc:
            if not _too_large(exc):
                raise
            print(f"--mesh {args.mesh}: too large to allocate", file=sys.stderr)
            return 1
    return run_report(args.run_dir)


if __name__ == "__main__":
    sys.exit(main())
