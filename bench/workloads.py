"""The benchmark's workloads: inputs made from a seed, one operation, its check.

Every workload exposes the same four steps:

    setup()      process-level set-up up to a validated initial state
                 (what ``setup_s`` times, in fresh processes)
    operation()  one user-visible operation: ``cli.run_pipeline`` or
                 ``cli.run_verify``; returns its exit code
    check(rc)    a list of problems with the operation's outputs (empty = pass)
    digest(rc)   the output values later refactors must reproduce to round-off

Why each workload exists is recorded in bench/NOTES.md.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os

import numpy as np

from grflab import algebra, cli, geometry, torsion

# Problem sizes.  "full" is what the benchmark measures; "smoke" is the
# reduced size used by `run.py --smoke` to check the benchmark itself.
SIZES = {
    "full": {"s1_mesh": 64, "s1_t_end": 0.005,
             "rand_mesh": 32, "rand_t_end": 0.0075, "rand_dt": 0.0025,
             "verify_mesh": 128},
    "smoke": {"s1_mesh": 64, "s1_t_end": 0.001,
              "rand_mesh": 16, "rand_t_end": 0.001, "rand_dt": 0.0005,
              "verify_mesh": 32},
}

MASS_DRIFT_TOL = 1e-6
F_REL_TOL = 1e-6
CLOSED_TOL = 1e-6  # the loader's closedness threshold


class Workload:
    name = ""
    stage_targets: tuple = ()
    stage_labels: tuple = ()

    def __init__(self, seed: int, size: str, work_dir: str):
        self.seed = seed
        self.size = SIZES[size]
        self.work_dir = work_dir
        self.out_dir = os.path.join(work_dir, "out")

    def prepare(self) -> None:
        """Write the generated inputs; runs once, before any set-up."""
        os.makedirs(self.work_dir, exist_ok=True)

    def setup(self):
        raise NotImplementedError

    def operation(self, ready) -> int:
        raise NotImplementedError

    def check(self, rc: int) -> list[str]:
        raise NotImplementedError

    def digest(self, rc: int) -> dict:
        raise NotImplementedError

    def counts(self) -> dict:
        """Work units of the last operation that per-unit metrics divide by."""
        return {}

    def output_bytes(self) -> int:
        if not os.path.isdir(self.out_dir):
            return 0
        return sum(os.path.getsize(os.path.join(self.out_dir, f))
                   for f in os.listdir(self.out_dir))


# --- grflab run ---------------------------------------------------------------

# Report columns that are NaN by definition of the format: W needs t > 0, and
# the centred differences need a neighbour on each side (identity_gap_W also
# needs a previous row with t > 0).
_EDGE_NAN = {
    "first": {"W", "W_extra", "dF_dt_fd", "identity_gap_F", "identity_gap_W"},
    "second": {"identity_gap_W"},
    "last": {"dF_dt_fd", "identity_gap_F", "identity_gap_W"},
}


class _RunWorkload(Workload):
    stage_targets = ("flow.run_flow", "conjugate.solve_backward",
                     "cli.build_report")
    stage_labels = ("forward_s", "backward_s", "report_s")
    t_end = 0.0

    def operation(self, cfg) -> int:
        return cli.run_pipeline(cfg)

    def _outputs(self):
        with open(os.path.join(self.out_dir, "report.csv"), newline="") as fh:
            rows = [{k: float(v) for k, v in row.items()}
                    for row in csv.DictReader(fh)]
        with open(os.path.join(self.out_dir, "manifest.json")) as fh:
            manifest = json.load(fh)
        return rows, manifest

    def check(self, rc: int) -> list[str]:
        problems = []
        if rc != 0:
            problems.append(f"run_pipeline returned {rc}")
        try:
            rows, manifest = self._outputs()
        except (OSError, ValueError) as exc:
            return problems + [f"unreadable outputs: {exc}"]
        if not rows:
            return problems + ["empty report"]
        if abs(rows[-1]["t"] - self.t_end) > 1e-12:
            problems.append(f"last report row at t={rows[-1]['t']!r}, "
                            f"not t_end={self.t_end!r}")
        drift = manifest.get("mass_drift", math.inf)
        if not drift <= MASS_DRIFT_TOL:
            problems.append(f"mass_drift {drift!r} > {MASS_DRIFT_TOL}")
        return problems + self.check_rows(rows)

    def check_rows(self, rows: list[dict]) -> list[str]:
        return []

    def counts(self) -> dict:
        try:
            rows, manifest = self._outputs()
        except (OSError, ValueError):
            return {}
        # the backward solve takes one step per stored forward interval
        return {"report_rows": len(rows), "intervals": manifest.get("steps", 0)}

    def digest(self, rc: int) -> dict:
        try:
            rows, manifest = self._outputs()
        except (OSError, ValueError):
            return {"rc": rc}
        last = rows[-1] if rows else {}
        return {"rc": rc, "F": last.get("F"), "W": last.get("W"),
                "identity_rel_gap_F": manifest.get("identity_rel_gap_F"),
                "mass_drift": manifest.get("mass_drift")}


class HeisenbergS1(_RunWorkload):
    """Preset heisenberg-s1 through the config loader; the seed is unused."""

    name = "heis-s1-1d"

    def __init__(self, seed, size, work_dir):
        super().__init__(seed, size, work_dir)
        self.t_end = self.size["s1_t_end"]
        self.config_path = os.path.join(work_dir, "config.json")

    def prepare(self) -> None:
        super().prepare()
        config = {"preset": "heisenberg-s1", "mesh_n": self.size["s1_mesh"],
                  "cfl_sigma": 0.3, "t_end": self.t_end, "report_stride": 10,
                  "output_dir": os.path.abspath(self.out_dir)}
        with open(self.config_path, "w") as fh:
            json.dump(config, fh)

    def setup(self):
        return cli.load_config(self.config_path)

    def check_rows(self, rows):
        t, F = rows[-1]["t"], rows[-1]["F"]
        exact = -1.0 / (2.0 * (1.0 + 3.0 * t))
        rel = abs(F - exact) / abs(exact)
        if not rel <= F_REL_TOL:
            return [f"final F={F!r} is {rel:.3e} from the closed form {exact!r}"]
        return []


class _GivenState(cli.ScenarioConfig):
    """A scenario whose initial state is supplied instead of built by a preset."""

    def __init__(self, state, **fields):
        super().__init__(preset="heisenberg-t2-random", **fields)
        self.state = state

    def build_state(self):
        return self.state.copy()


class HeisenbergT2Random(_RunWorkload):
    """Seeded random state on a 2-torus, stepped with a fixed dt so every seed
    does the same number of steps."""

    name = "heis-2d-random"

    def __init__(self, seed, size, work_dir):
        super().__init__(seed, size, work_dir)
        self.t_end = self.size["rand_t_end"]

    def setup(self):
        # smooth low-harmonic G, g, A with zero torsion; diagonals stay
        # >= 0.49 and off-diagonals <= 0.16, so both metrics are SPD
        state = cli.random_state(np.random.default_rng(self.seed),
                                 algebra.heisenberg3(), self.size["rand_mesh"],
                                 2, with_H=False)
        algebra.require_valid(state.alg)
        state.validate()
        closed = torsion.closedness_residual(
            state, geometry.derive(state, validated=True))
        if closed > CLOSED_TOL:
            raise ValueError(f"initial torsion is not closed: {closed:.3e}")
        return _GivenState(state, t_end=self.t_end, fixed_dt=self.size["rand_dt"],
                           report_stride=1,
                           output_dir=os.path.abspath(self.out_dir))

    def check_rows(self, rows):
        problems = []
        for j, row in enumerate(rows):
            allowed = set()
            if j == 0:
                allowed |= _EDGE_NAN["first"]
            if j == 1:
                allowed |= _EDGE_NAN["second"]
            if j == len(rows) - 1:
                allowed |= _EDGE_NAN["last"]
            bad = [k for k, v in row.items()
                   if not math.isfinite(v) and k not in allowed]
            if bad:
                problems.append(f"row {j}: non-finite {sorted(bad)}")
        return problems


# --- grflab verify ------------------------------------------------------------

class VerifyAll(Workload):
    """`grflab verify --suite all` on the benchmark seed."""

    name = "verify-all"
    stage_targets = ("cli.verify_curvature", "cli.verify_torsion",
                     "cli.verify_variation")
    stage_labels = ("curvature_s", "torsion_s", "variation_s")
    expected_rows = 19  # 10 curvature + 4 torsion + 5 variation

    def __init__(self, seed, size, work_dir):
        super().__init__(seed, size, work_dir)
        self.rows: list = []
        self.printed = ""

    def setup(self):
        return None

    def operation(self, ready) -> int:
        # The suites' (name, error, passed) rows hold the errors at full
        # precision; the printed table rounds them to 4 digits.
        self.rows = []
        originals = {name: getattr(cli, name) for name in
                     ("verify_curvature", "verify_torsion", "verify_variation")}

        def keep(fn):
            def suite(*args, **kwargs):
                rows = fn(*args, **kwargs)
                self.rows.extend(rows)
                return rows
            return suite

        buf = io.StringIO()
        try:
            for name, fn in originals.items():
                setattr(cli, name, keep(fn))
            with contextlib.redirect_stdout(buf):
                rc = cli.run_verify(self.seed, self.size["verify_mesh"], "all")
        finally:
            for name, fn in originals.items():
                setattr(cli, name, fn)
        self.printed = buf.getvalue()
        return rc

    def check(self, rc: int) -> list[str]:
        problems = []
        if rc != 0:
            problems.append(f"run_verify returned {rc}")
        lines = [ln for ln in self.printed.splitlines() if ln.strip()]
        failing = [ln for ln in lines if not ln.rstrip().endswith("PASS")]
        if failing:
            problems.append(f"rows not PASS: {failing}")
        if len(self.rows) != self.expected_rows or len(lines) != self.expected_rows + 1:
            problems.append(f"expected {self.expected_rows} rows, got "
                            f"{len(self.rows)} ({len(lines)} printed lines)")
        return problems

    def digest(self, rc: int) -> dict:
        return {"rc": rc, "errors": {name: err for name, err, _ in self.rows}}


WORKLOADS = {cls.name: cls for cls in (HeisenbergS1, HeisenbergT2Random, VerifyAll)}
