"""Spans around calls into grflab, recorded from outside the program.

A `Tracer` replaces each target function with a wrapper in every grflab
namespace that holds it: module globals bound with ``from .x import f`` as
well as the defining module and, for methods, the class.  Each wrapped call
records one span ``[name, start, end, parent, op]`` in memory; the parent is
the span of the enclosing wrapped call, and ``op`` is the identifier shared
by all spans of one benchmark operation.  Nothing inside ``src/`` changes.
"""

from __future__ import annotations

import importlib
import json
import statistics
import sys
import time

# Once-per-operation stage functions: the untraced run wraps only these (and
# counts `flow.evaluate_rhs`), so its timings carry no per-kernel overhead.
STAGES = (
    "flow.run_flow",
    "conjugate.solve_backward",
    "cli.build_report",
    "cli.verify_curvature",
    "cli.verify_torsion",
    "cli.verify_variation",
    "cli.load_config",
    "cli.emit_outputs",
)

# Kernels called many times per operation; the traced run reports calls,
# inclusive and self time and the median time per call for each.
KERNELS = (
    "flow.rk4_step",
    "flow.evaluate_rhs",
    "flow.cfl_dt",
    "geometry.GeometryState.validate",
    "geometry.derive",
    "geometry.ricci_blocks",
    "geometry.laplacian",
    "geometry.curvature_closed_form",
    "torsion.pack_full",
    "torsion.h_contractions",
    "torsion.b_dot",
    "torsion.minus_dstar_terms",
    "torsion.algebroid_d",
    "torsion.closedness_residual",
    "conjugate.conj_rhs",
    "conjugate.dilaton_potential",
    "conjugate.mass_of",
    "functionals.eval_F",
    "functionals.residuals_F",
    "functionals.eval_Wplus",
    "functionals.residuals_W",
    "functionals.variation_check_F",
    "oracle.curvature_oracle",
    "oracle.codifferential_oracle",
    "fields.deriv_array",
)

PROBE = STAGES + ("flow.evaluate_rhs",)
TRACED = STAGES + KERNELS


def _grflab_namespaces():
    return [mod for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == "grflab" or name.startswith("grflab."))]


def _resolve(target: str):
    """'geometry.GeometryState.validate' -> (GeometryState class, 'validate')."""
    parts = target.split(".")
    owner = importlib.import_module("grflab." + parts[0])
    for part in parts[1:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


class Tracer:
    def __init__(self, targets):
        self.targets = tuple(targets)
        self.spans: list[list] = []
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []
        self._originals: dict[str, tuple] = {}  # target -> (owner, function)
        self._op = -1

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        namespaces = _grflab_namespaces()
        for idx, target in enumerate(self.targets):
            try:
                owner, attr = _resolve(target)
            except (ImportError, AttributeError):
                owner, attr = None, ""
            orig = vars(owner).get(attr) if owner is not None else None
            if orig is None:
                self.missing.append(target)
                continue
            self._originals[target] = (owner, orig)
            wrapper = self._wrap(idx, orig)
            for ns in [owner] + [m for m in namespaces if m is not owner]:
                for name, value in list(vars(ns).items()):
                    if value is orig:
                        self._saved.append((ns, name, orig))
                        setattr(ns, name, wrapper)

    def uninstall(self) -> None:
        for ns, name, orig in reversed(self._saved):
            setattr(ns, name, orig)
        self._saved.clear()

    def unwrapped_bindings(self) -> list[str]:
        """Names in grflab namespaces that still hold an unwrapped target."""
        left = []
        namespaces = _grflab_namespaces()
        for target, (owner, orig) in self._originals.items():
            for ns in [owner] + namespaces:
                for name, value in vars(ns).items():
                    if value is orig:
                        left.append(f"{getattr(ns, '__name__', ns)}.{name} ({target})")
        return left

    def _wrap(self, idx: int, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            sid = len(spans)
            span = [idx, 0.0, 0.0, stack[-1] if stack else -1, self._op]
            spans.append(span)
            stack.append(sid)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", "traced")
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    # -- operations and aggregation -------------------------------------------

    def begin_op(self) -> int:
        self._op += 1
        return self._op

    def summary(self, op: int) -> dict[str, dict]:
        """Per target: calls, inclusive s, self s and per-call durations."""
        first = next((i for i, s in enumerate(self.spans) if s[4] == op),
                     len(self.spans))
        child_time: dict[int, float] = {}
        for s in self.spans[first:]:
            if s[4] == op and s[3] >= 0:
                child_time[s[3]] = child_time.get(s[3], 0.0) + (s[2] - s[1])
        out = {t: {"calls": 0, "s": 0.0, "self_s": 0.0, "durations": []}
               for t in self.targets}
        for sid in range(first, len(self.spans)):
            idx, start, end, _, span_op = self.spans[sid]
            if span_op != op:
                continue
            rec = out[self.targets[idx]]
            dur = end - start
            rec["calls"] += 1
            rec["s"] += dur
            rec["self_s"] += dur - child_time.get(sid, 0.0)
            rec["durations"].append(dur)
        return out

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op"],
                       "names": list(self.targets), "spans": self.spans}, fh)


def median_ms(durations: list[float]) -> float:
    return 1000.0 * statistics.median(durations) if durations else 0.0
