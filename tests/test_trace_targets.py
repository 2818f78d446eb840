"""The benchmark's trace targets name functions that exist in grflab."""

import importlib.util
from pathlib import Path

from grflab import cli

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_resolves():
    # a renamed or moved function would silently drop out of the trace
    spans = load_spans()
    missing = []
    for target in spans.TRACED:
        try:
            owner, attr = spans._resolve(target)
        except (ImportError, AttributeError):
            missing.append(target)
            continue
        if not callable(vars(owner).get(attr)):
            missing.append(target)
    assert spans.TRACED and not missing, missing


def traced_run(preset, mesh_n, out_dir):
    """The Tracer and operation of a traced, clean 3-step, stride-1 run."""
    spans = load_spans()
    tracer = spans.Tracer(spans.TRACED)
    tracer.install()
    try:
        op = tracer.begin_op()
        rc = cli.run_pipeline(cli.ScenarioConfig(
            preset=preset, mesh_n=mesh_n, t_end=3e-3, fixed_dt=1e-3,
            report_stride=1, output_dir=str(out_dir)))
        unwrapped = tracer.unwrapped_bindings()
    finally:
        tracer.uninstall()
    assert rc == 0
    assert not tracer.missing and not unwrapped, (tracer.missing, unwrapped)
    return tracer, op


def traced_calls(preset, mesh_n, out_dir):
    """Calls per traced name of a traced, clean 3-step, stride-1 run."""
    tracer, op = traced_run(preset, mesh_n, out_dir)
    return {name: rec["calls"] for name, rec in tracer.summary(op).items()}


def assert_run_counts(calls):
    for name in ("flow.evaluate_rhs", "geometry.derive", "conjugate.conj_rhs",
                 "conjugate.dilaton_potential", "conjugate.mass_of",
                 "functionals.eval_F"):
        assert calls[name] > 0, name
    assert calls["flow.rk4_step"] == 3
    assert calls["flow.evaluate_rhs"] == 4 * calls["flow.rk4_step"]
    # one dilaton potential per stored state, into its background record
    assert calls["conjugate.dilaton_potential"] == 4
    # 4 derivations a step and one of the last state; the report rows read
    # the kept derivations and each step's first-stage Ricci blocks, so only
    # the last state's row forms its own
    assert calls["geometry.derive"] == 4 * 3 + 1
    assert calls["geometry.ricci_blocks"] == 4 * 3 + 1
    # one closedness check per report row
    assert calls["torsion.closedness_residual"] == 4


def test_a_traced_pipeline_reaches_every_run_layer(tmp_path):
    # a refactor that routes a run around a traced name would make that
    # name's per-layer metric read 0 without failing anything else; this
    # homogeneous run steps on the 8-point grid
    assert_run_counts(traced_calls("heisenberg-s1", 16, tmp_path / "out"))


def test_an_inhomogeneous_traced_pipeline_makes_the_same_calls(tmp_path):
    # torus-bundle-t2 steps on its own mesh; the counts are those of the
    # homogeneous run above
    assert_run_counts(traced_calls("torus-bundle-t2", 8, tmp_path / "out"))


# the stage span that each of these layers' time is charged to
_STAGE_OF = {
    "flow.rk4_step": "flow.run_flow",
    "conjugate.conj_rhs": "conjugate.solve_backward",
    "functionals.eval_F": "cli.build_report",
    "functionals.residuals_F": "cli.build_report",
    "functionals.eval_Wplus": "cli.build_report",
    "functionals.residuals_W": "cli.build_report",
}


def test_each_run_layer_runs_under_its_own_stage(tmp_path):
    # the benchmark's forward_s, backward_s and report_s time the three
    # stage spans, so a layer that runs under another stage's span is
    # timed in that stage
    tracer, _ = traced_run("heisenberg-s1", 16, tmp_path / "out")
    names = tracer.targets
    stages = set(_STAGE_OF.values())
    seen = set()
    for span in tracer.spans:
        name = names[span[0]]
        if name not in _STAGE_OF:
            continue
        enclosing = []
        while span[3] >= 0:
            span = tracer.spans[span[3]]
            enclosing.append(names[span[0]])
        assert [s for s in enclosing if s in stages] == [_STAGE_OF[name]], (
            name, enclosing)
        seen.add(name)
    assert seen == set(_STAGE_OF)
