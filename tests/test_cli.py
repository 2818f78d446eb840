"""Configuration loading, pipeline orchestration, and output artifacts."""

import contextlib
import csv
import dataclasses
import io
import itertools
import json
import math
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

from conftest import GENERATOR_CASES, generated_state
from test_algebra import so3
from test_flow import same_bits
from grflab import cli, functionals, presets, torsion
from grflab.algebra import AlgebraValidationError, algebra_from_spec
from grflab.cli import CSV_COLUMNS, ConfigError, load_config, run_pipeline
from grflab.fields import GridError
from grflab.geometry import GeometryState, derive


def write_config(tmp_path, name="cfg.json", **body):
    path = tmp_path / name
    path.write_text(json.dumps(body))
    return str(path)


@pytest.mark.parametrize("name", presets.PRESETS)
def test_presets_build_valid_states(name):
    # the built state has the declared box, points and k, and an algebra
    # override of that k changes the constants and no field
    preset = presets.PRESETS[name]
    st = presets.build(name)
    st.validate()
    assert st.t == 0.0
    assert st.mesh.lengths == preset.lengths
    assert st.mesh.sizes == (preset.mesh_n,) * len(preset.lengths)
    assert st.k == algebra_from_spec(preset.algebra).k
    spelled = presets.build(name, spec=preset.algebra)
    assert same_bits(spelled.alg.c, st.alg.c)
    c = np.arange(float(st.k ** 3)).reshape((st.k,) * 3)
    other = presets.build(name, spec={"k": st.k, "c": c.tolist()})
    assert np.array_equal(other.alg.c, c)
    for built in (spelled, other):
        assert built.mesh == st.mesh
        assert all(same_bits(a, b) for a, b in zip(built.fields, st.fields))


def test_run_pipeline_builds_the_state_once_through_build_state(tmp_path):
    # a subclass may supply its state under a preset name outside the table:
    # run_pipeline reads the state from build_state only, and once
    calls = []

    class GivenState(cli.ScenarioConfig):
        def build_state(self):
            calls.append(self.preset)
            return presets.build("heisenberg-s1", 16)

    run = dict(t_end=0.005, report_stride=1)
    given = GivenState(preset="given-state", output_dir=str(tmp_path / "given"), **run)
    plain = cli.ScenarioConfig(preset="heisenberg-s1", mesh_n=16,
                               output_dir=str(tmp_path / "plain"), **run)
    assert given.preset not in presets.PRESETS
    assert run_pipeline(given) == run_pipeline(plain)
    assert calls == ["given-state"]
    assert ((tmp_path / "given" / "report.csv").read_bytes()
            == (tmp_path / "plain" / "report.csv").read_bytes())
    manifests = [json.loads((tmp_path / out / "manifest.json").read_text())
                 for out in ("given", "plain")]
    assert [m.pop("preset") for m in manifests] == ["given-state", "heisenberg-s1"]
    assert manifests[0] == manifests[1]


def test_heisenberg_constants_written_out_run_as_the_default(tmp_path):
    heisenberg = [[[0, 0, 0]] * 3] * 2 + [[[0, 1, 0], [-1, 0, 0], [0, 0, 0]]]
    reports = []
    for name, spec in (("default", None), ("explicit", {"k": 3, "c": heisenberg})):
        out = tmp_path / name
        cfg = load_config(write_config(
            tmp_path, name=f"{name}.json", preset="heisenberg-s1", mesh_n=16,
            t_end=0.01, algebra=spec, output_dir=str(out)))
        run_pipeline(cfg)
        reports.append((out / "report.csv").read_bytes())
    assert reports[0] == reports[1]


def test_load_config_minimal(tmp_path):
    cfg = load_config(write_config(tmp_path, preset="flat-abelian"))
    assert cfg.preset == "flat-abelian"
    assert cfg.mode == "ungauged"


def test_load_config_rejects_unknown_and_bad_values(tmp_path):
    path = write_config(tmp_path, preset="nope", bogus=1, mode="weird",
                        t_end=-1.0)
    with pytest.raises(ConfigError) as err:
        load_config(path)
    msg = str(err.value)
    for needle in ("/bogus", "/preset", "/mode", "/t_end"):
        assert needle in msg


def test_load_config_rejects_non_nilpotent_algebra(tmp_path):
    c = np.zeros((3, 3, 3))
    for m, i, j in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        c[m, i, j], c[m, j, i] = 1.0, -1.0
    path = write_config(tmp_path, preset="heisenberg-s1",
                        algebra={"k": 3, "c": c.tolist()})
    with pytest.raises(ConfigError, match="nilpotency"):
        load_config(path)


def test_load_config_rejects_nonpositive_fixed_dt(tmp_path):
    for bad in (-0.001, 0, True, "0.001"):
        path = write_config(tmp_path, preset="flat-abelian", fixed_dt=bad)
        with pytest.raises(ConfigError, match="/fixed_dt"):
            load_config(path)


def cheap_config(tmp_path, **overrides):
    """flat-abelian at mesh 8 for at most 5 steps, so that even a value the
    loader wrongly accepts runs in a fraction of a second."""
    body = {"preset": "flat-abelian", "mesh_n": 8, "t_end": 0.001,
            "max_steps": 5, "output_dir": str(tmp_path / "out")}
    body.update(overrides)
    return write_config(tmp_path, **body)


def fails_in_one_line(*argv) -> str:
    """The stderr of `grflab argv`, once checked to be a one-line failure:
    exit code 1, one line on stderr, none on stdout and no traceback."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(list(argv))
    err = err.getvalue()
    assert (rc, out.getvalue(), len(err.strip().splitlines())) == (1, "", 1), err
    assert "Traceback" not in err
    return err


# pytest names the dict and list cases by their position in this list
@pytest.mark.parametrize("key, value", [
    ("mesh_n", 4), ("mesh_n", True),
    ("cfl_sigma", -1), ("cfl_sigma", 0), ("cfl_sigma", True),
    ("identity_rel_tol", "x"), ("identity_rel_tol", 0.0),
    ("algebra", "abelian:x"), ("output_dir", 5),
    ("t_end", math.inf), ("cfl_sigma", math.inf),
    ("identity_rel_tol", math.inf),
    ("algebra", {"k": 2}), ("algebra", {"k": 2, "c": [1, 2]}),
    ("preset", ["flat-abelian"]),
    ("a\nb", 1),
    # not a key: the entropy prefactor's dimension is the base dimension
    ("n_override", 3),
])
def test_run_rejects_bad_input_in_one_line(tmp_path, key, value):
    err = fails_in_one_line("run", cheap_config(tmp_path, **{key: value}))
    assert err.strip().endswith("unknown key") == (key not in cli.CONFIG_KEYS)
    # an unknown key is printed escaped
    assert ("mesh" if key == "mesh_n"
            else "/" + key.replace("\n", "\\n")) in err


def modulate_inoue_torsion(monkeypatch):
    """Declare inoue-like with its torsion scaled by an x-dependent profile:
    a pure-fiber component that varies over the circle is never closed."""
    inoue = presets.PRESETS["inoue-like"]

    def modulated_torsion(st):
        inoue.shape(st)
        (x,) = st.mesh.coords()
        prof = 1.0 + 0.5 * np.sin(2.0 * np.pi * x / st.mesh.lengths[0])
        st.H = st.H * prof[..., None, None, None]

    monkeypatch.setitem(presets.PRESETS, "inoue-like",
                        inoue._replace(shape=modulated_torsion))


def forbid_the_forward_flow(monkeypatch):
    def no_flow(*args):
        raise AssertionError("the forward stage ran")

    monkeypatch.setattr(cli.flow, "run_flow", no_flow)


def assert_refused_before_the_forward_flow(out):
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "aborted"
    assert "dH" in manifest["abort_reason"]
    assert manifest["stages"] == [] and "steps" not in manifest


def test_run_refuses_a_start_whose_torsion_is_not_closed(tmp_path, monkeypatch):
    # at the preset's own mesh and t_end: the refusal reads the start alone
    modulate_inoue_torsion(monkeypatch)
    forbid_the_forward_flow(monkeypatch)
    out = tmp_path / "out"
    err = fails_in_one_line("run", write_config(
        tmp_path, preset="inoue-like", output_dir=str(out)))
    assert "dH" in err
    assert_refused_before_the_forward_flow(out)


def test_a_config_built_in_code_is_refused_as_from_a_file(
        tmp_path, monkeypatch, capsys):
    modulate_inoue_torsion(monkeypatch)
    forbid_the_forward_flow(monkeypatch)
    out = tmp_path / "out"
    assert run_pipeline(cli.ScenarioConfig(
        preset="inoue-like", mesh_n=16, t_end=0.002, output_dir=str(out))) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "dH" in err
    assert_refused_before_the_forward_flow(out)


def test_a_start_that_cannot_be_built_leaves_no_output_dir(tmp_path):
    # the loader refuses both from a file; built in code, each raises before
    # the output directory exists
    cases = ((dict(mesh_n=4), GridError),
             (dict(algebra={"k": 3, "c": so3().c.tolist()}), AlgebraValidationError))
    for n, (fields, error) in enumerate(cases):
        out = tmp_path / f"out{n}"
        with pytest.raises(error):
            run_pipeline(cli.ScenarioConfig(preset="heisenberg-s1",
                                            output_dir=str(out), **fields))
        assert not out.exists(), fields


def test_uncreatable_output_dir_fails_before_the_forward_stage(
        tmp_path, monkeypatch):
    blocker = tmp_path / "file"
    blocker.write_text("")
    forbid_the_forward_flow(monkeypatch)
    err = fails_in_one_line("run", write_config(
        tmp_path, preset="flat-abelian", mesh_n=8, t_end=0.001,
        output_dir=str(blocker / "out")))
    assert "/output_dir" in err


# Written-out invalid values, one list per category.  The lists are fixed so
# that every run of every commit checks the same values.
_BOOLS = [True, False]
_STRINGS = ["", "x", "1", "2.0", "-1", "inf", "null", "a\nb", "\u00e9", " "]
_NONPOSITIVE = [0, -1, -7, -(2 ** 63), 0.0, -0.0, -1.5, -1e-308, -5e-324,
                -1e308]
_NON_FINITE = [math.inf, -math.inf, math.nan]
# any float is invalid where an integer is expected, 2.0 included
_POSITIVE_FLOATS = [2.0, 1.0, 64.0, 1.5, 0.1, 5e-324, 1e308]
_SCALARS = ([None] + _BOOLS + [1, 8, 2 ** 64] + _NONPOSITIVE + _NON_FINITE
            + _POSITIVE_FLOATS + _STRINGS)
# each scalar wrapped in a list and in an object, and deeper nestings
_NESTED = ([[v] for v in _SCALARS] + [{"v": v} for v in _SCALARS]
           + [[], {}, [[1]], [[[]]], {"a": {"b": []}}, [1, "x", None],
              {"k": 2, "c": []}, {"": None}])
_NON_STRINGS = (_BOOLS + [1, 8] + _NONPOSITIVE + _NON_FINITE + _POSITIVE_FLOATS
                + _NESTED)
_NOT_NUMBERS = _BOOLS + _STRINGS + _NESTED
_NUMBERS = [_NOT_NUMBERS, _NONPOSITIVE, _NON_FINITE]
_INTEGERS = _NUMBERS + [_POSITIVE_FLOATS]


def _unknown_strings(*valid):
    near = [v.upper() for v in valid] + [v + "\n" for v in valid] + [
        " " + v for v in valid]
    return [s for s in _STRINGS + near if s not in valid]


# per key, the categories of invalid values; the test runs every value of
# every category
INVALID_VALUES = {
    "preset": [[None], _NON_STRINGS, _unknown_strings(*presets.PRESETS)],
    "mesh_n": _INTEGERS,
    # flat-abelian has 2 fiber directions, which heisenberg3 and any spec
    # with k != 2 do not fit
    "algebra": [_NON_STRINGS, _STRINGS + [
        "heisenberg3", "abelian:3", "abelian:0", "abelian:", "abelian:x",
        "abelian:-2", "abelian:2.0", "abelian: 2", "abelian:2\n", "Abelian:2",
        "abelian:99999"]],
    "mode": [_NON_STRINGS, _unknown_strings("ungauged", "canonical")
             + ["sideways", "general"]],
    "t_end": _NUMBERS,
    "cfl_sigma": _NUMBERS,
    "fixed_dt": _NUMBERS,
    "max_steps": _INTEGERS,
    "report_stride": _INTEGERS,
    "identity_rel_tol": _NUMBERS,
    "output_dir": [_NON_STRINGS, ["", "a\u0000b"]],
}


@pytest.mark.parametrize("key", sorted(INVALID_VALUES))
def test_invalid_config_values_end_in_one_line(tmp_path, key):
    values = [v for category in INVALID_VALUES[key] for v in category]
    assert len(values) >= 50
    for value in values:
        err = fails_in_one_line("run", cheap_config(tmp_path, **{key: value}))
        assert f"/{key}" in err, value


def test_readme_config_table_matches_loader():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("### Configuration", 1)[1].split("\n#", 1)[0]
    rows = dict(re.findall(r"^\| `(\w+)` \| ([^|]*) \|", section, re.M))
    assert set(rows) == set(cli.CONFIG_KEYS)
    defaults = {f.name: f.default for f in dataclasses.fields(cli.ScenarioConfig)}
    assert set(defaults) == set(cli.CONFIG_KEYS)
    for key, default in defaults.items():
        if default is not dataclasses.MISSING and default is not None:
            assert rows[key].strip("` ") == str(default), key


def test_readme_presets_match_table():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("### Presets", 1)[1].split("\n#", 1)[0]
    row = r"^\| `([\w-]+)` \| `([^`]*)` \| ([^|]*) \| (\d+) \| ([^|]*) \|$"
    rows = {name: cells for name, *cells in re.findall(row, section, re.M)}
    assert set(rows) == set(presets.PRESETS)
    for name, preset in presets.PRESETS.items():
        spec, box, mesh_n, written = rows[name]
        sides = [float(side.rstrip("π")) * (np.pi if side.endswith("π") else 1.0)
                 for side in box.split(" × ")]
        assert (spec, tuple(sides), int(mesh_n)) == (
            preset.algebra, preset.lengths, preset.mesh_n), name
        st = presets.build(name, 8)
        plain = presets.constant_state(st.alg, st.mesh)
        fields = [f"`{field}`" for field in GeometryState.FIELDS
                  if not np.array_equal(getattr(st, field), getattr(plain, field))]
        assert written.strip() == (", ".join(fields) or "none"), name


def test_load_config_rejects_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    # not JSON, a JSON object in a file that is not UTF-8, and JSON whose
    # top level is not an object
    bad_json = [b"{not json",
                '{"preset": "flat-abelian", "output_dir": "é"}'.encode("latin-1")]
    not_objects = [b"[]", b"3", b'"heisenberg-s1"', b"null"]
    for content in bad_json + not_objects:
        path.write_bytes(content)
        message = ("invalid JSON" if content in bad_json
                   else "top level must be an object")
        with pytest.raises(ConfigError, match=message):
            load_config(str(path))
        assert message in fails_in_one_line("run", str(path))


def test_flat_abelian_pipeline_clean(tmp_path):
    out = tmp_path / "out"
    cfg = load_config(write_config(
        tmp_path, preset="flat-abelian", mesh_n=16, t_end=0.01,
        report_stride=5, output_dir=str(out)))
    assert run_pipeline(cfg) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "clean"
    assert manifest["soliton"]["steady_rigidity"]
    with open(out / "report.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert list(rows[0].keys()) == CSV_COLUMNS
    for row in rows:
        assert abs(float(row["F"])) < 1e-12
        assert float(row["mass_u"]) == pytest.approx(1.0, abs=1e-12)
        assert float(row["min_eig_G"]) == pytest.approx(1.0, abs=1e-12)


def test_pipeline_determinism(tmp_path):
    blobs = []
    for run in range(2):
        out = tmp_path / f"out{run}"
        cfg = load_config(write_config(
            tmp_path, preset="heisenberg-s1", mesh_n=16, t_end=0.005,
            report_stride=3, output_dir=str(out)))
        assert run_pipeline(cfg) == 0
        blobs.append((out / "report.csv").read_bytes())
    assert blobs[0] == blobs[1]


def test_report_builds_residual_tensors_once_per_row(tmp_path, monkeypatch):
    # the steady and expander potentials differ by a constant, so one set
    # of residual tensors serves both identities
    calls = []
    build = functionals.residual_tensors

    def counted(*args):
        calls.append(args[0].t)
        return build(*args)

    monkeypatch.setattr(functionals, "residual_tensors", counted)
    out = tmp_path / "out"
    cfg = load_config(write_config(
        tmp_path, preset="heisenberg-s1", mesh_n=16, t_end=0.005,
        report_stride=2, output_dir=str(out)))
    assert run_pipeline(cfg) == 0
    with open(out / "report.csv") as fh:
        times = [float(row["t"]) for row in csv.DictReader(fh)]
    assert len(times) > 2
    assert calls == times  # rows are evaluated after the backward walk


def assert_derivations_of_a_run(tmp_path, monkeypatch, preset, start_checks):
    """n steps: 4 derivations a step and one of the last state, all in the
    forward flow, and start_checks more before it for the closedness check
    of the start; the loader, the backward walk and the report derive
    nothing, and the report checks closedness on each row's kept derivation
    once."""
    calls, residuals, runs = [], [], []

    def counting(state, *args, **kwargs):
        calls.append(state.t)
        return derive(state, *args, **kwargs)

    for module in list(sys.modules.values()):
        if (module.__name__.startswith("grflab")
                and getattr(module, "derive", None) is derive):
            monkeypatch.setattr(module, "derive", counting)
    run_flow, residual = cli.flow.run_flow, torsion.closedness_residual

    def kept(*args):
        before = (len(calls), len(residuals))
        runs.append((run_flow(*args), before, len(calls)))
        return runs[-1][0]

    def checked(state, der):
        residuals.append((state, der))
        return residual(state, der)

    monkeypatch.setattr(cli.flow, "run_flow", kept)
    monkeypatch.setattr(torsion, "closedness_residual", checked)
    out = tmp_path / "out"
    assert cli.main(["run", write_config(
        tmp_path, preset=preset, mesh_n=16, t_end=0.005, fixed_dt=1e-3,
        report_stride=2, output_dir=str(out))]) == 0
    n = json.loads((out / "manifest.json").read_text())["steps"]
    assert n == 5
    [(hist, before, forward)] = runs
    assert before == (start_checks, start_checks)
    assert forward == len(calls) == 4 * n + 1 + start_checks
    assert sorted(hist.derived) == [0, 2, 4, 5]
    assert [st.t for st, _ in residuals[:start_checks]] == [0.0] * start_checks
    assert [(id(st), id(der)) for st, der in residuals[start_checks:]] == [
        (id(hist.states[i]), id(der)) for i, der in hist.derived.items()]


def test_pipeline_derives_each_state_once_after_the_forward_flow(
        tmp_path, monkeypatch):
    # inoue-like starts with torsion: one derivation checks its closedness
    assert_derivations_of_a_run(tmp_path, monkeypatch, "inoue-like", 1)


def test_a_torsion_free_start_is_closed_without_a_derivation(
        tmp_path, monkeypatch):
    assert_derivations_of_a_run(tmp_path, monkeypatch, "heisenberg-s1", 0)


def test_run_without_interior_row_is_unchecked(tmp_path, capsys):
    # one CFL step reaches t_end, so the report has two rows, no interior
    # row, and the energy identity is never evaluated; the backward walk
    # reads a midpoint interpolated from two stored records
    out = tmp_path / "out"
    path = write_config(tmp_path, preset="heisenberg-s1", mesh_n=16,
                        t_end=0.005, cfl_sigma=1e6, output_dir=str(out))
    assert cli.main(["run", path]) == 2
    assert capsys.readouterr() == ("", "")
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["steps"] == 1
    with open(out / "report.csv") as fh:
        assert [float(row["t"]) for row in csv.DictReader(fh)] == [0.0, 0.005]
    assert manifest["stages"] == ["forward", "backward", "report"]
    assert manifest["status"] == "identity-unchecked"
    assert manifest["identity_rel_gap_F"] is None
    assert "identity rel gap F: unchecked" in (out / "summary.txt").read_text()


def test_run_without_a_step_is_unchecked(tmp_path, capsys):
    # a t_end below the time tolerance stores one state: no interval to
    # walk, one report row, and no identity evaluated
    out = tmp_path / "out"
    path = write_config(tmp_path, preset="flat-abelian", t_end=1e-20,
                        output_dir=str(out))
    assert cli.main(["run", path]) == 2
    assert capsys.readouterr() == ("", "")
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["steps"] == 0
    assert manifest["stages"] == ["forward", "backward", "report"]
    assert manifest["status"] == "identity-unchecked"
    assert manifest["mass_drift"] == 0.0
    with open(out / "report.csv") as fh:
        assert [float(row["t"]) for row in csv.DictReader(fh)] == [0.0]


def test_unchecked_entropy_identity_is_null(tmp_path):
    # the W gap needs a previous row with t > 0, so three rows check none
    out = tmp_path / "out"
    path = write_config(tmp_path, preset="heisenberg-s1", mesh_n=16,
                        t_end=0.005, report_stride=7, output_dir=str(out))
    assert cli.main(["run", path]) == 0
    with open(out / "report.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 3
    assert all(math.isnan(float(row["identity_gap_W"])) for row in rows)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["identity_rel_gap_W"] is None
    assert manifest["identity_rel_gap_F"] is not None
    assert "identity rel gap W: unchecked" in (out / "summary.txt").read_text()


def test_build_report_differences_and_gaps(monkeypatch):
    nan = float("nan")
    # t, F, W, sum_R, sum_RW; W and sum_RW are nan at t = 0
    values = {t: {"t": t, "F": F, "W": W, "sum_R": sR, "sum_RW": sRW}
              for t, F, W, sR, sRW in ((0.0, -0.5, nan, 0.5, nan),
                                       (0.1, -0.25, 2.0, 3.0, 1.0),
                                       (0.2, 0.25, 2.5, 6.0, 4.0),
                                       (0.3, 1.0, 3.5, 9.0, 2.0))}
    # the rows are formed at the kept indices 0, 2, 3 and 5 of six stored
    # times, in increasing t, each from the history and the density at its
    # index; a row comes with its differences and gaps nan
    times = [0.0, 0.05, 0.1, 0.2, 0.25, 0.3]
    hist = types.SimpleNamespace(
        times=times, derived={i: f"der {times[i]}" for i in (0, 2, 3, 5)})

    def stub_row(h, i, density):
        assert (h, density) == (hist, f"density {times[i]}")
        return dict(values[times[i]], dF_dt_fd=nan, identity_gap_F=nan,
                    identity_gap_W=nan)

    monkeypatch.setattr(cli, "report_row", stub_row)
    rows = cli.build_report(hist, [f"density {t}" for t in times])
    assert [row["t"] for row in rows] == [0.0, 0.1, 0.2, 0.3]
    for j in (0, 3):
        assert all(math.isnan(rows[j][name]) for name in
                   ("dF_dt_fd", "identity_gap_F", "identity_gap_W")), j
    dF1 = (0.25 - -0.5) / (0.2 - 0.0)
    dF2 = (1.0 - -0.25) / (0.3 - 0.1)
    assert (rows[1]["dF_dt_fd"], rows[2]["dF_dt_fd"]) == (dF1, dF2)
    assert rows[1]["identity_gap_F"] == abs(dF1 - 3.0)
    assert rows[2]["identity_gap_F"] == abs(dF2 - 6.0)
    # the second row's W difference reads the nan W at t = 0
    assert math.isnan(rows[1]["identity_gap_W"])
    assert rows[2]["identity_gap_W"] == abs((3.5 - 2.0) / (0.3 - 0.1) - 4.0)


def test_report_evaluates_energy_density_once_per_row(tmp_path, monkeypatch):
    calls = []
    density = functionals._energy_density

    def counted(*args):
        calls.append(args[0].t)
        return density(*args)

    monkeypatch.setattr(functionals, "_energy_density", counted)
    out = tmp_path / "out"
    cfg = load_config(write_config(
        tmp_path, preset="heisenberg-s1", mesh_n=16, t_end=0.005,
        report_stride=2, output_dir=str(out)))
    assert run_pipeline(cfg) == 0
    with open(out / "report.csv") as fh:
        times = [float(row["t"]) for row in csv.DictReader(fh)]
    assert len(times) > 2
    assert calls == times  # rows are evaluated after the backward walk


def test_abort_leaves_manifest(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = load_config(write_config(
        tmp_path, preset="heisenberg-s1", mesh_n=16, t_end=10.0,
        fixed_dt=10.0, output_dir=str(out)))
    assert run_pipeline(cfg) == 1
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "aborted"
    assert manifest["abort_reason"]
    assert manifest["stages"] == ["forward"]
    capsys.readouterr()
    assert cli.main(["report", str(out)]) == 0
    assert (f"abort reason: {manifest['abort_reason']}\n"
            in capsys.readouterr().out)


def test_a_backward_solve_failure_says_where_and_when(tmp_path, monkeypatch):
    # a NaN potential leaves a NaN density after the walk's first step,
    # which no stage refuses and numpy does not warn about; the forward flow
    # never reads the potential
    monkeypatch.setattr(cli.conjugate, "dilaton_potential",
                        lambda state, der: np.full(state.mesh.shape, np.nan))
    out = tmp_path / "out"
    err = fails_in_one_line("run", write_config(
        tmp_path, preset="heisenberg-s1", mesh_n=16, t_end=0.005,
        fixed_dt=1e-3, output_dir=str(out)))
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "aborted"
    assert manifest["stages"] == ["forward"] and manifest["steps"] == 5
    assert err == f"aborted: {manifest['abort_reason']}\n"
    assert err.startswith("aborted: backward solve: density nan at grid point (0,) ")
    assert "at t = 0.004" in err


def test_truncated_run_is_aborted(tmp_path, capsys):
    # max_steps stops the forward flow at t = 0.005 of t_end = 0.2
    out = tmp_path / "out"
    path = write_config(tmp_path, preset="flat-abelian", mesh_n=16,
                        fixed_dt=0.001, max_steps=5, output_dir=str(out))
    assert cli.main(["run", path]) == 1
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "aborted"
    assert manifest["stages"] == ["forward"]
    assert manifest["steps"] == 5
    assert "t = 0.005" in manifest["abort_reason"]
    assert "max_steps = 5" in manifest["abort_reason"]
    # the run names its reason in one stderr line, and the report repeats it
    err = capsys.readouterr().err
    assert err == f"aborted: {manifest['abort_reason']}\n"
    assert cli.main(["report", str(out)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "preset: flat-abelian", "status: aborted",
        f"abort reason: {manifest['abort_reason']}"]


def test_output_root_env(tmp_path, monkeypatch):
    monkeypatch.setenv("GRFLAB_OUTPUT_ROOT", str(tmp_path / "root"))
    cfg = load_config(write_config(
        tmp_path, preset="flat-abelian", mesh_n=16, t_end=0.005,
        report_stride=5, output_dir="rel-out"))
    assert run_pipeline(cfg) == 0
    assert (tmp_path / "root" / "rel-out" / "manifest.json").exists()


def test_report_subcommand(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = load_config(write_config(
        tmp_path, preset="flat-abelian", mesh_n=16, t_end=0.005,
        report_stride=5, output_dir=str(out)))
    run_pipeline(cfg)
    assert cli.main(["report", str(out)]) == 0
    captured = capsys.readouterr()
    assert "preset: flat-abelian" in captured.out
    assert "no manifest" in fails_in_one_line("report", str(tmp_path / "missing"))
    # without a summary the report prints the manifest, which must parse
    bad = tmp_path / "bad"
    bad.mkdir()
    (bad / "manifest.json").write_text("{not json")
    assert "manifest.json" in fails_in_one_line("report", str(bad))
    # so does a run file that is not UTF-8 or is a directory
    cases = (("summary.txt", lambda p: p.write_bytes(b"\xff\xfe")),
             ("summary.txt", lambda p: p.mkdir()),
             ("manifest.json", lambda p: p.mkdir()))
    for i, (name, make) in enumerate(cases):
        run_dir = tmp_path / f"unreadable{i}"
        run_dir.mkdir()
        if name == "summary.txt":
            (run_dir / "manifest.json").write_text("{}")
        make(run_dir / name)
        assert name in fails_in_one_line("report", str(run_dir))


def test_run_subcommand_bad_config(tmp_path):
    assert "/preset" in fails_in_one_line("run", write_config(tmp_path, preset="nope"))


def test_verify_subcommand(capsys):
    assert cli.main(["verify", "--seed", "7", "--mesh", "32",
                     "--suite", "torsion"]) == 0
    captured = capsys.readouterr()
    assert "PASS" in captured.out
    # a mesh below the stencil's 8 points ends in one line before any suite
    for mesh in ("4", "0", "-3"):
        assert f"--mesh {mesh}" in fails_in_one_line("verify", "--mesh", mesh)
    # so does a negative seed, whatever the suite
    for seed, suite in (("-20", "all"), ("-5", "curvature"), ("-5", "torsion")):
        assert f"--seed {seed}" in fails_in_one_line(
            "verify", "--seed", seed, "--suite", suite)


def test_verify_variation_suite(capsys):
    assert cli.main(["verify", "--suite", "variation", "--mesh", "32",
                     "--seed", "0"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 6
    for trial, line in enumerate(lines[:5]):
        assert line.startswith(f"variation trial {trial} ")
        assert line.endswith("  PASS")
    assert lines[5].split() == ["overall", "PASS"]


def test_verify_curvature_suite_with_a_short_last_row_block(capsys):
    # the 2-D mesh of 20 rows runs in row blocks of 6, 6, 6 and 2
    assert cli.main(["verify", "--suite", "curvature", "--mesh", "20",
                     "--seed", "0"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 11
    for line in lines[:10]:
        assert line.startswith("curvature d=")
        assert line.endswith("  PASS")
    assert lines[10].split() == ["overall", "PASS"]


# each verify row's documented threshold; the curvature and variation rows
# grow as (64 / N)^4 below mesh 64
VERIFY_THRESHOLDS = {
    32: {"curvature": 1.6e-4, "codifferential": 1e-5, "splitting identity": 1e-10,
         "variation": 1.6e-3},
    128: {"curvature": 1e-5, "codifferential": 1e-5, "splitting identity": 1e-10,
          "variation": 1e-4},
}
VERIFY_SUITES = {"curvature": "curvature", "codifferential": "torsion",
                 "splitting identity": "torsion", "variation": "variation"}


def test_verify_rows_pass_strictly_below_their_thresholds(monkeypatch, capsys):
    err = {}
    # each row reads only its error: no derivation, no oracle; a curvature
    # row is relative_gap over some of curvature_pairs' pairs
    monkeypatch.setattr(cli, "derive", lambda st: None)
    monkeypatch.setattr(functionals, "residual_tensors", lambda *args: None)
    monkeypatch.setattr(cli, "curvature_pairs", lambda st: {})
    monkeypatch.setattr(cli, "relative_gap", lambda *pairs: err["curvature"])
    monkeypatch.setattr(cli, "codifferential_gap",
                        lambda st, der: err["codifferential"])
    monkeypatch.setattr(torsion, "splitting_identity",
                        lambda st, der: err["splitting identity"])
    monkeypatch.setattr(functionals, "variation_check_F",
                        lambda *args: {"rel_gap": err["variation"]})
    for N, thresholds in VERIFY_THRESHOLDS.items():
        for row, threshold in thresholds.items():
            for factor, verdict, code in ((1 - 1e-9, "PASS", 0), (1 + 1e-9, "FAIL", 2)):
                err = dict.fromkeys(thresholds, 0.0)
                err[row] = factor * threshold
                assert cli.run_verify(0, N, VERIFY_SUITES[row]) == code, (N, row)
                *lines, overall = capsys.readouterr().out.splitlines()
                assert overall.split() == ["overall", verdict], (N, row)
                for line in lines:
                    assert line.endswith(verdict if line.startswith(row) else "PASS"), (
                        N, line)


def test_relative_gap_is_the_largest_gap_over_the_largest_reference():
    a, b = np.array([1.0, 2.0, 4.0]), np.array([1.5, 2.0, -8.0])
    assert cli.relative_gap((a, b)) == 12.0 / 8.0
    assert a.tolist() == [1.0, 2.0, 4.0] and b.tolist() == [1.5, 2.0, -8.0]
    # each max is over every pair
    assert cli.relative_gap((np.array([0.0, 3.0]), np.array([1.0, 2.0])),
                            (np.array([[-4.0]]), np.array([[-4.5]]))) == 1.0 / 4.5
    # a reference below 1e-12 is read as 1e-12
    assert cli.relative_gap((np.array([3e-13]), np.array([1e-13]))) == (
        (3e-13 - 1e-13) / 1e-12)
    assert cli.relative_gap((np.array([0.5]), np.zeros(1))) == 0.5 / 1e-12


def test_random_states_and_directions_are_seeded_symmetric_and_definite():
    groups = {}
    for case in GENERATOR_CASES:
        seed, d, alg, opts = case
        st, again = generated_state(*case), generated_state(*case)
        v, df = cli.random_direction(np.random.default_rng(seed), st)
        drawn = [*st.fields, *v, df]
        v, df = cli.random_direction(np.random.default_rng(seed), again)
        redrawn = [*again.fields, *v, df]
        assert all(np.array_equal(a, b) for a, b in zip(drawn, redrawn)), case
        G, g, _, H, dG, dg = drawn[:6]
        for M in (G, g, dG, dg):
            assert np.array_equal(M, np.swapaxes(M, -1, -2)), case
        assert min(np.min(np.linalg.eigvalsh(M)) for M in (G, g)) > 0.0, case
        assert H.any() == opts.get("with_H", True), case
        groups.setdefault((d, alg, str(opts)), []).append(drawn)
    # seeds 0-9 draw pairwise different fields; only an H left zero is shared
    for key, draws in groups.items():
        for a, b in itertools.combinations(draws, 2):
            assert not any(x.any() and np.array_equal(x, y) for x, y in zip(a, b)), key


def test_mesh_too_large_to_allocate_ends_in_one_line(tmp_path):
    # numpy refuses these sizes before it allocates anything
    for preset, n in (("heisenberg-s1", 2 ** 62), ("torus-bundle-t2", 2 ** 32)):
        err = fails_in_one_line(
            "run", cheap_config(tmp_path, preset=preset, mesh_n=n))
        assert f"/mesh_n: a mesh of {n} points" in err
    mesh = str(2 ** 62)
    assert (fails_in_one_line("verify", "--mesh", mesh).strip()
            == f"--mesh {mesh}: too large to allocate")


def test_console_entry_point():
    # the child imports grflab from where this process found it
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "grflab.cli", "verify", "--seed", "3",
         "--mesh", "32", "--suite", "curvature"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert "overall" in proc.stdout
