#!/usr/bin/env python3
"""grflab benchmark.

Run from the repository root:

    python3 bench/run.py --workload heis-s1-1d --seed 1 --seconds 36 --trace 0
    python3 bench/run.py --smoke

One run sets the workload up in several fresh processes (``setup_s``), then
repeats the workload's operation in this process, one at a time, for
``--seconds`` seconds and checks every operation's outputs.  ``--trace 0``
reports the end-to-end metrics (medians over operations, with times
normalised to a nominal host speed by ``hostspeed.py``);
``--trace 1`` runs two untraced operations, then traced ones, and reports the
per-layer metrics.
The last line of standard output is the JSON result; a full record, and the
spans of a traced run, are written under ``.bench_out/``.

``--smoke`` runs every workload at reduced size in both modes and checks that
each prints exactly the metrics named in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT_ROOT = os.path.join(ROOT, ".bench_out")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")
# One BLAS thread: the loop is a single closed-loop caller, and pinning the
# count keeps runs comparable across machines and neighbours.
BLAS_THREADS = "1"
# Set-ups take 0.2-0.5 s each, so many are needed for a steady median.  They
# run in groups between the operations, each group bracketed by host-speed
# samples, so that set-ups and operations see the same machine load.
SETUP_REPEATS = {"full": 16, "smoke": 2}
SETUP_GROUP = 4
CHILD_TIMEOUT_S = 120
# A median never rests on one operation, even when one takes more than half
# of --seconds (verify-all at mesh 128).
MIN_OPS = 2
# A traced run's baseline is the second of two untraced operations: the first
# in a process also pays one-time warm-up costs.
TRACE_BASELINE_OPS = 2

END_TO_END = [  # name, unit
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MB"),
]


def per_layer_metrics(spans) -> list[tuple[str, str]]:
    out = []
    for t in spans.KERNELS:
        out += [(f"{t}.calls", "count"), (f"{t}.s", "s"),
                (f"{t}.self_s", "s"), (f"{t}.ms_per_call", "ms")]
    for t in spans.STAGES:
        out += [(f"{t}.s", "s"), (f"{t}.self_s", "s")]
    out += [("conjugate.interval_ms", "ms"), ("cli.build_report.row_ms", "ms"),
            ("cli.emit_outputs.bytes", "bytes"), ("trace.overhead_s", "s"),
            ("trace.coverage_ok", "count")]
    return out


# --- environment --------------------------------------------------------------

def _git(*args) -> str | None:
    try:
        proc = subprocess.run(["git", "--no-optional-locks", "-C", ROOT, *args],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _git_state() -> tuple[str, bool | None]:
    """(commit, tree has uncommitted changes), or ("unknown", None) when the
    root is not itself a git work tree, e.g. an exported copy."""
    top = _git("rev-parse", "--show-toplevel")
    if top is None or os.path.realpath(top) != os.path.realpath(ROOT):
        return "unknown", None
    status = _git("status", "--porcelain", "--untracked-files=no")
    return _git("rev-parse", "HEAD") or "unknown", (
        None if status is None else bool(status))


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(np, seed: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    commit, dirty = _git_state()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "commit": commit,
        "dirty": dirty,
        "seed": seed,
    }


# --- one run ------------------------------------------------------------------

def _setup_sample(args) -> float:
    """Seconds from spawning a fresh interpreter until its initial state is
    validated and ready."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed),
           "--size", args.size, "--trace", str(args.trace)]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up process failed: {proc.stderr.strip()}")
    return float(proc.stdout.strip().splitlines()[-1]) - t0


def _setup_group(args, speed, setups: dict, count: int) -> None:
    """`count` set-ups in fresh processes, then one host-speed sample."""
    raw = [_setup_sample(args) for _ in range(count)]
    factor = speed.bracket()
    setups["raw"] += raw
    setups["host_factor"] += [factor] * count


def _measure(wl, tracer, ready, speed) -> dict:
    """One operation under `tracer`, its time also normalised by `speed`.  Without
    `ready`, the set-up runs first inside the same traced iteration, so set-up
    layers (`cli.load_config`, `torsion.closedness_residual`) are traced too."""
    shutil.rmtree(wl.out_dir, ignore_errors=True)  # never check stale outputs
    gc.collect()  # start from a clean heap, as a fresh `grflab` process does
    op = tracer.begin_op()
    rec = {"op": op, "rc": None, "wall_s": 0.0}
    try:
        if ready is None:
            ready = wl.setup()
        t0 = time.perf_counter()
        rec["rc"] = wl.operation(ready)
        rec["wall_s"] = time.perf_counter() - t0
    except Exception:  # a crash is a failed operation, not a failed run
        rec["problems"] = [traceback.format_exc(limit=-3)]
        rec["digest"] = {"exception": rec["problems"][0].splitlines()[-1]}
    else:
        rec["problems"] = wl.check(rec["rc"])
        rec["digest"] = wl.digest(rec["rc"])
    rec.update(summary=tracer.summary(op), bytes=wl.output_bytes(),
               counts=wl.counts())
    rec["host_factor"] = speed.bracket()
    # the gated wall_s: normalised to nominal host speed (bench/NOTES.md)
    rec["norm_wall_s"] = rec["wall_s"] / rec["host_factor"]
    return rec


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _keep_going(t_start: float, seconds: float, laps: list[float]) -> bool:
    """Start another operation only if it should end within the budget."""
    return time.monotonic() - t_start + statistics.median(laps) <= seconds


def _layer_values(spans, rec, base) -> dict[str, float]:
    summ = rec["summary"]
    vals = {}
    for t in spans.KERNELS:
        s = summ[t]
        vals[f"{t}.calls"] = s["calls"]
        vals[f"{t}.s"] = s["s"]
        vals[f"{t}.self_s"] = s["self_s"]
        vals[f"{t}.ms_per_call"] = spans.median_ms(s["durations"])
    for t in spans.STAGES:
        vals[f"{t}.s"] = summ[t]["s"]
        vals[f"{t}.self_s"] = summ[t]["self_s"]
    intervals = rec["counts"].get("intervals", 0)
    rows = rec["counts"].get("report_rows", 0)
    vals["conjugate.interval_ms"] = (
        1000.0 * summ["conjugate.solve_backward"]["s"] / intervals
        if intervals > 0 else 0.0)
    vals["cli.build_report.row_ms"] = (
        1000.0 * summ["cli.build_report"]["s"] / rows if rows else 0.0)
    vals["cli.emit_outputs.bytes"] = rec["bytes"]
    vals["trace.overhead_s"] = rec["norm_wall_s"] - base["norm_wall_s"]
    vals["trace.coverage_ok"] = 0 if rec["coverage_problems"] else 1
    return vals


def _coverage_problems(tracer, rec, untraced_rhs: int) -> list[str]:
    problems = [f"unwrapped binding: {b}" for b in tracer.unwrapped_bindings()]
    summ = rec["summary"]
    rhs = summ["flow.evaluate_rhs"]["calls"]
    steps = summ["flow.rk4_step"]["calls"]
    if rhs != untraced_rhs:
        problems.append(f"traced evaluate_rhs calls {rhs} != untraced "
                        f"rhs_evals {untraced_rhs}")
    if steps and rhs != 4 * steps:
        problems.append(f"evaluate_rhs calls {rhs} != 4 x rk4_step calls {steps}")
    return problems


def run(args, np, hostspeed, spans, wl) -> int:
    work_dir = wl.work_dir
    wl.prepare()
    ready = wl.setup()

    probe = spans.Tracer(spans.PROBE)
    probe.install()
    setups = {"raw": [], "host_factor": []}
    ops, laps = [], []
    speed = hostspeed.HostSpeed()
    t_start = time.monotonic()
    try:
        while True:
            lap = time.monotonic()
            if not args.trace:
                _setup_group(args, speed, setups, SETUP_GROUP)
            ops.append(_measure(wl, probe, ready, speed))
            if len(ops) == 1:
                # a later operation in the same process can peak higher on a
                # fragmented heap; a `grflab` user runs one per process
                peak_rss_mb = _peak_rss_mb()
            laps.append(time.monotonic() - lap)
            if args.trace:
                if len(ops) >= TRACE_BASELINE_OPS:
                    break
            elif len(ops) >= MIN_OPS and not _keep_going(
                    t_start, args.seconds, laps):
                break
        while not args.trace and len(setups["raw"]) < SETUP_REPEATS[args.size]:
            _setup_group(args, speed, setups, min(
                SETUP_GROUP, SETUP_REPEATS[args.size] - len(setups["raw"])))
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        probe.uninstall()
    for rec in ops:
        rec["rhs_evals"] = rec["summary"]["flow.evaluate_rhs"]["calls"]
        rec["stages"] = [rec["summary"][t]["s"] for t in wl.stage_targets]

    traced = []
    if args.trace:
        tracer = spans.Tracer(spans.TRACED)
        tracer.install()
        try:
            laps = []
            while True:
                lap = time.monotonic()
                rec = _measure(wl, tracer, None, speed)
                rec["coverage_problems"] = _coverage_problems(
                    tracer, rec, ops[-1]["rhs_evals"])
                rec["problems"] += rec["coverage_problems"]
                traced.append(rec)
                laps.append(time.monotonic() - lap)
                if not _keep_going(t_start, args.seconds, laps):
                    break
        finally:
            tracer.uninstall()
        tracer.write(os.path.join(work_dir, "spans.json"))
        for t in tracer.missing:
            print(f"note: trace target {t} no longer exists; its metrics read 0")

    every = ops + traced
    first_digest = every[0]["digest"]
    for rec in every[1:]:
        if rec["digest"] != first_digest:
            rec["problems"].append("output digest differs from the first operation")
    failed = sum(1 for rec in every if rec["problems"])

    med = statistics.median
    if args.trace:
        names = per_layer_metrics(spans)
        per_op = [_layer_values(spans, rec, ops[-1]) for rec in traced]
        metrics = {name: {"value": med([v[name] for v in per_op]), "unit": unit}
                   for name, unit in names}
    else:
        values = {
            "setup_s": med(r / f for r, f in
                           zip(setups["raw"], setups["host_factor"])),
            "wall_s": med([o["norm_wall_s"] for o in ops]),
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END}

    digest_hash = hashlib.sha256(
        json.dumps(first_digest, sort_keys=True).encode()).hexdigest()
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "size": args.size,
        "environment": environment(np, args.seed),
        "setup_samples_s": setups,
        "host_kernel_s": speed.kernel_s,
        "digest": first_digest, "digest_sha256": digest_hash,
        "operations": [{k: v for k, v in rec.items() if k != "summary"}
                       for rec in every],
        "metrics": metrics,
    }
    with open(os.path.join(work_dir, "result.json"), "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)

    _print_table(wl, ops, setups, peak_rss_mb, failed, len(every), record,
                 hostspeed)
    for rec in every:
        for p in rec["problems"]:
            print(f"FAIL op {rec['op']}: {p}")
    print(json.dumps({"correct": failed == 0, "attempted": len(every),
                      "failed": failed, "metrics": metrics}))
    return 0


def _print_table(wl, ops, setups, peak_rss_mb, failed, attempted,
                 record, hostspeed) -> None:
    med = statistics.median
    print(f"workload {wl.name}  seed {wl.seed}  operations {len(ops)} untraced"
          f" / {attempted} total")
    print(f"environment {json.dumps(record['environment'], sort_keys=True)}")
    print(f"digest {record['digest_sha256'][:16]} "
          f"{json.dumps(record['digest'], sort_keys=True)}")
    rows = []
    if setups["raw"]:
        rows.append(("setup_s", record["metrics"]["setup_s"]["value"], "s"))
    rows.append(("wall_s", med([o["norm_wall_s"] for o in ops]), "s"))
    rows.append(("raw_wall_s", med([o["wall_s"] for o in ops]), "s"))
    rows.append(("host_factor", med([o["host_factor"] for o in ops]),
                 f"x the {hostspeed.NOMINAL_S} s reference"))
    for i, label in enumerate(wl.stage_labels):
        rows.append((label, med([o["stages"][i] for o in ops]), "s"))
    if "flow.run_flow" in wl.stage_targets:
        rows.append(("rhs_evals", ops[0]["rhs_evals"], "count"))
    rows.append(("peak_rss_mb", peak_rss_mb, "MB"))
    rows.append(("fail_frac", failed / attempted, f"ratio of {attempted}"))
    for name, value, unit in rows:
        print(f"  {name:<14} {value:>12.6g} {unit}")


# --- smoke mode ---------------------------------------------------------------

def smoke(spans) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    if expected[0] != dict(END_TO_END):
        problems.append("BENCHMARK.json end_to_end differs from run.py")
    if expected[1] != dict(per_layer_metrics(spans)):
        problems.append("BENCHMARK.json per_layer differs from run.py")
    for wl in spec["workloads"]:
        for trace in (0, 1):
            cmd = [sys.executable, os.path.abspath(__file__),
                   "--workload", wl["name"], "--seed", "1", "--seconds", "1",
                   "--trace", str(trace), "--size", "smoke"]
            t0 = time.monotonic()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=CHILD_TIMEOUT_S)
            tag = f"{wl['name']} trace {trace}"
            print(f"{tag}: exit {proc.returncode} in {time.monotonic() - t0:.1f} s")
            if proc.returncode != 0:
                problems.append(f"{tag}: exit {proc.returncode}: {proc.stderr[-500:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{tag}: result keys {sorted(result)}")
            if not result.get("correct"):
                problems.append(f"{tag}: incorrect: {proc.stdout[-1000:]}")
            got = {k: v.get("unit") for k, v in result.get("metrics", {}).items()}
            if got != expected[trace]:
                problems.append(f"{tag}: metrics differ from BENCHMARK.json: "
                                f"{sorted(set(got) ^ set(expected[trace]))}")
    for p in problems:
        print(f"SMOKE FAIL {p}")
    print("smoke " + ("FAIL" if problems else "ok"))
    return 1 if problems else 0


# --- entry point --------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="bench/run.py")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    parser.add_argument("--smoke", action="store_true",
                        help="check the benchmark itself at reduced size")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    for var in BLAS_THREAD_VARS:  # before numpy is imported
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, os.path.join(ROOT, "src"))
    try:
        import numpy as np
        import grflab.cli  # noqa: F401
    except ImportError as exc:
        print(f"error: cannot import grflab from {ROOT}/src: {exc}",
              file=sys.stderr)
        return 2
    src = os.path.join(ROOT, "src", "")
    if not os.path.abspath(grflab.cli.__file__).startswith(src):
        print(f"error: grflab was imported from {grflab.cli.__file__}, "
              f"not from {src}", file=sys.stderr)
        return 2
    import hostspeed
    import spans
    import workloads

    if args.smoke:
        return smoke(spans)
    if args.workload not in workloads.WORKLOADS:
        print(f"error: --workload must be one of {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    work_dir = os.path.join(
        OUT_ROOT, f"{args.workload}-seed{args.seed}-trace{args.trace}-{args.size}")
    wl = workloads.WORKLOADS[args.workload](args.seed, args.size, work_dir)
    if args.setup_probe:
        wl.setup()
        print(repr(time.monotonic()))
        return 0
    return run(args, np, hostspeed, spans, wl)


if __name__ == "__main__":
    sys.exit(main())
