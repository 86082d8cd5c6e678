"""speclimit benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload against the speclimit sources in ../src for about S
seconds of repeated rounds (the same operations on the same inputs
each round), checks the outputs of the first round against
reference.py and that every later round reproduces them exactly, and
prints the metrics, ending with one JSON line. With --trace 0 the
metrics are the end-to-end ones; with --trace 1 rounds alternate
between untraced and traced and the metrics are the per-layer ones.
See README.md for the workloads and the statistics.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

from calibrate import ImportReference, Sampler

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_PROBES = 3
CLI_PROBES = 3
MIN_TRACED_ROUNDS = 2  # one untraced and one traced

# per-layer metrics, normalised per unit operation of the workload
LAYER_SECONDS = (
    "limits.bayesian_upper_limit.s", "limits.fit_minimize.s",
    "limits.parameter_uncertainties.s", "limits.run_pseudo_experiments.s",
    "spectra.predict_counts.s", "spectra.component_bin_counts.s",
    "spectra.simulate_spectrum.s", "pep.pep_upper_limit.s", "csl.lambda_from_alpha.s",
    "fileio.load_spectrum.s", "fileio.write_spectrum.s", "fileio.write_residual.s",
    "fileio.write_report.s", "fileio.write_table.s",
)
LAYER_COUNTS = (
    "limits.minimize.calls", "limits.minimize.nfev", "limits.scan_points",
    "limits.fit_minimize.calls", "limits.fit_minimize.evals", "limits.fit_minimize.restarts",
    "limits.parameter_uncertainties.calls", "limits.run_pseudo_experiments.toys",
    "spectra.predict_counts.calls", "spectra.component_bin_counts.calls",
    "spectra.simulate_spectrum.calls",
)
LAYER_BYTES = ("fileio.bytes_read", "fileio.bytes_written")
CLI_STEPS = {
    "cli.simulate.s": ("simulate_on", "simulate_off", "simulate_continuum"),
    "cli.subtract.s": ("subtract",), "cli.limit_pep.s": ("limit_pep",),
    "cli.limit_csl.s": ("limit_csl",), "cli.fit.s": ("fit",),
    "cli.project.s": ("project",), "cli.constants.s": ("constants",),
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true",
                        help="internal: prepare the workload, print 'ready' and exit")
    return parser.parse_args(argv)


def run_child(argv, env, *, ready_line=False):
    """Run argv to completion and return its wall time in seconds.

    With ready_line the time stops when the child prints its first line,
    which must read `ready`. A non-zero exit raises.
    """
    start = time.perf_counter()
    proc = subprocess.Popen(argv, env=env, stdout=subprocess.PIPE if ready_line else
                            subprocess.DEVNULL)
    try:
        if ready_line:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.stdout.read()
            proc.stdout.close()
        _, status, _ = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    if not ready_line:
        elapsed = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0 or (ready_line and line.strip() != b"ready"):
        raise RuntimeError(f"{argv} exited {proc.returncode}")
    return elapsed


def setup_seconds(args, env):
    """Median over fresh processes of start -> inputs ready, normalised.

    Each probe is normalised by the reference import process timed
    right before and right after it (calibrate.py). Returns the
    normalised and the measured median.
    """
    argv = [sys.executable, str(HERE / "run.py"), "--probe",
            "--workload", args.workload, "--seed", str(args.seed)]
    measured, normalised = [], []
    with ImportReference(env) as reference:
        for _ in range(SETUP_PROBES):
            with reference.timing() as timed:
                elapsed = run_child(argv, env, ready_line=True)
            measured.append(elapsed)
            normalised.append(elapsed * timed.scale)
    return statistics.median(normalised), statistics.median(measured)


def interpreter_metrics(env):
    """Bare interpreter start and the extra cost of importing the CLI."""
    bare = min(run_child([sys.executable, "-c", "pass"], env) for _ in range(CLI_PROBES))
    cli = min(run_child([sys.executable, "-c", "import speclimit.cli"], env)
              for _ in range(CLI_PROBES))
    return {"cli.interpreter_s": bare, "cli.import_s": cli - bare}


def op_seconds(item_times, ops_per_round):
    """Per-item minimum over rounds of the measured time, summed, per unit operation.

    Printed beside the normalised op_s for reference; not a metric.
    """
    return sum(min(ts) for ts in item_times.values()) / ops_per_round


def normalised_op_seconds(item_normalised, ops_per_round):
    """Per-item median over rounds of the normalised time, summed, per unit operation.

    Each repeat is already scaled by the calibration kernel timed
    around and during it (calibrate.py), which cancels slow phases that
    outlast the run; the median drops the odd repeat that the samples
    did not correct.
    """
    return sum(statistics.median(ts) for ts in item_normalised.values()) / ops_per_round


def run_rounds(workload, seconds, tracer, env):
    """Repeat whole rounds until the next would pass `seconds` of round time."""
    items = workload.trace_items() if tracer else workload.items()
    times = {False: defaultdict(list), True: defaultdict(list)}
    normalised = {False: defaultdict(list), True: defaultdict(list)}
    layer_rounds = []
    attempted = failed = 0
    errors, problems = [], []
    first = None
    durations = []
    while True:
        traced = tracer is not None and len(durations) % 2 == 1
        workload.before_round()
        if traced:
            tracer.reset_totals()
            tracer.keep_spans = not layer_rounds
            tracer.install()
        outputs, round_times = {}, {}
        round_start = time.perf_counter()
        with contextlib.ExitStack() as stack:
            if traced:
                stack.callback(setattr, tracer, "keep_spans", False)
                stack.callback(tracer.uninstall)
            # every operation is timed against a reference (calibrate.py):
            # fresh interpreters against a reference import, the rest
            # against the kernel
            processes = tracer is None and workload.starts_processes
            calibration = stack.enter_context(ImportReference(env) if processes else Sampler())
            for name, fn in items:
                attempted += 1
                with calibration.timing() as timed:
                    try:
                        if traced:
                            tracer.item = name
                            outputs[name] = tracer.call("op:" + name, fn)
                        else:
                            outputs[name] = fn()
                    except Exception as err:  # counted, reported, and the round goes on
                        failed += 1
                        errors.append(f"{name}: {type(err).__name__}: {err}")
                round_times[name] = timed.seconds
                normalised[traced][name].append(timed.normalised)
        durations.append(time.perf_counter() - round_start)
        for name, dt in round_times.items():
            times[traced][name].append(dt)
        if traced:
            layer_rounds.append((dict(tracer.totals), round_times))
        outputs.update(workload.round_outputs())
        if first is None:
            first = outputs
            first_failed = failed
        elif outputs != first:
            changed = sorted(k for k in first if outputs.get(k) != first[k])
            problems.append(f"round {len(durations) - 1} differs from round 0 in {changed}")
        min_rounds = workload.min_rounds if tracer is None else MIN_TRACED_ROUNDS
        if len(durations) >= min_rounds and sum(durations) + statistics.median(durations) > seconds:
            break
    return {"times": times, "normalised": normalised, "layer_rounds": layer_rounds,
            "attempted": attempted, "failed": failed, "errors": errors, "problems": problems,
            "rounds": len(durations), "first": first if not first_failed else None}


def layer_metrics(workload, run):
    ops = workload.trace_ops_per_round
    rounds = run["layer_rounds"]
    out = {}
    for name in LAYER_SECONDS:
        out[name] = (min(t.get(name, 0.0) for t, _ in rounds) / ops, "s")
    for name in LAYER_COUNTS:
        out[name] = (rounds[0][0].get(name, 0.0) / ops, "count")
    for name in LAYER_BYTES:
        out[name] = (rounds[0][0].get(name, 0.0) / ops, "B")
    for name, steps in CLI_STEPS.items():
        out[name] = (sum(min(r[step] for _, r in rounds) for step in steps if step in rounds[0][1])
                     / ops, "s")
    untraced = normalised_op_seconds(run["normalised"][False], ops)
    traced = normalised_op_seconds(run["normalised"][True], ops)
    out["trace.untraced_op_s"] = (untraced, "s")
    out["trace.op_s"] = (traced, "s")
    out["trace.overhead"] = (traced / untraced, "ratio")
    return out


def write_trace(args, tracer, run, metrics, setup_totals):
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
    payload = {
        "workload": args.workload, "seed": args.seed,
        "span_fields": ["id", "parent", "item", "name", "start_s", "end_s"],
        "spans": tracer.spans,
        "setup": setup_totals,
        "traced_rounds": [totals for totals, _ in run["layer_rounds"]],
        "metrics": {name: value for name, (value, _) in metrics.items()},
    }
    path.write_text(json.dumps(payload) + "\n")
    return path


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "speclimit" / "__init__.py").is_file():
        print(f"benchmark: no speclimit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))

    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"benchmark: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    workdir = OUT / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    workload = WORKLOADS[args.workload]()
    try:
        if args.probe:
            workload.prepare(args.seed, workdir, env)
            print("ready", flush=True)
            return 0
        if args.trace:
            from tracing import Tracer
            metrics = {name: (value, "s") for name, value in interpreter_metrics(env).items()}
            tracer = Tracer()
            tracer.install()
            tracer.keep_spans, tracer.item = True, "setup"
            try:
                tracer.call("setup", workload.prepare, args.seed, workdir, env)
            finally:
                tracer.uninstall()
                tracer.keep_spans = False
            setup_totals = dict(tracer.totals)
            run = run_rounds(workload, args.seconds, tracer, env)
            metrics.update(layer_metrics(workload, run))
            trace_path = write_trace(args, tracer, run, metrics, setup_totals)
            notes = {}
        else:
            setup_s, measured_setup_s = setup_seconds(args, env)
            workload.prepare(args.seed, workdir, env)
            run = run_rounds(workload, args.seconds, None, env)
            rss_kb = workload.peak_rss_kb() or resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            ops = workload.ops_per_round
            metrics = {"setup_s": (setup_s, "s"),
                       "op_s": (normalised_op_seconds(run["normalised"][False], ops), "s"),
                       "peak_rss_mb": (rss_kb / 1024.0, "MB")}
            # the measured figures behind the normalised ones; not metrics
            notes = {"measured setup_s (median)": (measured_setup_s, "s"),
                     "measured op_s (per-item minimum)":
                     (op_seconds(run["times"][False], ops), "s")}
        # run_rounds compared every round with the first, so the files
        # the last round left stand for the first round's
        if run["first"] is not None:  # a failed item leaves nothing to check against
            run["problems"].extend(workload.check(run["first"]))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for line in run["errors"] + run["problems"]:
        print(f"benchmark: {line}", file=sys.stderr)
    print(f"workload {args.workload}  seed {args.seed}  rounds {run['rounds']}  "
          f"attempted {run['attempted']}  failed {run['failed']}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:.6g} {unit}")
    for name, (value, unit) in notes.items():
        print(f"  ({name}: {value:.6g} {unit})")
    if args.trace:
        print(f"  spans written to {trace_path.relative_to(ROOT)}")
    result = {
        "correct": not run["problems"],
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
