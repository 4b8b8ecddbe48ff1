"""Benchmark of hmlcause: three fixed workloads, each pass in a cold process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is corpus_laws, kill_blowup, cli_fixtures, or `all` for the three in
turn.  Each workload's inputs and their order are fixed by
its definition (see perfbench/README.md), so every seed gives the same
inputs; the seed is recorded with the results.  One run makes passes of the
whole workload, each in a fresh interpreter (perfbench/worker.py), until S
seconds are spent, and reports medians.  The first pass checks every
output; later passes must reproduce its outputs exactly.  Times on the
result line are at nominal machine speed: each operation's time is scaled by
a calibration kernel timed next to it on the same CPU (worker.speed_sample).
The whole run is pinned to one CPU so that the CLI's child processes share
it.

With --trace 0 the run prints the end-to-end metrics; with --trace 1 the
first pass records spans around every call into the package and the run
prints the per-layer metrics, plus the tracing overhead against untraced
passes.  The last stdout line is one JSON object with the keys correct,
attempted, failed and metrics.  Each run also writes its full record, with
provenance, under perfbench/out/.
"""

import argparse
import datetime
import hashlib
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
WORKER = os.path.join(HERE, "worker.py")
EXPECTED = os.path.join(HERE, "expected.json")
REQUIRED_FILES = ("src/hmlcause/__init__.py", "fixtures/manifest.json", "fixtures/t5.aut")
RUN_LIMIT_S = 170

WORKLOADS = ("corpus_laws", "kill_blowup", "cli_fixtures")
# Passes a run makes whatever --seconds says.  The tail percentile is fixed
# per workload from this minimum, so that at least TAIL_BEYOND pooled
# operations lie beyond it in every run.
MIN_PASSES = {"corpus_laws": 3, "kill_blowup": 4, "cli_fixtures": 2}
TAIL_BEYOND = 10
MIN_SETUPS = 9
# Self times are differences of the same clock readings, so they add up to
# the traced total up to float rounding.
ACCOUNTING_TOLERANCE_S = 1e-6

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "op_ms_p50": "ms",
    "op_ms_tail": "ms",
    "peak_rss_mb": "MB",
}
# The end-to-end metrics on the result line, which BENCHMARK.json bounds.
# The latency percentiles are printed but not bounded: one operation is
# scaled by only the two speed samples either side of it (see README.md).
BOUNDED = ("setup_s", "wall_s", "peak_rss_mb")
# Span names whose summed self time is reported as `<name>.s`.
LAYER_SPANS = (
    "causality.causes",
    "causality.oracle_check_cause",
    "composition.verify_disjunction_theorem",
    "composition.verify_conjunction_theorem",
    "composition.cross_check",
    "lts.interleave",
    "hml.states_satisfying",
    "testkit.corpus",
    "cli.process",
    "cli.interpreter_start",
    "cli.main",
    "lts.parse_aut",
    "hml.parse_formula",
)
LAYER_COUNTS = (
    "causality.causes.calls",
    "causality.causes.emitted",
    "causality.causes.kill_traces",
    "causality.causes.truncated",
    "causality.oracle_check_cause.calls",
    "causality.oracle_check_cause.accepted",
    "causality.oracle_check_cause.errors",
    "composition.verdicts.holds",
    "lts.interleave.calls",
    "lts.interleave.states",
    "lts.interleave.transitions",
    "computation.dlists.entries",
    "computation.kill_traces.letters",
)


class BenchError(Exception):
    pass


def run_worker(name, mode, deadline):
    """One pass in a fresh interpreter; returns its JSON record and the
    pass's elapsed time as seen from here."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, WORKER, name, mode],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=max(1.0, deadline - start))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{name} pass ({mode}) did not finish in time")
    if proc.returncode != 0:
        raise BenchError(f"{name} pass ({mode}) exited {proc.returncode}:\n{stderr[-2000:]}")
    return json.loads(stdout.splitlines()[-1]), time.perf_counter() - start


def nearest_rank(values, percent):
    ordered = sorted(values)
    return ordered[max(0, math.ceil(percent / 100 * len(ordered)) - 1)]


def tail_percent(name, ops):
    return math.floor(100 * (1 - TAIL_BEYOND / (MIN_PASSES[name] * ops)))


def measure(name, seed, seconds, trace):
    """Passes of one workload until `seconds` are spent; returns the
    result line and the full record."""
    started = time.perf_counter()
    deadline = started + seconds
    hard_deadline = started + RUN_LIMIT_S
    mode = "time,check,trace" if trace else "time,check"
    checked, elapsed = run_worker(name, mode, hard_deadline)
    plain, plain_elapsed = ([], []) if trace else ([checked], [])
    while (
        len(plain) < (1 if trace else MIN_PASSES[name])
        or time.perf_counter() + statistics.median(plain_elapsed or [elapsed]) < deadline
    ):
        record, took = run_worker(name, "time", hard_deadline)
        plain.append(record)
        plain_elapsed.append(took)
    setup_passes = list(plain)
    while len(setup_passes) < MIN_SETUPS:
        setup_passes.append(run_worker(name, "setup", hard_deadline)[0])
    setups = [p["setup_nominal_s"] for p in setup_passes]

    with open(EXPECTED, encoding="utf-8") as fh:
        known = json.load(fh)[name]["known_failures"]
    failures = checked["failures"]
    problems = [
        f"{op}: {reason}" for op, reason in sorted(failures.items()) if known.get(op) != reason
    ]
    problems += [
        f"{op}: output of a later pass differs from the checked pass"
        for p in plain
        for op, d in sorted(p["digests"].items())
        if checked["digests"][op] != d
    ]
    ops = checked["ops"]
    walls = [p["wall_s"] for p in plain]
    nominal_walls = [sum(p["op_ms_nominal"].values()) / 1000 for p in plain]
    pooled = [ms for p in plain for ms in p["op_ms_nominal"].values()]
    tail = tail_percent(name, ops)
    end_to_end = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(nominal_walls),
        "op_ms_p50": statistics.median(pooled),
        "op_ms_tail": nearest_rank(pooled, tail),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
    }
    raw = {
        "setup_s": statistics.median(p["setup_s"] for p in setup_passes),
        "wall_s": statistics.median(walls),
    }
    notes = {
        "setup_s": f"median of {len(setups)} cold set-ups; {raw['setup_s']:.4g} s as measured",
        "wall_s": f"median over passes ({len(walls)}) of {ops} operations each;"
        f" {raw['wall_s']:.4g} s as measured",
        "op_ms_p50": f"median of {len(pooled)} operations",
        "op_ms_tail": f"p{tail} of {len(pooled)} operations",
        "peak_rss_mb": "median over passes, "
        + ("largest CLI child" if name == "cli_fixtures" else "through the timed phase"),
    }
    if trace:
        metrics, trace_notes = per_layer(checked["trace"], walls)
        traced = checked["trace"]
        unaccounted = traced["timed_total_s"] - traced["accounted_s"]
        if abs(unaccounted) > ACCOUNTING_TOLERANCE_S:
            problems.append(f"self times miss {unaccounted} s of the traced total")
    else:
        metrics = {k: {"value": end_to_end[k], "unit": END_TO_END_UNITS[k]} for k in BOUNDED}
    result = {
        "correct": not problems,
        "attempted": ops,
        "failed": len(failures),
        "metrics": metrics,
    }
    record = {
        "workload": name,
        "result": result,
        "end_to_end": end_to_end,
        "as_measured": raw,
        "notes": notes,
        "failed_share": len(failures) / ops,
        "failures": failures,
        "problems": problems,
        "passes": {
            "checked": {k: v for k, v in checked.items() if k not in ("op_ms", "digests")},
            "walls_s": walls,
            "nominal_walls_s": nominal_walls,
            "setups_s": [p["setup_s"] for p in setup_passes],
            "nominal_setups_s": setups,
            "op_ms": [p["op_ms"] for p in plain],
            "kernel_s": [p["kernel_s"] for p in plain],
            "elapsed_s": [elapsed] + plain_elapsed,
        },
        "provenance": provenance(name, seed, seconds, trace),
    }
    if trace:
        record["notes"].update(trace_notes)
    return result, record


def per_layer(traced, untraced_walls):
    layers, counts = traced["layers"], traced["counts"]
    metrics = {f"{span}.s": (layers.get(span, 0.0), "s") for span in LAYER_SPANS}
    metrics["cli.import.s"] = (
        layers.get("cli.import_process", 0.0) - layers.get("cli.interpreter_start", 0.0),
        "s",
    )
    metrics.update({c: (counts.get(c, 0), "count") for c in LAYER_COUNTS})
    total = traced["timed_total_s"]
    metrics["trace.total_s"] = (total, "s")
    metrics["trace.overhead_s"] = (total - statistics.median(untraced_walls), "s")
    metrics["trace.glue_s"] = (layers.get("timed", 0.0) + layers.get("op", 0.0), "s")
    notes = {
        "trace.overhead_s": f"traced total minus median of {len(untraced_walls)} untraced walls",
        "spans": traced["spans_file"],
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, notes


def git_sha():
    try:
        proc = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True,
            text=True,
            timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = proc.stdout.split()
    if proc.returncode == 0 and len(lines) == 2 and os.path.samefile(lines[0], ROOT):
        return lines[1]
    return None


def source_sha256():
    """Digest of the package and fixtures, which identifies the code where
    the checkout is not a git repository."""
    digest = hashlib.sha256()
    for top in ("src", "fixtures"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for filename in sorted(filenames):
                path = os.path.join(dirpath, filename)
                digest.update(os.path.relpath(path, ROOT).encode() + b"\0")
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()


def provenance(name, seed, seconds, trace):
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "git_sha": git_sha(),
        "source_sha256": source_sha256(),
        "nproc": os.cpu_count(),
        "pinned_cpu": sorted(os.sched_getaffinity(0)),
        "finished_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }


def report(record):
    result = record["result"]
    print(f"workload {record['workload']}: seed {record['provenance']['seed']}")
    if record["provenance"]["trace"]:
        shown = {k: (m["value"], m["unit"]) for k, m in result["metrics"].items()}
    else:
        shown = {k: (v, END_TO_END_UNITS[k]) for k, v in record["end_to_end"].items()}
    for key, (value, unit) in shown.items():
        note = record["notes"].get(key, "")
        if not record["provenance"]["trace"] and key not in BOUNDED:
            note += " (printed, not bounded)"
        print(f"  {key:40} {value:>14.6g} {unit:6} {note}")
    share = record["failed_share"]
    print(f"  {'failed_share':40} {share:>14.6g} {'':6} {result['failed']}/{result['attempted']} operations")
    for op, reason in sorted(record["failures"].items()):
        print(f"    failed {op}: {reason}")
    for problem in record["problems"]:
        print(f"    INCORRECT {problem}")
    print(f"  provenance {json.dumps(record['provenance'])}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    missing = [p for p in REQUIRED_FILES if not os.path.isfile(os.path.join(ROOT, p))]
    if missing:
        print(f"error: not an hmlcause checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    # The machine's speed drifts per core, so calibration and work share one.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    results = {}
    os.makedirs(OUT, exist_ok=True)
    for name in names:
        try:
            result, record = measure(name, args.seed, args.seconds, bool(args.trace))
        except BenchError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        report(record)
        path = os.path.join(OUT, f"result-{name}-seed{args.seed}-trace{args.trace}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=2)
        results[name] = result
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}.{key}": metric
                for name, r in results.items()
                for key, metric in r["metrics"].items()
            },
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
