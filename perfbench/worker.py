"""One cold pass of one benchmark workload.

    python3 perfbench/worker.py WORKLOAD MODE

MODE is `setup` (import and build the inputs, then stop) or a
comma-separated subset of `time`, `check` and `trace`:

- `time` runs every operation of the workload once, in the workload's fixed
  order, timing each with nothing else in the timed region.  Between
  operations, outside their timers, an untraced pass times a fixed
  calibration kernel, and reports every time also at nominal machine speed
  (see `speed_sample`);
- `check` afterwards runs the reference checks (the oracle, closed forms,
  golden digests, library output for the CLI) outside the timed region;
- `trace` records a span around every call the benchmark makes into the
  package and writes the spans to `perfbench/out/` at the end.

The pass prints one JSON object on its last stdout line.  perfbench/run.py
starts a fresh interpreter for every pass, because the package's
module-level caches would otherwise turn a second pass into cache hits.
"""

import time

START = time.perf_counter()

import contextlib
import hashlib
import io
import itertools
import json
import os
import resource
import statistics
import subprocess
import sys
from collections import Counter
from typing import Callable, NamedTuple, Optional

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, "perfbench", "out")
EXPECTED = os.path.join(ROOT, "perfbench", "expected.json")
sys.path.insert(0, SRC)

from hmlcause import (  # noqa: E402
    And,
    EffectContext,
    Or,
    causal_projection,
    causes,
    choice,
    cross_check_disjunction_lifting,
    cross_check_single_component,
    emit_aut,
    emit_dot,
    interleave,
    make_lts,
    oracle_check_cause,
    parse_aut,
    parse_formula,
    satisfies,
    states_satisfying,
    verify_conjunction_theorem,
    verify_disjunction_theorem,
)
from hmlcause.cli import main as cli_main  # noqa: E402
from hmlcause.testkit import corpus  # noqa: E402

CLI_ENV = dict(
    os.environ,
    PYTHONPATH=os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH")))),
)
CLI_TIMEOUT_S = 60


class Tracer:
    """Spans around the benchmark's own calls into the package.

    A span is [name, start, end, parent index, operation id].  When the
    tracer is disabled `call` is a plain call and `count` does nothing, so
    the untraced timed region holds only the package's work.
    """

    def __init__(self, enabled):
        self.enabled = enabled
        self.spans = []
        self.counts = Counter()
        self.op = None
        self._stack = []

    def call(self, name, fn, *args):
        if not self.enabled:
            return fn(*args)
        parent = self._stack[-1] if self._stack else None
        span = [name, time.perf_counter(), None, parent, self.op]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            return fn(*args)
        finally:
            self._stack.pop()
            span[2] = time.perf_counter()

    def count(self, name, n=1):
        if self.enabled:
            self.counts[name] += n

    def self_times(self):
        """Each span's duration minus the time its child spans cover."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                own[parent] -= end - start
        return own


# --- calls shared by the workloads -----------------------------------------


def query_causes(tr, ctx, k):
    cause_set = tr.call("causality.causes", causes, ctx, k)
    if tr.enabled:
        tr.count("causality.causes.calls")
        for report in cause_set.causes:
            tr.count("causality.causes.emitted")
            tr.count("causality.causes.kill_traces", len(report.kill_traces))
            tr.count("causality.causes.truncated", int(report.computation.truncated))
            tr.count(
                "computation.dlists.entries",
                sum(len(dl) for dl in report.computation.dlists),
            )
            tr.count(
                "computation.kill_traces.letters",
                sum(len(w) for w in report.kill_traces),
            )
    return cause_set


def build_product(tr, left, right):
    product = tr.call("lts.interleave", interleave, left, right)
    tr.count("lts.interleave.calls")
    tr.count("lts.interleave.states", len(product.states))
    tr.count("lts.interleave.transitions", len(product.transitions))
    return product


def oracle_verdict(tr, ctx, report, k):
    """None when the oracle confirms the cause, else the failure reason."""
    tr.count("causality.oracle_check_cause.calls")
    try:
        ok = tr.call(
            "causality.oracle_check_cause",
            oracle_check_cause,
            ctx,
            report.computation,
            k,
        )
    except Exception as exc:  # a check that raises is a counted failure
        tr.count("causality.oracle_check_cause.errors")
        return f"oracle raised {type(exc).__name__}"
    if not ok:
        return "oracle rejected an emitted cause"
    tr.count("causality.oracle_check_cause.accepted")
    return None


def cause_set_json(cause_set):
    data = cause_set.to_json()
    data["truncated"] = [r.computation.truncated for r in cause_set.causes]
    return data


def digest(value):
    text = json.dumps(value, sort_keys=True, default=str)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def first_failure(reasons):
    return next((r for r in reasons if r is not None), None)


def golden_reason(expected, op_id, value):
    if expected["golden"].get(op_id) != digest(value):
        return "output differs from its golden digest"
    return None


# --- corpus_laws: criterion 10, the paper's reproduction run -----------------


def laws_setup(tr):
    instances = tr.call("testkit.corpus", lambda: list(corpus(200, seed=7)))
    return [(f"i{inst.index}", inst) for inst in instances]


def laws_op(tr, inst):
    """Both laws, both lemma cross-checks and the oracle on every cause of
    the four contexts, with the engine called first so that its spans hold
    the cold cause computations."""
    left, right, k = inst.left, inst.right, inst.bound
    product = build_product(tr, left.lts, right.lts)
    contexts = (
        left,
        right,
        EffectContext(product, Or(left.formula, right.formula)),
        EffectContext(product, And(left.formula, right.formula)),
    )
    for ctx in contexts:
        tr.call("hml.states_satisfying", states_satisfying, ctx.lts, ctx.formula)
    sets = [query_causes(tr, ctx, k) for ctx in contexts]
    theorems = [
        tr.call(f"composition.{verify.__name__}", verify, left, right, k)
        for verify in (verify_disjunction_theorem, verify_conjunction_theorem)
    ]
    for report in theorems:
        tr.count("composition.verdicts.holds", int(report.verdict == "holds"))
    lemmas = [
        tr.call("composition.cross_check", check, left, right, k)
        for check in (cross_check_disjunction_lifting, cross_check_single_component)
    ]
    oracle = [
        oracle_verdict(tr, ctx, report, k)
        for ctx, cause_set in zip(contexts, sets)
        for report in cause_set.causes
    ]
    return sets, theorems, lemmas, oracle


def laws_summary(out):
    sets, theorems, lemmas, oracle = out
    return {
        "causes": [cause_set_json(s) for s in sets],
        "theorems": [r.to_json() for r in theorems],
        "lemmas": [[c.ok, c.detail] for c in lemmas],
        "oracle": oracle,
    }


def laws_check(tr, op_id, inst, out, expected):
    _, theorems, lemmas, oracle = out
    reasons = [
        f"{r.theorem} law verdict is {r.verdict}"
        for r in theorems
        if r.verdict != "holds"
    ]
    reasons += [
        f"{name} lemma violated"
        for name, check in zip(("lifting", "single-component"), lemmas)
        if not check.ok
    ]
    reasons += oracle
    reasons.append(golden_reason(expected, op_id, laws_summary(out)))
    return first_failure(reasons)


# --- kill_blowup: cyclic systems, truncation and 2^k - 1 kill traces ---------

LOOP_BOUNDS = range(4, 16)
T5_BOUNDS = (64, 256, 1200)


def kill_setup(tr):
    effect = tr.call("hml.parse_formula", parse_formula, "<h>tt")
    loop = make_lts(
        "s0",
        [("s0", "a", "s1"), ("s1", "i", "s1"), ("s1", "j", "s1"), ("s1", "h", "s2")],
    )
    with open(os.path.join(ROOT, "fixtures", "t5.aut"), encoding="utf-8") as fh:
        t5 = tr.call("lts.parse_aut", parse_aut, fh.read())
    ops = [(f"loop.k{k}", ("ij", EffectContext(loop, effect), k)) for k in LOOP_BOUNDS]
    ops += [(f"t5.k{k}", ("i", EffectContext(t5, effect), k)) for k in T5_BOUNDS]
    return ops


def kill_op(tr, payload):
    _, ctx, k = payload
    tr.call("hml.states_satisfying", states_satisfying, ctx.lts, ctx.formula)
    return query_causes(tr, ctx, k)


def closed_form_kills(loop_labels, k):
    """a, then fewer than k letters of the loop, then h."""
    return frozenset(
        ("a",) + middle + ("h",)
        for j in range(k)
        for middle in itertools.product(loop_labels, repeat=j)
    )


def kill_check(tr, op_id, payload, cause_set, expected):
    loop_labels, ctx, k = payload
    if len(cause_set.causes) != 1:
        return f"expected one cause, got {len(cause_set.causes)}"
    report = cause_set.causes[0]
    if report.computation.labels != ("a",):
        return "cause core is not a"
    if report.kill_traces != closed_form_kills(tuple(loop_labels), k):
        return "kill set differs from its closed form"
    if not report.computation.truncated:
        return "cause on a cyclic system is not marked truncated"
    return oracle_verdict(tr, ctx, report, k)


# --- cli_fixtures: the command line as users run it --------------------------

PAIR = ("fig3_t", "fig3_tp")


def fixture(name, ext):
    return os.path.join("fixtures", f"{name}.{ext}")


def cli_setup(tr):
    with open(os.path.join(ROOT, "fixtures", "manifest.json"), encoding="utf-8") as fh:
        names = sorted(json.load(fh))
    ops = []
    for name in names:
        aut, formula = fixture(name, "aut"), fixture(name, "formula")
        ops += [
            (f"check {name}", ("check", aut, formula)),
            (f"causes {name}", ("causes", aut, formula)),
            (f"causes-json {name}", ("causes", aut, formula, "--format", "json")),
            (f"project {name}", ("project", aut, formula)),
            (f"dot {name}", ("dot", aut)),
        ]
    pair = tuple(fixture(n, "aut") for n in PAIR)
    pair_formulas = tuple(fixture(n, "formula") for n in PAIR)
    for theorem in ("disjunction", "conjunction", "lemmas"):
        ops.append(
            (f"verify {theorem}", ("verify", "--theorem", theorem) + pair + pair_formulas)
        )
    for operator in ("interleave", "choice"):
        ops.append((f"compose {operator}", ("compose", operator) + pair))
    return ops


def run_python(*args):
    proc = subprocess.run(
        [sys.executable, *args],
        cwd=ROOT,
        env=CLI_ENV,
        capture_output=True,
        text=True,
        timeout=CLI_TIMEOUT_S,
    )
    return proc.returncode, proc.stdout


def cli_op(tr, argv):
    return tr.call("cli.process", run_python, "-m", "hmlcause", *argv)


def load_lts(tr, path):
    with open(os.path.join(ROOT, path), encoding="utf-8") as fh:
        return tr.call("lts.parse_aut", parse_aut, fh.read())


def load_formula(tr, path):
    with open(os.path.join(ROOT, path), encoding="utf-8") as fh:
        return tr.call("hml.parse_formula", parse_formula, fh.read().strip())


def exit_reason(code, want):
    return None if code == want else f"exit code {code} where the library says {want}"


def exact_reason(code, stdout, reference):
    """The command must succeed and print exactly the library's rendering."""
    if code != 0:
        return exit_reason(code, 0)
    if stdout != reference:
        return "stdout differs from the library's rendering"
    return None


def cli_check(tr, op_id, argv, out, expected):
    """Compare one invocation with the library's answer for it, loaded
    through the parsers the CLI itself uses."""
    code, stdout = out
    if code not in (0, 1, 2):
        return f"exit code {code} is outside the 0/1/2 contract"
    command = argv[0]
    if command == "verify":
        return cli_verify_check(tr, argv, code)
    if command == "compose":
        left, right = load_lts(tr, argv[2]), load_lts(tr, argv[3])
        if argv[1] == "interleave":
            combined = build_product(tr, left, right)
        else:
            combined = choice(left, right)
        return exact_reason(code, stdout, emit_aut(combined))
    lts = load_lts(tr, argv[1])
    if command == "dot":
        return exact_reason(code, stdout, emit_dot(lts) + "\n")
    formula = load_formula(tr, argv[2])
    if command == "check":
        return exit_reason(code, 0 if satisfies(lts, lts.initial, formula) else 1)
    ctx = EffectContext(lts, formula)
    k = len(lts.states)  # the CLI's default bound
    if command == "project":
        try:
            parse_aut(stdout)
        except ValueError:
            return "project output does not re-parse as AUT"
        return exact_reason(code, stdout, emit_aut(causal_projection(ctx, k)))
    cause_set = query_causes(tr, ctx, k)
    reasons = [exit_reason(code, 0 if cause_set.causes else 1)]
    if "json" in argv:
        try:
            parsed = json.loads(stdout)
        except ValueError:
            return "causes --format json output is not JSON"
        if parsed != json.loads(json.dumps(cause_set.to_json())):
            reasons.append("causes --format json differs from CauseSet.to_json()")
    reasons += [oracle_verdict(tr, ctx, r, k) for r in cause_set.causes]
    return first_failure(reasons)


def cli_verify_check(tr, argv, code):
    theorem, left, right = argv[2], load_lts(tr, argv[3]), load_lts(tr, argv[4])
    left_ctx = EffectContext(left, load_formula(tr, argv[5]))
    right_ctx = EffectContext(right, load_formula(tr, argv[6]))
    k = len(build_product(tr, left, right).states)  # the CLI's default bound
    if theorem == "lemmas":
        ok = all(
            tr.call("composition.cross_check", check, left_ctx, right_ctx, k).ok
            for check in (cross_check_disjunction_lifting, cross_check_single_component)
        )
    else:
        verify = (
            verify_disjunction_theorem
            if theorem == "disjunction"
            else verify_conjunction_theorem
        )
        report = tr.call(f"composition.{verify.__name__}", verify, left_ctx, right_ctx, k)
        ok = report.verdict == "holds"
        tr.count("composition.verdicts.holds", int(ok))
    return exit_reason(code, 0 if ok else 1)


def cli_probe(tr, ops):
    """Split one invocation's cost: a bare interpreter, an interpreter that
    only imports the CLI, and the CLI's `main` called in this process."""
    for op_id, argv in ops:
        tr.op = op_id
        tr.call("cli.interpreter_start", run_python, "-c", "pass")
        tr.call("cli.import_process", run_python, "-c", "import hmlcause.cli")
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            tr.call("cli.main", cli_main, list(argv))
    tr.op = None


# --- machine speed --------------------------------------------------------------
#
# A shared machine runs this interpreter at a speed that changes by up to
# about 1.7x from one second to the next, with other tenants' load on the
# same core.  A fixed pure-Python kernel, timed on the same CPU next to every
# operation, measures that speed; each time is also reported scaled to the
# kernel's nominal time.  The kernel touches only one small dict and ints, so
# neither the package's heap nor the garbage collector changes its cost.

CAL_ITERATIONS = 10000
CAL_REPEATS = 3
# About the kernel's median time on the 2-vCPU machine (Xeon, Python 3.11.7)
# the bounds were set on; a fixed scale, not a measurement.
CAL_NOMINAL_S = 0.002
SETUP_SAMPLES = 5


def calibration_kernel():
    counts = {}
    for i in range(CAL_ITERATIONS):
        counts[i % 1000] = counts.get(i % 1000, 0) + i


def speed_sample():
    """The kernel's median time over a few runs, in seconds."""
    times = []
    for _ in range(CAL_REPEATS):
        start = time.perf_counter()
        calibration_kernel()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def at_nominal_speed(seconds, kernel_s):
    return seconds * CAL_NOMINAL_S / kernel_s


# --- one pass ------------------------------------------------------------------


class Workload(NamedTuple):
    setup: Callable  # (tracer) -> [(operation id, payload)]
    op: Callable  # (tracer, payload) -> output; the timed work
    summary: Callable  # output -> JSON value that the pass digests
    check: Callable  # (tracer, id, payload, output, expected) -> reason or None
    rss_of_children: bool = False
    probe: Optional[Callable] = None  # (tracer, operations), traced passes only


WORKLOADS = {
    "corpus_laws": Workload(laws_setup, laws_op, laws_summary, laws_check),
    "kill_blowup": Workload(kill_setup, kill_op, cause_set_json, kill_check),
    "cli_fixtures": Workload(
        cli_setup, cli_op, list, cli_check, rss_of_children=True, probe=cli_probe
    ),
}


def peak_rss_mb(of_children):
    who = resource.RUSAGE_CHILDREN if of_children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024  # ru_maxrss is in KiB


def time_ops(tr, workload, ops, calibrate):
    """Runs the operations in order.  With `calibrate`, also returns a
    speed sample before the first operation and after each one."""
    outputs, op_ms, kernel_s = {}, {}, []
    for op_id, payload in ops:
        if calibrate:
            kernel_s.append(speed_sample())
        tr.op = op_id
        start = time.perf_counter()
        try:
            outputs[op_id] = tr.call("op", workload.op, tr, payload)
        except Exception as exc:  # an operation that raises is a counted failure
            outputs[op_id] = exc
        op_ms[op_id] = (time.perf_counter() - start) * 1000
    if calibrate:
        kernel_s.append(speed_sample())
    tr.op = None
    return outputs, op_ms, kernel_s


def check_ops(tr, workload, ops, outputs, expected):
    failures = {}
    for op_id, payload in ops:
        out = outputs[op_id]
        if isinstance(out, Exception):
            reason = f"operation raised {type(out).__name__}"
        else:
            tr.op = op_id
            reason = workload.check(tr, op_id, payload, out, expected)
        if reason is not None:
            failures[op_id] = reason
    tr.op = None
    return failures


def trace_summary(tr, timed_root):
    """Self time per span name, and how much of the timed phase the spans
    under it account for."""
    own = tr.self_times()
    roots = []
    layers = Counter()
    accounted = 0.0
    for i, ((name, _, _, parent, _), t) in enumerate(zip(tr.spans, own)):
        roots.append(i if parent is None else roots[parent])
        layers[name] += t
        if roots[i] == timed_root:
            accounted += t
    _, start, end, _, _ = tr.spans[timed_root]
    return {
        "layers": dict(layers),
        "counts": dict(tr.counts),
        "timed_total_s": end - start,
        "accounted_s": accounted,
    }


def write_spans(tr, path):
    os.makedirs(OUT, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for (name, start, end, parent, op), own in zip(tr.spans, tr.self_times()):
            record = {"name": name, "start": start, "end": end, "parent": parent}
            record.update(op=op, self=own)
            fh.write(json.dumps(record) + "\n")


def run_pass(name, mode):
    workload = WORKLOADS[name]
    tr = Tracer("trace" in mode)
    ops = tr.call("setup", workload.setup, tr)
    result = {"setup_s": time.perf_counter() - START, "ops": len(ops)}
    # Calibration would add to a traced pass's total, so it runs untraced.
    calibrate = not tr.enabled
    if calibrate:
        setup_kernel_s = statistics.median(speed_sample() for _ in range(SETUP_SAMPLES))
        result["setup_nominal_s"] = at_nominal_speed(result["setup_s"], setup_kernel_s)
    if "time" not in mode:
        return result
    timed_root = len(tr.spans)
    outputs, op_ms, kernel_s = tr.call("timed", time_ops, tr, workload, ops, calibrate)
    result["wall_s"] = sum(op_ms.values()) / 1000
    result["peak_rss_mb"] = peak_rss_mb(workload.rss_of_children)
    result["op_ms"] = op_ms
    if calibrate:
        # Each operation is scaled by the mean of the samples either side of it.
        result["op_ms_nominal"] = {
            op_id: at_nominal_speed(ms, (before + after) / 2)
            for (op_id, ms), before, after in zip(op_ms.items(), kernel_s, kernel_s[1:])
        }
        result["kernel_s"] = kernel_s
    result["digests"] = {
        op_id: digest(type(out).__name__ if isinstance(out, Exception) else workload.summary(out))
        for op_id, out in outputs.items()
    }
    if "check" in mode:
        with open(EXPECTED, encoding="utf-8") as fh:
            expected = json.load(fh)[name]
        result["failures"] = tr.call(
            "check", check_ops, tr, workload, ops, outputs, expected
        )
    if tr.enabled:
        if workload.probe is not None:
            tr.call("probe", workload.probe, tr, ops)
        result["trace"] = trace_summary(tr, timed_root)
        spans_path = os.path.join(OUT, f"spans-{name}.jsonl")
        write_spans(tr, spans_path)
        result["trace"]["spans_file"] = os.path.relpath(spans_path, ROOT)
    return result


if __name__ == "__main__":
    name, mode = sys.argv[1], set(sys.argv[2].split(","))
    print(json.dumps(run_pass(name, mode)))
