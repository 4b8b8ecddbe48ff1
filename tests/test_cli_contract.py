"""The CLI's exit-code contract on hostile inputs: each run exits 0, 1 or 2,
prints no traceback, and leaves stdout either empty or holding a complete
answer.

Each input runs in a child process of `python -m hmlcause` with its address
space limited to MEMORY_LIMIT, set in `preexec_fn`, which acts on that
child only, and is killed after TIMEOUT_S seconds.  The loop at bound 20
has more kill words than fit in the limit: `causes` spells them only as
its output is built, so the run ends with `error: out of memory`, exit 2
and nothing on stdout.  An input that breaks the contract today, a cyclic
system at a bound of 10**18 whose cause leaves a loop open, stays on the
list as a strict expected failure, with the reason, until it is mended.
"""

from __future__ import annotations

import json
import resource
import subprocess
import sys

import pytest

from helpers import FIXTURE_DIR, child_env
from hmlcause.hml import MAX_FORMULA_DEPTH

MEMORY_LIMIT = 300 << 20
TIMEOUT_S = 4
HUGE_BOUND = str(10**18)
T4 = str(FIXTURE_DIR / "t4.aut")

AUT = {
    "huge": "des (0,0,100000000)\n",
    "mismatch": 'des (0,2,2)\n(0,"a",1)\n',
    "reserved": 'des (0,1,2)\n(0,"a<",1)\n',
    # the kill_blowup loop: 2^k - 1 kill words for <h>tt at bound k
    "loop": 'des (0,4,3)\n(0,"a",1)\n(1,"i",1)\n(1,"j",1)\n(1,"h",2)\n',
    # a loop at the initial state and one way out of it
    "spin": 'des (0,2,2)\n(0,"a",0)\n(0,"b",1)\n',
}

HUGE_BOUND_SPINS = (
    "state 0 reaches the effect only through b, and every such extension "
    "of a^n embeds the cause b; so each a^n fails AC1 and is extended, and "
    "the level loop runs once per unit of a bound of 10**18"
)


def known_failure(argv, reason):
    return pytest.param(
        argv, marks=pytest.mark.xfail(strict=True, raises=AssertionError, reason=reason)
    )


CASES = {
    "depth-limit": ["check", T4, "!" * MAX_FORMULA_DEPTH + "tt"],
    "huge-state-count": ["check", "huge", "tt"],
    "count-mismatch": ["check", "mismatch", "tt"],
    "reserved-label": ["dot", "reserved"],
    "quoted-formula": ["causes", T4, '<"h">tt'],
    "huge-bound-acyclic": ["causes", T4, "<h>tt", "--bound", HUGE_BOUND],
    "huge-bound-acyclic-json": [
        "causes", T4, "<h>tt", "--bound", HUGE_BOUND, "--format", "json",
    ],
    "loop-out-of-memory": ["causes", "loop", "<h>tt", "--bound", "20"],
    "loop-out-of-memory-json": [
        "causes", "loop", "<h>tt", "--bound", "20", "--format", "json",
    ],
    "huge-bound-cyclic-no-cause": [
        "causes", "spin", "<b><a>tt", "--bound", HUGE_BOUND,
    ],
    "huge-bound-cyclic-cause": known_failure(
        ["causes", "spin", "[a]ff", "--bound", HUGE_BOUND], HUGE_BOUND_SPINS
    ),
}


def limit_memory() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT, MEMORY_LIMIT))


def complete(argv, out: str) -> bool:
    """Whether out is a whole answer of the command argv: a JSON document,
    or text ending in a newline whose last line, for `causes`, is a cause
    or says there is none."""
    if "json" in argv:
        try:
            json.loads(out)
        except ValueError:
            return False
        return True
    last = out.splitlines()[-1]
    if argv[0] == "causes" and not (last == "no causes" or last.startswith("cause ")):
        return False
    return out.endswith("\n")


@pytest.mark.parametrize("argv", list(CASES.values()), ids=list(CASES))
def test_hostile_input_keeps_the_exit_code_contract(argv, tmp_path):
    for name, text in AUT.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    try:
        result = subprocess.run(
            [sys.executable, "-m", "hmlcause", *argv],
            capture_output=True,
            text=True,
            cwd=str(tmp_path),
            env=child_env(),
            preexec_fn=limit_memory,
            timeout=TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        result = None
    assert result is not None, f"still running after {TIMEOUT_S} s"
    assert result.returncode in (0, 1, 2), result.stderr
    assert "Traceback" not in result.stderr, result.stderr
    assert not result.stdout or complete(argv, result.stdout), result.stdout
