"""Rewrite the golden digests in perfbench/expected.json from the package
as it is now.

    python3 perfbench/record_golden.py

A golden digest pins one operation's complete output (cause sets with kill
traces, extension lists and truncation flags; law reports; lemma and oracle
results), so a change that drops or alters a cause fails the benchmark even
where the oracle, which checks only soundness, would accept it.  Run this
only when a change is meant to alter that output.  The known failures in
the same file are written by hand and left untouched.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED = os.path.join(HERE, "expected.json")
GOLDEN_WORKLOADS = ("corpus_laws",)


def main():
    with open(EXPECTED, encoding="utf-8") as fh:
        expected = json.load(fh)
    for name in GOLDEN_WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py"), name, "time"],
            capture_output=True,
            text=True,
            check=True,
        )
        digests = json.loads(proc.stdout.splitlines()[-1])["digests"]
        expected[name]["golden"] = dict(sorted(digests.items()))
    with open(EXPECTED, "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=2)
        fh.write("\n")


if __name__ == "__main__":
    main()
