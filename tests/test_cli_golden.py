"""CLI output on every manifest fixture, compared byte for byte with
recorded goldens.

The goldens in tests/golden/ were recorded before the cause engine was
restructured.  Each fixture is run with `--bound` equal to its state count,
which is the default bound, so no cycle note is printed.
"""

from __future__ import annotations

import json

import pytest

from helpers import FIXTURE_DIR, ROOT
from hmlcause import parse_aut
from hmlcause.cli import main

GOLDEN_DIR = ROOT / "tests" / "golden"
MANIFEST = json.loads((FIXTURE_DIR / "manifest.json").read_text(encoding="utf-8"))
EXIT_CODES = json.loads((GOLDEN_DIR / "exit_codes.json").read_text(encoding="utf-8"))
COMMANDS = {
    "causes.json": ("causes", "--format", "json"),
    "causes.txt": ("causes",),
    "project.aut": ("project",),
}


@pytest.mark.parametrize("suffix", sorted(COMMANDS))
@pytest.mark.parametrize("name", sorted(MANIFEST))
def test_cli_output_matches_golden(capsys, name, suffix):
    entry = MANIFEST[name]
    aut = FIXTURE_DIR / entry["aut"]
    bound = len(parse_aut(aut.read_text(encoding="utf-8")).states)
    command, *options = COMMANDS[suffix]
    argv = [command, str(aut), str(FIXTURE_DIR / entry["formula"])]
    code = main(argv + ["--bound", str(bound), *options])
    captured = capsys.readouterr()
    golden = f"{name}.{suffix}"
    assert code == EXIT_CODES[golden]
    assert captured.err == ""
    assert captured.out.encode("utf-8") == (GOLDEN_DIR / golden).read_bytes()
