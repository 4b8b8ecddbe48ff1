"""The on-disk example systems are the only copy, kept in canonical form."""

from __future__ import annotations

import json

import pytest

from helpers import FIXTURE_DIR, FIXTURE_NAMES
from hmlcause import emit_aut, format_formula, parse_aut, parse_formula


def test_manifest_covers_all_fixtures():
    manifest = json.loads((FIXTURE_DIR / "manifest.json").read_text())
    assert sorted(manifest) == FIXTURE_NAMES
    for name, entry in manifest.items():
        assert set(entry) == {"aut", "formula", "role"}
        assert entry["role"].strip()
        assert (FIXTURE_DIR / entry["aut"]).is_file()
        assert (FIXTURE_DIR / entry["formula"]).is_file()


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_aut_file_matches_builtin(name):
    """The file is what the built-in emitter writes for the system it holds."""
    text = (FIXTURE_DIR / f"{name}.aut").read_text()
    assert emit_aut(parse_aut(text)) == text


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_formula_file_matches_builtin(name):
    """The file is what the built-in formatter writes for the effect it holds."""
    text = (FIXTURE_DIR / f"{name}.formula").read_text()
    assert format_formula(parse_formula(text)) == text.strip()
