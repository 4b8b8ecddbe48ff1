"""The on-disk example systems must stay in sync with the built-in ones."""

from __future__ import annotations

import json

import pytest

from helpers import FIXTURE_DIR
from hmlcause import emit_aut, parse_formula
from hmlcause.testkit import fixtures

FIX = fixtures()


def test_manifest_covers_all_fixtures():
    manifest = json.loads((FIXTURE_DIR / "manifest.json").read_text())
    assert set(manifest) == set(FIX)
    for name, entry in manifest.items():
        assert set(entry) == {"aut", "formula", "role"}
        assert entry["role"].strip()
        assert (FIXTURE_DIR / entry["aut"]).is_file()
        assert (FIXTURE_DIR / entry["formula"]).is_file()


@pytest.mark.parametrize("name", sorted(FIX))
def test_aut_file_matches_builtin(name):
    lts, _formula = FIX[name]
    assert (FIXTURE_DIR / f"{name}.aut").read_text() == emit_aut(lts)


@pytest.mark.parametrize("name", sorted(FIX))
def test_formula_file_matches_builtin(name):
    _lts, formula = FIX[name]
    text = (FIXTURE_DIR / f"{name}.formula").read_text().strip()
    assert parse_formula(text) == formula
