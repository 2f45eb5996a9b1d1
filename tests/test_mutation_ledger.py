"""The mutation ledger stays in step with src/: every mutant still applies."""

import importlib.util
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location(
    "mutation_ledger", REPO_ROOT / "scripts" / "mutation_ledger.py")
ledger = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ledger)


@pytest.mark.parametrize("file, text, replacement, killer", ledger.MUTANTS,
                         ids=[row[3].split("::")[1] for row in ledger.MUTANTS])
def test_each_mutant_text_occurs_once_and_names_a_test(file, text, replacement, killer):
    assert (ledger.SRC / file).read_text().count(text) == 1
    assert replacement != text
    test_file, name = killer.split("::")
    assert f"def {name.split('[')[0]}(" in (REPO_ROOT / test_file).read_text()
