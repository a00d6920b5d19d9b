"""The mutants of `tools/mutants.py` still apply to the source they mutate.

The tool reports a mutant whose text does not match its file exactly once,
but it is run by hand; this check keeps a refactor from leaving a mutant
behind unnoticed.
"""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_every_mutant_matches_its_file_exactly_once():
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
    mutants = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mutants)
    counts = {
        what: (ROOT / "src" / "tacpush" / name).read_text().count(text)
        for what, name, text, _ in mutants.MUTANTS
    }
    assert len(counts) == len(mutants.MUTANTS)
    assert {what: n for what, n in counts.items() if n != 1} == {}
