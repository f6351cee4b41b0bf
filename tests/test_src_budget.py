"""The package's standing budget: ``src/`` adds no settable value.

``scripts/src_budget.py`` counts the settable values of ``src/`` (argparse
options, dataclass fields and defaulted parameters); this test holds the
count at the ROADMAP's gate.
"""

import ast
import importlib.util
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MAX_SETTABLE_VALUES = 140


def _budget_script():
    spec = importlib.util.spec_from_file_location("src_budget", ROOT / "scripts" / "src_budget.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_src_holds_no_more_settable_values_than_the_gate():
    settable_values = _budget_script().settable_values
    totals = Counter()
    files = sorted((ROOT / "src").rglob("*.py"))
    for path in files:
        totals.update(settable_values(ast.parse(path.read_text(encoding="utf-8"), str(path))))
    print(f"settable values {sum(totals.values())} in {len(files)} files: {dict(totals)}")
    assert files
    assert sum(totals.values()) <= MAX_SETTABLE_VALUES, dict(totals)
