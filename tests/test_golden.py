"""Golden reports: every report of ``scripts/golden.py``'s commands is
byte-identical to the one committed under ``tests/golden``.

A mismatch prints a unified diff, the rows of a report that moved, and
any fact of this machine that differs from the one that wrote the goldens.
"""

import difflib
import importlib.util
import json
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "golden.py"
_spec = importlib.util.spec_from_file_location("golden", _SCRIPT)
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)
FACTS = json.loads((golden.GOLDEN / "manifest.json").read_text(encoding="utf-8"))


def _facts_that_differ() -> list:
    now = golden.facts()
    out = []
    for key in sorted(set(now) | set(FACTS)):
        a, b = FACTS.get(key), now.get(key)
        if key == "cpu_flags" and a is not None and b is not None and a != b:
            out.append(f"cpu_flags: only then {sorted(set(a) - set(b))}, "
                       f"only now {sorted(set(b) - set(a))}")
        elif a != b:
            out.append(f"{key}: {a!r} then, {b!r} now")
    return out


def _rows_that_moved(expected: str, got: str) -> list:
    # The check names, or row positions, whose fields differ in a JSON report.
    try:
        old, new = json.loads(expected), json.loads(got)
    except ValueError:
        return []
    moved = []
    for key in ("checks", "rows"):
        pairs = zip(old.get(key, []), new.get(key, []))
        moved += [row_a.get("check_name", f"{key}[{i}]")
                  for i, (row_a, row_b) in enumerate(pairs) if row_a != row_b]
    return moved


@pytest.mark.parametrize("name", sorted(golden.CASES))
def test_report_is_byte_identical(name):
    expected = (golden.GOLDEN / name).read_bytes().decode("utf-8")
    code, got = golden.render(golden.CASES[name])
    if got != expected:
        diff = "".join(difflib.unified_diff(
            expected.splitlines(keepends=True), got.splitlines(keepends=True),
            f"golden/{name}", "now"))
        pytest.fail(
            f"ntglab {' '.join(golden.CASES[name])} no longer writes golden/{name}\n"
            f"rows that moved: {_rows_that_moved(expected, got)}\n"
            f"facts that differ from the manifest: {_facts_that_differ() or 'none'}\n"
            f"{diff}"
            "If the change is meant, rerun scripts/golden.py and say why in CHANGES.md.")
    assert code == 0
