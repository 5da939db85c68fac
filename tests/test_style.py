"""Source style rules that need no linter."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MAX_LINE = 79


def _sources() -> list[Path]:
    files = sorted([*ROOT.glob("src/polygen/*.py"), *ROOT.glob("tests/*.py")])
    assert files
    return files


def test_lines_fit_in_79_columns():
    long = [f"{path.relative_to(ROOT)}:{number}"
            for path in _sources()
            for number, line in enumerate(
                path.read_text(encoding="utf-8").splitlines(), 1)
            if len(line) > MAX_LINE]
    assert not long, long


def test_no_unused_imports():
    # an __init__.py imports to re-export; __future__ imports set flags
    unused = []
    for path in _sources():
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if (not isinstance(node, (ast.Import, ast.ImportFrom))
                    or getattr(node, "module", None) == "__future__"):
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in used:
                    unused.append(
                        f"{path.relative_to(ROOT)}:{node.lineno} {name}")
    assert not unused, unused
