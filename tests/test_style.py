"""Source style rules that need no linter."""

from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MAX_LINE = 79


def test_lines_fit_in_79_columns():
    files = sorted([*ROOT.glob("src/polygen/*.py"), *ROOT.glob("tests/*.py")])
    assert files
    long = [f"{path.relative_to(ROOT)}:{number}"
            for path in files
            for number, line in enumerate(
                path.read_text(encoding="utf-8").splitlines(), 1)
            if len(line) > MAX_LINE]
    assert not long, long
