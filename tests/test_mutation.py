"""Source edits that the identity catalog must catch.

Each entry edits one file of a copy of ``src/polygen`` and names checks
that must fail against the edited copy, each run as ``python -m polygen
check --id ...`` in a child process; the unedited copy must pass them.
A fault the catalog misses would let both routes agree on a wrong value
(DeMillo, Lipton and Sayward, "Hints on Test Data Selection", IEEE
Computer 11(4), 1978).
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "polygen"

#: (file, text, its replacement, checks that must fail)
MUTATIONS = [
    # i*i = +1: the sign of the i^2 rewrite in exact._normal
    ("exact.py", "get(k ^ _I2, 0) - num.pop(k)",
     "get(k ^ _I2, 0) + num.pop(k)",
     ("lemma1", "k-decomposition", "n-hypergeom-0f1")),
    # the printed numerator 1 - 2xt of the first-kind Dickson series
    ("genfun.py", "{0: 2, 1: -X}", "{0: 1, 1: X * -2}",
     ("dickson-gf-discrepancy",)),
    # the Gould-Hopper closed form without its n! scale
    ("closedform.py",
     "Fraction(math.factorial(n),\n" + " " * 25 + "math.factorial(n - j * s)",
     "Fraction(1,\n" + " " * 25 + "math.factorial(n - j * s)",
     ("gould-hopper-discrepancy",)),
    # the first-kind Dickson start value D_0 = 1 in place of 2
    ("closedform.py", "(MultiPoly.const(2), _ONE)",
     "(MultiPoly.const(1), _ONE)", ("dickson-relation-discrepancy",)),
    # conjugation as the identity: CPoly.conj keeps the sign of i-terms
    ("exact.py", "{k: -v if k & _I else v for", "{k: v for",
     ("nk1", "nk2")),
    # frak_h, which keeps no cache, with its cosine and sine sides swapped
    ("closedform.py", '"CS"[_choice(kind, (1, 2))]',
     '"SC"[_choice(kind, (1, 2))]', ("thm-2-3", "thm-2-4")),
    # a product by an int that cancels nothing: the right value, not in
    # lowest terms, so it no longer equals its canonical form
    ("exact.py", "g = math.gcd(self.den, p)", "g = 1",
     ("lemma1", "nk3", "bernl-reduction")),
]


def _check(root: Path, check_id: str) -> int:
    env = {**os.environ, "PYTHONPATH": str(root)}
    return subprocess.run(
        [sys.executable, "-m", "polygen", "check", "--id", check_id,
         "--n-max", "4"],
        cwd=root, env=env, capture_output=True, timeout=300).returncode


@pytest.mark.parametrize("name, text, replacement, check_ids", MUTATIONS)
def test_catalog_catches_mutation(tmp_path, name, text, replacement,
                                  check_ids):
    shutil.copytree(SRC, tmp_path / "polygen",
                    ignore=shutil.ignore_patterns("__pycache__"))
    assert [_check(tmp_path, c) for c in check_ids] == [0] * len(check_ids)
    path = tmp_path / "polygen" / name
    source = path.read_text(encoding="utf-8")
    assert source.count(text) == 1
    path.write_text(source.replace(text, replacement), encoding="utf-8")
    assert [_check(tmp_path, c) for c in check_ids] == [1] * len(check_ids)
