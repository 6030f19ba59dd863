"""Byte-for-byte comparison of command-line output with committed golden files.

The files under ``tests/golden/`` hold the output of ``verify all --seed 7``,
the ``verify duality`` JSON, with ``timingsSeconds`` removed, on the four
instances of the benchmark's ``duality`` workload at q0 = 5/3, and the
``matrix --generators`` JSON of four generator products on mixed boundaries
(divided powers of level two and three, ``K'``, ``qh`` and the empty
product).  The file name of a matrix case spells its boundary with ``d`` for
a DOWN point and ``u`` for an UP point.  Editing a
golden file changes what this check accepts; a change that does so on
purpose says which file changed and why.
"""

from __future__ import annotations

import contextlib
import io
import json
import pathlib

import pytest

from walled_tangles.cli import main

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"

DUALITY_CASES = ((2, 2, 2), (2, 3, 1), (4, 1, 1), (2, 1, 3))

MATRIX_CASES = (
    (3, "vv^v", "E(1,2) F(2) K'(1)"),
    (2, "^v^", "F(1,2) qh(2,-1) E(1,3)"),
    (3, "v^v^", "E(2,2) K(1) F(1,2) qh(1,0,-2)"),
    (2, "vv^", ""),
)


def _stdout_of(argv: list[str]) -> str:
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = main(argv)
    assert code == 0, (argv, code)
    return buffer.getvalue()


def _verify_all() -> str:
    return _stdout_of(["verify", "all", "--seed", "7"])


def _duality(n: int, r: int, s: int) -> str:
    data = json.loads(
        _stdout_of(["verify", "duality", "--n", str(n), "--r", str(r), "--s", str(s), "--q0", "5/3"])
    )
    del data["timingsSeconds"]
    return json.dumps(data, indent=2) + "\n"


def _matrix(n: int, boundary: str, generators: str) -> str:
    return _stdout_of(["matrix", "--n", str(n), "--boundary", boundary, "--generators", generators])


def _cases() -> dict:
    cases = {"verify_all_seed7.json": _verify_all}
    for n, r, s in DUALITY_CASES:
        cases[f"duality_n{n}_r{r}_s{s}.json"] = lambda n=n, r=r, s=s: _duality(n, r, s)
    for n, boundary, generators in MATRIX_CASES:
        spelled = boundary.replace("v", "d").replace("^", "u")
        cases[f"matrix_n{n}_{spelled}.json"] = lambda n=n, b=boundary, g=generators: _matrix(n, b, g)
    return cases


@pytest.mark.parametrize("name", sorted(_cases()))
def test_output_matches_golden(name):
    expected = (GOLDEN / name).read_text(encoding="utf-8")
    assert _cases()[name]() == expected

