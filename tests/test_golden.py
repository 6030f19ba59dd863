"""Byte-for-byte comparison of command-line output with committed golden files.

The files under ``tests/golden/`` hold the output of ``verify all --seed 7``
and the ``verify duality`` JSON, with ``timingsSeconds`` removed, on the four
instances of the benchmark's ``duality`` workload at q0 = 5/3.  Editing a
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


def _cases() -> dict:
    cases = {"verify_all_seed7.json": _verify_all}
    for n, r, s in DUALITY_CASES:
        cases[f"duality_n{n}_r{r}_s{s}.json"] = lambda n=n, r=r, s=s: _duality(n, r, s)
    return cases


@pytest.mark.parametrize("name", sorted(_cases()))
def test_output_matches_golden(name):
    expected = (GOLDEN / name).read_text(encoding="utf-8")
    assert _cases()[name]() == expected

