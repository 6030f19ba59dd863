"""Byte-for-byte comparison of command-line output with committed golden files.

The files under ``tests/golden/`` hold the output of ``verify all --seed 7``;
the ``verify duality`` JSON, with ``timingsSeconds`` removed, on the four
instances of the benchmark's ``duality`` workload at q0 = 5/3, and on
(2, 2, 2) at q0 = -5/3, 2, 1 and -1, which cover a negative numerator, an
integer point and the coarser weight classes of the classical points; the
``matrix --generators`` JSON of four generator products on mixed boundaries
(divided powers of level two and three, ``K'``, ``qh`` and the empty
product); the ``matrix --type/--word`` JSON of four seeded words, the first
with a closed loop; the ``structure-constants`` table of B_{2,1}^2; and the
``normalize`` and ``multiply`` JSON of thirteen seeded words; the
``normalize`` JSON of two 13-crossing all-down braids, on 3 and 4 strands
like the benchmark's ``braids`` workload, whose coefficients reach 9 and 70;
and the
``hecke-to-walled`` and ``flip`` JSON of two words each; the ``verify
presentation`` reports of five walled algebras, with no up strands, with no
down strands, and three with both, at n = 1, 2 and 3; and the ``verify
hecke`` reports at (n, m) = (2, 4) and (3, 3).  Most of the
normalized and multiplied words have closed loops crossed by open strands,
so the files pin how loops are found and numbered as well as the normal
forms.  Each of these commands, except the duality reports, also has its
``--format human`` text pinned in a ``.txt`` file beside the JSON, and
``verify duality`` has its text pinned on (2, 2, 2).  The file name of a
generator matrix case spells its boundary with ``d`` for a DOWN point and
``u`` for an UP point; the file name of an off-default duality case spells
its q0 with ``m`` for a minus sign and ``o`` for the fraction bar.  Editing
a golden file changes what this check accepts; a change that does so on
purpose says which file changed and why.
"""

from __future__ import annotations

import contextlib
import io
import json
import pathlib
import random
from functools import partial

import pytest

from walled_tangles.cli import main

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"

DUALITY_CASES = ((2, 2, 2), (2, 3, 1), (4, 1, 1), (2, 1, 3))

#: (n, r, s, q0) away from the default q0 = 5/3.
DUALITY_Q0_CASES = ((2, 2, 2, "-5/3"), (2, 2, 2, "2"), (2, 2, 2, "1"), (2, 2, 2, "-1"))

MATRIX_CASES = (
    (3, "vv^v", "E(1,2) F(2) K'(1)"),
    (2, "^v^", "F(1,2) qh(2,-1) E(1,3)"),
    (3, "v^v^", "E(2,2) K(1) F(1,2) qh(1,0,-2)"),
    (2, "vv^", ""),
)

#: (n, "TYPE : WORD"): seeded ``conftest.random_word`` draws (seeds 7, 25, 20
#: and 13 with at most three boundary points, width four, three crossings and
#: six slices), written out; the first closes a loop.
WORD_MATRIX_CASES = (
    (2, "v^|^v : X+(1) X-(1) N<(3) X-(1) U(3)"),
    (3, "vv^|v^v : X-(2) X+(1) X+(2) U(1) N>(2)"),
    (2, "^|^v^ : N>(1) X+(2) U(2) N<(1) X+(1)"),
    (3, "^v|^^vv : N>(1) X+(2) U(2) N>(1) X+(2)"),
)

STRUCTURE_CASES = ((2, 2, 1),)

#: (n, r, s, WORD) for ``hecke-to-walled``: all-down words on r + s strands.
HECKE_CASES = ((2, 2, 2, "X+(2)"), (3, 1, 2, "X-(1) X+(2)"))

#: (r, s, WORD) for ``flip``: permutation words on r + s down strands.
FLIP_CASES = ((2, 1, "X+(2)"), (2, 2, "X+(2) X-(1) X+(3)"))

#: (r, s, n) for ``verify presentation``: the first two have one family of
#: crossings only, with a pair at distance two; the last three have both
#: near-wall crossings, so the mixed wall relations apply, and (3, 2, 3) and
#: (2, 3, 1) also have crossings far from the wall.
PRESENTATION_CASES = ((0, 4, 2), (4, 0, 1), (2, 2, 2), (3, 2, 3), (2, 3, 1))

#: (n, m) for ``verify hecke``.
HECKE_SUITE_CASES = ((2, 4), (3, 3))

HUMAN = ("--format", "human")

#: (n, "TYPE : WORD"): seeded ``conftest.random_word`` draws, written out so
#: that the cases do not depend on the generator, and, seventh, the word of
#: ``test_tangle.py``'s loops-by-creation case, which creates its two loops
#: right to left.  The first seven have loops crossed by open strands, the
#: last two have none.
NORMALIZE_CASES = (
    (2, "^^vv|^^vv : X+(2) X-(2) N>(2) X-(1) X-(4) X+(1) U(2) N>(4) U(1)"),
    (3, "vv^|v^v : X+(2) N<(2) U(2) U(1) N>(1) N<(1) X+(2) X+(2) U(3)"),
    (2, "v|v^v : N>(1) N<(4) X-(3) X+(2) X-(1) U(1) N>(1) X+(3) U(4) X-(1)"),
    (3, "^|v^^ : N<(1) N<(4) X+(2) X+(2) U(1) X+(1) N<(3) U(1) N<(3) U(1)"),
    (2, "^|v^v^^ : N<(2) N<(2) X-(3) X-(1) X-(1) X-(1) X-(4) X+(3) U(3) N>(2)"),
    (3, "^|^^v^v : N<(1) N<(2) X-(2) X+(3) X-(4) X+(2) U(1) N<(3)"),
    (2, "v^|v^ : N<(2) N<(1) X+(1) X-(2) X+(2) X+(3) X-(3) U(4) U(1)"),
    (2, "^^|vv^^^^ : N<(1) X+(3) X+(3) X+(3) X+(3) X-(1) X-(1) N<(2)"),
    (3, "^v^v|^v^vv^ : N>(2) X+(5) X-(1) X-(4) U(2) N<(3) X+(2) X-(3)"),
)

#: Seed of ``BRAID_NORMALIZE_CASES``: 122 gives the 4-strand braid 23 terms
#: and a coefficient of 70.
BRAID_SEED = 122


def _braid_cases() -> tuple:
    """(2, "TYPE : WORD") for a 13-crossing all-down braid on 3 and then 4
    strands, each crossing's hand and position drawn uniformly, as in the
    benchmark's ``braids`` workload."""
    rng = random.Random(BRAID_SEED)
    cases = []
    for k in (3, 4):
        word = " ".join(f"X{'+' if rng.random() < 0.5 else '-'}({rng.randint(1, k - 1)})" for _ in range(13))
        cases.append((2, f"{'v' * k}|{'v' * k} : {word}"))
    return tuple(cases)


BRAID_NORMALIZE_CASES = _braid_cases()

#: (n, left, right): seeded ``conftest.random_word_pair`` draws; the first
#: three have a loop crossed by an open strand in one factor.
MULTIPLY_CASES = (
    (2, "v^^|v^v^^ : N<(4) X-(4) X+(3) X+(3) X-(4) U(4) N<(3)", "v^v^^|v^^ : X+(3) X-(3) X+(2) X-(1) U(2) N>(2) U(1)"),
    (3, "|^v^v : N>(1) X+(1) N>(2) X-(1) X+(3)", "^v^v|v^ : U(3) N<(2) X-(3) X-(2) X+(1) X-(3) U(3)"),
    (2, "|v^ : N<(1) X+(1) X+(1) N>(3) X+(2) U(3)", "v^|^v : X-(1) N>(2) X+(1) X+(2) X-(1) U(1)"),
    (3, "v|^vv^v : N<(2) N>(2) X-(4) X+(1)", "^vv^v|^vv^v : X+(3) X-(1) X+(1) X+(3)"),
)


def _stdout_of(argv: list[str]) -> str:
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = main(argv)
    assert code == 0, (argv, code)
    return buffer.getvalue()


def _verify_all(*extra: str) -> str:
    return _stdout_of(["verify", "all", "--seed", "7", *extra])


def _duality(n: int, r: int, s: int, q0: str = "5/3") -> str:
    data = json.loads(
        _stdout_of(["verify", "duality", "--n", str(n), "--r", str(r), "--s", str(s), f"--q0={q0}"])
    )
    del data["timingsSeconds"]
    return json.dumps(data, indent=2) + "\n"


def _duality_human(n: int, r: int, s: int) -> str:
    return _stdout_of(["verify", "duality", "--n", str(n), "--r", str(r), "--s", str(s), *HUMAN])


def _matrix(n: int, boundary: str, generators: str, *extra: str) -> str:
    return _stdout_of(["matrix", "--n", str(n), "--boundary", boundary, "--generators", generators, *extra])


def _word_matrix(n: int, text: str, *extra: str) -> str:
    ty, word = text.split(" : ")
    return _stdout_of(["matrix", "--n", str(n), "--type", ty, "--word", word, *extra])


def _structure_constants(n: int, r: int, s: int, *extra: str) -> str:
    return _stdout_of(["structure-constants", "--n", str(n), "--r", str(r), "--s", str(s), *extra])


def _normalize(n: int, text: str, *extra: str) -> str:
    ty, word = text.split(" : ")
    return _stdout_of(["normalize", "--n", str(n), "--type", ty, "--word", word, *extra])


def _multiply(n: int, left: str, right: str, *extra: str) -> str:
    return _stdout_of(["multiply", "--n", str(n), "--left", left, "--right", right, *extra])


def _hecke_to_walled(n: int, r: int, s: int, word: str, *extra: str) -> str:
    return _stdout_of(["hecke-to-walled", "--n", str(n), "--r", str(r), "--s", str(s), "--word", word, *extra])


def _flip(r: int, s: int, word: str, *extra: str) -> str:
    return _stdout_of(["flip", "--r", str(r), "--s", str(s), "--word", word, *extra])


def _presentation(r: int, s: int, n: int, *extra: str) -> str:
    return _stdout_of(["verify", "presentation", "--r", str(r), "--s", str(s), "--n", str(n), *extra])


def _hecke_suite(n: int, m: int, *extra: str) -> str:
    return _stdout_of(["verify", "hecke", "--n", str(n), "--m", str(m), *extra])


def _cases() -> dict:
    cases = {"verify_all_seed7.json": _verify_all}
    for n, r, s in DUALITY_CASES:
        cases[f"duality_n{n}_r{r}_s{s}.json"] = partial(_duality, n, r, s)
    for n, r, s, q0 in DUALITY_Q0_CASES:
        spelled = q0.replace("-", "m").replace("/", "o")
        cases[f"duality_n{n}_r{r}_s{s}_q{spelled}.json"] = partial(_duality, n, r, s, q0)
    for k, (n, r, s, word) in enumerate(HECKE_CASES, 1):
        cases[f"hecke_to_walled_{k:02d}_n{n}.json"] = partial(_hecke_to_walled, n, r, s, word)
    for k, (r, s, word) in enumerate(FLIP_CASES, 1):
        cases[f"flip_{k:02d}_r{r}_s{s}.json"] = partial(_flip, r, s, word)
    for n, boundary, generators in MATRIX_CASES:
        spelled = boundary.replace("v", "d").replace("^", "u")
        cases[f"matrix_n{n}_{spelled}.json"] = partial(_matrix, n, boundary, generators)
    for k, (n, text) in enumerate(WORD_MATRIX_CASES, 1):
        cases[f"matrix_word_{k:02d}_n{n}.json"] = partial(_word_matrix, n, text)
    for n, r, s in STRUCTURE_CASES:
        cases[f"structure_constants_n{n}_r{r}_s{s}.json"] = partial(_structure_constants, n, r, s)
    for k, (n, text) in enumerate(NORMALIZE_CASES, 1):
        cases[f"normalize_{k:02d}_n{n}.json"] = partial(_normalize, n, text)
    for k, (n, text) in enumerate(BRAID_NORMALIZE_CASES, 1):
        cases[f"normalize_braid_{k:02d}_n{n}.json"] = partial(_normalize, n, text)
    for k, (n, left, right) in enumerate(MULTIPLY_CASES, 1):
        cases[f"multiply_{k:02d}_n{n}.json"] = partial(_multiply, n, left, right)
    for r, s, n in PRESENTATION_CASES:
        cases[f"presentation_r{r}_s{s}_n{n}.json"] = partial(_presentation, r, s, n)
    for n, m in HECKE_SUITE_CASES:
        cases[f"hecke_suite_n{n}_m{m}.json"] = partial(_hecke_suite, n, m)
    # The --format human text of every case but the duality reports, in a
    # .txt file beside its JSON; duality's on its first instance only.
    for name, case in list(cases.items()):
        if not name.startswith("duality_"):
            cases[name.replace(".json", ".txt")] = partial(case, *HUMAN)
    n, r, s = DUALITY_CASES[0]
    cases[f"duality_n{n}_r{r}_s{s}.txt"] = partial(_duality_human, n, r, s)
    return cases


@pytest.mark.parametrize("name", sorted(_cases()))
def test_output_matches_golden(name):
    expected = (GOLDEN / name).read_text(encoding="utf-8")
    assert _cases()[name]() == expected

