"""Seeded inputs and output checks of the benchmark workloads.

Inputs are made here from the seed and handed to the program only as
rendered command-line strings or plain call arguments; nothing is taken
from the program's own samplers or from the test suite.  The input half of
this module is plain Python and runs in the parent process; the check half
imports the package and runs in the child interpreter that timed the
operations, after all of them are done.
"""

from __future__ import annotations

import bisect
import hashlib
import itertools
import json
import random

Q0 = "5/3"

#: verify duality at (n, r, s): dense commutant elimination dominates.
DUALITY_CASES = ((2, 2, 2), (2, 3, 1), (4, 1, 1), (2, 1, 3))

#: image_rank(n, r, 4 - r): rendering and Laurent arithmetic, no commutant.
BASIS_CASES = tuple((n, r, 4 - r) for n in (3, 4) for r in range(5))

#: structure-constants at (r, s, n).
ALGEBRA_TABLES = ((2, 2, 2), (3, 1, 3), (1, 3, 2))
#: (r, s, n) of the short products, cycled through.
ALGEBRA_PRODUCT_TYPES = ((2, 1, 2), (1, 2, 2), (2, 2, 2), (3, 1, 2), (1, 3, 3), (2, 2, 3))
ALGEBRA_PRODUCTS = 400

BRAID_CROSSINGS = 13
#: Quantile edges of the descent-state count of uniform random all-down
#: braids with 13 crossings, from 20 000 samples per strand count: the 1st,
#: 2nd, 4th, ..., 98th and 99.5th percentiles.  Each seed's braid set holds
#: one braid per bin and strand count, so seeds vary the braids but not the
#: difficulty profile, whose heavy tail would otherwise move the timings
#: from seed to seed.
BRAID_BINS = {
    3: (15, 21, 29, 35, 41, 45, 50, 54, 58, 62, 66, 71, 75, 79, 83, 87, 91,
        95, 99, 104, 108, 112, 117, 121, 126, 130, 135, 140, 145, 150, 156,
        161, 168, 174, 181, 188, 195, 203, 211, 220, 230, 241, 253, 268, 283,
        302, 323, 352, 390, 451, 573),
    4: (15, 21, 30, 37, 44, 50, 55, 60, 66, 71, 77, 83, 88, 94, 99, 105, 111,
        117, 123, 129, 135, 142, 148, 155, 162, 169, 176, 183, 192, 200, 209,
        218, 228, 238, 249, 261, 274, 286, 300, 316, 333, 351, 372, 394, 424,
        460, 503, 557, 636, 771, 1025),
}

#: sha256 of the concatenated outputs, frozen at the parent commit.  The
#: structure-constant tables take no seed; the products are frozen for
#: the default seed 7 only.
FROZEN_TABLES_DIGEST = "9f8f4abb31ebf8e25a2844a0833396e162ff93b222c0ff64f2614f45b327fede"
FROZEN_PRODUCTS_DIGEST_SEED7 = "60bdb00a0a7e1c4c2bc1621dc6b091f4a5b7d0c8edc4a687d54a9a2a617d2d6e"
DEFAULT_SEED = 7


# -- inputs (parent side, no package import) ----------------------------------


def _type_string(top, bottom) -> str:
    return "".join(top) + "|" + "".join(bottom)


def descent_states(k: int, word, limit: int) -> int:
    """Distinct words met when rewriting an all-down braid into descending
    form, strand 1 first, crossings switched or resolved one at a time.

    ``word`` is a sequence of (first strand over, position) pairs.  The
    count stops growing past ``limit``.  It grades braid difficulty for
    stratified sampling; it is computed here, independently of the program.
    """
    seen = set()
    todo = [tuple(word)]
    while todo and len(seen) <= limit:
        w = todo.pop()
        if w in seen:
            continue
        seen.add(w)
        perm = list(range(k))
        best = None
        for i, (over_left, p) in enumerate(w):
            left, right = perm[p - 1], perm[p]
            if (left < right) != over_left and (best is None or (min(left, right), i) < best):
                best = (min(left, right), i)
            perm[p - 1], perm[p] = right, left
        if best is not None:
            i = best[1]
            over_left, p = w[i]
            todo.append(w[:i] + ((not over_left, p),) + w[i + 1:])
            todo.append(w[:i] + w[i + 1:])
    return len(seen)


def _braids(rng: random.Random, k: int, edges: tuple) -> list:
    """One random braid word on k strands per bin of ``edges``, binned in
    the order candidates are drawn."""
    chosen = [None] * (len(edges) - 1)
    while None in chosen:
        word = [(rng.random() < 0.5, rng.randint(1, k - 1)) for _ in range(BRAID_CROSSINGS)]
        slot = bisect.bisect_right(edges, descent_states(k, word, edges[-1])) - 1
        if 0 <= slot < len(chosen) and chosen[slot] is None:
            chosen[slot] = word
    return chosen


def _braid_ops(rng: random.Random) -> list:
    ops = []
    for k, edges in BRAID_BINS.items():
        for word in _braids(rng, k, edges):
            text = " ".join(f"X{'+' if over else '-'}({p})" for over, p in word)
            argv = ["normalize", "--n", "2", "--type", _type_string("v" * k, "v" * k), "--word", text]
            ops.append({"kind": "cli", "argv": argv})
    # The order of the strata is fixed, not drawn from the seed: full
    # collections of the growing memo heap then fall at the same points of
    # every seed's pass, on braids of the same difficulty.
    random.Random(0).shuffle(ops)
    return ops


def _walled_word(rng: random.Random, top: str, length: int) -> tuple[str, str]:
    """A word of crossings and turnbacks from level ``top``; returns the
    word and the level it ends at."""
    level = list(top)
    tokens = []
    for _ in range(length):
        choices = [f"X{hand}({p})" for p in range(1, len(level)) for hand in "+-"]
        choices += [f"E({p})" for p in range(1, len(level)) if level[p - 1] != level[p]]
        token = rng.choice(choices)
        if token[0] == "X":
            p = int(token[3:-1])
            level[p - 1], level[p] = level[p], level[p - 1]
        tokens.append(token)
    return " ".join(tokens), "".join(level)


def _algebra_ops(rng: random.Random) -> list:
    ops = [
        {"kind": "cli", "argv": ["structure-constants", "--r", str(r), "--s", str(s), "--n", str(n)], "table": True}
        for r, s, n in ALGEBRA_TABLES
    ]
    for i in range(ALGEBRA_PRODUCTS):
        r, s, n = ALGEBRA_PRODUCT_TYPES[i % len(ALGEBRA_PRODUCT_TYPES)]
        top = "v" * r + "^" * s
        left, middle = _walled_word(rng, top, rng.randint(2, 4))
        right, bottom = _walled_word(rng, middle, rng.randint(2, 4))
        argv = [
            "multiply", "--n", str(n),
            "--left", f"{_type_string(top, middle)} : {left}",
            "--right", f"{_type_string(middle, bottom)} : {right}",
        ]
        ops.append({"kind": "cli", "argv": argv})
    return ops


def build(workload: str, seed: int) -> list:
    """The operations of one workload pass, in order.  Same seed, same list."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "duality":
        return [
            {"kind": "cli", "argv": ["verify", "duality", "--n", str(n), "--r", str(r), "--s", str(s), "--q0", Q0]}
            for n, r, s in DUALITY_CASES
        ]
    if workload == "basis":
        return [{"kind": "image_rank", "args": [n, r, s, Q0]} for n, r, s in BASIS_CASES]
    if workload == "braids":
        return _braid_ops(rng)
    if workload == "algebra":
        return _algebra_ops(rng)
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("duality", "basis", "braids", "algebra")


def _strip_timings(data):
    if isinstance(data, dict):
        return {k: _strip_timings(v) for k, v in data.items() if k != "timingsSeconds"}
    if isinstance(data, list):
        return [_strip_timings(v) for v in data]
    return data


def canonical(output: str) -> str:
    """The output with wall-clock timings removed, for byte comparison."""
    if '"timingsSeconds"' not in output:
        return output
    return json.dumps(_strip_timings(json.loads(output)), indent=2)


def digest(texts) -> str:
    h = hashlib.sha256()
    for text in texts:
        h.update(text.encode("utf-8"))
        h.update(b"\0")
    return h.hexdigest()


# -- checks (child side, after the timed region) ------------------------------


def expected_rank(n: int, m: int) -> int:
    """Permutations of m whose longest decreasing subsequence has at most n
    terms: by RSK the dimension of the image of the all-down algebra, which
    the walled image matches.  Equals m! when n >= m."""
    def longest_decreasing(perm) -> int:
        best = [1] * len(perm)
        for i in range(len(perm)):
            for j in range(i):
                if perm[j] > perm[i]:
                    best[i] = max(best[i], best[j] + 1)
        return max(best, default=0)

    return sum(1 for perm in itertools.permutations(range(m)) if longest_decreasing(perm) <= n)


def _element_from_json(data: dict):
    from walled_tangles.laurent import LaurentPoly
    from walled_tangles.skein import TangleElement
    from walled_tangles.tangle import Connector, parse_type

    ty = parse_type(data["type"])
    terms = []
    for term in data["terms"]:
        edges = [tuple((name[0], int(name[1:])) for name in pair) for pair in term["connector"]]
        terms.append((Connector(ty, edges), LaurentPoly.from_json(term["coeff"])))
    return TangleElement(ty, data["n"], terms)


def _check_duality(op, rc, out) -> bool:
    data = json.loads(out)
    return rc == 0 and data["allPass"] and data["imageRank"] == data["commutantDim"]


def _check_basis(op, rc, out) -> bool:
    n, r, s, _ = op["args"]
    return rc == 0 and int(out) == expected_rank(n, r + s)


def _check_braid(op, rc, out) -> bool:
    from walled_tangles.rep import matrix_of_element, matrix_of_word
    from walled_tangles.tangle import parse_type, parse_word

    argv = op["argv"]
    word = parse_word(argv[argv.index("--word") + 1], parse_type(argv[argv.index("--type") + 1]))
    return rc == 0 and matrix_of_element(_element_from_json(json.loads(out))) == matrix_of_word(word, 2)


def _check_product(op, rc, out) -> bool:
    from walled_tangles.skein import normalize
    from walled_tangles.tangle import parse_type, parse_word, stack

    def word_of(text):
        head, _, tail = text.partition(":")
        return parse_word(tail, parse_type(head.strip()))

    argv = op["argv"]
    n = int(argv[argv.index("--n") + 1])
    stacked = stack(word_of(argv[argv.index("--left") + 1]), word_of(argv[argv.index("--right") + 1]))
    return rc == 0 and _element_from_json(json.loads(out)) == normalize(stacked, n)


def check(workload: str, seed: int, ops: list, results: list) -> list[bool]:
    """One verdict per operation; ``results`` holds (exit code, output) or
    None for an operation that raised."""
    verdicts = []
    for op, result in zip(ops, results):
        if result is None:
            verdicts.append(False)
        elif workload == "algebra" and op.get("table"):
            verdicts.append(result[0] == 0)
        else:
            checker = {
                "duality": _check_duality,
                "basis": _check_basis,
                "braids": _check_braid,
                "algebra": _check_product,
            }[workload]
            try:
                verdicts.append(bool(checker(op, *result)))
            except Exception:  # an unreadable or wrong output fails its operation
                verdicts.append(False)
    if workload == "algebra":
        tables = [r[1] for op, r in zip(ops, results) if op.get("table") and r is not None]
        products = [r[1] for op, r in zip(ops, results) if not op.get("table") and r is not None]
        table_ok = digest(tables) == FROZEN_TABLES_DIGEST
        products_ok = seed != DEFAULT_SEED or digest(products) == FROZEN_PRODUCTS_DIGEST_SEED7
        verdicts = [
            v and (table_ok if op.get("table") else products_ok) for op, v in zip(ops, verdicts)
        ]
    return verdicts
