"""Command-line front end for the tangle algebra toolkit.

Subcommands normalize words, multiply them, render operator matrices, dump
structure constants, carry words across the wall, flip permutation words
classically, and run the verification suites.  Reports are emitted as JSON
(the default) or as human-readable text; JSON outputs follow the schemas
shipped in the repository's ``schemas`` directory.

Exit status: 0 on success or an all-pass verification, 1 on a verification
failure or a resource limit, 2 on usage or parse errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import re
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from math import factorial
from typing import Callable, Optional, Sequence, Union

from .duality import ResourceLimitError, classical_flip, verify_schur_weyl
from .laurent import Q, QINV
from .qgroup import E, F, K, QH, UGenerator, word_matrix
from .rep import (
    OperatorMatrix,
    hecke_action_matrix,
    matrix_of_word,
    render_matrix,
)
from .skein import (
    element_of_connector,
    hecke_to_walled,
    multiply,
    normalize,
    presentation_check,
    structure_constants,
)
from .tangle import (
    DOWN,
    UP,
    Cross,
    DslError,
    Hand,
    Max,
    Min,
    Orientation,
    SliceError,
    Sweep,
    TangleType,
    TangleWord,
    algebra_type,
    all_down_type,
    apply_slice,
    canonical_basis_word,
    connector_of,
    parse_type,
    parse_word,
    render_type,
    stack,
)

# -- input parsing ------------------------------------------------------------

_GENERATOR_RE = re.compile(r"(qh|K'|K|E|F)\(([^()]*)\)")


def parse_dsl(text: str) -> Union[TangleWord, list[UGenerator]]:
    """Parse either a tangle word or a list of quantum-group generators.

    With a boundary type (a ``TYPE : WORD`` header in the text) the text is
    a slice word.  Without one it is a whitespace-separated list of
    generator tokens ``E(i)``, ``E(i,l)``, ``F(i)``, ``F(i,l)``, ``K(i)``,
    ``K'(i)``, or ``qh(a1,...,an)``.  Errors carry the character offset
    where they were detected.
    """
    if "|" in text:
        head, sep, tail = text.partition(":")
        return parse_word(tail if sep else "", parse_type(head.strip()))
    gens: list[UGenerator] = []
    for m in re.finditer(r"\S+", text):
        token, offset = m.group(0), m.start()
        tm = _GENERATOR_RE.fullmatch(token)
        if not tm:
            raise DslError(f"unrecognized generator token {token!r}", offset)
        name, arg_text = tm.group(1), tm.group(2)
        try:
            args = [int(chunk) for chunk in arg_text.split(",")] if arg_text.strip() else []
        except ValueError:
            raise DslError(f"arguments of {name} must be integers", offset) from None
        if name in ("E", "F"):
            if len(args) not in (1, 2):
                raise DslError(f"{name} takes an index and an optional level", offset)
            if args[0] < 1 or (len(args) == 2 and args[1] < 0):
                raise DslError(f"bad {name} arguments {tuple(args)}", offset)
            gens.append((E if name == "E" else F)(*args))
        elif name in ("K", "K'"):
            if len(args) != 1 or args[0] < 1:
                raise DslError(f"{name} takes a single positive index", offset)
            gens.append(K(args[0], -1 if name == "K'" else 1))
        else:
            if not args:
                raise DslError("qh needs a weight with at least one entry", offset)
            gens.append(QH(tuple(args)))
    return gens


def _parse_boundary(text: str) -> tuple[Orientation, ...]:
    if "|" in text:
        raise DslError("a boundary has no '|'", text.index("|"))
    return parse_type(text + "|" + text).top


def _read_word_argument(args: argparse.Namespace, ty: TangleType) -> TangleWord:
    text = args.word
    if getattr(args, "word_file", None):
        try:
            with open(args.word_file, encoding="utf-8") as handle:
                text = handle.read()
        except OSError as err:
            raise ValueError(f"cannot read --word-file {args.word_file!r}: {err.strerror}") from None
    return parse_word(text or "", ty)


def _parse_q0(text: str) -> Fraction:
    try:
        q0 = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise DslError(f"not an exact rational: {text!r}", 0) from None
    if q0 == 0:
        raise DslError("the specialization point must be nonzero", 0)
    return q0


# -- output helpers -----------------------------------------------------------


def _json_text(data) -> str:
    """``json.dumps(data, indent=2)``, byte for byte, for data whose dict
    keys are strings.

    ``indent`` sends ``json.dumps`` to its pure-Python encoder, one generator
    per container.  This walks the data once into one list of strings, with
    strings escaped by json's C ``encode_basestring_ascii``, and a tuple met
    again at the same depth in the call (a connector's ``edge_names``, say)
    reuses its text.
    """
    parts: list[str] = []
    seen: dict[tuple[int, int], str] = {}

    def put(value, depth: int) -> None:
        if isinstance(value, str):
            parts.append(encode_basestring_ascii(value))
        elif value is None or value is True or value is False:
            parts.append("null" if value is None else "true" if value else "false")
        elif isinstance(value, int):
            parts.append(int.__repr__(value))
        elif isinstance(value, float):
            parts.append(json.dumps(value))
        elif isinstance(value, tuple) and (id(value), depth) in seen:
            parts.append(seen[id(value), depth])
        elif not isinstance(value, (list, tuple, dict)):
            raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
        elif not value:
            parts.append("{}" if isinstance(value, dict) else "[]")
        else:
            start, inner = len(parts), "\n" + "  " * (depth + 1)
            if isinstance(value, dict):
                parts.append("{")
                for key, item in value.items():
                    parts.append(inner + encode_basestring_ascii(key) + ": ")
                    put(item, depth + 1)
                    parts.append(",")
                close = "}"
            else:
                parts.append("[")
                for item in value:
                    parts.append(inner)
                    put(item, depth + 1)
                    parts.append(",")
                close = "]"
            parts[-1] = "\n" + "  " * depth + close
            if isinstance(value, tuple):
                text = seen[id(value), depth] = "".join(parts[start:])
                parts[start:] = [text]

    put(data, 0)
    return "".join(parts)


def _emit(args: argparse.Namespace, data: dict, human: Callable[[], str]) -> None:
    """Print ``data`` as indent-2 JSON, or the text ``human()`` builds under ``--format human``."""
    if args.format == "json":
        print(_json_text(data))
    else:
        print(human())


# -- seeded word sampling for the property suites -----------------------------


def _random_word(
    rng: random.Random,
    top: Optional[tuple] = None,
    max_width: int = 4,
    max_crossings: int = 4,
    max_slices: int = 7,
) -> TangleWord:
    """A valid word grown one admissible slice at a time."""
    if top is None:
        top = tuple(rng.choice((DOWN, UP)) for _ in range(rng.randint(1, 3)))
    level = top
    slices = []
    crossings = 0
    for _ in range(rng.randint(0, max_slices)):
        options = []
        if crossings < max_crossings:
            for pos in range(1, len(level)):
                options.append(Cross(pos, rng.choice((Hand.FIRST_OVER, Hand.FIRST_UNDER))))
        for pos in range(1, len(level)):
            if level[pos - 1] != level[pos]:
                options.append(Min(pos))
        if len(level) + 2 <= max_width:
            for pos in range(1, len(level) + 2):
                options.append(Max(pos, rng.choice((Sweep.LEFT_TO_RIGHT, Sweep.RIGHT_TO_LEFT))))
        if not options:
            break
        chosen = rng.choice(options)
        try:
            level = apply_slice(level, chosen, len(slices))
        except SliceError:
            continue
        slices.append(chosen)
        if isinstance(chosen, Cross):
            crossings += 1
    return TangleWord(TangleType(top, level), slices)


# -- verification suites ------------------------------------------------------


def _suite_report(suite: str, seed: Optional[int], checks: list, extra: Optional[dict] = None) -> dict:
    data = {"suite": suite}
    if extra:
        data.update(extra)
    if seed is not None:
        data["seed"] = seed
    data["allPass"] = all(c["holds"] for c in checks)
    data["checks"] = checks
    return data


def _human_checks(data: dict) -> str:
    lines = [f"suite {data['suite']}: {'all pass' if data['allPass'] else 'FAILED'}"]
    if "seed" in data:
        lines.append(f"  seed = {data['seed']}")
    for check in data["checks"]:
        mark = "ok" if check["holds"] else "FAIL"
        lines.append(f"  [{mark}] {check['name']}: {check['detail']}")
    return "\n".join(lines)


def _check(name: str, pairs: list, detail: str) -> dict:
    """A check that holds when every (lhs, rhs) pair is equal.  ``{equal}``
    and ``{total}`` in ``detail`` become the numbers of equal and of all pairs."""
    equal = sum(lhs == rhs for lhs, rhs in pairs)
    total = len(pairs)
    return {"name": name, "holds": equal == total, "detail": detail.format(equal=equal, total=total)}


def _run_skein_suite(n: int, seed: int, count: int) -> dict:
    rng = random.Random(seed)
    fixed_points = []
    stackings = []
    for _ in range(count):
        first = _random_word(rng)
        second = _random_word(rng, top=first.ty.bottom)
        element = normalize(first, n)
        connectors = [connector for connector, _ in element.terms]
        fixed_points.append((
            [normalize(canonical_basis_word(connector), n) for connector in connectors],
            [element_of_connector(connector, n) for connector in connectors],
        ))
        stackings.append((multiply(element, normalize(second, n)), normalize(stack(first, second), n)))
    checks = [
        _check("normalFormFixedPoint", fixed_points, "{equal}/{total} normal forms are skein fixed points"),
        _check("productMatchesStacking", stackings, "{equal}/{total} products agree with stacked normalization"),
    ]
    return _suite_report("skein", seed, checks, {"n": n, "count": count})


def _run_hecke_suite(n: int, max_m: int) -> dict:
    actions = {(m, k): hecke_action_matrix(m, k, n) for m in range(2, max_m + 1) for k in range(1, m)}
    crossings = [
        (t, matrix_of_word(TangleWord(all_down_type(m), [Cross(k, Hand.FIRST_OVER)]), n))
        for (m, k), t in actions.items()
    ]
    quadratic = [
        (t.matmul(t) + t.scaled(Q - QINV), OperatorMatrix.identity(n, all_down_type(m).top))
        for (m, _), t in actions.items()
    ]
    braid = [
        (a.matmul(b).matmul(a), b.matmul(a).matmul(b))
        for (m, k), a in actions.items()
        if (b := actions.get((m, k + 1))) is not None
    ]
    checks = [
        _check(
            "actionCoincidesWithCrossings",
            crossings,
            f"generator action equals crossing-word matrices up to m = {max_m}",
        ),
        _check("quadraticRelation", quadratic, "(T + q)(T - 1/q) vanishes on every generator"),
        _check("braidRelation", braid, "adjacent generators satisfy the braid relation"),
    ]
    return _suite_report("hecke", None, checks, {"n": n, "m": max_m})


def _run_linking_suite(n: int, seed: int, count: int) -> dict:
    rng = random.Random(seed)
    stackings = []
    for _ in range(count):
        first = _random_word(rng, max_width=3, max_crossings=3, max_slices=5)
        second = _random_word(rng, top=first.ty.bottom, max_width=3, max_crossings=3, max_slices=5)
        composed = matrix_of_word(first, n).matmul(matrix_of_word(second, n))
        stackings.append((composed, matrix_of_word(stack(first, second), n)))
    checks = [
        _check("matrixOfStackIsComposition", stackings, "{equal}/{total} stacked words match composed matrices"),
    ]
    return _suite_report("linking", seed, checks, {"n": n, "count": count})


# -- subcommand handlers ------------------------------------------------------


def _cmd_normalize(args: argparse.Namespace) -> int:
    ty = parse_type(args.type)
    word = _read_word_argument(args, ty)
    element = normalize(word, args.n)
    _emit(args, element.to_json(), lambda: str(element))
    return 0


def _cmd_multiply(args: argparse.Namespace) -> int:
    left, right = parse_dsl(args.left), parse_dsl(args.right)
    if not isinstance(left, TangleWord) or not isinstance(right, TangleWord):
        raise DslError("multiply needs two tangle words with type headers", 0)
    if args.n < 1:
        raise ValueError(f"label count n must be at least 1, got {args.n}")
    if left.ty.bottom != right.ty.top:
        raise ValueError("cannot multiply: bottom of the first differs from top of the second")
    product = normalize(stack(left, right), args.n)
    _emit(args, product.to_json(), lambda: str(product))
    return 0


#: Most labels a ``matrix`` may run over: n to the power of the widest level
#: of the word, or of the boundary under ``--generators``.  At 4096 labels
#: one crossing takes 0.25 s and 43 MB, and ``E(1)`` 0.8-1.3 s and 140 MB
#: (Python 3.11, 2 shared cores); ``--n 4 --type "v12|v12"`` has 16.7 M.
MATRIX_LABEL_BUDGET = 4096

#: Most labels times factors (the word's slices, or the generators) a
#: ``matrix`` may multiply through: each factor can touch every label, and
#: the product fills in as the word grows.  On twelve points at n = 2, 8
#: crossings take 1.3-1.6 s and 177 MB.  The budget refuses 16 and 44
#: crossings, which took 16 s and 550 MB, and 67 s and 0.9 GB, on an earlier
#: renderer that multiplied label-tuple slice matrices.
MATRIX_FACTOR_BUDGET = 8 * 4096


def _charge_labels(n: int, width: int, factors: int) -> None:
    """Refuse a matrix whose widest level has more labels than the budget,
    or whose labels times factors do (an invalid n is left for the renderer
    to reject)."""
    if n >= 1:
        labels = n**width
        ResourceLimitError.check(f"a level of {width} points at n = {n}", labels, "labels", MATRIX_LABEL_BUDGET)
        what = f"a product of {factors} factors on {labels} labels"
        ResourceLimitError.check(what, labels * factors, "label-factors", MATRIX_FACTOR_BUDGET)


def _cmd_matrix(args: argparse.Namespace) -> int:
    if args.generators is not None:
        if args.boundary is None:
            raise DslError("--generators needs --boundary", 0)
        boundary = _parse_boundary(args.boundary)
        gens = parse_dsl(args.generators)
        if isinstance(gens, TangleWord):
            raise DslError("--generators expects generator tokens, not a word", 0)
        _charge_labels(args.n, len(boundary), len(gens))
        matrix = word_matrix(gens, boundary, args.n)
    else:
        if args.type is None:
            raise DslError("matrix needs --type with --word, or --generators", 0)
        ty = parse_type(args.type)
        word = _read_word_argument(args, ty)
        _charge_labels(args.n, max(len(level) for level in word.levels), len(word.slices))
        matrix = matrix_of_word(word, args.n)
    _emit(args, matrix.to_json(), lambda: render_matrix(matrix))
    return 0


#: Most products a ``structure-constants`` table may hold: the ((r+s)!)^2
#: of r + s = 5.  At r + s = 6 the table has 518 400 products and about
#: 1 GB of JSON.
TABLE_BUDGET = 14_400


def _cmd_structure_constants(args: argparse.Namespace) -> int:
    ty = algebra_type(args.r, args.s)  # rejects negative strand counts
    m = len(ty.top)
    ResourceLimitError.check(f"the table at r + s = {m}", factorial(m) ** 2, "products", TABLE_BUDGET)
    table = structure_constants(args.r, args.s, args.n)
    products = [
        {
            "left": c1.edge_names,
            "right": c2.edge_names,
            "element": element.to_json(),
        }
        for (c1, c2), element in table.items()
    ]
    data = {"r": args.r, "s": args.s, "n": args.n, "products": products}
    _emit(args, data, lambda: "\n".join(f"{c1} * {c2} = {element}" for (c1, c2), element in table.items()))
    return 0


def _read_all_down_word(args: argparse.Namespace) -> TangleWord:
    """The word on r + s down strands, read once both counts are checked."""
    algebra_type(args.r, args.s)  # rejects negative strand counts
    return _read_word_argument(args, all_down_type(args.r + args.s))


def _cmd_hecke_to_walled(args: argparse.Namespace) -> int:
    word = _read_all_down_word(args)
    element = hecke_to_walled(word, args.r, args.s, args.n)
    _emit(args, element.to_json(), lambda: str(element))
    return 0


def _cmd_flip(args: argparse.Namespace) -> int:
    word = _read_all_down_word(args)
    flipped = classical_flip(connector_of(word), args.r, args.s)
    data = {"type": render_type(flipped.ty), "edges": flipped.edge_names}
    _emit(args, data, lambda: str(flipped))
    return 0


#: The verify flags that choose an instance, with their defaults.  ``verify
#: all`` runs fixed instances, so it refuses every one of them.
_INSTANCE_FLAGS = {"n": 2, "r": 1, "s": 1, "m": 3, "q0": "5/3"}


def _cmd_verify(args: argparse.Namespace) -> int:
    given = [f"--{name}" for name in _INSTANCE_FLAGS if getattr(args, name) is not None]
    if args.suite == "all" and given:
        raise ValueError(f"verify all runs fixed instances and takes no {', '.join(given)}")
    for name, default in _INSTANCE_FLAGS.items():
        if getattr(args, name) is None:
            setattr(args, name, default)
    if args.suite in ("skein", "linking", "all") and args.count < 0:
        raise ValueError(f"--count must be at least 0, got {args.count}")
    if args.suite == "hecke" and args.m < 1:
        raise ValueError(f"--m must be at least 1, got {args.m}")
    if args.suite == "presentation":
        report = presentation_check(args.r, args.s, args.n)
        marks = (f"[{'ok' if res.holds else 'FAIL'}] {res.name}" for res in report.results if res.applicable)
        _emit(args, report.to_json(), lambda: "\n".join(marks))
        return 0 if report.all_pass else 1
    if args.suite == "duality":
        report = verify_schur_weyl(args.n, args.r, args.s, _parse_q0(args.q0))
        _emit(args, report.to_json(), lambda: "\n".join([
            f"duality at n={report.n} r={report.r} s={report.s} q0={report.q0}:",
            f"  image rank {report.image_rank}, commutant dimension {report.commutant_dim}",
            f"  annihilators: walled {report.annihilator_dim}, all-down {report.hecke_annihilator_dim}",
            f"  faithful: {report.faithful}",
            *(f"  [{'ok' if claim.holds else 'FAIL'}] {claim.name}: {claim.detail}" for claim in report.claims),
        ]))
        return 0 if report.all_pass else 1
    if args.suite == "skein":
        data = _run_skein_suite(args.n, args.seed, args.count)
    elif args.suite == "hecke":
        data = _run_hecke_suite(args.n, args.m)
    elif args.suite == "linking":
        data = _run_linking_suite(args.n, args.seed, args.count)
    else:
        return _cmd_verify_all(args)
    _emit(args, data, lambda: _human_checks(data))
    return 0 if data["allPass"] else 1


def _cmd_verify_all(args: argparse.Namespace) -> int:
    suites = [
        _run_skein_suite(2, args.seed, args.count),
        _run_hecke_suite(3, 3),
        _run_linking_suite(2, args.seed, args.count),
    ]
    for r, s in ((1, 1), (2, 1), (1, 2)):
        data = {"suite": "presentation", **presentation_check(r, s, 2).to_json()}
        data["checks"] = [
            {"name": rel["name"], "holds": rel["holds"], "detail": f"{rel['lhs']} = {rel['rhs']}"}
            for rel in data.pop("relations")
            if rel["applicable"]
        ]
        suites.append(data)
    for n, r, s in ((2, 1, 1), (2, 2, 1)):
        data = verify_schur_weyl(n, r, s, Fraction(5, 3)).to_json()
        del data["timingsSeconds"]
        data["suite"] = "duality"
        data["checks"] = data.pop("claims")
        suites.append(data)
    overall = {
        "suite": "all",
        "seed": args.seed,
        "allPass": all(s["allPass"] for s in suites),
        "suites": suites,
    }

    def human() -> str:
        lines = [f"verify all: {'all pass' if overall['allPass'] else 'FAILED'} (seed {args.seed})"]
        for suite in suites:
            params = ", ".join(f"{key}={suite[key]}" for key in ("n", "r", "s", "m", "q0") if key in suite)
            mark = "ok" if suite["allPass"] else "FAIL"
            lines.append(f"  [{mark}] {suite['suite']}" + (f" ({params})" if params else ""))
        return "\n".join(lines)

    _emit(args, overall, human)
    return 0 if overall["allPass"] else 1


# -- argument plumbing --------------------------------------------------------


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """Built on the first ``main`` call, never at import, then reused."""
    parser = argparse.ArgumentParser(
        prog="walled-tangles",
        description="Exact computations in the walled tangle algebra and its tensor-space representation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, n=True):
        if n:
            p.add_argument("--n", type=int, required=True, help="labels run over 1..n")
        p.add_argument("--format", choices=("human", "json"), default="json")

    p = sub.add_parser("normalize", help="normal form of a tangle word")
    common(p)
    p.add_argument("--type", required=True, help="boundary type, e.g. 'vv^|v^v'")
    p.add_argument("--word", default="", help="slice word, e.g. 'X+(1) U(2)'")
    p.add_argument("--word-file", help="read the slice word from a UTF-8 file")
    p.set_defaults(func=_cmd_normalize)

    p = sub.add_parser("multiply", help="product of two tangle words")
    common(p)
    p.add_argument("--left", required=True, help="first factor as 'TYPE : WORD'")
    p.add_argument("--right", required=True, help="second factor as 'TYPE : WORD'")
    p.set_defaults(func=_cmd_multiply)

    p = sub.add_parser("matrix", help="operator matrix of a word or generator list")
    common(p)
    p.add_argument("--type", help="boundary type of the word")
    p.add_argument("--word", default="", help="slice word")
    p.add_argument("--word-file", help="read the slice word from a UTF-8 file")
    p.add_argument("--generators", help="generator tokens, e.g. 'E(1) K(2)'")
    p.add_argument("--boundary", help="tensor boundary for --generators, e.g. 'vv^'")
    p.set_defaults(func=_cmd_matrix)

    p = sub.add_parser("structure-constants", help="all pairwise basis products")
    common(p)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.set_defaults(func=_cmd_structure_constants)

    p = sub.add_parser("hecke-to-walled", help="carry an all-down word across the wall")
    common(p)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--word", default="", help="slice word on r+s down strands")
    p.add_argument("--word-file", help="read the slice word from a UTF-8 file")
    p.set_defaults(func=_cmd_hecke_to_walled)

    p = sub.add_parser("flip", help="classical flip of a permutation word's matching")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--word", default="", help="slice word on r+s down strands")
    p.add_argument("--word-file", help="read the slice word from a UTF-8 file")
    common(p, n=False)
    p.set_defaults(func=_cmd_flip)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("suite", choices=("skein", "hecke", "presentation", "linking", "duality", "all"))
    p.add_argument("--n", type=int)
    p.add_argument("--r", type=int)
    p.add_argument("--s", type=int)
    p.add_argument("--m", type=int, help="largest strand count for the hecke suite")
    p.add_argument("--q0", help="exact rational specialization point, negative as --q0=-5/3")
    p.add_argument("--seed", type=int, default=7, help="seed for the sampled suites, echoed in the report")
    p.add_argument("--count", type=int, default=25, help="sample count for the sampled suites")
    common(p, n=False)
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ResourceLimitError as err:
        print(f"resource limit: {err}", file=sys.stderr)
        return 1
    except (RecursionError, MemoryError) as err:
        print(f"resource limit: {err or type(err).__name__}", file=sys.stderr)
        return 1
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
