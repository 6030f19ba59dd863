"""End-to-end checks of the command line front end: frozen outputs of the
documented examples, exit codes, the textual language round trip, and schema
validation of every JSON output shape."""

from __future__ import annotations

import importlib.util
import json
import os
import pathlib
import random
import subprocess
import sys

import pytest
from conftest import random_word
from hypothesis import given, settings, strategies as st
from schema_check import validate

from walled_tangles import cli, skein
from walled_tangles.cli import _build_parser, _json_text, main, parse_dsl
from walled_tangles.duality import ResourceLimitError
from walled_tangles.qgroup import E, F, K, QH
from walled_tangles.tangle import (
    DslError,
    Max,
    Min,
    Sweep,
    algebra_type,
    parse_word,
    render_word,
)

ROOT = pathlib.Path(__file__).resolve().parent.parent
SCHEMAS = ROOT / "schemas"


def load_schema(name: str) -> dict:
    with open(SCHEMAS / name, encoding="utf-8") as handle:
        return json.load(handle)


def run_cli(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv: str, schema: str) -> dict:
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    data = json.loads(out)
    problems = validate(data, load_schema(schema))
    assert not problems, problems
    return data


def coeffs_by_connector(data: dict) -> dict:
    return {
        tuple(tuple(edge) for edge in term["connector"]): term["coeff"]
        for term in data["terms"]
    }


class TestNormalize:
    def test_double_crossing(self, capsys):
        data = run_json(
            capsys,
            "normalize", "--n", "2", "--type", "vv|vv", "--word", "X+(1) X+(1)",
            schema="element.schema.json",
        )
        assert data["type"] == "vv|vv"
        assert data["n"] == 2
        assert coeffs_by_connector(data) == {
            (("T1", "B1"), ("T2", "B2")): {"0": "1"},
            (("T1", "B2"), ("T2", "B1")): {"-1": "1", "1": "-1"},
        }

    def test_human_format_sorts_exponents(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "normalize", "--n", "2", "--type", "vv|vv",
            "--word", "X+(1) X+(1)", "--format", "human",
        )
        assert code == 0
        assert out.strip() == "(1*q^0) {T1-B1,T2-B2} + (1*q^-1 + -1*q^1) {T1-B2,T2-B1}"

    def test_word_file(self, capsys, tmp_path):
        path = tmp_path / "word.txt"
        path.write_text("X+(1)\nX+(1)\n", encoding="utf-8")
        data = run_json(
            capsys,
            "normalize", "--n", "2", "--type", "vv|vv", "--word-file", str(path),
            schema="element.schema.json",
        )
        assert len(data["terms"]) == 2

    def test_out_of_range_position_is_a_usage_error(self, capsys):
        code, _, err = run_cli(
            capsys, "normalize", "--n", "2", "--type", "vv|vv", "--word", "X+(9)"
        )
        assert code == 2
        assert "column 1" in err
        assert "9" in err

    def test_wrong_bottom_is_a_usage_error(self, capsys):
        code, _, err = run_cli(
            capsys, "normalize", "--n", "2", "--type", "vv|vv", "--word", "N<(1)"
        )
        assert code == 2
        assert "error" in err

    def test_bad_type_is_a_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "normalize", "--n", "2", "--type", "vv", "--word", "")
        assert code == 2
        assert "'|'" in err


class TestMultiplyAndTransport:
    def test_turnback_square(self, capsys):
        data = run_json(
            capsys,
            "multiply", "--n", "2",
            "--left", "v^|v^ : E(1)", "--right", "v^|v^ : E(1)",
            schema="element.schema.json",
        )
        assert coeffs_by_connector(data) == {
            (("T1", "T2"), ("B2", "B1")): {"-1": "1", "1": "1"}
        }

    def test_transport_of_the_empty_word(self, capsys):
        data = run_json(
            capsys,
            "hecke-to-walled", "--r", "1", "--s", "1", "--n", "2", "--word", "",
            schema="element.schema.json",
        )
        assert coeffs_by_connector(data) == {
            (("T1", "B1"), ("B2", "T2")): {"0": "1"}
        }

    @pytest.mark.parametrize("command", ["hecke-to-walled", "flip"])
    @pytest.mark.parametrize("r,s", [("3", "-1"), ("-2", "3")], ids=["s", "r"])
    def test_negative_strand_count_is_a_usage_error(self, capsys, command, r, s):
        extra = ("--n", "2") if command == "hecke-to-walled" else ()
        code, out, err = run_cli(capsys, command, "--r", r, "--s", s, *extra, "--word", "X+(1)")
        assert (code, out, err) == (2, "", "error: strand counts must be nonnegative\n")

    #: Failing products: the label count is checked before the boundaries,
    #: and both only after each factor parses as a word.
    MULTIPLY_ERRORS = {
        "n0": (
            ("--n", "0", "--left", "v^|v^ : E(1)", "--right", "v^|v^ : E(1)"),
            "error: label count n must be at least 1, got 0\n",
        ),
        "mismatch": (
            ("--n", "2", "--left", "vv|vv : X+(1)", "--right", "v^|v^ : E(1)"),
            "error: cannot multiply: bottom of the first differs from top of the second\n",
        ),
        "n0-and-mismatch": (
            ("--n", "0", "--left", "vv|vv : X+(1)", "--right", "v^|v^ : E(1)"),
            "error: label count n must be at least 1, got 0\n",
        ),
        "negative-n-and-mismatch": (
            ("--n", "-3", "--left", "v^|^v : X+(1)", "--right", "vv|vv : X+(1)"),
            "error: label count n must be at least 1, got -3\n",
        ),
        "generators-left": (
            ("--n", "2", "--left", "E(1) K(1)", "--right", "v^|v^ : E(1)"),
            "error: column 1: multiply needs two tangle words with type headers\n",
        ),
        "generators-right": (
            ("--n", "2", "--left", "v^|v^ : E(1)", "--right", "F(1)"),
            "error: column 1: multiply needs two tangle words with type headers\n",
        ),
        "generators-and-n0": (
            ("--n", "0", "--left", "E(1)", "--right", "vv|vv : X+(1)"),
            "error: column 1: multiply needs two tangle words with type headers\n",
        ),
    }

    @pytest.mark.parametrize("case", MULTIPLY_ERRORS.values(), ids=MULTIPLY_ERRORS.keys())
    def test_multiply_error_paths(self, capsys, case):
        argv, message = case
        assert run_cli(capsys, "multiply", *argv) == (2, "", message)

    def test_flip_swaps_right_of_wall_in_place(self, capsys):
        data = run_json(
            capsys,
            "flip", "--r", "2", "--s", "1", "--word", "X+(2)",
            schema="connector.schema.json",
        )
        assert data["type"] == "vv^|vv^"
        assert data["edges"] == [["T1", "B1"], ["T2", "T3"], ["B3", "B2"]]


def _bench_workloads():
    path = ROOT / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _element_product_json(n: int, left: str, right: str) -> str:
    """The oracle: the element product of the two factors' normal forms."""
    return _json_text(skein.multiply(*(skein.normalize(parse_dsl(f), n) for f in (left, right))).to_json())


class TestMultiplyFold:
    """``multiply`` on the CLI folds the stacked word once; the product of
    the factors' normal forms is its oracle."""

    WALLED = [(r, m - r) for m in range(2, 5) for r in range(m + 1)]

    def test_short_walled_products_match_the_element_product(self, capsys):
        walled_word = _bench_workloads()._walled_word
        rng = random.Random("multiply-fold")
        pairs = turnbacks = 0
        while pairs < 320:
            r, s = rng.choice(self.WALLED)
            n = rng.choice((1, 2, 3))
            top = "v" * r + "^" * s
            left, middle = walled_word(rng, top, rng.randint(1, 4))
            right, bottom = walled_word(rng, middle, rng.randint(1, 4))
            left, right = f"{top}|{middle} : {left}", f"{middle}|{bottom} : {right}"
            if not all(2 <= len(parse_dsl(f).slices) <= 6 for f in (left, right)):
                continue
            code, out, err = run_cli(capsys, "multiply", "--n", str(n), "--left", left, "--right", right)
            assert (code, err) == (0, "")
            assert out == _element_product_json(n, left, right) + "\n", (n, left, right)
            pairs += 1
            turnbacks += "E(" in left + right
        assert turnbacks >= 100

    #: Seeds of all-down braid pairs on 5 or 6 strands, 12-16 crossings a
    #: factor, whose product has 10-200 terms (seed 4 draws one of 495).
    BRAID_SEEDS = (0, 1, 2, 3, 5, 6, 7, 8)

    @pytest.mark.parametrize("seed", BRAID_SEEDS)
    def test_braid_products_match_the_element_product(self, capsys, seed):
        rng = random.Random(f"braid-product:{seed}")
        k = rng.choice((5, 6))
        left, right = (
            f"{'v' * k}|{'v' * k} : "
            + " ".join(f"X{rng.choice('+-')}({rng.randint(1, k - 1)})" for _ in range(rng.randint(12, 16)))
            for _ in range(2)
        )
        code, out, err = run_cli(capsys, "multiply", "--n", "2", "--left", left, "--right", right)
        assert (code, err) == (0, "")
        assert 10 <= len(json.loads(out)["terms"]) <= 200
        assert out == _element_product_json(2, left, right) + "\n"


class TestMatrix:
    def test_identity_word(self, capsys):
        data = run_json(
            capsys, "matrix", "--n", "2", "--type", "v|v", "--word", "",
            schema="matrix.schema.json",
        )
        entries = {(tuple(e["row"]), tuple(e["col"])): e["coeff"] for e in data["entries"]}
        assert entries == {((1,), (1,)): {"0": "1"}, ((2,), (2,)): {"0": "1"}}
        assert data["rows"] == "v" and data["cols"] == "v"

    def test_generator_list(self, capsys):
        data = run_json(
            capsys,
            "matrix", "--n", "2", "--generators", "E(1) K(1)", "--boundary", "v^",
            schema="matrix.schema.json",
        )
        assert data["rows"] == "v^"
        assert data["entries"]

    def test_generators_without_boundary_is_a_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "matrix", "--n", "2", "--generators", "E(1)")
        assert code == 2
        assert "boundary" in err

    @pytest.mark.parametrize("boundary,column", [("v|", 2), ("v^|^", 3), ("|", 1)])
    def test_bar_in_boundary_is_reported_at_its_own_column(self, capsys, boundary, column):
        code, out, err = run_cli(capsys, "matrix", "--n", "2", "--generators", "E(1)", "--boundary", boundary)
        assert (code, out) == (2, "")
        assert err == f"error: column {column}: a boundary has no '|'\n"

    @pytest.mark.parametrize(
        "argv,labels",
        [
            (("--n", "4", "--type", "v12|v12", "--word", "X+(1)"), 16777216),
            # The peak makes the widest level two points wider than the boundary.
            (("--n", "2", "--type", "v11|v11", "--word", "N>(1) U(1)"), 8192),
            (("--n", "4", "--boundary", "v^" * 4, "--generators", "E(1)"), 65536),
        ],
    )
    def test_oversized_matrix_fails_before_any_rendering(self, capsys, monkeypatch, argv, labels):
        def blow_up(*args, **kwargs):
            raise AssertionError("a matrix was rendered")

        monkeypatch.setattr("walled_tangles.cli.matrix_of_word", blow_up)
        monkeypatch.setattr("walled_tangles.cli.word_matrix", blow_up)
        code, out, err = run_cli(capsys, "matrix", *argv)
        assert (code, out) == (1, "")
        assert err.startswith("resource limit: ") and f"has {labels} labels" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv,charge",
        [
            # 44 crossings on twelve points: 4096 labels pass their own charge, but not 44 times over.
            (("--n", "2", "--type", "v12|v12", "--word", " ".join(f"X{'+-'[k % 2]}({k % 11 + 1})" for k in range(44))), 44 * 4096),
            (("--n", "4", "--boundary", "v^v^vv", "--generators", " ".join(["E(1)"] * 9)), 9 * 4096),
        ],
    )
    def test_long_product_on_the_label_budget_fails_before_any_rendering(self, capsys, monkeypatch, argv, charge):
        def blow_up(*args, **kwargs):
            raise AssertionError("a matrix was rendered")

        monkeypatch.setattr("walled_tangles.cli.matrix_of_word", blow_up)
        monkeypatch.setattr("walled_tangles.cli.word_matrix", blow_up)
        code, out, err = run_cli(capsys, "matrix", *argv)
        assert (code, out) == (1, "")
        assert err.startswith("resource limit: ") and f"has {charge} label-factors" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("--n", "2", "--type", "v10|v10", "--word", "N>(1) U(1)"),
            ("--n", "4", "--boundary", "v^v^vv", "--generators", "E(1)"),
        ],
    )
    def test_matrix_at_the_label_budget_is_rendered(self, capsys, monkeypatch, argv):
        class Rendered(Exception):
            pass

        def rendered(*args, **kwargs):
            raise Rendered

        assert cli.MATRIX_LABEL_BUDGET == 4096
        monkeypatch.setattr("walled_tangles.cli.matrix_of_word", rendered)
        monkeypatch.setattr("walled_tangles.cli.word_matrix", rendered)
        with pytest.raises(Rendered):
            cli.main(["matrix", *argv])

    def test_bad_generator_index_is_a_usage_error(self, capsys):
        code, _, err = run_cli(
            capsys, "matrix", "--n", "2", "--generators", "K(5)", "--boundary", "v^"
        )
        assert code == 2
        assert "5" in err


class TestStructureConstants:
    def test_smallest_walled_table(self, capsys):
        data = run_json(
            capsys, "structure-constants", "--r", "1", "--s", "1", "--n", "2",
            schema="structure-constants.schema.json",
        )
        assert len(data["products"]) == 4
        by_pair = {
            (
                tuple(tuple(e) for e in product["left"]),
                tuple(tuple(e) for e in product["right"]),
            ): product["element"]
            for product in data["products"]
        }
        turnback = (("T1", "T2"), ("B2", "B1"))
        square = by_pair[(turnback, turnback)]
        assert coeffs_by_connector(square) == {turnback: {"-1": "1", "1": "1"}}

    def test_oversized_table_fails_before_any_work(self, capsys, monkeypatch):
        def blow_up(*args, **kwargs):
            raise AssertionError("the table was computed")

        monkeypatch.setattr("walled_tangles.cli.structure_constants", blow_up)
        code, out, err = run_cli(capsys, "structure-constants", "--r", "3", "--s", "3", "--n", "2")
        assert code == 1
        assert out == ""
        assert err.startswith("resource limit: ") and "518400 products" in err
        assert "Traceback" not in err


# Strings with quotes, backslashes, control and non-ASCII characters.
TEXT = st.text(st.sampled_from('"\\/\x00\x1f\x7f\n\t\u00e9\u2028\U0001f600a') | st.characters(), max_size=8)
SCALARS = st.none() | st.booleans() | st.integers() | st.floats() | TEXT
JSON_VALUES = st.recursive(
    SCALARS,
    lambda children: (
        st.lists(children, max_size=4)
        | st.lists(children, max_size=4).map(tuple)
        | st.dictionaries(TEXT, children, max_size=4)
    ),
    max_leaves=20,
)


class TestJsonText:
    """The CLI's emitter writes what ``json.dumps(data, indent=2)`` writes."""

    @given(JSON_VALUES)
    @settings(max_examples=150, deadline=None)
    def test_matches_json_dumps(self, data):
        assert _json_text(data) == json.dumps(data, indent=2)

    @given(st.lists(JSON_VALUES, max_size=3).map(tuple), JSON_VALUES)
    @settings(max_examples=100, deadline=None)
    def test_shared_tuple_at_two_depths(self, shared, other):
        data = {"a": shared, "b": [shared, {"c": (shared, other)}], "d": [other, shared]}
        assert _json_text(data) == json.dumps(data, indent=2)

    @pytest.mark.parametrize("data", [{}, [], (), {"a": {}, "b": [[], ()]}, [float("nan"), float("-inf"), 1e300]])
    def test_empty_containers_and_special_floats(self, data):
        assert _json_text(data) == json.dumps(data, indent=2)

    def test_verify_all_payload(self, capsys, monkeypatch):
        payloads = []

        def recording(data):
            payloads.append((data, _json_text(data)))
            return payloads[-1][1]

        monkeypatch.setattr(cli, "_json_text", recording)
        code, out, _ = run_cli(capsys, "verify", "all", "--seed", "7")
        assert code == 0 and len(payloads) == 1
        data, text = payloads[0]
        assert text == json.dumps(data, indent=2)
        assert out == text + "\n"


class TestVerify:
    def test_presentation_all_pass(self, capsys):
        data = run_json(
            capsys, "verify", "presentation", "--r", "2", "--s", "2", "--n", "2",
            schema="presentation-report.schema.json",
        )
        assert data["allPass"] is True

    def test_duality_faithful_case(self, capsys):
        data = run_json(
            capsys,
            "verify", "duality", "--n", "2", "--r", "1", "--s", "1", "--q0", "5/3",
            schema="duality-report.schema.json",
        )
        assert data["imageRank"] == 2
        assert data["commutantDim"] == 2
        assert data["faithful"] is True
        assert data["allPass"] is True
        assert data["q0"] == "5/3"

    def test_duality_unfaithful_case_still_passes(self, capsys):
        data = run_json(
            capsys,
            "verify", "duality", "--n", "2", "--r", "2", "--s", "1", "--q0", "5/3",
            schema="duality-report.schema.json",
        )
        assert data["imageRank"] == 5
        assert data["commutantDim"] == 5
        assert data["annihilatorDim"] == 1
        assert data["heckeAnnihilatorDim"] == 1
        assert data["faithful"] is False
        assert data["allPass"] is True

    def test_negative_specialization_point_in_equals_form(self, capsys):
        data = run_json(
            capsys,
            "verify", "duality", "--n", "2", "--r", "2", "--s", "1", "--q0=-5/3",
            schema="duality-report.schema.json",
        )
        assert data["q0"] == "-5/3"
        assert data["imageRank"] == 5
        assert data["commutantDim"] == 5
        assert data["allPass"] is True

    def test_bad_specialization_point_is_a_usage_error(self, capsys):
        for bad in ("zebra", "0"):
            code, _, err = run_cli(
                capsys, "verify", "duality", "--n", "2", "--r", "1", "--s", "1", "--q0", bad
            )
            assert code == 2, bad
            assert err

    def test_resource_limit_exits_one(self, capsys, monkeypatch):
        def blow_up(*args, **kwargs):
            raise ResourceLimitError("too many unknowns")

        monkeypatch.setattr("walled_tangles.cli.verify_schur_weyl", blow_up)
        code, _, err = run_cli(
            capsys, "verify", "duality", "--n", "2", "--r", "1", "--s", "1"
        )
        assert code == 1
        assert "resource limit" in err

    @pytest.mark.parametrize(
        "error", [RecursionError("maximum recursion depth exceeded"), MemoryError()]
    )
    def test_interpreter_limits_exit_one(self, capsys, monkeypatch, error):
        def blow_up(*args, **kwargs):
            raise error

        monkeypatch.setattr("walled_tangles.cli.verify_schur_weyl", blow_up)
        code, _, err = run_cli(
            capsys, "verify", "duality", "--n", "2", "--r", "1", "--s", "1"
        )
        assert code == 1
        assert err.startswith("resource limit: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("n,r,s", [("0", "1", "1"), ("0", "0", "0"), ("-2", "2", "1")])
    def test_duality_label_count_below_one_is_a_usage_error(self, capsys, n, r, s):
        code, out, err = run_cli(capsys, "verify", "duality", "--n", n, "--r", r, "--s", s)
        assert (code, out) == (2, "")
        assert err == f"error: label count n must be at least 1, got {n}\n"
        assert "Traceback" not in err

    @pytest.mark.parametrize("r,s", [("-1", "0"), ("-3", "1"), ("2", "-1")])
    def test_duality_negative_strand_count_is_a_usage_error(self, capsys, r, s):
        code, out, err = run_cli(capsys, "verify", "duality", "--n", "2", "--r", r, "--s", s)
        assert (code, out, err) == (2, "", "error: strand counts must be nonnegative\n")

    @pytest.mark.parametrize("suite", ["skein", "linking"])
    def test_sampled_suites_echo_their_seed(self, capsys, suite):
        data = run_json(
            capsys,
            "verify", suite, "--n", "2", "--seed", "123", "--count", "8",
            schema="suite-report.schema.json",
        )
        assert data["seed"] == 123
        assert data["count"] == 8
        assert data["allPass"] is True

    def test_hecke_suite(self, capsys):
        data = run_json(
            capsys, "verify", "hecke", "--n", "2", "--m", "3",
            schema="suite-report.schema.json",
        )
        assert data["allPass"] is True
        assert [c["name"] for c in data["checks"]] == [
            "actionCoincidesWithCrossings",
            "quadraticRelation",
            "braidRelation",
        ]

    def test_broken_relation_is_reported_by_name(self, capsys, monkeypatch):
        # A doubled identity breaks the right-hand side of the quadratic
        # relations only; the generators and products are untouched.
        exact = skein.identity_element
        monkeypatch.setattr(skein, "identity_element", lambda r, s, n: exact(r, s, n).scaled(2))
        code, out, _ = run_cli(capsys, "verify", "presentation", "--r", "2", "--s", "2", "--n", "2")
        data = json.loads(out)
        assert code == 1
        assert data["allPass"] is False
        failed = [rel["name"] for rel in data["relations"] if not rel["holds"]]
        assert failed == ["down quadratic relation", "up quadratic relation"]
        assert all(rel["applicable"] for rel in data["relations"] if not rel["holds"])

    def test_broken_hecke_action_is_reported_by_name(self, capsys, monkeypatch):
        # A doubled action no longer equals the crossing-word matrix and
        # breaks the quadratic relation; the braid relation, cubic on both
        # sides, still holds.
        exact = cli.hecke_action_matrix
        monkeypatch.setattr(cli, "hecke_action_matrix", lambda m, k, n: exact(m, k, n).scaled(2))
        code, out, _ = run_cli(capsys, "verify", "hecke", "--n", "2", "--m", "3")
        data = json.loads(out)
        assert code == 1
        assert data["allPass"] is False
        assert {c["name"]: c["holds"] for c in data["checks"]} == {
            "actionCoincidesWithCrossings": False,
            "quadraticRelation": False,
            "braidRelation": True,
        }

    @pytest.mark.parametrize(
        "argv",
        [
            ("skein", "--count", "-1"),
            ("linking", "--count", "-1"),
            ("all", "--count", "-1"),
            ("hecke", "--m", "-3"),
            ("hecke", "--m", "0"),
        ],
        ids=["skein", "linking", "all", "hecke", "hecke-zero"],
    )
    def test_out_of_range_count_or_m_is_a_usage_error(self, capsys, argv):
        # The report schemas require count >= 0 and m >= 1.
        code, out, err = run_cli(capsys, "verify", *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and argv[1] in err

    @pytest.mark.parametrize(
        "flags,named",
        [(["--n", "5"], "--n"), (["--n", "2"], "--n"), (["--r", "3", "--s", "3"], "--r, --s"), (["--q0", "7"], "--q0"), (["--m", "9"], "--m")],
    )
    def test_verify_all_refuses_the_instance_flags(self, capsys, flags, named):
        # It runs fixed instances, so these flags would change nothing; the default value is refused too.
        code, out, err = run_cli(capsys, "verify", "all", "--seed", "7", "--count", "3", *flags)
        assert (code, out) == (2, "")
        assert err == f"error: verify all runs fixed instances and takes no {named}\n"

    def test_verify_all_is_deterministic(self, capsys):
        first_code, first_out, _ = run_cli(capsys, "verify", "all", "--seed", "7", "--count", "10")
        second_code, second_out, _ = run_cli(capsys, "verify", "all", "--seed", "7", "--count", "10")
        assert first_code == 0 and second_code == 0
        assert first_out == second_out
        data = json.loads(first_out)
        problems = validate(data, load_schema("verify-all.schema.json"))
        assert not problems, problems
        assert data["allPass"] is True
        assert data["seed"] == 7
        assert len(data["suites"]) == 8


class TestUsage:
    def test_no_subcommand(self, capsys):
        assert run_cli(capsys, *[])[0] == 2

    def test_unknown_subcommand(self, capsys):
        assert run_cli(capsys, "frobnicate")[0] == 2

    def test_missing_required_option(self, capsys):
        assert run_cli(capsys, "normalize", "--n", "2")[0] == 2


#: One command per subcommand that reads ``--word-file``, all arguments but the file.
WORD_FILE_COMMANDS = (
    ("normalize", "--n", "2", "--type", "vv|vv"),
    ("matrix", "--n", "2", "--type", "vv|vv"),
    ("hecke-to-walled", "--r", "1", "--s", "1", "--n", "2"),
    ("flip", "--r", "1", "--s", "1"),
)


class TestWordFile:
    @pytest.mark.parametrize("command", WORD_FILE_COMMANDS, ids=lambda c: c[0])
    @pytest.mark.parametrize("target", ["missing.txt", "."], ids=["missing", "directory"])
    def test_unreadable_word_file_is_a_usage_error(self, capsys, tmp_path, command, target):
        path = tmp_path / target
        code, out, err = run_cli(capsys, *command, "--word-file", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error: cannot read --word-file")
        assert str(path) in err
        assert "Traceback" not in err


#: Valid calls whose output is deterministic, with and without defaults
#: (``verify hecke`` and the human duality report rely on them).
VALID_CALLS = (
    ("normalize", "--n", "2", "--type", "vv|vv", "--word", "X+(1) X+(1)"),
    ("multiply", "--n", "2", "--left", "v^|v^ : E(1)", "--right", "v^|v^ : E(1)", "--format", "human"),
    ("verify", "hecke"),
    ("verify", "duality", "--n", "2", "--r", "1", "--s", "1", "--format", "human"),
    ("flip", "--r", "2", "--s", "1", "--word", "X+(2)"),
    ("matrix", "--n", "2", "--generators", "E(1) K(1)", "--boundary", "v^", "--format", "human"),
)

#: Failing calls and their exit status: a usage error, --help, a DslError, a
#: resource-limit refusal, and a negative --q0 written as its own argument.
FAILING_CALLS = (
    (("normalize", "--n", "2"), 2),
    (("normalize", "--help"), 0),
    (("normalize", "--n", "2", "--type", "vv|vv", "--word", "X+(9)"), 2),
    (("verify", "duality", "--n", "2", "--r", "4", "--s", "4"), 1),
    (("verify", "duality", "--n", "2", "--r", "1", "--s", "1", "--q0", "-5/3"), 2),
)


class TestParserReuse:
    def test_failing_calls_leave_the_shared_parser_intact(self, capsys):
        expected = []
        for argv in VALID_CALLS:
            _build_parser.cache_clear()
            expected.append(run_cli(capsys, *argv))
            assert expected[-1][0] == 0, argv
        _build_parser.cache_clear()
        for k, argv in enumerate(VALID_CALLS):
            for failing, status in FAILING_CALLS[k:] + FAILING_CALLS[:k]:
                assert run_cli(capsys, *failing)[0] == status, failing
                assert run_cli(capsys, *argv) == expected[k], argv
        assert _build_parser.cache_info().misses == 1

    def test_import_builds_no_parser(self):
        paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
        probe = "import walled_tangles.cli as cli; print(cli._build_parser.cache_info().currsize)"
        result = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
        assert result.stdout == "0\n"

    def test_import_leaves_out_dataclasses_and_inspect(self):
        # Without site (-S), only the package's own imports fill sys.modules.
        paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
        probe = "import sys, walled_tangles.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
        result = subprocess.run([sys.executable, "-S", "-c", probe], env=env, capture_output=True, text=True, check=True)
        assert result.stdout == "[]\n"


class TestParseDsl:
    def test_word_with_type_header(self):
        word = parse_dsl("v^|v^ : E(1)")
        assert word.slices == (Min(1), Max(1, Sweep.RIGHT_TO_LEFT))

    def test_generator_list(self):
        gens = parse_dsl("E(1) F(2,2) K(1) K'(3) qh(1,0,-1)")
        assert gens == [E(1), F(2, 2), K(1, 1), K(3, -1), QH((1, 0, -1))]

    def test_unknown_token_position(self):
        with pytest.raises(DslError) as info:
            parse_dsl("K(1) banana")
        assert info.value.position == 5

    def test_non_integer_argument(self):
        with pytest.raises(DslError):
            parse_dsl("E(x)")

    def test_empty_weight(self):
        with pytest.raises(DslError):
            parse_dsl("qh()")


class TestRoundTrip:
    @pytest.mark.parametrize("seed", range(6))
    def test_sampled_words_reparse_identically(self, seed):
        rng = random.Random(seed)
        for _ in range(40):
            word = random_word(rng, max_crossings=4, max_slices=6)
            text = render_word(word)
            again = parse_word(text, word.ty)
            assert again.slices == word.slices
            assert render_word(again) == text

    def test_macro_renders_expanded(self):
        word = parse_word("E(1)", algebra_type(1, 1))
        assert render_word(word) == "U(1) N<(1)"


class TestSchemaChecker:
    def test_rejects_bad_exponent_key(self):
        instance = {
            "type": "v|v",
            "n": 2,
            "terms": [{"connector": [["T1", "B1"]], "coeff": {"half": "1"}}],
        }
        assert validate(instance, load_schema("element.schema.json"))

    def test_rejects_missing_required_key(self):
        assert validate({"type": "v|v", "n": 2}, load_schema("element.schema.json"))

    def test_rejects_unexpected_key(self):
        instance = {"type": "v|v", "n": 2, "terms": [], "extra": 1}
        assert validate(instance, load_schema("element.schema.json"))
