"""The contract of the package's value classes: how they print, compare,
hash, default and refuse assignment.

Each class is a record of its annotated fields in order.  ``repr`` reads
``Name(field=value!r, ...)``, equality holds only between objects of the same
class with equal fields, and a hashable instance hashes as the tuple of its
fields.  The frozen records refuse assignment to a field; the mutable-looking
elements and matrices compare by value and are unhashable.
"""

from __future__ import annotations

from fractions import Fraction

import pytest

from walled_tangles.duality import ClaimResult, DualityReport
from walled_tangles.laurent import LaurentPoly
from walled_tangles.qgroup import E, F, K, QH
from walled_tangles.rep import OperatorMatrix
from walled_tangles.skein import PresentationReport, RelationResult, TangleElement
from walled_tangles.tangle import (
    DOWN,
    UP,
    Connector,
    Cross,
    CrossingInfo,
    Hand,
    LoopInfo,
    Max,
    Min,
    Sweep,
    TangleType,
    TangleWord,
    all_down_type,
    connector_of,
    strand_graph,
)

FO = Hand.FIRST_OVER
DD = TangleType((DOWN, DOWN), (DOWN, DOWN))
WORD = TangleWord(all_down_type(2), [Cross(1, FO)])
DD_TEXT = "TangleType(top=(DOWN, DOWN), bottom=(DOWN, DOWN))"
WORD_TEXT = f"TangleWord(ty={DD_TEXT}, slices=(Cross(pos=1, hand=FIRST_OVER),))"
CONNECTOR_TEXT = f"Connector(ty={DD_TEXT}, edges=((('T', 1), ('B', 2)), (('T', 2), ('B', 1))))"
CROSSING = CrossingInfo(0, FO, (DOWN, DOWN), -1, 0, 0, 1, 0)
CROSSING_TEXT = (
    "CrossingInfo(slice_index=0, hand=FIRST_OVER, entry=(DOWN, DOWN), sign=-1, "
    "component_a=0, time_a=0, component_b=1, time_b=0)"
)
CLAIM = ClaimResult("commutes", False, "slice block vv|vv : X+(1) does not intertwine E(i=1, l=1)")
RELATION = RelationResult("braid", True, True, "a", "b")
ELEMENT = TangleElement(DD, 2, {connector_of(WORD): LaurentPoly({1: 2})})
MATRIX = OperatorMatrix.identity(2, (DOWN,))

#: (instance, its repr, its field values in order) of each formerly frozen record.
FROZEN = [
    (Cross(1, FO), "Cross(pos=1, hand=FIRST_OVER)", (1, FO)),
    (Min(2), "Min(pos=2)", (2,)),
    (Max(1, Sweep.LEFT_TO_RIGHT), "Max(pos=1, sweep=LEFT_TO_RIGHT)", (1, Sweep.LEFT_TO_RIGHT)),
    (TangleType((DOWN,), (DOWN,)), "TangleType(top=(DOWN,), bottom=(DOWN,))", ((DOWN,), (DOWN,))),
    (CROSSING, CROSSING_TEXT, (0, FO, (DOWN, DOWN), -1, 0, 0, 1, 0)),
    (LoopInfo(0, UP, 0), "LoopInfo(creating_slice=0, orientation=UP, writhe=0)", (0, UP, 0)),
    (
        strand_graph(WORD),
        f"StrandGeometry(word={WORD_TEXT}, starts=(('T', 1), ('T', 2)), ends=(('B', 2), ('B', 1)), "
        f"strand_writhes=(0, 0), loops=(), crossings=({CROSSING_TEXT},))",
        (WORD, (("T", 1), ("T", 2)), (("B", 2), ("B", 1)), (0, 0), (), (CROSSING,)),
    ),
    (E(1), "E(i=1, l=1)", (1, 1)),
    (F(2, 3), "F(i=2, l=3)", (2, 3)),
    (K(2), "K(i=2, sign=1)", (2, 1)),
    (QH([1, 0]), "QH(weight=(1, 0))", ((1, 0),)),
    (CLAIM, f"ClaimResult(name='commutes', holds=False, detail={CLAIM.detail!r})", ("commutes", False, CLAIM.detail)),
    (
        DualityReport(2, 1, 1, Fraction(5, 3), 2, 2, 0, 0, True, (CLAIM,), (("ranks", 0.5),)),
        "DualityReport(n=2, r=1, s=1, q0=Fraction(5, 3), image_rank=2, commutant_dim=2, annihilator_dim=0, "
        f"hecke_annihilator_dim=0, faithful=True, claims=({CLAIM!r},), timings=(('ranks', 0.5),))",
        (2, 1, 1, Fraction(5, 3), 2, 2, 0, 0, True, (CLAIM,), (("ranks", 0.5),)),
    ),
    (RELATION, "RelationResult(name='braid', applicable=True, holds=True, lhs='a', rhs='b')", ("braid", True, True, "a", "b")),
    (
        PresentationReport(1, 1, 2, (RELATION,)),
        f"PresentationReport(r=1, s=1, n=2, results=({RELATION!r},))",
        (1, 1, 2, (RELATION,)),
    ),
]

#: (instance, its repr, its field values in order) of the classes with their own constructor.
VALUES = [
    (LaurentPoly({3: 1, -1: -1}), "LaurentPoly('-1*q^-1 + 1*q^3')", (((-1, -1), (3, 1)),)),
    (WORD, WORD_TEXT, (DD, (Cross(1, FO),))),
    (connector_of(WORD), CONNECTOR_TEXT, (DD, ((("T", 1), ("B", 2)), (("T", 2), ("B", 1))))),
    (
        ELEMENT,
        f"TangleElement(ty={DD_TEXT}, n=2, terms=(({CONNECTOR_TEXT}, LaurentPoly('2*q^1')),))",
        (DD, 2, ((connector_of(WORD), LaurentPoly({1: 2})),)),
    ),
    (
        MATRIX,
        "OperatorMatrix(n=2, row_type=(DOWN,), col_type=(DOWN,), "
        "entries={((1,), (1,)): LaurentPoly('1*q^0'), ((2,), (2,)): LaurentPoly('1*q^0')})",
        (2, (DOWN,), (DOWN,), MATRIX.entries),
    ),
]

UNHASHABLE = (TangleElement, OperatorMatrix)
CASES = FROZEN + VALUES


def _id(case) -> str:
    return type(case[0]).__name__


def _fields(obj) -> tuple:
    return tuple(getattr(obj, name) for name in type(obj).__annotations__)


def test_every_value_class_is_covered():
    assert len({type(obj) for obj, _, _ in CASES}) == 20


@pytest.mark.parametrize("case", CASES, ids=_id)
def test_repr(case):
    obj, text, _ = case
    assert repr(obj) == text


@pytest.mark.parametrize("case", CASES, ids=_id)
def test_fields_are_the_annotations_in_order(case):
    obj, _, fields = case
    assert _fields(obj) == fields


@pytest.mark.parametrize("case", CASES, ids=_id)
def test_equal_to_itself_and_to_a_copy_only(case):
    obj, _, fields = case
    assert obj == obj
    copy = type(obj)(*fields)
    assert copy == obj and not copy != obj
    assert obj != fields and fields != obj
    assert obj.__eq__(fields) is NotImplemented


@pytest.mark.parametrize("case", [c for c in CASES if not isinstance(c[0], UNHASHABLE)], ids=_id)
def test_hash_is_the_hash_of_the_fields(case):
    obj, _, fields = case
    assert hash(obj) == hash(fields)


@pytest.mark.parametrize("obj", [ELEMENT, MATRIX], ids=lambda obj: type(obj).__name__)
def test_elements_and_matrices_are_unhashable(obj):
    with pytest.raises(TypeError):
        hash(obj)


@pytest.mark.parametrize("case", FROZEN, ids=_id)
def test_frozen_fields_refuse_assignment(case):
    obj, _, fields = case
    name = next(iter(type(obj).__annotations__))
    with pytest.raises(AttributeError):
        setattr(obj, name, fields[0])
    assert _fields(obj) == fields


def test_equality_only_within_a_class():
    assert E(1) != F(1) and F(1) != K(1) and E(1) != K(1)
    assert Min(1) != (1,) and (1,) != Min(1)
    assert Min(1) != Max(1, Sweep.LEFT_TO_RIGHT) and Cross(1, FO) != Min(1)
    assert ClaimResult("a", True, "") != RelationResult("a", True, True, "", "")
    assert len({E(1), F(1), K(1), QH((1,))}) == 4
    assert LaurentPoly({0: 1}) != 1 and LaurentPoly({0: 1}) != ((0, 1),)


def test_defaults_and_keyword_construction():
    assert E.l == 1 and F.l == 1 and K.sign == 1
    assert E(1).l == 1 and F(3).l == 1 and K(2).sign == 1
    assert E(i=1, l=2) == E(1, 2) and F(l=2, i=1) == F(1, 2) and K(i=2, sign=-1) == K(2, -1)
    assert E(i=3) == E(3, 1)
    assert Cross(pos=1, hand=FO) == Cross(1, FO)
    assert Min(pos=2) == Min(2)
    assert Max(sweep=Sweep.RIGHT_TO_LEFT, pos=3) == Max(3, Sweep.RIGHT_TO_LEFT)
    assert TangleType(top=(UP,), bottom=(UP,)) == TangleType((UP,), (UP,))
    assert LoopInfo(creating_slice=1, orientation=DOWN, writhe=-1) == LoopInfo(1, DOWN, -1)
    assert ClaimResult(name="x", holds=True, detail="") == ClaimResult("x", True, "")
    assert QH(weight=[0, 1]) == QH((0, 1))


def test_the_type_checks_its_orientations():
    with pytest.raises(TypeError, match="Orientation"):
        TangleType(("v",), ("v",))
    with pytest.raises(TypeError, match="Orientation"):
        TangleType(top=(DOWN,), bottom=(DOWN, 1))


@pytest.mark.parametrize("case", FROZEN, ids=_id)
def test_frozen_fields_refuse_deletion(case):
    obj, _, fields = case
    name = next(iter(type(obj).__annotations__))
    with pytest.raises(AttributeError):
        delattr(obj, name)
    assert _fields(obj) == fields


def test_a_field_given_twice_or_unknown_is_refused():
    with pytest.raises(TypeError):
        E(1, i=2)
    with pytest.raises(TypeError):
        Cross(1, FO, pos=1)
    with pytest.raises(TypeError):
        LoopInfo(0, UP, 0, 1)
    with pytest.raises(TypeError):
        ClaimResult("x", True, detail="", note="")
    with pytest.raises(TypeError):
        Min()
