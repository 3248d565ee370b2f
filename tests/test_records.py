"""The contract every immutable record keeps: fields given by position or
by name, equality and hash on its fields, no assignment or deletion,
copies and pickles equal to the original, and a repr that names each
field.  Equality and hash are defined once, in the records' common base,
``geometry._Record``, and so is the constructor of the plain records,
which only set their fields."""

import copy
import pickle

import pytest

from clumsypack.files import ArrangementFile, dumps, from_arrangement, loads
from clumsypack.geometry import Cell, Shape, ell, tee
from clumsypack.packing import Arrangement, Board, Placement
from clumsypack.solver import SolveResult, clumsy_number
from clumsypack.theorems import Claim, TheoremId, TheoremReport

_ARR = Arrangement(Board(4), ell(1, 1), "free", (Placement(0, Cell(1, 1)),))
_OTHER_ARR = Arrangement(Board(7), tee(1, 1), "fixed", ())

# (class, field names in parameter order, field values, other values).
# Each other value differs from its field value and still builds a record
# when it replaces that one field.
RECORDS = [
    (Shape, ("cells", "anchor", "family", "params"),
     (frozenset({Cell(1, 1), Cell(2, 1)}), Cell(1, 1), "custom", ()),
     (frozenset({Cell(1, 1), Cell(2, 1), Cell(1, 2)}), Cell(2, 1), "L", (1, 1))),
    (Board, ("n",), (4,), (5,)),
    (Placement, ("rotation", "anchor_pos"), (1, Cell(2, 3)), (2, Cell(3, 3))),
    (Arrangement, ("board", "shape", "mode", "placements"),
     (Board(4), ell(1, 1), "free", (Placement(0, Cell(1, 1)),)),
     (Board(5), tee(1, 1), "fixed", ())),
    (SolveResult, ("clumsy_number", "witness", "nodes_explored", "elapsed"),
     (1, _ARR, 5, 0.25), (2, _OTHER_ARR, 6, 0.5)),
    (Claim, ("params", "hypothesis", "hypothesis_text", "value", "piece", "mode",
             "construction"),
     (("a",), bool, "a >= 1", abs, divmod, "fixed", None),
     (("a", "b"), callable, "a, b >= 1", round, pow, "free", max)),
    (TheoremReport, ("theorem", "params", "formula_value", "construction",
                     "construction_ok", "solver_value", "consistent"),
     (TheoremId.STRAIGHT_FIXED, (1,), 1, _ARR, True, 1, True),
     (TheoremId.RECT_FIXED, (2, 3), (1, 2), None, None, None, False)),
    (ArrangementFile, ("board_n", "family", "params", "mode", "placements",
                       "custom_cells"),
     (4, "L", (1, 1), "free", ((0, 1, 1),), None),
     (5, "custom", (), "fixed", (), (Cell(1, 1),))),
]

# The records built by the base's constructor; the others check or convert
# their fields in their own.
PLAIN = (SolveResult, Claim, TheoremReport, ArrangementFile)

# Metadata that Shape leaves out of equality and hash.
_UNCOMPARED = {(Shape, "family"), (Shape, "params")}


def _build(cls, fields, values):
    return cls(**dict(zip(fields, values)))


@pytest.fixture(params=RECORDS, ids=[r[0].__name__ for r in RECORDS])
def record(request):
    return request.param


def test_equal_fields_give_equal_records(record):
    cls, fields, values, _ = record
    a, b = _build(cls, fields, values), _build(cls, fields, values)
    assert a == b and not a != b
    assert hash(a) == hash(b)
    # Another type never compares equal, not even the tuple of the fields.
    assert a != values and a != object()


def test_each_field_takes_part_in_equality(record):
    cls, fields, values, others = record
    base = _build(cls, fields, values)
    for i, name in enumerate(fields):
        changed = _build(cls, fields, values[:i] + (others[i],) + values[i + 1:])
        assert getattr(changed, name) == others[i]
        if (cls, name) in _UNCOMPARED:
            assert changed == base and hash(changed) == hash(base)
        else:
            assert changed != base


def test_equality_and_hash_come_from_the_base(record):
    cls = record[0]
    assert "__eq__" not in cls.__dict__ and "__hash__" not in cls.__dict__


def test_fields_by_position_or_by_name(record):
    cls, fields, values, _ = record
    rec = cls(*values)
    assert rec == _build(cls, fields, values)
    assert all(getattr(rec, name) == value for name, value in zip(fields, values))
    # The first fields by position and the rest by name.
    assert cls(*values[:1], **dict(zip(fields[1:], values[1:]))) == rec


def test_plain_records_take_the_base_constructor(record):
    cls = record[0]
    assert ("__init__" in cls.__dict__) is (cls not in PLAIN)


@pytest.mark.parametrize("cls", PLAIN, ids=[c.__name__ for c in PLAIN])
def test_plain_records_refuse_a_field_out_of_place(cls):
    _, fields, values, _ = next(r for r in RECORDS if r[0] is cls)
    with pytest.raises(TypeError, match=f"missing field '{fields[0]}'"):
        cls(**dict(zip(fields[1:], values[1:])))
    with pytest.raises(TypeError, match=f"takes {len(fields)} fields, got {len(fields) + 1}"):
        cls(*values, None)
    with pytest.raises(TypeError, match="has no field 'colour'"):
        cls(*values, colour=None)
    with pytest.raises(TypeError, match=f"got field '{fields[0]}' twice"):
        cls(*values, **{fields[0]: values[0]})


def test_file_custom_cells_default_to_none():
    doc = ArrangementFile(4, "L", (1, 1), "free", ((0, 1, 1),))
    assert doc.custom_cells is None
    assert doc == ArrangementFile(board_n=4, family="L", params=(1, 1), mode="free",
                                  placements=((0, 1, 1),), custom_cells=None)
    # A default fills no earlier field.
    with pytest.raises(TypeError, match="missing field 'placements'"):
        ArrangementFile(4, "L", (1, 1), "free")


def test_fields_cannot_be_assigned_or_deleted(record):
    cls, fields, values, others = record
    rec = _build(cls, fields, values)
    for name, other in zip(fields, others):
        with pytest.raises(AttributeError):
            setattr(rec, name, other)
        with pytest.raises(AttributeError):
            delattr(rec, name)
    with pytest.raises(AttributeError):
        rec.not_a_field = 1
    assert rec == _build(cls, fields, values)


def test_copies_and_pickles_are_equal(record):
    cls, fields, values, _ = record
    rec = _build(cls, fields, values)
    for back in (pickle.loads(pickle.dumps(rec)), copy.copy(rec), copy.deepcopy(rec)):
        assert type(back) is cls
        assert back == rec
        assert all(getattr(back, name) == getattr(rec, name) for name in fields)


def test_repr_names_every_field(record):
    cls, fields, values, _ = record
    text = repr(_build(cls, fields, values))
    assert text.startswith(f"{cls.__name__}(") and text.endswith(")")
    for name, value in zip(fields, values):
        assert f"{name}={value!r}" in text


def test_file_of_a_witness_hashes():
    # Its rows are int triples, so the record hashes like the others.
    doc = from_arrangement(clumsy_number(ell(1, 2), Board(6), "free").witness)
    assert doc.placements
    assert hash(doc) == hash(loads(dumps(doc)))
