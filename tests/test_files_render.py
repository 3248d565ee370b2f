import os
import pathlib
import subprocess
import sys

import pytest
import yaml
from hypothesis import example, given, settings, strategies as st

from clumsypack import files
from clumsypack.files import (ArrangementFile, FileFormatError, dumps,
                              from_arrangement, load_arrangement, loads,
                              save_arrangement, to_arrangement)
from clumsypack.geometry import (FAMILIES, Cell, Shape, _FAMILY_TABLE, custom,
                                 ell, make_shape, plus, rect, rotate, straight_v)
from clumsypack.packing import (MODES, Arrangement, Board, Placement, cells_of,
                                is_valid)
from clumsypack.render import _PALETTE, _piece_outline, render_ascii, render_svg
from clumsypack.solver import clumsy_number, greedy_upper_bound
from clumsypack.theorems import build_example

GOLDEN = pathlib.Path(__file__).parent / "golden"


def golden_text(name):
    # golden files carry the trailing newline the CLI appends when it
    # writes a render to disk; compare against rendered text + "\n"
    return (GOLDEN / name).read_text()


def roundtrip(arr):
    return to_arrangement(loads(dumps(from_arrangement(arr))))


class TestRoundTrip:
    def test_named_example(self):
        arr = build_example("L36")
        back = roundtrip(arr)
        assert back.board.n == arr.board.n
        assert back.mode == arr.mode
        assert back.shape == arr.shape
        assert back.placements == arr.placements

    def test_solver_witness(self):
        arr = clumsy_number(ell(1, 2), Board(4), "free").witness
        back = roundtrip(arr)
        assert back.placements == arr.placements
        assert back.occupied_cells() == arr.occupied_cells()

    def test_empty_arrangement(self):
        arr = Arrangement(Board(3), plus(1), "free", ())
        back = roundtrip(arr)
        assert back.size == 0 and back.board.n == 3

    def test_custom_shape(self):
        shape = custom((Cell(1, 1), Cell(2, 1), Cell(2, 2)))
        arr = Arrangement(Board(4), shape, "free",
                          (Placement(0, Cell(1, 1)), Placement(2, Cell(4, 4))))
        back = roundtrip(arr)
        assert back.occupied_cells() == arr.occupied_cells()
        assert is_valid(back)

    def test_file_round_trip(self, tmp_path):
        arr = build_example("T43")
        path = tmp_path / "t43.yaml"
        save_arrangement(arr, str(path))
        back = load_arrangement(str(path))
        assert back.placements == arr.placements
        assert back.shape == arr.shape


class TestDumpFormat:
    def test_field_order(self):
        text = dumps(from_arrangement(build_example("L36")))
        keys = list(yaml.safe_load(text))
        assert keys == ["board_n", "family", "params", "mode", "placements"]

    def test_custom_cells_key_only_for_custom(self):
        text = dumps(from_arrangement(build_example("L36")))
        assert "custom_cells" not in text
        shape = custom((Cell(1, 1), Cell(1, 2)))
        arr = Arrangement(Board(3), shape, "fixed", ())
        text = dumps(from_arrangement(arr))
        assert list(yaml.safe_load(text))[-1] == "custom_cells"

    def test_placement_row_keys(self):
        doc = yaml.safe_load(dumps(from_arrangement(build_example("L36"))))
        assert list(doc["placements"][0]) == ["rotation", "anchor_col",
                                              "anchor_row"]

    def test_large_document_matches_pure_python_yaml(self):
        # The bytes written are PyYAML's, and they read back as the document.
        arr = greedy_upper_bound(rect(1, 1), Board(40), "fixed")
        assert arr.size == 1600
        body = {"board_n": 40, "family": "rect", "params": [1, 1], "mode": "fixed",
                "placements": [{"rotation": p.rotation, "anchor_col": p.anchor_pos.col,
                                "anchor_row": p.anchor_pos.row} for p in arr.placements]}
        doc = from_arrangement(arr)
        text = dumps(doc)
        assert text == yaml.safe_dump(body, sort_keys=False)
        assert loads(text) == doc

    def test_custom_reanchored_without_moving_cells(self):
        # same triomino, anchor deliberately not the lex-least cell
        # (custom() normalizes the cells, keeping the anchor at (2,2))
        shape = custom((Cell(2, 2), Cell(3, 2), Cell(3, 3)), anchor=Cell(3, 3))
        assert shape.anchor == Cell(2, 2)
        arr = Arrangement(Board(5), shape, "free",
                          (Placement(1, Cell(1, 2)), Placement(0, Cell(4, 4))))
        assert is_valid(arr)
        doc = from_arrangement(arr)
        assert doc.custom_cells == (Cell(1, 1), Cell(2, 1), Cell(2, 2))
        back = to_arrangement(doc)
        assert back.occupied_cells() == arr.occupied_cells()
        assert is_valid(back)


class TestLoadErrors:
    def base(self):
        return {
            "board_n": 4, "family": "L", "params": [1, 1], "mode": "free",
            "placements": [
                {"rotation": 0, "anchor_col": 1, "anchor_row": 1}],
        }

    def dump(self, doc):
        return yaml.safe_dump(doc, sort_keys=False)

    def test_base_is_loadable(self):
        arr = to_arrangement(loads(self.dump(self.base())))
        assert arr.size == 1

    @pytest.mark.parametrize("mutate", [
        lambda d: d.pop("board_n"),
        lambda d: d.pop("family"),
        lambda d: d.pop("mode"),
        lambda d: d.pop("placements"),
        lambda d: d.update(board_n=0),
        lambda d: d.update(board_n="four"),
        lambda d: d.update(board_n=True),
        lambda d: d.update(family="pentomino"),
        lambda d: d.update(mode="mirrored"),
        lambda d: d.update(params="1,1"),
        lambda d: d.update(params=[1, "one"]),
        lambda d: d.update(extra=1),
        lambda d: d.update(placements={"rotation": 0}),
        lambda d: d.update(placements=[{"rotation": 4, "anchor_col": 1,
                                        "anchor_row": 1}]),
        lambda d: d.update(placements=[{"rotation": 0, "anchor_col": 1}]),
        lambda d: d.update(placements=[{"rotation": 0, "anchor_col": 1,
                                        "anchor_row": "one"}]),
        lambda d: d.update(placements=[{"rotation": 0, "anchor_col": 1,
                                        "anchor_row": 1, "color": "red"}]),
        lambda d: d.update(custom_cells=[[1, 1]]),  # only for custom family
        lambda d: d.update(family="custom", params=[], custom_cells=[[1, 1], [2]]),
    ])
    def test_rejected(self, mutate):
        doc = self.base()
        mutate(doc)
        with pytest.raises(FileFormatError):
            loads(self.dump(doc))

    def test_custom_requires_cells(self):
        doc = self.base()
        doc.update(family="custom", params=[])
        with pytest.raises(FileFormatError):
            loads(self.dump(doc))

    def test_custom_takes_no_params(self, tmp_path, run_cli):
        # Saving would drop them, so loading refuses them.
        doc = self.base()
        doc.update(family="custom", params=[7, 9], custom_cells=[[1, 1], [2, 1]])
        with pytest.raises(FileFormatError, match="shape parameters invalid: "
                           "family 'custom' takes no parameters, got 2"):
            loads(self.dump(doc))
        path = tmp_path / "custom.yaml"
        path.write_text(self.dump(doc))
        code, _, err = run_cli(["verify", path])
        assert code == 2
        assert "takes no parameters" in err

    def test_not_a_mapping(self):
        with pytest.raises(FileFormatError):
            loads("- 1\n- 2\n")

    def test_unparseable_yaml(self):
        with pytest.raises(FileFormatError):
            loads("{board_n: [unclosed\n")

    def test_params_mismatch_for_family(self):
        doc = self.base()
        doc.update(params=[1, 2, 3])
        with pytest.raises(FileFormatError):
            loads(self.dump(doc))

    def test_custom_cells_repeat(self, tmp_path, run_cli):
        # A repeated entry is refused, and the message names the entry.
        doc = self.base()
        doc.update(family="custom", params=[], placements=[],
                   custom_cells=[[0, 0], [0, 0], [1, 0]])
        with pytest.raises(FileFormatError, match=r"^custom_cells entry 2 "
                           r"repeats cell \(0, 0\)$"):
            loads(self.dump(doc))
        path = tmp_path / "repeat.yaml"
        path.write_text(self.dump(doc))
        code, out, err = run_cli(["verify", path])
        assert (code, out) == (2, "")
        assert "repeats cell (0, 0)" in err


@pytest.fixture
def pure_python_yaml(monkeypatch):
    """PyYAML's pure-Python loader, as on a machine without libyaml."""
    monkeypatch.delattr(yaml, "CSafeLoader", raising=False)


@pytest.mark.usefixtures("pure_python_yaml")
class TestRoundTripPurePython(TestRoundTrip):
    pass


@pytest.mark.usefixtures("pure_python_yaml")
class TestLoadErrorsPurePython(TestLoadErrors):
    pass


SETTINGS = settings(derandomize=True, deadline=None, max_examples=150)
coords = st.integers(-3, 60)


@st.composite
def arrangement_docs(draw):
    """Documents of random arrangements: named and custom shapes, both
    modes, any number of pieces, on or off the board."""
    family = draw(st.sampled_from(FAMILIES))
    if family == "custom":
        cells = draw(st.lists(st.tuples(st.integers(1, 4), st.integers(1, 4)),
                              min_size=1, max_size=5, unique=True))
        shape = custom([Cell(*c) for c in cells])
    else:
        params = draw(st.lists(st.integers(1, 3), min_size=_FAMILY_TABLE[family][1],
                               max_size=_FAMILY_TABLE[family][1]))
        shape = make_shape(family, sorted(params) if family == "L" else params)
    mode = draw(st.sampled_from(("fixed", "free")))
    placements = draw(st.lists(st.builds(Placement, st.integers(0, 3),
                                         st.builds(Cell, coords, coords)),
                               max_size=12))
    return from_arrangement(Arrangement(Board(draw(st.integers(1, 60))), shape,
                                        mode, placements))


@st.composite
def raw_docs(draw):
    """Documents with arbitrary values: negative ints, bool rotations,
    empty lists, parameters that fit no shape."""
    value = st.integers(-1000, 1000)
    family = draw(st.sampled_from(FAMILIES))
    cells = None
    if family == "custom":
        cells = tuple(Cell(c, r) for c, r in
                      draw(st.lists(st.tuples(value, value), max_size=4)))
    rows = draw(st.lists(st.tuples(st.one_of(value, st.booleans()), value, value),
                         max_size=6))
    return ArrangementFile(
        draw(value), family, tuple(draw(st.lists(value, max_size=4))),
        draw(st.sampled_from(("fixed", "free"))),
        tuple(rows), cells)


def load_outcome(text):
    try:
        return loads(text)
    except FileFormatError as exc:
        return f"FileFormatError: {exc}"


def pyyaml_text(doc):
    """PyYAML's text of the body dumps writes for doc."""
    body = {"board_n": doc.board_n, "family": doc.family,
            "params": list(doc.params), "mode": doc.mode,
            "placements": [dict(zip(("rotation", "anchor_col", "anchor_row"), row))
                           if len(row) == 3 else list(row) for row in doc.placements]}
    if doc.custom_cells is not None:
        body["custom_cells"] = [[c.col, c.row] for c in doc.custom_cells]
    return yaml.safe_dump(body, sort_keys=False)


def pyyaml_body(text):
    """``yaml.safe_load(text)`` with each row that is a mapping of exactly
    rotation, anchor_col and anchor_row, in that order, turned into the
    triple the direct reader gives; any other row stays as PyYAML reads it."""
    body = yaml.safe_load(text)
    body["placements"] = [tuple(row.values()) if isinstance(row, dict) and
                          list(row) == ["rotation", "anchor_col", "anchor_row"] else row
                          for row in body["placements"]]
    return body


def pyyaml_outcome(text):
    """What loads gives when every text goes through PyYAML."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(files, "_parse_canonical", lambda text: None)
        return load_outcome(text)


class TestCanonicalReader:
    @SETTINGS
    @given(st.one_of(arrangement_docs(), raw_docs()))
    def test_matches_pyyaml(self, doc):
        try:
            text = dumps(doc)
        except FileFormatError:
            # A document loads refuses: no file is written, but PyYAML's
            # text of it is read, so invalid canonical texts are compared too.
            text = pyyaml_text(doc)
        assert load_outcome(text) == pyyaml_outcome(text)
        if doc.family != "custom" and all(type(r) is int
                                          for r, _, _ in doc.placements):
            # A named family's ints, valid or not, are in the layout save
            # writes, and take the direct route.
            assert files._parse_canonical(text) == pyyaml_body(text)

    def base(self):
        return ("board_n: 10\nfamily: L\nparams:\n- 3\n- 6\nmode: free\n"
                "placements:\n- rotation: 0\n  anchor_col: 2\n  anchor_row: 1\n"
                "- rotation: 1\n  anchor_col: 5\n  anchor_row: 4\n")

    def test_base_is_canonical(self):
        doc = loads(self.base())
        assert dumps(doc) == self.base()
        assert files._parse_canonical(self.base()) == pyyaml_body(self.base())

    # Texts one edit away from the layout save writes, which PyYAML reads
    # with other meanings or rejects; each edit is (old, new) on base().
    NEAR_CANONICAL = {
        "octal 010": ("board_n: 10", "board_n: 010"),
        "octal 07": ("anchor_col: 5", "anchor_col: 07"),
        "string 08": ("anchor_col: 5", "anchor_col: 08"),
        "underscore": ("board_n: 10", "board_n: 1_000"),
        "plus sign": ("anchor_row: 4", "anchor_row: +5"),
        "hex": ("board_n: 10", "board_n: 0x1F"),
        "minus zero": ("anchor_col: 2", "anchor_col: -0"),
        "sexagesimal": ("board_n: 10", "board_n: 1:30"),
        "float": ("board_n: 10", "board_n: 10.0"),
        "null": ("board_n: 10", "board_n: ~"),
        "full-width digits": ("board_n: 10", "board_n: \uff11\uff10"),
        "trailing comment": ("mode: free\n", "mode: free  # comment\n"),
        "comment line": ("board_n: 10\n", "# comment\nboard_n: 10\n"),
        "document start": ("board_n: 10\n", "---\nboard_n: 10\n"),
        "CRLF": ("\n", "\r\n"),
        "no final newline": ("  anchor_row: 4\n", "  anchor_row: 4"),
        "keys reordered": ("params:\n- 3\n- 6\nmode: free\n",
                           "mode: free\nparams:\n- 3\n- 6\n"),
        "key repeated": ("mode: free\n", "mode: free\nmode: fixed\n"),
        "key repeated last": ("  anchor_row: 4\n", "  anchor_row: 4\nmode: fixed\n"),
        "flow params": ("params:\n- 3\n- 6\n", "params: [3, 6]\n"),
        "flow row": ("- rotation: 0\n  anchor_col: 2\n  anchor_row: 1\n",
                     "- {rotation: 0, anchor_col: 2, anchor_row: 1}\n"),
        "row keys reordered": ("  anchor_col: 2\n  anchor_row: 1\n",
                               "  anchor_row: 1\n  anchor_col: 2\n"),
        "4th row key": ("  anchor_row: 1\n", "  anchor_row: 1\n  color: red\n"),
        "row key repeated": ("  anchor_row: 1\n", "  anchor_row: 1\n  anchor_row: 2\n"),
        "tab before int": ("board_n: 10", "board_n:\t10"),
        "tab before mode": ("mode: free", "mode:\tfree"),
        "extra space": ("board_n: 10", "board_n:  10"),
        "trailing space": ("mode: free", "mode: free "),
        "row indent": ("- rotation: 1", "-  rotation: 1"),
        "quoted family": ("family: L", "family: 'L'"),
        "family yes": ("family: L", "family: yes"),
        "family lower case": ("family: L", "family: l"),
        "mode capitalised": ("mode: free", "mode: Free"),
    }

    @pytest.mark.parametrize("case", NEAR_CANONICAL)
    def test_near_canonical_text_matches_pyyaml(self, case):
        old, new = self.NEAR_CANONICAL[case]
        text = self.base().replace(old, new)
        assert text != self.base()
        assert files._parse_canonical(text) is None
        assert load_outcome(text) == pyyaml_outcome(text)

    # Canonical texts whose values pass or fail the checks after parsing.
    CANONICAL = {
        "three params": ("- 6\n", "- 6\n- 7\n"),
        "no params": ("params:\n- 3\n- 6\n", "params: []\n"),
        "custom without cells": ("family: L", "family: custom"),
        "board 0": ("board_n: 10", "board_n: 0"),
        "rotation 4": ("rotation: 1", "rotation: 4"),
        "negative anchor": ("anchor_col: 5", "anchor_col: -5"),
        "no placements": ("placements:\n- rotation: 0\n  anchor_col: 2\n  anchor_row: 1\n"
                          "- rotation: 1\n  anchor_col: 5\n  anchor_row: 4\n",
                          "placements: []\n"),
    }

    @pytest.mark.parametrize("case", CANONICAL)
    def test_canonical_text_meets_the_same_checks(self, case):
        old, new = self.CANONICAL[case]
        text = self.base().replace(old, new)
        assert files._parse_canonical(text) == pyyaml_body(text)
        assert load_outcome(text) == pyyaml_outcome(text)


odd_values = st.one_of(st.integers(-5, 5), st.booleans(), st.none(),
                       st.floats(), st.text(max_size=3))


@st.composite
def odd_docs(draw):
    """Documents with values of other YAML types and families or modes of
    other spellings; most of them hold something loads refuses."""
    family = draw(st.sampled_from((*FAMILIES, "foo", "l", "")))
    cells = None
    if family == "custom":
        cells = tuple(draw(st.lists(st.builds(Cell, odd_values, odd_values),
                                    max_size=3)))
    rows = draw(st.lists(st.tuples(odd_values, odd_values, odd_values), max_size=3))
    return ArrangementFile(
        draw(odd_values), family, tuple(draw(st.lists(odd_values, max_size=3))),
        draw(st.sampled_from((*MODES, "on", "Free", ""))),
        tuple(rows), cells)


class TestWriter:
    @SETTINGS
    @given(st.one_of(arrangement_docs(), raw_docs(), odd_docs()))
    @example(ArrangementFile(4, "L", (1, 2), "free", ((True, 1, 1), (0, 2, 2))))
    @example(ArrangementFile(-7, "T", (-1, 10**30), "fixed",
                             ((-2, -40, 10**20), (0, 0, -1))))
    @example(ArrangementFile(3, "plus", (), "free", ()))
    @example(ArrangementFile(True, "rect", (1, 2), "free", ()))
    @example(ArrangementFile(4, "rect", (True, 2), "free", ()))
    @example(ArrangementFile(5, "L", (1, 1), "on", ((0, 1, 1),)))
    @example(ArrangementFile(5, "custom", (), "free", ((0, 1, 1),),
                             (Cell(1, 1), Cell(2, 1))))
    @example(ArrangementFile(5, "custom", (3,), "free", (), ()))
    @example(ArrangementFile(5, "custom", (), "free", (), (Cell(1, True),)))
    @example(ArrangementFile(5, "custom", (), "free", ((0, 1, 1),), ()))
    @example(ArrangementFile(5, "custom", (), "free", ((0, 1, 1),),
                             (Cell(1, 1), Cell(2, 1), Cell(1, 1))))
    @example(ArrangementFile(5, "foo", (), "free", ()))
    def test_matches_pyyaml(self, doc):
        want = pyyaml_text(doc)
        outcome = load_outcome(want)
        if isinstance(outcome, ArrangementFile):
            assert dumps(doc) == want
        else:
            # Such a file could not be read back, so none is written, and
            # the refusal gives loads' reason.
            with pytest.raises(FileFormatError) as refused:
                dumps(doc)
            assert str(refused.value) == ("cannot write the document: "
                                          + outcome.removeprefix("FileFormatError: "))

    # Documents an earlier writer wrote though loads refuses them, or wrote
    # without a field, and rows that are no triple.
    @pytest.mark.parametrize("doc,reason", [
        (ArrangementFile(4, "L", (5,), "free", ()),
         "shape parameters invalid: family 'L' takes 2 parameter(s), got 1"),
        (ArrangementFile(0, "L", (1, 2), "free", ()), "board_n must be positive, got 0"),
        (ArrangementFile(4, "L", (1, 2), "free", ((7, 1, 1),)),
         "placement 1 rotation must be in 0..3, got 7"),
        (ArrangementFile(4, "custom", (2,), "free", (), (Cell(1, 1),)),
         "shape parameters invalid: family 'custom' takes no parameters, got 1"),
        (ArrangementFile(4, "L", (1, 2), "free", (), (Cell(1, 1),)),
         "custom_cells is only allowed for family custom"),
        # A row of other than three values is written as a list.
        (ArrangementFile(4, "L", (1, 2), "free", ((0, 1, 1, "red"),)),
         "placement 1 must have exactly the keys rotation, anchor_col, anchor_row"),
        (ArrangementFile(4, "L", (1, 2), "free", ((0, 1),)),
         "placement 1 must have exactly the keys rotation, anchor_col, anchor_row"),
    ], ids=["L params (5,)", "board 0", "rotation 7", "custom params (2,)",
            "custom cells on L", "fourth row key", "no anchor_row"])
    def test_refuses_what_loads_refuses(self, doc, reason):
        assert load_outcome(pyyaml_text(doc)) == f"FileFormatError: {reason}"
        with pytest.raises(FileFormatError) as refused:
            dumps(doc)
        assert str(refused.value) == f"cannot write the document: {reason}"

    def test_refuses_int_subclass(self):
        # YAML reads no int subclass, so none is written as an int.
        class Side(int):
            pass
        with pytest.raises(FileFormatError, match=r"^cannot write the document: "
                           r"board_n must be an integer, got 4$"):
            dumps(ArrangementFile(Side(4), "L", (1, 2), "free", ()))

    def test_refused_save_keeps_the_file(self, tmp_path):
        path = tmp_path / "kept.yaml"
        save_arrangement(build_example("L36"), str(path))
        before = path.read_bytes()
        shape = Shape(ell(1, 2).cells, Cell(1, 1), family="foo")
        with pytest.raises(FileFormatError, match="cannot write"):
            save_arrangement(Arrangement(Board(4), shape, "free", ()), str(path))
        assert path.read_bytes() == before

    @pytest.mark.parametrize("shape,match", [
        # A rotated piece keeps its family and parameters, so its file
        # would load as the unrotated L.
        (rotate(ell(1, 2), 1), "has other cells"),
        (Shape(ell(1, 2).cells, Cell(1, 1), family="L", params=(5,)), "takes 2"),
        (Shape(ell(1, 2).cells, Cell(1, 1), family="L", params=(2, 1)), "0 < a <= b"),
        (Shape(ell(1, 2).cells, Cell(1, 1), family="L", params=(1, 3)), "has other cells"),
        (Shape(ell(1, 2).cells, Cell(2, 1), family="L", params=(1, 2)), "another anchor"),
        (Shape(ell(1, 2).cells, Cell(1, 1), family="custom", params=(2,)), "no parameters"),
        (Shape(ell(1, 2).cells, Cell(1, 1), family="L", params=(1.5, 2)),
         "cannot be interpreted as an integer"),
        (Shape(ell(1, 2).cells, Cell(1, 1), family="L", params=5), "is not iterable"),
    ])
    def test_shape_its_family_does_not_rebuild_is_refused(self, tmp_path, shape, match):
        path = tmp_path / "kept.yaml"
        save_arrangement(build_example("L36"), str(path))
        before = path.read_bytes()
        arr = Arrangement(Board(4), shape, "free", (Placement(0, Cell(2, 2)),))
        with pytest.raises(FileFormatError, match=f"cannot write the shape: .*{match}"):
            save_arrangement(arr, str(path))
        assert path.read_bytes() == before


# Run in a fresh interpreter: clumsypack's named-family routes and the save
# of a custom shape's file, then loads on a custom shape's file and on
# README's hand-written flow-style file.
FRESH_INTERPRETER = """
import contextlib, io, pathlib, sys
import clumsypack, clumsypack.cli
from clumsypack import files
from clumsypack.geometry import Cell
for argv in (["solve", "--family", "L", "--params", "3,6", "--out", "l36.yaml"],
             ["verify", "l36.yaml"],
             ["render", "l36.yaml", "--format", "svg", "--out", "l36.svg"],
             ["solve", "--family", "custom", "--custom-cells", "1,1;2,1;1,2",
              "--out", "s.yaml"]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert clumsypack.cli.main(argv) == 0, argv
assert "yaml" not in sys.modules, "a named-family route or a save loaded PyYAML"
docs = [files.loads(pathlib.Path(name).read_text()) for name in ("c.yaml", "r.yaml")]
assert "yaml" in sys.modules
assert docs == [
    files.ArrangementFile(4, "custom", (), "free", ((0, 1, 1),),
                          (Cell(1, 1), Cell(2, 1), Cell(1, 2))),
    files.ArrangementFile(10, "L", (3, 6), "free", ((0, 2, 1),)),
], docs
saved = files.loads(pathlib.Path("s.yaml").read_text())
assert saved == files.ArrangementFile(
    3, "custom", (), "free", ((0, 1, 1), (0, 2, 2)),
    (Cell(1, 1), Cell(1, 2), Cell(2, 1))), saved
"""


def test_named_family_routes_leave_pyyaml_unloaded(tmp_path):
    (tmp_path / "c.yaml").write_text(
        "board_n: 4\nfamily: custom\nparams: []\nmode: free\nplacements:\n"
        "- rotation: 0\n  anchor_col: 1\n  anchor_row: 1\n"
        "custom_cells:\n- - 1\n  - 1\n- - 2\n  - 1\n- - 1\n  - 2\n")
    (tmp_path / "r.yaml").write_text(
        "board_n: 10\nfamily: L\nparams: [3, 6]\nmode: free\nplacements:\n"
        "- rotation: 0\n  anchor_col: 2\n  anchor_row: 1\n")
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    done = subprocess.run([sys.executable, "-c", FRESH_INTERPRETER], cwd=tmp_path,
                          env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


class TestAsciiRender:
    @pytest.mark.parametrize("name,golden", [
        ("L36", "L36.txt"),
        ("T43", "T43.txt"),
        ("R36_tiling", "R36_tiling.txt"),
    ])
    def test_examples_match_golden(self, name, golden):
        assert render_ascii(build_example(name)) + "\n" == golden_text(golden)

    def test_single_plus(self):
        arr = Arrangement(Board(5), plus(1), "free", (Placement(0, Cell(3, 3)),))
        assert render_ascii(arr) + "\n" == golden_text("plus1_center.txt")

    def test_full_tiling(self):
        arr = Arrangement(Board(2), straight_v(2), "fixed",
                          (Placement(0, Cell(1, 1)), Placement(0, Cell(2, 1))))
        assert render_ascii(arr) + "\n" == golden_text("sv2_full.txt")

    def test_empty_board(self):
        arr = Arrangement(Board(3), plus(1), "free", ())
        assert render_ascii(arr) + "\n" == golden_text("empty3.txt")

    def test_letters_cycle_past_26(self):
        arr = clumsy_number(straight_v(2), Board(2), "fixed").witness
        out = render_ascii(arr)
        assert set(out) <= set("AB\n.")

    def test_invalid_raises(self):
        arr = Arrangement(Board(2), plus(1), "free", (Placement(0, Cell(1, 1)),))
        with pytest.raises(ValueError):
            render_ascii(arr)


class TestSvgRender:
    def test_structure(self):
        svg = render_svg(build_example("L36"))
        assert svg.startswith("<svg")
        assert svg.count("<title>") == 3
        assert "piece 1" in svg and "piece 3" in svg
        assert svg.rstrip().endswith("</svg>")

    def test_cell_size_scales_viewport(self):
        small = render_svg(build_example("L36"), cell=10)
        assert 'width="100"' in small and 'height="100"' in small

    def test_one_outline_per_piece(self):
        svg = render_svg(build_example("T43"))
        assert svg.count("<path") == 3

    def test_piece_with_hole_gets_two_loops(self):
        # 8 cells forming a ring: the outline is two loops (outer + hole)
        ring = [Cell(c, r) for c in (1, 2, 3) for r in (1, 2, 3)
                if (c, r) != (2, 2)]
        shape = custom(ring)
        arr = Arrangement(Board(3), shape, "free", (Placement(0, Cell(1, 1)),))
        svg = render_svg(arr)
        path = svg[svg.index("<path"):svg.index("/>", svg.index("<path"))]
        assert path.count("M ") == 2
        assert "evenodd" in path

    def test_invalid_raises(self):
        arr = Arrangement(Board(2), plus(1), "free", (Placement(0, Cell(1, 1)),))
        with pytest.raises(ValueError):
            render_svg(arr)

    @pytest.mark.parametrize("cell,error", [(0, ValueError), (-24, ValueError),
                                            (2.5, TypeError)])
    def test_cell_size_must_be_a_positive_integer(self, cell, error):
        with pytest.raises(error):
            render_svg(build_example("L36"), cell=cell)


def _ring_with_tail():
    """A 3x3 ring with one more cell on its top row: a hole, and no symmetry."""
    ring = [Cell(c, r) for c in (1, 2, 3) for r in (1, 2, 3) if (c, r) != (2, 2)]
    return custom(ring + [Cell(4, 1)], anchor=Cell(3, 2))


# Golden SVGs: name -> (arrangement, cell size).
SVG_GOLDENS = {
    "L36.svg": (lambda: build_example("L36"), 24),
    "T43.svg": (lambda: build_example("T43"), 24),
    "L12_four_rotations.svg": (lambda: Arrangement(
        Board(5), ell(1, 2), "free",
        (Placement(0, Cell(1, 1)), Placement(1, Cell(5, 1)),
         Placement(2, Cell(2, 4)), Placement(3, Cell(3, 3)))), 24),
    "ring_with_tail_cell10.svg": (lambda: Arrangement(
        Board(8), _ring_with_tail(), "free",
        (Placement(0, Cell(3, 2)), Placement(1, Cell(6, 3)),
         Placement(2, Cell(2, 5)), Placement(3, Cell(6, 5)))), 10),
}


@st.composite
def svg_arrangements(draw):
    """Valid arrangements of random cell sets (holes and gaps allowed), in
    both modes: each candidate placement lies on the board, and is kept
    when it overlaps nothing kept before it."""
    cells = [Cell(*c) for c in draw(st.lists(
        st.tuples(st.integers(1, 4), st.integers(1, 4)),
        min_size=1, max_size=9, unique=True))]
    shape = custom(cells, anchor=draw(st.sampled_from(cells)))
    mode = draw(st.sampled_from(("fixed", "free")))
    n = draw(st.integers(max(shape.width, shape.height), 9))
    kept, taken = [], set()
    for _ in range(draw(st.integers(1, 12))):
        m = draw(st.integers(0, 3)) if mode == "free" else 0
        rot = rotate(shape, m)
        p = Placement(m, Cell(
            draw(st.integers(rot.anchor.col, n - rot.width + rot.anchor.col)),
            draw(st.integers(rot.anchor.row, n - rot.height + rot.anchor.row))))
        covered = cells_of(shape, p)
        if taken.isdisjoint(covered):
            kept.append(p)
            taken |= covered
    return Arrangement(Board(n), shape, mode, kept), draw(st.sampled_from((1, 10, 24)))


class TestSvgBytes:
    @pytest.mark.parametrize("name", sorted(SVG_GOLDENS))
    def test_matches_golden(self, name):
        build, cell = SVG_GOLDENS[name]
        assert render_svg(build(), cell=cell) + "\n" == golden_text(name)

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(svg_arrangements())
    def test_paths_match_per_piece_outline(self, case):
        # The reference outlines every piece from its own board cells.
        arr, cell = case
        expected = []
        for idx, p in enumerate(arr.placements):
            steps = ["M " + " L ".join(f"{x * cell} {y * cell}" for x, y in loop) + " Z"
                     for loop in _piece_outline(cells_of(arr.shape, p))]
            expected.append(
                f'<path d="{" ".join(steps)}" fill="{_PALETTE[idx % len(_PALETTE)]}" '
                'fill-opacity="0.85" fill-rule="evenodd" stroke="#222222" '
                f'stroke-width="2"><title>piece {idx + 1}</title></path>')
        lines = render_svg(arr, cell=cell).splitlines()
        assert [line for line in lines if line.startswith("<path")] == expected
        assert len(lines) == 4 + 2 * (arr.board.n - 1) + len(expected)
