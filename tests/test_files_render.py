import pathlib

import pytest
import yaml

from clumsypack.files import (FileFormatError, dumps, from_arrangement,
                              load_arrangement, loads, save_arrangement,
                              to_arrangement)
from clumsypack.geometry import Cell, custom, ell, plus, rect, straight_v
from clumsypack.packing import Arrangement, Board, Placement, is_valid
from clumsypack.render import render_ascii, render_svg
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
        # The C dumper and loader, when PyYAML has them, must not change the
        # bytes written or the values read.
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
                                        "anchor_row": 1, "color": "red"}]),
        lambda d: d.update(custom_cells=[[1, 1]]),  # only for custom family
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
