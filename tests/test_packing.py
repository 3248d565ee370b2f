import pytest

from clumsypack.geometry import Cell, ell, plus, rect, straight_v, tee
from clumsypack.packing import (Arrangement, Board, Placement, cells_of,
                                default_board, enumerate_placements,
                                free_cells, is_maximal, is_valid,
                                placement_masks, validate)


def l36():
    return Arrangement(Board(10), ell(3, 6), "free",
                       (Placement(0, Cell(2, 1)),
                        Placement(0, Cell(3, 4)),
                        Placement(0, Cell(7, 4))))


class TestBoard:
    def test_contains(self):
        b = Board(4)
        assert Cell(1, 1) in b and Cell(4, 4) in b
        assert Cell(0, 1) not in b and Cell(4, 5) not in b

    def test_positive_side(self):
        with pytest.raises(ValueError):
            Board(0)

    def test_default_board_matches_shape_size(self):
        assert default_board(ell(3, 6)).n == 10
        assert default_board(plus(2)).n == 9
        assert default_board(rect(3, 4)).n == 12


class TestCellsOf:
    def test_unrotated(self):
        got = cells_of(tee(1, 1), Placement(0, Cell(2, 2)))
        assert got == frozenset({Cell(1, 2), Cell(2, 2), Cell(3, 2), Cell(2, 3)})

    def test_rotated(self):
        # quarter turn: bar vertical on the right, stem pointing left
        got = cells_of(tee(1, 1), Placement(1, Cell(4, 3)))
        assert got == frozenset({Cell(4, 2), Cell(4, 3), Cell(4, 4), Cell(3, 3)})

    def test_anchor_cell_is_covered(self):
        p = Placement(2, Cell(5, 5))
        assert Cell(5, 5) in cells_of(ell(2, 3), p)


class TestValidate:
    def test_valid_is_none(self):
        assert validate(l36()) is None
        assert is_valid(l36())

    def test_off_board(self):
        arr = Arrangement(Board(3), ell(1, 1), "free", (Placement(0, Cell(3, 3)),))
        reason = validate(arr)
        assert reason is not None and "placement 1 off board" in reason

    def test_overlap_message_is_one_based(self):
        arr = Arrangement(Board(4), ell(1, 1), "free",
                          (Placement(0, Cell(1, 1)), Placement(0, Cell(1, 1))))
        assert validate(arr) == "placements 1 and 2 overlap"

    def test_overlap_reports_lowest_pair(self):
        # (2, 3) overlap first in placement order, but (1, 4) is the lower pair
        cells = [Cell(1, 1), Cell(2, 2), Cell(2, 2), Cell(1, 1)]
        arr = Arrangement(Board(3), rect(1, 1), "fixed",
                          tuple(Placement(0, c) for c in cells))
        assert validate(arr) == "placements 1 and 4 overlap"

    def test_off_board_reported_before_earlier_overlap(self):
        cells = [Cell(1, 1), Cell(1, 1), Cell(4, 1)]
        arr = Arrangement(Board(3), rect(1, 1), "fixed",
                          tuple(Placement(0, c) for c in cells))
        assert validate(arr).startswith("placement 3 off board")

    def test_rotation_refused_in_fixed_mode(self):
        arr = Arrangement(Board(4), ell(1, 1), "fixed", (Placement(1, Cell(2, 1)),))
        reason = validate(arr)
        assert reason is not None and "mode is fixed" in reason

    def test_bad_mode_rejected_up_front(self):
        with pytest.raises(ValueError, match="mode"):
            Arrangement(Board(3), ell(1, 1), "diagonal", ())


class TestEnumeration:
    # Counts are frozen from independent hand counts of the anchor ranges.
    def test_straight2_on_2x2_fixed(self):
        assert len(enumerate_placements(straight_v(2), Board(2), "fixed")) == 2

    def test_rect22_on_4x4_fixed(self):
        assert len(enumerate_placements(rect(2, 2), Board(4), "fixed")) == 9

    def test_plus1_on_5x5_free_dedups_rotations(self):
        # the plus is rotation-invariant, so free and fixed coincide
        free = enumerate_placements(plus(1), Board(5), "free")
        fixed = enumerate_placements(plus(1), Board(5), "fixed")
        assert len(free) == len(fixed) == 9
        assert all(p.rotation == 0 for p in free)

    def test_corner_tromino_on_3x3_free(self):
        pls = enumerate_placements(ell(1, 1), Board(3), "free")
        assert len(pls) == 16
        assert pls[0] == Placement(0, Cell(1, 1))

    def test_lexicographic_order(self):
        pls = enumerate_placements(ell(1, 1), Board(3), "free")
        keys = [(p.rotation, p.anchor_pos.row, p.anchor_pos.col) for p in pls]
        assert keys == sorted(keys)

    def test_all_enumerated_placements_are_on_board(self):
        board = Board(5)
        for shape in (ell(1, 2), tee(1, 1), rect(2, 2)):
            for p in enumerate_placements(shape, board, "free"):
                assert all(c in board for c in cells_of(shape, p))

    def test_nothing_fits_on_too_small_board(self):
        assert enumerate_placements(plus(1), Board(2), "free") == ()


class TestMasks:
    def test_bit_layout(self):
        # bit index = (row-1)*n + (col-1)
        pls, masks = placement_masks(straight_v(2), Board(2), "fixed")
        assert pls == (Placement(0, Cell(1, 1)), Placement(0, Cell(2, 1)))
        assert masks == (0b0101, 0b1010)

    def test_masks_cover_shape_size_bits(self):
        _, masks = placement_masks(tee(2, 1), Board(6), "free")
        assert all(m.bit_count() == 6 for m in masks)


class TestMaximality:
    def test_known_maximal(self):
        assert is_maximal(l36())

    def test_proper_prefix_is_not_maximal(self):
        arr = l36()
        smaller = Arrangement(arr.board, arr.shape, arr.mode, arr.placements[:2])
        assert not is_maximal(smaller)

    def test_invalid_raises(self):
        arr = Arrangement(Board(4), ell(1, 1), "free",
                          (Placement(0, Cell(1, 1)), Placement(0, Cell(1, 1))))
        with pytest.raises(ValueError, match="invalid"):
            is_maximal(arr)

    def test_empty_is_maximal_when_nothing_fits(self):
        assert is_maximal(Arrangement(Board(2), plus(1), "free", ()))

    def test_empty_is_not_maximal_when_something_fits(self):
        assert not is_maximal(Arrangement(Board(3), ell(1, 1), "free", ()))

    def test_mode_changes_the_verdict(self):
        # three vertical dominoes leaving free cells (1,3), (2,3), (3,1):
        # no vertical domino fits any more, but a horizontal one would
        pls = (Placement(0, Cell(1, 1)), Placement(0, Cell(2, 1)),
               Placement(0, Cell(3, 2)))
        assert is_maximal(Arrangement(Board(3), straight_v(2), "fixed", pls))
        assert not is_maximal(Arrangement(Board(3), straight_v(2), "free", pls))


class TestOccupancy:
    def test_occupied_and_free_cells(self):
        arr = l36()
        assert len(arr.occupied_cells()) == 30
        assert free_cells(arr) == 70

    def test_with_placement(self):
        arr = Arrangement(Board(5), ell(1, 1), "free", ())
        arr2 = arr.with_placement(Placement(0, Cell(1, 1)))
        assert arr.size == 0 and arr2.size == 1
