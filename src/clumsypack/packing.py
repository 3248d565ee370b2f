"""Boards, placements, and arrangements, plus validity and maximality checks.

A placement pins a shape to a board by saying where the anchor cell lands
after an optional rotation.  An arrangement is an ordered tuple of placements
of one shape on one board under one mode: ``fixed`` admits translations only,
``free`` admits the four rotations as well.  Reflections are never admitted.

Cell (col, row) of an n x n board is bit (row-1)*n + (col-1) of an int
mask.  The placement table of an instance (``_tables``) keeps one row per
distinct orientation, the cell mask of every placement and its cell bits;
``Placement`` objects are built from the rows only where asked for.  The
validity check (``validate``), maximality (``is_maximal``) and the greedy
seed check all run on one pass that shifts each piece's orientation mask to
its anchor (``_occupancy``); ``_verdict`` gives validity and maximality
from one such pass.
"""

from __future__ import annotations

import operator
from functools import lru_cache
from typing import Iterable

from .geometry import Cell, Shape, _as_cell, _Record, _set, _turn, rotate

MODES = ("fixed", "free")


def _check_mode(mode: str) -> str:
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    return mode


class Board(_Record):
    """An n x n board whose cells are Cell(i, j) with 1 <= i, j <= n."""

    __slots__ = ("n",)
    n: int

    def __init__(self, n: int) -> None:
        n = operator.index(n)
        if n < 1:
            raise ValueError(f"board size must be positive, got {n}")
        _set(self, "n", n)

    def __contains__(self, cell: Cell) -> bool:
        i, j = cell
        return 1 <= i <= self.n and 1 <= j <= self.n


def default_board(shape: Shape) -> Board:
    """The standard board for a shape: side length equal to the cell count."""
    return Board(shape.size)


class Placement(_Record):
    """One copy of the shape: rotation (quarter turns clockwise) and where
    the rotated shape's anchor sits on the board."""

    __slots__ = ("rotation", "anchor_pos")
    rotation: int
    anchor_pos: Cell

    def __init__(self, rotation: int, anchor_pos: Cell) -> None:
        # A bool or out-of-range rotation becomes an int in 0..3, and the
        # anchor a Cell of two ints.  A rotation or coordinate that is no
        # integer (1.5, "1") raises TypeError.
        if type(rotation) is not int or not 0 <= rotation <= 3:
            rotation = operator.index(rotation) % 4
        _set(self, "rotation", rotation)
        _set(self, "anchor_pos", _as_cell(anchor_pos))


def cells_of(shape: Shape, placement: Placement) -> frozenset[Cell]:
    """Absolute board cells covered by one placement of the shape."""
    rot = rotate(shape, placement.rotation)
    dc = placement.anchor_pos.col - rot.anchor.col
    dr = placement.anchor_pos.row - rot.anchor.row
    return frozenset(Cell(c.col + dc, c.row + dr) for c in rot.cells)


class Arrangement(_Record):
    """An ordered collection of placements of one shape on one board."""

    __slots__ = ("board", "shape", "mode", "placements")
    board: Board
    shape: Shape
    mode: str
    placements: tuple[Placement, ...]

    def __init__(self, board: Board, shape: Shape, mode: str,
                 placements: Iterable[Placement] = ()) -> None:
        _set(self, "board", board)
        _set(self, "shape", shape)
        _set(self, "mode", _check_mode(mode))
        _set(self, "placements", tuple(placements))

    @property
    def size(self) -> int:
        return len(self.placements)

    def occupied_cells(self) -> set[Cell]:
        occ: set[Cell] = set()
        for p in self.placements:
            occ |= cells_of(self.shape, p)
        return occ


@lru_cache(maxsize=1024)
def _orientation(shape: Shape, m: int, n: int) -> tuple[int, int, int, int, int]:
    """Rotation m of the shape on an n x n board: (ac, ar, width, height,
    corner mask).

    (ac, ar) is the rotated anchor and the corner mask holds the rotated
    cells with the piece's upper-left corner on cell (1, 1), so the piece
    with its anchor on (col, row) covers corner << ((row - ar) * n + (col -
    ac)).  The mask means nothing when the piece is wider than the board.
    """
    cells, (ac, ar), width, height = _turn(shape, m)
    corner = 0
    for col, row in cells:
        corner |= 1 << ((row - 1) * n + col - 1)
    return ac, ar, width, height, corner


def _occupancy(arrangement: Arrangement) -> tuple[str | None, int]:
    """Why the arrangement is invalid, or None, and the union of its cell
    masks when it is valid.

    Checks, in order: every placement uses a rotation allowed by the mode,
    stays on the board, and no two placements overlap.  A placement is its
    orientation's corner mask shifted to its anchor, once the anchor is
    known to keep the piece on the board.  Placement indices in messages
    are 1-based.
    """
    n = arrangement.board.n
    fixed = arrangement.mode == "fixed"
    # Read once per pass: each lookup in the cache hashes the shape.
    orientations = [_orientation(arrangement.shape, m, n) for m in range(1 if fixed else 4)]
    masks = []
    occ = twice = 0
    for idx, p in enumerate(arrangement.placements, start=1):
        m = p.rotation
        if fixed and m:
            return f"placement {idx} uses rotation {m} but mode is fixed", 0
        ac, ar, width, height, corner = orientations[m]
        dc = p.anchor_pos.col - ac
        dr = p.anchor_pos.row - ar
        if not (0 <= dc <= n - width and 0 <= dr <= n - height):
            for c in cells_of(arrangement.shape, p):
                if c not in arrangement.board:
                    return (f"placement {idx} off board: cell ({c.col}, {c.row}) "
                            f"outside 1..{n}"), 0
        mask = corner << (dr * n + dc)
        twice |= occ & mask
        occ |= mask
        masks.append(mask)
    if twice:
        # twice holds the cells covered more than once.  Every placement
        # before the least i that meets it is disjoint from all others, so
        # i overlaps only later ones, and it and its least partner are the
        # least overlapping pair.
        i = next(i for i, mask in enumerate(masks) if mask & twice)
        j = next(j for j in range(i + 1, len(masks)) if masks[i] & masks[j])
        return f"placements {i + 1} and {j + 1} overlap", 0
    return None, occ


def validate(arrangement: Arrangement) -> str | None:
    """None when the arrangement is valid, else a reason.

    Checks, in order: every placement uses a rotation allowed by the mode,
    stays on the board, and no two placements overlap.  The first bad
    placement in order is reported; an overlap names the least pair.
    Placement indices in messages are 1-based.
    """
    return _occupancy(arrangement)[0]


def is_valid(arrangement: Arrangement) -> bool:
    return validate(arrangement) is None


def enumerate_placements(shape: Shape, board: Board, mode: str) -> tuple[Placement, ...]:
    """All distinct in-board placements, in lexicographic order.

    Order is by rotation index, then anchor row, then anchor column.  Two
    placements covering the same cells (a rotationally symmetric shape) are
    deduplicated keeping the earlier one.
    """
    return _placements_at(shape, board, mode, range(len(_tables(shape, board, mode)[1])))


@lru_cache(maxsize=256)
def _tables(shape: Shape, board: Board, mode: str
            ) -> tuple[tuple[tuple[int, int, int, int, int], ...], tuple[int, ...],
                       tuple[tuple[int, ...], ...]]:
    """Orientation rows, the placements' cell bitmasks and their cell bits
    lowest first.

    Cell (col, row) is bit (row-1)*n + (col-1).  Each rotation the mode
    admits is rotated once (``_orientation``).  A rotation whose cells
    equal those of an earlier one has exactly its translates, so it is
    skipped; this is the only way two placements can cover the same cells.
    Each kept orientation is one row (rotation, col, row, ncols, first):
    its placements get the indices from first on, anchor row by anchor row,
    and the one anchored on (col + r, row + q), for r < ncols, is the
    corner mask shifted by q * n + r.  The anchor ranges keep the whole
    piece on the board, so no shift carries a cell across a row end.  A
    quarter turn swaps width and height, so either every rotation fits on
    the board or none does, and the corner masks of rotations that fit are
    equal exactly when their cells are.
    """
    _check_mode(mode)
    n = board.n
    rows: list[tuple[int, int, int, int, int]] = []
    masks: list[int] = []
    cells: list[tuple[int, ...]] = []
    kept: list[int] = []
    for m in (0,) if mode == "fixed" else (0, 1, 2, 3):
        ac, ar, width, height, corner = _orientation(shape, m, n)
        if width > n or height > n or corner in kept:
            continue
        kept.append(corner)
        ncols = n - width + 1
        rows.append((m, ac, ar, ncols, len(masks)))
        offsets = [b for b in range(corner.bit_length()) if corner >> b & 1]
        shifts = [q * n + r for q in range(n - height + 1) for r in range(ncols)]
        masks += [corner << s for s in shifts]
        cells += [tuple([b + s for b in offsets]) for s in shifts]
    return tuple(rows), tuple(masks), tuple(cells)


def _placements_at(shape: Shape, board: Board, mode: str,
                   indices: Iterable[int]) -> tuple[Placement, ...]:
    """The placements with the given table indices, read off the
    orientation rows."""
    rows = _tables(shape, board, mode)[0]
    out = []
    for i in indices:
        for m, col, row, ncols, first in reversed(rows):
            if i >= first:
                q, r = divmod(i - first, ncols)
                out.append(Placement(m, Cell(col + r, row + q)))
                break
    return tuple(out)


def placement_masks(shape: Shape, board: Board, mode: str
                    ) -> tuple[tuple[Placement, ...], tuple[int, ...]]:
    """``enumerate_placements`` and the placements' cell bitmasks."""
    return enumerate_placements(shape, board, mode), _tables(shape, board, mode)[1]


def _verdict(arrangement: Arrangement) -> tuple[str | None, bool]:
    """``validate``'s reason, and whether the arrangement is maximal (False
    when it is invalid), from one occupancy pass."""
    reason, occ = _occupancy(arrangement)
    if reason is not None:
        return reason, False
    masks = _tables(arrangement.shape, arrangement.board, arrangement.mode)[1]
    return None, all(m & occ for m in masks)


def is_maximal(arrangement: Arrangement) -> bool:
    """True when no further copy can be added without overlap.

    Raises ValueError for an invalid arrangement: maximality is only defined
    on valid ones.
    """
    reason, maximal = _verdict(arrangement)
    if reason is not None:
        raise ValueError(f"arrangement is invalid: {reason}")
    return maximal
