"""Boards, placements, and arrangements, plus validity and maximality checks.

A placement pins a shape to a board by saying where the anchor cell lands
after an optional rotation.  An arrangement is an ordered tuple of placements
of one shape on one board under one mode: ``fixed`` admits translations only,
``free`` admits the four rotations as well.  Reflections are never admitted.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterator

from .geometry import Cell, Shape, rotate

MODES = ("fixed", "free")


def _check_mode(mode: str) -> str:
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    return mode


@dataclass(frozen=True)
class Board:
    """An n x n board whose cells are Cell(i, j) with 1 <= i, j <= n."""

    n: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"board size must be positive, got {self.n}")

    def __contains__(self, cell: Cell) -> bool:
        i, j = cell
        return 1 <= i <= self.n and 1 <= j <= self.n

    def cells(self) -> Iterator[Cell]:
        for j in range(1, self.n + 1):
            for i in range(1, self.n + 1):
                yield Cell(i, j)


def default_board(shape: Shape) -> Board:
    """The standard board for a shape: side length equal to the cell count."""
    return Board(shape.size)


@dataclass(frozen=True)
class Placement:
    """One copy of the shape: rotation (quarter turns clockwise) and where
    the rotated shape's anchor sits on the board."""

    rotation: int
    anchor_pos: Cell

    def __post_init__(self) -> None:
        object.__setattr__(self, "rotation", self.rotation % 4)
        object.__setattr__(self, "anchor_pos", Cell(*self.anchor_pos))


def cells_of(shape: Shape, placement: Placement) -> frozenset[Cell]:
    """Absolute board cells covered by one placement of the shape."""
    rot = rotate(shape, placement.rotation)
    dc = placement.anchor_pos.col - rot.anchor.col
    dr = placement.anchor_pos.row - rot.anchor.row
    return frozenset(Cell(c.col + dc, c.row + dr) for c in rot.cells)


@dataclass(frozen=True)
class Arrangement:
    """An ordered collection of placements of one shape on one board."""

    board: Board
    shape: Shape
    mode: str
    placements: tuple[Placement, ...] = field(default=())

    def __post_init__(self) -> None:
        _check_mode(self.mode)
        object.__setattr__(self, "placements", tuple(self.placements))

    @property
    def size(self) -> int:
        return len(self.placements)

    def occupied_cells(self) -> set[Cell]:
        occ: set[Cell] = set()
        for p in self.placements:
            occ |= cells_of(self.shape, p)
        return occ

    def with_placement(self, placement: Placement) -> "Arrangement":
        return Arrangement(self.board, self.shape, self.mode,
                           self.placements + (placement,))


def validate(arrangement: Arrangement) -> str | None:
    """None when the arrangement is valid, else a reason.

    Checks, in order: every placement uses a rotation allowed by the mode,
    stays on the board, and no two placements overlap.  Placement indices in
    messages are 1-based.
    """
    board = arrangement.board
    shape = arrangement.shape
    # The first owner of a shared cell is the lowest placement on it, so the
    # least (owner, idx) hit is the least overlapping pair.
    owner: dict[Cell, int] = {}
    overlap: tuple[int, int] | None = None
    for idx, p in enumerate(arrangement.placements, start=1):
        if arrangement.mode == "fixed" and p.rotation % 4 != 0:
            return f"placement {idx} uses rotation {p.rotation % 4} but mode is fixed"
        for c in cells_of(shape, p):
            if c not in board:
                return (f"placement {idx} off board: cell ({c.col}, {c.row}) "
                        f"outside 1..{board.n}")
            first = owner.setdefault(c, idx)
            if first != idx and (overlap is None or (first, idx) < overlap):
                overlap = (first, idx)
    if overlap is not None:
        return f"placements {overlap[0]} and {overlap[1]} overlap"
    return None


def is_valid(arrangement: Arrangement) -> bool:
    return validate(arrangement) is None


def enumerate_placements(shape: Shape, board: Board, mode: str) -> tuple[Placement, ...]:
    """All distinct in-board placements, in lexicographic order.

    Order is by rotation index, then anchor row, then anchor column.  Two
    placements covering the same cells (a rotationally symmetric shape) are
    deduplicated keeping the earlier one.
    """
    _check_mode(mode)
    rotations = (0,) if mode == "fixed" else (0, 1, 2, 3)
    seen: set[frozenset[Cell]] = set()
    out: list[Placement] = []
    for m in rotations:
        rot = rotate(shape, m)
        # Anchor ranges keeping the whole rotated shape inside the board.
        ac, ar = rot.anchor
        w, h = rot.width, rot.height
        for row in range(ar, board.n - (h - ar) + 1):
            for col in range(ac, board.n - (w - ac) + 1):
                p = Placement(m, Cell(col, row))
                cells = cells_of(shape, p)
                if cells in seen:
                    continue
                seen.add(cells)
                out.append(p)
    return tuple(out)


@lru_cache(maxsize=256)
def _tables(shape: Shape, board: Board, mode: str
            ) -> tuple[tuple[Placement, ...], tuple[int, ...]]:
    """Placements plus their cell bitmasks; bit (row-1)*n + (col-1)."""
    placements = enumerate_placements(shape, board, mode)
    n = board.n
    masks = []
    for p in placements:
        m = 0
        for c in cells_of(shape, p):
            m |= 1 << ((c.row - 1) * n + (c.col - 1))
        masks.append(m)
    return placements, tuple(masks)


def placement_masks(shape: Shape, board: Board, mode: str
                    ) -> tuple[tuple[Placement, ...], tuple[int, ...]]:
    """Public view of the cached placement/bitmask tables."""
    return _tables(shape, board, mode)


def is_maximal(arrangement: Arrangement) -> bool:
    """True when no further copy can be added without overlap.

    Raises ValueError for an invalid arrangement: maximality is only defined
    on valid ones.
    """
    reason = validate(arrangement)
    if reason is not None:
        raise ValueError(f"arrangement is invalid: {reason}")
    n = arrangement.board.n
    occ = 0
    for c in arrangement.occupied_cells():
        occ |= 1 << ((c.row - 1) * n + (c.col - 1))
    _, masks = _tables(arrangement.shape, arrangement.board, arrangement.mode)
    return all(m & occ for m in masks)


def free_cells(arrangement: Arrangement) -> int:
    return arrangement.board.n ** 2 - len(arrangement.occupied_cells())
