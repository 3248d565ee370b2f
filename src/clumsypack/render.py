"""Text and SVG pictures of arrangements.

Both renderers refuse invalid arrangements: a picture of an overlapping or
off-board arrangement would silently misrepresent it.
"""

from __future__ import annotations

import operator

from .geometry import rotate
from .packing import Arrangement, cells_of, validate

_LETTERS = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz"

# Fill colors cycle across pieces.
_PALETTE = ("#4e79a7", "#f28e2b", "#59a14f", "#e15759", "#b07aa1",
            "#76b7b2", "#edc948", "#ff9da7", "#9c755f", "#bab0ac")


class InvalidArrangementError(ValueError):
    """The arrangement to draw overlaps, leaves the board or breaks its mode."""


def _checked(arrangement: Arrangement) -> None:
    reason = validate(arrangement)
    if reason is not None:
        raise InvalidArrangementError(
            f"cannot render an invalid arrangement: {reason}")


def render_ascii(arrangement: Arrangement) -> str:
    """The board as n lines of n characters.

    Empty cells are '.'; pieces get A-Z then a-z in placement order, and the
    symbols repeat past 52 pieces.
    """
    _checked(arrangement)
    n = arrangement.board.n
    grid = [["."] * n for _ in range(n)]
    for idx, p in enumerate(arrangement.placements):
        letter = _LETTERS[idx % len(_LETTERS)]
        for c in cells_of(arrangement.shape, p):
            grid[c.row - 1][c.col - 1] = letter
    return "\n".join("".join(row) for row in grid)


def _piece_outline(cells: frozenset) -> list[list[tuple[int, int]]]:
    """Closed boundary loops of a cell set, in grid corner coordinates.

    Each occupied cell contributes its exposed sides as directed edges
    (interior edges cancel because neighbors are absent on both sides);
    walking the edges end to start stitches them into loops.
    """
    cellset = {(c.col, c.row) for c in cells}
    edges: dict[tuple[int, int], list[tuple[int, int]]] = {}

    def add(a: tuple[int, int], b: tuple[int, int]) -> None:
        edges.setdefault(a, []).append(b)

    for (col, row) in cellset:
        x, y = col - 1, row - 1
        if (col, row - 1) not in cellset:
            add((x, y), (x + 1, y))
        if (col + 1, row) not in cellset:
            add((x + 1, y), (x + 1, y + 1))
        if (col, row + 1) not in cellset:
            add((x + 1, y + 1), (x, y + 1))
        if (col - 1, row) not in cellset:
            add((x, y + 1), (x, y))
    for targets in edges.values():
        targets.sort()

    loops: list[list[tuple[int, int]]] = []
    while edges:
        start = min(edges)
        loop = [start]
        here = start
        while True:
            targets = edges[here]
            nxt = targets.pop(0)
            if not targets:
                del edges[here]
            if nxt == start:
                break
            loop.append(nxt)
            here = nxt
        loops.append(loop)
    return loops


def render_svg(arrangement: Arrangement, cell: int = 24) -> str:
    """A standalone SVG drawing: grid, board frame, one filled path per piece.

    ``cell`` is the side of one board cell in pixels: a positive integer.
    """
    cell = operator.index(cell)
    if cell < 1:
        raise ValueError(f"cell size must be positive, got {cell}")
    _checked(arrangement)
    n = arrangement.board.n
    side = n * cell
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{side}" height="{side}" '
        f'viewBox="0 0 {side} {side}">',
        f'<rect x="0" y="0" width="{side}" height="{side}" fill="#ffffff"/>',
    ]
    for i in range(1, n):
        parts.append(f'<line x1="{i * cell}" y1="0" x2="{i * cell}" y2="{side}" '
                     'stroke="#dddddd" stroke-width="1"/>')
        parts.append(f'<line x1="0" y1="{i * cell}" x2="{side}" y2="{i * cell}" '
                     'stroke="#dddddd" stroke-width="1"/>')
    # A shift does not change an outline's loop order (each starts at its
    # least corner), so each rotation is outlined once and shifted per piece.
    outlines = {}  # rotation -> (its anchor cell, its outline loops)
    for idx, p in enumerate(arrangement.placements):
        color = _PALETTE[idx % len(_PALETTE)]
        if p.rotation not in outlines:
            rot = rotate(arrangement.shape, p.rotation)
            outlines[p.rotation] = rot.anchor, _piece_outline(rot.cells)
        anchor, loops = outlines[p.rotation]
        dx = p.anchor_pos.col - anchor.col
        dy = p.anchor_pos.row - anchor.row
        steps = []
        for loop in loops:
            steps.append("M " + " L ".join(f"{(x + dx) * cell} {(y + dy) * cell}"
                                           for x, y in loop) + " Z")
        parts.append(f'<path d="{" ".join(steps)}" fill="{color}" fill-opacity="0.85" '
                     f'fill-rule="evenodd" stroke="#222222" stroke-width="2">'
                     f'<title>piece {idx + 1}</title></path>')
    parts.append(f'<rect x="0" y="0" width="{side}" height="{side}" '
                 'fill="none" stroke="#222222" stroke-width="2"/>')
    parts.append("</svg>")
    return "\n".join(parts)
