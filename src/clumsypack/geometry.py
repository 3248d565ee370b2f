"""Cells, polyomino shapes, and the shift/rotation algebra on the square grid.

Coordinates are 1-based: a cell lives in column ``col`` counted from the left
and row ``row`` counted from the top, so ``Cell(1, 1)`` is the upper-left
corner.  Free-standing shapes are always stored normalized, meaning the
minimum column and the minimum row over the cells are both 1;  positions on a
board are expressed through placements, never through denormalized cell sets.
"""

from __future__ import annotations

import operator
from typing import Iterable, NamedTuple


class Cell(NamedTuple):
    col: int
    row: int


class _Record:
    """Base of the package's immutable records.

    A record names its fields in ``__slots__`` and sets them once, in its
    ``__init__``, through ``object.__setattr__``.  The constructor here takes
    the fields in ``__slots__`` order, by position or by name, and fills a
    field left out from the class's ``_defaults``; a record that checks or
    converts its fields writes its own.  Equality and hash, the repr and
    pickling all follow from ``__slots__``: two records are equal when they
    are of one class and their fields agree.  A class that compares fewer
    fields names them in ``_compared``.
    """

    __slots__ = ()
    _defaults: dict[str, object] = {}

    def __init_subclass__(cls) -> None:
        cls._key = operator.attrgetter(*getattr(cls, "_compared", cls.__slots__))

    def __init__(self, *args: object, **kwargs: object) -> None:
        names, kind = self.__slots__, type(self).__qualname__
        if len(args) > len(names):
            raise TypeError(f"{kind} takes {len(names)} fields, got {len(args)}")
        fields = dict(zip(names, args))
        for name in kwargs:
            if name in fields:
                raise TypeError(f"{kind} got field {name!r} twice")
            if name not in names:
                raise TypeError(f"{kind} has no field {name!r}")
        fields = {**self._defaults, **fields, **kwargs}
        for name in names:
            if name not in fields:
                raise TypeError(f"{kind} is missing field {name!r}")
            _set(self, name, fields[name])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._key(self) == self._key(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        # Rebuilt through __init__, which cannot go round the frozen fields.
        return type(self), tuple(getattr(self, f) for f in self.__slots__)


_set = object.__setattr__


def _as_cell(pair: Iterable[int]) -> Cell:
    """A (col, row) pair as a Cell of two ints.  A coordinate that is no
    integer (1.5, "1") raises TypeError; a bool becomes an int."""
    if type(pair) is not Cell or type(pair[0]) is not int or type(pair[1]) is not int:
        col, row = Cell(*pair)
        pair = Cell(operator.index(col), operator.index(row))
    return pair


class Shape(_Record):
    """A normalized polyomino with a designated anchor cell.

    Two shapes compare equal when their cells and anchor agree; the family
    tag and parameters are descriptive metadata and do not affect equality.
    """

    __slots__ = ("cells", "anchor", "family", "params")
    _compared = ("cells", "anchor")
    cells: frozenset[Cell]
    anchor: Cell
    family: str
    params: tuple[int, ...]

    def __init__(self, cells: Iterable[Cell], anchor: Cell,
                 family: str = "custom", params: tuple[int, ...] = ()) -> None:
        cells = frozenset(map(_as_cell, cells))
        anchor = _as_cell(anchor)
        if not cells:
            raise ValueError("a shape needs at least one cell")
        if min(c.col for c in cells) != 1 or min(c.row for c in cells) != 1:
            raise ValueError("shape cells must be normalized (min col = min row = 1)")
        if anchor not in cells:
            raise ValueError(f"anchor {tuple(anchor)} is not one of the shape's cells")
        _set(self, "cells", cells)
        _set(self, "anchor", anchor)
        _set(self, "family", family)
        _set(self, "params", params)

    @property
    def size(self) -> int:
        return len(self.cells)

    @property
    def width(self) -> int:
        return max(c.col for c in self.cells)

    @property
    def height(self) -> int:
        return max(c.row for c in self.cells)


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ValueError(message)


def rect(a: int, b: int) -> Shape:
    """The a-wide, b-tall rectangle."""
    _require(a >= 1 and b >= 1, f"rect requires a >= 1 and b >= 1, got a={a}, b={b}")
    cells = frozenset(Cell(i, j) for i in range(1, a + 1) for j in range(1, b + 1))
    anchor = Cell(max(1, a // 2), max(1, b // 2))
    return Shape(cells, anchor, "rect", (a, b))


def straight_v(n: int) -> Shape:
    """Vertical 1 x n straight."""
    _require(n >= 1, f"straight-v requires n >= 1, got n={n}")
    cells = frozenset(Cell(1, j) for j in range(1, n + 1))
    return Shape(cells, Cell(1, max(1, n // 2)), "straight-v", (n,))


def straight_h(n: int) -> Shape:
    """Horizontal n x 1 straight."""
    _require(n >= 1, f"straight-h requires n >= 1, got n={n}")
    cells = frozenset(Cell(i, 1) for i in range(1, n + 1))
    return Shape(cells, Cell(max(1, n // 2), 1), "straight-h", (n,))


def ell(a: int, b: int) -> Shape:
    """L shape: a+1 cells along the top row, b more cells down the left column.

    The short arm may not exceed the long arm (0 < a <= b); the corner cell
    is the anchor.
    """
    _require(0 < a <= b, f"L requires 0 < a <= b, got a={a}, b={b}")
    cells = frozenset(Cell(i, 1) for i in range(1, a + 2)) | \
        frozenset(Cell(1, j) for j in range(2, b + 2))
    return Shape(frozenset(cells), Cell(1, 1), "L", (a, b))


def tee(a: int, b: int) -> Shape:
    """T shape: a 2a+1 bar along the top row with a b-cell stem below its center."""
    _require(a >= 1 and b >= 1, f"T requires a >= 1 and b >= 1, got a={a}, b={b}")
    cells = frozenset(Cell(i, 1) for i in range(1, 2 * a + 2)) | \
        frozenset(Cell(a + 1, j) for j in range(2, b + 2))
    return Shape(frozenset(cells), Cell(a + 1, 1), "T", (a, b))


def plus(a: int) -> Shape:
    """Plus shape: two crossing 2a+1 bars sharing their center."""
    _require(a >= 1, f"plus requires a >= 1, got a={a}")
    cells = frozenset(Cell(i, a + 1) for i in range(1, 2 * a + 2)) | \
        frozenset(Cell(a + 1, j) for j in range(1, 2 * a + 2))
    return Shape(frozenset(cells), Cell(a + 1, a + 1), "plus", (a,))


def gen_tee(a: int, b: int, c: int) -> Shape:
    """Asymmetric T: top bar with a cells left and b cells right of the stem column."""
    _require(a >= 1 and b >= 1 and c >= 1,
             f"gen-T requires a, b, c >= 1, got a={a}, b={b}, c={c}")
    cells = frozenset(Cell(i, 1) for i in range(1, a + b + 2)) | \
        frozenset(Cell(a + 1, j) for j in range(2, c + 2))
    return Shape(frozenset(cells), Cell(a + 1, 1), "gen-T", (a, b, c))


def gen_plus(a: int, b: int, c: int, d: int) -> Shape:
    """Asymmetric plus: arms of length a (left), b (right), c (down), d (up)."""
    _require(a >= 1 and b >= 1 and c >= 1 and d >= 1,
             f"gen-plus requires a, b, c, d >= 1, got a={a}, b={b}, c={c}, d={d}")
    cells = frozenset(Cell(i, d + 1) for i in range(1, a + b + 2)) | \
        frozenset(Cell(a + 1, j) for j in range(1, c + d + 2))
    return Shape(frozenset(cells), Cell(a + 1, d + 1), "gen-plus", (a, b, c, d))


def custom(cells: Iterable[Cell], anchor: Cell | None = None) -> Shape:
    """A user-supplied cell list, normalized; the anchor defaults to the
    lexicographically least cell.  A list that names a cell twice raises
    ValueError."""
    raw: set[Cell] = set()
    for c in cells:
        c = Cell(*c)
        if c in raw:
            raise ValueError(f"cell list repeats cell ({c.col}, {c.row})")
        raw.add(c)
    if not raw:
        raise ValueError("cannot normalize an empty cell set")
    dc = 1 - min(c.col for c in raw)
    dr = 1 - min(c.row for c in raw)
    norm = frozenset(Cell(c.col + dc, c.row + dr) for c in raw)
    if anchor is None:
        a = min(norm)
    else:
        a = Cell(anchor[0] + dc, anchor[1] + dr)
        _require(a in norm, f"anchor {tuple(anchor)} is not one of the supplied cells")
    return Shape(norm, a, "custom", ())


# Family name -> (builder, parameter count); custom shapes take a cell list.
_FAMILY_TABLE = {
    "rect": (rect, 2),
    "straight-v": (straight_v, 1),
    "straight-h": (straight_h, 1),
    "L": (ell, 2),
    "T": (tee, 2),
    "plus": (plus, 1),
    "gen-T": (gen_tee, 3),
    "gen-plus": (gen_plus, 4),
}
_BY_KEY = {name.lower(): entry for name, entry in _FAMILY_TABLE.items()}

FAMILIES = (*_FAMILY_TABLE, "custom")


def check_family(family: str, count: int) -> None:
    """Raise ValueError unless ``family`` names a family that takes
    ``count`` parameters."""
    key = str(family).lower()
    if key == "custom":
        if count:
            raise ValueError(f"family 'custom' takes no parameters, got {count}")
        return
    entry = _BY_KEY.get(key)
    if entry is None:
        raise ValueError(f"unknown family {family!r}; expected one of {', '.join(FAMILIES)}")
    if count != entry[1]:
        raise ValueError(f"family {family!r} takes {entry[1]} parameter(s), got {count}")


def make_shape(family: str, params: Iterable[int] = (),
               custom_cells: Iterable[Cell] | None = None) -> Shape:
    """Build a shape from a family name and its integer parameters.

    Only family custom takes a cell list, anchored at its least cell; every
    other family fixes its cells, so passing a list raises ValueError.  A
    parameter that is no integer (2.5, "2") raises TypeError.
    """
    key = str(family).lower()
    ps = tuple(operator.index(p) for p in params)
    check_family(family, len(ps))
    if key == "custom":
        if not custom_cells:
            raise ValueError("family custom requires a cell list")
        return custom(custom_cells)
    if custom_cells is not None:
        raise ValueError(f"family {family!r} takes no custom cells; only family custom does")
    return _BY_KEY[key][0](*ps)


def _turn(shape: Shape, m: int
          ) -> tuple[Iterable[tuple[int, int]], tuple[int, int], int, int]:
    """The cells, anchor, width and height of the shape turned m = 0..3
    quarter turns clockwise and renormalized, as plain (col, row) pairs.

    A quarter turn sends (col, row) to (-row, col), and renormalizing a
    normalized shape of height h then adds h + 1 to the column; two and
    three turns repeat this.
    """
    w, h = shape.width, shape.height
    if m == 0:
        return shape.cells, shape.anchor, w, h
    if m == 1:
        turned = [(h + 1 - r, c) for c, r in (shape.anchor, *shape.cells)]
    elif m == 2:
        turned = [(w + 1 - c, h + 1 - r) for c, r in (shape.anchor, *shape.cells)]
    else:
        turned = [(r, w + 1 - c) for c, r in (shape.anchor, *shape.cells)]
    if m != 2:
        w, h = h, w
    return turned[1:], turned[0], w, h


def rotate(shape: Shape, m: int) -> Shape:
    """Rotate a shape m quarter turns clockwise and renormalize.

    The anchor travels with its cell.  Family metadata is kept so a rotated
    piece still reports what it was built from.  An m that is no integer
    raises TypeError.
    """
    m = operator.index(m) % 4
    if m == 0:
        return shape
    cells, anchor, _, _ = _turn(shape, m)
    return Shape(frozenset(cells), anchor, shape.family, shape.params)

