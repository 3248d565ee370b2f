"""Closed-form clumsy numbers, witness constructions, and cross-checks.

``CLAIMS`` holds one entry per result of the paper.  Each entry couples a
shape family and mode with a closed-form value (or a lower/upper bracket)
for its clumsy packing number, plus a recipe that places the pieces of an
arrangement realizing the claimed size.  ``check_theorem`` then
cross-examines up to three independent routes to the answer: the formula,
the built witness, and the exact solver.

One entry is a conjecture rather than a theorem: it has a formula but no
witness recipe, and the solver may refute it.
"""

from __future__ import annotations

import operator
from enum import Enum, unique
from typing import Callable

from .geometry import (Cell, Shape, _Record, check_family, custom, ell, plus, rect,
                       straight_v, tee)
from .packing import Arrangement, Board, Placement, _check_mode, _tables, _verdict, default_board
from .solver import clumsy_number


@unique
class TheoremId(Enum):
    STRAIGHT_FIXED = "StraightFixed"
    STRAIGHT_FREE = "StraightFree"
    RECT_FIXED = "RectFixed"
    L_FIXED_EQUAL = "LFixedEqual"
    L_FREE_EQUAL = "LFreeEqual"
    L_FREE_BOUNDS = "LFreeBounds"
    L_FREE_A1_BOUNDS = "LFreeA1Bounds"
    T_FIXED_WIDE = "TFixedWide"
    T_FIXED_TALL = "TFixedTall"
    T_FREE_EQUAL = "TFreeEqual"
    T_FREE_BOUNDS = "TFreeBounds"
    PLUS_ANY = "PlusAny"
    CONJ_L_FIXED = "ConjLFixed"


class HypothesisError(ValueError):
    """Parameters fall outside the statement's hypotheses."""


class ConstructionError(RuntimeError):
    """The witness recipe cannot deliver an arrangement for these parameters."""


def _ceil_div(x: int, y: int) -> int:
    return -(-x // y)


class Claim(_Record):
    """One stated result: what it is about, what it claims, how it is witnessed.

    ``piece`` maps the parameters to the shape the claim is about, which
    is packed on its ``default_board``, and ``mode`` says how copies may
    move.  ``value`` gives the claimed clumsy number, or a (lower, upper)
    bracket.  ``construction`` maps the board side and the parameters to the
    placements of the witness the proof describes, which
    ``build_construction`` puts on the instance; it is None for the
    conjecture.
    """

    __slots__ = ("params", "hypothesis", "hypothesis_text", "value", "piece",
                 "mode", "construction")
    params: tuple[str, ...]
    hypothesis: Callable[..., bool]
    hypothesis_text: str
    value: Callable[..., int | tuple[int, int]]
    piece: Callable[..., Shape]
    mode: str
    construction: Callable[..., tuple[Placement, ...]] | None


def _rect_fixed_value(a: int, b: int) -> int:
    return _ceil_div(a * b - a + 1, 2 * a - 1) * _ceil_div(a * b - b + 1, 2 * b - 1)


def _conj_l_fixed_value(a: int, b: int) -> int:
    n = a + b + 1
    q1 = n // ((a + 2) ** 2 + a)
    q2 = _ceil_div(n, (a + 1) ** 2 + a)
    return q1 * (a + 1) + _ceil_div(n - q2 * (a + 1) ** 2 - a, a + 1)


def _ell_wide(a: int, b: int) -> Shape:
    """L with a+1 cells along the top and b below the corner, for b <= a.

    The standard L constructor insists on a <= b; this is ``ell(b, a)``
    transposed, a custom shape anchored at its corner.
    """
    return custom(Cell(row, col) for col, row in ell(b, a).cells)


def _blocking_grid_starts(n: int, w: int) -> list[int]:
    """Start coordinates of width-w blocks along one axis of an n board.

    First block begins at w (leaving a w-1 margin), then every 2w-1; if the
    trailing margin could still hold a block, one more goes flush at the end.
    Every gap between blocks ends up at most w-1 wide.  Each caller's
    board holds at least one block: side n = ab holds a rectangle's a or b,
    and a T's side n = 2a + b + 1 holds its b + 1 rows.
    """
    starts = []
    s = w
    while s + w - 1 <= n:
        starts.append(s)
        s += 2 * w - 1
    if n - (starts[-1] + w - 1) >= w:
        starts.append(n - w + 1)
    return starts


def _rect_fixed_construction(n: int, a: int, b: int) -> tuple[Placement, ...]:
    ac, ar = rect(a, b).anchor
    xs = _blocking_grid_starts(n, a)
    return tuple(Placement(0, Cell(sx + ac - 1, sy + ar - 1))
                 for sy in _blocking_grid_starts(n, b) for sx in xs)


def _straight_construction(n: int, _: int) -> tuple[Placement, ...]:
    # One piece per column.
    row = straight_v(n).anchor.row
    return tuple(Placement(0, Cell(i, row)) for i in range(1, n + 1))


def _t_fixed_wide_construction(n: int, a: int, b: int) -> tuple[Placement, ...]:
    # Each T spans b + 1 rows, its bar on the first.
    return tuple(Placement(0, Cell(max(a, b) + 1, y))
                 for y in _blocking_grid_starts(n, b + 1))


def _t_fixed_tall_construction(_: int, a: int, b: int) -> tuple[Placement, ...]:
    m = _ceil_div(b + 1, 2 * a + 1)
    # Bars sit side by side along the top row, stems hanging below.  The bar
    # block must cover every column a stem could use, which pins its start.
    s = max(1, a + b + 2 - m * (2 * a + 1))
    return tuple(Placement(0, Cell(s + a + t * (2 * a + 1), 1)) for t in range(m))


def _pinwheel(b: int) -> tuple[Placement, ...]:
    """Four L pieces, one per rotation, turning around the top-left
    (b+2)-square with each long leg along a different edge."""
    return (Placement(0, Cell(1, 2)), Placement(1, Cell(b + 1, 1)),
            Placement(2, Cell(b + 2, b + 1)), Placement(3, Cell(2, b + 2)))


def _l_free_five_construction(n: int, a: int, b: int) -> tuple[Placement, ...]:
    if not 2 <= a < b:
        raise ConstructionError(
            f"the five-piece L recipe needs 2 <= a < b, got a={a}, b={b}")
    # The pinwheel fills the top-left (b+2)-square; a fifth piece rotated
    # halfway around is tucked against the bottom-right edges.
    return _pinwheel(b) + (Placement(2, Cell(n, b + 3)),)


def _l_free_a1_construction(_: int, b: int) -> tuple[Placement, ...]:
    if b < 2:
        raise ConstructionError(
            f"the four-piece L recipe needs b >= 2, got b={b}")
    return _pinwheel(b)


def _t_free_four_construction(n: int, a: int, b: int) -> tuple[Placement, ...]:
    c = min(a, b)
    return (Placement(0, Cell(a + 1, c)), Placement(1, Cell(n - c + 1, a + 1)),
            Placement(2, Cell(n - a, n - c + 1)), Placement(3, Cell(c, n - a)))


# One entry per result, its fields in Claim order.
CLAIMS: dict[TheoremId, Claim] = {
    TheoremId.STRAIGHT_FIXED: Claim(
        ("n",), lambda n: n >= 1, "n >= 1", lambda n: n,
        straight_v, "fixed", _straight_construction),
    TheoremId.STRAIGHT_FREE: Claim(
        ("n",), lambda n: n >= 1, "n >= 1", lambda n: n,
        straight_v, "free", _straight_construction),
    TheoremId.RECT_FIXED: Claim(
        ("a", "b"), lambda a, b: a >= 2 and b >= 2, "a, b >= 2", _rect_fixed_value,
        rect, "fixed", _rect_fixed_construction),
    TheoremId.L_FIXED_EQUAL: Claim(
        ("a",), lambda a: a >= 1, "a >= 1", lambda a: 1,
        lambda a: ell(a, a), "fixed",
        lambda _, a: (Placement(0, Cell(a + 1, 1)),)),
    TheoremId.L_FREE_EQUAL: Claim(
        ("a",), lambda a: a >= 1, "a >= 1", lambda a: 2,
        lambda a: ell(a, a), "free",
        lambda _, a: (Placement(0, Cell(a + 1, a + 1)), Placement(0, Cell(a, 1)))),
    TheoremId.L_FREE_BOUNDS: Claim(
        ("a", "b"), lambda a, b: 1 <= a <= b, "1 <= a <= b", lambda a, b: (2, 5),
        ell, "free", _l_free_five_construction),
    TheoremId.L_FREE_A1_BOUNDS: Claim(
        ("b",), lambda b: b >= 1, "b >= 1", lambda b: (2, 4),
        lambda b: ell(1, b), "free", _l_free_a1_construction),
    TheoremId.T_FIXED_WIDE: Claim(
        ("a", "b"), lambda a, b: a >= 1 and 1 <= b <= 2 * a, "a >= 1 and 1 <= b <= 2a",
        lambda a, b: _ceil_div(2 * a + 1, 2 * b + 1),
        tee, "fixed", _t_fixed_wide_construction),
    TheoremId.T_FIXED_TALL: Claim(
        ("a", "b"), lambda a, b: a >= 1 and b > 2 * a, "a >= 1 and b > 2a",
        lambda a, b: _ceil_div(b + 1, 2 * a + 1),
        tee, "fixed", _t_fixed_tall_construction),
    TheoremId.T_FREE_EQUAL: Claim(
        ("a",), lambda a: a >= 1, "a >= 1", lambda a: 2,
        lambda a: tee(a, a), "free",
        lambda _, a: (Placement(0, Cell(a + 1, a + 1)),
                      Placement(1, Cell(2 * a + 2, 2 * a + 1)))),
    TheoremId.T_FREE_BOUNDS: Claim(
        ("a", "b"), lambda a, b: a >= 1 and b >= 1, "a, b >= 1", lambda a, b: (2, 4),
        tee, "free", _t_free_four_construction),
    TheoremId.PLUS_ANY: Claim(
        ("a",), lambda a: a >= 1, "a >= 1", lambda a: 1,
        plus, "free",
        lambda _, a: (Placement(0, Cell(2 * a + 1, 2 * a + 1)),)),
    TheoremId.CONJ_L_FIXED: Claim(
        ("a", "b"), lambda a, b: 1 <= b < a, "1 <= b < a", _conj_l_fixed_value,
        _ell_wide, "fixed", None),
}


def _check_params(theorem: TheoremId, params: tuple[int, ...]
                  ) -> tuple[Claim, tuple[int, ...]]:
    claim = CLAIMS[theorem]
    ps = tuple(operator.index(p) for p in params)
    if len(ps) != len(claim.params):
        raise HypothesisError(
            f"{theorem.value} takes parameters ({', '.join(claim.params)}), got {len(ps)}")
    if not claim.hypothesis(*ps):
        given = ", ".join(f"{n}={v}" for n, v in zip(claim.params, ps))
        raise HypothesisError(
            f"{theorem.value} requires {claim.hypothesis_text}, got {given}")
    return claim, ps


def formula_value(theorem: TheoremId, *params: int):
    """Claimed clumsy number, or a (lower, upper) bracket for bounds entries."""
    claim, ps = _check_params(theorem, params)
    return claim.value(*ps)


def instance_of(theorem: TheoremId, params: tuple[int, ...]
                ) -> tuple[Shape, Board, str]:
    """The shape, board, and mode a theorem's claim is about."""
    claim, ps = _check_params(theorem, params)
    shape = claim.piece(*ps)
    return shape, default_board(shape), claim.mode


def build_construction(theorem: TheoremId, *params: int) -> Arrangement:
    """The witness arrangement a theorem's proof describes, on the claim's
    shape, board and mode.

    Raises ConstructionError when no recipe exists (the conjecture) or the
    recipe's own side conditions fail.
    """
    claim, ps = _check_params(theorem, params)
    shape = claim.piece(*ps)
    return _construct(claim, ps, shape, default_board(shape))


def _construct(claim: Claim, ps: tuple[int, ...], shape: Shape, board: Board) -> Arrangement:
    """The claim's recipe placed on its instance (shape, board)."""
    if claim.construction is None:
        raise ConstructionError("the conjectured formula has no witness recipe")
    return Arrangement(board, shape, claim.mode, claim.construction(board.n, *ps))


def _bracket(value: int | tuple[int, int]) -> tuple[int, int]:
    """A claimed value as a (lower, upper) bracket."""
    return value if isinstance(value, tuple) else (value, value)


# Above this many placements check_theorem leaves the solver leg out.
SOLVER_PLACEMENT_LIMIT = 200


class TheoremReport(_Record):
    """Outcome of cross-checking one theorem instance."""

    __slots__ = ("theorem", "params", "formula_value", "construction",
                 "construction_ok", "solver_value", "consistent")
    theorem: TheoremId
    params: tuple[int, ...]
    formula_value: object
    construction: Arrangement | None
    construction_ok: bool | None
    solver_value: int | None
    consistent: bool


def check_theorem(theorem: TheoremId, params: tuple[int, ...],
                  with_solver: bool = False) -> TheoremReport:
    """Compare formula, construction, and (optionally) solver on one instance.

    The construction passes when it is valid, maximal, and has exactly the
    claimed size (the upper bound, for bracket entries).  The solver leg is
    skipped on instances with more placements than SOLVER_PLACEMENT_LIMIT.
    """
    claim, ps = _check_params(theorem, params)
    shape = claim.piece(*ps)
    board = default_board(shape)
    value = claim.value(*ps)
    lo, hi = _bracket(value)
    try:
        construction: Arrangement | None = _construct(claim, ps, shape, board)
    except ConstructionError:
        construction = None
    construction_ok = None if construction is None else (
        _verdict(construction)[1] and construction.size == hi)
    solver_value: int | None = None
    if with_solver and len(_tables(shape, board, claim.mode)[1]) <= SOLVER_PLACEMENT_LIMIT:
        solver_value = clumsy_number(shape, board, claim.mode).clumsy_number
    consistent = construction_ok is not False and (
        solver_value is None or lo <= solver_value <= hi)
    return TheoremReport(theorem, ps, value, construction, construction_ok,
                         solver_value, consistent)


def route(family: str, mode: str, params: tuple[int, ...]
          ) -> tuple[TheoremId, tuple[int, ...]] | None:
    """The theorem (and its parameters) covering a family/mode instance,
    or None when no entry applies.

    Raises ValueError for an unknown family, or for a parameter count the
    family does not take.
    """
    _check_mode(mode)
    f = str(family).lower()
    ps = tuple(operator.index(p) for p in params)
    check_family(family, len(ps))
    if f in ("straight-v", "straight-h"):
        t = TheoremId.STRAIGHT_FIXED if mode == "fixed" else TheoremId.STRAIGHT_FREE
        return t, ps
    if f == "rect":
        a, b = ps
        if a == 1 or b == 1:
            n = max(a, b)
            t = TheoremId.STRAIGHT_FIXED if mode == "fixed" else TheoremId.STRAIGHT_FREE
            return t, (n,)
        if mode == "fixed":
            return TheoremId.RECT_FIXED, ps
        return None
    if f == "l":
        a, b = ps
        if mode == "fixed":
            if a == b:
                return TheoremId.L_FIXED_EQUAL, (a,)
            if b < a:
                return TheoremId.CONJ_L_FIXED, ps
            return None
        if a == b:
            return TheoremId.L_FREE_EQUAL, (a,)
        if a == 1:
            return TheoremId.L_FREE_A1_BOUNDS, (b,)
        return TheoremId.L_FREE_BOUNDS, ps
    if f == "t":
        a, b = ps
        if mode == "fixed":
            if b <= 2 * a:
                return TheoremId.T_FIXED_WIDE, ps
            return TheoremId.T_FIXED_TALL, ps
        if a == b:
            return TheoremId.T_FREE_EQUAL, (a,)
        return TheoremId.T_FREE_BOUNDS, ps
    if f == "plus":
        return TheoremId.PLUS_ANY, ps
    return None


EXAMPLES = ("L36", "L27", "T43", "R36_tiling")


def build_example(name: str) -> Arrangement:
    """Named reference arrangements used in documentation and tests."""
    if name == "L36":
        return Arrangement(Board(10), ell(3, 6), "free",
                           (Placement(0, Cell(2, 1)),
                            Placement(0, Cell(3, 4)),
                            Placement(0, Cell(7, 4))))
    if name == "L27":
        # cp is 4 here: the solver's lex-first witness.
        return clumsy_number(ell(2, 7), Board(10), "free").witness
    if name == "T43":
        return Arrangement(Board(12), tee(4, 3), "free",
                           (Placement(0, Cell(5, 4)),
                            Placement(0, Cell(5, 9)),
                            Placement(1, Cell(10, 8))))
    if name == "R36_tiling":
        return build_construction(TheoremId.RECT_FIXED, 3, 6)
    raise ValueError(f"unknown example {name!r}; expected one of {', '.join(EXAMPLES)}")
