"""Closed-form clumsy numbers, witness constructions, and cross-checks.

``CLAIMS`` holds one entry per result of the paper.  Each entry couples a
shape family and mode with a closed-form value (or a lower/upper bracket)
for its clumsy packing number, plus a recipe that builds an arrangement
realizing the claimed size.  ``check_theorem`` then cross-examines up to
three independent routes to the answer: the formula, the built witness,
and the exact solver.

One entry is a conjecture rather than a theorem: it has a formula but no
witness recipe, and the solver may refute it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum, unique
from typing import Callable

from .geometry import Cell, Shape, custom, ell, plus, rect, straight_v, tee
from .packing import (Arrangement, Board, Placement, enumerate_placements,
                      cells_of, is_maximal, is_valid, placement_masks)
from .solver import DEFAULT_NODE_BUDGET, clumsy_number, first_maximal_arrangement


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


# Entries whose formula value is a (lower, upper) bracket, not an equality.
BOUNDS_THEOREMS = frozenset({
    TheoremId.L_FREE_BOUNDS,
    TheoremId.L_FREE_A1_BOUNDS,
    TheoremId.T_FREE_BOUNDS,
})


class HypothesisError(ValueError):
    """Parameters fall outside the statement's hypotheses."""


class ConstructionError(RuntimeError):
    """The witness recipe cannot deliver an arrangement for these parameters."""


def theorem_from_name(name: str) -> TheoremId:
    try:
        return TheoremId(name)
    except ValueError:
        known = ", ".join(t.value for t in TheoremId)
        raise ValueError(f"unknown theorem {name!r}; expected one of {known}") from None


def _ceil_div(x: int, y: int) -> int:
    return -(-x // y)


@dataclass(frozen=True)
class Claim:
    """One stated result: what it is about, what it claims, how it is witnessed.

    ``instance`` maps the parameters to the shape and the board side the
    claim is about, and ``mode`` says how copies may move.  ``value`` gives
    the claimed clumsy number, or a (lower, upper) bracket.  ``construction``
    builds the witness the proof describes; it is None for the conjecture.
    """

    params: tuple[str, ...]
    hypothesis: Callable[..., bool]
    hypothesis_text: str
    value: Callable[..., int | tuple[int, int]]
    instance: Callable[..., tuple[Shape, int]]
    mode: str
    construction: Callable[..., Arrangement] | None


def _rect_fixed_value(a: int, b: int) -> int:
    return _ceil_div(a * b - a + 1, 2 * a - 1) * _ceil_div(a * b - b + 1, 2 * b - 1)


def _conj_l_fixed_value(a: int, b: int) -> int:
    n = a + b + 1
    q1 = n // ((a + 2) ** 2 + a)
    q2 = _ceil_div(n, (a + 1) ** 2 + a)
    return q1 * (a + 1) + _ceil_div(n - q2 * (a + 1) ** 2 - a, a + 1)


def _ell_wide(a: int, b: int) -> Shape:
    """L with a+1 cells along the top and b below the corner, any a, b >= 1.

    The standard L constructor insists on a <= b; this builds the b < a
    orientation directly from its cells.
    """
    cells = [Cell(i, 1) for i in range(1, a + 2)]
    cells += [Cell(1, j) for j in range(2, b + 2)]
    return custom(cells, Cell(1, 1))


def _blocking_grid_starts(n: int, w: int) -> list[int]:
    """Start coordinates of width-w blocks along one axis of an n board.

    First block begins at w (leaving a w-1 margin), then every 2w-1; if the
    trailing margin could still hold a block, one more goes flush at the end.
    Every gap between blocks ends up at most w-1 wide.
    """
    starts = []
    s = w
    while s + w - 1 <= n:
        starts.append(s)
        s += 2 * w - 1
    if not starts:
        raise ConstructionError(f"board of side {n} cannot hold a width-{w} block")
    if n - (starts[-1] + w - 1) >= w:
        starts.append(n - w + 1)
    return starts


def _rect_fixed_construction(a: int, b: int) -> Arrangement:
    n = a * b
    board = Board(n)
    shape = rect(a, b)
    ac, ar = shape.anchor
    placements = []
    for sy in _blocking_grid_starts(n, b):
        for sx in _blocking_grid_starts(n, a):
            placements.append(Placement(0, Cell(sx + ac - 1, sy + ar - 1)))
    return Arrangement(board, shape, "fixed", tuple(placements))


def _straight_construction(n: int, mode: str) -> Arrangement:
    shape = straight_v(n)
    row = shape.anchor.row
    placements = tuple(Placement(0, Cell(i, row)) for i in range(1, n + 1))
    return Arrangement(Board(n), shape, mode, placements)


def _t_fixed_wide_construction(a: int, b: int) -> Arrangement:
    n = 2 * a + b + 1
    xstar = max(a, b) + 1
    ys = []
    y = b + 1
    while y + b <= n:
        ys.append(y)
        y += 2 * b + 1
    if ys[-1] < n - 2 * b:
        # The progression stopped one bar short of the bottom window; a
        # final piece flush with the bottom edge closes it.
        ys.append(n - b)
    placements = tuple(Placement(0, Cell(xstar, yy)) for yy in ys)
    return Arrangement(Board(n), tee(a, b), "fixed", placements)


def _t_fixed_tall_construction(a: int, b: int) -> Arrangement:
    n = 2 * a + b + 1
    m = _ceil_div(b + 1, 2 * a + 1)
    board = Board(n)
    shape = tee(a, b)
    # Bars sit side by side in one row, stems hanging below.  The bar block
    # must cover every column a stem could use, which pins the start range.
    lo = max(1, a + b + 2 - m * (2 * a + 1))
    for s in range(lo, a + 2):
        for ystar in range(1, 2 * a + 2):
            placements = tuple(
                Placement(0, Cell(s + a + t * (2 * a + 1), ystar))
                for t in range(m))
            arr = Arrangement(board, shape, "fixed", placements)
            if is_valid(arr) and is_maximal(arr):
                return arr
    raise ConstructionError(
        f"no maximal bar row found for T({a},{b}) fixed on {n}x{n}")


def _first_maximal_subset(shape: Shape, board: Board, count: int,
                          by_rot: list[list[Placement]],
                          tail: tuple[Placement, ...]) -> Arrangement | None:
    """First count-subset of the candidates that, with the fixed tail,
    forms a maximal arrangement.  Tries one piece per rotation before
    falling back to arbitrary subsets."""
    placements, masks = placement_masks(shape, board, "free")
    mask_of = dict(zip(placements, masks))
    tail_mask = 0
    for p in tail:
        tail_mask |= mask_of[p]

    def good(combo: tuple[Placement, ...]) -> bool:
        occ = tail_mask
        for p in combo:
            m = mask_of[p]
            if m & occ:
                return False
            occ |= m
        return all(mk & occ for mk in masks)

    pools = [ps for ps in by_rot if ps]
    if len(pools) == 4 and count == 4:
        for combo in itertools.product(*pools):
            if good(combo):
                return Arrangement(board, shape, "free", tuple(combo) + tail)
    flat = [p for ps in by_rot for p in ps]
    for combo in itertools.combinations(flat, count):
        if good(combo):
            return Arrangement(board, shape, "free", tuple(combo) + tail)
    return None


def _l_free_five_construction(a: int, b: int) -> Arrangement:
    if not 2 <= a < b:
        raise ConstructionError(
            f"the five-piece L recipe needs 2 <= a < b, got a={a}, b={b}")
    shape = ell(a, b)
    n = a + b + 1
    board = Board(n)
    # Four pieces confined to the top-left (b+2)-square, one more rotated
    # halfway around tucked against the bottom-right edges.
    fifth = Placement(2, Cell(n, b + 3))
    limit = b + 2
    by_rot: list[list[Placement]] = [[], [], [], []]
    for p in enumerate_placements(shape, board, "free"):
        cs = cells_of(shape, p)
        if all(c.col <= limit and c.row <= limit for c in cs):
            by_rot[p.rotation].append(p)
    arr = _first_maximal_subset(shape, board, 4, by_rot, (fifth,))
    if arr is None:
        raise ConstructionError(
            f"no maximal five-piece arrangement found for L({a},{b}) on {n}x{n}")
    return arr


def _l_free_a1_construction(b: int) -> Arrangement:
    if b < 2:
        raise ConstructionError(
            f"the four-piece L recipe needs b >= 2, got b={b}")
    shape = ell(1, b)
    board = Board(b + 2)
    by_rot: list[list[Placement]] = [[], [], [], []]
    for p in enumerate_placements(shape, board, "free"):
        by_rot[p.rotation].append(p)
    arr = _first_maximal_subset(shape, board, 4, by_rot, ())
    if arr is None:
        raise ConstructionError(
            f"no maximal four-piece arrangement found for L(1,{b}) on {b + 2}x{b + 2}")
    return arr

def _l_fixed_equal_construction(a: int) -> Arrangement:
    return Arrangement(Board(2 * a + 1), ell(a, a), "fixed", (Placement(0, Cell(a + 1, 1)),))


def _l_free_equal_construction(a: int) -> Arrangement:
    return Arrangement(Board(2 * a + 1), ell(a, a), "free",
                       (Placement(0, Cell(a + 1, a + 1)), Placement(0, Cell(a, 1))))


def _t_free_equal_construction(a: int) -> Arrangement:
    return Arrangement(Board(3 * a + 1), tee(a, a), "free",
                       (Placement(0, Cell(a + 1, a + 1)),
                        Placement(1, Cell(2 * a + 2, 2 * a + 1))))


def _t_free_four_construction(a: int, b: int) -> Arrangement:
    n = 2 * a + b + 1
    c = min(a, b)
    return Arrangement(Board(n), tee(a, b), "free",
                       (Placement(0, Cell(a + 1, c)),
                        Placement(1, Cell(n - c + 1, a + 1)),
                        Placement(2, Cell(n - a, n - c + 1)),
                        Placement(3, Cell(c, n - a))))


def _plus_construction(a: int) -> Arrangement:
    return Arrangement(Board(4 * a + 1), plus(a), "free",
                       (Placement(0, Cell(2 * a + 1, 2 * a + 1)),))


# One entry per result, its fields in Claim order.
CLAIMS: dict[TheoremId, Claim] = {
    TheoremId.STRAIGHT_FIXED: Claim(
        ("n",), lambda n: n >= 1, "n >= 1", lambda n: n,
        lambda n: (straight_v(n), n), "fixed", lambda n: _straight_construction(n, "fixed")),
    TheoremId.STRAIGHT_FREE: Claim(
        ("n",), lambda n: n >= 1, "n >= 1", lambda n: n,
        lambda n: (straight_v(n), n), "free", lambda n: _straight_construction(n, "free")),
    TheoremId.RECT_FIXED: Claim(
        ("a", "b"), lambda a, b: a >= 2 and b >= 2, "a, b >= 2", _rect_fixed_value,
        lambda a, b: (rect(a, b), a * b), "fixed", _rect_fixed_construction),
    TheoremId.L_FIXED_EQUAL: Claim(
        ("a",), lambda a: a >= 1, "a >= 1", lambda a: 1,
        lambda a: (ell(a, a), 2 * a + 1), "fixed", _l_fixed_equal_construction),
    TheoremId.L_FREE_EQUAL: Claim(
        ("a",), lambda a: a >= 1, "a >= 1", lambda a: 2,
        lambda a: (ell(a, a), 2 * a + 1), "free", _l_free_equal_construction),
    TheoremId.L_FREE_BOUNDS: Claim(
        ("a", "b"), lambda a, b: 1 <= a <= b, "1 <= a <= b", lambda a, b: (2, 5),
        lambda a, b: (ell(a, b), a + b + 1), "free", _l_free_five_construction),
    TheoremId.L_FREE_A1_BOUNDS: Claim(
        ("b",), lambda b: b >= 1, "b >= 1", lambda b: (2, 4),
        lambda b: (ell(1, b), b + 2), "free", _l_free_a1_construction),
    TheoremId.T_FIXED_WIDE: Claim(
        ("a", "b"), lambda a, b: a >= 1 and 1 <= b <= 2 * a, "a >= 1 and 1 <= b <= 2a",
        lambda a, b: _ceil_div(2 * a + 1, 2 * b + 1),
        lambda a, b: (tee(a, b), 2 * a + b + 1), "fixed", _t_fixed_wide_construction),
    TheoremId.T_FIXED_TALL: Claim(
        ("a", "b"), lambda a, b: a >= 1 and b > 2 * a, "a >= 1 and b > 2a",
        lambda a, b: _ceil_div(b + 1, 2 * a + 1),
        lambda a, b: (tee(a, b), 2 * a + b + 1), "fixed", _t_fixed_tall_construction),
    TheoremId.T_FREE_EQUAL: Claim(
        ("a",), lambda a: a >= 1, "a >= 1", lambda a: 2,
        lambda a: (tee(a, a), 3 * a + 1), "free", _t_free_equal_construction),
    TheoremId.T_FREE_BOUNDS: Claim(
        ("a", "b"), lambda a, b: a >= 1 and b >= 1, "a, b >= 1", lambda a, b: (2, 4),
        lambda a, b: (tee(a, b), 2 * a + b + 1), "free", _t_free_four_construction),
    TheoremId.PLUS_ANY: Claim(
        ("a",), lambda a: a >= 1, "a >= 1", lambda a: 1,
        lambda a: (plus(a), 4 * a + 1), "free", _plus_construction),
    TheoremId.CONJ_L_FIXED: Claim(
        ("a", "b"), lambda a, b: 1 <= b < a, "1 <= b < a", _conj_l_fixed_value,
        lambda a, b: (_ell_wide(a, b), a + b + 1), "fixed", None),
}


def _check_params(theorem: TheoremId, params: tuple[int, ...]
                  ) -> tuple[Claim, tuple[int, ...]]:
    claim = CLAIMS[theorem]
    ps = tuple(int(p) for p in params)
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
    shape, side = claim.instance(*ps)
    return shape, Board(side), claim.mode


def build_construction(theorem: TheoremId, *params: int) -> Arrangement:
    """The witness arrangement a theorem's proof describes.

    Raises ConstructionError when no recipe exists (the conjecture) or the
    recipe's own side conditions fail.
    """
    claim, ps = _check_params(theorem, params)
    if claim.construction is None:
        raise ConstructionError("the conjectured formula has no witness recipe")
    return claim.construction(*ps)


# Above this many placements check_theorem leaves the solver leg out.
SOLVER_PLACEMENT_LIMIT = 200


@dataclass(frozen=True)
class TheoremReport:
    """Outcome of cross-checking one theorem instance."""

    theorem: TheoremId
    params: tuple[int, ...]
    formula_value: object
    construction: Arrangement | None
    construction_ok: bool | None
    solver_value: int | None
    consistent: bool


def check_theorem(theorem: TheoremId, params: tuple[int, ...],
                  with_solver: bool = False, *,
                  node_budget: int = DEFAULT_NODE_BUDGET) -> TheoremReport:
    """Compare formula, construction, and (optionally) solver on one instance.

    The construction passes when it is valid, maximal, and has exactly the
    claimed size (the upper bound, for bracket entries).  The solver leg is
    skipped on instances with more placements than SOLVER_PLACEMENT_LIMIT.
    """
    ps = tuple(int(p) for p in params)
    value = formula_value(theorem, *ps)
    try:
        construction: Arrangement | None = build_construction(theorem, *ps)
    except ConstructionError:
        construction = None
    construction_ok: bool | None = None
    if construction is not None:
        target = value[1] if isinstance(value, tuple) else value
        construction_ok = (is_valid(construction)
                           and is_maximal(construction)
                           and construction.size == target)
    solver_value: int | None = None
    if with_solver:
        shape, board, mode = instance_of(theorem, ps)
        if len(placement_masks(shape, board, mode)[0]) <= SOLVER_PLACEMENT_LIMIT:
            solver_value = clumsy_number(
                shape, board, mode, node_budget=node_budget).clumsy_number
    consistent = construction_ok is not False
    if solver_value is not None:
        if isinstance(value, tuple):
            consistent = consistent and value[0] <= solver_value <= value[1]
        else:
            consistent = consistent and solver_value == value
    return TheoremReport(theorem, ps, value, construction, construction_ok,
                         solver_value, consistent)


def route(family: str, mode: str, params: tuple[int, ...]
          ) -> tuple[TheoremId, tuple[int, ...]] | None:
    """The theorem (and its parameters) covering a family/mode instance,
    or None when no entry applies."""
    f = str(family).lower()
    ps = tuple(int(p) for p in params)
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
        arr = first_maximal_arrangement(ell(2, 7), Board(10), "free", 4)
        if arr is None:
            raise ConstructionError("no size-4 maximal arrangement of L(2,7) on 10x10")
        return arr
    if name == "T43":
        return Arrangement(Board(12), tee(4, 3), "free",
                           (Placement(0, Cell(5, 4)),
                            Placement(0, Cell(5, 9)),
                            Placement(1, Cell(10, 8))))
    if name == "R36_tiling":
        return build_construction(TheoremId.RECT_FIXED, 3, 6)
    raise ValueError(f"unknown example {name!r}; expected one of {', '.join(EXAMPLES)}")
