"""Exact computation of clumsy packing numbers.

The clumsy packing number is the least size of a maximal arrangement: one
that is valid and admits no further copy.  The search works on the conflict
graph of placements, where a maximal arrangement is exactly an independent
dominating set.  Iterative deepening over the target size k = 1, 2, ...
guarantees the first size found is the minimum, and within each depth the
lexicographically first witness (by placement index) is produced.  In free
mode the search opens only at first indices that are the least of their
board-rotation orbit; this loses no witness, since a lex-first witness
always opens at an orbit minimum (see ``_symmetry_firsts``), so the one
search at each depth returns that witness directly.

A second, deliberately naive oracle recomputes small instances straight from
the definition so the two routes can be compared in tests.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass

from .geometry import Cell, Shape, rotate
from .packing import (Arrangement, Board, Placement, cells_of, default_board,
                      placement_masks, validate)

DEFAULT_NODE_BUDGET = 10 ** 8


class BudgetExceededError(RuntimeError):
    """Search ran out of nodes or time; carries the bracket proved so far."""

    def __init__(self, lower: int, upper: int | None, nodes: int):
        self.lower = lower
        self.upper = upper
        self.nodes = nodes
        up = "unknown" if upper is None else str(upper)
        super().__init__(
            f"search budget exhausted after {nodes} nodes; "
            f"clumsy number is in [{lower}, {up}]")


class OracleGuardError(RuntimeError):
    """The instance is too large for the definitional oracle."""


@dataclass(frozen=True)
class SolveResult:
    clumsy_number: int
    witness: Arrangement
    nodes_explored: int
    elapsed: float


class _Budget:
    """Node and wall-clock budget shared across one solve call."""

    __slots__ = ("node_budget", "deadline", "nodes")

    def __init__(self, node_budget: int, time_budget: float | None):
        self.node_budget = node_budget
        self.deadline = None if time_budget is None else time.monotonic() + time_budget
        self.nodes = 0

    def spend(self, amount: int = 1) -> None:
        self.nodes += amount
        if self.nodes > self.node_budget:
            raise _BudgetSignal
        # Clock checks are amortized; the bitwise test keeps the hot loop cheap.
        # Checking at node 1 too lets a spent deadline stop a small solve.
        if self.deadline is not None and self.nodes & 4095 == 1:
            if time.monotonic() > self.deadline:
                raise _BudgetSignal


class _BudgetSignal(Exception):
    pass


def _neighbor_masks(masks: tuple[int, ...]) -> list[int]:
    """nbr[i] = bitmask over placement indices whose cells meet placement i.

    Every placement conflicts with itself, so bit i of nbr[i] is set.
    """
    p = len(masks)
    nbr = [0] * p
    for i in range(p):
        nbr[i] |= 1 << i
        mi = masks[i]
        for j in range(i + 1, p):
            if mi & masks[j]:
                nbr[i] |= 1 << j
                nbr[j] |= 1 << i
    return nbr


def _lex_search(nbr: list[int], p: int, k: int, firsts: tuple[int, ...],
                budget: _Budget) -> tuple[int, ...] | None:
    """First (lex) independent dominating set of size exactly k, or None.

    ``firsts`` restricts which placement index may open the set; deeper
    choices are unrestricted.  Chosen indices are strictly increasing, so
    each candidate set is visited exactly once, in sorted order.
    """
    if k < 1:
        # Every candidate set opens with a first index: none is smaller than 1.
        return None
    full = (1 << p) - 1

    def extend(chosen: list[int], dominated: int, last: int) -> tuple[int, ...] | None:
        budget.spend()
        if len(chosen) == k:
            return tuple(chosen) if dominated == full else None
        shift = last + 1
        avail = (~dominated & full) >> shift << shift
        undom = ~dominated & full
        if undom:
            # The lowest undominated placement must conflict with some future
            # pick, and future picks come from avail.
            u0 = (undom & -undom).bit_length() - 1
            if nbr[u0] & avail == 0:
                return None
        if avail.bit_count() < k - len(chosen):
            return None
        while avail:
            low = avail & -avail
            i = low.bit_length() - 1
            avail ^= low
            chosen.append(i)
            got = extend(chosen, dominated | nbr[i], i)
            if got is not None:
                return got
            chosen.pop()
        return None

    for f in firsts:
        budget.spend()
        got = extend([f], nbr[f], f)
        if got is not None:
            return got
    return None


def _board_rotation_map(shape: Shape, board: Board, mode: str) -> list[int] | None:
    """index -> index map of one clockwise board rotation, or None if the
    placement set is not closed under it (possible in fixed mode)."""
    placements, _ = placement_masks(shape, board, mode)
    n = board.n
    index_of: dict[frozenset[Cell], int] = {}
    for idx, p in enumerate(placements):
        index_of[cells_of(shape, p)] = idx
    out: list[int] = []
    for p in placements:
        turned = frozenset(Cell(n + 1 - c.row, c.col) for c in cells_of(shape, p))
        j = index_of.get(turned)
        if j is None:
            return None
        out.append(j)
    return out


def _symmetry_firsts(shape: Shape, board: Board, mode: str, p: int) -> tuple[int, ...]:
    """First-index candidates after quotienting by board rotation.

    The lex-first maximal arrangement of any size k opens at an orbit
    minimum.  Suppose it opened at f with r(f) < f for some rotation r.
    Rotating the whole arrangement by r gives another maximal arrangement
    of size k, and its least index is at most r(f) < f, so it comes
    lex-before: a contradiction.  Minimality of k is never used, so the
    quotient keeps the lex-first witness at every size.
    """
    if mode != "free":
        return tuple(range(p))
    rot = _board_rotation_map(shape, board, mode)
    if rot is None:
        return tuple(range(p))
    firsts = []
    for i in range(p):
        j = rot[i]
        m = min(i, j, rot[j], rot[rot[j]])
        if m == i:
            firsts.append(i)
    return tuple(firsts)


def greedy_upper_bound(shape: Shape, board: Board | None = None,
                       mode: str = "free",
                       seed: tuple[Placement, ...] = ()) -> Arrangement:
    """A maximal arrangement built by one greedy sweep in placement order.

    Optional seed placements are laid down first (and must form a valid
    partial arrangement).  The sweep adds every placement that still fits,
    so the result cannot be extended: it is maximal by construction.
    """
    if board is None:
        board = default_board(shape)
    placements, masks = placement_masks(shape, board, mode)
    arr = Arrangement(board, shape, mode, tuple(seed))
    reason = validate(arr)
    if reason is not None:
        raise ValueError(f"seed is invalid: {reason}")
    occ = 0
    n = board.n
    for c in arr.occupied_cells():
        occ |= 1 << ((c.row - 1) * n + (c.col - 1))
    chosen = list(arr.placements)
    for pl, m in zip(placements, masks):
        if m & occ == 0:
            chosen.append(pl)
            occ |= m
    return Arrangement(board, shape, mode, tuple(chosen))


def clumsy_number(shape: Shape, board: Board | None = None, mode: str = "free",
                  *, node_budget: int = DEFAULT_NODE_BUDGET,
                  time_budget: float | None = None) -> SolveResult:
    """Exact clumsy packing number with a lexicographically first witness.

    Raises BudgetExceededError carrying the proved bracket when the node or
    time budget runs out first.
    """
    if board is None:
        board = default_board(shape)
    start = time.monotonic()
    placements, masks = placement_masks(shape, board, mode)
    p = len(placements)
    if p == 0:
        # Nothing fits, so the empty arrangement is maximal.
        empty = Arrangement(board, shape, mode, ())
        return SolveResult(0, empty, 0, time.monotonic() - start)

    upper = greedy_upper_bound(shape, board, mode).size
    nbr = _neighbor_masks(masks)
    firsts = _symmetry_firsts(shape, board, mode, p)

    budget = _Budget(node_budget, time_budget)
    # Every size below k is refuted; greedy realizes size upper, so the
    # search stops at k = upper at the latest.
    k = 1
    try:
        while (got := _lex_search(nbr, p, k, firsts, budget)) is None:
            k += 1
    except _BudgetSignal:
        raise BudgetExceededError(k, upper, budget.nodes) from None
    witness = Arrangement(board, shape, mode, tuple(placements[i] for i in got))
    return SolveResult(k, witness, budget.nodes, time.monotonic() - start)


def first_maximal_arrangement(shape: Shape, board: Board | None = None,
                              mode: str = "free", size: int | None = None,
                              *, node_budget: int = DEFAULT_NODE_BUDGET
                              ) -> Arrangement | None:
    """Lex-first maximal arrangement of exactly the given size, or None.

    With size omitted this is just the witness of the full solve.
    """
    if board is None:
        board = default_board(shape)
    if size is None:
        return clumsy_number(shape, board, mode, node_budget=node_budget).witness
    placements, masks = placement_masks(shape, board, mode)
    p = len(placements)
    if p == 0:
        return Arrangement(board, shape, mode, ()) if size == 0 else None
    nbr = _neighbor_masks(masks)
    budget = _Budget(node_budget, None)
    try:
        got = _lex_search(nbr, p, size, _symmetry_firsts(shape, board, mode, p), budget)
    except _BudgetSignal:
        raise BudgetExceededError(0, None, budget.nodes) from None
    if got is None:
        return None
    return Arrangement(board, shape, mode, tuple(placements[i] for i in got))


# The definitional oracle refuses boards whose placement count would make
# combinations explode, and caps the subset size on mid-size instances.
ORACLE_MAX_PLACEMENTS = 64
ORACLE_SOFT_PLACEMENTS = 30
ORACLE_SOFT_MAX_K = 4


def oracle_clumsy_number(shape: Shape, board: Board | None = None,
                         mode: str = "free") -> int:
    """Clumsy number recomputed straight from the definition.

    Enumerates placements with its own arithmetic (no conflict graph, no
    pruning) and tries every subset in order of increasing size until one is
    pairwise disjoint and blocks every other placement.  Intended only for
    cross-checking the solver on small instances.
    """
    if board is None:
        board = default_board(shape)
    rotations = (0,) if mode == "fixed" else (0, 1, 2, 3)
    footprints: list[frozenset[Cell]] = []
    seen: set[frozenset[Cell]] = set()
    for m in rotations:
        rot = rotate(shape, m)
        for dr in range(0, board.n - rot.height + 1):
            for dc in range(0, board.n - rot.width + 1):
                cells = frozenset(Cell(c.col + dc, c.row + dr) for c in rot.cells)
                if cells not in seen:
                    seen.add(cells)
                    footprints.append(cells)
    p = len(footprints)
    if p == 0:
        return 0
    if p > ORACLE_MAX_PLACEMENTS:
        raise OracleGuardError(
            f"{p} placements exceed the oracle limit of {ORACLE_MAX_PLACEMENTS}; "
            "use the solver for instances this size")
    max_k = p if p <= ORACLE_SOFT_PLACEMENTS else ORACLE_SOFT_MAX_K
    for k in range(1, max_k + 1):
        for combo in itertools.combinations(range(p), k):
            union: set[Cell] = set()
            ok = True
            for i in combo:
                if union & footprints[i]:
                    ok = False
                    break
                union |= footprints[i]
            if not ok:
                continue
            if all(union & footprints[i] for i in range(p)):
                return k
    raise OracleGuardError(
        f"no maximal arrangement of size <= {max_k} found within the oracle's "
        f"subset cap on {p} placements")
