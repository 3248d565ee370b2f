"""Exact computation of clumsy packing numbers.

The clumsy packing number is the least size of a maximal arrangement: one
that is valid and admits no further copy.  The search works on the conflict
graph of placements, where a maximal arrangement is exactly an independent
dominating set.  It refutes the sizes k = start, start + 1, ... in turn, so
the first size found is the minimum, and at each size it produces the
lexicographically first witness (by placement index).

The start is the packing bound of the whole graph: placements taken lowest
first, no two sharing a neighbour, each of which needs a member of its own.
When the bound meets the greedy arrangement's size, that arrangement is the
answer and no node is searched (see ``clumsy_number``).

The search at one size is depth-first over increasing picks, on an explicit
stack, so no depth meets Python's recursion limit.  Each candidate pick is
one node, tested before it is pushed; it is dropped when the lowest
undominated placement has no neighbour above it left to pick, or when the
packing bound of what it leaves undominated exceeds the picks left.  Both
prunes are sound at every size, so they never change which set comes first.
The last pick is bit-parallel: it must meet every undominated placement, so
it is the lowest available index in the AND of their neighbour masks.  It
counts the nodes a one-at-a-time scan would try, every available index up
to the hit, or all of them when there is none, so node counts and budget
stops are those of that scan.

In free mode the search opens only at first indices that are the least of
their board-rotation orbit; this loses no witness, since a lex-first witness
always opens at an orbit minimum (see ``_symmetry_firsts``), so the one
search at each size returns that witness directly.

A second, deliberately naive oracle recomputes small instances straight from
the definition so the two routes can be compared in tests.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass

from .geometry import Cell, Shape, rotate
from .packing import (Arrangement, Board, Placement, _placement_cells, default_board,
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
    """Node and wall-clock budget shared across one solve call.

    The search keeps its node count in a local variable and calls ``spend``
    only once that count reaches ``stop``, so a node costs one comparison.
    """

    __slots__ = ("node_budget", "deadline", "nodes", "stop")

    def __init__(self, node_budget: int, time_budget: float | None):
        self.node_budget = node_budget
        self.deadline = None if time_budget is None else time.monotonic() + time_budget
        self.nodes = 0
        # Reading the clock at node 1 lets a spent deadline stop a small solve.
        self.stop = node_budget + 1 if self.deadline is None else 1

    def spend(self, amount: int) -> int:
        """Count ``amount`` more nodes and return the new ``stop``; raise
        _BudgetSignal past either budget.

        One call may add many nodes, so the clock is read each time the
        count crosses a multiple of 4096 (and at node 1), not on exact
        values.
        """
        self.nodes += amount
        if self.nodes >= self.stop:
            if self.nodes > self.node_budget:
                # Where a search spending one node at a time would have stopped.
                self.nodes = self.node_budget + 1
                raise _BudgetSignal
            # Only a deadline sets stop below node_budget + 1.
            self.stop = min((self.nodes | 4095) + 1, self.node_budget + 1)
            if time.monotonic() > self.deadline:
                raise _BudgetSignal
        return self.stop


class _BudgetSignal(Exception):
    pass


def _check_budget(node_budget: int) -> None:
    if node_budget < 0:
        raise ValueError(f"node budget must be non-negative, got {node_budget}")


def _conflict_graph(cells: tuple[tuple[int, ...], ...]) -> tuple[list[int], list[int]]:
    """Neighbour masks nbr and far complements notfar over placement indices.

    ``cells[i]`` lists the cell bits of placement i (``_placement_cells``).

    nbr[i] holds the placements whose cells meet placement i; every
    placement conflicts with itself, so bit i of nbr[i] is set.  far[i] =
    OR(nbr[j] for j in nbr[i]) holds every placement that some single pick
    dominates together with i, and notfar[i] is its complement.  Both come
    from on[c], the placements on cell c, and its mask cover[c], so the
    cost grows with the total cell count, not with the number of placement
    pairs.
    """
    on: dict[int, list[int]] = {}
    cover: dict[int, int] = {}
    for i, cs in enumerate(cells):
        bit = 1 << i
        for c in cs:
            on.setdefault(c, []).append(i)
            cover[c] = cover.get(c, 0) | bit
    nbr = []
    for cs in cells:
        m = 0
        for c in cs:
            m |= cover[c]
        nbr.append(m)
    # reach[c]: the placements that meet some placement on cell c.
    reach = {}
    for c, ids in on.items():
        m = 0
        for j in ids:
            m |= nbr[j]
        reach[c] = m
    full = (1 << len(cells)) - 1
    notfar = []
    for cs in cells:
        m = 0
        for c in cs:
            m |= reach[c]
        notfar.append(full ^ m)
    return nbr, notfar


def _packing_bound(notfar: list[int], undom: int) -> int:
    """Size of a greedy packing of ``undom``: lowest first, no two members
    sharing a neighbour.

    Each member needs a dominator of its own, since no one placement meets
    two of them, so dominating ``undom`` takes at least this many picks.
    """
    count = 0
    while undom:
        count += 1
        undom &= notfar[(undom & -undom).bit_length() - 1]
    return count


def _lex_search(nbr: list[int], notfar: list[int], k: int, firsts: tuple[int, ...],
                budget: _Budget) -> tuple[int, ...] | None:
    """First (lex) independent dominating set of size exactly k, or None.

    ``firsts`` restricts which placement index may open the set; deeper
    picks are unrestricted.  Picks are strictly increasing, so each
    candidate set is visited once, in sorted order.  Each candidate pick
    tried is one node; see the module docstring for the prunes.
    """
    if k < 1:
        # Every candidate set opens with a first index: none is smaller than 1.
        return None
    full = (1 << len(nbr)) - 1
    nodes, stop = budget.nodes, budget.stop
    if k == 1:
        for f in firsts:
            nodes += 1
            if nodes >= stop:
                stop = budget.spend(nodes - budget.nodes)
            if nbr[f] == full:
                budget.nodes = nodes
                return (f,)
        budget.nodes = nodes
        return None
    notnbr = [full ^ m for m in nbr]
    # Saved frames: candidates left for pick d and what picks 0..d-1 leave
    # undominated.  The frame in use lives in c, undom_d and need.
    cands = [0] * k
    undoms = [0] * k
    picks = [0] * k
    steps = [range(j - 1) for j in range(k)]
    d = 0
    c = 0
    for f in firsts:
        c |= 1 << f
    undom_d = full
    need = k - 1
    while True:
        while c:
            low = c & -c
            c ^= low
            nodes += 1
            if nodes >= stop:
                stop = budget.spend(nodes - budget.nodes)
            i = low.bit_length() - 1
            # The child is tested here, before any push.
            undom = undom_d & notnbr[i]
            if not undom:
                continue
            ulow = undom & -undom
            u = ulow.bit_length() - 1
            # Later picks are above i, so u needs a neighbour above i.
            if nbr[u] & undom < low:
                continue
            # Packing bound: need + 1 undominated placements, no two sharing
            # a neighbour, would each need one of the need picks left.  The
            # walk starts at u; steps[need] runs its other need - 1 steps.
            r = undom & notfar[u]
            for _ in steps[need]:
                if not r:
                    break
                r &= notfar[(r & -r).bit_length() - 1]
            if r:
                continue
            picks[d] = i
            avail = undom & -low
            if need > 1:
                cands[d] = c
                undoms[d] = undom_d
                d += 1
                c = avail
                undom_d = undom
                need -= 1
                continue
            # The last pick must meet every undominated placement.  The
            # sequential scan would try each available index up to the hit.
            hits = avail & nbr[u]
            rest = undom ^ ulow
            while hits and rest:
                low = rest & -rest
                hits &= nbr[low.bit_length() - 1]
                rest ^= low
            hit = hits & -hits
            # With no hit, 2 * hit - 1 = -1 keeps all of avail.
            nodes += (avail & (2 * hit - 1)).bit_count()
            if nodes >= stop:
                stop = budget.spend(nodes - budget.nodes)
            if hit:
                budget.nodes = nodes
                picks[d + 1] = hit.bit_length() - 1
                return tuple(picks)
        if not d:
            budget.nodes = nodes
            return None
        d -= 1
        c = cands[d]
        undom_d = undoms[d]
        need += 1


def _board_rotation_map(masks: tuple[int, ...], cells: tuple[tuple[int, ...], ...],
                        n: int) -> list[int] | None:
    """index -> index map of one clockwise board rotation, or None if the
    placement set is not closed under it (possible in fixed mode).

    Cell (col, row) goes to (n + 1 - row, col); on bits, b -> turn[b].
    """
    turn = [(b % n) * n + (n - 1 - b // n) for b in range(n * n)]
    index_of = {m: i for i, m in enumerate(masks)}
    out: list[int] = []
    for cs in cells:
        turned = 0
        for b in cs:
            turned |= 1 << turn[b]
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
    rot = _board_rotation_map(placement_masks(shape, board, mode)[1],
                              _placement_cells(shape, board, mode), board.n)
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
    _check_budget(node_budget)
    if board is None:
        board = default_board(shape)
    start = time.monotonic()
    placements = placement_masks(shape, board, mode)[0]
    p = len(placements)
    if p == 0:
        # Nothing fits, so the empty arrangement is maximal.
        empty = Arrangement(board, shape, mode, ())
        return SolveResult(0, empty, 0, time.monotonic() - start)

    greedy = greedy_upper_bound(shape, board, mode)
    upper = greedy.size
    nbr, notfar = _conflict_graph(_placement_cells(shape, board, mode))
    k = _packing_bound(notfar, (1 << p) - 1)
    if k == upper:
        # Greedy keeps, in index order, each placement that fits beside the
        # ones it kept.  An independent set of the same size that agrees
        # with greedy's first j picks cannot pick below greedy's next one,
        # so greedy is the lex-least independent set of its size, and
        # hence the lex-first witness.
        return SolveResult(k, greedy, 0, time.monotonic() - start)
    firsts = _symmetry_firsts(shape, board, mode, p)

    budget = _Budget(node_budget, time_budget)
    # Every size below k is refuted (the packing bound refutes those below
    # the start); greedy realizes size upper, so the search stops at
    # k = upper at the latest.
    try:
        while (got := _lex_search(nbr, notfar, k, firsts, budget)) is None:
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
    _check_budget(node_budget)
    if board is None:
        board = default_board(shape)
    if size is None:
        return clumsy_number(shape, board, mode, node_budget=node_budget).witness
    placements = placement_masks(shape, board, mode)[0]
    p = len(placements)
    if p == 0:
        return Arrangement(board, shape, mode, ()) if size == 0 else None
    nbr, notfar = _conflict_graph(_placement_cells(shape, board, mode))
    budget = _Budget(node_budget, None)
    try:
        got = _lex_search(nbr, notfar, size, _symmetry_firsts(shape, board, mode, p),
                          budget)
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
