"""Exact computation of clumsy packing numbers.

The clumsy packing number is the least size of a maximal arrangement: one
that is valid and admits no further copy.  The search works on the conflict
graph of placements, where a maximal arrangement is exactly an independent
dominating set.  A solve has two phases.

The refuter asks, for k = start, start + 1, ..., whether at most k
independent picks dominate every placement (``_complete``).  One call at k
refutes every size up to k, so the first k that succeeds is the clumsy
number cp.  The start is the packing bound of the whole graph: placements
taken lowest first, no two sharing a neighbour, each of which needs a pick
of its own.  When the bound meets the greedy arrangement's size, that
arrangement is the answer and no node is searched; when every size below
greedy's is refuted, greedy's arrangement is the witness (see
``clumsy_number``).

The refuter's search is order-free.  A node branches on the undominated
placement with the fewest allowed dominators; when the packing of what is
undominated has as many members as picks are left, each pick must dominate
one member, so the picks narrow to the members' neighbourhoods and the
branch is on the member with the fewest.  Each candidate is tested with the
packing walk before it is pushed, and a refuted candidate is forbidden to
its later siblings.  At the root of a refuter call, a refuted candidate
forbids its whole orbit under the board symmetries that map the placement
set onto itself (``_symmetry_group``), in either mode.  The last pick is
bit-parallel, and the search runs on an explicit stack, so no depth meets
Python's recursion limit.

The witness phase builds the lexicographically first witness (by placement
index) of size cp one position at a time.  Each position keeps the lowest
candidate above the last pick, at position 0 an orbit minimum, that the
same core can complete with exactly the picks still needed, all above it
(``_lex_first``).  ``first_maximal_arrangement`` uses it at any size.

A node is one candidate tested, in either phase, plus, at each bit-parallel
last pick, the branch set's candidates up to the hit, or all of them when
there is none.  The node and time budgets are checked as nodes are counted,
so they hold in both phases.

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

# The branch rule stops scanning at the first undominated placement with at
# most this many allowed dominators.
MRV_EARLY_EXIT = 4


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


    def tick(self) -> None:
        """Count one node, for the drivers that test one candidate at a time."""
        self.nodes += 1
        if self.nodes >= self.stop:
            self.spend(0)


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
    pairs.  All three per-cell tables are lists indexed by cell bit.
    """
    size = max((cs[-1] for cs in cells), default=-1) + 1
    on: list[list[int]] = [[] for _ in range(size)]
    cover = [0] * size
    for i, cs in enumerate(cells):
        bit = 1 << i
        for c in cs:
            on[c].append(i)
            cover[c] |= bit
    nbr = []
    for cs in cells:
        m = 0
        for c in cs:
            m |= cover[c]
        nbr.append(m)
    # reach[c]: the placements that meet some placement on cell c.
    reach = [0] * size
    for c, ids in enumerate(on):
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


def _branch(nbr: list[int], notfar: list[int], undom: int, allowed: int,
            need: int) -> tuple[int, int]:
    """Branch set of a node and its allowed mask, narrowed where sound.

    Walks the greedy packing W of ``undom``.  With more than ``need``
    members the node is dead.  With exactly ``need``, every pick dominates
    exactly one member, so the allowed picks narrow to the union of N[w]
    over W, and the branch is on the member of W with the fewest allowed
    dominators.  Otherwise it is on the undominated placement with the
    fewest, scanned lowest first and stopping at the first with at most
    MRV_EARLY_EXIT.  A branch set of 0 means the node is dead.
    """
    packing = []
    r = undom
    while r:
        if len(packing) == need:
            return 0, allowed
        w = (r & -r).bit_length() - 1
        packing.append(w)
        r &= notfar[w]
    if len(packing) == need:
        cover = 0
        for w in packing:
            cover |= nbr[w]
        allowed &= cover
        scan = packing
    else:
        scan = []
        r = undom
        while r:
            low = r & -r
            scan.append(low.bit_length() - 1)
            r ^= low
    best, fewest = 0, None
    for u in scan:
        b = nbr[u] & allowed
        count = b.bit_count()
        if fewest is None or count < fewest:
            best, fewest = b, count
            if count <= MRV_EARLY_EXIT:
                break
    return best, allowed


def _complete(graph: tuple[list[int], list[int], list[int]], undom: int, allowed: int,
              need: int, exact: bool, budget: _Budget) -> tuple[int, ...] | None:
    """Can at most ``need`` independent picks from ``allowed`` dominate
    ``undom``?  The picks, in the order found, or None.

    ``graph`` is (nbr, notnbr, notfar).  With ``exact`` the picks must
    number exactly ``need``.  ``allowed`` lies within ``undom``, since a
    pick must be independent of the picks that left ``undom``.

    Each node branches on the set ``_branch`` picks; each candidate tried is
    one node, tested before it is pushed, and a refuted candidate is
    forbidden to its later siblings.  The last pick is bit-parallel: it
    must dominate every undominated placement, so it is the lowest index of
    the branch set in the AND of their neighbour masks, and it counts the
    branch set's candidates up to the hit, or all of them when there is
    none.
    """
    nbr, notnbr, notfar = graph
    if not undom:
        return () if need == 0 or not exact else None
    if need <= 0:
        return None
    c, allowed = _branch(nbr, notfar, undom, allowed, need)
    nodes, stop = budget.nodes, budget.stop
    steps = [range(j - 1) for j in range(need)]
    # The frame in use lives in c, undom, allowed and left, the picks left
    # after the one it makes; saved[d] holds frame d while frame d + 1 is
    # in use, and picks[d] its pick.
    saved: list[tuple[int, int, int, int] | None] = [None] * need
    left = need - 1
    picks = [0] * need
    d = 0
    while True:
        while c:
            low = c & -c
            c ^= low
            nodes += 1
            if nodes >= stop:
                stop = budget.spend(nodes - budget.nodes)
            i = low.bit_length() - 1
            u2 = undom & notnbr[i]
            allowed ^= low
            a2 = allowed & notnbr[i]
            if not u2:
                if exact and left:
                    continue
                budget.nodes = nodes
                return (*picks[:d], i)
            if not left:
                continue
            # Packing walk: left + 1 undominated placements, no two sharing a
            # neighbour, would each need one of the picks left.  It starts
            # at u; steps[left] runs its other left - 1 steps.
            ulow = u2 & -u2
            u = ulow.bit_length() - 1
            r = u2 & notfar[u]
            for _ in steps[left]:
                if not r:
                    break
                r &= notfar[(r & -r).bit_length() - 1]
            if r:
                continue
            if left == 1:
                branch = a2 & nbr[u]
                hits = branch
                rest = u2 ^ ulow
                while hits and rest:
                    low = rest & -rest
                    hits &= nbr[low.bit_length() - 1]
                    rest ^= low
                hit = hits & -hits
                # With no hit, 2 * hit - 1 = -1 keeps the whole branch set.
                nodes += (branch & (2 * hit - 1)).bit_count()
                if nodes >= stop:
                    stop = budget.spend(nodes - budget.nodes)
                if hit:
                    budget.nodes = nodes
                    return (*picks[:d], i, hit.bit_length() - 1)
                continue
            b2, a2 = _branch(nbr, notfar, u2, a2, left)
            if not b2:
                continue
            saved[d] = (c, undom, allowed, left)
            picks[d] = i
            d += 1
            c, undom, allowed, left = b2, u2, a2, left - 1
        if not d:
            budget.nodes = nodes
            return None
        d -= 1
        c, undom, allowed, left = saved[d]


def _refute(graph: tuple[list[int], list[int], list[int]], orbits: list[int], k: int,
            budget: _Budget) -> tuple[tuple[int, ...], int] | None:
    """Some independent dominating set of at most k placements, or None.

    The root of a refuter call: it branches as ``_complete`` does and hands
    each candidate's child to it.  Each candidate is one node.  The whole
    placement set is invariant under the symmetry group, so a refuted
    candidate forbids its whole orbit.  With the set found comes the
    allowed mask as it stood before the candidate that succeeded: no
    independent dominating set of at most k placements leaves it.
    """
    nbr, notnbr, notfar = graph
    full = (1 << len(nbr)) - 1
    c, allowed = _branch(nbr, notfar, full, full, k)
    while c:
        low = c & -c
        c ^= low
        budget.tick()
        i = low.bit_length() - 1
        got = _complete(graph, notnbr[i], allowed & notnbr[i], k - 1, False, budget)
        if got is not None:
            return (i, *got), allowed
        allowed &= ~orbits[i]
        c &= allowed
    return None


def _lex_first(graph: tuple[list[int], list[int], list[int]], firsts: int, allowed: int,
               size: int, budget: _Budget, found: tuple[int, ...] = ()) -> list[int] | None:
    """Lexicographically first independent dominating set of exactly
    ``size`` placements, or None, given that every such set lies within
    ``allowed``.

    Built one position at a time: each keeps the lowest candidate above the
    last pick (at position 0, one in ``firsts``) that ``_complete`` can
    extend by exactly the picks still needed, all above it.  Each candidate
    is one node.  ``found`` is a known set of this size; the least member of
    the completion in hand passes without a search when it is the next
    candidate.
    """
    if size <= 0:
        return None
    notnbr = graph[1]
    undom = (1 << len(notnbr)) - 1
    c = firsts & allowed
    picks = []
    # The completion in hand, least member last.
    ahead = sorted(found, reverse=True)
    for need in range(size - 1, -1, -1):
        while True:
            if not c:
                return None
            low = c & -c
            c ^= low
            budget.tick()
            i = low.bit_length() - 1
            u2 = undom & notnbr[i]
            if ahead and ahead[-1] == i:
                ahead.pop()
                break
            got = _complete(graph, u2, u2 & allowed & -(low << 1), need, True, budget)
            if got is not None:
                ahead = sorted(got, reverse=True)
                break
        picks.append(i)
        undom = u2
        c = undom & allowed & -(low << 1)
    return picks


def _symmetry_group(shape: Shape, board: Board, mode: str) -> list[list[int]]:
    """Every board symmetry that maps the placement set onto itself, as an
    index -> index map; the identity comes first.

    The candidates are the eight symmetries of the square board (D4) as
    maps of cell bits: the quarter turn t, t^2, t^3, the transpose f, and
    f after each power of t.  In both modes, one belongs to the group when
    it maps every placement onto a placement.

    The table holds every translate that fits of each rotation it keeps,
    in one run of indices per rotation, and a symmetry moves a rotation's
    translates alike.  So a symmetry belongs to the group when it maps the
    first placement of each run onto a placement; if that image's lowest
    bit comes from cell k and the image is pattern << that bit, the image
    of every placement cs in the run is pattern << move[cs[k]].  A member
    that is the product of two members found earlier gets its map by
    composing theirs.
    """
    placements, masks = placement_masks(shape, board, mode)
    cells = _placement_cells(shape, board, mode)
    n = board.n
    index_of = {m: i for i, m in enumerate(masks)}
    rotations = [pl.rotation for pl in placements]
    starts = [rotations.index(rot) for rot in dict.fromkeys(rotations)]
    runs = list(zip(starts, starts[1:] + [len(masks)]))
    # Cell (col, row) goes to (n - 1 - row, col) under t, to (row, col)
    # under f.
    t = [(b % n) * n + (n - 1 - b // n) for b in range(n * n)]
    f = [(b % n) * n + b // n for b in range(n * n)]
    t2 = [t[b] for b in t]
    t3 = [t[b] for b in t2]
    # (cell map, the two earlier members whose product it is): apply the
    # second, then the first.
    moves = [(t, None), (t2, (1, 1)), (t3, (1, 2)), (f, None),
             ([f[b] for b in t], (4, 1)), ([f[b] for b in t2], (4, 2)),
             ([f[b] for b in t3], (4, 3))]
    maps: dict[int, list[int]] = {0: list(range(len(masks)))}
    for e, (move, product) in enumerate(moves, 1):
        how = []
        for start, _ in runs:
            image = [move[b] for b in cells[start]]
            moved = 0
            for b in image:
                moved |= 1 << b
            if moved not in index_of:
                break
            low = min(image)
            how.append((image.index(low), moved >> low))
        else:
            if product and product[0] in maps and product[1] in maps:
                first, second = maps[product[0]], maps[product[1]]
                maps[e] = [first[j] for j in second]
            else:
                maps[e] = [index_of[pattern << move[cs[k]]]
                           for (start, end), (k, pattern) in zip(runs, how)
                           for cs in cells[start:end]]
    return list(maps.values())


def _orbits(group: list[list[int]]) -> list[int]:
    """Mask of each placement's orbit under the group."""
    orbit = [0] * len(group[0])
    for i, m in enumerate(orbit):
        if not m:
            members = {g[i] for g in group}
            for j in members:
                m |= 1 << j
            for j in members:
                orbit[j] = m
    return orbit


def _orbit_minima(orbits: list[int]) -> int:
    """Mask of the placements that are the least of their orbit.

    The lex-first maximal arrangement of any size opens at one of them.
    Suppose it opened at f with g(f) < f for some symmetry g.  Then g maps
    it to another maximal arrangement of the same size whose least index is
    at most g(f) < f, so it comes lex-before: a contradiction.
    """
    firsts = 0
    for i, o in enumerate(orbits):
        if o & -o == 1 << i:
            firsts |= 1 << i
    return firsts


def _search_graph(nbr: list[int], notfar: list[int]
                  ) -> tuple[list[int], list[int], list[int]]:
    """The (nbr, notnbr, notfar) triple ``_complete`` searches."""
    full = (1 << len(nbr)) - 1
    return nbr, [full ^ m for m in nbr], notfar


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
    full = (1 << p) - 1
    k = _packing_bound(notfar, full)
    if k == upper:
        # Greedy keeps, in index order, each placement that fits beside the
        # ones it kept.  An independent set of the same size that agrees
        # with greedy's first j picks cannot pick below greedy's next one,
        # so greedy is the lex-least independent set of its size, and
        # hence the lex-first witness.
        return SolveResult(k, greedy, 0, time.monotonic() - start)
    graph = _search_graph(nbr, notfar)
    orbits = _orbits(_symmetry_group(shape, board, mode))

    budget = _Budget(node_budget, time_budget)
    # Every size below k is refuted (the packing bound refutes those below
    # the start), and one call at k refutes every size up to k.  Greedy
    # realizes size upper, so when every size below it is refuted it is
    # the witness, by the argument above.
    try:
        while k < upper and (hit := _refute(graph, orbits, k, budget)) is None:
            k += 1
        if k == upper:
            return SolveResult(k, greedy, budget.nodes, time.monotonic() - start)
        found, allowed = hit
        got = _lex_first(graph, _orbit_minima(orbits), allowed, k, budget, found)
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
    if not placements:
        return Arrangement(board, shape, mode, ()) if size == 0 else None
    graph = _search_graph(*_conflict_graph(_placement_cells(shape, board, mode)))
    orbits = _orbits(_symmetry_group(shape, board, mode))
    budget = _Budget(node_budget, None)
    try:
        got = _lex_first(graph, _orbit_minima(orbits), (1 << len(placements)) - 1, size,
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
