"""Exact computation of clumsy packing numbers.

The clumsy packing number is the least size of a maximal arrangement: one
that is valid and admits no further copy.  The search works on the conflict
graph of placements, where a maximal arrangement is exactly an independent
dominating set.  A solve has two phases, and both run one search loop.

The loop (``_complete``) asks one question: whether at most ``need``
independent picks from an allowed set dominate a set of undominated
placements.  It evaluates every node, its entry included, with one walk
of the packing of what is undominated: placements taken lowest first, no
two sharing a neighbour, each of which needs a pick of its own.  With more
members than picks left the node is dead.  Below the entry, with as
many members as picks left, the node is narrowed: each pick dominates
exactly one member.  An undominated placement that shares no dominator with
any other member is private to its member: only that member's pick can
dominate it.  One pass back over the walk gives each member, last first,
its private placements and then its candidates: its allowed dominators,
narrowed bit-parallel by the dominators of its other private placements.
A member left with none kills the node and ends the pass, so the last such
member in walk order kills it; otherwise the picks narrow to the union of
these sets and the branch is on the first member with the fewest.
Otherwise, the entry included, the branch is on the undominated placement
with the fewest allowed dominators, scanned lowest first; the scan lists
the undominated placements from the mask's binary string in C
(``_indices``).  A refuted candidate is forbidden to its later siblings,
and the loop runs on an explicit stack, so no depth meets Python's
recursion limit.

The search numbers placements from the end: of P placements, placement i
is bit P - 1 - i.  So the lowest placement in a mask is its highest bit,
which ``int.bit_length`` finds without making a new int.  ``_Search``
holds the graph and orbit masks this way, and ``_lex_first`` returns
placement indices.  Lowest, first and above mean placement order.

The refuter calls the loop on the whole graph for k = start, start + 1,
...  One call at k refutes every size up to k, so the first k that succeeds
is the clumsy number cp.  The start is the packing bound of the whole
graph.  When the bound meets the size of the sweep's arrangement (every
placement that still fits, in placement order), that arrangement is the
answer and no node is searched; when every size below the sweep's is
refuted, the sweep's arrangement is the witness (see ``clumsy_number``).
At the root of a refuter call, a refuted candidate forbids its whole orbit
under the board symmetries that map the placement set onto itself
(``_symmetry_group``), in either mode.  This is the search's one symmetry
step.

The witness phase runs at cp only.  It builds the lexicographically first
witness (by placement index) one position at a time, within the allowed
mask of the refuter's root as it stood when the call at cp succeeded.  Each
position keeps the lowest allowed candidate above the last pick that the
loop can complete with at most the picks still needed, all above it
(``_lex_first``).  At cp a completion with fewer picks would make a
maximal arrangement smaller than cp, so every completion has exactly the
picks still needed.

A node is one candidate tested, in either phase, plus, at each narrowed
node, the candidates its private placements reject: the branch member's, or
all of those of the member that kills the node.  One ``_Search`` per solve
carries the graph, the orbit masks, the proven bracket and the node and
time budgets, which are checked as nodes are counted, so they hold in both
phases.

A budget stop reports the bracket proven so far.  Its lower end is the
refuter's k, and its upper end the size of ``greedy_upper_bound``'s
arrangement, which realises it: the smaller of the sweep in placement
order and a most-constrained-first construction (``_construction``) that
exact repair has shrunk (``_improve``).  The repair drops the picks near
one pick and asks the search's own question: can fewer picks dominate
what only they dominated?  Its calls count nodes of their own, under a
fixed cap, so a stop's bracket does not depend on how the budget ran out.
Only a stop builds and repairs the construction, so a solve that closes
never pays for either.

A second, deliberately naive oracle recomputes small instances straight from
the definition so the two routes can be compared in tests.
"""

from __future__ import annotations

import itertools
import operator
import time
from collections.abc import Iterator

from .geometry import Cell, Shape, _Record, rotate
from .packing import (Arrangement, Board, Placement, _check_mode, _occupancy,
                      _placements_at, _tables, default_board)

DEFAULT_NODE_BUDGET = 10 ** 8

# The branch rule stops scanning at the first undominated placement with at
# most this many allowed dominators.
MRV_EARLY_EXIT = 4

# Each repair call of ``_improve`` stops after this many nodes, and all of
# one repair's calls after REPAIR_NODES.
REPAIR_CALL_NODES = 2_000
REPAIR_NODES = 10_000

# Maps the characters "0" and "1" to the bytes 0 and 1, for ``_indices``.
_BITS = bytes.maketrans(b"01", b"\x00\x01")


class BudgetExceededError(RuntimeError):
    """Search ran out of nodes or time; carries the bracket proved so far."""

    def __init__(self, lower: int, upper: int | None, nodes: int):
        super().__init__()
        self.lower = lower
        self.upper = upper
        self.nodes = nodes

    def __str__(self) -> str:
        # Built from the fields, so the bracket tightened on the way out of
        # ``clumsy_number`` shows.
        if self.lower == self.upper:
            found = f"is {self.lower}, proven; the lex-first witness is unfinished"
        else:
            up = "unknown" if self.upper is None else str(self.upper)
            found = f"is in [{self.lower}, {up}]"
        return f"search budget exhausted after {self.nodes} nodes; clumsy number {found}"

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.lower!r}, {self.upper!r}, {self.nodes!r})"

    def __reduce__(self):
        # Rebuilt from the bracket, so the error survives pickle and copy.
        return type(self), (self.lower, self.upper, self.nodes)


class OracleGuardError(RuntimeError):
    """The instance is too large for the definitional oracle."""


class SolveResult(_Record):
    """The outcome of one ``clumsy_number`` solve.

    ``clumsy_number`` is the least size of a maximal arrangement, and
    ``witness`` the lexicographically first maximal arrangement of that
    size.  ``nodes_explored`` counts the nodes of both phases, a node as
    the module docstring defines it, and ``elapsed`` is the solve's wall
    time in seconds, its set-up included.
    """

    __slots__ = ("clumsy_number", "witness", "nodes_explored", "elapsed")
    clumsy_number: int
    witness: Arrangement
    nodes_explored: int
    elapsed: float


class _Search:
    """The state of one solve, shared by its refuter and witness phases.

    ``cells`` are the placements' cell bits (``_tables(...)[2]``) and
    ``group`` their symmetry maps (``_symmetry_group``), or None where no
    refuter runs and so no orbit is read.  The conflict graph
    (``_conflict_graph``) and the orbit masks (``_orbits``) number
    placements from the end, as the module docstring says.  ``lower``
    and ``upper`` are the bracket proved so far, which a budget stop
    reports once ``clumsy_number`` has tightened its upper end.  The search
    keeps its node count in a local variable and calls ``spend`` only once
    that count reaches ``stop``, so a node costs one comparison.
    """

    __slots__ = ("nbr", "notnbr", "notfar", "bit", "orbit",
                 "lower", "upper", "node_budget", "deadline", "nodes", "stop")

    def __init__(self, cells: tuple[tuple[int, ...], ...], group: list[list[int]] | None,
                 node_budget: int, time_budget: float | None = None):
        self.nbr, self.notnbr, self.notfar, self.bit = _conflict_graph(cells[::-1])
        self.orbit = None if group is None else _orbits(group)
        self.lower, self.upper = 0, None
        self.node_budget = node_budget
        # The clock starts once the graph is built.
        self.deadline = None if time_budget is None else time.monotonic() + time_budget
        self.nodes = 0
        # Reading the clock at node 1 lets a spent deadline stop a small solve.
        self.stop = node_budget + 1 if self.deadline is None else 1

    def spend(self, amount: int) -> int:
        """Count ``amount`` more nodes and return the new ``stop``; raise
        BudgetExceededError past either budget.

        One call may add many nodes, so the clock is read each time the
        count crosses a multiple of 4096 (and at node 1), not on exact
        values.
        """
        self.nodes += amount
        if self.nodes >= self.stop:
            if self.nodes > self.node_budget:
                # Where a search spending one node at a time would have stopped.
                self.nodes = self.node_budget + 1
                raise BudgetExceededError(self.lower, self.upper, self.nodes)
            # Only a deadline sets stop below node_budget + 1.
            self.stop = min((self.nodes | 4095) + 1, self.node_budget + 1)
            if time.monotonic() > self.deadline:
                raise BudgetExceededError(self.lower, self.upper, self.nodes)
        return self.stop


def _check_budget(node_budget: int, time_budget: float | None) -> None:
    if operator.index(node_budget) < 0:
        raise ValueError(f"node budget must be non-negative, got {node_budget}")
    # A NaN deadline compares False with every clock reading, so it would
    # never fire; inf is no limit.
    if time_budget is not None and not time_budget >= 0:
        raise ValueError(f"time budget must be a non-negative number of seconds, "
                         f"got {time_budget}")


def _conflict_graph(cells: tuple[tuple[int, ...], ...]
                    ) -> tuple[list[int], list[int], list[int], list[int]]:
    """The (nbr, notnbr, notfar, bit) lists of masks over the indices of
    ``cells`` that the search reads.

    ``cells[i]`` lists the cell bits of placement i (``_tables(...)[2]``,
    which ``_Search`` hands over reversed).  bit[i] is 1 << i, read from a
    list because a shift makes a new int.

    nbr[i] holds the placements whose cells meet placement i; every
    placement conflicts with itself, so bit i of nbr[i] is set.  far[i] =
    OR(nbr[j] for j in nbr[i]) holds every placement that some single pick
    dominates together with i.  notnbr and notfar are the complements.
    nbr and far come from two lists indexed by cell bit: cover[c], the mask
    of the placements on cell c, and reach[c], the OR of their nbr rows,
    which the pass that builds each nbr row ORs it into.  So the cost grows
    with the total cell count, not with the number of placement pairs.
    """
    size = max((cs[-1] for cs in cells), default=-1) + 1
    cover = [0] * size
    bit = []
    for i, cs in enumerate(cells):
        b = 1 << i
        bit.append(b)
        for c in cs:
            cover[c] |= b
    # reach[c]: the placements that meet some placement on cell c.
    reach = [0] * size
    nbr = []
    for cs in cells:
        m = 0
        for c in cs:
            m |= cover[c]
        nbr.append(m)
        for c in cs:
            reach[c] |= m
    full = (1 << len(cells)) - 1
    notfar = []
    for cs in cells:
        m = 0
        for c in cs:
            m |= reach[c]
        notfar.append(full ^ m)
    return nbr, [full ^ m for m in nbr], notfar, bit


def _packing_bound(notfar: list[int], undom: int) -> int:
    """Size of a greedy packing of ``undom``: highest bit first, which is
    the lowest placement in the search's numbering, no two members sharing
    a neighbour.

    Each member needs a dominator of its own, since no one placement meets
    two of them, so dominating ``undom`` takes at least this many picks.
    """
    count = 0
    while undom:
        count += 1
        undom &= notfar[undom.bit_length() - 1]
    return count


def _indices(mask: int) -> Iterator[int]:
    """The indices of the set bits of ``mask``, highest first (so lowest
    placement first in the search's numbering), produced lazily.

    The binary string of ``mask`` becomes one 0/1 byte per bit, and
    ``compress`` keeps the values of a falling count at the 1s, so the loop
    over bits runs in C rather than as big-int operations per bit.
    ``mask`` must be non-negative: ``bin`` of a negative int starts with
    ``-``.
    """
    return itertools.compress(itertools.count(mask.bit_length() - 1, -1),
                              bin(mask)[2:].encode().translate(_BITS))


def _complete(s: _Search, undom: int, allowed: int, need: int,
              orbits: list[int] | None = None) -> tuple[tuple[int, ...], int] | None:
    """Can at most ``need`` independent picks from ``allowed`` dominate
    ``undom``?  The picks in the order found, with the allowed mask of the
    entry as it stood before the first of them was tried, or None.

    This is the search's one question.  The refuter asks it at each k, and
    the witness phase at cp, where no completion has fewer picks than
    asked for.  The masks are over the placements of ``s``, which also
    counts the nodes.  ``allowed`` lies within ``undom``, since a pick must
    be independent of the picks that left ``undom``.  Every scan takes the
    highest bit first: the lowest placement, in the numbering ``_Search``
    gives the graph.

    One loop evaluates the entry and then each candidate's child, each with
    one walk of the packing of its undominated placements; the module
    docstring says what the walk decides.  Each candidate tried is one node.
    The entry is not: it is the caller's candidate, or the refuter's root.
    At a narrowed node, each candidate that a member's private placements
    reject counts as a node: the branch member's rejected ones, or every
    candidate of the last member, in walk order, left with none.  The
    entry is never narrowed, so that with ``orbits`` its candidates are
    tried one at a time: the entry is then the refuter's root, whose
    placement set the symmetry group maps onto itself, and each candidate
    tried forbids its whole orbit to the later ones, though its own subtree
    keeps the other members.
    """
    nbr, notnbr, notfar, bit = s.nbr, s.notnbr, s.notfar, s.bit
    nodes, stop = s.nodes, s.stop
    # More than any member's count of candidates.
    most = len(nbr) + 1
    # The frame in use, the last node expanded, lives in c (its candidates
    # not yet tried), undom, allowed and left (the picks its children still
    # need), and d, the picks that reached it.  While a deeper frame is in
    # use, saved[j + 1] holds frame j.  The entry's stand-in frame, d = -1,
    # has no candidates.  The node under evaluation is (u2, a2), reached by
    # picks[:d + 1].  ws holds the packing walk's members, and rs[j] the
    # walk's r before it took ws[j].
    saved: list[tuple[int, int, int, int]] = [(0, 0, 0, 0)] * need
    picks = [0] * need
    ws = [0] * need
    rs = [0] * need
    c, left, d = 0, need, -1
    u2 = undom
    a2 = before = allowed
    while True:
        if not u2:
            s.nodes = nodes
            return tuple(picks[:d + 1]), before
        if left:
            # Packing walk, stopped at left members; anything left in r
            # would be one more.
            r, j = u2, 0
            while True:
                w = r.bit_length() - 1
                ws[j] = w
                rs[j] = r
                r &= notfar[w]
                j += 1
                if not r or j == left:
                    break
            # With r left, each of left + 1 members needs a pick of its own
            # and the node is dead.
            if not r:
                best, fewest = 0, most
                if j == left and d >= 0:
                    # Each pick dominates exactly one member.  Last member
                    # first, after drops what shares a dominator with a
                    # later one, so rs[t] & after holds the placements
                    # private to ws[t]: ws[t] itself, its highest bit, and
                    # those that share no dominator with another member.
                    # Only ws[t]'s pick can dominate them, so its candidates
                    # are first, its allowed dominators, narrowed by them.
                    after, cover = -1, 0
                    t = left
                    while t:
                        t -= 1
                        w = ws[t]
                        priv = (rs[t] & after) ^ bit[w]
                        after &= notfar[w]
                        b = first = a2 & nbr[w]
                        while priv and b:
                            k = priv.bit_length() - 1
                            b &= nbr[k]
                            priv ^= bit[k]
                        if not b:
                            # Every candidate of ws[t] is rejected.
                            best, fewest, top = 0, 0, first
                            break
                        count = b.bit_count()
                        # A tie goes to the lower member, met later.
                        if count <= fewest:
                            best, fewest, top = b, count, first
                        cover |= b
                    # Each rejected candidate of the branch member, or of
                    # the member that kills the node (top is its first), is
                    # a node.
                    nodes += top.bit_count() - fewest
                    if nodes >= stop:
                        stop = s.spend(nodes - s.nodes)
                    a2 = cover
                else:
                    # Branch on the undominated placement with the fewest
                    # allowed dominators, stopping at MRV_EARLY_EXIT.
                    for u in _indices(u2):
                        b = nbr[u] & a2
                        count = b.bit_count()
                        if count < fewest:
                            best, fewest = b, count
                            if count <= MRV_EARLY_EXIT:
                                break
                if best:
                    d += 1
                    saved[d] = (c, undom, allowed, left)
                    c, undom, allowed, left = best, u2, a2, left - 1
        while not c:
            if d < 0:
                s.nodes = nodes
                return None
            c, undom, allowed, left = saved[d]
            d -= 1
        i = c.bit_length() - 1
        low = bit[i]
        c ^= low
        nodes += 1
        if nodes >= stop:
            stop = s.spend(nodes - s.nodes)
        picks[d] = i
        u2 = undom & notnbr[i]
        a2 = allowed & notnbr[i]
        if d:
            allowed ^= low
        else:
            # a2 above keeps the orbit for the candidate's own subtree.
            before = allowed
            allowed &= ~(orbits[i] if orbits else low)
            c &= allowed


def _lex_first(s: _Search, allowed: int, found: tuple[int, ...]) -> list[int]:
    """Lexicographically first independent dominating set of cp
    placements, as placement indices, given ``found``, one such set, and
    that every such set lies within ``allowed``.

    Every smaller size must be refuted, so cp is ``len(found)`` and no
    completion has fewer picks than it is asked for.  The masks and
    ``found`` use the search's numbering (``_Search``), so the placements
    above bit i lie below it.  Built one position at a time: each keeps the
    lowest allowed candidate above the last pick that ``_complete`` can
    extend by the picks still needed, all above it.  Each candidate is one
    node.  The least member of the completion in hand passes without a
    search when it is the next candidate.  The set sought lies within
    ``allowed``, so every position finds its pick.
    """
    notnbr, bit = s.notnbr, s.bit
    top = len(notnbr) - 1
    # Above every placement, so position 0 may take any allowed one.
    low = 1 << len(notnbr)
    undom = low - 1
    picks = []
    # The completion in hand, least member last.
    ahead = sorted(found)
    for need in range(len(found) - 1, -1, -1):
        c = undom & allowed & (low - 1)
        while True:
            i = c.bit_length() - 1
            low = bit[i]
            c ^= low
            s.spend(1)
            u2 = undom & notnbr[i]
            if ahead and ahead[-1] == i:
                ahead.pop()
                break
            got = _complete(s, u2, u2 & allowed & (low - 1), need)
            if got is not None:
                ahead = sorted(got[0])
                break
        picks.append(top - i)
        undom = u2
    return picks


def _symmetry_group(shape: Shape, board: Board, mode: str) -> list[list[int]]:
    """Every board symmetry that maps the placement set onto itself, as an
    index -> index map; the identity comes first.

    The candidates are the eight symmetries of the square board (D4) as
    maps of cell bits: the quarter turn t, t^2, t^3, the transpose f, and
    f after each power of t.  In both modes, one belongs to the group when
    it maps every placement onto a placement.

    The table holds every translate that fits of each orientation it
    keeps, in one run of indices per row, and a symmetry moves a rotation's
    translates alike.  So a symmetry belongs to the group when it maps the
    first placement of each run onto a placement; if that image's lowest
    bit comes from cell k and the image is pattern << that bit, the image
    of every placement cs in the run is pattern << move[cs[k]].  A member
    that is the product of two members found earlier gets its map by
    composing theirs.
    """
    rows, masks, cells = _tables(shape, board, mode)
    n = board.n
    index_of = {m: i for i, m in enumerate(masks)}
    starts = [first for *_, first in rows]
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
    """Mask of each placement's orbit under the group, in the search's
    numbering (``_Search``): orbit[top - p] is the orbit of placement p."""
    top = len(group[0]) - 1
    orbit = [0] * (top + 1)
    for p in range(top + 1):
        if not orbit[top - p]:
            members = {top - g[p] for g in group}
            m = 0
            for j in members:
                m |= 1 << j
            for j in members:
                orbit[j] = m
    return orbit


def _construction(nbr: list[int]) -> list[int]:
    """A maximal arrangement built most-constrained first, as indices of
    the conflict graph ``nbr`` (the search's numbering in ``_Search``).

    Until nothing is undominated, it takes the undominated placement with
    the fewest undominated dominators, scanned lowest first and stopping at
    the first with one, and picks its undominated dominator that dominates
    the most undominated placements, lowest first on ties.  Every pick is
    undominated, so the picks are independent and, once nothing is
    undominated, dominating: a maximal arrangement.
    """
    undom = (1 << len(nbr)) - 1
    picks = []
    while undom:
        fewest = len(nbr) + 1
        for u in _indices(undom):
            b = nbr[u] & undom
            count = b.bit_count()
            if count < fewest:
                best, fewest = b, count
                if count == 1:
                    break
        pick = max(_indices(best), key=lambda v: (nbr[v] & undom).bit_count())
        picks.append(pick)
        undom &= ~nbr[pick]
    return picks


def _improve(s: _Search, picks: list[int]) -> list[int]:
    """A maximal arrangement no larger than ``picks``, found by exact
    repair, as indices of the conflict graph of ``s``.

    ``picks`` is a maximal arrangement (``_construction``'s).  For each pick
    w in turn, the repair drops every pick that shares a neighbour with w,
    w included.  The placements that only the dropped picks dominated are
    then undominated, and independent of every pick kept, so ``_complete``
    can ask whether fewer picks than were dropped dominate them.  A success
    makes the arrangement smaller, and the pass starts again from its first
    pick; the repair ends after a pass with no success.  Only a kept pick
    that shares a neighbour with a dropped one dominates any of what the
    dropped ones did, so those are the only kept picks read, and a pass
    over many picks stays cheap.

    The calls count nodes on ``s``, so the search must be over: at most
    REPAIR_CALL_NODES each and REPAIR_NODES in all, and a call cut short is
    a failure.  Each call's ``stop`` lies past its cap, so ``spend`` never
    reads the clock and a deadline cannot cut a repair short.  A failed
    question is not asked again: it would get no more nodes than before,
    and would fail again.
    """
    nbr, notnbr, notfar, bit = s.nbr, s.notnbr, s.notfar, s.bit
    left = REPAIR_NODES
    failed = set()
    while True:
        mask = 0
        for p in picks:
            mask |= bit[p]
        for w in picks:
            dropped = mask & ~notfar[w]
            # No pick at all can replace w alone.
            if not dropped & (dropped - 1):
                continue
            freed, apart, m = 0, -1, dropped
            while m:
                d = m.bit_length() - 1
                m ^= bit[d]
                freed |= nbr[d]
                apart &= notfar[d]
            # The kept picks within far of a dropped one.
            m = mask & ~dropped & ~apart
            while m:
                k = m.bit_length() - 1
                m ^= bit[k]
                freed &= notnbr[k]
            need = dropped.bit_count() - 1
            if (freed, need) in failed:
                continue
            if left <= 0:
                return picks
            s.nodes, s.node_budget = 0, min(REPAIR_CALL_NODES, left)
            s.stop = s.node_budget + 1
            try:
                got = _complete(s, freed, freed, need)
            except BudgetExceededError:
                got = None
            left -= s.nodes
            if got is not None:
                picks = [p for p in picks if not dropped >> p & 1] + list(got[0])
                break
            failed.add((freed, need))
        else:
            return picks


def _sweep(shape: Shape, board: Board, mode: str,
           seed: tuple[Placement, ...] = ()) -> Arrangement:
    """The seed, then every placement that still fits, in placement order."""
    masks = _tables(shape, board, mode)[1]
    arr = Arrangement(board, shape, mode, tuple(seed))
    # With no seed the board starts empty, and there is nothing to check.
    reason, occ = _occupancy(arr) if arr.placements else (None, 0)
    if reason is not None:
        raise ValueError(f"seed is invalid: {reason}")
    chosen = []
    for i, m in enumerate(masks):
        if m & occ == 0:
            chosen.append(i)
            occ |= m
    return Arrangement(board, shape, mode,
                       arr.placements + _placements_at(shape, board, mode, chosen))


def greedy_upper_bound(shape: Shape, board: Board | None = None,
                       mode: str = "free",
                       seed: tuple[Placement, ...] = ()) -> Arrangement:
    """A maximal arrangement built greedily: the upper end of the bracket
    that a budget stop of ``clumsy_number`` reports is its size.

    With no seed, the smaller of two: one sweep in placement order, which
    adds every placement that still fits, and the most-constrained-first
    construction (``_construction``) after exact repair (``_improve``), its
    placements in placement order.  A tie keeps the sweep.  Seed placements
    (which must form a valid partial arrangement) are laid down first, and
    the sweep alone extends them.  Either way the result cannot be
    extended: it is maximal by construction.
    """
    if board is None:
        board = default_board(shape)
    sweep = _sweep(shape, board, mode, seed)
    if seed:
        return sweep
    s = _Search(_tables(shape, board, mode)[2], None, 0)
    picks = _improve(s, _construction(s.nbr))
    if len(picks) >= sweep.size:
        return sweep
    top = len(s.bit) - 1
    return Arrangement(board, shape, mode, _placements_at(
        shape, board, mode, sorted(top - i for i in picks)))


def clumsy_number(shape: Shape, board: Board | None = None, mode: str = "free",
                  *, node_budget: int = DEFAULT_NODE_BUDGET,
                  time_budget: float | None = None) -> SolveResult:
    """Exact clumsy packing number with a lexicographically first witness.

    Raises BudgetExceededError carrying the proved bracket when the node or
    time budget runs out first.  Its upper end comes from work done after
    the stop, which no budget bounds: the construction, which grows with
    the instance (about 55-70 ms on 1,740-5,032 placements on a 2-vCPU
    VM), and its repair, capped at REPAIR_NODES nodes (2-13 ms there).  A
    deadline stop overshoots its time budget by that much.
    """
    _check_budget(node_budget, time_budget)
    if board is None:
        board = default_board(shape)
    start = time.monotonic()
    sweep = _sweep(shape, board, mode)
    s = _Search(_tables(shape, board, mode)[2], _symmetry_group(shape, board, mode),
                node_budget, time_budget)
    full = (1 << len(s.bit)) - 1
    s.upper = sweep.size
    s.lower = _packing_bound(s.notfar, full)
    # Every size below s.lower is refuted (the packing bound refutes those
    # below the start), and one call at s.lower refutes every size up to
    # it.  A success comes with the root's allowed mask as it stood before
    # the candidate that succeeded: no independent dominating set of at
    # most s.lower placements leaves it.
    try:
        while s.lower < s.upper and (
                hit := _complete(s, full, full, s.lower, s.orbit)) is None:
            s.lower += 1
        k = s.lower
        if k == s.upper:
            # Every size below the sweep's is refuted; with nothing on the
            # board, the sweep is empty and k = upper = 0.  The sweep keeps,
            # in index order, each placement that fits beside the ones it
            # kept.  An independent set of the same size that agrees with
            # the sweep's first j picks cannot pick below its next one, so
            # the sweep is the lex-least independent set of its size, and
            # hence the lex-first witness.
            return SolveResult(k, sweep, s.nodes, time.monotonic() - start)
        found, allowed = hit
        got = _lex_first(s, allowed, found)
    except BudgetExceededError as exc:
        # Only a stop pays for the construction and its repair; the upper
        # end is then the size of greedy_upper_bound's arrangement.  The
        # repair's nodes are its own, not the stop's.  Re-raised as it is,
        # so no other exception becomes its context.
        exc.upper = min(exc.upper, len(_improve(s, _construction(s.nbr))))
        raise
    witness = Arrangement(board, shape, mode, _placements_at(shape, board, mode, got))
    return SolveResult(k, witness, s.nodes, time.monotonic() - start)


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
    _check_mode(mode)
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
