"""Property tests: invariants that follow from the definition of the clumsy number."""

import itertools
import math
import re

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from clumsypack import solver
from clumsypack.geometry import Cell, custom, plus, rect, rotate, straight_v
from clumsypack.packing import (Arrangement, Board, Placement, _orientation, _placements_at,
                                _tables, cells_of, enumerate_placements, is_maximal,
                                is_valid, placement_masks, validate)
from clumsypack.solver import (ORACLE_SOFT_MAX_K, ORACLE_SOFT_PLACEMENTS,
                               BudgetExceededError, OracleGuardError, _complete,
                               _conflict_graph, _indices, _orbits, _packing_bound, _Search,
                               _symmetry_group, clumsy_number, greedy_upper_bound,
                               oracle_clumsy_number)

SETTINGS = settings(derandomize=True, deadline=None, max_examples=40)
STEPS = ((1, 0), (-1, 0), (0, 1), (0, -1))
# The oracle tries subsets one by one, and some instances here (a monomino on
# 5x5 needs all 2^25) would take minutes; examples above this cap are skipped.
ORACLE_SUBSET_LIMIT = 20000


@st.composite
def polyominoes(draw, max_cells=4):
    """A connected cell set grown one edge-neighbour at a time, with any anchor."""
    cells = [Cell(0, 0)]
    for _ in range(draw(st.integers(0, max_cells - 1))):
        c = draw(st.sampled_from(cells))
        dc, dr = draw(st.sampled_from(STEPS))
        grown = Cell(c.col + dc, c.row + dr)
        if grown not in cells:
            cells.append(grown)
    return custom(cells, draw(st.sampled_from(cells)))


instances = st.tuples(polyominoes(), st.builds(Board, st.integers(1, 5)),
                      st.sampled_from(("fixed", "free")))


def cp(shape, board, mode):
    return clumsy_number(shape, board, mode).clumsy_number


def mirror(shape):
    return custom([Cell(-c.col, c.row) for c in shape.cells])


def oracle_subsets(shape, board, mode):
    """An upper bound on the subsets the oracle tries: all sizes up to greedy's."""
    p = len(placement_masks(shape, board, mode)[0])
    cap = p if p <= ORACLE_SOFT_PLACEMENTS else ORACLE_SOFT_MAX_K
    top = min(greedy_upper_bound(shape, board, mode).size, cap)
    return sum(math.comb(p, k) for k in range(1, top + 1))


def lex_first_maximal(shape, board, mode, size):
    """First index tuple, in combinations order, that is pairwise disjoint
    and blocks every placement; its placements, or None."""
    placements, masks = placement_masks(shape, board, mode)
    for combo in itertools.combinations(range(len(masks)), size):
        occ = 0
        for i in combo:
            if occ & masks[i]:
                break
            occ |= masks[i]
        else:
            if all(m & occ for m in masks):
                return tuple(placements[i] for i in combo)
    return None


def reference_tables(shape, board, mode):
    """Placements, masks and sorted cell bits straight from ``cells_of``:
    every anchor on the board, each rotation, first of each cell set kept."""
    n = board.n
    seen = set()
    placements, masks, bits = [], [], []
    for m in (0,) if mode == "fixed" else (0, 1, 2, 3):
        for row in range(1, n + 1):
            for col in range(1, n + 1):
                p = Placement(m, Cell(col, row))
                cells = cells_of(shape, p)
                if cells in seen or not all(c in board for c in cells):
                    continue
                seen.add(cells)
                b = sorted((c.row - 1) * n + (c.col - 1) for c in cells)
                placements.append(p)
                masks.append(sum(1 << i for i in b))
                bits.append(tuple(b))
    return tuple(placements), tuple(masks), tuple(bits)


@SETTINGS
@given(polyominoes(), st.integers(1, 7), st.sampled_from(("fixed", "free")))
def test_tables_match_cells_of_reference(shape, n, mode):
    board = Board(n)
    placements, masks, bits = reference_tables(shape, board, mode)
    # Every path reads the placements off the orientation rows, on each call.
    _tables.cache_clear()
    assert _placements_at(shape, board, mode, range(len(placements))) == placements
    assert placement_masks(shape, board, mode) == (placements, masks)
    assert (_placements_at(shape, board, mode, reversed(range(len(placements))))
            == placements[::-1])
    assert enumerate_placements(shape, board, mode) == placements
    assert _tables(shape, board, mode)[2] == bits


def reference_group(shape, board, mode):
    """Index maps of the board symmetries (turns, then an optional
    transpose) that send every placement's cells onto a placement, moved
    cell by cell from ``cells_of``."""
    placements, masks = placement_masks(shape, board, mode)
    index_of = {m: i for i, m in enumerate(masks)}
    n = board.n
    group = set()
    for turns in range(4):
        for flip in (False, True):
            image = []
            for pl in placements:
                moved = 0
                for c in cells_of(shape, pl):
                    col, row = c.col - 1, c.row - 1
                    for _ in range(turns):
                        col, row = n - 1 - row, col
                    if flip:
                        col, row = row, col
                    moved |= 1 << (row * n + col)
                image.append(index_of.get(moved))
            if None not in image:
                group.add(tuple(image))
    return group


@settings(SETTINGS, max_examples=150)
@given(polyominoes(5), st.integers(1, 8), st.sampled_from(("fixed", "free")))
def test_symmetry_group_matches_cell_by_cell_reference(shape, n, mode):
    board = Board(n)
    assume(placement_masks(shape, board, mode)[0])
    # Two symmetries may move the placements alike (one placement on a
    # board of its own size), so the maps compare as a set.
    group = _symmetry_group(shape, board, mode)
    assert group[0] == list(range(len(group[0])))
    assert {tuple(g) for g in group} == reference_group(shape, board, mode)


def reference_turn(shape, m):
    """The shape turned m quarter turns clockwise one turn at a time,
    (col, row) -> (-row, col), then shifted back to min col = min row = 1."""
    cells, anchor = list(shape.cells), shape.anchor
    for _ in range(m):
        cells = [Cell(-r, c) for c, r in cells]
        anchor = Cell(-anchor.row, anchor.col)
    dc = 1 - min(c.col for c in cells)
    dr = 1 - min(c.row for c in cells)
    return ({Cell(c + dc, r + dr) for c, r in cells},
            Cell(anchor.col + dc, anchor.row + dr))


@settings(SETTINGS, max_examples=150)
@given(polyominoes(5), st.integers(1, 8))
def test_orientation_is_read_off_rotate(shape, n):
    for m in range(4):
        rot = rotate(shape, m)
        assert (set(rot.cells), rot.anchor) == reference_turn(shape, m)
        # OR, not sum: on a board narrower than the piece two cells may
        # share a bit, and the mask then means nothing but must not change.
        corner = 0
        for c in rot.cells:
            corner |= 1 << ((c.row - 1) * n + c.col - 1)
        assert _orientation(shape, m, n) == (rot.anchor.col, rot.anchor.row,
                                             rot.width, rot.height, corner)


def reference_graph(shape, board, mode):
    """(nbr, notnbr, notfar, bit) from the placement masks: j is in nbr[i]
    when the two placements meet, and in notfar[i] when no placement meets
    both; bit[i] is placement i alone."""
    masks = placement_masks(shape, board, mode)[1]
    full = (1 << len(masks)) - 1
    nbr = [sum(1 << j for j, b in enumerate(masks) if a & b) for a in masks]
    far = []
    for a in masks:
        m = 0
        for c, b in enumerate(masks):
            if a & b:
                m |= nbr[c]
        far.append(m)
    return (nbr, [full ^ m for m in nbr], [full ^ m for m in far],
            [1 << i for i in range(len(masks))])


@settings(SETTINGS, max_examples=150)
@given(polyominoes(5), st.integers(1, 8), st.sampled_from(("fixed", "free")))
def test_conflict_graph_matches_mask_reference(shape, n, mode):
    board = Board(n)
    graph = _conflict_graph(_tables(shape, board, mode)[2])
    assert graph == reference_graph(shape, board, mode)


# Each placement here covers the cells of a table placement with a lower
# rotation, so the table drops its rotation.
@pytest.mark.parametrize("shape,n,dropped", [(straight_v(2), 4, Placement(2, Cell(2, 3))),
                                             (plus(1), 5, Placement(3, Cell(3, 2)))])
def test_rotation_the_table_drops_still_works(shape, n, dropped):
    board = Board(n)
    placements = placement_masks(shape, board, "free")[0]
    assert dropped not in placements
    twin = next(p for p in placements if cells_of(shape, p) == cells_of(shape, dropped))
    assert twin.rotation < dropped.rotation
    got = greedy_upper_bound(shape, board, "free", seed=(dropped,))
    assert got.placements[0] == dropped
    assert is_valid(got) and is_maximal(got)
    # The seed's cells decide the rest, not the rotation naming them.
    assert got.placements[1:] == greedy_upper_bound(shape, board, "free",
                                                    seed=(twin,)).placements[1:]


def reference_validate(arrangement):
    """The per-cell check: each placement's cells from ``cells_of``, and a
    dict from cell to the first placement on it.  The first owner of a
    shared cell is the lowest placement on it, so the least (owner, idx)
    hit is the least overlapping pair."""
    board = arrangement.board
    owner = {}
    overlap = None
    for idx, p in enumerate(arrangement.placements, start=1):
        if arrangement.mode == "fixed" and p.rotation % 4 != 0:
            return f"placement {idx} uses rotation {p.rotation % 4} but mode is fixed"
        for c in cells_of(arrangement.shape, p):
            if c not in board:
                return (f"placement {idx} off board: cell ({c.col}, {c.row}) "
                        f"outside 1..{board.n}")
            first = owner.setdefault(c, idx)
            if first != idx and (overlap is None or (first, idx) < overlap):
                overlap = (first, idx)
    if overlap is not None:
        return f"placements {overlap[0]} and {overlap[1]} overlap"
    return None


def reference_occupancy(arrangement):
    """Cell mask of ``occupied_cells``."""
    n = arrangement.board.n
    occ = 0
    for c in arrangement.occupied_cells():
        occ |= 1 << ((c.row - 1) * n + (c.col - 1))
    return occ


def reference_greedy(arrangement):
    """The seed, then every table placement that still fits, in order."""
    placements, masks = placement_masks(arrangement.shape, arrangement.board,
                                        arrangement.mode)
    occ = reference_occupancy(arrangement)
    chosen = list(arrangement.placements)
    for pl, m in zip(placements, masks):
        if not m & occ:
            chosen.append(pl)
            occ |= m
    return tuple(chosen)


# Shapes that some rotation maps onto themselves, so the free table drops
# that rotation.
SYMMETRIC = (rect(1, 1), rect(2, 2), straight_v(2), straight_v(3), plus(1),
             custom([Cell(2, 1), Cell(3, 1), Cell(1, 2), Cell(2, 2)]))


@st.composite
def arrangements(draw):
    """Arrangements mixing table placements, repeats of earlier pieces (so
    overlaps), any rotation at an on-board anchor (wrong in fixed mode, or
    dropped by the table) and anchors past the edges."""
    shape = draw(st.one_of(polyominoes(5), st.sampled_from(SYMMETRIC)))
    n = draw(st.integers(1, 7))
    mode = draw(st.sampled_from(("fixed", "free")))
    board = Board(n)
    table = enumerate_placements(shape, board, mode)
    placements = []
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(("table", "table", "repeat", "turn", "edge")))
        if kind == "table" and table:
            p = draw(st.sampled_from(table))
        elif kind == "repeat" and placements:
            p = draw(st.sampled_from(placements))
        elif kind == "edge":
            p = Placement(draw(st.integers(0, 3)),
                          Cell(draw(st.integers(-1, n + 2)), draw(st.integers(-1, n + 2))))
        else:
            p = Placement(draw(st.integers(0, 3)),
                          Cell(draw(st.integers(1, n)), draw(st.integers(1, n))))
        placements.append(p)
    return Arrangement(board, shape, mode, tuple(placements))


@settings(SETTINGS, max_examples=400)
@given(arrangements())
def test_mask_check_matches_per_cell_reference(arrangement):
    reason = reference_validate(arrangement)
    assert validate(arrangement) == reason
    shape, board, mode = arrangement.shape, arrangement.board, arrangement.mode
    if reason is None:
        assert is_maximal(arrangement) == all(
            m & reference_occupancy(arrangement)
            for m in placement_masks(shape, board, mode)[1])
        got = greedy_upper_bound(shape, board, mode, seed=arrangement.placements)
        sweep = reference_greedy(arrangement)
        if arrangement.placements:
            assert got.placements == sweep
        else:
            # With no seed the bound is the smaller of the sweep and the
            # construction, and the sweep on a tie.
            assert is_valid(got) and is_maximal(got)
            assert got.size <= len(sweep)
            if got.size == len(sweep):
                assert got.placements == sweep
    else:
        with pytest.raises(ValueError, match=re.escape(f"arrangement is invalid: {reason}")):
            is_maximal(arrangement)
        with pytest.raises(ValueError, match=re.escape(f"seed is invalid: {reason}")):
            greedy_upper_bound(shape, board, mode, seed=arrangement.placements)


@settings(SETTINGS, max_examples=100)
@given(instances)
def test_solver_matches_oracle(instance):
    assume(oracle_subsets(*instance) <= ORACLE_SUBSET_LIMIT)
    try:
        want = oracle_clumsy_number(*instance)
    except OracleGuardError:
        assume(False)
    assert cp(*instance) == want


@SETTINGS
@given(instances)
def test_packing_bound_is_a_lower_bound(instance):
    assume(oracle_subsets(*instance) <= ORACLE_SUBSET_LIMIT)
    try:
        want = oracle_clumsy_number(*instance)
    except OracleGuardError:
        assume(False)
    notfar = _conflict_graph(_tables(*instance)[2])[2]
    full = (1 << len(notfar)) - 1
    assert _packing_bound(notfar, full) <= want
    # A walk in a given order: highest bit first is the default walk.
    assert _packing_bound(notfar, full, range(len(notfar))) <= want
    assert (_packing_bound(notfar, full, reversed(range(len(notfar))))
            == _packing_bound(notfar, full))


@SETTINGS
@given(st.integers(0, 1 << 1200))
# rect(1, 1) fixed on 33 has 1,089 placements, so its masks reach bit 1,088.
@example(0)
@example(1)
@example(1 << 1088)
@example((1 << 1089) - 1)
def test_indices_are_the_set_bits_highest_first(mask):
    assert list(_indices(mask)) == [i for i in reversed(range(mask.bit_length()))
                                    if mask >> i & 1]


@SETTINGS
@given(instances, st.integers(1, 3))
def test_rotating_the_shape_keeps_cp(instance, turns):
    shape, board, mode = instance
    assert cp(rotate(shape, turns), board, mode) == cp(shape, board, mode)


@SETTINGS
@given(instances)
def test_mirroring_the_shape_keeps_cp(instance):
    shape, board, mode = instance
    assert cp(mirror(shape), board, mode) == cp(shape, board, mode)


@SETTINGS
@given(instances)
def test_witness_is_valid_and_maximal(instance):
    result = clumsy_number(*instance)
    witness = result.witness
    assert is_valid(witness) and is_maximal(witness)
    assert witness.size == result.clumsy_number


@SETTINGS
@given(instances)
def test_witness_is_lex_first(instance):
    result = clumsy_number(*instance)
    p = len(placement_masks(*instance)[0])
    assume(math.comb(p, result.clumsy_number) <= ORACLE_SUBSET_LIMIT)
    assert result.witness.placements == lex_first_maximal(*instance, result.clumsy_number)


# Rotationally symmetric shapes: their placements are deduplicated, so the
# board-rotation orbits of placement indices have uneven sizes.
@pytest.mark.parametrize("shape,n", [(plus(1), 5), (plus(1), 7), (straight_v(2), 4),
                                     (rect(2, 2), 5)])
def test_symmetric_shape_witnesses_are_lex_first(shape, n):
    board = Board(n)
    result = clumsy_number(shape, board, "free")
    assert result.witness.placements == lex_first_maximal(
        shape, board, "free", result.clumsy_number)


@st.composite
def wider_instances(draw):
    """A polyomino of at most 5 cells on a board up to its cell count + 2."""
    shape = draw(polyominoes(max_cells=5))
    board = Board(draw(st.integers(1, shape.size + 2)))
    return shape, board, draw(st.sampled_from(("fixed", "free")))


def identity_group(shape, board, mode):
    return [list(range(len(placement_masks(shape, board, mode)[0])))]


@SETTINGS
@given(wider_instances())
def test_symmetry_pruning_keeps_cp_and_witness(instance):
    # Past the oracle's reach: with the identity as the only symmetry no
    # orbit is forbidden and the witness phase searches the whole allowed
    # mask.
    want = clumsy_number(*instance)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "_symmetry_group", identity_group)
        got = clumsy_number(*instance)
    assert (got.clumsy_number, got.witness) == (want.clumsy_number, want.witness)


@SETTINGS
@given(wider_instances(), st.data())
def test_search_order_keeps_cp_and_witness(instance, data):
    # Neither a refutation nor a completion depends on the search's
    # numbering: with the border-first order replaced by a random
    # permutation, the solve gives the same cp and lex-first witness.
    p = len(placement_masks(*instance)[0])
    assume(p <= 64)
    order = data.draw(st.permutations(range(p)))
    want = clumsy_number(*instance)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "_search_order", lambda key: list(order))
        got = clumsy_number(*instance)
    assert (got.clumsy_number, got.witness) == (want.clumsy_number, want.witness)
    if math.comb(p, want.clumsy_number) <= ORACLE_SUBSET_LIMIT:
        assert want.witness.placements == lex_first_maximal(*instance, want.clumsy_number)


@SETTINGS
@given(instances, st.integers(1, 60))
def test_budget_bracket_contains_cp(instance, node_budget):
    value = cp(*instance)
    try:
        got = clumsy_number(*instance, node_budget=node_budget).clumsy_number
    except BudgetExceededError as exc:
        assert exc.lower <= value
        assert exc.upper is None or value <= exc.upper
    else:
        assert got == value


@settings(SETTINGS, max_examples=150)
@given(instances)
def test_budget_at_the_node_count(instance):
    # A narrowed node may count many nodes at once, but the count a solve
    # reports is where a one-node-at-a-time search would stop: a budget of
    # exactly that count runs the same solve, and one node less stops it
    # there with a proved bracket.
    want = clumsy_number(*instance)
    nodes = want.nodes_explored
    got = clumsy_number(*instance, node_budget=nodes)
    assert ((got.clumsy_number, got.witness, got.nodes_explored)
            == (want.clumsy_number, want.witness, nodes))
    if nodes:
        with pytest.raises(BudgetExceededError) as info:
            clumsy_number(*instance, node_budget=nodes - 1)
        err = info.value
        assert err.nodes == nodes
        assert err.lower <= want.clumsy_number <= err.upper


@settings(SETTINGS, max_examples=150)
@given(wider_instances(), st.data())
def test_budget_stop_upper_is_greedy_bound(instance, data):
    # What the benchmark's frontier gate checks: a stop's upper end is the
    # size of greedy_upper_bound's arrangement, which is valid and maximal,
    # and the bracket holds the full solve's cp.
    want = clumsy_number(*instance)
    assume(want.nodes_explored)
    budget = data.draw(st.integers(0, want.nodes_explored - 1))
    with pytest.raises(BudgetExceededError) as info:
        clumsy_number(*instance, node_budget=budget)
    err = info.value
    arr = greedy_upper_bound(*instance)
    assert err.upper == arr.size
    assert is_valid(arr) and is_maximal(arr)
    assert err.lower <= want.clumsy_number <= err.upper


@settings(SETTINGS, max_examples=150)
@given(polyominoes(5), st.integers(1, 7), st.sampled_from(("fixed", "free")))
def test_construction_is_independent_and_dominating(shape, n, mode):
    # On the reference graph in placement order, and on the graph the
    # search builds (numbered from the end), the construction's picks, with
    # ties to the lowest placement or to the fewest neighbours, are
    # pairwise disjoint and block every placement: a maximal arrangement.
    board = Board(n)
    nbr = reference_graph(shape, board, mode)[0]
    top = len(nbr) - 1
    search_nbr = _conflict_graph(_tables(shape, board, mode)[2][::-1])[0]
    for picks in (solver._construction(nbr),
                  [top - i for i in solver._construction(search_nbr)],
                  [top - i for i in solver._construction(search_nbr, True)]):
        dom = 0
        for i in picks:
            assert not dom >> i & 1
            dom |= nbr[i]
        assert dom == (1 << len(nbr)) - 1


@settings(SETTINGS, max_examples=150)
@given(polyominoes(), st.integers(1, 9), st.sampled_from(("fixed", "free")), st.data())
def test_repair_is_independent_dominating_and_no_larger(shape, n, mode, data):
    # On the reference graph, exact repair of a maximal arrangement (the
    # construction's, or the one an order of the placements gives) returns
    # a maximal arrangement no larger than its start, and the same one on
    # a second call.
    s = _Search((), None, 0)
    s.nbr, s.notnbr, s.notfar, s.bit = reference_graph(shape, Board(n), mode)
    nbr = s.nbr
    order = data.draw(st.permutations(range(len(nbr))))
    dom, greedy = 0, []
    for i in order:
        if not dom >> i & 1:
            greedy.append(i)
            dom |= nbr[i]
    for start in (solver._construction(nbr), greedy):
        picks = solver._improve(s, start)
        assert len(picks) <= len(start)
        assert solver._improve(s, start) == picks
        dom = 0
        for i in picks:
            assert not dom >> i & 1
            dom |= nbr[i]
        assert dom == (1 << len(nbr)) - 1


@settings(SETTINGS, max_examples=150)
@given(polyominoes(), st.integers(1, 9), st.sampled_from(("fixed", "free")))
def test_greedy_bound_is_no_larger_than_any_start(shape, n, mode):
    # Unseeded greedy_upper_bound keeps the smallest of the sweep and the
    # two repaired constructions, so a stop's upper end is never larger
    # than what any one of them gives.
    board = Board(n)
    s = _Search(_tables(shape, board, mode)[2], None, 0)
    sizes = [solver._sweep(shape, board, mode).size]
    sizes += [len(solver._improve(s, solver._construction(s.nbr, by_degree)))
              for by_degree in (False, True)]
    assert greedy_upper_bound(shape, board, mode).size == min(sizes)


def brute_complete(nbr, undom, allowed, need):
    """Some independent set from ``allowed`` of at most ``need`` placements
    that dominates ``undom``, found by trying every subset; None when there
    is none."""
    candidates = [i for i in range(len(nbr)) if allowed >> i & 1]
    for size in range(need + 1):
        for combo in itertools.combinations(candidates, size):
            dom = 0
            for i in combo:
                if dom >> i & 1:
                    break
                dom |= nbr[i]
            else:
                if not undom & ~dom:
                    return combo
    return None


@settings(SETTINGS, max_examples=300)
@given(wider_instances(), st.data())
def test_complete_matches_brute_force(instance, data):
    # Random nodes of the search: an independent prefix of picks, the
    # placements it leaves undominated, and an allowed subset of those.
    # Removing a random mask leaves most of them allowed, as in the search,
    # where narrowed nodes below the entry are common.
    _, masks, cells = _tables(*instance)
    cells = cells[:40]
    assume(cells)
    s = _Search(cells, _orbits([list(range(len(cells)))], masks, instance[1].n), 10 ** 9)
    nbr, notnbr = s.nbr, s.notnbr
    undom = (1 << len(cells)) - 1
    for i in data.draw(st.lists(st.integers(0, len(cells) - 1), max_size=4)):
        if undom >> i & 1:
            undom &= notnbr[i]
    allowed = undom & ~data.draw(st.integers(0, (1 << len(cells)) - 1))
    need = data.draw(st.integers(0, 4))
    got = _complete(s, undom, allowed, need)
    want = brute_complete(nbr, undom, allowed, need)
    assert (got is None) == (want is None)
    if got is not None:
        picks = got[0]
        assert len(picks) <= need
        dom = 0
        for i in picks:
            assert allowed >> i & 1
            assert not dom >> i & 1
            dom |= nbr[i]
        assert not undom & ~dom
