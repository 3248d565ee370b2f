import copy
import pickle

import pytest

from clumsypack import solver
from clumsypack.geometry import Cell, ell, plus, rect, straight_h, straight_v, tee
from clumsypack.packing import (Arrangement, Board, Placement, _placements_at, _tables,
                                default_board, is_maximal, is_valid, placement_masks)
from clumsypack.solver import (REPAIR_CALL_NODES, REPAIR_NODES, BudgetExceededError,
                               OracleGuardError, _complete, _construction, _improve,
                               _lex_first, _orbits, _Search, _sweep, _symmetry_group,
                               clumsy_number, greedy_upper_bound, oracle_clumsy_number)


def first_picks(shape, board, mode):
    """The least placement of each orbit.  The masks number placements
    border-first, so bit j is placement perm[j]; an orbit's members share
    their depth, so its least placement is its highest bit."""
    group = _symmetry_group(shape, board, mode)
    perm, _, orbits = _orbits(group, _tables(shape, board, mode)[1], board.n)
    return tuple(sorted({perm[orbit.bit_length() - 1] for orbit in orbits}))


class TestStraights:
    # A length-n bar on an n x n board: the answer is n in every mode,
    # because no two parallel bars can block each other short of a tiling.
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    @pytest.mark.parametrize("mode", ["fixed", "free"])
    def test_solver_value(self, n, mode):
        res = clumsy_number(straight_v(n), mode=mode)
        assert res.clumsy_number == n
        assert is_valid(res.witness) and is_maximal(res.witness)
        assert res.witness.size == n

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("mode", ["fixed", "free"])
    def test_oracle_agrees(self, n, mode):
        assert oracle_clumsy_number(straight_v(n), mode=mode) == n

    def test_horizontal_matches_vertical(self):
        assert clumsy_number(straight_h(3), mode="fixed").clumsy_number == 3


class TestRectangles:
    def test_fixed_values(self):
        assert clumsy_number(rect(2, 2), mode="fixed").clumsy_number == 1
        assert clumsy_number(rect(2, 3), mode="fixed").clumsy_number == 2

    def test_free_differs_from_fixed(self):
        # with rotations allowed the 2x3 block needs three copies, not two
        assert clumsy_number(rect(2, 3), mode="free").clumsy_number == 3


# The pieces the paper opens with, by board side: Sands' dominoes, and
# Goddard's hooks (the L tromino) and fixed 2x2 squares.
PAPER_PIECES = {
    "domino": (straight_v(2), "free", (2, 3, 6, 9, 12)),
    "hook": (ell(1, 1), "free", (1, 2, 3, 4, 6, 8)),
    "square": (rect(2, 2), "fixed", (1, 1, 1, 4, 4, 4, 9, 9, 9, 16, 16, 16, 25)),
}
# The sides on which the oracle tries at most ORACLE_SUBSET_LIMIT
# (test_properties) subsets.
PAPER_ORACLE_SIDES = {"domino": (2, 3), "hook": (2, 3), "square": (2, 3, 4, 5)}


@pytest.mark.parametrize("piece,n", [(piece, n) for piece, (_, _, values)
                                     in PAPER_PIECES.items()
                                     for n in range(2, 2 + len(values))])
def test_paper_opening_pieces(piece, n):
    shape, mode, values = PAPER_PIECES[piece]
    value = values[n - 2]
    res = clumsy_number(shape, Board(n), mode)
    assert res.clumsy_number == value
    assert res.witness.board == Board(n) and res.witness.size == value
    assert is_valid(res.witness) and is_maximal(res.witness)
    if n in PAPER_ORACLE_SIDES[piece]:
        assert oracle_clumsy_number(shape, Board(n), mode) == value


L_FREE = {(1, 1): 2, (1, 2): 2, (1, 3): 2, (2, 2): 2, (2, 3): 2, (3, 3): 2,
          (1, 4): 3, (2, 4): 3}


class TestEllFree:
    @pytest.mark.parametrize("a,b", sorted(L_FREE))
    def test_values(self, a, b):
        res = clumsy_number(ell(a, b), mode="free")
        assert res.clumsy_number == L_FREE[(a, b)]


class TestWitness:
    def test_lex_first_witness_is_deterministic(self):
        expect = (Placement(0, Cell(1, 1)), Placement(0, Cell(2, 2)))
        for _ in range(2):
            res = clumsy_number(ell(1, 1), Board(3), "free")
            assert res.clumsy_number == 2
            assert res.witness.placements == expect

    def test_witness_counts_nodes(self):
        res = clumsy_number(ell(1, 1), Board(3), "free")
        assert res.nodes_explored > 0
        assert res.elapsed >= 0.0

    def test_empty_shape_board(self):
        # a plus needs a 3x3 bounding box; on a 2x2 board nothing fits
        res = clumsy_number(plus(1), Board(2), "free")
        assert res.clumsy_number == 0
        assert res.witness.size == 0
        assert is_maximal(res.witness)


class TestLowerBound:
    def test_bound_meeting_greedy_returns_greedy(self):
        # 1,089 monominoes pairwise share no neighbour, so the packing bound
        # is greedy's full tiling.
        res = clumsy_number(rect(1, 1), Board(33), "fixed")
        assert (res.clumsy_number, res.nodes_explored) == (1089, 0)
        assert res.witness == greedy_upper_bound(rect(1, 1), Board(33), "fixed")

    def test_domino_free(self):
        res = clumsy_number(straight_h(2), Board(5), "free")
        assert res.clumsy_number == 9
        assert res.nodes_explored < 200_000

    def test_l13_free_on_eight_closes(self):
        # The refuter proves size 5 impossible and the witness phase
        # builds a size-6 witness within this budget.
        res = clumsy_number(ell(1, 3), Board(8), "free", node_budget=200_000)
        assert res.clumsy_number == 6
        assert is_valid(res.witness) and is_maximal(res.witness)


# (shape, board, mode, cp, nodes) as the search counts them; any change to
# what the search visits changes some count.  L(9,9) free on 19 opens at
# k = 1, where the refuter's root tries its candidates one at a time and
# forbids each refuted candidate's orbit.  The benchmark's 1M-node frontier
# pass closes the last three and L(1,3) free on 8.  The last, rect(2,2) fixed
# on 10, is the one pin whose witness phase tries, at position 0, placements
# that are not the least of their orbits.
NODE_COUNTS = [
    (ell(9, 9), 19, "free", 2, 360),
    (ell(3, 6), 10, "free", 3, 737),
    (tee(1, 1), 7, "free", 6, 3104),
    (ell(1, 3), 8, "free", 6, 14_020),
    (rect(2, 2), 9, "fixed", 9, 50),
    (straight_v(4), 8, "free", 9, 164_721),
    (ell(1, 2), 8, "free", 7, 36_904),
    (rect(2, 2), 10, "fixed", 9, 56),
]

# (shape, board, mode, node budget, lower, upper, nodes) of budget stops in
# the refuter (the first two and the last) and in the witness phase (the
# third, whose bracket has closed).  The upper ends are the smaller
# repaired construction's: the sweep in placement order gives 27, 8 and 9.
# The construction with ties to the lowest placement gives 18, 7 and 6
# before its repair and 17, 6 and 6 after; with ties to the fewest
# neighbours, 17, 7 and 6 before and 16, 6 and 6 after.  straight(3) free
# on 9 counts 1 node and then rejects 14 candidates of one narrowed node at
# once; a budget of 8 falls inside that batch, and the stop still reports
# one node past the budget.
BUDGET_STOPS = [
    (straight_v(3), 9, "free", 1_000, 11, 16, 1_001),
    (ell(1, 3), 8, "free", 10_000, 5, 6, 10_001),
    (tee(1, 1), 7, "free", 3_000, 6, 6, 3_001),
    (straight_v(3), 9, "free", 8, 9, 16, 9),
    # Deep refuter calls, as in the benchmark's 1M-node pass on this instance.
    (straight_v(3), 9, "free", 300_000, 14, 16, 300_001),
]


class TestNodeCounts:
    @pytest.mark.parametrize("shape,n,mode,cp,nodes", NODE_COUNTS)
    def test_solve(self, shape, n, mode, cp, nodes):
        res = clumsy_number(shape, Board(n), mode)
        assert (res.clumsy_number, res.nodes_explored) == (cp, nodes)

    @pytest.mark.parametrize("shape,n,mode,budget,lower,upper,nodes", BUDGET_STOPS)
    def test_budget_stop(self, shape, n, mode, budget, lower, upper, nodes):
        with pytest.raises(BudgetExceededError) as ei:
            clumsy_number(shape, Board(n), mode, node_budget=budget)
        err = ei.value
        assert (err.lower, err.upper, err.nodes) == (lower, upper, nodes)
        # Raised where the budget runs out, with no internal error behind it.
        assert err.__context__ is None
        # The upper end is realised by greedy_upper_bound's arrangement.
        arr = greedy_upper_bound(shape, Board(n), mode)
        assert arr.size == upper and is_valid(arr) and is_maximal(arr)
        # The message, and a pickled copy, show the tightened bracket.
        back = pickle.loads(pickle.dumps(err))
        assert (back.lower, back.upper, str(back)) == (lower, upper, str(err))
        assert repr(err) == f"BudgetExceededError({lower}, {upper}, {nodes})"
        assert str(err).endswith(
            f"is {lower}, proven; the lex-first witness is unfinished" if lower == upper
            else f"is in [{lower}, {upper}]")


class TestGreedy:
    def test_greedy_is_maximal(self):
        arr = greedy_upper_bound(ell(3, 6), Board(10), "free")
        assert is_valid(arr) and is_maximal(arr)
        # With no board or mode given, the sweep runs free on the default board.
        assert greedy_upper_bound(ell(3, 6)) == \
            greedy_upper_bound(ell(3, 6), default_board(ell(3, 6)), "free")

    def test_seed_is_kept(self):
        seed = (Placement(0, Cell(2, 1)), Placement(0, Cell(3, 4)),
                Placement(0, Cell(7, 4)))
        arr = greedy_upper_bound(ell(3, 6), Board(10), "free", seed=seed)
        assert arr.placements[:3] == seed
        assert arr.size == 3  # the seed is already maximal

    def test_construction_when_smaller_and_sweep_after_a_seed(self):
        # straight(3) free on 9: the sweep lays 27 bars and the smaller
        # repaired most-constrained-first construction 16, returned in
        # placement order.  A seed is extended by the sweep alone, so
        # seeding the sweep's first bar gives the sweep back.
        shape, board = straight_v(3), Board(9)
        arr = greedy_upper_bound(shape, board, "free")
        assert arr.size == 16 and is_valid(arr) and is_maximal(arr)
        placements = placement_masks(shape, board, "free")[0]
        order = [placements.index(p) for p in arr.placements]
        assert order == sorted(order)
        seeded = greedy_upper_bound(shape, board, "free", seed=placements[:1])
        assert seeded.size == 27 and seeded == _sweep(shape, board, "free")

    def test_repair_shrinks_the_construction(self):
        # straight(3) free on 9: exact repair takes the construction's 18
        # bars to 17, and the one with ties to the fewest neighbours from 17
        # to 16; each result is an independent dominating set.
        shape, board = straight_v(3), Board(9)
        s = _Search(_tables(shape, board, "free")[2], None, 0)
        for by_degree, sizes in ((False, (18, 17)), (True, (17, 16))):
            start = _construction(s.nbr, by_degree)
            picks = _improve(s, start)
            assert (len(start), len(picks)) == sizes
            dom = 0
            for i in picks:
                assert not dom & s.bit[i]
                dom |= s.nbr[i]
            assert dom == (1 << len(s.bit)) - 1

    @pytest.mark.parametrize("shape,n,size", [
        (ell(1, 1), 9, 15), (straight_v(3), 10, 20), (straight_v(4), 12, 20)])
    def test_second_start_when_smaller(self, shape, n, size):
        # Here the construction with ties to the fewest neighbours, after
        # repair, is smaller than the one with ties to the lowest placement
        # (16, 21 and 23), and greedy_upper_bound returns it.
        arr = greedy_upper_bound(shape, Board(n), "free")
        assert arr.size == size and is_valid(arr) and is_maximal(arr)

    def test_repair_keeps_to_its_node_caps(self, monkeypatch):
        # straight(4) free on 10: the repair of each construction runs out
        # of nodes before a pass ends.  Each call gets at most
        # REPAIR_CALL_NODES and spends at most one node past its cap, and
        # one repair's calls together spend REPAIR_NODES and the one node
        # past the last call's cap.
        repairs = []
        complete, improve = solver._complete, solver._improve

        def counted(s, *args):
            budget = s.node_budget
            try:
                return complete(s, *args)
            finally:
                repairs[-1].append((budget, s.nodes))

        def repair(s, picks):
            repairs.append([])
            return improve(s, picks)

        monkeypatch.setattr(solver, "_complete", counted)
        monkeypatch.setattr(solver, "_improve", repair)
        assert greedy_upper_bound(straight_v(4), Board(10), "free").size == 12
        assert len(repairs) == 2
        for calls in repairs:
            assert all(0 < b <= REPAIR_CALL_NODES and n <= b + 1 for b, n in calls)
            assert sum(n for _, n in calls) == REPAIR_NODES + 1

    def test_invalid_seed_rejected(self):
        seed = (Placement(0, Cell(1, 1)), Placement(0, Cell(1, 1)))
        with pytest.raises(ValueError):
            greedy_upper_bound(ell(1, 1), Board(4), "free", seed=seed)


class TestBudget:
    def test_node_budget_raises_with_bracket(self):
        with pytest.raises(BudgetExceededError) as ei:
            clumsy_number(straight_v(5), mode="free", node_budget=5)
        err = ei.value
        assert err.nodes >= 5
        assert err.lower >= 1
        assert err.upper is not None and err.lower <= err.upper
        assert "clumsy number is in" in str(err)

    def test_error_survives_pickle_and_copy(self):
        # Callers that pickle or copy a budget stop get the same bracket.
        for upper in (6, 4, None):
            err = BudgetExceededError(4, upper, 1001)
            for back in (pickle.loads(pickle.dumps(err)), copy.copy(err)):
                assert type(back) is BudgetExceededError
                assert (back.lower, back.upper, back.nodes, str(back)) == \
                    (4, upper, 1001, str(err))

    def test_time_budget_zero(self):
        # the clock is first read at node 1, so a spent deadline stops the
        # solve there
        with pytest.raises(BudgetExceededError):
            clumsy_number(ell(3, 6), mode="free", time_budget=0.0)

    def test_bracket_closes_once_witness_size_is_found(self):
        # The witness phase spends the last nodes: a budget of exactly the
        # full solve's nodes suffices, and one node less stops the witness
        # phase, which reports the proven size 4 with the repaired
        # construction's 4 (the sweep has 6, the construction 5) as the
        # upper end.
        full = clumsy_number(ell(1, 2), Board(6), "free")
        assert full.clumsy_number == 4
        again = clumsy_number(ell(1, 2), Board(6), "free",
                              node_budget=full.nodes_explored)
        assert (again.clumsy_number, again.witness, again.nodes_explored) == \
            (4, full.witness, full.nodes_explored)
        with pytest.raises(BudgetExceededError) as ei:
            clumsy_number(ell(1, 2), Board(6), "free",
                          node_budget=full.nodes_explored - 1)
        err = ei.value
        assert (err.lower, err.upper) == (4, 4)
        assert err.nodes == full.nodes_explored

    def test_clock_read_when_a_batch_steps_over_a_check(self):
        # One spend may add many nodes: crossing node 1 or a multiple of
        # 4096 reads the clock wherever the count lands.  A search over no
        # placements holds just the budget and the bracket it reports.
        s = _Search((), None, 10 ** 9, -1.0)
        s.lower, s.upper = 3, 7
        with pytest.raises(BudgetExceededError) as ei:
            s.spend(5000)
        assert (ei.value.lower, ei.value.upper, ei.value.nodes) == (3, 7, 5000)

    def test_one_node_ticks_read_the_clock_and_hold_the_node_budget(self):
        # The witness phase counts its candidates one at a time.
        s = _Search((), None, 10 ** 9, -1.0)
        with pytest.raises(BudgetExceededError) as ei:
            s.spend(1)
        assert (ei.value.lower, ei.value.upper, ei.value.nodes) == (0, None, 1)
        s = _Search((), None, 2)
        s.lower, s.upper = 4, 6
        s.spend(1)
        s.spend(1)
        with pytest.raises(BudgetExceededError) as ei:
            s.spend(1)
        assert (ei.value.lower, ei.value.upper, ei.value.nodes) == (4, 6, 3)

    def test_negative_node_budget_rejected(self):
        with pytest.raises(ValueError, match="node budget"):
            clumsy_number(straight_v(5), mode="free", node_budget=-5)

    @pytest.mark.parametrize("budget", [1000.5, 2.0])
    def test_fractional_node_budget_rejected(self, budget):
        # Node counts are integers; a float budget would report a float
        # count such as 1001.5 nodes.
        with pytest.raises(TypeError):
            clumsy_number(tee(1, 1), Board(7), node_budget=budget)

    def test_bool_node_budget_counts_as_int(self):
        with pytest.raises(BudgetExceededError) as ei:
            clumsy_number(tee(1, 1), Board(7), node_budget=True)
        assert ei.value.nodes == 2 and type(ei.value.nodes) is int

    @pytest.mark.parametrize("seconds", [float("nan"), -1.0])
    def test_nan_or_negative_time_budget_rejected(self, seconds):
        # time.monotonic() > nan is always False, so a NaN deadline would
        # let this open instance run on.
        with pytest.raises(ValueError, match="time budget"):
            clumsy_number(straight_v(3), Board(9), "free", time_budget=seconds)

    def test_infinite_time_budget_is_no_limit(self):
        res = clumsy_number(ell(1, 2), Board(6), "free", time_budget=float("inf"))
        assert res.clumsy_number == 4

    def test_zero_node_budget_stops_at_the_first_node(self):
        with pytest.raises(BudgetExceededError) as ei:
            clumsy_number(straight_v(5), mode="free", node_budget=0)
        assert ei.value.nodes == 1

    def test_time_budget_zero_stops_a_small_solve(self):
        # The clock is read on the first node, not only every 4096 nodes.
        with pytest.raises(BudgetExceededError) as ei:
            clumsy_number(plus(1), Board(5), "free", time_budget=0.0)
        err = ei.value
        # The construction's one plus closes the bracket the sweep left at
        # [1, 2].
        assert (err.lower, err.upper, err.nodes) == (1, 1, 1)


def test_depth_beyond_the_recursion_limit():
    # Monominoes fixed on 33x33: the refuter's call at cp = 1,089 and the
    # witness phase both go 1,089 picks deep, far past Python's recursion
    # limit.  The search numbers the placements border-first, and the
    # witness comes back in placement order: all of them.
    shape, board = rect(1, 1), Board(33)
    _, masks, cells = _tables(shape, board, "fixed")
    s = _Search(cells, _orbits(_symmetry_group(shape, board, "fixed"), masks, board.n),
                10 ** 9)
    full = (1 << len(s.bit)) - 1
    found, allowed = _complete(s, full, full, 1089)
    got = _lex_first(s, allowed, found)
    assert len(found) == 1089 and got == list(range(1089))
    arr = Arrangement(board, shape, "fixed", _placements_at(shape, board, "fixed", got))
    assert is_valid(arr) and is_maximal(arr)


class TestOracleGuards:
    def test_hard_placement_limit(self):
        # 96 placements: refused outright
        with pytest.raises(OracleGuardError, match="placements"):
            oracle_clumsy_number(ell(2, 7), Board(10), "free")

    def test_soft_cap_exhausted(self):
        # 48 placements force the k cap, and the true answer is 6 > 4
        with pytest.raises(OracleGuardError):
            oracle_clumsy_number(straight_v(3), Board(6), "free")

    def test_small_instance_unguarded(self):
        assert oracle_clumsy_number(plus(1), Board(5), "free") == 1

    def test_mode_is_checked(self):
        # "Fixed" is no mode; it must not pass as free, whose value differs.
        assert oracle_clumsy_number(ell(1, 2), Board(5), "fixed") == 2
        assert oracle_clumsy_number(ell(1, 2), Board(5), "free") == 3
        with pytest.raises(ValueError, match="mode"):
            oracle_clumsy_number(ell(1, 2), Board(5), "Fixed")


class TestSymmetry:
    def test_orbit_minima_on_symmetric_instance(self):
        assert first_picks(plus(1), Board(5), "free") == (0, 1, 4)

    def test_fixed_mode_uses_the_board_symmetries(self):
        # The nine 2x2 placements on 4x4 form the corner, edge and centre
        # orbits of the square.
        assert first_picks(rect(2, 2), Board(4), "fixed") == (0, 1, 4)

    def test_fixed_square_on_nine_opens_at_ten_candidates(self):
        # 64 placements, one per cell of an 8x8 grid: 10 orbits under D4.
        assert len(first_picks(rect(2, 2), Board(9), "fixed")) == 10

    @pytest.mark.parametrize("shape,n,mode", [(plus(1), 6, "free"), (rect(2, 2), 6, "fixed"),
                                              (ell(1, 2), 6, "free"), (ell(1, 2), 6, "fixed"),
                                              (tee(1, 1), 7, "free"),
                                              (straight_v(3), 7, "fixed")])
    def test_orbit_masks_are_closed_under_the_group(self, shape, n, mode):
        group = _symmetry_group(shape, Board(n), mode)
        assert group[0] == list(range(len(group[0])))
        _, masks, cells = _tables(shape, Board(n), mode)
        perm, pos, orbits = _orbits(group, masks, n)
        # bit j is placement perm[j], placement p is bit pos[p], and
        # orbits[j] is the orbit of bit j.
        assert sorted(perm) == list(range(len(perm)))
        assert all(pos[p] == j for j, p in enumerate(perm))
        # Border-first from the highest bit: by the distance of the deepest
        # cell to the nearest edge, ties by placement index.
        depth = [max(min(b % n, n - 1 - b % n, b // n, n - 1 - b // n) for b in cs)
                 for cs in cells]
        first = perm[::-1]
        assert first == sorted(first, key=lambda p: (depth[p], p))
        for j, orbit in enumerate(orbits):
            assert orbit >> j & 1
            for g in group:
                moved = 0
                for i in range(orbit.bit_length()):
                    if orbit >> i & 1:
                        moved |= 1 << pos[g[perm[i]]]
                assert moved == orbit
