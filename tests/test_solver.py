import pytest

from clumsypack.geometry import Cell, ell, plus, rect, straight_h, straight_v, tee
from clumsypack.packing import Arrangement, Board, Placement, is_maximal, is_valid
from clumsypack.solver import (BudgetExceededError, OracleGuardError,
                               _symmetry_firsts, clumsy_number,
                               first_maximal_arrangement, greedy_upper_bound,
                               oracle_clumsy_number)


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


class TestGreedy:
    def test_greedy_is_maximal(self):
        arr = greedy_upper_bound(ell(3, 6), Board(10), "free")
        assert is_valid(arr) and is_maximal(arr)

    def test_seed_is_kept(self):
        seed = (Placement(0, Cell(2, 1)), Placement(0, Cell(3, 4)),
                Placement(0, Cell(7, 4)))
        arr = greedy_upper_bound(ell(3, 6), Board(10), "free", seed=seed)
        assert arr.placements[:3] == seed
        assert arr.size == 3  # the seed is already maximal

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

    def test_time_budget_zero(self):
        # deadline checks are amortized every 4096 nodes, so the instance
        # must be big enough to reach the first check
        with pytest.raises(BudgetExceededError):
            clumsy_number(ell(3, 6), mode="free", time_budget=0.0)

    def test_bracket_closes_once_witness_size_is_found(self):
        # The symmetric pass proves cp = 4; a budget one node short of the
        # full solve runs out in the witness rerun, so the bracket is [4, 4].
        full = clumsy_number(ell(1, 2), Board(6), "free")
        assert full.clumsy_number == 4
        with pytest.raises(BudgetExceededError) as ei:
            clumsy_number(ell(1, 2), Board(6), "free",
                          node_budget=full.nodes_explored - 1)
        err = ei.value
        assert (err.lower, err.upper) == (4, 4)
        assert err.nodes == full.nodes_explored


class TestFirstMaximal:
    def test_no_small_maximal_arrangement(self):
        assert first_maximal_arrangement(tee(4, 3), Board(12), "free", 1) is None

    def test_finds_requested_size(self):
        arr = first_maximal_arrangement(tee(4, 3), Board(12), "free", 2)
        assert arr is not None
        assert arr.size == 2
        assert is_valid(arr) and is_maximal(arr)

    @pytest.mark.parametrize("size", [0, -1])
    def test_nonpositive_size_is_none_at_once(self, size):
        # placements exist, so no arrangement of this size is maximal; a
        # search would spend far more than this budget to find that out
        assert first_maximal_arrangement(ell(1, 2), Board(8), "free", size,
                                         node_budget=1000) is None


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


class TestSymmetry:
    def test_orbit_minima_on_symmetric_instance(self):
        assert _symmetry_firsts(plus(1), Board(5), "free", 9) == (0, 1, 4)

    def test_fixed_mode_not_reduced(self):
        firsts = _symmetry_firsts(rect(2, 2), Board(4), "fixed", 9)
        assert firsts == tuple(range(9))
