import itertools

import pytest

from clumsypack.geometry import Cell, ell, plus, rect, tee
from clumsypack.packing import Arrangement, Board, Placement, is_maximal, is_valid
from clumsypack.solver import clumsy_number
from clumsypack.theorems import (BOUNDS_THEOREMS, CLAIMS, ConstructionError,
                                 HypothesisError, TheoremId, build_construction,
                                 build_example, check_theorem, formula_value,
                                 instance_of, route, theorem_from_name)

T = TheoremId


class TestNames:
    def test_round_trip(self):
        for t in TheoremId:
            assert theorem_from_name(t.value) is t

    def test_unknown(self):
        with pytest.raises(ValueError):
            theorem_from_name("Nope")

    def test_bounds_set(self):
        assert BOUNDS_THEOREMS == {T.L_FREE_BOUNDS, T.L_FREE_A1_BOUNDS,
                                   T.T_FREE_BOUNDS}


def small_params(t):
    """Every parameter tuple in 1..5 that meets the claim's hypothesis."""
    claim = CLAIMS[t]
    return [ps for ps in itertools.product(range(1, 6), repeat=len(claim.params))
            if claim.hypothesis(*ps)]


class TestRegistry:
    def test_one_claim_per_theorem(self):
        assert len(CLAIMS) == len(TheoremId) and set(CLAIMS) == set(TheoremId)

    def test_only_the_conjecture_has_no_construction(self):
        assert {t for t, c in CLAIMS.items() if c.construction is None} == {T.CONJ_L_FIXED}

    @pytest.mark.parametrize("t", list(TheoremId))
    def test_board_side_is_cell_count(self, t):
        # the scan command relies on this to solve every row on the default board
        assert small_params(t)
        for ps in small_params(t):
            shape, board, mode = instance_of(t, ps)
            assert board.n == shape.size and mode == CLAIMS[t].mode

    def test_bounds_set_is_the_bracket_claims(self):
        brackets = {t for t in TheoremId
                    if all(isinstance(formula_value(t, *ps), tuple) for ps in small_params(t))}
        scalars = {t for t in TheoremId
                   if all(isinstance(formula_value(t, *ps), int) for ps in small_params(t))}
        assert BOUNDS_THEOREMS == brackets == set(TheoremId) - scalars


class TestFormulas:
    @pytest.mark.parametrize("t,ps,val", [
        (T.STRAIGHT_FIXED, (4,), 4),
        (T.STRAIGHT_FREE, (7,), 7),
        (T.RECT_FIXED, (2, 2), 1),
        (T.RECT_FIXED, (2, 3), 2),
        (T.RECT_FIXED, (3, 2), 2),
        (T.RECT_FIXED, (4, 3), 4),
        (T.RECT_FIXED, (5, 5), 9),
        (T.L_FIXED_EQUAL, (3,), 1),
        (T.L_FREE_EQUAL, (2,), 2),
        (T.T_FIXED_WIDE, (1, 1), 1),
        (T.T_FIXED_WIDE, (1, 2), 1),
        (T.T_FIXED_WIDE, (2, 1), 2),
        (T.T_FIXED_WIDE, (4, 3), 2),
        (T.T_FIXED_TALL, (1, 3), 2),
        (T.T_FIXED_TALL, (1, 4), 2),
        (T.T_FREE_EQUAL, (5,), 2),
        (T.PLUS_ANY, (2,), 1),
    ])
    def test_point_values(self, t, ps, val):
        assert formula_value(t, *ps) == val

    @pytest.mark.parametrize("t,ps,val", [
        (T.L_FREE_BOUNDS, (2, 3), (2, 5)),
        (T.L_FREE_A1_BOUNDS, (4,), (2, 4)),
        (T.T_FREE_BOUNDS, (2, 1), (2, 4)),
    ])
    def test_brackets(self, t, ps, val):
        assert formula_value(t, *ps) == val

    @pytest.mark.parametrize("ps,val", [
        # the stated closed form goes negative on every small instance
        ((2, 1), -2),
        ((3, 1), -3),
        ((5, 1), -5),
    ])
    def test_wide_l_conjecture_values(self, ps, val):
        assert formula_value(T.CONJ_L_FIXED, *ps) == val


class TestHypotheses:
    @pytest.mark.parametrize("t,ps", [
        (T.RECT_FIXED, (1, 3)),      # needs both sides >= 2
        (T.RECT_FIXED, (3, 1)),
        (T.T_FIXED_WIDE, (1, 3)),    # wide needs b <= 2a
        (T.T_FIXED_TALL, (1, 2)),    # tall needs b > 2a
        (T.CONJ_L_FIXED, (2, 3)),    # needs b < a
        (T.L_FREE_BOUNDS, (3, 2)),   # needs a <= b
        (T.STRAIGHT_FIXED, (0,)),    # needs n >= 1
        (T.PLUS_ANY, (0,)),
    ])
    def test_rejected(self, t, ps):
        with pytest.raises(HypothesisError):
            formula_value(t, *ps)

    def test_wrong_arity(self):
        with pytest.raises(HypothesisError):
            formula_value(T.RECT_FIXED, 2)

    def test_hypothesis_error_is_value_error(self):
        assert issubclass(HypothesisError, ValueError)


class TestInstanceOf:
    def test_rect(self):
        shape, board, mode = instance_of(T.RECT_FIXED, (3, 6))
        assert shape == rect(3, 6)
        assert board.n == 18 and mode == "fixed"

    def test_wide_l_is_transposed(self):
        shape, board, mode = instance_of(T.CONJ_L_FIXED, (2, 1))
        assert shape.size == 4 and mode == "fixed" and board.n == 4
        # long arm horizontal: width exceeds height
        assert shape.width == 3 and shape.height == 2


class TestConstructions:
    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_straight(self, n):
        arr = build_construction(T.STRAIGHT_FIXED, n)
        assert is_valid(arr) and is_maximal(arr) and arr.size == n
        assert arr.occupied_cells() == set(arr.board.cells())  # full tiling

    @pytest.mark.parametrize("a,b", [(2, 2), (2, 3), (3, 2), (2, 5), (4, 3),
                                     (5, 5), (3, 6)])
    def test_rect_fixed(self, a, b):
        arr = build_construction(T.RECT_FIXED, a, b)
        assert is_valid(arr) and is_maximal(arr)
        assert arr.size == formula_value(T.RECT_FIXED, a, b)

    @pytest.mark.parametrize("a", [1, 2, 3])
    def test_l_fixed_equal(self, a):
        arr = build_construction(T.L_FIXED_EQUAL, a)
        assert is_valid(arr) and is_maximal(arr) and arr.size == 1

    @pytest.mark.parametrize("a", [1, 2, 3])
    def test_l_free_equal(self, a):
        arr = build_construction(T.L_FREE_EQUAL, a)
        assert is_valid(arr) and is_maximal(arr) and arr.size == 2

    @pytest.mark.parametrize("a,b", [(2, 3), (2, 4), (2, 5), (3, 4)])
    def test_l_free_five(self, a, b):
        arr = build_construction(T.L_FREE_BOUNDS, a, b)
        assert is_valid(arr) and is_maximal(arr) and arr.size == 5

    @pytest.mark.parametrize("b", [2, 3, 4, 5])
    def test_l_free_a1_four(self, b):
        arr = build_construction(T.L_FREE_A1_BOUNDS, b)
        assert is_valid(arr) and is_maximal(arr) and arr.size == 4

    @pytest.mark.parametrize("a,b", [(1, 1), (1, 2), (2, 1), (2, 4), (3, 2)])
    def test_t_fixed_wide(self, a, b):
        arr = build_construction(T.T_FIXED_WIDE, a, b)
        assert is_valid(arr) and is_maximal(arr)
        assert arr.size == formula_value(T.T_FIXED_WIDE, a, b)

    @pytest.mark.parametrize("a,b", [(1, 3), (1, 4), (1, 5), (2, 5)])
    def test_t_fixed_tall(self, a, b):
        arr = build_construction(T.T_FIXED_TALL, a, b)
        assert is_valid(arr) and is_maximal(arr)
        assert arr.size == formula_value(T.T_FIXED_TALL, a, b)

    @pytest.mark.parametrize("a", [1, 2, 3])
    def test_t_free_equal(self, a):
        arr = build_construction(T.T_FREE_EQUAL, a)
        assert is_valid(arr) and is_maximal(arr) and arr.size == 2

    @pytest.mark.parametrize("a,b", [(1, 2), (2, 1), (2, 3), (3, 1)])
    def test_t_free_four(self, a, b):
        arr = build_construction(T.T_FREE_BOUNDS, a, b)
        assert is_valid(arr) and is_maximal(arr) and arr.size == 4

    @pytest.mark.parametrize("a", [1, 2, 3, 4])
    def test_plus(self, a):
        arr = build_construction(T.PLUS_ANY, a)
        assert is_valid(arr) and is_maximal(arr) and arr.size == 1

    def test_fixed_mode_is_used(self):
        arr = build_construction(T.RECT_FIXED, 2, 3)
        assert arr.mode == "fixed"


class TestConstructionErrors:
    @pytest.mark.parametrize("t,ps", [
        (T.L_FREE_BOUNDS, (1, 3)),   # five-piece recipe needs a >= 2
        (T.L_FREE_BOUNDS, (2, 2)),   # and a < b
        (T.CONJ_L_FIXED, (2, 1)),    # no construction is known at all
        (T.L_FREE_A1_BOUNDS, (1,)),  # four-piece recipe needs b >= 2
    ])
    def test_raises(self, t, ps):
        with pytest.raises((ConstructionError, HypothesisError)):
            build_construction(t, *ps)


class TestCheckTheorem:
    def test_construction_only(self):
        rep = check_theorem(T.RECT_FIXED, (2, 3))
        assert rep.theorem is T.RECT_FIXED
        assert rep.params == (2, 3)
        assert rep.formula_value == 2
        assert rep.construction is not None and rep.construction_ok
        assert rep.solver_value is None
        assert rep.consistent

    def test_with_solver_equality(self):
        rep = check_theorem(T.RECT_FIXED, (2, 3), with_solver=True)
        assert rep.solver_value == 2 and rep.consistent

    def test_with_solver_bracket(self):
        rep = check_theorem(T.L_FREE_A1_BOUNDS, (2,), with_solver=True)
        assert rep.formula_value == (2, 4)
        assert rep.solver_value == 2
        assert rep.construction_ok and rep.consistent

    def test_conjecture_is_inconsistent(self):
        # formula says -2, the solver says 2, and there is no construction
        rep = check_theorem(T.CONJ_L_FIXED, (2, 1), with_solver=True)
        assert rep.construction is None and rep.construction_ok is None
        assert rep.formula_value == -2 and rep.solver_value == 2
        assert not rep.consistent

    def test_solver_skipped_on_large_instance(self):
        # rect(4,5) on a 20x20 board has 272 fixed placements, over the cap
        rep = check_theorem(T.RECT_FIXED, (4, 5), with_solver=True)
        assert rep.solver_value is None
        assert rep.construction_ok and rep.consistent


class TestRoute:
    @pytest.mark.parametrize("family,mode,ps,want", [
        ("straight-v", "fixed", (4,), (T.STRAIGHT_FIXED, (4,))),
        ("straight-h", "free", (3,), (T.STRAIGHT_FREE, (3,))),
        ("rect", "fixed", (3, 6), (T.RECT_FIXED, (3, 6))),
        ("rect", "fixed", (1, 5), (T.STRAIGHT_FIXED, (5,))),
        ("rect", "free", (5, 1), (T.STRAIGHT_FREE, (5,))),
        ("rect", "free", (2, 3), None),
        ("L", "fixed", (2, 2), (T.L_FIXED_EQUAL, (2,))),
        ("L", "fixed", (3, 1), (T.CONJ_L_FIXED, (3, 1))),
        ("L", "fixed", (1, 3), None),
        ("L", "free", (2, 2), (T.L_FREE_EQUAL, (2,))),
        ("L", "free", (1, 4), (T.L_FREE_A1_BOUNDS, (4,))),
        ("L", "free", (2, 5), (T.L_FREE_BOUNDS, (2, 5))),
        ("T", "fixed", (2, 3), (T.T_FIXED_WIDE, (2, 3))),
        ("T", "fixed", (1, 3), (T.T_FIXED_TALL, (1, 3))),
        ("T", "free", (2, 2), (T.T_FREE_EQUAL, (2,))),
        ("T", "free", (4, 3), (T.T_FREE_BOUNDS, (4, 3))),
        ("plus", "free", (2,), (T.PLUS_ANY, (2,))),
        ("plus", "fixed", (1,), (T.PLUS_ANY, (1,))),
        ("gen-T", "free", (1, 2, 3), None),
        ("gen-plus", "fixed", (1, 1, 2, 2), None),
        ("custom", "free", (), None),
    ])
    def test_table(self, family, mode, ps, want):
        assert route(family, mode, ps) == want


class TestExamples:
    def test_l36_exact(self):
        arr = build_example("L36")
        assert arr.board.n == 10 and arr.mode == "free"
        assert arr.placements == (Placement(0, Cell(2, 1)),
                                  Placement(0, Cell(3, 4)),
                                  Placement(0, Cell(7, 4)))
        assert is_valid(arr) and is_maximal(arr) and arr.size == 3

    def test_l27_found(self):
        arr = build_example("L27")
        assert arr.size == 4
        assert is_valid(arr) and is_maximal(arr)

    def test_t43_is_maximal_but_not_minimum(self):
        arr = build_example("T43")
        assert arr.size == 3
        assert is_valid(arr) and is_maximal(arr)
        # a smaller maximal arrangement exists, so 3 is not the clumsy number
        res = clumsy_number(tee(4, 3), Board(12), "free")
        assert res.clumsy_number == 2

    def test_r36_is_fixed_tiling_pattern(self):
        arr = build_example("R36_tiling")
        assert arr.size == 8 and arr.mode == "fixed"
        assert is_valid(arr) and is_maximal(arr)
        # reinterpreting the same placements with rotations allowed breaks
        # maximality: a rotated block still fits, so fixed mode matters
        free_view = Arrangement(arr.board, arr.shape, "free", arr.placements)
        assert not is_maximal(free_view)

    def test_unknown_example(self):
        with pytest.raises(ValueError):
            build_example("L99")
