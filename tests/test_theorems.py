import itertools
import re

import pytest

from clumsypack import packing
from clumsypack.geometry import Cell, custom, make_shape, rect, rotate, tee
from clumsypack.packing import (Arrangement, Board, Placement, default_board, is_maximal,
                                is_valid)
from clumsypack.solver import clumsy_number
from clumsypack.theorems import (CLAIMS, ConstructionError, HypothesisError,
                                 TheoremId, build_construction, build_example,
                                 check_theorem, formula_value, instance_of, route)

T = TheoremId


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
        assert brackets == set(TheoremId) - scalars
        assert brackets == {T.L_FREE_BOUNDS, T.L_FREE_A1_BOUNDS, T.T_FREE_BOUNDS}


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

    # Truncating them would report another instance: RECT_FIXED (2.7, 3) as (2, 3).
    @pytest.mark.parametrize("check", [
        lambda: formula_value(T.RECT_FIXED, 2.7, 3),
        lambda: instance_of(T.PLUS_ANY, (1.0,)),
        lambda: build_construction(T.RECT_FIXED, 2, "3"),
        lambda: check_theorem(T.RECT_FIXED, (2.0, 3)),
    ], ids=["formula_value", "instance_of", "build_construction", "check_theorem"])
    def test_parameters_must_be_integers(self, check):
        with pytest.raises(TypeError):
            check()


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
        assert len(arr.occupied_cells()) == n * n  # full tiling

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

    # The L and tall-T recipes are closed forms that check nothing
    # themselves, so their tests reach past the sizes a solver confirms.
    @pytest.mark.parametrize("a,b", [(a, b) for a in range(2, 8)
                                     for b in range(a + 1, 16 - a)])
    def test_l_free_five(self, a, b):
        arr = build_construction(T.L_FREE_BOUNDS, a, b)
        assert is_valid(arr) and is_maximal(arr) and arr.size == 5

    @pytest.mark.parametrize("b", range(2, 17))
    def test_l_free_a1_four(self, b):
        arr = build_construction(T.L_FREE_A1_BOUNDS, b)
        assert is_valid(arr) and is_maximal(arr) and arr.size == 4

    @pytest.mark.parametrize("a,b", [(1, 1), (1, 2), (2, 1), (2, 4), (3, 2)])
    def test_t_fixed_wide(self, a, b):
        arr = build_construction(T.T_FIXED_WIDE, a, b)
        assert is_valid(arr) and is_maximal(arr)
        assert arr.size == formula_value(T.T_FIXED_WIDE, a, b)

    @pytest.mark.parametrize("a,b", [(a, b) for a in range(1, 5)
                                     for b in range(2 * a + 1, 2 * a + 13)])
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

    @pytest.mark.parametrize("t", [t for t in TheoremId if CLAIMS[t].construction])
    def test_recipe_lies_on_the_claims_instance(self, t):
        built = 0
        for ps in itertools.product(range(1, 9), repeat=len(CLAIMS[t].params)):
            if not CLAIMS[t].hypothesis(*ps):
                continue
            try:
                arr = build_construction(t, *ps)
            except ConstructionError:
                continue  # the recipe's own side conditions fail
            shape, board, mode = instance_of(t, ps)
            got = arr.shape
            assert (got.cells, got.anchor, got.family, got.params) == \
                (shape.cells, shape.anchor, shape.family, shape.params), ps
            assert (arr.board, arr.mode) == (board, mode), ps
            built += 1
        assert built


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

    def test_construction_checked_in_one_occupancy_pass(self, monkeypatch):
        calls = []
        occupancy = packing._occupancy
        monkeypatch.setattr(packing, "_occupancy",
                            lambda arr: calls.append(arr) or occupancy(arr))
        assert check_theorem(T.RECT_FIXED, (2, 3)).construction_ok
        assert len(calls) == 1

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

    # Truncating them would route another instance: L free (1.9, 2) as L(1, 2).
    @pytest.mark.parametrize("family,ps", [("L", (1.9, 2)), ("rect", (2, 3.0)),
                                           ("straight-v", ("4",))])
    def test_parameters_must_be_integers(self, family, ps):
        with pytest.raises(TypeError):
            route(family, "free", ps)

    # A count the family does not take names no instance, so no theorem.
    @pytest.mark.parametrize("family,ps,message", [
        ("plus", (), "family 'plus' takes 1 parameter(s), got 0"),
        ("T", (1,), "family 'T' takes 2 parameter(s), got 1"),
        ("rect", (1, 2, 3), "family 'rect' takes 2 parameter(s), got 3"),
        ("straight-v", (), "family 'straight-v' takes 1 parameter(s), got 0"),
        ("custom", (2,), "family 'custom' takes no parameters, got 1"),
        ("hook", (1,), "unknown family 'hook'; expected one of rect, "),
    ])
    def test_parameter_count_must_fit_the_family(self, family, ps, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            route(family, "free", ps)

    @pytest.mark.parametrize("mode", ["Fixed", "FREE", "", "translations"])
    def test_unknown_mode_is_refused(self, mode):
        # A misspelt mode must not be routed as free mode.
        with pytest.raises(ValueError, match=f"mode must be one of .*, got {mode!r}"):
            route("L", mode, (1, 2))

    @pytest.mark.parametrize("mode", ["fixed", "free"])
    @pytest.mark.parametrize("family,arity", [
        ("straight-v", 1), ("straight-h", 1), ("rect", 2), ("L", 2), ("T", 2),
        ("plus", 1)])
    def test_claim_is_about_the_routed_instance(self, family, arity, mode):
        # The claim a routed instance is compared with must be about that
        # piece, up to rotation and mirroring, on its default board.
        routed = 0
        for ps in itertools.product(range(1, 8), repeat=arity):
            hit = route(family, mode, ps)
            if hit is None:
                continue
            try:
                claim_shape, board, claim_mode = instance_of(*hit)
                # L(a, b) with b < a is no shape of the family: the scan
                # reaches the wide-L conjecture through instance_of alone.
                shape = make_shape(family, ps)
            except ValueError:
                continue
            routed += 1
            mirror = custom([Cell(-c.col, c.row) for c in shape.cells])
            turns = {rotate(p, m).cells for p in (shape, mirror) for m in range(4)}
            assert claim_shape.cells in turns, (ps, hit)
            assert board == default_board(shape), (ps, hit)
            # Only a piece every quarter turn fixes has one claim for both
            # modes (PLUS_ANY is stated for free mode).
            if rotate(shape, 1).cells != shape.cells:
                assert claim_mode == mode, (ps, hit)
        assert routed


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
