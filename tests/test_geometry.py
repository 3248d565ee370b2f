import pytest

from clumsypack.geometry import (Cell, Shape, custom, ell, gen_plus, gen_tee,
                                 make_shape, plus, rect, rotate, straight_h,
                                 straight_v, tee)


class TestConstructors:
    def test_rect_cells_and_anchor(self):
        s = rect(2, 3)
        assert s.size == 6
        assert s.width == 2 and s.height == 3
        assert s.anchor == Cell(1, 1)
        assert rect(4, 5).anchor == Cell(2, 2)
        assert rect(5, 4).anchor == Cell(2, 2)

    def test_straights(self):
        v = straight_v(5)
        assert v.cells == frozenset(Cell(1, j) for j in range(1, 6))
        assert v.anchor == Cell(1, 2)
        h = straight_h(5)
        assert h.cells == frozenset(Cell(i, 1) for i in range(1, 6))
        assert h.anchor == Cell(2, 1)
        assert straight_v(1).anchor == Cell(1, 1)

    def test_ell_cells(self):
        s = ell(2, 3)
        expected = {Cell(1, 1), Cell(2, 1), Cell(3, 1),
                    Cell(1, 2), Cell(1, 3), Cell(1, 4)}
        assert s.cells == frozenset(expected)
        assert s.anchor == Cell(1, 1)
        assert s.size == 6

    def test_tee_cells(self):
        s = tee(2, 1)
        expected = {Cell(1, 1), Cell(2, 1), Cell(3, 1), Cell(4, 1), Cell(5, 1),
                    Cell(3, 2)}
        assert s.cells == frozenset(expected)
        assert s.anchor == Cell(3, 1)

    def test_plus_cells(self):
        s = plus(1)
        expected = {Cell(2, 1), Cell(1, 2), Cell(2, 2), Cell(3, 2), Cell(2, 3)}
        assert s.cells == frozenset(expected)
        assert s.anchor == Cell(2, 2)
        assert plus(2).size == 9

    def test_gen_tee_matches_tee(self):
        # with equal arms the asymmetric T degenerates to the symmetric one
        assert gen_tee(2, 2, 3).cells == tee(2, 3).cells
        assert gen_tee(2, 2, 3).anchor == tee(2, 3).anchor

    def test_gen_tee_asymmetric(self):
        s = gen_tee(1, 2, 1)
        expected = {Cell(1, 1), Cell(2, 1), Cell(3, 1), Cell(4, 1), Cell(2, 2)}
        assert s.cells == frozenset(expected)
        assert s.anchor == Cell(2, 1)

    def test_gen_plus_matches_plus(self):
        assert gen_plus(2, 2, 2, 2).cells == plus(2).cells
        assert gen_plus(2, 2, 2, 2).anchor == plus(2).anchor

    def test_gen_plus_arms(self):
        s = gen_plus(1, 2, 1, 1)
        # horizontal bar in row 2, vertical bar in column 2
        expected = {Cell(1, 2), Cell(2, 2), Cell(3, 2), Cell(4, 2),
                    Cell(2, 1), Cell(2, 3)}
        assert s.cells == frozenset(expected)
        assert s.anchor == Cell(2, 2)
        assert s.size == 1 + 2 + 1 + 1 + 1

    def test_custom_default_anchor_is_least_cell(self):
        s = custom([Cell(5, 7), Cell(6, 7), Cell(5, 8)])
        assert s.cells == frozenset({Cell(1, 1), Cell(2, 1), Cell(1, 2)})
        assert s.anchor == Cell(1, 1)

    def test_custom_explicit_anchor_travels_with_normalization(self):
        s = custom([Cell(5, 7), Cell(6, 7), Cell(5, 8)], anchor=Cell(6, 7))
        assert s.anchor == Cell(2, 1)


class TestConstructorErrors:
    @pytest.mark.parametrize("a,b", [(0, 1), (2, 1), (3, 2), (-1, 5)])
    def test_ell_requires_short_arm_first(self, a, b):
        with pytest.raises(ValueError):
            ell(a, b)

    def test_rect_positive(self):
        with pytest.raises(ValueError):
            rect(0, 2)

    def test_tee_positive(self):
        with pytest.raises(ValueError):
            tee(1, 0)

    def test_gen_params_positive(self):
        with pytest.raises(ValueError):
            gen_tee(1, 0, 1)
        with pytest.raises(ValueError):
            gen_plus(1, 1, 1, 0)

    def test_shape_must_be_normalized(self):
        with pytest.raises(ValueError):
            Shape(frozenset({Cell(2, 2)}), Cell(2, 2))

    def test_anchor_must_be_a_cell(self):
        with pytest.raises(ValueError):
            Shape(frozenset({Cell(1, 1)}), Cell(2, 1))

    def test_empty_shape(self):
        with pytest.raises(ValueError):
            custom([])
        # custom() refuses an empty list before it builds a Shape.
        with pytest.raises(ValueError, match="^a shape needs at least one cell$"):
            Shape(frozenset(), Cell(1, 1))

    def test_custom_refuses_repeated_cell(self):
        # A set would drop the repeat and build a smaller piece.
        with pytest.raises(ValueError, match=r"^cell list repeats cell \(1, 1\)$"):
            custom([(1, 1), (2, 1), (1, 1)])

    @pytest.mark.parametrize("cells,anchor", [
        ({(1.0, 1), (2, 1)}, (1, 1)),
        ({("1", 1), (2, 1)}, (1, 1)),
        ({(1, 1), (2, 1)}, (1.0, 1)),
    ])
    def test_coordinates_must_be_integers(self, cells, anchor):
        # Refused here, not deep inside the placement tables.
        with pytest.raises(TypeError):
            Shape(frozenset(cells), anchor)
        with pytest.raises(TypeError):
            custom(cells, anchor)

    def test_bool_coordinates_become_ints(self):
        s = Shape({(True, 1), (2, True)}, (1, True))
        assert s == Shape({Cell(1, 1), Cell(2, 1)}, Cell(1, 1))
        assert all(type(v) is int for c in (*s.cells, s.anchor) for v in c)


class TestMakeShape:
    def test_dispatch(self):
        assert make_shape("rect", (2, 3)) == rect(2, 3)
        assert make_shape("L", (1, 2)) == ell(1, 2)
        assert make_shape("T", (2, 1)) == tee(2, 1)
        assert make_shape("plus", (2,)) == plus(2)
        assert make_shape("gen-T", (1, 2, 1)) == gen_tee(1, 2, 1)
        assert make_shape("gen-plus", (1, 1, 2, 1)) == gen_plus(1, 1, 2, 1)
        assert make_shape("straight-v", (4,)) == straight_v(4)
        assert make_shape("straight-h", (4,)) == straight_h(4)

    def test_case_insensitive(self):
        assert make_shape("RECT", (2, 2)) == rect(2, 2)
        assert make_shape("Gen-T", (1, 1, 1)) == gen_tee(1, 1, 1)

    def test_custom_requires_cells(self):
        with pytest.raises(ValueError, match="cell list"):
            make_shape("custom", ())

    def test_custom_takes_no_parameters(self):
        cells = [Cell(1, 1), Cell(2, 1)]
        assert make_shape("custom", (), custom_cells=cells) == custom(cells)
        with pytest.raises(ValueError,
                           match="family 'custom' takes no parameters, got 2"):
            make_shape("custom", (7, 9), custom_cells=cells)

    def test_named_family_rejects_custom_cells(self):
        # Dropping the list silently would give the standard shape.
        with pytest.raises(ValueError,
                           match="family 'L' takes no custom cells; only family custom does"):
            make_shape("L", (1, 2), custom_cells=[Cell(1, 1), Cell(2, 1)])

    def test_unknown_family(self):
        with pytest.raises(ValueError, match="unknown family"):
            make_shape("hexagon", (1,))

    def test_wrong_arity(self):
        with pytest.raises(ValueError, match="parameter"):
            make_shape("rect", (2,))
        with pytest.raises(ValueError, match="parameter"):
            make_shape("plus", (1, 2))

    # Truncating or parsing them would build another shape: L(1.5, 2) as L(1, 2).
    @pytest.mark.parametrize("family,params", [("L", (1.5, 2)), ("rect", ("2", "3")),
                                               ("plus", (2.0,))])
    def test_parameters_must_be_integers(self, family, params):
        with pytest.raises(TypeError):
            make_shape(family, params)


class TestRotation:
    # Anchor positions of the rotated L: the corner cell ends up at the
    # bounding-box corner matching the turn count.
    @pytest.mark.parametrize("a,b", [(1, 1), (2, 3), (3, 6)])
    def test_ell_rotation_anchors(self, a, b):
        s = ell(a, b)
        assert rotate(s, 1).anchor == Cell(b + 1, 1)
        assert rotate(s, 2).anchor == Cell(a + 1, b + 1)
        assert rotate(s, 3).anchor == Cell(1, a + 1)

    @pytest.mark.parametrize("a,b", [(1, 1), (4, 3), (2, 5)])
    def test_tee_rotation_anchors(self, a, b):
        s = tee(a, b)
        assert rotate(s, 1).anchor == Cell(b + 1, a + 1)
        assert rotate(s, 2).anchor == Cell(a + 1, b + 1)
        assert rotate(s, 3).anchor == Cell(1, a + 1)

    def test_rotation_preserves_size_and_metadata(self):
        s = ell(2, 4)
        r = rotate(s, 3)
        assert r.size == s.size
        assert r.family == "L" and r.params == (2, 4)

    def test_four_turns_is_identity(self):
        for s in (ell(1, 3), tee(2, 2), rect(2, 3), gen_tee(1, 2, 2)):
            assert rotate(s, 4) == s
            assert rotate(rotate(s, 1), 3) == s

    @pytest.mark.parametrize("m", [1.5, 3.0])
    def test_turn_count_must_be_an_integer(self, m):
        # 1.5 must not pass as some whole number of turns.
        with pytest.raises(TypeError):
            rotate(ell(1, 2), m)

    def test_plus_is_rotation_invariant(self):
        s = plus(2)
        for m in range(4):
            assert rotate(s, m) == s

    def test_ell_rotation_cells(self):
        r = rotate(ell(1, 2), 1)
        # one quarter turn clockwise: the column arm becomes the top row
        expected = {Cell(1, 1), Cell(2, 1), Cell(3, 1), Cell(3, 2)}
        assert r.cells == frozenset(expected)

