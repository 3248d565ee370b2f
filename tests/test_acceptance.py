"""Acceptance gate: one test per shipped claim, each printing a PASS line.

Every expected value here is an exact integer; there are no tolerances.
Timing guards use wall-clock budgets that are generous on any desktop.
"""

import math
import pathlib
import time

from clumsypack.files import dumps, from_arrangement, loads, save_arrangement, to_arrangement
from clumsypack.geometry import Cell, custom, ell, make_shape, plus, rect, straight_h, straight_v, tee
from clumsypack.packing import Arrangement, Board, Placement, is_maximal, is_valid
from clumsypack.render import render_ascii
from clumsypack.solver import clumsy_number, oracle_clumsy_number
from clumsypack.theorems import (TheoremId, build_construction, build_example,
                                 formula_value)

T = TheoremId


def report(num, text):
    print(f"[criterion {num}] {text}: PASS")


class _Clock:
    def __init__(self, limit):
        self.limit = limit
        self.t0 = time.monotonic()

    def check(self):
        elapsed = time.monotonic() - self.t0
        assert elapsed < self.limit, f"took {elapsed:.1f}s, limit {self.limit}s"
        return elapsed


def test_criterion_01_straights():
    clock = _Clock(5.0)
    for n in range(2, 6):
        for shape in (straight_v(n), straight_h(n)):
            for mode in ("fixed", "free"):
                assert clumsy_number(shape, mode=mode).clumsy_number == n
    for n in range(2, 5):
        for shape in (straight_v(n), straight_h(n)):
            for mode in ("fixed", "free"):
                assert oracle_clumsy_number(shape, mode=mode) == n
    elapsed = clock.check()
    report(1, f"straights = n for n=2..5, oracle agrees for n=2..4 "
              f"({elapsed:.1f}s)")


def test_criterion_02_fixed_rectangles():
    clock = _Clock(600.0)
    for a, b in ((2, 2), (2, 3), (3, 2)):
        want = formula_value(T.RECT_FIXED, a, b)
        assert oracle_clumsy_number(rect(a, b), mode="fixed") == want
    want33 = formula_value(T.RECT_FIXED, 3, 3)
    assert clumsy_number(rect(3, 3), mode="fixed").clumsy_number == want33 == 4
    for a in range(2, 6):
        for b in range(2, 6):
            arr = build_construction(T.RECT_FIXED, a, b)
            assert is_valid(arr) and is_maximal(arr)
            assert arr.size == formula_value(T.RECT_FIXED, a, b)
    # desk-scale stand-in for the large boards: the 8-piece 3x6 tiling
    # pattern verifies, certifying the upper bound of 8 on the 18x18 board
    big = build_construction(T.RECT_FIXED, 3, 6)
    assert is_valid(big) and is_maximal(big) and big.size == 8
    elapsed = clock.check()
    report(2, f"fixed rectangles: formula = oracle/solver, grid "
              f"constructions 2..5 + 8-piece 3x6 tiling ({elapsed:.1f}s)")


def test_criterion_03_fixed_l_equal_legs():
    clock = _Clock(10.0)
    for a in (1, 2):
        assert clumsy_number(ell(a, a), mode="fixed").clumsy_number == 1
        arr = build_construction(T.L_FIXED_EQUAL, a)
        assert is_valid(arr) and is_maximal(arr) and arr.size == 1
        assert arr.placements[0] == Placement(0, Cell(a + 1, 1))
    elapsed = clock.check()
    report(3, f"fixed equal-leg L blocks itself from anchor "
              f"(a+1,1) ({elapsed:.1f}s)")


def test_criterion_04_free_l():
    clock = _Clock(600.0)
    assert clumsy_number(ell(1, 1), mode="free").clumsy_number == 2
    assert clumsy_number(ell(2, 2), mode="free").clumsy_number == 2
    for a in range(1, 6):
        for b in range(a, 6):
            if a + b + 1 > 7:
                continue
            got = clumsy_number(ell(a, b), mode="free").clumsy_number
            assert 2 <= got <= 5, (a, b, got)
            if a == 1:
                assert got <= 4, (a, b, got)
    for a in range(2, 9):       # five-piece recipe: 2 <= a < b
        for b in range(a + 1, 9):
            if a + b + 1 > 9:
                continue
            arr = build_construction(T.L_FREE_BOUNDS, a, b)
            assert is_valid(arr) and is_maximal(arr) and arr.size == 5, (a, b)
    for b in range(2, 8):       # four-piece recipe: a = 1 < b, a+b+1 <= 9
        arr = build_construction(T.L_FREE_A1_BOUNDS, b)
        assert is_valid(arr) and is_maximal(arr) and arr.size == 4, b
    elapsed = clock.check()
    report(4, f"free L: exact small values, brackets on a+b+1<=7, "
              f"5- and 4-piece constructions to a+b+1<=9 ({elapsed:.1f}s)")


def test_criterion_05_fixed_t():
    pairs = ((1, 1), (1, 2), (2, 1), (1, 3), (1, 4))
    for a, b in pairs:
        theorem = T.T_FIXED_WIDE if b <= 2 * a else T.T_FIXED_TALL
        want = formula_value(theorem, a, b)
        assert oracle_clumsy_number(tee(a, b), mode="fixed") == want, (a, b)
        assert clumsy_number(tee(a, b), mode="fixed").clumsy_number == want
        arr = build_construction(theorem, a, b)
        assert is_valid(arr) and is_maximal(arr) and arr.size == want
    report(5, "fixed T: formula = oracle = solver = construction on "
              "five instances")


def test_criterion_06_free_t():
    assert clumsy_number(tee(1, 1), mode="free").clumsy_number == 2
    for a in range(1, 5):
        for b in range(1, 11):
            if 2 * a + b + 1 > 10:
                continue
            arr = build_construction(T.T_FREE_BOUNDS, a, b)
            assert is_valid(arr) and is_maximal(arr) and arr.size == 4, (a, b)
    # the documented three-piece 12x12 arrangement checks out as stated...
    example = build_example("T43")
    assert is_valid(example) and is_maximal(example) and example.size == 3
    # ...but it is not minimum: an exhaustive solve finds a smaller packing
    res = clumsy_number(tee(4, 3), Board(12), "free")
    assert res.clumsy_number == 2
    assert is_valid(res.witness) and is_maximal(res.witness)
    report(6, "free T: T(1,1) = 2, 4-piece constructions to 2a+b+1<=10; "
              "T(4,3) example is maximal at size 3, DISCREPANCY: solver "
              "proves the minimum is 2, so size 3 is not optimal")


def test_criterion_07_plus():
    clock = _Clock(30.0)
    for a in (1, 2):
        assert clumsy_number(plus(a), mode="free").clumsy_number == 1
    for a in range(1, 5):
        arr = build_construction(T.PLUS_ANY, a)
        assert is_valid(arr) and is_maximal(arr) and arr.size == 1
        assert arr.placements[0] == Placement(0, Cell(2 * a + 1, 2 * a + 1))
    elapsed = clock.check()
    report(7, f"plus: one centered piece jams the board, a=1..4 "
              f"({elapsed:.1f}s)")


def _board5_matrix():
    """Every family instance whose default board has side <= 5."""
    matrix = []
    for a in range(1, 6):
        for b in range(1, 6):
            if a * b <= 5:
                matrix.append(make_shape("rect", (a, b)))
    for n in range(2, 6):
        matrix.append(make_shape("straight-v", (n,)))
        matrix.append(make_shape("straight-h", (n,)))
    for a in range(1, 5):
        for b in range(a, 5):
            if a + b + 1 <= 5:
                matrix.append(make_shape("L", (a, b)))
    for a in range(1, 3):
        for b in range(1, 4):
            if 2 * a + b + 1 <= 5:
                matrix.append(make_shape("T", (a, b)))
    matrix.append(make_shape("plus", (1,)))
    return matrix


def test_criterion_08_oracle_equivalence():
    matrix = _board5_matrix()
    assert len(matrix) == 25
    checked = 0
    for shape in matrix:
        for mode in ("fixed", "free"):
            got = clumsy_number(shape, mode=mode).clumsy_number
            want = oracle_clumsy_number(shape, mode=mode)
            assert got == want, (shape.family, shape.params, mode, got, want)
            checked += 1
    report(8, f"solver = oracle on all {checked} instances with board "
              f"side <= 5")


def test_criterion_09_integer_identities():
    # first: the two ways of counting grid rows in the rectangle formula
    for a in range(2, 13):
        for b in range(2, 13):
            lhs = math.ceil((a * b - a + 1) / (2 * a - 1))
            rhs = (a * b - (3 * a - 1)) // (2 * a - 1) + 2
            assert lhs == rhs, (a, b)
    # second: bar-count bookkeeping for the tall fixed-T construction
    for a in range(1, 11):
        for b in range(1, 2 * a + 1):
            n = 2 * a + b + 1
            lhs = (n - (b + 1)) // (2 * b + 1) + 1
            rhs = math.ceil((n - b) / (2 * b + 1))
            assert lhs == rhs, (a, b)
    report(9, "both floor/ceiling identities hold on their full grids")


def _round_trip_corpus():
    """Twenty arrangements spanning families, modes, and edge cases."""
    corpus = [build_example(name) for name in
              ("L36", "L27", "T43", "R36_tiling")]
    corpus.append(build_construction(T.STRAIGHT_FIXED, 3))
    corpus.append(build_construction(T.RECT_FIXED, 2, 3))
    corpus.append(build_construction(T.L_FIXED_EQUAL, 2))
    corpus.append(build_construction(T.L_FREE_EQUAL, 2))
    corpus.append(build_construction(T.L_FREE_BOUNDS, 2, 3))
    corpus.append(build_construction(T.L_FREE_A1_BOUNDS, 3))
    corpus.append(build_construction(T.T_FIXED_WIDE, 2, 1))
    corpus.append(build_construction(T.T_FIXED_TALL, 1, 3))
    corpus.append(build_construction(T.T_FREE_EQUAL, 2))
    corpus.append(build_construction(T.T_FREE_BOUNDS, 1, 2))
    corpus.append(build_construction(T.PLUS_ANY, 2))
    corpus.append(clumsy_number(ell(1, 2), Board(4), "free").witness)
    corpus.append(clumsy_number(rect(2, 2), Board(4), "fixed").witness)
    corpus.append(clumsy_number(straight_h(3), Board(3), "free").witness)
    corpus.append(Arrangement(Board(3), plus(1), "free", ()))
    tromino = custom((Cell(1, 1), Cell(2, 1), Cell(2, 2)), anchor=Cell(2, 2))
    corpus.append(Arrangement(Board(4), tromino, "free",
                              (Placement(0, Cell(2, 1)),
                               Placement(0, Cell(2, 3)))))
    return corpus


def test_criterion_10_plumbing(run_cli, tmp_path):
    corpus = _round_trip_corpus()
    assert len(corpus) == 20
    for i, arr in enumerate(corpus):
        back = to_arrangement(loads(dumps(from_arrangement(arr))))
        assert back.board.n == arr.board.n
        assert back.mode == arr.mode
        assert back.occupied_cells() == arr.occupied_cells()
        if arr.shape.family != "custom":
            assert back.placements == arr.placements
            assert back.shape == arr.shape
    witnesses = [
        clumsy_number(ell(3, 6), Board(10), "free").witness,
        clumsy_number(tee(4, 3), Board(12), "free").witness,
        clumsy_number(plus(1), Board(5), "free").witness,
        clumsy_number(rect(2, 3), Board(6), "fixed").witness,
    ]
    for i, witness in enumerate(witnesses):
        path = tmp_path / f"witness{i}.yaml"
        save_arrangement(witness, str(path))
        code, out, _ = run_cli(["verify", str(path)])
        assert code == 0 and out.startswith("valid, maximal"), out
    golden = pathlib.Path(__file__).parent / "golden"
    renders = {
        "L36.txt": build_example("L36"),
        "T43.txt": build_example("T43"),
        "R36_tiling.txt": build_example("R36_tiling"),
        "plus1_center.txt": Arrangement(Board(5), plus(1), "free",
                                        (Placement(0, Cell(3, 3)),)),
        "sv2_full.txt": Arrangement(Board(2), straight_v(2), "fixed",
                                    (Placement(0, Cell(1, 1)),
                                     Placement(0, Cell(2, 1)))),
        "empty3.txt": Arrangement(Board(3), plus(1), "free", ()),
    }
    for name, arr in renders.items():
        assert render_ascii(arr) + "\n" == (golden / name).read_text(), name
    report(10, "20-file round trip, witness re-verification via the CLI, "
               "and 6 golden ASCII renders")
