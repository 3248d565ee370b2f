"""Property tests: invariants that follow from the definition of the clumsy number."""

import math

from hypothesis import assume, given, settings, strategies as st

from clumsypack.geometry import Cell, custom, rotate
from clumsypack.packing import Board, is_maximal, is_valid, placement_masks
from clumsypack.solver import (ORACLE_SOFT_MAX_K, ORACLE_SOFT_PLACEMENTS,
                               BudgetExceededError, OracleGuardError, clumsy_number,
                               greedy_upper_bound, oracle_clumsy_number)

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
