"""Clumsy packings: smallest unextendable arrangements of one polyomino
on a finite square board."""

from .geometry import (Cell, Shape, custom, ell, gen_plus, gen_tee, make_shape,
                       plus, rect, rotate, straight_h, straight_v, tee)
from .packing import (Arrangement, Board, Placement, cells_of, default_board,
                      enumerate_placements, is_maximal, is_valid, validate)
from .solver import (BudgetExceededError, OracleGuardError, SolveResult,
                     clumsy_number, greedy_upper_bound, oracle_clumsy_number)
from .theorems import (ConstructionError, HypothesisError, TheoremId,
                       TheoremReport, build_construction, build_example,
                       check_theorem, formula_value, instance_of, route)
from .files import (ArrangementFile, FileFormatError, from_arrangement,
                    load_arrangement, save_arrangement, to_arrangement)
from .render import render_ascii, render_svg

__version__ = "0.1.0"

__all__ = [
    "Arrangement", "ArrangementFile", "Board", "BudgetExceededError", "Cell",
    "ConstructionError", "FileFormatError", "HypothesisError",
    "OracleGuardError", "Placement", "Shape", "SolveResult", "TheoremId",
    "TheoremReport", "build_construction", "build_example", "cells_of",
    "check_theorem", "clumsy_number", "custom", "default_board", "ell",
    "enumerate_placements", "formula_value", "from_arrangement", "gen_plus",
    "gen_tee", "greedy_upper_bound", "instance_of", "is_maximal", "is_valid",
    "load_arrangement", "make_shape", "oracle_clumsy_number", "plus", "rect",
    "render_ascii", "render_svg", "rotate", "route", "save_arrangement",
    "straight_h", "straight_v", "tee", "to_arrangement", "validate",
]
