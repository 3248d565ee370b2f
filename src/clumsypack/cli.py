"""Command line interface.

Subcommands: solve, verify, table, render, scan, oracle.  Exit codes are
part of the contract: 0 success (or a consistent check), 1 verification
failure or a refuted claim, 2 usage or input errors, 3 search budget
exhausted.
"""

from __future__ import annotations

import argparse
import itertools
import sys
from typing import Iterable, Sequence

from .files import FileFormatError, load_arrangement, save_arrangement
from .geometry import Cell, Shape, make_shape
from .packing import Board, default_board, is_maximal, validate
from .render import render_ascii, render_svg
from .solver import (DEFAULT_NODE_BUDGET, BudgetExceededError,
                     OracleGuardError, clumsy_number, oracle_clumsy_number)
from .theorems import (TheoremId, check_theorem, formula_value, instance_of,
                       route, ConstructionError, HypothesisError)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


def _parse_params(text: str) -> tuple[int, ...]:
    if not text:
        return ()
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ValueError(f"params must be comma-separated integers, got {text!r}") from None


def _parse_cells(text: str) -> tuple[Cell, ...]:
    cells = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = chunk.split(",")
        if len(parts) != 2:
            raise ValueError(f"cells must look like 'col,row;col,row;...', got {text!r}")
        try:
            cells.append(Cell(int(parts[0]), int(parts[1])))
        except ValueError:
            raise ValueError(f"cell coordinates must be integers, got {chunk!r}") from None
    if not cells:
        raise ValueError("empty cell list")
    return tuple(cells)


def _parse_range(text: str) -> range:
    """'N' or 'N..M', inclusive."""
    lo, sep, hi = text.partition("..")
    try:
        a = int(lo)
        b = int(hi) if sep else a
    except ValueError:
        raise ValueError(f"range must be 'N' or 'N..M', got {text!r}") from None
    if b < a:
        raise ValueError(f"empty range {text!r}")
    return range(a, b + 1)


def _shape_from_args(args: argparse.Namespace) -> Shape:
    cells = _parse_cells(args.custom_cells) if args.custom_cells else None
    anchor = None
    if getattr(args, "anchor", None):
        pair = _parse_cells(args.anchor)
        if len(pair) != 1:
            raise ValueError("anchor must be a single 'col,row' pair")
        anchor = pair[0]
    return make_shape(args.family, _parse_params(args.params or ""),
                      custom_cells=cells, anchor=anchor)


def _board_from_args(args: argparse.Namespace, shape: Shape) -> Board:
    if args.board is not None:
        return Board(args.board)
    return default_board(shape)


def _add_shape_options(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--family", required=True,
                     help="shape family: rect, straight-v, straight-h, L, T, "
                          "plus, gen-T, gen-plus, custom")
    sub.add_argument("--params", default="",
                     help="comma-separated family parameters, e.g. '3,6'")
    sub.add_argument("--custom-cells", default=None,
                     help="cells for family custom, e.g. '1,1;2,1;1,2'")
    sub.add_argument("--anchor", default=None,
                     help="anchor cell for family custom, e.g. '1,1'")
    sub.add_argument("--board", type=int, default=None,
                     help="board side length (default: one cell per shape cell)")
    sub.add_argument("--mode", choices=("fixed", "free"), default="free",
                     help="fixed = translations only, free = rotations too")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="clumsypack",
        description="Smallest unextendable packings of one polyomino on a square board.")
    subs = parser.add_subparsers(dest="command", required=True)

    solve = subs.add_parser("solve", help="compute the clumsy packing number exactly")
    _add_shape_options(solve)
    solve.add_argument("--node-budget", type=int, default=DEFAULT_NODE_BUDGET)
    solve.add_argument("--time-budget", type=float, default=None,
                       help="wall-clock limit in seconds")
    solve.add_argument("--out", default=None, help="write the witness to this file")

    verify = subs.add_parser("verify", help="check an arrangement file")
    verify.add_argument("file")

    table = subs.add_parser("table", help="tabulate closed-form values over parameter ranges")
    table.add_argument("--family", required=True)
    table.add_argument("--mode", choices=("fixed", "free"), required=True)
    table.add_argument("--params", required=True,
                       help="comma-separated ranges, e.g. '2..4,2..4' or '1..5'")
    table.add_argument("--check", action="store_true",
                       help="also build each construction and run the solver "
                            "on small instances")

    render = subs.add_parser("render", help="draw an arrangement file")
    render.add_argument("file")
    render.add_argument("--format", choices=("ascii", "svg"), default="ascii")
    render.add_argument("--out", default=None, help="write to this file instead of stdout")

    scan = subs.add_parser("scan", help="sweep instances comparing solver against claims")
    scan.add_argument("id", choices=tuple(_SCANS))
    scan.add_argument("--limit", type=int, default=7,
                      help="largest shape size to include (default 7)")
    scan.add_argument("--node-budget", type=int, default=DEFAULT_NODE_BUDGET)
    scan.add_argument("--time-budget", type=float, default=None)

    oracle = subs.add_parser("oracle", help="recompute a small instance from the definition")
    _add_shape_options(oracle)

    return parser


def cmd_solve(args: argparse.Namespace) -> int:
    shape = _shape_from_args(args)
    board = _board_from_args(args, shape)
    try:
        result = clumsy_number(shape, board, args.mode,
                               node_budget=args.node_budget,
                               time_budget=args.time_budget)
    except BudgetExceededError as exc:
        upper = "?" if exc.upper is None else exc.upper
        print(f"budget exhausted after {exc.nodes} nodes: "
              f"cp in [{exc.lower}, {upper}]")
        return EXIT_BUDGET
    print(f"cp = {result.clumsy_number}")
    print(f"nodes = {result.nodes_explored}")
    print(f"time = {result.elapsed:.3f}s")
    print(render_ascii(result.witness))
    if args.out:
        save_arrangement(result.witness, args.out)
        print(f"witness written to {args.out}")
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    arrangement = load_arrangement(args.file)
    reason = validate(arrangement)
    if reason is not None:
        print(f"invalid: {reason}")
        return EXIT_FAIL
    size = arrangement.size
    if is_maximal(arrangement):
        print(f"valid, maximal, size {size}")
        return EXIT_OK
    print(f"valid, NOT maximal, size {size}")
    return EXIT_FAIL


def _format_value(value) -> str:
    if isinstance(value, tuple):
        return f"{value[0]}..{value[1]}"
    return str(value)


def _instance_label(family: str, params: Iterable[int], mode: str) -> str:
    return f"{family}({','.join(str(p) for p in params)}) {mode}"


def cmd_table(args: argparse.Namespace) -> int:
    ranges = [_parse_range(part) for part in args.params.split(",")]
    grid = [()]
    for r in ranges:
        grid = [g + (v,) for g in grid for v in r]
    failed = False
    for params in grid:
        label = _instance_label(args.family, params, args.mode)
        try:
            routed = route(args.family, args.mode, params)
        except (ValueError, TypeError):
            routed = None
        if routed is None:
            print(f"{label} | - | no applicable result")
            continue
        theorem, tparams = routed
        try:
            value = formula_value(theorem, *tparams)
        except HypothesisError as exc:
            print(f"{label} | {theorem.value} | hypothesis not met: {exc}")
            continue
        line = f"{label} | {theorem.value} | {_format_value(value)}"
        if args.check:
            report = check_theorem(theorem, tparams, with_solver=True)
            status = "consistent" if report.consistent else "INCONSISTENT"
            extras = []
            if report.construction_ok is not None:
                extras.append(f"construction {'ok' if report.construction_ok else 'BAD'}")
            if report.solver_value is not None:
                extras.append(f"solver {report.solver_value}")
            line += f" | {status}" + (f" ({'; '.join(extras)})" if extras else "")
            failed = failed or not report.consistent
        print(line)
    return EXIT_FAIL if failed else EXIT_OK


def cmd_render(args: argparse.Namespace) -> int:
    arrangement = load_arrangement(args.file)
    reason = validate(arrangement)
    if reason is not None:
        print(f"error: cannot render an invalid arrangement: {reason}",
              file=sys.stderr)
        return EXIT_FAIL
    text = render_ascii(arrangement) if args.format == "ascii" else render_svg(arrangement)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        print(f"written to {args.out}")
    else:
        print(text)
    return EXIT_OK


# scan id -> (family, parameter count, mode of the claims its rows check).
# L-wide rows are the conjecture's own fixed-mode instances; every other row
# is solved in free mode on the default board.
_SCANS = {
    "L-free-exact": ("L", 2, "free"),
    "T-free-exact": ("T", 2, "free"),
    "L-fixed-conj": ("L-wide", 2, "fixed"),
    "R-free": ("rect", 2, "fixed"),
    "T-gen": ("gen-T", 3, None),
    "plus-gen": ("gen-plus", 4, None),
}


def _scan_rows(scan_id: str, limit: int):
    """Yield (shape, board, mode, label, claim) rows for one scan sweep.

    Rows run over the parameter tuples in 1..limit, in lex order, whose shape
    exists and has at most limit cells.  claim is an int (equality), an
    (lo, hi) bracket, or None when nothing is claimed for the row.
    """
    family, arity, claim_mode = _SCANS[scan_id]
    for ps in itertools.product(range(1, limit + 1), repeat=arity):
        if sum(ps) - 1 > limit:
            continue  # every scanned family has at least sum(ps) - 1 cells
        try:
            if family == "L-wide":
                shape, board, mode = instance_of(TheoremId.CONJ_L_FIXED, ps)
                routed = TheoremId.CONJ_L_FIXED, ps
            else:
                shape = make_shape(family, ps)
                board, mode = default_board(shape), "free"
                routed = route(family, claim_mode, ps) if claim_mode else None
        except ValueError:
            continue
        if shape.size <= limit:
            claim = formula_value(routed[0], *routed[1]) if routed else None
            yield shape, board, mode, _instance_label(family, ps, mode), claim


def cmd_scan(args: argparse.Namespace) -> int:
    counts = {"supports": 0, "refutes": 0, "inconclusive": 0}
    for shape, board, mode, label, claim in _scan_rows(args.id, args.limit):
        try:
            result = clumsy_number(shape, board, mode,
                                   node_budget=args.node_budget,
                                   time_budget=args.time_budget)
        except BudgetExceededError as exc:
            upper = "?" if exc.upper is None else exc.upper
            claim_text = "no claim" if claim is None else f"claim = {_format_value(claim)}"
            print(f"{label}: budget exhausted (cp in [{exc.lower}, {upper}]), "
                  f"{claim_text} -> inconclusive")
            counts["inconclusive"] += 1
            continue
        cp = result.clumsy_number
        if claim is None:
            print(f"{label}: cp = {cp}, no claim -> inconclusive")
            counts["inconclusive"] += 1
        elif isinstance(claim, tuple):
            verdict = "supports" if claim[0] <= cp <= claim[1] else "refutes"
            print(f"{label}: cp = {cp}, claim = {_format_value(claim)} -> {verdict}")
            counts[verdict] += 1
        else:
            verdict = "supports" if cp == claim else "refutes"
            print(f"{label}: cp = {cp}, claim = {claim} -> {verdict}")
            counts[verdict] += 1
    print(f"supports: {counts['supports']}, refutes: {counts['refutes']}, "
          f"inconclusive: {counts['inconclusive']}")
    return EXIT_FAIL if counts["refutes"] else EXIT_OK


def cmd_oracle(args: argparse.Namespace) -> int:
    shape = _shape_from_args(args)
    board = _board_from_args(args, shape)
    value = oracle_clumsy_number(shape, board, args.mode)
    print(f"oracle cp = {value}")
    return EXIT_OK


_COMMANDS = {
    "solve": cmd_solve,
    "verify": cmd_verify,
    "table": cmd_table,
    "render": cmd_render,
    "scan": cmd_scan,
    "oracle": cmd_oracle,
}


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (FileFormatError, HypothesisError, ConstructionError,
            OracleGuardError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
