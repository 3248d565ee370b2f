"""Spans around calls into clumsypack's public functions, recorded from outside.

The tracer replaces each listed function at every module attribute of the
package that holds it.  ``from .packing import placement_masks`` binds the
same function object into ``solver``, ``theorems`` and ``cli``, so patching
``packing`` alone would miss those calls.  A listed name the package no
longer has is skipped, and its metrics read zero.

Spans stay in memory as ``[name, start, end, parent, tag]`` rows until the
pass ends.  A span's self time is its duration minus the durations of the
spans opened directly inside it.
"""

from __future__ import annotations

import os
import sys
from collections import Counter, defaultdict

PACKAGE = "clumsypack"

# (module, attribute) of each function timed as a span.
SPANNED = (
    ("packing", "placement_masks"),
    ("packing", "enumerate_placements"),
    ("packing", "validate"),
    ("packing", "is_maximal"),
    ("solver", "clumsy_number"),
    ("solver", "greedy_upper_bound"),
    ("theorems", "build_construction"),
    ("theorems", "check_theorem"),
    ("files", "save_arrangement"),
    ("files", "load_arrangement"),
    ("render", "render_ascii"),
    ("render", "render_svg"),
    ("cli", "main"),
)

# Only counted: these are called too often, or do too little, for a span.
COUNTED = (
    ("geometry", "rotate"),
    ("solver", "ProcessPoolExecutor"),
)

CLI_COMMANDS = ("solve", "verify", "render", "table", "scan")

# name -> (unit, better), in the order BENCHMARK.json lists them.
LAYER_METRICS = {
    "geometry.rotate.calls": ("count", "lower"),
    "packing.placement_masks.s": ("s", "lower"),
    "packing.placement_masks.calls": ("count", "lower"),
    "packing.enumerate_placements.s": ("s", "lower"),
    "packing.placements": ("count", "lower"),
    "packing.validate.s": ("s", "lower"),
    "packing.is_maximal.s": ("s", "lower"),
    "solver.clumsy_number.self_s": ("s", "lower"),
    "solver.clumsy_number.calls": ("count", "lower"),
    "solver.nodes_per_s": ("1/s", "higher"),
    "solver.conflict_edges": ("count", "lower"),
    "solver.greedy_upper_bound.s": ("s", "lower"),
    "solver.greedy_gap": ("count", "lower"),
    "solver.pool_starts": ("count", "lower"),
    "theorems.build_construction.s": ("s", "lower"),
    "theorems.check_theorem.s": ("s", "lower"),
    "files.save_arrangement.s": ("s", "lower"),
    "files.load_arrangement.s": ("s", "lower"),
    "files.bytes": ("bytes", "lower"),
    "render.render_ascii.s": ("s", "lower"),
    "render.render_svg.s": ("s", "lower"),
    "cli.main.self_s": ("s", "lower"),
    **{f"cli.{cmd}.s": ("s", "lower") for cmd in CLI_COMMANDS},
    "trace.overhead_s": ("s", "lower"),
}


class Tracer:
    """Installs the wrappers, keeps the spans, and sums them per layer."""

    def __init__(self, clock):
        self.clock = clock
        self.spans: list[list] = []
        self.calls: Counter = Counter()
        self.tables: dict = {}
        self.solves: list[tuple] = []
        self.file_paths: list[str] = []
        self._open: list[int] = []
        self._patches: list[tuple] = []

    def _modules(self):
        return [m for name, m in list(sys.modules.items())
                if m is not None
                and (name == PACKAGE or name.startswith(PACKAGE + "."))]

    def install(self) -> None:
        for targets, make in ((SPANNED, self._spanned), (COUNTED, self._counted)):
            for mod, attr in targets:
                module = sys.modules.get(f"{PACKAGE}.{mod}")
                original = getattr(module, attr, None)
                if original is None:
                    continue
                wrapper = make(f"{mod}.{attr}", original)
                for m in self._modules():
                    for key, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, key, wrapper)
                            self._patches.append((m, key, original))

    def uninstall(self) -> None:
        for m, key, original in reversed(self._patches):
            setattr(m, key, original)
        self._patches.clear()

    def _counted(self, name: str, fn):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _spanned(self, name: str, fn):
        spans, stack, clock = self.spans, self._open, self.clock
        record = self._recorders().get(name)

        def wrapper(*args, **kwargs):
            idx = len(spans)
            tag = str(args[0][0]) if name == "cli.main" and args and args[0] else None
            spans.append([name, clock(), None, stack[-1] if stack else -1, tag])
            stack.append(idx)
            out = exc = None
            try:
                out = fn(*args, **kwargs)
                return out
            except BaseException as e:
                exc = e
                raise
            finally:
                spans[idx][2] = clock()
                stack.pop()
                if record is not None:
                    record(args, kwargs, out, exc)
        return wrapper

    def _recorders(self) -> dict:
        """Per-function hooks that keep raw call data; the work of turning
        it into metrics waits until the pass is over."""

        def tables(args, kwargs, out, exc):
            if out is not None:
                self.tables.setdefault(args + tuple(sorted(kwargs.items())), len(out[0]))

        def solves(args, kwargs, out, exc):
            self.solves.append((args, kwargs, out, exc))

        def files(args, kwargs, out, exc):
            path = kwargs.get("path", args[-1] if args else None)
            if isinstance(path, (str, os.PathLike)):
                self.file_paths.append(os.fspath(path))

        return {"packing.placement_masks": tables,
                "solver.clumsy_number": solves,
                "files.save_arrangement": files,
                "files.load_arrangement": files}

    def summary(self, package) -> dict[str, float]:
        """Per-layer metrics of everything traced so far.

        Call after uninstall: the conflict-edge count and the greedy gap are
        derived here through the package's public functions, untimed.
        """
        child_time: dict[int, float] = defaultdict(float)
        for name, start, end, parent, tag in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        self_s: dict[str, float] = defaultdict(float)
        count: Counter = Counter()
        cli_s: dict[str, float] = defaultdict(float)
        for idx, (name, start, end, parent, tag) in enumerate(self.spans):
            self_s[name] += end - start - child_time[idx]
            count[name] += 1
            if name == "cli.main":
                cli_s[tag] += end - start

        nodes = 0
        edges = 0
        greedy_gap = 0
        for args, kwargs, out, exc in self.solves:
            shape, board, mode = _solve_instance(package, args, kwargs)
            _, masks = package.packing.placement_masks(shape, board, mode)
            edges += sum(1 for i, m in enumerate(masks)
                         for n in masks[i + 1:] if m & n)
            if out is not None:
                nodes += out.nodes_explored
                greedy = package.greedy_upper_bound(shape, board, mode).size
                greedy_gap += greedy - out.clumsy_number
            elif isinstance(exc, package.BudgetExceededError):
                nodes += exc.nodes
        solver_self = self_s["solver.clumsy_number"]

        metrics = {
            "geometry.rotate.calls": self.calls["geometry.rotate"],
            "packing.placement_masks.s": self_s["packing.placement_masks"],
            "packing.placement_masks.calls": count["packing.placement_masks"],
            "packing.enumerate_placements.s": self_s["packing.enumerate_placements"],
            "packing.placements": sum(self.tables.values()),
            "packing.validate.s": self_s["packing.validate"],
            "packing.is_maximal.s": self_s["packing.is_maximal"],
            "solver.clumsy_number.self_s": solver_self,
            "solver.clumsy_number.calls": count["solver.clumsy_number"],
            "solver.nodes_per_s": nodes / solver_self if solver_self > 0 else 0.0,
            "solver.conflict_edges": edges,
            "solver.greedy_upper_bound.s": self_s["solver.greedy_upper_bound"],
            "solver.greedy_gap": greedy_gap,
            "solver.pool_starts": self.calls["solver.ProcessPoolExecutor"],
            "theorems.build_construction.s": self_s["theorems.build_construction"],
            "theorems.check_theorem.s": self_s["theorems.check_theorem"],
            "files.save_arrangement.s": self_s["files.save_arrangement"],
            "files.load_arrangement.s": self_s["files.load_arrangement"],
            "files.bytes": sum(os.path.getsize(p) for p in self.file_paths
                               if os.path.exists(p)),
            "render.render_ascii.s": self_s["render.render_ascii"],
            "render.render_svg.s": self_s["render.render_svg"],
            "cli.main.self_s": self_s["cli.main"],
        }
        for cmd in CLI_COMMANDS:
            metrics[f"cli.{cmd}.s"] = cli_s[cmd]
        return metrics

    def span_rows(self) -> list[dict]:
        return [{"name": name if tag is None else f"{name}:{tag}",
                 "start": start, "end": end, "parent": parent}
                for name, start, end, parent, tag in self.spans]


def _solve_instance(package, args, kwargs):
    """(shape, board, mode) of one clumsy_number call, defaults filled in
    as the solver fills them."""
    shape = kwargs.get("shape", args[0])
    board = kwargs.get("board", args[1] if len(args) > 1 else None)
    mode = kwargs.get("mode", args[2] if len(args) > 2 else "free")
    if board is None:
        board = package.default_board(shape)
    return shape, board, mode
