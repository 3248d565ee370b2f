"""The four benchmark workloads: their inputs, timed operations and checks.

Each ``run_*`` function builds its inputs from the seed, calls
``Pass.begin``, runs every operation once (so the placement tables start
cold, as they do for a command-line user), calls ``Pass.end`` and only then
checks the results.  ``one_pass.py`` runs one of them in a fresh process.
"""

from __future__ import annotations

import contextlib
import io
import os
import random
import re
import sys
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import clumsypack as cp  # noqa: E402
import clumsypack.cli  # noqa: E402,F401
from clumsypack import files as cp_files  # noqa: E402
from tracing import Tracer  # noqa: E402

if not Path(cp.__file__).resolve().is_relative_to(ROOT / "src"):
    raise SystemExit(f"clumsypack was imported from {cp.__file__}, not from {ROOT / 'src'}")

# (family, params, board, mode, clumsy number), closed by the exact search.
EXACT = (
    ("rect", (2, 2), 8, "fixed", 9),
    ("rect", (2, 2), 9, "fixed", 9),
    ("T", (1, 1), 6, "free", 4),
    ("T", (1, 1), 7, "free", 6),
    ("L", (1, 2), 6, "free", 4),
    ("L", (1, 3), 7, "free", 4),
    ("L", (2, 7), 12, "free", 4),
)

FRONTIER_NODE_BUDGET = 1_000_000

# (family, params, board, mode, certified value or None, reference value).
# Certified values must lie in the bracket.  The reference values are MILP
# optima that no exact route has confirmed; they are reported, not checked.
FRONTIER = (
    ("straight-v", (4,), 8, "free", None, 9),
    ("L", (1, 2), 8, "free", None, 7),
    ("straight-v", (3,), 9, "free", None, 16),
    ("rect", (1, 1), 33, "fixed", 1089, 1089),
    ("rect", (2, 2), 10, "fixed", 9, 9),
    ("L", (1, 3), 8, "free", 6, 6),
)

# (family, params, board, clumsy number) solved through `clumsypack solve`;
# L(2,7), T(4,3) and L(9,9) have at least 150 placements, so the command's
# default worker count engages the process pool on them.
CLI_SOLVES = (
    ("L", (2, 7), 12, 4),
    ("T", (4, 3), 13, 3),
    ("L", (9, 9), None, 2),
    ("L", (3, 6), None, 3),
)

# (family, params, board) of the large greedy arrangements, all fixed mode.
CLI_LARGE = (
    ("rect", (1, 1), 40),
    ("rect", (2, 2), 30),
    ("straight-v", (3,), 30),
)


def sweep_claims() -> list[tuple]:
    """Every claim except the conjecture, up to a size cap per family."""
    T = cp.TheoremId
    claims = [(T.STRAIGHT_FIXED, (n,)) for n in range(1, 7)]
    claims += [(T.STRAIGHT_FREE, (n,)) for n in range(1, 7)]
    claims += [(T.RECT_FIXED, (a, b)) for a in range(2, 5) for b in range(2, 5)
               if a * b <= 9]
    claims += [(T.L_FIXED_EQUAL, (a,)) for a in range(1, 10)]
    claims += [(T.L_FREE_EQUAL, (a,)) for a in range(1, 10)]
    claims += [(T.L_FREE_BOUNDS, (a, b)) for a in range(2, 6) for b in range(a + 1, 10)
               if a + b + 1 <= 11]
    claims += [(T.L_FREE_A1_BOUNDS, (b,)) for b in range(2, 7)]
    claims += [(T.T_FIXED_WIDE if b <= 2 * a else T.T_FIXED_TALL, (a, b))
               for a in range(1, 6) for b in range(1, 12) if 2 * a + b + 1 <= 13]
    claims += [(T.T_FREE_EQUAL, (a,)) for a in range(1, 6)]
    claims += [(T.T_FREE_BOUNDS, (a, b)) for a in range(1, 6) for b in range(1, 10)
               if a != b and 2 * a + b + 1 <= 12]
    claims += [(T.PLUS_ANY, (a,)) for a in range(1, 6)]
    return claims


def _label(family, params, board, mode) -> str:
    return f"{family}({','.join(map(str, params))}) {mode} on {board}"


def _witness_problem(arrangement, expected_size: int) -> str | None:
    if not cp.is_valid(arrangement):
        return "witness is invalid"
    if not cp.is_maximal(arrangement):
        return "witness is not maximal"
    if arrangement.size != expected_size:
        return f"witness has {arrangement.size} pieces, expected {expected_size}"
    return None


class Pass:
    """Timed operations of one pass plus the checks made on their results.

    A workload builds its inputs, calls ``begin``, times its operations,
    calls ``end`` and only then checks the results, so neither the checks
    nor the input building reach the timings or the trace.
    """

    def __init__(self, clock, tracer: Tracer | None):
        self.clock = clock
        self.tracer = tracer
        self.setup_s: float | None = None
        self.ops = 0
        self.wall_s = 0.0
        self.raw_wall_s = 0.0
        self.failures: list[str] = []
        self.failed: set[str] = set()
        self.nodes = 0
        self.brackets: list[tuple[str, int, int]] = []

    def begin(self) -> None:
        self.setup_s = self.clock.now()
        if self.tracer is not None:
            self.tracer.install()

    def end(self) -> None:
        if self.tracer is not None:
            self.tracer.uninstall()

    def time(self, label: str, fn, *args, expect=(), **kwargs):
        """Run one operation inside the timed span.  Exceptions listed in
        ``expect`` are results; any other one fails the operation."""
        self.ops += 1
        start, raw_start = self.clock.now(), self.clock.wall()
        try:
            out = fn(*args, **kwargs)
        except expect as exc:
            out = exc
        except Exception:
            out = None
            self.fail(label, "raised\n" + traceback.format_exc())
        self.wall_s += self.clock.now() - start
        self.raw_wall_s += self.clock.wall() - raw_start
        return out

    def fail(self, label: str, reason: str) -> None:
        self.failures.append(f"{label}: {reason}")
        self.failed.add(label)


def run_exact(seed: int, p: Pass, workdir: Path) -> object:
    instances = list(EXACT)
    random.Random(seed).shuffle(instances)
    built = [(_label(f, ps, n, mode), cp.make_shape(f, ps), cp.Board(n), mode, want)
             for f, ps, n, mode, want in instances]
    p.begin()
    results = [p.time(label, cp.clumsy_number, shape, board, mode)
               for label, shape, board, mode, _ in built]
    p.end()
    for (label, _, _, _, want), res in zip(built, results):
        if res is None:
            continue
        p.nodes += res.nodes_explored
        p.brackets.append((label, res.clumsy_number, res.clumsy_number))
        if res.clumsy_number != want:
            p.fail(label, f"cp = {res.clumsy_number}, expected {want}")
        problem = _witness_problem(res.witness, res.clumsy_number)
        if problem:
            p.fail(label, problem)
    return [label for label, *_ in built]


def run_frontier(seed: int, p: Pass, workdir: Path) -> object:
    instances = list(FRONTIER)
    random.Random(seed).shuffle(instances)
    built = [(_label(f, ps, n, mode), cp.make_shape(f, ps), cp.Board(n), mode, cert)
             for f, ps, n, mode, cert, _ in instances]
    p.begin()
    results = [p.time(label, cp.clumsy_number, shape, board, mode,
                      node_budget=FRONTIER_NODE_BUDGET,
                      expect=(cp.BudgetExceededError,))
               for label, shape, board, mode, _ in built]
    p.end()
    for (label, shape, board, mode, cert), res in zip(built, results):
        if res is None:
            continue
        if isinstance(res, cp.BudgetExceededError):
            # A budget stop is a result: check that the bracket is proven.
            lower, upper = res.lower, res.upper
            p.nodes += res.nodes
            greedy = cp.greedy_upper_bound(shape, board, mode)
            if upper is None or not 1 <= lower <= upper:
                p.fail(label, f"bracket [{lower}, {upper}] is malformed")
                continue
            problem = _witness_problem(greedy, upper)
            if problem:
                p.fail(label, f"upper bound {upper} not realised by greedy: {problem}")
        else:
            lower = upper = res.clumsy_number
            p.nodes += res.nodes_explored
            problem = _witness_problem(res.witness, upper)
            if problem:
                p.fail(label, problem)
        p.brackets.append((label, lower, upper))
        if cert is not None and not lower <= cert <= upper:
            p.fail(label, f"certified value {cert} outside bracket [{lower}, {upper}]")
    return [label for label, *_ in built]


def run_sweep(seed: int, p: Pass, workdir: Path) -> object:
    claims = sweep_claims()
    random.Random(seed).shuffle(claims)
    p.begin()

    def check_claim(theorem, params):
        value = cp.formula_value(theorem, *params)
        construction = cp.build_construction(theorem, *params)
        ok = cp.is_valid(construction) and cp.is_maximal(construction)
        shape, board, mode = cp.instance_of(theorem, params)
        return value, construction, ok, cp.clumsy_number(shape, board, mode)

    results = [p.time(f"{t.value}{params}", check_claim, t, params)
               for t, params in claims]
    p.end()
    for (theorem, params), res in zip(claims, results):
        if res is None:
            continue
        label = f"{theorem.value}{params}"
        value, construction, ok, solved = res
        lo, hi = value if isinstance(value, tuple) else (value, value)
        cpn = solved.clumsy_number
        p.nodes += solved.nodes_explored
        p.brackets.append((label, cpn, cpn))
        if not ok or construction.size != hi:
            p.fail(label, f"construction of {construction.size} pieces is not "
                          f"a valid maximal arrangement of the claimed size {hi}")
        if not lo <= cpn <= hi:
            p.fail(label, f"solver cp = {cpn} contradicts the claim {value}")
        problem = _witness_problem(solved.witness, cpn)
        if problem:
            p.fail(label, problem)
    return [f"{t.value}{params}" for t, params in claims]


def _random_seed_placements(shape, board, rng: random.Random, count: int):
    """Up to ``count`` pairwise disjoint placements drawn at random."""
    placements = list(cp.enumerate_placements(shape, board, "fixed"))
    rng.shuffle(placements)
    chosen, occupied = [], set()
    for pl in placements:
        cells = cp.cells_of(shape, pl)
        if occupied.isdisjoint(cells):
            chosen.append(pl)
            occupied |= cells
            if len(chosen) == count:
                break
    return tuple(chosen)


def run_cli_io(seed: int, p: Pass, workdir: Path) -> object:
    rng = random.Random(seed)
    large = []
    for family, params, n in CLI_LARGE:
        shape, board = cp.make_shape(family, params), cp.Board(n)
        seeds = _random_seed_placements(shape, board, rng, n)
        large.append((f"{family}({','.join(map(str, params))}) fixed on {n}",
                      cp.greedy_upper_bound(shape, board, "fixed", seed=seeds)))

    commands = []  # (argv, exit code, expected cp or piece count, or None)
    solve_files = []
    for i, (family, params, n, want) in enumerate(CLI_SOLVES):
        path = str(workdir / f"solve{i}.yaml")
        argv = ["solve", "--family", family, "--params", ",".join(map(str, params))]
        if n is not None:
            argv += ["--board", str(n)]
        commands.append((argv + ["--out", path], 0, want))
        solve_files.append((path, want))
    for i, (path, want) in enumerate(solve_files):
        commands.append((["verify", path], 0, want))
        commands.append((["render", path, "--format", "svg",
                          "--out", str(workdir / f"solve{i}.svg")], 0, want))
    large_files = [(str(workdir / f"large{i}.yaml"), arr) for i, (_, arr) in enumerate(large)]
    large_commands = []
    for i, (path, arr) in enumerate(large_files):
        large_commands.append((["verify", path], 0, arr.size))
        large_commands.append((["render", path, "--format", "svg",
                                "--out", str(workdir / f"large{i}.svg")], 0, arr.size))
    tail_commands = [
        (["table", "--family", "L", "--mode", "free", "--params", "1..4,1..6", "--check"],
         0, None),
        (["scan", "L-fixed-conj", "--limit", "9"], 1, None),
    ]
    inputs = ([argv for argv, _, _ in commands + large_commands + tail_commands]
              + [[label, [(q.rotation, *q.anchor_pos) for q in arr.placements]]
                 for label, arr in large])
    p.begin()

    def cli(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cp.cli.main(argv)
        return code, out.getvalue(), err.getvalue()

    outcomes = [(c, p.time(" ".join(c[0]), cli, c[0])) for c in commands]
    for path, arr in large_files:
        p.time(f"save {path}", cp.save_arrangement, arr, path)
    outcomes += [(c, p.time(" ".join(c[0]), cli, c[0]))
                 for c in large_commands + tail_commands]
    p.end()

    for (argv, want_code, want), res in outcomes:
        label = " ".join(argv)
        if res is None:
            continue
        code, out, err = res
        if code != want_code:
            p.fail(label, f"exit code {code}, expected {want_code}; stderr: {err.strip()}")
            continue
        if argv[0] == "solve":
            match = re.search(r"^nodes = (\d+)$", out, re.M)
            cpn = re.search(r"^cp = (\d+)$", out, re.M)
            if match is None or cpn is None:
                p.fail(label, "output lacks the cp or nodes line")
                continue
            p.nodes += int(match.group(1))
            p.brackets.append((label, int(cpn.group(1)), int(cpn.group(1))))
            if int(cpn.group(1)) != want:
                p.fail(label, f"cp = {cpn.group(1)}, expected {want}")
        elif argv[0] == "verify" and not out.startswith(f"valid, maximal, size {want}"):
            p.fail(label, f"printed {out.strip()!r}, expected 'valid, maximal, size {want}'")
        elif argv[0] == "render":
            path = argv[argv.index("--out") + 1]
            svg = Path(path).read_text(encoding="utf-8") if os.path.exists(path) else ""
            if not svg.startswith("<svg") or svg.count("<path ") != want:
                p.fail(label, f"SVG does not draw the {want} pieces")
        elif argv[0] == "scan" and "refutes:" not in out:
            p.fail(label, "scan printed no verdict summary")

    for path, expected in solve_files + large_files:
        if not os.path.exists(path):
            p.fail(path, "the file was not written")
            continue
        doc = cp_files.loads(Path(path).read_text(encoding="utf-8"))
        if cp_files.loads(cp_files.dumps(doc)) != doc:
            p.fail(path, "loads(dumps(doc)) differs from doc")
        arr = cp_files.to_arrangement(doc)
        if isinstance(expected, int):
            problem = _witness_problem(arr, expected)
            if problem:
                p.fail(path, problem)
        elif arr != expected:
            p.fail(path, "the saved arrangement reads back differently")
    return inputs


WORKLOADS = {
    "exact": run_exact,
    "frontier": run_frontier,
    "sweep": run_sweep,
    "cli-io": run_cli_io,
}
