import contextlib
import io
import os
import pathlib
import subprocess
import sys
import time

import pytest

from clumsypack import cli, packing, solver, theorems
from clumsypack.files import dumps, from_arrangement, load_arrangement, save_arrangement
from clumsypack.geometry import Cell, plus, straight_v
from clumsypack.packing import Arrangement, Board, Placement
from clumsypack.theorems import build_example

GOLDEN = pathlib.Path(__file__).parent / "golden"


def example_file(tmp_path, name):
    path = tmp_path / f"{name}.yaml"
    save_arrangement(build_example(name), str(path))
    return str(path)


class TestSolve:
    @pytest.mark.parametrize("extra,message", [
        (["--custom-cells", "1,1;2,1"],
         "error: family 'T' takes no custom cells; only family custom does\n"),
        (["--custom-cells", ""], "error: empty cell list\n"),
        (["--custom-cells", "1,1;1,1"],
         "error: family 'T' takes no custom cells; only family custom does\n"),
    ])
    def test_named_family_refuses_custom_options(self, run_cli, extra, message):
        # These used to be ignored: the command solved T(1,1) and exited 0.
        code, out, err = run_cli(["solve", "--family", "T", "--params", "1,1",
                                  "--board", "5", *extra])
        assert (code, out) == (2, "")
        assert err == message

    def test_small_instance(self, run_cli):
        code, out, err = run_cli(["solve", "--family", "L", "--params", "3,6"])
        assert code == 0 and err == ""
        lines = out.splitlines()
        assert lines[0] == "cp = 3"
        assert lines[1].startswith("nodes = ")
        assert lines[2].startswith("time = ") and lines[2].endswith("s")
        # ascii witness follows: 10 rows of width 10
        assert len(lines) == 3 + 10
        assert all(len(row) == 10 for row in lines[3:])

    def test_out_writes_loadable_witness(self, run_cli, tmp_path):
        out_path = tmp_path / "w.yaml"
        code, out, _ = run_cli(["solve", "--family", "plus", "--params", "1",
                                "--out", str(out_path)])
        assert code == 0
        assert out.splitlines()[-1] == f"witness written to {out_path}"
        arr = load_arrangement(str(out_path))
        assert arr.size == 1

    def test_explicit_board_and_mode(self, run_cli):
        code, out, _ = run_cli(["solve", "--family", "rect", "--params", "2,3",
                                "--board", "6", "--mode", "fixed"])
        assert code == 0 and out.splitlines()[0] == "cp = 2"

    def test_budget_exit(self, run_cli):
        code, out, _ = run_cli(["solve", "--family", "straight-v",
                                "--params", "5", "--node-budget", "5"])
        assert code == 3
        assert out.startswith("budget exhausted after ")
        assert "cp in [" in out

    def test_closed_budget_stop_says_cp_is_proven(self, run_cli):
        # One node short of the full solve (3,104 nodes) stops in the
        # witness phase, where the construction's 6 pieces meet the proven
        # lower end.
        assert run_cli(["solve", "--family", "T", "--params", "1,1", "--board", "7",
                        "--node-budget", "3103"]) == (
            3, "budget exhausted after 3104 nodes: "
               "cp = 6 proven, lex-first witness unfinished\n", "")

    def test_time_budget_exit(self, run_cli):
        # straight(3) free on 9x9 stays open after millions of nodes; the
        # deadline must stop the search, not merely be reported at the end.
        start = time.monotonic()
        code, out, _ = run_cli(["solve", "--family", "straight-v", "--params", "3",
                                "--board", "9", "--mode", "free", "--time-budget", "0.5"])
        assert code == 3
        assert out.startswith("budget exhausted after ")
        assert time.monotonic() - start < 10

    def test_custom_shape(self, run_cli):
        code, out, _ = run_cli(["solve", "--family", "custom",
                                "--custom-cells", "1,1;2,1;2,2",
                                "--board", "4"])
        assert code == 0 and out.splitlines()[0] == "cp = 3"


class TestClosedStdout:
    SOLVE = ["solve", "--family", "T", "--params", "1,1", "--board", "7"]

    # Unbuffered, a print meets the closed pipe inside the command;
    # buffered, the flush after it does.
    @pytest.mark.parametrize("unbuffered", ["1", ""])
    def test_closed_pipe_exits_141_silently(self, unbuffered):
        src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONUNBUFFERED=unbuffered, PYTHONPATH=os.pathsep.join(
            filter(None, (src, os.environ.get("PYTHONPATH")))))
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            done = subprocess.run([sys.executable, "-m", "clumsypack", *self.SOLVE],
                                  stdout=write_end, stderr=subprocess.PIPE, env=env)
        finally:
            os.close(write_end)
        assert (done.returncode, done.stderr) == (141, b"")

    def test_in_process_caller_keeps_its_stream(self):
        # Only the process's own stdout is pointed at os.devnull; under a
        # caller's redirected stream, fd 1 stays as it is.
        class Closed(io.StringIO):
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

        fd1, err = os.fstat(1), io.StringIO()
        with contextlib.redirect_stdout(Closed()), contextlib.redirect_stderr(err):
            assert cli.main(self.SOLVE) == 141
        assert os.path.samestat(os.fstat(1), fd1)
        assert err.getvalue() == ""


class TestVerify:
    def test_maximal(self, run_cli, tmp_path):
        code, out, _ = run_cli(["verify", example_file(tmp_path, "L36")])
        assert code == 0 and out == "valid, maximal, size 3\n"

    def test_not_maximal(self, run_cli, tmp_path):
        arr = build_example("L36")
        smaller = Arrangement(arr.board, arr.shape, arr.mode, arr.placements[:1])
        path = tmp_path / "small.yaml"
        save_arrangement(smaller, str(path))
        code, out, _ = run_cli(["verify", str(path)])
        assert code == 1 and out == "valid, NOT maximal, size 1\n"

    def test_invalid(self, run_cli, tmp_path):
        arr = Arrangement(Board(5), plus(1), "free",
                          (Placement(0, Cell(2, 2)), Placement(0, Cell(2, 2))))
        path = tmp_path / "overlap.yaml"
        with open(path, "w") as fh:
            fh.write(dumps(from_arrangement(arr)))
        code, out, _ = run_cli(["verify", str(path)])
        assert code == 1
        assert out == "invalid: placements 1 and 2 overlap\n"

    def test_malformed_file(self, run_cli, tmp_path):
        path = tmp_path / "junk.yaml"
        path.write_text("family: L\n")
        code, out, err = run_cli(["verify", str(path)])
        assert code == 2 and out == "" and err.startswith("error: ")

    def test_missing_file(self, run_cli, tmp_path):
        code, _, err = run_cli(["verify", str(tmp_path / "nope.yaml")])
        assert code == 2 and err.startswith("error: ")


class TestTable:
    def test_fixed_t_row_values(self, run_cli):
        code, out, _ = run_cli(["table", "--family", "T", "--mode", "fixed",
                                "--params", "1..2,1..2"])
        assert code == 0
        assert out.splitlines() == [
            "T(1,1) fixed | TFixedWide | 1",
            "T(1,2) fixed | TFixedWide | 1",
            "T(2,1) fixed | TFixedWide | 2",
            "T(2,2) fixed | TFixedWide | 1",
        ]

    def test_bracket_rows(self, run_cli):
        code, out, _ = run_cli(["table", "--family", "L", "--mode", "free",
                                "--params", "1,2..3"])
        assert code == 0
        assert out.splitlines() == [
            "L(1,2) free | LFreeA1Bounds | 2..4",
            "L(1,3) free | LFreeA1Bounds | 2..4",
        ]

    def test_no_theorem_row(self, run_cli):
        code, out, _ = run_cli(["table", "--family", "rect", "--mode", "free",
                                "--params", "2,3"])
        assert code == 0
        assert out == "rect(2,3) free | - | no applicable result\n"

    def test_check_consistent(self, run_cli):
        code, out, _ = run_cli(["table", "--family", "rect", "--mode", "fixed",
                                "--params", "2,2..3", "--check"])
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == ("rect(2,2) fixed | RectFixed | 1 | consistent "
                            "(construction ok; solver 1)")
        assert lines[1] == ("rect(2,3) fixed | RectFixed | 2 | consistent "
                            "(construction ok; solver 2)")

    def test_wrong_range_count_is_a_usage_error(self, run_cli):
        # Each row used to print "no applicable result", with exit 0.
        code, out, err = run_cli(["table", "--family", "rect", "--mode", "fixed",
                                  "--params", "2..3"])
        assert (code, out) == (2, "")
        assert err == "error: family 'rect' takes 2 parameter(s), got 1\n"
        code, out, err = run_cli(["table", "--family", "plus", "--mode", "free",
                                  "--params", "1..2,1"])
        assert (code, out) == (2, "")
        assert err == "error: family 'plus' takes 1 parameter(s), got 2\n"

    def test_unknown_family_is_a_usage_error(self, run_cli):
        code, out, err = run_cli(["table", "--family", "hexagon", "--mode", "free",
                                  "--params", "1..3"])
        assert (code, out) == (2, "")
        assert err.startswith("error: unknown family 'hexagon'")

    def test_family_without_a_claim_keeps_its_rows(self, run_cli):
        code, out, _ = run_cli(["table", "--family", "gen-T", "--mode", "free",
                                "--params", "1,1,1..2"])
        assert code == 0
        assert out.splitlines() == ["gen-T(1,1,1) free | - | no applicable result",
                                    "gen-T(1,1,2) free | - | no applicable result"]

    def test_check_flags_refuted_conjecture(self, run_cli):
        code, out, _ = run_cli(["table", "--family", "L", "--mode", "fixed",
                                "--params", "2,1", "--check"])
        assert code == 1
        assert "ConjLFixed" in out and "INCONSISTENT" in out


class TestRender:
    def test_ascii_stdout_matches_golden(self, run_cli, tmp_path):
        code, out, _ = run_cli(["render", example_file(tmp_path, "L36")])
        assert code == 0
        assert out == (GOLDEN / "L36.txt").read_text()

    def test_ascii_out_file_matches_golden(self, run_cli, tmp_path):
        target = tmp_path / "r.txt"
        code, out, _ = run_cli(["render", example_file(tmp_path, "T43"),
                                "--out", str(target)])
        assert code == 0 and out == f"written to {target}\n"
        assert target.read_text() == (GOLDEN / "T43.txt").read_text()

    def test_svg(self, run_cli, tmp_path):
        code, out, _ = run_cli(["render", example_file(tmp_path, "L36"),
                                "--format", "svg"])
        assert code == 0
        assert out.startswith("<svg") and out.count("<path") == 3

    def test_invalid_arrangement(self, run_cli, tmp_path):
        arr = Arrangement(Board(5), plus(1), "free",
                          (Placement(0, Cell(1, 1)),))  # off board
        path = tmp_path / "bad.yaml"
        with open(path, "w") as fh:
            fh.write(dumps(from_arrangement(arr)))
        code, out, err = run_cli(["render", str(path)])
        assert code == 1 and out == ""
        assert err.startswith("error: cannot render an invalid arrangement")


@pytest.mark.parametrize("argv", [["verify"], ["render"],
                                  ["render", "--format", "svg"]])
def test_file_checked_in_one_occupancy_pass(run_cli, tmp_path, monkeypatch, argv):
    calls = []
    occupancy = packing._occupancy
    monkeypatch.setattr(packing, "_occupancy",
                        lambda arr: calls.append(arr) or occupancy(arr))
    code, _, _ = run_cli([argv[0], example_file(tmp_path, "L36"), *argv[1:]])
    assert code == 0
    assert len(calls) == 1


class TestScan:
    def test_t_free_supports(self, run_cli):
        code, out, _ = run_cli(["scan", "T-free-exact", "--limit", "6"])
        assert code == 0
        lines = out.splitlines()
        assert lines[-1] == "supports: 4, refutes: 0, inconclusive: 0"
        assert "T(1,1) free: cp = 2, claim = 2 -> supports" in lines

    def test_wide_l_conjecture_refuted(self, run_cli):
        # The formula is never positive on these boards, so every row is noted.
        code, out, _ = run_cli(["scan", "L-fixed-conj", "--limit", "9"])
        assert code == 1
        *rows, summary = out.splitlines()
        assert rows[0] == ("L-wide(2,1) fixed: cp = 2, claim = -2 -> refutes"
                           " (claim ≤ 0: formula out of range)")
        assert all(r.endswith("-> refutes (claim ≤ 0: formula out of range)")
                   for r in rows)
        assert summary == "supports: 0, refutes: 12, inconclusive: 0"

    def test_positive_refuted_claim_has_no_note(self, run_cli, monkeypatch):
        # plus(1) free on 5x5 has cp 1
        rows = [(plus(1), Board(5), "free", "plus(1) free", 2),
                (plus(1), Board(5), "free", "plus(1) free", (-1, 0))]
        monkeypatch.setattr(cli, "_scan_rows", lambda scan_id, limit: iter(rows))
        code, out, _ = run_cli(["scan", "L-free-exact"])
        assert code == 1
        assert out.splitlines() == [
            "plus(1) free: cp = 1, claim = 2 -> refutes",
            "plus(1) free: cp = 1, claim = -1..0 -> refutes"
            " (claim ≤ 0: formula out of range)",
            "supports: 0, refutes: 2, inconclusive: 0",
        ]

    def test_budget_rows_are_inconclusive(self, run_cli):
        code, out, _ = run_cli(["scan", "T-free-exact", "--limit", "6",
                                "--node-budget", "1"])
        assert code == 0
        assert "budget exhausted" in out
        assert out.splitlines()[-1].endswith("inconclusive: 4")

    def test_budget_rows_judged_by_their_bracket(self, run_cli, monkeypatch):
        # straight(3) free on 9 stops at [11, 16] after 1,000 nodes: inside
        # 10..20 it supports, apart from 9 it refutes, and at 16 it cannot
        # tell.
        rows = [(straight_v(3), Board(9), "free", "straight-v(3) free", claim)
                for claim in ((10, 20), 16, 9)]
        monkeypatch.setattr(cli, "_scan_rows", lambda scan_id, limit: iter(rows))
        assert run_cli(["scan", "L-free-exact", "--node-budget", "1000"]) == (
            1, "straight-v(3) free: budget exhausted (cp in [11, 16]), "
               "claim = 10..20 -> supports\n"
               "straight-v(3) free: budget exhausted (cp in [11, 16]), "
               "claim = 16 -> inconclusive\n"
               "straight-v(3) free: budget exhausted (cp in [11, 16]), "
               "claim = 9 -> refutes\n"
               "supports: 1, refutes: 1, inconclusive: 1\n", "")

    def test_closed_budget_row_worded_as_solve_words_it(self, run_cli):
        # L(2,3) free stops after 50 nodes in its witness phase, with cp
        # proven; scan words that bracket as solve does.
        code, out, _ = run_cli(["scan", "L-free-exact", "--node-budget", "50"])
        assert code == 0
        assert ("L(2,3) free: budget exhausted (cp = 2 proven, lex-first witness "
                "unfinished), claim = 2..5 -> supports") in out.splitlines()
        assert run_cli(["solve", "--family", "L", "--params", "2,3",
                        "--node-budget", "50"])[:2] == (
            3, "budget exhausted after 51 nodes: cp = 2 proven, "
               "lex-first witness unfinished\n")

    def test_row_without_a_claim_is_inconclusive(self, run_cli):
        assert run_cli(["scan", "T-gen", "--limit", "4"]) == (
            0, "gen-T(1,1,1) free: cp = 2, no claim -> inconclusive\n"
               "supports: 0, refutes: 0, inconclusive: 1\n", "")

    def test_unknown_id(self, run_cli):
        # rejected by the argument parser itself
        code, _, err = run_cli(["scan", "bogus"])
        assert code == 2 and "invalid choice" in err


class TestOracle:
    def test_value(self, run_cli):
        code, out, _ = run_cli(["oracle", "--family", "plus", "--params", "1",
                                "--board", "5"])
        assert code == 0 and out == "oracle cp = 1\n"

    def test_guard_refusal(self, run_cli):
        code, _, err = run_cli(["oracle", "--family", "L", "--params", "2,7",
                                "--board", "10"])
        assert code == 2 and err.startswith("error: ")


class TestUsageErrors:
    def test_bad_params_format(self, run_cli):
        code, _, err = run_cli(["solve", "--family", "L", "--params", "two"])
        assert code == 2 and err.startswith("error: ")

    def test_unknown_family(self, run_cli):
        code, _, err = run_cli(["solve", "--family", "hexomino",
                                "--params", "2"])
        assert code == 2 and err.startswith("error: ")

    def test_custom_without_cells(self, run_cli):
        code, _, err = run_cli(["solve", "--family", "custom"])
        assert code == 2 and err.startswith("error: ")

    def test_negative_node_budget(self, run_cli):
        code, out, err = run_cli(["solve", "--family", "straight-v",
                                  "--params", "5", "--node-budget", "-5"])
        assert (code, out) == (2, "")
        assert err == "error: node budget must be non-negative, got -5\n"

    def test_nan_time_budget(self, run_cli):
        # A NaN deadline would never fire: this open instance would run on.
        code, out, err = run_cli(["solve", "--family", "straight-v", "--params", "3",
                                  "--board", "9", "--time-budget", "nan"])
        assert (code, out) == (2, "")
        assert err == "error: time budget must be a non-negative number of seconds, got nan\n"

    def test_scan_negative_time_budget(self, run_cli):
        code, out, err = run_cli(["scan", "T-free-exact", "--limit", "6",
                                  "--time-budget", "-1"])
        assert (code, out) == (2, "")
        assert err.startswith("error: time budget must be a non-negative number")

    # A scan checks its options before its first row, so one that would
    # solve nothing rejects them too.
    @pytest.mark.parametrize("argv,err", [
        (["--limit", "2", "--time-budget", "-1"],
         "error: time budget must be a non-negative number of seconds, got -1.0\n"),
        (["--limit", "2", "--node-budget", "-5"],
         "error: node budget must be non-negative, got -5\n"),
        (["--limit", "2", "--time-budget", "nan"],
         "error: time budget must be a non-negative number of seconds, got nan\n"),
        (["--limit", "0"], "error: scan limit must be at least 1, got 0\n"),
        (["--limit", "-3", "--node-budget", "-5"],
         "error: scan limit must be at least 1, got -3\n"),
    ])
    def test_scan_checks_options_before_any_row(self, run_cli, argv, err):
        assert run_cli(["scan", "L-free-exact", *argv]) == (2, "", err)

    # A repeated cell is refused, not dropped to solve a smaller piece.
    @pytest.mark.parametrize("command", ["solve", "oracle"])
    def test_repeated_custom_cell(self, run_cli, command):
        code, out, err = run_cli([command, "--family", "custom",
                                  "--custom-cells", "1,1;2,1;1,1"])
        assert (code, out) == (2, "")
        assert err == "error: cell list repeats cell (1, 1)\n"

    @pytest.mark.parametrize("argv,err", [
        (["solve", "--family", "custom", "--custom-cells", "1,1;2"],
         "error: cells must look like 'col,row;col,row;...', got '1,1;2'\n"),
        (["solve", "--family", "custom", "--custom-cells", "a,1"],
         "error: cell coordinates must be integers, got 'a,1'\n"),
        (["solve", "--family", "custom", "--custom-cells", ";"], "error: empty cell list\n"),
        (["table", "--family", "L", "--mode", "free", "--params", "x,1"],
         "error: range must be 'N' or 'N..M', got 'x'\n"),
        (["table", "--family", "L", "--mode", "free", "--params", "3..1,1"],
         "error: empty range '3..1'\n"),
        (["solve", "--family", "custom", "--custom-cells", ""], "error: empty cell list\n"),
    ])
    def test_malformed_cells_or_range(self, run_cli, argv, err):
        assert run_cli(argv) == (2, "", err)

    def test_budget_stop_inside_a_check_is_exit_3(self, run_cli, monkeypatch):
        # table --check solves with the default budget; a small one stops it.
        monkeypatch.setattr(theorems, "clumsy_number",
                            lambda *args: solver.clumsy_number(*args, node_budget=10))
        assert run_cli(["table", "--family", "T", "--mode", "free", "--params", "1,1",
                        "--check"]) == (
            3, "", "error: search budget exhausted after 11 nodes; "
                   "clumsy number is 2, proven; the lex-first witness is unfinished\n")

    def test_hypothesis_violation_noted_per_row(self, run_cli):
        # a bad row must not abort the rest of a table sweep
        code, out, _ = run_cli(["table", "--family", "straight-v",
                                "--mode", "fixed", "--params", "0..2"])
        assert code == 0
        lines = out.splitlines()
        assert "hypothesis not met" in lines[0]
        assert lines[1] == "straight-v(1) fixed | StraightFixed | 1"
        assert lines[2] == "straight-v(2) fixed | StraightFixed | 2"


class TestParserReuse:
    SOLVE = ["solve", "--family", "T", "--params", "1,1", "--board", "7"]

    def run_all(self, run_cli):
        results = []
        for extra in (["--node-budget", "x"], ["--node-budget", "5"], []):
            code, out, err = run_cli(self.SOLVE + extra)
            kept = [line for line in out.splitlines() if not line.startswith("time = ")]
            results.append((code, kept, err))
        return results

    def test_one_parser_serves_every_call(self, run_cli):
        parser = cli._build_parser()
        misses = cli._build_parser.cache_info().misses
        first = self.run_all(run_cli)
        (usage_code, usage_out, usage_err), (budget_code, budget_out, _), \
            (code, out, _) = first
        assert (usage_code, usage_out) == (2, [])
        assert "invalid int value: 'x'" in usage_err
        assert budget_code == 3 and budget_out[0].endswith("cp in [4, 6]")
        # The default budget comes back after a call that set its own.
        assert cli.DEFAULT_NODE_BUDGET > 3104
        assert (code, out[:2]) == (0, ["cp = 6", "nodes = 3104"])
        assert self.run_all(run_cli) == first
        assert cli._build_parser() is parser
        assert cli._build_parser.cache_info().misses == misses
