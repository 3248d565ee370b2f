"""clumsypack benchmark: times workloads in fresh processes and checks every answer.

    python3 bench/run.py --workload exact --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20

Run from the root of a checkout.  Each pass is a new process (see
``one_pass.py``) that solves every instance of its workload once; the run
repeats passes until ``--seconds`` have gone by and reports medians over
them.  ``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics instead.  The last line of stdout is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the exit
code is nonzero when any check failed.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"
sys.path.insert(0, str(HERE))

from tracing import LAYER_METRICS  # noqa: E402

WORKLOADS = ("exact", "frontier", "sweep", "cli-io")

# name -> unit, in the order BENCHMARK.json lists them.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "nodes": "count",
    "bracket_ratio": "ratio",
    "ok_rate": "ratio",
    "peak_rss_mb": "MB",
}

# A pass that runs longer than this is killed; a run must end within 180 s.
PASS_TIMEOUT_S = 100


def run_pass(workload: str, seed: int, traced: bool) -> dict:
    env = dict(os.environ)
    # The command line's worker count must come from its own default.
    env.pop("CLUMSY_THREADS", None)
    workdir = WORK / f"{workload}-{os.getpid()}"
    argv = [sys.executable, str(HERE / "one_pass.py"), workload, str(seed),
            "1" if traced else "0", str(workdir)]
    try:
        proc = subprocess.run(argv, env=env, cwd=ROOT, capture_output=True,
                              text=True, timeout=PASS_TIMEOUT_S)
    finally:
        if workdir.exists():
            keep = workdir / "spans.json"
            if keep.exists():
                keep.replace(WORK / f"spans-{workload}.json")
            shutil.rmtree(workdir)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} pass exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Passes until the time is up; in a trace run, untraced and traced
    passes alternate so that the tracing overhead can be taken.  A new pass
    starts only if half of a typical pass still fits before the deadline,
    which keeps a run within half a pass of ``seconds``."""
    plain: list[dict] = []
    traced: list[dict] = []
    took: list[float] = []
    deadline = time.monotonic() + seconds
    while (not plain or (trace and not traced)
           or time.monotonic() + statistics.median(took) / 2 < deadline):
        use_trace = trace and len(plain) > len(traced)
        started = time.monotonic()
        (traced if use_trace else plain).append(run_pass(workload, seed, use_trace))
        took.append(time.monotonic() - started)
    passes = plain + traced
    hashes = {p["inputs_sha256"] for p in passes}
    failures = [f for p in passes for f in p["failures"]]
    attempted = sum(p["ops"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    if len(hashes) != 1:
        failures.append("passes of one seed built different inputs")
        failed += 1

    def median(key, rows=plain):
        return statistics.median(r[key] for r in rows)

    if trace:
        metrics = {name: statistics.median(t["layers"][name] for t in traced)
                   for name in LAYER_METRICS if name != "trace.overhead_s"}
        metrics["trace.overhead_s"] = median("wall_s", traced) - median("wall_s")
        units = {name: unit for name, (unit, _) in LAYER_METRICS.items()}
    else:
        metrics = {
            "setup_s": median("setup_s"),
            "wall_s": median("wall_s"),
            "nodes": median("nodes"),
            "bracket_ratio": statistics.median(
                statistics.fmean(lo / hi for _, lo, hi in p["brackets"]) for p in plain),
            "ok_rate": (attempted - failed) / attempted,
            "peak_rss_mb": median("rss_mb"),
        }
        units = END_TO_END
    return {
        "workload": workload,
        "passes": len(plain),
        "traced_passes": len(traced),
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "inputs_sha256": hashes.pop() if len(hashes) == 1 else "mixed",
        "brackets": plain[0]["brackets"],
        "spread": {k: _quartiles([p[k] for p in plain])
                   for k in ("wall_s", "raw_wall_s", "setup_s")},
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }


def report(res: dict) -> None:
    closed = sum(1 for _, lo, hi in res["brackets"] if lo == hi)
    gap = sum((hi - lo) / hi for _, lo, hi in res["brackets"])
    print(f"== {res['workload']}: {res['passes']} passes"
          + (f" + {res['traced_passes']} traced" if res["traced_passes"] else "")
          + f", {res['attempted']} operations, {res['failed']} failed"
          + f", inputs sha256 {res['inputs_sha256'][:16]}")
    print(f"   closed {closed} of {len(res['brackets'])}, bracket gap {gap:.4f}")
    if res["workload"] == "frontier":
        for label, lo, hi in res["brackets"]:
            print(f"   {label}: [{lo}, {hi}]")
    for name, q in res["spread"].items():
        print(f"   {name} quartiles {q[0]:.4f} / {q[1]:.4f} / {q[2]:.4f}")
    for name, m in res["metrics"].items():
        print(f"   {name:32s} {m['value']:.6g} {m['unit']}")
    for failure in res["failures"]:
        print(f"   FAILED {failure}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "clumsypack" / "__init__.py").is_file():
        sys.stderr.write(f"no clumsypack sources under {ROOT / 'src'}\n")
        return 2
    import yaml

    print(f"environment: cpu_count={os.cpu_count()} nproc={len(os.sched_getaffinity(0))} "
          f"python={platform.python_version()} libyaml={yaml.__with_libyaml__}")
    WORK.mkdir(exist_ok=True)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = [measure(w, args.seed, args.seconds, bool(args.trace)) for w in names]
    for res in results:
        report(res)

    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results for k, v in r["metrics"].items()}
    failed = sum(r["failed"] for r in results)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in results),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
