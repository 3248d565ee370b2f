"""One pass of a benchmark workload, in a fresh process.

    python3 bench/one_pass.py WORKLOAD SEED TRACE WORKDIR

The reference clock starts before clumsypack is imported, so set-up time
covers the import and the building of the inputs.  The last line of stdout
is one JSON object that ``run.py`` reads.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from refclock import RefClock  # noqa: E402


def main(argv: list[str]) -> int:
    workload, seed, trace, workdir = argv[0], int(argv[1]), argv[2] == "1", Path(argv[3])
    clock = RefClock()
    import workloads

    workdir.mkdir(parents=True, exist_ok=True)
    tracer = workloads.Tracer(clock.now) if trace else None
    p = workloads.Pass(clock, tracer)
    inputs = workloads.WORKLOADS[workload](seed, p, workdir)
    clock.stop()
    layers = None
    if tracer is not None:
        layers = tracer.summary(workloads.cp)
        (workdir / "spans.json").write_text(json.dumps(tracer.span_rows()))
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    described = json.dumps(inputs, sort_keys=True).replace(str(workdir), "WORKDIR")
    print(json.dumps({
        "setup_s": p.setup_s,
        "wall_s": p.wall_s,
        "raw_wall_s": p.raw_wall_s,
        "ops": p.ops,
        "failures": p.failures,
        "failed": len(p.failed),
        "nodes": p.nodes,
        "brackets": p.brackets,
        "rss_mb": (self_kb + child_kb) / 1024,
        "inputs_sha256": hashlib.sha256(described.encode()).hexdigest(),
        "layers": layers,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
