"""The repository's benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload {ssc-512,cg-latency,retune} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the simulator is imported from ``src/``.
This file checks the arguments and runs ``worker.py``, which does the work
one process at a time and starts no threads; see ``perfbench/README.md``
for the workloads, the metrics and which layer should move which metric.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 0
when that line was printed, 1 when the run could not produce it (the worker
failed or overran :data:`BUDGET_S`) and 2 on a usage error, for example
when there is no ``src/repro`` to benchmark.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Wall-clock budget of the whole run; the worker and every process it
#: started are killed past it.
BUDGET_S = 170.0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no src/repro under {ROOT}: run from a checkout of the "
              f"repository", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("--seconds must be positive", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        print(f"unknown workload {args.workload!r}; known: {names}",
              file=sys.stderr)
        return 2

    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    # A session of its own lets a timeout kill the worker's probes too.
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=BUDGET_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        print(f"worker exceeded the {BUDGET_S:.0f} s budget", file=sys.stderr)
        return 1
    sys.stdout.write(out)
    if proc.returncode != 0:
        print(f"worker exited with code {proc.returncode}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
