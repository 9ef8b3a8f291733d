"""Ablation — multithreaded overlap, the technique the paper rejected (§I).

"A third technique for overlapping communication operations is to use
multithreading...  Unfortunately, this technique usually has high overheads
due to the need to guarantee thread safety within multithreaded MPI, in
addition to the overhead of multithreading itself.  Our tests with using
multithreading to overlap communication operations typically show poor
performance (particularly for message sizes less than 64K) compared to
using the above two techniques."

This experiment reproduces that comparison: four threads of one process
each driving a blocking collective of a quarter message (their internal
rounds serializing on the MPI lock, each call paying a thread-safety
overhead) versus the paper's two chosen techniques.
"""

from __future__ import annotations

from repro.bench.harness import ExperimentOutput
from repro.bench.microbench import collective_bandwidth
from repro.util import KIB, MB, MIB, Table, format_size

SIZES = (16 * KIB, 64 * KIB, 1 * MIB, 8 * MIB)
QUICK_SIZES = (16 * KIB, 8 * MIB)
CASES = ("blocking", "multithread", "nonblocking", "ppn")
LABELS = {
    "blocking": "Blocking (none)",
    "multithread": "Multithreaded overlap",
    "nonblocking": "Nonblocking overlap",
    "ppn": "4-PPN overlap",
}


def run(quick: bool = False) -> ExperimentOutput:
    sizes = QUICK_SIZES if quick else SIZES
    values: dict = {}
    tables = []
    for op in ("bcast", "reduce"):
        t = Table(
            ["Message size"] + [f"{LABELS[c]} (MB/s)" for c in CASES],
            title=f"Ablation: multithreaded vs the paper's overlap techniques ({op})",
        )
        for size in sizes:
            row = [format_size(size)]
            for case in CASES:
                bw = collective_bandwidth(op, case, size).bandwidth
                values[(op, case, size)] = bw
                row.append(bw / MB)
            t.add_row(row)
        tables.append(t)
    return ExperimentOutput(
        name="ablation-multithread",
        tables=tables,
        values=values,
        notes=(
            "Multithreaded overlap trails at least one of the paper's two\n"
            "techniques everywhere, and is weakest for small messages —\n"
            "matching the paper's reason for setting it aside (§I)."
        ),
    )


def check(output: ExperimentOutput) -> None:
    v = output.values
    sizes = sorted({s for (_o, _c, s) in v})
    small, big = sizes[0], sizes[-1]
    for op in ("bcast", "reduce"):
        for size in (small, big):
            mt = v[(op, "multithread", size)]
            best = max(v[(op, "nonblocking", size)], v[(op, "ppn", size)])
            assert mt < best, f"multithreading should not win ({op}, {size})"
        # The small-message penalty is pronounced (paper: "< 64K").
        mt_rel_small = v[(op, "multithread", small)] / max(
            v[(op, "nonblocking", small)], v[(op, "ppn", small)]
        )
        assert mt_rel_small < 0.9, (
            f"multithreading's small-message penalty vanished ({op}, "
            f"{small} B): {mt_rel_small:.3f}x the best overlap technique "
            f"(need < 0.9x)")
