"""Fig. 3 — unidirectional point-to-point bandwidth vs message size and PPN.

Paper setup: all source processes on one Stampede2 node, all destinations on
a second node; peak ~12000 MB/s; a single process only approaches the peak
for very large messages, while higher PPN saturates the NIC at smaller
sizes.  That single-process shortfall is "the root motivation for
overlapping communication operations".
"""

from __future__ import annotations

from repro.bench.harness import ExperimentOutput
from repro.bench.microbench import p2p_bandwidth
from repro.util import KIB, MB, MIB, Table, format_size

PPNS = (1, 2, 4, 8)
FULL_SIZES = (
    1, 16, 256, 2 * KIB, 16 * KIB, 128 * KIB, 1 * MIB, 4 * MIB, 16 * MIB
)
QUICK_SIZES = (256, 16 * KIB, 1 * MIB, 16 * MIB)
#: The mid-size message the check holds a single process to: present in both
#: size lists, and small enough that PPN=1 is far from the NIC peak.
MID_SIZE = 16 * KIB
PEAK = 12_000 * MB


def run(quick: bool = False) -> ExperimentOutput:
    sizes = QUICK_SIZES if quick else FULL_SIZES
    table = Table(
        ["Message size"] + [f"PPN={p} (MB/s)" for p in PPNS],
        title="Fig. 3: unidirectional inter-node bandwidth vs message size",
    )
    values: dict = {}
    for size in sizes:
        row = [format_size(size)]
        for ppn in PPNS:
            bw = p2p_bandwidth(size, ppn)
            values[(size, ppn)] = bw
            row.append(bw / MB)
        table.add_row(row)
    return ExperimentOutput(
        name="fig3",
        tables=[table],
        values=values,
        notes=(
            "Qualitative target: peak ~12000 MB/s; PPN=1 approaches it only at\n"
            "multi-MB sizes, larger PPN saturates earlier (paper Fig. 3)."
        ),
    )


def check(output: ExperimentOutput) -> None:
    values = output.values
    sizes = sorted({s for s, _ in values})
    smallest, largest = sizes[0], sizes[-1]
    # Aggregate bandwidth grows (weakly) with PPN at every size.
    for size in sizes:
        for lo, hi in zip(PPNS, PPNS[1:]):
            assert values[(size, hi)] >= 0.9 * values[(size, lo)], (
                f"raising PPN from {lo} to {hi} cut bandwidth at "
                f"{format_size(size)}: {values[(size, lo)] / MB:.0f} -> "
                f"{values[(size, hi)] / MB:.0f} MB/s (allowed: -10%)"
            )
    # PPN>=2 reaches >=90% of the 12 GB/s peak at the largest size.
    bw = values[(largest, 8)]
    assert bw >= 0.9 * PEAK, (
        f"PPN=8 reaches only {bw / MB:.0f} MB/s at {format_size(largest)}, "
        f"below 90% of the {PEAK / MB:.0f} MB/s peak"
    )
    # PPN=1 is clearly short of the NIC peak at mid sizes (the paper's root
    # motivation), and bandwidth rises strongly with message size.
    bw = values[(MID_SIZE, 1)]
    assert bw < 0.75 * PEAK, (
        f"PPN=1 reaches {bw / MB:.0f} MB/s at {format_size(MID_SIZE)}, not "
        f"short of the peak (bound: 75% of {PEAK / MB:.0f} MB/s)"
    )
    lo, hi = values[(smallest, 1)], values[(largest, 1)]
    assert hi > 5 * lo, (
        f"PPN=1 bandwidth rises only {hi / lo:.2f}x from "
        f"{format_size(smallest)} to {format_size(largest)} "
        f"({lo / MB:.0f} -> {hi / MB:.0f} MB/s; need > 5x)"
    )
