"""Fig. 5 — broadcast/reduction bandwidth for the three §V-B cases.

4 nodes; message sizes 16 B .. 16 MB; cases: blocking (not overlapped),
nonblocking overlap with N_DUP = 4, and 4-PPN overlap.  Bandwidth uses the
paper's ``2 (p-1) n / p`` volume convention with ``p = 4``.
"""

from __future__ import annotations

from repro.bench.harness import ExperimentOutput
from repro.bench.microbench import collective_bandwidth
from repro.util import KIB, MB, MIB, Table, format_size

FULL_SIZES = (16, 128, 1 * KIB, 8 * KIB, 64 * KIB, 256 * KIB, 1 * MIB, 4 * MIB, 16 * MIB)
QUICK_SIZES = (1 * KIB, 256 * KIB, 8 * MIB)
CASES = ("blocking", "nonblocking", "ppn")
CASE_LABEL = {
    "blocking": "Blocking",
    "nonblocking": "Nonblocking overlap N_DUP=4",
    "ppn": "4 PPN overlap",
}


def run(quick: bool = False) -> ExperimentOutput:
    sizes = QUICK_SIZES if quick else FULL_SIZES
    values: dict = {}
    tables = []
    for op in ("bcast", "reduce"):
        t = Table(
            ["Message size"] + [f"{CASE_LABEL[c]} (MB/s)" for c in CASES],
            title=f"Fig. 5: measured {op} bandwidth on 4 nodes",
        )
        for size in sizes:
            row = [format_size(size)]
            for case in CASES:
                m = collective_bandwidth(op, case, size)
                values[(op, case, size)] = m.bandwidth
                row.append(m.bandwidth / MB)
            t.add_row(row)
        tables.append(t)
    return ExperimentOutput(
        name="fig5",
        tables=tables,
        values=values,
        notes=(
            "Targets: blocking reduce far below blocking bcast; both overlap\n"
            "techniques improve both operations; 4-PPN strongest for reduce\n"
            "(parallel combines), nonblocking overlap strongest for bcast\n"
            "(no per-round blocking synchronization)."
        ),
    )


def check(output: ExperimentOutput) -> None:
    v = output.values
    sizes = sorted({s for (_op, _c, s) in v})
    big = sizes[-1]
    # Blocking reduce bandwidth is well below blocking bcast at large sizes.
    red, bc = v[("reduce", "blocking", big)], v[("bcast", "blocking", big)]
    assert red < 0.55 * bc, (
        f"blocking reduce at {format_size(big)} reaches {red / MB:.0f} MB/s, "
        f"not well below blocking bcast's {bc / MB:.0f} MB/s (bound: 55%)")
    # Both overlap techniques beat blocking for both ops at large sizes.
    for op in ("bcast", "reduce"):
        for case in ("nonblocking", "ppn"):
            assert v[(op, case, big)] > 1.1 * v[(op, "blocking", big)], (
                f"{case} did not beat blocking for {op}"
            )
    # 4-PPN wins for reduce; nonblocking overlap wins (or ties) for bcast.
    ppn, nbc = v[("reduce", "ppn", big)], v[("reduce", "nonblocking", big)]
    assert ppn > nbc, (
        f"4-PPN did not win for reduce at {format_size(big)}: "
        f"{ppn / MB:.0f} vs nonblocking {nbc / MB:.0f} MB/s")
    nbc, ppn = v[("bcast", "nonblocking", big)], v[("bcast", "ppn", big)]
    assert nbc >= 0.95 * ppn, (
        f"nonblocking overlap lost to 4-PPN for bcast at {format_size(big)}: "
        f"{nbc / MB:.0f} vs {ppn / MB:.0f} MB/s (allowed: -5%)")
