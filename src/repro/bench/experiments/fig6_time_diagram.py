"""Fig. 6 — posting/wait time breakdown for 8 MB reductions and broadcasts.

Regenerates the bar data of the paper's Fig. 6: for each of reduction and
broadcast, the time on a node-0 process split into the posting call and the
wait, for (a) a single blocking call (8 MB and 2 MB), (b) a single
nonblocking call (8 MB and 2 MB), (c) nonblocking overlap with N_DUP = 4
(four 2 MB parts), and (d) 4-PPN overlap (four 2 MB blocking calls).

Key phenomena to reproduce: posting MPI_Ireduce is expensive and roughly
size-proportional (the marshalling), posting MPI_Ibcast is cheap, the four
overlapped operations complete at almost the same time, and both overlap
techniques finish well before the blocking baseline.
"""

from __future__ import annotations

from repro.bench.harness import ExperimentOutput
from repro.bench.microbench import collective_timing_detail
from repro.util import MIB, Table


def _rows_for(op: str, full: int, quick: bool):
    part = full // 4
    rows = []
    # Reference bars: single blocking / nonblocking calls at 8 MB and 2 MB.
    sizes = ((full, "8MB"), (part, "2MB")) if not quick else ((full, "8MB"),)
    for size, label in sizes:
        (b,) = collective_timing_detail(op, "blocking", size, n_dup=1)
        rows.append((f"Blocking {label}", b.post, b.wait, b.total))
        (nb,) = [
            d for d in collective_timing_detail(op, "nonblocking", size, n_dup=1)
        ]
        rows.append((f"Nonblocking {label}", nb.post, nb.wait, nb.total))
    # The two overlap cases at 8 MB total.
    for d in collective_timing_detail(op, "nonblocking", full, n_dup=4):
        rows.append((d.label, d.post, d.wait, d.total))
    for d in collective_timing_detail(op, "ppn", full, n_dup=4):
        rows.append((d.label, d.post, d.wait, d.total))
    return rows


def run(quick: bool = False) -> ExperimentOutput:
    full = 8 * MIB
    tables = []
    values: dict = {}
    for op in ("reduce", "bcast"):
        t = Table(
            ["Operation", "post (us)", "wait (us)", "finishes at (us)"],
            title=f"Fig. 6: {op} timing on node 0, 8 MB total, 4 nodes",
        )
        for label, post, wait, total in _rows_for(op, full, quick):
            t.add_row([label, post * 1e6, wait * 1e6, total * 1e6])
            values[(op, label)] = (post, wait, total)
        tables.append(t)
    return ExperimentOutput(
        name="fig6",
        tables=tables,
        values=values,
        notes=(
            "'finishes at' is measured from the first posting, so the four\n"
            "overlapped entries show near-simultaneous completion (the\n"
            "paper's observation that transfers complete together)."
        ),
    )


def check(output: ExperimentOutput) -> None:
    v = output.values
    # Ireduce posting is expensive and size-dependent; Ibcast posting cheap.
    red_post_8 = v[("reduce", "Nonblocking 8MB")][0]
    bc_post_8 = v[("bcast", "Nonblocking 8MB")][0]
    assert red_post_8 > 500e-6, "Ireduce posting should be ~1 ms for 8 MB"
    assert bc_post_8 < 50e-6, "Ibcast posting should be cheap"
    # Posting the four overlapped Ireduces is serialized: each part costs
    # roughly a quarter of the 8 MB posting.
    parts = [v[("reduce", f"{i}th nonblocking reduce")][0] for i in (1, 2, 3, 4)]
    assert abs(sum(parts) - red_post_8) / red_post_8 < 0.35, (
        f"the four Ireduce postings sum to {sum(parts) * 1e6:.0f} us, not "
        f"within 35% of the 8 MB posting's {red_post_8 * 1e6:.0f} us")
    # Overlapped operations complete nearly together.
    finishes = [v[("reduce", f"{i}th nonblocking reduce")][2] for i in (1, 2, 3, 4)]
    assert max(finishes) - min(finishes) < 0.35 * max(finishes), (
        f"overlapped Ireduces do not finish together: finishes span "
        f"{min(finishes) * 1e3:.3f}-{max(finishes) * 1e3:.3f} ms "
        f"(bound: spread < 35% of the last)")
    # Both overlap techniques beat blocking; 4-PPN wins for reduce,
    # nonblocking overlap wins for bcast.
    red_blocking = v[("reduce", "Blocking 8MB")][2]
    red_nbc = max(finishes)
    red_ppn = max(v[("reduce", f"proc {i} blocking reduce (4 PPN)")][2] for i in (1, 2, 3, 4))
    assert red_nbc < red_blocking and red_ppn < red_blocking, (
        f"an overlap technique did not beat blocking reduce "
        f"({red_blocking * 1e3:.3f} ms): nonblocking {red_nbc * 1e3:.3f} ms, "
        f"4-PPN {red_ppn * 1e3:.3f} ms")
    assert red_ppn < red_nbc, "4-PPN should beat nonblocking overlap for reduce"
    bc_blocking = v[("bcast", "Blocking 8MB")][2]
    bc_nbc = max(v[("bcast", f"{i}th nonblocking bcast")][2] for i in (1, 2, 3, 4))
    bc_ppn = max(v[("bcast", f"proc {i} blocking bcast (4 PPN)")][2] for i in (1, 2, 3, 4))
    assert bc_nbc < bc_blocking and bc_ppn < bc_blocking, (
        f"an overlap technique did not beat blocking bcast "
        f"({bc_blocking * 1e3:.3f} ms): nonblocking {bc_nbc * 1e3:.3f} ms, "
        f"4-PPN {bc_ppn * 1e3:.3f} ms")
    assert bc_nbc < bc_ppn, "nonblocking overlap should beat 4-PPN for bcast"
