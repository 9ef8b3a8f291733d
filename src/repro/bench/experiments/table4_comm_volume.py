"""Table IV — inter-node communication volume, bandwidth and time vs PPN.

For the *baseline* SymmSquareCube algorithm (1hsg_70), the paper estimates
the inter-node communication volume (it grows with PPN because more of the
collective traffic crosses node boundaries), the achievable collective
bandwidths from the §V-B micro-benchmark, and the resulting time — and
compares against the measured inter-node communication time, which *drops*
with PPN despite the larger volume.  Paper values:

====  ===========  =========  ========  ========  ============
PPN   volume (MB)  Reduce BW  Bcast BW  est. (s)  actual (s)
====  ===========  =========  ========  ========  ============
1     265.0        2.4        8.5       0.058     0.073
2     311.5        3.1        8.8       0.056     0.066
4     405.1        5.1        9.0       0.054     0.056
6     429.7        8.3        9.1       0.047     0.050
8     390.5        8.7        9.1       0.043     0.054
====  ===========  =========  ========  ========  ============

Here the volume comes from the fabric's flow accounting (per-node
inter-node bytes), the bandwidths from the micro-benchmark run at the
kernel's block size with the corresponding overlap width, and the actual
time is the kernel elapsed minus the local-multiply time (the paper's
notion of the kernel's communication time).
"""

from __future__ import annotations

import math

from repro.bench.harness import ExperimentOutput
from repro.bench.microbench import collective_bandwidth
from repro.dense.distribution import block_dim
from repro.kernels import run_ssc
from repro.netmodel.analytic import collective_volume_long_message, t_point_to_point
from repro.netmodel.params import MachineParams, NetworkParams
from repro.purify import SYSTEMS
from repro.util import GB, MB, Table

N = SYSTEMS["1hsg_70"][0]
CONFIGS = ((1, 4), (2, 5), (4, 6), (6, 7), (8, 8))  # (ppn, mesh side)


def _configs(quick: bool):
    return ((1, 4), (4, 6), (8, 8)) if quick else CONFIGS


def grid(quick: bool = False) -> list[tuple[int, int]]:
    """One point per (ppn, mesh side) table row."""
    return list(_configs(quick))


def run_point(point: tuple[int, int], quick: bool = False) -> dict:
    """Micro-benchmark bandwidths + one baseline kernel run for one row."""
    ppn, p = point
    params = NetworkParams()
    block_bytes = block_dim(0, N, p) ** 2 * 8
    case = "blocking" if ppn == 1 else "ppn"
    bw_reduce = collective_bandwidth("reduce", case, block_bytes, n_dup=max(ppn, 1)).bandwidth
    bw_bcast = collective_bandwidth("bcast", case, block_bytes, n_dup=max(ppn, 1)).bandwidth
    # Estimated time: the paper's recipe — per-op long-message volumes
    # over micro-benchmark bandwidths (3 broadcasts, 2 reductions, 2
    # point-to-point block transfers).
    vol_op = collective_volume_long_message(block_bytes, p)
    est = (
        3 * vol_op / bw_bcast
        + 2 * vol_op / bw_reduce
        + 2 * t_point_to_point(block_bytes, params.alpha, params.beta())
    )
    r = run_ssc(p, N, "baseline", ppn=ppn, iterations=1)
    stats = r.world.fabric.snapshot_stats()
    nodes = math.ceil(p**3 / ppn)
    vol_node = stats["inter_node_bytes"] / nodes
    # Actual communication time the way the paper reports it: kernel
    # elapsed minus the two local multiplications (whose per-process
    # rate already accounts for node sharing).
    machine = MachineParams()
    block = block_dim(0, N, p)
    mm_time = 2 * (2.0 * block**3) / machine.process_flops(ppn)
    return {
        "volume_per_node": vol_node,
        "bw_reduce": bw_reduce,
        "bw_bcast": bw_bcast,
        "est_time": est,
        "actual_time": r.elapsed - mm_time,
    }


def assemble(results: list[dict], quick: bool = False) -> ExperimentOutput:
    t = Table(
        ["PPN", "volume/node (MB)", "Reduce BW (GB/s)", "Bcast BW (GB/s)",
         "est. time (s)", "actual inter-node time (s)"],
        title="Table IV: baseline SymmSquareCube inter-node communication vs PPN",
    )
    values: dict = {}
    for (ppn, _p), row in zip(grid(quick), results):
        values[ppn] = row
        t.add_row([ppn, row["volume_per_node"] / MB, row["bw_reduce"] / GB,
                   row["bw_bcast"] / GB, row["est_time"], row["actual_time"]])
    return ExperimentOutput(
        name="table4",
        tables=[t],
        values=values,
        notes=(
            "Target: inter-node volume per node *increases* with PPN while the\n"
            "achieved collective bandwidth rises faster, so the inter-node\n"
            "communication time *decreases* — the paper's counter-intuitive\n"
            "argument for multiple-PPN overlap."
        ),
    )


def run(quick: bool = False) -> ExperimentOutput:
    return assemble([run_point(pt, quick=quick) for pt in grid(quick)], quick=quick)


def check(output: ExperimentOutput) -> None:
    v = output.values
    ppns = sorted(v)
    lo, hi = ppns[0], ppns[-1]
    # Volume per node grows with PPN...
    a, b = v[lo]["volume_per_node"], v[hi]["volume_per_node"]
    assert b > 1.1 * a, (
        f"volume per node did not grow from PPN={lo} to {hi}: "
        f"{a / MB:.1f} -> {b / MB:.1f} MB (need > +10%)")
    # ...while measured collective bandwidths grow...
    a, b = v[lo]["bw_reduce"], v[hi]["bw_reduce"]
    assert b > 1.5 * a, (
        f"reduce bandwidth did not grow from PPN={lo} to {hi}: "
        f"{a / GB:.3f} -> {b / GB:.3f} GB/s (need > 1.5x)")
    a, b = v[lo]["bw_bcast"], v[hi]["bw_bcast"]
    assert b >= 0.95 * a, (
        f"bcast bandwidth fell from PPN={lo} to {hi}: "
        f"{a / GB:.3f} -> {b / GB:.3f} GB/s (allowed: -5%)")
    # ...and the actual inter-node communication time drops.
    a, b = v[lo]["actual_time"], v[hi]["actual_time"]
    assert b < 0.9 * a, (
        f"inter-node comm time did not drop from PPN={lo} to {hi}: "
        f"{a:.4g} -> {b:.4g} s (need < 0.9x)")
