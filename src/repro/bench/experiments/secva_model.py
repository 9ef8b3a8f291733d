"""§V-A — alpha-beta model of the baseline SymmSquareCube vs simulation.

The paper computes, for 1hsg_70 (N = 7645) on 64 nodes with p = 4 and
single-PPN, block messages of 1912^2 * 8 B = 27.89 MB and the model

    T_p2p    = 2.324e-3 s
    T_bcast  = T_reduce = 3.487e-3 s
    T_baseline = 2 (T_p2p + T_reduce) + 3 T_bcast = 0.02208 s

then observes the *measured* baseline communication time is 0.07312 s —
only 30.19% of peak bandwidth — while two local DGEMMs take 0.01794 s.
This experiment regenerates the model numbers exactly and compares them
with the simulated baseline kernel.
"""

from __future__ import annotations

import math

from repro.bench.harness import ExperimentOutput
from repro.kernels import run_ssc
from repro.netmodel import NetworkParams
from repro.netmodel.analytic import baseline_ssc_comm_time_model
from repro.netmodel.params import MachineParams
from repro.util import MB, MIB, Table

N = 7645
P = 4


def run(quick: bool = False) -> ExperimentOutput:
    iterations = 1 if quick else 3
    block = math.ceil(N / P)
    block_bytes = block * block * 8
    # The paper quotes the block as "27.89 MB": that is 1912^2*8 bytes
    # converted with binary MiB, then divided by the *decimal* 12000 MB/s —
    # we reproduce that arithmetic exactly to regenerate its numbers.
    block_paper_units = block_bytes / MIB * MB
    params = NetworkParams()
    model = baseline_ssc_comm_time_model(
        block_paper_units, P, alpha=params.alpha, beta=1.0 / (12_000 * MB)
    )
    r = run_ssc(P, N, "baseline", ppn=1, iterations=iterations, params=params)
    machine = MachineParams()
    mm_time = 2 * (2.0 * block**3) / machine.node_flops  # two local multiplies
    comm_time = r.elapsed - mm_time
    t = Table(["Quantity", "Paper model", "This repro"], title="§V-A analysis (1hsg_70)")
    t.add_row(["block message size (paper MB)", 27.89, block_paper_units / MB])
    t.add_row(["T_p2p (s)", 2.324e-3, model["T_p2p"]])
    t.add_row(["T_bcast (s)", 3.487e-3, model["T_bcast"]])
    t.add_row(["T_reduce (s)", 3.487e-3, model["T_reduce"]])
    t.add_row(["T_baseline model (s)", 0.02208, model["T_baseline"]])
    t.add_row(["measured comm time (s)", 0.07312, comm_time])
    t.add_row(["local multiplies (s)", 0.01794, mm_time])
    t.add_row(
        ["achieved fraction of peak", 0.3019, model["T_baseline"] / comm_time]
    )
    values = {
        "model": model,
        "comm_time": comm_time,
        "mm_time": mm_time,
        "elapsed": r.elapsed,
        "block_bytes": block_bytes,
        "block_paper_units": block_paper_units,
    }
    return ExperimentOutput(
        name="secva",
        tables=[t],
        values=values,
        notes=(
            "The simulated baseline, like the paper's measurement, falls well\n"
            "short of the alpha-beta lower bound: synchronization, staging\n"
            "copies, reduction compute and single-process injection limits\n"
            "consume the rest — the headroom the overlap techniques reclaim."
        ),
    )


def check(output: ExperimentOutput) -> None:
    v = output.values
    model = v["model"]
    # The closed-form model regenerates the paper's numbers exactly (<2%).
    for key, paper in (("T_p2p", 2.324e-3), ("T_bcast", 3.487e-3),
                       ("T_baseline", 0.02208)):
        assert abs(model[key] - paper) / paper < 0.02, (
            f"model {key} = {model[key]:.6g} s, not within 2% of the "
            f"paper's {paper:.6g} s")
    block = v["block_paper_units"] / MB
    assert abs(block - 27.89) < 0.1, (
        f"block size {block:.3f} MB, not within 0.1 of the paper's 27.89 MB")
    # Simulated comm time exceeds the ideal model (paper: 3.3x; accept >1.5x)
    # and computation is clearly dominated by communication.
    assert v["comm_time"] > 1.5 * model["T_baseline"], (
        f"simulated comm time {v['comm_time']:.6g} s is not > 1.5x the "
        f"ideal model's {model['T_baseline']:.6g} s (paper: 3.3x)")
    assert v["comm_time"] > v["mm_time"], (
        f"communication ({v['comm_time']:.6g} s) does not dominate "
        f"computation ({v['mm_time']:.6g} s)")
