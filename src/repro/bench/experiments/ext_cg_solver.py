"""Extension — overlapped reductions in an iterative solver (paper §VI).

The paper's conclusions propose applying communication-communication
overlap to "block iterative linear solvers, where reductions (vector norms
and dot products) involving large numbers of nodes are the bottleneck".
This experiment carries that out: classic CG (two blocking allreduces per
iteration) vs pipelined CG (one merged nonblocking allreduce overlapped
with the halo exchange and stencil) on a 1D Laplacian with a fixed local
problem size, sweeping the number of ranks.

Expected shape: at small scale the two are comparable (compute-bound); as
ranks grow the blocking reductions dominate classic CG's iteration time and
the pipelined variant's advantage approaches ~2x (it hides both
synchronization points behind other work).
"""

from __future__ import annotations

from repro.bench.harness import ExperimentOutput
from repro.solvers import run_block_cg, run_cg
from repro.util import Table

LOCAL_N = 20_000
CONFIGS = ((4, 1), (16, 2), (64, 4), (256, 8), (512, 8))  # (ranks, ppn)
QUICK_CONFIGS = ((4, 1), (64, 4))
ITERS = 30


def run(quick: bool = False) -> ExperimentOutput:
    configs = QUICK_CONFIGS if quick else CONFIGS
    t = Table(
        ["Ranks", "PPN", "classic (us/iter)", "pipelined (us/iter)", "speedup"],
        title="Extension (§VI): CG iteration time, blocking vs overlapped reductions",
    )
    values: dict = {}
    for ranks, ppn in configs:
        n = ranks * LOCAL_N
        tc = run_cg(ranks, n, "classic", maxiter=ITERS, ppn=ppn).time_per_iteration
        tp = run_cg(ranks, n, "pipelined", maxiter=ITERS, ppn=ppn).time_per_iteration
        values[ranks] = (tc, tp)
        t.add_row([ranks, ppn, tc * 1e6, tp * 1e6, tc / tp])
    tb = Table(
        ["Ranks", "PPN", "classic (us/iter)", "pipelined (us/iter)", "speedup"],
        title="Extension (§VI): *block* CG (s=8 RHS), merged Gram reductions",
    )
    for ranks, ppn in configs:
        n = ranks * LOCAL_N
        tc = run_block_cg(ranks, n, 8, "classic", maxiter=ITERS,
                          ppn=ppn).time_per_iteration
        tp = run_block_cg(ranks, n, 8, "pipelined", maxiter=ITERS,
                          ppn=ppn).time_per_iteration
        values[("block", ranks)] = (tc, tp)
        tb.add_row([ranks, ppn, tc * 1e6, tp * 1e6, tc / tp])
    return ExperimentOutput(
        name="ext-cg",
        tables=[t, tb],
        values=values,
        notes=(
            "Pipelined CG replaces two blocking synchronization points per\n"
            "iteration with one nonblocking reduction overlapped with the\n"
            "halo exchange and local stencil — the paper's overlap idea\n"
            "applied to the solver setting its conclusions propose."
        ),
    )


def check(output: ExperimentOutput) -> None:
    v = {k: val for k, val in output.values.items() if not isinstance(k, tuple)}
    block = {k[1]: val for k, val in output.values.items() if isinstance(k, tuple)}
    big_b = max(block)
    tcb, tpb = block[big_b]
    assert tcb / tpb > 1.3, "pipelined block CG should clearly win at scale"
    ranks = sorted(v)
    big = ranks[-1]
    tc, tp = v[big]
    # At scale, hiding the reductions approaches the 2x bound.
    assert tc / tp > 1.5, f"pipelined CG speedup only {tc / tp:.2f}x at {big} ranks"
    # The advantage grows (weakly) with scale.
    small = ranks[0]
    sp_big, sp_small = v[big][0] / v[big][1], v[small][0] / v[small][1]
    assert sp_big >= 0.9 * sp_small, (
        f"pipelined CG speedup shrank with scale: {sp_small:.3f}x at "
        f"{small} ranks -> {sp_big:.3f}x at {big} ranks (allowed: -10%)")
    # Iteration time grows with rank count for classic (reduction latency).
    assert v[big][0] > v[small][0], (
        f"classic CG iteration time did not grow with ranks: "
        f"{v[small][0]:.4g} s at {small} -> {v[big][0]:.4g} s at {big}")
