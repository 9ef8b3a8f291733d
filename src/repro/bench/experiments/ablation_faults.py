"""Ablation — overlap gains and graceful degradation under injected faults.

The paper's overlap techniques assume a healthy fabric; T3 (Pati et al.) and
the resource-aware-overlap line of work both observe that fine-grained
compute/communication overlap is brittle when links congest or ranks
straggle.  This experiment runs the optimized SymmSquareCube kernel under a
ladder of deterministic fault scenarios (see :mod:`repro.sim.faults`) and
reports:

* how much of the N_DUP overlap win survives each fault kind;
* the transport's drop/retransmission counts (timeout + bounded exponential
  backoff keeps every chaos run live);
* how often the kernel's negotiated nonblocking -> blocking fallback fired.

Every scenario is seed-driven: rerunning the experiment reproduces each row
bit for bit, which ``check`` asserts explicitly.
"""

from __future__ import annotations

from repro.bench.harness import ExperimentOutput
from repro.kernels import run_ssc
from repro.purify import SYSTEMS
from repro.sim.faults import (
    FaultPlan,
    LinkDegradation,
    MessageDrop,
    NicJitter,
    StragglerSlowdown,
)
from repro.util import Table

N = SYSTEMS["1hsg_70"][0]
FULL = (4, 4, 4)    # (mesh side, ppn, n_dup)
QUICK = (2, 2, 2)
ITERATIONS = 2


def _scenarios(horizon: float, num_ranks: int) -> dict[str, FaultPlan | None]:
    """The fault ladder, windows scaled to the healthy per-call time."""
    return {
        "healthy": None,
        "degraded-link": FaultPlan([
            LinkDegradation(node=0, t_start=0.0, t_end=1e9, factor=0.4),
        ]),
        "straggler": FaultPlan([
            StragglerSlowdown(rank=num_ranks // 2, t_start=0.0, t_end=1e9,
                              factor=2.5),
        ]),
        "jitter+drops": FaultPlan([
            NicJitter(node=0, t_start=0.0, t_end=1e9, max_extra_latency=10e-6),
            MessageDrop(probability=0.1, max_drops=8),
        ], seed=11),
        "chaos": FaultPlan([
            LinkDegradation(node=1, t_start=0.25 * horizon, t_end=1e9, factor=0.4),
            StragglerSlowdown(rank=3, t_start=0.0, t_end=1e9, factor=2.0),
            NicJitter(node=0, t_start=0.0, t_end=1e9, max_extra_latency=10e-6),
            MessageDrop(probability=0.1, max_drops=8),
        ], seed=2019),
    }


def run(quick: bool = False) -> ExperimentOutput:
    p, ppn, n_dup = QUICK if quick else FULL
    healthy = run_ssc(p, N, "optimized", n_dup=n_dup, ppn=ppn)
    horizon = healthy.times[0]
    t = Table(
        ["Scenario", "TFlop/s", "vs healthy", "Drops", "Retries", "Fallbacks"],
        title=f"Ablation: optimized SSC under faults (1hsg_70, {p}^3, "
              f"PPN={ppn}, N_DUP={n_dup})",
    )
    values: dict = {}
    for name, plan in _scenarios(horizon, p**3).items():
        res = run_ssc(p, N, "optimized", n_dup=n_dup, ppn=ppn,
                      iterations=ITERATIONS, faults=plan)
        rerun = run_ssc(p, N, "optimized", n_dup=n_dup, ppn=ppn,
                        iterations=ITERATIONS, faults=plan)
        stats = res.world.transport.fault_stats()
        values[name] = {
            "tflops": res.tflops,
            "times": list(res.times),
            "rerun_times": list(rerun.times),
            "drops": stats["dropped_transmissions"],
            "retries": stats["retransmissions"],
            "fallbacks": res.fallbacks,
        }
        t.add_row([
            name, res.tflops, res.tflops / healthy.tflops,
            stats["dropped_transmissions"], stats["retransmissions"],
            res.fallbacks,
        ])
    return ExperimentOutput(
        name="ablation-faults",
        tables=[t],
        values=values,
        notes=(
            "Dropped messages are absorbed by timeout + exponential-backoff\n"
            "retransmission; a degraded link triggers the negotiated\n"
            "nonblocking->blocking fallback, trading the overlap win for a\n"
            "schedule that is robust on a throttled fabric.  Every scenario\n"
            "is seed-driven and replays bit-identically."
        ),
    )


def check(output: ExperimentOutput) -> None:
    v = output.values
    healthy = v["healthy"]
    # Faults never corrupt the run, only slow it: each scenario completes
    # with positive throughput no better than the healthy fabric.
    for name, row in v.items():
        assert row["tflops"] > 0, f"{name} produced no throughput"
        assert row["tflops"] <= healthy["tflops"] * 1.001, f"{name} sped up?!"
        # Determinism: the immediate rerun reproduced every per-call time.
        assert row["times"] == row["rerun_times"], f"{name} not reproducible"
    assert v["degraded-link"]["fallbacks"] > 0, "fallback path never exercised"
    assert v["jitter+drops"]["drops"] > 0, "drop scenario was vacuous"
    jd = v["jitter+drops"]
    assert jd["drops"] == jd["retries"], (
        f"every dropped message must be retried exactly once: "
        f"{jd['drops']} drops vs {jd['retries']} retries")
    assert v["chaos"]["tflops"] < healthy["tflops"], (
        f"chaos scenario not slower than the healthy fabric: "
        f"{v['chaos']['tflops']:.4g} vs {healthy['tflops']:.4g} TFlop/s")
