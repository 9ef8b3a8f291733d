"""Ablation — sensitivity of the headline result to network-model constants.

The reproduction's conclusions should not hinge on one calibration value.
This experiment re-runs the Table I comparison (baseline vs optimized,
1hsg_70) while perturbing each of the load-bearing constants:

* ``process_injection_bandwidth`` — remove the single-process cap entirely;
* ``combine_bandwidth`` — double the reduction combine rate;
* ``round_copy_bandwidth`` — halve the staging copy cost;
* ``blocking_round_gap`` — remove blocking-round synchronization.

The overlap speedup should persist (possibly attenuated) in every variant:
it stems from overlapping *mechanisms*, not from a single magic constant.
"""

from __future__ import annotations

from repro.bench.harness import ExperimentOutput
from repro.kernels import run_ssc
from repro.netmodel import NetworkParams
from repro.purify import SYSTEMS
from repro.util import MB, Table

N = SYSTEMS["1hsg_70"][0]

VARIANTS = (
    ("calibrated defaults", {}),
    ("no per-process injection cap", {"process_injection_bandwidth": 12_000 * MB}),
    ("2x combine rate", {"combine_bandwidth": 3_600 * MB}),
    ("2x staging copy cost", {"round_copy_bandwidth": 6_000 * MB}),
    ("no blocking round gap", {"blocking_round_gap": 0.0}),
)


def run(quick: bool = False) -> ExperimentOutput:
    variants = VARIANTS[:3] if quick else VARIANTS
    t = Table(
        ["Variant", "baseline (TF)", "optimized N_DUP=4 (TF)", "speedup"],
        title="Ablation: Table-I speedup under perturbed network constants",
    )
    values: dict = {}
    for label, overrides in variants:
        params = NetworkParams(**overrides)
        rb = run_ssc(4, N, "baseline", ppn=1, iterations=1, params=params)
        ro = run_ssc(4, N, "optimized", n_dup=4, ppn=1, iterations=1, params=params)
        values[label] = (rb.tflops, ro.tflops)
        t.add_row([label, rb.tflops, ro.tflops, ro.tflops / rb.tflops])
    return ExperimentOutput(
        name="ablation-network",
        tables=[t],
        values=values,
        notes="The nonblocking-overlap speedup survives every perturbation.",
    )


def check(output: ExperimentOutput) -> None:
    for label, (tb, to) in output.values.items():
        assert to > 1.04 * tb, f"overlap gain vanished under variant {label!r}"
    tb0, to0 = output.values["calibrated defaults"]
    assert 1.10 <= to0 / tb0 <= 1.55, (
        f"calibrated-defaults Alg5/Alg4 speedup {to0 / tb0:.3f}x outside "
        f"the paper's [1.10, 1.55] band")
