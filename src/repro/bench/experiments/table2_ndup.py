"""Table II — optimized SymmSquareCube performance vs N_DUP.

Paper values (TFlop/s):

========  =====  =====  =====  =====  =====  =====
system    1      2      3      4      5      6
========  =====  =====  =====  =====  =====  =====
1hsg_45   13.17  15.30  14.61  16.05  16.19  16.07
1hsg_60   17.57  19.82  19.43  20.57  21.21  20.68
1hsg_70   19.21  21.51  21.47  22.48  22.39  22.54
========  =====  =====  =====  =====  =====  =====

Targets: N_DUP >= 2 clearly beats N_DUP = 1; returns flatten around
N_DUP = 4-6 ("the results justify our choice of using N_DUP = 4").
"""

from __future__ import annotations

from repro.bench.harness import ExperimentOutput
from repro.kernels import run_ssc
from repro.purify import SYSTEMS
from repro.util import Table

P = 4
NDUPS = (1, 2, 3, 4, 5, 6)


def _ndups(quick: bool):
    return (1, 2, 4, 6) if quick else NDUPS


def grid(quick: bool = False) -> list[tuple[str, int]]:
    """One point per (system, N_DUP) cell, in table order."""
    systems = ["1hsg_70"] if quick else list(SYSTEMS)
    return [(system, nd) for system in systems for nd in _ndups(quick)]


def run_point(point: tuple[str, int], quick: bool = False) -> float:
    system, nd = point
    # Two quick iterations (not one): the second exercises cross-iteration
    # plan-cache reuse, which this experiment's sim_stats report gates on.
    iterations = 2 if quick else 3
    n, _ = SYSTEMS[system]
    r = run_ssc(P, n, "optimized", n_dup=nd, iterations=iterations)
    return r.tflops


def assemble(results: list[float], quick: bool = False) -> ExperimentOutput:
    ndups = _ndups(quick)
    t = Table(
        ["System"] + [f"N_DUP={d}" for d in ndups],
        title="Table II: optimized SymmSquareCube (TFlop/s) vs N_DUP (p=4, PPN=1)",
    )
    values = dict(zip(grid(quick), results))
    for system in ["1hsg_70"] if quick else list(SYSTEMS):
        t.add_row([system] + [values[(system, nd)] for nd in ndups])
    return ExperimentOutput(name="table2", tables=[t], values=values)


def run(quick: bool = False) -> ExperimentOutput:
    return assemble([run_point(pt, quick=quick) for pt in grid(quick)], quick=quick)


def check(output: ExperimentOutput) -> None:
    v = output.values
    systems = sorted({s for s, _ in v})
    ndups = sorted({d for _, d in v})
    for s in systems:
        # N_DUP=2 already gives a clear gain over N_DUP=1...
        assert v[(s, 2)] > 1.08 * v[(s, 1)], f"{s}: no gain from N_DUP=2"
        # ...and the curve flattens: best N_DUP>=4 within 12% of N_DUP=4.
        best = max(v[(s, d)] for d in ndups)
        assert best <= 1.12 * v[(s, 4)], f"{s}: N_DUP=4 far from the plateau"
        # Large N_DUP never collapses below the N_DUP=2 level.
        top = max(ndups)
        assert v[(s, top)] >= 0.95 * v[(s, 2)], (
            f"{s}: N_DUP={top} collapsed below N_DUP=2: "
            f"{v[(s, top)]:.4g} vs {v[(s, 2)]:.4g} TFlop/s (allowed: -5%)")
