"""Table III — optimized SymmSquareCube vs processes per node (1hsg_70).

PPN is chosen so ``64 (PPN-1) < p^3 <= 64 PPN`` (64-node pool); the "total
nodes" column is ``ceil(p^3 / PPN)``.  Paper values (TFlop/s):

====  ========  ===========  =========  =========
PPN   mesh      total nodes  N_DUP = 1  N_DUP = 4
====  ========  ===========  =========  =========
1     4x4x4     64           19.21      22.48
2     5x5x5     63           20.61      26.45
4     6x6x6     54           26.24      33.87
6     7x7x7     58           27.53      36.73
8     8x8x8     64           24.98      32.38
====  ========  ===========  =========  =========

Headline: the best combination (PPN=6, N_DUP=4) is 91.2% faster than the
non-overlapped baseline (PPN=1, N_DUP=1); N_DUP=4 with only 2 PPN already
beats N_DUP=1 at *any* PPN.
"""

from __future__ import annotations

import math

from repro.bench.harness import ExperimentOutput
from repro.kernels import run_ssc
from repro.purify import SYSTEMS
from repro.util import Table

N = SYSTEMS["1hsg_70"][0]
CONFIGS = ((1, 4), (2, 5), (4, 6), (6, 7), (8, 8))  # (ppn, mesh side)
NDUPS = (1, 4)


def _configs(quick: bool):
    return ((1, 4), (2, 5), (4, 6)) if quick else CONFIGS


def grid(quick: bool = False) -> list[tuple[int, int, int]]:
    """One point per (ppn, mesh side, N_DUP) kernel run, in table order."""
    return [(ppn, p, nd) for ppn, p in _configs(quick) for nd in NDUPS]


def run_point(point: tuple[int, int, int], quick: bool = False) -> float:
    ppn, p, nd = point
    r = run_ssc(p, N, "optimized", n_dup=nd, ppn=ppn, iterations=1)
    return r.tflops


def assemble(results: list[float], quick: bool = False) -> ExperimentOutput:
    configs = _configs(quick)
    t = Table(
        ["PPN", "Process mesh", "Total nodes", "N_DUP=1 (TF)", "N_DUP=4 (TF)"],
        title="Table III: optimized SymmSquareCube vs PPN (1hsg_70)",
    )
    by_point = dict(zip(grid(quick), results))
    values = {(ppn, nd): by_point[(ppn, p, nd)]
              for ppn, p in configs for nd in NDUPS}
    for ppn, p in configs:
        t.add_row([ppn, f"{p}x{p}x{p}", math.ceil(p**3 / ppn),
                   values[(ppn, 1)], values[(ppn, 4)]])
    best = max(values[(ppn, 4)] for ppn, _ in configs)
    baseline = values[(configs[0][0], 1)]
    notes = (
        f"Best combined configuration is {100 * (best / baseline - 1):.1f}% faster\n"
        f"than the non-overlapped single-PPN baseline (paper: 91.2%)."
    )
    return ExperimentOutput(name="table3", tables=[t], values=values, notes=notes)


def run(quick: bool = False) -> ExperimentOutput:
    return assemble([run_point(pt, quick=quick) for pt in grid(quick)], quick=quick)


def check(output: ExperimentOutput) -> None:
    v = output.values
    ppns = sorted({p for p, _ in v})
    # N_DUP=4 beats N_DUP=1 at every PPN.
    for ppn in ppns:
        assert v[(ppn, 4)] > 1.05 * v[(ppn, 1)], f"N_DUP=4 not faster at PPN={ppn}"
    # Multiple PPN helps even without nonblocking overlap.
    multi = max(v[(p, 1)] for p in ppns if p > 1)
    assert multi > 1.1 * v[(1, 1)], (
        f"multiple PPN without overlap gains too little: best "
        f"{multi:.4g} vs PPN=1 {v[(1, 1)]:.4g} TFlop/s (need > +10%)")
    # The paper's surprise: N_DUP=4 @ PPN=2 >= N_DUP=1 @ any PPN.
    if (2, 4) in v:
        best_nd1 = max(v[(p, 1)] for p in ppns)
        assert v[(2, 4)] >= 0.98 * best_nd1, (
            f"N_DUP=4 @ PPN=2 ({v[(2, 4)]:.4g} TFlop/s) lost to the best "
            f"N_DUP=1 point ({best_nd1:.4g} TFlop/s; allowed: -2%)")
    # Combined techniques give a large end-to-end speedup (paper: +91%).
    best = max(v[(p, 4)] for p in ppns)
    assert best > 1.45 * v[(1, 1)], "combined overlap speedup too small"
