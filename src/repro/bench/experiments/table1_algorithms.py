"""Table I — SymmSquareCube performance of Algorithms 3, 4 and 5.

Paper setup: 64 Skylake nodes, single PPN, 4x4x4 process mesh, N_DUP = 4
for the optimized algorithm, three molecular systems; performance is the
average TFlop/s of the kernel (``4 N^3`` flops per call) over SCF
iterations.  Paper values:

========  =========  ======  ======  ======  ==========
system    dimension  Alg.3   Alg.4   Alg.5   Alg5/Alg4
========  =========  ======  ======  ======  ==========
1hsg_45   5330       12.36   13.20   16.05   1.21
1hsg_60   6895       16.83   17.57   20.57   1.17
1hsg_70   7645       18.49   19.21   22.48   1.17
========  =========  ======  ======  ======  ==========
"""

from __future__ import annotations

from repro.bench.harness import ExperimentOutput
from repro.kernels import run_ssc
from repro.purify import SYSTEMS
from repro.util import Table

P = 4
N_DUP = 4
PAPER = {
    "1hsg_45": (12.36, 13.20, 16.05),
    "1hsg_60": (16.83, 17.57, 20.57),
    "1hsg_70": (18.49, 19.21, 22.48),
}


_ALGS = (("original", {}), ("baseline", {}), ("optimized", {"n_dup": N_DUP}))


def grid(quick: bool = False) -> list[tuple[str, str]]:
    """One point per (system, algorithm), row-major in table order."""
    systems = ["1hsg_70"] if quick else list(SYSTEMS)
    return [(system, alg) for system in systems for alg, _kw in _ALGS]


def run_point(point: tuple[str, str], quick: bool = False) -> float:
    system, alg = point
    iterations = 1 if quick else 3
    n, _nocc = SYSTEMS[system]
    kwargs = dict(_ALGS)[alg]
    r = run_ssc(P, n, alg, iterations=iterations, **kwargs)
    return r.tflops


def assemble(results: list[float], quick: bool = False) -> ExperimentOutput:
    t = Table(
        ["System", "Dim", "Alg.3 (TF)", "Alg.4 (TF)", "Alg.5 (TF)",
         "Alg5/Alg4", "paper Alg5/Alg4"],
        title="Table I: SymmSquareCube algorithm comparison (p=4, PPN=1, N_DUP=4)",
    )
    by_point = dict(zip(grid(quick), results))
    values: dict = {}
    for system in ["1hsg_70"] if quick else list(SYSTEMS):
        n, _nocc = SYSTEMS[system]
        t3, t4, t5 = (by_point[(system, alg)] for alg, _kw in _ALGS)
        values[system] = (t3, t4, t5)
        paper = PAPER[system]
        t.add_row([system, n, t3, t4, t5, t5 / t4, paper[2] / paper[1]])
    return ExperimentOutput(
        name="table1",
        tables=[t],
        values=values,
        notes=(
            "Targets: Alg.4 >= Alg.3; the nonblocking-overlap Alg.5 beats the\n"
            "baseline by >= 15% (paper: 17-21%)."
        ),
    )


def run(quick: bool = False) -> ExperimentOutput:
    return assemble([run_point(pt, quick=quick) for pt in grid(quick)], quick=quick)


def check(output: ExperimentOutput) -> None:
    for system, (t3, t4, t5) in output.values.items():
        assert t4 >= 0.98 * t3, f"{system}: baseline should not lose to original"
        ratio = t5 / t4
        assert 1.10 <= ratio <= 1.55, (
            f"{system}: Alg5/Alg4 speedup {ratio:.2f} out of the paper's band"
        )
    # Larger systems run at higher absolute TFlop/s (bandwidth amortization).
    if len(output.values) == 3:
        t45, t60, t70 = (output.values[s][2] for s in ("1hsg_45", "1hsg_60", "1hsg_70"))
        assert t45 < t60 < t70, (
            f"Alg.5 TFlop/s does not grow with system size: 1hsg_45 "
            f"{t45:.4g}, 1hsg_60 {t60:.4g}, 1hsg_70 {t70:.4g}")
