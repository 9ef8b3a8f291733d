"""Canonical purification (Palser & Manolopoulos 1998) — dense and distributed.

The "canonical purification" method the paper uses (§I, ref. [3]): starting
from a trace-correct linear map of the Fock matrix, iterate

.. math::

    c_k = \\frac{\\mathrm{Tr}(D_k^2 - D_k^3)}{\\mathrm{Tr}(D_k - D_k^2)},
    \\qquad
    D_{k+1} = \\begin{cases}
      ((1+c_k) D_k^2 - D_k^3) / c_k, & c_k \\ge 1/2,\\\\
      ((1-2 c_k) D_k + (1+c_k) D_k^2 - D_k^3)/(1 - c_k), & c_k < 1/2,
    \\end{cases}

which preserves ``Tr(D) = n_occ`` and converges to the idempotent spectral
projector.  Every step consumes ``D^2`` and ``D^3`` — the SymmSquareCube
kernel — so the distributed driver times exactly what the paper's tables
average "over all the SCF iterations".
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.dense.distribution import assemble_matrix, block_range
from repro.dense.mesh import Mesh3D
from repro.kernels.symmsquarecube import ssc_flops, ssc_program
from repro.mpi.world import RankEnv, World, execute
from repro.netmodel import MachineParams, NetworkParams, block_placement
from repro.tune.validity import check_ssc_algorithm
from repro.util import check_positive


def gershgorin_bounds(f: np.ndarray) -> tuple[float, float]:
    """Cheap eigenvalue bounds ``(h_min, h_max)`` via Gershgorin disks."""
    diag = np.diag(f)
    radius = np.sum(np.abs(f), axis=1) - np.abs(diag)
    return float(np.min(diag - radius)), float(np.max(diag + radius))


def canonical_initial_guess(f: np.ndarray, n_occ: int) -> np.ndarray:
    """Palser-Manolopoulos trace-correct starting matrix ``D_0``.

    ``D_0 = (lambda/n) (mu I - F) + (n_occ/n) I`` with ``mu = Tr(F)/n`` and
    ``lambda`` chosen so the spectrum of ``D_0`` lies in ``[0, 1]``.
    """
    n = f.shape[0]
    if not 0 < n_occ < n:
        raise ValueError(f"need 0 < n_occ < n, got {n_occ}, {n}")
    mu = float(np.trace(f)) / n
    h_min, h_max = gershgorin_bounds(f)
    lam = min(n_occ / (h_max - mu), (n - n_occ) / (mu - h_min))
    d0 = (lam / n) * (mu * np.eye(n) - f)
    d0[np.diag_indices(n)] += n_occ / n
    return d0


def canonical_update_coeffs(tr_d: float, tr_d2: float, tr_d3: float):
    """The PM update as block coefficients ``(a, b, g)``: ``D' = a D + b D^2 + g D^3``.

    Returns ``(a, b, g, c)`` where ``c`` is the PM steering parameter.
    Shared by the dense reference and the distributed driver so both apply
    bitwise-identical updates.
    """
    denom = tr_d - tr_d2
    if abs(denom) < 1e-300:
        return 0.0, 3.0, -2.0, 0.5  # fall back to McWeeny near idempotency
    c = (tr_d2 - tr_d3) / denom
    if c >= 0.5:
        return 0.0, (1.0 + c) / c, -1.0 / c, c
    return (1.0 - 2.0 * c) / (1.0 - c), (1.0 + c) / (1.0 - c), -1.0 / (1.0 - c), c


def canonical_purify_dense(
    f: np.ndarray,
    n_occ: int,
    *,
    tol: float = 1e-10,
    maxiter: int = 100,
) -> tuple[np.ndarray, int]:
    """Sequential numpy reference; returns ``(density_matrix, iterations)``.

    Convergence criterion: idempotency error ``Tr(D - D^2) < tol``.
    """
    check_positive("maxiter", maxiter)
    d = canonical_initial_guess(f, n_occ)
    for it in range(1, maxiter + 1):
        d2 = d @ d
        d3 = d2 @ d
        tr_d, tr_d2, tr_d3 = (float(np.trace(m)) for m in (d, d2, d3))
        a, b, g, _c = canonical_update_coeffs(tr_d, tr_d2, tr_d3)
        d = a * d + b * d2 + g * d3
        if abs(tr_d - tr_d2) < tol:
            return d, it
    return d, maxiter


@dataclass
class PurificationResult:
    """Outcome of :func:`run_distributed_purification`."""

    d: np.ndarray | None          # converged density matrix (real mode)
    iterations: int
    ssc_times: list[float] = field(default_factory=list)
    n: int = 0
    converged: bool = False
    world: World | None = None

    @property
    def avg_ssc_time(self) -> float:
        return sum(self.ssc_times) / len(self.ssc_times)

    @property
    def tflops(self) -> float:
        """Average SymmSquareCube TFlop/s over all iterations — the paper's metric."""
        return ssc_flops(self.n) / self.avg_ssc_time / 1e12


def purification_rank_program(
    env: RankEnv,
    mesh: Mesh3D,
    plane0,
    n: int,
    d0: np.ndarray | None,
    real: bool,
    algorithm: str,
    n_dup: int,
    iterations: int,
    tol: float,
):
    """One rank's canonical-purification loop (composable sub-generator).

    ``plane0`` is a communicator over the mesh front face (for the trace
    reduction); ``d0`` the starting matrix (real mode).  Returns
    ``(per-iteration SSC times, final local D block, iterations done)`` —
    the building block shared by :func:`run_distributed_purification` and
    the SCF driver in :mod:`repro.purify.scf`.
    """
    check_ssc_algorithm(algorithm)
    p = mesh.pi
    i, j, k = mesh.coords_of(env.rank)
    d_blk = None
    rlo = rhi = clo = chi = 0
    if k == 0:
        rlo, rhi = block_range(i, n, p)
        clo, chi = block_range(j, n, p)
        if real:
            d_blk = np.ascontiguousarray(d0[rlo:rhi, clo:chi])
    gv = env.view(mesh.global_comm)
    p0 = env.view(plane0) if k == 0 else None
    times: list[float] = []
    done_at = iterations
    for it in range(iterations):
        yield from gv.barrier()
        t0 = env.now
        out = yield from ssc_program(env, mesh, n, d_blk, real, algorithm,
                                     n_dup)
        times.append(env.now - t0)
        # Trace reduction + local update live on the front face only.
        stop = 0.0
        if k == 0:
            if real:
                d2_blk, d3_blk = out
                tr = np.zeros(3)
                if i == j:
                    tr[:] = (
                        np.trace(d_blk),
                        np.trace(d2_blk),
                        np.trace(d3_blk),
                    )
                tr = yield from p0.allreduce(tr)
                a, b, g, _c = canonical_update_coeffs(*tr)
                # D <- a D + b D^2 + g D^3, blockwise local.
                d_blk = a * d_blk + b * d2_blk + g * d3_blk
                if abs(tr[0] - tr[1]) < tol:
                    stop = 1.0
            else:
                yield from p0.allreduce(nbytes=24)
            yield from env.compute_flops(
                6.0 * (rhi - rlo) * (chi - clo), label="purify-update"
            )
        if real:
            # Everyone learns whether the front face declared convergence.
            flag = yield from gv.allreduce(np.array([stop]))
            if flag[0] > 0.0:
                done_at = it + 1
                break
    return (times, d_blk, done_at)


def run_distributed_purification(
    p: int,
    n: int,
    algorithm: str = "optimized",
    f: np.ndarray | None = None,
    n_occ: int | None = None,
    *,
    n_dup: int = 1,
    ppn: int = 1,
    iterations: int = 10,
    tol: float = 1e-9,
    params: NetworkParams | None = None,
    machine: MachineParams | None = None,
) -> PurificationResult:
    """Canonical purification on a ``p^3`` mesh with a chosen SSC algorithm.

    Real mode (``f`` and ``n_occ`` given): iterates until the idempotency
    error drops below ``tol`` (at most ``iterations`` steps) and returns the
    assembled density matrix.  Modeled mode: runs exactly ``iterations``
    SymmSquareCube steps at paper scale, timing each.
    """
    check_positive("p", p)
    check_positive("iterations", iterations)
    check_positive("ppn", ppn)
    check_ssc_algorithm(algorithm)
    real = f is not None
    if real:
        if n_occ is None:
            raise ValueError("real mode needs n_occ")
        if f.shape != (n, n):
            raise ValueError(f"f has shape {f.shape}, expected {(n, n)}")
    world = World(block_placement(p**3, ppn), params=params, machine=machine)
    mesh = Mesh3D(world, p, n_dup=max(n_dup, 1))
    plane0 = world.new_comm(
        [mesh.rank_of(i, j, 0) for i in range(p) for j in range(p)], "plane0"
    )
    d0 = canonical_initial_guess(f, n_occ) if real else None

    def program(env: RankEnv):
        out = yield from purification_rank_program(
            env, mesh, plane0, n, d0, real, algorithm, n_dup, iterations, tol
        )
        return out

    outs = execute(world, program, kernel="purification")
    # Real mode can converge early: use the front-face iteration count.
    iters_done = min(out[2] for out in outs)
    ssc_times = [
        max(out[0][it] for out in outs if it < len(out[0]))
        for it in range(min(len(out[0]) for out in outs))
    ]
    d_final = None
    converged = False
    if real:
        d_final = assemble_matrix(mesh.front_face([out[1] for out in outs]),
                                  n, p)
        idem = abs(np.trace(d_final) - np.trace(d_final @ d_final))
        converged = idem < max(tol * 10, 1e-6)
    return PurificationResult(
        d=d_final,
        iterations=iters_done,
        ssc_times=ssc_times,
        n=n,
        converged=converged,
        world=world,
    )
