"""Plimpton-style force decomposition on a 2D process mesh (§VI outlook).

``n`` particles, positions partitioned into ``p`` blocks; the ``p x p``
force matrix block ``(i, j)`` holds the forces of block-``j`` particles on
block-``i`` particles.  Process ``(i, j)`` needs position blocks ``x_i``
and ``x_j``, both broadcast from the diagonal owners; after the local
evaluation, the partial forces are reduced along mesh rows back to the
diagonal:

1. diagonal ``(i, i)`` broadcasts ``x_i`` along row ``i``;
2. diagonal ``(j, j)`` broadcasts ``x_j`` along column ``j``;
3. local evaluation of the block's pairwise forces;
4. row-reduce the partial forces to ``(i, i)``;
5. (diagonal) position update, next step.

The overlapped variant applies the paper's techniques: the row and column
broadcasts are *independent collectives* and overlap with each other, each
split into ``N_DUP`` parts on duplicated communicators; the force reduction
overlaps with itself the same way.  The force law is a softened inverse
square (no cutoff) so the dense reference is exact.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.dense.distribution import block_dim, block_range, part_slices
from repro.dense.mesh import Mesh2D
from repro.mpi.requests import waitall
from repro.mpi.world import RankEnv, World, execute
from repro.netmodel import MachineParams, NetworkParams, block_placement
from repro.util import check_positive

_SOFTENING = 0.05
_PAIR_FLOPS = 20.0  # distance, softened inverse cube, 3-component accumulate


def pairwise_forces_dense(x: np.ndarray) -> np.ndarray:
    """Reference O(n^2) forces: softened inverse-square pair interactions."""
    if x.ndim != 2 or x.shape[1] != 3:
        raise ValueError(f"positions must be (n, 3), got {x.shape}")
    diff = x[:, None, :] - x[None, :, :]            # r_i - r_j
    dist2 = (diff**2).sum(axis=2) + _SOFTENING
    inv3 = dist2**-1.5
    np.fill_diagonal(inv3, 0.0)
    return (diff * inv3[:, :, None]).sum(axis=1)


def _block_forces(xi: np.ndarray, xj: np.ndarray, same_block: bool) -> np.ndarray:
    """Forces of block-j particles on block-i particles (softened 1/r^2)."""
    diff = xi[:, None, :] - xj[None, :, :]
    dist2 = (diff**2).sum(axis=2) + _SOFTENING
    inv3 = dist2**-1.5
    if same_block:
        np.fill_diagonal(inv3, 0.0)
    return (diff * inv3[:, :, None]).sum(axis=1)


def force_step_program(
    env: RankEnv,
    mesh: Mesh2D,
    n: int,
    x_blk: np.ndarray | None,
    real: bool,
    n_dup: int = 1,
    overlapped: bool = False,
    steps: int = 1,
    dt: float = 0.0,
):
    """Rank program: ``steps`` force evaluations (+ toy position updates).

    ``x_blk`` is this diagonal rank's position block (``(b_i, 3)``); other
    ranks pass ``None``.  Diagonal ranks return their final ``(x_blk,
    f_blk)``; off-diagonal ranks return ``None``.
    """
    check_positive("steps", steps)
    p = mesh.p
    i, j = mesh.coords_of(env.rank)
    bi = block_dim(i, n, p)
    bj = block_dim(j, n, p)
    row = env.view(mesh.row_comm(i))
    col = env.view(mesh.col_comm(j))
    f_blk = None
    for _step in range(steps):
        # -- phases 1+2: position broadcasts (row from (i,i); col from (j,j)).
        xi_buf = (np.ascontiguousarray(x_blk).ravel().copy()
                  if real and i == j else (np.empty(bi * 3) if real else None))
        xj_buf = (np.ascontiguousarray(x_blk).ravel().copy()
                  if real and i == j else (np.empty(bj * 3) if real else None))
        if not overlapped:
            xi_buf = yield from row.bcast(xi_buf, nbytes=bi * 3 * 8, root=i)
            xj_buf = yield from col.bcast(xj_buf, nbytes=bj * 3 * 8, root=j)
        else:
            reqs = []
            for c, (lo, hi) in enumerate(part_slices(bi * 3, n_dup)):
                rv = env.view(mesh.row_comm(i, c))
                part = None if xi_buf is None else xi_buf[lo:hi]
                req = yield from rv.ibcast(part, nbytes=(hi - lo) * 8, root=i)
                reqs.append(req)
            for c, (lo, hi) in enumerate(part_slices(bj * 3, n_dup)):
                cv = env.view(mesh.col_comm(j, c))
                part = None if xj_buf is None else xj_buf[lo:hi]
                req = yield from cv.ibcast(part, nbytes=(hi - lo) * 8, root=j)
                reqs.append(req)
            yield from waitall(reqs)
        # -- phase 3: local force block.
        yield from env.compute_flops(_PAIR_FLOPS * bi * bj, label="forces")
        if real:
            xi = xi_buf.reshape(bi, 3)
            xj = xj_buf.reshape(bj, 3)
            f_part = _block_forces(xi, xj, same_block=(i == j)).ravel()
        else:
            f_part = None
        # -- phase 4: row-reduce partial forces to the diagonal.
        if not overlapped:
            red = yield from row.reduce(f_part, nbytes=bi * 3 * 8, root=i)
            f_buf = red if i == j else None
        else:
            reqs = []
            for c, (lo, hi) in enumerate(part_slices(bi * 3, n_dup)):
                rv = env.view(mesh.row_comm(i, c))
                part = None if f_part is None else f_part[lo:hi]
                req = yield from rv.ireduce(part, nbytes=(hi - lo) * 8, root=i)
                reqs.append(req)
            parts = yield from waitall(reqs)
            f_buf = np.concatenate(parts) if real and i == j else None
        # -- phase 5: toy explicit position update on the diagonal owners.
        if i == j:
            yield from env.compute_flops(6.0 * bi, label="update")
            if real:
                f_blk = f_buf.reshape(bi, 3)
                if dt != 0.0:
                    x_blk = x_blk + dt * f_blk
    if i == j:
        return (x_blk, f_blk) if real else (None, None)
    return None


@dataclass
class ForceStepResult:
    """Outcome of :func:`run_force_step`."""

    x: np.ndarray | None          # final positions (real mode)
    forces: np.ndarray | None     # forces of the last step
    elapsed: float
    steps: int
    world: World

    @property
    def time_per_step(self) -> float:
        return self.elapsed / self.steps


def run_force_step(
    p: int,
    n: int,
    x: np.ndarray | None = None,
    *,
    overlapped: bool = False,
    n_dup: int = 1,
    steps: int = 1,
    dt: float = 0.0,
    ppn: int = 1,
    params: NetworkParams | None = None,
    machine: MachineParams | None = None,
) -> ForceStepResult:
    """Run ``steps`` force-decomposition evaluations on a ``p x p`` mesh.

    Real mode: pass positions ``x`` of shape ``(n, 3)``; final positions and
    last-step forces are reassembled (verify against
    :func:`pairwise_forces_dense`).  Modeled mode: timing only.
    """
    check_positive("p", p)
    check_positive("steps", steps)
    check_positive("ppn", ppn)
    real = x is not None
    if real and x.shape != (n, 3):
        raise ValueError(f"x has shape {x.shape}, expected {(n, 3)}")
    world = World(block_placement(p * p, ppn), params=params,
                  machine=machine)
    mesh = Mesh2D(world, p, n_dup=max(n_dup, 1))

    def program(env: RankEnv):
        i, j = mesh.coords_of(env.rank)
        x_blk = None
        if real and i == j:
            lo, hi = block_range(i, n, p)
            x_blk = np.ascontiguousarray(x[lo:hi])
        out = yield from force_step_program(
            env, mesh, n, x_blk, real, n_dup=n_dup, overlapped=overlapped,
            steps=steps, dt=dt,
        )
        return out

    outs = execute(world, program, kernel="force_step")
    x_out = f_out = None
    if real:
        diag = [outs[mesh.rank_of(i, i)] for i in range(p)]
        x_out = np.concatenate([out[0] for out in diag])
        f_out = np.concatenate([out[1] for out in diag])
    return ForceStepResult(x=x_out, forces=f_out, elapsed=world.engine.now,
                           steps=steps, world=world)
