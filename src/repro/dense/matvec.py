"""Parallel matrix-vector multiplication — the paper's Algorithms 1 and 2.

``y = A x`` on a ``p x p`` process mesh.  ``A[i,j]`` lives on process
``P[i,j]``; every process in mesh column ``j`` holds block ``x_j``; on
completion every process in column ``j`` holds ``y_j`` ("y distributed as
x").

Algorithm 1 (plain): local multiply, blocking row-reduce to the diagonal,
blocking column-broadcast from the diagonal.

Algorithm 2 (pipelined/overlapped): each local product is divided into
``N_DUP`` contiguous parts; part ``c`` is reduced with ``MPI_Ireduce`` on
the ``c``-th duplicate of the row communicator, and the diagonal process
broadcasts part ``c`` with ``MPI_Ibcast`` on the ``c``-th duplicate of the
column communicator *as soon as that part's reduction completes* — the
broadcast of early parts overlaps the reduction of later parts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.dense.distribution import (
    block_dim,
    block_range,
    part_slices,
    partition_matrix,
)
from repro.dense.mesh import Mesh2D
from repro.mpi.requests import waitall
from repro.mpi.world import RankEnv, World, execute
from repro.netmodel import MachineParams, NetworkParams, block_placement
from repro.util import check_positive


def matvec_program(
    env: RankEnv,
    mesh: Mesh2D,
    n: int,
    a_block: np.ndarray | None,
    x_block: np.ndarray | None,
    n_dup: int = 1,
    overlapped: bool = False,
):
    """Rank program computing one distributed matvec; returns this rank's ``y_j``.

    ``a_block``/``x_block`` may be ``None`` for modeled (timing-only) runs.
    ``overlapped=False`` with any ``n_dup`` runs Algorithm 1; ``True`` runs
    Algorithm 2 with ``n_dup`` pipeline stages.
    """
    check_positive("n_dup", n_dup)
    p = mesh.p
    i, j = mesh.coords_of(env.rank)
    bi = block_dim(i, n, p)
    bj = block_dim(j, n, p)

    # Line 1: local partial product y_i^(j) = A[i,j] @ x_j.
    y_loc = yield from env.gemm(a_block, x_block, bi, bj, 1, label="matvec-local")
    if y_loc is None and a_block is not None:
        raise ValueError("a_block given without x_block (or vice versa)")

    # This rank ends up with column block y_j.
    out = np.zeros(bj) if x_block is not None else None

    if not overlapped:
        # Algorithm 1: blocking reduce along the row, then column broadcast.
        row = env.view(mesh.row_comm(i))
        red = yield from row.reduce(y_loc, nbytes=bi * 8, root=i)
        col = env.view(mesh.col_comm(j))
        if i == j:
            if out is not None:
                out[:] = red
            yield from col.bcast(out, nbytes=bj * 8, root=j)
        else:
            yield from col.bcast(out, nbytes=bj * 8, root=j)
        return out

    # Algorithm 2: split into N_DUP parts; Ireduce all, then pipeline Ibcast.
    red_parts = part_slices(bi, n_dup)
    out_parts = part_slices(bj, n_dup)
    red_reqs = []
    for c, (lo, hi) in enumerate(red_parts):
        row_c = env.view(mesh.row_comm(i, c))
        part = None if y_loc is None else y_loc[lo:hi]
        req = yield from row_c.ireduce(part, nbytes=(hi - lo) * 8, root=i)
        red_reqs.append(req)
    bcast_reqs = []
    for c, (lo, hi) in enumerate(out_parts):
        col_c = env.view(mesh.col_comm(j, c))
        if i == j:
            reduced = yield from red_reqs[c].wait()
            if out is not None:
                out[lo:hi] = reduced
            buf = None if out is None else out[lo:hi]
            req = yield from col_c.ibcast(buf, nbytes=(hi - lo) * 8, root=j)
        else:
            buf = None if out is None else out[lo:hi]
            req = yield from col_c.ibcast(buf, nbytes=(hi - lo) * 8, root=j)
        bcast_reqs.append(req)
    yield from waitall(bcast_reqs + [r for c, r in enumerate(red_reqs) if i != j])
    return out


@dataclass
class MatvecResult:
    """Outcome of :func:`run_matvec`."""

    y: np.ndarray | None       # the assembled result (real mode)
    elapsed: float             # virtual seconds for the distributed matvec
    world: World


def run_matvec(
    p: int,
    n: int,
    a: np.ndarray | None = None,
    x: np.ndarray | None = None,
    *,
    n_dup: int = 1,
    overlapped: bool = False,
    ppn: int = 1,
    params: NetworkParams | None = None,
    machine: MachineParams | None = None,
    trace: bool = False,
) -> MatvecResult:
    """Build a world, run one distributed matvec, assemble the result.

    Real mode: pass ``a`` (``n x n``) and ``x`` (length ``n``); the result
    vector is reassembled from the mesh and returned.  Modeled mode: leave
    them ``None`` and only the elapsed virtual time is meaningful.
    """
    check_positive("p", p)
    check_positive("ppn", ppn)
    if (a is None) != (x is None):
        raise ValueError("pass both a and x, or neither")
    world = World(block_placement(p * p, ppn), params=params, machine=machine,
                  trace=trace)
    mesh = Mesh2D(world, p, n_dup=max(n_dup, 1))
    a_blocks = partition_matrix(a, p) if a is not None else {}

    def program(env: RankEnv):
        i, j = mesh.coords_of(env.rank)
        a_blk = x_blk = None
        if a is not None:
            clo, chi = block_range(j, n, p)
            a_blk = a_blocks[(i, j)]
            x_blk = np.ascontiguousarray(x[clo:chi])
        result = yield from matvec_program(
            env, mesh, n, a_blk, x_blk, n_dup=n_dup, overlapped=overlapped
        )
        return result

    outs = execute(world, program, kernel="matvec")
    y = None
    if a is not None:  # every row of mesh column j holds the same y[j] block
        y = np.concatenate([outs[mesh.rank_of(p - 1, j)] for j in range(p)])
    return MatvecResult(y=y, elapsed=world.engine.now, world=world)
