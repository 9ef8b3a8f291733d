"""3D matrix multiplication (Dekel/Nassimi/Sahni; Agarwal et al.) — §II.

``C = A B`` on a ``p x p x p`` mesh: the inner dimension is split across the
grid axis, so process ``(i, j, k)`` computes ``A[i,k] @ B[k,j]`` and the
partial products are reduced along the grid communicators.  Per-process
communication volume is ``O(n^2 / p^2)`` (vs ``O(n^2 / p)`` for 2D
algorithms) at the cost of ``p``-fold input replication — the trade-off the
paper's related-work section describes and the SymmSquareCube kernel
specializes.

Data flow per process ``(i, j, k)``:

1. ``A[i,k]`` arrives via broadcast in ``col_comm(i, k)`` from its owner
   ``(i, k, k)``... in this standalone version both inputs start on the
   front face: ``(i, j, 0)`` holds ``A[i,j]`` and ``B[i,j]``;
2. ``A[i,k]`` is routed to plane ``k``: ``(i, k, 0)`` sends its A block to
   ``(i, k, k)``, which broadcasts it along ``col_comm(i, k)`` (so every
   ``(i, *, k)`` has ``A[i,k]``);
3. ``B[k,j]`` likewise: ``(k, j, 0)`` sends to ``(k, j, k)``, which
   broadcasts along ``row_comm(j, k)`` (so every ``(*, j, k)`` has
   ``B[k,j]``);
4. local multiply ``C_part = A[i,k] @ B[k,j]``;
5. reduce ``C_part`` over ``grd_comm(i, j)`` to the front face.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.dense.distribution import assemble_matrix, partition_matrix
from repro.dense.mesh import Mesh3D
from repro.mpi.collectives.plan import block_partition
from repro.mpi.world import RankEnv, World, execute
from repro.netmodel import MachineParams, NetworkParams, block_placement
from repro.util import check_positive

_TAG_A = 31
_TAG_B = 32


def mm3d_program(
    env: RankEnv,
    mesh: Mesh3D,
    n: int,
    a_blk: np.ndarray | None,
    b_blk: np.ndarray | None,
    real: bool,
):
    """Rank program for one 3D product; front-face ranks return ``C[i,j]``."""
    p = mesh.pi
    if mesh.pj != p or mesh.pk != p:
        raise ValueError("3D multiplication needs a cubic mesh")
    i, j, k = mesh.coords_of(env.rank)
    dims, _ranges = block_partition(n, p)
    bi, bj, bk = dims[i], dims[j], dims[k]
    gv_global = env.view(mesh.global_comm)

    # Step 2: route + broadcast A[i,k] within plane k.
    # (i, k, 0) -> (i, k, k), then bcast over col_comm(i, k) (root j = k).
    sreqs = []
    if k == 0 and j != 0:
        dst = mesh.global_comm.local(mesh.rank_of(i, j, j))
        if mesh.rank_of(i, j, j) != env.rank:
            data = np.ascontiguousarray(a_blk) if real else None
            req = yield from gv_global.isend(dst, data=data,
                                             nbytes=bi * bj * 8, tag=_TAG_A)
            sreqs.append(req)
    a_routed = None
    if j == k:
        if k == 0:
            a_routed = np.ascontiguousarray(a_blk).ravel() if real else None
        else:
            src = mesh.global_comm.local(mesh.rank_of(i, j, 0))
            rreq = yield from gv_global.irecv(src, tag=_TAG_A)
            got = yield from rreq.wait()
            a_routed = np.asarray(got).ravel() if real else None
    col = env.view(mesh.col_comm(i, k))
    buf = a_routed if j == k else (np.empty(bi * bk) if real else None)
    buf = yield from col.bcast(buf, nbytes=bi * bk * 8, root=k)
    a_ik = buf.reshape(bi, bk) if real else None

    # Step 3: route + broadcast B[k,j] within plane k.
    # (k, j, 0) -> (k, j, k), then bcast over row_comm(j, k) (root i = k).
    if k == 0 and i != 0:
        dst_rank = mesh.rank_of(i, j, i)
        if dst_rank != env.rank:
            dst = mesh.global_comm.local(dst_rank)
            data = np.ascontiguousarray(b_blk) if real else None
            req = yield from gv_global.isend(dst, data=data,
                                             nbytes=bi * bj * 8, tag=_TAG_B)
            sreqs.append(req)
    b_routed = None
    if i == k:
        if k == 0:
            b_routed = np.ascontiguousarray(b_blk).ravel() if real else None
        else:
            src = mesh.global_comm.local(mesh.rank_of(i, j, 0))
            rreq = yield from gv_global.irecv(src, tag=_TAG_B)
            got = yield from rreq.wait()
            b_routed = np.asarray(got).ravel() if real else None
    row = env.view(mesh.row_comm(j, k))
    buf = b_routed if i == k else (np.empty(bk * bj) if real else None)
    buf = yield from row.bcast(buf, nbytes=bk * bj * 8, root=k)
    b_kj = buf.reshape(bk, bj) if real else None

    # Step 4: local multiply; step 5: reduce along the grid to the front.
    c_part = yield from env.gemm(a_ik, b_kj, bi, bk, bj, label="mm3d-gemm")
    grd = env.view(mesh.grd_comm(i, j))
    send = c_part.ravel() if real else None
    red = yield from grd.reduce(send, nbytes=bi * bj * 8, root=0)
    for req in sreqs:
        yield from req.wait()
    if k == 0 and real:
        return red.reshape(bi, bj)
    return None


@dataclass
class MM3DResult:
    """Outcome of :func:`run_mm3d` and :func:`~repro.dense.mm25d.run_mm25d`."""

    c: np.ndarray | None
    elapsed: float
    world: World


def run_mm3d(
    p: int,
    n: int,
    a: np.ndarray | None = None,
    b: np.ndarray | None = None,
    *,
    ppn: int = 1,
    params: NetworkParams | None = None,
    machine: MachineParams | None = None,
) -> MM3DResult:
    """Run one 3D product ``C = A B`` on a fresh ``p^3`` world."""
    check_positive("p", p)
    return _run_front_face_product(p, p, n, a, b, mm3d_program,
                                   kernel="mm3d", ppn=ppn, params=params,
                                   machine=machine)


def _run_front_face_product(q: int, c: int, n: int, a: np.ndarray | None,
                            b: np.ndarray | None, program_fn, *, kernel: str,
                            ppn: int, params: NetworkParams | None,
                            machine: MachineParams | None) -> MM3DResult:
    """Run one ``program_fn`` product on a fresh ``q x q x c`` world.

    The scaffolding of :func:`run_mm3d` and ``run_mm25d``: A and B start
    as ``q x q`` blocks on the front face, where ``program_fn`` leaves the
    ``C`` blocks that real mode assembles.
    """
    check_positive("ppn", ppn)
    if (a is None) != (b is None):
        raise ValueError("pass both a and b, or neither")
    real = a is not None
    world = World(block_placement(q * q * c, ppn), params=params,
                  machine=machine)
    mesh = Mesh3D(world, q, q, c)
    a_blocks = partition_matrix(a, q) if real else {}
    b_blocks = partition_matrix(b, q) if real else {}

    def program(env: RankEnv):
        i, j, k = mesh.coords_of(env.rank)
        front = real and k == 0
        result = yield from program_fn(
            env, mesh, n, a_blocks[(i, j)] if front else None,
            b_blocks[(i, j)] if front else None, real)
        return result

    outs = execute(world, program, kernel=kernel)
    c_mat = assemble_matrix(mesh.front_face(outs), n, q) if real else None
    return MM3DResult(c=c_mat, elapsed=world.engine.now, world=world)
