"""2.5D matrix multiplication (Solomonik & Demmel), on a ``q x q x c`` mesh.

``P = q^2 c`` processes; the front face (``k = 0``) owns the ``q x q`` block
partitions of A and B.  Each of the ``c`` replication layers receives a full
copy of A and B (grid broadcast), runs ``s = q / c`` Cannon steps at inner
offset ``k * s``, and the partial C blocks are summed across layers back to
the front face.  Memory use is ``c`` times the 2D algorithm's; per-process
communication volume drops from ``O(n^2/sqrt(P))`` to ``O(n^2/sqrt(c P))``
(§II of the paper).

``c = 1`` degenerates to Cannon's 2D algorithm; ``c = q`` is the 3D
algorithm limit.
"""

from __future__ import annotations

import numpy as np

from repro.dense.cannon import cannon_program
from repro.dense.mesh import Mesh3D
from repro.dense.mm3d import MM3DResult, _run_front_face_product
from repro.mpi.collectives.plan import block_partition
from repro.mpi.world import RankEnv
from repro.netmodel import MachineParams, NetworkParams
from repro.util import check_positive


def bcast_block_into(env: RankEnv, comm_view, blk: np.ndarray | None,
                     shape: tuple[int, int], root: int, real: bool):
    """Like :func:`bcast_block` but allocates receive buffers in real mode."""
    nbytes = shape[0] * shape[1] * 8
    if not real:
        yield from comm_view.bcast(nbytes=nbytes, root=root)
        return None
    if comm_view.rank == root:
        buf = np.ascontiguousarray(blk).ravel()
    else:
        buf = np.empty(shape[0] * shape[1])
    out = yield from comm_view.bcast(buf, nbytes=nbytes, root=root)
    return out.reshape(shape)


def mm25d_program(
    env: RankEnv,
    mesh: Mesh3D,
    n: int,
    a_blk: np.ndarray | None,
    b_blk: np.ndarray | None,
    real: bool,
):
    """Rank program for one 2.5D product; front face returns ``C[i,j]``."""
    q, c = mesh.pi, mesh.pk
    if q % c != 0:
        raise ValueError(f"2.5D requires c | q, got q={q}, c={c}")
    s = q // c
    i, j, k = mesh.coords_of(env.rank)
    dims, _ranges = block_partition(n, q)
    bi, bj = dims[i], dims[j]
    grd = env.view(mesh.grd_comm(i, j))
    # Replicate A and B to all layers.
    a_home = yield from bcast_block_into(env, grd, a_blk, (bi, bj), 0, real)
    b_home = yield from bcast_block_into(env, grd, b_blk, (bi, bj), 0, real)
    # Layer-local Cannon steps covering inner indices [k*s, (k+1)*s).
    c_acc = np.zeros((bi, bj)) if real else None
    c_acc = yield from cannon_program(
        env, mesh, k, i, j, n, steps=s, offset=k * s,
        a_blk=a_home, b_blk=b_home, c_acc=c_acc,
    )
    # Sum partial C across layers back to the front face.
    send = c_acc.ravel() if real else None
    red = yield from grd.reduce(send, nbytes=bi * bj * 8, root=0)
    if k == 0 and real:
        return red.reshape(bi, bj)
    return None


#: 2.5D reports the same outcome as the 3D product.
MM25DResult = MM3DResult


def run_mm25d(
    q: int,
    c: int,
    n: int,
    a: np.ndarray | None = None,
    b: np.ndarray | None = None,
    *,
    ppn: int = 1,
    params: NetworkParams | None = None,
    machine: MachineParams | None = None,
) -> MM25DResult:
    """Run one 2.5D product ``C = A B`` on a fresh ``q x q x c`` world."""
    check_positive("q", q)
    check_positive("c", c)
    if q % c != 0:
        raise ValueError(f"2.5D requires c | q, got q={q}, c={c}")
    return _run_front_face_product(q, c, n, a, b, mm25d_program,
                                   kernel="mm25d", ppn=ppn, params=params,
                                   machine=machine)
