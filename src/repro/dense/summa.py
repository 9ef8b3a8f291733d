"""SUMMA — the 2D algorithm of van de Geijn & Watts (related work, §II).

``C = A B`` on a ``p x p`` mesh: for every block column ``l``, the owners
broadcast ``A[i,l]`` along mesh row ``i`` and ``B[l,j]`` along mesh column
``j``, and every process accumulates ``A[i,l] @ B[l,j]``.  Included as the
reference 2D algorithm the paper positions 3D/2.5D algorithms against, and
as an integration test of the substrate (its results are checked against
dense numpy products).

Three variants, one correctness contract (identical ``C``):

``plain``
    The textbook loop: blocking row broadcast, blocking column broadcast,
    GEMM — every panel's two transfers and its compute fully serialize,
    and each blocking collective pays the per-round synchronization gap.

``streaming``
    Tile-depth pipelining: a sliding window of ``depth`` panels keeps that
    many (row ``Ibcast``, col ``Ibcast``) pairs in flight, so panel
    ``l+1..l+depth-1``'s transfers overlap panel ``l``'s GEMM and each
    other.  All traffic rides fabric lane 0 — in-flight panels share every
    link equally.

``colored``
    Pipelined multicast: the row/col communicators are duplicated
    ``colors`` times (2 or 4) and duplicate ``c`` is pinned to fabric
    channel ``c``; panel ``l`` broadcasts on color ``l % colors``.
    Successive panels' transfers therefore occupy *disjoint* link
    resources instead of fair-sharing one lane — the paper's
    overlapping-communication-with-communication technique applied to
    SUMMA's panel broadcasts.

All three express their broadcasts as :class:`CollectivePlan` schedules
(via :meth:`CommView.bcast` / :meth:`CommView.ibcast`), so they share the
plan cache, the zero-copy executor, and the static schedule verifier.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.dense.distribution import assemble_matrix, block_dim, partition_matrix
from repro.dense.mesh import Mesh2D
from repro.mpi.world import RankEnv, World, execute
from repro.netmodel import MachineParams, NetworkParams, block_placement
from repro.tune.validity import SUMMA_ALGORITHMS, validate_summa_config
from repro.util import check_positive

__all__ = [
    "SUMMA_ALGORITHMS",
    "SummaResult",
    "run_summa",
    "summa_pipelined_program",
    "summa_plan_population",
    "summa_channel_claims",
    "summa_program",
]


def summa_program(
    env: RankEnv,
    mesh: Mesh2D,
    n: int,
    a_block: np.ndarray | None,
    b_block: np.ndarray | None,
):
    """Rank program: one plain SUMMA multiplication; returns my ``C[i,j]``."""
    p = mesh.p
    i, j = mesh.coords_of(env.rank)
    bi = block_dim(i, n, p)
    bj = block_dim(j, n, p)
    real = a_block is not None
    c_block = np.zeros((bi, bj)) if real else None
    row = env.view(mesh.row_comm(i))
    col = env.view(mesh.col_comm(j))
    for l in range(p):
        bl = block_dim(l, n, p)
        # Broadcast A[i,l] along row i (root = column l).
        if j == l:
            a_buf = a_block.ravel().copy() if real else None
        else:
            a_buf = np.empty(bi * bl) if real else None
        a_buf = yield from row.bcast(a_buf, nbytes=bi * bl * 8, root=l)
        a_panel = a_buf.reshape(bi, bl) if real else None
        # Broadcast B[l,j] along column j (root = row l).
        if i == l:
            b_buf = b_block.ravel().copy() if real else None
        else:
            b_buf = np.empty(bl * bj) if real else None
        b_buf = yield from col.bcast(b_buf, nbytes=bl * bj * 8, root=l)
        b_panel = b_buf.reshape(bl, bj) if real else None
        yield from env.gemm(a_panel, b_panel, bi, bl, bj,
                            accumulate=c_block, label="summa-gemm")
    return c_block


def summa_pipelined_program(
    env: RankEnv,
    mesh: Mesh2D,
    n: int,
    a_block: np.ndarray | None,
    b_block: np.ndarray | None,
    depth: int = 2,
):
    """Rank program: streaming/colored SUMMA with a ``depth``-panel window.

    ``mesh.n_dup`` is the color count: panel ``l``'s row/col ``Ibcast``
    pair is posted on communicator duplicate ``l % mesh.n_dup`` (the
    streaming variant simply runs with one duplicate).  Up to ``depth``
    panels are in flight at once; panel ``l``'s GEMM waits only on its own
    pair, so later panels' transfers hide behind it.
    """
    p = mesh.p
    colors = mesh.n_dup
    i, j = mesh.coords_of(env.rank)
    bi = block_dim(i, n, p)
    bj = block_dim(j, n, p)
    real = a_block is not None
    c_block = np.zeros((bi, bj)) if real else None
    reqs: list = [None] * p
    posted = 0
    for l in range(p):
        while posted < p and posted < l + depth:
            lp = posted
            bl = block_dim(lp, n, p)
            c = lp % colors
            rowv = env.view(mesh.row_comm(i, c))
            colv = env.view(mesh.col_comm(j, c))
            if j == lp:
                a_buf = a_block.ravel().copy() if real else None
            else:
                a_buf = np.empty(bi * bl) if real else None
            a_req = yield from rowv.ibcast(a_buf, nbytes=bi * bl * 8, root=lp)
            if i == lp:
                b_buf = b_block.ravel().copy() if real else None
            else:
                b_buf = np.empty(bl * bj) if real else None
            b_req = yield from colv.ibcast(b_buf, nbytes=bl * bj * 8, root=lp)
            reqs[lp] = (a_req, b_req)
            posted += 1
        a_req, b_req = reqs[l]
        reqs[l] = None
        bl = block_dim(l, n, p)
        a_buf = yield from a_req.wait()
        b_buf = yield from b_req.wait()
        a_panel = a_buf.reshape(bi, bl) if real else None
        b_panel = b_buf.reshape(bl, bj) if real else None
        yield from env.gemm(a_panel, b_panel, bi, bl, bj,
                            accumulate=c_block, label="summa-gemm")
    return c_block


def summa_plan_population(p: int, n: int, algorithm: str = "plain",
                          colors: int = 1, depth: int = 1) -> list[tuple]:
    """Every collective any rank posts, as ``(verb, size, root, n_elems,
    itemsize)`` tuples — the kernel side of the static-verification
    contract (:func:`repro.analysis.schedule.check_plans` rebuilds and
    proves each one's cross-rank plan set).

    All three variants post the same *population*: one row broadcast of
    ``A[i,l]`` and one column broadcast of ``B[l,j]`` per panel ``l``, on
    ``p``-rank communicators rooted at local rank ``l``.  The variants
    differ only in blocking/nonblocking posting and in which communicator
    duplicate carries each panel — neither changes the schedule shapes.
    """
    validate_summa_config(p, n, algorithm, colors, depth, 1)
    pop = set()
    for l in range(p):
        bl = block_dim(l, n, p)
        for i in range(p):
            pop.add(("bcast", p, l, block_dim(i, n, p) * bl, 8))
        for j in range(p):
            pop.add(("bcast", p, l, bl * block_dim(j, n, p), 8))
    return sorted(pop)


def summa_channel_claims(p: int, algorithm: str = "plain", colors: int = 1,
                         depth: int = 1) -> list[tuple[int, int]]:
    """The kernel's channel-claim declaration for the RA308 verifier check.

    Returns ``(color, channel)`` pairs: the colored variant claims that
    communicator duplicate ``c`` rides fabric lane ``c`` for every color,
    and that concurrently-in-flight panels (any window of ``min(depth,
    colors)`` consecutive panels) occupy pairwise-distinct lanes.  The
    verifier checks the pairs are in range and collision-free.
    """
    if algorithm not in SUMMA_ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}")
    if algorithm != "colored":
        return [(0, 0)]
    return [(c, c) for c in range(colors)]


@dataclass
class SummaResult:
    """Outcome of :func:`run_summa`."""

    c: np.ndarray | None
    elapsed: float
    world: World
    algorithm: str = "plain"
    colors: int = 1
    depth: int = 1
    recording: "GraphRecorder | None" = None  # event graph when record=True  # noqa: F821
    tuning: "TuningRecord | None" = None  # decision trace when tune= given  # noqa: F821


def run_summa(
    p: int,
    n: int,
    a: np.ndarray | None = None,
    b: np.ndarray | None = None,
    *,
    algorithm: str = "plain",
    colors: int | None = None,
    depth: int | None = None,
    ppn: int = 1,
    params: NetworkParams | None = None,
    machine: MachineParams | None = None,
    tune=None,
    tune_db=None,
    deadline: float | None = None,
    record: bool = False,
    trace: bool = False,
) -> SummaResult:
    """Run one SUMMA product on a fresh world; assemble C in real mode.

    ``algorithm`` selects the variant (see the module docstring);
    ``colors`` defaults to 2 for ``colored`` and is fixed at 1 otherwise;
    ``depth`` defaults to a ``min(2, p)``-panel window for the pipelined
    variants.  When ``params`` is omitted the colored variant builds a
    fabric with ``num_channels = colors``; an explicit ``params`` must
    already provide enough lanes.  ``deadline`` bounds the run at that
    virtual time and raises :class:`DeadlineExceeded` (tuner early
    termination); ``record=True`` captures the event dependency graph
    (colored runs record but are marked invalid — multi-channel flows are
    not replayable); ``trace=True`` collects activity spans and per-flow
    link occupancy, the inputs of :mod:`repro.analytics`.

    ``tune`` hands the variant/colors/depth/PPN choice to :mod:`repro.tune`:
    a :class:`~repro.tune.tuner.TuningPolicy` string builds a private
    :class:`~repro.tune.tuner.Tuner`, while a ``Tuner`` or
    :class:`~repro.tune.service.TuningService` instance is used directly
    (many runs then share one warm cache and coalesced searches).  The
    decision trace is attached as ``SummaResult.tuning``.  ``tune_db`` is
    an optional :class:`~repro.tune.db.TuningDB` for warm starts (policy
    strings only — with a tuner object or no ``tune`` it raises
    :class:`ValueError`).
    """
    check_positive("ppn", ppn)
    if tune is not None or tune_db is not None:
        from repro.tune import signature_for_summa, tune_for_run

        return tune_for_run(
            tune, signature_for_summa(p, n, ppn=ppn, params=params,
                                      machine=machine),
            lambda best, eff: run_summa(
                p, n, a, b, algorithm=best.algorithm, colors=best.n_dup,
                depth=best.depth, ppn=best.ppn, params=eff, machine=machine,
                deadline=deadline, record=record, trace=trace),
            tune_db=tune_db, params=params, machine=machine)
    if colors is None:
        colors = 2 if algorithm == "colored" else 1
    if depth is None:
        depth = 1 if algorithm == "plain" else min(2, p)
    if params is None and algorithm == "colored":
        params = NetworkParams(num_channels=colors)
    validate_summa_config(
        p, n, algorithm, colors, depth, ppn,
        num_channels=None if params is None else params.num_channels,
    )
    if (a is None) != (b is None):
        raise ValueError("pass both a and b, or neither")
    world = World(block_placement(p * p, ppn), params=params,
                  machine=machine, record=record, trace=trace)
    if algorithm == "colored":
        mesh = Mesh2D(world, p, n_dup=colors, channels=tuple(range(colors)))
    else:
        mesh = Mesh2D(world, p)
    a_blocks = b_blocks = {}
    if a is not None:
        a_blocks, b_blocks = partition_matrix(a, p), partition_matrix(b, p)

    def program(env: RankEnv):
        ij = mesh.coords_of(env.rank)
        a_blk, b_blk = a_blocks.get(ij), b_blocks.get(ij)
        t0 = env.now
        env.mark("t0", 0)
        if algorithm == "plain":
            c_blk = yield from summa_program(env, mesh, n, a_blk, b_blk)
        else:
            c_blk = yield from summa_pipelined_program(env, mesh, n, a_blk,
                                                       b_blk, depth)
        env.mark("t1", 0)
        return (env.now - t0, c_blk)

    outs = execute(world, program, kernel="summa", deadline=deadline)
    # Per-call kernel time: max across ranks, the metric the tuner compares
    # (Engine.run(until=) pins the world clock to the deadline, so the
    # engine's final time is not usable under bounded runs).
    elapsed = max(out[0] for out in outs)
    c = None
    if a is not None:
        c = assemble_matrix({mesh.coords_of(rank): out[1]
                             for rank, out in enumerate(outs)}, n, p)
    return SummaResult(c=c, elapsed=elapsed, world=world,
                       algorithm=algorithm, colors=colors, depth=depth,
                       recording=world.recorder)
