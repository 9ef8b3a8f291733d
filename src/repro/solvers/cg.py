"""Distributed conjugate gradient with overlapped reductions (paper §VI).

The system is the 1D Dirichlet Laplacian ``A = tridiag(-1, 2, -1)`` of
dimension ``n``, row-partitioned across ``P`` ranks.  The local stencil
application needs one halo element from each neighbour (point-to-point), and
every iteration needs global dot products (scalar allreduces) — the
"reductions involving large numbers of nodes" the paper's conclusions call
the bottleneck of iterative solvers.

Two variants:

``classic``
    Textbook CG.  Two *blocking* allreduces per iteration — ``(p, A p)``
    and ``(r, r)`` — each a full synchronization of all ranks.

``pipelined``
    The Ghysels-Vanroose rearrangement: both dot products are merged into a
    single 2-scalar reduction, issued as a *nonblocking* ``iallreduce`` and
    overlapped with the halo exchange and local stencil of ``q = A w`` —
    the reduction's synchronization hides behind other communication and
    compute, at the cost of three extra AXPY recurrences per iteration.

In exact arithmetic both produce the same iterates; the tests verify both
against ``numpy.linalg.solve`` and the benchmark compares their speed at
scale, where the latency of blocking reductions dominates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.dense.distribution import block_range
from repro.mpi.world import RankEnv, World, execute
from repro.netmodel import MachineParams, NetworkParams, block_placement
from repro.util import check_positive

_TAG_LO = 41  # halo element travelling toward lower ranks
_TAG_HI = 42  # halo element travelling toward higher ranks


def laplacian_1d_matvec_dense(v: np.ndarray) -> np.ndarray:
    """Reference ``A v`` for the 1D Dirichlet Laplacian (numpy, sequential)."""
    w = 2.0 * v
    w[:-1] -= v[1:]
    w[1:] -= v[:-1]
    return w


def _halo_exchange(env, comm, me, p, v_loc, real):
    """Exchange boundary elements with both neighbours; returns (left, right).

    ``left`` is my lower neighbour's last element, ``right`` the upper
    neighbour's first (0.0 at the domain boundary / in modeled mode).
    """
    reqs = []
    if me > 0:
        r = yield from comm.irecv(me - 1, tag=_TAG_HI)
        reqs.append(("left", r))
        data = float(v_loc[0]) if real else None
        s = yield from comm.isend(me - 1, data=data, nbytes=8, tag=_TAG_LO)
        reqs.append((None, s))
    if me < p - 1:
        r = yield from comm.irecv(me + 1, tag=_TAG_LO)
        reqs.append(("right", r))
        data = float(v_loc[-1]) if real else None
        s = yield from comm.isend(me + 1, data=data, nbytes=8, tag=_TAG_HI)
        reqs.append((None, s))
    left = right = 0.0
    for side, req in reqs:
        val = yield from req.wait()
        if side == "left" and val is not None:
            left = val
        elif side == "right" and val is not None:
            right = val
    return left, right


def _local_stencil(env, v_loc, left, right, n_loc, real):
    """Apply the tridiagonal stencil locally (3 flops/row charged)."""
    yield from env.compute_flops(3.0 * n_loc, label="cg-stencil")
    if not real:
        return None
    w = 2.0 * v_loc
    w[:-1] -= v_loc[1:]
    w[1:] -= v_loc[:-1]
    w[0] -= left
    w[-1] -= right
    return w


def _classic_cg_program(env, comm_obj, n, b, tol, maxiter, real):
    p = comm_obj.size
    comm = env.view(comm_obj)
    me = comm.rank
    lo, hi = block_range(me, n, p)
    n_loc = hi - lo
    b_loc = np.asarray(b[lo:hi], dtype=float) if real else None
    x = np.zeros(n_loc) if real else None
    r = b_loc.copy() if real else None
    pvec = r.copy() if real else None

    yield from env.compute_flops(2.0 * n_loc, label="cg-dot")
    rs_loc = float(r @ r) if real else 0.0
    rsold = yield from comm.allreduce(np.array([rs_loc]))
    rsold = float(rsold[0]) if real else 1.0
    rs0 = max(rsold, 1e-300)

    iters = 0
    for _ in range(maxiter):
        iters += 1
        left, right = yield from _halo_exchange(env, comm, me, p, pvec, real)
        ap = yield from _local_stencil(env, pvec, left, right, n_loc, real)
        yield from env.compute_flops(2.0 * n_loc, label="cg-dot")
        pap_loc = float(pvec @ ap) if real else 0.0
        pap = yield from comm.allreduce(np.array([pap_loc]))  # sync point 1
        yield from env.compute_flops(4.0 * n_loc, label="cg-axpy")
        if real:
            alpha = rsold / float(pap[0])
            x += alpha * pvec
            r -= alpha * ap
        yield from env.compute_flops(2.0 * n_loc, label="cg-dot")
        rs_loc = float(r @ r) if real else 0.0
        rsnew = yield from comm.allreduce(np.array([rs_loc]))  # sync point 2
        if real:
            rsnew = float(rsnew[0])
            if np.sqrt(rsnew / rs0) < tol:
                break
            pvec = r + (rsnew / rsold) * pvec
            rsold = rsnew
        yield from env.compute_flops(2.0 * n_loc, label="cg-axpy")
    return x, iters


def _pipelined_cg_program(env, comm_obj, n, b, tol, maxiter, real):
    p = comm_obj.size
    comm = env.view(comm_obj)
    me = comm.rank
    lo, hi = block_range(me, n, p)
    n_loc = hi - lo
    b_loc = np.asarray(b[lo:hi], dtype=float) if real else None
    x = np.zeros(n_loc) if real else None
    r = b_loc.copy() if real else None  # x0 = 0 -> r0 = b
    # w = A r
    left, right = yield from _halo_exchange(env, comm, me, p, r, real)
    w = yield from _local_stencil(env, r, left, right, n_loc, real)
    z = s = pvec = None
    gam_old = alpha_old = None
    rs0 = None
    iters = 0
    for _ in range(maxiter):
        iters += 1
        # Merged 2-scalar reduction, posted nonblocking...
        yield from env.compute_flops(4.0 * n_loc, label="cg-dot")
        if real:
            pair = np.array([float(r @ r), float(w @ r)])
        else:
            pair = None
        req = yield from comm.iallreduce(pair, nbytes=16)
        # ...overlapped with the halo exchange + stencil of q = A w.
        left, right = yield from _halo_exchange(env, comm, me, p, w, real)
        q = yield from _local_stencil(env, w, left, right, n_loc, real)
        red = yield from req.wait()
        yield from env.compute_flops(12.0 * n_loc, label="cg-axpy")
        if real:
            gam, delta = float(red[0]), float(red[1])
            if rs0 is None:
                rs0 = max(gam, 1e-300)
            if np.sqrt(gam / rs0) < tol:
                break
            if gam_old is None:
                beta = 0.0
                alpha = gam / delta
            else:
                beta = gam / gam_old
                alpha = gam / (delta - beta * gam / alpha_old)
            z = q if z is None or beta == 0.0 else q + beta * z
            s = w if s is None or beta == 0.0 else w + beta * s
            pvec = r if pvec is None or beta == 0.0 else r + beta * pvec
            x = x + alpha * pvec
            r = r - alpha * s
            w = w - alpha * z
            gam_old, alpha_old = gam, alpha
    return x, iters


@dataclass
class CGResult:
    """Outcome of :func:`run_cg` and :func:`~repro.solvers.block_cg.run_block_cg`."""

    x: np.ndarray | None          # assembled solution, (n,) or (n, s) (real mode)
    iterations: int
    elapsed: float                # virtual seconds
    residual: float | None        # ||b - A x|| / ||b||, max over columns (real mode)
    world: World

    @property
    def time_per_iteration(self) -> float:
        return self.elapsed / max(self.iterations, 1)


_CG_PROGRAMS = {"classic": _classic_cg_program,
                "pipelined": _pipelined_cg_program}


def run_cg(
    num_ranks: int,
    n: int,
    variant: str = "pipelined",
    b: np.ndarray | None = None,
    *,
    tol: float = 1e-8,
    maxiter: int = 2000,
    ppn: int = 1,
    params: NetworkParams | None = None,
    machine: MachineParams | None = None,
) -> CGResult:
    """Solve the 1D Laplacian system distributed over ``num_ranks`` ranks.

    Real mode (``b`` given, length ``n``): iterate to relative residual
    ``tol`` and return the assembled solution.  Modeled mode: run exactly
    ``maxiter`` iterations charging communication/computation costs only.
    """
    check_positive("n", n)
    if b is not None and len(b) != n:
        raise ValueError(f"b has length {len(b)}, expected {n}")

    def residual(x):
        return float(
            np.linalg.norm(b - laplacian_1d_matvec_dense(x)) / np.linalg.norm(b)
        )

    return _run_solver(num_ranks, variant, _CG_PROGRAMS,
                       (n, b, tol, maxiter, b is not None), residual,
                       kernel="cg", ppn=ppn, params=params, machine=machine)


def _run_solver(num_ranks: int, variant: str, programs: dict, args: tuple,
                residual, *, kernel: str, ppn: int,
                params: NetworkParams | None,
                machine: MachineParams | None) -> CGResult:
    """The scaffolding :func:`run_cg` and ``run_block_cg`` share.

    Runs ``programs[variant](env, comm_world, *args)`` — returning the
    rank's row block of the solution and its iteration count — on a fresh
    ``num_ranks`` world.  Real mode (``args[-1]``) stacks the row blocks
    and reports ``residual(x)``.
    """
    check_positive("num_ranks", num_ranks)
    check_positive("ppn", ppn)
    if variant not in programs:
        raise ValueError(
            f"variant must be 'classic' or 'pipelined', got {variant!r}"
        )
    world = World(block_placement(num_ranks, ppn), params=params,
                  machine=machine)
    prog = programs[variant]

    def program(env: RankEnv):
        out = yield from prog(env, world.comm_world, *args)
        return out

    outs = execute(world, program, kernel=kernel)
    x = res = None
    if args[-1]:
        x = np.concatenate([o[0] for o in outs])
        res = residual(x)
    return CGResult(x=x, iterations=max(o[1] for o in outs),
                    elapsed=world.engine.now, residual=res, world=world)
