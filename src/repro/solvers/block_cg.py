"""Block conjugate gradient with merged/overlapped Gram reductions (§VI).

The paper's conclusions name *block* iterative solvers specifically: with
``s`` right-hand sides the per-iteration reductions are ``s x s`` Gram
matrices (``P^T A P``, ``R^T R``), and at scale their latency — not the
halo exchange or the stencil — dominates the iteration.

``classic`` — O'Leary (1980) block CG, two exposed global synchronization
points per iteration::

    Q     = A P
    ptq   = allreduce(P^T Q)                     <- sync point 1
    alpha = ptq^+ rtr
    X += P alpha ; R -= Q alpha
    rtr'  = allreduce(R^T R)                     <- sync point 2
    beta  = rtr^+ rtr' ;  P = R + P beta

``pipelined`` — the Ghysels-Vanroose-style rearrangement generalized to
blocks: maintain ``Q = A P`` by the recurrence ``Q' = W + Q beta`` with
``W = A R``, and obtain *every* Gram matrix of the next iteration from one
merged reduction of ``[R^T R, R^T W, R^T Q, P^T W]`` (posted nonblocking,
``4 s^2`` values)::

    ptq' = P'^T Q' = R^T W + (R^T Q) beta + beta^T (P^T W) + beta^T ptq beta

One global synchronization per iteration instead of two — the reductions
of the classic scheme are *merged and overlapped into a single pipelined
operation*, the same medicine the paper prescribes.  In exact arithmetic
the iterates are identical; the small solves use ``numpy.linalg.lstsq``
for robustness against block-CG's near-rank-deficiency as columns converge.
"""

from __future__ import annotations

import numpy as np

from repro.dense.distribution import block_range
from repro.netmodel import MachineParams, NetworkParams
from repro.solvers.cg import CGResult, _run_solver, laplacian_1d_matvec_dense
from repro.util import check_positive

_TAG_DOWN = 44  # boundary row travelling toward lower ranks
_TAG_UP = 45    # boundary row travelling toward higher ranks


def _halo_rows(env, comm, me, p, v_loc, s, real):
    """Exchange boundary rows (length ``s``) of an ``(n_loc, s)`` block.

    Returns ``(left_row, right_row)`` — the lower neighbour's last row and
    the upper neighbour's first row (0 at domain boundaries / modeled mode).
    """
    reqs = []
    if me > 0:
        r = yield from comm.irecv(me - 1, tag=_TAG_UP)
        reqs.append(("left", r))
        data = np.array(v_loc[0]) if real else None
        q = yield from comm.isend(me - 1, data=data, nbytes=8 * s, tag=_TAG_DOWN)
        reqs.append((None, q))
    if me < p - 1:
        r = yield from comm.irecv(me + 1, tag=_TAG_DOWN)
        reqs.append(("right", r))
        data = np.array(v_loc[-1]) if real else None
        q = yield from comm.isend(me + 1, data=data, nbytes=8 * s, tag=_TAG_UP)
        reqs.append((None, q))
    left = right = 0.0
    for side, req in reqs:
        val = yield from req.wait()
        if side == "left" and val is not None:
            left = val
        elif side == "right" and val is not None:
            right = val
    return left, right


def _stencil_block(env, v_loc, left_row, right_row, n_loc, s, real):
    """Tridiagonal Laplacian applied to an ``(n_loc, s)`` block."""
    yield from env.compute_flops(3.0 * n_loc * s, label="bcg-stencil")
    if not real:
        return None
    w = 2.0 * v_loc
    w[:-1] -= v_loc[1:]
    w[1:] -= v_loc[:-1]
    w[0] -= left_row
    w[-1] -= right_row
    return w


def _solve(gram: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    return np.linalg.lstsq(gram, rhs, rcond=None)[0]


def _classic_program(env, comm_obj, n, s, b, tol, maxiter, real):
    p = comm_obj.size
    comm = env.view(comm_obj)
    me = comm.rank
    lo, hi = block_range(me, n, p)
    n_loc = hi - lo
    B = np.asarray(b[lo:hi], dtype=float) if real else None
    X = np.zeros((n_loc, s)) if real else None
    R = B.copy() if real else None
    P = R.copy() if real else None
    gram_nbytes = s * s * 8

    yield from env.compute_flops(2.0 * n_loc * s * s, label="bcg-gram")
    red = yield from comm.allreduce(
        (R.T @ R).ravel() if real else None, nbytes=gram_nbytes
    )
    rtr = red.reshape(s, s) if real else None
    rnorm0 = max(float(np.trace(rtr)), 1e-300) if real else 1.0

    iters = 0
    for _ in range(maxiter):
        iters += 1
        halo_p = yield from _halo_rows(env, comm, me, p, P, s, real)
        Q = yield from _stencil_block(env, P, halo_p[0], halo_p[1], n_loc, s, real)
        yield from env.compute_flops(2.0 * n_loc * s * s, label="bcg-gram")
        red = yield from comm.allreduce(
            (P.T @ Q).ravel() if real else None, nbytes=gram_nbytes
        )  # sync point 1
        yield from env.compute_flops(4.0 * n_loc * s * s, label="bcg-update")
        if real:
            ptq = red.reshape(s, s)
            alpha = _solve(ptq, rtr)
            X = X + P @ alpha
            R = R - Q @ alpha
        yield from env.compute_flops(2.0 * n_loc * s * s, label="bcg-gram")
        red = yield from comm.allreduce(
            (R.T @ R).ravel() if real else None, nbytes=gram_nbytes
        )  # sync point 2
        yield from env.compute_flops(2.0 * n_loc * s * s, label="bcg-update")
        if real:
            rtr_new = red.reshape(s, s)
            if np.sqrt(max(float(np.trace(rtr_new)), 0.0) / rnorm0) < tol:
                break
            beta = _solve(rtr, rtr_new)
            P = R + P @ beta
            rtr = rtr_new
    return X, iters


def _pipelined_program(env, comm_obj, n, s, b, tol, maxiter, real):
    p = comm_obj.size
    comm = env.view(comm_obj)
    me = comm.rank
    lo, hi = block_range(me, n, p)
    n_loc = hi - lo
    B = np.asarray(b[lo:hi], dtype=float) if real else None
    X = np.zeros((n_loc, s)) if real else None
    R = B.copy() if real else None
    P = R.copy() if real else None
    merged_nbytes = 4 * s * s * 8

    # Initial matvec Q = A P and initial Gram pair (one reduction).
    halo_p = yield from _halo_rows(env, comm, me, p, P, s, real)
    Q = yield from _stencil_block(env, P, halo_p[0], halo_p[1], n_loc, s, real)
    yield from env.compute_flops(4.0 * n_loc * s * s, label="bcg-gram")
    if real:
        packed = np.concatenate([(R.T @ R).ravel(), (P.T @ Q).ravel()])
    else:
        packed = None
    red = yield from comm.allreduce(packed, nbytes=2 * s * s * 8)
    if real:
        rtr = red[: s * s].reshape(s, s)
        ptq = red[s * s:].reshape(s, s)
        rnorm0 = max(float(np.trace(rtr)), 1e-300)

    iters = 0
    for _ in range(maxiter):
        iters += 1
        yield from env.compute_flops(4.0 * n_loc * s * s, label="bcg-update")
        if real:
            alpha = _solve(ptq, rtr)
            X = X + P @ alpha
            R = R - Q @ alpha
        # Matvec of the residual (the halo is tiny; the stencil local).
        halo_r = yield from _halo_rows(env, comm, me, p, R, s, real)
        W = yield from _stencil_block(env, R, halo_r[0], halo_r[1], n_loc, s, real)
        # The single merged Gram reduction of the iteration.
        yield from env.compute_flops(8.0 * n_loc * s * s, label="bcg-gram")
        if real:
            packed = np.concatenate([
                (R.T @ R).ravel(), (R.T @ W).ravel(),
                (R.T @ Q).ravel(), (P.T @ W).ravel(),
            ])
        else:
            packed = None
        req = yield from comm.iallreduce(packed, nbytes=merged_nbytes)
        red = yield from req.wait()
        yield from env.compute_flops(4.0 * n_loc * s * s, label="bcg-update")
        if real:
            ss = s * s
            rtr_new = red[:ss].reshape(s, s)
            rtw = red[ss:2 * ss].reshape(s, s)
            rtq = red[2 * ss:3 * ss].reshape(s, s)
            ptw = red[3 * ss:].reshape(s, s)
            if np.sqrt(max(float(np.trace(rtr_new)), 0.0) / rnorm0) < tol:
                break
            beta = _solve(rtr, rtr_new)
            # Next search block and its A-image, all local from here.
            P = R + P @ beta
            Q = W + Q @ beta
            ptq = rtw + rtq @ beta + beta.T @ ptw + beta.T @ ptq @ beta
            rtr = rtr_new
    return X, iters


#: Block CG reports the same outcome as :func:`~repro.solvers.cg.run_cg`.
BlockCGResult = CGResult

_BLOCK_CG_PROGRAMS = {"classic": _classic_program,
                      "pipelined": _pipelined_program}


def run_block_cg(
    num_ranks: int,
    n: int,
    s: int = 4,
    variant: str = "pipelined",
    b: np.ndarray | None = None,
    *,
    tol: float = 1e-8,
    maxiter: int = 2000,
    ppn: int = 1,
    params: NetworkParams | None = None,
    machine: MachineParams | None = None,
) -> BlockCGResult:
    """Solve ``A X = B`` (1D Laplacian, ``s`` right-hand sides) distributed.

    ``variant`` is ``"classic"`` (two blocking Gram allreduces per
    iteration) or ``"pipelined"`` (one merged nonblocking Gram reduction —
    identical iterates in exact arithmetic).  Real mode: pass ``b`` of
    shape ``(n, s)``.
    """
    check_positive("n", n)
    check_positive("s", s)
    if b is not None and b.shape != (n, s):
        raise ValueError(f"b has shape {b.shape}, expected {(n, s)}")

    def residual(x):
        resid = b - np.column_stack(
            [laplacian_1d_matvec_dense(x[:, c]) for c in range(s)]
        )
        return float(
            max(
                np.linalg.norm(resid[:, c]) / max(np.linalg.norm(b[:, c]), 1e-300)
                for c in range(s)
            )
        )

    return _run_solver(num_ranks, variant, _BLOCK_CG_PROGRAMS,
                       (n, s, b, tol, maxiter, b is not None), residual,
                       kernel="block_cg", ppn=ppn, params=params,
                       machine=machine)
