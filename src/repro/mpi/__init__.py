"""An MPI-like message-passing substrate running on the simulated network.

This package reimplements the MPI machinery the paper depends on:

* communicators with ``dup`` / ``split`` / subgroup creation — the
  "N_DUP copies of row_comm/col_comm/grd_comm" of Algorithms 2 and 5;
* point-to-point messaging with eager and rendezvous protocols
  (``send``/``recv``/``isend``/``irecv`` + request objects);
* blocking *and nonblocking* collectives (``bcast``/``reduce``/
  ``allreduce``/``allgather``/``barrier`` and their ``i``-prefixed forms),
  built from the same round-based schedules real MPI libraries use:
  binomial trees for short messages, scatter+allgather broadcast and
  Rabenseifner reduction for long messages;
* a per-process *progress engine* that serializes nonblocking-collective
  bookkeeping (reduction combines, in particular), reproducing the posting
  and progression behaviour the paper measures in Fig. 6.

Rank programs are generator coroutines; all communication calls are used
with ``yield from``::

    def program(env):
        comm = env.view(world.comm_world)
        req = yield from comm.ibcast(buf, root=0)
        ...                     # overlap something else here
        yield from req.wait()

See :class:`repro.mpi.world.World` for the entry point.
"""

from repro.mpi.world import World, RankEnv, execute
from repro.mpi.comm import Comm, CommView
from repro.mpi.requests import Request, waitall, waitany
from repro.mpi.progress import ProgressEngine
from repro.mpi.transport import Transport

__all__ = [
    "World",
    "RankEnv",
    "execute",
    "Comm",
    "CommView",
    "Request",
    "waitall",
    "waitany",
    "ProgressEngine",
    "Transport",
]
