"""Process meshes and the paper's communicator structure.

3D mesh (SymmSquareCube, Algorithms 3-5; also 2.5D with ``pk != pi``):

* coordinates ``(i, j, k)`` with ``i, j`` the in-plane block indices and
  ``k`` the grid/replication dimension;
* rank numbering is the paper's "natural" assignment — "ranks are assigned
  row by row in one plane and then plane by plane":
  ``rank = k * (pi*pj) + i * pj + j``;
* ``row_comm(j, k)``  = processes ``P[:, j, k]`` (paper notation),
  ``col_comm(i, k)``  = processes ``P[i, :, k]``,
  ``grd_comm(i, j)``  = processes ``P[i, j, :]``;
* every family is duplicated ``n_dup`` times (``MPI_Comm_dup``), giving the
  independent channels of the nonblocking-overlap technique.

2D mesh (matvec Algorithms 1-2, SUMMA): coordinates ``(i, j)``, row
communicators ``P[i, :]`` and column communicators ``P[:, j]``.
"""

from __future__ import annotations

from repro.mpi.comm import Comm
from repro.mpi.world import World
from repro.util import check_positive


class Mesh3D:
    """A ``pi x pj x pk`` process mesh with duplicated row/col/grd comms."""

    def __init__(self, world: World, pi: int, pj: int | None = None,
                 pk: int | None = None, n_dup: int = 1):
        pj = pi if pj is None else pj
        pk = pi if pk is None else pk
        check_positive("pi", pi)
        check_positive("pj", pj)
        check_positive("pk", pk)
        check_positive("n_dup", n_dup)
        if pi * pj * pk > world.num_ranks:
            raise ValueError(
                f"mesh {pi}x{pj}x{pk} needs {pi * pj * pk} ranks, world has "
                f"{world.num_ranks}"
            )
        self.world = world
        self.pi, self.pj, self.pk = pi, pj, pk
        self.n_dup = n_dup
        self.global_comm = world.new_comm(range(pi * pj * pk), "mesh3d.global")
        self.global_dups = self.global_comm.dup_many(n_dup)
        self._row: dict[tuple[int, int], list[Comm]] = {}
        self._col: dict[tuple[int, int], list[Comm]] = {}
        self._grd: dict[tuple[int, int], list[Comm]] = {}
        for j in range(pj):
            for k in range(pk):
                ranks = [self.rank_of(i, j, k) for i in range(pi)]
                base = world.new_comm(ranks, f"row[{j},{k}]")
                self._row[(j, k)] = [base] + base.dup_many(n_dup - 1) if n_dup > 1 else [base]
        for i in range(pi):
            for k in range(pk):
                ranks = [self.rank_of(i, j, k) for j in range(pj)]
                base = world.new_comm(ranks, f"col[{i},{k}]")
                self._col[(i, k)] = [base] + base.dup_many(n_dup - 1) if n_dup > 1 else [base]
        for i in range(pi):
            for j in range(pj):
                ranks = [self.rank_of(i, j, k) for k in range(pk)]
                base = world.new_comm(ranks, f"grd[{i},{j}]")
                self._grd[(i, j)] = [base] + base.dup_many(n_dup - 1) if n_dup > 1 else [base]

    @property
    def num_ranks(self) -> int:
        return self.pi * self.pj * self.pk

    def rank_of(self, i: int, j: int, k: int) -> int:
        """Global rank of mesh coordinate ``(i, j, k)``."""
        if not (0 <= i < self.pi and 0 <= j < self.pj and 0 <= k < self.pk):
            raise ValueError(f"coordinate ({i},{j},{k}) outside mesh")
        return k * (self.pi * self.pj) + i * self.pj + j

    def coords_of(self, rank: int) -> tuple[int, int, int]:
        """Mesh coordinate of a global rank."""
        if not 0 <= rank < self.num_ranks:
            raise ValueError(f"rank {rank} outside mesh")
        k, rem = divmod(rank, self.pi * self.pj)
        i, j = divmod(rem, self.pj)
        return i, j, k

    def front_face(self, values: list) -> dict[tuple[int, int], object]:
        """``values`` (indexed by global rank) keyed by front-face ``(i, j)``."""
        return {(i, j): values[self.rank_of(i, j, 0)]
                for i in range(self.pi) for j in range(self.pj)}

    # Communicator accessors: ``c`` selects the N_DUP duplicate (0-based).

    def row_comm(self, j: int, k: int, c: int = 0) -> Comm:
        """Communicator over ``P[:, j, k]`` (local rank in it = mesh ``i``)."""
        return self._row[(j, k)][c]

    def col_comm(self, i: int, k: int, c: int = 0) -> Comm:
        """Communicator over ``P[i, :, k]`` (local rank = mesh ``j``)."""
        return self._col[(i, k)][c]

    def grd_comm(self, i: int, j: int, c: int = 0) -> Comm:
        """Communicator over ``P[i, j, :]`` (local rank = mesh ``k``)."""
        return self._grd[(i, j)][c]

    def global_dup(self, c: int = 0) -> Comm:
        return self.global_dups[c]


class Mesh2D:
    """A ``p x p`` mesh with duplicated row/col comms (Algorithms 1-2, SUMMA).

    ``rank = i * p + j``; ``row_comm(i)`` spans ``P[i, :]`` (local rank =
    ``j``), ``col_comm(j)`` spans ``P[:, j]`` (local rank = ``i``).
    """

    def __init__(self, world: World, p: int, n_dup: int = 1, channels=None):
        check_positive("p", p)
        check_positive("n_dup", n_dup)
        if p * p > world.num_ranks:
            raise ValueError(f"mesh {p}x{p} needs {p * p} ranks")
        if channels is not None and len(channels) != n_dup:
            raise ValueError(
                f"channels has {len(channels)} entries for {n_dup} dups"
            )
        self.world = world
        self.p = p
        self.n_dup = n_dup
        self.channels = None if channels is None else tuple(channels)
        self.global_comm = world.new_comm(range(p * p), "mesh2d.global")
        self._row = {}
        self._col = {}
        for i in range(p):
            ranks = [self.rank_of(i, j) for j in range(p)]
            self._row[i] = self._dup_family(ranks, f"row[{i}]")
        for j in range(p):
            ranks = [self.rank_of(i, j) for i in range(p)]
            self._col[j] = self._dup_family(ranks, f"col[{j}]")

    def _dup_family(self, ranks, name: str) -> list[Comm]:
        """``n_dup`` congruent comms, each optionally pinned to a channel.

        The colored pipelined-multicast kernels pass ``channels`` so that
        duplicate ``c``'s broadcasts ride fabric lane ``channels[c]``,
        keeping successive panels' transfers on disjoint link resources.
        """
        ch = self.channels
        base = self.world.new_comm(ranks, name,
                                   channel=0 if ch is None else ch[0])
        if self.n_dup == 1:
            return [base]
        return [base] + base.dup_many(
            self.n_dup - 1, channels=None if ch is None else ch[1:]
        )

    @property
    def num_ranks(self) -> int:
        return self.p * self.p

    def rank_of(self, i: int, j: int) -> int:
        if not (0 <= i < self.p and 0 <= j < self.p):
            raise ValueError(f"coordinate ({i},{j}) outside mesh")
        return i * self.p + j

    def coords_of(self, rank: int) -> tuple[int, int]:
        if not 0 <= rank < self.num_ranks:
            raise ValueError(f"rank {rank} outside mesh")
        return divmod(rank, self.p)

    def row_comm(self, i: int, c: int = 0) -> Comm:
        return self._row[i][c]

    def col_comm(self, j: int, c: int = 0) -> Comm:
        return self._col[j][c]
