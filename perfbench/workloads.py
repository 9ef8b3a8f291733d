"""The benchmark's three workloads, driven through ``run_ssc``, ``run_cg`` and
``Tuner`` only.

Each workload offers the same five steps:

* ``setup()`` -- the first, untimed unit, run with cold plan and lru caches
  (for ``retune``: the cold tuning decision);
* ``verify()`` -- untimed real-mode output checks on seeded data;
* ``unit(i)`` -- one timed unit; returns a :class:`UnitResult`;
* ``sim_world()`` -- one extra run on a ``World(trace=True)`` whose spans
  fill the simulated-time breakdown;
* ``name`` -- the workload name used on the command line;
* ``identical_units`` -- every unit has the same inputs, so every unit must
  repeat the set-up unit's simulated time and counts exactly.  Otherwise
  the set-up unit is a different call, and the worker runs one more unit,
  untimed, to warm what the first timed unit would fill.

Every check appends a message to ``UnitResult.failures``; an exception in a
unit is a failure too (the worker catches it).
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field

import numpy as np

from repro.kernels import run_ssc
from repro.mpi.world import World
from repro.netmodel.params import NetworkParams
from repro.solvers import run_cg
from repro.tune import TuningDB
from repro.tune.tuner import Tuner


@dataclass
class UnitResult:
    """What one unit produced: simulated time, exact counts, failed checks."""

    sim_time: float
    counts: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)


def _fabric_counts(world) -> dict:
    snap = world.fabric.snapshot_stats()
    return {
        "fabric.transfers": (snap["inter_node_messages"]
                             + snap["intra_node_messages"]),
        "fabric.inter_bytes": snap["inter_node_bytes"],
    }


def _close(got, want) -> bool:
    """Equal to ``want`` up to rounding in the last digits of its scale."""
    return float(np.max(np.abs(got - want))) <= 1e-10 * float(
        np.max(np.abs(want)))


class Ssc512:
    """Alg. 5 SymmSquareCube at p=8 (512 ranks), n=5330, N_DUP=4, modeled.

    The seed makes the symmetric ``D`` of the small real-mode check; the
    modeled unit has no data, so every timed call must repeat the set-up
    call's simulated time and traffic exactly.
    """

    name = "ssc-512"
    identical_units = True

    def __init__(self, seed: int):
        self.seed = seed
        self.ref: UnitResult | None = None

    @staticmethod
    def _call(**kwargs):
        return run_ssc(8, 5330, "optimized", n_dup=4, ppn=1,
                       placement="block", iterations=1, **kwargs)

    def _result(self, res) -> UnitResult:
        return UnitResult(sim_time=res.times[0], counts=_fabric_counts(res.world))

    def setup(self) -> UnitResult:
        self.ref = self._result(self._call())
        return self.ref

    def unit(self, i: int) -> UnitResult:
        return self._result(self._call())

    def verify(self) -> list[str]:
        n = 96
        a = np.random.default_rng(self.seed).standard_normal((n, n))
        d = (a + a.T) / 2
        res = run_ssc(2, n, "optimized", d=d, n_dup=4)
        d2 = d @ d
        failures = []
        if not _close(res.d2, d2):
            failures.append("real-mode Alg. 5 D^2 differs from numpy")
        if not _close(res.d3, d2 @ d):
            failures.append("real-mode Alg. 5 D^3 differs from numpy")
        return failures

    def sim_world(self):
        res = self._call(trace=True)
        failures = []
        if res.times[0] != self.ref.sim_time:
            failures.append("traced call's sim time differs from untraced")
        return res.world, failures


@contextlib.contextmanager
def _traced_worlds():
    """Build every ``World`` with ``trace=True`` while active.

    ``run_cg`` takes no ``trace=`` argument, so the simulated-time breakdown
    of a CG solve is only reachable by switching tracing on where its world
    is built.
    """
    orig = World.__init__

    def init(self, *args, **kwargs):
        kwargs["trace"] = True
        orig(self, *args, **kwargs)

    World.__init__ = init
    try:
        yield
    finally:
        World.__init__ = orig


class CgLatency:
    """Pipelined CG, 64 ranks, n=65536, 100 iterations per solve, modeled.

    The seed makes ``b`` of the small real-mode check.
    """

    name = "cg-latency"
    identical_units = True
    ITERATIONS = 100

    def __init__(self, seed: int):
        self.seed = seed
        self.ref: UnitResult | None = None

    def _call(self):
        return run_cg(64, 65536, "pipelined", maxiter=self.ITERATIONS)

    def _result(self, res) -> UnitResult:
        out = UnitResult(sim_time=res.time_per_iteration,
                         counts=_fabric_counts(res.world))
        if res.iterations != self.ITERATIONS:
            out.failures.append(f"modeled solve ran {res.iterations} "
                                f"iterations, not {self.ITERATIONS}")
        return out

    def setup(self) -> UnitResult:
        self.ref = self._result(self._call())
        return self.ref

    def unit(self, i: int) -> UnitResult:
        return self._result(self._call())

    def verify(self) -> list[str]:
        n, maxiter = 128, 1000
        b = np.random.default_rng(self.seed).standard_normal(n)
        res = run_cg(4, n, "pipelined", b, tol=1e-10, maxiter=maxiter)
        a = 2.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)
        failures = []
        if res.iterations >= maxiter:
            failures.append("real-mode CG did not converge")
        resid = np.linalg.norm(b - a @ res.x) / np.linalg.norm(b)
        if not resid < 1e-8:
            failures.append(f"real-mode CG residual {resid:.3g} >= 1e-8")
        return failures

    def sim_world(self):
        with _traced_worlds():
            res = self._call()
        failures = []
        if res.time_per_iteration != self.ref.sim_time:
            failures.append("traced solve's sim time differs from untraced")
        return res.world, failures


class Retune:
    """``Tuner(policy="auto", replay="auto")`` on the Table I signature
    (ssc, p=4, n=5330), re-tuned after a seeded drift of the fabric.

    Unit ``i`` scales ``nic_bandwidth`` and ``alpha`` each by 0.9 or 1.1,
    the signs drawn with ``numpy.random.default_rng([seed, i])``, and
    re-tunes on a fresh tuner that holds the cold decision and the cold
    search's recorded event graphs, so a unit depends only on the seed and
    its index.
    """

    name = "retune"
    identical_units = False
    P, N = 4, 5330

    def __init__(self, seed: int):
        self.seed = seed
        self.base = NetworkParams()

    def setup(self) -> UnitResult:
        tuner = Tuner(policy="auto", replay="auto")
        rec = tuner.autotune_ssc(self.P, self.N, params=self.base)
        self.cold_tuner = tuner
        self.cold = rec
        self.cold_graphs = dict(tuner.graph_cache)
        return self._result(tuner, rec)

    def drifted(self, i: int) -> NetworkParams:
        bw, alpha = 1.0 + 0.1 * np.random.default_rng([self.seed, i]).choice(
            [-1.0, 1.0], 2)
        return self.base.replace(nic_bandwidth=self.base.nic_bandwidth * bw,
                                 alpha=self.base.alpha * alpha)

    def _tuner(self) -> Tuner:
        db = TuningDB()
        db.insert(self.cold)
        tuner = Tuner(db, policy="auto", replay="auto")
        tuner.graph_cache = dict(self.cold_graphs)
        return tuner

    @staticmethod
    def _result(tuner: Tuner, rec) -> UnitResult:
        out = UnitResult(sim_time=float(rec.best_time), counts={
            "tune.simulations": tuner.simulations,
            "replay.hits": tuner.replays,
        })
        if not rec.best_time <= rec.default_time:
            out.failures.append(f"pick {rec.best_time!r} slower than the "
                                f"paper default {rec.default_time!r}")
        return out

    def unit(self, i: int) -> UnitResult:
        params = self.drifted(i)
        tuner = self._tuner()
        rec = tuner.autotune_ssc(self.P, self.N, params=params)
        out = self._result(tuner, rec)
        if not self._repeat_hits(tuner, rec, params):
            out.failures.append("repeat lookup was not a db hit on the "
                                "identical record")
        # Only the pick outlives the unit: a tuner kept alive until the
        # next unit would enlarge that unit's heap, and every full
        # collection in it, over the first unit's.
        self.last = (rec, params)
        return out

    def _repeat_hits(self, tuner: Tuner, rec, params) -> bool:
        searched = tuner.simulations
        again = tuner.autotune_ssc(self.P, self.N, params=params)
        return again is rec and tuner.simulations == searched

    def verify(self) -> list[str]:
        if self._repeat_hits(self.cold_tuner, self.cold, self.base):
            return []
        return ["repeat lookup of the cold decision was not a db hit"]

    def sim_world(self):
        rec, params = self.last
        db = TuningDB()
        db.insert(rec)
        tuner = Tuner(db, policy="db-only")
        res = run_ssc(self.P, self.N, tune=tuner, params=params, trace=True)
        failures = []
        if res.times[0] != res.tuning.best_time:
            failures.append("traced run of the pick differs from its score")
        return res.world, failures


WORKLOADS = {cls.name: cls for cls in (Ssc512, CgLatency, Retune)}
