"""Every kernel runner on the one run path: flag conformance and entry checks.

Each runner builds its world and mesh, then runs through
:func:`repro.mpi.world.execute`.  These tests pin what that shared path
guarantees across all eleven runners:

* trace / record / verify / verify_plans observe a run without changing
  its virtual time, and a runner that does not take a flag rejects it at
  entry (``TypeError``, no world built);
* a recorded run replays to the live ``(elapsed, world time)`` bit for bit;
* ``ppn < 1`` and a ``tune_db`` without ``tune`` are rejected at entry
  instead of being clamped or ignored.
"""

from __future__ import annotations

import inspect

import pytest

import repro.mpi.world as world_mod
from repro.dense.matvec import run_matvec
from repro.dense.mm25d import run_mm25d
from repro.dense.mm3d import run_mm3d
from repro.dense.summa import run_summa
from repro.kernels.ssc25d import run_ssc25d
from repro.kernels.symmsquarecube import run_ssc
from repro.particles.forcedecomp import run_force_step
from repro.purify.canonical import run_distributed_purification
from repro.purify.scf import run_scf
from repro.sim.replay import replay_kernel
from repro.solvers.block_cg import run_block_cg
from repro.solvers.cg import run_cg
from repro.tune import TuningDB
from repro.tune.tuner import Tuner

#: name -> (small call taking extra kwargs, reported virtual time).
RUNNERS = {
    "ssc": (lambda **kw: run_ssc(2, 64, n_dup=2, iterations=2, **kw),
            lambda r: r.times),
    "ssc25d": (lambda **kw: run_ssc25d(2, 2, 64, n_dup=2, **kw),
               lambda r: r.times),
    "summa": (lambda **kw: run_summa(2, 64, **kw), lambda r: r.elapsed),
    "mm3d": (lambda **kw: run_mm3d(2, 64, **kw), lambda r: r.elapsed),
    "mm25d": (lambda **kw: run_mm25d(2, 2, 64, **kw), lambda r: r.elapsed),
    "matvec": (lambda **kw: run_matvec(2, 64, n_dup=2, overlapped=True, **kw),
               lambda r: r.elapsed),
    "cg": (lambda **kw: run_cg(4, 256, maxiter=5, **kw), lambda r: r.elapsed),
    "block_cg": (lambda **kw: run_block_cg(4, 256, 2, maxiter=5, **kw),
                 lambda r: r.elapsed),
    "force_step": (lambda **kw: run_force_step(2, 64, **kw),
                   lambda r: r.elapsed),
    "purification": (
        lambda **kw: run_distributed_purification(2, 64, iterations=2, **kw),
        lambda r: r.ssc_times),
    "scf": (lambda **kw: run_scf(2, 64, total_ranks=8, n_dup=2,
                                 scf_iterations=1, purify_iterations=2, **kw),
            lambda r: r.total_time),
}

RUNNER_FNS = {
    "ssc": run_ssc, "ssc25d": run_ssc25d, "summa": run_summa,
    "mm3d": run_mm3d, "mm25d": run_mm25d, "matvec": run_matvec,
    "cg": run_cg, "block_cg": run_block_cg, "force_step": run_force_step,
    "purification": run_distributed_purification, "scf": run_scf,
}

FLAGS = ("trace", "record", "verify", "verify_plans")

#: The flags each runner takes; every other flag must be rejected.
ACCEPTS = {
    "ssc": {"trace", "record", "verify", "verify_plans"},
    "ssc25d": {"record", "verify", "verify_plans"},
    "summa": {"trace", "record"},
    "matvec": {"trace"},
}


@pytest.fixture(scope="module")
def plain_times():
    """Each runner's unflagged virtual time, computed on first use."""
    cache = {}

    def get(name):
        if name not in cache:
            call, report = RUNNERS[name]
            cache[name] = report(call())
        return cache[name]

    return get


def test_accepts_table_matches_signatures():
    for name, fn in RUNNER_FNS.items():
        params = inspect.signature(fn).parameters
        assert {f for f in FLAGS if f in params} == ACCEPTS.get(name, set()), \
            name


@pytest.mark.parametrize("flag", FLAGS)
@pytest.mark.parametrize("name", sorted(RUNNERS))
def test_flag_keeps_virtual_time_or_is_rejected(name, flag, monkeypatch,
                                                plain_times):
    call, report = RUNNERS[name]
    if flag in ACCEPTS.get(name, ()):
        res = call(**{flag: True})
        assert report(res) == plain_times(name)
        return

    def no_world(*_a, **_kw):
        raise AssertionError(f"{name} built a world before rejecting {flag}")

    monkeypatch.setattr(world_mod.World, "__init__", no_world)
    with pytest.raises(TypeError, match=flag):
        call(**{flag: True})


@pytest.mark.parametrize("name", ["ssc", "ssc25d", "summa"])
def test_recorded_run_replays_to_live_times(name):
    call, _report = RUNNERS[name]
    res = call(record=True)
    assert res.recording is not None and res.recording.valid
    assert res.recording.meta["ranks"] == res.world.num_ranks
    assert replay_kernel(res.recording) == (res.elapsed,
                                             res.world.engine.now)


_PPN_ZERO = {
    "ssc": lambda: run_ssc(2, 64, ppn=0),
    "ssc25d": lambda: run_ssc25d(2, 2, 64, ppn=0),
    "summa": lambda: run_summa(2, 64, ppn=0),
    "mm3d": lambda: run_mm3d(2, 64, ppn=0),
    "mm25d": lambda: run_mm25d(2, 2, 64, ppn=0),
    "matvec": lambda: run_matvec(2, 64, ppn=0),
    "cg": lambda: run_cg(4, 256, ppn=0),
    "block_cg": lambda: run_block_cg(4, 256, 2, ppn=0),
    "force_step": lambda: run_force_step(2, 64, ppn=0),
    "purification": lambda: run_distributed_purification(2, 64, ppn=0),
    "scf": lambda: run_scf(2, 64, launch_ppn=0),
}


@pytest.mark.parametrize("name", sorted(_PPN_ZERO))
def test_ppn_below_one_is_rejected_at_entry(name, monkeypatch):
    def no_world(*_a, **_kw):
        raise AssertionError(f"{name} built a world for ppn=0")

    monkeypatch.setattr(world_mod.World, "__init__", no_world)
    with pytest.raises(ValueError, match="ppn"):
        _PPN_ZERO[name]()


_TUNABLE = {
    "ssc": lambda **kw: run_ssc(2, 64, **kw),
    "ssc25d": lambda **kw: run_ssc25d(2, 2, 64, **kw),
    "summa": lambda **kw: run_summa(2, 64, **kw),
}


@pytest.mark.parametrize("name", sorted(_TUNABLE))
def test_ppn_below_one_is_rejected_before_tuning(name):
    tuner = Tuner()
    with pytest.raises(ValueError, match="ppn"):
        _TUNABLE[name](ppn=0, tune=tuner)
    assert tuner.simulations == 0 and len(tuner.db) == 0


@pytest.mark.parametrize("name", sorted(_TUNABLE))
def test_tune_db_without_tune_is_rejected(name):
    db = TuningDB()
    with pytest.raises(ValueError, match="tune_db without tune"):
        _TUNABLE[name](tune_db=db)
    assert len(db) == 0
