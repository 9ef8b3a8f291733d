"""Host-time spans around the public entry points of each simulator layer.

The benchmark's traced run installs wrappers from here; the program itself
carries no span code.  Each span records ``(name, start, end, parent,
unit)``: ``parent`` is the index of the enclosing wrapped call (``-1`` at
top level) and ``unit`` is the id of the benchmark unit that caused it.
Calls nest synchronously in a discrete-event simulator (a rank program's
``post_send`` runs inside ``World.run``, a collective's first round inside
``ScheduleRunner.start``), so a stack of open spans gives the parent.

A span's self time is its duration minus the time of its direct children.
Callbacks the fabric schedules for itself (activation batches, completion
timers, the fair-share recompute) are not wrapped, so their time is part
of ``engine.run``'s self time.
"""

from __future__ import annotations

import gzip
import time
from collections import defaultdict

#: Wrapped entry points: (module, owner attribute path, span name).
WRAPPED = (
    ("repro.mpi.world", "World.__init__", "world.build"),
    ("repro.mpi.world", "World.run", "engine.run"),
    ("repro.mpi.world", "RankEnv.compute", "kernels.compute"),
    ("repro.netmodel.fabric", "Fabric.transfer", "fabric.transfer"),
    ("repro.netmodel.fabric", "Fabric.transfer_cb", "fabric.transfer_cb"),
    ("repro.mpi.transport", "Transport.post_send", "transport.post_send"),
    ("repro.mpi.transport", "Transport.post_recv", "transport.post_recv"),
    ("repro.mpi.progress", "ProgressEngine.submit", "progress.submit"),
    ("repro.mpi.progress", "ProgressEngine.submit_cb", "progress.submit_cb"),
    ("repro.mpi.collectives.executor", "ScheduleRunner.start",
     "collectives.start"),
    ("repro.tune.search", "model_time", "tune.model_time"),
    ("repro.tune.search", "simulate_candidate", "tune.simulate_candidate"),
    ("repro.tune.search", "replay_kernel", "replay.replay_kernel"),
)


class Tracer:
    """In-memory span log plus per-name counts, total and self time."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.errors: dict[int, str] = {}   # span index -> exception class
        self._stack: list[list] = []       # [span index, child seconds]
        self._restore: list[tuple] = []
        self.unit = -1
        self.count: dict[str, int] = defaultdict(int)
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        #: Seconds spent in calls that raised, by (span name, exception).
        self.error_time: dict[tuple, float] = defaultdict(float)
        #: Fabric snapshot and makespan of every world run in the unit.
        self.worlds: dict = {}

    def begin_unit(self, unit: int) -> None:
        """Start attributing spans and counts to benchmark unit ``unit``."""
        self.unit = unit
        self.count.clear()
        self.total.clear()
        self.self_time.clear()
        self.error_time.clear()
        self.worlds.clear()

    # -- wrapping ----------------------------------------------------------

    def install(self) -> None:
        import importlib

        for modname, path, name in WRAPPED:
            owner = importlib.import_module(modname)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            orig = owner.__dict__[attr]
            after = self._record_world if name == "engine.run" else None
            setattr(owner, attr, self._wrap(orig, name, after))
            self._restore.append((owner, attr, orig))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, orig = self._restore.pop()
            setattr(owner, attr, orig)

    def _wrap(self, fn, name: str, after):
        spans, stack, errors = self.spans, self._stack, self.errors
        count, total = self.count, self.total
        self_time, error_time = self.self_time, self.error_time
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1][0] if stack else -1
            spans.append(None)  # reserve the index so children can name it
            frame = [idx, 0.0]
            stack.append(frame)
            failed = None
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                failed = type(exc).__name__
                raise
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][1] += dur
                spans[idx] = (name, t0, t1, parent, self.unit)
                count[name] += 1
                total[name] += dur
                self_time[name] += dur - frame[1]
                if failed is not None:
                    errors[idx] = failed
                    error_time[(name, failed)] += dur
                if after is not None:
                    after(args[0])

        wrapper.__wrapped__ = fn
        return wrapper

    def _record_world(self, world) -> None:
        self.worlds[world] = (world.fabric.snapshot_stats(), world.engine.now)

    # -- output ------------------------------------------------------------

    def fabric_totals(self) -> dict:
        """Fabric counters summed over the worlds run in the current unit."""
        out = {"transfers": 0, "inter_bytes": 0.0, "intra_bytes": 0.0,
               "busy": 0.0, "makespan": 0.0}
        for snap, makespan in self.worlds.values():
            out["transfers"] += (snap["inter_node_messages"]
                                 + snap["intra_node_messages"])
            out["inter_bytes"] += snap["inter_node_bytes"]
            out["intra_bytes"] += snap["intra_node_bytes"]
            out["busy"] += snap["inter_busy_time"]
            out["makespan"] += makespan
        return out

    def write(self, path) -> int:
        """Write every span as CSV ``name,start,end,parent,unit,error``."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("index,name,start,end,parent,unit,error\n")
            for idx, (name, t0, t1, parent, unit) in enumerate(self.spans):
                fh.write(f"{idx},{name},{t0:.9f},{t1:.9f},{parent},{unit},"
                         f"{self.errors.get(idx, '')}\n")
        return len(self.spans)
