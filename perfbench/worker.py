"""Run one benchmark workload in this process and report its figures.

    python3 perfbench/worker.py --workload ssc-512 --seed 1 --seconds 15 \\
        --trace 0 [--probe]

The process times its own set-up from before ``import repro`` through the
first, untimed unit.  With ``--probe`` it stops there and reports only that.
Otherwise it runs the output checks and then timed units for ``--seconds``,
each after an untimed full garbage collection, so that every unit starts
with the same collector state and runs the same number of full collections.
Unit and set-up times are scaled to the nominal host speed by
``hostspeed.py``, which samples the speed from the start of the process;
the per-layer span times are not:

* ``--trace 0`` reports the end-to-end metrics.  Between timed units it
  starts :data:`SETUP_SAMPLES` - 1 probes, one at a time, and reports the
  median set-up time of all of them and itself;
* ``--trace 1`` runs the same unit untraced, then with spans around every
  layer (``tracer.py``), then once on a ``World(trace=True)``, and reports
  the per-layer metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
are a readable report.
"""

import time

_T0 = time.perf_counter()

import hostspeed  # noqa: E402

hostspeed.start()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SPAN_DIR = ROOT / ".perfbench"

#: Fewest timed units per phase, whatever ``--seconds`` says.  A
#: ``retune`` unit takes 6-10 s, so ``--seconds`` alone would leave it
#: three, and a median of three moves with any one of them.
MIN_UNITS = 4

#: Set-up samples per end-to-end run (this process and fresh probes);
#: ``setup_s`` is their median.
SETUP_SAMPLES = 3

#: Counts that must repeat exactly between units with the same inputs.
REPEAT_KEYS = ("engine.events", "fabric.transfers", "fabric.inter_bytes",
               "tune.simulations", "replay.hits")


class Run:
    """Unit bookkeeping of one worker: attempts, failures, repeat checks."""

    def __init__(self, wl):
        self.wl = wl
        self.tracer = None  # a Tracer while the traced phase runs
        self.attempted = 0
        self.failed = 0
        #: Reference counts and sim time that later units must repeat.
        self.ref_counts: dict = {}
        self.ref_sim: float | None = None

    def fail(self, what: str, why: str) -> None:
        self.failed += 1
        print(f"FAIL {what}: {why}")

    def unit(self, what: str, fn, unit_id: int = 0):
        """Run ``fn`` as one unit; returns ``(wall_s, result, layers)``,
        ``wall_s`` scaled to the nominal host speed."""
        from repro.sim.engine import Engine

        self.attempted += 1
        Engine.reset_aggregate_stats()
        if self.tracer is not None:
            self.tracer.begin_unit(unit_id)
        t0 = time.perf_counter()
        try:
            out = fn()
        except Exception as exc:  # a unit that raises is a failed unit
            traceback.print_exc()
            self.fail(what, f"{type(exc).__name__}: {exc}")
            return None
        wall = hostspeed.scaled(t0, time.perf_counter())
        eng = Engine.aggregate_stats()
        out.counts["engine.events"] = eng["events_processed"]
        layers = None
        if self.tracer is not None:
            layers = layer_metrics(self.tracer, eng, out.counts)
            out.counts["fabric.transfers"] = layers["fabric.transfers"]
            out.counts["fabric.inter_bytes"] = layers["fabric.inter_bytes"]
        if out.failures:
            self.fail(what, "; ".join(out.failures))
            return None
        return wall, out, layers

    def repeat(self, what: str, out) -> bool:
        """Check ``out`` against the first unit that had the same inputs."""
        ref = self.ref_counts
        drift = [f"{k}={v!r} (was {ref[k]!r})" for k, v in out.counts.items()
                 if k in REPEAT_KEYS and k in ref and v != ref[k]]
        if self.ref_sim is None:
            self.ref_sim = out.sim_time
        elif out.sim_time != self.ref_sim:
            drift.append(f"sim_time={out.sim_time!r} (was {self.ref_sim!r})")
        for k in REPEAT_KEYS:
            if k in out.counts:
                ref.setdefault(k, out.counts[k])
        if drift:
            self.fail(what, "no exact repeat of " + ", ".join(drift))
            return False
        return True

    def phase(self, label: str, seconds: float, index_of, check_repeat: bool,
              pauses=()):
        """Timed units until ``seconds`` of them pass (at least
        :data:`MIN_UNITS`); returns their scaled times and results and
        the scaled time of the whole loop, pauses left out.

        Each of ``pauses`` runs, untimed, once its share of ``seconds`` has
        passed: the timed units then spread over a longer stretch of the
        run and sample more of the host's slow and fast spells.
        """
        pauses = list(pauses)
        due = [seconds * (k + 1) / (len(pauses) + 1) for k in range(len(pauses))]
        walls, units, layers = [], [], []
        timed = scaled = 0.0
        i = 0
        while i < MIN_UNITS or timed < seconds:
            what = f"{label} unit {i}"
            gc.collect()
            t0 = time.perf_counter()
            got = self.unit(what, lambda k=index_of(i): self.wl.unit(k), i)
            i += 1
            ok = got is not None and (not check_repeat
                                      or self.repeat(what, got[1]))
            t1 = time.perf_counter()
            timed += t1 - t0
            scaled += hostspeed.scaled(t0, t1)
            if ok:
                wall, out, lay = got
                print(f"{what}: wall {wall:.4f} s (scaled), "
                      f"sim {out.sim_time!r} s, "
                      f"events {out.counts['engine.events']}")
                walls.append(wall)
                units.append(out)
                layers.append(lay)
            if pauses and timed >= due[0]:
                due.pop(0)
                pauses.pop(0)()
        for pause in pauses:
            pause()
        return walls, units, layers, scaled


def setup_probe(args) -> float:
    """``setup_s`` of a fresh interpreter running this file with ``--probe``."""
    proc = subprocess.run(
        [sys.executable, __file__, "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds),
         "--trace", "0", "--probe"],
        stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])["setup_s"]


def layer_metrics(tr, eng: dict, counts: dict) -> dict:
    """Per-layer figures of the unit the tracer just followed.

    ``*_s`` figures are self time (a span minus its wrapped children)
    except ``engine.run_s``, ``tune.*_s`` and ``replay.*s``, which are the
    whole call.
    """
    s, n, tot = tr.self_time, tr.count, tr.total
    fab = tr.fabric_totals()
    run_s = tot["engine.run"]
    events, cancelled = eng["events_processed"], eng["events_cancelled"]
    attempts = n["replay.replay_kernel"]
    hits = counts.get("replay.hits", 0)
    return {
        "world.build_s": s["world.build"],
        "engine.run_s": run_s,
        "engine.self_s": s["engine.run"],
        "engine.events": events,
        "engine.cancelled_ratio": (cancelled / (events + cancelled)
                                   if events + cancelled else 0.0),
        "engine.peak_heap": eng["peak_heap_size"],
        "engine.events_per_s": events / run_s if run_s else 0.0,
        "fabric.transfers": fab["transfers"],
        "fabric.transfer_s": s["fabric.transfer"] + s["fabric.transfer_cb"],
        "fabric.inter_bytes": fab["inter_bytes"],
        "fabric.intra_bytes": fab["intra_bytes"],
        "fabric.nic_busy_frac": (fab["busy"] / fab["makespan"]
                                 if fab["makespan"] else 0.0),
        "transport.posts": (n["transport.post_send"]
                            + n["transport.post_recv"]),
        "transport.post_s": (s["transport.post_send"]
                             + s["transport.post_recv"]),
        "progress.submits": n["progress.submit"] + n["progress.submit_cb"],
        "progress.submit_s": s["progress.submit"] + s["progress.submit_cb"],
        "collectives.starts": n["collectives.start"],
        "collectives.start_s": s["collectives.start"],
        "kernels.compute_calls": n["kernels.compute"],
        "tune.model_calls": n["tune.model_time"],
        "tune.model_s": tot["tune.model_time"],
        "tune.simulations": counts.get("tune.simulations", 0),
        "tune.simulate_s": tot["tune.simulate_candidate"],
        "replay.attempts": attempts,
        "replay.hits": hits,
        "replay.hit_ratio": hits / attempts if attempts else 0.0,
        "replay.s": tot["replay.replay_kernel"],
        "replay.wasted_s": tr.error_time[("replay.replay_kernel",
                                          "ReplayInvalid")],
    }


def sim_metrics(world) -> dict:
    """Simulated-time breakdown of a ``World(trace=True)`` run."""
    from repro.analytics import overlap_report_for_world, rank_breakdown

    per_rank = rank_breakdown(world.trace).values()

    def mean(kind):
        return sum(r[kind] for r in per_rank) / world.num_ranks

    return {
        "sim.post_s": mean("post"),
        "sim.wait_s": mean("wait"),
        "sim.compute_s": mean("compute"),
        "sim.transfer_s": mean("transfer"),
        "sim.comm_overlap":
            overlap_report_for_world(world).comm_comm_overlap_fraction,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--probe", action="store_true")
    args = ap.parse_args(argv)

    # Metric names and units are defined once, in BENCHMARK.json.
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np
    from repro.mpi.collectives.plan import shared_plans

    from tracer import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; known: "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload](args.seed)
    run = Run(wl)
    plans0 = shared_plans.stats()
    got = run.unit("set-up unit", wl.setup)
    setup_s = hostspeed.scaled(_T0, time.perf_counter())
    if got is None:
        return 1
    plans1 = shared_plans.stats()
    if args.probe:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    if wl.identical_units:
        run.repeat("set-up unit", got[1])
    print(f"host: nproc {os.cpu_count()}, python {platform.python_version()}, "
          f"numpy {np.__version__}")
    print(f"set-up: {setup_s:.4f} s scaled (import + cold first unit), "
          f"sim {got[1].sim_time!r} s")

    run.attempted += 1
    try:
        problems = wl.verify()
    except Exception as exc:  # a check that raises is a failed check
        traceback.print_exc()
        problems = [f"{type(exc).__name__}: {exc}"]
    if problems:
        run.fail("output check", "; ".join(problems))
    else:
        print("output check: ok")

    if not wl.identical_units:
        # The set-up unit was another call (``retune``: a cold search, not
        # a re-tune), so the first unit would still fill caches: about 1 s
        # more than the next units on ``retune``.
        run.unit("warm-up unit", lambda: wl.unit(0))

    if args.trace == 0:
        setups = [setup_s]
        probes = [lambda: setups.append(setup_probe(args))
                  for _ in range(SETUP_SAMPLES - 1)]
        walls, units, _, elapsed = run.phase(
            "timed", args.seconds, lambda i: i, wl.identical_units, probes)
        print("setup_s samples: " + ", ".join(f"{x:.4f}" for x in setups))
        values = {
            "setup_s": statistics.median(setups),
            "wall_p50_s": statistics.median(walls) if walls else 0.0,
            "units_per_s": len(walls) / elapsed,
            "sim_time_s": (statistics.median(u.sim_time for u in units)
                           if units else 0.0),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024.0),
            "ok_ratio": (run.attempted - run.failed) / run.attempted,
        }
        samples = len(walls)
    else:
        # Every unit of the traced run has unit 0's inputs, so counts must
        # repeat exactly between all of them, untraced or traced.
        half = args.seconds / 2
        plain, _, _, _ = run.phase("untraced", half, lambda i: 0, True)
        tracer = run.tracer = Tracer()
        tracer.install()
        try:
            traced, _, layers, _ = run.phase("traced", half, lambda i: 0, True)
        finally:
            tracer.uninstall()
            run.tracer = None
        values = {}
        if layers:
            for key in layers[0]:
                # Counts repeat exactly (checked above); times take the median.
                pick = (statistics.median_low
                        if isinstance(layers[0][key], int) else statistics.median)
                values[key] = pick(lay[key] for lay in layers)
        lookups = ((plans1["hits"] - plans0["hits"])
                   + (plans1["misses"] - plans0["misses"]))
        values["collectives.plan_misses"] = plans1["misses"] - plans0["misses"]
        values["collectives.plan_hit_ratio"] = (
            (plans1["hits"] - plans0["hits"]) / lookups if lookups else 0.0)
        run.attempted += 1
        try:
            world, problems = wl.sim_world()
            values.update(sim_metrics(world))
        except Exception as exc:  # a check that raises is a failed check
            traceback.print_exc()
            problems = [f"{type(exc).__name__}: {exc}"]
        if problems:
            run.fail("traced-world check", "; ".join(problems))
        if plain and traced:
            values["trace.overhead"] = (statistics.median(traced)
                                        / statistics.median(plain))
        path = SPAN_DIR / f"spans-{args.workload}-seed{args.seed}.csv.gz"
        print(f"spans: {tracer.write(path)} written to "
              f"{path.relative_to(ROOT)}")
        print("note: the fabric's own scheduled callbacks are not wrapped; "
              "their host time is part of engine.self_s")
        print("note: plan-cache figures are from the cold set-up unit; "
              "sim.* from one extra World(trace=True) run")
        samples = len(traced)

    hostspeed.stop()
    print(hostspeed.summary())
    wanted = spec["end_to_end" if args.trace == 0 else "per_layer"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        run.fail("metrics", "not measured: " + ", ".join(missing))
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0),
                           "unit": m["unit"]} for m in wanted}
    print(f"timed samples: {samples} (times are medians over them)")
    for name, m in metrics.items():
        print(f"{name:28s} {m['value']!r:>24} {m['unit']}")
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
