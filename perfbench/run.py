#!/usr/bin/env python3
"""The simulator's benchmark: host time of whole simulations, end to end
and layer by layer.

    python3 perfbench/run.py --workload <name> [--seed N] [--seconds S]
                             [--trace 0|1]

Run it from the repository root. It builds perfbench/ (the simulator
library plus perfbench-driver) into .bench_build/perfbench, then repeats
the workload for about S seconds, one process per repetition, and prints
one line per repetition, the host it ran on, and a summary. The last line
of stdout is one JSON object: {"correct", "attempted", "failed",
"metrics"}.

Workloads (BENCHMARK.json records why each was chosen):
  weather64  Weather, figure size, 64-node mesh, LimitLESS4 Ts=50,
             serial: the hit path
  stress64   random-stress, 4000 ops/proc, 64-node mesh, emulated
             LimitLESS4 trap handler, serial; the only seeded workload
  torus1024  Weather, 1 iteration, 1024-node torus, LimitLESS4, serial;
             its traced run adds --sim-threads 2 repetitions for the
             parallel kernel's per-layer metrics

Host speed. On a shared host (a 4-vCPU Intel Xeon KVM guest) the same
stress64 repetition took 2.1 to 3.7 s of wall and CPU time alike from
one minute to the next. So each driver
process also times a fixed probe (a binary-heap workload that shares no
code with the simulator) before set-up and after verify, on the run's
thread, and the timed metrics are medians of CPU seconds scaled by
PROBE_REF_S / the median probe CPU seconds: seconds at the reference
host's speed. Unscaled wall and CPU seconds are printed beside them.

--trace 0 reports the end-to-end metrics from unprofiled serial
repetitions:
  run_norm_s           CPU seconds inside Machine::run, scaled
  sim_refs_per_norm_s  aggregate.proc.ops / run_norm_s
  setup_s              CPU seconds of Machine construction + install,
                       scaled
  peak_rss_mb          peak RSS of the driver process up to verify
--trace 1 cycles unprofiled, profiled and (torus1024) profiled
--sim-threads 2 repetitions and reports the per-layer metrics: counts
from the deterministic stats, times from the HostProfiler scopes and the
stats JSON's host.parallel_kernel block. The pk.* metrics come from the
--sim-threads 2 repetitions, every other time from the serial ones.

The parallel kernel's end-to-end time is not a metric: on that host a
--sim-threads 2 run of Weather on the 1024-node torus (3 iterations)
took 8 to 28 s of wall time (its ~150k barrier crossings wait on the
hypervisor's wake-up of the other vCPU) and 9 to 14 s of CPU time, from
one minute to the next, and no probe followed it.

Every repetition is checked: it must exit cleanly (Machine::run completes
and Workload::verify passes, or the driver aborts), and its stats JSON
minus the "host" block must hash to the digest recorded in
perfbench/digests.json for that workload and seed. A failed repetition
counts in fail_frac and is left out of every timing. Regenerate the table
with perfbench/record_digests.py after an intended change of simulated
behaviour.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
DRIVER = os.path.join(BUILD_DIR, "perfbench-driver")
RUN_DIR = os.path.join(ROOT, ".bench_build", "runs")
DEFAULT_DIGESTS = os.path.join(HERE, "digests.json")

DEFAULT_SEED = 1
# The seeded workload simulates seed (--seed mod RECORDED_SEEDS), so every
# seed it is given has a digest in perfbench/digests.json.
RECORDED_SEEDS = 256
MIN_REPS = 3            # repetitions per run even when one outlasts --seconds
REP_TIMEOUT_S = 120     # a repetition that takes longer counts as failed
RUN_DEADLINE_S = 150    # start no repetition that could end after this
# The probe's CPU seconds (both passes) on the reference host, a 4-vCPU
# Intel Xeon KVM guest, GCC 12.2.0, when it ran fast.
PROBE_REF_S = 0.065

# Why each workload exists is recorded in BENCHMARK.json. "pk_threads"
# adds profiled repetitions at that --sim-threads to the traced run; they
# are checked against the serial digest (--sim-threads byte identity).
# Two threads, not four: on a 4-CPU host shared with other load, a
# fourth worker is preempted often enough that every barrier waits for
# it.
WORKLOADS = {
    "weather64": {"driver": "weather64", "seeded": False},
    "stress64": {"driver": "stress64", "seeded": True},
    "torus1024": {"driver": "torus1024", "seeded": False, "pk_threads": 2},
}

# Scopes whose self time belongs to no named layer yet: the run roots,
# the event core (which includes processor resume and the cache hit
# path) and the parallel kernel's event execution.
UNATTRIBUTED = {"machine.run", "machine.run_parallel", "pk.worker",
                "eq.burst", "pk.exec"}

# Partition 0's barrier scope: the coordinator crosses every barrier.
COORDINATOR_BARRIER = "machine.run_parallel;pk.worker;pk.barrier"


def log(msg):
    print(msg, flush=True)


def build():
    """Configure (once) and build the driver; False on failure."""
    if not os.path.isfile(os.path.join(HERE, "CMakeLists.txt")):
        return False
    os.makedirs(BUILD_DIR, exist_ok=True)
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target",
                  "perfbench-driver", "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            sys.stderr.write("perfbench: build step failed: %s\n"
                             % " ".join(cmd))
            return False
    return os.path.isfile(DRIVER)


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def deterministic_digest(stats):
    """sha256 of the stats document without its "host" block."""
    body = {k: v for k, v in stats.items() if k != "host"}
    canon = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def expected_record(table, workload, seed):
    """The recorded {"digest", "proc_ops"} for this workload and seed,
    or None when the table holds none."""
    entry = table.get(workload, {})
    key = str(seed) if WORKLOADS[workload]["seeded"] else "*"
    return entry.get(key)


def check_rep(rep, expected, seed):
    """Fill rep["ok"] and rep["why"] from the repetition's outcome and
    the recorded digest; a seed without a record fails."""
    if rep.get("error"):
        rep["ok"], rep["why"] = False, rep["error"]
    elif expected is None:
        rep["ok"], rep["why"] = False, "no recorded digest for seed %d" % seed
    elif rep["digest"] != expected["digest"]:
        rep["ok"], rep["why"] = False, "digest %s != recorded %s" % (
            rep["digest"][:16], expected["digest"][:16])
    elif rep["proc_ops"] != expected["proc_ops"]:
        rep["ok"], rep["why"] = False, "proc.ops %d != recorded %d" % (
            rep["proc_ops"], expected["proc_ops"])
    else:
        rep["ok"], rep["why"] = True, ""
    return rep


def run_rep(workload, seed, profile, index, threads=1):
    """One repetition in its own driver process at --sim-threads
    @p threads."""
    wl = WORKLOADS[workload]
    os.makedirs(RUN_DIR, exist_ok=True)
    stats_path = os.path.join(RUN_DIR, "%s-%d.json" % (workload, index))
    if os.path.exists(stats_path):
        os.remove(stats_path)
    cmd = [DRIVER, "--workload", wl["driver"], "--seed", str(seed),
           "--threads", str(threads),
           "--stats-out", stats_path]
    if profile:
        cmd.append("--profile")
    rep = {"profile": profile, "threads": threads,
           "load1": os.getloadavg()[0]}
    start = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE)
    try:
        out, err = proc.communicate(timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        rep["error"] = "timed out after %d s" % REP_TIMEOUT_S
        return rep
    finally:
        rep["wall_s"] = time.monotonic() - start
    if proc.returncode != 0:
        tail = err.decode(errors="replace").strip().splitlines()[-1:]
        rep["error"] = "exit %d%s" % (proc.returncode,
                                      (": " + tail[0]) if tail else "")
        return rep
    try:
        rep.update(json.loads(out.decode().strip().splitlines()[-1]))
        with open(stats_path) as f:
            stats = json.load(f)
        os.remove(stats_path)
    except (ValueError, IndexError, OSError) as exc:
        rep["error"] = "unreadable driver output: %s" % exc
        return rep
    if profile:
        rep["stats"] = stats  # per_layer_metrics reads it
    rep["digest"] = deterministic_digest(stats)
    rep["proc_ops"] = stats["aggregate"]["proc"]["ops"]
    return rep


def median(values):
    return statistics.median(values) if values else 0.0


def scope_totals(scopes):
    """Per scope name (the leaf of each path): calls and self ns, summed
    over every path and thread it appears under."""
    totals = {}
    for s in scopes:
        name = s["path"].rsplit(";", 1)[-1]
        t = totals.setdefault(name, {"count": 0, "self_ns": 0})
        t["count"] += s["count"]
        t["self_ns"] += s["self_ns"]
    return totals


def end_to_end_metrics(good):
    """Medians over the good repetitions, CPU times scaled to the
    reference host speed by the median probe. Every good repetition did
    the same proc.ops."""
    scale = PROBE_REF_S / median([r["probe_cpu_s"] for r in good])
    run_norm_s = median([r["cpu_s"] for r in good]) * scale
    return {
        "run_norm_s": (run_norm_s, "s"),
        "sim_refs_per_norm_s": (good[0]["proc_ops"] / run_norm_s, "1/s"),
        "setup_s": (median([r["setup_cpu_s"] for r in good]) * scale, "s"),
        "peak_rss_mb": (median([r["peak_rss_kb"] / 1024.0
                                for r in good]), "MB"),
    }


def layer_times(rep):
    """Per-layer host times of one profiled repetition. A scope's self
    time is summed over every thread it ran on; the pk.* phase times are
    that sum per partition thread, pk.tail_s is the coordinator's alone
    and pk.barrier_wait_s the median partition's. A layer a workload
    bypasses reads 0."""
    totals = scope_totals(rep["scopes"])
    host = rep["stats"]["host"]
    pk = host.get("parallel_kernel", {})
    parts = max(1, rep["partitions"])

    def self_s(name):
        return totals.get(name, {}).get("self_ns", 0) * 1e-9

    def calls(name):
        return totals.get(name, {}).get("count", 0)

    def per(ns, units):
        return ns / units if units else 0.0

    net = rep["stats"]["network"]
    barrier = [s for s in rep["scopes"] if s["path"] == COORDINATOR_BARRIER]
    crossings = sum(s["count"] for s in barrier)
    waits = [p["barrier_wait_seconds"] for p in pk.get("partitions", [])]
    events = [p["events"] for p in pk.get("partitions", [])]
    roots_ns = sum(s["wall_ns"] for s in rep["scopes"]
                   if ";" not in s["path"])
    named_ns = sum(t["self_ns"] for name, t in totals.items()
                   if name not in UNATTRIBUTED)
    return {
        "sim.bursts": calls("eq.burst"),
        "sim.burst_self_s": self_s("eq.burst"),
        "sim.ns_per_event": per(self_s("eq.burst") * 1e9, host["events"]),
        "cache.dispatch_calls": calls("cache.dispatch"),
        "cache.dispatch_self_s": self_s("cache.dispatch"),
        "cache.ns_per_dispatch": per(self_s("cache.dispatch") * 1e9,
                                     calls("cache.dispatch")),
        "mem.service_calls": calls("mem.service"),
        "mem.service_self_s": self_s("mem.service"),
        "mem.ns_per_service": per(self_s("mem.service") * 1e9,
                                  calls("mem.service")),
        "kernel.emulate_calls": calls("trap.emulate"),
        "kernel.emulate_self_s": self_s("trap.emulate"),
        "net.tick_calls": calls("net.tick"),
        "net.tick_self_s": self_s("net.tick"),
        "net.ns_per_flit_hop": per(self_s("net.tick") * 1e9,
                                   net["flit_hops"]),
        "pk.barrier_crossings": crossings,
        "pk.barrier_wait_s": median(waits),
        "pk.ns_per_crossing": per(sum(s["self_ns"] for s in barrier),
                                  crossings),
        "pk.exec_s": self_s("pk.exec") / parts,
        "pk.plan_s": self_s("pk.plan") / parts,
        "pk.apply_s": self_s("pk.apply") / parts,
        "pk.drain_s": self_s("pk.drain") / parts,
        "pk.tail_s": self_s("pk.tail"),
        "pk.serial_tail_frac": pk.get("serial_tail_fraction", 0.0),
        "pk.imbalance": (max(events) / statistics.mean(events)
                         if events and sum(events) else 0.0),
        "pk.windows": pk.get("windows", 0),
        "pk.coupled_windows": pk.get("coupled_windows", 0),
        "pk.cross_partition_flits": pk.get("cross_partition_flits", 0),
        "obs.attributed_frac": named_ns / roots_ns if roots_ns else 0.0,
    }


def unit_of(name):
    if name.endswith("_s"):
        return "s"
    if ".ns_per_" in name:
        return "ns"
    if name == "kernel.m" or name.endswith(
            ("_frac", "_ratio", ".imbalance", "_overhead")):
        return "ratio"
    return "count"


def per_layer_metrics(untraced, traced, traced_pk):
    """Counts from the deterministic stats, times as medians over the
    profiled serial repetitions (pk.* over @p traced_pk when there are
    any), overhead against the unprofiled ones."""
    stats = traced[0]["stats"]
    agg, net = stats["aggregate"], stats["network"]
    cache, mem = agg["cache"], agg["mem"]
    hits, misses = cache["hits"], cache["misses"]
    metrics = {
        "sim.events": stats["host"]["events"],
        "proc.ops": agg["proc"]["ops"],
        "proc.remote_misses": agg["proc"]["remote_misses"],
        "cache.hits": hits,
        "cache.misses": misses,
        "cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "cache.busy_retries": cache["busy_retries"],
        "mem.requests": mem["requests"],
        "mem.busy_nacks": mem["busy_nacks"],
        "mem.invs_sent": mem["invs_sent"],
        "kernel.read_traps": mem["read_traps"],
        "kernel.write_traps": mem["write_traps"],
        "kernel.m": stats["model"]["m"],
        "net.packets": net["packets"],
        "net.flit_hops": net["flit_hops"],
        "net.blocked": net["blocked"],
    }
    per_rep = [layer_times(r) for r in traced]
    pk_rep = [layer_times(r) for r in traced_pk] or per_rep
    for name in per_rep[0]:
        source = pk_rep if name.startswith("pk.") else per_rep
        metrics[name] = median([t[name] for t in source])
    everyone = untraced + traced
    metrics["machine.construct_s"] = median([r["construct_s"]
                                             for r in everyone])
    metrics["workload.install_s"] = median([r["install_s"]
                                            for r in everyone])
    base = median([r["run_s"] for r in untraced])
    metrics["obs.profiler_overhead"] = (
        median([r["run_s"] for r in traced]) / base if base else 0.0)
    return {name: (value, unit_of(name))
            for name, value in sorted(metrics.items())}


def describe(rep, index):
    kind = "%s t%d" % ("profiled" if rep["profile"] else "timed",
                       rep["threads"])
    if rep.get("error"):
        return "rep %2d  %-11s load %.2f  FAILED: %s" % (
            index, kind, rep["load1"], rep["error"])
    return ("rep %2d  %-11s load %.2f  setup %.4f s  run %.4f s  "
            "cpu %.4f s  probe %.4f s  rss %.1f MB  %s%s" % (
                index, kind, rep["load1"], rep["setup_cpu_s"],
                rep["run_s"], rep["cpu_s"], rep["probe_cpu_s"],
                rep["peak_rss_kb"] / 1024.0,
                "ok" if rep["ok"] else "FAILED",
                (": " + rep["why"]) if rep["why"] else ""))


def rep_kinds(workload, trace):
    """The (profile, threads) repetitions a run cycles through."""
    if not trace:
        return [(False, 1)]
    kinds = [(False, 1), (True, 1)]
    if "pk_threads" in WORKLOADS[workload]:
        kinds.append((True, WORKLOADS[workload]["pk_threads"]))
    return kinds


def measure(workload, seed, seconds, trace, table):
    """Repeat the workload for about @p seconds, cycling through
    rep_kinds(); returns the repetitions."""
    expected = expected_record(table, workload, seed)
    kinds = rep_kinds(workload, trace)
    reps = []
    start = time.monotonic()
    while True:
        elapsed = time.monotonic() - start
        took = max([r["wall_s"] for r in reps], default=0.0)
        enough = len(reps) >= (2 * len(kinds) if trace else MIN_REPS)
        if reps and (elapsed + took > RUN_DEADLINE_S or
                     (enough and elapsed + took > seconds)):
            break
        profile, threads = kinds[len(reps) % len(kinds)]
        rep = check_rep(run_rep(workload, seed, profile, len(reps),
                                threads), expected, seed)
        reps.append(rep)
        log(describe(rep, len(reps)))
    return reps


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not build():
        sys.stderr.write("perfbench: cannot build the driver\n")
        return 1
    try:
        with open(DEFAULT_DIGESTS) as f:
            table = json.load(f)
    except (OSError, ValueError) as exc:
        sys.stderr.write("perfbench: cannot read digests: %s\n" % exc)
        return 1

    wl = WORKLOADS[args.workload]
    seed = args.seed % RECORDED_SEEDS if wl["seeded"] else args.seed
    log("# workload %s, seed %d%s" % (
        args.workload, args.seed,
        " (simulates seed %d)" % seed if wl["seeded"]
        else " (this workload ignores it)"))
    reps = measure(args.workload, seed, args.seconds, args.trace, table)
    good = [r for r in reps if r["ok"]]
    failed = len(reps) - len(good)
    first = good[0] if good else {}
    log("# host: nproc %d, cpu %s, compiler %s, build %s, asserts %s" % (
        os.cpu_count() or 0, cpu_model(), first.get("compiler", "?"),
        first.get("build_type", "?"),
        "on" if first.get("asserts") else "off"))

    if args.trace:
        untraced = [r for r in good if not r["profile"]]
        traced = [r for r in good if r["profile"] and r["threads"] == 1]
        traced_pk = [r for r in good if r["threads"] > 1]
        metrics = (per_layer_metrics(untraced, traced, traced_pk)
                   if untraced and traced else {})
        coupled = metrics.get("pk.coupled_windows", (0, ""))[0]
        if coupled:
            log("# pk: %d barrier crossings on partition 0 = %.4f per "
                "coupled window" % (metrics["pk.barrier_crossings"][0],
                                    metrics["pk.barrier_crossings"][0] /
                                    coupled))
    else:
        metrics = end_to_end_metrics(good) if good else {}
        if good:
            for key in ("cpu_s", "run_s", "probe_cpu_s"):
                values = [r[key] for r in good]
                q = (statistics.quantiles(values, n=4)
                     if len(values) > 1 else values * 3)
                log("# %s over %d good repetitions: min %.4f, p25 %.4f, "
                    "median %.4f, p75 %.4f s" % (key, len(values),
                                                 min(values), *q))
            log("# unscaled medians: run_s %.4f s (wall), cpu_s %.4f s, "
                "sim_refs_per_s %.6g 1/s (wall), probe_cpu_s %.4f s; "
                "load1 median %.2f" % (
                    median([r["run_s"] for r in good]),
                    median([r["cpu_s"] for r in good]),
                    median([r["proc_ops"] / r["run_s"] for r in good]),
                    median([r["probe_cpu_s"] for r in good]),
                    median([r["load1"] for r in reps])))
    for name, (value, unit) in metrics.items():
        log("%-28s %.6g %s" % (name, value, unit))
    log("%-28s %.6g ratio (%d of %d repetitions failed)" % (
        "fail_frac", failed / len(reps), failed, len(reps)))

    print(json.dumps({
        "correct": failed == 0 and bool(metrics),
        "attempted": len(reps),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
