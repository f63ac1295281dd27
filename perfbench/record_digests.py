#!/usr/bin/env python3
"""Record perfbench/digests.json: the deterministic-stats digest and
proc.ops of every benchmark workload, for seeds 0..RECORDED_SEEDS-1 of
the seeded one.

    python3 perfbench/record_digests.py

torus1024 is recorded from a serial (--sim-threads 1) run, so every
parallel repetition is checked against the serial result: the
--sim-threads byte-identity contract.
"""

import concurrent.futures
import json
import sys

import run

JOBS = 3


def record(workload, seed, index):
    rep = run.run_rep(workload, seed, False, index, threads=1)
    if rep.get("error"):
        raise RuntimeError("%s seed %d: %s" % (workload, seed, rep["error"]))
    return {"digest": rep["digest"], "proc_ops": rep["proc_ops"]}


def main():
    if not run.build():
        sys.stderr.write("record_digests: cannot build the driver\n")
        return 1
    jobs = []
    for name, wl in sorted(run.WORKLOADS.items()):
        seeds = (range(run.RECORDED_SEEDS) if wl["seeded"]
                 else [run.DEFAULT_SEED])
        jobs.extend((name, seed) for seed in seeds)
    table = {name: {} for name in run.WORKLOADS}
    with concurrent.futures.ThreadPoolExecutor(JOBS) as pool:
        futures = {pool.submit(record, name, seed, i): (name, seed)
                   for i, (name, seed) in enumerate(jobs)}
        for fut in concurrent.futures.as_completed(futures):
            name, seed = futures[fut]
            key = str(seed) if run.WORKLOADS[name]["seeded"] else "*"
            table[name][key] = fut.result()
    # One record per line keeps the table diffable.
    blocks = []
    for name in sorted(table):
        records = sorted(table[name].items(),
                         key=lambda kv: (len(kv[0]), kv[0]))
        body = ",\n".join(
            '    "%s": %s' % (key, json.dumps(rec, sort_keys=True))
            for key, rec in records)
        blocks.append('  "%s": {\n%s\n  }' % (name, body))
    with open(run.DEFAULT_DIGESTS, "w") as f:
        f.write("{\n" + ",\n".join(blocks) + "\n}\n")
    print("recorded %d digests in %s" % (len(jobs), run.DEFAULT_DIGESTS))
    return 0


if __name__ == "__main__":
    sys.exit(main())
