"""Regenerates reference.json and reference.sha256 from the current sources.

Usage: python3 perfbench/make_reference.py

Runs every item of every workload once, untraced, and records per item
the verdict, reason, generic rank and (for CLI items) exit code.  Per-item
latencies go to stderr.  Run it only on a commit whose verdicts are
trusted: the benchmark counts any later difference as a failure.
"""

import json
import sys
import time

import run
import workloads


# The --seed given to CLI items; the recorded outcomes do not depend on it.
CLI_SEED = 0


def main():
    run.require_sources()
    ds = run.load_disemi()
    out = {}
    for wl in workloads.WORKLOADS:
        items = workloads.enumerate_items(ds, wl)
        workloads.warm(ds, items)
        records = {}
        for item in items:
            t0 = time.perf_counter()
            if item.kind == "cli":
                outcome, check, _ = workloads.run_cli(item, run.SRC,
                                                      CLI_SEED, False)
            else:
                outcome, check = workloads.run_in_process(ds, item)
            latency = time.perf_counter() - t0
            if check is not None and not workloads.check_witness(
                    ds, item, check[1], check[2]):
                raise AssertionError("witness check failed for " + item.name)
            records[item.name] = outcome
            print("%8.3f  %s  %s" % (latency, item.name, outcome["verdict"]),
                  file=sys.stderr, flush=True)
        out[wl] = records
    with open(run.REFERENCE, "w") as fh:
        json.dump({"workloads": out}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    with open(run.REFERENCE_DIGEST, "w") as fh:
        fh.write(run.digest(out) + "\n")


if __name__ == "__main__":
    main()
