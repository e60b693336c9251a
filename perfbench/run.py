"""The disemi benchmark.

Usage:
  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; disemi is imported from ./src.
Workloads: crosscheck-sweep, type12-certify, table-yes (see README.md).

Set-up imports disemi and builds every algebra and irreducible module the
workload uses, SETUP_REPEATS times from a cold import.  Then passes over
the workload's fixed item list run one after another until the next pass
would end past --seconds (at least one pass).  Every verdict is checked
against reference.json and every Yes witness is re-checked exactly.
Times are in reference seconds, scaled by the machine-speed samples of
probe.py taken while the work runs.

With --trace 0 the last stdout line reports the end-to-end metrics; with
--trace 1 it reports the per-layer metrics, from traced passes that
alternate with untraced ones.  Lines before it are one JSON row per item.
"""

import argparse
import gc
import hashlib
import importlib
import json
import os
import resource
import statistics
import sys
import time
from collections import defaultdict
from types import SimpleNamespace

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
REFERENCE = os.path.join(HERE, "reference.json")
REFERENCE_DIGEST = os.path.join(HERE, "reference.sha256")
SETUP_REPEATS = 3
OUTCOME_KEYS = ("verdict", "reason", "generic_rank", "exit")


def _declared(key):
    """(name, unit) of every metric BENCHMARK.json declares under `key`."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return tuple((m["name"], m["unit"]) for m in json.load(fh)[key])


END_TO_END = _declared("end_to_end")
PER_LAYER = _declared("per_layer")

# Per-item syzygy counters reported in the item rows of a traced run.
ITEM_COUNTERS = (
    "syzygy.kernel_syzygies.calls", "syzygy.stabilizer_syzygies.calls",
    "syzygy.sparse_nullspace.calls", "syzygy.sparse_nullspace.unknowns",
    "syzygy.syzygies_found", "syzygy.closed_by_sampling",
    "syzygy.closed_by_sandwich", "syzygy.closed_by_fallback",
)


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def require_sources():
    if not os.path.isfile(os.path.join(SRC, "disemi", "__init__.py")):
        raise BenchError("no disemi sources under %s" % SRC)
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def load_disemi():
    """A cold import of disemi from SRC, dropping any earlier import."""
    for name in [m for m in sys.modules
                 if m == "disemi" or m.startswith("disemi.")]:
        del sys.modules[name]
    pkg = importlib.import_module("disemi")
    if not os.path.abspath(pkg.__file__).startswith(SRC + os.sep):
        raise BenchError("disemi was imported from %s, not %s"
                         % (pkg.__file__, SRC))
    mods = {m: importlib.import_module("disemi." + m)
            for m in ("linalg", "liealg", "repbuilder", "prehom", "classify",
                      "modexpr")}
    return SimpleNamespace(package=pkg, **mods)


def digest(outcomes):
    """sha256 of a {workload or item: outcome...} mapping, canonical JSON."""
    text = json.dumps(outcomes, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def load_reference():
    with open(REFERENCE) as fh:
        ref = json.load(fh)["workloads"]
    with open(REFERENCE_DIGEST) as fh:
        want = fh.read().strip()
    if digest(ref) != want:
        raise BenchError("reference.json does not match reference.sha256")
    return ref


import layers     # noqa: E402  (after the helpers above; no disemi import)
import probe      # noqa: E402
import workloads  # noqa: E402


# ---------------------------------------------------------------------------
# Set-up and passes
# ---------------------------------------------------------------------------

def setup(workload):
    """Cold import plus every algebra and irreducible the pass uses;
    returns (reference seconds, namespace, {name: item})."""
    with probe.Sampler() as sampler:
        t0 = time.perf_counter()
        ds = load_disemi()
        names = set(workloads.PASS_ITEMS[workload])
        items = [i for i in workloads.enumerate_items(ds, workload)
                 if i.name in names]
        workloads.warm(ds, items)
        t1 = time.perf_counter()
    return (probe.reference_seconds(t1 - t0, sampler.summary(t0, t1)), ds,
            {i.name: i for i in items})


def _delta(tracer, before):
    """Counters accumulated since `before`, a tracer.totals() snapshot."""
    after = tracer.totals()
    out = {k: v - before.get(k, 0) for k, v in after.items()}
    out["syzygy.degree_max"] = tracer.item_degree_max
    return out


def run_item(ctx, item, tracer, sampler):
    """One item: (start, end, outcome, witness check, counters, speed).

    Counters (traced passes only) are the layer totals of this item
    alone, from the child process for a CLI item.  A CLI child samples
    machine speed itself and `speed` is its summary; the parent's
    sampler pauses meanwhile so as not to compete with it.
    """
    counters = speed = None
    if tracer is not None:
        tracer.item_degree_max = 0
        before = tracer.totals()
    check = None
    t0 = time.perf_counter()
    try:
        if item.kind == "cli":
            sampler.pause()
            try:
                outcome, check, report = workloads.run_cli(
                    item, SRC, ctx.cli_seed, tracer is not None)
            finally:
                t1 = time.perf_counter()
                sampler.resume()
            speed = report.pop("speed")
            ctx.child_peak_rss = max(ctx.child_peak_rss,
                                     report.pop("maxrss_mb"))
            counters = report if tracer is not None else None
            return t0, t1, outcome, check, counters, speed
        outcome, check = workloads.run_in_process(ctx.ds, item)
        if tracer is not None:
            counters = _delta(tracer, before)
    except Exception as exc:  # a failing item is counted, not fatal
        outcome = {"error": "%s: %s" % (type(exc).__name__, exc)}
    return t0, time.perf_counter(), outcome, check, counters, speed


def _scaled(counters, factor):
    """Counters with every time in reference seconds."""
    if counters is None:
        return None
    return {k: v * factor if k.endswith((".s", "_s")) else v
            for k, v in counters.items()}


def _merge(parts):
    """Pass totals from per-phase counters."""
    totals = {}
    starts = []
    for c in parts:
        for k, v in c.items():
            if k == "syzygy.degree_max":
                totals[k] = max(totals.get(k, 0), v)
            elif k == "cli.process_start_s":
                starts.append(v)
            else:
                totals[k] = totals.get(k, 0) + v
    if starts:
        totals["cli.process_start_s"] = statistics.median(starts)
    return totals


def run_pass(ctx, traced):
    """One pass over the workload's items in the seeded order.

    Each phase (the enumeration, then every item) is timed in reference
    seconds from the machine-speed samples taken while it ran.
    """
    tracer = layers.Tracer() if traced else None
    restore = layers.install(tracer, ctx.ds.package) if traced else None
    phases = []  # (name or None, start, end, outcome, check, counters, speed)
    try:
        with probe.Sampler() as sampler:
            before = tracer.totals() if traced else None
            t0 = time.perf_counter()
            try:
                enumerated = {i.name: i for i in
                              workloads.enumerate_items(ctx.ds, ctx.workload)}
            except Exception as exc:  # every item of the pass then fails
                enumerated = {}
                print("enumeration failed: %s: %s" % (type(exc).__name__, exc),
                      file=sys.stderr)
            phases.append((None, t0, time.perf_counter(), None, None,
                           _delta(tracer, before) if traced else None, None))
            for name in ctx.order:
                item = enumerated.get(name)
                if item is None:
                    now = time.perf_counter()
                    phases.append((name, now, now, {"error": "not enumerated"},
                                   None, None, None))
                else:
                    phases.append((name,)
                                  + run_item(ctx, item, tracer, sampler))
    finally:
        if restore is not None:
            restore()
    if set(enumerated) != set(ctx.reference):
        ctx.enumeration_ok = False
    rows = {}
    parts = []
    wall = measured = 0.0
    for name, t0, t1, outcome, check, counters, speed in phases:
        speed = speed or sampler.summary(t0, t1)
        seconds = probe.reference_seconds(t1 - t0, speed)
        wall += seconds
        measured += t1 - t0
        counters = _scaled(counters, probe.factor(speed))
        if counters is not None:
            parts.append(counters)
        if name is not None:
            rows[name] = (seconds, outcome, check, counters)
    return SimpleNamespace(wall=wall, measured=measured, rows=rows,
                           totals=_merge(parts))


def measure(ctx, seconds, trace):
    """Untraced passes (alternating with traced ones under --trace 1)
    until the next round would end past `seconds`; at least one round."""
    plain, traced = [], []
    start = time.perf_counter()
    while True:
        plain.append(run_pass(ctx, False))
        if trace:
            traced.append(run_pass(ctx, True))
        elapsed = time.perf_counter() - start
        if elapsed * (len(plain) + 1) / len(plain) > seconds:
            return plain, traced


# ---------------------------------------------------------------------------
# Checking and metrics
# ---------------------------------------------------------------------------

def verify(ctx, passes):
    """(attempted, failed, pass digests) over all passes.

    An item run fails when it raised, or its verdict, reason, generic
    rank or exit code differs from the reference, or its Yes witness
    fails the exact rank re-check.
    """
    witness_ok = {}
    attempted = failed = 0
    digests = []
    for p in passes:
        seen = {}
        for name, (_, outcome, check, _) in p.rows.items():
            attempted += 1
            got = {k: outcome.get(k) for k in OUTCOME_KEYS}
            seen[name] = got
            ok = "error" not in outcome and got == ctx.reference.get(name)
            if ok and check is not None:
                if check not in witness_ok:
                    witness_ok[check] = _check(ctx, check)
                ok = witness_ok[check]
            if not ok:
                failed += 1
                print("FAILED %s: got %s, reference %s" % (
                    name, outcome, ctx.reference.get(name)), file=sys.stderr)
        digests.append(digest(seen))
    return attempted, failed, digests


def _check(ctx, check):
    name, where, witness = check
    try:
        return workloads.check_witness(ctx.ds, ctx.items[name], where, witness)
    except Exception as exc:
        print("witness check raised for %s: %s" % (name, exc), file=sys.stderr)
        return False


def end_to_end(ctx, passes, setup_times):
    latencies = defaultdict(list)
    for p in passes:
        for name, row in p.rows.items():
            latencies[name].append(row[0])
    per_item = [statistics.median(xs) for xs in latencies.values()]
    values = {
        "wall_s": statistics.median(p.wall for p in passes),
        "item_p50_s": statistics.median(per_item),
        "item_max_s": max(per_item),
        "setup_s": statistics.median(setup_times),
        # Of the largest CLI child for table-yes, of this process else.
        "peak_rss_mb": (ctx.child_peak_rss if ctx.workload == "table-yes"
                        else resource.getrusage(
                            resource.RUSAGE_SELF).ru_maxrss / 1024),
    }
    return {name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END}


def per_layer(plain, traced):
    per_pass = []
    for p in traced:
        t = dict(p.totals)
        for part in ("calls", "s", "entries"):
            t["linalg.rank." + part] = sum(
                t.get("%s.rank.%s" % (c, part), 0) for c in layers.RANK_CALLERS)
        rank_calls = t.get("prehom.rank.calls", 0)
        t["prehom.witness_yield"] = (t.get("prehom.yes", 0) / rank_calls
                                     if rank_calls else 0.0)
        per_pass.append(t)
    values = {name: statistics.median(t.get(name, 0) for t in per_pass)
              for name, _ in PER_LAYER}
    values["trace.overhead_s"] = (statistics.median(p.wall for p in traced)
                                  - statistics.median(p.wall for p in plain))
    return {name: {"value": values[name], "unit": unit}
            for name, unit in PER_LAYER}


def item_rows(ctx, plain, traced):
    out = []
    for name in ctx.order:
        row = {"item": name,
               "latency_s": statistics.median(p.rows[name][0] for p in plain)}
        outcome = plain[0].rows[name][1]
        row.update({k: outcome.get(k) for k in OUTCOME_KEYS + ("error",)
                    if outcome.get(k) is not None})
        if traced and traced[0].rows[name][3] is not None:
            counters = traced[0].rows[name][3]
            row["syzygy"] = {k: counters.get(k, 0) for k in
                             ITEM_COUNTERS + ("syzygy.degree_max",)}
        out.append(row)
    return out


def main(argv=None):
    p = argparse.ArgumentParser(description="disemi benchmark")
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    # One core for the harness, its speed samples and its children, so
    # that the samples come from the core the work runs on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    try:
        require_sources()
        reference = load_reference()[args.workload]
        setup_times = []
        for _ in range(SETUP_REPEATS):
            # Only one set-up is alive at a time, so that the peak
            # resident set is the program's, not that of two set-ups.
            ds = items = None
            gc.collect()
            seconds, ds, items = setup(args.workload)
            setup_times.append(seconds)
        setup_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    except BenchError as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 2
    names = workloads.PASS_ITEMS[args.workload]
    ctx = SimpleNamespace(
        workload=args.workload, ds=ds, items=items,
        reference=reference,
        order=workloads.order(names, args.seed),
        cli_seed=args.seed, enumeration_ok=True, child_peak_rss=0.0)
    plain, traced = measure(ctx, args.seconds, args.trace)
    attempted, failed, digests = verify(ctx, plain + traced)
    expected = digest({n: reference.get(n) for n in names})
    correct = (failed == 0 and ctx.enumeration_ok
               and all(d == expected for d in digests))
    if not ctx.enumeration_ok:
        print("enumerated items differ from the reference set",
              file=sys.stderr)
    for row in item_rows(ctx, plain, traced):
        print(json.dumps(row, sort_keys=True))
    print("pass wall_s untraced %s traced %s; measured s untraced %s "
          "traced %s; own peak_rss_mb after set-up %.2f; "
          "fail_frac %.4f (%d/%d); verdict digest %s" % (
              [round(p.wall, 3) for p in plain],
              [round(p.wall, 3) for p in traced],
              [round(p.measured, 3) for p in plain],
              [round(p.measured, 3) for p in traced], setup_rss,
              failed / attempted, failed, attempted, digests[0][:16]))
    metrics = (per_layer(plain, traced) if args.trace
               else end_to_end(ctx, plain, setup_times))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
