"""Seconds-long self-test of the benchmark harness.

Run with `python3 -m pytest perfbench/test_smoke.py` or
`python3 perfbench/test_smoke.py` from the repository root.

Covers the A2 cross-check in process, one A3 construct-and-certify item,
and two CLI items, traced and untraced; checks that the metric names and
units the harness prints are those BENCHMARK.json declares, that the
committed reference matches its digest, and that tracing restores every
wrapped function.
"""

import os
import sys
from types import SimpleNamespace

HERE = os.path.dirname(os.path.abspath(__file__))
if HERE not in sys.path:
    sys.path.insert(0, HERE)

import layers     # noqa: E402
import run        # noqa: E402
import workloads  # noqa: E402

run.require_sources()
DS = run.load_disemi()
REFERENCE = run.load_reference()

A3_ITEM = "construct+certify A3 type1(L(0,0,1), L(0,1,0))"
CLI_ITEMS = ("disemi prehom A2 'L(1,0)'", "disemi prehom A1xA1 'L(1)#L(1)'")


def _namespaces():
    """Every attribute of disemi's modules and of the traced classes."""
    import importlib
    out = {}
    for m in layers.MODULES:
        mod = importlib.import_module("disemi." + m)
        out.update({(m, k): v for k, v in vars(mod).items()})
    span = DS.linalg.IncrementalSpan
    out.update({("IncrementalSpan", k): v for k, v in vars(span).items()})
    return out


def _items(workload, names):
    by_name = {i.name: i for i in workloads.enumerate_items(DS, workload)}
    return [by_name[n] for n in names]


def test_reference_digest_and_coverage():
    with open(run.REFERENCE_DIGEST) as fh:
        assert run.digest(REFERENCE) == fh.read().strip()
    for wl in workloads.WORKLOADS:
        names = {i.name for i in workloads.enumerate_items(DS, wl)}
        assert names == set(REFERENCE[wl]), wl
        assert set(workloads.PASS_ITEMS[wl]) <= names, wl


def test_a2_crosscheck_traced_matches_table():
    t = DS.modexpr.parse_algebra("A2").factors[0]
    bound = DS.classify.DESK_BOUNDS[t]
    items = [workloads.Item("crosscheck A2 %s" % d, "crosscheck", "A2", d)
             for d in DS.classify.enumerate_modules(t, bound)]
    before = _namespaces()
    tracer = layers.Tracer()
    restore = layers.install(tracer, DS.package)
    try:
        assert _namespaces() != before
        outcomes = [workloads.run_in_process(DS, i) for i in items]
    finally:
        restore()
    assert _namespaces() == before
    positives = {str(i.payload) for i, (o, _) in zip(items, outcomes)
                 if o["verdict"] == "prehomogeneous"}
    assert positives == {str(d) for d in DS.classify.vinberg_table(t)}
    for item, (_, check) in zip(items, outcomes):
        if check is not None:
            assert workloads.check_witness(DS, item, check[1], check[2])
    totals = tracer.totals()
    assert totals["prehom.is_prehomogeneous.calls"] == len(items)
    assert totals["prehom.is_prehomogeneous.s"] >= \
        totals["prehom.is_prehomogeneous.self_s"] > 0


def test_a3_construction_matches_reference():
    (item,) = _items("type12-certify", [A3_ITEM])
    tracer = layers.Tracer()
    restore = layers.install(tracer, DS.package)
    try:
        outcome, check = workloads.run_in_process(DS, item)
    finally:
        restore()
    assert outcome == REFERENCE["type12-certify"][A3_ITEM]
    assert check is None
    totals = tracer.totals()
    assert totals["liealg.semidirect.calls"] >= 1
    assert totals["classify.construct_type1.s"] > 0


def test_two_cli_items_and_metric_output():
    """A two-item table-yes pass, untraced and traced, through the same
    code as a full run; the printed metrics carry the declared names."""
    ctx = SimpleNamespace(
        workload="table-yes", ds=DS,
        items={i.name: i for i in _items("table-yes", CLI_ITEMS)},
        reference=REFERENCE["table-yes"],
        order=workloads.order(CLI_ITEMS, 7), cli_seed=7, enumeration_ok=True,
        child_peak_rss=0.0)
    plain, traced = run.measure(ctx, 0, True)
    attempted, failed, digests = run.verify(ctx, plain + traced)
    assert (attempted, failed) == (4, 0)
    assert digests[0] == digests[1] == run.digest(
        {n: REFERENCE["table-yes"][n] for n in CLI_ITEMS})
    e2e = run.end_to_end(ctx, plain, [0.5, 0.4, 0.6])
    assert [(k, v["unit"]) for k, v in e2e.items()] == list(run.END_TO_END)
    assert e2e["setup_s"]["value"] == 0.5
    assert all(v["value"] > 0 for v in e2e.values())
    layer = run.per_layer(plain, traced)
    assert [(k, v["unit"]) for k, v in layer.items()] == list(run.PER_LAYER)
    assert layer["prehom.is_prehomogeneous.calls"]["value"] == 2
    assert layer["cli.process_start_s"]["value"] > 0
    rows = run.item_rows(ctx, plain, traced)
    assert [r["item"] for r in rows] == ctx.order
    assert all("syzygy" in r for r in rows)


if __name__ == "__main__":
    for name, fn in sorted(globals().items()):
        if name.startswith("test_") and callable(fn):
            fn()
            print("ok", name)
