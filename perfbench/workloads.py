"""The benchmark's workloads: which items each one runs, and how one item
runs and is checked.

Every item is named by a stable string, the key of its record in
reference.json.  Item lists are produced by the program's own
enumerators (`classify.enumerate_modules`, `classify.type12_candidates`,
`classify.vinberg_table`), exactly as `disemi crosscheck`, `search12` and
`table` produce them, and the harness checks that the enumerated set
still equals the reference set.  A pass then runs the workload's fixed
subset, PASS_ITEMS, in an order drawn from the workload seed.
"""

import json
import os
import random
import shlex
import signal
import subprocess
import sys
import time

CROSSCHECK_TYPES = ("A3", "C3", "B3", "D4", "A4")
SEARCH12_TYPES = ("A4",)
TYPE12_TYPES = ("A3", "A4")
TABLE_PREHOM_TYPES = ("A2", "A3", "A4", "A5", "A6", "C2", "C3", "C4", "D5")
TABLE_CERTIFY_TYPES = ("A2", "A3", "A4", "C2", "C3", "C4", "D5")
# The README's command-line examples that are not already table items.
README_ARGV = (
    ("prehom", "A2", "L(1,0)"),
    ("prehom", "A2", "2L(1,0)"),
    ("prehom", "A4", "L(0,1,0,0)"),
    ("prehom", "A4", "L(1,0,0,0) + L(0,0,1,0)"),
    ("prehom", "A4", "2L(0,1,0,0)"),
    ("prehom", "C3", "L(1,0,0)"),
    ("prehom", "D5", "L(0,0,0,1,0)"),
    ("prehom", "B3", "L(0,0,1)"),
    ("prehom", "A1xA2", "L(1)#L(0,1)"),
    ("prehom", "A1xA1", "L(1)#L(1)"),
    ("certify", "A1", "nat"),
    ("construct", "type1", "A2", "L(1,0)", "L(0,1)"),
)

WORKLOADS = ("crosscheck-sweep", "type12-certify", "table-yes")

# The items one pass runs.  Each workload's full list takes 50 to 110 s;
# these subsets take about 8 s each on a 2-core x86 machine, so that a
# run of 35 s holds three or four passes.  The choice is argued in
# README.md.  Every item of every full list stays in reference.json.
PASS_ITEMS = {
    "crosscheck-sweep": (
        "crosscheck A3 L(0,0,1)",
        "crosscheck A3 L(0,1,0)",
        "crosscheck A3 L(0,0,1) + L(1,0,0)",
        "crosscheck A3 L(0,0,1) + L(2,0,0)",
        "crosscheck A3 3L(1,0,0)",
        "crosscheck C3 L(0,1,0) + L(1,0,0)",
        "crosscheck B3 L(0,0,1)",
        "crosscheck D4 L(0,0,0,1) + L(0,0,1,0)",
        "crosscheck D4 L(0,0,0,1) + 2L(0,0,1,0)",
        "crosscheck A4 L(0,0,0,1) + L(0,1,0,0)",
        "search12 A4 type1(L(0,0,0,1), L(0,0,1,0))",
    ),
    "type12-certify": (
        "construct+certify A3 type1(L(0,0,1), L(0,1,0))",
        "construct+certify A3 type1(L(1,0,0), L(0,1,0))",
        "construct+certify A3 type2(L(0,0,1), L(0,1,0), L(1,0,0))",
        "construct+certify A3 type2(L(1,0,0), L(0,1,0), L(0,0,1))",
        "construct+certify A4 type1(L(0,0,0,1), L(0,0,1,0))",
        "construct+certify A4 type1(L(1,0,0,0), L(0,1,0,0))",
    ),
    "table-yes": (
        "disemi prehom A2 'L(1,0)'",
        "disemi prehom A2 '2L(1,0)'",
        "disemi prehom A4 'L(0,1,0,0)'",
        "disemi prehom A4 'L(0,0,1,0) + L(1,0,0,0)'",
        "disemi prehom A4 '2L(0,1,0,0)'",
        "disemi prehom A6 '2L(0,1,0,0,0,0)'",
        "disemi prehom C3 'L(1,0,0)'",
        "disemi prehom D5 'L(0,0,0,1,0)'",
        "disemi prehom B3 'L(0,0,1)'",
        "disemi prehom A1xA2 'L(1)#L(0,1)'",
        "disemi prehom A1xA1 'L(1)#L(1)'",
        "disemi certify A1 nat",
        "disemi certify A3 '3L(1,0,0)'",
        "disemi certify A4 '2L(0,0,1,0)'",
        "disemi certify C3 'L(1,0,0)'",
        "disemi construct type1 A2 'L(1,0)' 'L(0,1)'",
    ),
}


class Item:
    """One unit of work: an in-process decision or one CLI process."""

    def __init__(self, name, kind, algebra, payload):
        self.name = name          # reference key
        self.kind = kind          # crosscheck | search12 | type12 | cli
        self.algebra = algebra    # algebra spec text
        self.payload = payload    # descriptor, candidate, or CLI argv

    def __repr__(self):
        return "Item(%r)" % self.name


def _simple_type(ds, text):
    return ds.modexpr.parse_algebra(text).factors[0]


def enumerate_items(ds, workload):
    """Every item of a workload, in the program's own order."""
    classify = ds.classify
    items = []
    if workload == "crosscheck-sweep":
        for ty in CROSSCHECK_TYPES:
            t = _simple_type(ds, ty)
            for desc in classify.enumerate_modules(t, classify.DESK_BOUNDS[t]):
                items.append(Item("crosscheck %s %s" % (ty, desc),
                                  "crosscheck", ty, desc))
        for ty in SEARCH12_TYPES:
            for cand in classify.type12_candidates(_simple_type(ds, ty)):
                items.append(Item("search12 %s %s" % (ty, cand),
                                  "search12", ty, cand))
    elif workload == "type12-certify":
        for ty in TYPE12_TYPES:
            for cand in classify.type12_candidates(_simple_type(ds, ty)):
                items.append(Item("construct+certify %s %s" % (ty, cand),
                                  "type12", ty, cand))
    elif workload == "table-yes":
        argvs = []
        for ty in TABLE_PREHOM_TYPES:
            for desc in classify.vinberg_table(_simple_type(ds, ty)):
                argvs.append(("prehom", ty, str(desc)))
        for ty in TABLE_CERTIFY_TYPES:
            for desc in classify.vinberg_table(_simple_type(ds, ty)):
                argvs.append(("certify", ty, str(desc)))
        seen = {_canonical(a) for a in argvs}
        for argv in README_ARGV:
            if _canonical(argv) not in seen:
                argvs.append(argv)
        for argv in argvs:
            algebra = argv[2] if argv[0] == "construct" else argv[1]
            items.append(Item("disemi " + shlex.join(argv), "cli", algebra,
                              argv))
    else:
        raise ValueError("unknown workload %r" % (workload,))
    return items


def _canonical(argv):
    """argv with the summands of a module expression in sorted order, so
    a README example equal to a table item runs once."""
    return argv[:-1] + (" + ".join(sorted(argv[-1].split(" + "))),)


def irreducibles(ds, items):
    """(spec, label) for every irreducible module the items realise."""
    modexpr = ds.modexpr
    out = {}
    for item in items:
        spec = modexpr.parse_algebra(item.algebra)
        if item.kind == "crosscheck":
            labels = item.payload.labels()
        elif item.kind in ("search12", "type12"):
            labels = item.payload.labels
        elif item.payload[0] == "construct":
            labels = [modexpr.parse_module(x, spec).blocks
                      for x in item.payload[3:]]
        else:
            ast = modexpr.parse_module(item.payload[2], spec)
            labels = modexpr.to_descriptor(ast, spec).labels()
        for label in labels:
            label = spec.coerce_label(label)
            out[(str(spec), label)] = (spec, label)
    return list(out.values())


def warm(ds, items):
    """Build every algebra and irreducible module the items use."""
    for spec, label in irreducibles(ds, items):
        spec.algebra()
        ds.repbuilder.realize_label(spec, label)


# ---------------------------------------------------------------------------
# Running one item
# ---------------------------------------------------------------------------

def _prehom_outcome(cert):
    return {"verdict": cert.verdict, "reason": cert.reason,
            "generic_rank": cert.generic_rank, "exit": None}


def _certify_outcome(result):
    if result:
        inner = result.prehom
        return {"verdict": "certified", "reason": None,
                "generic_rank": inner.generic_rank if inner else None,
                "exit": None}
    inner = result.inner
    return {"verdict": "refused", "reason": result.reason,
            "generic_rank": inner.generic_rank if inner else None,
            "exit": None}


def _construct(ds, kind, spec, labels):
    """construct_type1 or construct_type2, as `kind` names."""
    build = (ds.classify.construct_type1 if kind == "type1"
             else ds.classify.construct_type2)
    return build(spec, *labels)


def run_in_process(ds, item):
    """Decide one item; returns (outcome, witness check or None)."""
    t = _simple_type(ds, item.algebra)
    spec = ds.repbuilder.SemisimpleSpec((t,))
    if item.kind in ("crosscheck", "search12"):
        desc = (item.payload if item.kind == "crosscheck"
                else item.payload.descriptor())
        rep = ds.repbuilder.realize(spec, desc)
        cert = ds.prehom.is_prehomogeneous(rep, mode=ds.prehom.Symbolic())
        check = (item.name, "module", tuple(str(x) for x in cert.witness)) \
            if cert else None
        return _prehom_outcome(cert), check
    if item.kind == "type12":
        g = _construct(ds, item.payload.kind, spec, item.payload.labels)
        result = ds.prehom.certify_disemisimple(g)
        check = None
        if result:
            check = (item.name, "radical",
                     tuple(str(x) for x in result.prehom.witness))
        return _certify_outcome(result), check
    raise ValueError("not an in-process item: %r" % (item,))


def cli_command(item, src_dir, seed, traced):
    """The child process for one CLI item and its environment: child.py
    runs `disemi.cli.main` as `python3 -m disemi.cli` would.

    The child is forked by `sh`, not by the benchmark: Linux carries a
    forked process's peak resident set over from its parent and keeps it
    across exec, so a child forked straight from the benchmark would
    report the benchmark's peak instead of its own.
    """
    argv = list(item.payload) + ["--json", "--seed", str(seed)]
    cmd = ["sh", "-c", '"$@"; exit $?', "sh", sys.executable,
           os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "child.py")]
    cmd += (["--trace"] if traced else []) + argv
    env = dict(os.environ)
    env["PYTHONPATH"] = src_dir
    env.pop("PYTHONSTARTUP", None)
    return cmd, env


def run_cli(item, src_dir, seed, traced):
    """Run one CLI item as a fresh process.

    Returns (outcome, witness check or None, child report): the report
    holds the child's speed summary, its peak resident set "maxrss_mb"
    and, when traced, its layer totals with "cli.process_start_s".
    """
    cmd, env = cli_command(item, src_dir, seed, traced)
    started = time.time()
    with subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True,
                          start_new_session=True) as child:
        try:
            stdout, stderr = child.communicate(timeout=170)
        except subprocess.TimeoutExpired:
            os.killpg(child.pid, signal.SIGKILL)  # sh and the child
            child.communicate()
            raise
    proc = subprocess.CompletedProcess(cmd, child.returncode, stdout, stderr)
    report = _child_report(proc.stderr)
    import_done = report.pop("import_done")
    if traced:
        report["cli.process_start_s"] = import_done - started
    outcome, check = _cli_outcome(item, proc)
    return outcome, check, report


def _child_report(stderr):
    from child import REPORT_MARKER
    for line in reversed(stderr.splitlines()):
        if line.startswith(REPORT_MARKER):
            return json.loads(line[len(REPORT_MARKER):])
    raise RuntimeError("child wrote no report:\n" + stderr[-2000:])


def _cli_outcome(item, proc):
    if proc.returncode not in (0, 1):
        raise RuntimeError("exit %d from %s:\n%s" % (
            proc.returncode, item.name, proc.stderr[-2000:]))
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError("no output from %s" % item.name)
    data = json.loads(lines[-1])
    if item.payload[0] == "prehom":
        out = {"verdict": data["verdict"], "reason": data.get("reason"),
               "generic_rank": data.get("generic_rank"),
               "exit": proc.returncode}
        check = None
        if data["verdict"] == "prehomogeneous":
            check = (item.name, "module", tuple(data["witness"]))
        return out, check
    cert = data["certificate"] if item.payload[0] == "construct" else data
    inner = cert.get("radical_certificate") or {}
    out = {"verdict": "refused" if cert["refused"] else "certified",
           "reason": cert.get("reason"),
           "generic_rank": inner.get("generic_rank"),
           "exit": proc.returncode}
    check = None
    if not cert["refused"]:
        check = (item.name, "radical", tuple(inner["witness"]))
    return out, check


# ---------------------------------------------------------------------------
# Checking witnesses
# ---------------------------------------------------------------------------

def _item_module(ds, item):
    """The module whose witness an item reports, rebuilt here."""
    spec = ds.modexpr.parse_algebra(item.algebra)
    if item.kind == "crosscheck":
        return ds.repbuilder.realize(spec, item.payload)
    if item.kind == "search12":
        return ds.repbuilder.realize(spec, item.payload.descriptor())
    if item.kind == "type12":
        return _construct(ds, item.payload.kind, spec, item.payload.labels)
    verb = item.payload[0]
    if verb == "construct":
        labels = [ds.modexpr.parse_module(x, spec).blocks
                  for x in item.payload[3:]]
        return _construct(ds, item.payload[1], spec, labels)
    rep = ds.modexpr.to_representation(
        ds.modexpr.parse_module(item.payload[2], spec), spec)
    if verb == "prehom":
        return rep
    return ds.liealg.semidirect(spec.algebra(), rep)


def check_witness(ds, item, where, witness):
    """Exact re-check of a Yes witness: the evaluation matrix at the
    witness has rank dim V.  `where` is "module" for a module witness and
    "radical" for the radical module of a certified algebra."""
    from fractions import Fraction
    target = _item_module(ds, item)
    if where == "radical":
        target, _ = ds.prehom.adjoint_radical_module(target,
                                                     target.levi_basis)
    v = [Fraction(x) for x in witness]
    ev = ds.prehom.evaluation_matrix(target, v)
    return ds.linalg.rank(ev.matrix) == target.dim if ev.matrix \
        else target.dim == 0


def order(items, seed):
    """The pass order for a workload seed."""
    out = list(items)
    random.Random(seed).shuffle(out)
    return out
