"""Per-layer tracing from outside the program.

`install` replaces public functions of disemi's modules with wrappers
that record a span per call: name, start, end and the enclosing span.
Each function is wrapped under the name its caller looks it up by: a
function imported with `from .linalg import rank` is patched in the
importing module's namespace, so every call site is covered.  Calls to
`linalg.rank` are named by the calling module (`prehom.rank`,
`syzygy.rank`, `liealg.rank`); every other span is named by the
function's home module.  `install` returns a function that restores
every original.

Spans are kept in memory as running totals: call counts, inclusive
seconds (outermost call only, so recursion is not counted twice) and
self seconds (the span minus the time its child spans cover).
"""

import inspect
import time
from collections import Counter

# (home module, function): spans named "<home>.<function>"
SPANS = (
    ("repbuilder", "realize"),
    ("repbuilder", "realize_label"),
    ("repbuilder", "decompose"),
    ("repbuilder", "highest_weight_vectors"),
    ("repbuilder", "cyclic_submodule"),
    ("repbuilder", "wedge2"),
    ("prehom", "is_prehomogeneous"),
    ("prehom", "evaluation_matrix"),
    ("prehom", "certify_disemisimple"),
    ("syzygy", "generic_rank_certified"),
    ("syzygy", "kernel_syzygies"),
    ("syzygy", "stabilizer_syzygies"),
    ("syzygy", "sparse_nullspace"),
    ("symrank", "generic_rank"),
    ("symrank", "poly_eval"),
    ("linalg", "rref"),
    ("linalg", "matmul"),
    ("liealg", "semidirect"),
    ("liealg", "quotient_by_ideal"),
    ("liealg", "solvable_radical"),
    ("liealg", "killing_form"),
    ("liealg", "is_semisimple"),
    ("liealg", "subalgebra"),
    ("liealg", "lower_central_series"),
    ("liealg", "exp_ad"),
    ("liealg", "sum_spans"),
    ("classify", "construct_type1"),
    ("classify", "construct_type2"),
    ("classify", "type12_candidates"),
    ("classify", "enumerate_modules"),
    ("modexpr", "parse_module"),
)
# (home module, function): spans named "<caller>.<function>"
BY_CALLER = (("linalg", "rank"),)
RANK_CALLERS = ("prehom", "syzygy", "liealg")
# (home module, class, method)
METHODS = (
    ("linalg", "IncrementalSpan", "add"),
    ("linalg", "IncrementalSpan", "solve"),
)
# Called too often for a span; only counted.
COUNTED = (("symrank", "poly_mul"),)

MODULES = ("rootdata", "linalg", "liealg", "repbuilder", "symrank", "syzygy",
           "prehom", "classify", "modexpr", "cli")


class Tracer:
    """Running span totals and counters for one traced pass."""

    def __init__(self):
        self.calls = Counter()
        self.seconds = Counter()
        self.self_seconds = Counter()
        self.counts = Counter()
        self.item_degree_max = 0
        self._stack = []          # [name, start, seconds covered by children]
        self._depth = Counter()

    def enter(self, name, count=True):
        if count:
            self.calls[name] += 1
        self._depth[name] += 1
        self._stack.append([name, time.perf_counter(), 0.0])

    def exit(self):
        name, start, children = self._stack.pop()
        duration = time.perf_counter() - start
        self._depth[name] -= 1
        if not self._depth[name]:
            self.seconds[name] += duration
        self.self_seconds[name] += duration - children
        if self._stack:
            self._stack[-1][2] += duration

    def totals(self):
        """Flat {key: number}: "<span>.calls", "<span>.s", "<span>.self_s"
        and every counter."""
        out = {}
        for name, n in self.calls.items():
            out[name + ".calls"] = n
        for name, s in self.seconds.items():
            out[name + ".s"] = s
        for name, s in self.self_seconds.items():
            out[name + ".self_s"] = s
        out.update(self.counts)
        out["syzygy.degree_max"] = self.item_degree_max
        return out


# ---------------------------------------------------------------------------
# Hooks: counters taken at the call boundary
# ---------------------------------------------------------------------------

def _rank_before(tracer, name, args, kwargs):
    a = args[0] if args else kwargs["a"]
    if a:
        tracer.counts[name + ".entries"] += len(a) * len(a[0])


def _nullspace_before(tracer, name, args, kwargs):
    rows, ncols = args
    tracer.counts["syzygy.sparse_nullspace.unknowns"] += ncols
    tracer.counts["syzygy.sparse_nullspace.equations"] += len(rows)


def _syzygies_before(tracer, name, args, kwargs):
    degree = args[1] if len(args) > 1 else kwargs["degree"]
    tracer.item_degree_max = max(tracer.item_degree_max, degree)


def _syzygies_after(tracer, name, state, result):
    tracer.counts["syzygy.syzygies_found"] += len(result)


def _prehom_after(tracer, name, state, result):
    if result.mode == "symbolic":
        kind = "symbolic_yes" if result else "symbolic_no"
    else:
        kind = result.mode
    tracer.counts["prehom.verdicts." + kind] += 1
    if result:
        tracer.counts["prehom.yes"] += 1


def _certified_before(tracer, name, args, kwargs):
    return (tracer.calls["syzygy.kernel_syzygies"],
            tracer.calls["symrank.generic_rank"])


def _certified_after(tracer, name, state, result):
    kernel_calls, elim_calls = state
    if tracer.calls["symrank.generic_rank"] > elim_calls:
        how = "fallback"
    elif tracer.calls["syzygy.kernel_syzygies"] > kernel_calls:
        how = "sandwich"
    else:
        how = "sampling"
    tracer.counts["syzygy.closed_by_" + how] += 1


BEFORE = {
    "syzygy.sparse_nullspace": _nullspace_before,
    "syzygy.kernel_syzygies": _syzygies_before,
    "syzygy.stabilizer_syzygies": _syzygies_before,
    "syzygy.generic_rank_certified": _certified_before,
}
AFTER = {
    "syzygy.kernel_syzygies": _syzygies_after,
    "syzygy.stabilizer_syzygies": _syzygies_after,
    "syzygy.generic_rank_certified": _certified_after,
    "prehom.is_prehomogeneous": _prehom_after,
}
for _caller in RANK_CALLERS:
    BEFORE[_caller + ".rank"] = _rank_before


def _span_wrapper(tracer, name, fn):
    before = BEFORE.get(name)
    after = AFTER.get(name)
    if inspect.isgeneratorfunction(fn):
        def gen_wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            first = True
            while True:
                tracer.enter(name, count=first)
                first = False
                try:
                    value = next(it)
                except StopIteration:
                    return
                finally:
                    tracer.exit()
                yield value
        return gen_wrapper

    def wrapper(*args, **kwargs):
        state = before(tracer, name, args, kwargs) if before else None
        tracer.enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.exit()
        if after:
            after(tracer, name, state, result)
        return result
    return wrapper


def _count_wrapper(tracer, name, fn):
    key = name + ".calls"

    def wrapper(*args, **kwargs):
        tracer.counts[key] += 1
        return fn(*args, **kwargs)
    return wrapper


def install(tracer, package):
    """Wrap every traced function of `package` (the imported disemi);
    returns a function that restores all originals."""
    import importlib
    mods = {m: importlib.import_module(package.__name__ + "." + m)
            for m in MODULES}
    patched = []

    def patch(target, attr, wrapper):
        patched.append((target, attr, getattr(target, attr)))
        setattr(target, attr, wrapper)

    def patch_everywhere(home, fn_name, make, by_caller=False):
        original = getattr(mods[home], fn_name)
        for short, mod in list(mods.items()) + [("", package)]:
            if by_caller and short in ("", home):
                continue
            if mod.__dict__.get(fn_name) is original:
                name = "%s.%s" % (short if by_caller else home, fn_name)
                patch(mod, fn_name, make(tracer, name, original))

    for home, fn_name in SPANS:
        patch_everywhere(home, fn_name, _span_wrapper)
    for home, fn_name in BY_CALLER:
        patch_everywhere(home, fn_name, _span_wrapper, by_caller=True)
    for home, fn_name in COUNTED:
        patch_everywhere(home, fn_name, _count_wrapper)
    for home, cls_name, meth in METHODS:
        cls = getattr(mods[home], cls_name)
        name = "%s.%s.%s" % (home, cls_name, meth)
        patch(cls, meth, _span_wrapper(tracer, name, cls.__dict__[meth]))

    def restore():
        while patched:
            target, attr, original = patched.pop()
            setattr(target, attr, original)
    return restore
