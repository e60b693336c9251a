"""Command-line frontend.

Every pipeline is exposed as a subcommand; --json switches to the
serialised certificate or report.  Exit codes: 0 for a positive result
(prehomogeneous / certificate found / clean diff), 1 for a negative
one, 2 for usage, parse or input errors, 3 for an internal error (a
failed invariant check, reported as "internal error: ..."; never a
verdict), and 141 (128 + SIGPIPE, as a shell reports a writer ended by
SIGPIPE), silently, when the reader of stdout closes it early.
"""

import argparse
import json
import os
import sys
from fractions import Fraction

from .liealg import Subspace, check_jacobi, from_json_dict, rational
from .modexpr import (Irr, ModuleParseError, module_dim, parse_algebra,
                      parse_module, pretty_descriptor, to_representation)
from .prehom import (DecompositionCertificate, Randomized, Refusal, Symbolic,
                     certify_disemisimple, dimension_verdict,
                     is_prehomogeneous, DEFAULT_SEED, DEFAULT_TRIALS,
                     RADICAL_NOT_PREHOMOGENEOUS)
from .repbuilder import decompose, ModuleDescriptor, SemisimpleSpec


def _mode_from_args(args):
    if getattr(args, "exact", False):
        return Symbolic()
    return Randomized(seed=args.seed, trials=args.trials)


def _int_at_least(low):
    """An argparse type: an int of at least low, else a usage error."""
    def integer(text):
        if int(text) < low:
            raise argparse.ArgumentTypeError("%s is below %d" % (text, low))
        return int(text)
    return integer


def _parse_type(text):
    spec = parse_algebra(text)
    if len(spec.factors) != 1:
        raise ModuleParseError("expected a single simple type", 0)
    return spec.factors[0]


def cmd_prehom(args):
    spec = parse_algebra(args.algebra)
    ast = parse_module(args.module, spec)
    dim = module_dim(ast, spec)
    # the dimensions can decide before the module is built, which may
    # be too large to build
    cert = dimension_verdict(dim, spec.dim)
    if cert is None:
        cert = is_prehomogeneous(to_representation(ast, spec),
                                 mode=_mode_from_args(args))
    if args.json:
        print(json.dumps(cert.to_json_dict(), separators=(",", ":")))
    else:
        if cert:
            print("prehomogeneous: witness %s (evaluation rank %d, mode %s)"
                  % ([str(Fraction(x)) for x in cert.witness], cert.rank,
                     cert.mode))
        else:
            extra = ("" if cert.generic_rank is None
                     else ", generic rank %d < %d" % (cert.generic_rank, dim))
            print("not prehomogeneous: %s%s" % (cert.reason, extra))
    return 0 if cert else 1


def _print_certificate(result, as_json):
    if as_json:
        print(json.dumps(result.to_json_dict(), separators=(",", ":")))
        return 0 if isinstance(result, DecompositionCertificate) else 1
    if isinstance(result, Refusal):
        inner = "" if result.inner is None else " (%s)" % result.inner.reason
        print("refused: %s%s" % (result.reason, inner))
        return 1
    print("disemisimple: s2 = exp(ad z)(s1) with")
    print("  z = %s" % [str(Fraction(x)) for x in result.z])
    print("  intersection dim = %d" % result.intersection_dim)
    print("  levi dim = %d, algebra dim = %d"
          % (result.levi_basis.dim, result.phi.source_dim))
    return 0


def _read_sc(path):
    """(algebra, Levi subspace) from a structure-constant file.  Every
    check runs before anything is computed, so a malformed file raises
    ValueError: the schema, indices, rationals, Levi rows (JSON arrays
    of length dim) and the Jacobi identity."""
    with open(path) as fh:
        data = json.load(fh)
    try:
        g = from_json_dict(data["algebra"])
        rows = data["levi_basis"]
    except (KeyError, TypeError) as exc:
        raise ValueError("the file needs 'algebra' and 'levi_basis': %s"
                         % exc) from None
    # a string or an object row would iterate its characters or keys
    if not (isinstance(rows, list) and all(isinstance(r, list) for r in rows)):
        raise ValueError("'levi_basis' must be a list of JSON arrays")
    levi = [[rational(x) for x in row] for row in rows]
    if any(len(row) != g.dim for row in levi):
        raise ValueError("every levi_basis row needs %d entries" % g.dim)
    if not check_jacobi(g):
        raise ValueError("the structure constants violate the Jacobi identity")
    return g, Subspace(g, levi)


def cmd_certify(args):
    if args.sc and args.algebra is None:
        g, levi = _read_sc(args.sc)
        result = certify_disemisimple(g, levi, mode=_mode_from_args(args))
        return _print_certificate(result, args.json)
    if args.sc or args.algebra is None or args.module is None:
        print("certify needs ALGEBRA and MODULE, or --sc FILE alone",
              file=sys.stderr)
        return 2
    spec = parse_algebra(args.algebra)
    ast = parse_module(args.module, spec)
    # V is the radical of s |x V, so the dimensions can refuse it before
    # it is built, as in cmd_prehom
    cert = dimension_verdict(module_dim(ast, spec), spec.dim)
    if cert is not None and not cert:
        return _print_certificate(
            Refusal(reason=RADICAL_NOT_PREHOMOGENEOUS, inner=cert), args.json)
    rep = to_representation(ast, spec)
    from .liealg import semidirect
    g = semidirect(spec.algebra(), rep)
    result = certify_disemisimple(g, mode=_mode_from_args(args))
    return _print_certificate(result, args.json)


def cmd_decompose(args):
    spec = parse_algebra(args.algebra)
    rep = to_representation(parse_module(args.module, spec), spec)
    desc = decompose(rep)
    if args.json:
        print(json.dumps({"descriptor": str(desc),
                          "pretty": pretty_descriptor(desc),
                          "dim": rep.dim}, separators=(",", ":")))
    else:
        print("%s   [%s], dim %d" % (desc, pretty_descriptor(desc), rep.dim))
    return 0


def cmd_dim(args):
    spec = parse_algebra(args.algebra)
    dim = module_dim(parse_module(args.module, spec), spec)
    if args.json:
        print(json.dumps({"dim": dim, "algebra_dim": spec.dim},
                         separators=(",", ":")))
    else:
        print(dim)
    return 0


def cmd_table(args):
    from .classify import sk_reduced_table, vinberg_table
    if args.type.upper() == "SK":
        rows = sk_reduced_table()
        if args.json:
            print(json.dumps([{
                "name": r.name, "algebra": r.algebra_pattern,
                "module": r.module_pattern, "dim": r.dim_formula,
                "conditions": r.conditions, "notes": r.notes,
            } for r in rows], separators=(",", ":")))
        else:
            for r in rows:
                note = ("   ! " + r.notes) if r.notes else ""
                print("%-18s %-12s %-15s dim %-10s [%s]%s"
                      % (r.name, r.algebra_pattern, r.module_pattern,
                         r.dim_formula, r.conditions, note))
        return 0
    t = _parse_type(args.type)
    table = vinberg_table(t)
    spec = SemisimpleSpec((t,))
    if args.json:
        print(json.dumps({"type": str(t),
                          "modules": [str(d) for d in table]},
                         separators=(",", ":")))
    else:
        if not table:
            print("only the zero module is prehomogeneous for %s" % t)
        for d in table:
            print("%-28s [%s], dim %d"
                  % (d, pretty_descriptor(d), d.total_dim(spec)))
    return 0


def cmd_crosscheck(args):
    from .classify import cross_check_vinberg
    t = _parse_type(args.type)
    report = cross_check_vinberg(t, bound=args.bound, jobs=args.jobs)
    if args.json:
        print(report.to_json())
    else:
        print("type %s, bound %d: tested %d modules, %d prehomogeneous"
              % (report.simple_type, report.bound, report.tested_count,
                 len(report.positives)))
        for d in report.positives:
            print("  + %s" % d)
        if report.clean:
            print("diff against the classification table: empty")
        else:
            for d in report.missing:
                print("  MISSING from computation: %s" % d)
            for d in report.extra:
                print("  EXTRA not in table: %s" % d)
    return 0 if report.clean else 1


def cmd_search12(args):
    from .classify import search_type12
    t = _parse_type(args.type)
    hits = search_type12(t, dim_bound=args.bound, jobs=args.jobs)
    if args.json:
        print(json.dumps({"type": str(t),
                          "hits": [str(h) for h in hits]},
                         separators=(",", ":")))
    else:
        if hits:
            for h in hits:
                print("prehomogeneous candidate: %s" % h)
        else:
            print("no type 1 or type 2 prehomogeneous modules found for %s" % t)
    return 1 if hits else 0


def _label_from_expr(text, spec):
    ast = parse_module(text, spec)
    if not isinstance(ast, Irr):
        raise ModuleParseError("expected a single irreducible label", 0)
    return ast.blocks


def cmd_construct(args):
    from .classify import construct_type1, construct_type2
    spec = parse_algebra(args.algebra)
    labels = [_label_from_expr(x, spec) for x in args.labels]
    if args.kind == "type1":
        if len(labels) != 2:
            print("type1 needs exactly two labels", file=sys.stderr)
            return 2
        g = construct_type1(spec, *labels)
    else:
        if len(labels) != 3:
            print("type2 needs exactly three labels", file=sys.stderr)
            return 2
        g = construct_type2(spec, *labels)
    # the constructors check that the radical decomposes as exactly this
    rad = ModuleDescriptor(labels)
    result = certify_disemisimple(g, mode=_mode_from_args(args))
    certified = isinstance(result, DecompositionCertificate)
    if args.json:
        out = {"dim": g.dim, "radical": str(rad),
               "certificate": result.to_json_dict()}
        print(json.dumps(out, separators=(",", ":")))
    else:
        print("constructed algebra of dim %d, radical %s (nilpotency class 2)"
              % (g.dim, rad))
        if certified:
            print("certified disemisimple (unexpected for these candidates)")
        else:
            print("certify_disemisimple refused: %s" % result.reason)
    return 0


def build_parser():
    p = argparse.ArgumentParser(
        prog="disemi",
        description="exact prehomogeneity tests and semisimple-sum "
                    "certificates for modules over classical Lie algebras")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, module=True):
        if module:
            sp.add_argument("algebra", help="algebra spec, e.g. A1xA2")
            sp.add_argument("module", help="module expression, e.g. 'L(1)#L(0,1)'")
        sp.add_argument("--json", action="store_true", help="JSON output")

    def modeflags(sp):
        sp.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="seed for the randomized witness search")
        sp.add_argument("--trials", type=_int_at_least(0), default=DEFAULT_TRIALS,
                        help="number of randomized trials before escalation")
        sp.add_argument("--exact", action="store_true",
                        help="skip the randomized phase; certified mode only")

    def enumflags(sp):
        sp.add_argument("type")
        sp.add_argument("--bound", type=_int_at_least(0), default=None,
                        help="dimension bound override (default: dim(s)-1)")
        sp.add_argument("--jobs", type=_int_at_least(1), default=1,
                        help="parallel worker processes")
        sp.add_argument("--json", action="store_true")

    sp = sub.add_parser("prehom", help="decide prehomogeneity")
    common(sp)
    modeflags(sp)
    sp.set_defaults(func=cmd_prehom)

    sp = sub.add_parser("certify",
                        help="certify s |x V (or --sc FILE) as a sum of two "
                             "semisimple subalgebras")
    sp.add_argument("algebra", nargs="?", help="algebra spec")
    sp.add_argument("module", nargs="?", help="module expression")
    sp.add_argument("--sc", metavar="FILE",
                    help="JSON file with raw structure constants and an "
                         "explicit Levi basis")
    sp.add_argument("--json", action="store_true")
    modeflags(sp)
    sp.set_defaults(func=cmd_certify)

    sp = sub.add_parser("decompose", help="decompose into irreducibles")
    common(sp)
    sp.set_defaults(func=cmd_decompose)

    sp = sub.add_parser("dim", help="dimension of a module expression")
    common(sp)
    sp.set_defaults(func=cmd_dim)

    sp = sub.add_parser("table",
                        help="classification table for a simple type, or SK "
                             "for the castling-reduced triples")
    sp.add_argument("type", help="simple type such as A2, or SK")
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=cmd_table)

    sp = sub.add_parser("crosscheck",
                        help="exhaustive enumeration check of the table")
    enumflags(sp)
    sp.set_defaults(func=cmd_crosscheck)

    sp = sub.add_parser("search12",
                        help="search for prehomogeneous type-1/2 modules")
    enumflags(sp)
    sp.set_defaults(func=cmd_search12)

    sp = sub.add_parser("construct",
                        help="build the 2-step nilpotent radical quotient "
                             "for a type-1/2 candidate and try to certify it")
    sp.add_argument("kind", choices=["type1", "type2"])
    sp.add_argument("algebra")
    sp.add_argument("labels", nargs="+", help="irreducible labels, e.g. L(1,0)")
    sp.add_argument("--json", action="store_true")
    modeflags(sp)
    sp.set_defaults(func=cmd_construct)

    return p


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    try:
        code = args.func(args)
        sys.stdout.flush()      # a closed pipe raises here, not at exit
        return code
    except BrokenPipeError:
        # no input error; the interpreter's final flush goes to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except ModuleParseError as exc:
        print("parse error: %s" % exc, file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except AssertionError as exc:
        print("internal error: %s" % exc, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
