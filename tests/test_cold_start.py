"""What a `disemi` command loads, seen from a fresh interpreter.

In-process tests share one sys.modules, where an earlier test has
already imported every module; a command that forgot a call-time import
would pass there.  These tests start `sys.executable` with the source
tree on PYTHONPATH instead.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

# every name disemi/__init__.py exported when it imported all submodules
# eagerly, by home module
EXPORTS = {
    "rootdata": ("SimpleType", "DominantWeight", "root_system", "weyl_dim",
                 "dual_weight"),
    "liealg": ("LieAlgebra", "Subspace", "LinearMap", "chevalley",
               "direct_sum", "exp_ad", "free_two_step", "is_nilpotent",
               "is_perfect", "is_semisimple", "killing_form",
               "quotient_by_ideal", "semidirect", "solvable_radical",
               "sum_spans"),
    "repbuilder": ("ModuleDescriptor", "Representation", "SemisimpleSpec",
                   "decompose", "dual", "embeds", "highest_weight_vectors",
                   "multiplicity", "natural", "outer_tensor", "realize",
                   "spec_of", "spin16_d5", "sym2", "tensor", "trivial",
                   "wedge2"),
    "prehom": ("DecompositionCertificate", "EvaluationMatrix",
               "PrehomCertificate", "Randomized", "Refusal", "Symbolic",
               "certify_disemisimple", "evaluation_matrix", "is_etale",
               "is_prehomogeneous"),
    "classify": ("SKTriple", "VinbergEntry", "castling_transform",
                 "construct_type1", "construct_type2", "cross_check_vinberg",
                 "enumerate_modules", "search_type12", "sk_reduced_table",
                 "a_free_structure", "vinberg_table"),
    "modexpr": ("parse_algebra", "parse_module", "print_module"),
}


def python(*args):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True, timeout=300)


def test_cli_import_loads_no_dataclasses_inspect_or_classify():
    proc = python("-c", "import sys, disemi.cli; print(' '.join(sorted("
                  "m for m in ('dataclasses', 'inspect', 'disemi.classify') "
                  "if m in sys.modules)))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == ""


@pytest.mark.parametrize("argv", [
    ["table", "A2"],
    ["table", "SK"],
    ["crosscheck", "A2", "--bound", "8"],
    ["search12", "A2", "--bound", "12"],
    ["construct", "type1", "A2", "L(1,0)", "L(0,1)"],
])
def test_classify_commands_run_from_a_cold_start(argv):
    proc = python("-m", "disemi.cli", *argv)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout and not proc.stderr


def test_package_names_resolve_to_their_modules():
    checks = "\n".join(
        "from disemi import %s as x\n"
        "assert x is importlib.import_module('disemi.%s').%s, %r"
        % (name, mod, name, name)
        for mod, names in EXPORTS.items() for name in names)
    proc = python("-c", "import importlib\n" + checks + "\n"
                  "import disemi\n"
                  "try:\n"
                  "    disemi.no_such_name\n"
                  "except AttributeError:\n"
                  "    print('ok')\n")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "ok\n"
