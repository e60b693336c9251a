import contextlib
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from disemi.cli import main
from disemi.liealg import (LieAlgebra, chevalley, direct_sum, semidirect,
                           to_json_dict)
from disemi.modexpr import parse_algebra, parse_module, to_representation
from disemi.repbuilder import natural
from disemi.rootdata import SimpleType


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestPrehomCommand:
    def test_worked_example(self, capsys):
        code, out, _ = run(capsys, "prehom", "A1xA2", "L(1)#L(0,1)")
        assert code == 0
        assert "prehomogeneous" in out and "witness" in out

    def test_negative(self, capsys):
        code, out, _ = run(capsys, "prehom", "A1xA1", "L(1)#L(1)")
        assert code == 1
        assert "not prehomogeneous" in out

    def test_trivial_reason(self, capsys):
        code, out, _ = run(capsys, "prehom", "A1", "triv")
        assert code == 1
        assert "trivial_summand" in out

    def test_json_schema(self, capsys):
        code, out, _ = run(capsys, "prehom", "A1xA2", "L(1)#L(0,1)", "--json")
        assert code == 0
        data = json.loads(out)
        assert data["verdict"] == "prehomogeneous"
        assert data["rank"] == 6
        assert all(isinstance(x, str) for x in data["witness"])

    def test_seed_byte_determinism(self, capsys):
        outs = []
        for _ in range(2):
            code, out, _ = run(capsys, "prehom", "A2", "2L(1,0)", "--json",
                               "--seed", "99")
            assert code == 0
            outs.append(out)
        assert outs[0] == outs[1]
        data = json.loads(outs[0])
        assert data["seed"] == 99

    def test_exact_flag(self, capsys):
        code, out, _ = run(capsys, "prehom", "A1", "L(1)", "--exact", "--json")
        assert code == 0
        assert json.loads(out)["mode"] == "symbolic"

    @pytest.mark.parametrize("algebra,module", [
        ("A10", "L(0,0,0,1,0,0,0,0,0,0)"),    # 330 > 120, too big to build
        ("A1", "L(1000)"),
    ])
    def test_dimension_bound_before_building(self, capsys, algebra, module):
        code, out, err = run(capsys, "prehom", algebra, module)
        assert code == 1
        assert out.strip() == "not prehomogeneous: dimension_bound"
        assert err == ""

    def test_parse_error_exit_2(self, capsys):
        code, _, err = run(capsys, "prehom", "D2", "nat")
        assert code == 2
        assert "parse error" in err


class TestCertifyCommand:
    def test_sl2_natural(self, capsys):
        code, out, _ = run(capsys, "certify", "A1", "nat")
        assert code == 0
        assert "intersection dim = 1" in out

    def test_refusal_exit_1(self, capsys):
        code, out, _ = run(capsys, "certify", "A1", "L(2)")
        assert code == 1
        assert "refused" in out

    def test_json_roundtrip(self, capsys):
        code, out, _ = run(capsys, "certify", "A1", "nat", "--json")
        assert code == 0
        data = json.loads(out)
        assert data["refused"] is False
        assert data["intersection_dim"] == 1
        assert len(data["z"]) == 5

    def test_exact_mode(self, capsys):
        code, out, _ = run(capsys, "certify", "A1", "nat", "--exact", "--json")
        assert code == 0
        data = json.loads(out)
        assert data["radical_certificate"]["mode"] == "symbolic"

    def test_structure_constant_file(self, capsys, tmp_path):
        g = semidirect(chevalley(SimpleType("A", 1)), natural(SimpleType("A", 1)))
        payload = {
            "algebra": to_json_dict(g),
            "levi_basis": [["1", "0", "0", "0", "0"],
                           ["0", "1", "0", "0", "0"],
                           ["0", "0", "1", "0", "0"]],
        }
        path = tmp_path / "alg.json"
        path.write_text(json.dumps(payload))
        code, out, _ = run(capsys, "certify", "--sc", str(path))
        assert code == 0
        assert "intersection dim = 1" in out

    @pytest.mark.parametrize("change", [
        # schema: no Levi basis, no algebra, a dim that is not an integer
        lambda d: d.pop("levi_basis"),
        lambda d: d.pop("algebra"),
        lambda d: d["algebra"].update(dim="5"),
        # a bracket index k >= dim, and an entry with i >= j
        lambda d: d["algebra"]["entries"][0][2].append([5, "1"]),
        lambda d: d["algebra"]["entries"].append([4, 1, [[3, "1"]]]),
        # rationals that do not parse
        lambda d: d["algebra"]["entries"][0][2].append([3, "1/0"]),
        lambda d: d["levi_basis"][0].__setitem__(0, "one"),
        # a Levi row of the wrong length
        lambda d: d["levi_basis"][1].pop(),
        # sl2 plus a line on which h and e both act by 1: not Jacobi
        lambda d: d.update(algebra={"dim": 4, "entries": [
            [0, 1, [[1, "2"]]], [0, 2, [[2, "-2"]]], [1, 2, [[0, "1"]]],
            [0, 3, [[3, "1"]]], [1, 3, [[3, "1"]]]]},
            levi_basis=[["1", "0", "0", "0"], ["0", "1", "0", "0"],
                        ["0", "0", "1", "0"]]),
        # Levi rows as strings, and as an object whose keys read as e_0
        lambda d: d.update(levi_basis=["10000", "01000", "00100"]),
        lambda d: d["levi_basis"].__setitem__(
            0, dict.fromkeys(["1", "0", "00", "000", "0000"], "1")),
        # [b0, b1] = 2 b1 given twice, and [b0, b2] = -2 b2 naming b2
        # twice; the last copy is the true one, so keeping it would pass
        # every other check
        lambda d: d["algebra"]["entries"].insert(0, [0, 1, [[1, "5"]]]),
        lambda d: d["algebra"]["entries"][1][2].insert(0, [2, "7"]),
    ], ids=["no-levi", "no-algebra", "dim-string", "index-range", "i-not-below-j",
            "bad-rational", "bad-levi-rational", "levi-row-length", "jacobi",
            "levi-strings", "levi-object", "repeated-pair", "repeated-k"])
    def test_malformed_structure_constant_file(self, capsys, tmp_path, change):
        g = semidirect(chevalley(SimpleType("A", 1)), natural(SimpleType("A", 1)))
        payload = {
            "algebra": to_json_dict(g),
            "levi_basis": [["1", "0", "0", "0", "0"],
                           ["0", "1", "0", "0", "0"],
                           ["0", "0", "1", "0", "0"]],
        }
        change(payload)
        path = tmp_path / "alg.json"
        path.write_text(json.dumps(payload))
        code, out, err = run(capsys, "certify", "--sc", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "Traceback" not in err

    @pytest.mark.parametrize("algebra", [
        {"dim": 2, "entries": []},
        {"dim": 3, "entries": [[0, 1, [[2, 1]]]]},       # Heisenberg
    ], ids=["abelian", "heisenberg"])
    @pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
    def test_zero_levi_refused_by_dimension(self, capsys, tmp_path, algebra,
                                            as_json):
        # the radical is the whole algebra and no Levi acts on it
        path = tmp_path / "alg.json"
        path.write_text(json.dumps({"algebra": algebra, "levi_basis": []}))
        code, out, err = run(capsys, "certify", "--sc", str(path),
                             *(["--json"] if as_json else []))
        assert code == 1 and err == ""
        if as_json:
            assert json.loads(out) == {
                "refused": True, "reason": "radical_not_prehomogeneous",
                "radical_certificate": {"verdict": "not_prehomogeneous",
                                        "reason": "dimension_bound",
                                        "mode": "fast_path"}}
        else:
            assert out == ("refused: radical_not_prehomogeneous "
                           "(dimension_bound)\n")

    @pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
    def test_radical_not_nilpotent_refused(self, capsys, tmp_path, as_json):
        # sl2 + r2 with [x, y] = y: a solvable radical that is not
        # nilpotent
        r2 = LieAlgebra(2, {(0, 1): {1: 1}})
        g = direct_sum([chevalley(SimpleType("A", 1)), r2])
        path = tmp_path / "alg.json"
        path.write_text(json.dumps(sc_payload(g, 3)))
        out = ('{"refused":true,"reason":"radical_not_nilpotent"}\n'
               if as_json else "refused: radical_not_nilpotent\n")
        assert run(capsys, "certify", "--sc", str(path),
                   *(["--json"] if as_json else [])) == (1, out, "")

    @pytest.mark.parametrize("argv", [(), ("A1",)])
    def test_missing_module_is_usage_error(self, capsys, argv):
        code, out, err = run(capsys, "certify", *argv)
        assert code == 2
        assert out == ""
        assert "needs ALGEBRA and MODULE" in err

    @pytest.mark.parametrize("argv", [("A1", "nat"), ("A1",)])
    def test_module_and_structure_constant_file_is_usage_error(
            self, capsys, tmp_path, argv):
        # one of the two would be ignored; the file alone certifies
        g = semidirect(chevalley(SimpleType("A", 1)), natural(SimpleType("A", 1)))
        path = tmp_path / "alg.json"
        path.write_text(json.dumps({
            "algebra": to_json_dict(g),
            "levi_basis": [["1", "0", "0", "0", "0"],
                           ["0", "1", "0", "0", "0"],
                           ["0", "0", "1", "0", "0"]]}))
        code, out, err = run(capsys, "certify", *argv, "--sc", str(path))
        assert code == 2 and out == ""
        assert "needs ALGEBRA and MODULE, or --sc FILE alone" in err
        assert run(capsys, "certify", "--sc", str(path))[0] == 0


class TestOtherCommands:
    def test_decompose(self, capsys):
        code, out, _ = run(capsys, "decompose", "A2", "nat*nat")
        assert code == 0
        assert "L(0,1) + L(2,0)" in out

    def test_dim(self, capsys):
        code, out, _ = run(capsys, "dim", "A4", "wedge2(nat)")
        assert code == 0
        assert out.strip() == "10"

    def test_dim_of_a_module_too_big_to_build(self, capsys):
        code, out, _ = run(capsys, "dim", "A10", "L(0,0,0,1,0,0,0,0,0,0)")
        assert code == 0
        assert out.strip() == "330"

    def test_table(self, capsys):
        code, out, _ = run(capsys, "table", "A2", "--json")
        assert code == 0
        data = json.loads(out)
        assert set(data["modules"]) == {"L(1,0)", "L(0,1)", "2L(1,0)",
                                        "2L(0,1)"}

    def test_table_empty_type(self, capsys):
        code, out, _ = run(capsys, "table", "B3")
        assert code == 0
        assert "only the zero module" in out

    def test_table_sk(self, capsys):
        code, out, _ = run(capsys, "table", "SK", "--json")
        assert code == 0
        assert len(json.loads(out)) == 6

    def test_crosscheck_json(self, capsys):
        code, out, _ = run(capsys, "crosscheck", "A2", "--json")
        assert code == 0
        data = json.loads(out)
        assert data["diff"] == {"missing": [], "extra": []}
        assert data["tested_count"] == 7

    def test_crosscheck_jobs(self, capsys):
        code1, out1, _ = run(capsys, "crosscheck", "A2", "--json")
        code2, out2, _ = run(capsys, "crosscheck", "A2", "--json", "--jobs", "2")
        assert code1 == code2 == 0
        assert out1 == out2

    def test_search12(self, capsys):
        code, out, _ = run(capsys, "search12", "A2")
        assert code == 0
        assert "no type 1 or type 2" in out

    @pytest.mark.parametrize("command", ["search12", "crosscheck"])
    def test_type_outside_the_bound_table_needs_bound(self, capsys, command):
        code, out, err = run(capsys, command, "B4")
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "explicit bound" in err

    @pytest.mark.parametrize("argv", [
        ("crosscheck", "A2", "--bound", "-1"),
        ("search12", "A2", "--bound", "-3"),
        ("prehom", "A1", "L(1)", "--trials", "-2"),
        ("certify", "A1", "L(1)", "--trials", "-1"),
        ("construct", "type1", "A2", "L(1,0)", "L(0,1)", "--trials", "-1"),
        ("crosscheck", "A2", "--jobs", "0"),
        ("search12", "A2", "--jobs", "-1"),
    ])
    def test_out_of_range_count_is_usage_error(self, capsys, argv):
        # each was read silently: an empty enumeration reported clean,
        # no randomized trials, or a serial run
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert "is below" in err and "Traceback" not in err

    def test_lowest_counts_accepted(self, capsys):
        code, out, _ = run(capsys, "crosscheck", "A2", "--bound", "0",
                           "--jobs", "1")
        assert code == 0 and "tested 0 modules" in out
        code, out, _ = run(capsys, "prehom", "A1", "L(1)", "--trials", "0")
        assert code == 0 and "prehomogeneous" in out

    def test_construct(self, capsys):
        code, out, _ = run(capsys, "construct", "type1", "A2", "L(1,0)",
                           "L(0,1)")
        assert code == 0
        assert "dim 14" in out and "refused" in out

    def test_construct_wrong_arity(self, capsys):
        code, _, err = run(capsys, "construct", "type1", "A2", "L(1,0)")
        assert code == 2

    def test_usage_error(self, capsys):
        code, _, _ = run(capsys, "nonsense")
        assert code == 2

    @pytest.mark.parametrize("argv", [("decompose", "A1", "L(1000)"),
                                      ("certify", "A1", "L(129)")])
    def test_label_above_size_limit(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert "Traceback" not in err
        if argv[0] == "certify":
            # dim V = 130 > 3 refuses V before its label is realised, as
            # prehom decides it
            assert (code, out, err) == (
                1, "refused: radical_not_prehomogeneous (dimension_bound)\n",
                "")
            return
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "limit" in err


HUGE = "sym2(sym2(sym2(L(10))))"       # dimension 2,445,366 over A1


def refuse_to_build(monkeypatch):
    """Make building a module from an expression fail in cli."""
    import disemi.cli

    def build(*args):
        raise AssertionError("a module was built")
    monkeypatch.setattr(disemi.cli, "to_representation", build)


class TestBuildNothing:
    @pytest.mark.parametrize("module", ["L(3)", HUGE])
    def test_certify_refuses_by_dimension(self, capsys, monkeypatch, module):
        # V is the radical of sl2 |x V; dim V > 3 refuses it unbuilt, with
        # the parent's bytes for L(3)
        refuse_to_build(monkeypatch)
        code, out, err = run(capsys, "certify", "A1", module)
        assert (code, out, err) == (
            1, "refused: radical_not_prehomogeneous (dimension_bound)\n", "")
        code, out, err = run(capsys, "certify", "A1", module, "--json")
        assert (code, err) == (1, "")
        assert out == (
            '{"refused":true,"reason":"radical_not_prehomogeneous",'
            '"radical_certificate":{"verdict":"not_prehomogeneous",'
            '"reason":"dimension_bound","mode":"fast_path"}}\n')

    def test_decompose_refuses_a_huge_module(self, capsys, monkeypatch):
        import disemi.modexpr
        for name in ("realize_label", "sym2"):
            monkeypatch.setattr(disemi.modexpr, name, None)
        code, out, err = run(capsys, "decompose", "A1", HUGE)
        assert (code, out) == (2, "")
        assert err.startswith("error: module of dimension 2445366") \
            and "limit" in err


ALGEBRA_TOKENS = ["A1", "A2", "C2", "B2", "C3", "D4", "A1xA2", "A0", "E6",
                  "SK", "x", ""]
MALFORMED_MODULES = ["L(", "L(1,", "+", "#", "L(1)#", "nat nat", "wedge2(",
                     "2", "L(-1)", "L(1))"]
MODULE_TOKENS = ["L(1)", "L(0,1)", "L(1)#L(0,1)", "nat", "triv",
                 "wedge2(nat)", "sym2(L(2))", "dual(nat)", "2L(1)",
                 "L(1000)", "L(1)*nat"] + MALFORMED_MODULES
FLAG_TOKENS = ["--json", "--bogus", "--seed", "-h"]


def _argv(command, tokens):
    return st.lists(st.sampled_from(tokens), max_size=4).map(
        lambda rest: [command] + rest)


class TestFuzz:
    # only cheap commands: tables, dimensions read off the expression,
    # and prehom on input that never reaches the engine
    @given(_argv("table", ALGEBRA_TOKENS + MODULE_TOKENS + FLAG_TOKENS)
           | _argv("dim", ALGEBRA_TOKENS + MODULE_TOKENS + FLAG_TOKENS)
           | _argv("prehom", ALGEBRA_TOKENS + MALFORMED_MODULES + FLAG_TOKENS))
    @settings(max_examples=300, deadline=None)
    def test_token_argv_exits_cleanly(self, argv):
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 1, 2), argv
        assert "Traceback" not in err.getvalue(), argv


class TestExitCodes:
    def test_internal_error_exit_3(self, capsys, monkeypatch):
        import disemi.cli

        def broken(*args, **kwargs):
            raise AssertionError("witness failed independent rank validation")
        monkeypatch.setattr(disemi.cli, "is_prehomogeneous", broken)
        code, out, err = run(capsys, "prehom", "A1", "L(1)")
        assert code == 3
        assert out == ""
        assert err.startswith("internal error: witness failed")

    @pytest.mark.parametrize("buffered", [False, True],
                             ids=["unbuffered", "buffered"])
    @pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
    def test_reader_closing_the_pipe_exits_141_quietly(self, as_json,
                                                       buffered):
        # as in `disemi certify ... | head`: a reader that is gone is no
        # input error, so nothing goes to stderr and the exit code is
        # the one a shell reports for a writer ended by SIGPIPE
        env = dict(os.environ, PYTHONPATH=str(
            Path(__file__).resolve().parent.parent / "src"))
        env.pop("PYTHONUNBUFFERED", None)
        if not buffered:
            env["PYTHONUNBUFFERED"] = "1"
        read, write = os.pipe()
        os.close(read)          # before the child writes anything
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "disemi.cli", "certify", "A1", "nat",
                 *(["--json"] if as_json else [])],
                stdout=write, stderr=subprocess.PIPE, env=env, text=True,
                timeout=300)
        finally:
            os.close(write)
        assert (proc.returncode, proc.stderr) == (141, "")


class TestGoldenOutput:
    """Frozen byte-level outputs; any drift in serialisation is a break."""

    def test_prehom_json_golden(self, capsys):
        code, out, _ = run(capsys, "prehom", "A1", "L(1)", "--json",
                           "--seed", "7")
        assert code == 0
        assert out.strip() == (
            '{"verdict":"prehomogeneous","witness":["0","-6"],"rank":2,'
            '"mode":"randomized","seed":7,"trials_used":1}')

    def test_crosscheck_json_golden(self, capsys):
        code, out, _ = run(capsys, "crosscheck", "C2", "--json")
        assert code == 0
        assert out.strip() == (
            '{"type":"C2","bound":9,"tested_count":4,"positives":["L(1,0)"],'
            '"table":["L(1,0)"],"diff":{"missing":[],"extra":[]}}')

    def test_certify_json_golden(self, capsys):
        code, out, _ = run(capsys, "certify", "A1", "nat", "--json")
        assert code == 0
        assert out == (
            '{"refused":false,"levi_basis":[["1","0","0","0","0"],'
            '["0","1","0","0","0"],["0","0","1","0","0"]],'
            '"z":["0","0","0","-10","9"],'
            '"phi":[["1","0","0","0","0"],["0","1","0","0","0"],'
            '["0","0","1","0","0"],["10","-9","0","1","0"],'
            '["9","0","10","0","1"]],'
            '"s2_basis":[["1","0","0","10","9"],["0","1","0","-9","0"],'
            '["0","0","1","0","10"]],"intersection_dim":1,'
            '"radical_certificate":{"verdict":"prehomogeneous",'
            '"witness":["10","-9"],"rank":2,"mode":"randomized",'
            '"seed":1729,"trials_used":1}}\n')

    def test_construct_json_golden(self, capsys):
        code, out, _ = run(capsys, "construct", "type1", "A2", "L(1,0)",
                           "L(0,1)", "--json")
        assert code == 0
        assert out == (
            '{"dim":14,"radical":"L(0,1) + L(1,0)","certificate":'
            '{"refused":true,"reason":"radical_not_prehomogeneous",'
            '"radical_certificate":{"verdict":"not_prehomogeneous",'
            '"reason":"symbolic_rank_deficit","generic_rank":5,'
            '"mode":"symbolic"}}}\n')


def sc_payload(g, levi_dim, scales=None):
    """A --sc payload for g with the leading levi_dim unit rows as its
    Levi; scales rescales the basis to scales[i] b_i, which turns the
    constants c of [b_i, b_j] at b_k into c s_i s_j / s_k."""
    data = to_json_dict(g)
    if scales is not None:
        for entry in data["entries"]:
            i, j, row = entry
            entry[2] = [[k, str(Fraction(c) * scales[i] * scales[j]
                                / scales[k])] for k, c in row]
    rows = [["1" if c == r else "0" for c in range(g.dim)]
            for r in range(levi_dim)]
    return {"algebra": data, "levi_basis": rows}


def sl2_natural_rescaled():
    a1 = SimpleType("A", 1)
    return sc_payload(semidirect(chevalley(a1), natural(a1)), 3,
                      [Fraction(1, 3), 2, Fraction(-1, 2), Fraction(3, 4), 5])


def sl3_sym2():
    spec = parse_algebra("A2")
    rep = to_representation(parse_module("L(2,0)", spec), spec)
    return sc_payload(semidirect(spec.algebra(), rep), 8)


SL3_SYM2_REFUSAL = (
    '{"refused":true,"reason":"radical_not_prehomogeneous",'
    '"radical_certificate":{"verdict":"not_prehomogeneous",'
    '"reason":"symbolic_rank_deficit","generic_rank":5,"mode":"symbolic"}}\n')


class TestNonIntegralCertifyGolden:
    """Certify on algebras whose structure constants are not all
    integers: frozen byte-level outputs."""

    def test_sl3_sym2(self, capsys):
        # the Sym^2 action of sl3 has entries 1/2, so the table does too
        assert run(capsys, "certify", "A2", "L(2,0)", "--json") == (
            1, SL3_SYM2_REFUSAL, "")

    def test_sp6_wedge2(self, capsys):
        assert run(capsys, "certify", "C3", "L(0,1,0)", "--json") == (
            1, '{"refused":true,"reason":"radical_not_prehomogeneous",'
            '"radical_certificate":{"verdict":"not_prehomogeneous",'
            '"reason":"symbolic_rank_deficit","generic_rank":12,'
            '"mode":"symbolic"}}\n', "")

    def test_sl3_sym2_structure_constant_file(self, capsys, tmp_path):
        payload = sl3_sym2()
        assert any("/" in c for _, _, row in payload["algebra"]["entries"]
                   for _, c in row)
        path = tmp_path / "alg.json"
        path.write_text(json.dumps(payload))
        assert run(capsys, "certify", "--sc", str(path), "--json") == (
            1, SL3_SYM2_REFUSAL, "")

    def test_rescaled_sl2_natural_structure_constant_file(self, capsys,
                                                          tmp_path):
        # a Yes whose automorphism phi has non-integral entries
        payload = sl2_natural_rescaled()
        assert any("/" in c for _, _, row in payload["algebra"]["entries"]
                   for _, c in row)
        path = tmp_path / "alg.json"
        path.write_text(json.dumps(payload))
        assert run(capsys, "certify", "--sc", str(path), "--json") == (
            0, '{"refused":false,"levi_basis":[["1","0","0","0","0"],'
            '["0","1","0","0","0"],["0","0","1","0","0"]],'
            '"z":["0","0","0","-10","9"],'
            '"phi":[["1","0","0","0","0"],["0","1","0","0","0"],'
            '["0","0","1","0","0"],["10/3","-120","0","1","0"],'
            '["3","0","-3/4","0","1"]],'
            '"s2_basis":[["1","0","0","10/3","3"],["0","1","0","-120","0"],'
            '["0","0","1","0","-3/4"]],"intersection_dim":1,'
            '"radical_certificate":{"verdict":"prehomogeneous",'
            '"witness":["10","-9"],"rank":2,"mode":"randomized",'
            '"seed":1729,"trials_used":1}}\n', "")
