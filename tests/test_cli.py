import json

import pytest

from disemi.cli import main
from disemi.liealg import chevalley, semidirect, to_json_dict
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
    ], ids=["no-levi", "no-algebra", "dim-string", "index-range", "i-not-below-j",
            "bad-rational", "bad-levi-rational", "levi-row-length", "jacobi"])
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

    @pytest.mark.parametrize("argv", [(), ("A1",)])
    def test_missing_module_is_usage_error(self, capsys, argv):
        code, out, err = run(capsys, "certify", *argv)
        assert code == 2
        assert out == ""
        assert "needs ALGEBRA and MODULE" in err


class TestOtherCommands:
    def test_decompose(self, capsys):
        code, out, _ = run(capsys, "decompose", "A2", "nat*nat")
        assert code == 0
        assert "L(0,1) + L(2,0)" in out

    def test_dim(self, capsys):
        code, out, _ = run(capsys, "dim", "A4", "wedge2(nat)")
        assert code == 0
        assert out.strip() == "10"

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

    @pytest.mark.parametrize("argv", [("prehom", "A1", "L(1000)"),
                                      ("certify", "A1", "L(129)")])
    def test_label_above_size_limit(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "limit" in err
        assert "Traceback" not in err


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
