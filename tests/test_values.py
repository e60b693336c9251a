"""Value semantics of disemi's record classes: construction, equality,
hashing, immutability and repr.

tests/golden/value_classes.json was captured from the dataclass-based
implementation these classes had before: per class its fields, whether
it is frozen, the repr of the instance `instances()` builds, and for a
frozen class whether hash(x) == hash(tuple of fields).  Set and dict
orders of frozen values follow their hashes, and with them witness
order and output, so the hashes are pinned exactly.
"""

import json
import pickle
from fractions import Fraction
from pathlib import Path

import pytest

from disemi import classify, modexpr, prehom, rootdata
from disemi.liealg import LinearMap, Subspace, chevalley
from disemi.modexpr import Dual, Irr, Sym2, Wedge2
from disemi.prehom import PrehomCertificate, Randomized, Refusal
from disemi.repbuilder import ModuleDescriptor, SemisimpleSpec
from disemi.rootdata import DominantWeight, SimpleType

GOLDEN = json.loads(
    (Path(__file__).parent / "golden" / "value_classes.json").read_text())

A1 = SimpleType("A", 1)
A2 = SimpleType("A", 2)


def instances():
    """One instance of every record class, keyed "module.Class"."""
    g = chevalley(A1)
    levi = Subspace(g, [[1, 0, 0], [0, 1, 0]])
    phi = LinearMap(3, 3, [{0: 1}, {1: Fraction(1, 2)}, {0: -1, 2: 1}])
    cert = PrehomCertificate("prehomogeneous", witness=[1, Fraction(1, 2)],
                             rank=2, mode="randomized", seed=1, trials_used=1)
    irr = Irr(((1, 0),))
    desc = ModuleDescriptor([(((1, 0),), 2)])
    sk_row = classify.sk_reduced_table()[2]
    return {
        "rootdata.SimpleType": A2,
        "rootdata.DominantWeight": DominantWeight((1, 0)),
        "rootdata.RootSystem": rootdata.root_system(A2),
        "liealg.LinearMap": phi,
        "repbuilder.SemisimpleSpec": SemisimpleSpec((A1, A2)),
        "modexpr.Irr": irr,
        "modexpr.Tensor": modexpr.Tensor((irr, Dual(irr))),
        "modexpr.DirectSum": modexpr.DirectSum((irr, modexpr.Trivial())),
        "modexpr.Wedge2": Wedge2(irr),
        "modexpr.Sym2": Sym2(modexpr.Natural()),
        "modexpr.Dual": Dual(irr),
        "modexpr.Trivial": modexpr.Trivial(),
        "modexpr.Natural": modexpr.Natural(),
        "prehom.Randomized": Randomized(seed=3),
        "prehom.Symbolic": prehom.Symbolic(),
        "prehom.EvaluationMatrix": prehom.EvaluationMatrix([[1, 0]], [1, 0]),
        "prehom.PrehomCertificate": cert,
        "prehom.Refusal": Refusal("radical_not_prehomogeneous", inner=cert),
        "prehom.DecompositionCertificate": prehom.DecompositionCertificate(
            levi, [0, 1, 0], phi, levi, 2, prehom=cert),
        "classify.VinbergEntry": classify.VINBERG_ENTRIES[0],
        "classify.SKTriple": sk_row.instantiate(m=2),
        "classify.SKRow": sk_row,
        "classify.Report": classify.Report(A2, 7, 3, [desc], [desc], [], []),
        "classify.TypedModuleCandidate": classify.TypedModuleCandidate(
            "type1", (((1, 0),), ((0, 1),))),
    }


def fields(x):
    return tuple(getattr(x, f) for f in GOLDEN[_key(x)]["fields"])


def _key(x):
    return "%s.%s" % (type(x).__module__.rsplit(".", 1)[1],
                      type(x).__qualname__)


def test_every_record_class_is_covered():
    assert set(instances()) == set(GOLDEN)
    for name, x in instances().items():
        assert _key(x) == name


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_repr_and_hash_as_captured(name):
    x = instances()[name]
    want = GOLDEN[name]
    assert repr(x) == want["repr"]
    if want["frozen"]:
        assert want["hash_is_field_tuple"] and hash(x) == hash(fields(x))
    else:
        with pytest.raises(TypeError):
            hash(x)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_equal_fields_make_equal_values(name):
    x = instances()[name]
    y = type(x)(*fields(x))
    assert x == y and not x != y
    assert type(x)(**dict(zip(GOLDEN[name]["fields"], fields(x)))) == x


@pytest.mark.parametrize("name", sorted(n for n in GOLDEN
                                        if GOLDEN[n]["frozen"]))
def test_frozen_values_refuse_assignment(name):
    x = instances()[name]
    for attr in GOLDEN[name]["fields"] + ["other"]:
        with pytest.raises(AttributeError):
            setattr(x, attr, None)
    if GOLDEN[name]["fields"]:
        with pytest.raises(AttributeError):
            delattr(x, GOLDEN[name]["fields"][0])


def test_mutable_values_accept_assignment():
    cert = PrehomCertificate("not_prehomogeneous")
    cert.reason = "dimension_bound"
    assert cert == PrehomCertificate("not_prehomogeneous", "dimension_bound")


def test_class_is_part_of_equality():
    irr = Irr(((1,),))
    assert Wedge2(irr) != Sym2(irr) and Sym2(irr) != Dual(irr)
    assert not Wedge2(irr) == Sym2(irr)
    assert modexpr.Trivial() != modexpr.Natural()
    assert len({Wedge2(irr), Sym2(irr), Dual(irr), Wedge2(irr)}) == 3
    assert PrehomCertificate("x") != Refusal("x")
    assert A2 != (A2.family, A2.rank)


def test_construction_by_position_keyword_and_default():
    assert Randomized() == Randomized(prehom.DEFAULT_SEED,
                                      prehom.DEFAULT_TRIALS)
    assert Randomized(5) == Randomized(seed=5) != Randomized(trials=5)
    assert Randomized(trials=5).seed == prehom.DEFAULT_SEED
    cert = PrehomCertificate("prehomogeneous", mode="fast_path")
    assert (cert.reason, cert.witness, cert.mode) == (None, None, "fast_path")
    assert Refusal(reason="r").inner is None
    row = classify.SKRow("n", "a", "m", "d", "c")
    assert row.notes == ""
    assert row == classify.SKRow("n", "a", "m", "d", "c", "")
    assert SimpleType(rank=2, family="A") == A2


@pytest.mark.parametrize("args, kwargs", [
    ((), {}),                           # missing a field
    (("A", 2, 3), {}),                  # too many positional
    (("A",), {"family": "A"}),          # a field twice, one missing
    (("A", 2), {"family": "B"}),        # a field twice
    (("A", 2), {"colour": 1}),          # not a field
    (("A",), {"colour": 1}),            # not a field, and one missing
])
def test_bad_arguments_raise_type_error(args, kwargs):
    with pytest.raises(TypeError):
        SimpleType(*args, **kwargs)


def test_post_init_checks_still_run():
    with pytest.raises(ValueError):
        SimpleType("E", 6)
    with pytest.raises(ValueError):
        SimpleType("A", 0)
    with pytest.raises(ValueError):
        DominantWeight((1, -1))
    assert DominantWeight([1, 0]).coords == (1, 0)
    with pytest.raises(ValueError):
        SemisimpleSpec(())
    assert SemisimpleSpec([A1]).factors == (A1,)
    with pytest.raises(ValueError):
        LinearMap(2, 2, [{0: 1}])


def test_class_defined_str_is_kept():
    assert str(A2) == "A2"
    assert str(DominantWeight((1, 0))) == "(1,0)"
    assert str(SemisimpleSpec((A1, A2))) == "A1xA2"
    assert str(classify.TypedModuleCandidate("type1", (((1,),), ((2,),)))) \
        == "type1(L(1), L(2))"


def test_values_survive_pickling():
    for name, x in instances().items():
        if name != "prehom.DecompositionCertificate":   # Subspace: identity
            assert pickle.loads(pickle.dumps(x)) == x, name
