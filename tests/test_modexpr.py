import random

import pytest

import disemi.modexpr
from hypothesis import given, settings, strategies as st

from disemi.modexpr import (DirectSum, Dual, Irr, ModuleParseError, Natural,
                            Sym2, Tensor, Trivial, Wedge2, descriptor_to_ast,
                            module_dim, parse_algebra, parse_module,
                            pretty_descriptor, pretty_weight, print_module,
                            to_descriptor, to_representation)
from disemi.repbuilder import ModuleDescriptor, spec_of
from disemi.rootdata import SimpleType

A1 = SimpleType("A", 1)
A2 = SimpleType("A", 2)


class TestParseAlgebra:
    def test_product(self):
        spec = parse_algebra("A1xA2")
        assert [str(t) for t in spec.factors] == ["A1", "A2"]

    def test_single(self):
        assert str(parse_algebra("D5")) == "D5"

    def test_rank_error_position(self):
        with pytest.raises(ModuleParseError) as err:
            parse_algebra("D2")
        assert err.value.position == 0

    def test_error_inside_second_factor(self):
        with pytest.raises(ModuleParseError) as err:
            parse_algebra("A1xB1")
        assert err.value.position == 3

    def test_rubbish(self):
        for text, pos in [("Q5", 0), ("A", 1), ("A1yA2", 2), ("A1x", 3)]:
            with pytest.raises(ModuleParseError) as err:
                parse_algebra(text)
            assert err.value.position == pos


class TestParseModule:
    def test_worked_label(self):
        spec = parse_algebra("A1xA2")
        ast = parse_module("L(1)#L(0,1)", spec)
        assert ast == Irr(((1,), (0, 1)))
        assert to_representation(ast, spec).dim == 6

    def test_multiplicity(self):
        spec = parse_algebra("A2")
        ast = parse_module("2L(1,0)", spec)
        assert ast == DirectSum((Irr(((1, 0),)), Irr(((1, 0),))))

    def test_wedge_nat(self):
        spec = parse_algebra("A4")
        ast = parse_module("wedge2(nat)", spec)
        assert ast == Wedge2(Natural())
        assert str(to_descriptor(ast, spec)) == "L(0,1,0,0)"

    def test_tensor_with_trivial(self):
        spec = parse_algebra("A1")
        ast = parse_module("L(1)*triv", spec)
        assert ast == Tensor((Irr(((1,),)), Trivial()))
        assert str(to_descriptor(ast, spec)) == "L(1)"

    def test_sum_flattening(self):
        spec = parse_algebra("A1")
        ast = parse_module("L(1) + 2L(2) + triv", spec)
        assert isinstance(ast, DirectSum) and len(ast.terms) == 4

    def test_nat_needs_simple(self):
        spec = parse_algebra("A1xA1")
        with pytest.raises(ModuleParseError):
            parse_module("nat", spec)

    def test_arity_errors(self):
        spec2 = parse_algebra("A1xA2")
        with pytest.raises(ModuleParseError):
            parse_module("L(1)", spec2)           # missing factor block
        with pytest.raises(ModuleParseError):
            parse_module("L(1,2)#L(0,1)", spec2)  # wrong rank in block

    def test_error_positions_inside_token(self):
        spec = parse_algebra("A2")
        cases = [
            ("L(1,0", 5),       # missing ')': error at the cursor
            ("wedge2 nat", 7),
            ("L(a,b)", 2),
            ("2 + L(1,0)", 2),
            ("L(1,0) +", 8),
            ("frob(L(1,0))", 0),
        ]
        for text, pos in cases:
            with pytest.raises(ModuleParseError) as err:
                parse_module(text, spec)
            assert err.value.position == pos, text

    def test_zero_multiplicity_rejected(self):
        spec = parse_algebra("A2")
        with pytest.raises(ModuleParseError):
            parse_module("0L(1,0)", spec)

    @pytest.mark.parametrize("text", [
        "\u00b2",                      # a digit that int() does not read
        "L(" + "9" * 5000 + ")",       # more digits than int() converts
        "1000 1000 1000 L(1)",         # a billion summands
        "dual(" * 400 + "nat" + ")" * 400,
    ], ids=["superscript", "long-number", "billion-summands", "deep-nesting"])
    def test_hostile_input_is_a_parse_error(self, text):
        with pytest.raises(ModuleParseError):
            parse_module(text, parse_algebra("A1"))


GRAMMAR_TEXT = st.text(alphabet="ABCDLx()0123456789,+*# natrivwedgesymdu",
                       max_size=30)


class TestFuzz:
    @given(st.text(max_size=30) | GRAMMAR_TEXT,
           st.text(max_size=30) | GRAMMAR_TEXT)
    @settings(max_examples=400, deadline=None)
    def test_arbitrary_text_raises_only_parse_errors(self, algebra, module):
        try:
            spec = parse_algebra(algebra)
        except ModuleParseError:
            spec = parse_algebra("A1xA2")
        try:
            ast = parse_module(module, spec)
        except ModuleParseError:
            return
        assert module_dim(ast, spec) >= 0


class TestPrint:
    def test_canonical_spacing(self):
        spec = parse_algebra("A2")
        ast = parse_module("L(1,0)+L(1,0)  + L(0,1)", spec)
        assert print_module(ast) == "2L(1,0) + L(0,1)"
        assert parse_module(print_module(ast), spec) == ast

    def test_print_parse_identity_on_samples(self):
        spec = parse_algebra("A1xA2")
        for text in ["L(1)#L(0,1)", "wedge2(L(1)#L(1,0))",
                     "dual(sym2(L(0)#L(0,1)))", "triv",
                     "L(1)#L(0,0)*L(0)#L(1,1)",
                     "3L(2)#L(0,1) + triv"]:
            ast = parse_module(text, spec)
            assert parse_module(print_module(ast), spec) == ast


def random_ast(rnd, spec, depth):
    """Grammar-expressible random ASTs (no mixed sums under tensors)."""
    choices = ["irr", "triv"]
    if len(spec.factors) == 1:
        choices.append("nat")
    if depth > 0:
        choices += ["wedge2", "sym2", "dual", "tensor", "sum", "repeat"]
    kind = rnd.choice(choices)
    if kind == "irr":
        blocks = tuple(tuple(rnd.randint(0, 2) for _ in range(t.rank))
                       for t in spec.factors)
        return Irr(blocks)
    if kind == "triv":
        return Trivial()
    if kind == "nat":
        return Natural()
    if kind == "wedge2":
        return Wedge2(random_ast(rnd, spec, depth - 1))
    if kind == "sym2":
        return Sym2(random_ast(rnd, spec, depth - 1))
    if kind == "dual":
        return Dual(random_ast(rnd, spec, depth - 1))
    if kind == "tensor":
        factors = []
        for _ in range(rnd.randint(2, 3)):
            f = random_ast(rnd, spec, depth - 1)
            while isinstance(f, (Tensor, DirectSum)):
                f = random_ast(rnd, spec, depth - 1)
            factors.append(f)
        return Tensor(tuple(factors))
    if kind == "repeat":
        inner = random_ast(rnd, spec, depth - 1)
        while isinstance(inner, (DirectSum, Tensor)):
            inner = random_ast(rnd, spec, depth - 1)
        return DirectSum((inner,) * rnd.randint(2, 3))
    # sum
    terms = []
    for _ in range(rnd.randint(2, 3)):
        t = random_ast(rnd, spec, depth - 1)
        if isinstance(t, DirectSum):
            terms.extend(t.terms)
        else:
            terms.append(t)
    return DirectSum(tuple(terms))


class TestRoundTrip:
    def test_hypothesis_asts(self):
        from hypothesis import given, settings, strategies as st

        spec = parse_algebra("A1xA2")

        def leaves():
            irr = st.tuples(
                st.tuples(st.integers(0, 2)),
                st.tuples(st.integers(0, 2), st.integers(0, 2)),
            ).map(Irr)
            return st.one_of(irr, st.just(Trivial()))

        def extend(children):
            no_sum = st.one_of(leaves(), children.map(Wedge2),
                               children.map(Sym2), children.map(Dual))
            return st.one_of(
                children.map(Wedge2),
                children.map(Sym2),
                children.map(Dual),
                st.lists(no_sum, min_size=2, max_size=3).map(
                    lambda fs: Tensor(tuple(fs))),
                st.lists(children, min_size=2, max_size=3).map(
                    lambda ts: DirectSum(tuple(
                        u for t in ts
                        for u in (t.terms if isinstance(t, DirectSum)
                                  else (t,))))),
            )

        asts = st.recursive(leaves(), extend, max_leaves=8)

        def subtrees(ast):
            yield ast
            for child in getattr(ast, "terms", ()) + getattr(ast, "factors", ()):
                yield from subtrees(child)
            if hasattr(ast, "inner"):
                yield from subtrees(ast.inner)

        @given(asts)
        @settings(max_examples=120, deadline=None)
        def check(ast):
            assert parse_module(print_module(ast), spec) == ast
            # realise only what is quick to build
            if max(module_dim(t, spec) for t in subtrees(ast)) <= 40:
                assert module_dim(ast, spec) == to_representation(ast, spec).dim

        check()

    def test_200_random_asts(self):
        rnd = random.Random(12345)
        specs = [parse_algebra("A2"), parse_algebra("A1xA2"),
                 parse_algebra("C2"), parse_algebra("B3xA1")]
        for i in range(200):
            spec = specs[i % len(specs)]
            ast = random_ast(rnd, spec, 4)
            text = print_module(ast)
            assert parse_module(text, spec) == ast, text

    def test_table_descriptors_reparse(self):
        from disemi.classify import sk_reduced_table, vinberg_table
        for t in (SimpleType("A", 2), SimpleType("A", 4), SimpleType("C", 3),
                  SimpleType("D", 5)):
            spec = spec_of(t)
            for desc in vinberg_table(t):
                ast = descriptor_to_ast(desc)
                back = parse_module(print_module(ast), spec)
                assert to_descriptor(back, spec) == desc
        rows = {r.name: r for r in sk_reduced_table()}
        triples = [
            rows["two_naturals"].instantiate(n=1, m=3),
            rows["even_wedge"].instantiate(m=2),
            rows["sl2_times_wedge"].instantiate(m=1),
            rows["symplectic_tensor"].instantiate(n=2, m=1),
            rows["half_spin_d5"].instantiate(),
        ]
        for triple in triples:
            ast = descriptor_to_ast(triple.module)
            back = parse_module(print_module(ast), triple.spec)
            assert to_descriptor(back, triple.spec) == triple.module


class TestPretty:
    def test_weight(self):
        assert pretty_weight((1, 0, 2)) == "w1+2w3"
        assert pretty_weight((0, 0)) == "0"

    def test_descriptor(self):
        d = ModuleDescriptor([(((1, 0),), 2), (((0, 1),), 1)])
        assert pretty_descriptor(d) == "L(w2) + 2L(w1)"


class TestModuleSizeLimit:
    def test_refused_before_building(self, monkeypatch):
        spec = parse_algebra("A1")
        ast = parse_module("sym2(sym2(sym2(L(10))))", spec)
        for name in ("realize_label", "sym2"):
            monkeypatch.setattr(disemi.modexpr, name, None)
        with pytest.raises(ValueError, match="above the limit"):
            to_representation(ast, spec)

    def test_limit_is_inclusive(self, monkeypatch):
        spec = parse_algebra("A1")
        monkeypatch.setattr(disemi.modexpr, "MAX_MODULE_DIM", 11)
        assert to_representation(parse_module("L(10)", spec), spec).dim == 11
        with pytest.raises(ValueError, match="dimension 12"):
            to_representation(parse_module("L(10) + triv", spec), spec)

    def test_no_partial_tensor_product_above_the_product(self, monkeypatch):
        # L(10) * L(10) * wedge2(triv) has dimension 0; built left to
        # right it would first build the 121-dimensional L(10) * L(10)
        spec = parse_algebra("A1")
        built = []
        real = disemi.modexpr.tensor
        monkeypatch.setattr(disemi.modexpr, "tensor",
                            lambda a, b: built.append(a.dim * b.dim)
                            or real(a, b))
        ast = parse_module("L(10) * L(10) * wedge2(triv)", spec)
        assert to_representation(ast, spec).dim == 0
        assert built == [0, 0]
        ast = parse_module("L(1) * L(2) * nat", spec)
        assert to_representation(ast, spec).dim == 12
        assert built[2:] == [6, 12]

    def test_realisable_labels(self):
        spec = parse_algebra("A1")
        ast = parse_module("L(129) + L(1)", spec)
        assert module_dim(ast, spec) == 132
        with pytest.raises(ValueError, match="limit of 128"):
            to_representation(ast, spec)
