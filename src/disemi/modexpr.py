"""Parser and printer for the algebra / module expression language.

Algebra specs look like "A1xA2".  Module expressions use "+" for direct
sums, "*" for tensor products over the same algebra, "#" to join one
"L(...)" block per simple factor into an outer tensor label, an integer
prefix for repeated direct summands, and the function forms
"wedge2(...)", "sym2(...)", "dual(...)" plus the shorthands "triv" and
"nat".  A recursive-descent parser reports byte offsets on errors.
"""

from math import prod

from .repbuilder import (SemisimpleSpec, decompose, direct_sum, dual,
                         natural, realize_label, sym2, tensor, trivial, wedge2)
from .rootdata import SimpleType, record

# an integer prefix repeats a summand; past this many summands in one
# repetition the expression is refused rather than expanded
MAX_SUMMANDS = 1000
# to_representation refuses a module of more dimensions, as building
# one takes memory in proportion: 8192 takes about 50 MB, and
# sym2(sym2(sym2(L(10)))) over A1 (2,445,366) more than a machine has
MAX_MODULE_DIM = 8192


class ModuleParseError(ValueError):
    """Syntax or arity error, carrying the byte offset of the problem."""

    def __init__(self, message, position):
        super().__init__("%s (at offset %d)" % (message, position))
        self.position = position


def _integer(text, i, j):
    """The decimal digits text[i:j] as an int."""
    try:
        return int(text[i:j])
    except ValueError:      # more digits than int() converts
        raise ModuleParseError("number too long", i) from None


# AST nodes ----------------------------------------------------------------

@record(frozen=True)
class Irr:
    blocks: tuple          # one coordinate tuple per simple factor


@record(frozen=True)
class Tensor:
    factors: tuple


@record(frozen=True)
class DirectSum:
    terms: tuple


@record(frozen=True)
class Wedge2:
    inner: object


@record(frozen=True)
class Sym2:
    inner: object


@record(frozen=True)
class Dual:
    inner: object


@record(frozen=True)
class Trivial:
    pass


@record(frozen=True)
class Natural:
    pass


# Tokenizer ----------------------------------------------------------------

def _tokenize(text):
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdecimal():
            j = i
            while j < n and text[j].isdecimal():
                j += 1
            tokens.append(("int", _integer(text, i, j), i))
            i = j
            continue
        if ch.isalpha():
            j = i
            while j < n and text[j].isalnum():
                j += 1
            tokens.append(("word", text[i:j], i))
            i = j
            continue
        if ch in "+*#(),":
            tokens.append((ch, ch, i))
            i += 1
            continue
        raise ModuleParseError("unexpected character %r" % ch, i)
    tokens.append(("end", None, n))
    return tokens


class _Cursor:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind, what):
        tok = self.next()
        if tok[0] != kind:
            raise ModuleParseError("expected %s" % what, tok[2])
        return tok


# Algebra specs --------------------------------------------------------------

def parse_algebra(text):
    """Parse "A1xA2"-style specs into a SemisimpleSpec."""
    factors = []
    i = 0
    n = len(text)
    while True:
        while i < n and text[i].isspace():
            i += 1
        start = i
        if i >= n or text[i] not in "ABCD":
            raise ModuleParseError("expected a simple type family A, B, C or D",
                                   start)
        family = text[i]
        i += 1
        j = i
        while j < n and text[j].isdecimal():
            j += 1
        if j == i:
            raise ModuleParseError("expected a rank after %r" % family, i)
        rank = _integer(text, i, j)
        try:
            factors.append(SimpleType(family, rank))
        except ValueError as exc:
            raise ModuleParseError(str(exc), start)
        i = j
        while i < n and text[i].isspace():
            i += 1
        if i >= n:
            break
        if text[i] != "x":
            raise ModuleParseError("expected 'x' between simple factors", i)
        i += 1
    return SemisimpleSpec(tuple(factors))


# Module expressions ---------------------------------------------------------

def parse_module(text, spec):
    """Parse a module expression against a SemisimpleSpec."""
    cur = _Cursor(_tokenize(text))
    try:
        ast = _parse_sum(cur, spec)
    except RecursionError:
        raise ModuleParseError("expression nested too deeply",
                               cur.peek()[2]) from None
    tok = cur.peek()
    if tok[0] != "end":
        raise ModuleParseError("trailing input", tok[2])
    return ast


def _parse_sum(cur, spec):
    terms = [_parse_term(cur, spec)]
    while cur.peek()[0] == "+":
        cur.next()
        terms.append(_parse_term(cur, spec))
    if len(terms) == 1:
        return terms[0]
    flat = []
    for t in terms:
        if isinstance(t, DirectSum):
            flat.extend(t.terms)
        else:
            flat.append(t)
    return DirectSum(tuple(flat))


def _parse_term(cur, spec):
    factors = [_parse_factor(cur, spec)]
    while cur.peek()[0] == "*":
        cur.next()
        factors.append(_parse_factor(cur, spec))
    if len(factors) == 1:
        return factors[0]
    return Tensor(tuple(factors))


def _parse_factor(cur, spec):
    tok = cur.peek()
    if tok[0] == "int":
        cur.next()
        count = tok[1]
        if count < 1:
            raise ModuleParseError("multiplicity must be at least 1", tok[2])
        inner = _parse_factor(cur, spec)
        if count == 1:
            return inner
        terms = inner.terms if isinstance(inner, DirectSum) else (inner,)
        if count * len(terms) > MAX_SUMMANDS:
            raise ModuleParseError("more than %d summands" % MAX_SUMMANDS,
                                   tok[2])
        return DirectSum(terms * count)
    if tok[0] != "word":
        raise ModuleParseError("expected a module factor", tok[2])
    word = tok[1]
    if word == "L":
        return _parse_label(cur, spec)
    cur.next()
    if word == "triv":
        return Trivial()
    if word == "nat":
        if len(spec.factors) != 1:
            raise ModuleParseError(
                "'nat' needs a single simple factor; join L(...) blocks "
                "with '#' for products", tok[2])
        return Natural()
    if word in ("wedge2", "sym2", "dual"):
        cur.expect("(", "'(' after %s" % word)
        inner = _parse_sum(cur, spec)
        cur.expect(")", "')'")
        return {"wedge2": Wedge2, "sym2": Sym2, "dual": Dual}[word](inner)
    raise ModuleParseError("unknown module constructor %r" % word, tok[2])


def _parse_label(cur, spec):
    blocks = []
    start = cur.peek()[2]
    while True:
        tok = cur.expect("word", "'L'")
        if tok[1] != "L":
            raise ModuleParseError("expected 'L'", tok[2])
        cur.expect("(", "'(' after L")
        coords = []
        while True:
            itok = cur.expect("int", "a weight coordinate")
            coords.append(itok[1])
            nxt = cur.next()
            if nxt[0] == ")":
                break
            if nxt[0] != ",":
                raise ModuleParseError("expected ',' or ')' in weight", nxt[2])
        blocks.append(tuple(coords))
        if cur.peek()[0] != "#":
            break
        cur.next()
    if len(blocks) != len(spec.factors):
        raise ModuleParseError(
            "label has %d block(s) but the algebra has %d factor(s)"
            % (len(blocks), len(spec.factors)), start)
    for block, t in zip(blocks, spec.factors):
        if len(block) != t.rank:
            raise ModuleParseError(
                "weight %r has %d coordinates but %s has rank %d"
                % (block, len(block), t, t.rank), start)
    return Irr(tuple(blocks))


# Printer --------------------------------------------------------------------

def print_module(ast):
    """Canonical text form; parse(print(ast)) == ast for grammar-expressible
    ASTs (direct sums under a tensor must consist of equal terms)."""
    return _print_sum(ast)


def _print_sum(ast):
    if isinstance(ast, DirectSum):
        parts = []
        i = 0
        terms = ast.terms
        while i < len(terms):
            j = i
            while j < len(terms) and terms[j] == terms[i]:
                j += 1
            parts.append(_print_repeat(terms[i], j - i))
            i = j
        return " + ".join(parts)
    return _print_term(ast)


def _print_repeat(node, count):
    # an integer prefix binds to one factor, so "2a*b" means "(a+a)*b";
    # repeated tensor terms therefore print longhand
    if isinstance(node, Tensor) and count > 1:
        return " + ".join([_print_term(node)] * count)
    body = _print_term(node)
    return "%d%s" % (count, body) if count > 1 else body


def _print_term(ast):
    if isinstance(ast, Tensor):
        return "*".join(_print_factor(f) for f in ast.factors)
    return _print_factor(ast)


def _print_factor(ast):
    if isinstance(ast, Irr):
        return "#".join("L(" + ",".join(str(c) for c in block) + ")"
                        for block in ast.blocks)
    if isinstance(ast, Trivial):
        return "triv"
    if isinstance(ast, Natural):
        return "nat"
    if isinstance(ast, Wedge2):
        return "wedge2(" + _print_sum(ast.inner) + ")"
    if isinstance(ast, Sym2):
        return "sym2(" + _print_sum(ast.inner) + ")"
    if isinstance(ast, Dual):
        return "dual(" + _print_sum(ast.inner) + ")"
    if isinstance(ast, DirectSum):
        terms = ast.terms
        if all(t == terms[0] for t in terms) and not isinstance(terms[0], Tensor):
            return _print_repeat(terms[0], len(terms))
        raise ValueError("this direct sum has no grammar form inside a "
                         "tensor product")
    if isinstance(ast, Tensor):
        return _print_term(ast)
    raise ValueError("unknown AST node %r" % (ast,))


def pretty_weight(block):
    """Readable form of one weight block, e.g. (1,0,2) -> w1+2w3."""
    parts = []
    for i, c in enumerate(block):
        if c == 1:
            parts.append("w%d" % (i + 1))
        elif c > 1:
            parts.append("%dw%d" % (c, i + 1))
    return "+".join(parts) if parts else "0"


def pretty_descriptor(desc):
    """Readable descriptor form, e.g. 2L(w1) + L(w2)."""
    if not desc.entries:
        return "0"
    parts = []
    for label, mult in desc.entries:
        blocks = "#".join("L(%s)" % pretty_weight(b) for b in label)
        parts.append(("%d" % mult if mult > 1 else "") + blocks)
    return " + ".join(parts)


# Semantics ------------------------------------------------------------------

def to_representation(ast, spec):
    """Build the module described by an AST over the given spec.  Each
    part above MAX_MODULE_DIM dimensions raises ValueError before it is
    built."""
    dim = module_dim(ast, spec)
    if dim > MAX_MODULE_DIM:
        raise ValueError("module of dimension %d, above the limit of %d for "
                         "a built module" % (dim, MAX_MODULE_DIM))
    if isinstance(ast, Irr):
        return realize_label(spec, ast.blocks)
    if isinstance(ast, DirectSum):
        return direct_sum([to_representation(t, spec) for t in ast.terms])
    if isinstance(ast, Tensor):
        # a factor of dimension 0 goes first, so that no partial product
        # is larger than the product; with none the order is kept
        reps = sorted((to_representation(f, spec) for f in ast.factors),
                      key=lambda r: r.dim > 0)
        out = reps[0]
        for r in reps[1:]:
            out = tensor(out, r)
        return out
    if isinstance(ast, Wedge2):
        return wedge2(to_representation(ast.inner, spec))
    if isinstance(ast, Sym2):
        return sym2(to_representation(ast.inner, spec))
    if isinstance(ast, Dual):
        return dual(to_representation(ast.inner, spec))
    if isinstance(ast, Trivial):
        return trivial(spec, 1)
    if isinstance(ast, Natural):
        return natural(spec.factors[0])
    raise ValueError("unknown AST node %r" % (ast,))


def module_dim(ast, spec):
    """The dimension of the module an AST describes, without building
    it: the Weyl dimension formula for each label, and the dimension
    rules of the constructors."""
    if isinstance(ast, Irr):
        return spec.label_dim(ast.blocks)
    if isinstance(ast, DirectSum):
        return sum(module_dim(t, spec) for t in ast.terms)
    if isinstance(ast, Tensor):
        return prod(module_dim(f, spec) for f in ast.factors)
    if isinstance(ast, Wedge2):
        n = module_dim(ast.inner, spec)
        return n * (n - 1) // 2
    if isinstance(ast, Sym2):
        n = module_dim(ast.inner, spec)
        return n * (n + 1) // 2
    if isinstance(ast, Dual):
        return module_dim(ast.inner, spec)
    if isinstance(ast, Trivial):
        return 1
    if isinstance(ast, Natural):
        return spec.factors[0].natural_dim
    raise ValueError("unknown AST node %r" % (ast,))


def to_descriptor(ast, spec):
    """Normalise an AST to a ModuleDescriptor via decomposition."""
    return decompose(to_representation(ast, spec))


def descriptor_to_ast(desc):
    """The sum-of-irreducibles AST for a descriptor."""
    terms = []
    for label, mult in desc.entries:
        terms.extend([Irr(label)] * mult)
    if not terms:
        raise ValueError("the zero module has no expression form")
    if len(terms) == 1:
        return terms[0]
    return DirectSum(tuple(terms))
