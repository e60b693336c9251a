"""Root systems and weight combinatorics for the classical families A-D.

Conventions
-----------
Roots are stored by their coordinates in the simple-root basis, weights
by their coordinates in the fundamental-weight basis.  The Cartan matrix
is A[i][j] = <alpha_i, alpha_j^vee>, so a Chevalley basis satisfies
[h_i, e_j] = A[j][i] e_j.  Long roots are normalised to squared length 2.
"""

from functools import lru_cache
from operator import attrgetter

FAMILIES = ("A", "B", "C", "D")

_MIN_RANK = {"A": 1, "B": 2, "C": 2, "D": 3}


def record(cls=None, *, frozen=False):
    """Class decorator: value semantics from the annotated fields, as a
    dataclass gives them but without compiling source per class (about
    1 ms of each command's start-up): __init__ by position or keyword,
    class attributes as defaults, then __post_init__; equality of class
    and field tuple; repr Class(field=value, ...).  A frozen record
    refuses assignment and hashes as its field tuple; a mutable one is
    unhashable.  Methods the class defines itself are kept."""
    if cls is None:
        return lambda cls: record(cls, frozen=frozen)
    names = tuple(cls.__dict__.get("__annotations__", ()))
    defaults = {n: cls.__dict__[n] for n in names if n in cls.__dict__}
    post_init = getattr(cls, "__post_init__", None)
    put = object.__setattr__
    # attrgetter is fast, but gives a tuple only for two or more names
    values = (attrgetter(*names) if len(names) > 1
              else lambda x: tuple(getattr(x, n) for n in names))

    def __init__(self, *args, **kwargs):
        try:
            args += tuple([kwargs.pop(n) if n in kwargs else defaults[n]
                           for n in names[len(args):]])
        except KeyError as exc:
            raise TypeError("%s() needs field %s"
                            % (cls.__name__, exc)) from None
        if kwargs or len(args) > len(names):   # unknown, repeated, too many
            raise TypeError("%s() takes the fields (%s)"
                            % (cls.__name__, ", ".join(names)))
        for n, x in zip(names, args):
            put(self, n, x)
        if post_init is not None:
            post_init(self)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return values(self) == values(other)
        return NotImplemented

    def __repr__(self):
        return "%s(%s)" % (type(self).__qualname__, ", ".join(
            "%s=%r" % (n, getattr(self, n)) for n in names))

    def refuse(self, name, *value):
        raise AttributeError("cannot assign to or delete field %r" % name)

    methods = {"__init__": __init__, "__eq__": __eq__, "__repr__": __repr__,
               "__hash__": None}
    if frozen:
        methods.update(__hash__=lambda self: hash(values(self)),
                       __setattr__=refuse, __delattr__=refuse)
    for name, method in methods.items():
        if name not in cls.__dict__:
            setattr(cls, name, method)
    return cls


@record(frozen=True)
class SimpleType:
    """One simple classical type, e.g. SimpleType('A', 2) for sl3."""

    family: str
    rank: int

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(
                "unsupported family %r: only the classical families A, B, C, D "
                "are implemented (exceptional types are out of scope)" % (self.family,))
        if not isinstance(self.rank, int) or self.rank < _MIN_RANK[self.family]:
            raise ValueError("rank %r invalid for family %s (minimum %d)"
                             % (self.rank, self.family, _MIN_RANK[self.family]))

    def __str__(self):
        return "%s%d" % (self.family, self.rank)

    @property
    def algebra_dim(self):
        l = self.rank
        if self.family == "A":
            return l * (l + 2)
        if self.family in ("B", "C"):
            return l * (2 * l + 1)
        return l * (2 * l - 1)

    @property
    def natural_dim(self):
        l = self.rank
        if self.family == "A":
            return l + 1
        if self.family == "B":
            return 2 * l + 1
        return 2 * l


@record(frozen=True)
class DominantWeight:
    """A dominant integral weight in fundamental coordinates."""

    coords: tuple

    def __post_init__(self):
        object.__setattr__(self, "coords", tuple(int(c) for c in self.coords))
        if any(c < 0 for c in self.coords):
            raise ValueError("dominant weight needs non-negative coordinates")

    def valid_for(self, t):
        return len(self.coords) == t.rank

    def __str__(self):
        return "(" + ",".join(str(c) for c in self.coords) + ")"


def as_coords(t, lam):
    """Coerce a DominantWeight or raw coordinate sequence for type t."""
    coords = lam.coords if isinstance(lam, DominantWeight) else tuple(int(c) for c in lam)
    if len(coords) != t.rank:
        raise ValueError("weight %r has %d coordinates, type %s has rank %d"
                         % (coords, len(coords), t, t.rank))
    if any(c < 0 for c in coords):
        raise ValueError("weight %r is not dominant" % (coords,))
    return coords


def fundamental(t, k):
    """The k-th fundamental weight of t, 1-indexed."""
    if not 1 <= k <= t.rank:
        raise ValueError("fundamental weight index %d out of range for %s" % (k, t))
    return tuple(1 if i == k - 1 else 0 for i in range(t.rank))


def zero_weight(t):
    return (0,) * t.rank


@record(frozen=True)
class RootSystem:
    simple_roots: tuple      # unit vectors in the simple-root basis
    positive_roots: tuple    # all positive roots, simple-root coordinates
    cartan_matrix: tuple     # A[i][j] = <alpha_i, alpha_j^vee>
    rho: tuple               # half-sum of positive roots, fundamental coords


@lru_cache(maxsize=None)
def cartan_matrix(t):
    l = t.rank
    a = [[2 if i == j else 0 for j in range(l)] for i in range(l)]
    fam = t.family
    chain = l if fam != "D" else l - 1
    for i in range(chain - 1):
        a[i][i + 1] = -1
        a[i + 1][i] = -1
    if fam == "B" and l >= 2:
        # last simple root short: <alpha_{l-1}, alpha_l^vee> = -2
        a[l - 2][l - 1] = -2
        a[l - 1][l - 2] = -1
    elif fam == "C" and l >= 2:
        # last simple root long
        a[l - 2][l - 1] = -1
        a[l - 1][l - 2] = -2
    elif fam == "D":
        a[l - 3][l - 1] = -1
        a[l - 1][l - 3] = -1
    return tuple(tuple(row) for row in a)


def _squared_lengths(t):
    """(alpha_i, alpha_i) per simple root: 2 for long roots, 1 for short."""
    l = t.rank
    if t.family == "B":
        return [2] * (l - 1) + [1]
    if t.family == "C":
        return [1] * (l - 1) + [2]
    return [2] * l


@lru_cache(maxsize=None)
def root_system(t):
    """The root system of t, positive roots found by reflection closure."""
    l = t.rank
    a = cartan_matrix(t)
    simple = tuple(tuple(1 if i == j else 0 for j in range(l)) for i in range(l))
    roots = set(simple) | set(tuple(-x for x in r) for r in simple)
    frontier = set(roots)
    while frontier:
        new = set()
        for r in frontier:
            for i in range(l):
                # s_i(r) = r - <r, alpha_i^vee> alpha_i
                pairing = sum(r[j] * a[j][i] for j in range(l))
                img = tuple(x - pairing * (1 if j == i else 0)
                            for j, x in enumerate(r))
                if img not in roots:
                    new.add(img)
        roots |= new
        frontier = new
    positive = sorted(r for r in roots if all(x >= 0 for x in r))
    positive.sort(key=lambda r: (sum(r), r))
    counts = {"A": l * (l + 1) // 2, "B": l * l, "C": l * l, "D": l * (l - 1)}
    if len(positive) != counts[t.family]:
        raise AssertionError("positive root count %d does not match the closed "
                             "formula %d for %s" % (len(positive), counts[t.family], t))
    return RootSystem(simple_roots=simple,
                      positive_roots=tuple(positive),
                      cartan_matrix=a,
                      rho=(1,) * l)


@lru_cache(maxsize=None)
def weyl_shifts(t):
    """The pairs (sign(w), rho - w rho) for w in the Weyl group of t, in
    fundamental coordinates, identity first.

    rho = (1, ..., 1) is regular, so w -> w rho is one-to-one and the
    orbit of rho has |W| points.  Breadth-first search from rho with the
    simple reflections s_i(lam) = lam - lam_i alpha_i, where alpha_i is
    row i of the Cartan matrix, meets each point once; each reflection
    flips the sign.
    """
    a = cartan_matrix(t)
    rho = (1,) * t.rank
    sign = {rho: 1}
    frontier = [rho]
    while frontier:
        new = []
        for lam in frontier:
            for c, row in zip(lam, a):
                img = tuple(x - c * r for x, r in zip(lam, row))
                if img not in sign:
                    sign[img] = -sign[lam]
                    new.append(img)
        frontier = new
    return tuple((e, tuple(1 - x for x in lam)) for lam, e in sign.items())


def num_positive_roots(t):
    return len(root_system(t).positive_roots)


def weyl_dim(t, lam):
    """Dimension of the irreducible module with highest weight lam.

    Evaluates the Weyl dimension formula, the product over positive
    roots alpha of (lam + rho, alpha) / (rho, alpha), over the integers:
    for alpha = sum c_j alpha_j and lam = sum m_j omega_j,
    (lam + rho, alpha) = sum_j c_j d_j (m_j + 1) / 2 with d_j the
    squared length (alpha_j, alpha_j), and the factor 1/2 cancels in
    each ratio.
    """
    coords = as_coords(t, lam)
    d = _squared_lengths(t)
    num = 1
    den = 1
    for alpha in root_system(t).positive_roots:
        num *= sum(c * dj * (m + 1) for c, dj, m in zip(alpha, d, coords) if c)
        den *= sum(c * dj for c, dj in zip(alpha, d) if c)
    if num % den:
        raise AssertionError("non-integral Weyl dimension for %s, %r" % (t, coords))
    return num // den


def dual_weight(t, lam):
    """Highest weight of the dual module, i.e. -w0(lam)."""
    coords = as_coords(t, lam)
    l = t.rank
    if t.family == "A":
        return tuple(reversed(coords))
    if t.family == "D" and l % 2 == 1:
        # odd-rank D: the diagram flip swaps the two spin nodes
        return coords[: l - 2] + (coords[l - 1], coords[l - 2])
    return coords
