"""Finite groups as multiplication tables, plus a small catalog of named groups.

Elements are integers ``0 .. order-1`` indexing into a row-major product
table.  The catalog covers cyclic, dihedral, symmetric, quaternion and
elementary abelian groups, direct products of those, and tables loaded from
files.  Expressions follow the grammar::

    expr := atom | atom "x" expr
    atom := "C"<n> | "D"<n> | "S"<n> | "Q8" | "E"<p>"^"<k> | "@"<path>

``D<n>`` is the dihedral group of order ``n`` (so ``D6`` is isomorphic to
``S3``).  ``E<p>^<k>`` is the elementary abelian group of order ``p**k``.
"""
from __future__ import annotations

import functools
import itertools
import operator
import re
from dataclasses import dataclass
from math import prod
from operator import itemgetter
from typing import Iterable, Optional, Sequence

from .errors import ParseError, ResourceLimitError, StructuralError, ValidationError

__all__ = [
    "FiniteGroup",
    "Subgroup",
    "DirectFactorization",
    "CommonFactorWitness",
    "build_group",
    "CATALOG",
    "catalog_groups",
    "group_from_table",
    "load_table_file",
    "direct_product",
    "are_isomorphic",
    "common_nontrivial_factor",
]


def _memoised(fn):
    """Keep ``fn(g, ...)`` in ``g._cache``, computed the first time it is asked for.

    The key is the wrapper followed by the arguments, so each memoised
    function has its own entries; a value lives as long as its group.  A
    call that raises stores nothing, and the next call computes again.

    The wrapper takes exactly ``fn``'s positional parameters, all required
    and unnamed, so each value is asked for one way and has one key.  It is
    generated to that arity rather than written with ``*args``: CPython 3.11
    runs a call to a fixed-arity Python function without a new C-level
    frame, and ``determinant._pivot_inverse`` is looked up at every
    elimination step (a ``*args`` wrapper cost about 15% of ``matmul``
    benchmark throughput when the matrix product's memos were kept here, on
    a 2-core x86-64 box with Python 3.11.7).
    """
    args = "".join(f", a{i}" for i in range(1, fn.__code__.co_argcount))
    namespace = {"fn": fn, "missing": object()}
    exec(
        f"def memoised(g{args}):\n"
        f"    key = (memoised{args},)\n"
        "    value = g._cache.get(key, missing)\n"
        "    if value is missing:\n"
        f"        value = g._cache[key] = fn(g{args})\n"
        "    return value\n",
        namespace,
    )
    return functools.wraps(fn)(namespace["memoised"])


def _exact_ints(values: Iterable, what: str) -> tuple[int, ...]:
    """``values`` as a tuple of ints; StructuralError unless each is an exact
    integer (``operator.index``, so numpy integers pass) and not a bool."""
    vals = tuple(values)
    try:
        if bool not in map(type, vals):
            return tuple(map(operator.index, vals))
    except TypeError:
        pass
    raise StructuralError(f"{what} must be exact integers, not bools, floats or strings")


def _composer(values: tuple[int, ...]):
    """The function x -> (x[v] for v in values), as a tuple: ``x`` after ``values``."""
    if len(values) == 1:  # itemgetter of one index returns the item, not a tuple
        (v,) = values
        return lambda x: (x[v],)
    return itemgetter(*values)


def _walk(rows: Sequence[Sequence[int]], reached: list[int], seen: set[int], gens: list[int]):
    """Extend ``reached`` after ``gens[-1]`` was appended to ``gens``.

    ``reached`` holds the identity and must be closed under right
    multiplication by ``gens[:-1]``; ``seen`` is its set.  Afterwards it is
    closed under right multiplication by all of ``gens``: the old elements
    are multiplied by the new generator only, and each new element by every
    generator, so every element meets every generator at most once.  In a
    group the result is the subgroup that ``gens`` generates (a finite
    monoid generated inside a group is the subgroup), at a cost of
    |reached| * |gens| lookups.
    """
    g_new = gens[-1]
    old = len(reached)
    for i in range(old):
        y = rows[reached[i]][g_new]
        if y not in seen:
            seen.add(y)
            reached.append(y)
    # A list iterator also yields the elements appended while it runs.
    for x in itertools.islice(reached, old, None):
        row = rows[x]
        for g in gens:
            y = row[g]
            if y not in seen:
                seen.add(y)
                reached.append(y)


def _validate_table(table: Iterable[Iterable[int]]) -> tuple[tuple[tuple[int, ...], ...], int]:
    """Check that ``table`` is a group table; return its rows and its identity.

    Exact at every order, in three steps, each raising ValidationError:

    1. every entry is a plain ``int`` (not a bool), the table is square, and
       every row and every column is a permutation of ``0..n-1``;
    2. some element e has row e and column e both equal to ``0..n-1``;
    3. Light's associativity test passes over a generating set S:
       (x*a)*y = x*(a*y) for every x, y and every a in S.

    Step 3 suffices: the elements a passing it for all x, y are closed under
    products (Clifford and Preston, *The Algebraic Theory of Semigroups*,
    vol. 1, 1961), and contain the identity, so when S generates they are
    everything.  S is built by breadth-first right multiplication from the
    identity, adding the smallest unreached element as a new generator
    whenever the search stalls, so every element is a product of
    generators.  The test costs |S| * n^2 table lookups.
    """
    try:
        rows = tuple(tuple(row) for row in table)
    except TypeError:
        raise ValidationError("a group table must be a sequence of rows") from None
    n = len(rows)
    if n == 0:
        raise ValidationError("a group table must have at least one element")
    span = set(range(n))
    for i, row in enumerate(rows):
        if len(row) != n:
            raise ValidationError(f"row {i} has {len(row)} entries, expected {n}")
        if set(map(type, row)) != {int}:
            bad = next(v for v in row if type(v) is not int)
            raise ValidationError(f"table entry {bad!r} in row {i} is not an integer")
        if set(row) != span:
            raise ValidationError(
                f"is not a permutation of 0..{n - 1}: not a Latin square", ("row", i)
            )
    for j, col in enumerate(zip(*rows)):
        if set(col) != span:
            raise ValidationError(
                f"is not a permutation of 0..{n - 1}: not a Latin square", ("column", j)
            )

    plain = tuple(range(n))
    e = next((x for x in range(n) if rows[x] == plain), None)
    if e is None or any(rows[x][e] != x for x in range(n)):
        raise ValidationError("table has no identity element")

    gens: list[int] = []
    reached = [e]
    seen = {e}
    for u in range(n):
        if u not in seen:
            gens.append(u)
            _walk(rows, reached, seen, gens)

    for a in gens:
        row_a = rows[a]
        times_a = _composer(row_a)  # times_a(row_x)[y] = x*(a*y)
        for x, row_x in enumerate(rows):
            row_xa = rows[row_x[a]]
            if times_a(row_x) != row_xa:
                y = next(y for y in range(n) if row_xa[y] != row_x[row_a[y]])
                raise ValidationError(
                    f"associativity fails at triple ({x}, {a}, {y}): "
                    f"({x}*{a})*{y} = {row_xa[y]} but {x}*({a}*{y}) = {row_x[row_a[y]]}"
                )
    return rows, e


# direct_product refuses a product of larger order: its table has order^2
# entries, and at order 7,200 (S5 x C60) `groupdet bench` peaked at 1.9 GB.
_PRODUCT_ORDER_LIMIT = 8_192

# Numbers the groups in the order they are built (FiniteGroup._built), so
# that direct_product can keep a product on its factor built last.
_build_count = itertools.count()


class FiniteGroup:
    """A finite group given by its multiplication table.

    Every table passed to the constructor is validated exactly
    (``_validate_table``: integer entries, Latin square, identity, Light's
    associativity test), and its labels must be distinct.  Groups derived
    from validated groups (direct products and extracted subgroups) are
    built by ``_trusted`` instead.
    Instances are immutable; derived data (center, subgroups, generators,
    and the hom and automorphism listings of ``maps``) is computed on first
    use and kept on the group by ``_memoised``.
    """

    def __init__(
        self,
        table: Sequence[Sequence[int]],
        name: str = "",
        labels: Optional[Sequence[str]] = None,
    ):
        rows, identity = _validate_table(table)
        self._setup(rows, identity, name, labels)
        if len(set(self.labels)) != self.order:
            twice = next(s for s in self.labels if self.labels.count(s) > 1)
            raise ValidationError(f"label {twice!r} is repeated")

    @classmethod
    def _trusted(cls, rows: tuple, identity: int, name: str, labels: Sequence[str]):
        """A group from tuple rows known to form a group table with this identity.

        Skips validation; only ``_product`` (behind ``direct_product``) and
        ``Subgroup.as_group`` call it, with tables derived from validated groups.
        """
        g = cls.__new__(cls)
        g._setup(rows, identity, name, labels)
        return g

    def _setup(self, rows: tuple, identity: int, name: str, labels: Optional[Sequence[str]]):
        order = len(rows)
        self.table = rows
        self.order = order
        self.name = name or f"table of order {order}"
        self.identity = identity
        self.inverse = tuple(rows[x].index(self.identity) for x in range(order))
        if labels is not None:
            if len(labels) != order:
                raise ValidationError(f"expected {order} labels, got {len(labels)}")
            self.labels = tuple(str(s) for s in labels)
        else:
            self.labels = tuple(str(i) for i in range(order))
        # Set by direct_product for the groups it builds (None otherwise).
        self.factors: Optional[tuple[FiniteGroup, ...]] = None
        self.coords: Optional[tuple[tuple[int, ...], ...]] = None
        self._cache: dict = {}
        self._built = next(_build_count)

    # -- element arithmetic ------------------------------------------------

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def inv(self, a: int) -> int:
        return self.inverse[a]

    def element_order(self, x: int) -> int:
        e, t = self.identity, self.table
        y, k = x, 1
        while y != e:
            y = t[y][x]
            k += 1
        return k

    # -- lazily cached structure -------------------------------------------

    @property
    def is_abelian(self) -> bool:
        """True when every conjugacy class is a single element."""
        return len(self.conjugacy_classes) == self.order

    @property
    @_memoised
    def element_orders(self) -> tuple[int, ...]:
        return tuple(self.element_order(x) for x in range(self.order))

    @property
    @_memoised
    def conjugacy_classes(self) -> tuple[tuple[int, ...], ...]:
        """The conjugacy classes as sorted tuples, ordered by smallest element.

        The class of x is its orbit under conjugation by the generators:
        those conjugations generate every inner automorphism, and in a
        finite group the orbit under a generating set is the orbit under the
        group it generates.  Each element is visited once per generator.
        """
        t, inv = self.table, self.inverse
        conj = [(t[inv[a]], a) for a in self.generators()]
        seen = [False] * self.order
        classes = []
        for x in range(self.order):
            if not seen[x]:
                seen[x] = True
                orbit = [x]
                for y in orbit:  # also visits the elements appended below
                    for row, a in conj:
                        z = t[row[y]][a]
                        if not seen[z]:
                            seen[z] = True
                            orbit.append(z)
                classes.append(tuple(sorted(orbit)))
        return tuple(classes)

    @property
    @_memoised
    def class_sizes(self) -> tuple[int, ...]:
        """The size of each element's conjugacy class."""
        size = {x: len(cls) for cls in self.conjugacy_classes for x in cls}
        return tuple(size[x] for x in range(self.order))

    @_memoised
    def center(self) -> "Subgroup":
        """Elements commuting with everything (the classes of size 1), as a subgroup."""
        return Subgroup(self, [cls[0] for cls in self.conjugacy_classes if len(cls) == 1])

    @_memoised
    def center_set(self) -> frozenset[int]:
        """The center's elements as a set, for membership tests."""
        return frozenset(self.center().elements)

    @_memoised
    def derived_subgroup(self) -> "Subgroup":
        """The subgroup generated by all commutators."""
        t, inv = self.table, self.inverse
        comms = {
            t[t[inv[a]][inv[b]]][t[a][b]]
            for a in range(self.order)
            for b in range(self.order)
        }
        return Subgroup(self, self.closure(comms))

    def is_stem(self) -> bool:
        """True when the center is contained in the derived subgroup."""
        derived = set(self.derived_subgroup().elements)
        return all(z in derived for z in self.center().elements)

    def closure(self, seed: Iterable[int]) -> tuple[int, ...]:
        """Subgroup generated by the seed elements, as a sorted tuple (``_join``)."""
        return self._join((self.identity,), (), seed)[0]

    def _join(
        self, elems: Sequence[int], gens: Sequence[int], seed: Iterable[int]
    ) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """The join of the subgroup ``elems``, generated by ``gens``, with ``seed``.

        Walks on from ``elems`` (``_walk``); a seed element already reached is
        not made a generator.  Returns the sorted join and its generators.
        """
        reached, seen, gens = list(elems), set(elems), list(gens)
        for s in seed:
            if s not in seen:
                gens.append(s)
                _walk(self.table, reached, seen, gens)
        return tuple(sorted(reached)), tuple(gens)

    @_memoised
    def generators(self) -> tuple[int, ...]:
        """A small generating set, chosen greedily by descending element order."""
        gens: list[int] = []
        reached = [self.identity]
        seen = {self.identity}
        by_order = sorted(range(self.order), key=lambda x: (-self.element_orders[x], x))
        for x in by_order:
            if x not in seen:
                gens.append(x)
                _walk(self.table, reached, seen, gens)
                if len(reached) == self.order:
                    break
        return tuple(gens)

    def _joins(self, seeds: Sequence[tuple[int, ...]]) -> tuple["Subgroup", ...]:
        """Every subgroup generated by a union of seeds, sorted by (order, elements).

        Walks from the trivial subgroup; each subgroup found is joined on from its
        elements and generators (``_join``) with every seed it does not contain.
        Every join is a subgroup by construction (``Subgroup._walked``).
        """
        found: dict[tuple[int, ...], tuple[int, ...]] = {(self.identity,): ()}
        frontier = [(self.identity,)]
        while frontier:
            elems = frontier.pop()
            members = set(elems)
            for seed in seeds:
                if members.issuperset(seed):
                    continue
                bigger, gens = self._join(elems, found[elems], seed)
                if bigger not in found:
                    found[bigger] = gens
                    frontier.append(bigger)
        subs = sorted(found, key=lambda s: (len(s), s))
        return tuple(Subgroup._walked(self, s) for s in subs)

    @_memoised
    def all_subgroups(self) -> tuple["Subgroup", ...]:
        """Every subgroup: the joins of cyclic subgroups, one per element."""
        return self._joins([(x,) for x in range(self.order)])

    @_memoised
    def normal_subgroups(self) -> tuple["Subgroup", ...]:
        """Every normal subgroup: the joins of conjugacy classes, since a join
        of classes is normal and a normal subgroup is a union of classes."""
        return self._joins(self.conjugacy_classes)

    # No package code calls this; perfbench/layertrace.py wraps it by name.
    @_memoised
    def direct_factorizations(self) -> tuple["DirectFactorization", ...]:
        """All unordered internal direct factorizations, including (1, G)."""
        normals = self.normal_subgroups()
        out = []
        for i, a in enumerate(normals):
            for b in normals[i:]:
                if len(a.elements) * len(b.elements) != self.order:
                    continue
                if set(a.elements) & set(b.elements) != {self.identity}:
                    continue
                out.append(DirectFactorization(self, a, b))
        return tuple(out)

    def __repr__(self) -> str:
        return f"FiniteGroup({self.name!r}, order={self.order})"


@dataclass(frozen=True)
class Subgroup:
    """A subgroup of ``parent`` given by its sorted element tuple."""

    parent: FiniteGroup
    elements: tuple[int, ...]

    def __init__(self, parent: FiniteGroup, elements: Iterable[int]):
        elems = tuple(sorted(set(_exact_ints(elements, "subgroup elements"))))
        object.__setattr__(self, "parent", parent)
        object.__setattr__(self, "elements", elems)
        if elems and (elems[0] < 0 or elems[-1] >= parent.order):
            raise StructuralError("subgroup elements fall outside the parent")
        if parent.identity not in elems:
            raise StructuralError("subgroup must contain the identity")
        es = set(elems)
        t = parent.table
        for a in elems:
            if parent.inverse[a] not in es:
                raise StructuralError(f"subgroup not closed under inverse at {a}")
            for b in elems:
                if t[a][b] not in es:
                    raise StructuralError(f"subgroup not closed under product at ({a}, {b})")

    @classmethod
    def _walked(cls, parent: FiniteGroup, elements: tuple[int, ...]) -> "Subgroup":
        """The subgroup with this sorted element tuple, which ``_walk`` closed:
        no |S|^2 closure check.  Only ``FiniteGroup._joins`` calls it."""
        sub = object.__new__(cls)
        object.__setattr__(sub, "parent", parent)
        object.__setattr__(sub, "elements", elements)
        return sub

    @property
    def order(self) -> int:
        return len(self.elements)

    def is_central(self) -> bool:
        zs = self.parent.center_set()
        return all(x in zs for x in self.elements)

    def as_group(self) -> tuple[FiniteGroup, dict[int, int]]:
        """Reindex to a standalone FiniteGroup; also return parent->local index map.

        The subgroup is closed under products and inverses (the constructor
        checked it, or the join walk made it so), so the reindexed table is a
        group table and is not validated again.
        """
        index = {x: i for i, x in enumerate(self.elements)}
        t = self.parent.table
        table = tuple(
            tuple([index[t[a][b]] for b in self.elements])
            for a in self.elements
        )
        labels = [self.parent.labels[x] for x in self.elements]
        name = f"subgroup of {self.parent.name}"
        return FiniteGroup._trusted(table, index[self.parent.identity], name, labels), index


@dataclass(frozen=True)
class DirectFactorization:
    """An internal direct factorization ``parent = left x right``.

    Validated on construction: trivial intersection, orders multiply to the
    parent order, and the factors commute elementwise.  Those make both
    factors normal, so normality is not checked again: |AB| = |A||B| / |A n B|
    = |G| gives G = AB, and conjugation by ab acts on A as conjugation by a,
    since b commutes with A, so it maps A onto A (and B likewise).
    """

    parent: FiniteGroup
    left: Subgroup
    right: Subgroup

    def __post_init__(self):
        p = self.parent
        if self.left.parent is not p or self.right.parent is not p:
            raise StructuralError("factors must be subgroups of the same parent")
        if set(self.left.elements) & set(self.right.elements) != {p.identity}:
            raise StructuralError("factors must intersect trivially")
        if self.left.order * self.right.order != p.order:
            raise StructuralError("factor orders must multiply to the parent order")
        t = p.table
        for a in self.left.elements:
            for b in self.right.elements:
                if t[a][b] != t[b][a]:
                    raise StructuralError(f"factors fail to commute at ({a}, {b})")


@dataclass(frozen=True)
class CommonFactorWitness:
    """A common direct factor shared by two groups.

    ``h_factorization``/``k_factorization`` exhibit each factor with a
    complement, and ``iso_values`` maps the local elements of the extracted
    h-side factor group onto those of the k-side factor group.
    """

    h_factorization: DirectFactorization
    k_factorization: DirectFactorization
    iso_values: tuple[int, ...]

    @property
    def h_factor(self) -> Subgroup:
        return self.h_factorization.left

    @property
    def k_factor(self) -> Subgroup:
        return self.k_factorization.left


# --------------------------------------------------------------------------
# Direct products
# --------------------------------------------------------------------------


def direct_product(*factors: FiniteGroup) -> FiniteGroup:
    """External direct product with factor metadata, one per tuple of factors.

    The factors are kept exactly as given, so a product may itself be a
    factor (a composite block of a matrix).  Elements are numbered mixed-radix
    with the last factor varying fastest; for two factors this is
    (h, k) -> h*|K| + k.  This function is the only code that knows the
    numbering: the product records ``factors`` and ``coords``, where
    ``coords[x]`` is the tuple of factor elements of x, and everything else
    reads those.  A product of groups is a group, so the table is not
    validated again; its identity is the number of the tuple of factor
    identities.  The product is kept on the factor built last (``_product``),
    so every caller asking for the same factors gets the same group, and the
    product goes when that factor does: a product with a table file's group
    is not kept alive by an older catalog atom after the file is rewritten.
    A product of order over ``_PRODUCT_ORDER_LIMIT`` raises ResourceLimitError
    before anything is built.
    """
    if not factors:
        raise ValidationError("direct product needs at least one factor")
    if len(factors) == 1:
        return factors[0]
    order = prod(g.order for g in factors)
    if order > _PRODUCT_ORDER_LIMIT:
        raise ResourceLimitError(
            f"direct product of order {order} exceeds the bound {_PRODUCT_ORDER_LIMIT}"
        )
    return _product(max(factors, key=lambda g: g._built), factors)


@_memoised
def _product(newest: FiniteGroup, factors: tuple[FiniteGroup, ...]) -> FiniteGroup:
    # Fold in one factor at a time: with n = |g|, the pair (x, y) of an
    # element x of the product so far and y of g becomes x*n + y.
    table: list = [(0,)]
    coords: list[tuple[int, ...]] = [()]
    identity = 0
    for g in factors:
        n = g.order
        table = [
            tuple([x * n + y for x in row for y in grow]) for row in table for grow in g.table
        ]
        coords = [c + (y,) for c in coords for y in range(n)]
        identity = identity * n + g.identity
    labels = ["(" + ", ".join(g.labels[c] for g, c in zip(factors, cs)) + ")" for cs in coords]
    name = " x ".join(
        f"({g.name})" if g.factors is not None else g.name for g in factors
    )
    product = FiniteGroup._trusted(tuple(table), identity, name, labels)
    product.factors = factors
    product.coords = tuple(coords)
    return product


# --------------------------------------------------------------------------
# Catalog constructors
# --------------------------------------------------------------------------


def cyclic(n: int) -> FiniteGroup:
    if n < 1:
        raise ParseError(f"cyclic group needs order >= 1, got {n}")
    table = [[(a + b) % n for b in range(n)] for a in range(n)]
    return FiniteGroup(table, name=f"C{n}")


def dihedral(order: int) -> FiniteGroup:
    """Dihedral group of the given (even) order; D6 is isomorphic to S3."""
    if order < 2 or order % 2:
        raise ParseError(f"dihedral group needs an even order >= 2, got {order}")
    m = order // 2
    # Elements 0..m-1 are rotations r^i, m..2m-1 are reflections s*r^i.
    def mul(a: int, b: int) -> int:
        ra, fa = a % m, a >= m
        rb, fb = b % m, b >= m
        if not fa and not fb:
            return (ra + rb) % m
        if not fa and fb:
            return m + (rb - ra) % m
        if fa and not fb:
            return m + (ra + rb) % m
        return (rb - ra) % m

    table = [[mul(a, b) for b in range(order)] for a in range(order)]
    labels = [f"r{i}" for i in range(m)] + [f"sr{i}" for i in range(m)]
    labels[0] = "e"
    return FiniteGroup(table, name=f"D{order}", labels=labels)


def symmetric(n: int) -> FiniteGroup:
    if n < 1:
        raise ParseError(f"symmetric group needs degree >= 1, got {n}")
    perms = sorted(itertools.permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    table = [
        [index[tuple(p[q[i]] for i in range(n))] for q in perms]
        for p in perms
    ]
    labels = ["".join(str(v) for v in p) for p in perms]
    return FiniteGroup(table, name=f"S{n}", labels=labels)


def quaternion8() -> FiniteGroup:
    # Elements: 1, -1, i, -i, j, -j, k, -k.
    labels = ["1", "-1", "i", "-i", "j", "-j", "k", "-k"]
    # Axis products: (axis a) * (axis b) -> (sign, axis) with 0=1, 1=i, 2=j, 3=k.
    axis = {
        (0, 0): (1, 0), (0, 1): (1, 1), (0, 2): (1, 2), (0, 3): (1, 3),
        (1, 0): (1, 1), (1, 1): (-1, 0), (1, 2): (1, 3), (1, 3): (-1, 2),
        (2, 0): (1, 2), (2, 1): (-1, 3), (2, 2): (-1, 0), (2, 3): (1, 1),
        (3, 0): (1, 3), (3, 1): (1, 2), (3, 2): (-1, 1), (3, 3): (-1, 0),
    }

    def mul(a: int, b: int) -> int:
        sa, xa = (-1 if a & 1 else 1), a >> 1
        sb, xb = (-1 if b & 1 else 1), b >> 1
        s, x = axis[(xa, xb)]
        s *= sa * sb
        return (x << 1) | (0 if s > 0 else 1)

    table = [[mul(a, b) for b in range(8)] for a in range(8)]
    return FiniteGroup(table, name="Q8", labels=labels)


def elementary_abelian(p: int, k: int) -> FiniteGroup:
    if p < 2 or k < 1:
        raise ParseError(f"elementary abelian group needs p >= 2 and k >= 1, got E{p}^{k}")
    if any(p % d == 0 for d in range(2, p)):
        raise ParseError(f"elementary abelian group needs a prime p, got E{p}^{k}")
    n = p**k
    digits = [tuple((x // p**i) % p for i in range(k)) for x in range(n)]

    def add(a: int, b: int) -> int:
        return sum(((da + db) % p) * p**i for i, (da, db) in enumerate(zip(digits[a], digits[b])))

    table = [[add(a, b) for b in range(n)] for a in range(n)]
    labels = ["(" + ",".join(str(d) for d in ds) + ")" for ds in digits]
    return FiniteGroup(table, name=f"E{p}^{k}", labels=labels)


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ParseError(f"{path}: {exc.strerror}") from None
    except UnicodeDecodeError:
        raise ParseError(f"{path}: table file is not UTF-8 text") from None


def load_table_file(path: str) -> FiniteGroup:
    """Load a table file (order line, N rows, optional labels: line) as ``@path`` is built."""
    return _atom_group("@" + path)


def _table_from_text(path: str, text: str) -> FiniteGroup:
    lines = [ln.strip() for ln in text.split("\n") if ln.strip()]
    if not lines:
        raise ParseError(f"{path}: empty table file")
    try:
        n = int(lines[0])
    except ValueError:
        raise ParseError(f"{path}: first line must be the order, got {lines[0]!r}") from None
    if n < 1:
        raise ParseError(f"{path}: the order must be positive, got {n}")
    if len(lines) < n + 1:
        raise ParseError(f"{path}: expected {n} table rows, found {len(lines) - 1}")
    table = []
    for i in range(1, n + 1):
        row = lines[i].split()
        if len(row) != n:
            raise ParseError(f"{path}: row {i} has {len(row)} entries, expected {n}")
        try:
            table.append([int(v) for v in row])
        except ValueError:
            raise ParseError(f"{path}: row {i} contains a non-integer entry") from None
    labels = None
    extra = lines[n + 1:]
    if extra:
        if len(extra) != 1 or not extra[0].startswith("labels:"):
            raise ParseError(f"{path}: unexpected trailing content after table rows")
        labels = extra[0][len("labels:"):].split()
        if len(labels) != n:
            raise ParseError(f"{path}: expected {n} labels, got {len(labels)}")
        if len(set(labels)) != n:
            twice = next(s for s in labels if labels.count(s) > 1)
            raise ParseError(f"{path}: label {twice!r} is repeated")
    try:
        return FiniteGroup(table, name=f"@{path}", labels=labels)
    except ValidationError as exc:
        # name the file; a row or column is counted from 1, as above
        if exc.line is None:
            raise ValidationError(f"{path}: {exc}") from None
        kind, i = exc.line
        raise ParseError(f"{path}: {kind} {i + 1} {exc.reason}") from None


def group_from_table(table: Sequence[Sequence[int]], name: str = "") -> FiniteGroup:
    return FiniteGroup(table, name=name)


_ATOM_RE = re.compile(r"^(?:C(\d+)|D(\d+)|S(\d+)|Q8|E(\d+)\^(\d+))$")
# First letter of a catalog atom -> its constructor, called on the atom's numbers.
_ATOMS = {"C": cyclic, "D": dihedral, "S": symmetric, "Q": quaternion8, "E": elementary_abelian}

# Atom -> (its table file's text, or None for a catalog atom; group).  Kept
# here, not on a group through _memoised: the key is a string, and an entry
# is reused only while its table file still holds the same text.
_build_cache: dict[str, tuple[Optional[str], FiniteGroup]] = {}


def _atom_group(atom: str) -> FiniteGroup:
    text = _read_text(atom[1:]) if atom.startswith("@") else None
    cached = _build_cache.get(atom)
    if cached is not None and cached[0] == text:
        return cached[1]
    if text is not None:
        g = _table_from_text(atom[1:], text)
    else:
        m = _ATOM_RE.match(atom)
        if not m:
            raise ParseError(f"unrecognized group atom {atom!r}")
        g = _ATOMS[atom[0]](*(int(d) for d in m.groups() if d is not None))
    _build_cache[atom] = (text, g)
    return g


_PRODUCT_RE = re.compile(r"\s+x\s+")


def _split_atoms(spec: str) -> list[str]:
    """Split a product on each "x" with whitespace on both sides.

    A part that starts with "@" is one path atom, spaces and "x" included.
    Any other part must hold no whitespace and may use the compact form
    "C2xC4".
    """
    s = spec.strip()
    if not s:
        raise ParseError("empty group expression")
    if re.match(r"x\s", s):
        raise ParseError(f"malformed group expression {spec!r}")
    if re.search(r"\sx$", s):
        raise ParseError(f"trailing 'x' in group expression {spec!r}")
    atoms: list[str] = []
    for part in _PRODUCT_RE.split(s):
        if part.startswith("@"):
            atoms.append(part)
        elif any(ch.isspace() for ch in part):
            raise ParseError(f"expected 'x' between atoms in {spec!r}")
        else:
            atoms += part.split("x")
    return atoms


def build_group(spec: str) -> FiniteGroup:
    """Build a group from an expression like ``"C4"`` or ``"S3 x C4"``.

    Each atom's group is kept per atom, so repeated builds return the same
    object; a table file is read on every build, and its kept group is
    returned only while the text is unchanged.  A product expression is the
    ``direct_product`` of its atoms' groups, one factor per atom.
    """
    if not isinstance(spec, str):
        raise ParseError(f"group expression {spec!r} is not a string")
    atoms = _split_atoms(spec)
    if any(not a for a in atoms):
        raise ParseError(f"malformed group expression {spec!r}")
    return direct_product(*[_atom_group(a) for a in atoms])


# The groups the examples revolve around: small cyclics, the three
# nonabelian groups of order at most 8, and enough composite orders to
# exercise common-factor detection.
CATALOG = ("C2", "C3", "C4", "C5", "C6", "C8", "C12", "S3", "D8", "Q8")


def catalog_groups(max_order: Optional[int] = None) -> list[FiniteGroup]:
    """The catalog, built, optionally filtered to orders <= max_order."""
    groups = [build_group(spec) for spec in CATALOG]
    if max_order is not None:
        groups = [g for g in groups if g.order <= max_order]
    return groups


# --------------------------------------------------------------------------
# Isomorphism testing and common factors
# --------------------------------------------------------------------------


def are_isomorphic(g1: FiniteGroup, g2: FiniteGroup) -> Optional[tuple[int, ...]]:
    """An isomorphism g1 -> g2 as a value array, or None.

    After cheap invariant checks (the first is the multiset of pairs of
    element order and class size, which an isomorphism preserves), takes the
    first injective homomorphism of the generator-image search in ``maps``,
    with each generator sent to an element of the same order and class size;
    between groups of equal order it is a bijection.
    """
    from .maps import _candidate_images, _maps_from_generator_images

    if g1.order != g2.order:
        return None
    if g1 is g2:
        return tuple(range(g1.order))
    if (
        sorted(zip(g1.element_orders, g1.class_sizes))
        != sorted(zip(g2.element_orders, g2.class_sizes))
        or g1.is_abelian != g2.is_abelian
        or g1.center().order != g2.center().order
        or g1.derived_subgroup().order != g2.derived_subgroup().order
    ):
        return None
    pools = _candidate_images(g1, g2, None, exact_order=True)
    return next(_maps_from_generator_images(g1, g2, pools, injective=True), None)


@_memoised
def _direct_factors(g: FiniteGroup) -> tuple[DirectFactorization, ...]:
    """Each nontrivial direct factor of g, with its first complement.

    Factors and complements are normal subgroups, taken in the order of
    ``normal_subgroups()``, (order, elements).  Two normal subgroups with
    trivial intersection commute elementwise, so a normal subgroup of the
    complementary order meeting the factor trivially is a complement.
    """
    normals = g.normal_subgroups()
    by_order: dict[int, list[Subgroup]] = {}
    for c in normals:
        by_order.setdefault(c.order, []).append(c)
    out = []
    for x in normals[1:]:
        xs = set(x.elements)
        for c in by_order.get(g.order // x.order, ()):
            if len(xs.intersection(c.elements)) == 1:
                out.append(DirectFactorization(g, x, c))
                break
    return tuple(out)


@_memoised
def _factor_group(g: FiniteGroup, i: int) -> FiniteGroup:
    """The i-th of ``_direct_factors(g)`` as a group, extracted when first compared."""
    return _direct_factors(g)[i].left.as_group()[0]


def common_nontrivial_factor(
    h: FiniteGroup, k: FiniteGroup, central_only: bool = False
) -> Optional[CommonFactorWitness]:
    """Search for a shared nontrivial direct factor, up to isomorphism.

    With ``central_only`` the search is restricted to factors lying inside the
    center of their parent.  Returns the first witness in the order of
    ``_direct_factors`` (h's factor outermost), or None.
    """
    def factors(g: FiniteGroup):
        fs = enumerate(_direct_factors(g))
        return [(i, f) for i, f in fs if not central_only or f.left.is_central()]

    k_facts = factors(k)
    for i, hf in factors(h):
        for j, kf in k_facts:
            if kf.left.order == hf.left.order:
                iso = are_isomorphic(_factor_group(h, i), _factor_group(k, j))
                if iso is not None:
                    return CommonFactorWitness(hf, kf, iso)
    return None
