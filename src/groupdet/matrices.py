"""Square matrices of homomorphisms representing endomorphisms of a direct product.

An ``EndoMatrix`` over factors (H_1, ..., H_n) holds one homomorphism
``entries[i][j]: H_j -> H_i`` per cell, subject to the row condition that
images in the same row commute elementwise.  ``recompose`` turns a matrix
into the endomorphism (x_1, ..., x_n) -> (prod_j entries[i][j](x_j))_i and
``decompose`` inverts that correspondence.  Matrix multiplication is
row-by-column with composition as the product and the pointwise sum as the
addition, accumulated in ascending column order.
"""
from __future__ import annotations

import functools
import itertools
import operator
from collections.abc import Iterable, Sequence
from math import prod
from typing import Optional

from .errors import (
    FactorizationError,
    ParseError,
    PreconditionError,
    ResourceLimitError,
    StructuralError,
)
from .groups import FiniteGroup, _memoised, build_group, direct_product
from .maps import (
    GroupMap,
    _chain_listing,
    _check_commuting,
    _derived_map,
    compose,
    enumerate_autos,
    enumerate_homs,
    identity_map,
    invert,
    is_bijective,
    is_central_automorphism,
    pointwise_diff,
    zero_map,
)

__all__ = [
    "ProductGroup",
    "EndoMatrix",
    "decompose",
    "recompose",
    "matrix_multiply",
    "identity_matrix",
    "in_A",
    "in_Z",
    "enumerate_A",
    "enumerate_Z",
    "enumerate_m_matrices",
    "enumerate_aut_matrices",
    "astruc_factorize",
    "map_to_dict",
    "map_from_dict",
    "matrix_to_dict",
    "matrix_from_dict",
    "DEFAULT_AUT_ENUM_LIMIT",
]

DEFAULT_AUT_ENUM_LIMIT = 64
# enumerate_m_matrices refuses a set of more matrices than this.
_M_MATRIX_LIMIT = 2_000_000
# matrix_multiply refuses matrices over more factors than this: its code has
# n^3 terms (making it took 0.16 s and 36 MB at n = 16, 1.0 s and 270 MB at
# n = 32, on a 2-core x86-64 box with Python 3.11.7).
_MULTIPLY_FACTOR_LIMIT = 16
# Read by the code of _multiplier in place of a memo not yet made; never written.
_NO_MEMO: dict = {}

class ProductGroup:
    """A direct product together with its canonical injections and projections.

    Both are read from ``product.coords``: projection i is coordinate column
    i, and injection i sends y to the element whose coordinate i is y and
    whose other coordinates are the identities of their factors.
    """

    def __init__(self, product: FiniteGroup):
        if product.factors is None:
            raise PreconditionError(
                f"group {product.name!r} was not built as a direct product"
            )
        self.product = product
        self.factors = product.factors
        self.projections = tuple(
            _derived_map(product, f, column, hom=True)
            for f, column in zip(self.factors, zip(*product.coords))
        )
        index = {c: x for x, c in enumerate(product.coords)}
        ids = tuple(f.identity for f in self.factors)
        self.injections = tuple(
            _derived_map(
                f,
                product,
                tuple(index[ids[:i] + (y,) + ids[i + 1:]] for y in range(f.order)),
                hom=True,
            )
            for i, f in enumerate(self.factors)
        )

    @classmethod
    def of(cls, *factors: FiniteGroup) -> "ProductGroup":
        """The one ``ProductGroup`` of ``direct_product(*factors)``, composite
        blocks kept whole (``_product_group``)."""
        return _product_group(direct_product(*factors))

    @property
    def n(self) -> int:
        return len(self.factors)

    def __repr__(self) -> str:
        return f"ProductGroup({' x '.join(f.name for f in self.factors)})"


@_memoised
def _product_group(product: FiniteGroup) -> ProductGroup:
    """The ``ProductGroup`` of ``product``, kept on it."""
    return ProductGroup(product)


def _product_of_composites(
    g: FiniteGroup, pairs: Sequence[tuple[Sequence[int], Sequence[int]]]
) -> tuple[int, ...]:
    """x -> prod_k outer_k[inner_k[x]] in g, multiplied in the order given.

    Each pair (outer, inner) holds two value tuples; every inner has the same
    domain, and every outer maps into g.  No commutation is checked: callers
    pass terms read along one row of a valid matrix, whose images commute.
    They are ``recompose`` and the back-substitution of
    ``determinant.invert_via_det``, which sums along rows of its chain states
    and of their inverses.
    """
    t = g.table
    (outer, inner), *rest = pairs
    out = [outer[x] for x in inner]
    for outer, inner in rest:
        out = [t[a][outer[x]] for a, x in zip(out, inner)]
    return tuple(out)


def _images_commute(a: GroupMap, b: GroupMap) -> bool:
    t = a.codomain.table
    return all(t[x][y] == t[y][x] for x in a.image() for y in b.image())


class EndoMatrix:
    """An n x n matrix of homomorphisms with commuting row images.

    Construction validates the shape, the entry domains and codomains, the
    homomorphism property of every entry, and the row commutation condition.
    Matrices that are valid by how they were made (enumerations, products,
    decompositions, inverses) come from ``_built_matrix`` instead.
    """

    __slots__ = ("factors", "entries")

    def __init__(
        self,
        factors: Sequence[FiniteGroup],
        entries: Sequence[Sequence[GroupMap]],
    ):
        facs = tuple(factors)
        n = len(facs)
        rows = tuple(tuple(row) for row in entries)
        if len(rows) != n or any(len(r) != n for r in rows):
            raise StructuralError(f"expected a {n} x {n} matrix of maps")
        self.factors = facs
        self.entries = rows
        for i in range(n):
            for j in range(n):
                e = rows[i][j]
                if e.domain is not facs[j] or e.codomain is not facs[i]:
                    raise StructuralError(
                        f"entry ({i}, {j}) maps {e.domain.name} -> {e.codomain.name}, "
                        f"expected {facs[j].name} -> {facs[i].name}"
                    )
                if not e.is_homomorphism():
                    raise StructuralError(f"entry ({i}, {j}) is not a homomorphism")
        for i in range(n):
            for j in range(n):
                for k in range(j + 1, n):
                    if not _images_commute(rows[i][j], rows[i][k]):
                        raise StructuralError(
                            f"row {i} images at columns {j} and {k} do not commute"
                        )

    @property
    def n(self) -> int:
        return len(self.factors)

    def key(self) -> tuple:
        return tuple(e.values for row in self.entries for e in row)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, EndoMatrix)
            and self.factors == other.factors
            and self.key() == other.key()
        )

    def __hash__(self) -> int:
        return hash((tuple(id(f) for f in self.factors), self.key()))

    def __repr__(self) -> str:
        names = " x ".join(f.name for f in self.factors)
        return f"EndoMatrix({names}, entries={[[list(e.values) for e in row] for row in self.entries]})"


def _built_matrix(factors: tuple, rows: tuple) -> EndoMatrix:
    """An ``EndoMatrix`` over a tuple of factors and a tuple of row tuples, unchecked:
    only for matrices valid by how they were made (see each caller)."""
    m = object.__new__(EndoMatrix)
    m.factors = factors
    m.entries = rows
    return m


def decompose(phi: GroupMap, pg: Optional[ProductGroup] = None) -> EndoMatrix:
    """Split an endomorphism of a direct product into its matrix of components."""
    if pg is None:
        if phi.domain is not phi.codomain:
            raise PreconditionError("decompose needs an endomorphism")
        pg = _product_group(phi.domain)
    if phi.domain is not pg.product or phi.codomain is not pg.product:
        raise PreconditionError("map is not an endomorphism of the given product")
    if not phi.is_homomorphism():
        raise PreconditionError("decompose needs a homomorphism")
    v = phi.values
    facs = pg.factors
    rows = tuple(
        tuple([
            _derived_map(facs[j], facs[i], tuple(proj.values[v[x]] for x in inj.values), hom=True)
            for j, inj in enumerate(pg.injections)
        ])
        for i, proj in enumerate(pg.projections)
    )
    # entry (i, j) is pi_i . phi . iota_j, a homomorphism; a row commutes because
    # elements of different factors commute in the product and phi keeps them so
    return _built_matrix(facs, rows)


def recompose(m: EndoMatrix, pg: Optional[ProductGroup] = None) -> GroupMap:
    """The endomorphism (x_1, ..., x_n) -> (prod_j m[i][j](x_j))_i."""
    if pg is None:
        pg = ProductGroup.of(*m.factors)
    if pg.factors != m.factors:
        raise StructuralError("product group does not match the matrix factors")
    # x -> prod_i iota_i(prod_j m[i][j](pi_j(x))), from value tuples alone
    blocks = [
        (inj.values, _product_of_composites(
            f, [(e.values, p.values) for e, p in zip(row, pg.projections)]
        ))
        for f, inj, row in zip(pg.factors, pg.injections, m.entries)
    ]
    prod = pg.product
    return _derived_map(prod, prod, _product_of_composites(prod, blocks), hom=True)


def identity_matrix(factors: Sequence[FiniteGroup]) -> EndoMatrix:
    facs = tuple(factors)
    rows = tuple(
        tuple([identity_map(f) if i == j else zero_map(facs[j], f) for j in range(len(facs))])
        for i, f in enumerate(facs)
    )
    return _built_matrix(facs, rows)


@_memoised
def _intern_table(dom: FiniteGroup, cod: FiniteGroup) -> dict:
    """The one map per value tuple that ``matrix_multiply`` has formed dom -> cod."""
    return {}


def _interned(dom: FiniteGroup, cod: FiniteGroup, values: tuple, hom: Optional[bool]) -> GroupMap:
    table = _intern_table(dom, cod)
    f = table.get(values)
    if f is None:
        f = table[values] = _derived_map(dom, cod, values, hom)
    return f


def _composite(f: GroupMap, g: GroupMap) -> GroupMap:
    """The composite x -> f(g(x)) of two matrix entries, kept on f under g's id;
    matrix entries are homomorphisms, and so is the composite."""
    fv = f.values
    f._composites = memo = f._composites or {}
    memo[g._id] = h = _interned(g.domain, f.codomain, tuple([fv[v] for v in g.values]), True)
    return h


def _sum(f: GroupMap, g: GroupMap) -> GroupMap:
    """The pointwise sum x -> f(x) * g(x), kept on f under g's id once its
    images are checked to commute; a sum that raises is not kept."""
    cod, fv, gv = f.codomain, f.values, g.values
    _check_commuting(cod, fv, gv)
    t = cod.table
    f._sums = memo = f._sums or {}
    memo[g._id] = h = _interned(f.domain, cod, tuple([t[a][b] for a, b in zip(fv, gv)]), None)
    return h


def matrix_multiply(a: EndoMatrix, b: EndoMatrix) -> EndoMatrix:
    """Row-by-column product; equals decompose(recompose(a) after recompose(b)).

    The factors commute because each term's image sits inside the image of an
    entry of ``a``, and row images of ``a`` commute columnwise; the product of
    two valid matrices is again valid, so the result comes from
    ``_built_matrix`` unchecked.

    Each composite and sum is kept on its left operand, keyed by the right
    operand's id (``GroupMap._id``): it is computed, and for a sum its
    commutation checked, the first time that pair is seen (``_composite``
    and ``_sum``).  Every map they form goes through one intern table per
    (domain, codomain), kept on the domain group, so value-equal results are
    one object and the sums of different products share their memos.  The
    public ``compose`` and ``pointwise_sum`` keep no memo.  The work runs as
    straight-line code made once per number of factors (``_multiplier``),
    which is at most ``_MULTIPLY_FACTOR_LIMIT``.
    """
    factors = a.factors
    if factors != b.factors:
        raise StructuralError("matrix factors do not match")
    return _multiplier(len(factors))(factors, a.entries, b.entries)


@functools.cache
def _multiplier(n: int):
    """The n x n product as straight-line code: a function of (factors, a
    rows, b rows), generated once per n.

    Each term and each partial sum is one statement that reads the left
    operand's memo and calls ``_composite`` or ``_sum`` only on a miss; for
    n = 2, cell (0, 1) is

        c0_1 = (a0_0._composites or _NO_MEMO).get(b0_1._id) or _composite(a0_0, b0_1)
        t = (a0_1._composites or _NO_MEMO).get(b1_1._id) or _composite(a0_1, b1_1)
        c0_1 = (c0_1._sums or _NO_MEMO).get(t._id) or _sum(c0_1, t)

    with ``_NO_MEMO`` standing in for a memo not yet made.  So cells are made
    row by row, terms summed in ascending column order and each composite
    formed before the sum that takes it, as a loop would; the loop's
    indexing and list building cost about as much as the memo look-ups.
    ``_composite`` and ``_sum`` are read as module globals at each miss.
    The code depends on n alone, so it never goes stale.
    """
    if n > _MULTIPLY_FACTOR_LIMIT:
        raise ResourceLimitError(
            f"{n} factors exceed the matrix product's bound {_MULTIPLY_FACTOR_LIMIT}"
        )
    span = range(n)

    def tup(items) -> str:
        return "(" + "".join(f"{x}, " for x in items) + ")"

    def memo(out: str, kind: str, f: str, g: str) -> str:
        return f"    {out} = ({f}._{kind}s or _NO_MEMO).get({g}._id) or _{kind}({f}, {g})"

    lines = [
        "def multiply(factors, a, b):",
        f"    {tup(tup(f'a{i}_{k}' for k in span) for i in span)} = a",
        f"    {tup(tup(f'b{i}_{k}' for k in span) for i in span)} = b",
    ]
    for i in span:
        for j in span:
            lines.append(memo(f"c{i}_{j}", "composite", f"a{i}_0", f"b0_{j}"))
            for k in span[1:]:
                lines.append(memo("t", "composite", f"a{i}_{k}", f"b{k}_{j}"))
                lines.append(memo(f"c{i}_{j}", "sum", f"c{i}_{j}", "t"))
    cells = tup(tup(f"c{i}_{j}" for j in span) for i in span)
    lines.append(f"    return _built_matrix(factors, {cells})")
    namespace: dict = {}
    exec("\n".join(lines) + "\n", globals(), namespace)
    return namespace["multiply"]


def in_A(m: EndoMatrix) -> bool:
    """Diagonal entries bijective, off-diagonal images inside the codomain center."""
    n = m.n
    for i in range(n):
        if not is_bijective(m.entries[i][i]):
            return False
    for i in range(n):
        center = m.factors[i].center_set()
        for j in range(n):
            if i != j and not m.entries[i][j].image() <= center:
                return False
    return True


def in_Z(m: EndoMatrix) -> bool:
    """Like in_A but with central automorphisms on the diagonal (2 x 2 only)."""
    if m.n != 2:
        raise PreconditionError("in_Z is defined for 2 x 2 matrices")
    return in_A(m) and all(is_central_automorphism(m.entries[i][i]) for i in range(2))


def _check_enum_bound(factors: Sequence[FiniteGroup], max_product_order: int) -> None:
    total = prod(f.order for f in factors)
    if total > max_product_order:
        raise ResourceLimitError(
            f"product order {total} exceeds the enumeration bound {max_product_order}"
        )


def _matrix_pools(
    factors: Sequence[FiniteGroup], central_diagonal: bool
) -> list[list[tuple[GroupMap, ...]]]:
    """Per-cell hom-set pools: automorphisms on the diagonal, center-valued off it.

    With ``central_diagonal`` the diagonal holds the central automorphisms,
    listed from their own stabiliser chain (``maps._chain_listing``).
    """
    n = len(factors)
    pools: list[list[tuple[GroupMap, ...]]] = []
    for i in range(n):
        row = []
        for j in range(n):
            if i == j:
                row.append(_chain_listing(factors[i], central_diagonal))
            else:
                row.append(
                    enumerate_homs(factors[j], factors[i], restrict_codomain=factors[i].center())
                )
        pools.append(row)
    return pools


class _MatrixSet(Sequence):
    """A read-only sequence of matrices, each built when it is asked for.

    It holds the factors and, per row, a tuple of the row tuples that row may
    take; the members are every choice of one row tuple per row, in
    ``itertools.product`` order (last row fastest).  Index i is decoded in
    that mixed radix, so ``s[i]`` costs one ``_built_matrix`` and no member
    is kept: the set takes the memory of its row choices, not of its
    members.  A slice is a tuple.  Every row tuple must be valid by how it
    was made (see each caller), since the members skip the checks of
    ``EndoMatrix``.
    """

    __slots__ = ("_factors", "_rows", "_len")

    def __init__(self, factors: tuple, rows: Iterable[Iterable[tuple]]):
        self._factors = factors
        self._rows = tuple(tuple(r) for r in rows)
        self._len = prod(len(r) for r in self._rows)

    def __len__(self) -> int:
        return self._len

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(self[j] for j in range(*i.indices(self._len)))
        i = operator.index(i)
        if i < 0:
            i += self._len
        if not 0 <= i < self._len:
            raise IndexError(f"matrix set index out of range for {self._len} matrices")
        picked = []
        for choices in reversed(self._rows):
            i, r = divmod(i, len(choices))
            picked.append(choices[r])
        return _built_matrix(self._factors, tuple(reversed(picked)))

    def __iter__(self):
        facs = self._factors
        return (_built_matrix(facs, rows) for rows in itertools.product(*self._rows))


def _pool_matrices(
    factors: Sequence[FiniteGroup], max_product_order: int, central_diagonal: bool
) -> Sequence[EndoMatrix]:
    """Every matrix with one entry from each pool of ``_matrix_pools``, in order,
    as a ``_MatrixSet``.

    Each pool holds homomorphisms with the cell's domain and codomain, and off
    the diagonal their images are central, so every row commutes and the
    matrices come from ``_built_matrix`` unchecked.
    """
    facs = tuple(factors)
    _check_enum_bound(facs, max_product_order)
    pools = _matrix_pools(facs, central_diagonal)
    return _MatrixSet(facs, [itertools.product(*row) for row in pools])


def enumerate_A(
    factors: Sequence[FiniteGroup], max_product_order: int = DEFAULT_AUT_ENUM_LIMIT
) -> Sequence[EndoMatrix]:
    """All matrices with automorphism diagonal and center-valued off-diagonal,
    as a read-only sequence whose members are built on access."""
    return _pool_matrices(factors, max_product_order, central_diagonal=False)


def enumerate_Z(
    factors: Sequence[FiniteGroup], max_product_order: int = DEFAULT_AUT_ENUM_LIMIT
) -> Sequence[EndoMatrix]:
    """Like enumerate_A with central automorphisms on the diagonal."""
    return _pool_matrices(factors, max_product_order, central_diagonal=True)


def _commuting_rows(facs: tuple[FiniteGroup, ...], target: FiniteGroup) -> list[tuple]:
    """Every row of homomorphisms facs[j] -> target whose images pairwise
    commute, in ``itertools.product`` order.

    Partial rows are extended one column at a time, so a row is dropped at
    its first clash, and rows share the images of their common prefix: whether
    a new image commutes with the images so far is decided once per (tuple of
    images so far, image).
    """
    t = target.table
    commutes: dict[tuple, bool] = {}
    rows: list[tuple[tuple, tuple]] = [((), ())]  # (row so far, its images)
    for f in facs:
        homs = [(hom, hom.image()) for hom in enumerate_homs(f, target)]
        longer = []
        for row, images in rows:
            for hom, im in homs:
                key = images, im
                ok = commutes.get(key)
                if ok is None:
                    ok = commutes[key] = all(
                        t[x][y] == t[y][x] for seen in images for x in seen for y in im
                    )
                if ok:
                    longer.append((row + (hom,), images + (im,)))
        rows = longer
    return [row for row, _ in rows]


def enumerate_m_matrices(factors: Sequence[FiniteGroup]) -> Sequence[EndoMatrix]:
    """Every matrix of homomorphisms satisfying the row commutation condition,
    as a read-only sequence whose members are built on access.

    Rows are filtered independently by ``_commuting_rows`` (the condition only
    couples entries within a row), and the set holds only those row choices:
    its members are their combinations in ``itertools.product`` order.  ``_M_MATRIX_LIMIT`` guards
    against runaway products.  Every entry comes from ``enumerate_homs`` with
    the right domain and codomain, and every row passed the commutation
    filter, so the matrices come from ``_built_matrix`` unchecked.
    """
    facs = tuple(factors)
    mats = _MatrixSet(facs, [_commuting_rows(facs, target) for target in facs])
    if len(mats) > _M_MATRIX_LIMIT:
        raise ResourceLimitError(f"{len(mats)} matrices exceed the bound {_M_MATRIX_LIMIT}")
    return mats


def enumerate_aut_matrices(
    pg: ProductGroup, max_product_order: int = DEFAULT_AUT_ENUM_LIMIT
) -> tuple[EndoMatrix, ...]:
    """Decompose every automorphism of the product, in canonical order."""
    _check_enum_bound(pg.factors, max_product_order)
    return tuple(decompose(f, pg) for f in enumerate_autos(pg.product))


def astruc_factorize(m: EndoMatrix) -> tuple[EndoMatrix, EndoMatrix, EndoMatrix, EndoMatrix]:
    """Write a 2 x 2 member of A as diagonal * upper * lower * diagonal.

    Returns (d1, u, l, d2) with  m = d1 * u * l * d2, where d1 carries the
    alpha pivot folded with the unitriangular correction, u is upper
    unitriangular, l is lower unitriangular and d2 carries the delta pivot.
    Raises FactorizationError when the correction map is not bijective, which
    signals that A fails to be closed under multiplication for this pair.
    """
    if m.n != 2:
        raise PreconditionError("factorization is defined for 2 x 2 matrices")
    if not in_A(m):
        raise PreconditionError("factorization needs diagonal automorphisms and central off-diagonal images")
    h, k = m.factors
    alpha, beta = m.entries[0]
    gamma, delta = m.entries[1]
    beta_hat = compose(invert(alpha), compose(beta, invert(delta)))
    # x -> x * (beta_hat(gamma(x)))^-1
    correction = pointwise_diff(identity_map(h), compose(beta_hat, gamma), require_commuting=True)
    if not is_bijective(correction):
        raise FactorizationError(
            "unitriangular correction 1 - beta*gamma is not bijective; "
            "A is not multiplicatively closed for this pair"
        )
    id_h, id_k = identity_map(h), identity_map(k)
    zero_hk = zero_map(k, h)
    zero_kh = zero_map(h, k)
    d1 = EndoMatrix((h, k), [[compose(alpha, correction), zero_hk], [zero_kh, id_k]])
    u = EndoMatrix((h, k), [[id_h, compose(invert(correction), beta_hat)], [zero_kh, id_k]])
    l = EndoMatrix((h, k), [[id_h, zero_hk], [gamma, id_k]])
    d2 = EndoMatrix((h, k), [[id_h, zero_hk], [zero_kh, delta]])
    product = matrix_multiply(matrix_multiply(matrix_multiply(d1, u), l), d2)
    if product != m:
        raise FactorizationError("factorization failed to recompose the input")
    return d1, u, l, d2


# --------------------------------------------------------------------------
# JSON payloads
# --------------------------------------------------------------------------


def map_to_dict(f: GroupMap) -> dict:
    return {
        "domain": f.domain.name,
        "codomain": f.codomain.name,
        "values": list(f.values),
    }


def _fields(d, kind: str, names: tuple[str, ...]) -> tuple:
    """The named fields of a JSON object payload, or ParseError."""
    if not isinstance(d, dict):
        raise ParseError(f"{kind} payload must be an object, not {type(d).__name__}")
    try:
        return tuple(d[name] for name in names)
    except KeyError as exc:
        raise ParseError(f"{kind} payload missing field {exc}") from None


def map_from_dict(d: dict) -> GroupMap:
    domain, codomain, values = _fields(d, "map", ("domain", "codomain", "values"))
    domain, codomain = build_group(domain), build_group(codomain)
    if not isinstance(values, (list, tuple)):
        raise ParseError("map payload 'values' must be a list")
    for v in values:
        if not isinstance(v, int) or isinstance(v, bool):
            raise ParseError(f"map payload value {v!r} is not an integer")
    return GroupMap(domain, codomain, values)


def matrix_to_dict(m: EndoMatrix) -> dict:
    return {
        "factors": [f.name for f in m.factors],
        "entries": [[map_to_dict(e) for e in row] for row in m.entries],
    }


def matrix_from_dict(d: dict) -> EndoMatrix:
    names, entries_payload = _fields(d, "matrix", ("factors", "entries"))
    lists = (list, tuple)
    rows = isinstance(entries_payload, lists) and all(isinstance(r, lists) for r in entries_payload)
    if not (rows and isinstance(names, lists)):
        raise ParseError("matrix payload 'factors' must be a list, 'entries' a list of rows")
    factors = tuple(build_group(s) for s in names)
    n = len(factors)
    if len(entries_payload) != n or any(len(r) != n for r in entries_payload):
        raise ParseError(f"matrix payload must contain {n} x {n} entries")
    entries = []
    for i in range(n):
        row = []
        for j in range(n):
            f = map_from_dict(entries_payload[i][j])
            if f.domain is not factors[j] or f.codomain is not factors[i]:
                raise ParseError(
                    f"entry ({i}, {j}) declares {f.domain.name} -> {f.codomain.name}, "
                    f"expected {factors[j].name} -> {factors[i].name}"
                )
            row.append(f)
        entries.append(row)
    return EndoMatrix(factors, entries)
