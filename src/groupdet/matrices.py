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

import itertools
from math import prod
from typing import Optional, Sequence

from .errors import (
    FactorizationError,
    ParseError,
    PreconditionError,
    ResourceLimitError,
    StructuralError,
    ValidationError,
)
from .groups import FiniteGroup, _memoised, build_group, direct_product
from .maps import (
    GroupMap,
    _chain_listing,
    _derived_map,
    compose,
    enumerate_autos,
    enumerate_homs,
    identity_map,
    invert,
    is_bijective,
    is_central_automorphism,
    pointwise_diff,
    pointwise_sum,
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
# enumerate_m_matrices refuses to build more matrices than this.
_M_MATRIX_LIMIT = 2_000_000

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
        """Product over exactly these factors, composite blocks kept whole.

        One per tuple of factors, kept on the first factor (``_product_over``).
        """
        if not factors:
            raise ValidationError("direct product needs at least one factor")
        return _product_over(factors[0], factors)

    @property
    def n(self) -> int:
        return len(self.factors)

    def __repr__(self) -> str:
        return f"ProductGroup({' x '.join(f.name for f in self.factors)})"


@_memoised
def _product_over(first: FiniteGroup, factors: tuple[FiniteGroup, ...]) -> ProductGroup:
    """``ProductGroup`` over ``factors``, kept on ``first``, which is ``factors[0]``."""
    return ProductGroup(direct_product(*factors))


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
        pg = ProductGroup(phi.domain)
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
def _entry_composite(dom, mid, cod, mid_b, fv, gv) -> GroupMap:
    """The composite x -> fv[gv[x]] of matrix entries f: mid -> cod and g: dom -> mid_b,
    given by their values; matrix entries are homomorphisms, and so is the composite."""
    return _derived_map(dom, cod, tuple([fv[v] for v in gv]), hom=True)


@_memoised
def _entry_sum(dom, cod, dom_b, cod_b, fv, gv) -> GroupMap:
    """pointwise_sum(f, g), commutation checked, for f: dom -> cod and g: dom_b -> cod_b."""
    return pointwise_sum(
        _derived_map(dom, cod, fv), _derived_map(dom_b, cod_b, gv), require_commuting=True
    )


def matrix_multiply(a: EndoMatrix, b: EndoMatrix) -> EndoMatrix:
    """Row-by-column product; equals decompose(recompose(a) after recompose(b)).

    The factors commute because each term's image sits inside the image of an
    entry of ``a``, and row images of ``a`` commute columnwise; the product of
    two valid matrices is again valid, so the result comes from
    ``_built_matrix`` unchecked.

    Composites and sums are memoised on their domain group (``_entry_composite``
    and ``_entry_sum``), keyed by the operands' groups and value tuples: a
    pair is computed, and for a sum its commutation checked, the first time
    it is seen.  The public ``compose`` and ``pointwise_sum`` keep no memo.
    """
    if a.factors != b.factors:
        raise StructuralError("matrix factors do not match")
    n = a.n
    rows = []
    for a_row in a.entries:
        row = []
        for j in range(n):
            f, g = a_row[0], b.entries[0][j]
            acc = _entry_composite(g.domain, f.domain, f.codomain, g.codomain, f.values, g.values)
            for k in range(1, n):
                f, g = a_row[k], b.entries[k][j]
                t = _entry_composite(g.domain, f.domain, f.codomain, g.codomain, f.values, g.values)
                acc = _entry_sum(acc.domain, acc.codomain, t.domain, t.codomain, acc.values, t.values)
            row.append(acc)
        rows.append(tuple(row))
    return _built_matrix(a.factors, tuple(rows))


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


def _pool_matrices(
    factors: Sequence[FiniteGroup], max_product_order: int, central_diagonal: bool
) -> tuple[EndoMatrix, ...]:
    """Every matrix with one entry from each pool of ``_matrix_pools``, in order.

    Each pool holds homomorphisms with the cell's domain and codomain, and off
    the diagonal their images are central, so every row commutes and the
    matrices come from ``_built_matrix`` unchecked.
    """
    facs = tuple(factors)
    _check_enum_bound(facs, max_product_order)
    n = len(facs)
    pools = _matrix_pools(facs, central_diagonal)
    return tuple(
        _built_matrix(facs, tuple([combo[i * n : (i + 1) * n] for i in range(n)]))
        for combo in itertools.product(*(cell for row in pools for cell in row))
    )


def enumerate_A(
    factors: Sequence[FiniteGroup], max_product_order: int = DEFAULT_AUT_ENUM_LIMIT
) -> tuple[EndoMatrix, ...]:
    """All matrices with automorphism diagonal and center-valued off-diagonal."""
    return _pool_matrices(factors, max_product_order, central_diagonal=False)


def enumerate_Z(
    factors: Sequence[FiniteGroup], max_product_order: int = DEFAULT_AUT_ENUM_LIMIT
) -> tuple[EndoMatrix, ...]:
    """Like enumerate_A with central automorphisms on the diagonal."""
    return _pool_matrices(factors, max_product_order, central_diagonal=True)


def enumerate_m_matrices(factors: Sequence[FiniteGroup]) -> tuple[EndoMatrix, ...]:
    """Every matrix of homomorphisms satisfying the row commutation condition.

    Rows are filtered independently (the condition only couples entries within
    a row), then combined.  ``_M_MATRIX_LIMIT`` guards against runaway products.
    Every entry comes from ``enumerate_homs`` with the right domain and
    codomain, and every row passed the commutation filter, so the matrices
    come from ``_built_matrix`` unchecked, their rows being the tuples that
    ``itertools.product`` yields.
    """
    facs = tuple(factors)
    n = len(facs)
    row_choices = [
        [
            combo
            for combo in itertools.product(*(enumerate_homs(f, target) for f in facs))
            if all(_images_commute(combo[a], combo[b]) for a in range(n) for b in range(a + 1, n))
        ]
        for target in facs
    ]
    total = prod(len(rows) for rows in row_choices)
    if total > _M_MATRIX_LIMIT:
        raise ResourceLimitError(f"{total} matrices exceed the bound {_M_MATRIX_LIMIT}")
    return tuple(_built_matrix(facs, rows) for rows in itertools.product(*row_choices))


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


def map_from_dict(d: dict) -> GroupMap:
    try:
        domain = build_group(d["domain"])
        codomain = build_group(d["codomain"])
        values = d["values"]
    except KeyError as exc:
        raise ParseError(f"map payload missing field {exc}") from None
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
    try:
        factors = tuple(build_group(s) for s in d["factors"])
        entries_payload = d["entries"]
    except KeyError as exc:
        raise ParseError(f"matrix payload missing field {exc}") from None
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
