"""Comparisons between Aut(H x K) and the matrix sets A and Z.

Everything here works at the level of decomposed matrices: an automorphism of
the product and its matrix are identified, so "Aut equals A" and "Aut_c
equals Z" are set equalities, decided by one counting routine that lists
neither side.  The module also packages two constructions
used as standing counterexamples: the swap-style automorphism built from a
common direct factor (which always escapes A) and the Q8/C2 pair of
unitriangular matrices that fail to commute.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass
from itertools import islice

from .determinant import invert_via_det
from .errors import PreconditionError, StructuralError
from .groups import (
    DirectFactorization,
    FiniteGroup,
    build_group,
    common_nontrivial_factor,
)
from .maps import (
    GroupMap,
    _chain_order,
    _chain_products,
    _derived_map,
    _interned,
    _inverse,
    compose,
    enumerate_homs,
    identity_map,
    is_bijective,
    negate,
    zero_map,
)
from .matrices import (
    DEFAULT_AUT_ENUM_LIMIT,
    EndoMatrix,
    ProductGroup,
    _built_matrix,
    _check_enum_bound,
    decompose,
    enumerate_A,
    identity_matrix,
    in_A,
    in_Z,
    matrix_multiply,
    matrix_to_dict,
    recompose,
)

__all__ = [
    "AutComparison",
    "SemidirectReport",
    "compare_aut_vs_A",
    "compare_autc_vs_Z",
    "verify_stem_semidirect",
    "q8_noncommuting_witness",
    "lemcomm_witness",
]

WITNESS_CAP = 8


@dataclass(frozen=True)
class AutComparison:
    """Two-sided comparison of an automorphism group with a matrix set.

    ``violating_matrices`` holds up to WITNESS_CAP witnesses per direction:
    under "set_minus_aut" the set members that fail to be automorphisms, under
    "aut_minus_set" the automorphisms whose matrices fall outside the set.
    """

    aut_order: int
    a_order: int
    a_subset_aut: bool
    aut_subset_a: bool
    violating_matrices: tuple[tuple[EndoMatrix, ...], tuple[EndoMatrix, ...]]

    def __post_init__(self):
        if self.a_subset_aut and self.aut_subset_a and self.aut_order != self.a_order:
            raise StructuralError("mutual inclusion with different orders")

    @property
    def equal(self) -> bool:
        return self.a_subset_aut and self.aut_subset_a

    def as_dict(self) -> dict:
        set_minus_aut, aut_minus_set = self.violating_matrices
        return {
            "aut_order": self.aut_order,
            "a_order": self.a_order,
            "a_subset_aut": self.a_subset_aut,
            "aut_subset_a": self.aut_subset_a,
            "equal": self.equal,
            "set_minus_aut": [matrix_to_dict(m) for m in set_minus_aut],
            "aut_minus_set": [matrix_to_dict(m) for m in aut_minus_set],
        }


def _set_order(h: FiniteGroup, k: FiniteGroup, central: bool) -> tuple[int, int]:
    """|diagonal| and the order of A, or of Z (``central``): see ``_counted_comparison``."""
    diagonal = _chain_order(h, central) * _chain_order(k, central)
    off = len(enumerate_homs(k, h, restrict_codomain=h.center()))
    return diagonal, diagonal * off * len(enumerate_homs(h, k, restrict_codomain=k.center()))


def _failing_pairs(h: FiniteGroup, k: FiniteGroup):
    """The (xi, mu) in Hom(k, Z(h)) x Hom(h, Z(k)) with 1 + xi.mu not bijective, in order.

    1 + xi.mu is an endomorphism, as xi.mu has central image, so it fails iff
    xi(mu(x)) = x^-1 for some x != 1, an x in Z(h).  One pass over the mu
    collects, for each y = mu(x), the x^-1 that xi must not send y to.  A xi
    that sends no y to one of its x^-1 fails with no mu, at one lookup per y;
    only the xi that fail somewhere loop over the mu.  As xi -> xi^-1
    permutes Hom(k, Z(h)) and (xi^-1).mu = -(xi.mu), the maps 1 + xi.mu are
    the maps 1 - xi.mu.
    """
    mus = enumerate_homs(h, k, restrict_codomain=k.center())
    zh = [x for x in h.center().elements if x != h.identity]
    avoid: dict[int, set[int]] = {}
    for x in zh:
        for y in {mu.values[x] for mu in mus}:
            avoid.setdefault(y, set()).add(h.inverse[x])
    for xi in enumerate_homs(k, h, restrict_codomain=h.center()):
        xv = xi.values
        if any(xv[y] in xs for y, xs in avoid.items()):
            for mu in mus:
                if any(xv[mu.values[x]] == h.inverse[x] for x in zh):
                    yield xi, mu


def _counted_comparison(
    h: FiniteGroup, k: FiniteGroup, max_product_order: int, central: bool
) -> AutComparison:
    """Decide both inclusions between Aut(H x K) and A, or Aut_c(H x K) and Z.

    A has automorphisms on the diagonal, Z (``central``) central ones, read
    from the chain of Aut or Aut_c (``_aut_chain``); both have Hom(k, Z(h))
    and Hom(h, Z(k)) off it, and the set's order is the four pool sizes'
    product.  A member [[lam, xi'], [mu', nu]] is an automorphism iff
    det_h = lam - xi'.nu^-1.mu' is bijective.  Automorphisms keep the centre,
    so xi' = lam.xi^-1 and mu' = nu.mu run over the hom sets once as xi and
    mu do, and det_h = lam.(1 + xi.mu): |set minus Aut| is |diagonal| times
    the number of ``_failing_pairs``, for A and Z alike.

    The set is inside Aut iff no pair fails; Aut is inside A iff
    |A n Aut| = |Aut(H x K)|.  A member of Z that is an automorphism is
    central, as (h, k) -> (lam(h) h^-1 xi'(k), mu'(h) nu(k) k^-1) lies in
    Z(H) x Z(K), so Aut_c is inside Z iff |Z n Aut| = |Aut_c(H x K)|.  The
    chains give both orders; nothing is listed.

    Witnesses, up to WITNESS_CAP per side: ``set_minus_aut`` holds
    [[lam, lam.xi^-1], [nu.mu, nu]] over the failing (xi, mu) in order,
    then lam, then nu fastest, lam and nu the interned maps of the chain
    products (members of the set by construction, so built unchecked);
    ``aut_minus_set`` holds the members of the chain of H x K (level 0
    fastest) outside the set, each made as a map that is not kept and
    decomposed one at a time until all of them, or WITNESS_CAP, are found.
    """
    _check_enum_bound((h, k), max_product_order)
    pg = ProductGroup.of(h, k)

    def autos(g: FiniteGroup):
        return (_interned(g, g, v, True) for v in _chain_products(g, central))

    diagonal, set_order = _set_order(h, k, central)
    failing = _failing_pairs(h, k)
    first = list(islice(failing, WITNESS_CAP))
    n_failing = len(first) + sum(1 for _ in failing)
    set_minus_aut = tuple(islice((
        _built_matrix((h, k), ((lam, compose(lam, negate(xi))), (compose(nu, mu), nu)))
        for xi, mu in first for lam in autos(h) for nu in autos(k)
    ), WITNESS_CAP))
    in_both = set_order - diagonal * n_failing
    p = pg.product
    aut = _chain_order(p, central)
    member = in_Z if central else in_A
    chain = (decompose(_derived_map(p, p, v, hom=True), pg) for v in _chain_products(p, central))
    aut_minus_set = tuple(islice(
        (m for m in chain if not member(m)), min(WITNESS_CAP, aut - in_both)
    ))
    return AutComparison(
        aut_order=aut,
        a_order=set_order,
        a_subset_aut=not first,
        aut_subset_a=in_both == aut,
        violating_matrices=(set_minus_aut, aut_minus_set),
    )


def compare_aut_vs_A(
    h: FiniteGroup, k: FiniteGroup, max_product_order: int = DEFAULT_AUT_ENUM_LIMIT
) -> AutComparison:
    """Decide both inclusions between Aut(H x K) and A by counting, with witnesses.

    ``classify_pair`` reaches the same verdict without witnesses: A is inside
    Aut iff A is a subgroup (``a_subgroup_check``), and then Aut = A iff the
    orders agree.  The count reads every pair of ``_failing_pairs``, so it is
    quadratic only in the failing xi."""
    return _counted_comparison(h, k, max_product_order, central=False)


def compare_autc_vs_Z(
    h: FiniteGroup, k: FiniteGroup, max_product_order: int = DEFAULT_AUT_ENUM_LIMIT
) -> AutComparison:
    """Decide both inclusions between Aut_c(H x K) and Z by counting."""
    return _counted_comparison(h, k, max_product_order, central=True)


@dataclass(frozen=True)
class SemidirectReport:
    """Outcome of the structural check behind the stem-pair description.

    D is the subgroup of diagonal matrices, N the subset with identity
    diagonal, U and L its upper and lower unitriangular parts.
    """

    group_order: int
    diagonal_order: int
    normal_order: int
    n_is_subgroup: bool
    n_is_normal: bool
    u_l_commute: bool
    d_intersect_n_trivial: bool
    d_n_covers: bool

    @property
    def verified(self) -> bool:
        return (
            self.n_is_subgroup
            and self.n_is_normal
            and self.u_l_commute
            and self.d_intersect_n_trivial
            and self.d_n_covers
        )

    def as_dict(self) -> dict:
        return {**asdict(self), "verified": self.verified}


def verify_stem_semidirect(
    h: FiniteGroup,
    k: FiniteGroup,
    max_product_order: int = DEFAULT_AUT_ENUM_LIMIT,
) -> tuple[bool, SemidirectReport]:
    """Check that A over a stem pair splits as diagonal acting on unitriangular.

    Requires both groups stem and no common nontrivial direct factor; then A
    is the full automorphism group and the claim is that N (identity-diagonal
    matrices) is a normal subgroup centralizing nothing across U and L, with
    the diagonal D a complement.
    """
    if not h.is_stem():
        raise PreconditionError(f"{h.name} is not a stem group")
    if not k.is_stem():
        raise PreconditionError(f"{k.name} is not a stem group")
    if common_nontrivial_factor(h, k) is not None:
        raise PreconditionError(
            f"{h.name} and {k.name} share a nontrivial direct factor"
        )
    members = enumerate_A((h, k), max_product_order)
    all_keys = {m.key() for m in members}
    # the entries, identity and zero maps are interned: one map per value tuple
    id_h, id_k = identity_map(h), identity_map(k)
    zero_kh, zero_hk = zero_map(k, h), zero_map(h, k)
    diag = [m for m in members if m.entries[0][1] is zero_kh and m.entries[1][0] is zero_hk]
    nset = [m for m in members if m.entries[0][0] is id_h and m.entries[1][1] is id_k]
    upper = [m for m in nset if m.entries[1][0] is zero_hk]
    lower = [m for m in nset if m.entries[0][1] is zero_kh]
    n_keys = {m.key() for m in nset}

    n_is_subgroup = all(
        matrix_multiply(a, b).key() in n_keys for a in nset for b in nset
    )
    n_is_normal = all(
        matrix_multiply(matrix_multiply(a, x), a_inv).key() in n_keys
        for a in members
        for a_inv in (invert_via_det(a),)
        for x in nset
    )
    u_l_commute = all(
        matrix_multiply(u, x) == matrix_multiply(x, u) for u in upper for x in lower
    )
    ident_key = identity_matrix((h, k)).key()
    diag_keys = {m.key() for m in diag}
    d_intersect_n_trivial = diag_keys & n_keys == {ident_key}
    product_keys = {
        matrix_multiply(d, x).key() for d in diag for x in nset
    }
    d_n_covers = product_keys == all_keys

    report = SemidirectReport(
        group_order=len(members),
        diagonal_order=len(diag),
        normal_order=len(nset),
        n_is_subgroup=n_is_subgroup,
        n_is_normal=n_is_normal,
        u_l_commute=u_l_commute,
        d_intersect_n_trivial=d_intersect_n_trivial,
        d_n_covers=d_n_covers,
    )
    return report.verified, report


def q8_noncommuting_witness() -> tuple[EndoMatrix, EndoMatrix, EndoMatrix, EndoMatrix]:
    """The unitriangular pair over (Q8, C2) whose products differ.

    Returns (u, l, u*l, l*u): u embeds C2 into the center of Q8 above the
    diagonal, l projects Q8 onto C2 below it.  Both lie in A and both
    products are automorphisms, yet u*l != l*u, showing the unitriangular
    parts of A need not commute once a factor is not stem.
    """
    h = build_group("Q8")
    k = build_group("C2")
    central_involution = next(z for z in h.center().elements if z != h.identity)
    other = next(x for x in range(k.order) if x != k.identity)
    beta = GroupMap(k, h, [h.identity, central_involution])
    kernel = set(h.closure([next(x for x in range(h.order) if h.element_orders[x] == 4)]))
    gamma = GroupMap(
        h, k, [k.identity if x in kernel else other for x in range(h.order)]
    )
    u = EndoMatrix((h, k), [[identity_map(h), beta], [zero_map(h, k), identity_map(k)]])
    l = EndoMatrix((h, k), [[identity_map(h), zero_map(k, h)], [gamma, identity_map(k)]])
    ul = matrix_multiply(u, l)
    lu = matrix_multiply(l, u)
    if ul == lu:
        raise StructuralError("the unitriangular pair unexpectedly commutes")
    if not (in_A(u) and in_A(l)):
        raise StructuralError("witness matrices left A")
    if not (is_bijective(recompose(ul)) and is_bijective(recompose(lu))):
        raise StructuralError("witness products are not automorphisms")
    return u, l, ul, lu


def _component_endo(fact: DirectFactorization, onto_left: bool) -> list[int]:
    """Value array of the idempotent endo keeping one internal component."""
    parent = fact.parent
    t = parent.table
    values = [-1] * parent.order
    for a in fact.left.elements:
        for b in fact.right.elements:
            values[t[a][b]] = a if onto_left else b
    if -1 in values:
        raise StructuralError("internal factorization does not cover the group")
    return values


def lemcomm_witness(h: FiniteGroup, k: FiniteGroup) -> EndoMatrix:
    """The swap-style automorphism of H x K built from a common direct factor.

    With H = X x M, K = Y x N and an isomorphism X -> Y, the matrix keeps the
    complements in place, sends X over to Y and Y back to X.  It recomposes to
    an automorphism whose diagonal entries are not bijective, so it witnesses
    that Aut(H x K) is not contained in A whenever a common factor exists.
    The off-diagonal slots are arranged so each entry has the right domain.
    """
    common = common_nontrivial_factor(h, k)
    if common is None:
        raise PreconditionError(f"{h.name} and {k.name} share no nontrivial factor")
    hf, kf = common.h_factorization, common.k_factorization
    x_elems = hf.left.elements
    y_elems = kf.left.elements
    x_index = {x: i for i, x in enumerate(x_elems)}
    y_index = {y: i for i, y in enumerate(y_elems)}
    iso = common.iso_values
    iso_inv = _inverse(iso)
    alpha = GroupMap(h, h, _component_endo(hf, onto_left=False))
    delta = GroupMap(k, k, _component_endo(kf, onto_left=False))
    x_part = _component_endo(hf, onto_left=True)
    y_part = _component_endo(kf, onto_left=True)
    gamma = GroupMap(
        h, k, [y_elems[iso[x_index[x_part[v]]]] for v in range(h.order)]
    )
    beta = GroupMap(
        k, h, [x_elems[iso_inv[y_index[y_part[v]]]] for v in range(k.order)]
    )
    witness = EndoMatrix((h, k), [[alpha, beta], [gamma, delta]])
    if not is_bijective(recompose(witness)):
        raise StructuralError("common-factor swap failed to recompose to an automorphism")
    if in_A(witness):
        raise StructuralError("common-factor swap unexpectedly landed in A")
    return witness
