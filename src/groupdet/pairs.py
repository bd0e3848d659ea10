"""Group-pair predicates: incompatibility in four flavors and what they imply.

A pair (H, K) is incompatible when no composition of cross homomorphisms
sigma: H -> K, tau: K -> H with both sigma.tau and tau.sigma normal fixes a
nontrivial element; centrally incompatible restricts to center-valued
homomorphisms; totally incompatible asks the compositions to be pointwise
nilpotent instead of merely fixed-point-free.  For finite groups these
predicates collapse onto direct-factor structure, and ``classify_pair``
cross-checks every such equivalence while assembling its report.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from .autcompare import _composites, compare_aut_vs_A
from .errors import ResourceLimitError, StructuralError
from .groups import (
    CommonFactorWitness,
    FiniteGroup,
    build_group,
    common_nontrivial_factor,
)
from .maps import (
    GroupMap,
    compose,
    enumerate_homs,
    identity_map,
    is_bijective,
    is_normal_endo,
    pointwise_sum,
)
from .matrices import DEFAULT_AUT_ENUM_LIMIT, _check_enum_bound, map_to_dict

__all__ = [
    "PairWitness",
    "PairReport",
    "qualifying_pairs",
    "is_incompatible",
    "is_totally_incompatible",
    "is_centrally_incompatible",
    "is_centrally_totally_incompatible_of_length",
    "nilpotency_index",
    "a_subgroup_check",
    "classify_pair",
]


@dataclass(frozen=True)
class PairWitness:
    """A counterexample (sigma, tau, element) for one of the pair predicates.

    ``element`` indexes tau's domain (the second group of the pair): it is a
    nontrivial fixed point of sigma.tau, or an element whose orbit under
    sigma.tau never reaches the identity.
    """

    kind: str
    sigma: GroupMap
    tau: GroupMap
    element: int

    def as_dict(self) -> dict:
        return {
            "kind": self.kind,
            "sigma": map_to_dict(self.sigma),
            "tau": map_to_dict(self.tau),
            "element": self.element,
        }


def qualifying_pairs(h: FiniteGroup, k: FiniteGroup, central: bool = False):
    """Yield (sigma, tau, sigma.tau, tau.sigma) with both compositions normal.

    The normality requirement is tested exactly, not shortcut through image
    centrality, because compositions with noncentral image can still be
    normal.  With ``central`` the homomorphism sets shrink to the
    center-valued ones, where normality is automatic but still checked.
    """
    sigmas = enumerate_homs(h, k, restrict_codomain=k.center() if central else None)
    taus = enumerate_homs(k, h, restrict_codomain=h.center() if central else None)
    for sigma in sigmas.members:
        for tau in taus.members:
            st = compose(sigma, tau)
            ts = compose(tau, sigma)
            if is_normal_endo(st) and is_normal_endo(ts):
                yield sigma, tau, st, ts


def _fixed_point(f: GroupMap) -> Optional[int]:
    identity = f.domain.identity
    for x in range(f.domain.order):
        if x != identity and f.values[x] == x:
            return x
    return None


def is_incompatible(
    h: FiniteGroup, k: FiniteGroup, central: bool = False
) -> tuple[bool, Optional[PairWitness]]:
    """No qualifying composition fixes a nontrivial element.

    The search runs on the k side (fixed points of sigma.tau); the h side is
    equivalent because a fixed point of one composition maps to a fixed point
    of the other.  Returns the first counterexample in enumeration order.
    """
    kind = "centrally_compatible" if central else "compatible"
    for sigma, tau, st, _ in qualifying_pairs(h, k, central):
        fixed = _fixed_point(st)
        if fixed is not None:
            return False, PairWitness(kind, sigma, tau, fixed)
    return True, None


def is_centrally_incompatible(
    h: FiniteGroup, k: FiniteGroup
) -> tuple[bool, Optional[PairWitness]]:
    """is_incompatible with homomorphisms restricted to land in the centers."""
    return is_incompatible(h, k, central=True)


def nilpotency_index(f: GroupMap) -> Optional[int]:
    """Least n >= 1 with f^n trivial, or None when no power is.

    Iteration stops after |domain| steps: past that point the image chain has
    stabilized, so an orbit still away from the identity never reaches it.
    """
    if f.domain is not f.codomain:
        raise StructuralError("nilpotency concerns self-maps")
    identity = f.domain.identity
    trivial = (identity,) * f.domain.order
    current = f
    for n in range(1, f.domain.order + 1):
        if current.values == trivial:
            return n
        current = compose(f, current)
    return None


def is_totally_incompatible(
    h: FiniteGroup, k: FiniteGroup, central: bool = False
) -> tuple[bool, Optional[int], Optional[PairWitness]]:
    """Every qualifying composition is pointwise nilpotent.

    When the answer is yes, also reports the pair's length: the largest over
    qualifying (sigma, tau) of the smaller of the two nilpotency indices, so
    that for every pair one composition to that power is already trivial.
    """
    kind = "centrally_not_totally" if central else "not_totally"
    length = 0
    for sigma, tau, st, ts in qualifying_pairs(h, k, central):
        n_st = nilpotency_index(st)
        n_ts = nilpotency_index(ts)
        if n_st is None and n_ts is None:
            survivor = next(
                x for x in range(k.order)
                if nilpotency_index_of_orbit(st, x) is None
            )
            return False, None, PairWitness(kind, sigma, tau, survivor)
        if n_st is None or n_ts is None:
            raise StructuralError(
                "one composition nilpotent and the other not; these rise and fall together"
            )
        length = max(length, min(n_st, n_ts))
    return True, max(length, 1), None


def nilpotency_index_of_orbit(f: GroupMap, x: int) -> Optional[int]:
    """Least n >= 1 with f^n(x) trivial, or None when the orbit misses it."""
    identity = f.domain.identity
    y = f.values[x]
    for n in range(1, f.domain.order + 1):
        if y == identity:
            return n
        y = f.values[y]
    return None


def is_centrally_totally_incompatible_of_length(
    h: FiniteGroup, k: FiniteGroup, n: int
) -> bool:
    """For every center-valued qualifying pair, one n-th power is trivial."""
    if n < 1:
        raise StructuralError("length must be a positive integer")
    for _, _, st, ts in qualifying_pairs(h, k, central=True):
        if _power_trivial(st, n) or _power_trivial(ts, n):
            continue
        return False
    return True


def _power_trivial(f: GroupMap, n: int) -> bool:
    identity = f.domain.identity
    for x in range(f.domain.order):
        y = x
        for _ in range(n):
            y = f.values[y]
        if y != identity:
            return False
    return True


def a_subgroup_check(
    h: FiniteGroup,
    k: FiniteGroup,
    max_product_order: int = DEFAULT_AUT_ENUM_LIMIT,
) -> tuple[bool, Optional[GroupMap]]:
    """Whether A over (h, k) is closed as a group of automorphisms.

    The criterion: lambda + xi.mu and nu + mu.xi are bijective for every
    lambda in Aut(h), nu in Aut(k), mu: h -> Z(k), xi: k -> Z(h).  Since
    lambda + xi.mu = lambda.(1 + lambda^-1.xi.mu) and xi -> lambda^-1.xi
    permutes Hom(k, Z(h)), the first holds for every lambda iff 1 + xi.mu is
    bijective for every (xi, mu); likewise nu + mu.xi with 1 + mu.xi.  So
    the check is two loops over the distinct composites of
    ``autcompare._composites``, the h side first, and no automorphism group
    is listed.  On failure the witness is the first non-bijective sum, the
    same as over lambda (or nu) in sorted order, whose first member is the
    identity.
    """
    _check_enum_bound((h, k), max_product_order)
    for a, b in ((h, k), (k, h)):
        one = identity_map(a)
        for phi, _ in _composites(a, b):
            s = pointwise_sum(one, phi, require_commuting=True)
            if not is_bijective(s):
                return False, s
    return True, None


@dataclass(frozen=True)
class PairReport:
    """Everything classify_pair establishes about one pair of groups.

    ``total_length`` is present exactly when the pair is totally
    incompatible; ``a_is_subgroup``/``a_equals_aut`` are None when the
    automorphism enumeration hit its resource bound (then ``incomplete``).
    """

    h_spec: str
    k_spec: str
    incompatible: bool
    centrally_incompatible: bool
    totally_incompatible: bool
    total_length: Optional[int]
    common_factor: Optional[CommonFactorWitness]
    a_is_subgroup: Optional[bool]
    a_equals_aut: Optional[bool]
    witnesses: tuple[PairWitness, ...] = ()
    incomplete: bool = False

    def __post_init__(self):
        if self.totally_incompatible and not self.incompatible:
            raise StructuralError("totally incompatible pair claims to be compatible")
        if self.incompatible and not self.centrally_incompatible:
            raise StructuralError("incompatible pair claims to be centrally compatible")
        if self.common_factor is not None and self.incompatible:
            raise StructuralError("a common factor always produces a compatible pair")

    def as_dict(self) -> dict:
        cf = None
        if self.common_factor is not None:
            cf = {
                "factor_order": self.common_factor.h_factor.order,
                "h_elements": list(self.common_factor.h_factor.elements),
                "k_elements": list(self.common_factor.k_factor.elements),
            }
        return {
            "h_spec": self.h_spec,
            "k_spec": self.k_spec,
            "incompatible": self.incompatible,
            "centrally_incompatible": self.centrally_incompatible,
            "totally_incompatible": self.totally_incompatible,
            "total_length": self.total_length,
            "common_factor": cf,
            "a_is_subgroup": self.a_is_subgroup,
            "a_equals_aut": self.a_equals_aut,
            "witnesses": [w.as_dict() for w in self.witnesses],
            "incomplete": self.incomplete,
        }


def _check(condition: bool, label: str) -> None:
    if not condition:
        raise StructuralError(f"finite-case equivalence violated: {label}")


def classify_pair(
    h: Union[FiniteGroup, str],
    k: Union[FiniteGroup, str],
    max_product_order: int = DEFAULT_AUT_ENUM_LIMIT,
) -> PairReport:
    """Full pair report with every applicable finite-case equivalence checked.

    Finite groups satisfy both chain conditions on normal subgroups, so each
    of the structure results applies unconditionally: incompatibility must
    coincide with the absence of a common nontrivial direct factor, central
    incompatibility with the absence of a central one and with A being a
    subgroup, and Aut = A again with the absence of a common factor.  Any
    divergence raises StructuralError.  The Aut-level facts degrade to None
    (and ``incomplete=True``) when the product exceeds the enumeration bound.
    """
    hg = build_group(h) if isinstance(h, str) else h
    kg = build_group(k) if isinstance(k, str) else k
    witnesses: list[PairWitness] = []

    incompatible, w_inc = is_incompatible(hg, kg)
    if w_inc is not None:
        witnesses.append(w_inc)
    centrally, w_cinc = is_centrally_incompatible(hg, kg)
    if w_cinc is not None:
        witnesses.append(w_cinc)
    totally, total_length, w_tot = is_totally_incompatible(hg, kg)
    if w_tot is not None:
        witnesses.append(w_tot)
    common = common_nontrivial_factor(hg, kg)
    central_common = common_nontrivial_factor(hg, kg, central_only=True)

    a_subgroup: Optional[bool] = None
    a_equals_aut: Optional[bool] = None
    incomplete = False
    try:
        a_subgroup, _ = a_subgroup_check(hg, kg, max_product_order)
        cmp = compare_aut_vs_A(hg, kg, max_product_order)
        a_equals_aut = cmp.equal
    except ResourceLimitError:
        incomplete = True

    _check(incompatible == (common is None), "incompatible vs common factor")
    _check(
        centrally == (central_common is None),
        "centrally incompatible vs common central factor",
    )
    if totally:
        _check(incompatible, "totally incompatible implies incompatible")
    if a_subgroup is not None:
        _check(centrally == a_subgroup, "centrally incompatible vs A closed")
        _check(
            a_subgroup == (central_common is None),
            "A closed vs common central factor",
        )
    if a_equals_aut is not None:
        _check(a_equals_aut == (common is None), "Aut equal A vs common factor")
        if totally:
            _check(a_equals_aut, "totally incompatible implies Aut equal A")

    return PairReport(
        h_spec=hg.name,
        k_spec=kg.name,
        incompatible=incompatible,
        centrally_incompatible=centrally,
        totally_incompatible=totally,
        total_length=total_length,
        common_factor=common,
        a_is_subgroup=a_subgroup,
        a_equals_aut=a_equals_aut,
        witnesses=tuple(witnesses),
        incomplete=incomplete,
    )
