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

from .autcompare import _failing_pairs, _set_order
from .errors import ResourceLimitError, StructuralError
from .groups import (
    CommonFactorWitness,
    FiniteGroup,
    _composer,
    _memoised,
    build_group,
    common_nontrivial_factor,
    direct_product,
)
from .maps import (
    GroupMap,
    _derived_map,
    aut_order,
    compose,
    enumerate_homs,
    identity_map,
    is_normal_endo,
    pointwise_sum,
)
from .matrices import DEFAULT_AUT_ENUM_LIMIT, _check_enum_bound, map_to_dict

__all__ = [
    "PairWitness",
    "PairReport",
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


def _fixed_point(values: tuple[int, ...], identity: int) -> Optional[int]:
    for x, v in enumerate(values):
        if v == x and x != identity:
            return x
    return None


def _nilpotency_index(values: tuple[int, ...], identity: int) -> Optional[int]:
    """Least n >= 1 with the n-th power of the self-map ``values`` trivial, or None.

    Iteration stops after |domain| steps: past that point the image chain has
    stabilized, so an orbit still away from the identity never reaches it.
    """
    trivial = (identity,) * len(values)
    step = values.__getitem__
    power = values
    for n in range(1, len(values) + 1):
        if power == trivial:
            return n
        power = tuple(map(step, power))
    return None


def _survivor(values: tuple[int, ...], identity: int) -> int:
    """The first element whose orbit misses the identity.

    ``values`` is a self-map that is not nilpotent, so such an element exists.
    """
    for x in range(len(values)):
        y = values[x]
        for _ in range(len(values)):
            if y == identity:
                break
            y = values[y]
        else:
            return x


class _CompositeFacts(dict):
    """Composites on one group, keyed by value tuple, with their facts on first lookup.

    A composite's facts are None when it is not a normal endomorphism, and
    otherwise (its first nontrivial fixed point, its nilpotency index), each
    None when absent.  Every verdict of the pair predicates reads only these.
    They depend on nothing but the group and the tuple, so one instance per
    group (``_composite_facts``) serves every pair pass and never goes stale.
    """

    def __init__(self, g: FiniteGroup):
        super().__init__()
        self.g = g

    def __missing__(self, values: tuple[int, ...]):
        g = self.g
        facts = None
        if is_normal_endo(_derived_map(g, g, values, hom=True)):
            facts = (_fixed_point(values, g.identity), _nilpotency_index(values, g.identity))
        self[values] = facts
        return facts


@_memoised
def _composite_facts(g: FiniteGroup) -> _CompositeFacts:
    return _CompositeFacts(g)


def _pair_pass(
    h: FiniteGroup, k: FiniteGroup, central: bool
) -> tuple[Optional[PairWitness], Optional[PairWitness], Optional[int]]:
    """Every pair predicate of one family: all pairs, or the center-valued ones.

    A pair (sigma, tau) in Hom(h, k) x Hom(k, h) qualifies when sigma.tau and
    tau.sigma are both normal endomorphisms.  Normality is tested exactly,
    not shortcut through image centrality, because compositions with
    noncentral image can still be normal.  The central family takes sigma
    into Z(k) and tau into Z(h).  The walk runs sigma outermost, both in
    sorted order, and stops once both witnesses are found.  The composites
    are value tuples, and their facts are worked out once per group and tuple
    (``_composite_facts``), so the two families share them.

    Returns (compatible, not_totally, total_length): the first pair whose
    sigma.tau fixes a nontrivial element, the first pair with neither
    composition nilpotent, and, when there is no such pair, the largest
    smaller nilpotency index over the qualifying pairs (at least 1).
    """
    zk, zh = (k.center(), h.center()) if central else (None, None)
    k_facts, h_facts = _composite_facts(k), _composite_facts(h)
    prefix = "centrally_" if central else ""
    compatible = not_totally = None
    length = 0
    taus = [(tau, _composer(tau.values)) for tau in enumerate_homs(k, h, restrict_codomain=zh)]
    for sigma in enumerate_homs(h, k, restrict_codomain=zk):
        sv = sigma.values
        after_sigma = _composer(sv)
        for tau, after_tau in taus:
            st = after_tau(sv)  # sigma.tau, a self-map of k
            st_facts = k_facts[st]
            if st_facts is None:
                continue
            ts_facts = h_facts[after_sigma(tau.values)]  # tau.sigma, on h
            if ts_facts is None:
                continue
            (fixed, n_st), n_ts = st_facts, ts_facts[1]
            if compatible is None and fixed is not None:
                compatible = PairWitness(prefix + "compatible", sigma, tau, fixed)
            if not_totally is not None:
                continue
            if n_st is None and n_ts is None:
                survivor = _survivor(st, k.identity)
                not_totally = PairWitness(prefix + "not_totally", sigma, tau, survivor)
            elif n_st is None or n_ts is None:
                raise StructuralError(
                    "one composition nilpotent and the other not; these rise and fall together"
                )
            else:
                length = max(length, min(n_st, n_ts))
        if compatible is not None and not_totally is not None:
            break
    return compatible, not_totally, None if not_totally is not None else max(length, 1)


def is_incompatible(
    h: FiniteGroup, k: FiniteGroup, central: bool = False
) -> tuple[bool, Optional[PairWitness]]:
    """No qualifying composition fixes a nontrivial element.

    The search runs on the k side (fixed points of sigma.tau); the h side is
    equivalent because a fixed point of one composition maps to a fixed point
    of the other.  Returns the first counterexample in enumeration order.
    With ``central`` the homomorphisms are restricted to the center-valued ones.
    """
    compatible = _pair_pass(h, k, central)[0]
    return compatible is None, compatible


def is_centrally_incompatible(
    h: FiniteGroup, k: FiniteGroup
) -> tuple[bool, Optional[PairWitness]]:
    """is_incompatible with homomorphisms restricted to land in the centers."""
    return is_incompatible(h, k, central=True)


def nilpotency_index(f: GroupMap) -> Optional[int]:
    """Least n >= 1 with f^n trivial, or None when no power is."""
    if f.domain is not f.codomain:
        raise StructuralError("nilpotency concerns self-maps")
    return _nilpotency_index(f.values, f.domain.identity)


def is_totally_incompatible(
    h: FiniteGroup, k: FiniteGroup, central: bool = False
) -> tuple[bool, Optional[int], Optional[PairWitness]]:
    """Every qualifying composition is pointwise nilpotent.

    When the answer is yes, also reports the pair's length: the largest over
    qualifying (sigma, tau) of the smaller of the two nilpotency indices, so
    that for every pair one composition to that power is already trivial.
    """
    _, not_totally, length = _pair_pass(h, k, central)
    return not_totally is None, length, not_totally


def is_centrally_totally_incompatible_of_length(
    h: FiniteGroup, k: FiniteGroup, n: int
) -> bool:
    """For every center-valued qualifying pair, one n-th power is trivial.

    That is: centrally totally incompatible, with central length at most n.
    """
    if n < 1:
        raise StructuralError("length must be a positive integer")
    length = _pair_pass(h, k, True)[2]
    return length is not None and length <= n


def a_subgroup_check(
    h: FiniteGroup,
    k: FiniteGroup,
    max_product_order: int = DEFAULT_AUT_ENUM_LIMIT,
) -> tuple[bool, Optional[GroupMap]]:
    """Whether A over (h, k) is closed as a group of automorphisms.

    The criterion: lambda + xi.mu and nu + mu.xi are bijective for every
    lambda in Aut(h), nu in Aut(k), mu: h -> Z(k), xi: k -> Z(h).  As
    lambda + xi.mu = lambda.(1 + lambda^-1.xi.mu) and xi -> lambda^-1.xi
    permutes Hom(k, Z(h)), that is 1 + xi.mu and 1 + mu.xi bijective for
    every (xi, mu).  mu maps the kernel of 1 + xi.mu into that of 1 + mu.xi,
    injectively (mu(x) = 1 there gives x^-1 = xi(1) = 1), and xi back, so
    only ``_failing_pairs`` is read.  The witness is 1 + xi.mu for its first
    pair: the first failing sum over lambda in sorted order, whose first
    member is 1.  As the maps 1 + xi.mu are the maps 1 - xi.mu, A is closed
    iff it lies inside Aut(h x k) (``compare_aut_vs_A``'s ``a_subset_aut``).
    """
    _check_enum_bound((h, k), max_product_order)
    for xi, mu in _failing_pairs(h, k):
        return False, pointwise_sum(identity_map(h), compose(xi, mu))
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
    divergence raises StructuralError.  ``a_subgroup_check`` decides each
    A-side fact once and reads neither the pair pass nor the common-factor
    search, so the cross-checks compare independent routes.  It decides
    whether A is inside Aut(H x K) too; if so, Aut = A iff |Aut(H x K)| =
    |A|, and H x K is built only then, by ``direct_product`` alone.  The
    Aut-level facts degrade to None
    (and ``incomplete=True``) when the product exceeds the enumeration bound.
    """
    hg = build_group(h) if isinstance(h, str) else h
    kg = build_group(k) if isinstance(k, str) else k
    compatible, not_totally, total_length = _pair_pass(hg, kg, False)
    central_compatible = _pair_pass(hg, kg, True)[0]
    incompatible, centrally = compatible is None, central_compatible is None
    totally = not_totally is None
    witnesses = [w for w in (compatible, central_compatible, not_totally) if w is not None]
    common = common_nontrivial_factor(hg, kg)
    central_common = common_nontrivial_factor(hg, kg, central_only=True)

    a_subgroup: Optional[bool] = None
    a_equals_aut: Optional[bool] = None
    incomplete = False
    try:
        a_subgroup, _ = a_subgroup_check(hg, kg, max_product_order)
        a_equals_aut = a_subgroup and (
            aut_order(direct_product(hg, kg)) == _set_order(hg, kg, False)[1]
        )
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
